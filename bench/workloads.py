"""Workloads of the tilewalk benchmark, shared by ``run.py`` and ``traced.py``.

Each workload is a fixed sequence of CLI commands.  The workload seed is
passed to every command as ``--seed``; nothing else varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

# The x = 3/5 law of scenarios/supercritical.scn written as an explicit
# base-level-2 table, so the same maths runs through EquivariantTableKernel
# and the generic sampler.
TABLE_X = "3/5"
TABLE_SCENARIO = """\
# x = 3/5 doubling law as a base-level-2 equivariant table
system.degree = 2
kernel.table = {table}
kernel.base_level = 2
run.max_level = 8
run.n_paths = 600
run.n_steps = 30
run.seed = 1
run.bin_level = 10
run.window_level = 3
run.trace_level = 25
run.targets = "1/2, 1/3"
"""


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload.

    ``scenario`` names a key of the scenario paths ("reference",
    "supercritical" or "table"); None runs on the CLI's built-in scenario.
    """

    command: str
    scenario: str | None
    x: str | None = None


WORKLOADS: dict[str, tuple[Step, ...]] = {
    "mc-doubling": (
        Step("simulate", "supercritical"),
        Step("dimension", "supercritical"),
    ),
    "exact-doubling": (
        Step("green", "reference"),
        Step("classify", "reference"),
        Step("checks", "reference"),
        Step("martin", "supercritical"),
        Step("demo-doubling", None, "1/2"),
    ),
    "geometry": (
        Step("build", "reference"),
        Step("validate", "reference"),
        Step("hyperbolicity", "reference"),
    ),
    "table-kernel": (
        Step("validate", "table"),
        Step("green", "table"),
        Step("martin", "table"),
        Step("simulate", "table"),
    ),
}

# The scenario whose kernel setup_s constructs.
SETUP_SCENARIO = {
    "mc-doubling": "supercritical",
    "exact-doubling": "reference",
    "geometry": "reference",
    "table-kernel": "table",
}

# Commands whose output bodies the table-kernel workload must reproduce
# from the doubling kernel on scenarios/supercritical.scn.
TABLE_REFERENCE = (Step("green", "supercritical"), Step("martin", "supercritical"))


def scenario_paths(work_dir: Path) -> dict[str, Path]:
    return {
        "reference": SCENARIOS / "reference.scn",
        "supercritical": SCENARIOS / "supercritical.scn",
        "table": work_dir / "table.scn",
    }


# Writes the table file named by argv[1]; run in a child process so the
# harness itself never imports tilewalk or numpy (a child's peak RSS starts
# from its parent's).
TABLE_CODE = """\
import sys
from fractions import Fraction
from tilewalk.kernels import doubling_table_spec, save_table_spec
with open(sys.argv[1], "w") as fh:
    save_table_spec(doubling_table_spec(Fraction(sys.argv[2])), fh)
"""
