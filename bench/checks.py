"""Output checks of the tilewalk benchmark.

The checks test the paper's claims and exact identities, not golden bytes:
the Monte Carlo sample stream is expected to change between versions, so
sampled outputs are checked for structure and for agreement with exact
values within a stated tolerance.  Every check returns a list of problems;
an empty list means the command's output is correct.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

from workloads import Step

# Green drift h(3/5) = lim (H_{n+1} - H_n) of the x = 3/5 walk, from the
# exact level-by-level law.
GREEN_DRIFT_3_5 = 0.627217
# The estimate -log F(o, Z_n) / n at n = 30 is biased low by O(1/n): about
# -0.0069 at 1e5 paths, with a standard error of 0.0002.  The tolerance
# holds that bias plus 25 standard errors.
GREEN_DRIFT_TOL = 0.012

REFERENCE_GREEN_ROWS = 511      # vertices of reference.scn to level 8
REFERENCE_EDGES = 1527
HYPERBOLICITY_CUTOFFS = ("4", "5", "6")
CLASSIFY_COUNTS = {"homeomorphism": 4, "non_injective": 4, "critical": 1}


def _lines(path: Path) -> list[str]:
    with path.open() as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in _lines(path)]


def _pairs(path: Path) -> dict[str, str]:
    return {row[0]: row[1] for row in _rows(path) if len(row) >= 2}


def body_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each output file with its '#' header lines removed.

    Headers carry the version and a scenario hash that ignores CLI
    overrides, so only bodies are compared between runs.
    """
    digests = {}
    for path in sorted(out_dir.iterdir()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for line in fh:
                if not line.startswith(b"#"):
                    h.update(line)
        digests[path.name] = h.hexdigest()
    return digests


def scenario_value(path: Path, key: str) -> str:
    for line in path.read_text().splitlines():
        k, eq, v = line.partition("=")
        if eq and k.strip() == key:
            return v.strip().strip('"')
    raise KeyError(f"{key} not in {path}")


def _check_samples(out: Path, scenario: Path) -> list[str]:
    problems = []
    n_paths = int(scenario_value(scenario, "run.n_paths"))
    bin_level = int(scenario_value(scenario, "run.bin_level"))
    rows = _rows(out / "samples.tsv")
    if rows[:1] != [["path", "stream_seed", "final_word", "midpoint"]]:
        problems.append("samples.tsv: bad header")
    body = rows[1:]
    if [r[0] for r in body] != [str(i) for i in range(n_paths)]:
        problems.append(f"samples.tsv: expected one row per path 0..{n_paths - 1}, "
                        f"got {len(body)} rows")
    masses = [float(r[1]) for r in _rows(out / "measure.tsv")[1:]]
    if len(masses) != 2**bin_level:
        problems.append(f"measure.tsv: {len(masses)} bins, expected {2**bin_level}")
    if min(masses, default=-1.0) < 0 or abs(sum(masses) - 1) > 1e-9:
        problems.append(f"measure.tsv: masses sum to {sum(masses)!r}")
    if _pairs(out / "quasi_invariance.tsv").get("exact_identity") != "True":
        problems.append("quasi_invariance.tsv: exact_identity is not True")
    return problems


def _check_dimension(out: Path) -> list[str]:
    vals = _pairs(out / "dimension.tsv")
    problems = []
    if vals.get("drift_l") != "1":
        problems.append(f"dimension.tsv: drift_l = {vals.get('drift_l')}, expected 1")
    drift = float(vals.get("green_drift", "nan"))
    if not abs(drift - GREEN_DRIFT_3_5) <= GREEN_DRIFT_TOL:
        problems.append(f"dimension.tsv: green_drift {drift} not within "
                        f"{GREEN_DRIFT_TOL} of h(3/5) = {GREEN_DRIFT_3_5}")
    return problems


def _check_uniform_green(out: Path) -> list[str]:
    """At x = 1/4 the walk is uniform: F(o, v) = 2^-|v| on every vertex."""
    rows = _rows(out / "green_o.tsv")
    if len(rows) != REFERENCE_GREEN_ROWS:
        return [f"green_o.tsv: {len(rows)} rows, expected {REFERENCE_GREEN_ROWS}"]
    for source, w, p, q in rows:
        level = 0 if w == "o" else len(w)
        if source != "o" or Fraction(int(p), int(q)) != Fraction(1, 2**level):
            return [f"green_o.tsv: F(o, {w}) = {p}/{q}, expected 1/{2**level}"]
    return []


def _check_classify(out: Path) -> list[str]:
    body = _rows(out / "classify.tsv")[1:]
    verdicts = {v: sum(1 for r in body if r[1] == v) for v in CLASSIFY_COUNTS}
    critical = [r[0] for r in body if r[1] == "critical"]
    problems = []
    if verdicts != CLASSIFY_COUNTS or len(body) != sum(CLASSIFY_COUNTS.values()):
        problems.append(f"classify.tsv: verdict counts {verdicts}")
    if critical != ["2/5"]:
        problems.append(f"classify.tsv: critical parameters {critical}, expected 2/5")
    return problems


def _check_all_ok(out: Path, name: str) -> list[str]:
    rows = [r for r in _rows(out / name) if r[0] != "note"]
    bad = [r[0] for r in rows if r[1] != "ok"]
    if not rows or bad:
        return [f"{name}: failed rows {bad}" if bad else f"{name}: empty"]
    return []


def _check_martin(out: Path) -> list[str]:
    rows = _rows(out / "martin.tsv")
    if rows[:1] != [["target", "ray_offset", "level", "window_word", "kernel_value"]]:
        return ["martin.tsv: bad header"]
    body = rows[1:]
    if {r[0] for r in body} != {"1/2", "1/3"}:
        return ["martin.tsv: expected traces for targets 1/2 and 1/3"]
    if not all(Fraction(r[4]) >= 0 for r in body):
        return ["martin.tsv: negative kernel value"]
    # Martin kernels are normalised at the root: K(o, xi) = 1 on every trace.
    if any(r[4] != "1" for r in body if r[3] == "o"):
        return ["martin.tsv: K(o, xi) != 1"]
    return []


def _check_demo(out: Path) -> list[str]:
    vals = _pairs(out / "demo.tsv")
    want = {"verdict": "non_injective", "trace_ratio": "1:2:1", "side_growth": "3"}
    got = {k: vals.get(k) for k in want}
    return [] if got == want else [f"demo.tsv: {got}, expected {want}"]


def _check_build(out: Path) -> list[str]:
    rows = _rows(out / "graph_edges.tsv")
    vertices = {w for r in rows for w in r[:2]}
    if len(rows) != REFERENCE_EDGES or len(vertices) != REFERENCE_GREEN_ROWS:
        return [f"graph_edges.tsv: {len(vertices)} vertices, {len(rows)} edges; "
                f"expected {REFERENCE_GREEN_ROWS} and {REFERENCE_EDGES}"]
    return []


def _check_hyperbolicity(out: Path) -> list[str]:
    rows = {r[0]: r for r in _rows(out / "hyperbolicity.tsv")}
    problems = []
    for cutoff in HYPERBOLICITY_CUTOFFS:
        row = rows.get(cutoff)
        if row is None or row[1] != "1" or row[2] != "True":
            problems.append(f"hyperbolicity.tsv: cutoff {cutoff}: {row}, "
                            "expected delta 1, exhaustive")
    return problems


def check_step(workload: str, step: Step, out: Path, scenario: Path | None,
               reference: dict[str, dict[str, str]]) -> list[str]:
    """Problems with the outputs of one command of a workload.

    ``reference`` maps a command to the body digests of the doubling
    kernel's outputs, against which the table-kernel workload is compared.
    """
    try:
        return _check(workload, step, out, scenario, reference)
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check(workload, step, out, scenario, reference):
    cmd = step.command
    if cmd == "simulate":
        return _check_samples(out, scenario)
    if cmd == "dimension":
        return _check_dimension(out)
    if cmd == "validate":
        return _check_all_ok(out, "validate.tsv")
    if cmd == "checks":
        return _check_all_ok(out, "checks.tsv")
    if cmd == "classify":
        return _check_classify(out)
    if cmd == "demo-doubling":
        return _check_demo(out)
    if cmd == "build":
        return _check_build(out)
    if cmd == "hyperbolicity":
        return _check_hyperbolicity(out)
    if workload == "table-kernel":
        # green and martin: the table must reproduce the doubling kernel
        want = reference[cmd]
        got = body_digests(out)
        return [] if got == want else [f"{cmd}: output bodies differ from the "
                                       "doubling kernel's at x = 3/5"]
    if cmd == "green":
        return _check_uniform_green(out)
    if cmd == "martin":
        return _check_martin(out)
    raise ValueError(f"no check for {cmd}")


# One output per workload that --corrupt damages, to show the checks fail.
def _replace(old: str, new: str):
    def corrupt(text: str) -> str:
        if old not in text:
            raise ValueError(f"corruption target {old!r} not found")
        return text.replace(old, new, 1)
    return corrupt


CORRUPTIONS = {
    "mc-doubling": ("dimension", "dimension.tsv", _replace("green_drift\t0.", "green_drift\t0.5")),
    "exact-doubling": ("demo-doubling", "demo.tsv", _replace("trace_ratio\t1:2:1", "trace_ratio\t1:3:1")),
    "geometry": ("hyperbolicity", "hyperbolicity.tsv", _replace("5\t1\tTrue", "5\t3/2\tTrue")),
    "table-kernel": ("green", "green_o.tsv", _replace("o\to\t1\t1", "o\to\t1\t2")),
}


def corrupt_output(workload: str, step: Step, out: Path) -> None:
    command, name, corrupt = CORRUPTIONS[workload]
    if step.command == command:
        path = out / name
        path.write_text(corrupt(path.read_text()))
