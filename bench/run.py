"""Benchmark of the tilewalk command-line toolkit.

Runs one workload's CLI commands as users do: one fresh process per
command, ``--workers 2`` and the workload seed as ``--seed``, each command
writing to a fresh output directory.  Every output is checked against the
paper's claims and exact identities (see checks.py); a command that exits
non-zero, times out, fails a check, or whose output bodies differ from its
first run's counts as failed.

    python3 bench/run.py --workload geometry --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's commands run in rounds for about
``--seconds``, and each end-to-end metric is taken from the per-command
medians (wall and CPU time are their sums).  With ``--trace 1`` it
runs once untraced and once in-process with spans (traced.py), compares
the two runs' output bodies (one worker against two) and reports the
per-layer metrics.  ``--corrupt`` damages one output per workload before
it is checked, to show that the checks fail (see selftest.py).

The last line of standard output is the result as one JSON object; the line
before it records the run facts (machine, versions, seed, load average,
per-command times).  Files are written only under bench/.work/ and removed
at exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import body_digests, check_step, corrupt_output
from workloads import (ROOT, SCENARIOS, SETUP_SCENARIO, SRC, TABLE_CODE, TABLE_REFERENCE,
                       TABLE_SCENARIO, TABLE_X, WORKLOADS, Step, scenario_paths)

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / ".work"
WORKERS = 2
# setup_s is measured before every round of commands, so that it samples
# the same stretch of machine time as the workload, and at least SETUP_MIN
# times.
SETUP_PER_ROUND = 1
SETUP_MIN = 7
COMMAND_TIMEOUT_S = 90.0
# Everything, set-up included, ends within this many seconds of the start;
# a command that would run past it is counted as failed.
RUN_LIMIT_S = 165.0

# A fresh interpreter importing the CLI, parsing the workload scenario and
# constructing its kernel: the fixed cost every command pays.
SETUP_CODE = """\
import sys
from tilewalk.cli import load_scenario
from tilewalk.kernels import doubling_kernel, extend_by_equivariance, load_table_spec
from tilewalk.symbolic import CircleRealization
scn = load_scenario(sys.argv[1])
if scn.table_path:
    with open(scn.table_path) as fh:
        extend_by_equivariance(load_table_spec(fh), None, CircleRealization(scn.degree))
else:
    doubling_kernel(scn.x)
"""


@dataclass
class Proc:
    """One finished child process; rc is None when it was killed."""

    rc: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class CommandRun:
    index: int                  # position of the step in its workload
    step: Step
    proc: Proc
    out: Path
    problems: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("TILEWALK_BUDGET", None)     # the CLI's default vertex budget applies
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # commands start from cached bytecode
    return env


def _kill_group(pgid: int, killed: list[bool] | None = None) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if killed is not None:
        killed.append(True)


def run_proc(argv: list[str], timeout: float, log: Path) -> Proc:
    """Run argv in its own process group; kill the group after timeout.

    Wall time is measured from spawn to exit.  CPU time and peak RSS come
    from wait4, so they include pool workers the process waited for.
    """
    if timeout <= 1:
        return Proc(None, 0.0, 0.0, 0.0)
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{log}.stdout", "wb") as out, open(f"{log}.stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        killed: list[bool] = []
        timer = threading.Timer(timeout, _kill_group, (proc.pid, killed))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)        # any stray process left in the group
    return Proc(None if killed else proc.returncode, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, corrupt: bool):
        self.workload = workload
        self.steps = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.corrupt = corrupt
        self.paths = scenario_paths(work)
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.reference: dict[str, dict[str, str]] = {}
        self.first_bodies: dict[int, dict[str, str]] = {}

    def timeout(self) -> float:
        return min(COMMAND_TIMEOUT_S, self.deadline - perf_counter())

    def cli_argv(self, step: Step, out: Path) -> list[str]:
        argv = [sys.executable, "-m", "tilewalk.cli", step.command, "--out", str(out),
                "--workers", str(WORKERS), "--seed", str(self.seed)]
        if step.scenario:
            argv += ["--scenario", str(self.paths[step.scenario])]
        if step.x:
            argv += ["--x", step.x]
        return argv

    def prepare(self) -> None:
        """Untimed set-up: the table file and the doubling outputs the
        table-kernel workload must reproduce."""
        if self.workload != "table-kernel":
            return
        table = self.work / "table.tsv"
        log = self.work / "table"
        if run_proc([sys.executable, "-c", TABLE_CODE, str(table), TABLE_X],
                    self.timeout(), log).rc != 0:
            raise RuntimeError("table set-up failed: " + Path(f"{log}.stderr").read_text())
        self.paths["table"].write_text(TABLE_SCENARIO.format(table=table))
        for step in TABLE_REFERENCE:
            out = self.work / "reference" / step.command
            proc = run_proc(self.cli_argv(step, out), self.timeout(), out)
            if proc.rc == 0:
                self.reference[step.command] = body_digests(out)

    def setup_times(self, n: int) -> list[float]:
        scenario = str(self.paths[SETUP_SCENARIO[self.workload]])
        argv = [sys.executable, "-c", SETUP_CODE, scenario]
        log = self.work / "setup"
        times = []
        for _ in range(n):
            proc = run_proc(argv, self.timeout(), log)
            if proc.rc != 0:
                raise RuntimeError("set-up failed: " + Path(f"{log}.stderr").read_text())
            times.append(proc.wall_s)
        return times

    def check(self, run: CommandRun) -> None:
        if run.proc.rc is None:
            run.problems.append("timed out")
            return
        if run.proc.rc != 0:
            run.problems.append(f"exit code {run.proc.rc}")
            return
        if self.corrupt:
            corrupt_output(self.workload, run.step, run.out)
        scenario = self.paths[run.step.scenario] if run.step.scenario else None
        run.problems += check_step(self.workload, run.step, run.out, scenario,
                                   self.reference)

    def compare_bodies(self, run: CommandRun, what: str) -> None:
        """Output bodies must equal those of the step's first run."""
        got = body_digests(run.out) if run.out.is_dir() else {}
        if got != self.first_bodies.setdefault(run.index, got):
            run.problems.append(f"output bodies differ from the first run ({what})")

    def command(self, k: int, i: int) -> CommandRun:
        """Run and check step i of the workload in round k."""
        step = self.steps[i]
        out = self.work / f"r{k}" / f"{i}-{step.command}"
        run = CommandRun(i, step, run_proc(self.cli_argv(step, out), self.timeout(), out), out)
        self.check(run)
        self.compare_bodies(run, "rerun")
        return run

    def traced(self, k: int) -> tuple[list[CommandRun], dict[str, float]]:
        """One in-process traced pass with one worker (traced.py)."""
        out_dir = self.work / f"t{k}"
        out_dir.mkdir(parents=True)
        log = out_dir / "traced"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--work-dir", str(self.work),
                "--out-dir", str(out_dir), "--timeout", str(COMMAND_TIMEOUT_S)]
        proc = run_proc(argv, self.deadline - perf_counter(), log)
        result_file = out_dir / "traced.json"
        if proc.rc != 0 or not result_file.is_file():
            sys.stderr.write(Path(f"{log}.stderr").read_text())
            runs = [CommandRun(i, s, Proc(None, 0.0, 0.0, 0.0), out_dir / "none",
                               ["traced run did not finish"]) for i, s in enumerate(self.steps)]
            return runs, {}
        result = json.loads(result_file.read_text())
        sys.stderr.write(Path(f"{log}.stderr").read_text())
        runs = []
        for i, (step, cmd) in enumerate(zip(self.steps, result["commands"])):
            # rc is None after a timeout, -1 after an exception
            rc = None if cmd["timed_out"] else (-1 if cmd["rc"] is None else cmd["rc"])
            run = CommandRun(i, step, Proc(rc, cmd["wall_s"], 0.0, 0.0), Path(cmd["out"]))
            self.check(run)
            self.compare_bodies(run, "traced, 1 worker against untraced, 2 workers")
            runs.append(run)
        return runs, result["layers"]


def speed_probe_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the machine runs
    at the moment, since host contention on a shared VM moves every timing
    together."""
    t0 = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return perf_counter() - t0


def _facts(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "workers": WORKERS,
        "trace": args.trace, "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy_version, "commit": commit,
    }


def measure(bench: Bench, args) -> tuple[list[CommandRun], dict, dict]:
    """Returns (every command run, metrics, extra facts)."""
    steps = range(len(bench.steps))

    if args.trace:
        def more_time(t0: float, done: int) -> bool:
            """Whether one more pass, at the mean length so far, still ends
            within --seconds of t0 and well before the run limit."""
            elapsed = perf_counter() - t0
            return (elapsed * (done + 1) / done <= args.seconds
                    and bench.deadline - perf_counter() > 2 * elapsed / done + 5)

        t0 = perf_counter()
        untraced = [bench.command(0, i) for i in steps]
        passes = []
        while True:
            passes.append(bench.traced(len(passes)))
            if not passes[-1][1] or not more_time(t0, len(passes) + 1):
                break
        runs = untraced + [r for pass_runs, _ in passes for r in pass_runs]
        # median_low keeps counts integral: every pass gives the same count
        layers = {name: statistics.median_low(p[name] for _, p in passes)
                  for name in passes[0][1]}
        if layers:
            untraced_wall = sum(r.proc.wall_s for r in untraced)
            layers["bench.trace_overhead_s"] = statistics.median(
                sum(r.proc.wall_s for r in pass_runs) for pass_runs, _ in passes) - untraced_wall
        return runs, layers, {"trace_overhead_s": layers.get("bench.trace_overhead_s")}

    # Rounds run the workload's commands in order.  Every command runs in
    # the first round; after it, a command runs again while its median time
    # so far still ends within --seconds of the start, so a workload whose
    # whole sequence no longer fits still fills the run with its shorter
    # commands.
    setup: list[float] = []
    by_step: list[list[CommandRun]] = [[] for _ in steps]
    t0 = perf_counter()

    def fits(i: int, extra_s: float = 0.0) -> bool:
        expected = statistics.median(r.proc.wall_s for r in by_step[i]) + extra_s
        return (perf_counter() - t0 + expected <= args.seconds
                and bench.deadline - perf_counter() > 2 * expected + 5)

    k = 0
    while k == 0 or any(fits(i, SETUP_PER_ROUND * statistics.median(setup)) for i in steps):
        setup += bench.setup_times(SETUP_PER_ROUND)
        for i in steps:
            if k == 0 or fits(i):
                by_step[i].append(bench.command(k, i))
        k += 1
    setup += bench.setup_times(max(0, SETUP_MIN - len(setup)))

    def per_step(value) -> list[float]:
        return [statistics.median(value(r.proc) for r in runs) for runs in by_step]

    wall = per_step(lambda p: p.wall_s)
    metrics = {
        "wall_s": sum(wall),
        "cpu_s": sum(per_step(lambda p: p.cpu_s)),
        "peak_rss_mb": max(per_step(lambda p: p.rss_mb)),
        "setup_s": statistics.median(setup),
    }
    return [r for runs in by_step for r in runs], metrics, {
        "runs_per_command": {bench.steps[i].command: len(by_step[i]) for i in steps},
        "per_command_median_s": {bench.steps[i].command: wall[i] for i in steps},
        "setup_runs_s": setup,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="tilewalk CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output per workload before checking it")
    args = ap.parse_args(argv)

    if not (SRC / "tilewalk" / "cli.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no tilewalk sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, work, args.corrupt)
        load_before, speed_before = os.getloadavg(), speed_probe_s()
        bench.prepare()
        runs, values, extra = measure(bench, args)
        facts = _facts(args)
        facts["loadavg_before"] = list(load_before)
        facts["loadavg_after"] = list(os.getloadavg())
        facts["speed_probe_s"] = [speed_before, speed_probe_s()]
        facts.update(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"FAILED {args.workload} {r.step.command}: {'; '.join(r.problems)}",
              file=sys.stderr)
    facts["fail_frac"] = len(failed) / len(runs)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": not failed, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
