"""Traced in-process run of one benchmark workload.

Runs the workload's commands through ``tilewalk.cli.run_command`` with one
worker.  Spans are recorded around calls into each module's public
functions by wrappers installed from this file; nothing under ``src/``
changes.  Spans are aggregated in memory per function (calls, inclusive
time, self time = span time minus child spans) together with work counts
taken at the same boundaries, and written as one JSON object at the end.

    python3 bench/traced.py --workload geometry --seed 1 --work-dir DIR --out-dir OUT --timeout 90
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import signal
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import SRC, WORKLOADS, scenario_paths

sys.path.insert(0, str(SRC))

import tilewalk  # noqa: E402  (imports every module the wrappers patch)
import tilewalk.cli as cli  # noqa: E402

# Module-level functions that get a span, per layer.
SPANNED = {
    "symbolic": ("arcs_diameter", "tiles_intersect", "arc_hull"),
    "tile_graph": ("build_graph", "bfs_distances", "hyperbolicity_delta",
                   "diameter_comparability"),
    "kernels": ("validate_assumptions",),
    "green_martin": ("green_table", "hitting_vector", "martin_traces",
                     "check_multiplicative", "shadow_hull",
                     "classify_doubling_boundary"),
    "ergodics": ("sample_paths", "green_drift_estimate",
                 "empirical_harmonic_measure", "dimension_report",
                 "quasi_invariance_check", "cylinder_invariance_check"),
}
# Methods of every kernel class in tilewalk.kernels, one span name each.
KERNEL_METHODS = ("outgoing", "predecessors")


class CommandTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    swallows it."""


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.rss_growth: defaultdict[str, int] = defaultdict(int)
        self.outgoing_seen: set = set()
        self.kernels: dict[int, object] = {}    # keeps ids in outgoing_seen unique
        self._stack: list[float] = []            # child time of each open span

    def wrap(self, name, fn, count=None, rss=False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _rss_bytes() if rss else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if rss:
                self.rss_growth[name] = max(self.rss_growth[name], _rss_bytes() - rss0)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper


def _see_outgoing(tracer, args, kwargs, result):
    kernel, u = args[0], args[1] if len(args) > 1 else kwargs["u"]
    tracer.kernels[id(kernel)] = kernel
    tracer.outgoing_seen.add((id(kernel), u))


def _arg(fn, name):
    """Reads argument ``name`` of a call to fn, passed by position or keyword."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _counter(name, quantity):
    """Count hook that adds quantity(args, kwargs, result) to counter ``name``."""
    def count(tracer, args, kwargs, result):
        tracer.counts[name] += quantity(args, kwargs, result)
    return count


def _hooks() -> dict:
    tg, erg = tilewalk.tile_graph, tilewalk.ergodics
    graph = _arg(tg.diameter_comparability, "graph")
    n_paths = _arg(erg.sample_paths, "n_paths")
    n_steps = _arg(erg.sample_paths, "n_steps")

    def pairs(args, kwargs, report):
        levels = graph(args, kwargs).levels
        m = sum(len(levels[level]) for level in range(1, report.pair_level + 1))
        return m * (m + 1) // 2

    return {
        "tile_graph.build_graph": _counter(
            "tile_graph.vertices", lambda a, k, r: r.n_vertices),
        "tile_graph.hyperbolicity_delta": _counter(
            "tile_graph.hyperbolicity_delta.triples", lambda a, k, r: r.n_triples),
        "tile_graph.diameter_comparability": _counter(
            "tile_graph.diameter_comparability.pairs", pairs),
        "green_martin.green_table": _counter(
            "green_martin.green_table.cells", lambda a, k, r: len(r.values)),
        "green_martin.hitting_vector": _counter(
            "green_martin.hitting_vector.cells", lambda a, k, r: len(r)),
        "ergodics.green_drift_estimate": _counter(
            "ergodics.green_drift_estimate.paths", lambda a, k, r: r.n_paths),
        "ergodics.sample_paths": _counter(
            "ergodics.sample_paths.path_steps",
            lambda a, k, r: n_paths(a, k) * n_steps(a, k)),
    }


def install(tracer: Tracer) -> None:
    """Replace each spanned function by its wrapper in every tilewalk
    module that holds a reference to it, and wrap kernel methods and CLI
    command handlers."""
    modules = [m for name, m in sys.modules.items()
               if name == "tilewalk" or name.startswith("tilewalk.")]
    hooks = _hooks()
    for layer, names in SPANNED.items():
        mod = sys.modules[f"tilewalk.{layer}"]
        for fname in names:
            original = getattr(mod, fname, None)
            if original is None:
                continue
            span = f"{layer}.{fname}"
            wrapper = tracer.wrap(span, original, hooks.get(span),
                                  rss=span == "ergodics.sample_paths")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    kernels = sys.modules["tilewalk.kernels"]
    for cls in list(vars(kernels).values()):
        if isinstance(cls, type) and cls.__module__ == kernels.__name__:
            for meth in KERNEL_METHODS:
                if inspect.isfunction(vars(cls).get(meth)):
                    hook = _see_outgoing if meth == "outgoing" else None
                    setattr(cls, meth, tracer.wrap(f"kernels.{meth}",
                                                   vars(cls)[meth], hook))
    handlers = getattr(cli, "_HANDLERS", {})
    for command, handler in list(handlers.items()):
        handlers[command] = tracer.wrap(f"cli.{command}", handler)


def layer_values(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Flat per-layer values; every spanned name is present, 0 if unused."""
    spans = [f"{layer}.{f}" for layer, names in SPANNED.items() for f in names]
    spans += [f"kernels.{m}" for m in KERNEL_METHODS]
    spans += [f"cli.{c}" for c in cli.COMMANDS]
    values: dict[str, float] = {}
    for span in spans:
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.self_s"] = tracer.self_s[span]
    for name in ("tile_graph.vertices", "tile_graph.hyperbolicity_delta.triples",
                 "tile_graph.diameter_comparability.pairs",
                 "green_martin.green_table.cells", "green_martin.hitting_vector.cells",
                 "ergodics.green_drift_estimate.paths"):
        values[name] = tracer.counts[name]

    def rate(count, span):
        t = tracer.total_s[span]
        return count / t if t > 0 else 0.0

    calls = tracer.calls["kernels.outgoing"]
    values["kernels.outgoing.distinct_ratio"] = (
        len(tracer.outgoing_seen) / calls if calls else 0.0)
    values["green_martin.hitting_vector.cells_per_s"] = rate(
        tracer.counts["green_martin.hitting_vector.cells"], "green_martin.hitting_vector")
    values["ergodics.sample_paths.path_steps_per_s"] = rate(
        tracer.counts["ergodics.sample_paths.path_steps"], "ergodics.sample_paths")
    values["ergodics.sample_paths.rss_mb"] = (
        tracer.rss_growth["ergodics.sample_paths"] / 2**20)
    values["cli.bytes_written"] = bytes_written
    return values


def _on_alarm(signum, frame):
    raise CommandTimeout()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", type=Path, required=True,
                    help="directory holding the generated table scenario")
    ap.add_argument("--out-dir", type=Path, required=True,
                    help="command outputs and traced.json go here")
    ap.add_argument("--timeout", type=float, required=True,
                    help="per-command limit in seconds")
    args = ap.parse_args(argv)

    tracer = Tracer()
    install(tracer)
    paths = scenario_paths(args.work_dir)
    signal.signal(signal.SIGALRM, _on_alarm)
    commands = []
    bytes_written = 0
    for i, step in enumerate(WORKLOADS[args.workload]):
        out = args.out_dir / f"{i}-{step.command}"
        rc, timed_out = None, False
        sink = io.StringIO()
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, args.timeout)
        try:
            scn = cli.load_scenario(str(paths[step.scenario]) if step.scenario else None)
            x = Fraction(step.x) if step.x else None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.run_command(step.command, scn, out, workers=1,
                                     seed=args.seed, x=x)
        except CommandTimeout:
            timed_out = True
        except Exception:
            traceback.print_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
        if out.is_dir():
            bytes_written += sum(p.stat().st_size for p in out.iterdir())
        commands.append({"command": step.command, "out": str(out), "rc": rc,
                         "timed_out": timed_out, "wall_s": wall})
    result = {"commands": commands, "layers": layer_values(tracer, bytes_written)}
    (args.out_dir / "traced.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
