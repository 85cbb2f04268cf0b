"""Scenario-driven command-line front end.

Scenarios are flat ``key = value`` text files with dotted section keys;
rationals are always quoted "p/q".  Every output file starts with a header
recording the tool version, the scenario hash and the seed, and reruns with
identical inputs are byte-identical.

Exit codes: 0 success, 2 scenario/usage validation failure, 3 property-check
failure, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .symbolic import ROOT, CircleRealization, Word, tile_of
from .tile_graph import (
    BudgetExceededError,
    build_graph,
    diameter_comparability,
    hyperbolicity_delta,
    write_edge_dump,
)
from .kernels import (
    BLOCK,
    KernelError,
    doubling_kernel,
    extend_by_equivariance,
    load_table_spec,
    validate_assumptions,
)
from .green_martin import (
    brute_force_hitting,
    classify_doubling_boundary,
    green_table,
    hitting_vector,
    martin_traces,
    multiplicative_reports,
    ray_word,
    shadow_hull,
    write_green_table,
)
from .ergodics import (
    cylinder_invariance_check,
    dimension_report,
    empirical_harmonic_measure,
    green_drift_estimate,
    quasi_invariance_check,
    sample_paths,
    sha256,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3
EXIT_BUDGET = 4

COMMANDS = ("build", "validate", "green", "martin", "classify", "simulate",
            "dimension", "hyperbolicity", "checks", "demo-doubling")

REFERENCE_SCENARIO = """\
system.degree = 2
kernel.family = doubling_px
kernel.x = "1/4"
run.max_level = 8
run.n_paths = 10000
run.n_steps = 30
run.seed = 1
run.bin_level = 8
run.window_level = 3
run.trace_level = 20
run.targets = "1/2"
run.x_grid = "1/10, 1/5, 3/10, 39/100, 2/5, 41/100, 1/2, 3/5, 9/10"
"""

# scenario key -> (Scenario attribute, value type)
_KEYS = {
    "system.degree": ("degree", int),
    "kernel.family": ("kernel_family", str),
    "kernel.x": ("x", Fraction),
    "kernel.table": ("table_path", str),
    "kernel.base_level": ("base_level", int),
    "run.max_level": ("max_level", int),
    "run.n_paths": ("n_paths", int),
    "run.n_steps": ("n_steps", int),
    "run.seed": ("seed", int),
    "run.bin_level": ("bin_level", int),
    "run.window_level": ("window_level", int),
    "run.trace_level": ("trace_level", int),
    "run.targets": ("targets", list),
    "run.x_grid": ("x_grid", list),
}

# quadruples the multiplicativity check draws, and its cap on draws
_MULT_TARGET = 200
_MULT_MAX_ATTEMPTS = 20 * _MULT_TARGET

_CAPS = {"run.n_paths": 10_000_000, "run.n_steps": 64, "run.max_level": 24,
         "run.bin_level": 20, "run.trace_level": 64}
_FLOORS = {"run.n_paths": 1, "run.n_steps": 1, "run.max_level": 0,
           "run.bin_level": 0, "run.window_level": 0, "run.trace_level": 0}


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class Scenario:
    degree: int = 2
    kernel_family: str = "doubling_px"
    x: Fraction = Fraction(1, 4)
    table_path: str | None = None
    base_level: int | None = None        # checked against the built kernel's
    max_level: int = 8
    n_paths: int = 10_000
    n_steps: int = 30
    seed: int = 1
    bin_level: int = 8
    window_level: int = 3
    trace_level: int = 20
    targets: list[Fraction] = field(default_factory=lambda: [Fraction(1, 2)])
    x_grid: list[Fraction] = field(default_factory=list)
    text: str = ""

    @property
    def hash(self) -> str:
        """Hash of the resolved fields, overrides included; the text itself
        (comments, key order) does not enter.  The output header of a table
        scenario hashes this with the table file's bytes."""
        resolved = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "text"}
        return sha256(repr(resolved).encode()).hexdigest()[:16]


def _parse_fraction(raw: str, key: str, problems: list[str]) -> Fraction | None:
    raw = raw.strip().strip('"')
    try:
        if "/" in raw:
            num, den = raw.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(raw))
    except (ValueError, ZeroDivisionError):
        problems.append(f"{key}: not a rational: {raw!r}")
        return None


def parse_scenario(document: str) -> Scenario:
    """Parse and validate a scenario document; unknown keys are rejected and
    all problems are reported together."""
    problems: list[str] = []
    values: dict[str, object] = {}
    for lineno, raw in enumerate(document.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            problems.append(f"line {lineno}: expected 'key = value'")
            continue
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        kind = _KEYS[key][1]
        if kind is int:
            try:
                values[key] = int(value)
            except ValueError:
                problems.append(f"{key}: not an integer: {value!r}")
        elif kind is Fraction:
            fr = _parse_fraction(value, key, problems)
            if fr is not None:
                values[key] = fr
        elif kind is list:
            items = [v for v in value.strip('"').split(",") if v.strip()]
            parsed = [_parse_fraction(v, key, problems) for v in items]
            values[key] = [p for p in parsed if p is not None]
        else:
            values[key] = value.strip('"')

    scn = Scenario(text=document)
    for key, value in values.items():
        setattr(scn, _KEYS[key][0], value)
    if "kernel.table" in values:
        if values.get("kernel.family", "table") != "table":
            problems.append(f"kernel.family: {scn.kernel_family} conflicts with kernel.table")
        scn.kernel_family = "table"
    elif scn.kernel_family == "table":
        problems.append("kernel.family: table requires kernel.table")

    if scn.degree < 2:
        problems.append("system.degree: must be >= 2")
    if scn.kernel_family not in ("doubling_px", "table"):
        problems.append(f"kernel.family: unknown family {scn.kernel_family!r}")
    if scn.kernel_family == "doubling_px":
        if not 0 < scn.x < 1:
            problems.append(f"kernel.x: {scn.x} outside (0,1)")
        if scn.degree != 2:
            problems.append("kernel.family doubling_px requires system.degree = 2")
    if scn.table_path and not Path(scn.table_path).exists():
        problems.append(f"kernel.table: no such file {scn.table_path!r}")
    if scn.kernel_family == "table" and scn.degree > 10:
        problems.append(f"kernel.table: a table file holds symbols 0-9 only, "
                        f"system.degree {scn.degree} needs more")
    for key, cap in _CAPS.items():
        if getattr(scn, _KEYS[key][0]) > cap:
            problems.append(f"{key}: exceeds cap {cap}")
    for key, floor in _FLOORS.items():
        if getattr(scn, _KEYS[key][0]) < floor:
            problems.append(f"{key}: must be >= {floor}")
    for xg in scn.x_grid:
        if not 0 < xg < 1:
            problems.append(f"run.x_grid: {xg} outside (0,1)")
    if problems:
        raise ScenarioError(problems)
    return scn


def load_scenario(path: str | None) -> Scenario:
    if path is None:
        return parse_scenario(REFERENCE_SCENARIO)
    return parse_scenario(Path(path).read_text())


# -- output helpers ------------------------------------------------------------


def fmt_real(x: float) -> str:
    """Round-half-even at 12 significant digits, '.' decimal separator."""
    if x != x:
        return "nan"
    if x in (math.inf, -math.inf):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def fmt_frac(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


class OutputWriter:
    def __init__(self, out_dir: Path, scenario: Scenario, command: str, seed: int):
        self.out_dir = out_dir
        self.scenario = scenario
        self.command = command
        self.seed = seed
        # a table file is read once, here: the header's hash covers the bytes
        # that _build_kernel parses
        self.table = (Path(scenario.table_path).read_bytes()
                      if scenario.kernel_family == "table" else None)
        self.scenario_hash = (scenario.hash if self.table is None else
                              sha256(scenario.hash.encode() + self.table).hexdigest()[:16])

    def open(self, name: str):
        # the directory is made with the first file, so a command that fails
        # before it writes leaves no --out behind
        self.out_dir.mkdir(parents=True, exist_ok=True)
        fh = (self.out_dir / name).open("w")
        fh.write(f"# tilewalk v{__version__}\n")
        fh.write(f"# command = {self.command}\n")
        fh.write(f"# scenario_hash = {self.scenario_hash}\n")
        fh.write(f"# seed = {self.seed}\n")
        return fh


def _build_kernel(out: OutputWriter, graph=None):
    scn = out.scenario
    if out.table is None:
        kernel = doubling_kernel(scn.x, graph)
    else:
        spec = load_table_spec(out.table.decode().splitlines())
        kernel = extend_by_equivariance(spec, graph, CircleRealization(scn.degree))
    if scn.base_level is not None and scn.base_level != kernel.base_level:
        raise ScenarioError([f"kernel.base_level: scenario gives {scn.base_level}, "
                             f"the kernel has base level {kernel.base_level}"])
    return kernel


# -- commands ------------------------------------------------------------------


def _cmd_build(scn: Scenario, out: OutputWriter, workers: int) -> int:
    graph = build_graph(CircleRealization(scn.degree), scn.max_level)
    with out.open("graph_edges.tsv") as fh:
        n_edges = write_edge_dump(graph, fh)
    print(f"build: {graph.n_vertices} vertices, {n_edges} edges "
          f"to level {scn.max_level}")
    return EXIT_OK


def _cmd_validate(scn: Scenario, out: OutputWriter, workers: int) -> int:
    graph = build_graph(CircleRealization(scn.degree), scn.max_level)
    kernel = _build_kernel(out, graph)
    report = validate_assumptions(kernel)
    rows = [
        ("row_sums", report.row_sums.ok, report.row_sums.witness),
        ("level_increase", report.level_increase.ok, report.level_increase.witness),
        ("coverage", report.coverage.ok, report.coverage.witness),
        ("equivariance", report.equivariance.ok,
         report.equivariance.witness or
         f"from_level={report.equivariant_from_level}"),
    ]
    with out.open("validate.tsv") as fh:
        for name, ok, detail in rows:
            fh.write(f"{name}\t{'ok' if ok else 'FAIL'}\t{detail}\n")
        for note in report.notes:
            fh.write(f"note\t-\t{note}\n")
    status = "pass" if report.passed else "FAIL"
    print(f"validate: {status}, minimal R = {report.minimal_radius}, "
          f"equivariant from level {report.equivariant_from_level}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_green(scn: Scenario, out: OutputWriter, workers: int) -> int:
    kernel = _build_kernel(out)
    table = green_table(kernel, ROOT, scn.max_level)
    with out.open("green_o.tsv") as fh:
        n = write_green_table(table, fh)
    print(f"green: {n} exact values from o to level {scn.max_level}")
    return EXIT_OK


def _cmd_martin(scn: Scenario, out: OutputWriter, workers: int) -> int:
    kernel = _build_kernel(out)
    per_target = [(xi, martin_traces(kernel, xi, scn.window_level, scn.trace_level))
                  for xi in scn.targets]
    with out.open("martin.tsv") as fh:
        fh.write("target\tray_offset\tlevel\twindow_word\tkernel_value\n")
        for xi, traces in per_target:
            for trace in traces:
                for k, v in enumerate(trace.ray):
                    vec = trace.vectors[k]
                    for w in trace.window:
                        fh.write(f"{fmt_frac(xi)}\t{trace.ray_offset}\t{v.level}"
                                 f"\t{w}\t{fmt_frac(vec[w])}\n")
                lim = ("" if trace.limit is None else
                       " limit=" + ",".join(f"{w}:{fmt_frac(r)}"
                                            for w, r in sorted(
                                                trace.limit.items(),
                                                key=lambda t: (t[0].level, t[0].symbols))))
                print(f"martin: target {fmt_frac(xi)} ray {trace.ray_offset:+d} "
                      f"converged={trace.converged}"
                      f" growth={'' if trace.growth is None else fmt_frac(trace.growth)}{lim}")
    return EXIT_OK


def _cmd_classify(scn: Scenario, out: OutputWriter, workers: int) -> int:
    grid = scn.x_grid or [scn.x]
    with out.open("classify.tsv") as fh:
        fh.write("x\tverdict\teig1\teig2\teig3\tcontraction\tderivative_sup\t"
                 "ratio_limit\tside_growth\n")
        verdicts = []
        for xv in grid:
            c = classify_doubling_boundary(xv)
            verdicts.append(c.verdict)
            e1, e2, e3 = c.eigen_data.eigenvalues
            fh.write("\t".join([
                fmt_frac(xv), c.verdict, fmt_frac(e1), fmt_frac(e2), fmt_frac(e3),
                fmt_frac(c.contraction), fmt_frac(c.derivative_sup),
                ":".join(fmt_frac(t) for t in c.ray_ratio_limit),
                fmt_frac(c.side_ray_growth),
            ]) + "\n")
    print(f"classify: {len(grid)} parameters, "
          f"{verdicts.count('homeomorphism')} homeomorphism / "
          f"{verdicts.count('non_injective')} non-injective / "
          f"{verdicts.count('critical')} critical")
    return EXIT_OK


def _cmd_simulate(scn: Scenario, out: OutputWriter, workers: int) -> int:
    kernel = _build_kernel(out)
    samples = sample_paths(kernel, scn.n_paths, scn.n_steps, scn.seed, workers)
    measure = empirical_harmonic_measure(samples, scn.bin_level)
    qi = quasi_invariance_check(measure, kernel)
    with out.open("samples.tsv") as fh:
        fh.write("path\tstream_seed\tfinal_word\tmidpoint\n")
        # a block's words and midpoints are Python strings and integers
        for a in range(0, len(samples), BLOCK):
            rows = samples[a:a + BLOCK]
            # a midpoint (2i+1)/(2 d^n), n >= 1, never reduces to an integer
            nums, dens = rows.final_midpoint_arrays()
            fh.writelines(f"{p}\t{s}\t{w}\t{num}/{den}\n" for p, s, w, num, den in zip(
                rows.path_index.tolist(), rows.stream_seed.tolist(),
                rows.final_words(), nums.tolist(), dens.tolist()))
    with out.open("measure.tsv") as fh:
        fh.write("bin\tmass\n")
        for b, mass in enumerate(measure.masses):
            fh.write(f"{b}\t{fmt_real(float(mass))}\n")
    with out.open("quasi_invariance.tsv") as fh:
        fh.write(f"level_one_mass\t{fmt_frac(qi.level_one_mass)}\n")
        fh.write(f"exact_identity\t{qi.exact_identity}\n")
        fh.write(f"tv_distance\t{fmt_real(qi.tv_distance)}\n")
        fh.write(f"max_bin_ratio\t{fmt_real(qi.max_bin_ratio)}\n")
        fh.write(f"min_bin_ratio\t{fmt_real(qi.min_bin_ratio)}\n")
        fh.write(f"ratio_bound\t{fmt_real(qi.ratio_bound)}\n")
    print(f"simulate: {scn.n_paths} paths x {scn.n_steps} steps, "
          f"pushforward TV = {fmt_real(qi.tv_distance)}")
    return EXIT_OK


def _cmd_dimension(scn: Scenario, out: OutputWriter, workers: int) -> int:
    kernel = _build_kernel(out)
    samples = sample_paths(kernel, scn.n_paths, scn.n_steps, scn.seed, workers)
    drift = green_drift_estimate(kernel, samples)
    measure = empirical_harmonic_measure(samples, scn.bin_level)
    a = kernel.realization.visual_parameter
    report = dimension_report(measure, drift, a)
    median_dim = float(np.median(report.local_dims))
    with out.open("dimension.tsv") as fh:
        fh.write(f"drift_l\t{fmt_frac(drift.l)}\n")
        fh.write(f"green_drift\t{fmt_real(drift.l_G_estimate)}\n")
        fh.write(f"green_drift_stderr\t{fmt_real(drift.l_G_stderr)}\n")
        fh.write(f"packing_estimate\t{fmt_real(report.packing_estimate)}\n")
        fh.write(f"median_local_dim\t{fmt_real(median_dim)}\n")
        fh.write(f"formula_value\t{fmt_real(report.formula_value)}\n")
        fh.write(f"n_points\t{report.n_points}\n")
    print(f"dimension: packing ~ {fmt_real(report.packing_estimate)}, "
          f"l_G/(a l) = {fmt_real(report.formula_value)}")
    return EXIT_OK


def _cmd_hyperbolicity(scn: Scenario, out: OutputWriter, workers: int) -> int:
    if scn.max_level < 4:
        raise ValueError(f"run.max_level: hyperbolicity needs >= 4, got {scn.max_level}")
    graph = build_graph(CircleRealization(scn.degree), scn.max_level)
    cutoffs = [c for c in (4, 5, 6) if c <= scn.max_level]
    with out.open("hyperbolicity.tsv") as fh:
        fh.write("cutoff\tdelta\texhaustive\tn_triples\twitness\n")
        deltas = []
        for c in cutoffs:
            rep = hyperbolicity_delta(graph, c)
            deltas.append(rep.delta)
            fh.write(f"{c}\t{fmt_frac(rep.delta)}\t{rep.exhaustive}\t"
                     f"{rep.n_triples}\t"
                     f"{','.join(str(w) for w in rep.witness)}\n")
        pair_levels = {min(6, scn.max_level), min(8, scn.max_level)}
        for lvl in sorted(p for p in pair_levels if p >= 1):
            comp = diameter_comparability(graph, lvl)
            fh.write(f"diam_comparability_{lvl}\t{fmt_real(comp.constant)}\t-\t-\t"
                     f"{','.join(str(w) for w in comp.worst_pair)}\n")
    print("hyperbolicity: delta = "
          + ", ".join(f"{c}:{fmt_frac(d)}" for c, d in zip(cutoffs, deltas)))
    return EXIT_OK


def _cmd_checks(scn: Scenario, out: OutputWriter, workers: int) -> int:
    """Aggregate exact-arithmetic property suites; any violation fails."""
    realization = CircleRealization(scn.degree)
    graph = build_graph(realization, max(scn.max_level, 6))
    kernel = _build_kernel(out, graph)
    results: list[tuple[str, bool, str]] = []

    report = validate_assumptions(kernel)
    results.append(("assumptions", report.passed,
                    f"minimal_R={report.minimal_radius}"))

    # one forward DP serves both: it is exact on every level up to its stop
    table = green_table(kernel, ROOT, 7)
    shallow = {w: f for w, f in table.values.items() if w.level <= 5}
    brute = brute_force_hitting(kernel, ROOT, 5)
    results.append(("green_dp_vs_enumeration", shallow == brute,
                    f"{len(shallow)} targets"))

    rng = random.Random(scn.seed)
    pool = sorted(table.support(7), key=lambda w: w.symbols)
    # one hitting vector per drawn w serves the filter and the check
    vectors: dict[Word, dict[Word, Fraction]] = {}
    quadruples = []
    attempts = 0
    while len(quadruples) < _MULT_TARGET and attempts < _MULT_MAX_ATTEMPTS:
        attempts += 1
        w = rng.choice(pool)
        if w not in vectors:
            vectors[w] = hitting_vector(kernel, w)
        vec = vectors[w]
        lv = rng.randint(0, 2)
        lu = rng.randint(lv, 4)
        v = Word.from_index(rng.randrange(scn.degree**lv) if lv else 0, lv, scn.degree)
        u = Word.from_index(rng.randrange(scn.degree**lu) if lu else 0, lu, scn.degree)
        if u not in vec or v not in vec:
            continue
        ls = rng.randint(lv, 6)
        s = Word.from_index(rng.randrange(scn.degree**ls) if ls else 0, ls, scn.degree)
        quadruples.append((v, s, u, w))
    ok_mult = all(rep.holds for rep in multiplicative_reports(kernel, quadruples, vectors))
    results.append(("multiplicativity", ok_mult and len(quadruples) == _MULT_TARGET,
                    f"{len(quadruples)} quadruples in {attempts} attempts"))

    cyl = cylinder_invariance_check(kernel, 2, 2)
    results.append(("cylinder_invariance", cyl.all_equal,
                    f"{len(cyl.rows)} cylinders"))

    shadow_ok = True
    c1 = Fraction(scn.degree ** kernel.radius * scn.degree, scn.degree - 1)
    for n in range(0, 7):
        for i in range(scn.degree**n):
            u = Word.from_index(i, n, scn.degree)
            hull = shadow_hull(kernel, u, min(n + 5, graph.max_level + 4))
            ball = tile_of(realization, u).neighborhood(
                c1 * Fraction(scn.degree) ** (-n))
            if not ball.contains_arc(hull):
                shadow_ok = False
    results.append(("shadow_geometry", shadow_ok, "levels <= 6"))

    with out.open("checks.tsv") as fh:
        for name, ok, detail in results:
            fh.write(f"{name}\t{'ok' if ok else 'FAIL'}\t{detail}\n")
    n_bad = sum(1 for _, ok, _ in results if not ok)
    for name, ok, detail in results:
        print(f"checks: {name}: {'ok' if ok else 'FAIL'} ({detail})")
    return EXIT_OK if n_bad == 0 else EXIT_PROPERTY


def _cmd_demo_doubling(scn: Scenario, out: OutputWriter, workers: int) -> int:
    xv = scn.x
    c = classify_doubling_boundary(xv)
    kernel = doubling_kernel(xv)
    xi = Fraction(1, 2)
    n_max = max(scn.trace_level, 25)
    traces = {t.ray_offset: t for t in
              martin_traces(kernel, xi, scn.window_level, n_max)}
    left_ray = traces[-2]      # the ray one tile left of 1/2
    side_ray = traces[-1]      # the ray of tiles ending at 1/2
    anchor_level = scn.window_level
    cols = [ray_word(xi, anchor_level, off) for off in (-2, -1, 0)]
    lim = left_ray.limit
    ratios = None
    if lim:
        raw = [lim[c_] for c_ in cols]
        top = max(raw)
        # drop extrapolation residue far below the dominant component
        raw = [Fraction(0) if top and abs(r) < top * Fraction(1, 10**6) else r
               for r in raw]
        floor = min((r for r in raw if r > 0), default=Fraction(1))
        ratios = [r / floor for r in raw]
    def _ratio_str(rs: list[Fraction]) -> str:
        if max(r.denominator for r in rs) <= 10**6:
            return ":".join(fmt_frac(r) for r in rs)
        return ":".join(fmt_real(float(r)) for r in rs)

    with out.open("demo.tsv") as fh:
        fh.write(f"x\t{fmt_frac(xv)}\n")
        fh.write(f"verdict\t{c.verdict}\n")
        fh.write("eigenvalues\t" + ",".join(fmt_frac(e) for e in c.eigen_data.eigenvalues) + "\n")
        fh.write(f"contraction\t{fmt_frac(c.contraction)}\n")
        if ratios:
            fh.write("trace_ratio\t" + _ratio_str(ratios) + "\n")
        if side_ray.growth is not None:
            fh.write(f"side_growth\t{fmt_frac(side_ray.growth)}\n")
    ratio_str = ("" if not ratios else " ratios " + _ratio_str(ratios))
    growth_str = ("" if side_ray.growth is None else
                  f" growth {fmt_frac(side_ray.growth)}")
    print(f"demo-doubling: x = {fmt_frac(xv)} -> {c.verdict},{ratio_str},{growth_str}")
    return EXIT_OK


_HANDLERS = {
    "build": _cmd_build,
    "validate": _cmd_validate,
    "green": _cmd_green,
    "martin": _cmd_martin,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "dimension": _cmd_dimension,
    "hyperbolicity": _cmd_hyperbolicity,
    "checks": _cmd_checks,
    "demo-doubling": _cmd_demo_doubling,
}


def run_command(name: str, scenario: Scenario, out_dir: str | Path = "out",
                workers: int = 1, seed: int | None = None,
                x: Fraction | None = None) -> int:
    """Run one sub-command; returns the process exit status."""
    if name not in _HANDLERS:
        raise ValueError(f"unknown command {name!r}")
    try:
        if x is not None and scenario.kernel_family == "table":
            raise ValueError("kernel.table: --x sets kernel.x, which a table kernel "
                             "does not read")
        # both read only kernel.x: what they report is the doubling family's boundary
        if name in ("classify", "demo-doubling") and scenario.kernel_family == "table":
            raise ValueError(f"kernel.table: {name} reads only kernel.x; "
                             f"it does not take a table kernel")
        if seed is not None:
            scenario.seed = seed
        if x is not None:
            # the parameter given on the command line replaces the scenario's grid
            scenario.x = x
            scenario.x_grid = []
        writer = OutputWriter(Path(out_dir), scenario, name, scenario.seed)
        return _HANDLERS[name](scenario, writer, workers)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KernelError, ValueError, OSError) as exc:
        # OSError: an --out that cannot be made or written, or an unreadable table
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tilewalk",
        description="Tile graphs of expanding circle maps: exact Green/Martin "
                    "kernels, random walks, harmonic measures.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", help="scenario file (key = value lines)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--x", default=None,
                        help='kernel parameter "p/q" (classify/demo)')
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"scenario error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    x = None
    if args.x is not None:
        problems: list[str] = []
        x = _parse_fraction(args.x, "--x", problems)
        if problems or not (x and 0 < x < 1):
            print(f"error: --x must be a rational in (0,1), got {args.x!r}",
                  file=sys.stderr)
            return EXIT_VALIDATION

    return run_command(args.command, scenario, args.out, args.workers,
                       args.seed, x)


if __name__ == "__main__":
    sys.exit(main())
