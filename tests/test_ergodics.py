import math
from fractions import Fraction as F

import numpy as np
import pytest

from tilewalk.symbolic import ROOT, CircleRealization, Word, parse_word
from tilewalk.kernels import (
    LevelOverflowError,
    TableSpec,
    doubling_kernel,
    doubling_table_spec,
    extend_by_equivariance,
)
from tilewalk.green_martin import green_table
from tilewalk import ergodics
from tilewalk.ergodics import (
    EmpiricalMeasure,
    InsufficientDepthError,
    check_path_subadditivity,
    cylinder_invariance_check,
    dimension_report,
    drift_exact,
    empirical_harmonic_measure,
    exact_green_drift_curve,
    frac_log,
    green_drift_estimate,
    quasi_invariance_check,
    root_hitting_probability,
    sample_paths,
)


def test_frac_log_huge():
    assert math.isclose(frac_log(F(1, 2**2000)), -2000 * math.log(2))
    assert frac_log(F(1)) == 0.0


def test_sampling_reproducible_and_legal():
    k = doubling_kernel(F(2, 5))
    a = sample_paths(k, 50, 12, seed=9)
    b = sample_paths(k, 50, 12, seed=9)
    assert [s.indices for s in a] == [s.indices for s in b]
    c = sample_paths(k, 50, 12, seed=10)
    assert [s.indices for s in a] != [s.indices for s in c]
    for s in a[:10]:
        assert s.levels == tuple(range(1, 13))       # levels rise by exactly 1
        for step in range(s.n_steps):
            assert k.weight(s.word(step), s.word(step + 1)) > 0


def test_sampling_worker_invariance():
    k = doubling_kernel(F(1, 3))
    seq = sample_paths(k, 600, 8, seed=4, workers=1)
    par = sample_paths(k, 600, 8, seed=4, workers=3)
    assert [s.indices for s in seq] == [s.indices for s in par]


_RADIUS_2 = extend_by_equivariance(TableSpec(1, (
    (ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2)),
    (parse_word("0"), Word.from_index(0, 2, 2), F(1, 2)),
    (parse_word("0"), Word.from_index(5, 3, 2), F(1, 2)),
    (parse_word("1"), Word.from_index(2, 2, 2), F(1, 2)),
    (parse_word("1"), Word.from_index(1, 3, 2), F(1, 2)))),
    realization=CircleRealization(2))


@pytest.mark.parametrize("kernel,workers,n_steps", [
    pytest.param(doubling_kernel(F(3, 5)), 2, 2, id="radius-1"),
    pytest.param(_RADIUS_2, 2, 2, id="radius-2"),
    # three chunks of unequal size
    pytest.param(_RADIUS_2, 3, 2, id="radius-2-three-workers"),
    # indices past int64: Python integers cross the pool
    pytest.param(doubling_kernel(F(1, 7)), 2, 64, id="x=1/7-64-steps"),
])
def test_pooled_sampling_matches_one_process(kernel, workers, n_steps, monkeypatch):
    import concurrent.futures

    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: pools.append(kw) or pool_class(**kw))
    # each worker seeds more than one chunk of streams
    n_paths = ergodics.POOL_MIN_PATHS
    assert n_paths // workers > ergodics._SEED_CHUNK
    one = sample_paths(kernel, n_paths, n_steps, seed=7, workers=1)
    assert pools == []
    pooled = sample_paths(kernel, n_paths, n_steps, seed=7, workers=workers)
    assert pools == [{"max_workers": workers}]
    for name in ("path_index", "stream_seed", "indices", "levels"):
        assert np.array_equal(getattr(one, name), getattr(pooled, name)), name


def test_pool_workers_receive_the_row_table_not_the_kernel(monkeypatch):
    import concurrent.futures
    import pickle

    from tilewalk.tile_graph import build_graph

    payloads = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    class RecordingPool(pool_class):
        def submit(self, fn, *args):
            payloads.append(pickle.dumps(args))
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    kernel = doubling_kernel(F(3, 5), build_graph(CircleRealization(2), 8))
    sample_paths(kernel, ergodics.POOL_MIN_PATHS, 2, seed=7, workers=2)
    assert len(payloads) == 2
    # the kernel pickles with its graph; the table is a few arrays
    assert len(pickle.dumps(kernel)) > 20_000
    for payload in payloads:
        assert len(payload) < 5_000
        assert not any(isinstance(a, type(kernel)) for a in pickle.loads(payload))


def test_sampling_depth_guard():
    k = doubling_kernel(F(1, 3), depth_limit=10)
    with pytest.raises(LevelOverflowError):
        sample_paths(k, 5, 11, seed=0)


def test_sampling_step_guard_comes_before_seeding_and_the_pool(monkeypatch):
    import concurrent.futures

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: started.append("pool"))
    monkeypatch.setattr(ergodics, "_stream_seeds", lambda *a: started.append("seeds"))
    # 113 steps draw the 226 outputs a seeded state gives before its first twist
    k = doubling_kernel(F(1, 4), depth_limit=200)
    with pytest.raises(ValueError, match="n_steps must be <= 113, got 114"):
        sample_paths(k, 30_000, 114, seed=1, workers=2)
    assert started == []


def test_one_step_distribution():
    x = F(2, 5)
    k = doubling_kernel(x)
    samples = sample_paths(k, 100_000, 1, seed=1)
    ones = sum(1 for s in samples if s.indices[0] == 1)
    p1 = float((1 + 2 * x) / 3)
    se = math.sqrt(p1 * (1 - p1) / len(samples))
    assert abs(ones / len(samples) - p1) < 3 * se


def test_drift_exact():
    assert drift_exact(doubling_kernel(F(1, 7))) == 1
    assert drift_exact(doubling_kernel(F(9, 10))) == 1
    # a base window splitting the root mass between levels 1 and 2
    base = doubling_table_spec(F(1, 4), 2)
    entries = [e for e in base.entries if e[0] != ROOT]
    entries += [(ROOT, parse_word("0"), F(1, 2)),
                (ROOT, parse_word("11"), F(1, 2))]
    kernel = extend_by_equivariance(TableSpec(2, tuple(entries)),
                                    realization=CircleRealization(2))
    assert drift_exact(kernel) == F(3, 2)


def test_green_drift_uniform_exact():
    k = doubling_kernel(F(1, 4))
    samples = sample_paths(k, 400, 30, seed=2)
    report = green_drift_estimate(k, samples, keep_values=True)
    assert all(f == F(1, 2**30) for f in report.hit_values)
    assert math.isclose(report.l_G_estimate, math.log(2), rel_tol=1e-12)
    assert report.l_G_stderr < 1e-15
    assert report.l == 1


def test_green_drift_nonuniform_below_log2():
    # E(g_n) is the entropy of the level-n visit distribution (P(Z_n = v)
    # equals F(o, v) here), so any x != 1/4 drives the Green drift strictly
    # below log 2 and the dimension formula strictly below 1
    x = F(3, 5)
    k = doubling_kernel(x)
    curve = exact_green_drift_curve(k, 12)           # exact full-level oracle
    exact_rate = curve[-1] - curve[-2]
    assert exact_rate < math.log(2) - 0.05
    samples = sample_paths(k, 4000, 12, seed=3)
    report = green_drift_estimate(k, samples)
    # mean of g_12/12 should match the exact E(g_12)/12 within 4 sigma
    assert abs(report.l_G_estimate - curve[-1] / 12) < 4 * report.l_G_stderr
    assert report.l_G_estimate < math.log(2)


def test_root_hitting_fast_path_matches_table():
    for x in (F(1, 4), F(3, 10), F(3, 5)):
        k = doubling_kernel(x)
        table = green_table(k, ROOT, 9)
        for i in (0, 17, 100, 511):
            target = Word.from_index(i, 9, 2)
            assert root_hitting_probability(k, target) == table.value(target)


def test_path_subadditivity_exact():
    k = doubling_kernel(F(2, 5))
    for s in sample_paths(k, 12, 14, seed=5):
        assert check_path_subadditivity(k, s, 6)


def test_empirical_measure_uniform():
    k = doubling_kernel(F(1, 4))
    samples = sample_paths(k, 50_000, 18, seed=6)
    measure = empirical_harmonic_measure(samples, bin_level=6)
    assert abs(measure.masses.sum() - 1) < 1e-12
    assert not measure.degenerate
    p = 1 / 64
    se = math.sqrt(p * (1 - p) / len(samples))
    assert np.max(np.abs(measure.masses - p)) < 4.5 * se


def test_empirical_measure_depth_guard():
    k = doubling_kernel(F(1, 4))
    samples = sample_paths(k, 10, 12, seed=0)
    with pytest.raises(InsufficientDepthError):
        empirical_harmonic_measure(samples, bin_level=6)
    empirical_harmonic_measure(samples, bin_level=2)


def test_dimension_uniform_and_point_mass():
    k = doubling_kernel(F(1, 4))
    samples = sample_paths(k, 30_000, 20, seed=7)
    drift = green_drift_estimate(k, samples)
    measure = empirical_harmonic_measure(samples, bin_level=8)
    report = dimension_report(measure, drift, a=math.log(2), n_points=500)
    assert abs(report.formula_value - 1) < 1e-9
    assert abs(report.packing_estimate - 1) < 0.1
    # a point mass has local dimension ~ 0
    masses = np.zeros(2**8)
    masses[17] = 1.0
    point = EmpiricalMeasure(8, 2, masses, 1000)
    rep0 = dimension_report(point, drift, a=math.log(2), n_points=50)
    assert rep0.packing_estimate < 0.05


def test_cylinder_invariance_uniform_exact():
    report = cylinder_invariance_check(doubling_kernel(F(1, 4)), 3, 3)
    assert report.all_equal
    assert len(report.rows) == (2 + 8 + 32) * 4
    # product formula = Markov property, k = 0 rows are definitional
    for row in report.rows:
        if row.k == 0:
            assert row.lhs == row.rhs


def test_cylinder_invariance_detects_root_window_defect():
    # for x != 1/4 the first-step law is not shift-equivariant, and the
    # pushforward swaps the two level-1 masses: every k >= 1 row fails
    report = cylinder_invariance_check(doubling_kernel(F(1, 2)), 1, 2)
    viols = report.violations()
    assert viols
    first = {(str(r.words[1]), r.k): (r.lhs, r.rhs) for r in report.rows if r.k == 1}
    assert first[("1", 1)] == (F(1, 3), F(2, 3))
    assert first[("0", 1)] == (F(2, 3), F(1, 3))


def test_mixing_factorization_uniform():
    report = cylinder_invariance_check(doubling_kernel(F(1, 4)), 2, 4)
    assert report.mixing_rows
    assert all(r.equal for r in report.mixing_rows)


def test_quasi_invariance_exact_flags_and_uniform_pushforward():
    k = doubling_kernel(F(3, 5))
    masses = np.full(16, 1 / 16)
    measure = EmpiricalMeasure(4, 2, masses, 1000)
    report = quasi_invariance_check(measure, k)
    assert report.level_one_mass == 1
    assert report.level_one_rows_identical
    assert not report.level_one_equivariant     # x != 1/4
    assert report.exact_identity
    assert report.tv_distance == 0.0            # uniform is exactly invariant
    assert report.max_bin_ratio == report.min_bin_ratio == 1.0
    k14 = doubling_kernel(F(1, 4))
    report14 = quasi_invariance_check(measure, k14)
    assert report14.level_one_equivariant and report14.exact_identity


def test_quasi_invariance_empirical():
    k = doubling_kernel(F(1, 4))
    samples = sample_paths(k, 40_000, 16, seed=8)
    measure = empirical_harmonic_measure(samples, bin_level=6)
    report = quasi_invariance_check(measure, k)
    assert report.tv_distance < 0.05
    assert report.comparison_level == 5
    assert abs(report.max_bin_ratio - 1) < 0.2


def test_generic_kernel_sampling_matches_doubling():
    spec = doubling_table_spec(F(2, 5), 2)
    tk = extend_by_equivariance(spec, realization=CircleRealization(2))
    dk = doubling_kernel(F(2, 5))
    a = sample_paths(tk, 40, 6, seed=12)
    b = sample_paths(dk, 40, 6, seed=12)
    # same stream, same cumulative order of targets -> identical trajectories
    assert [s.indices for s in a] == [s.indices for s in b]


def _reference_local_dims(measure, n_points, seed):
    """dimension_report's local slopes fitted point by point, in draw order."""
    import random

    d, masses = measure.degree, measure.masses
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    bins = random.Random(seed).choices(range(measure.n_bins), weights=masses, k=n_points)
    dims = []
    for b in bins:
        xi = (b + 0.5) / measure.n_bins
        pts = [(-j * math.log(d), math.log(nu))
               for j in range(2, measure.bin_level - 1)
               if (nu := ergodics._ball_mass(cum, masses, xi, d ** float(-j))) > 0]
        if len(pts) < 2:
            continue
        env = ergodics._upper_envelope(pts)
        xs, ys = np.array([p[0] for p in env]), np.array([p[1] for p in env])
        if len(env) == 2:
            dims.append(float((ys[1] - ys[0]) / (xs[1] - xs[0])))
        else:
            dims.append(float(np.polyfit(xs, ys, 1)[0]))
    return dims


def test_dimension_report_matches_a_per_point_loop():
    # 40 of 256 bins carry mass: 600 draws repeat bins many times
    rng = np.random.default_rng(3)
    masses = np.zeros(2**8)
    masses[rng.choice(2**8, 40, replace=False)] = rng.random(40)
    measure = EmpiricalMeasure(8, 2, masses / masses.sum(), 1000)
    drift = ergodics.DriftReport(F(1), 0.5, 0.0, 1000, 20)
    report = dimension_report(measure, drift, a=math.log(2), n_points=600, seed=11)
    reference = _reference_local_dims(measure, 600, 11)
    assert len(set(reference)) < 100
    assert report.local_dims.tolist() == reference
    assert report.n_points == 600
    assert report.packing_estimate == min(max(float(np.percentile(reference, 90)), 0.0), 1.0)


def _scratch_bytes(fn, *args) -> int:
    """Peak traced bytes during fn(*args) less the bytes its result holds."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)      # alive while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


def test_sample_paths_scratch_does_not_grow_with_the_path_count():
    k = doubling_kernel(F(3, 5))
    n = 3 * ergodics._STEP_BLOCK
    sample_paths(k, 100, 30, seed=5)
    grown = (_scratch_bytes(sample_paths, k, 2 * n, 30, 5)
             - _scratch_bytes(sample_paths, k, n, 30, 5))
    # one block's scratch: a float64 draw per step for each path of a block
    assert grown < ergodics._STEP_BLOCK * 30 * 8


def test_root_numerators_scratch_does_not_grow_with_the_batch():
    from tilewalk import green_martin
    from tilewalk.green_martin import root_numerators

    k = doubling_kernel(F(3, 5))
    n = 3 * green_martin._TARGET_BLOCK
    targets = np.random.default_rng(0).integers(0, 2**30, 2 * n)
    root_numerators(k, targets[:100], 30)
    grown = (_scratch_bytes(root_numerators, k, targets, 30)
             - _scratch_bytes(root_numerators, k, targets[:n], 30))
    # one block's scratch: an int64 per level for each target of a block
    assert grown < green_martin._TARGET_BLOCK * 30 * 8
