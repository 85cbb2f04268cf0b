import io
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilewalk.green_martin import brute_force_hitting, green_table, hitting_vector
from tilewalk.symbolic import ROOT, CircleRealization, Word, parse_word, shift
from tilewalk.tile_graph import build_graph
from tilewalk.kernels import (
    KernelError,
    TableSpec,
    doubling_kernel,
    doubling_table_spec,
    doubling_weights,
    extend_by_equivariance,
    load_table_spec,
    save_table_spec,
    validate_assumptions,
)


@pytest.fixture(scope="module")
def graph6():
    return build_graph(CircleRealization(2), 6)


def test_doubling_weights():
    assert doubling_weights(F(3, 5)) == (F(3, 5), F(2, 15))
    assert doubling_weights(F(1, 4)) == (F(1, 4), F(1, 4))
    for x in (F(0), F(1), F(7, 5)):
        with pytest.raises(KernelError, match="x must lie in"):
            doubling_weights(x)
    # the table's non-root rows carry exactly these two weights
    x, y = doubling_weights(F(2, 5))
    assert {p for u, _, p in doubling_table_spec(F(2, 5)).entries if not u.is_root()} == {x, y}


def test_root_row_example():
    k = doubling_kernel(F(2, 5))
    out = {str(w): p for w, p in k.outgoing(ROOT)}
    assert out == {"1": F(3, 5), "0": F(2, 5)}


def test_j_set_example():
    k = doubling_kernel(F(1, 3))
    targets = k.targets_index(5, 3)
    assert [j for j, _ in targets] == [9, 10, 11, 12]
    weights = dict(targets)
    assert weights[10] == F(1, 3)            # j = 2 mod 4 carries weight x
    assert weights[9] == weights[11] == weights[12] == F(2, 9)


rationals = st.integers(1, 98).map(lambda n: F(n, 99))


@given(rationals, st.integers(0, 200), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_row_mass_one_everywhere(x, i, n):
    k = doubling_kernel(x)
    assert sum(p for _, p in k.targets_index(i % 2**n, n)) == 1


@given(rationals, st.integers(0, 500), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_predecessors_invert_targets(x, i, n):
    k = doubling_kernel(x)
    i %= 2**n
    for j, _ in k.targets_index(i, n):
        assert i in k.predecessors_index(j, n + 1)
    j = i
    for pred in k.predecessors_index(j, n):
        assert j in [t for t, _ in k.targets_index(pred, n - 1)]


def test_x_range_guard():
    for bad in (F(0), F(1), F(5, 3), F(-1, 4)):
        with pytest.raises(KernelError):
            doubling_kernel(bad)


def test_equivariance_above_level_one():
    k = doubling_kernel(F(2, 5))

    def pushed(u):
        acc = {}
        for w, p in k.outgoing(u):
            acc[shift(w)] = acc.get(shift(w), F(0)) + p
        return acc

    for i, n in ((0, 2), (3, 2), (5, 3), (11, 4), (2, 5)):
        u = Word.from_index(i, n, 2)
        assert pushed(u) == dict(k.outgoing(shift(u)))
    # level 1 is exempt: the pushforward swaps the root law unless x = 1/4
    u1 = Word.from_index(0, 1, 2)
    assert pushed(u1) != dict(k.outgoing(ROOT))
    k_uniform = doubling_kernel(F(1, 4))
    acc = {}
    for w, p in k_uniform.outgoing(u1):
        acc[shift(w)] = acc.get(shift(w), F(0)) + p
    assert acc == dict(k_uniform.outgoing(ROOT))


def test_validate_doubling_passes(graph6):
    report = validate_assumptions(doubling_kernel(F(3, 5), graph6))
    assert report.passed
    assert report.minimal_radius == 1
    assert report.equivariant_from_level == 2


class _StubKernel:
    """Hand-built kernel with configurable defects, for validator tests."""

    radius = 1
    base_level = 2
    depth_limit = 16

    def __init__(self, graph, defect):
        self.graph = graph
        self.realization = graph.realization
        self.defect = defect
        self._base = doubling_kernel(F(1, 4), graph)

    def outgoing(self, u):
        out = list(self._base.outgoing(u))
        if self.defect == "self_loop" and u.level == 1:
            return [(u, F(1, 4))] + [(w, p * F(3, 4)) for w, p in out]
        if self.defect == "missing_child" and u.level == 2:
            # drop one touching child and fold its mass into another
            (w0, p0), (w1, p1), rest = out[0], out[1], out[2:]
            return [(w1, p0 + p1)] + rest
        return out

    def predecessors(self, v):
        return self._base.predecessors(v)

    def weight(self, u, v):
        return dict(self.outgoing(u)).get(v, F(0))


def test_validator_flags_self_loop(graph6):
    report = validate_assumptions(_StubKernel(graph6, "self_loop"))
    assert not report.level_increase.ok
    assert not report.passed


def test_validator_flags_missing_child(graph6):
    report = validate_assumptions(_StubKernel(graph6, "missing_child"))
    assert not report.coverage.ok
    assert not report.passed


def test_extension_reproduces_doubling(graph6):
    for x in (F(1, 4), F(2, 5), F(7, 9)):
        spec = doubling_table_spec(x, base_level=2)
        extended = extend_by_equivariance(spec, graph6)
        closed = doubling_kernel(x, graph6)
        for n in range(0, 7):
            for i in range(2**n if n else 1):
                u = Word.from_index(i, n, 2)
                assert dict(extended.outgoing(u)) == dict(closed.outgoing(u))


def test_extension_is_identity_on_window(graph6):
    spec = doubling_table_spec(F(1, 3), base_level=2)
    extended = extend_by_equivariance(spec, graph6)
    window_rows = {u: dict(row) for u, row in extended.window.items()}
    for u, row in window_rows.items():
        assert dict(extended.outgoing(u)) == row


def test_extension_rejects_bad_row_sum(graph6):
    spec = doubling_table_spec(F(1, 3), base_level=2)
    u0 = parse_word("0")
    entries = tuple((u, v, p if u != u0 else p / 2) for u, v, p in spec.entries)
    with pytest.raises(KernelError, match="sum"):
        extend_by_equivariance(TableSpec(2, entries), graph6)


def test_extension_rejects_missing_row(graph6):
    spec = doubling_table_spec(F(1, 3), base_level=2)
    entries = tuple(e for e in spec.entries if e[0] != parse_word("11"))
    with pytest.raises(KernelError, match="no row"):
        extend_by_equivariance(TableSpec(2, entries), graph6)


def _ternary_spec():
    """Degree 3 at base level 1: the root splits evenly, tile i steps to ii."""
    entries = [(ROOT, Word((i,)), F(1, 3)) for i in range(3)]
    return TableSpec(1, tuple(entries + [(Word((i,)), Word((i, i)), F(1)) for i in range(3)]))


_X35 = doubling_table_spec(F(3, 5), base_level=2)


@pytest.mark.parametrize("spec", [
    TableSpec(2, tuple((u, parse_word("02") if (str(u), str(v)) == ("0", "01") else v, p)
                       for u, v, p in _X35.entries)),
    TableSpec(2, _X35.entries + ((parse_word("2"), parse_word("20"), F(1)),)),
    _ternary_spec(),
], ids=["target", "source", "ternary"])
def test_extension_rejects_symbols_outside_the_degree(spec):
    with pytest.raises(KernelError, match=r"symbol outside 0\.\.1"):
        extend_by_equivariance(spec, realization=CircleRealization(2))
    # the symbols, not the rows, are at fault: degree 3 takes the ternary table
    extend_by_equivariance(_ternary_spec(), realization=CircleRealization(3))


def test_extension_rejects_inconsistent_window(graph6):
    # swap the x-weight inside one level-2 row: still sums to 1 but the
    # pushforward no longer matches the level-1 row
    spec = doubling_table_spec(F(1, 3), base_level=2)
    u = parse_word("01")
    row = [(v, p) for s, v, p in spec.entries if s == u]
    others = [e for e in spec.entries if e[0] != u]
    swapped = [(u, row[0][0], row[1][1]), (u, row[1][0], row[0][1])] + \
              [(u, v, p) for v, p in row[2:]]
    with pytest.raises(KernelError, match="equivariance"):
        extend_by_equivariance(TableSpec(2, tuple(others) + tuple(swapped)), graph6)


@pytest.mark.parametrize("base_level,source,target", [(3, "00", "011"), (2, "0", "001")])
def test_zero_entries_leave_the_window_equivariant(graph6, base_level, source, target):
    # a zero-probability entry is no transition: the window still commutes
    # with the shift, and the walk is that of the table without the entry
    spec = doubling_table_spec(F(1, 4), base_level)
    zero = (parse_word(source), parse_word(target), F(0))
    padded = extend_by_equivariance(TableSpec(base_level, spec.entries + (zero,)), graph6)
    assert validate_assumptions(padded).passed
    plain = extend_by_equivariance(spec, graph6)
    assert green_table(padded, ROOT, 7).values == green_table(plain, ROOT, 7).values


@pytest.mark.parametrize("base_level,source,target",
                         [(2, "0", "001"), (3, "00", "011"), (2, "01", "11111")])
def test_zero_entries_leave_radius_and_reach(base_level, source, target):
    # radius and reach count the transitions taken, so a zero-probability
    # entry neither deepens the step tables nor widens the lift band; the
    # last entry sits on the base level, beyond the reach, and is not lifted
    spec = doubling_table_spec(F(1, 4), base_level)
    zero = (parse_word(source), parse_word(target), F(0))
    r = CircleRealization(2)
    padded = extend_by_equivariance(TableSpec(base_level, spec.entries + (zero,)), realization=r)
    plain = extend_by_equivariance(spec, realization=r)
    assert (padded.radius, padded.reach) == (plain.radius, plain.reach)
    assert len(padded.step_tables) == len(plain.step_tables)
    for ours, theirs in zip(padded.step_tables, plain.step_tables):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def test_step_tables_keep_int64_weights_where_they_fit():
    # Q = 2^40, so p Q^2 needs Python integers and p Q lies in int64: the
    # one-level step table stays int64 and a backward DP from level 1 or 2,
    # whose bands are int64, still adds its steps in
    big = 2**40
    k = extend_by_equivariance(TableSpec(1, (
        (ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2)),
        (parse_word("0"), Word.from_index(0, 2, 2), F(1, big)),
        (parse_word("0"), Word.from_index(1, 2, 2), F(1, 2) - F(1, big)),
        (parse_word("0"), Word.from_index(5, 3, 2), F(1, 2)),
        (parse_word("1"), Word.from_index(2, 2, 2), F(1, 2)),
        (parse_word("1"), Word.from_index(1, 3, 2), F(1, 2)))),
        realization=CircleRealization(2))
    assert k.table.weights.dtype == object
    assert [w.dtype for _, _, w in k.step_tables] == [np.int64, object]
    for i, n in ((0, 1), (1, 2), (5, 3), (17, 6)):
        target = Word.from_index(i, n, 2)
        vector = hitting_vector(k, target)
        assert ROOT in vector
        for u, f in vector.items():
            assert brute_force_hitting(k, u, n)[target] == f


def test_lift_resolves_wraparound():
    # the table target 11..1 of sigma u must lift over u = 00..0 to the tile
    # touching 0 from the left, not to the naive prefix 0..01..1
    k = extend_by_equivariance(doubling_table_spec(F(1, 3), 2),
                               realization=CircleRealization(2))
    for n in (3, 4, 6):
        u = Word.from_index(0, n, 2)
        targets = {w.index(2) for w, _ in k.outgoing(u)}
        assert targets == {2 ** (n + 1) - 1, 0, 1, 2}


def test_lift_unique_even_at_extreme_reach():
    # targets as far from their source as the circle allows: the candidate
    # band still separates index preimages, so the lift stays unique
    r = CircleRealization(2)
    o_row = [(ROOT, parse_word("0"), F(1, 2)), (ROOT, parse_word("1"), F(1, 2))]
    far = [
        (parse_word("0"), Word.from_index(0, 2, 2), F(1, 2)),
        (parse_word("0"), Word.from_index(5, 3, 2), F(1, 2)),   # dist 1/8
        (parse_word("1"), Word.from_index(2, 2, 2), F(1, 2)),
        (parse_word("1"), Word.from_index(1, 3, 2), F(1, 2)),
    ]
    k = extend_by_equivariance(TableSpec(1, tuple(o_row + far)), realization=r)
    assert k.reach > 0
    for i, n in ((0, 2), (3, 2), (5, 3), (12, 4)):
        out = k.outgoing(Word.from_index(i, n, 2))
        assert sum(p for _, p in out) == 1


def test_table_roundtrip():
    spec = doubling_table_spec(F(2, 7), base_level=2)
    buf = io.StringIO()
    save_table_spec(spec, buf)
    buf.seek(0)
    loaded = load_table_spec(buf)
    assert loaded.base_level == spec.base_level
    assert set(loaded.entries) == set(spec.entries)


def test_table_parse_errors():
    with pytest.raises(KernelError, match="base_level"):
        load_table_spec(["o 0 1/2"])
    with pytest.raises(KernelError, match="expected"):
        load_table_spec(["base_level = 1", "o 0"])


@pytest.mark.parametrize("prob", ["1/0", "0/0", "a/2", "1/b", "0.5", "1/2/3"])
def test_table_parse_rejects_bad_probabilities(prob):
    with pytest.raises(KernelError, match=f"line 3: probability '{re.escape(prob)}'"):
        load_table_spec(["base_level = 0", "o 0 1/2", f"o 1 {prob}"])


@pytest.mark.parametrize("lines,message", [
    (["# header", "base_level = x"], "line 2: base_level 'x' is not an integer"),
    (["base_level = 0", "o 3x 1/2", "o 1 1/2"], "line 2: not a word: '3x'"),
    (["base_level = 0", "o 0 1/2", "a 1 1/2"], "line 3: not a word: 'a'"),
], ids=["base-level", "target", "source"])
def test_table_parse_names_the_bad_line(lines, message):
    with pytest.raises(KernelError, match=f"^{re.escape(message)}$"):
        load_table_spec(lines)


@pytest.mark.parametrize("make", [
    lambda g: doubling_kernel(F(1, 4), g),
    lambda g: extend_by_equivariance(doubling_table_spec(F(3, 5), 2), g),
], ids=["doubling", "table"])
def test_validate_reads_each_row_at_most_twice(graph6, monkeypatch, make):
    # the assumption scan and the one equivariance pass share the rows
    kernel = make(graph6)
    calls = []
    outgoing = kernel.outgoing
    monkeypatch.setattr(kernel, "outgoing", lambda u: calls.append(u) or outgoing(u))
    report = validate_assumptions(kernel)
    assert report.passed
    scanned = [u for n in range(report.checked_levels + 1) for u in graph6.levels[n]]
    assert set(calls) <= set(scanned)
    assert len(calls) <= 2 * len(scanned)
