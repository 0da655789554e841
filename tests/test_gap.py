"""Exact additive gaps: single right-hand sides and the global maximum."""

import itertools
import math
import weakref
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import knapgap.gap
import knapgap.group
import knapgap.staircase
from knapgap import (
    BoundTooLarge,
    KnapsackInstance,
    NegativeRhs,
    basis_reduction,
    frobenius,
    frobenius_cost,
    gap_bruteforce,
    gap_exact,
    group_minima,
    integrality_gap,
    ip_value,
    lp_value,
    tightness_family,
    tightness_threshold,
)
from knapgap.staircase import _pack

# entries of linear keys: small ones tie often, large ones test the radix
keys = st.integers(min_value=-6, max_value=6) | st.integers(
    min_value=-(2**70), max_value=2**70
)


def lexicographic_sign(order, x, y):
    """Sign of the first nonzero key u.(x, y) over the keys in order, 0 when
    every key vanishes: the order _pack encodes, tested key by key."""
    for u in order:
        key = u[0] * x + u[1] * y
        if key:
            return 1 if key > 0 else -1
    return 0


tiny_instances = (
    st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=4)
    .filter(lambda a: math.gcd(*a) == 1)
    .map(lambda a: KnapsackInstance(tuple(a)))
)


def tiny_costs(n):
    num = st.integers(min_value=-4, max_value=4)
    den = st.integers(min_value=1, max_value=3)
    return st.lists(st.builds(Fraction, num, den), min_size=n, max_size=n).map(tuple)


@st.composite
def shaped_cases(draw):
    """(instance, cost) pairs built around a chosen slope.

    Each cost is slope * a plus reduced costs drawn from {0} and small
    fractions, so ties in the slope, zero reduced weights and negative
    costs all come up often.  Half the instances gain a multiple of one of
    their coefficients, a generator divisible by a_tau when that
    coefficient is the pivot.
    """
    a = draw(
        st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=3)
        .filter(lambda a: math.gcd(*a) == 1)
    )
    if draw(st.booleans()):
        a.append(draw(st.sampled_from(a)) * draw(st.integers(min_value=1, max_value=3)))
    slope = Fraction(
        draw(st.integers(min_value=-3, max_value=3)),
        draw(st.integers(min_value=1, max_value=3)),
    )
    reduced = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=3),
        ),
    )
    pivot = draw(st.integers(min_value=0, max_value=len(a) - 1))
    cost = tuple(
        slope * aj + (0 if j == pivot else draw(reduced)) for j, aj in enumerate(a)
    )
    return KnapsackInstance(tuple(a)), cost


def swept_fields(inst, c, threshold):
    """Every GapReport field from IG(b), b <= threshold + 2 a_tau, one by one.

    The threshold under test only sizes the sweep; the sweep checks that IG
    is defined and has period a_tau from there on.
    """
    ratios = [Fraction(ci) / ai for ci, ai in zip(c, inst.a)]
    tau = ratios.index(min(ratios))
    m = inst.a[tau]
    ig = [integrality_gap(inst, c, b) for b in range(threshold + 2 * m + 1)]
    window = ig[threshold : threshold + m]
    assert None not in window
    assert ig[threshold + m : threshold + 2 * m] == window
    gap = max(x for x in ig if x is not None)
    return {
        "gap": gap,
        "witness_b": ig.index(gap),
        "threshold": threshold,
        "tail_gap": max(window),
        "scan_gap": max([0] + [x for x in ig[:threshold] if x is not None]),
        "tau": tau,
        "generic": ratios.count(min(ratios)) == 1,
    }


class TestIpValue:
    def test_infeasible_is_none(self):
        assert ip_value(KnapsackInstance((3, 5)), (3, 0), 7) is None

    def test_feasible(self):
        assert ip_value(KnapsackInstance((3, 5)), (3, 0), 11) == 6
        assert ip_value(KnapsackInstance((3, 5)), (3, 0), 0) == 0
        assert ip_value(KnapsackInstance((3, 5)), (3, 0), 10) == 0

    def test_rejects_negative_rhs(self):
        with pytest.raises(NegativeRhs):
            ip_value(KnapsackInstance((3, 5)), (3, 0), -1)

    @given(inst=tiny_instances, data=st.data(), b=st.integers(min_value=0, max_value=120))
    @settings(max_examples=30)
    def test_never_below_lp(self, inst, data, b):
        c = data.draw(tiny_costs(inst.n))
        ip = ip_value(inst, c, b)
        if ip is not None:
            assert ip >= lp_value(inst, c, b)


class TestIntegralityGap:
    def test_worked_example(self):
        assert integrality_gap(KnapsackInstance((3, 5)), (3, 0), 12) == 12

    def test_infeasible_is_none(self):
        assert integrality_gap(KnapsackInstance((3, 5)), (3, 0), 7) is None

    def test_zero_at_zero(self):
        assert integrality_gap(KnapsackInstance((3, 5)), (3, 0), 0) == 0


class TestGapExact:
    def test_worked_example_report(self):
        report = gap_exact(KnapsackInstance((3, 5)), (3, 0))
        assert report.gap == 12
        assert report.witness_b == 12
        assert report.threshold == 12
        assert report.tail_gap == 12
        assert report.scan_gap == 9
        assert report.tau == 1
        assert report.generic

    def test_small_witness(self):
        report = gap_exact(KnapsackInstance((2, 3)), (2, 0))
        assert report.gap == 4
        assert report.witness_b == 4

    def test_non_generic_zero_gap(self):
        # cost proportional to the coefficients: every feasible point is LP-tight
        report = gap_exact(KnapsackInstance((3, 5)), (3, 5))
        assert report.gap == 0
        assert not report.generic

    def test_zero_cost(self):
        assert gap_exact(KnapsackInstance((4, 7)), (0, 0)).gap == 0

    def test_negative_costs(self):
        inst = KnapsackInstance((2, 3))
        report = gap_exact(inst, (-1, -2))
        assert report.gap == Fraction(2, 3)
        assert report.gap == gap_bruteforce(inst, (-1, -2), 40)

    def test_witness_attains_and_is_smallest(self):
        inst = KnapsackInstance((3, 5))
        report = gap_exact(inst, (3, 0))
        assert integrality_gap(inst, (3, 0), report.witness_b) == report.gap
        for b in range(report.witness_b):
            ig = integrality_gap(inst, (3, 0), b)
            assert ig is None or ig < report.gap

    @pytest.mark.parametrize(
        "a, c, witness",
        [((2, 4, 7), (2, 0, 0), 2), ((3, 6, 8), (3, 0, 0), 3), ((4, 5, 8), (4, 0, 0), 4)],
    )
    def test_tied_classes_give_the_smallest_witness(self, a, c, witness):
        inst = KnapsackInstance(a)
        report = gap_exact(inst, c)
        m = inst.a[report.tau]
        first = {}
        for b in range(report.threshold + m):
            if integrality_gap(inst, c, b) == report.gap:
                first.setdefault(b % m, b)
        # several classes attain the maximum, the lowest residue only later
        assert len(first) >= 2
        assert first[min(first)] > witness
        assert report.witness_b == min(first.values()) == witness

    def test_zero_threshold_has_no_scan(self):
        # a_tau = 1: one class, every load 0, so B* = 0 and no b lies below it
        report = gap_exact(KnapsackInstance((1, 3)), (-2, 1))
        assert (report.threshold, report.scan_gap, report.gap, report.witness_b) == (
            0, 0, 0, 0
        )

    @given(case=shaped_cases())
    # a tied slope, a zero reduced weight, negative costs and 8 = 2 * a_tau
    @example(case=(KnapsackInstance((4, 5, 8)), (-4, -4, -8)))
    @settings(max_examples=60)
    def test_every_field_matches_sweep(self, case):
        inst, c = case
        report = gap_exact(inst, c)
        assert asdict(report) == swept_fields(inst, c, report.threshold)
        red = basis_reduction(inst, c)
        table = group_minima(inst, red.tau, red.l)
        assert report.threshold == tightness_threshold(table)

    @pytest.mark.parametrize(
        "a, c", [((3, 5), (3, 0)), ((6, 9, 20), (6, 10, 21)), ((7, 11, 18), (1, 2, 3))]
    )
    def test_guardrail_counts_only_the_residue_table(self, a, c, monkeypatch):
        inst = KnapsackInstance(a)
        m = inst.a[basis_reduction(inst, c).tau]
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", str(m))
        report = gap_exact(inst, c)
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", str(m - 1))
        with pytest.raises(BoundTooLarge):
            gap_exact(inst, c)
        monkeypatch.delenv("KNAPGAP_GUARDRAIL_CELLS")
        assert report.threshold > m
        b_max = report.threshold + 2 * m
        assert report.gap == gap_bruteforce(inst, c, b_max)

    @given(inst=tiny_instances, data=st.data())
    @settings(max_examples=40)
    def test_matches_bruteforce(self, inst, data):
        c = data.draw(tiny_costs(inst.n))
        report = gap_exact(inst, c)
        b_max = report.threshold + 2 * inst.a[report.tau]
        assert report.gap == gap_bruteforce(inst, c, b_max)

    @given(inst=tiny_instances, data=st.data())
    @settings(max_examples=25)
    def test_witness_is_smallest_attainer(self, inst, data):
        c = data.draw(tiny_costs(inst.n))
        report = gap_exact(inst, c)
        assert integrality_gap(inst, c, report.witness_b) == report.gap
        for b in range(min(report.witness_b, 60)):
            ig = integrality_gap(inst, c, b)
            assert ig is None or ig < report.gap

    @given(inst=tiny_instances, data=st.data(), k=st.integers(min_value=0, max_value=15))
    @settings(max_examples=25)
    def test_tail_periodicity(self, inst, data, k):
        c = data.draw(tiny_costs(inst.n))
        report = gap_exact(inst, c)
        red = basis_reduction(inst, c)
        table = group_minima(inst, red.tau, red.l)
        b = report.threshold + k
        assert integrality_gap(inst, c, b) == table.minima[b % table.modulus]

    def test_threshold_is_valid_not_smallest(self):
        # IG(b) equals its class minimum from b = 8 on (7 = g(3, 5) is not
        # representable), yet the breadth-first witnesses give B* = 12
        inst, c = KnapsackInstance((3, 5)), (3, 0)
        table = group_minima(inst, 1, (3,))
        assert tightness_threshold(table) == gap_exact(inst, c).threshold == 12
        assert integrality_gap(inst, c, 7) is None
        for b in range(8, 40):
            assert integrality_gap(inst, c, b) == table.minima[b % 5]

    @given(
        inst=tiny_instances,
        data=st.data(),
        lam=st.builds(
            Fraction,
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=4),
        ),
    )
    @settings(max_examples=20)
    def test_cost_scaling(self, inst, data, lam):
        c = data.draw(tiny_costs(inst.n))
        base = gap_exact(inst, c)
        scaled = gap_exact(inst, tuple(lam * cj for cj in c))
        assert scaled.gap == lam * base.gap

    @given(
        a1=st.integers(min_value=1, max_value=40),
        a2=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_two_coefficient_closed_form(self, a1, a2, data):
        assume(math.gcd(a1, a2) == 1)
        inst = KnapsackInstance((a1, a2))
        c = data.draw(tiny_costs(2))
        red = basis_reduction(inst, c)
        assume(red.generic)
        # one reduced cost, one nontrivial residue generator: the max is
        # always l_1 * (a_tau - 1)
        assert gap_exact(inst, c).gap == red.l[0] * (inst.a[red.tau] - 1)


# Pivots a_tau = m from 192 to 450, where the packed table reads on numpy.
# The cost is slope * a plus reduced costs from {0, 1, 5/2}, positive on
# every other coefficient so that m stays the pivot; equal reduced costs
# tie the maximum over several classes.
@st.composite
def numpy_gap_cases(draw):
    m = draw(st.integers(min_value=192, max_value=450))
    gens = draw(st.lists(st.integers(min_value=1, max_value=3 * m), min_size=1, max_size=3))
    assume(math.gcd(m, *gens) == 1)
    slope = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    reduced = draw(
        st.lists(
            st.sampled_from([Fraction(1), Fraction(5, 2), Fraction(1, 3)]),
            min_size=len(gens),
            max_size=len(gens),
        )
    )
    inst = KnapsackInstance((m, *gens))
    return inst, (slope * m, *(slope * g + r for g, r in zip(gens, reduced)))


def _table_route(inst, c):
    """gap_exact's route through two residue tables, which n = 3 skips."""
    return knapgap.gap._gap_from_tables(inst, basis_reduction(inst, c))


def _python_readout(inst, c):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1 << 62)
        return _table_route(inst, c)


class TestPackedReadout:
    @given(case=numpy_gap_cases())
    @settings(max_examples=40)
    def test_numpy_readout_matches_python(self, case):
        inst, c = case
        report = _table_route(inst, c)
        assert inst.a[report.tau] >= knapgap.group._NUMPY_MIN_MODULUS
        assert report == _python_readout(inst, c) == gap_exact(inst, c)

    @pytest.mark.parametrize(
        "a, c",
        [
            ((1, 3), (-2, 1)),  # a_tau = 1: B* = 0, nothing below it
            ((2, 4, 7), (2, 0, 0)),  # tied maxima (test_tied_classes_give_...)
            ((4, 5, 8), (4, 0, 0)),
            ((200, 301, 403), (200, 301, 403)),  # every IG 0, all classes tie
            ((200, 301, 403), (400, 603, 807)),
        ],
    )
    def test_readouts_agree_on_ties_and_zero_threshold(self, a, c, monkeypatch):
        inst = KnapsackInstance(a)
        expected = _python_readout(inst, c)
        monkeypatch.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1)
        assert _table_route(inst, c) == expected == gap_exact(inst, c)

    def test_self_loop_weight_keeps_the_threshold_exact(self):
        # the self-loop generator 400 carries the largest reduced cost; B*
        # stays a Python int, so B* * K does not wrap around in int64
        inst, c = KnapsackInstance((200, 400, 301)), (0, 6 * 10**15, 1)
        report = _table_route(inst, c)
        assert type(report.threshold) is int
        assert report == _python_readout(inst, c) == gap_exact(inst, c)
        assert report.scan_gap == 198
        assert report.gap == gap_bruteforce(inst, c, report.threshold + 200)

    def test_self_loop_cost_does_not_size_the_packing(self, monkeypatch):
        # K is taken over the live arcs, 201 here, so the packed table stays
        # on numpy although the self-loop 400 costs 6 * 10**15
        inst, c = KnapsackInstance((200, 400, 301)), (0, 6 * 10**15, 1)
        expected = _python_readout(inst, c)
        on_numpy = []

        def recording(m, arcs):
            on_numpy.append(knapgap.group._on_numpy(m, arcs))
            return real(m, arcs)

        real = knapgap.gap._round_robin
        monkeypatch.setattr(knapgap.gap, "_round_robin", recording)
        assert _table_route(inst, c) == expected
        assert on_numpy == [True]


class TestWork:
    @pytest.mark.parametrize(
        "a, c",
        [
            ((1234, 1789, 1999), (Fraction(3, 2), -1, 7)),  # numpy
            ((20011, 30011, 40009, 50021), (Fraction(3, 2), -1, 7, 2)),  # Python
        ],
    )
    def test_one_kernel_run_per_table(self, a, c, monkeypatch):
        # witnesses, loads and B* come out of the table's own kernel run
        calls, passes = [], []

        def counting(m, arcs):
            calls.append(m)
            return real(m, arcs)

        def counting_pass(*args):
            passes.append(args[2])
            return real_pass(*args)

        real, real_pass = knapgap.group._round_robin, knapgap.group._cycle_pass
        monkeypatch.setattr(knapgap.group, "_round_robin", counting)
        monkeypatch.setattr(knapgap.gap, "_round_robin", counting)
        monkeypatch.setattr(knapgap.group, "_cycle_pass", counting_pass)
        inst = KnapsackInstance(a)
        red = basis_reduction(inst, c)
        table = group_minima(inst, red.tau, red.l)
        tightness_threshold(table)
        assert len(table.witness) == table.modulus
        assert len(calls) == 1
        # one numpy pass per generator at most, none for the decode
        assert len(passes) <= inst.n - 1
        calls.clear()
        _table_route(inst, c)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "a, c",
        [
            ((6, 9, 20), (3, 5, 7)),  # Python walk
            ((1234, 1789, 1999), (Fraction(3, 2), -1, 7)),  # numpy
            ((61, 97, 131, 173), (-1, Fraction(1, 2), Fraction(3, 4), 5)),
        ],
    )
    def test_gap_exact_never_builds_the_minima(self, a, c, monkeypatch):
        # tail_gap is the cost of the table's largest label
        inst = KnapsackInstance(a)
        report = gap_exact(inst, c)
        red = basis_reduction(inst, c)
        minima = group_minima(inst, red.tau, red.l).minima
        assert report.tail_gap == max(minima)
        monkeypatch.delattr(knapgap.group.GroupTable, "minima")
        assert gap_exact(inst, c) == report

    @pytest.mark.parametrize(
        "a, c",
        [
            ((6, 9, 20), (3, 5, 7)),  # Python walk
            ((1234, 1789, 1999), (Fraction(3, 2), -1, 7)),  # numpy
            ((20011, 30011, 40009, 50021), (Fraction(3, 2), -1, 7, 2)),  # Python
        ],
    )
    def test_gap_exact_decodes_the_loads_once(self, a, c, monkeypatch):
        # B* is the one load decode; tail_gap reads no row
        decodes = []
        real = knapgap.group.GroupTable._loads

        def counting(table, labels):
            decodes.append(len(labels))
            return real(table, labels)

        monkeypatch.setattr(knapgap.group.GroupTable, "_loads", counting)
        inst = KnapsackInstance(a)
        _table_route(inst, c)
        assert decodes == [inst.a[basis_reduction(inst, c).tau]]

    @pytest.mark.parametrize(
        "a, c",
        [((6, 9, 20), (3, 5, 7)), ((1234, 1789, 1999), (Fraction(3, 2), -1, 7))],
    )
    def test_three_coefficients_build_no_table(self, a, c, monkeypatch):
        inst = KnapsackInstance(a)
        expected = _table_route(inst, c)

        def refuse(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(knapgap.gap, "group_minima", refuse)
        monkeypatch.setattr(knapgap.gap, "_round_robin", refuse)
        monkeypatch.setattr(knapgap.group, "_round_robin", refuse)
        assert gap_exact(inst, c) == expected

    @pytest.mark.parametrize(
        "a, c",
        [
            ((1234, 1789, 1999, 2311), (Fraction(3, 2), -1, 7, 2)),  # numpy
            ((61, 97, 131, 173), (-1, Fraction(1, 2), Fraction(3, 4), 5)),  # Python
        ],
    )
    def test_one_table_at_a_time(self, a, c, monkeypatch):
        # the reduced-cost table is gone before the packed run starts
        tables, alive = [], []
        real_minima, real_run = knapgap.gap.group_minima, knapgap.gap._round_robin

        def recording(*args):
            table = real_minima(*args)
            tables.append(weakref.ref(table))
            return table

        def running(m, arcs):
            alive.append(tables[0]() is not None)
            return real_run(m, arcs)

        inst = KnapsackInstance(a)
        expected = gap_exact(inst, c)
        monkeypatch.setattr(knapgap.gap, "group_minima", recording)
        monkeypatch.setattr(knapgap.gap, "_round_robin", running)
        assert gap_exact(inst, c) == expected
        assert (len(tables), alive) == (1, [False])

    @pytest.mark.parametrize(
        "a, c",
        [
            # packed boxes 26 x 765 and 11 x 776, so the short side is first
            ((20011, 30011, 40009), (3, 5, 7)),
            # packed boxes 1852 x 31 and 1843 x 47, so it is second
            ((86900, 60537, 17139), (-4, 9, 3)),
        ],
    )
    def test_scan_walks_the_shorter_side(self, a, c, monkeypatch):
        # only the short sides keep the walk below sqrt(a_tau) steps
        inst = KnapsackInstance(a)
        expected = _table_route(inst, c)
        lengths = []

        def counting(*args):
            lengths.append(args[-1])
            return range(*args)

        monkeypatch.setattr(knapgap.staircase, "range", counting, raising=False)
        assert gap_exact(inst, c) == expected
        assert lengths and max(lengths) <= math.isqrt(inst.a[expected.tau]) + 1

    @pytest.mark.parametrize(
        "a, c",
        [
            # one corner, (3, 14), at cost 0: zero costs everywhere
            ((60, 15, 7), (0, 0, 0)),
            # one corner, (34, 0), at cost 0: it takes only the generator
            # of reduced cost 0, and its box reaches B* = 578
            ((35, 17, 51), (0, 0, 4)),
        ],
    )
    def test_scan_skips_a_box_that_only_ties(self, a, c, monkeypatch):
        # a corner no costlier than scan_gap so far, which starts at 0,
        # cannot raise it, so its box is never walked
        inst = KnapsackInstance(a)
        expected = _table_route(inst, c)
        walked = []

        def counting(*args):
            walked.append(args)
            return range(*args)

        monkeypatch.setattr(knapgap.staircase, "range", counting, raising=False)
        assert gap_exact(inst, c) == expected
        assert walked == []
        # positive control: the same shim records a box that is walked
        gap_exact(KnapsackInstance((20011, 30011, 40009)), (3, 5, 7))
        assert walked

# n = 3 cases for the staircase route: the pivot m from 1 to 40, generators
# that may share a factor with m or be a multiple of it (a self-loop), and
# costs that are the coefficients, arbitrary rationals, or slope * a plus
# reduced costs from {0, 1/2, 1, 7/3}, so that slopes and maxima tie.
@st.composite
def triple_cases(draw):
    m = draw(st.integers(min_value=1, max_value=40))
    gens = [draw(st.integers(min_value=1, max_value=120)) for _ in range(2)]
    if draw(st.booleans()):
        gens[draw(st.integers(0, 1))] = m * draw(st.integers(min_value=1, max_value=3))
    assume(math.gcd(m, *gens) == 1)
    a = [m, *gens]
    order = draw(st.permutations(range(3)))
    a = tuple(a[i] for i in order)
    kind = draw(st.sampled_from(["a", "free", "shaped"]))
    if kind == "a":
        return KnapsackInstance(a), a
    if kind == "free":
        return KnapsackInstance(a), draw(tiny_costs(3))
    slope = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    reduced = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3)])
    pivot = order.index(0)
    cost = tuple(slope * aj + (0 if j == pivot else draw(reduced)) for j, aj in enumerate(a))
    return KnapsackInstance(a), cost


def _record_lows(big, s):
    """(j, s j mod big) for each j >= 1 whose value is below all earlier ones,
    up to the first zero."""
    lows, low = [], big
    for j in range(1, big + 1):
        t = s * j % big
        if t < low:
            lows.append((j, t))
            low = t
        if t == 0:
            return lows


def _ceiling_fraction(big, s):
    """(p_i, s_i) for i >= 0 of the ceiling continued fraction of big / s."""
    (p_prev, s_prev), (p, t) = (0, big), (1, s)
    points = [(p, t)]
    while t:
        q = -(-s_prev // t)
        (p_prev, s_prev), (p, t) = (p, t), (q * p - p_prev, q * t - s_prev)
        points.append((p, t))
    return points


# coefficients of triples, each listed by position
_COST_PATTERNS = [
    lambda a: a,
    lambda a: (0, 0, 0),
    lambda a: (3, 5, 7),
    lambda a: (-1, -1, -1),
    lambda a: (Fraction(3, 2), -1, 7),
    lambda a: (a[0], 0, 0),
    lambda a: (2 * a[0], 2 * a[1] + 1, 2 * a[2]),
    lambda a: (Fraction(1, 3), Fraction(-2, 5), 4),
]


class TestStaircase:
    @given(case=triple_cases())
    @example(case=(KnapsackInstance((1, 4, 6)), (-2, 1, 3)))  # a_tau = 1
    @example(case=(KnapsackInstance((6, 10, 15)), (6, 10, 15)))  # gcds > 1
    @example(case=(KnapsackInstance((200, 400, 301)), (0, 6 * 10**15, 1)))
    @example(case=(KnapsackInstance((5, 10, 7)), (5, 3, 8)))  # self-loop 10
    # s = M - 1 (g_1 = -g_2 / e mod M): both walks end mid-way through one
    # long run of quotients 2, so the answer and its predecessor come from
    # the bisection; in the last one e = gcd(g_2, a_tau) = 2
    @example(case=(KnapsackInstance((10007, 10008, 20013)), (1, 2, 3)))
    @example(case=(KnapsackInstance((10007, 10008, 20013)), (10007, 10008, 20013)))
    @example(case=(KnapsackInstance((10006, 10005, 10008)), (1, 3, 2)))
    @settings(max_examples=300)
    def test_matches_the_table_route(self, case):
        inst, c = case
        assert gap_exact(inst, c) == _table_route(inst, c)

    def test_every_small_triple(self):
        # every coprime triple with entries <= 12, against fixed costs
        count = 0
        for a in itertools.product(range(1, 13), repeat=3):
            if math.gcd(*a) != 1:
                continue
            inst = KnapsackInstance(a)
            for pattern in _COST_PATTERNS:
                c = pattern(a)
                assert gap_exact(inst, c) == _table_route(inst, c), (a, c)
                count += 1
        assert count == 1447 * len(_COST_PATTERNS)

    def test_ceiling_fraction_lists_the_record_lows(self):
        for big in range(1, 201):
            for s in range(big):
                assert _ceiling_fraction(big, s) == _record_lows(big, s), (big, s)

    @pytest.mark.parametrize(
        "a, c",
        [
            ((6, 9, 20), (3, 5, 7)),
            ((1, 4, 6), (-2, 1, 3)),  # a_tau = 1
            ((5, 10, 7), (5, 3, 8)),  # the self-loop 10
            ((6, 10, 15), (Fraction(1, 2), 1, Fraction(-1, 3))),  # gcds > 1
            ((7, 4, 9), (7, 4, 10)),  # tied slope
        ],
    )
    def test_every_field_matches_sweep(self, a, c):
        inst = KnapsackInstance(a)
        report = gap_exact(inst, c)
        assert asdict(report) == swept_fields(inst, c, report.threshold)
        b_max = report.threshold + 2 * inst.a[report.tau]
        assert report.gap == gap_bruteforce(inst, c, b_max)

    def test_long_quotient_two_run_is_bisected(self, counted_int):
        # s = M - 1 gives M - 1 quotients 2 in a row; the answer, the first
        # k > t, sits halfway, and its predecessor one step back in the run
        m = 10**6 + 3
        Counted, calls = counted_int
        assert knapgap.staircase._axis(m, m - 1, 1, Counted(1), 1) == (
            m // 2 + 1, m // 2, m // 2, m // 2 + 1
        )
        assert 1 <= len(calls) <= 2 * m.bit_length()

    def test_both_sides_by_definition(self):
        # for every modulus up to 60: (A, c) is the smallest k >= 1 with some
        # t >= 0 for which (k, -t) lies in the lattice and is positive, and
        # the smallest such t; the predecessor (d, B) is the same with the
        # axes swapped, (-d, B) the vector.  A t >= m is never needed: the
        # vector at t - m is in the lattice and larger.  The walk tests the
        # form corners packs the order into, so this checks the packing.
        def side(m, f, ts, vector, positive):
            for k in range(1, m + 1):
                for t in ts.get(f * k % m, ()):
                    if positive(*vector(k, t)):
                        return k, t

        for m in range(1, 61):
            # per h: h t mod m -> [t, ...] ascending, over 0 <= t < m
            solutions = [{} for _ in range(m)]
            for h, t in itertools.product(range(m), repeat=2):
                solutions[h].setdefault(h * t % m, []).append(t)
            for ga, gb in itertools.product(range(m), repeat=2):
                if math.gcd(m, ga, gb) != 1:
                    continue
                for order in (((ga + m, gb + m), (0, 1)), ((gb, ga), (1, 1), (0, 1))):

                    def positive(x, y):
                        return lexicographic_sign(order, x, y) > 0

                    a, c = side(m, ga, solutions[gb], lambda k, t: (k, -t), positive)
                    b, d = side(m, gb, solutions[ga], lambda k, t: (-t, k), positive)
                    walk = knapgap.staircase._axis(m, ga, gb, *_pack(m, order))
                    assert walk == (a, c, d, b), (m, ga, gb, order)

    @given(
        m=st.integers(min_value=1, max_value=60),
        order=st.lists(st.tuples(keys, keys), min_size=1, max_size=3),
        k=st.integers(min_value=0, max_value=80),
        t=st.integers(min_value=0, max_value=80),
    )
    @example(m=7, order=[(0, 0)], k=7, t=7)  # an all-zero form
    @example(m=7, order=[(0, 0), (0, 0), (0, 0)], k=3, t=0)
    @example(m=5, order=[(2, 3), (0, 1)], k=3, t=2)  # a tie, then t
    @example(m=5, order=[(2, 3), (1, 1), (0, 1)], k=3, t=2)
    @example(m=9, order=[(1, 1), (1, 1)], k=9, t=9)  # tied to the end
    @example(m=4, order=[(-3, -5), (2, -1)], k=4, t=4)
    @example(m=6, order=[(-6, 6), (6, -6), (1, 0)], k=6, t=6)
    @example(m=6, order=[(0, 1), (-6, 6)], k=6, t=0)
    def test_packed_sign_is_the_lexicographic_test(self, m, order, k, t):
        # draws past m stand for m, so points at k = m and t = m come up often
        k, t = min(k, m), min(t, m)
        p0, p1 = _pack(m, order)
        assert (p0 * k > p1 * t) == (lexicographic_sign(order, k, -t) > 0)
        assert (p0 * k == p1 * t) == (lexicographic_sign(order, k, -t) == 0)

    def test_two_walks_per_call(self, monkeypatch):
        walks = []
        real = knapgap.staircase._axis

        def counting(m, ga, gb, u0, u1):
            assert type(u0) is int and type(u1) is int
            walks.append(m)
            return real(m, ga, gb, u0, u1)

        monkeypatch.setattr(knapgap.staircase, "_axis", counting)
        inst = KnapsackInstance((1234, 1789, 1999))
        c = (Fraction(3, 2), -1, 7)
        assert gap_exact(inst, c) == _table_route(inst, c)
        assert walks == [inst.a[basis_reduction(inst, c).tau]] * 2

    def test_broken_area_is_refused(self, monkeypatch):
        real = knapgap.staircase._axis

        def perturbed(m, ga, gb, u0, u1):
            a, c, d, b = real(m, ga, gb, u0, u1)
            return a + 1, c, d, b

        monkeypatch.setattr(knapgap.staircase, "_axis", perturbed)
        with pytest.raises(AssertionError, match="staircase area"):
            gap_exact(KnapsackInstance((6, 9, 20)), (3, 5, 7))


class TestFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tightness_family_gap(self, k, n):
        inst, cost = tightness_family(k, n)
        assert gap_exact(inst, cost).gap == k - 1

    @given(inst=tiny_instances)
    @settings(max_examples=25)
    def test_frobenius_cost_gap(self, inst):
        cost = frobenius_cost(inst)
        assert gap_exact(inst, cost).gap == frobenius(inst) + inst.a[-1]
