"""Exact additive gaps: single right-hand sides and the global maximum."""

import math
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import knapgap.gap
import knapgap.group
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


def _python_readout(inst, c):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1 << 62)
        return gap_exact(inst, c)


class TestPackedReadout:
    @given(case=numpy_gap_cases())
    @settings(max_examples=40)
    def test_numpy_readout_matches_python(self, case):
        inst, c = case
        report = gap_exact(inst, c)
        assert inst.a[report.tau] >= knapgap.group._NUMPY_MIN_MODULUS
        assert report == _python_readout(inst, c)

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
        assert gap_exact(inst, c) == expected


    def test_self_loop_weight_keeps_the_threshold_exact(self):
        # the self-loop generator 400 carries the largest reduced cost; B*
        # stays a Python int, so B* * K does not wrap around in int64
        inst, c = KnapsackInstance((200, 400, 301)), (0, 6 * 10**15, 1)
        report = gap_exact(inst, c)
        assert type(report.threshold) is int
        assert report == _python_readout(inst, c)
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
        assert gap_exact(inst, c) == expected
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
        gap_exact(inst, c)
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
        real = knapgap.group.GroupTable._decode

        def counting(table, rows):
            decodes.append(rows)
            return real(table, rows)

        monkeypatch.setattr(knapgap.group.GroupTable, "_decode", counting)
        inst = KnapsackInstance(a)
        gap_exact(inst, c)
        assert decodes == [inst.a[basis_reduction(inst, c).tau]]


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
