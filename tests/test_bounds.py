"""Closed-form bounds must sandwich the exact gap, always."""

import math
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knapgap.bounds
import knapgap.core
from knapgap import (
    KnapsackInstance,
    ValidationError,
    basis_reduction,
    check_bounds,
    cook_gap_bound,
    frobenius,
    frobenius_sieve_oracle,
    gap_bound_frobenius,
    gap_bound_l1,
    gap_bound_linf,
    gap_exact,
    gap_lower_bound_covering,
    rho_lower,
    schur_bound,
    tightness_family,
)
from knapgap.rounding import root_lower

tiny_instances = (
    st.lists(st.integers(min_value=1, max_value=18), min_size=2, max_size=4)
    .filter(lambda a: math.gcd(*a) == 1)
    .map(lambda a: KnapsackInstance(tuple(a)))
)


def tiny_costs(n):
    num = st.integers(min_value=-4, max_value=4)
    den = st.integers(min_value=1, max_value=3)
    return st.lists(st.builds(Fraction, num, den), min_size=n, max_size=n).map(tuple)


class TestUpperBounds:
    def test_schur_values(self):
        assert schur_bound(KnapsackInstance((6, 9, 20))) == 94
        assert schur_bound(KnapsackInstance((3, 5))) == 7  # tight for n = 2

    def test_worked_example_values(self):
        inst = KnapsackInstance((3, 5))
        c = (3, 0)
        assert cook_gap_bound(inst, c) == 30
        assert gap_bound_l1(inst, c) == 12
        assert gap_bound_linf(inst, c) == 24

    def test_frobenius_bound_value(self):
        inst = KnapsackInstance((6, 9, 20))
        assert gap_bound_frobenius(inst, (1, 1, 1)) == Fraction(63, 2)

    def test_zero_cost(self):
        inst = KnapsackInstance((3, 5))
        assert cook_gap_bound(inst, (0, 0)) == 0
        assert gap_bound_l1(inst, (0, 0)) == 0
        assert gap_bound_linf(inst, (0, 0)) == 0
        assert gap_bound_frobenius(inst, (0, 0)) == 0

    def test_l1_bound_tight_on_family(self):
        for k in (2, 7, 32):
            for n in (2, 3, 4):
                inst, cost = tightness_family(k, n)
                assert gap_bound_l1(inst, cost) == k - 1
                assert gap_exact(inst, cost).gap == k - 1

    @given(inst=tiny_instances, data=st.data())
    @settings(max_examples=30)
    def test_l1_never_above_cook(self, inst, data):
        c = data.draw(tiny_costs(inst.n))
        assert gap_bound_l1(inst, c) <= cook_gap_bound(inst, c)

    @given(inst=tiny_instances)
    @settings(max_examples=30)
    def test_schur_bounds_frobenius(self, inst):
        assert frobenius(inst) <= schur_bound(inst)


class TestRho:
    def test_dimension_one(self):
        assert rho_lower(1) == 1

    def test_dimension_two_sqrt3(self):
        value = rho_lower(2)
        assert value**2 <= 3
        assert (value + Fraction(1, 2**50)) ** 2 > 3

    def test_dimension_three(self):
        value = rho_lower(3)
        assert value**3 <= 6
        assert abs(float(value) - 6 ** (1 / 3)) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            rho_lower(0)

    def test_monotone_start(self):
        # the estimate grows with dimension: 1, 1.73, 1.81, 2.21, ...
        values = [float(rho_lower(d)) for d in range(1, 6)]
        assert values == sorted(values)


class TestCoveringLowerBound:
    def test_equals_gap_for_two_coefficients(self):
        inst = KnapsackInstance((3, 5))
        assert gap_lower_bound_covering(inst, (3, 0)) == 12
        assert gap_exact(inst, (3, 0)).gap == 12

    def test_second_example(self):
        inst = KnapsackInstance((2, 3))
        lower = gap_lower_bound_covering(inst, (1, 1))
        assert lower == Fraction(2, 3) == gap_exact(inst, (1, 1)).gap

    def test_none_when_not_generic(self):
        assert gap_lower_bound_covering(KnapsackInstance((3, 5)), (3, 5)) is None

    @given(
        a1=st.integers(min_value=1, max_value=30),
        a2=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_exact_for_all_generic_pairs(self, a1, a2, data):
        if math.gcd(a1, a2) != 1:
            return
        inst = KnapsackInstance((a1, a2))
        c = data.draw(tiny_costs(2))
        if not basis_reduction(inst, c).generic:
            return
        assert gap_lower_bound_covering(inst, c) == gap_exact(inst, c).gap


def _rows_and_costs(n):
    row = st.lists(st.integers(min_value=1, max_value=18), min_size=n, max_size=n)
    entry = st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(1, 8))
    return st.tuples(
        row.filter(lambda a: math.gcd(*a) == 1),
        st.lists(entry, min_size=n, max_size=n),
    )


class TestNorms:
    @given(pair=st.integers(min_value=2, max_value=4).flatmap(_rows_and_costs))
    @example(pair=((2, 3), [Fraction(1, 4), Fraction(3, 8)]))  # tied ratios
    @example(pair=((6, 9, 20), [Fraction(0), Fraction(-7, 8), Fraction(5, 6)]))
    @settings(max_examples=60)
    def test_read_off_the_reduction(self, pair):
        # (D, D ||c||_1, D ||c||_inf) from the Fractions themselves, on
        # negative, zero, tied and rational entries with denominators up to 8
        a, c = pair
        d = math.lcm(*(ci.denominator for ci in c))
        expected = d, int(d * sum(map(abs, c))), int(d * max(map(abs, c)))
        assert knapgap.bounds._norms(basis_reduction(KnapsackInstance(a), c)) == expected


class TestCheckBounds:
    def test_worked_example(self):
        inst = KnapsackInstance((3, 5))
        report = check_bounds(inst, (3, 0), 12)
        assert report.all_satisfied
        assert report.lower_covering == 12

    def test_lower_none_when_not_generic(self):
        report = check_bounds(KnapsackInstance((3, 5)), (3, 5), 0)
        assert report.lower_covering is None
        assert report.all_satisfied

    @pytest.mark.parametrize(
        "a, c, gap",
        [
            ((6, 9, 20), (3, 5, 7), Fraction(199, 20)),
            ((61, 97, 131, 173), (-1, "1/2", "3/4", 5), Fraction(6583, 244)),
        ],
    )
    def test_shares_its_work(self, a, c, gap, monkeypatch):
        # one coercion of c (inside basis_reduction), one set of norms and
        # one reduction per call, and the same values as the public bound
        # functions; cost_vector is counted in core and, should bounds
        # import it again, there too
        calls = []

        def count(module, name):
            def counting(*args, _real=getattr(module, name)):
                calls.append(name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)

        for module in (knapgap.core, knapgap.bounds):
            if hasattr(module, "cost_vector"):
                count(module, "cost_vector")
        count(knapgap.bounds, "_norms")
        count(knapgap.bounds, "basis_reduction")
        inst = KnapsackInstance(a)
        report = check_bounds(inst, c, gap)
        assert sorted(calls) == ["_norms", "basis_reduction", "cost_vector"]
        assert report.all_satisfied
        assert report.cook == cook_gap_bound(inst, c)
        assert report.upper_l1 == gap_bound_l1(inst, c)
        assert report.upper_linf == gap_bound_linf(inst, c)
        assert report.upper_frobenius == gap_bound_frobenius(inst, c)
        assert report.lower_covering == gap_lower_bound_covering(inst, c)

    @given(inst=tiny_instances, data=st.data())
    @settings(max_examples=40)
    def test_sandwich_property(self, inst, data):
        c = data.draw(tiny_costs(inst.n))
        gap = gap_exact(inst, c).gap
        report = check_bounds(inst, c, gap)
        assert report.all_satisfied
        assert gap <= report.cook
        assert gap <= report.upper_l1
        assert gap <= report.upper_linf
        assert gap <= report.upper_frobenius
        if report.lower_covering is not None:
            assert report.lower_covering <= gap


class TestIntegerBoundary:
    # the gap pass compares and sums in integers; Fractions are built for
    # the report fields only
    REFUSED = ("__le__", "__lt__", "__ge__", "__gt__", "__add__", "__radd__",
               "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__rtruediv__")

    @pytest.mark.parametrize(
        "a, c",
        [
            ((3, 5), (3, 0)),  # n = 2: the covering bound is exact
            ((6, 9, 20), (3, 5, 7)),  # Python walk
            ((61, 97, 131, 173), (-1, "1/2", "3/4", 5)),  # n = 4, rational
            ((1234, 1789, 1999), ("3/2", -1, 7)),  # numpy table
            ((1234, 1789, 1999, 2311), ("3/2", -1, 7, 2)),  # numpy frobenius
            ((1234, 1789, 1999), (1234, 1789, 1999)),  # not generic
        ],
    )
    def test_gap_pass_runs_no_fraction_arithmetic(self, a, c, monkeypatch):
        inst = KnapsackInstance(a)
        costs = tuple(Fraction(ci) for ci in c)
        report = gap_exact(inst, costs)
        # all_satisfied takes both values over the shifted gaps
        gaps = [report.gap + shift for shift in (0, 10**9, -(10**9))]
        bounds = [check_bounds(inst, costs, gap) for gap in gaps]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in the gap pass")

        for name in self.REFUSED:
            monkeypatch.setattr(Fraction, name, refuse)
        assert gap_exact(inst, costs) == report
        assert [check_bounds(inst, costs, gap) for gap in gaps] == bounds
        assert not bounds[1].all_satisfied


@st.composite
def bound_cases(draw):
    """(instance, cost, gap) triples with n = 2..5.

    Each cost entry is either a free rational or slope * a_j plus a reduced
    cost from {0} and small fractions, so negative entries, ties in the
    slope and zero reduced costs all come up often.  The gap is the exact
    gap moved by a small offset, so all_satisfied takes both values.
    """
    a = draw(
        st.lists(st.integers(min_value=1, max_value=24), min_size=2, max_size=5)
        .filter(lambda a: math.gcd(*a) == 1)
    )
    slope = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
    free = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    reduced = st.one_of(
        st.just(Fraction(0)), st.builds(Fraction, st.integers(0, 9), st.integers(1, 6))
    )
    cost = tuple(
        draw(free) if draw(st.booleans()) else slope * aj + draw(reduced) for aj in a
    )
    inst = KnapsackInstance(tuple(a))
    offset = draw(st.sampled_from([0, 0, Fraction(-1, 3), 5]))
    return inst, cost, gap_exact(inst, cost).gap + offset


def reference_covering(inst, c):
    """The covering lower bound by Fraction products and sums."""
    ratios = [Fraction(ci) / ai for ci, ai in zip(c, inst.a)]
    slope = min(ratios)
    if ratios.count(slope) > 1:
        return None
    tau = ratios.index(slope)
    reduced = [Fraction(c[j]) - slope * inst.a[j] for j in range(inst.n) if j != tau]
    d = inst.n - 1
    prod = Fraction(inst.a[tau])
    for lw in reduced:
        prod *= lw
    if d == 1:
        rho = Fraction(1)
    else:
        rho = root_lower(Fraction(3 if d == 2 else math.factorial(d)), d)
    return rho * root_lower(prod, d) - sum(reduced, Fraction(0))


def reference_report(inst, c, gap):
    """Every BoundReport field by Fraction formulas on the costs as given."""
    costs = [Fraction(ci) for ci in c]
    l1 = sum((abs(ci) for ci in costs), Fraction(0))
    linf = max(abs(ci) for ci in costs)
    big, small = max(inst.a), min(inst.a)
    g = frobenius_sieve_oracle(inst)
    fields = {
        "schur": small * big - small - big,
        "cook": inst.n * big * l1,
        "upper_l1": (big - 1) * l1,
        "upper_linf": 2 * (big - 1) * linf,
        "upper_frobenius": Fraction(g + big) * l1 / small,
        "lower_covering": reference_covering(inst, c),
    }
    uppers = ("cook", "upper_l1", "upper_linf", "upper_frobenius")
    lower = fields["lower_covering"]
    fields["all_satisfied"] = (
        g <= fields["schur"]
        and all(gap <= fields[k] for k in uppers)
        and (lower is None or lower <= gap)
    )
    return fields


class TestAgainstFractionFormulas:
    @given(case=bound_cases())
    @example(case=(KnapsackInstance((3, 5, 7)), (0, 0, 0), Fraction(0)))
    @example(case=(KnapsackInstance((3, 5, 7)), (0, 0, 0), Fraction(-1, 3)))
    @settings(max_examples=80)
    def test_every_field(self, case):
        inst, c, gap = case
        report = check_bounds(inst, c, gap)
        assert asdict(report) == reference_report(inst, c, gap)
        uppers = (report.cook, report.upper_l1, report.upper_linf, report.upper_frobenius)
        assert all(type(value) is Fraction for value in uppers)
        assert gap_lower_bound_covering(inst, c) == reference_covering(inst, c)

    @given(case=bound_cases())
    @settings(max_examples=40)
    def test_reduction_weights(self, case):
        inst, c, _ = case
        red = basis_reduction(inst, c)
        assert red.scale == math.lcm(*(lw.denominator for lw in red.l))
        assert red.weights == tuple(lw * red.scale for lw in red.l)
        assert all(type(w) is int for w in red.weights)
