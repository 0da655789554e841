"""Instance validation, rational parsing, and cost decomposition."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from knapgap import (
    BasisReduction,
    DimensionTooSmall,
    KnapsackInstance,
    NegativeRhs,
    NonPositiveEntry,
    NotCoprime,
    ValidationError,
    as_fraction,
    basis_reduction,
    cost_vector,
    delta_max,
    group_min_bruteforce,
    group_minima,
    lovasz_example,
    lp_value,
    tightness_family,
)

coefficients = st.lists(st.integers(min_value=1, max_value=80), min_size=2, max_size=5)


def coprime_instances():
    return coefficients.filter(lambda a: math.gcd(*a) == 1).map(
        lambda a: KnapsackInstance(tuple(a))
    )


def rational_costs(n):
    num = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=5)
    return st.lists(st.builds(Fraction, num, den), min_size=n, max_size=n).map(tuple)


class TestValidation:
    def test_accepts_valid(self):
        inst = KnapsackInstance((6, 9, 20))
        assert inst.a == (6, 9, 20)
        assert inst.n == 3
        assert inst.norm_inf == 20
        assert inst.min_entry == 6

    def test_accepts_entry_one(self):
        assert KnapsackInstance((1, 7)).a == (1, 7)

    def test_rejects_common_divisor(self):
        with pytest.raises(NotCoprime, match=r"condition \(ii\)"):
            KnapsackInstance((2, 4))

    def test_rejects_zero_entry(self):
        with pytest.raises(NonPositiveEntry, match=r"condition \(i\)"):
            KnapsackInstance((0, 5))

    def test_rejects_negative_entry(self):
        with pytest.raises(NonPositiveEntry):
            KnapsackInstance((-2, 3))

    def test_rejects_single_coefficient(self):
        with pytest.raises(DimensionTooSmall):
            KnapsackInstance((7,))

    def test_rejects_bool_entry(self):
        with pytest.raises(ValidationError):
            KnapsackInstance((True, 2))

    def test_str(self):
        assert str(KnapsackInstance((6, 9, 20))) == "(6, 9, 20)"

    def test_frozen(self):
        inst = KnapsackInstance((3, 5))
        with pytest.raises(AttributeError):
            inst.a = (2, 3)


class TestAsFraction:
    def test_int_passthrough(self):
        assert as_fraction(7, "x") == 7

    def test_fraction_passthrough(self):
        assert as_fraction(Fraction(3, 4), "x") == Fraction(3, 4)

    def test_string_forms(self):
        assert as_fraction("3/4", "x") == Fraction(3, 4)
        assert as_fraction("-2", "x") == -2
        assert as_fraction(" 5/10 ", "x") == Fraction(1, 2)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            as_fraction("1/0", "x")

    @pytest.mark.parametrize("bad", [0.5, True, "0.5", "1e3", "2.0", "three", ""])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValidationError):
            as_fraction(bad, "x")

    def test_cost_vector_length_check(self):
        with pytest.raises(ValidationError):
            cost_vector((1, 2), 3)
        assert cost_vector(("1/2", 3), 2) == (Fraction(1, 2), Fraction(3))


class TestBasisReduction:
    def test_unique_minimizer(self):
        red = basis_reduction(KnapsackInstance((3, 5)), (3, 0))
        assert red.tau == 1
        assert red.slope == 0
        assert red.l == (Fraction(3),)
        assert red.positions == (0,)
        assert red.generic

    def test_tie_picks_first_and_flags(self):
        red = basis_reduction(KnapsackInstance((3, 5)), (3, 5))
        assert red.tau == 0
        assert red.slope == 1
        assert red.l == (Fraction(0),)
        assert not red.generic

    def test_unit_tail_cost(self):
        inst = KnapsackInstance((4, 4, 4, 1))
        red = basis_reduction(inst, (0, 0, 0, 1))
        assert red.tau == 0
        assert red.slope == 0
        assert red.l == (Fraction(0), Fraction(0), Fraction(1))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            basis_reduction(KnapsackInstance((3, 5)), (1, 2, 3))

    @given(inst=coprime_instances(), data=st.data())
    def test_decomposition_identity(self, inst, data):
        c = data.draw(rational_costs(inst.n))
        red = basis_reduction(inst, c)
        others = [j for j in range(inst.n) if j != red.tau]
        assert red.positions == tuple(others)
        assert c[red.tau] == red.slope * inst.a[red.tau]
        for l_j, j in zip(red.l, others):
            assert l_j >= 0
            assert c[j] == red.slope * inst.a[j] + l_j
        # tau is the first index attaining the minimum ratio
        ratios = [Fraction(c[j]) / inst.a[j] for j in range(inst.n)]
        assert red.slope == min(ratios)
        assert red.tau == ratios.index(red.slope)
        assert red.generic == (ratios.count(red.slope) == 1)

    @given(
        inst=coprime_instances(),
        data=st.data(),
        lam=st.builds(
            Fraction,
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=9),
        ),
    )
    def test_positive_scaling(self, inst, data, lam):
        c = data.draw(rational_costs(inst.n))
        base = basis_reduction(inst, c)
        scaled = basis_reduction(inst, tuple(lam * cj for cj in c))
        assert scaled.tau == base.tau
        assert scaled.slope == lam * base.slope
        assert scaled.l == tuple(lam * lj for lj in base.l)
        assert scaled.generic == base.generic


def fraction_reduction(inst, c):
    """basis_reduction's attributes by their Fraction formulas, the
    reference for the integer route."""
    costs = [Fraction(ci) for ci in c]
    ratios = [ci / ai for ci, ai in zip(costs, inst.a)]
    slope = min(ratios)
    tau = ratios.index(slope)
    positions = tuple(j for j in range(inst.n) if j != tau)
    reduced = tuple(costs[j] - slope * inst.a[j] for j in positions)
    scale = math.lcm(*(lj.denominator for lj in reduced))
    return dict(
        tau=tau,
        slope=slope,
        l=reduced,
        generic=ratios.count(slope) == 1,
        positions=positions,
        scale=scale,
        weights=tuple(int(lj * scale) for lj in reduced),
    )


@st.composite
def reduction_cases(draw):
    """n = 2..6 with rational, zero, negative and tied costs: an entry is
    any rational, 0, or slope * a_i plus a small nonnegative rational,
    which ties with slope * a_i when that is 0."""
    n = draw(st.integers(min_value=2, max_value=6))
    a = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=n, max_size=n))
    assume(math.gcd(*a) == 1)
    slope = draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    rational = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
    lift = st.sampled_from([0, 0, Fraction(1, 2), 1, Fraction(5, 3)])
    c = []
    for ai in a:
        kind = draw(st.sampled_from(["rational", "zero", "tie"]))
        if kind == "rational":
            c.append(draw(rational))
        elif kind == "zero":
            c.append(0)
        else:
            c.append(slope * ai + draw(lift))
    return KnapsackInstance(tuple(a)), c


class TestIntegerReduction:
    @given(case=reduction_cases())
    # c / a = (1, 1, 1/2, 1/2): tau is the first of two tied minima
    @example(case=(KnapsackInstance((2, 3, 4, 6)), [2, 3, 2, 3]))
    # every reduced cost is zero
    @example(case=(KnapsackInstance((2, 3)), [Fraction(-2, 3), -1]))
    def test_matches_the_fraction_formulas(self, case):
        inst, c = case
        red = basis_reduction(inst, c)
        for name, value in fraction_reduction(inst, c).items():
            assert getattr(red, name) == value, name
        assert type(red.slope) is Fraction
        assert all(type(lj) is Fraction for lj in red.l)
        assert all(type(w) is int for w in red.weights)
        assert type(red.scale) is int

    def test_builds_no_fraction_until_read(self, monkeypatch):
        # the reduction holds integers; slope and l are built on first read
        built = []
        real = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        inst = KnapsackInstance((61, 97, 131, 173))
        c = (Fraction(-1), Fraction(1, 2), Fraction(3, 4), Fraction(5))
        want = fraction_reduction(inst, c)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        red = basis_reduction(inst, c)
        assert red.weights == want["weights"] and built == []
        assert red.slope == want["slope"] and red.slope is red.slope
        assert len(built) == 1
        assert red.l == want["l"] and red.l is red.l
        assert len(built) == inst.n
        assert type(red) is BasisReduction


class TestLpValue:
    def test_worked_example(self):
        assert lp_value(KnapsackInstance((2, 3)), (1, 1), 6) == 2

    def test_zero_cost_direction(self):
        assert lp_value(KnapsackInstance((3, 5)), (3, 0), 7) == 0

    def test_rejects_negative_rhs(self):
        with pytest.raises(NegativeRhs):
            lp_value(KnapsackInstance((2, 3)), (1, 1), -1)

    @given(inst=coprime_instances(), data=st.data(), b=st.integers(min_value=0, max_value=500))
    def test_matches_slope(self, inst, data, b):
        c = data.draw(rational_costs(inst.n))
        red = basis_reduction(inst, c)
        assert lp_value(inst, c, b) == red.slope * b

    @given(inst=coprime_instances(), data=st.data(), b=st.integers(min_value=0, max_value=500))
    def test_matches_the_ratio_minimum(self, inst, data, b):
        # lp_value reads the reduction's slope; check it against the minimum
        c = data.draw(rational_costs(inst.n))
        assert lp_value(inst, c, b) == b * min(ci / ai for ci, ai in zip(c, inst.a))

    def test_checks_the_rhs_before_the_costs(self):
        with pytest.raises(NegativeRhs):
            lp_value(KnapsackInstance((2, 3)), ("0.5", 1), -1)
        with pytest.raises(ValidationError, match="c\\[1\\]"):
            lp_value(KnapsackInstance((2, 3)), ("0.5", 1), 1)


_TRIPLE = KnapsackInstance((3, 5, 7))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lovasz_example(3, 1.5, "1/2"), "delta must be an integer, got 1.5"),
        (lambda: lovasz_example(2.5, 2, "1/2"), "n must be an integer, got 2.5"),
        (lambda: tightness_family(3, 2.5), "n must be an integer, got 2.5"),
        (lambda: tightness_family(2.0, 3), "k must be an integer, got 2.0"),
        (lambda: group_minima(_TRIPLE, 1.0, (5, 7)), "tau must be an integer, got 1.0"),
        (lambda: group_min_bruteforce(_TRIPLE, 0, (5, 7), 1, 1.5),
         "radius must be an integer, got 1.5"),
        (lambda: group_min_bruteforce(_TRIPLE, 0.0, (5, 7), 1, 2),
         "tau must be an integer, got 0.0"),
        (lambda: group_min_bruteforce(_TRIPLE, 0, (5, 7), 1.0, 2),
         "r must be an integer, got 1.0"),
        (lambda: delta_max([]), "matrix has no rows"),
        (lambda: delta_max([[1, 2], [3]]), "matrix rows differ in length, row 1 has 2 entries"),
    ],
)
def test_malformed_sizes_and_positions_are_validation_errors(call, message):
    # each one used to return a float result or raise TypeError or IndexError
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
