"""Directed rounding primitives: every result must bracket the true value."""

import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knapgap.rounding
from knapgap.rounding import (
    DEFAULT_BITS,
    iroot,
    pow_bounds,
    pow_numerators,
    root_lower,
)


def root_upper(q: Fraction, r: int, bits: int = DEFAULT_BITS) -> Fraction:
    """Reference: dyadic rational upper approximation of q**(1/r), q >= 0."""
    if q < 0:
        raise ValueError("root of a negative rational")
    if r == 1:
        return q
    num = q.numerator << (r * bits)
    scaled = -((-num) // q.denominator)
    x = iroot(scaled, r)
    if x**r < scaled:
        x += 1
    return Fraction(x, 1 << bits)


positive_fractions = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**6),
)


def _bisected_root(m: int, r: int) -> int:
    """floor(m**(1/r)) by bisection, an independent reference for iroot."""
    lo, hi = 0, 1 << (m.bit_length() // r + 1)  # lo**r <= m < hi**r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r <= m:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def root_cases(draw):
    """(m, r) with m < 2**4096 and 3 <= r <= 64: any m, or one next to an
    exact r-th power, where the Newton loop's stop matters most."""
    r = draw(st.integers(min_value=3, max_value=64))
    if draw(st.booleans()):
        return draw(st.integers(min_value=0, max_value=2**4096 - 1)), r
    k = draw(st.integers(min_value=1, max_value=2 ** (4096 // r) - 1))
    return max(k**r + draw(st.sampled_from([-1, 0, 1])), 0), r


def _next_to_powers(test):
    """@example at k**r - 1, k**r and k**r + 1 for a few k and r."""
    for k, r in [(2, 3), (12345, 7), (10**400, 3), (3**85, 17), (2**63 + 1, 64)]:
        for d in (-1, 0, 1):
            test = example(case=(k**r + d, r))(test)
    return test


class TestIroot:
    @given(case=root_cases())
    @_next_to_powers
    def test_matches_bisection(self, case):
        # the Newton loop alone lands on the floor root (iroot's docstring)
        m, r = case
        assert iroot(m, r) == _bisected_root(m, r)

    @given(m=st.integers(min_value=0, max_value=10**30), r=st.integers(min_value=1, max_value=9))
    def test_floor_root(self, m, r):
        x = iroot(m, r)
        assert x**r <= m < (x + 1) ** r

    def test_low_seed_is_stepped_above_the_root(self, monkeypatch):
        # the float seed never comes out low on this platform; a log2 that
        # reads a relative 2**-30 low makes it so, and the seed loop must
        # then step x above the root before Newton runs
        low = SimpleNamespace(
            log2=lambda m: math.log2(m) * (1 - 2**-30), isqrt=math.isqrt
        )
        monkeypatch.setattr(knapgap.rounding, "math", low)
        rng = random.Random(3000)
        for r in (3, 5, 7, 64):
            for _ in range(75):
                m = rng.getrandbits(rng.randint(r + 1, 3000))
                if rng.random() < 0.5:
                    k = _bisected_root(m, r)
                    m = max(k**r + rng.choice([-1, 0, 1]), 0)
                assert iroot(m, r) == _bisected_root(m, r)

    def test_perfect_powers(self):
        assert iroot(27, 3) == 3
        assert iroot(26, 3) == 2
        assert iroot(10**18, 2) == 10**9
        assert iroot(0, 5) == 0
        assert iroot(1, 7) == 1

    @given(
        data=st.data(),
        r=st.one_of(
            st.integers(min_value=3, max_value=12),
            st.integers(min_value=3, max_value=4000),
        ),
    )
    @settings(max_examples=300)
    def test_floor_root_large(self, data, r):
        # operands of up to 20000 bits and roots up to 4000, including exact
        # powers and their neighbours, where a seed just below or just above
        # the root matters most
        x0 = data.draw(st.integers(min_value=1, max_value=2**max(1, 20000 // r)))
        m = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=2**20000),
                st.sampled_from([x0**r - 1, x0**r, x0**r + 1, (x0 + 1) ** r - 1]),
            )
        )
        x = iroot(m, r)
        assert x**r <= m < (x + 1) ** r

    def test_large_root_index_is_fast(self):
        # the norm power of a tail run at epsilon = 3/3001: the radicand has
        # about 180000 bits and the root index is 3001
        start = time.perf_counter()
        lo, hi = pow_bounds(1999, Fraction(3, 3001))
        assert time.perf_counter() - start < 1.0
        assert hi - lo == Fraction(1, 2**DEFAULT_BITS)
        num = lo * 2**DEFAULT_BITS
        assert num.denominator == 1
        assert num.numerator**3001 <= 1999**3 << 3001 * DEFAULT_BITS < (num.numerator + 1) ** 3001


class TestRootBounds:
    @given(q=positive_fractions, r=st.integers(min_value=1, max_value=6))
    def test_bracket(self, q, r):
        lo = root_lower(q, r)
        hi = root_upper(q, r)
        assert 0 <= lo <= hi
        assert lo**r <= q <= hi**r
        assert hi - lo <= Fraction(2, 2**DEFAULT_BITS)

    def test_trivial_root_is_exact(self):
        q = Fraction(22, 7)
        assert root_lower(q, 1) == q == root_upper(q, 1)

    def test_perfect_square_tight(self):
        assert root_lower(Fraction(9, 4), 2) == Fraction(3, 2)
        assert root_upper(Fraction(9, 4), 2) == Fraction(3, 2)


class TestPowBounds:
    @given(
        base=st.integers(min_value=1, max_value=10**6),
        num=st.integers(min_value=0, max_value=17),
        den=st.integers(min_value=1, max_value=6),
    )
    def test_bracket(self, base, num, den):
        e = Fraction(num, den)
        lo, hi = pow_bounds(base, e)
        assert 0 < lo <= hi
        # lo <= base**(p/q) <= hi, compared exactly through the q-th power
        assert lo**e.denominator <= Fraction(base) ** e.numerator
        assert hi**e.denominator >= Fraction(base) ** e.numerator

    @given(base=st.integers(min_value=1, max_value=10**6), k=st.integers(min_value=0, max_value=9))
    def test_integer_exponent_exact(self, base, k):
        lo, hi = pow_bounds(base, Fraction(k))
        assert lo == hi == base**k

    def test_known_value(self):
        lo, hi = pow_bounds(20, Fraction(4, 5))
        assert abs(float(lo) - 10.985605) < 1e-5  # 20**0.8
        assert abs(float(hi) - 10.985605) < 1e-5

    @pytest.mark.parametrize("base", [Fraction(20), Fraction(3, 2), True, 20.0])
    def test_base_must_be_an_int(self, base):
        with pytest.raises(TypeError, match="base must be an int"):
            pow_bounds(base, Fraction(4, 5))


class TestPowNumerators:
    @given(
        base=st.integers(min_value=0, max_value=10**6),
        p=st.integers(min_value=0, max_value=12),
        q=st.integers(min_value=1, max_value=12),
        bits=st.sampled_from([0, 1, 8, 60]),
    )
    def test_against_root_bounds(self, base, p, q, bits):
        lo, hi = pow_numerators(base, p, q, bits)
        # root certificate: lo is the floor root of N and hi its ceiling root
        radicand = base**p << q * bits
        assert lo**q <= radicand < (lo + 1) ** q
        assert (hi - 1) ** q < radicand <= hi**q or hi == lo == 0
        # the Fraction route agrees, and so does pow_bounds on this int base
        powered = Fraction(base**p)
        assert Fraction(lo, 1 << bits) == root_lower(powered, q, bits)
        assert Fraction(hi, 1 << bits) == root_upper(powered, q, bits)
        expected = (Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))
        assert pow_bounds(base, Fraction(p, q), bits) == expected
