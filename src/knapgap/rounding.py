"""Directed rational rounding for roots and rational powers.

Irrational quantities (square roots, factorial roots, powers with fractional
exponent) enter this package only through one-sided rational approximations.
A lower approximation may only be used where it weakens a lower bound and an
upper approximation only where it weakens an upper bound, so every exact
comparison downstream stays sound.  Precision is `bits` binary digits after
the point; results are dyadic rationals with denominator dividing 2**bits.

The package calls iroot, root_lower and pow_numerators.  pow_bounds, the
Fraction form of pow_numerators for an int base, has no caller here; it
stays as the name the benchmark's traced runs wrap (knapgap.experiments
re-exports it) and as the tests' reference for the sampled brackets.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_BITS = 60


def iroot(m: int, r: int) -> int:
    """Integer floor root: the largest x >= 0 with x**r <= m.

    Requires m >= 0 and r >= 1.  Newton iteration on integers, seeded above
    the root.  The seed is a float estimate 2**e of the root, e = log2(m) / r,
    with about 53 significant bits.  Raising e by a relative 2**-40 clears
    the float's rounding error (about e * 2**-51) and stepping up until the
    seed's r-th power exceeds m guarantees a start above the root, so
    Newton starts a relative e * 2**-41 or so above it and needs a few
    steps.  A seed up to twice the root would cost about r steps, since
    each then shrinks the error only by a factor (r - 1) / r.  The float
    only picks where Newton starts; the result is exact either way.

    The iteration stops at s = floor(m**(1/r)) itself, so no correction
    follows it.  The seed loop leaves x**r > m, that is x > s.  The step
    y = ((r - 1) x + m // x**(r - 1)) // r is the floor of the real Newton
    step ((r - 1) x + m / x**(r - 1)) / r, as (r - 1) x is an integer, and
    by AM-GM over r - 1 copies of x and one of m / x**(r - 1) that real
    step is at least m**(1/r), so y >= s.  And y < x exactly when
    m / x**(r - 1) < x, that is when x**r > m.  So x falls strictly while
    it exceeds s, never below s, and the loop stops at x = s.
    """
    if m < 0:
        raise ValueError("iroot of a negative number")
    if r < 1:
        raise ValueError("root index must be >= 1")
    if r == 1 or m in (0, 1):
        return m
    if r == 2:
        return math.isqrt(m)
    if m.bit_length() <= r:
        return 1
    e = math.log2(m) / r * (1 + 2.0**-40)
    shift = max(int(e) - 52, 0)
    x = (int(2.0 ** (e - shift)) + 1) << shift
    while x**r <= m:
        x += (x >> 32) + 1
    while True:
        y = ((r - 1) * x + m // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x


def root_lower(q: Fraction, r: int, bits: int = DEFAULT_BITS) -> Fraction:
    """Dyadic rational lower approximation of q**(1/r), q >= 0."""
    if q.numerator < 0:
        raise ValueError("root of a negative rational")
    if r == 1:
        return q
    scaled = (q.numerator << (r * bits)) // q.denominator
    return Fraction(iroot(scaled, r), 1 << bits)


def pow_numerators(base: int, p: int, q: int, bits: int) -> tuple[int, int]:
    """floor and ceil of base**(p / q) * 2**bits, for integers base, p >= 0
    and q >= 1.

    lo is the q-th integer root of base**p * 2**(q * bits), and hi is lo
    plus one unless that radicand is an exact q-th power.
    """
    radicand = base**p << q * bits
    lo = iroot(radicand, q)
    return lo, lo + (lo**q != radicand)


def pow_bounds(
    base: int, exponent: Fraction, bits: int = DEFAULT_BITS
) -> tuple[Fraction, Fraction]:
    """Bracket base**exponent between two dyadic rationals, for an int base.

    Requires base >= 0 and exponent >= 0.  Exact (lo == hi) when the exponent
    is an integer.  The bracket is pow_numerators over 2**bits.
    """
    if type(base) is not int:
        raise TypeError(f"base must be an int, got {type(base).__name__}")
    exponent = Fraction(exponent)
    if base < 0:
        raise ValueError("power of a negative base")
    if exponent < 0:
        raise ValueError("negative exponents are not supported")
    lo, hi = pow_numerators(base, exponent.numerator, exponent.denominator, bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)
