"""Exact data model for integer knapsack minimization.

An instance is a row of positive integers a = (a_1, ..., a_n) with n >= 2
whose entries are coprime as a set.  Those two requirements are called
condition (i) (every entry is a positive integer) and condition (ii)
(gcd(a) = 1) throughout the package, including CLI error messages.

For a cost row c and right hand side b >= 0 the problems of interest are

    IP_c(a, b) = min { c.x : a.x = b, x integer >= 0 }
    LP_c(a, b) = min { c.x : a.x = b, x real    >= 0 }

All costs are exact rationals (fractions.Fraction); nothing in a value that
gets compared exactly ever passes through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DimensionTooSmall,
    NegativeRhs,
    NonPositiveEntry,
    NotCoprime,
    ValidationError,
)

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike, what: str = "value") -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Decimal notation is rejected on purpose: a string like '0.1' silently
    means 3602879701896397/2**55 once parsed as binary and exactness is the
    whole point of this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{what} must be rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(
            f"{what} must be an exact rational, floats are not accepted"
        )
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValidationError(
                f"{what} must be an integer or p/q fraction, got {text!r}"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{what}: cannot parse {text!r} as p/q") from exc
    raise ValidationError(f"{what} has unsupported type {type(value).__name__}")


@dataclass(frozen=True)
class KnapsackInstance:
    """A validated coefficient row.

    Construction enforces condition (i), condition (ii) and n >= 2; instances
    are immutable, so the invariants hold for the object's lifetime.
    """

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.a)
        object.__setattr__(self, "a", entries)
        if len(entries) < 2:
            raise DimensionTooSmall(
                f"n = {len(entries)} < 2, at least two coefficients required"
            )
        for i, value in enumerate(entries):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise NonPositiveEntry(
                    f"a[{i + 1}] = {value!r} is not a positive integer, condition (i)"
                )
        if math.gcd(*entries) != 1:
            raise NotCoprime("gcd(a) != 1, condition (ii)")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def norm_inf(self) -> int:
        return max(self.a)

    @property
    def min_entry(self) -> int:
        return min(self.a)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.a) + ")"


def cost_vector(entries: Sequence[RationalLike], n: int) -> tuple[Fraction, ...]:
    """Coerce raw cost entries to exact Fractions, checking the length n."""
    costs = tuple(as_fraction(v, f"c[{i + 1}]") for i, v in enumerate(entries))
    if len(costs) != n:
        raise ValidationError(f"cost vector has length {len(costs)}, expected {n}")
    return costs


@dataclass(frozen=True)
class BasisReduction:
    """Outcome of splitting the cost along the cheapest direction.

    tau is the 0-based position of the first entry minimizing c_i / a_i,
    slope is that minimal ratio, and l lists the reduced costs
    c_j - slope * a_j for the remaining positions in their original order.
    All reduced costs are >= 0; `generic` records whether the minimizing
    ratio was unique, which is equivalent to all reduced costs being > 0.
    scale is the lcm D of the denominators of l and weights lists the
    integers D * l_j, the form in which the gap and the bounds use them.
    """

    tau: int
    slope: Fraction
    l: tuple[Fraction, ...]
    generic: bool
    positions: tuple[int, ...]
    scale: int
    weights: tuple[int, ...]


def basis_reduction(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> BasisReduction:
    """Split c into slope * a plus nonnegative reduced costs.

    The relaxation's feasible region is the simplex with vertices
    (b / a_i) e_i, so LP_c(a, b) = b * min_i c_i / a_i.  Writing
    slope = c_tau / a_tau for the first minimizing position tau gives
    c.x = slope * b + sum_j l_j x_j on every solution of a.x = b, which is
    what the rest of the package exploits.

    In integers: with C_i = D_c c_i over the lcm D_c of c's denominators,
    tau is found by cross-multiplication, l_j = N_j / (D_c a_tau) with
    N_j = C_j a_tau - C_tau a_j, and G = gcd(D_c a_tau, N_1, ...) gives
    scale = D_c a_tau / G (the lcm of l's denominators) and weights N_j / G.
    """
    costs = cost_vector(c, inst.n)
    denom = math.lcm(*(ci.denominator for ci in costs))
    ints = [ci.numerator * (denom // ci.denominator) for ci in costs]
    tau = 0
    for i in range(1, inst.n):
        if ints[i] * inst.a[tau] < ints[tau] * inst.a[i]:
            tau = i
    positions = tuple(j for j in range(inst.n) if j != tau)
    rise = [ints[j] * inst.a[tau] - ints[tau] * inst.a[j] for j in positions]
    whole = denom * inst.a[tau]
    shared = math.gcd(whole, *rise)
    weights = tuple(v // shared for v in rise)
    scale = whole // shared
    return BasisReduction(
        tau=tau,
        slope=Fraction(ints[tau], whole),
        l=tuple(Fraction(v, scale) for v in weights),
        generic=0 not in weights,
        positions=positions,
        scale=scale,
        weights=weights,
    )


def check_rhs(b: int) -> None:
    """Refuse a right hand side that is not an integer b >= 0."""
    if not isinstance(b, int) or isinstance(b, bool):
        raise ValidationError(f"b must be an integer, got {b!r}")
    if b < 0:
        raise NegativeRhs(f"b = {b} < 0, right hand side must be nonnegative")


def lp_value(
    inst: KnapsackInstance, c: Sequence[RationalLike], b: int
) -> Fraction:
    """Exact optimum of the continuous relaxation, b * min_i c_i / a_i,
    the minimum being basis_reduction's slope."""
    check_rhs(b)
    return b * basis_reduction(inst, c).slope
