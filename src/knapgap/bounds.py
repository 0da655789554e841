"""Closed-form bounds on Frobenius numbers and integrality gaps.

Upper bounds hold for every valid instance and cost; the covering lower
bound applies to generic costs only and is reported as None otherwise.
Irrational constants enter through directed rational rounding at
knapgap.rounding's DEFAULT_BITS, always in the direction that keeps the
stated inequality true, so comparing these values with exact gaps is sound.

Costs become integers in one place, core.basis_reduction, before any
bound is formed: the reduction keeps c over the lcm of its denominators,
from which _norms reads the norms of c, and the reduced costs as integer
weights over its scale.  Each bound formula is written once, as a pair of
integers (numerator, denominator > 0), and the covering bound's root is
an integer root of its radicand scaled by 2**(d * DEFAULT_BITS).
check_bounds runs basis_reduction once, reads every bound through the
helpers their public functions call, and compares them with the gap by
cross-multiplying: the only Fractions it builds are the report's fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .core import (
    BasisReduction,
    KnapsackInstance,
    RationalLike,
    as_fraction,
    basis_reduction,
)
from .errors import ValidationError
from .group import frobenius
from .rounding import DEFAULT_BITS, iroot, root_lower


def schur_bound(inst: KnapsackInstance) -> int:
    """Classical product bound on the Frobenius number.

    g(a) <= min(a) * max(a) - min(a) - max(a).  Tight for two coprime
    coefficients (Sylvester's formula is exactly the right hand side).
    """
    lo, hi = inst.min_entry, inst.norm_inf
    return lo * hi - lo - hi


def _norms(red: BasisReduction) -> tuple[int, int, int]:
    """(D, D * ||c||_1, D * ||c||_inf) as ints, D the lcm of c's
    denominators, read off the reduction's integer costs."""
    scale, ints = red._costs
    sizes = [abs(v) for v in ints]
    return scale, sum(sizes), max(sizes)


# Each bound formula as an integer fraction (numerator, denominator > 0).
def _cook(inst: KnapsackInstance, scale: int, l1: int) -> tuple[int, int]:
    return inst.n * inst.norm_inf * l1, scale


def _upper_l1(inst: KnapsackInstance, scale: int, l1: int) -> tuple[int, int]:
    return (inst.norm_inf - 1) * l1, scale


def _upper_linf(inst: KnapsackInstance, scale: int, linf: int) -> tuple[int, int]:
    return 2 * (inst.norm_inf - 1) * linf, scale


def _upper_frobenius(
    inst: KnapsackInstance, scale: int, l1: int, g: int
) -> tuple[int, int]:
    return (g + inst.norm_inf) * l1, scale * inst.min_entry


def cook_gap_bound(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction:
    """Proximity-type bound n * max(a) * ||c||_1, valid for every b."""
    scale, l1, _ = _norms(basis_reduction(inst, c))
    return Fraction(*_cook(inst, scale, l1))


def gap_bound_l1(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= (max(a) - 1) * ||c||_1.

    Attained with equality on the family (k, ..., k, 1) with cost e_n, so
    the constant cannot be improved.
    """
    scale, l1, _ = _norms(basis_reduction(inst, c))
    return Fraction(*_upper_l1(inst, scale, l1))


def gap_bound_linf(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= 2 * (max(a) - 1) * ||c||_inf."""
    scale, _, linf = _norms(basis_reduction(inst, c))
    return Fraction(*_upper_linf(inst, scale, linf))


def gap_bound_frobenius(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= (g(a) + max(a)) * ||c||_1 / min(a)."""
    scale, l1, _ = _norms(basis_reduction(inst, c))
    return Fraction(*_upper_frobenius(inst, scale, l1, frobenius(inst)))


@cache
def rho_lower(d: int) -> Fraction:
    """Certified rational lower estimate of the simplex covering constant.

    The value is a dyadic rational never exceeding the true constant of the
    d-simplex.  The constant is known exactly for d = 1 (one) and d = 2
    (sqrt 3, rounded down here); for d >= 3 the estimate is (d!)^(1/d)
    rounded down.  It depends on d alone, so each d is computed once.
    """
    if d < 1:
        raise ValidationError(f"dimension d = {d} must be >= 1")
    if d == 1:
        return Fraction(1)
    return root_lower(Fraction(3 if d == 2 else math.factorial(d)), d)


def _covering(inst: KnapsackInstance, red: BasisReduction) -> tuple[int, int] | None:
    """gap_lower_bound_covering as an integer fraction, on a reduction."""
    if not red.generic:
        return None
    d = inst.n - 1
    rho = rho_lower(d)
    prod, scale = inst.a[red.tau] * math.prod(red.weights), red.scale
    if d == 1:  # the root of prod / scale is exact
        root, below = prod, scale
    else:
        root = iroot((prod << d * DEFAULT_BITS) // scale**d, d)
        below = 1 << DEFAULT_BITS
    num = rho.numerator * root * scale - sum(red.weights) * rho.denominator * below
    return num, rho.denominator * below * scale


def gap_lower_bound_covering(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction | None:
    """Lower bound rho * (a_tau * l_1 * ... * l_{n-1})^(1/(n-1)) - ||l||_1.

    Applies to generic costs only (returns None otherwise).  rho and the
    root are both rounded down, the root to DEFAULT_BITS binary places, and
    both factors are nonnegative, so the product still bounds the gap from
    below.  For n = 2 every quantity is exact and the bound equals the gap
    itself.  The product and the sum are taken on the reduction's integer
    weights D * l_j.
    """
    bound = _covering(inst, basis_reduction(inst, c))
    return None if bound is None else Fraction(*bound)


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound evaluated on one (instance, cost) pair.

    all_satisfied records whether the supplied exact gap sits inside every
    applicable inequality: lower_covering <= gap (when generic) and gap at
    most each of the four upper bounds, plus g(a) <= schur.
    """

    schur: int
    cook: Fraction
    upper_l1: Fraction
    upper_linf: Fraction
    upper_frobenius: Fraction
    lower_covering: Fraction | None
    all_satisfied: bool


def _at_most(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x <= y for integer fractions with positive denominators."""
    return x[0] * y[1] <= y[0] * x[1]


def check_bounds(
    inst: KnapsackInstance, c: Sequence[RationalLike], exact_gap: RationalLike
) -> BoundReport:
    """Evaluate all bounds against a supplied exact gap value."""
    value = as_fraction(exact_gap, "exact_gap")
    gap = value.numerator, value.denominator
    red = basis_reduction(inst, c)
    scale, l1, linf = _norms(red)
    g = frobenius(inst)
    schur = schur_bound(inst)
    uppers = (
        _cook(inst, scale, l1),
        _upper_l1(inst, scale, l1),
        _upper_linf(inst, scale, linf),
        _upper_frobenius(inst, scale, l1, g),
    )
    lower = _covering(inst, red)
    ok = (
        g <= schur
        and all(_at_most(gap, upper) for upper in uppers)
        and (lower is None or _at_most(lower, gap))
    )
    cook, upper_l1, upper_linf, upper_frob = (Fraction(*u) for u in uppers)
    return BoundReport(
        schur=schur,
        cook=cook,
        upper_l1=upper_l1,
        upper_linf=upper_linf,
        upper_frobenius=upper_frob,
        lower_covering=None if lower is None else Fraction(*lower),
        all_satisfied=ok,
    )
