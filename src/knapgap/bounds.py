"""Closed-form bounds on Frobenius numbers and integrality gaps.

Upper bounds hold for every valid instance and cost; the covering lower
bound applies to generic costs only and is reported as None otherwise.
Irrational constants enter through directed rational rounding at
knapgap.rounding's DEFAULT_BITS, always in the direction that keeps the
stated inequality true, so comparing these values with exact gaps is sound.

Costs become integers over a common denominator before any bound is
formed: the norms of c over the lcm of its denominators (_norms), and the
reduced costs as basis_reduction's integer weights over its scale.  Each
bound formula is written once and builds its one Fraction at its return;
check_bounds coerces c, takes its norms and runs basis_reduction once, and
reads the norm bounds through the helpers their public functions call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .core import (
    KnapsackInstance,
    RationalLike,
    as_fraction,
    basis_reduction,
    cost_vector,
)
from .errors import ValidationError
from .group import frobenius
from .rounding import root_lower


def schur_bound(inst: KnapsackInstance) -> int:
    """Classical product bound on the Frobenius number.

    g(a) <= min(a) * max(a) - min(a) - max(a).  Tight for two coprime
    coefficients (Sylvester's formula is exactly the right hand side).
    """
    lo, hi = inst.min_entry, inst.norm_inf
    return lo * hi - lo - hi


def _norms(costs: Sequence[Fraction]) -> tuple[int, int, int]:
    """(D, D * ||c||_1, D * ||c||_inf) as ints, D the lcm of c's denominators."""
    scale = math.lcm(*(ci.denominator for ci in costs))
    sizes = [abs(ci.numerator) * (scale // ci.denominator) for ci in costs]
    return scale, sum(sizes), max(sizes)


def _cook(inst: KnapsackInstance, scale: int, l1: int) -> Fraction:
    return Fraction(inst.n * inst.norm_inf * l1, scale)


def _upper_l1(inst: KnapsackInstance, scale: int, l1: int) -> Fraction:
    return Fraction((inst.norm_inf - 1) * l1, scale)


def _upper_linf(inst: KnapsackInstance, scale: int, linf: int) -> Fraction:
    return Fraction(2 * (inst.norm_inf - 1) * linf, scale)


def _upper_frobenius(inst: KnapsackInstance, scale: int, l1: int, g: int) -> Fraction:
    return Fraction((g + inst.norm_inf) * l1, scale * inst.min_entry)


def cook_gap_bound(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction:
    """Proximity-type bound n * max(a) * ||c||_1, valid for every b."""
    scale, l1, _ = _norms(cost_vector(c, inst.n))
    return _cook(inst, scale, l1)


def gap_bound_l1(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= (max(a) - 1) * ||c||_1.

    Attained with equality on the family (k, ..., k, 1) with cost e_n, so
    the constant cannot be improved.
    """
    scale, l1, _ = _norms(cost_vector(c, inst.n))
    return _upper_l1(inst, scale, l1)


def gap_bound_linf(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= 2 * (max(a) - 1) * ||c||_inf."""
    scale, _, linf = _norms(cost_vector(c, inst.n))
    return _upper_linf(inst, scale, linf)


def gap_bound_frobenius(
    inst: KnapsackInstance, c: Sequence[RationalLike], *, g: int | None = None
) -> Fraction:
    """Gap_c(a) <= (g(a) + max(a)) * ||c||_1 / min(a).

    Pass g to reuse an already computed Frobenius number.
    """
    scale, l1, _ = _norms(cost_vector(c, inst.n))
    return _upper_frobenius(inst, scale, l1, frobenius(inst) if g is None else g)


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


def gap_lower_bound_covering(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction | None:
    """Lower bound rho * (a_tau * l_1 * ... * l_{n-1})^(1/(n-1)) - ||l||_1.

    Applies to generic costs only (returns None otherwise).  rho and the
    root are both rounded down, and both factors are nonnegative, so the
    product still bounds the gap from below.  For n = 2 every quantity is
    exact and the bound equals the gap itself.  The product and the sum
    are taken on the reduction's integer weights D * l_j.
    """
    red = basis_reduction(inst, c)
    if not red.generic:
        return None
    d = inst.n - 1
    prod = inst.a[red.tau] * math.prod(red.weights)
    root = root_lower(Fraction(prod, red.scale**d), d)
    return rho_lower(d) * root - Fraction(sum(red.weights), red.scale)


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


def check_bounds(
    inst: KnapsackInstance, c: Sequence[RationalLike], exact_gap: RationalLike
) -> BoundReport:
    """Evaluate all bounds against a supplied exact gap value."""
    gap = as_fraction(exact_gap, "exact_gap")
    costs = cost_vector(c, inst.n)
    scale, l1, linf = _norms(costs)
    g = frobenius(inst)
    schur = schur_bound(inst)
    cook = _cook(inst, scale, l1)
    upper_l1 = _upper_l1(inst, scale, l1)
    upper_linf = _upper_linf(inst, scale, linf)
    upper_frob = _upper_frobenius(inst, scale, l1, g)
    lower = gap_lower_bound_covering(inst, costs)
    ok = (
        g <= schur
        and gap <= cook
        and gap <= upper_l1
        and gap <= upper_linf
        and gap <= upper_frob
        and (lower is None or lower <= gap)
    )
    return BoundReport(
        schur=schur,
        cook=cook,
        upper_l1=upper_l1,
        upper_linf=upper_linf,
        upper_frobenius=upper_frob,
        lower_covering=lower,
        all_satisfied=ok,
    )
