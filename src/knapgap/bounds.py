"""Closed-form bounds on Frobenius numbers and integrality gaps.

Upper bounds hold for every valid instance and cost; the covering lower
bound applies to generic costs only and is reported as None otherwise.
Irrational constants enter through directed rational rounding at
knapgap.rounding's DEFAULT_BITS, always in the direction that keeps the
stated inequality true, so comparing these values with exact gaps is sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def _norm_l1(costs: Sequence[Fraction]) -> Fraction:
    return sum((abs(ci) for ci in costs), Fraction(0))


def _norm_linf(costs: Sequence[Fraction]) -> Fraction:
    return max(abs(ci) for ci in costs)


def cook_gap_bound(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction:
    """Proximity-type bound n * max(a) * ||c||_1, valid for every b."""
    costs = cost_vector(c, inst.n)
    return inst.n * inst.norm_inf * _norm_l1(costs)


def gap_bound_l1(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= (max(a) - 1) * ||c||_1.

    Attained with equality on the family (k, ..., k, 1) with cost e_n, so
    the constant cannot be improved.
    """
    costs = cost_vector(c, inst.n)
    return (inst.norm_inf - 1) * _norm_l1(costs)


def gap_bound_linf(inst: KnapsackInstance, c: Sequence[RationalLike]) -> Fraction:
    """Gap_c(a) <= 2 * (max(a) - 1) * ||c||_inf."""
    costs = cost_vector(c, inst.n)
    return 2 * (inst.norm_inf - 1) * _norm_linf(costs)


def gap_bound_frobenius(
    inst: KnapsackInstance, c: Sequence[RationalLike], *, g: int | None = None
) -> Fraction:
    """Gap_c(a) <= (g(a) + max(a)) * ||c||_1 / min(a).

    Pass g to reuse an already computed Frobenius number.
    """
    costs = cost_vector(c, inst.n)
    if g is None:
        g = frobenius(inst)
    return Fraction(g + inst.norm_inf) * _norm_l1(costs) / inst.min_entry


@dataclass(frozen=True)
class RhoEstimate:
    """Lower estimate of the covering constant of a d-simplex.

    value is a dyadic rational never exceeding the true constant.  The
    constant is exactly known for d = 1 (one) and d = 2 (sqrt of 3), where
    `exact` is True even though the stored rational still rounds sqrt(3)
    down; for d >= 3 only the (d!)^(1/d) lower estimate is available.
    """

    d: int
    value: Fraction
    exact: bool


def rho_lower(d: int) -> RhoEstimate:
    """Certified rational lower estimate of the simplex covering constant."""
    if d < 1:
        raise ValidationError(f"dimension d = {d} must be >= 1")
    if d == 1:
        return RhoEstimate(d=1, value=Fraction(1), exact=True)
    if d == 2:
        return RhoEstimate(d=2, value=root_lower(Fraction(3), 2), exact=True)
    value = root_lower(Fraction(math.factorial(d)), d)
    return RhoEstimate(d=d, value=value, exact=False)


def gap_lower_bound_covering(
    inst: KnapsackInstance, c: Sequence[RationalLike]
) -> Fraction | None:
    """Lower bound rho * (a_tau * l_1 * ... * l_{n-1})^(1/(n-1)) - ||l||_1.

    Applies to generic costs only (returns None otherwise).  rho and the
    root are both rounded down, and both factors are nonnegative, so the
    product still bounds the gap from below.  For n = 2 every quantity is
    exact and the bound equals the gap itself.
    """
    red = basis_reduction(inst, c)
    if not red.generic:
        return None
    d = inst.n - 1
    prod = Fraction(inst.a[red.tau])
    for lw in red.l:
        prod *= lw
    root = root_lower(prod, d)
    rho = rho_lower(d).value
    return rho * root - sum(red.l, Fraction(0))


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
    g = frobenius(inst)
    schur = schur_bound(inst)
    cook = cook_gap_bound(inst, c)
    upper_l1 = gap_bound_l1(inst, c)
    upper_linf = gap_bound_linf(inst, c)
    upper_frob = gap_bound_frobenius(inst, c, g=g)
    lower = gap_lower_bound_covering(inst, c)
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
