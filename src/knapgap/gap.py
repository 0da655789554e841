"""Exact integrality gaps for knapsack minimization.

The additive gap of one right hand side is
IG_c(a, b) = IP_c(a, b) - LP_c(a, b), and the quantity of interest is its
maximum over all representable b, written Gap_c(a).  On any solution of
a.x = b the cost splits as c.x = slope * b + l.x' (basis_reduction), where
x' drops the pivot coordinate tau and l >= 0.  So IG(b) is the minimum of
l.x' over the x' whose load gen.x' is congruent to b modulo a_tau and at
most b.  Raising b by a_tau keeps every such x' (one more unit of x_tau,
at reduced cost zero), so

    IG_c(a, b + a_tau) <= IG_c(a, b)

and IG never increases along a residue class.  Its maximum over a class
sits at the class's smallest representable b_r, where x_tau = 0, and
gap_exact reads every (b_r, IG(b_r)) from one residue table with
lexicographic (load, cost) labels instead of sweeping right hand sides.
Past the tightness threshold B* the class minimum is reached outright:

    IG_c(a, b) = minima[b mod a_tau]        for every b >= B*.

For n = 3 gap_exact builds neither table.  Per class of
{v in Z^2 : g.v = 0 mod a_tau}, g the two generators and w their integer
reduced costs, each table keeps its smallest point in a lexicographic
order of linear keys: (w.v, v_1 + v_2, v_2) for the reduced-cost table,
(g.v, w.v, v_2) for the packed one (ties there share the label).  So
each is the L-shaped staircase that group._corners reads off one walk of
a continued fraction (group.py's module docstring), and B*, tail_gap and
gap are maxima of nonnegative linear forms over its outer corners.  Both
routes find every value as an integer over basis_reduction's scale D and
return through _report, the one place a GapReport is built.

ip_value, integrality_gap and gap_bruteforce read one direct dynamic
program over right hand sides (_value_table), off the residue table, so
gap_bruteforce stays an independent check value for gap_exact.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    BasisReduction,
    KnapsackInstance,
    RationalLike,
    basis_reduction,
    check_rhs,
    cost_vector,
    lp_value,
)
from .group import _check_table, _corners, _dot, _packed_maxima, _round_robin
from .group import group_minima, tightness_threshold
from .guardrail import check_cells


def _value_table(
    inst: KnapsackInstance, c: Sequence[RationalLike], b: int
) -> list[Fraction | None]:
    """IP_c(a, t) for t = 0..b, None where t is not representable.

    Every solution of a.x = t decomposes as a solution of t - a_i plus one
    use of coordinate i, so the recursion is exhaustive.  Negative cost
    entries are fine, the state space is bounded by b regardless.
    """
    check_rhs(b)
    costs = cost_vector(c, inst.n)
    check_cells(b + 1, f"value table up to b = {b}")
    value: list[Fraction | None] = [None] * (b + 1)
    value[0] = Fraction(0)
    a = inst.a
    for t in range(1, b + 1):
        best: Fraction | None = None
        for ai, ci in zip(a, costs):
            if ai <= t:
                prev = value[t - ai]
                if prev is not None:
                    cand = prev + ci
                    if best is None or cand < best:
                        best = cand
        value[t] = best
    return value


def ip_value(
    inst: KnapsackInstance, c: Sequence[RationalLike], b: int
) -> Fraction | None:
    """Exact integer optimum IP_c(a, b), or None when b is not representable.

    Dynamic program over right hand sides 0..b (_value_table).
    """
    return _value_table(inst, c, b)[b]


def integrality_gap(
    inst: KnapsackInstance, c: Sequence[RationalLike], b: int
) -> Fraction | None:
    """IG_c(a, b) = IP - LP for one right hand side, None when infeasible."""
    ip = ip_value(inst, c, b)
    if ip is None:
        return None
    return ip - lp_value(inst, c, b)


@dataclass(frozen=True)
class GapReport:
    """Gap_c(a) with the data needed to audit it.

    gap is the exact maximum, witness_b the smallest right hand side
    attaining it, threshold the tightness bound B*, tail_gap the residue
    table maximum governing all b >= B*, scan_gap the maximum over
    representable b < B*, tau the 0-based pivot position and generic whether
    the cost slope minimizer was unique.
    """

    gap: Fraction
    witness_b: int
    threshold: int
    tail_gap: Fraction
    scan_gap: Fraction
    tau: int
    generic: bool


def _report(
    red: BasisReduction, gap: int, first: int, bstar: int, tail: int, scan: int
) -> GapReport:
    """The GapReport of both routes, from integer values: gap, tail and
    scan are D * Gap, D * tail_gap and D * scan_gap over the reduction's
    scale D, first the witness b and bstar the threshold."""
    return GapReport(
        gap=Fraction(gap, red.scale),
        witness_b=first,
        threshold=bstar,
        tail_gap=Fraction(tail, red.scale),
        scan_gap=Fraction(scan, red.scale),
        tau=red.tau,
        generic=red.generic,
    )


def _gap_from_tables(inst: KnapsackInstance, red: BasisReduction) -> GapReport:
    """gap_exact from two residue tables of a_tau cells.

    Every (b_r, IG(b_r)) comes from one run of the residue kernel, whose
    integer arc weights pack load and reduced cost into a single key,

        key_j = gen_j * K + D * l_j,    D = lcm of the denominators of l,

    so a path's key is load * K + D * cost.  basis_reduction hands over D
    and the integers D * l_j as its scale and weights, and K is k below.
    A load-minimal solution uses no self-loop generator (gen_j divisible
    by m adds load and keeps the class), and fewer than m generators (m of
    them would contain a nonempty subsum divisible by m, whose removal
    lowers the load and keeps the class).  So with K = m * max_j(D * l_j)
    + 1 over the other generators, the key order is the (load, cost)
    lexicographic order, its cost part stays below K, and a class label is
    b_r * K + D * IG(b_r).  The labels are read without splitting them,
    on the int64 array itself when the kernel ran on numpy: label % K is
    D * IG(b_r), the smallest label of the largest remainder gives the
    smallest b_r attaining the maximum, which is the smallest attaining b
    overall, and scan_gap keeps the labels below B* * K, which are those
    with b_r < B*.  B* * K stays below the kernel's int64 guard, since B*
    is a witness load, below m times the largest generator that is not a
    self-loop.
    threshold and tail_gap come from the reduced-cost table, which runs on
    the integer weights D * l_j: scaling every weight by D keeps the same
    tight arcs and multiplies each minimum by D.  tail_gap is the table's
    largest_minimum, read off its largest label.  Both tables have a_tau
    cells, which group_minima checks against the guardrail; the witness
    counts behind B* add a few times (n - 1) * a_tau array entries, which
    it does not count.  The reduced-cost table is dropped before the
    packed one is built, so only one is held at a time.
    """
    table = group_minima(inst, red.tau, red.weights)
    bstar = tightness_threshold(table)
    tail = table.largest_minimum
    m = table.modulus
    live = [(g, w) for g, w in zip(table.generators, red.weights) if g % m]
    del table
    k = m * max((w for _, w in live), default=0) + 1
    labels = _round_robin(m, [(g % m, g * k + w) for g, w in live])
    gap, first, scan = _packed_maxima(labels, k, bstar * k)
    return _report(red, gap, first // k, bstar, tail, scan)


def gap_exact(inst: KnapsackInstance, c: Sequence[RationalLike]) -> GapReport:
    """Exact Gap_c(a) = max over representable b of IG_c(a, b).

    IG never increases along a residue class (module docstring), so the
    gap is the largest IG(b_r) over the a_tau classes, where b_r is the
    class's smallest representable b.  Two residue tables give every
    field: the reduced-cost table gives threshold (B*, its largest witness
    load) and tail_gap (its largest minimum), and a table on (load, cost)
    keys gives every (b_r, IG(b_r)), so gap, witness_b and scan_gap.  For
    n != 3 _gap_from_tables builds them.  For n = 3 neither is built: the
    points each keeps, in the orders (w.v, v_1 + v_2, v_2) and
    (g.v, w.v, v_2), form an L-shaped staircase (Fiol, Yebra, Alegre and
    Valero, IEEE Trans. Comput. C-36, 1987) whose sides A, B and notch
    c, d come from one walk of a ceiling continued fraction, the one
    frobenius takes for three coefficients (module docstring).  B*,
    tail_gap and gap are maxima over its outer corners, witness_b is the
    smallest load of an attaining corner with its zero-cost coordinates
    cleared, and scan_gap walks the shorter side of each corner's box, at
    most sqrt(a_tau) steps.  Either way the guardrail counts the a_tau
    cells of a table, as frobenius does for n = 3.
    """
    red = basis_reduction(inst, c)
    if inst.n != 3:
        return _gap_from_tables(inst, red)
    m = inst.a[red.tau]
    _check_table(m)
    g = [inst.a[j] for j in red.positions]
    w = red.weights
    lex = _corners(m, g, (w, (1, 1), (0, 1)))
    packed = _corners(m, g, (g, w, (0, 1)))
    bstar = max(_dot(g, x) for x in lex)
    gap = max(_dot(w, x) for x in packed)
    # zero-cost coordinates of an attaining corner only add load
    first = min(
        _dot(g, [xj if wj else 0 for xj, wj in zip(x, w)])
        for x in packed
        if _dot(w, x) == gap
    )
    scan = 0
    for x in packed:
        if _dot(w, x) <= scan:
            continue
        if _dot(g, x) < bstar:  # the whole box lies below B*
            scan = _dot(w, x)
            continue
        i = 0 if x[0] <= x[1] else 1  # walk the box's shorter side
        (gi, go), (wi, wo), cap = (g[i], g[1 - i]), (w[i], w[1 - i]), x[1 - i]
        room = bstar - 1
        for v in range(min(x[i], room // gi) + 1):
            rest = room // go
            value = wi * v + wo * (rest if rest < cap else cap)
            if value > scan:
                scan = value
            room -= gi
    return _report(red, gap, first, bstar, max(_dot(w, x) for x in lex), scan)


def gap_bruteforce(
    inst: KnapsackInstance, c: Sequence[RationalLike], b_max: int
) -> Fraction:
    """Max of IG_c(a, b) over representable b <= b_max, by direct sweep.

    One dynamic program in the original costs, no residue table, no reduced
    costs; meant as an independent check value for gap_exact, which it
    matches whenever b_max >= threshold + a_tau.
    """
    value = _value_table(inst, c, b_max)
    slope = min(ci / ai for ci, ai in zip(cost_vector(c, inst.n), inst.a))
    # t = 0 contributes IG = 0
    return max(v - slope * t for t, v in enumerate(value) if v is not None)
