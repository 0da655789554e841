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

For n = 3 gap_exact builds neither table.  Write g = (g_1, g_2) and
w = (w_1, w_2) for the generators and integer reduced costs, and L for the
lattice {v in Z^2 : g.v = 0 mod a_tau}, of index a_tau.  Each table keeps
per class its smallest point in a lexicographic order of linear keys:
(w.v, v_1 + v_2, v_2) for the reduced-cost table, (g.v, w.v, v_2) for the
packed one (ties there share the label, so the last key only makes the
order total).  Both orders are compatible with addition, so the kept
points form a down-closed staircase of a_tau lattice points, and in two
dimensions it is an L: the minimum-distance diagram of a double-loop
network (Fiol, Yebra, Alegre and Valero, IEEE Trans. Comput. C-36, 1987).
Let A be the smallest k >= 1 such that some (k, -t), t >= 0, lies in L
and is positive in the order, c the smallest such t, and B, d the same
with the axes swapped.  Then (A, 0), (0, B) and (A - d, B - c) lead, so
the staircase lies in [0, A) x [0, B) less [A - d, A) x [B - c, B).
Having a_tau points, it is that L exactly when

    A B - c d = a_tau,

which is checked (an AssertionError otherwise, as for a broken gcd).  Its
outer corners are (A - 1, B - c - 1) and (A - d - 1, B - 1), or
(A - 1, B - 1) alone when c d = 0.  (k, -t) lies in L only for k = e j,
e = gcd(g_2, a_tau), with t = s j mod M, M = a_tau / e and
s = g_1 (g_2 / e)^-1 mod M.  The smallest qualifying j is a strict record
low of s j mod M (were t_i <= t_j for some i < j, j - i would qualify
too), the record lows are the points of the ceiling continued fraction of
M / s that _frobenius3 walks (Roedseth), and the order test is monotone
along them, their differences being positive lattice vectors.  So A and c
take O(log a_tau) integer steps.  B*, tail_gap and gap are maxima of
nonnegative linear forms over a staircase, read off its outer corners.

ip_value, integrality_gap and gap_bruteforce read one direct dynamic
program over right hand sides (_value_table), off the residue table, so
gap_bruteforce stays an independent check value for gap_exact.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import math
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
from .group import _packed_maxima, _round_robin
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


def _axis(m: int, ga: int, gb: int, ahead) -> tuple[int, int]:
    """The smallest k >= 1 for which some t >= 0 has ga k = gb t (mod m)
    and ahead(k, t), and the smallest such t for that k (module docstring).

    k runs over the multiples e j of e = gcd(gb, m), each with the smallest
    solution t_j = s j mod M, M = m / e.  The answer is a strict record low
    of t_j, and those are the points of the ceiling continued fraction of
    M / s, which the loop walks as _frobenius3 does; a run of quotient 2 is
    an arithmetic progression, taken whole and bisected.
    """
    e = math.gcd(gb, m)
    big = m // e
    t = ga * pow(gb // e, -1, big) % big
    j_prev, t_prev, j = 0, big, 1
    while not ahead(e * j, t):
        q = -(-t_prev // t)
        if q > 2:
            j_prev, t_prev, j, t = j, t, q * j - j_prev, q * t - t_prev
            continue
        dj, dt = j - j_prev, t_prev - t
        lo, hi = 0, t // dt
        if ahead(e * (j + hi * dj), t - hi * dt):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ahead(e * (j + mid * dj), t - mid * dt):
                    hi = mid
                else:
                    lo = mid
            return e * (j + hi * dj), t - hi * dt
        j_prev, t_prev = j + (hi - 1) * dj, t - (hi - 1) * dt
        j, t = j + hi * dj, t - hi * dt
    return e * j, t


def _corners(m: int, g: Sequence[int], order) -> list[tuple[int, int]]:
    """Outer corners of the staircase of {x : g.x = 0 mod m} in the
    lexicographic order of the linear keys in order (module docstring)."""

    def ahead(x, y):
        for u in order:
            key = u[0] * x + u[1] * y
            if key:
                return key > 0
        return False

    a, c = _axis(m, g[0], g[1], lambda k, t: ahead(k, -t))
    b, d = _axis(m, g[1], g[0], lambda k, t: ahead(-t, k))
    if a * b - c * d != m:
        raise AssertionError("staircase area is not a_tau, lattice broken")
    if c * d:
        return [(a - 1, b - c - 1), (a - d - 1, b - 1)]
    return [(a - 1, b - 1)]


def _dot(u: Sequence[int], x: Sequence[int]) -> int:
    return u[0] * x[0] + u[1] * x[1]


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
    return GapReport(
        gap=Fraction(gap, red.scale),
        witness_b=first // k,
        threshold=bstar,
        tail_gap=Fraction(tail, red.scale),
        scan_gap=Fraction(scan, red.scale),
        tau=red.tau,
        generic=red.generic,
    )


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
    c, d come from a walk of a ceiling continued fraction (as in Roedseth's
    formula) and satisfy A B - c d = a_tau (module docstring).  B*,
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
    check_cells(m, f"residue table modulo {m}")
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
    return GapReport(
        gap=Fraction(gap, red.scale),
        witness_b=first,
        threshold=bstar,
        tail_gap=Fraction(max(_dot(w, x) for x in lex), red.scale),
        scan_gap=Fraction(scan, red.scale),
        tau=red.tau,
        generic=red.generic,
    )


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
