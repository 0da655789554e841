"""The n = 3 staircase: one walk, its corners, the Frobenius number and the
exact gap read off it.

Write g = (g_1, g_2) for two generators and L = {v in Z^2 : g.v = 0 mod m},
of index m, and fix a lexicographic order of linear keys on Z^2, total and
compatible with addition, in which every nonzero v >= 0 is positive.  The
smallest point of N^2 in each class of Z^2 / L is kept.  The m kept points
are down-closed (were y <= x not kept, some y - l >= 0 with l in L positive
would beat y, and x - l would beat x): in two dimensions an L, the
minimum-distance diagram of a double-loop network (Fiol, Yebra, Alegre
and Valero, IEEE Trans. Comput. C-36, 1987).  (k, -t) lies in L only for
k = e j, e = gcd(g_2, m), and t = s j mod M, M = m / e,
s = g_1 (g_2 / e)^-1 mod M, so the smallest k >= 1 with a positive
(k, -t) in L sits at a strict record low t_j of s j mod M.  _axis walks
the record lows, the points of the ceiling continued fraction of M / s,
along which the order test is monotone (their differences, as (k, -t),
are nonnegative), and bisects each run of quotient 2, an arithmetic
progression, in O(log m) steps.  The walk tests one linear form u at a
point (k, -t), u_0 k > u_1 t, inline.  An order of several keys is packed
into one form, as the residue kernel packs its lexicographic keys: with
radix R = 2 m max(|u_0| + |u_1|) + 1 over the keys, every key at a point
the walk tests (0 <= k, t <= m) has size at most (R - 1) / 2, so the
packed form is positive exactly when the first nonzero key is, and a
point whose keys all vanish is not ahead.  Let (A, c) = (e j, t_j) be the
first positive one and (d, B) = (e j', t_j') the one before it (j' = 0,
t_j' = M at the start), which is not.  The walk keeps the determinant
j t_j' - t_j j' = M, so the positive vectors u = (A, -c) and v = (-d, B)
have A B - c d = m: consecutive record lows are a basis of L.
(A, 0) = u + (0, c), (0, B) = v + (d, 0) and (A - d, B - c) = u + v are
each beaten in their class, so the staircase lies in the m points of
[0, A) x [0, B) less [A - d, A) x [B - c, B), and is that L; for the
order of loads this is Roedseth's theorem (J. reine angew. Math. 301,
1978).  A linear form nonnegative on N^2 peaks on it at an outer corner,
(A - 1, B - c - 1) or (A - d - 1, B - 1), or (A - 1, B - 1) when c d = 0.

frobenius takes m = min(a), the other two coefficients as g and the order
(g.v, v_2), which the form g.v alone tests: a point (k, -t), k >= 1, on
which g.v vanishes has t > 0, so it is not ahead in either.  The
staircase then holds the smallest load of each class, so

    g(a) = g_1 (A - 1) + g_2 (B - 1) - min(g_2 c, g_1 d) - m,

the largest load at an outer corner less m.

gap reads gap_exact's fields for three coefficients, with m = a_tau, g
the two generators and w their integer reduced costs.  Per class of L,
each of gap_exact's residue tables keeps its smallest point in a
lexicographic order of linear keys: (w.v, v_1 + v_2, v_2) for the
reduced-cost table, (g.v, w.v, v_2) for the packed one (ties there share
the label).  So each is a staircase that corners reads off one walk, and
B*, tail_gap and gap are maxima of nonnegative linear forms over its
outer corners.  scan_gap is the largest w.v over the packed staircase's
points with g.v < B*; the staircase is the union of its corners' boxes,
and _scan walks the shorter side of each box, at most sqrt(m) steps.
Every value is an integer; gap_exact divides the costs by
basis_reduction's scale.  Nothing here imports the residue kernel or
numpy: the callers count the m cells a table would take against the
guardrail.
"""

from __future__ import annotations

import math
from typing import Sequence


def _axis(m: int, ga: int, gb: int, u0: int, u1: int) -> tuple[int, int, int, int]:
    """(A, c, d, B) from one walk of the record lows of the lattice
    {(x, y) : ga x + gb y = 0 mod m} (module docstring).  (A, c) is the
    first record low (k, t) at which the linear form u0 k - u1 t is
    positive, that is (A, -c) is positive, and (d, B) the one before it,
    at which the form is not.  So A is the smallest k >= 1 for which some
    t >= 0 has ga k = gb t (mod m) and u0 k > u1 t, c the smallest such t,
    and (A, -c), (-d, B) are a basis of the lattice.

    k runs over the multiples e j of e = gcd(gb, m), each with the smallest
    solution t_j = s j mod M, M = m / e.  The loop walks the ceiling
    continued fraction of M / s; a run of quotient 2 is an arithmetic
    progression, taken whole and bisected, and the predecessor of an
    answer inside it is the point one step back.  The recurrences are
    linear, so the walk carries k = e j itself.  Every point it tests has
    0 <= k <= m and 0 <= t <= m, which _pack relies on.
    """
    e = math.gcd(gb, m)
    big = m // e
    t = ga * pow(gb // e, -1, big) % big
    k_prev, t_prev, k = 0, big, e
    while u0 * k <= u1 * t:
        q = -(-t_prev // t)
        if q > 2:
            k_prev, t_prev, k, t = k, t, q * k - k_prev, q * t - t_prev
            continue
        dk, dt = k - k_prev, t_prev - t
        lo, hi = 0, t // dt
        if u0 * (k + hi * dk) > u1 * (t - hi * dt):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if u0 * (k + mid * dk) > u1 * (t - mid * dt):
                    hi = mid
                else:
                    lo = mid
            return k + hi * dk, t - hi * dt, k + lo * dk, t - lo * dt
        k_prev, t_prev = k + (hi - 1) * dk, t - (hi - 1) * dt
        k, t = k + hi * dk, t - hi * dt
    return k, t, k_prev, t_prev


def _pack(m: int, order) -> tuple[int, int]:
    """The lexicographic order of the linear keys in order as one linear
    form (u_0, u_1), packed with radix R = 2 m max(|u_0| + |u_1|) + 1 over
    the keys: exact at every point (k, -t), 0 <= k, t <= m, that _axis
    tests (module docstring)."""
    radix = 2 * m * max(abs(u0) + abs(u1) for u0, u1 in order) + 1
    p0 = p1 = 0
    for u0, u1 in order:
        p0, p1 = p0 * radix + u0, p1 * radix + u1
    return p0, p1


def corners(m: int, g: Sequence[int], order) -> list[tuple[int, int]]:
    """Outer corners of the staircase of {x : g.x = 0 mod m} in the
    lexicographic order of the linear keys in order (module docstring),
    which one _axis walk tests as the packed form _pack(m, order).  The
    area check catches a wrong predecessor from the walk."""
    a, c, d, b = _axis(m, g[0], g[1], *_pack(m, order))
    if a * b - c * d != m:
        raise AssertionError("staircase area is not a_tau, lattice broken")
    if c * d:
        return [(a - 1, b - c - 1), (a - d - 1, b - 1)]
    return [(a - 1, b - 1)]


def _dot(u: Sequence[int], x: Sequence[int]) -> int:
    return u[0] * x[0] + u[1] * x[1]


def frobenius(a: tuple[int, int, int], m: int) -> int:
    """g(a) for three validated coefficients a with m = min(a), by one _axis
    walk on the form of the other two (module docstring).  The sampler
    reaches it once per record, so it builds no corner list."""
    a0, a1, a2 = a
    g1, g2 = (a1, a2) if a0 == m else (a0, a2) if a1 == m else (a0, a1)
    A, c, d, B = _axis(m, g1, g2, g1, g2)
    return g1 * (A - 1) + g2 * (B - 1) - min(g2 * c, g1 * d) - m


def _scan(packed, g: Sequence[int], w: Sequence[int], limit: int) -> int:
    """The largest w.v over the points v of the staircase with outer
    corners packed whose load g.v is below limit, 0 when none costs more
    (module docstring).  A box no costlier than the best so far is
    skipped, a box wholly below limit gives its corner, and any other box
    is walked along its shorter side."""
    scan = 0
    for x in packed:
        if _dot(w, x) <= scan:
            continue
        if _dot(g, x) < limit:  # the whole box lies below limit
            scan = _dot(w, x)
            continue
        i = 0 if x[0] <= x[1] else 1  # walk the box's shorter side
        (gi, go), (wi, wo), cap = (g[i], g[1 - i]), (w[i], w[1 - i]), x[1 - i]
        room = limit - 1
        for v in range(min(x[i], room // gi) + 1):
            rest = room // go
            value = wi * v + wo * (rest if rest < cap else cap)
            if value > scan:
                scan = value
            room -= gi
    return scan


def gap(m: int, g: Sequence[int], w: Sequence[int]) -> tuple[int, int, int, int, int]:
    """gap_exact's fields for the pivot m = a_tau, the two generators g and
    their integer reduced costs w, in the order gap._report takes them:
    the gap, witness_b, B*, tail_gap and scan_gap, the costs scaled by
    basis_reduction's scale.  Two walks give the two staircases (module
    docstring); witness_b is the smallest load of an attaining corner with
    its zero-cost coordinates cleared."""
    lex = corners(m, g, (w, (1, 1), (0, 1)))
    packed = corners(m, g, (g, w, (0, 1)))
    bstar = max(_dot(g, x) for x in lex)
    gap = max(_dot(w, x) for x in packed)
    # zero-cost coordinates of an attaining corner only add load
    first = min(
        _dot(g, [xj if wj else 0 for xj, wj in zip(x, w)])
        for x in packed
        if _dot(w, x) == gap
    )
    return gap, first, bstar, max(_dot(w, x) for x in lex), _scan(packed, g, w, bstar)
