"""Residue-class minima, Frobenius numbers and covering radii.

Fix a position tau of the instance and write m = a_tau.  For nonnegative
weights w on the remaining coefficients, group_minima solves, for every
residue r modulo m,

    minima[r] = min { w.x : sum_j gen_j x_j = r (mod m), x integer >= 0 }

where gen runs over the coefficients other than a_tau in their original
order.  This is a single-source shortest path problem on the cyclic group
Z_m: arcs go from r to (r + gen_j) mod m at cost w_j, the source is residue
0, and coprimality of the instance guarantees every residue is reachable.

The table is filled by the round-robin algorithm of Boecker and Liptak ("A
fast and simple algorithm for the money changing problem", Algorithmica
2007), one generator at a time.  After a pass the table holds the optimum
over the generators taken so far, and the final table does not depend on the
order of the passes, so they run in ascending weight.  A pass is skipped
when its step s = gen_j mod m is 0, or when the table already reaches s at
a cost minima[s] <= w_j: every step r -> r + s of a path can be replaced
by the path to s found so far, translated to start at r, at no extra cost,
so the pass would change nothing.  For frobenius, where the weights are the
coefficients, this drops every coefficient the smaller ones represent.  A
pass with weight w splits Z_m into gcd(s, m) cycles p, p + s, p + 2s, ...
of length L = m / gcd(s, m), and on a cycle with old labels
v_0, ..., v_{L-1}

    new_k = min_t v_{k-t} + t w = min(P_k, P_{L-1} + L w) + k w,
    P_k   = min_{i <= k} (v_i - i w),

since t = k - i for i <= k and t = k - i + L otherwise; more than one lap
never helps because w >= 0.  Starting a cycle at its smallest label makes
the wrap term lose, and the recurrence becomes the running minimum
new_k = min(v_k, new_{k-1} + w).

Rational weights are scaled by the lcm of their denominators, so all
arithmetic is exact integer arithmetic, and the labels come back as
Fractions.  Two executions of the one recurrence are chosen from the input.
Tables of at least _NUMPY_MIN_MODULUS residues evaluate the prefix-minimum
form for all cycles at once on numpy int64 arrays, provided m * (max w + 1)
and m * m are below 2**60: every label is at most (m - 1) max w, the
unreached sentinel is m (max w + 1), a lap adds at most m max w, and the
cycle indices j // L + j s stay below m + m**2, so every intermediate stays
below 2**62 and int64 cannot overflow.
Smaller tables, and weights without that headroom, walk each cycle from its
minimum with Python integers: a numpy pass costs about ten fixed calls per
generator, which small tables never earn back.  numpy is imported by the
first table that takes the int64 execution, so a process that builds none
never loads it.

Taking the weights to be the coefficients themselves makes minima[r] the
smallest integer congruent to r mod m that is representable without using
a_tau, so b is representable exactly when b >= minima[b mod m] within its
class.  With tau a position of a minimal coefficient this yields the
Frobenius number

    g(a) = max_r minima[r] - a_tau

with the convention g = -1 when some coefficient equals 1 (every b >= 0 is
then representable, and the formula above lands on -1 by itself).  The
coefficients are validated integers already, so frobenius hands the arcs
(gen_j mod m, gen_j) to the kernel directly and builds no GroupTable.

For three coefficients frobenius builds no table.  Johnson's reduction
(Canad. J. Math. 12, 1960) divides out a common factor d of a pair,

    g(a_1, a_2, a_3) = d g(a_1 / d, a_2 / d, a_3) + (d - 1) a_3,

until the triple is pairwise coprime, and Roedseth's formula (J. reine
angew. Math. 301, 1978) then gives g from a continued fraction with ceiling
quotients in O(log min a) integer steps (_frobenius3 states it).  This is
the route Beihoffer, Hendry, Nijenhuis and Wagon ("Faster algorithms for
Frobenius numbers", Electron. J. Combin. 12, 2005) take for n = 3, keeping
table methods for n >= 4.  The guardrail checks the a_tau cells the table
would take all the same, so a cap refuses the same inputs for every n; the
tests check the n = 3 result against the table and the sieve.

Two identities connect g(a) to lattice covering radii of the simplex
conv{0, a_1 e_1, ..., a_n e_n} scaled by the corresponding lattice: the
radius against the full null lattice is g(a) + a_1 + ... + a_n, and against
the integer lattice of the last coordinate's complement it is g(a) + a_n.
`knapgap frobenius` reports both next to g(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Sequence

from .core import KnapsackInstance, RationalLike, as_fraction
from .errors import NegativeWeight, NoPointInBox, ValidationError
from .guardrail import check_cells

Weight = Fraction | int

# Smallest modulus that runs the recurrence on numpy int64 arrays.  Each
# generator costs numpy about ten fixed calls, which only pay off against
# the scalar loop from about this many residues on: per table at n = 3 and
# 5 the two break even between m = 128 and 192, the scalar loop is up to
# 1.9x faster at m = 16 and numpy 2.5x faster at m = 2000.  numpy is
# imported on the first such table, about 0.1 s once per process (and once
# per pool worker), so the cutoff sits at the top of the break-even range
# and sampling runs with small coefficients never load it.
_NUMPY_MIN_MODULUS = 192

# Bound on m * (max w + 1) and on m * m for the int64 execution (module
# docstring).
_INT64_HEADROOM = 1 << 60


def _normalize_weights(
    weights: Sequence[RationalLike], count: int
) -> tuple[Weight, ...]:
    """Coerce weights to Fractions, or plain ints when all are integral."""
    values: list[Weight] = list(weights)
    # Plain ints need no coercion; bools and everything else go through
    # as_fraction, which refuses what is not an exact rational.
    if not all(type(w) is int for w in values):
        values = [as_fraction(w, f"w[{i + 1}]") for i, w in enumerate(values)]
    if len(values) != count:
        raise ValidationError(
            f"expected {count} weights (one per coefficient other than tau), "
            f"got {len(values)}"
        )
    for i, w in enumerate(values):
        if w < 0:
            raise NegativeWeight(f"w[{i + 1}] = {w} < 0, weights must be nonnegative")
    if all(w.denominator == 1 for w in values):
        return tuple(int(w) for w in values)
    return tuple(values)


@dataclass(eq=False)
class GroupTable:
    """Per-residue minima table plus lazily derived witness data.

    Treat instances as immutable.  `minima[r]` is the exact optimum for
    residue r; `witness[r]` is one optimal solution vector (coordinates
    follow `positions`, the original indices other than tau); `load[r]` is
    the value sum_j gen_j * witness[r][j], an ordinary integer.

    Witnesses are reconstructed from the finished table by a breadth-first
    search from residue 0 over tight arcs, the arcs r -> r + gen_j with
    minima[(r + gen_j) mod m] == minima[r] + w_j.  Every residue is reached
    this way (drop one generator from an optimal solution and the remainder
    is optimal for its own class, hence tight), first discovery wins, and
    generators are scanned in order, so ties go to the smaller generator
    position.  Unlike a backward greedy walk this stays acyclic even when
    some weights are zero.

    The search keeps no separate queue: `order`, the residues in discovery
    order, is the FIFO itself, and the loop iterates over it while
    appending (a list iterator sees items appended during the loop).  Each
    generator gets a successor list, (r + gen_j) mod m for every r, built
    once, and pred_res doubles as the "seen" marker (the root holds itself
    until the search ends).  Residues are still dequeued in discovery order
    and arcs still scanned in generator order, so the tree, loads and
    witnesses are those of a deque-based search.
    """

    modulus: int
    tau: int
    positions: tuple[int, ...]
    generators: tuple[int, ...]
    weights: tuple[Weight, ...]
    minima: list[Weight]
    _tree: tuple[list[int], list[int], list[int], list[int]] | None = field(
        default=None, repr=False
    )

    def _tight_tree(self) -> tuple[list[int], list[int], list[int], list[int]]:
        if self._tree is not None:
            return self._tree
        m = self.modulus
        minima = self.minima
        pred_res = [-1] * m
        pred_gen = [-1] * m
        load = [0] * m
        pred_res[0] = 0
        order: list[int] = [0]
        # successor lists are rotations of one list, sharing its ints
        residues = list(range(m))
        arcs = []
        for k, (gen, w) in enumerate(zip(self.generators, self.weights)):
            step = gen % m
            arcs.append((k, residues[step:] + residues[:step], gen, w))
        for r in order:
            base = minima[r]
            here = load[r]
            for k, succ, gen, w in arcs:
                nr = succ[r]
                if pred_res[nr] < 0 and minima[nr] == base + w:
                    pred_res[nr] = r
                    pred_gen[nr] = k
                    load[nr] = here + gen
                    order.append(nr)
        pred_res[0] = -1
        if len(order) < m:
            raise AssertionError("tight-arc search failed to reach every residue")
        self._tree = (pred_res, pred_gen, load, order)
        return self._tree

    @property
    def load(self) -> list[int]:
        return self._tight_tree()[2]

    @property
    def witness(self) -> list[tuple[int, ...]]:
        """One optimal solution per residue, rebuilt on every access."""
        k = len(self.generators)
        check_cells(self.modulus * k, f"witness table of {self.modulus} rows")
        pred_res, pred_gen, _, order = self._tight_tree()
        out: list[tuple[int, ...] | None] = [None] * self.modulus
        out[0] = (0,) * k
        for r in order[1:]:
            prev = out[pred_res[r]]
            assert prev is not None
            j = pred_gen[r]
            out[r] = prev[:j] + (prev[j] + 1,) + prev[j + 1 :]
        return out  # type: ignore[return-value]


def _round_robin(m: int, arcs: list[tuple[int, int]]) -> list[int]:
    """Residue minima for integer arcs (step, w), 0 < step < m, w >= 0.

    Processes one generator at a time in ascending weight and skips a pass
    whose step the table already reaches at cost <= w (module docstring).
    Residues nobody reaches hold the sentinel m * (max w + 1), which exceeds
    every finite label (m - 1) * max w, so no pass is skipped against it; a
    cycle of sentinels maps to itself, so sentinels never grow.
    """
    arcs = sorted(arcs, key=itemgetter(1))
    unreached = m * (arcs[-1][1] + 1 if arcs else 1)
    if m >= _NUMPY_MIN_MODULUS and max(unreached, m * m) < _INT64_HEADROOM:
        import numpy as np

        labels = np.full(m, unreached, dtype=np.int64)
        labels[0] = 0
        index = np.arange(m, dtype=np.int64)
        for step, w in arcs:
            if labels[step] <= w:
                continue
            length = m // math.gcd(step, m)
            # Row p lists p, p + step, p + 2 step, ... since length * step
            # is 0 mod m.  index * step < m**2 fits by the guard above.
            cycles = ((index // length + index * step) % m).reshape(-1, length)
            offsets = np.arange(length, dtype=np.int64) * w
            prefix = np.minimum.accumulate(labels[cycles] - offsets, axis=1)
            wrap = prefix[:, -1:] + length * w
            labels[cycles] = np.minimum(prefix, wrap) + offsets
        minima = labels.tolist()
    else:
        minima = [unreached] * m
        minima[0] = 0
        for step, w in arcs:
            if minima[step] <= w:
                continue
            spread = math.gcd(step, m)
            for start in range(spread):
                # The cycle through start is the class start mod spread.
                members = minima[start::spread]
                label = min(members)
                r = start + members.index(label) * spread
                for _ in range(m // spread - 1):
                    r += step
                    if r >= m:
                        r -= m
                    label += w
                    old = minima[r]
                    if old < label:
                        label = old
                    else:
                        minima[r] = label
    if unreached in minima:
        raise AssertionError("residue graph not strongly reachable, gcd broken")
    return minima


def group_minima(
    inst: KnapsackInstance,
    tau: int,
    weights: Sequence[RationalLike],
    *,
    max_cells: int | None = None,
) -> GroupTable:
    """Exact residue-class minima modulo a_tau by the round-robin algorithm.

    tau is a 0-based position into the instance; weights are nonnegative
    rationals, one per remaining coefficient in original order.  Minima are
    ints when every weight is integral and Fractions otherwise.  The table
    has a_tau rows, which is checked against the cell guardrail before
    allocation.
    """
    if not 0 <= tau < inst.n:
        raise ValidationError(f"tau = {tau} out of range for n = {inst.n}")
    positions = tuple(j for j in range(inst.n) if j != tau)
    generators = tuple(inst.a[j] for j in positions)
    w = _normalize_weights(weights, inst.n - 1)
    m = inst.a[tau]
    check_cells(m, f"residue table modulo {m}", max_cells)

    # Scale rational weights to integers; labels come back divided by scale.
    scale = math.lcm(*(x.denominator for x in w))
    # Self-loop arcs (generator divisible by m) can never improve a label.
    arcs = [(g % m, int(wj * scale)) for g, wj in zip(generators, w) if g % m]
    minima: list[Weight] = _round_robin(m, arcs)
    if isinstance(w[0], Fraction):
        minima = [Fraction(v, scale) for v in minima]
    return GroupTable(
        modulus=m,
        tau=tau,
        positions=positions,
        generators=generators,
        weights=w,
        minima=minima,
    )


def tightness_threshold(table: GroupTable) -> int:
    """A B such that every b >= B inherits its class minimum.

    Lifting the witness of class b mod m by x_tau = (b - load) / a_tau gives
    a genuine solution as soon as b is at least the largest witness load, so
    past this threshold the per-b optimum and the residue table agree.  The
    threshold is valid but not always the smallest one: other optimal
    solutions may have smaller loads than the breadth-first witnesses.
    """
    return max(table.load)


def _frobenius3(a: tuple[int, int, int]) -> int:
    """Frobenius number of a coprime triple (module docstring).

    After the Johnson reduction, with a_1 < a_2 < a_3 pairwise coprime, let
    s_0 = a_3 a_2^-1 mod a_1 and expand a_1 / s_0 with ceiling quotients:
    s_-1 = a_1, p_-1 = 0, p_0 = 1, q = ceil(s_{i-1} / s_i),
    s_{i+1} = q s_i - s_{i-1}, p_{i+1} = q p_i - p_{i-1}.  For the first
    v >= -1 with a_2 s_{v+1} <= a_3 p_{v+1},

        g = -a_1 + a_2 (s_v - 1) + a_3 (p_{v+1} - 1)
            - min(a_2 s_{v+1}, a_3 p_v).

    v = -1 is the case a_3 = a_2 s_0 + k a_1 with k >= 0: a_3 is redundant
    and g = a_1 a_2 - a_1 - a_2.
    """
    # g(a) = scale * g(reduced) + shift.  Dividing a pair by its gcd leaves
    # it coprime and only lowers the other gcds, so one pass suffices.
    values = list(a)
    scale, shift = 1, 0
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        d = math.gcd(values[i], values[j])
        if d > 1:
            shift += scale * (d - 1) * values[k]
            scale *= d
            values[i] //= d
            values[j] //= d
    a1, a2, a3 = sorted(values)
    if a1 == 1:
        return shift - scale
    s_prev, s = a1, a3 * pow(a2, -1, a1) % a1
    p_prev, p = 0, 1
    while a2 * s > a3 * p:
        q = -(-s_prev // s)
        s_prev, s = s, q * s - s_prev
        p_prev, p = p, q * p - p_prev
    g = -a1 + a2 * (s_prev - 1) + a3 * (p - 1) - min(a2 * s, a3 * p_prev)
    return scale * g + shift


def frobenius(inst: KnapsackInstance, *, max_cells: int | None = None) -> int:
    """Frobenius number: the largest integer not representable as a.x.

    Returns -1 when some coefficient equals 1 and every b >= 0 is
    representable.  Both routes first check the m = min(a) cells of the
    residue table modulo m against the guardrail.  Three coefficients then
    take Roedseth's formula after Johnson's reduction.  Any other n runs
    _round_robin on the arcs (a_j mod m, a_j), the coefficients being their
    own weights; its passes go in ascending coefficient and skip every
    coefficient that smaller ones already represent (module docstring).
    """
    m = inst.min_entry
    check_cells(m, f"residue table modulo {m}", max_cells)
    if inst.n == 3:
        return _frobenius3(inst.a)
    return max(_round_robin(m, [(g % m, g) for g in inst.a if g % m])) - m


def frobenius_sieve_oracle(inst: KnapsackInstance) -> int:
    """Frobenius number by a representability sieve, no shortest paths.

    Marks every representable integer up to the classical product bound
    min(a) * max(a) - min(a) - max(a); nothing above that bound can be
    missed.  The marking runs on a big-integer bitset: closing the set under
    adding k * a_i for all k only needs the doubled shifts a_i, 2 a_i,
    4 a_i, ... because any multiple is a sum of distinct such pieces.
    Deliberately independent of the residue-table route so the two can
    corroborate each other.
    """
    lo, hi = inst.min_entry, inst.norm_inf
    bound = lo * hi - lo - hi
    if bound < 0:
        return -1
    check_cells(bound + 1, f"representability sieve up to {bound}")
    full = (1 << (bound + 1)) - 1
    mask = 1
    for coin in inst.a:
        shift = coin
        while shift <= bound:
            mask |= mask << shift
            mask &= full
            shift <<= 1
    missing = ~mask & full
    return missing.bit_length() - 1 if missing else -1


def group_min_bruteforce(
    inst: KnapsackInstance,
    tau: int,
    weights: Sequence[RationalLike],
    r: int,
    radius: int,
) -> Fraction:
    """Exhaustive check value for group_minima on one residue class.

    Enumerates the full box 0..radius in every coordinate and minimizes the
    weighted sum over points congruent to r.  Raises NoPointInBox when the
    box misses the class entirely (radius too small).
    """
    if not 0 <= tau < inst.n:
        raise ValidationError(f"tau = {tau} out of range for n = {inst.n}")
    if radius < 0:
        raise ValidationError(f"radius = {radius} must be nonnegative")
    m = inst.a[tau]
    if not 0 <= r < m:
        raise ValidationError(f"residue r = {r} out of range modulo {m}")
    positions = tuple(j for j in range(inst.n) if j != tau)
    generators = tuple(inst.a[j] for j in positions)
    w = _normalize_weights(weights, inst.n - 1)
    check_cells((radius + 1) ** len(generators), "brute-force enumeration box")
    best: Weight | None = None
    for x in product(range(radius + 1), repeat=len(generators)):
        if sum(g * xi for g, xi in zip(generators, x)) % m != r:
            continue
        value = sum(wj * xi for wj, xi in zip(w, x))
        if best is None or value < best:
            best = value
    if best is None:
        raise NoPointInBox(
            f"no point of residue class {r} mod {m} in box 0..{radius}"
        )
    return Fraction(best)
