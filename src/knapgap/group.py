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
new_k = min(v_k, new_{k-1} + w).  The first pass, which always runs, starts
from residue 0 alone: it is one scatter, labels[t s mod m] = t w for t < L,
and leaves the other cycles unreached.

Rational weights are scaled by the lcm of their denominators, so all
arithmetic is exact integer arithmetic, and the minima come back as
Fractions.  Two executions of the one recurrence are chosen from the input.
Tables of at least _NUMPY_MIN_MODULUS residues evaluate the prefix-minimum
form for all cycles at once on numpy int64 arrays, provided
U = m * (max w + 1) and m * m are below 2**62.  Every label is at most
(m - 1) max w < U and the unreached sentinel is U, so a label minus its
offset t w (t < L <= m) lies in (-U, U], and the products t s behind the
cycle indices stay below m**2.  The largest intermediate is the lap term
P_{L-1} + L w, at most U + m max w < 2 U < 2**63, and every other one is
at most U, so int64 cannot overflow.  The readouts stay below 2**62 too:
the loads stay on int64 only when m max gen is below it as well, and
gap.py's limit B* K is below m times its table's largest key.  A pass
lays the cycles out as rows: the cycle through 0 is t s mod m for t < L,
which lists the multiples of gcd(s, m) below m, and the cycle through
p < gcd(s, m) is that row plus p, so no other row needs a reduction.
Smaller tables, and weights without that headroom, walk each cycle from
its minimum with Python integers: a numpy pass costs about ten fixed calls
per generator, which small tables never earn back.  The walk steps
r -> r + s with one comparison and one addition or subtraction, and
starts the cycle through 0 at residue 0 without a search, since its
label 0 is the least of all.  numpy is imported by the first table that
takes the int64 execution, so a process that builds none never loads it.

group_minima gets the witnesses (GroupTable) from the same kernel run.
Numbering the generators 1..k, arc j carries the key (w_j, 1, [j >= 2],
..., [j >= k]) instead of w_j, so a solution x sums to (w.x, c_1, ...,
c_k) with suffix counts c_i = x_i + ... + x_k, and the keys are packed
with radix m:

    key_j = w_j m^k + sum_{i <= j} m^(k-i).

The lexicographically smallest solution x* uses fewer than m generators:
any m of them contain a nonempty subsum divisible by m, whose removal keeps
the class and, x* being optimal and the weights nonnegative, the cost,
while lowering c_1.  So every digit of x* is below m, a solution that is
lexicographically larger has a larger packed sum whatever its digits, and
the kernel's label for r is x*'s packed sum.  GroupTable decodes from
the labels on every access: minima[r] is the label // m^k (so the largest
label carries the largest minimum), the digits give x_i = c_i - c_{i+1},
and load = sum_j x_j gen_j.  On the Python execution the load is appended
as the lowest component, with radix m max gen: the digits fix it, so the
order is unchanged, and the loads cost one % per residue.  On the numpy
execution the loads (and so B*) take one remainder rest = label mod m^k
and k - 1 floor divisions q_i = rest // m^(k-i), which hold the first i
digits, so c_i = q_i - m q_{i-1}; the loads are summed as
sum_i c_i (gen_i - gen_{i-1}) while the digits come, and every partial sum
lies in [0, m max gen).  The witnesses stack the k digit arrays instead.
Each column has one decoder, which takes any slice of the labels, and
the witness table is read column by column, a block of labels at a time,
so no caller holds more of it than it writes.
The numpy execution runs only when the packed keys themselves pass the
int64 guard: a table whose keys break it takes the Python execution even
where its weights alone would fit.

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
Its body after the guardrail check is _frobenius, which takes the plain
coefficient tuple; the sampler calls it on drawn tuples, having compared
m with the cap it reads once per range.

For three coefficients frobenius builds no table.  Write g = (g_1, g_2)
for two generators and L = {v in Z^2 : g.v = 0 mod m}, of index m, and
fix a lexicographic order of linear keys on Z^2, total and compatible
with addition, in which every nonzero v >= 0 is positive.  The smallest
point of N^2 in each class of Z^2 / L is kept.  The m kept points are
down-closed (were y <= x not kept, some y - l >= 0 with l in L positive
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
into one form, as the kernel packs its lexicographic keys: with radix
R = 2 m max(|u_0| + |u_1|) + 1 over the keys, every key at a point the
walk tests (0 <= k, t <= m) has size at most (R - 1) / 2, so the packed
form is positive exactly when the first nonzero key is, and a point whose
keys all vanish is not ahead.  Let (A, c) = (e j, t_j) be the first
positive one and (d, B) = (e j', t_j') the one before it (j' = 0,
t_j' = M at the start), which is not.  The walk keeps the determinant
j t_j' - t_j j' = M, so the positive vectors u = (A, -c) and v = (-d, B)
have A B - c d = m: consecutive record lows are a basis of L.
(A, 0) = u + (0, c), (0, B) = v + (d, 0) and (A - d, B - c) = u + v are
each beaten in their class, so the staircase lies in the m points of
[0, A) x [0, B) less [A - d, A) x [B - c, B), and is that L; for the
order of loads this is Roedseth's theorem (J. reine angew. Math. 301,
1978).  A linear form nonnegative on N^2 peaks on it at an outer corner,
(A - 1, B - c - 1) or (A - d - 1, B - 1), or (A - 1, B - 1) when c d = 0.
With m = min(a), the other two coefficients as g and the order
(g.v, v_2), the staircase holds the smallest load of each class, so

    g(a) = g_1 (A - 1) + g_2 (B - 1) - min(g_2 c, g_1 d) - m,

the largest load at an outer corner less m.  The guardrail checks the m
cells the table would take all the same, so a cap refuses the same inputs
for every n.

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
from itertools import chain, product
from operator import itemgetter
from typing import Iterator, Sequence

from .core import KnapsackInstance, RationalLike, as_fraction, check_int
from .errors import NegativeWeight, NoPointInBox, ValidationError
from .guardrail import check_cells

Weight = Fraction | int

# Smallest modulus that runs the recurrence on numpy int64 arrays.  Each
# generator costs numpy about ten fixed calls, which only pay off against
# the scalar loop from about this many residues on: per table at n = 3 and
# 5 the two break even between m = 128 and 192, the scalar loop is up to
# 1.9x faster at m = 16 and numpy 2.5x faster at m = 2000.  numpy is
# imported on the first such table, about 0.1 s once per process (a forked
# child that needs it first pays it too), so the cutoff sits at the top of
# the break-even range and sampling runs with small coefficients never load
# it.
_NUMPY_MIN_MODULUS = 192

# Bound on m * (max w + 1) and on m * m for the int64 execution (module
# docstring).
_INT64_HEADROOM = 1 << 62

# Labels GroupTable._column decodes at once.  From 64 to 16384 labels a
# block, `knapgap group --format json` wrote a 100003-row numpy table and a
# 200003-row Python one in equal time within noise and at equal peak
# (best of 9 and of 5 runs, 2-vCPU host, CPython 3.11); 65536 raised the
# numpy table's peak by 3 MiB.
_BLOCK = 4096


def _normalize_weights(
    weights: Sequence[RationalLike], count: int
) -> tuple[Weight, ...]:
    """Coerce weights to Fractions, or plain ints when all are integral."""
    values: list[Weight] = list(weights)
    # Plain ints need no coercion; bools and everything else go through
    # as_fraction, which refuses what is not an exact rational.
    ints = all(type(w) is int for w in values)
    if not ints:
        values = [as_fraction(w, f"w[{i + 1}]") for i, w in enumerate(values)]
    if len(values) != count:
        raise ValidationError(
            f"expected {count} weights (one per coefficient other than tau), "
            f"got {len(values)}"
        )
    for i, w in enumerate(values):
        if w < 0:
            raise NegativeWeight(f"w[{i + 1}] = {w} < 0, weights must be nonnegative")
    if not ints and all(w.denominator == 1 for w in values):
        return tuple(w.numerator for w in values)
    return tuple(values)


@dataclass(eq=False)
class GroupTable:
    """Per-residue minima table plus the witness data decoded from it.

    Treat instances as immutable.  `minima[r]` is the exact optimum for
    residue r; `witness[r]` is one optimal solution vector (coordinates
    follow `positions`, the original indices other than tau); `load[r]` is
    the value sum_j gen_j * witness[r][j], an ordinary integer.

    The witness of class r is its optimal solution with the fewest
    generators, ties going to the most copies of generator 1, then of
    generator 2, and so on: the lexicographic minimum of the counts
    (w.x, c_1, ..., c_k) with c_i = x_i + ... + x_k (generators numbered
    1..k in order).  This is the solution a breadth-first search from
    residue 0 over the tight arcs (minima[r + gen_j] = minima[r] + w_j)
    reaches first when it scans generators in order.  Every ordering of an
    optimal solution is a tight path, since a sub-solution of an optimal
    solution is optimal, so the search discovers r at depth c_1 of the
    fewest-generator solutions, and its discovery order is lexicographic
    in the arc sequence, whose smallest ordering of x is the sorted one;
    comparing sorted sequences of equal length favours more copies of
    generator 1, then of generator 2, ...  Zero weights need no care.

    group_minima keeps the labels of its kernel run (module docstring):
    `_labels` carries the scaled cost w.x, then c_1, ..., c_k as radix-m
    digits, and on the Python execution `_load_radix` is the radix of the
    load, their lowest component (0 on the numpy execution).  Minima, loads
    and witnesses are decoded from them on every access, by this class
    alone, each column by its own decoder on any slice of `_labels`:
    `_costs`, `_loads` and `_witnesses`.  `_column` is the block reader: it
    checks the m * k cells of the witness table against the guardrail when
    called, then yields one decoder's values for residues 0..rows-1,
    decoding _BLOCK labels at a time.  `witness` and `knapgap group` read
    through it; `load` and `tightness_threshold` decode every load in one
    call, which on the numpy execution is one int64 array and on the Python
    execution yields the loads one at a time, so the threshold holds none.
    """

    modulus: int
    tau: int
    positions: tuple[int, ...]
    generators: tuple[int, ...]
    weights: tuple[Weight, ...]
    _labels: object = field(repr=False)
    _load_radix: int = field(repr=False)
    _unit: int = field(repr=False)  # label // _unit: the minimum, scaled
    _scale: int = field(repr=False)  # lcm of the weight denominators

    def _costs(self, labels) -> list[Weight]:
        """The minima that labels (a slice of _labels) carry."""
        unit = self._unit
        if isinstance(labels, list):
            values = [v // unit for v in labels]
        else:
            values = (labels // unit).tolist()
        # the weights are ints exactly when their scale is 1
        if self._scale > 1:
            return [Fraction(v, self._scale) for v in values]
        return values

    @property
    def minima(self) -> list[Weight]:
        """The optimum per residue."""
        return self._costs(self._labels)

    @property
    def largest_minimum(self) -> Weight:
        """max(minima), read off the largest label, which carries it."""
        return self._costs([_largest(self._labels)])[0]

    def _loads(self, labels):
        """The loads that labels (a slice of _labels) carry: one at a time as
        they are read or, on the numpy execution, an int64 array (object
        when the guard below fails)."""
        if self._load_radix:
            return (v % self._load_radix for v in labels)
        m, gens = self.modulus, self.generators
        k = len(gens)
        rest = labels % m**k
        # sum_j gen_j x_j = sum_i c_i (gen_i - gen_{i-1}); every partial
        # sum lies in [0, m * max gen), so int64 holds it below the guard
        if m * max(gens) >= _INT64_HEADROOM:
            rest = rest.astype(object)
        # q_i = rest // m^(k-i) holds the digits c_1..c_i, so
        # c_i = q_i - m q_{i-1}
        loads = above = 0
        for i, (g, h) in enumerate(zip(gens, (0,) + gens), 1):
            q = rest // m ** (k - i) if i < k else rest
            loads = loads + (q - m * above) * (g - h)
            above = q
        return loads

    def _witnesses(self, labels) -> list[tuple[int, ...]]:
        """The witnesses that labels (a slice of _labels) carry."""
        m, k = self.modulus, len(self.generators)
        if not self._load_radix:
            import numpy as np

            counts = np.array([labels // m**p % m for p in reversed(range(k))])
            x = counts.copy()
            x[:-1] -= counts[1:]  # x_i = c_i - c_{i+1}
            return list(map(tuple, x.T.tolist()))
        out = []
        for label in labels:
            rest, above, x = label // self._load_radix, 0, []
            for _ in range(k):  # c_k first
                rest, c = divmod(rest, m)
                x.append(c - above)
                above = c
            out.append(tuple(reversed(x)))
        return out

    @property
    def load(self) -> list[int]:
        return _tolist(self._loads(self._labels))

    @property
    def witness(self) -> list[tuple[int, ...]]:
        """One optimal solution per residue."""
        return list(self._column(self._witnesses, self.modulus))

    def _column(self, decode, rows: int) -> Iterator:
        """The values of decode (_costs, _loads or _witnesses) for residues
        0..rows-1 as Python values, decoded _BLOCK labels at a time as they
        are read.  The guardrail counts the whole witness table, m * k
        cells, here at the call, before any row is decoded."""
        m = self.modulus
        check_cells(m * len(self.generators), f"witness table of {m} rows")
        blocks = (
            self._labels[start : min(start + _BLOCK, rows)]
            for start in range(0, rows, _BLOCK)
        )
        return chain.from_iterable(_tolist(decode(block)) for block in blocks)


def _tolist(values) -> list:
    """A decoded column as a list of Python values."""
    if isinstance(values, Iterator):
        return list(values)
    return values if isinstance(values, list) else values.tolist()


def _on_numpy(m: int, arcs: list[tuple[int, int]]) -> bool:
    """Whether _round_robin(m, arcs) takes the numpy int64 execution
    (module docstring)."""
    if m < _NUMPY_MIN_MODULUS:
        return False
    top = max((w for _, w in arcs), default=0)
    return max(m * (top + 1), m * m) < _INT64_HEADROOM


def _largest(values) -> int:
    """Largest entry of a _round_robin result or of its decoded loads, as a
    Python int."""
    if isinstance(values, (list, Iterator)):
        return max(values)
    import numpy as np

    return int(np.maximum.reduce(values))


def _packed_maxima(labels, k: int, limit: int) -> tuple[int, int, int]:
    """Readout of a _round_robin result whose labels are hi * k + lo with
    0 <= lo < k: the largest lo, the smallest label attaining it, and the
    largest lo among the labels below limit (0 when there is none), as
    Python ints.  On the numpy execution limit must fit int64."""
    if isinstance(labels, list):
        top, first, below = -1, 0, 0
        for label in labels:
            lo = label % k
            if lo > top or (lo == top and label < first):
                top, first = lo, label
            if lo > below and label < limit:
                below = lo
        return top, first, below
    import numpy as np

    lows = labels % k
    top = int(np.maximum.reduce(lows))
    first = int(np.minimum.reduce(labels[lows == top]))
    return top, first, int(np.maximum.reduce(lows[labels < limit], initial=0))


def _cycle_pass(labels, index, step: int, w: int) -> None:
    """One numpy pass: relax every arc r -> r + step of weight w in place."""
    import numpy as np

    m = len(labels)
    spread = math.gcd(step, m)
    length = m // spread
    # The cycle through 0 lists t step mod m for t < length, the multiples
    # of spread below m, so row p of cycles + p is the cycle through p and
    # needs no reduction.  index * step < m**2 fits by the guard.
    cycles = index[:length] * step % m
    if spread > 1:
        cycles = cycles + index[:spread, None]
    offsets = index[:length] * w
    values = labels[cycles]
    values -= offsets
    np.minimum.accumulate(values, axis=-1, out=values)
    np.minimum(values, values[..., -1:] + length * w, out=values)
    values += offsets
    labels[cycles] = values


def _round_robin(m: int, arcs: list[tuple[int, int]]):
    """Residue minima for integer arcs (step, w), 0 < step < m, w >= 0.

    Processes one generator at a time in ascending weight and skips a pass
    whose step the table already reaches at cost <= w (module docstring).
    Residues nobody reaches hold the sentinel m * (max w + 1), which exceeds
    every finite label (m - 1) * max w, so no pass is skipped against it; a
    cycle of sentinels maps to itself, so sentinels never grow.  Returns
    the labels as an int64 array when the numpy execution runs, else as a
    list of ints.
    """
    arcs = sorted(arcs, key=itemgetter(1))
    top = arcs[-1][1] if arcs else 0
    unreached = m * (top + 1)
    step, w = arcs[0] if arcs else (0, 0)
    length = m // math.gcd(step, m)
    if _on_numpy(m, arcs):
        import numpy as np

        minima = np.empty(m, dtype=np.int64)
        minima.fill(unreached)
        index = np.arange(m, dtype=np.int64)
        minima[index[:length] * step % m] = index[:length] * w
        for step, w in arcs[1:]:
            if minima[step] > w:
                _cycle_pass(minima, index, step, w)
    else:
        # r + step wraps by subtracting back = m - step
        minima = [unreached] * m
        r, back = 0, m - step
        for t in range(length):
            minima[r] = t * w
            r = r - back if r >= back else r + step
        for step, w in arcs[1:]:
            if minima[step] <= w:
                continue
            spread = math.gcd(step, m)
            back, laps = m - step, range(m // spread - 1)
            for start in range(spread):
                # The cycle through start is the class start mod spread.
                # Residue 0 keeps label 0, the least of all, so the cycle
                # through 0 starts there without a search.
                if start:
                    members = minima[start::spread]
                    label = min(members)
                    r = start + members.index(label) * spread
                else:
                    r = label = 0
                for _ in laps:
                    r = r - back if r >= back else r + step
                    label += w
                    old = minima[r]
                    if old < label:
                        label = old
                    else:
                        minima[r] = label
    if unreached in minima:
        raise AssertionError("residue graph not strongly reachable, gcd broken")
    return minima


def _digit_keys(m: int, k: int) -> list[int]:
    """Per generator, the count digits packed with radix m.

    Digit i of generator j (both 0-based) is 1 when i <= j: it counts
    towards c_{i+1} = x_{i+1} + ... + x_k in the class docstring's terms.
    """
    return [sum(m ** (k - 1 - i) for i in range(j + 1)) for j in range(k)]


def _pivot(inst: KnapsackInstance, tau: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions other than tau and their coefficients, once tau is
    checked to be a 0-based position of inst."""
    check_int(tau, "tau")
    if not 0 <= tau < inst.n:
        raise ValidationError(f"tau = {tau} out of range for n = {inst.n}")
    positions = tuple(j for j in range(inst.n) if j != tau)
    return positions, tuple(inst.a[j] for j in positions)


def _check_table(m: int) -> None:
    """Count a residue table's m cells against the guardrail."""
    check_cells(m, f"residue table modulo {m}")


def group_minima(
    inst: KnapsackInstance, tau: int, weights: Sequence[RationalLike]
) -> GroupTable:
    """Exact residue-class minima modulo a_tau by the round-robin algorithm.

    tau is a 0-based position into the instance; weights are nonnegative
    rationals, one per remaining coefficient in original order.  Minima are
    ints when every weight is integral and Fractions otherwise.  The table
    has a_tau rows, which is checked against the cell guardrail before
    allocation.  One kernel run on lexicographic keys gives the minima and
    the witness counts together (module docstring).
    """
    positions, generators = _pivot(inst, tau)
    w = _normalize_weights(weights, inst.n - 1)
    m = inst.a[tau]
    _check_table(m)

    # Scale rational weights to integers; minima divides by scale again.
    scale = math.lcm(*(x.denominator for x in w))
    k = len(generators)
    keys = [int(wj * scale) * m**k + d for wj, d in zip(w, _digit_keys(m, k))]
    # Self-loop arcs (generator divisible by m) can never improve a label,
    # and the execution is chosen on the arcs _round_robin gets.
    live = [(g, key) for g, key in zip(generators, keys) if g % m]
    arcs = [(g % m, key) for g, key in live]
    if _on_numpy(m, arcs):
        radix = 0
        labels = _round_robin(m, arcs)
    else:
        # Python execution: the load rides as the lowest component; a witness
        # has fewer than m generators, so its load is below radix.  These
        # keys are larger still, so _round_robin walks them too.
        radix = m * max(generators)
        labels = _round_robin(m, [(g % m, key * radix + g) for g, key in live])
    return GroupTable(
        modulus=m,
        tau=tau,
        positions=positions,
        generators=generators,
        weights=w,
        _labels=labels,
        _load_radix=radix,
        _unit=m**k * (radix or 1),
        _scale=scale,
    )


def tightness_threshold(table: GroupTable) -> int:
    """A B such that every b >= B inherits its class minimum.

    Lifting the witness of class b mod m by x_tau = (b - load) / a_tau gives
    a genuine solution as soon as b is at least the largest witness load, so
    past this threshold the per-b optimum and the residue table agree.  The
    threshold is valid but not always the smallest one: other optimal
    solutions may have smaller loads than the fewest-generator witnesses.
    """
    return _largest(table._loads(table._labels))


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


def _corners(m: int, g: Sequence[int], order) -> list[tuple[int, int]]:
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


def _frobenius(a: tuple[int, ...], m: int) -> int:
    """g(a) for validated coefficients a with m = min(a), once the caller
    has counted the table's m cells (_check_table): one _axis walk for
    three coefficients, otherwise the kernel on the arcs (a_j mod m, a_j)
    (module docstring)."""
    if len(a) == 3:
        a0, a1, a2 = a
        g1, g2 = (a1, a2) if a0 == m else (a0, a2) if a1 == m else (a0, a1)
        A, c, d, B = _axis(m, g1, g2, g1, g2)
        return g1 * (A - 1) + g2 * (B - 1) - min(g2 * c, g1 * d) - m
    return _largest(_round_robin(m, [(g % m, g) for g in a if g % m])) - m


def frobenius(inst: KnapsackInstance) -> int:
    """Frobenius number: the largest integer not representable as a.x.

    Returns -1 when some coefficient equals 1 and every b >= 0 is
    representable.  Both routes first count the m = min(a) cells of the
    table modulo m against the guardrail.  Three coefficients then
    read g off the L-shaped staircase of the smallest loads, which one
    _axis walk finds in O(log m) steps.  Any other n runs _round_robin on
    the arcs (a_j mod m, a_j), the coefficients being their own weights;
    its passes go in ascending coefficient and skip every coefficient that
    smaller ones already represent (module docstring).
    """
    m = inst.min_entry
    _check_table(m)
    return _frobenius(inst.a, m)


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
    _, generators = _pivot(inst, tau)
    check_int(radius, "radius")
    if radius < 0:
        raise ValidationError(f"radius = {radius} must be nonnegative")
    m = inst.a[tau]
    check_int(r, "r")
    if not 0 <= r < m:
        raise ValidationError(f"residue r = {r} out of range modulo {m}")
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
