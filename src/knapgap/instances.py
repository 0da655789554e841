"""Instance generators: random sampling, enumeration and named families.

The sampling target is the set of valid instances with all coefficients at
most T, i.e. tuples in {1..T}^n with gcd 1.  Draws are i.i.d. uniform by
rejection: each coordinate uniform on {1..T}, the tuple kept only if the
gcd is 1.  T is at most 2**64, since each coordinate reads one 64-bit word
at a time.  The acceptance rate tends to 1/zeta(n) as T grows (6/pi^2 for
pairs).

Reproducibility contract: the tuple produced for (seed, index) is a pure
function of those two integers.  Each index owns a disjoint counter block of
the Philox4x64-10 counter-based generator (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) keyed by the seed,
starting at counter index << 128, and bounded integers are produced by mask
rejection on the raw 64-bit stream, so results are bit-identical no matter
how draws are partitioned across workers.  The stream is word for word the
one numpy.random.Philox(key=seed, counter=index << 128).random_raw() gives:
like numpy, it increments the 256-bit counter before each 4-word block, so
block k of an index is the Philox of counter (index << 128) + k + 1.  The
tests keep numpy's Philox as the reference.

Lanes.  The rounds run in Python for a whole range of indices at once.
Each index owns a 128-bit lane of a Python int holding one 64-bit counter
word in its low half, so one round is ten big-int operations for the whole
range: a 64 x 64-bit product fills its lane exactly, shifting a product
down by 64 brings each lane's high word into its low half, and a mask with
the low-64-bit pattern replicated in every lane drops what the shift moved
in from the next lane.  The round keys are replicated into every lane the
same way.  Packing and unpacking go through array("Q") buffers of 8-byte
little-endian words.

Waves.  _draw_lanes computes block 1 for every index of the range, runs
the mask rejection and the gcd filter on each index's four words exactly
as a one-index draw reads them, and computes block 2 only for the indices
that still lack a coprime tuple, and so on until none is left.  Every index
still reads its own blocks in order and every word is kept or rejected by
the same test, so the stream and each drawn tuple are those of a
one-index draw; only the order in which the indices' blocks are computed
changes.

Tuples.  _draw_lanes is the one range drawer.  It yields each index's
coefficients as a plain tuple, which the draw has made positive, at most T
and coprime, and builds no instance.  SamplerConfig checks a run's box,
seed and index range [0, count) once, when it is built, so the sampler
(knapgap.experiments) and sample_instances draw a config's tuples without
checking again; _draw_tuples checks its own arguments, for draw_instance.
draw_instance and sample_instances wrap each tuple in a KnapsackInstance,
the one constructor, which validates it once.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from .core import KnapsackInstance, RationalLike, _check_dimension, _check_size
from .core import as_fraction, check_int
from .errors import BetaOutOfRange, ValidationError
from .guardrail import check_cells

_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and Weyl key increments (Salmon et al.).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B

# Lane buffers are arrays of 8-byte words, read and written as little-endian
# bytes; a big-endian host swaps each word on the way.
assert array("Q").itemsize == 8, "lane buffers need 8-byte array('Q') words"
_SWAP = sys.byteorder == "big"
# One lane holding the integer 1, as little-endian bytes: repeated k times
# and read back, it is the int with 1 in each of k lanes.
_ONE_LANE = (1).to_bytes(16, "little")
# Most lanes one wave computes.  Larger ranges are drawn this many indices
# at a time, which bounds the big ints and the cached keys.  The cost per
# block is about 0.8-0.9 us from 100 to 1000 lanes, 1.1 us at 3000 and
# about 10 us for a single lane, which packs and unpacks like any other
# (2-core x86-64 host, CPython 3.11).
_LANES = 1000


def _replicate(lanes: int) -> int:
    """The int with 1 in each of `lanes` 128-bit lanes."""
    return int.from_bytes(_ONE_LANE * lanes, "little")


@lru_cache(maxsize=8)
def _lane_keys(seed: int, lanes: int) -> tuple[tuple[int, int], ...]:
    """The ten Philox4x64-10 round keys of a 128-bit key, as word pairs,
    each word replicated into `lanes` lanes."""
    rep = _replicate(lanes)
    k0, k1 = seed & _MASK64, seed >> 64
    return tuple(
        (((k0 + i * _PHILOX_W0) & _MASK64) * rep, ((k1 + i * _PHILOX_W1) & _MASK64) * rep)
        for i in range(10)
    )


def _pack(words: Sequence[int]) -> int:
    """The int whose lane j holds words[j] (each below 2**64)."""
    buf = array("Q", bytes(16 * len(words)))
    buf[::2] = array("Q", words)
    if _SWAP:
        buf.byteswap()
    return int.from_bytes(buf, "little")


def _unpack(value: int, lanes: int) -> array:
    """The 2 * lanes 64-bit words of value, lowest first."""
    buf = array("Q")
    buf.frombytes(value.to_bytes(16 * lanes, "little"))
    if _SWAP:
        buf.byteswap()
    return buf


def _philox_lanes(
    keys: tuple[tuple[int, int], ...],
    block: int,
    base: int,
    offsets: Sequence[int],
    mask: int,
) -> Iterator[tuple[int, int, int, int]]:
    """Block `block` (from 1) of each index base + j, j in offsets, as four
    words per index, each ANDed with mask.

    keys holds the round keys replicated into len(offsets) lanes.  The
    counter words are block, 0 and the index's two words: no stream comes
    near 2**64 blocks, so the increment never carries.  Each round mixes
    two 64 x 64 -> 128-bit products with that round's key.  Only the words
    that are multiplied next are masked to 64 bits; the other two keep
    their product's high word until the XOR that uses them is masked.
    """
    lanes = len(offsets)
    rep = _replicate(lanes)
    index = base * rep + _pack(offsets)
    low = rep * _MASK64
    c0, c1, c2, c3 = block * rep, 0, index & low, (index >> 64) & low
    for k0, k1 in keys:
        p0 = c0 * _PHILOX_M0
        p1 = c2 * _PHILOX_M1
        c0 = ((p1 >> 64) ^ c1 ^ k0) & low
        c2 = ((p0 >> 64) ^ c3 ^ k1) & low
        c1, c3 = p1, p0
    # Two words share each lane on the way out, the second in its high half.
    out = rep * mask
    first = _unpack(c0 & out | (c1 & out) << 64, lanes)
    second = _unpack(c2 & out | (c3 & out) << 64, lanes)
    return zip(first[::2], first[1::2], second[::2], second[1::2])


# Largest T a draw covers: mask rejection reads one 64-bit word per
# coordinate, and a full word is uniform on {1..2**64} once shifted by one.
_MAX_T = 1 << 64


def check_box(n: int, T: int) -> None:
    """Refuse a box {1..T}**n unless n >= 2 and T lies in [1, 2**64], both
    integers; then count a draw's n coefficients against the guardrail."""
    _check_dimension(n)
    _check_size(T, "T")
    if T > _MAX_T:
        raise ValidationError(
            f"T = {T} > 2**64, draws read one 64-bit word per coordinate"
        )
    check_cells(n, f"draw of {n} coefficients")


def _check_stream(seed: int, start: int, stop: int) -> None:
    """Refuse a seed, or an index of [start, stop), outside [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise ValidationError(f"seed = {seed} must lie in [0, 2**128)")
    if start < stop and not (0 <= start and stop <= 1 << 128):
        index = start if start < 0 else max(start, 1 << 128)
        raise ValidationError(f"index = {index} must lie in [0, 2**128)")


@dataclass(frozen=True)
class SamplerConfig:
    """How many instances to draw, from where, and with which seed.

    Building one checks the box (check_box), the count, the 64-bit seed
    and the run's index range [0, count) against the 128-bit stream, so
    every range of it can be drawn with no further check."""

    n: int
    T: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        check_box(self.n, self.T)
        _check_size(self.count, "count")
        check_int(self.seed, "seed")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")
        _check_stream(self.seed, 0, self.count)


def _draw_tuples(
    seed: int, start: int, stop: int, n: int, T: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(coefficients, attempts) for every index of [start, stop), in index
    order; attempts counts the tuples tried before one passed the gcd
    filter.

    Each item's coefficients are draw_instance(seed, index, n, T)'s.  The
    seed and the indices must lie in [0, 2**128); the range may cross
    2**64.  The arguments are checked at the call.  Indices are drawn
    _LANES at a time, each batch in waves of lanes (module docstring).
    """
    _check_stream(seed, start, stop)
    check_box(n, T)
    return _draw_lanes(seed, start, stop, n, T)


def _draw_lanes(
    seed: int, start: int, stop: int, n: int, T: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    mask = (1 << (T - 1).bit_length()) - 1
    gcd = math.gcd
    for base in range(start, stop, _LANES):
        size = min(_LANES, stop - base)
        keys = _lane_keys(seed, size)
        drawn: list = [None] * size
        values: list[list[int]] = [[] for _ in drawn]
        attempts = [0] * size
        pending = list(range(size))
        block = 0
        while pending:
            if len(pending) < size:
                # trimmed keys keep each round's cost to the lanes left
                size = len(pending)
                width = (1 << 128 * size) - 1
                keys = tuple((k0 & width, k1 & width) for k0, k1 in keys)
            block += 1
            waiting = []
            for j, words in zip(pending, _philox_lanes(keys, block, base, pending, mask)):
                kept = values[j]
                for word in words:
                    if word < T:
                        kept.append(word + 1)
                        if len(kept) == n:
                            attempts[j] += 1
                            if gcd(*kept) == 1:
                                drawn[j] = (tuple(kept), attempts[j])
                                break
                            kept.clear()
                else:
                    waiting.append(j)
            pending = waiting
        yield from drawn


def draw_instance(
    seed: int, index: int, n: int, T: int
) -> tuple[KnapsackInstance, int]:
    """Draw the instance owned by (seed, index); also report the number of
    tuples tried before one passed the gcd filter.

    The one-index range of _draw_tuples: each coordinate is the first of
    the index's raw words, in stream order, that falls below T once masked
    to the bit length of T - 1.  A lone lane pays the whole cost of each
    round, so callers that draw many indices should draw them as one range,
    as sample_instances does.
    """
    check_int(seed, "seed")
    check_int(index, "index")
    ((a, attempts),) = _draw_tuples(seed, index, index + 1, n, T)
    return KnapsackInstance(a), attempts


def sample_instances(config: SamplerConfig) -> Iterator[KnapsackInstance]:
    """config.count i.i.d. uniform valid instances, drawn as they are read
    from the box and index range the config checked when it was built."""
    drawn = _draw_lanes(config.seed, 0, config.count, config.n, config.T)
    return (KnapsackInstance(a) for a, _ in drawn)


def count_instances(n: int, T: int) -> int:
    """Exact count of valid instances with coefficients in {1..T}.

    The tuples of {1..T}**n whose gcd is a multiple of d are the
    floor(T/d)**n tuples of multiples of d, so Moebius inversion gives the
    count with gcd 1 as the sum over d <= T of mu(d) floor(T/d)**n.  The d
    of one quotient form a run, whose sum of mu is M(last) - M(first - 1)
    for the Mertens function M(x) = 1 - sum_{d=2..x} M(floor(x/d)), summed
    by runs too and memoised: every x is some floor(T/k), so the cache
    holds about 2 sqrt(T) ints, and x at least halves at each level, so
    the depth is at most log2(T).  The work, O(T**(3/4)) steps (0.8 s at
    T = 10**8, 2-core x86-64), is bounded by the guardrail: T counts as cells.
    """
    check_box(n, T)
    check_cells(T, f"count over side T = {T} (about T**(3/4) steps)")

    @lru_cache(maxsize=None)
    def mertens(x: int) -> int:
        total, d = 1, 2
        while d <= x:
            q = x // d
            last = x // q
            total -= (last - d + 1) * mertens(q)
            d = last + 1
        return total

    total, d = T**n, 2  # the run d = 1 alone, mu(1) = 1
    while d <= T:
        q = T // d
        total += (mertens(T // q) - mertens(d - 1)) * q**n
        d = T // q + 1
    return total


def tightness_family(
    k: int, n: int
) -> tuple[KnapsackInstance, tuple[Fraction, ...]]:
    """The worst-case family (k, ..., k, 1) with cost e_n.

    Its exact gap is k - 1, which meets the (max(a) - 1) * ||c||_1 upper
    bound with equality, so that bound's constant is best possible.
    """
    _check_size(k, "k")
    _check_dimension(n)
    inst = KnapsackInstance((k,) * (n - 1) + (1,))
    cost = (Fraction(0),) * (n - 1) + (Fraction(1),)
    return inst, cost


def frobenius_cost(inst: KnapsackInstance) -> tuple[Fraction, ...]:
    """The cost (a_1, ..., a_{n-1}, 0), whose exact gap is g(a) + a_n."""
    return tuple(Fraction(v) for v in inst.a[:-1]) + (Fraction(0),)


@dataclass(frozen=True)
class LovaszExample:
    """Bidiagonal inequality system with LP optimum far from the IP optimum.

    The system A x <= rhs uses the n x n matrix with ones on the diagonal,
    -1 below it except for -delta in the last row, rhs constant beta in
    (0, 1), and cost -1 everywhere (so minimizing cost maximizes the
    coordinate sum).  Its unique LP optimum is
    (beta, 2 beta, ..., (n-1) beta, (delta (n-1) + 1) beta); the unique
    integer optimum is the origin, at distance (delta (n-1) + 1) beta in the
    max norm, while every subdeterminant of A is at most delta in absolute
    value.  One small matrix therefore pushes LP and IP optima arbitrarily
    far apart as delta grows.  A is held as (n, delta) alone; `matrix` builds it.
    """

    n: int
    delta: int
    beta: Fraction
    rhs: tuple[Fraction, ...]
    cost: tuple[int, ...]
    lp_solution: tuple[Fraction, ...]
    ip_solution: tuple[int, ...]
    distance: Fraction

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._rows())

    def _rows(self) -> Iterator[tuple[int, ...]]:
        yield (1,) + (0,) * (self.n - 1)
        for i in range(1, self.n):
            below = -self.delta if i == self.n - 1 else -1
            yield (0,) * (i - 1) + (below, 1) + (0,) * (self.n - 1 - i)


def lovasz_example(n: int, delta: int, beta: RationalLike) -> LovaszExample:
    """Construct and verify the bidiagonal example for given n, delta, beta.

    Verification is by substitution: the closed-form LP point satisfies
    every row with equality, each row checked on its (at most two) nonzero
    entries, and the recursion x_1 <= beta < 1, then
    x_{i+1} <= beta + (row coefficient) * x_i, forces every integer feasible
    point to have nonpositive coordinates, so the origin is the unique
    integer optimum for the all-minus-one cost.
    """
    _check_dimension(n)
    _check_size(delta, "delta")
    beta = as_fraction(beta, "beta")
    if not 0 < beta < 1:
        raise BetaOutOfRange(f"beta = {beta} must lie strictly between 0 and 1")
    check_cells(n * n, f"bidiagonal {n} x {n} matrix")

    rhs = (beta,) * n
    cost = (-1,) * n

    lp = [i * beta for i in range(1, n)]
    lp.append((delta * (n - 1) + 1) * beta)
    lp_solution = tuple(lp)

    # Row i reads x_i - s x_{i-1}, s = delta in the last row and 1 above it.
    for i, x in enumerate(lp_solution):
        below = (delta if i == n - 1 else 1) * lp_solution[i - 1] if i else 0
        if x - below != beta:
            raise AssertionError("constructed LP point misses a row")

    # Integer feasibility forces x <= 0 coordinatewise because beta < 1 and
    # the subdiagonal coefficients are negative; the origin is feasible with
    # cost 0 and any other nonpositive point costs more.
    ip_solution = (0,) * n
    distance = lp_solution[-1]
    return LovaszExample(
        n=n,
        delta=delta,
        beta=beta,
        rhs=rhs,
        cost=cost,
        lp_solution=lp_solution,
        ip_solution=ip_solution,
        distance=distance,
    )


def delta_max(matrix: Sequence[Sequence[int]]) -> int:
    """Largest absolute subdeterminant over all square submatrices.

    Exponential enumeration with exact integer determinants; intended for
    small verification sizes only.  The sum over k of C(rows, k) * C(cols, k)
    square submatrices is C(rows + cols, rows) - 1 (Vandermonde), and that
    count is checked against the cell guardrail first.
    """
    m = len(matrix)
    if not m:
        raise ValidationError("matrix has no rows")
    cols = len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise ValidationError(f"matrix rows differ in length, row 1 has {cols} entries")
    count = math.comb(m + cols, m) - 1
    check_cells(count, f"enumeration of {count} square submatrices")
    best = 0
    for k in range(1, min(m, cols) + 1):
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(cols), k):
                sub = [[matrix[r][c] for c in cols_idx] for r in rows_idx]
                best = max(best, abs(_det_int(sub)))
    return best


def _det_int(mat: list[list[int]]) -> int:
    """Exact determinant of a small integer matrix via fraction-free
    Gaussian elimination (Bareiss)."""
    m = [row[:] for row in mat]
    k = len(m)
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for r in range(i + 1, k):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[k - 1][k - 1]
