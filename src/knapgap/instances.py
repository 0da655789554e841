"""Instance generators: random sampling, enumeration and named families.

The sampling target is the set of valid instances with all coefficients at
most T, i.e. tuples in {1..T}^n with gcd 1.  Draws are i.i.d. uniform by
rejection: each coordinate uniform on {1..T}, the tuple kept only if the
gcd is 1.  The acceptance rate tends to 1/zeta(n) as T grows (6/pi^2 for
pairs).

Reproducibility contract: the tuple produced for (seed, index) is a pure
function of those two integers.  Each index owns a disjoint counter block of
the Philox4x64-10 counter-based generator (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) keyed by the seed,
starting at counter index << 128, and bounded integers are produced by mask
rejection on the raw 64-bit stream, so results are bit-identical no matter
how draws are partitioned across workers.  The stream is computed here in
Python, word for word the one numpy.random.Philox(key=seed,
counter=index << 128).random_raw() gives: like numpy, it increments the
256-bit counter before each 4-word block, so block k of an index is the
Philox of counter (index << 128) + k + 1.  The tests keep numpy's Philox as
the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

from .core import KnapsackInstance, RationalLike, as_fraction
from .errors import BetaOutOfRange, ValidationError
from .guardrail import check_cells

_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and Weyl key increments (Salmon et al.).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B


@lru_cache(maxsize=16)
def _round_keys(seed: int) -> tuple[tuple[int, int], ...]:
    """The ten Philox4x64-10 round keys of a 128-bit key, as word pairs."""
    k0, k1 = seed & _MASK64, seed >> 64
    return tuple(
        ((k0 + i * _PHILOX_W0) & _MASK64, (k1 + i * _PHILOX_W1) & _MASK64)
        for i in range(10)
    )


class _RawStream:
    """Buffered view of one Philox counter block's raw 64-bit output."""

    def __init__(self, seed: int, index: int) -> None:
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed = {seed} must lie in [0, 2**128)")
        if not 0 <= index < 1 << 128:
            raise ValueError(f"index = {index} must lie in [0, 2**128)")
        self._keys = _round_keys(seed)
        self._index = (index & _MASK64, index >> 64)
        self._blocks = 0
        self._buf: list[int] = []

    def batch(self) -> list[int]:
        """The next 4-word block, past any words that next_raw buffered.

        Block k (from 0) is the Philox of counter (index << 128) + k + 1,
        whose little-endian words are k + 1, 0 and the index's two words:
        no stream comes near 2**64 blocks, so the increment never carries.
        Each of the ten rounds mixes two 64 x 64 -> 128-bit products with
        that round's key.
        """
        self._blocks += 1
        c0, c1 = self._blocks, 0
        c2, c3 = self._index
        mask, m0, m1 = _MASK64, _PHILOX_M0, _PHILOX_M1
        for k0, k1 in self._keys:
            p0 = m0 * c0
            p1 = m1 * c2
            c0 = (p1 >> 64) ^ c1 ^ k0
            c1 = p1 & mask
            c2 = (p0 >> 64) ^ c3 ^ k1
            c3 = p0 & mask
        return [c0, c1, c2, c3]

    def next_raw(self) -> int:
        if not self._buf:
            self._buf = self.batch()
            self._buf.reverse()
        return self._buf.pop()

    def uniform(self, upper: int) -> int:
        """Uniform integer in {1, ..., upper} by mask rejection."""
        bits = (upper - 1).bit_length()
        mask = (1 << bits) - 1
        while True:
            v = self.next_raw() & mask
            if v < upper:
                return v + 1


@dataclass(frozen=True)
class SamplerConfig:
    """How many instances to draw, from where, and with which seed."""

    n: int
    T: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValidationError(f"n = {self.n} < 2")
        if self.T < 1:
            raise ValidationError(f"T = {self.T} < 1")
        if self.count < 1:
            raise ValidationError(f"count = {self.count} < 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def draw_instance(
    seed: int, index: int, n: int, T: int
) -> tuple[KnapsackInstance, int]:
    """Draw the instance owned by (seed, index); also report the number of
    tuples tried before one passed the gcd filter.

    Reads the same words in the same order as n calls of stream.uniform(T)
    per tuple, in one local loop over whole batches.
    """
    stream = _RawStream(seed, index)
    mask = (1 << (T - 1).bit_length()) - 1
    attempts = 0
    values: list[int] = []
    while True:
        for word in stream.batch():
            word &= mask
            if word < T:
                values.append(word + 1)
                if len(values) == n:
                    attempts += 1
                    if math.gcd(*values) == 1:
                        return KnapsackInstance(tuple(values)), attempts
                    values = []


def sample_instances(config: SamplerConfig) -> Iterator[KnapsackInstance]:
    """Yield config.count i.i.d. uniform valid instances."""
    for index in range(config.count):
        yield draw_instance(config.seed, index, config.n, config.T)[0]


def count_instances(n: int, T: int, *, max_cells: int | None = None) -> int:
    """Exact count of valid instances with coefficients in {1..T}.

    Plain enumeration over T**n tuples, guarded by the cell cap.
    """
    if n < 2:
        raise ValidationError(f"n = {n} < 2")
    if T < 1:
        raise ValidationError(f"T = {T} < 1")
    check_cells(T**n, f"enumeration of {T}**{n} tuples", max_cells)
    return sum(
        1 for tup in product(range(1, T + 1), repeat=n) if math.gcd(*tup) == 1
    )


def tightness_family(
    k: int, n: int
) -> tuple[KnapsackInstance, tuple[Fraction, ...]]:
    """The worst-case family (k, ..., k, 1) with cost e_n.

    Its exact gap is k - 1, which meets the (max(a) - 1) * ||c||_1 upper
    bound with equality, so that bound's constant is best possible.
    """
    if k < 1:
        raise ValidationError(f"k = {k} < 1")
    if n < 2:
        raise ValidationError(f"n = {n} < 2")
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
    far apart as delta grows.
    """

    n: int
    delta: int
    beta: Fraction
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]
    cost: tuple[int, ...]
    lp_solution: tuple[Fraction, ...]
    ip_solution: tuple[int, ...]
    distance: Fraction


def lovasz_example(n: int, delta: int, beta: RationalLike) -> LovaszExample:
    """Construct and verify the bidiagonal example for given n, delta, beta.

    Verification is by substitution: the closed-form LP point satisfies
    every row with equality, and the recursion x_1 <= beta < 1, then
    x_{i+1} <= beta + (row coefficient) * x_i, forces every integer feasible
    point to have nonpositive coordinates, so the origin is the unique
    integer optimum for the all-minus-one cost.
    """
    if n < 2:
        raise ValidationError(f"n = {n} < 2")
    if delta < 1:
        raise ValidationError(f"delta = {delta} < 1")
    beta = as_fraction(beta, "beta")
    if not 0 < beta < 1:
        raise BetaOutOfRange(f"beta = {beta} must lie strictly between 0 and 1")

    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        if i > 0:
            row[i - 1] = -delta if i == n - 1 else -1
        rows.append(tuple(row))
    matrix = tuple(rows)
    rhs = (beta,) * n
    cost = (-1,) * n

    lp = [i * beta for i in range(1, n)]
    lp.append((delta * (n - 1) + 1) * beta)
    lp_solution = tuple(lp)

    for row in matrix:
        lhs = sum(coef * x for coef, x in zip(row, lp_solution))
        if lhs != beta:
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
        matrix=matrix,
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
    cols = len(matrix[0])
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
