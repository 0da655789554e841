"""Randomized desk-scale experiments on normalized gap sizes.

For a sampled instance the quantity of interest is the best possible ratio
Gap_c(a) / (||a||_inf^epsilon * ||c||_1) over nonzero costs.  That maximum
is not directly computable, but it is bracketed by two cheap quantities:

  ratio_lower: the ratio achieved by the cost (a_1, ..., a_{n-1}, 0), whose
      exact gap is g(a) + a_n, so the value is
      (g(a) + a_n) / (||a||_inf^epsilon * (a_1 + ... + a_{n-1}));
  ratio_upper: from the Frobenius-number gap bound, every cost satisfies
      Gap_c / ||c||_1 <= f(a) / min(a) with f(a) = g(a) + a_1 + ... + a_n,
      so the max ratio is at most f(a) / (min(a) * ||a||_inf^epsilon).

The harness reports these brackets, never the unknown max itself.  The only
irrational ingredient, ||a||_inf^epsilon, is directionally rounded (up in
the lower bracket's denominator, down in the upper's), and each reported
ratio is then rounded outward to a dyadic rational with denominator
2**bits.  Every record therefore keeps its bracket side exactly.

Records carry each bracket as its integer numerator over 2**bits.  Sorting,
survival counts, sums and the `above` check work on those ints; a survival
threshold t becomes the integer cut floor(t * 2**bits), since an integer N
satisfies N / 2**bits > t exactly when N exceeds that cut.  Fractions are
built only at the output boundary: the `ratio_lower` / `ratio_upper`
properties and the exact means and survival fractions of a summary.  The
exact CSV columns print N / 2**bits in lowest terms by dividing both by
N & -N, the power of two that N shares with 2**bits while it is below
2**bits, which gives the same string as the Fraction.

A range's records are taken as columns.  Each record takes one pass from
the drawn coefficient tuple to g and the bracket numerators.  The pass
builds no KnapsackInstance (the drawer has already made the tuple positive
and coprime) and calls no frobenius wrapper: it reads the guardrail cap
once per range and hands each tuple with that cap to group._frobenius,
the body frobenius runs, which refuses a residue table past the cap.  The
range's (index, a, g, lower, upper) records are then transposed into
five columns.  When a CSV is wanted, _csv_rows formats each column once
(the coefficients through one template, the decimals, the exact values)
and joins each row with one f-string; write_records_csv calls the same
formatter once per run, so every CSV row has one format.  Only
sample_records wraps each tuple in a KnapsackInstance, for its records.

tail_experiment and mean_experiment stream.  Each config's index range,
which the config checked when it was built, is cut into ranges of at most
_CHUNK indices, each cut only when it is read, and their results come back
in index order.  --jobs N means N computing processes, this one included:
at jobs 1 the ranges run here, and otherwise N - 1 forked children take
every N-th range while this process runs its own share (_ordered).  A
range's worker returns plain data: its lower and upper numerators as two
int tuples and, when a CSV is wanted, its rows as one string.  Each config
keeps only running counts (the count, both numerator sums and the number
of values above each threshold's cut), and the rows go to the output
handle as each range arrives, so memory stays flat in the sample count: a
run holds O(jobs) ranges, not one per _CHUNK records.  summarize builds a
summary from a record list through the same counts.

The theoretical backdrop: for n >= 3 the sampled fraction of instances with
ratio above t decays at least like t^(-alpha) with
alpha = (n - 2) / ((1 - epsilon) n), so means are bounded once
epsilon > 2/n, while for epsilon = 1/(n-1) the lower bracket's mean stays
bounded away from zero.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from contextlib import closing, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from itertools import chain, islice
from typing import IO, Iterable, Iterator, NoReturn, Sequence

from .core import KnapsackInstance, RationalLike, _check_size, as_fraction, check_int
from .errors import (
    BadEpsilon,
    DimensionTooSmall,
    InsufficientSamples,
    ValidationError,
)
from .group import _frobenius, frobenius
from .guardrail import cell_cap
from .instances import SamplerConfig, _draw_lanes
from .rounding import DEFAULT_BITS, pow_numerators

# Not called here: _norm_power works on ints and _sampled draws whole
# ranges.  perfbench's traced runs still wrap these names where they used
# to be looked up, so they stay importable.
from .instances import draw_instance  # noqa: F401
from .rounding import pow_bounds  # noqa: F401

MIN_TAIL_SAMPLES = 100


def _epsilon(epsilon: RationalLike) -> Fraction:
    """epsilon as a Fraction, refused unless it lies in (0, 1)."""
    eps = as_fraction(epsilon, "epsilon")
    if not 0 < eps < 1:
        raise BadEpsilon(f"epsilon = {eps} must lie strictly between 0 and 1")
    return eps


def _check_bits(bits: int) -> None:
    """Refuse a rounding precision below 8 bits."""
    check_int(bits, "bits")
    if bits < 8:
        raise ValidationError(f"bits = {bits} too small for sound rounding")


def _check_law_dimension(n: int) -> None:
    """Refuse n < 3, where the sampling laws degenerate."""
    if n < 3:
        raise DimensionTooSmall(f"n = {n} < 3, the tail exponent degenerates")


def tail_exponent(epsilon: RationalLike, n: int) -> Fraction:
    """Exact tail exponent (n - 2) / ((1 - epsilon) * n), for n >= 3."""
    eps = _epsilon(epsilon)
    _check_law_dimension(n)
    return Fraction(n - 2) / ((1 - eps) * n)


@dataclass(frozen=True)
class ExperimentConfig(SamplerConfig):
    """Sampling plus normalization parameters for one experiment run."""

    epsilon: Fraction
    thresholds: tuple[Fraction, ...] = ()
    bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "epsilon", _epsilon(self.epsilon))
        thresholds = tuple(as_fraction(t, "threshold") for t in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        seen = set()
        for t in thresholds:
            if t <= 0:
                raise ValidationError(f"threshold t = {t} must be positive")
            if t in seen:
                raise ValidationError(f"threshold t = {t} repeated, thresholds must differ")
            seen.add(t)
        _check_bits(self.bits)
        # Every exact value printed is an int <= count (n + 1) T 2**bits
        # (Schur's bound on g gives ratio_upper <= (n + 1) T), which must fit
        # the digit limit on int strings: 2**(limit * 3321928 // 10**6) <= 10**limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        head = (self.count * (self.n + 1) * self.T).bit_length()
        if limit and self.bits + head > limit * 3321928 // 10**6:
            raise ValidationError(
                f"bits = {self.bits} too large: exact values would exceed "
                f"the {limit}-digit limit on integer strings"
            )


@dataclass(frozen=True)
class SampleRecord:
    """One sampled instance with its bracket values.

    `lower` and `upper` are the integer numerators of the brackets over
    2**bits; `ratio_lower` and `ratio_upper` give them as Fractions.
    """

    index: int
    instance: KnapsackInstance
    g: int
    f: int
    lower: int
    upper: int
    bits: int

    @property
    def ratio_lower(self) -> Fraction:
        return Fraction(self.lower, 1 << self.bits)

    @property
    def ratio_upper(self) -> Fraction:
        return Fraction(self.upper, 1 << self.bits)


@lru_cache(maxsize=4096)
def _norm_power(norm: int, p: int, q: int, bits: int) -> tuple[int, int]:
    """Numerators over 2**bits of the bracket of norm**(p / q), cached."""
    return pow_numerators(norm, p, q, bits)


def _bracket_numerators(
    a: tuple[int, ...], p: int, q: int, bits: int, g: int
) -> tuple[int, int]:
    """Numerators over 2**bits of the outward-rounded bracket of the
    coefficients a at epsilon = p / q.

    With ||a||_inf^epsilon in [P_lo, P_hi] / 2**bits, the lower bracket is
    floor((g + a_n) * 4**bits / (P_hi * head)) and the upper one
    ceil(f * 4**bits / (min(a) * P_lo)), both over 2**bits.
    """
    total, last = sum(a), a[-1]
    p_lo, p_hi = _norm_power(max(a), p, q, bits)
    lower = ((g + last) << 2 * bits) // (p_hi * (total - last))
    upper = -((-(g + total) << 2 * bits) // (min(a) * p_lo))
    return lower, upper


def bracket_ratios(
    inst: KnapsackInstance,
    epsilon: RationalLike,
    bits: int = DEFAULT_BITS,
    *,
    g: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Certified (ratio_lower, ratio_upper) bracket for one instance.

    epsilon and bits are checked as ExperimentConfig checks them.  The
    returned values are dyadic rationals with denominator 2**bits; the
    lower one never exceeds the true lower bracket and the upper one never
    undercuts the true upper bracket, so downstream exact comparisons keep
    their direction.
    """
    eps = _epsilon(epsilon)
    _check_bits(bits)
    if g is None:
        g = frobenius(inst)
    lower, upper = _bracket_numerators(inst.a, eps.numerator, eps.denominator, bits, g)
    return Fraction(lower, 1 << bits), Fraction(upper, 1 << bits)


def _sampled(config: ExperimentConfig, start: int, stop: int):
    """(index, a, g, lower, upper) for each index in [start, stop), with a
    the drawn coefficient tuple: the one pass every record takes.

    The range's tuples come from one _draw_lanes call on the box and index
    range the config checked, and the drawer guarantees positive coprime
    coefficients, so no record builds a KnapsackInstance or goes through
    frobenius.  The guardrail cap is read once per range and handed to
    group._frobenius with each record, which refuses a table past it with
    the text frobenius raises.
    """
    cap = cell_cap()
    p, q, bits = config.epsilon.numerator, config.epsilon.denominator, config.bits
    draws = _draw_lanes(config.seed, start, stop, config.n, config.T)
    for index, (a, _) in zip(range(start, stop), draws):
        g = _frobenius(a, cap)
        lower, upper = _bracket_numerators(a, p, q, bits, g)
        yield index, a, g, lower, upper


def sample_records(config: ExperimentConfig) -> list[SampleRecord]:
    """All records for a config, in index order, from the generator the
    streaming workers read."""
    return [
        SampleRecord(index, KnapsackInstance(a), g, g + sum(a), lower, upper, config.bits)
        for index, a, g, lower, upper in _sampled(config, 0, config.count)
    ]


def _stream_chunk(
    task: tuple[ExperimentConfig, int, int, bool]
) -> tuple[tuple[int, ...], tuple[int, ...], str | None]:
    """A range's lower and upper numerators, in index order, and its CSV
    rows as one string when wanted, which _csv_rows formats from the
    range's columns.  Plain ints and one str are far cheaper for a forked
    child to pickle back than a record object per index."""
    config, start, stop, want_csv = task
    # _ranges never makes an empty range, so every column unpacks
    index, a, g, lowers, uppers = zip(*_sampled(config, start, stop))
    rows = None
    if want_csv:
        head = f"{config.n},{config.T},{config.seed}"
        rows = _csv_rows(head, index, a, g, lowers, uppers, config.bits)
    return lowers, uppers, rows


# Most indices one range covers.  It bounds what a range holds in flight:
# about 0.2 MB at 1000 indices (its CSV text and its columns).  With equal
# ranges shared by forked children, caps from 250 to 2000 streamed the mean
# ladder at jobs 2 and the tail run at jobs 1 within 5% of each other, and
# 5000 cost the tail run 8% (in process, median of 15, 2-vCPU host,
# CPython 3.11).
_CHUNK = 1000


def _max_jobs() -> int:
    """The most processes _ranges admits: four per CPU this process may run
    on, so a typo such as --jobs 100000 forks nothing, while jobs 1 to 4
    run on any host."""
    if hasattr(os, "sched_getaffinity"):
        return 4 * len(os.sched_getaffinity(0))
    return 4 * (os.cpu_count() or 1)


def _ranges(
    configs: Sequence[ExperimentConfig], jobs: int
) -> Iterator[tuple[int, int, int]]:
    """(config position, start, stop) of every range, in order, each cut
    only when it is read; jobs is checked at the call.

    A config with at least 2 * jobs records is cut into a multiple of jobs
    ranges, the fewest that keep each within _CHUNK indices, and a smaller
    config into the fewest ranges within _CHUNK.  A config's ranges differ
    in length by at most one index, so _ordered's round robin hands every
    process the same share of each config that splits.
    """
    _check_size(jobs, "jobs")
    ceiling = _max_jobs()
    if jobs > ceiling:
        raise ValidationError(
            f"jobs = {jobs} exceeds {ceiling}, four per CPU this process may use"
        )
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValidationError(f"jobs = {jobs} needs os.fork, which this platform lacks")

    def cut() -> Iterator[tuple[int, int, int]]:
        for k, config in enumerate(configs):
            parts = jobs if config.count >= 2 * jobs else 1
            pieces = parts * -(-config.count // (parts * _CHUNK))
            for i in range(pieces):
                yield k, config.count * i // pieces, config.count * (i + 1) // pieces

    return cut()


def _ordered(worker, tasks: Iterable, jobs: int):
    """worker(task) for every task, yielded in task order.

    tasks may be any iterable, read as it is run: at most jobs tasks are
    read ahead to size the share, so no task list is held.  At jobs 1, or
    for a single task, the tasks run in this process.  Otherwise
    J = min(jobs, number of tasks) processes share them, this one included:
    child j, one of J - 1 forked children, walks its own copy of the tasks,
    runs tasks j, j + J, j + 2J, ... and pickles each result, or the
    exception it raised, into its own pipe, while this process runs tasks
    0, J, 2J, ... itself and reads the children's results in task order.
    So a failing task raises the error of jobs 1 at its position, after the
    results before it.  A child blocks while its pipe is full, so what
    waits unread is at most a pipe's buffer and one result per child.  A
    child that ends without
    sending a result raises RuntimeError.  Closing the generator, an error
    and KeyboardInterrupt all kill and reap every child and close every
    pipe.  A child is a copy of the calling thread alone, so a caller that
    runs other threads (which may hold locks) should keep jobs 1; the CLI
    runs none.
    """
    tasks = iter(tasks)
    head = list(islice(tasks, jobs))
    tasks = chain(head, tasks)
    share = len(head)
    if share < 2:
        yield from map(worker, tasks)
        return
    import pickle  # only a run that forks needs these two
    import signal

    children: list[tuple[int, IO[bytes]]] = []
    try:
        for j in range(1, share):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(worker, islice(tasks, j, None, share), write_end, children)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        for k, task in enumerate(tasks):
            if k % share == 0:
                yield worker(task)
                continue
            pid, pipe = children[k % share - 1]
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                raise RuntimeError(
                    f"worker process {pid} ended without sending the result of task {k}"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(worker, tasks: Iterable, fd: int, children: list) -> NoReturn:
    """A forked child of _ordered: run tasks, pickling each result into fd.

    The child leaves only through os._exit, so it never flushes a buffer
    it shares with its parent (stdout, an output file) and runs no atexit
    hook.  It closes the read ends it inherited, so a pipe's only reader
    is the parent.  After an exception it sends that and stops.
    """
    import pickle

    code = 1
    try:
        for _, pipe in children:
            pipe.close()
        with open(fd, "wb") as out:
            for task in tasks:
                try:
                    message = True, worker(task)
                except Exception as exc:
                    message = False, exc
                out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                out.flush()
                if not message[0]:
                    break
        code = 0
    finally:
        os._exit(code)


@dataclass(frozen=True)
class ExperimentSummary:
    """Digest of one experiment run.

    Survival maps give, per threshold t, the exact fraction of records whose
    bracket value exceeds t (both brackets reported).  fitted_slope is the
    least-squares slope of log survival against log t for the upper bracket,
    using only thresholds where at least MIN_TAIL_SAMPLES records survive;
    None when fewer than two thresholds qualify.  Means are exact rationals.
    """

    n: int
    T: int
    count: int
    seed: int
    epsilon: Fraction
    thresholds: tuple[Fraction, ...]
    bits: int
    survival_upper: tuple[tuple[Fraction, Fraction], ...]
    survival_lower: tuple[tuple[Fraction, Fraction], ...]
    fitted_slope: float | None
    mean_upper: Fraction
    mean_lower: Fraction
    alpha_theoretical: Fraction
    flags: tuple[str, ...]


def _cut(t: Fraction, bits: int) -> int:
    """floor(t * 2**bits): an integer N has N / 2**bits > t iff N > this."""
    return (t.numerator << bits) // t.denominator


def _log(t: Fraction) -> float:
    """log t of a positive t: math.log(float(t)), unless float(t) underflows
    to 0, when the log is taken of numerator and denominator apart, as
    math.log takes ints of any size."""
    x = float(t)
    return math.log(x) if x else math.log(t.numerator) - math.log(t.denominator)


def _fit_slope(
    survival: Sequence[tuple[Fraction, Fraction]], count: int
) -> float | None:
    pts = [
        (_log(t), math.log(float(frac)))
        for t, frac in survival
        if frac * count >= MIN_TAIL_SAMPLES and frac > 0
    ]
    if len(pts) < 2:
        return None
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / sxx


class _Tally:
    """Running digest of one config's bracket numerators.

    It keeps the count, both numerator sums and, per threshold, how many
    values of each bracket lie above the threshold's cut; that is all the
    survival fractions, the exact means, the slope fit and tail's `above`
    check need, so no record is held.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.cuts = [_cut(t, config.bits) for t in config.thresholds]
        self.count = 0
        self.sum_lower = 0
        self.sum_upper = 0
        self.above_lower = [0] * len(self.cuts)
        self.above_upper = [0] * len(self.cuts)

    def add(self, lowers: Sequence[int], uppers: Sequence[int]) -> None:
        self.count += len(lowers)
        self.sum_lower += sum(lowers)
        self.sum_upper += sum(uppers)
        for above, values in ((self.above_lower, lowers), (self.above_upper, uppers)):
            ordered = sorted(values)
            # bisect_right counts the values <= the cut, so the rest lie above t.
            for j, cut in enumerate(self.cuts):
                above[j] += len(ordered) - bisect_right(ordered, cut)

    def summary(self) -> ExperimentSummary:
        config, count = self.config, self.count
        survival_upper = tuple(
            (t, Fraction(k, count)) for t, k in zip(config.thresholds, self.above_upper)
        )
        survival_lower = tuple(
            (t, Fraction(k, count)) for t, k in zip(config.thresholds, self.above_lower)
        )
        flags = []
        if config.epsilon * config.n <= 2:
            flags.append("epsilon_at_or_below_2_over_n")
        if config.T == 1:
            flags.append("degenerate_T1")
        return ExperimentSummary(
            n=config.n,
            T=config.T,
            count=count,
            seed=config.seed,
            epsilon=config.epsilon,
            thresholds=config.thresholds,
            bits=config.bits,
            survival_upper=survival_upper,
            survival_lower=survival_lower,
            fitted_slope=_fit_slope(survival_upper, count),
            mean_upper=Fraction(self.sum_upper, count << config.bits),
            mean_lower=Fraction(self.sum_lower, count << config.bits),
            alpha_theoretical=tail_exponent(config.epsilon, config.n),
            flags=tuple(flags),
        )


def _check_records(config: ExperimentConfig, records: Sequence[SampleRecord]) -> None:
    """Refuse records that do not carry config.bits."""
    if any(r.bits != config.bits for r in records):
        raise ValidationError(f"records must all carry bits = {config.bits}")


def summarize(
    config: ExperimentConfig, records: Sequence[SampleRecord]
) -> ExperimentSummary:
    """Aggregate records into survival fractions, a tail fit and exact means.

    There must be at least one record, and every record must carry
    config.bits.
    """
    if not records:
        raise ValidationError("nothing to summarize")
    _check_records(config, records)
    tally = _Tally(config)
    tally.add([r.lower for r in records], [r.upper for r in records])
    return tally.summary()


def _stream(
    configs: Sequence[ExperimentConfig], jobs: int, out: IO[str] | None
) -> list[_Tally]:
    """Sample every config range by range into running tallies.

    With out, the CSV header and then each range's rows are written in
    index order, the configs one after the other.  The ranges are cut as
    they are read, twice over: once into the tasks _ordered runs and once
    to tell whose tally each result joins, so no list of them is held.
    """
    want_csv = out is not None
    if want_csv:
        _write_header(out, configs)
    tasks = (
        (configs[k], start, stop, want_csv) for k, start, stop in _ranges(configs, jobs)
    )
    tallies = [_Tally(config) for config in configs]
    with closing(_ordered(_stream_chunk, tasks, jobs)) as chunks:
        for (k, _, _), (lowers, uppers, rows) in zip(_ranges(configs, jobs), chunks):
            tallies[k].add(lowers, uppers)
            if want_csv:
                out.write(rows)
    return tallies


def tail_experiment(
    config: ExperimentConfig, jobs: int = 1, *, out: IO[str] | None = None
) -> ExperimentSummary:
    """Sample and fit the upper bracket's survival tail.

    Requires n >= 3 and at least one threshold; raises InsufficientSamples
    when fewer than MIN_TAIL_SAMPLES records exceed the smallest threshold
    or when fewer than two thresholds qualify for the fit.  With out, the
    record CSV is written there as the records are computed, so a run that
    raises may leave part of it behind.
    """
    _check_law_dimension(config.n)
    if not config.thresholds:
        raise ValidationError("tail experiment needs at least one threshold")
    (tally,) = _stream([config], jobs, out)
    smallest = min(config.thresholds)
    above = tally.above_upper[config.thresholds.index(smallest)]
    if above < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"only {above} of {config.count} samples above t = {smallest}, "
            f"need {MIN_TAIL_SAMPLES}"
        )
    summary = tally.summary()
    if summary.fitted_slope is None:
        raise InsufficientSamples(
            "fewer than two thresholds kept enough samples to fit a slope"
        )
    return summary


def mean_experiment(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    *,
    out: IO[str] | None = None,
) -> list[ExperimentSummary]:
    """Exact bracket means along a ladder of sampling boxes.

    Intended for a fixed (n, epsilon, count, seed) with increasing T; each
    config is summarized independently.  All configs are sampled together,
    as one list of ranges shared by the jobs processes (so the children
    are forked once per run, not once per T), and the output is the same
    for every jobs.  With out, one CSV of every config's records is
    written there as they are computed.  Configs with epsilon <= 2/n are
    processed but flagged, since only larger epsilon guarantees a bounded
    mean in the limit.
    """
    if not configs:
        raise ValidationError("mean experiment needs at least one config")
    for config in configs:
        _check_law_dimension(config.n)
    return [tally.summary() for tally in _stream(configs, jobs, out)]


# ---------------------------------------------------------------------------
# Serialization.  CSV rows carry both display decimals (12 significant
# digits) and exact p/q columns; JSON mirrors the summary with every exact
# value as a p/q string.  Output is byte-stable for fixed inputs.  A record's
# decimal columns divide its numerator by 2**bits as ints: CPython rounds
# int / int correctly, so this equals float() of the Fraction.


def csv_header(n: int) -> list[str]:
    cols = ["n", "T", "seed", "index"]
    cols += [f"a_{i}" for i in range(1, n + 1)]
    cols += ["g", "f", "ratio_lower", "ratio_upper"]
    cols += ["ratio_lower_exact", "ratio_upper_exact"]
    return cols


def _decimal12(x: Fraction) -> str:
    return format(float(x), ".12g")


def _exact_column(values: Sequence[int], bits: int) -> list[str]:
    """Each N / 2**bits in lowest terms, as str(Fraction(N, 2**bits)).

    low = N & -N is the largest power of two dividing N, so below 2**bits
    it is gcd(N, 2**bits) and the lowest terms are (N / low) / (2**bits /
    low); from 2**bits on, and at N = 0, the value is the integer
    N >> bits, which prints with no "/1"."""
    scale = 1 << bits
    return [
        str(v >> bits)
        if (low := v & -v) >= scale or not v
        else f"{v // low}/{scale // low}"
        for v in values
    ]


def _csv_rows(
    head: str,
    index: Sequence[int],
    a: Sequence[tuple[int, ...]],
    g: Sequence[int],
    lowers: Sequence[int],
    uppers: Sequence[int],
    bits: int,
) -> str:
    """The CSV lines of records given as columns, all of one n; head is
    their "n,T,seed" prefix.  Each column is formatted once: the
    coefficients through one "%d," template, f = g + sum(a), the decimals
    of N / 2**bits and the exact columns (_exact_column).  No field ever
    needs quoting, so each row is one formatted line."""
    scale = 1 << bits
    template = "%d," * len(a[0])
    return "".join(
        f"{head},{i},{x}{gi},{fi},{dl},{du},{el},{eu}\n"
        for i, x, gi, fi, dl, du, el, eu in zip(
            index,
            [template % x for x in a],
            g,
            map(add, g, map(sum, a)),
            [f"{v / scale:.12g}" for v in lowers],
            [f"{v / scale:.12g}" for v in uppers],
            _exact_column(lowers, bits),
            _exact_column(uppers, bits),
        )
    )


def _write_header(handle: IO[str], configs: Sequence[ExperimentConfig]) -> None:
    n = configs[0].n
    if any(config.n != n for config in configs):
        raise ValidationError("cannot mix dimensions in one CSV file")
    handle.write(",".join(csv_header(n)) + "\n")


def write_records_csv(
    handle: IO[str],
    runs: Iterable[tuple[ExperimentConfig, Sequence[SampleRecord]]],
) -> None:
    """Write one or more (config, records) runs as a single CSV stream.

    All runs must share the same n so the header is well defined, and a
    run's records must carry its config's bits.  Each run's rows come from
    one _csv_rows call, which prints f as g + sum(a).
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("nothing to export")
    for config, records in runs:
        _check_records(config, records)
    _write_header(handle, [config for config, _ in runs])
    for config, records in runs:
        if records:
            handle.write(
                _csv_rows(
                    f"{config.n},{config.T},{config.seed}",
                    [r.index for r in records],
                    [r.instance.a for r in records],
                    [r.g for r in records],
                    [r.lower for r in records],
                    [r.upper for r in records],
                    config.bits,
                )
            )


def summary_json_dict(summary: ExperimentSummary) -> dict:
    """JSON-ready mirror of a summary, exact values as p/q strings."""
    return {
        "config": {
            "n": summary.n,
            "T": summary.T,
            "count": summary.count,
            "seed": summary.seed,
            "epsilon": str(summary.epsilon),
            "thresholds": [str(t) for t in summary.thresholds],
            "bits": summary.bits,
        },
        "alpha_theoretical": str(summary.alpha_theoretical),
        "fitted_slope": summary.fitted_slope,
        "empirical_mean": {
            "ratio_upper": str(summary.mean_upper),
            "ratio_lower": str(summary.mean_lower),
            "ratio_upper_decimal": _decimal12(summary.mean_upper),
            "ratio_lower_decimal": _decimal12(summary.mean_lower),
        },
        "empirical_tail": {
            "ratio_upper": [
                {"t": str(t), "survival": str(s), "survival_decimal": _decimal12(s)}
                for t, s in summary.survival_upper
            ],
            "ratio_lower": [
                {"t": str(t), "survival": str(s), "survival_decimal": _decimal12(s)}
                for t, s in summary.survival_lower
            ],
        },
        "flags": list(summary.flags),
    }
