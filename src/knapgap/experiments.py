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
exact CSV columns print N / 2**bits in lowest terms by shifting the common
power of two out of N, which gives the same string as the Fraction.

The theoretical backdrop: for n >= 3 the sampled fraction of instances with
ratio above t decays at least like t^(-alpha) with
alpha = (n - 2) / ((1 - epsilon) n), so means are bounded once
epsilon > 2/n, while for epsilon = 1/(n-1) the lower bracket's mean stays
bounded away from zero.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Sequence

from .core import KnapsackInstance, RationalLike, as_fraction
from .errors import (
    BadEpsilon,
    DimensionTooSmall,
    InsufficientSamples,
    ValidationError,
)
from .group import frobenius
from .guardrail import cell_cap
from .instances import draw_instance
from .rounding import DEFAULT_BITS, pow_numerators

# Not called here since _norm_power works on ints; perfbench's traced runs
# still wrap this name where it used to be looked up, so it stays importable.
from .rounding import pow_bounds  # noqa: F401

MIN_TAIL_SAMPLES = 100


def tail_exponent(epsilon: RationalLike, n: int) -> Fraction:
    """Exact tail exponent (n - 2) / ((1 - epsilon) * n), for n >= 3."""
    eps = as_fraction(epsilon, "epsilon")
    if not 0 < eps < 1:
        raise BadEpsilon(f"epsilon = {eps} must lie strictly between 0 and 1")
    if n < 3:
        raise DimensionTooSmall(f"n = {n} < 3, the tail exponent degenerates")
    return Fraction(n - 2) / ((1 - eps) * n)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling plus normalization parameters for one experiment run."""

    n: int
    T: int
    count: int
    seed: int
    epsilon: Fraction
    thresholds: tuple[Fraction, ...] = ()
    bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DimensionTooSmall(f"n = {self.n} < 2")
        if self.T < 1:
            raise ValidationError(f"T = {self.T} < 1")
        if self.count < 1:
            raise ValidationError(f"count = {self.count} < 1")
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon, "epsilon"))
        if not 0 < self.epsilon < 1:
            raise BadEpsilon(
                f"epsilon = {self.epsilon} must lie strictly between 0 and 1"
            )
        object.__setattr__(
            self,
            "thresholds",
            tuple(as_fraction(t, "threshold") for t in self.thresholds),
        )
        for t in self.thresholds:
            if t <= 0:
                raise ValidationError(f"threshold t = {t} must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")
        if self.bits < 8:
            raise ValidationError(f"bits = {self.bits} too small for sound rounding")


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
    inst: KnapsackInstance, epsilon: Fraction, bits: int, g: int
) -> tuple[int, int]:
    """Numerators over 2**bits of the outward-rounded bracket.

    With ||a||_inf^epsilon in [P_lo, P_hi] / 2**bits, the lower bracket is
    floor((g + a_n) * 4**bits / (P_hi * head)) and the upper one
    ceil(f * 4**bits / (min(a) * P_lo)), both over 2**bits.
    """
    total = sum(inst.a)
    p_lo, p_hi = _norm_power(
        inst.norm_inf, epsilon.numerator, epsilon.denominator, bits
    )
    head = total - inst.a[-1]
    lower = ((g + inst.a[-1]) << 2 * bits) // (p_hi * head)
    upper = -((-(g + total) << 2 * bits) // (inst.min_entry * p_lo))
    return lower, upper


def bracket_ratios(
    inst: KnapsackInstance,
    epsilon: Fraction,
    bits: int = DEFAULT_BITS,
    *,
    g: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Certified (ratio_lower, ratio_upper) bracket for one instance.

    The returned values are dyadic rationals with denominator 2**bits; the
    lower one never exceeds the true lower bracket and the upper one never
    undercuts the true upper bracket, so downstream exact comparisons keep
    their direction.
    """
    if g is None:
        g = frobenius(inst)
    lower, upper = _bracket_numerators(inst, epsilon, bits, g)
    return Fraction(lower, 1 << bits), Fraction(upper, 1 << bits)


def _record(config: ExperimentConfig, index: int, max_cells: int) -> SampleRecord:
    """compute_record with the guardrail cap already resolved."""
    inst, _ = draw_instance(config.seed, index, config.n, config.T)
    g = frobenius(inst, max_cells=max_cells)
    lower, upper = _bracket_numerators(inst, config.epsilon, config.bits, g)
    return SampleRecord(
        index=index,
        instance=inst,
        g=g,
        f=g + sum(inst.a),
        lower=lower,
        upper=upper,
        bits=config.bits,
    )


def compute_record(config: ExperimentConfig, index: int) -> SampleRecord:
    """Deterministically compute the record owned by (config.seed, index)."""
    return _record(config, index, cell_cap())


def _record_batch(args: tuple[ExperimentConfig, int, int]) -> list[SampleRecord]:
    # One guardrail lookup per batch: reading the environment costs more
    # than checking a record's table against the cap.
    config, start, stop = args
    cap = cell_cap()
    return [_record(config, i, cap) for i in range(start, stop)]


def _sample(
    configs: Sequence[ExperimentConfig], jobs: int
) -> list[list[SampleRecord]]:
    """Every config's records in index order, from at most one pool.

    A config splits into up to jobs index ranges when it has at least
    2 * jobs records.  When any config splits, one pool runs the ranges of
    all configs in order and each config's records are reassembled from its
    own ranges; otherwise everything runs in this process.  Ranges come
    back in order, so a failing record raises the same error as at jobs 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs = {jobs} must be >= 1")
    chunks = []
    owners = []
    for k, config in enumerate(configs):
        parts = jobs if config.count >= 2 * jobs else 1
        step = -(-config.count // parts)
        for start in range(0, config.count, step):
            chunks.append((config, start, min(start + step, config.count)))
            owners.append(k)
    if len(chunks) == len(configs):
        return [_record_batch(chunk) for chunk in chunks]
    import multiprocessing  # about 10 ms, paid only when a pool is made

    batches: list[list[SampleRecord]] = [[] for _ in configs]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(jobs) as pool:
        for k, part in zip(owners, pool.imap(_record_batch, chunks)):
            batches[k].extend(part)
    return batches


def sample_records(config: ExperimentConfig, jobs: int = 1) -> list[SampleRecord]:
    """All records for a config, in index order, optionally in parallel.

    Record i depends only on (seed, i), so any partition of the index range
    across workers reassembles to the same list; jobs changes wall time,
    never output.  This is the one-config case of the sampler that
    mean_experiment runs on its whole ladder.
    """
    return _sample([config], jobs)[0]


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


def _survival(
    values: Sequence[int], thresholds: Sequence[Fraction], count: int, bits: int
) -> tuple[tuple[Fraction, Fraction], ...]:
    ordered = sorted(values)
    # bisect_right counts the values <= the cut, so the rest lie strictly above t.
    return tuple(
        (t, Fraction(count - bisect_right(ordered, _cut(t, bits)), count))
        for t in thresholds
    )


def _fit_slope(
    survival: Sequence[tuple[Fraction, Fraction]], count: int
) -> float | None:
    pts = [
        (math.log(float(t)), math.log(float(frac)))
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


def summarize(
    config: ExperimentConfig, records: Sequence[SampleRecord]
) -> ExperimentSummary:
    """Aggregate records into survival fractions, a tail fit and exact means.

    Every record must carry config.bits.
    """
    bits = config.bits
    if any(r.bits != bits for r in records):
        raise ValidationError(f"records must all carry bits = {bits}")
    count = len(records)
    uppers = [r.upper for r in records]
    lowers = [r.lower for r in records]
    survival_upper = _survival(uppers, config.thresholds, count, bits)
    survival_lower = _survival(lowers, config.thresholds, count, bits)
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
        mean_upper=Fraction(sum(uppers), count << bits),
        mean_lower=Fraction(sum(lowers), count << bits),
        alpha_theoretical=tail_exponent(config.epsilon, config.n),
        flags=tuple(flags),
    )


def tail_experiment(
    config: ExperimentConfig, jobs: int = 1
) -> tuple[ExperimentSummary, list[SampleRecord]]:
    """Sample and fit the upper bracket's survival tail.

    Requires n >= 3 and at least one threshold; raises InsufficientSamples
    when fewer than MIN_TAIL_SAMPLES records exceed the smallest threshold
    or when fewer than two thresholds qualify for the fit.
    """
    if config.n < 3:
        raise DimensionTooSmall(f"n = {config.n} < 3, tail law needs n >= 3")
    if not config.thresholds:
        raise ValidationError("tail experiment needs at least one threshold")
    records = sample_records(config, jobs)
    smallest = min(config.thresholds)
    cut = _cut(smallest, config.bits)
    above = sum(1 for r in records if r.upper > cut)
    if above < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"only {above} of {config.count} samples above t = {smallest}, "
            f"need {MIN_TAIL_SAMPLES}"
        )
    summary = summarize(config, records)
    if summary.fitted_slope is None:
        raise InsufficientSamples(
            "fewer than two thresholds kept enough samples to fit a slope"
        )
    return summary, records


def mean_experiment(
    configs: Sequence[ExperimentConfig], jobs: int = 1
) -> tuple[list[ExperimentSummary], list[list[SampleRecord]]]:
    """Exact bracket means along a ladder of sampling boxes.

    Intended for a fixed (n, epsilon, count, seed) with increasing T; each
    config is summarized independently.  All configs are sampled together,
    through one worker pool when jobs > 1 (the pool's start-up would
    otherwise be paid once per T), and the output is the same for every
    jobs.  Configs with epsilon <= 2/n are processed but flagged, since only
    larger epsilon guarantees a bounded mean in the limit.
    """
    if not configs:
        raise ValidationError("mean experiment needs at least one config")
    for config in configs:
        if config.n < 3:
            raise DimensionTooSmall(f"n = {config.n} < 3, mean law needs n >= 3")
    batches = _sample(configs, jobs)
    summaries = [summarize(c, records) for c, records in zip(configs, batches)]
    return summaries, batches


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


def _dyadic_str(numerator: int, bits: int) -> str:
    """str(Fraction(numerator, 2**bits)) without a gcd: the gcd is the
    power of two that divides numerator, capped at 2**bits."""
    shift = min(bits, (numerator & -numerator).bit_length() - 1)
    if shift < 0:  # numerator == 0
        return "0"
    if shift == bits:
        return str(numerator >> bits)
    return f"{numerator >> shift}/{1 << (bits - shift)}"


def write_records_csv(
    handle: IO[str],
    runs: Iterable[tuple[ExperimentConfig, Sequence[SampleRecord]]],
) -> None:
    """Write one or more (config, records) runs as a single CSV stream.

    All runs must share the same n so the header is well defined.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("nothing to export")
    n = runs[0][0].n
    if any(cfg.n != n for cfg, _ in runs):
        raise ValidationError("cannot mix dimensions in one CSV file")
    # No field ever needs quoting, so each row is one formatted line.
    handle.write(",".join(csv_header(n)) + "\n")
    for config, records in runs:
        head = f"{config.n},{config.T},{config.seed}"
        handle.writelines(
            f"{head},{r.index},{','.join(map(str, r.instance.a))},{r.g},{r.f},"
            f"{r.lower / (1 << r.bits):.12g},{r.upper / (1 << r.bits):.12g},"
            f"{_dyadic_str(r.lower, r.bits)},{_dyadic_str(r.upper, r.bits)}\n"
            for r in records
        )


def export_records_csv(
    path: str | Path,
    runs: Iterable[tuple[ExperimentConfig, Sequence[SampleRecord]]],
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_records_csv(handle, runs)


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


def summary_to_json(summary: ExperimentSummary) -> str:
    return json.dumps(summary_json_dict(summary), indent=2)
