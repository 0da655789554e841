"""Workloads, metric names and input generation for the knapgap benchmark.

Importing this module does not import knapgap, so run.py can report a
missing source tree cleanly; input generation imports it on first use.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# name -> (unit, better, bound).  Bounds are shares of the parent's median.
# Times are reported at the reference host speed (see host_slowdown).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "records_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# name -> (unit, better, workload kinds it applies to).  On other kinds the
# traced run has no such span and reports 0.
_SAMPLING = ("cli",)
_GAP = ("gap",)
PER_LAYER = {
    "instances.draw_s": ("s", "lower", _SAMPLING),
    "instances.draws": ("count", "lower", _SAMPLING),
    "instances.gcd_attempts": ("count", "lower", _SAMPLING),
    "instances.accept_ratio": ("ratio", "higher", _SAMPLING),
    "group.frobenius_s": ("s", "lower", _SAMPLING),
    "group.frobenius_calls": ("count", "lower", _SAMPLING),
    "group.residues": ("count", "lower", _SAMPLING),
    "group.ns_per_residue": ("ns", "lower", _SAMPLING),
    "group.minima_s": ("s", "lower", _GAP),
    "group.tight_tree_s": ("s", "lower", _GAP),
    "core.reduction_s": ("s", "lower", _GAP),
    "gap.exact_s": ("s", "lower", _GAP),
    "gap.calls": ("count", "lower", _GAP),
    "gap.scan_cells": ("count", "lower", _GAP),
    "gap.scan_s": ("s", "lower", _GAP),
    "gap.ns_per_scan_cell": ("ns", "lower", _GAP),
    "bounds.check_s": ("s", "lower", _GAP),
    "bounds.calls": ("count", "lower", _GAP),
    "rounding.pow_bounds_s": ("s", "lower", _SAMPLING),
    "rounding.pow_bounds_calls": ("count", "lower", _SAMPLING),
    "rounding.cache_hit_ratio": ("ratio", "higher", _SAMPLING),
    "experiments.bracket_s": ("s", "lower", _SAMPLING),
    "experiments.bracket_calls": ("count", "lower", _SAMPLING),
    "experiments.summarize_s": ("s", "lower", _SAMPLING),
    "experiments.csv_s": ("s", "lower", _SAMPLING),
    "experiments.csv_bytes": ("bytes", "lower", _SAMPLING),
    "experiments.json_s": ("s", "lower", _SAMPLING),
    "experiments.sample_records_s": ("s", "lower", _SAMPLING),
    "experiments.record_busy_s": ("s", "lower", _SAMPLING),
    "experiments.pool_efficiency": ("ratio", "higher", _SAMPLING),
    "cli.self_s": ("s", "lower", _SAMPLING),
    "trace.wall_s": ("s", "lower", _SAMPLING + _GAP),
    "trace.overhead_s": ("s", "lower", _SAMPLING + _GAP),
}

# Population quantiles of lex_threshold (a lower bound on the tightness
# threshold B*, equal to it on every instance checked) for each gap class,
# at 0, 9, 18, ..., 90 percent.  Drawn at T = 2000 under seed 999999,
# 1000 instances per n.  Regenerate with
#     PYTHONPATH=src python3 perfbench/child.py bands
GAP_BANDS = {
    "3/frobenius": [0, 11297, 19380, 27569, 34925, 43923, 53776, 64685, 79728, 96560, 126775],
    "3/rational": [0, 17157, 27753, 37948, 48755, 62887, 77076, 93100, 112615, 148499, 227753],
    "4/frobenius": [0, 5366, 8797, 11585, 14701, 17537, 20787, 24931, 27886, 33031, 39916],
    "4/rational": [0, 9662, 15293, 20610, 26036, 30744, 36167, 42653, 50434, 62335, 91388],
}

WORKLOADS = {
    # Acceptance criterion 9's run; the residue kernel does ~75% of the work.
    "tail_n3_T2000_j1": {
        "kind": "cli",
        "argv": ["tail", "--n", "3", "--t", "2000", "--count", "10000",
                 "--epsilon", "4/5", "--jobs", "1"],
    },
    # Many tiny residue tables: per-call overhead, Fractions, the pool.
    "mean_n5_small_j2": {
        "kind": "cli",
        "argv": ["mean", "--n", "5", "--t", "25,50,100,200", "--count", "2500",
                 "--epsilon", "1/2", "--jobs", "2"],
    },
    # Exact gaps on single instances; the Fraction scan below B* dominates.
    "gap_n34_T2000": {
        "kind": "gap",
        "T": 2000,
        "ns": [3, 4],
        "bands": GAP_BANDS,
        "max_draws": 400,
    },
}

DEFAULT_THRESHOLDS = ["1", "3/2", "2", "3", "4", "6", "8"]
DEFAULT_BITS = 60


def cli_run(spec: dict, seed: int, out: str, *, jobs: int | None = None) -> tuple[list[str], dict]:
    """The knapgap argv for one run of a sampling workload, and its
    parameters in the form oracle.check_sampling_output takes."""
    argv = list(spec["argv"])
    if jobs is not None:
        argv[argv.index("--jobs") + 1] = str(jobs)
    argv += ["--seed", str(seed), "--format", "json", "--out", out]
    opt = dict(zip(argv[1::2], argv[2::2]))
    params = {
        "command": argv[0],
        "n": int(opt["--n"]),
        "T": [int(t) for t in opt["--t"].split(",")],
        "count": int(opt["--count"]),
        "seed": seed,
        "epsilon": opt["--epsilon"],
        "thresholds": DEFAULT_THRESHOLDS,
        "bits": DEFAULT_BITS,
        "out": out,
        "jobs": int(opt["--jobs"]),
    }
    return argv, params


def records_per_run(params: dict) -> int:
    return params["count"] * len(params["T"])


def rational_cost(seed: int, index: int, n: int) -> tuple[Fraction, ...]:
    rng = random.Random(f"gap:{seed}:{index}")
    return tuple(Fraction(rng.randint(-5, 15), rng.randint(1, 8)) for _ in range(n))


def _candidates(seed: int, n: int, T: int):
    """Instances draw_instance(seed, i, n, T) with n alternating 3 and 4
    over i, each with its Frobenius cost and a seeded rational cost."""
    from knapgap import draw_instance, frobenius_cost

    index = n - 3
    while True:
        inst, _ = draw_instance(seed, index, n, T)
        costs = {"frobenius": frobenius_cost(inst), "rational": rational_cost(seed, index, n)}
        yield index, inst, costs
        index += 2


def gap_inputs(spec: dict, seed: int) -> list[dict]:
    """One instance-cost pair per band of each class (n, cost kind).

    Candidates are drawn in index order and each fills the band its
    lex_threshold falls in, if that band is still empty, so every seed
    yields the same spread of scan sizes, from small up to the class's 90th
    percentile.  A band still empty after max_draws candidates takes the
    nearest candidate.
    """
    from oracle import lex_threshold

    picked = []
    for n in spec["ns"]:
        kinds = [k for k in ("frobenius", "rational") if f"{n}/{k}" in spec["bands"]]
        slots = {k: [None] * (len(spec["bands"][f"{n}/{k}"]) - 1) for k in kinds}
        nearest: dict = {}
        for drawn, (index, inst, costs) in enumerate(_candidates(seed, n, spec["T"])):
            open_kinds = [k for k in kinds if None in slots[k]]
            if not open_kinds or drawn == spec["max_draws"]:
                break
            for kind in open_kinds:
                edges = spec["bands"][f"{n}/{kind}"]
                size = lex_threshold(inst.a, list(costs[kind]))
                pair = (index, inst, costs[kind])
                for j, slot in enumerate(slots[kind]):
                    if slot is not None:
                        continue
                    if edges[j] <= size < edges[j + 1]:
                        slots[kind][j] = pair
                        break
                    miss = min(abs(size - edges[j]), abs(size - edges[j + 1]))
                    if (kind, j) not in nearest or miss < nearest[kind, j][0]:
                        nearest[kind, j] = (miss, pair)
        for kind in kinds:
            for j, slot in enumerate(slots[kind]):
                index, inst, cost = slot if slot is not None else nearest[kind, j][1]
                picked.append({
                    "band": j,
                    "class": f"{n}/{kind}",
                    "index": index,
                    "a": list(inst.a),
                    "c": [str(x) for x in cost],
                })
    picked.sort(key=lambda p: (p["band"], p["class"]))
    return picked


def derive_band_edges(T: int = 2000, ns=(3, 4), seed: int = 999999, draws: int = 1000,
                      bands: int = 10, top: float = 0.9) -> dict:
    """Population quantiles of lex_threshold for each class (see GAP_BANDS)."""
    from oracle import lex_threshold

    edges = {}
    for n in ns:
        sizes: dict[str, list[int]] = {"frobenius": [], "rational": []}
        for drawn, (_, inst, costs) in enumerate(_candidates(seed, n, T)):
            if drawn == draws:
                break
            for kind, cost in costs.items():
                sizes[kind].append(lex_threshold(inst.a, list(cost)))
        for kind, values in sizes.items():
            values.sort()
            cuts = [values[int(top * j / bands * len(values))] for j in range(1, bands + 1)]
            edges[f"{n}/{kind}"] = [0] + cuts
    return edges


# Seconds one calibration chunk takes on an unloaded core of the host this
# benchmark was tuned on (Xeon, CPython 3.11).
CALIBRATION_CHUNK_S = 1.1e-3


def _calibration_chunk() -> float:
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return perf_counter() - start


def host_slowdown(seconds: float) -> float:
    """How much slower than the reference speed the host runs right now.

    The CPU speed of a shared host drifts by ±25% over tens of seconds, more
    than any change worth measuring, and it moves a fixed pure-Python loop
    and knapgap alike.  Timed sections are therefore bracketed by this
    probe, and every reported time is the raw time divided by the mean
    slowdown around it; the raw times stay in the result file.
    """
    chunks = []
    end = perf_counter() + seconds
    while not chunks or perf_counter() < end:
        chunks.append(_calibration_chunk())
    return statistics.median(chunks) / CALIBRATION_CHUNK_S


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it.  Below 20 samples no percentile at or above
    the median has ten beyond it, so the upper quartile stands in."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        if count == 1:
            return ordered[0], 75.0, 1
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0, count
    k = count - 11
    return ordered[k], 100.0 * (k + 1) / count, count
