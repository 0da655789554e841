"""Reference values for the benchmark, computed apart from the code under test.

Nothing here calls the residue kernel, `gap_exact` or the experiment
harness.  The sampling checks redraw every instance from the Philox stream,
take g from the package's sieve oracle (a bitset sieve that shares no code
with the residue tables), and test each certified ratio with exact integer
powers.  The gap checks use a direct dynamic program over right hand sides
in costs scaled to integers.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from fractions import Fraction

from numpy.random import Philox

# Certified ratios may sit up to 2**RATIO_SLACK_BITS units of 2**-bits
# inside the true bracket; the package's own rounding error is a few units.
RATIO_SLACK_BITS = 16


def redraw(seed: int, index: int, n: int, T: int) -> tuple[int, ...]:
    """The coefficient tuple owned by (seed, index), per the sampler's contract:
    Philox counter block index << 128, mask rejection on raw 64-bit words,
    tuples retried until their gcd is 1."""
    gen = Philox(key=seed, counter=index << 128)
    raw: list[int] = []
    mask = (1 << (T - 1).bit_length()) - 1
    while True:
        values = []
        while len(values) < n:
            if not raw:
                raw = [int(v) for v in gen.random_raw(16)][::-1]
            v = raw.pop() & mask
            if v < T:
                values.append(v + 1)
        if math.gcd(*values) == 1:
            return tuple(values)


def _within(value: Fraction, truth_q: int, scale: int, power: int, q: int,
            slack: Fraction, below: bool) -> bool:
    """Is value on the stated side of truth = truth_q**(1/q) / (scale * N**(p/q)),
    and no further than slack from it?  power is N**p, all exact."""

    def times_denominator_to_q(x: Fraction) -> Fraction:
        return (x * scale) ** q * power

    if below:
        return times_denominator_to_q(value) <= truth_q < times_denominator_to_q(value + slack)
    return times_denominator_to_q(value) >= truth_q > times_denominator_to_q(value - slack)


def check_record_row(row: list[str], run: dict, T: int, index: int, sieve) -> str | None:
    """Check one record CSV row from scratch; return a reason or None."""
    n, bits = run["n"], run["bits"]
    a = redraw(run["seed"], index, n, T)
    expected_head = [str(n), str(T), str(run["seed"]), str(index), *map(str, a)]
    if row[: 4 + n] != expected_head:
        return f"row {index}: expected leading columns {expected_head}, got {row[: 4 + n]}"
    g_text, f_text, lo_dec, hi_dec, lo_text, hi_text = row[4 + n :]
    g = sieve(a)
    if g_text != str(g) or f_text != str(g + sum(a)):
        return f"row {index}: g/f {g_text}/{f_text}, sieve gives g = {g}"
    lower, upper = Fraction(lo_text), Fraction(hi_text)
    if (1 << bits) % lower.denominator or (1 << bits) % upper.denominator:
        return f"row {index}: ratios are not dyadic with denominator 2**{bits}"
    if lo_dec != format(float(lower), ".12g") or hi_dec != format(float(upper), ".12g"):
        return f"row {index}: decimal columns disagree with the exact columns"
    epsilon = Fraction(run["epsilon"])
    p, q = epsilon.numerator, epsilon.denominator
    power = max(a) ** p
    slack = Fraction(1, 1 << (bits - RATIO_SLACK_BITS))
    total = sum(a)
    # true lower = (g + a_n) / (||a||^eps * (a_1 + ... + a_{n-1}))
    if not _within(lower, (g + a[-1]) ** q, total - a[-1], power, q, slack, below=True):
        return f"row {index}: ratio_lower {lower} is not a tight lower bracket"
    # true upper = f / (||a||^eps * min(a))
    if not _within(upper, (g + total) ** q, min(a), power, q, slack, below=False):
        return f"row {index}: ratio_upper {upper} is not a tight upper bracket"
    return None


def _fit_slope(survival: list[tuple[Fraction, Fraction]], count: int) -> float | None:
    pts = [
        (math.log(float(t)), math.log(float(s)))
        for t, s in survival
        if s > 0 and s * count >= 100
    ]
    if len(pts) < 2:
        return None
    xbar = sum(x for x, _ in pts) / len(pts)
    ybar = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - xbar) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - xbar) * (y - ybar) for x, y in pts) / sxx


def expected_summary(run: dict, T: int, lowers: list[Fraction], uppers: list[Fraction]) -> dict:
    """The summary document the definitions give for one T's records."""
    n, count = run["n"], run["count"]
    epsilon = Fraction(run["epsilon"])
    thresholds = [Fraction(t) for t in run["thresholds"]]

    def d12(x: Fraction) -> str:
        return format(float(x), ".12g")

    def tail(values: list[Fraction]) -> list[dict]:
        survival = [(t, Fraction(sum(1 for v in values if v > t), count)) for t in thresholds]
        return [{"t": str(t), "survival": str(s), "survival_decimal": d12(s)} for t, s in survival]

    mean_hi, mean_lo = sum(uppers, Fraction(0)) / count, sum(lowers, Fraction(0)) / count
    flags = []
    if epsilon * n <= 2:
        flags.append("epsilon_at_or_below_2_over_n")
    if T == 1:
        flags.append("degenerate_T1")
    surv_hi = tail(uppers)
    return {
        "config": {
            "n": n,
            "T": T,
            "count": count,
            "seed": run["seed"],
            "epsilon": str(epsilon),
            "thresholds": [str(t) for t in thresholds],
            "bits": run["bits"],
        },
        "alpha_theoretical": str(Fraction(n - 2) / ((1 - epsilon) * n)),
        "fitted_slope": _fit_slope([(Fraction(x["t"]), Fraction(x["survival"])) for x in surv_hi], count),
        "empirical_mean": {
            "ratio_upper": str(mean_hi),
            "ratio_lower": str(mean_lo),
            "ratio_upper_decimal": d12(mean_hi),
            "ratio_lower_decimal": d12(mean_lo),
        },
        "empirical_tail": {"ratio_upper": surv_hi, "ratio_lower": tail(lowers)},
        "flags": flags,
    }


def _same_summary(got: dict, want: dict) -> bool:
    """Equal documents, except that the float slope may differ in its last bits."""
    got = {k: v for k, v in got.items() if k != "records_csv"}
    want = dict(want)
    gs, ws = got.pop("fitted_slope", None), want.pop("fitted_slope")
    if (gs is None) != (ws is None):
        return False
    if gs is not None and not math.isclose(gs, ws, rel_tol=1e-9, abs_tol=1e-12):
        return False
    return got == want


def check_sampling_output(stdout: bytes, records_csv: bytes, run: dict, sieve) -> str | None:
    """Verify a tail or mean run from scratch; return a reason or None.

    run holds the command's parameters: command (tail or mean), n, T (a
    list), count, seed, epsilon, thresholds, bits and out (the --out path).
    """
    n, count = run["n"], run["count"]
    rows = list(csv.reader(io.StringIO(records_csv.decode("utf-8"))))
    header = ["n", "T", "seed", "index", *[f"a_{i}" for i in range(1, n + 1)], "g", "f",
              "ratio_lower", "ratio_upper", "ratio_lower_exact", "ratio_upper_exact"]
    if not rows or rows[0] != header:
        return "records CSV header is wrong"
    body = rows[1:]
    if len(body) != count * len(run["T"]):
        return f"records CSV has {len(body)} rows, expected {count * len(run['T'])}"
    summaries = []
    for k, T in enumerate(run["T"]):
        block = body[k * count : (k + 1) * count]
        for index, row in enumerate(block):
            reason = check_record_row(row, run, T, index, sieve)
            if reason:
                return f"T = {T}: {reason}"
        lowers = [Fraction(row[-2]) for row in block]
        uppers = [Fraction(row[-1]) for row in block]
        summaries.append(expected_summary(run, T, lowers, uppers))
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if doc.get("records_csv") != run["out"]:
        return "records_csv path is wrong"
    if run["command"] == "tail":
        got = [doc]
    else:
        got = doc.get("summaries", [])
        config = {"n": n, "T_ladder": run["T"], "count": count, "seed": run["seed"],
                  "epsilon": run["epsilon"]}
        if doc.get("config") != config or set(doc) != {"config", "summaries", "records_csv"}:
            return "mean config block is wrong"
    if len(got) != len(summaries):
        return "wrong number of summaries"
    for g, want in zip(got, summaries):
        if not _same_summary(g, want):
            return f"summary for T = {want['config']['T']} disagrees with the records"
    return None


# ---------------------------------------------------------------- gap


def _scaled(a: tuple[int, ...], c: list[Fraction]) -> tuple[list[int], int]:
    """Integer costs C = D * c and the first position minimizing c_i / a_i."""
    scale = math.lcm(*(x.denominator for x in c))
    costs = [int(x * scale) for x in c]
    ratios = [Fraction(ci, ai) for ci, ai in zip(costs, a)]
    return costs, ratios.index(min(ratios))


def lex_threshold(a: tuple[int, ...], c: list[Fraction]) -> int:
    """max over residues r mod a_tau of the smallest load among the
    cheapest reduced-cost solutions in class r.

    A lower bound on the tightness threshold B* (every tight-tree witness
    is one of those cheapest solutions), computed by a Dijkstra with
    lexicographic (reduced cost, load) labels.  The benchmark uses it to
    stratify instances by scan size without asking the code under test.
    """
    costs, tau = _scaled(a, c)
    m = a[tau]
    arcs = [(aj % m, costs[j] * m - costs[tau] * aj, aj) for j, aj in enumerate(a) if j != tau]
    best: list[tuple[int, int] | None] = [None] * m
    best[0] = (0, 0)
    heap = [(0, 0, 0)]
    while heap:
        cost, load, r = heapq.heappop(heap)
        if best[r] != (cost, load):
            continue
        for step, w, gen in arcs:
            nr = (r + step) % m
            label = (cost + w, load + gen)
            old = best[nr]
            if old is None or label < old:
                best[nr] = label
                heapq.heappush(heap, (*label, nr))
    return max(label[1] for label in best)  # type: ignore[index]


def gap_fields(a: tuple[int, ...], c: list[Fraction], threshold: int) -> dict[str, str | int] | str:
    """GapReport fields by direct sweep of IG(b) = IP(b) - LP(b) up to
    threshold + 2 * a_tau, in integer-scaled costs.

    Returns gap, witness_b, tail_gap and scan_gap as the definitions give
    them for this threshold, or a reason string when the threshold is
    wrong: IG must be periodic with period a_tau from the threshold on.
    """
    costs, tau = _scaled(a, c)
    m, c_tau = a[tau], costs[tau]
    b_max = threshold + 2 * m
    inf = None
    value: list[int | None] = [inf] * (b_max + 1)
    value[0] = 0
    pairs = sorted(zip(a, costs))
    for t in range(1, b_max + 1):
        best = inf
        for ai, ci in pairs:
            if ai > t:
                break
            prev = value[t - ai]
            if prev is not None and (best is None or prev + ci < best):
                best = prev + ci
        value[t] = best
    # IG(b) * scale * a_tau, an integer; None where b is not representable
    ig = [None if v is None else m * v - c_tau * b for b, v in enumerate(value)]
    for b in range(threshold, b_max - m + 1):
        if ig[b] is None or ig[b] != ig[b + m]:
            return f"IG is not periodic from threshold {threshold} (b = {b})"
    den = math.lcm(*(x.denominator for x in c)) * m
    top = max(x for x in ig if x is not None)
    return {
        "gap": str(Fraction(top, den)),
        "witness_b": ig.index(top),
        "threshold": threshold,
        "tail_gap": str(Fraction(max(ig[threshold : threshold + m]), den)),
        "scan_gap": str(Fraction(max([0] + [x for x in ig[:threshold] if x is not None]), den)),
    }
