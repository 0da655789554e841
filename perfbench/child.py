"""Child processes of the benchmark; run.py starts them with PYTHONPATH=src.

    child.py setup SPEC SEED                      import knapgap, build inputs, exit
    child.py verify-sampling PARAMS STDOUT CSV OUT
    child.py gap-reference SPEC SEED OUT
    child.py gap-worker SPEC SEED SECONDS TRACE REF OUT SPANS
    child.py traced-cli PARAMS OUT SPANS -- KNAPGAP-ARGV...
    child.py bands                                print GAP_BANDS for bench.py

SPEC and PARAMS are JSON strings; OUT files receive one JSON document.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import bench
import spans

# Seconds of host-speed probe between two gap pairs.
CALIBRATION_S = 0.02


def _write(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def setup(spec: dict, seed: int) -> None:
    import knapgap.cli  # noqa: F401  (what `python -m knapgap` loads)

    if spec["kind"] == "gap":
        bench.gap_inputs(spec, seed)


def verify_sampling(params: dict, stdout_path: str, csv_path: str, out: str) -> None:
    from knapgap import KnapsackInstance, frobenius_sieve_oracle

    import oracle

    reason = oracle.check_sampling_output(
        Path(stdout_path).read_bytes(),
        Path(csv_path).read_bytes(),
        params,
        lambda a: frobenius_sieve_oracle(KnapsackInstance(a)),
    )
    _write(out, {"reason": reason})


def gap_reference(spec: dict, seed: int, out: str) -> None:
    """Reference fields for every gap input.  The threshold is the
    package's B*, accepted only when it is at least lex_threshold and IG is
    periodic from it on; every other field comes from the direct sweep."""
    from knapgap import KnapsackInstance, basis_reduction, group_minima, tightness_threshold

    import oracle

    pairs = []
    for pair in bench.gap_inputs(spec, seed):
        inst = KnapsackInstance(tuple(pair["a"]))
        cost = [Fraction(x) for x in pair["c"]]
        red = basis_reduction(inst, cost)
        threshold = tightness_threshold(group_minima(inst, red.tau, red.l))
        if threshold < oracle.lex_threshold(inst.a, cost):
            fields = f"threshold {threshold} is below lex_threshold"
        else:
            fields = oracle.gap_fields(inst.a, cost, threshold)
        pairs.append({**pair, "fields": fields})
    _write(out, {"pairs": pairs})


def gap_worker(spec: dict, seed: int, seconds: float, trace: bool, ref_path: str, out: str,
               spans_path: str) -> None:
    """Closed loop of passes over the gap inputs: gap_exact, then
    check_bounds, one pair after the other, for at least two passes.  A
    host-speed probe runs between pairs, outside the timed calls.  With
    trace, every second pass is traced, so traced and untraced passes
    interleave."""
    from knapgap import KnapsackInstance, check_bounds, gap_exact

    pairs = bench.gap_inputs(spec, seed)
    ref = json.loads(Path(ref_path).read_text(encoding="utf-8"))["pairs"]
    if [(p["a"], p["c"]) for p in pairs] != [(r["a"], r["c"]) for r in ref]:
        raise SystemExit("gap inputs differ from the reference's inputs")
    work = [(KnapsackInstance(tuple(r["a"])), tuple(map(Fraction, r["c"])), r["fields"]) for r in ref]

    tracer = spans.Tracer(f"gap-{seed}-{os.getpid()}")
    latencies: list[list[float]] = [[] for _ in work]
    raw_latencies: list[list[float]] = [[] for _ in work]
    passes = []
    failures: list[str] = []
    attempted = 0
    start = perf_counter()
    slow = bench.host_slowdown(CALIBRATION_S)
    while len(passes) < 2 or perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        exact, check = gap_exact, check_bounds
        restore = None
        if traced:
            restore = spans.install(tracer, spans.GAP_TARGETS)
            exact = tracer.wrap(gap_exact, "gap_exact",
                                lambda args, rep: {"cells": rep.threshold * args[0].n})
            check = tracer.wrap(check_bounds, "check_bounds")
        verified = 0
        raw_wall = wall = 0.0
        with tracer.span("pass") if traced else nullcontext():
            for k, (inst, cost, want) in enumerate(work):
                c0 = perf_counter()
                rep = exact(inst, cost)
                c1 = perf_counter()
                bounds = check(inst, cost, rep.gap)
                c2 = perf_counter()
                got = {
                    "gap": str(rep.gap),
                    "witness_b": rep.witness_b,
                    "threshold": rep.threshold,
                    "tail_gap": str(rep.tail_gap),
                    "scan_gap": str(rep.scan_gap),
                }
                attempted += 1
                if got == want and bounds.all_satisfied:
                    verified += 1
                elif len(failures) < 5:
                    failures.append(f"pair {k} a={list(inst.a)}: got {got}, "
                                    f"bounds {bounds.all_satisfied}, reference {want}")
                after = bench.host_slowdown(CALIBRATION_S)
                around, slow = (slow + after) / 2, after
                raw_wall += c2 - c0
                wall += (c2 - c0) / around
                if not traced:
                    raw_latencies[k].append(c1 - c0)
                    latencies[k].append((c1 - c0) / around)
        if restore:
            restore()
        passes.append({"traced": traced, "wall": wall, "raw_wall": raw_wall, "verified": verified})

    layers = spans.layer_metrics(tracer.spans) if trace else None
    if trace:
        tracer.dump(spans_path)
    _write(out, {
        "passes": passes,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "attempted": attempted,
        "failed": attempted - sum(p["verified"] for p in passes),
        "failures": failures,
        "layers": layers,
    })


def traced_cli(params: dict, out: str, spans_path: str, argv: list[str]) -> int:
    """One CLI run in this process with spans around the package's public
    functions.  Pool workers cannot be traced from here, so when the run
    used a pool the per-record calls are replayed at jobs 1 afterwards,
    outside the cli span."""
    from knapgap import cli, experiments

    tracer = spans.Tracer(f"cli-{params['seed']}-{os.getpid()}")
    spans.install(tracer, spans.SAMPLING_TARGETS)
    with tracer.span("cli"):
        code = cli.run(argv)
    cli_end = perf_counter()
    sys.stdout.flush()
    if not any(s[2] == "draw_instance" for s in tracer.spans):
        epsilon = Fraction(params["epsilon"])
        with tracer.span("replay"):
            for T in params["T"]:
                for index in range(params["count"]):
                    inst, _ = experiments.draw_instance(params["seed"], index, params["n"], T)
                    g = experiments.frobenius(inst)
                    experiments.bracket_ratios(inst, epsilon, params["bits"], g=g)
    csv_path = Path(params["out"])
    layers = spans.layer_metrics(
        tracer.spans, jobs=params["jobs"], csv_bytes=csv_path.stat().st_size if csv_path.exists() else 0
    )
    tracer.dump(spans_path)
    _write(out, {"cli_end": cli_end, "post_s": perf_counter() - cli_end, "layers": layers})
    return code


def main(argv: list[str]) -> int:
    role, args = argv[0], argv[1:]
    if role == "setup":
        setup(json.loads(args[0]), int(args[1]))
    elif role == "verify-sampling":
        verify_sampling(json.loads(args[0]), *args[1:4])
    elif role == "gap-reference":
        gap_reference(json.loads(args[0]), int(args[1]), args[2])
    elif role == "gap-worker":
        spec, seed, seconds, trace = json.loads(args[0]), int(args[1]), float(args[2]), args[3] == "1"
        gap_worker(spec, seed, seconds, trace, *args[4:7])
    elif role == "traced-cli":
        split = args.index("--")
        return traced_cli(json.loads(args[0]), args[1], args[2], args[split + 1 :])
    elif role == "bands":
        print(json.dumps(bench.derive_band_edges(), indent=1))
    else:
        raise SystemExit(f"unknown role {role!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
