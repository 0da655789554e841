"""Benchmark runner for knapgap.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One workload run prints a human summary on stderr and, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  --all runs
every workload both ways and prints every metric by name with its unit.
Outputs, span files and cached references go to .perfbench/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
import bench  # noqa: E402  (sys.path[0] is this script's directory)

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# Seconds of host-speed probe before and after each timed child process.
CALIBRATION_S = 0.25


@dataclass
class Done:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(root: Path, work: Path, cmd: list[str]) -> Done:
    """Run cmd to completion from root with knapgap's sources on the path.
    The process's own rusage gives its peak memory, covering any pool
    workers it waited for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())


def child(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _checked(done: Done, what: str) -> Done:
    if done.code != 0:
        raise RuntimeError(f"{what} exited with {done.code}: {done.stderr.decode(errors='replace')[-2000:]}")
    return done


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "knapgap").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reference(root: Path, work: Path, name: str, spec: dict, seed: int) -> dict:
    """Reference outputs for (workload, seed), checked by the oracles and
    cached under a key that covers the package and benchmark sources."""
    key = sha256(json.dumps([name, spec, seed, source_digest(root)]).encode())[:16]
    cache = work / "cache" / f"{name}-{seed}-{key}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    cache.parent.mkdir(parents=True, exist_ok=True)
    verdict = work / "verdict.json"
    if spec["kind"] == "gap":
        cmd = child("gap-reference", json.dumps(spec), str(seed), str(verdict))
        _checked(spawn(root, work, cmd), "gap reference")
        ref = json.loads(verdict.read_text(encoding="utf-8"))
    else:
        argv, params = bench.cli_run(spec, seed, records_path(root, work), jobs=1)
        done = spawn(root, work, [sys.executable, "-m", "knapgap", *argv])
        ref = {"stdout_sha256": sha256(done.stdout), "csv_sha256": None, "reason": None}
        if done.code != 0:
            ref["reason"] = f"reference run exited with {done.code}"
        else:
            csv = root / params["out"]
            ref["csv_sha256"] = sha256(csv.read_bytes())
            (work / "ref.stdout").write_bytes(done.stdout)
            _checked(spawn(root, work, child("verify-sampling", json.dumps(params), str(work / "ref.stdout"),
                                             str(csv), str(verdict))), "sampling verification")
            ref["reason"] = json.loads(verdict.read_text(encoding="utf-8"))["reason"]
    cache.write_text(json.dumps(ref), encoding="utf-8")
    return ref


def records_path(root: Path, work: Path) -> str:
    path = work / "records.csv"
    return str(path.relative_to(root)) if path.is_relative_to(root) else str(path)


def run_cli(root: Path, work: Path, spec: dict, seed: int, seconds: float, trace: bool, ref: dict,
            spans_path: Path) -> dict:
    """Closed loop of CLI runs, each in a fresh process, for `seconds`.
    With trace, every second run is the traced in-process variant."""
    argv, params = bench.cli_run(spec, seed, records_path(root, work))
    records = bench.records_per_run(params)
    ops, failures = [], []
    start = perf_counter()
    slow = bench.host_slowdown(CALIBRATION_S)
    while not ops or (trace and len(ops) < 2) or perf_counter() - start < seconds:
        traced = trace and len(ops) % 2 == 1
        if traced:
            result = work / "traced.json"
            done = spawn(root, work, child("traced-cli", json.dumps(params), str(result),
                                           str(spans_path), "--", *argv))
        else:
            done = spawn(root, work, [sys.executable, "-m", "knapgap", *argv])
        after = bench.host_slowdown(CALIBRATION_S)
        around, slow = (slow + after) / 2, after
        csv = root / params["out"]
        ok = (
            done.code == 0
            and ref["reason"] is None
            and sha256(done.stdout) == ref["stdout_sha256"]
            and csv.exists()
            and sha256(csv.read_bytes()) == ref["csv_sha256"]
        )
        if not ok and len(failures) < 5:
            failures.append(f"run {len(ops)}: exit {done.code}, reference {ref['reason'] or 'ok'}, "
                            f"{done.stderr.decode(errors='replace')[-300:]}")
        op = {"traced": traced, "raw_wall": done.wall, "slowdown": around, "rss_mb": done.rss_mb, "ok": ok}
        if traced and done.code == 0:
            info = json.loads(result.read_text(encoding="utf-8"))
            # comparable to an untraced run: leave out the replay and span dump
            op["raw_wall"] = done.wall - info["post_s"]
            op["layers"] = info["layers"]
        op["wall"] = op["raw_wall"] / around
        ops.append(op)
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall"] for op in plain]
    tail, pct, samples = bench.tail_latency(walls)
    return {
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "failures": failures,
        "ops": ops,
        "e2e": {
            "wall_s": statistics.median(walls),
            "records_per_s": records * sum(op["ok"] for op in plain) / len(plain) / statistics.median(walls),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_ms": 1e3 * tail,
            "peak_rss_mb": statistics.median([op["rss_mb"] for op in plain]),
        },
        "tail": {"percentile": pct, "samples": samples, "of": "CLI runs"},
        "traced": [op for op in ops if op["traced"]],
        "plain_walls": walls,
    }


def run_gap(root: Path, work: Path, spec: dict, seed: int, seconds: float, trace: bool, ref: dict,
            spans_path: Path) -> dict:
    ref_path, result = work / "gap-ref.json", work / "gap-result.json"
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    done = _checked(spawn(root, work, child("gap-worker", json.dumps(spec), str(seed), str(seconds),
                                            "1" if trace else "0", str(ref_path), str(result),
                                            str(spans_path))), "gap worker")
    res = json.loads(result.read_text(encoding="utf-8"))
    plain = [p for p in res["passes"] if not p["traced"]]
    walls = [p["wall"] for p in plain]
    per_pair = [statistics.median(v) for v in res["latencies"]]
    tail, pct, samples = bench.tail_latency(per_pair)
    traced = [{"wall": p["wall"], "layers": res["layers"]} for p in res["passes"] if p["traced"]]
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "ops": res["passes"],
        "e2e": {
            "wall_s": statistics.median(walls),
            "records_per_s": sum(p["verified"] for p in plain) / len(plain) / statistics.median(walls),
            "latency_p50_ms": 1e3 * statistics.median(per_pair),
            "latency_tail_ms": 1e3 * tail,
            "peak_rss_mb": done.rss_mb,
        },
        "tail": {"percentile": pct, "samples": samples, "of": "gap_exact calls, per pair median over passes"},
        "pair_latencies_s": res["latencies"],
        "raw_pair_latencies_s": res["raw_latencies"],
        "traced": traced,
        "plain_walls": walls,
    }


def environment(root: Path, seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": source_digest(root),
    }


def run(root: Path, name: str, spec: dict, seed: int, seconds: float, trace: bool,
        work: Path | None = None) -> dict:
    """One benchmark run: set-up samples, reference, timed loop, metrics."""
    work = work or root / ".perfbench"
    work.mkdir(parents=True, exist_ok=True)
    seed = seed % 2**64
    setup, raw_setup = [], []
    slow = bench.host_slowdown(CALIBRATION_S)
    for _ in range(SETUP_REPEATS):
        done = _checked(spawn(root, work, child("setup", json.dumps(spec), str(seed))), "setup")
        raw_setup.append(done.wall)
        after = bench.host_slowdown(CALIBRATION_S)
        setup.append(raw_setup[-1] * 2 / (slow + after))
        slow = after
    ref = reference(root, work, name, spec, seed)
    loop = run_cli if spec["kind"] == "cli" else run_gap
    res = loop(root, work, spec, seed, seconds, trace, ref, work / f"spans-{name}-seed{seed}.json")
    e2e = {"setup_s": statistics.median(setup), **res["e2e"]}
    if trace:
        traced_walls = [op["wall"] for op in res["traced"] if "layers" in op]
        layers = {k: statistics.median([op["layers"][k] for op in res["traced"] if "layers" in op] or [0.0])
                  for k in bench.PER_LAYER if not k.startswith("trace.")}
        layers["trace.wall_s"] = layers["trace.overhead_s"] = 0.0
        if traced_walls:
            layers["trace.wall_s"] = statistics.median(traced_walls)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(res["plain_walls"])
        metrics = {k: {"value": layers[k], "unit": bench.PER_LAYER[k][0]} for k in bench.PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": bench.END_TO_END[k][0]} for k in bench.END_TO_END}
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "kind": spec["kind"],
        "seconds": seconds,
        "trace": trace,
        "environment": environment(root, seed),
        "error_rate": res["failed"] / res["attempted"],
        "reference_problem": ref.get("reason") if spec["kind"] == "cli" else
        next((p["fields"] for p in ref["pairs"] if isinstance(p["fields"], str)), None),
        "failures": res["failures"],
        "latency_tail": res["tail"],
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "end_to_end": e2e,
        "ops": [{k: v for k, v in op.items() if k != "layers"} for op in res["ops"]],
        "pair_latencies_s": res.get("pair_latencies_s"),
        "raw_pair_latencies_s": res.get("raw_pair_latencies_s"),
        "result": line,
    }
    out = work / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    return detail


def describe(detail: dict) -> list[str]:
    """Human-readable lines: every metric of the run by name, with its unit."""
    name, line = detail["workload"], detail["result"]
    env = detail["environment"]
    rows = [
        f"# {name} seed={env['seed']} trace={int(detail['trace'])} nproc={env['nproc']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} commit={env['git_commit']}",
        f"{name}  error_rate = {detail['error_rate']:.6g} ({line['failed']} of {line['attempted']} failed)",
    ]
    for metric, m in line["metrics"].items():
        if detail["trace"] and detail["kind"] not in bench.PER_LAYER[metric][2]:
            continue
        rows.append(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    if not detail["trace"]:
        t = detail["latency_tail"]
        rows.append(f"{name}  latency_tail_ms is p{t['percentile']:.4g} of {t['samples']} {t['of']}")
    for reason in detail["failures"]:
        rows.append(f"{name}  failure: {reason}")
    return rows


def run_all(root: Path, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                status = 1
                continue
            detail = json.loads((root / ".perfbench" / f"result-{name}-seed{seed % 2**64}-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            print("\n".join(describe(detail)), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "knapgap" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/knapgap is missing here", file=sys.stderr)
        return 2
    if args.all:
        return run_all(root, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    detail = run(root, args.workload, bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(detail)), file=sys.stderr)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
