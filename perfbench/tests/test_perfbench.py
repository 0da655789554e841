"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from knapgap import (  # noqa: E402
    KnapsackInstance,
    basis_reduction,
    draw_instance,
    frobenius_cost,
    frobenius_sieve_oracle,
    gap_bruteforce,
    gap_exact,
    group_minima,
    tightness_threshold,
)

TINY = {
    "tail": {
        "kind": "cli",
        "argv": ["tail", "--n", "3", "--t", "200", "--count", "600", "--epsilon", "4/5", "--jobs", "1"],
    },
    "mean": {
        "kind": "cli",
        "argv": ["mean", "--n", "5", "--t", "25,50", "--count", "40", "--epsilon", "1/2", "--jobs", "2"],
    },
    "gap": {
        "kind": "gap",
        "T": 60,
        "ns": [3, 4],
        "bands": {k: [0, 400, 10**9] for k in ("3/frobenius", "3/rational", "4/frobenius", "4/rational")},
        "max_draws": 50,
    },
}


def _sieve(a):
    return frobenius_sieve_oracle(KnapsackInstance(a))


def test_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in bench.PER_LAYER.items()
    }


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_completes_at_a_tiny_size(kind, trace, tmp_path):
    detail = run.run(ROOT, f"tiny-{kind}", TINY[kind], 3, 0.05, trace, work=tmp_path)
    line = detail["result"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert detail["error_rate"] == 0
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(line["metrics"]) == set(names)
    for name, m in line["metrics"].items():
        assert m["unit"] == names[name][0] and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    env = detail["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["python"] and env["numpy"]
    if trace and kind == "gap":
        assert line["metrics"]["gap.calls"]["value"] == len(bench.gap_inputs(TINY["gap"], 3))
    if trace and kind != "gap":
        assert line["metrics"]["instances.draws"]["value"] == bench.records_per_run(
            bench.cli_run(TINY[kind], 3, "x")[1])


def test_a_flipped_output_byte_raises_error_rate(tmp_path, monkeypatch):
    real_spawn, real_reference = run.spawn, run.reference
    reference_done = []

    def reference_then_flip(*args):
        ref = real_reference(*args)
        reference_done.append(True)
        return ref

    def flipping_spawn(root, work, cmd):
        done = real_spawn(root, work, cmd)
        csv = work / "records.csv"
        if reference_done and cmd[1:3] == ["-m", "knapgap"] and csv.exists():
            data = bytearray(csv.read_bytes())
            data[len(data) // 2] ^= 0x01
            csv.write_bytes(bytes(data))
        return done

    monkeypatch.setattr(run, "spawn", flipping_spawn)
    monkeypatch.setattr(run, "reference", reference_then_flip)
    detail = run.run(ROOT, "tiny-mean", TINY["mean"], 3, 0.05, False, work=tmp_path)
    assert detail["error_rate"] > 0 and not detail["result"]["correct"]


def test_one_wrong_gap_value_raises_error_rate(tmp_path, monkeypatch):
    real_reference = run.reference

    def wrong_reference(*args):
        ref = json.loads(json.dumps(real_reference(*args)))
        fields = ref["pairs"][0]["fields"]
        fields["gap"] = str(Fraction(fields["gap"]) + Fraction(1, 7))
        return ref

    monkeypatch.setattr(run, "reference", wrong_reference)
    detail = run.run(ROOT, "tiny-gap", TINY["gap"], 3, 0.05, False, work=tmp_path)
    line = detail["result"]
    assert detail["error_rate"] > 0 and line["failed"] == len(detail["ops"])


def test_reference_check_rejects_a_wrong_frobenius_number(tmp_path):
    argv, params = bench.cli_run(TINY["tail"], 3, str(tmp_path / "r.csv"))
    assert run.spawn(ROOT, tmp_path, [sys.executable, "-m", "knapgap", *argv]).code == 0
    stdout = (tmp_path / "child.out").read_bytes()
    rows = (tmp_path / "r.csv").read_text().splitlines()
    assert oracle.check_sampling_output(stdout, "\n".join(rows).encode() + b"\n", params, _sieve) is None
    cells = rows[7].split(",")
    cells[7] = str(int(cells[7]) + 1)
    rows[7] = ",".join(cells)
    reason = oracle.check_sampling_output(stdout, "\n".join(rows).encode() + b"\n", params, _sieve)
    assert reason and "sieve" in reason


def test_redraw_matches_the_sampler():
    for index in range(50):
        n = 2 + index % 4
        assert oracle.redraw(11, index, n, 97) == draw_instance(11, index, n, 97)[0].a


def test_gap_oracle_agrees_with_the_package_oracles():
    for index in range(40):
        n = 3 if index % 2 == 0 else 4
        inst, _ = draw_instance(21, index, n, 45)
        for cost in (frobenius_cost(inst), bench.rational_cost(21, index, n)):
            red = basis_reduction(inst, cost)
            threshold = tightness_threshold(group_minima(inst, red.tau, red.l))
            assert oracle.lex_threshold(inst.a, list(cost)) <= threshold
            fields = oracle.gap_fields(inst.a, list(cost), threshold)
            b_max = threshold + 2 * inst.a[red.tau]
            assert Fraction(fields["gap"]) == gap_bruteforce(inst, cost, b_max)
            rep = gap_exact(inst, cost)
            assert fields == {
                "gap": str(rep.gap),
                "witness_b": rep.witness_b,
                "threshold": rep.threshold,
                "tail_gap": str(rep.tail_gap),
                "scan_gap": str(rep.scan_gap),
            }


def test_gap_oracle_rejects_a_threshold_below_the_period_start():
    inst, cost = (3, 5), [Fraction(3), Fraction(0)]
    assert oracle.gap_fields(inst, cost, 12)["gap"] == "12"
    assert isinstance(oracle.gap_fields(inst, cost, 5), str)


def test_gap_inputs_depend_only_on_the_seed():
    first = bench.gap_inputs(TINY["gap"], 8)
    assert first == bench.gap_inputs(TINY["gap"], 8)
    assert first != bench.gap_inputs(TINY["gap"], 9)
    assert len(first) == 8 and {p["class"] for p in first} == set(TINY["gap"]["bands"])


def test_tail_latency_keeps_ten_samples_beyond():
    value, pct, count = bench.tail_latency(list(range(40)))
    assert (value, pct, count) == (29, 75.0, 40)
    assert bench.tail_latency([4.0, 1.0, 2.0, 3.0, 5.0]) == (4.0, 75.0, 5)
    assert bench.tail_latency([3.0]) == (3.0, 75.0, 1)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "gap_n34_T2000", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
