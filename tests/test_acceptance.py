"""End-to-end acceptance: eleven independent checks, each with its budget.

Every test prints exactly one `criterion N: PASS/FAIL` line (visible in the
run log through the -rA option configured in pyproject.toml) and then
asserts.  Checks 9 to 11 share their expensive sampling runs through
module-scoped fixtures; everything is seeded, so reruns are bit-identical.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import pytest
from numpy.random import Philox

from knapgap import (
    KnapsackInstance,
    basis_reduction,
    check_bounds,
    delta_max,
    frobenius,
    frobenius_cost,
    frobenius_sieve_oracle,
    gap_bruteforce,
    gap_exact,
    group_minima,
    lovasz_example,
    tightness_family,
)
from knapgap.cli import run
from knapgap.instances import draw_instance


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cli(tmp_dir, *argv):
    out = io.StringIO()
    err = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    elapsed = time.monotonic() - started
    assert code == 0, f"cli exited {code}: {err.getvalue()}"
    return out.getvalue(), elapsed


def test_criterion_1_frobenius_vs_sieve():
    started = time.monotonic()
    checked = 0
    for i in range(500):
        n = (2, 3, 4, 5)[i % 4]
        inst, _ = draw_instance(1001, i, n, 100)
        assert frobenius(inst) == frobenius_sieve_oracle(inst), inst.a
        checked += 1
    elapsed = time.monotonic() - started
    _report(
        1,
        checked == 500 and elapsed < 10.0,
        f"{checked} instances, two independent routes agree, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_two_coefficient_closed_form():
    for i in range(200):
        inst, _ = draw_instance(1002, i, 2, 1000)
        a1, a2 = inst.a
        assert frobenius(inst) == a1 * a2 - a1 - a2, inst.a
    _report(2, True, "200 coprime pairs up to 1000 match a1*a2 - a1 - a2")


def test_criterion_3_lattice_route_matches_frobenius_route():
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        inst, _ = draw_instance(1003, i, n, 200)
        table = group_minima(inst, inst.n - 1, inst.a[:-1])
        assert max(table.minima) == frobenius(inst) + inst.a[-1], inst.a
    _report(3, True, "200 instances: residue-table maximum equals g(a) + a_n")


def _uniform(gen, upper):
    # uniform on {1..upper} by mask rejection on the raw 64-bit words
    mask = (1 << (upper - 1).bit_length()) - 1
    while True:
        word = int(gen.random_raw()) & mask
        if word < upper:
            return word + 1


@pytest.fixture(scope="module")
def rational_cost_instances():
    out = []
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        inst, _ = draw_instance(1004, i, n, 25)
        gen = Philox(key=1004, counter=(10**6 + i) << 128)
        cost = tuple(
            Fraction(_uniform(gen, 11) - 6, _uniform(gen, 4)) for _ in range(n)
        )
        out.append((inst, cost))
    return out


@pytest.fixture(scope="module")
def gap_reports(rational_cost_instances):
    return [
        (inst, cost, gap_exact(inst, cost))
        for inst, cost in rational_cost_instances
    ]


def test_criterion_4_gap_exact_vs_bruteforce(gap_reports):
    started = time.monotonic()
    for inst, cost, report in gap_reports:
        b_max = report.threshold + 2 * inst.a[report.tau]
        assert report.gap == gap_bruteforce(inst, cost, b_max), (inst.a, cost)
    elapsed = time.monotonic() - started
    _report(
        4,
        elapsed < 60.0,
        f"200 rational-cost instances, both routes agree, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_tightness_family():
    for k in range(2, 65):
        for n in (2, 3, 4):
            inst, cost = tightness_family(k, n)
            assert gap_exact(inst, cost).gap == k - 1, (k, n)
    _report(5, True, "k in 2..64, n in 2..4: family gap equals k - 1 exactly")


def test_criterion_6_bound_sandwich(gap_reports):
    violations = 0
    exact_pairs = 0
    for inst, cost, report in gap_reports:
        bounds = check_bounds(inst, cost, report.gap)
        if not bounds.all_satisfied:
            violations += 1
        if inst.n == 2 and basis_reduction(inst, cost).generic:
            exact_pairs += 1
            assert bounds.lower_covering == report.gap, (inst.a, cost)
    _report(
        6,
        violations == 0,
        f"0 violations in {len(gap_reports)} sandwiches; "
        f"lower bound exact on all {exact_pairs} generic pairs",
    )


def test_criterion_7_frobenius_cost_identity():
    for i in range(100):
        n = (2, 3, 4)[i % 3]
        inst, _ = draw_instance(1007, i, n, 50)
        cost = frobenius_cost(inst)
        assert gap_exact(inst, cost).gap == frobenius(inst) + inst.a[-1], inst.a
    _report(7, True, "100 instances: gap under the head-coefficient cost is g + a_n")


def test_criterion_8_fractional_vertex_examples():
    for n, delta, beta in ((2, 1, "1/2"), (5, 3, "1/2"), (8, 4, "3/4")):
        ex = lovasz_example(n, delta, beta)
        b = Fraction(beta)
        for row, rhs in zip(ex.matrix, ex.rhs):
            assert sum(r * x for r, x in zip(row, ex.lp_solution)) == rhs == b
        assert all(x == 0 for x in ex.ip_solution)
        assert ex.distance == (delta * (n - 1) + 1) * b
        assert delta_max(ex.matrix) == delta
    _report(8, True, "3 parameter triples: row equalities, integer point, distance")


TAIL_ARGS = (
    "tail", "--n", "3", "--t", "2000", "--count", "10000", "--seed", "20240817",
    "--epsilon", "4/5", "--format", "json",
)
MEAN_UPPER_ARGS = (
    "mean", "--n", "3", "--t", "250,500,1000,2000", "--count", "5000",
    "--seed", "20240818", "--epsilon", "4/5", "--format", "json",
)
MEAN_LOWER_ARGS = (
    "mean", "--n", "3", "--t", "250,500,1000,2000", "--count", "5000",
    "--seed", "20240819", "--epsilon", "1/2", "--format", "json",
)


@pytest.fixture(scope="module")
def tail_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tail")
    target = tmp / "records.csv"
    out, elapsed = _cli(tmp, *TAIL_ARGS, "--out", str(target))
    return json.loads(out), target.read_bytes(), elapsed


@pytest.fixture(scope="module")
def mean_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mean")
    runs = {}
    for name, args in (("upper", MEAN_UPPER_ARGS), ("lower", MEAN_LOWER_ARGS)):
        target = tmp / f"{name}.csv"
        out, elapsed = _cli(tmp, *args, "--out", str(target))
        runs[name] = (json.loads(out), target.read_bytes(), elapsed)
    return runs


def test_criterion_9_tail_slope(tail_run):
    doc, _, elapsed = tail_run
    slope = doc["fitted_slope"]
    ok = slope is not None and slope <= -1.0 and elapsed < 300.0
    _report(9, ok, f"10^4 samples at T = 2000: slope {slope:.3f} <= -1.0, "
                   f"{elapsed:.1f}s (< 300s)")


def test_criterion_10_mean_ladders(mean_runs):
    upper_doc = mean_runs["upper"][0]
    lower_doc = mean_runs["lower"][0]
    uppers = {
        entry["config"]["T"]: Fraction(entry["empirical_mean"]["ratio_upper"])
        for entry in upper_doc["summaries"]
    }
    lowers = {
        entry["config"]["T"]: Fraction(entry["empirical_mean"]["ratio_lower"])
        for entry in lower_doc["summaries"]
    }
    bounded = uppers[2000] <= 2 * uppers[250]
    floored = all(lowers[t] >= Fraction(1, 20) for t in (250, 500, 1000, 2000))
    _report(
        10,
        bounded and floored,
        f"mean upper bracket {float(uppers[250]):.3f} -> {float(uppers[2000]):.3f} "
        f"stays within 2x; mean lower bracket >= 0.05 at every T",
    )


def test_criterion_11_parallel_determinism(tail_run, mean_runs, tmp_path):
    reruns = (
        ("tail", TAIL_ARGS, tail_run[1]),
        ("upper", MEAN_UPPER_ARGS, mean_runs["upper"][1]),
        ("lower", MEAN_LOWER_ARGS, mean_runs["lower"][1]),
    )
    for name, args, expected in reruns:
        target = tmp_path / f"{name}_j4.csv"
        _cli(tmp_path, *args, "--jobs", "4", "--out", str(target))
        assert target.read_bytes() == expected, f"{name} records differ under --jobs 4"
    _report(11, True, "3 record files byte-identical between --jobs 1 and --jobs 4")
