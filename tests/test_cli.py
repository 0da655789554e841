"""Command-line surface: exit codes, stream discipline, round-trippable output."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import knapgap
import knapgap.cli
import knapgap.experiments
import knapgap.gap
import knapgap.group
from knapgap import KnapsackInstance, draw_instance, frobenius_sieve_oracle, gap_exact
from knapgap.cli import _json_chunks, run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = _run(capsys, "frobenius", "--a", "6,9,20")
        assert code == 0
        assert "g = 43" in out

    def test_validation_error_is_2(self, capsys):
        code, _, err = _run(capsys, "frobenius", "--a", "2,4")
        assert code == 2
        assert "condition (ii)" in err

    def test_nonpositive_entry_is_2(self, capsys):
        code, _, err = _run(capsys, "frobenius", "--a", "0,5")
        assert code == 2
        assert "condition (i)" in err

    def test_decimal_cost_rejected(self, capsys):
        code, _, err = _run(capsys, "gap", "--a", "3,5", "--c", "0.5,1")
        assert code == 2
        assert "error:" in err

    def test_guardrail_is_3(self, capsys, monkeypatch):
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "4")
        code, _, err = _run(capsys, "frobenius", "--a", "6,9,20")
        assert code == 3
        assert "KNAPGAP_GUARDRAIL_CELLS" in err

    @pytest.mark.parametrize("command", ["sample", "tail", "mean"])
    def test_draw_past_the_cap_is_3(self, capsys, monkeypatch, command):
        # a draw's n coefficients count as cells
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "10")
        argv = [command, "--t", "2", "--count", "1", "--seed", "1"]
        if command != "sample":
            argv += ["--epsilon", "1/2"]
        code, out, err = _run(capsys, *argv, "--n", "11")
        assert (code, out) == (3, "")
        assert err == (
            "guardrail: draw of 11 coefficients needs 11 cells, cap is 10 "
            "(override with KNAPGAP_GUARDRAIL_CELLS)\n"
        )
        code, _, _ = _run(capsys, "sample", *argv[1:7], "--n", "10")
        assert code == 0

    @pytest.mark.parametrize("thresholds", ["1/4,1/4", "1/4,1/2,1,1", "1/2,2/4"])
    def test_repeated_thresholds_are_2(self, capsys, thresholds):
        code, out, err = _run(
            capsys, "tail", "--n", "3", "--t", "50", "--count", "300", "--seed", "9",
            "--epsilon", "4/5", "--thresholds", thresholds,
        )
        assert (code, out) == (2, "")
        assert "repeated, thresholds must differ" in err

    @pytest.mark.parametrize("target", ["missing/records.csv", "."])
    def test_unwritable_out_is_1(self, capsys, tmp_path, target):
        # a missing directory, or a directory itself, fails only at the
        # final copy, after the run succeeded
        code, out, err = _run(
            capsys, "tail", "--n", "3", "--t", "50", "--count", "300", "--seed", "9",
            "--epsilon", "4/5", "--thresholds", "1/4,1/2,1",
            "--out", str(tmp_path / target),
        )
        assert (code, out) == (1, "")
        assert err.startswith("io error: ") and err.count("\n") == 1

    def test_unknown_subcommand_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["does-not-exist"])
        assert exc.value.code == 64

    def test_missing_required_flag_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobenius"])
        assert exc.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobenius", "--a=--"],
            ["sample", "--n=--", "--t", "5", "--count", "3", "--seed", "1"],
            ["mean", "--n", "3", "--t=--", "--count", "3", "--seed", "1", "--epsilon", "1/2"],
        ],
    )
    def test_lone_double_dash_value_is_64_or_2(self, capsys, argv):
        # some argparse versions store --flag=-- as an empty list, which
        # reached the handlers and exited 70; others pass "--" itself on
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (2, 64), err
        assert "internal error" not in err

    def test_no_subcommand_is_64(self, capsys):
        assert run([]) == 64

    def test_bits_past_the_int_string_limit_is_2(self, capsys, monkeypatch):
        # refused before anything is drawn, not after the whole run
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no limit on int strings")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)

        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(knapgap.experiments, "_draw_lanes", refuse)
        argv = ("--n", "3", "--t", "2000", "--count", "200", "--seed", "1",
                "--epsilon", "4/5", "--bits", "20000")
        for command in ("mean", "tail"):
            code, out, err = _run(capsys, command, *argv)
            assert (code, out) == (2, "")
            assert "bits = 20000 too large" in err

    def test_largest_admitted_bits_prints(self, capsys, tmp_path):
        # at the ceiling every exact string of the run fits the limit
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no limit on int strings")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # count (n + 1) T = 20000 takes 15 bits: 2126 - 15 = 2111
            argv = ["--n", "3", "--t", "50", "--count", "100", "--seed", "9",
                    "--epsilon", "1/2", "--out", str(tmp_path / "r.csv")]
            for command in ("tail", "mean"):
                for fmt in ("text", "json"):
                    code, out, err = _run(capsys, command, *argv, "--bits", "2111",
                                          "--format", fmt)
                    assert (code, err) == (0, ""), err
                code, _, err = _run(capsys, command, *argv, "--bits", "2112")
                assert code == 2 and "640-digit limit" in err
        finally:
            sys.set_int_max_str_digits(saved)

    def test_group_witness_guardrail_is_3(self, capsys, monkeypatch):
        # the 6-row table fits under the cap, its 12 witness cells do not
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "10")
        code, out, err = _run(capsys, "group", "--a", "6,9,20")
        assert code == 3
        assert out == ""
        assert "witness table" in err

    def test_lovasz_guardrail_is_3(self, capsys, monkeypatch):
        # the n x n matrix is checked before it is built
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "100")
        code, out, err = _run(capsys, "lovasz", "--n", "11", "--delta", "3", "--beta", "1/2")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert "11 x 11 matrix needs 121 cells, cap is 100" in err
        code, out, _ = _run(capsys, "lovasz", "--n", "10", "--delta", "3", "--beta", "1/2")
        assert code == 0
        assert "distance = 14" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("tail", "--n", "3", "--t", "40", "--count", "200", "--seed", "8",
             "--epsilon", "4/5", "--thresholds", "1/4,1/2"),
            # T = 5 never needs more than 4 cells, so the refusal comes from
            # a record of the second rung
            ("mean", "--n", "3", "--t", "5,40", "--count", "40", "--seed", "8",
             "--epsilon", "4/5"),
        ],
    )
    def test_sampling_guardrail_is_3_at_every_jobs(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # the cap is read once per range of records, in the forked children too
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "4")
        target = tmp_path / "records.csv"
        target.write_bytes(b"kept\n")
        errs = []
        for jobs in ("1", "2"):
            code, out, err = _run(capsys, *argv, "--jobs", jobs, "--out", str(target))
            assert code == 3
            assert out == ""
            assert "residue table modulo" in err
            # rows of the ranges before the refusal never reach --out
            assert target.read_bytes() == b"kept\n"
            # and no child outlives the refusal, running or unreaped
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            errs.append(err)
        # ranges come back in index order, so the first failing record wins
        assert errs[0] == errs[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_that_dies_is_70(self, capsys, monkeypatch, tmp_path):
        # the child sends its first range, then ends without a word
        parent, real = os.getpid(), knapgap.experiments._stream_chunk
        sent = []

        def dying(task):
            if os.getpid() != parent and sent:
                os._exit(1)
            sent.append(task)
            return real(task)

        monkeypatch.setattr(knapgap.experiments, "_stream_chunk", dying)
        target = tmp_path / "records.csv"
        target.write_bytes(b"kept\n")
        code, out, err = _run(
            capsys, "mean", "--n", "3", "--t", "10,20", "--count", "40", "--seed", "8",
            "--epsilon", "4/5", "--jobs", "2", "--out", str(target),
        )
        assert code == 70
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: internal error: RuntimeError: worker process ")
        assert err.endswith(" ended without sending the result of task 3\n")
        assert target.read_bytes() == b"kept\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_jobs_above_four_per_cpu_is_2(self, capsys, monkeypatch):
        # refused before anything is drawn or forked
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, out, err = _run(
            capsys, "tail", "--n", "3", "--t", "2000", "--count", "200000",
            "--seed", "1", "--epsilon", "4/5", "--jobs", "100000",
        )
        assert (code, out) == (2, "")
        assert err == "error: jobs = 100000 exceeds 8, four per CPU this process may use\n"

    def test_sample_has_no_jobs_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--n", "2", "--t", "3", "--count", "2", "--seed", "1",
                 "--jobs", "2"])
        assert exc.value.code == 64

    def test_bad_epsilon_is_2(self, capsys):
        code, _, err = _run(
            capsys, "tail", "--n", "3", "--t", "100", "--count", "200",
            "--seed", "1", "--epsilon", "3/2",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "raised,code,message",
        [
            (AssertionError("table broken"), 70,
             "error: internal error: AssertionError: table broken\n"),
            (KeyboardInterrupt(), 130, "error: interrupted\n"),
        ],
    )
    def test_unexpected_exception_exit_code(
        self, capsys, monkeypatch, raised, code, message
    ):
        def failing(inst, **kwargs):
            raise raised

        monkeypatch.setattr(knapgap.group, "frobenius", failing)
        got, out, err = _run(capsys, "frobenius", "--a", "6,9,20")
        assert got == code
        assert out == ""
        assert err == message


class TestTextOutput:
    def test_frobenius_echoes_config_first(self, capsys):
        _, out, _ = _run(capsys, "frobenius", "--a", "6,9,20")
        lines = out.splitlines()
        assert lines[0] == "a = 6,9,20"
        assert "g = 43" in lines
        assert "covering_radius_simplex = 78" in lines
        assert "covering_radius_integral = 63" in lines

    def test_frobenius_computes_g_once(self, capsys, monkeypatch):
        calls = []
        real = knapgap.group.frobenius

        def counting(inst, **kwargs):
            calls.append(inst)
            return real(inst, **kwargs)

        monkeypatch.setattr(knapgap.group, "frobenius", counting)
        code, out, _ = _run(capsys, "frobenius", "--a", "6,9,20")
        assert code == 0
        assert "covering_radius_integral = 63" in out.splitlines()
        assert len(calls) == 1

    def test_gap_report(self, capsys):
        _, out, _ = _run(capsys, "gap", "--a", "3,5", "--c", "3,0")
        assert "gap = 12" in out
        assert "witness_b = 12" in out
        assert "tau = 2" in out  # positions are 1-based on the command line

    def test_gap_single_rhs(self, capsys):
        _, out, _ = _run(capsys, "gap", "--a", "3,5", "--c", "3,0", "--b", "12")
        assert "ip = 12" in out
        assert "lp = 0" in out
        assert "gap = 12" in out

    def test_negative_first_cost_needs_equals_form(self, capsys):
        # argparse takes "-1,-1,-1" for an option, so only --c=... passes it
        code, out, _ = _run(capsys, "gap", "--a", "2,3,5", "--c=-1,-1,-1")
        assert code == 0
        assert "gap = 1/2" in out.splitlines()
        src = str(Path(knapgap.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "knapgap", "gap", "--a", "2,3,5", "--c", "-1,-1,-1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 64
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: knapgap gap ")
        assert proc.stderr.endswith(
            "knapgap gap: error: argument --c: expected one argument\n"
        )
        assert "Traceback" not in proc.stderr

    def test_gap_infeasible_rhs(self, capsys):
        _, out, _ = _run(capsys, "gap", "--a", "3,5", "--c", "3,0", "--b", "7")
        assert "infeasible" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "b, ip, gap", [(12, "12", "12"), (7, None, None)]
    )
    def test_gap_single_rhs_runs_one_dp(self, capsys, monkeypatch, fmt, b, ip, gap):
        # the CLI and integrality_gap both look the DP up by name
        runs = []
        real = knapgap.gap.ip_value

        def counting(*args, **kwargs):
            runs.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(knapgap.gap, "ip_value", counting)
        monkeypatch.setattr(knapgap.cli, "ip_value", counting)
        code, out, _ = _run(
            capsys, "gap", "--a", "3,5", "--c", "3,0", "--b", str(b), "--format", fmt
        )
        assert code == 0
        assert runs == [b]
        if fmt == "json":
            doc = json.loads(out)
            assert (doc["feasible"], doc["ip"], doc["lp"], doc["gap"]) == (
                ip is not None, ip, "0", gap
            )
        elif ip is None:
            assert out.splitlines()[-1] == "infeasible"
        else:
            assert out.splitlines()[-3:] == [f"ip = {ip}", "lp = 0", f"gap = {gap}"]

    def test_bounds(self, capsys):
        _, out, _ = _run(capsys, "bounds", "--a", "3,5", "--c", "3,0")
        assert "schur = 7" in out
        assert "cook = 30" in out
        assert "upper_l1 = 12" in out
        assert "upper_linf = 24" in out
        assert "lower_covering = 12" in out
        assert "all_satisfied = true" in out

    def test_bounds_lower_not_applicable(self, capsys):
        _, out, _ = _run(capsys, "bounds", "--a", "3,5", "--c", "3,5")
        assert "lower_covering = n/a" in out

    def test_group_table(self, capsys):
        _, out, _ = _run(capsys, "group", "--a", "3,5")
        assert "tau = 1" in out
        assert "lattice_gap = 10" in out

    def test_group_builds_witnesses_once(self, capsys, monkeypatch):
        # text decodes the 50 rows it prints, json every row, each once; the
        # loads of B* are the one other decode
        builds = {"_witnesses": [], "_loads": []}
        for name, calls in builds.items():
            real = getattr(knapgap.group.GroupTable, name)

            def counting(table, labels, real=real, calls=calls):
                calls.append(len(labels))
                return real(table, labels)

            monkeypatch.setattr(knapgap.group.GroupTable, name, counting)
        # the loads come from the same rows, never from the full load list
        monkeypatch.delattr(knapgap.group.GroupTable, "load")
        code, out, _ = _run(capsys, "group", "--a", "61,97,131")
        assert code == 0
        lines = out.splitlines()
        assert lines[lines.index("r minima witness load") + 1] == "0 0 (0,0) 0"
        assert lines[-1] == "... 11 more rows, use --format json for all"
        assert builds == {"_witnesses": [50], "_loads": [61, 50]}
        code, out, _ = _run(capsys, "group", "--a", "61,97,131", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["witness"]) == 61
        assert builds == {"_witnesses": [50, 61], "_loads": [61, 50, 61, 61]}
        # a column is decoded block by block as json writes it
        monkeypatch.setattr(knapgap.group, "_BLOCK", 16)
        code, blocked, _ = _run(capsys, "group", "--a", "61,97,131", "--format", "json")
        assert (code, blocked) == (0, out)
        assert builds["_witnesses"][2:] == [16, 16, 16, 13]

    def test_group_decodes_each_row_once(self, capsys, monkeypatch):
        # text decodes the minima of the 50 rows it prints and lattice_gap
        # from the largest label alone; json decodes every row once
        decoded = []
        real = knapgap.group.GroupTable._costs

        def counting(table, labels):
            decoded.append(len(labels))
            return real(table, labels)

        monkeypatch.setattr(knapgap.group.GroupTable, "_costs", counting)
        for fmt, rows in [("text", 50), ("json", 61)]:
            decoded.clear()
            code, _, _ = _run(capsys, "group", "--a", "61,97,131", "--format", fmt)
            assert code == 0
            assert sorted(decoded) == [1, rows]

    def test_group_json_with_a_huge_self_loop_weight(self, capsys):
        code, out, _ = _run(
            capsys, "group", "--a", "200,400,301", "--w", "6000000000000000,1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["threshold"] == 59899 and len(doc["witness"]) == 200

    def test_sample_streams_rows(self):
        # rows are written as they are drawn: the peak does not grow with the count
        peaks = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for count in (2000, 20000):
                tracemalloc.start()
                try:
                    code = run(["sample", "--n", "3", "--t", "1000", "--count",
                                str(count), "--seed", "1", "--format", "csv"])
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code == 0
        assert peaks[1] - peaks[0] < 1 << 20

    def test_sample_echo(self, capsys):
        _, out, _ = _run(capsys, "sample", "--n", "2", "--t", "3", "--count", "2",
                         "--seed", "1")
        assert out.splitlines() == [
            "n = 2", "T = 3", "count = 2", "seed = 1", "0: 1,2", "1: 3,1",
        ]

    def test_lovasz(self, capsys):
        _, out, _ = _run(capsys, "lovasz", "--n", "5", "--delta", "3", "--beta", "1/2")
        assert "lp_solution = 1/2,1,3/2,2,13/2" in out
        assert "distance = 13/2" in out

    def test_lovasz_text_builds_no_row_lists(self):
        # text prints no matrix, so the document never lists its rows: the
        # peak is about 0.5 MiB at n = 1000, against 8 MiB when the example
        # held the n x n tuple and 16 MiB with the lists as well
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = run(["lovasz", "--n", "1000", "--delta", "3", "--beta", "1/2"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 12 << 20

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_lovasz_text_peak_is_linear_in_n(self):
        # the system is held as its two diagonals, so text output holds O(n)
        # values: about 18 MiB at n = 3000, against 86 MiB with the n x n rows
        code, out, peak_kb = _fresh_run(
            "lovasz", "--n", "3000", "--delta", "2", "--beta", "1/2", probe=_PEAK_PROBE
        )
        assert code == 0
        assert "distance = 5999/2" in out.splitlines()
        assert peak_kb <= 32 << 10

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_lovasz_json_streams_its_rows(self):
        # json writes the n x n rows as it reads them: about 29 MiB at
        # n = 3000, against 249 MiB when the rows and their text were held
        code, size, peak_kb = _fresh_run(
            "lovasz", "--n", "3000", "--delta", "2", "--beta", "1/2", "--format", "json",
            probe=_SINK_PEAK_PROBE,
        )
        assert code == 0
        # 3000 rows of 3000 entries, each entry on its own line
        assert size > 9 * 10**6 * 7
        assert peak_kb <= 64 << 10

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_group_json_streams_its_rows(self):
        # json decodes each column block by block as it writes it: about
        # 36 MiB at 200003 rows, against 81 MiB when every row was held
        code, size, peak_kb = _fresh_run(
            "group", "--a", "200003,250007,300007,350017", "--format", "json",
            probe=_SINK_PEAK_PROBE,
        )
        assert (code, size) == (0, 14851363)
        assert peak_kb <= 56 << 10


class TestJsonOutput:
    def test_gap_json_round_trip(self, capsys):
        _, out, _ = _run(capsys, "gap", "--a", "3,5", "--c", "3,0", "--format", "json")
        doc = json.loads(out)
        assert list(doc)[0] == "config"
        a = tuple(doc["config"]["a"])
        c = tuple(Fraction(x) for x in doc["config"]["c"])
        report = gap_exact(KnapsackInstance(a), c)
        assert Fraction(doc["gap"]) == report.gap
        assert doc["witness_b"] == report.witness_b
        assert doc["tau"] == report.tau + 1

    def test_frobenius_json(self, capsys):
        _, out, _ = _run(capsys, "frobenius", "--a", "6,9,20", "--format", "json")
        doc = json.loads(out)
        assert doc["g"] == 43
        assert doc["covering_radius_simplex"] == 78

    def test_sample_json(self, capsys):
        _, out, _ = _run(
            capsys, "sample", "--n", "2", "--t", "3", "--count", "2",
            "--seed", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["config"]["seed"] == 1
        assert doc["instances"] == [[1, 2], [3, 1]]

    def test_tail_json_summary(self, capsys):
        _, out, _ = _run(
            capsys, "tail", "--n", "3", "--t", "50", "--count", "300",
            "--seed", "9", "--epsilon", "4/5", "--thresholds", "1/4,1/2,1",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["alpha_theoretical"] == "5/3"
        assert doc["config"]["epsilon"] == "4/5"
        assert isinstance(doc["fitted_slope"], float)
        # exact and decimal mean columns describe the same number
        mean = doc["empirical_mean"]
        assert float(Fraction(mean["ratio_upper"])) == pytest.approx(
            float(mean["ratio_upper_decimal"]), rel=1e-11
        )


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=6)
    | st.lists(st.integers(), max_size=6)
    | st.lists(st.text(), max_size=6)
    | st.dictionaries(
        st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none(),
        children,
        max_size=6,
    ),
    max_leaves=40,
)


def _as_iterators(doc):
    """doc with every list turned into an iterator over its items."""
    if isinstance(doc, dict):
        return {k: _as_iterators(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return iter([_as_iterators(v) for v in doc])
    return doc


class TestJsonWriter:
    @given(doc=_JSON_DOCS)
    @settings(max_examples=150)
    def test_matches_json_dumps_indent_2(self, doc):
        assert "".join(_json_chunks(doc)) == json.dumps(doc, indent=2)
        # an iterator prints as the list it yields
        assert "".join(_json_chunks(_as_iterators(doc))) == json.dumps(doc, indent=2)

    def test_long_iterators_cross_batches(self):
        size = 2 * knapgap.cli._JSON_BATCH + 3
        rows = [[i, -i] for i in range(size)]
        doc = {"ints": list(range(size)), "rows": rows,
               "mixed": [[], "s", 1, {"k": [2]}, [3, "t"]] * size}
        assert "".join(_json_chunks(_as_iterators(doc))) == json.dumps(doc, indent=2)

    def test_escapes_and_empty_containers(self):
        doc = {"q\"\\\n\t\x00é☃𝄞": ["", "\u2028", {}, [], [[]], 1.5, -0.0],
               "n": [float("nan"), float("inf"), -float("inf")], "": None}
        assert "".join(_json_chunks(doc)) == json.dumps(doc, indent=2)


class TestStreamDiscipline:
    def test_sample_csv_stdout_is_pure(self, capsys):
        code, out, err = _run(
            capsys, "sample", "--n", "2", "--t", "2", "--count", "3",
            "--seed", "7", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "T", "seed", "index", "a_1", "a_2"]
        assert rows[1:] == [
            ["2", "2", "7", "0", "1", "2"],
            ["2", "2", "7", "1", "1", "2"],
            ["2", "2", "7", "2", "1", "1"],
        ]
        assert "seed = 7" in err  # config echo lives on stderr for csv

    def test_sample_csv_deterministic(self, capsys):
        args = ("sample", "--n", "3", "--t", "9", "--count", "5", "--seed", "3",
                "--format", "csv")
        _, out1, _ = _run(capsys, *args)
        _, out2, _ = _run(capsys, *args)
        assert out1 == out2


class TestExperimentCommands:
    def test_tail_writes_records_csv(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code, out, _ = _run(
            capsys, "tail", "--n", "3", "--t", "50", "--count", "300",
            "--seed", "9", "--epsilon", "4/5", "--thresholds", "1/4,1/2,1",
            "--out", str(target),
        )
        assert code == 0
        with target.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 300
        assert rows[0]["T"] == "50"
        assert "fitted_slope" in out

    def test_tail_insufficient_samples_is_2(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        target.write_bytes(b"kept\n")
        for jobs in ("1", "2"):
            code, _, err = _run(
                capsys, "tail", "--n", "3", "--t", "100", "--count", "30",
                "--seed", "31", "--epsilon", "4/5", "--thresholds", "1/4,1",
                "--jobs", jobs, "--out", str(target),
            )
            assert code == 2
            assert "samples" in err
            # every record was written before the check refused the run
            assert target.read_bytes() == b"kept\n"

    def test_mean_ladder(self, capsys, tmp_path):
        target = tmp_path / "ladder.csv"
        code, out, _ = _run(
            capsys, "mean", "--n", "3", "--t", "10,20", "--count", "40",
            "--seed", "8", "--epsilon", "4/5", "--out", str(target),
        )
        assert code == 0
        assert "T = 10" in out and "T = 20" in out
        with target.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 80
        assert {row["T"] for row in rows} == {"10", "20"}

    def test_mean_json(self, capsys):
        code, out, _ = _run(
            capsys, "mean", "--n", "3", "--t", "10,20", "--count", "40",
            "--seed", "8", "--epsilon", "4/5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [entry["config"]["T"] for entry in doc["summaries"]] == [10, 20]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "3", "--t", "18446744073709551617", "--count", "2",
             "--seed", "5"),
            ("tail", "--n", "3", "--t", "18446744073709551617", "--count", "200",
             "--seed", "5", "--epsilon", "4/5", "--jobs", "2"),
            ("mean", "--n", "3", "--t", "10,18446744073709551617", "--count", "200",
             "--seed", "5", "--epsilon", "4/5", "--jobs", "2"),
        ],
    )
    def test_box_beyond_full_words_is_2(self, capsys, monkeypatch, tmp_path, argv):
        # refused while the configs are built: no range runs, no child forks
        def no_ranges(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(knapgap.experiments, "_ordered", no_ranges)
        target = tmp_path / "records.csv"
        target.write_bytes(b"kept\n")
        out_flag = ("--out", str(target)) if argv[0] != "sample" else ()
        code, out, err = _run(capsys, *argv, *out_flag)
        assert code == 2
        assert out == ""
        assert err == (
            "error: T = 18446744073709551617 > 2**64, "
            "draws read one 64-bit word per coordinate\n"
        )
        assert target.read_bytes() == b"kept\n"

    def test_box_of_full_words_samples(self, capsys):
        code, out, _ = _run(
            capsys, "sample", "--n", "3", "--t", str(2**64), "--count", "2",
            "--seed", "5",
        )
        assert code == 0
        assert out.splitlines()[4:] == [
            f"{i}: {','.join(map(str, draw_instance(5, i, 3, 2**64)[0].a))}"
            for i in range(2)
        ]

    def test_jobs_flag_keeps_output_identical(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        for base in [
            ("tail", "--n", "3", "--t", "40", "--count", "240", "--seed", "5",
             "--epsilon", "4/5", "--thresholds", "1/4,1/2", "--format", "json"),
            ("mean", "--n", "4", "--t", "30,60", "--count", "150", "--seed", "5",
             "--epsilon", "1/2", "--format", "json"),
        ]:
            results = []
            for jobs in ("1", "2", "3"):
                code, out, _ = _run(capsys, *base, "--jobs", jobs, "--out", str(target))
                assert code == 0
                results.append((out, target.read_bytes()))
            assert results[0] == results[1] == results[2]


# Run in a fresh interpreter: prints the CLI's exit code and stdout, then
# whether numpy got loaded.
_STARTUP_PROBE = """
import contextlib, io, json, sys
import knapgap.cli
loaded_at_import = "numpy" in sys.modules
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = knapgap.cli.run(sys.argv[1:])
print(json.dumps([code, buf.getvalue(), loaded_at_import, "numpy" in sys.modules]))
"""


# the peak resident set of a fresh interpreter's run, in kB
_PEAK_PROBE = """
import contextlib, io, json, sys
import knapgap.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = knapgap.cli.run(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, buf.getvalue(), peak]))
"""


# the exit code, the size of stdout and the peak resident set in kB of a
# fresh interpreter's run whose stdout is counted and dropped
_SINK_PEAK_PROBE = """
import contextlib, json, sys
import knapgap.cli
class Sink:
    size = 0
    def write(self, text):
        self.size += len(text)
    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)
    def flush(self):
        pass
sink = Sink()
with contextlib.redirect_stdout(sink):
    code = knapgap.cli.run(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, sink.size, peak]))
"""


def _fresh_run(*argv, probe=_STARTUP_PROBE):
    src = str(Path(knapgap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


class TestNumpyFreeStartup:
    def test_import_and_sampling_load_no_numpy(self):
        code, out, at_import, after = _fresh_run(
            "tail", "--n", "3", "--t", "2000", "--count", "300", "--seed", "1",
            "--epsilon", "4/5", "--thresholds", "1/4,1/2,1",
        )
        assert (code, at_import, after) == (0, False, False)
        assert "fitted_slope" in out
        # tables below the numpy cutoff stay on Python ints
        code, out, _, after = _fresh_run(
            "mean", "--n", "5", "--t", "25,50", "--count", "100", "--seed", "1",
            "--epsilon", "1/2",
        )
        assert (code, after) == (0, False)

    def test_large_table_loads_numpy(self):
        a = (192, 251, 317, 400)
        assert min(a) >= knapgap.group._NUMPY_MIN_MODULUS
        code, out, at_import, after = _fresh_run(
            "frobenius", "--a", ",".join(map(str, a))
        )
        assert (code, at_import, after) == (0, False, True)
        g = frobenius_sieve_oracle(KnapsackInstance(a))
        assert f"g = {g}" in out.splitlines()

    def test_three_coefficient_gap_loads_no_numpy(self):
        # a_tau = 1789 would take the numpy kernel; the staircase route runs
        # no table at all
        code, out, at_import, after = _fresh_run(
            "gap", "--a", "1234,1789,1999", "--c", "3/2,-1,7"
        )
        assert (code, at_import, after) == (0, False, False)
        assert "gap = 617013/1789" in out.splitlines()


# argv for the subcommands on the residue routes: n = 2..5 small
# coefficients, rational weights and rational or negative costs.  One list
# in four is spoilt: an entry swapped for a malformed token (or for a zero,
# negative or fractional coefficient, or a negative weight), or the list one
# entry short.  Flags other than --c may be left out, or get an invalid
# value, and a list that starts with "-" needs the --flag=value form, which
# it gets only sometimes.
_MALFORMED = st.sampled_from(["", "x", "1.5", "1/0", "3/-2", "1e3", "0x1f", "--", "½"])
_COEFFICIENT = st.integers(min_value=1, max_value=40).map(str)
_BAD_COEFFICIENT = st.one_of(_MALFORMED, st.sampled_from(["0", "-3", "3/2"]))
_WEIGHT = st.fractions(min_value=0, max_value=6, max_denominator=5).map(str)
_COST = st.fractions(min_value=-6, max_value=6, max_denominator=5).map(str)


@st.composite
def _listed(draw, token, bad, size):
    items = [draw(token) for _ in range(size)]
    spoil = draw(st.integers(0, 7))
    if spoil == 0:
        items[draw(st.integers(0, size - 1))] = draw(bad)
    elif spoil == 1:
        items.pop()
    return ",".join(items)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["frobenius", "group", "gap", "bounds"]))
    n = draw(st.integers(2, 5))
    argv = [command, "--a", draw(_listed(_COEFFICIENT, _BAD_COEFFICIENT, n))]
    options = []
    if command == "group":
        bad = st.one_of(_MALFORMED, st.just("-1/2"))
        options += [("--tau", str(draw(st.integers(-1, n + 1)))),
                    ("--w", draw(_listed(_WEIGHT, bad, n - 1)))]
    if command in ("gap", "bounds"):
        options.append(("--c", draw(_listed(_COST, _MALFORMED, n))))
    if command == "gap":
        options.append(("--b", str(draw(st.integers(-2, 60)))))
    formats = st.sampled_from(["text", "json", "text", "json", "csv"])
    options.append(("--format", draw(formats)))
    for flag, value in options:
        if flag != "--c" and draw(st.booleans()):
            continue
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


# argv for the sampling subcommands and lovasz: small n, T and count, so a
# run takes milliseconds; epsilon and thresholds as p/q; bits around the
# floor of 8; tail and mean write --out.  One value in ten is malformed or
# out of range, one required flag in twenty is left out, and sample is
# sometimes given the --out it does not take.
_THRESHOLD = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8).map(str)
_REQUIRED = {"--n", "--t", "--count", "--seed", "--delta", "--beta", "--epsilon"}


@st.composite
def _mostly(draw, good, bad):
    return draw(bad if draw(st.integers(0, 9)) == 9 else good)


def _number(lo, hi, bad):
    return _mostly(st.integers(lo, hi).map(str), st.one_of(st.sampled_from(bad), _MALFORMED))


def _ratio():
    closed = st.fractions(min_value=0, max_value=1, max_denominator=9)
    inner = closed.filter(lambda x: 0 < x < 1)
    return _mostly(inner.map(str), st.one_of(closed.map(str), _MALFORMED))


@st.composite
def _sampling_argv(draw, out):
    command = draw(st.sampled_from(["sample", "tail", "mean", "lovasz"]))
    if command == "lovasz":
        options = [
            ("--n", draw(_number(2, 12, ["1", "-1"]))),
            ("--delta", draw(_number(1, 6, ["0"]))),
            ("--beta", draw(_ratio())),
        ]
    else:
        cap = _number(1, 60, ["0", "-5", str(2**64 + 1)])
        ladder = st.lists(cap, min_size=1, max_size=3 if command == "mean" else 1)
        options = [
            ("--n", draw(_number(3, 5, ["1", "2"]))),
            ("--t", ",".join(draw(ladder))),
            ("--count", draw(_number(1, 400, ["0", "-1"]))),
            ("--seed", draw(_number(0, 2**64 - 1, ["-1", str(2**64)]))),
        ]
    if command in ("tail", "mean"):
        options += [
            ("--epsilon", draw(_ratio())),
            ("--bits", draw(_number(8, 12, ["6", "7"]))),
            ("--thresholds", draw(_listed(_THRESHOLD, _MALFORMED, draw(st.integers(1, 4))))),
            ("--jobs", draw(_number(1, 2, ["0"]))),
            ("--out", out),
        ]
    elif command == "sample" and draw(st.integers(0, 9)) == 9:
        options.append(("--out", out))
    formats = ["text", "json", "csv"] if command == "sample" else ["text", "json"]
    options.append(("--format", draw(st.sampled_from(formats))))
    argv = [command]
    for flag, value in options:
        if draw(st.integers(0, 19)) == 19 if flag in _REQUIRED else draw(st.booleans()):
            continue
        if draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _fuzz_run(argv, cells):
    """run(argv) under a guardrail cap of cells: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("KNAPGAP_GUARDRAIL_CELLS")
    os.environ["KNAPGAP_GUARDRAIL_CELLS"] = cells
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if saved is None:
            del os.environ["KNAPGAP_GUARDRAIL_CELLS"]
        else:
            os.environ["KNAPGAP_GUARDRAIL_CELLS"] = saved
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    @given(argv=_argv())
    @settings(max_examples=300, deadline=None)
    def test_every_run_exits_cleanly(self, argv):
        code, out, err = _fuzz_run(argv, "30")
        assert code in (0, 2, 3, 64), (argv, code, err)
        assert "Traceback" not in out + err
        assert bool(err) == (code != 0), (argv, err)

    @given(data=st.data(), cells=st.sampled_from(["8", "60", "400"]))
    @settings(
        max_examples=150,
        deadline=5000,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_sampling_run_exits_cleanly(self, tmp_path, data, cells):
        # a refused run leaves the file at --out as it was; sample --format
        # csv echoes its flags on stderr, so only a failure must write there
        path = tmp_path / "records.csv"
        path.write_bytes(b"left as it was\n")
        argv = data.draw(_sampling_argv(str(path)), label="argv")
        code, out, err = _fuzz_run(argv, cells)
        assert code in (0, 2, 3, 64), (argv, code, err)
        assert "Traceback" not in out + err
        if code:
            assert err, argv
            assert path.read_bytes() == b"left as it was\n", argv
        elif argv[0] in ("tail", "mean") and any(x.startswith("--out") for x in argv):
            assert path.read_text(encoding="utf-8").startswith("n,T,seed,index,"), argv
