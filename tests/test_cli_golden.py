"""Byte-exact CLI corpus: stdout, stderr, exit code and --out CSV per run.

Every subcommand runs in each of its formats, plus the paths that leave
the usual layout: the raw flag echo of sampling runs (sample --t 0100,
mean --epsilon 2/4), an infeasible gap --b, bounds without a covering
lower bound, a group table of more than 50 rows, and exits 2, 3 and 64.
The expected bytes live in cli_golden.json next to this file; rebuild it
after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from knapgap.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")
OUT = "records.csv"
TINY_CAP = {"KNAPGAP_GUARDRAIL_CELLS": "4"}

_TAIL = ("tail", "--n", "3", "--t", "50", "--count", "300", "--seed", "9",
         "--epsilon", "4/5", "--thresholds", "1/4,1/2,1")
_MEAN = ("mean", "--n", "3", "--t", "10,20", "--count", "40", "--seed", "8",
         "--epsilon", "4/5")
_MEAN_RAW = ("mean", "--n", "4", "--t", "0030,60", "--count", "60", "--seed", "5",
             "--epsilon", "2/4", "--thresholds", "1, 2")

# (argv, environment overrides); a case writes --out when its argv says so
CASES: list[tuple[tuple[str, ...], dict[str, str]]] = [
    (("frobenius", "--a", "6,9,20"), {}),
    (("frobenius", "--a", "6,9,20", "--format", "json"), {}),
    (("frobenius", "--a", "12,13,14,15,16"), {}),
    (("frobenius", "--a", "12,13,14,15,16", "--format", "json"), {}),
    (("frobenius", "--a", "2,4"), {}),
    (("frobenius", "--a", "0,5", "--format", "json"), {}),
    (("frobenius", "--a", "6,9,20"), TINY_CAP),
    (("group", "--a", "3,5"), {}),
    (("group", "--a", "3,5", "--format", "json"), {}),
    (("group", "--a", "6,9,20", "--tau", "2", "--w", "1/2, 3"), {}),
    (("group", "--a", "6,9,20", "--tau", "2", "--w", "1/2, 3", "--format", "json"),
     {}),
    (("group", "--a", "61,97,131"), {}),
    (("group", "--a", "61,97,131", "--format", "json"), {}),
    (("group", "--a", "6,9,20", "--tau", "4"), {}),
    (("group", "--a", "6,9,20"), {"KNAPGAP_GUARDRAIL_CELLS": "10"}),
    (("gap", "--a", "3,5", "--c", "3,0"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--format", "json"), {}),
    (("gap", "--a", "6,9,20", "--c", "3,5,7"), {}),
    (("gap", "--a", "6,9,20", "--c", "3,5,7", "--format", "json"), {}),
    (("gap", "--a", "3,5,7", "--c", "3,5,7"), {}),
    (("gap", "--a", "3,5,7", "--c", "3,5,7", "--format", "json"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--b", "12"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--b", "12", "--format", "json"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--b", "7"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--b", "7", "--format", "json"), {}),
    (("gap", "--a", "3,5", "--c", "3,0", "--b", "-1"), {}),
    (("gap", "--a", "2,3,5", "--c=-1,-1,-1"), {}),
    (("gap", "--a", "2,3,5", "--c=-1,-1,-1", "--format", "json"), {}),
    (("gap", "--a", "2,3,5", "--c", "-1,-1,-1"), {}),
    (("gap", "--a", "3,5", "--c", "0.5,1"), {}),
    (("gap", "--a", "3,5", "--c", "1,2,3"), {}),
    (("bounds", "--a", "3,5", "--c", "3,0"), {}),
    (("bounds", "--a", "3,5", "--c", "3,0", "--format", "json"), {}),
    (("bounds", "--a", "3,5", "--c", "3,5"), {}),
    (("bounds", "--a", "3,5", "--c", "3,5", "--format", "json"), {}),
    (("bounds", "--a", "6,9,20", "--c", "3,5,7"), {}),
    (("lovasz", "--n", "5", "--delta", "3", "--beta", "1/2"), {}),
    (("lovasz", "--n", "5", "--delta", "3", "--beta", "1/2", "--format", "json"),
     {}),
    (("lovasz", "--n", "5", "--delta", "3", "--beta", "3/2"), {}),
    (("sample", "--n", "3", "--t", "0100", "--count", "4", "--seed", "42"), {}),
    (("sample", "--n", "3", "--t", "0100", "--count", "4", "--seed", "42",
      "--format", "csv"), {}),
    (("sample", "--n", "3", "--t", "0100", "--count", "4", "--seed", "42",
      "--format", "json"), {}),
    (("sample", "--n", "3", "--t", "5,6", "--count", "4", "--seed", "42"), {}),
    (("sample", "--n", "3", "--t", "18446744073709551617", "--count", "2",
      "--seed", "5"), {}),
    (_TAIL, {}),
    (_TAIL + ("--format", "json"), {}),
    (_TAIL + ("--epsilon", "2/4", "--jobs", "2", "--out", OUT), {}),
    (_TAIL + ("--epsilon", "2/4", "--out", OUT, "--format", "json"), {}),
    (_TAIL[:6] + ("30",) + _TAIL[7:], {}),
    (_TAIL + ("--epsilon", "3/2"), {}),
    (_TAIL + ("--out", OUT), TINY_CAP),
    (_MEAN, {}),
    (_MEAN + ("--format", "json"), {}),
    (_MEAN_RAW + ("--out", OUT), {}),
    (_MEAN_RAW + ("--jobs", "2", "--out", OUT, "--format", "json"), {}),
    (_MEAN, TINY_CAP),
    (("frobenius",), {}),
    (("bounds", "--a", "61,97,131,173", "--c=-1,1/2,3/4,5"), {}),
    (("bounds", "--a", "61,97,131,173", "--c=-1,1/2,3/4,5", "--format", "json"),
     {}),
    (("gap", "--a", "1234,1789,1999,2311", "--c", "3/2,-1,7,2"), {}),
    (("gap", "--a", "1234,1789,1999,2311", "--c", "3/2,-1,7,2", "--format", "json"),
     {}),
    (("bounds", "--a", "1234,1789,1999,2311", "--c", "3/2,-1,7,2"), {}),
    (("bounds", "--a", "1234,1789,1999,2311", "--c", "3/2,-1,7,2", "--format",
      "json"), {}),
    (("bounds", "--a", "1234,1789,1999", "--c", "1234,1789,1999"), {}),
    (("bounds", "--a", "1234,1789,1999", "--c", "1234,1789,1999", "--format",
      "json"), {}),
    # a_tau = 3000016: the staircase route, recorded from the table route
    (("gap", "--a", "1000003,2000009,3000016", "--c", "3,5,7"), {}),
    (("gap", "--a", "1000003,2000009,3000016", "--c", "3,5,7", "--format", "json"),
     {}),
    # (m, m + 1, 2m - 1) at m = 3 * 10**7: one long run of quotient 2 in
    # the record-low walk
    (("frobenius", "--a", "30000000,30000001,59999999"), {}),
    (("frobenius", "--a", "30000000,30000001,59999999", "--format", "json"), {}),
    (("bounds", "--a", "30000000,30000001,59999999", "--c", "3,5,7"), {}),
    (("bounds", "--a", "30000000,30000001,59999999", "--c", "3,5,7", "--format",
      "json"), {}),
]


def _name(argv: tuple[str, ...], env: dict[str, str]) -> str:
    return " ".join(argv) + "".join(f" [{k}={v}]" for k, v in env.items())


def invoke(argv: tuple[str, ...], env: dict[str, str]) -> dict:
    """Run the CLI in process from an empty directory and record its bytes."""
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in env}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = run(list(argv))
                except SystemExit as exc:
                    code = exc.code
            target = Path(work, OUT)
            csv = target.read_bytes().decode("utf-8") if target.exists() else None
        finally:
            os.chdir(here)
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "csv": csv}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "argv, env", CASES, ids=[f"{i:02d}-{argv[0]}" for i, (argv, _) in enumerate(CASES)]
)
def test_cli_output_is_byte_identical(argv, env):
    expected = _expected()[_name(argv, env)]
    assert invoke(argv, env) == expected


def test_corpus_matches_cases():
    assert list(_expected()) == [_name(argv, env) for argv, env in CASES]


if __name__ == "__main__":
    doc = {_name(argv, env): invoke(argv, env) for argv, env in CASES}
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    sys.exit(0)
