"""Command line front end.

Subcommands expose the library one computation each: frobenius, group, gap,
bounds, lovasz, sample, tail, mean.  Exit codes: 0 success, 1 I/O failure,
2 validation error, 3 guardrail refusal, 64 usage error, 70 internal error,
130 interrupted; a failure prints one line on stderr, never a traceback.

Output: each subcommand builds one JSON-ready document, its resolved
configuration (seed included, where one exists) under "config" first and
rationals as p/q strings, and _emit writes it.  json writes the document
chunk by chunk as it is read, so an iterator entry (lovasz's matrix rows,
sample's instances) streams.
Text is the config echo plus a `key = value` line per other entry (lists
comma joined, booleans lower case, None as n/a), unless the subcommand
gives its own lines.  csv puts the echo on stderr, so the stream itself
stays machine readable.  sample, tail and mean echo their flags as typed.

Rational values are written p/q or as plain integers; decimal notation is
rejected.  Positions (tau and friends) are 1-based on this surface, matching
the a_1..a_n naming of --a; library APIs are 0-based.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, islice
from typing import Sequence

from . import experiments as xp
from .bounds import check_bounds
from .core import KnapsackInstance, as_fraction, lp_value
from .errors import GuardrailExceeded, ValidationError
from .gap import gap_exact, ip_value
from .group import group_minima, tightness_threshold
from .instances import SamplerConfig, lovasz_example, sample_instances

USAGE_EXIT = 64
INTERNAL_EXIT = 70  # EX_SOFTWARE: an exception the package does not expect
INTERRUPTED_EXIT = 130  # 128 + SIGINT, as a shell reports Ctrl-C

DEFAULT_THRESHOLDS = "1,3/2,2,3,4,6,8"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _ints(text: str, what: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError as exc:
            raise ValidationError(f"{what}: {piece!r} is not an integer") from exc
    return out


def _rationals(text: str, what: str) -> list[Fraction]:
    return [as_fraction(piece.strip(), what) for piece in text.split(",")]


def _instance(args: argparse.Namespace) -> KnapsackInstance:
    return KnapsackInstance(_ints(args.a, "--a"))


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder when built


def _leaves(items: Sequence, pad: str) -> str | None:
    """Items all int or all str, joined as json.dumps lays them out inside
    brackets closed by pad, brackets left off; None for any other items.

    The encoder is mapped over them without a Python call per item."""
    types = set(map(type, items))
    if types == {int}:
        return f",{pad}  ".join(map(int.__repr__, items))
    if types == {str}:
        return f",{pad}  ".join(map(_encode_str, items))
    return None


def _json_chunks(value, pad: str = "\n") -> Iterator[str]:
    """json.dumps(value, indent=2), byte for byte, as a run of str chunks.

    With an indent the json module runs its pure-Python encoder; this writes
    the same layout directly and encodes each leaf on the C path.  pad is
    the newline plus indentation that closes the value.  An iterator is
    written as the list it yields, read _JSON_BATCH items at a time, so a
    bulk column (the rows of a large matrix) is never held whole.  A list,
    and each such batch, of ints or of strs is one join; so is each row of
    them inside one.
    """
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = pad + "  "
        head = "{" + inner
        for k, v in value.items():
            yield f"{head}{_encode_str(k if isinstance(k, str) else json.dumps(k))}: "
            yield from _json_chunks(v, inner)
            head = "," + inner
        yield pad + "}"
        return
    if not isinstance(value, (list, tuple, Iterator)):
        yield json.dumps(value)
        return
    inner = pad + "  "
    head = "[" + inner
    if isinstance(value, Iterator):
        batches = iter(lambda: list(islice(value, _JSON_BATCH)), [])
    else:
        batches = (value,) if value else ()
    for batch in batches:
        text = _leaves(batch, pad)
        if text is not None:
            yield head + text
            head = "," + inner
            continue
        for item in batch:
            # a row of leaves (a witness row, a matrix row) is one chunk
            row = _leaves(item, inner) if isinstance(item, (list, tuple)) else None
            if row is not None:
                yield f"{head}[{inner}  {row}{inner}]"
            else:
                yield head
                yield from _json_chunks(item, inner)
            head = "," + inner
    yield "[]" if head[0] == "[" else pad + "]"


_JSON_BATCH = 256  # items of an iterator that _json_chunks holds at once


def _text(value) -> str:
    """One document value as a text field."""
    if isinstance(value, list):
        return ",".join(map(_text, value))
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _pairs(doc: dict, keys: Iterable[str]) -> list[str]:
    return [f"{key} = {_text(doc[key])}" for key in keys]


def _emit(args: argparse.Namespace, doc: dict, *, echo=None, lines=None) -> int:
    """Write doc in args.format (module docstring); returns the exit code."""
    if args.format == "json":
        sys.stdout.writelines(_json_chunks(doc))
        sys.stdout.write("\n")
        return 0
    config = doc["config"] if echo is None else echo
    stream = sys.stdout if args.format == "text" else sys.stderr
    print("\n".join(_pairs(config, config)), file=stream)
    if lines is None:
        lines = _pairs(doc, [key for key in doc if key != "config"])
    for line in lines:
        print(line)
    return 0


# --------------------------------------------------------------- frobenius


def _cmd_frobenius(args: argparse.Namespace) -> int:
    inst = _instance(args)
    from .group import frobenius

    g = frobenius(inst)
    return _emit(
        args,
        {
            "config": {"a": list(inst.a)},
            "g": g,
            "covering_radius_simplex": g + sum(inst.a),
            "covering_radius_integral": g + inst.a[-1],
        },
    )


# ------------------------------------------------------------------- group


def _cmd_group(args: argparse.Namespace) -> int:
    inst = _instance(args)
    tau = inst.a.index(inst.min_entry) if args.tau is None else args.tau - 1
    if not 0 <= tau < inst.n:
        raise ValidationError(f"--tau {args.tau} out of range 1..{inst.n}")
    if args.w is None:
        weights: Sequence = [inst.a[j] for j in range(inst.n) if j != tau]
        w_text = [str(v) for v in weights]
    else:
        weights = _rationals(args.w, "--w")
        w_text = args.w.split(",")
    table = group_minima(inst, tau, weights)
    limit = 50
    # json writes every row, text the first limit rows; a column decodes
    # only the rows it is read for, block by block as they are written
    rows = table.modulus if args.format == "json" else min(table.modulus, limit)
    minima, witness, load = (
        table._column(table._costs, rows),
        table._column(table._witnesses, rows),
        table._column(table._loads, rows),
    )
    doc = {
        "config": {"a": list(inst.a), "tau": tau + 1, "w": w_text},
        "modulus": table.modulus,
        "lattice_gap": str(table.largest_minimum),
        "threshold": tightness_threshold(table),
        "minima": map(str, minima),
        "witness": map(list, witness),
        "load": load,
    }
    if args.format == "json":
        return _emit(args, doc)
    lines = _pairs(doc, ("modulus", "lattice_gap", "threshold"))
    lines.append("r minima witness load")
    for r, (value, x, w) in enumerate(zip(minima, witness, load)):
        lines.append(f"{r} {value} ({','.join(map(str, x))}) {w}")
    if table.modulus > limit:
        more = table.modulus - limit
        lines.append(f"... {more} more rows, use --format json for all")
    return _emit(args, doc, lines=lines)


# --------------------------------------------------------------------- gap


def _cmd_gap(args: argparse.Namespace) -> int:
    inst = _instance(args)
    costs = _rationals(args.c, "--c")
    config = {"a": list(inst.a), "c": args.c.split(",")}
    if args.b is not None:
        config["b"] = args.b
        ip = ip_value(inst, costs, args.b)
        lp = lp_value(inst, costs, args.b)
        # integrality_gap would rerun the O(b) dynamic program behind ip
        doc = {
            "config": config,
            "feasible": ip is not None,
            "ip": None if ip is None else str(ip),
            "lp": str(lp),
            "gap": None if ip is None else str(ip - lp),
        }
        lines = ["infeasible"] if ip is None else _pairs(doc, ("ip", "lp", "gap"))
        return _emit(args, doc, lines=lines)
    report = gap_exact(inst, costs)
    return _emit(
        args,
        {
            "config": config,
            "gap": str(report.gap),
            "witness_b": report.witness_b,
            "threshold": report.threshold,
            "tail_gap": str(report.tail_gap),
            "scan_gap": str(report.scan_gap),
            "tau": report.tau + 1,
            "generic": report.generic,
        },
    )


# ------------------------------------------------------------------ bounds


def _cmd_bounds(args: argparse.Namespace) -> int:
    inst = _instance(args)
    costs = _rationals(args.c, "--c")
    report = gap_exact(inst, costs)
    bounds = check_bounds(inst, costs, report.gap)
    lower = bounds.lower_covering
    return _emit(
        args,
        {
            "config": {"a": list(inst.a), "c": args.c.split(",")},
            "gap": str(report.gap),
            "schur": bounds.schur,
            "cook": str(bounds.cook),
            "upper_l1": str(bounds.upper_l1),
            "upper_linf": str(bounds.upper_linf),
            "upper_frobenius": str(bounds.upper_frobenius),
            "lower_covering": None if lower is None else str(lower),
            "all_satisfied": bounds.all_satisfied,
        },
    )


# ------------------------------------------------------------------ lovasz


def _cmd_lovasz(args: argparse.Namespace) -> int:
    example = lovasz_example(args.n, args.delta, args.beta)
    doc = {
        "config": {"n": example.n, "delta": example.delta, "beta": str(example.beta)},
        "matrix": example._rows(),
        "rhs": [str(v) for v in example.rhs],
        "cost": list(example.cost),
        "lp_solution": [str(v) for v in example.lp_solution],
        "ip_solution": list(example.ip_solution),
        "distance": str(example.distance),
    }
    lines = _pairs(doc, ("lp_solution", "ip_solution", "distance"))
    return _emit(args, doc, lines=lines)


# ------------------------------------------------------------------ sample


def _typed_flags(args: argparse.Namespace, **more) -> dict:
    """The sampling flags as typed, then more: the echo of sample, tail, mean."""
    return {"n": args.n, "T": args.t, "count": args.count, "seed": args.seed, **more}


def _single_t(args: argparse.Namespace) -> int:
    t_values = _ints(args.t, "--t")
    if len(t_values) != 1:
        raise ValidationError(f"{args.command} takes a single --t value")
    return t_values[0]


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = SamplerConfig(n=args.n, T=_single_t(args), count=args.count, seed=args.seed)
    rows = sample_instances(cfg)  # drawn as the one writer reads them
    doc = {
        "config": {"n": cfg.n, "T": cfg.T, "count": cfg.count, "seed": cfg.seed},
        "instances": (list(inst.a) for inst in rows),
    }
    lines: Iterable[str]
    if args.format == "csv":
        head = f"{cfg.n},{cfg.T},{cfg.seed}"
        header = ["n", "T", "seed", "index"] + [f"a_{i}" for i in range(1, cfg.n + 1)]
        lines = chain(
            [",".join(header)],
            (f"{head},{i},{','.join(map(str, inst.a))}" for i, inst in enumerate(rows)),
        )
    else:
        lines = (f"{i}: {','.join(map(str, inst.a))}" for i, inst in enumerate(rows))
    return _emit(args, doc, echo=_typed_flags(args), lines=lines)


# ---------------------------------------------------------------- tail/mean


def _experiment_config(args: argparse.Namespace, T: int) -> xp.ExperimentConfig:
    return xp.ExperimentConfig(
        n=args.n,
        T=T,
        count=args.count,
        seed=args.seed,
        epsilon=as_fraction(args.epsilon, "--epsilon"),
        thresholds=tuple(_rationals(args.thresholds, "--thresholds")),
        bits=args.bits,
    )


def _summary_lines(summary: xp.ExperimentSummary) -> list[str]:
    slope = summary.fitted_slope
    exact = [("mean_ratio_upper", summary.mean_upper)]
    exact += [("mean_ratio_lower", summary.mean_lower)]
    exact += [(f"survival_upper[t={t}]", q) for t, q in summary.survival_upper]
    exact += [(f"survival_lower[t={t}]", q) for t, q in summary.survival_lower]
    lines = [
        f"alpha_theoretical = {summary.alpha_theoretical}",
        f"fitted_slope = {'n/a' if slope is None else format(slope, '.6f')}",
    ]
    lines += [f"{key} = {q} ({format(float(q), '.6g')})" for key, q in exact]
    if summary.flags:
        lines.append(f"flags = {','.join(summary.flags)}")
    return lines


@contextmanager
def _records_csv(path: str | None):
    """A text handle for the record CSV, or None without --out.

    The rows are spooled to a temporary file and copied to path only when
    the run succeeds, so a refused run leaves path untouched.
    """
    if not path:
        yield None
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        yield spool
        spool.seek(0)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            shutil.copyfileobj(spool, handle)


def _emit_run(args: argparse.Namespace, doc: dict, lines: list, epsilon: str) -> int:
    """_emit for tail and mean, naming the record CSV that --out wrote."""
    if args.out:
        doc["records_csv"] = args.out
        lines += _pairs(doc, ["records_csv"])
    echo = _typed_flags(args, jobs=args.jobs, epsilon=epsilon,
                        thresholds=args.thresholds, bits=args.bits)
    return _emit(args, doc, echo=echo, lines=lines)


def _cmd_tail(args: argparse.Namespace) -> int:
    config = _experiment_config(args, _single_t(args))
    with _records_csv(args.out) as out:
        summary = xp.tail_experiment(config, jobs=args.jobs, out=out)
    doc = xp.summary_json_dict(summary)
    return _emit_run(args, doc, _summary_lines(summary), str(config.epsilon))


def _cmd_mean(args: argparse.Namespace) -> int:
    t_values = _ints(args.t, "--t")
    configs = [_experiment_config(args, T) for T in t_values]
    with _records_csv(args.out) as out:
        summaries = xp.mean_experiment(configs, jobs=args.jobs, out=out)
    doc = {
        "config": {
            "n": args.n, "T_ladder": t_values, "count": args.count,
            "seed": args.seed, "epsilon": args.epsilon,
        },
        "summaries": [xp.summary_json_dict(s) for s in summaries],
    }
    lines = [x for s in summaries for x in [f"--- T = {s.T}", *_summary_lines(s)]]
    return _emit_run(args, doc, lines, args.epsilon)


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="knapgap",
        description="Exact integrality-gap toolkit for integer knapsacks",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # argparse takes a value like -1,2 for an option, so it needs --c=-1,2
    costs_help = "costs p/q, comma separated; write --c=-1,2 when the first is negative"

    p = sub.add_parser("frobenius", help="Frobenius number and covering radii")
    p.add_argument("--a", required=True, help="coefficients, e.g. 6,9,20")
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("group", help="residue-class minima table")
    p.add_argument("--a", required=True, help="coefficients, e.g. 6,9,20")
    p.add_argument("--tau", type=int, help="1-based pivot position (default: min)")
    p.add_argument(
        "--w", help="weights p/q, comma separated (default: coefficients); write "
        "--w=LIST when LIST starts with -"
    )
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("gap", help="exact integrality gap")
    p.add_argument("--a", required=True, help="coefficients, e.g. 3,5")
    p.add_argument("--c", required=True, help=costs_help)
    p.add_argument("--b", type=int, help="single right hand side instead of the max")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("bounds", help="closed-form bounds against the exact gap")
    p.add_argument("--a", required=True, help="coefficients")
    p.add_argument("--c", required=True, help=costs_help)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("lovasz", help="bidiagonal LP/IP distance example")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta", required=True, help="rational in (0,1), e.g. 1/2")
    p.set_defaults(handler=_cmd_lovasz)

    def add_sampling(p: _Parser) -> None:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", required=True, help="coefficient cap T")
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sample", help="draw uniform valid instances")
    add_sampling(p)
    p.set_defaults(handler=_cmd_sample)

    def add_experiment(p: _Parser) -> None:
        add_sampling(p)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--epsilon", required=True, help="exponent p/q in (0,1)")
        p.add_argument(
            "--thresholds",
            default=DEFAULT_THRESHOLDS,
            help=f"survival thresholds (default {DEFAULT_THRESHOLDS})",
        )
        p.add_argument("--bits", type=int, default=60)
        p.add_argument("--out", help="write the per-sample records CSV here")

    p = sub.add_parser("tail", help="survival tail of the upper bracket")
    add_experiment(p)
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("mean", help="bracket means over a ladder of T values")
    add_experiment(p)
    p.set_defaults(handler=_cmd_mean)

    for name, p in sub.choices.items():
        formats = ["text", "csv", "json"] if name == "sample" else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default text)")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Some argparse versions drop the value of --flag=-- and store an empty
    # list; every option here takes exactly one value.
    for key, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{key}: expected one argument")
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return USAGE_EXIT
    try:
        return args.handler(args)
    except ValueError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardrailExceeded as exc:
        print(f"guardrail: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED_EXIT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


def main() -> None:
    sys.exit(run())
