"""Command line front end.

Subcommands expose the library one computation each: frobenius, group, gap,
bounds, lovasz, sample, tail, mean.  Exit codes: 0 success, 1 I/O failure,
2 validation error, 3 guardrail refusal, 64 usage error, 70 internal error,
130 interrupted; a failure prints one line on stderr, never a traceback.
Every run prints its resolved configuration (seed included, where one
exists) before any result: on stdout for text output, inside the document
for json, on stderr for csv so the stream itself stays machine readable.

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
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from . import experiments as xp
from .bounds import check_bounds
from .core import KnapsackInstance, as_fraction, lp_value, validate_instance
from .errors import GuardrailExceeded, ValidationError
from .gap import gap_exact, ip_value
from .group import group_minima, lattice_gap, tightness_threshold
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
    return validate_instance(_ints(args.a, "--a"))


def _echo(pairs: list[tuple[str, str]], fmt: str) -> None:
    stream = sys.stdout if fmt == "text" else sys.stderr
    for key, value in pairs:
        print(f"{key} = {value}", file=stream)


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder when built


def _json_scalar(value) -> str:
    """A leaf exactly as json.dumps writes it."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # NaN and the infinities have their own names
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte.

    With an indent the json module runs its pure-Python encoder; this writes
    the same layout directly and encodes each leaf on the C path.  pad is
    the newline plus indentation that closes the value.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = (
            f"{_encode_str(k if isinstance(k, str) else _json_scalar(k))}: "
            f"{_json_text(v, inner)}"
            for k, v in value.items()
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        # Long lists of one leaf type (residue minima, loads, witness rows)
        # map the encoder over the list without a Python call per item.
        types = set(map(type, value))
        if types == {int}:
            items = map(int.__repr__, value)
        elif types == {str}:
            items = map(_encode_str, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return _json_scalar(value)


def _print_json(doc: dict) -> None:
    print(_json_text(doc))


# --------------------------------------------------------------- frobenius


def _cmd_frobenius(args: argparse.Namespace) -> int:
    inst = _instance(args)
    config = [("a", ",".join(map(str, inst.a)))]
    from .group import frobenius

    g = frobenius(inst)
    simplex, integral = g + sum(inst.a), g + inst.a[-1]
    if args.format == "json":
        _print_json(
            {
                "config": {"a": list(inst.a)},
                "g": g,
                "covering_radius_simplex": simplex,
                "covering_radius_integral": integral,
            }
        )
    else:
        _echo(config, args.format)
        print(f"g = {g}")
        print(f"covering_radius_simplex = {simplex}")
        print(f"covering_radius_integral = {integral}")
    return 0


# ------------------------------------------------------------------- group


def _cmd_group(args: argparse.Namespace) -> int:
    inst = _instance(args)
    if args.tau is None:
        tau = inst.a.index(inst.min_entry)
    else:
        if not 1 <= args.tau <= inst.n:
            raise ValidationError(f"--tau {args.tau} out of range 1..{inst.n}")
        tau = args.tau - 1
    if args.w is None:
        weights: Sequence = [inst.a[j] for j in range(inst.n) if j != tau]
        w_text = ",".join(str(v) for v in weights)
    else:
        weights = _rationals(args.w, "--w")
        w_text = args.w
    config = [
        ("a", ",".join(map(str, inst.a))),
        ("tau", str(tau + 1)),
        ("w", w_text),
    ]
    table = group_minima(inst, tau, weights)
    gap = lattice_gap(table)
    bstar = tightness_threshold(table)
    witness = table.witness
    if args.format == "json":
        _print_json(
            {
                "config": {"a": list(inst.a), "tau": tau + 1, "w": w_text.split(",")},
                "modulus": table.modulus,
                "lattice_gap": str(gap),
                "threshold": bstar,
                "minima": [str(v) for v in table.minima],
                "witness": [list(x) for x in witness],
                "load": list(table.load),
            }
        )
        return 0
    _echo(config, args.format)
    print(f"modulus = {table.modulus}")
    print(f"lattice_gap = {gap}")
    print(f"threshold = {bstar}")
    limit = 50
    shown = min(table.modulus, limit)
    print("r minima witness load")
    for r in range(shown):
        x = ",".join(map(str, witness[r]))
        print(f"{r} {table.minima[r]} ({x}) {table.load[r]}")
    if table.modulus > limit:
        print(f"... {table.modulus - limit} more rows, use --format json for all")
    return 0


# --------------------------------------------------------------------- gap


def _cmd_gap(args: argparse.Namespace) -> int:
    inst = _instance(args)
    costs = _rationals(args.c, "--c")
    config = [("a", ",".join(map(str, inst.a))), ("c", args.c)]
    if args.b is not None:
        if args.b < 0:
            # Let the library raise the canonical message.
            lp_value(inst, costs, args.b)
        config.append(("b", str(args.b)))
        ip = ip_value(inst, costs, args.b)
        lp = lp_value(inst, costs, args.b)
        # integrality_gap would rerun the O(b) dynamic program behind ip
        ig = None if ip is None else ip - lp
        if args.format == "json":
            _print_json(
                {
                    "config": {"a": list(inst.a), "c": args.c.split(","), "b": args.b},
                    "feasible": ip is not None,
                    "ip": None if ip is None else str(ip),
                    "lp": str(lp),
                    "gap": None if ig is None else str(ig),
                }
            )
            return 0
        _echo(config, args.format)
        if ip is None:
            print("infeasible")
        else:
            print(f"ip = {ip}")
            print(f"lp = {lp}")
            print(f"gap = {ig}")
        return 0
    report = gap_exact(inst, costs)
    if args.format == "json":
        _print_json(
            {
                "config": {"a": list(inst.a), "c": args.c.split(",")},
                "gap": str(report.gap),
                "witness_b": report.witness_b,
                "threshold": report.threshold,
                "tail_gap": str(report.tail_gap),
                "scan_gap": str(report.scan_gap),
                "tau": report.tau + 1,
                "generic": report.generic,
            }
        )
        return 0
    _echo(config, args.format)
    print(f"gap = {report.gap}")
    print(f"witness_b = {report.witness_b}")
    print(f"threshold = {report.threshold}")
    print(f"tail_gap = {report.tail_gap}")
    print(f"scan_gap = {report.scan_gap}")
    print(f"tau = {report.tau + 1}")
    print(f"generic = {str(report.generic).lower()}")
    return 0


# ------------------------------------------------------------------ bounds


def _cmd_bounds(args: argparse.Namespace) -> int:
    inst = _instance(args)
    costs = _rationals(args.c, "--c")
    config = [("a", ",".join(map(str, inst.a))), ("c", args.c)]
    report = gap_exact(inst, costs)
    bounds = check_bounds(inst, costs, report.gap)
    lower = (
        None if bounds.lower_covering is None else str(bounds.lower_covering)
    )
    if args.format == "json":
        _print_json(
            {
                "config": {"a": list(inst.a), "c": args.c.split(",")},
                "gap": str(report.gap),
                "schur": bounds.schur,
                "cook": str(bounds.cook),
                "upper_l1": str(bounds.upper_l1),
                "upper_linf": str(bounds.upper_linf),
                "upper_frobenius": str(bounds.upper_frobenius),
                "lower_covering": lower,
                "all_satisfied": bounds.all_satisfied,
            }
        )
        return 0
    _echo(config, args.format)
    print(f"gap = {report.gap}")
    print(f"schur = {bounds.schur}")
    print(f"cook = {bounds.cook}")
    print(f"upper_l1 = {bounds.upper_l1}")
    print(f"upper_linf = {bounds.upper_linf}")
    print(f"upper_frobenius = {bounds.upper_frobenius}")
    print(f"lower_covering = {'n/a' if lower is None else lower}")
    print(f"all_satisfied = {str(bounds.all_satisfied).lower()}")
    return 0


# ------------------------------------------------------------------ lovasz


def _cmd_lovasz(args: argparse.Namespace) -> int:
    example = lovasz_example(args.n, args.delta, args.beta)
    config = [
        ("n", str(example.n)),
        ("delta", str(example.delta)),
        ("beta", str(example.beta)),
    ]
    if args.format == "json":
        _print_json(
            {
                "config": {
                    "n": example.n,
                    "delta": example.delta,
                    "beta": str(example.beta),
                },
                "matrix": [list(row) for row in example.matrix],
                "rhs": [str(v) for v in example.rhs],
                "cost": list(example.cost),
                "lp_solution": [str(v) for v in example.lp_solution],
                "ip_solution": list(example.ip_solution),
                "distance": str(example.distance),
            }
        )
        return 0
    _echo(config, args.format)
    print(f"lp_solution = {','.join(str(v) for v in example.lp_solution)}")
    print(f"ip_solution = {','.join(str(v) for v in example.ip_solution)}")
    print(f"distance = {example.distance}")
    return 0


# ------------------------------------------------------------------ sample


def _sampling_config(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [
        ("n", str(args.n)),
        ("T", args.t),
        ("count", str(args.count)),
        ("seed", str(args.seed)),
    ]


def _cmd_sample(args: argparse.Namespace) -> int:
    t_values = _ints(args.t, "--t")
    if len(t_values) != 1:
        raise ValidationError("sample takes a single --t value")
    cfg = SamplerConfig(n=args.n, T=t_values[0], count=args.count, seed=args.seed)
    rows = list(sample_instances(cfg))
    config = _sampling_config(args)
    if args.format == "json":
        _print_json(
            {
                "config": {
                    "n": cfg.n,
                    "T": cfg.T,
                    "count": cfg.count,
                    "seed": cfg.seed,
                },
                "instances": [list(inst.a) for inst in rows],
            }
        )
        return 0
    if args.format == "csv":
        _echo(config, args.format)
        header = ["n", "T", "seed", "index"] + [f"a_{i}" for i in range(1, cfg.n + 1)]
        print(",".join(header))
        for index, inst in enumerate(rows):
            print(",".join(map(str, [cfg.n, cfg.T, cfg.seed, index, *inst.a])))
        return 0
    _echo(config, args.format)
    for index, inst in enumerate(rows):
        print(f"{index}: {','.join(map(str, inst.a))}")
    return 0


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


def _summary_text(summary: xp.ExperimentSummary) -> None:
    print(f"alpha_theoretical = {summary.alpha_theoretical}")
    slope = summary.fitted_slope
    print(f"fitted_slope = {'n/a' if slope is None else format(slope, '.6f')}")
    print(
        "mean_ratio_upper = "
        f"{summary.mean_upper} ({format(float(summary.mean_upper), '.6g')})"
    )
    print(
        "mean_ratio_lower = "
        f"{summary.mean_lower} ({format(float(summary.mean_lower), '.6g')})"
    )
    for name, survival in (
        ("upper", summary.survival_upper),
        ("lower", summary.survival_lower),
    ):
        for t, frac in survival:
            print(
                f"survival_{name}[t={t}] = {frac} "
                f"({format(float(frac), '.6g')})"
            )
    if summary.flags:
        print(f"flags = {','.join(summary.flags)}")


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


def _cmd_tail(args: argparse.Namespace) -> int:
    t_values = _ints(args.t, "--t")
    if len(t_values) != 1:
        raise ValidationError("tail takes a single --t value")
    config = _experiment_config(args, t_values[0])
    echo = _sampling_config(args) + [
        ("jobs", str(args.jobs)),
        ("epsilon", str(config.epsilon)),
        ("thresholds", args.thresholds),
        ("bits", str(config.bits)),
    ]
    with _records_csv(args.out) as out:
        summary = xp.tail_experiment(config, jobs=args.jobs, out=out)
    if args.format == "json":
        doc = xp.summary_json_dict(summary)
        if args.out:
            doc["records_csv"] = args.out
        _print_json(doc)
        return 0
    _echo(echo, args.format)
    _summary_text(summary)
    if args.out:
        print(f"records_csv = {args.out}")
    return 0


def _cmd_mean(args: argparse.Namespace) -> int:
    t_values = _ints(args.t, "--t")
    configs = [_experiment_config(args, T) for T in t_values]
    echo = _sampling_config(args) + [
        ("jobs", str(args.jobs)),
        ("epsilon", args.epsilon),
        ("thresholds", args.thresholds),
        ("bits", str(args.bits)),
    ]
    with _records_csv(args.out) as out:
        summaries = xp.mean_experiment(configs, jobs=args.jobs, out=out)
    if args.format == "json":
        doc = {
            "config": {
                "n": args.n,
                "T_ladder": t_values,
                "count": args.count,
                "seed": args.seed,
                "epsilon": args.epsilon,
            },
            "summaries": [xp.summary_json_dict(s) for s in summaries],
        }
        if args.out:
            doc["records_csv"] = args.out
        _print_json(doc)
        return 0
    _echo(echo, args.format)
    for summary in summaries:
        print(f"--- T = {summary.T}")
        _summary_text(summary)
    if args.out:
        print(f"records_csv = {args.out}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="knapgap",
        description="Exact integrality-gap toolkit for integer knapsacks",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_format(p: _Parser, *choices: str) -> None:
        p.add_argument(
            "--format",
            choices=list(choices),
            default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("frobenius", help="Frobenius number and covering radii")
    p.add_argument("--a", required=True, help="coefficients, e.g. 6,9,20")
    add_format(p, "text", "json")
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("group", help="residue-class minima table")
    p.add_argument("--a", required=True, help="coefficients, e.g. 6,9,20")
    p.add_argument("--tau", type=int, help="1-based pivot position (default: min)")
    p.add_argument("--w", help="weights p/q, comma separated (default: coefficients)")
    add_format(p, "text", "json")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("gap", help="exact integrality gap")
    p.add_argument("--a", required=True, help="coefficients, e.g. 3,5")
    p.add_argument("--c", required=True, help="costs p/q, comma separated")
    p.add_argument("--b", type=int, help="single right hand side instead of the max")
    add_format(p, "text", "json")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("bounds", help="closed-form bounds against the exact gap")
    p.add_argument("--a", required=True, help="coefficients")
    p.add_argument("--c", required=True, help="costs p/q, comma separated")
    add_format(p, "text", "json")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("lovasz", help="bidiagonal LP/IP distance example")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--beta", required=True, help="rational in (0,1), e.g. 1/2")
    add_format(p, "text", "json")
    p.set_defaults(handler=_cmd_lovasz)

    def add_sampling(p: _Parser) -> None:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", required=True, help="coefficient cap T")
        p.add_argument("--count", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sample", help="draw uniform valid instances")
    add_sampling(p)
    add_format(p, "text", "csv", "json")
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
        add_format(p, "text", "json")

    p = sub.add_parser("tail", help="survival tail of the upper bracket")
    add_experiment(p)
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("mean", help="bracket means over a ladder of T values")
    add_experiment(p)
    p.set_defaults(handler=_cmd_mean)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        return USAGE_EXIT
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardrailExceeded as exc:
        print(f"guardrail: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
