"""In-memory spans around calls into knapgap's public functions.

The benchmark wraps module attributes from its own code; nothing inside the
package is instrumented.  Each span is [id, parent id, name, start, end,
attrs], ids index the run's span list, and every span of one run shares
the tracer's run id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, attrs=None):
        """fn with a span around each call; attrs(args, result) -> dict."""

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[5] = attrs(args, out)
            return out

        return traced

    def dump(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [dict(zip(fields, s), run=self.run_id) for s in self.spans]},
                handle,
                separators=(",", ":"),
            )


# (module, public function, attrs) whose calls the traced runs wrap.  The
# names are patched where the caller looks them up, so a call from
# experiments.compute_record to draw_instance goes through the wrapper.
SAMPLING_TARGETS = [
    ("knapgap.experiments", "draw_instance", lambda args, out: {"attempts": out[1]}),
    ("knapgap.experiments", "frobenius", lambda args, out: {"residues": args[0].min_entry}),
    ("knapgap.experiments", "bracket_ratios", None),
    ("knapgap.experiments", "pow_bounds", None),
    ("knapgap.experiments", "sample_records", None),
    ("knapgap.experiments", "summarize", None),
    ("knapgap.experiments", "write_records_csv", None),
    ("knapgap.experiments", "summary_json_dict", None),
]
GAP_TARGETS = [
    ("knapgap.gap", "basis_reduction", None),
    ("knapgap.gap", "group_minima", None),
    ("knapgap.gap", "tightness_threshold", None),
]


def install(tracer: Tracer, targets) -> callable:
    """Patch every target with a traced wrapper; return the undo function.
    A target that no longer exists raises AttributeError."""
    saved = []
    for module_name, attr, attrs in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, tracer.wrap(original, attr, attrs))
        saved.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    return restore


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], *, jobs: int = 1, csv_bytes: int = 0) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    Times are self times (span time minus time covered by child spans),
    except gap.exact_s, bounds.check_s and experiments.sample_records_s,
    which include their children.  gap.scan_s is derived: gap_exact's self
    time, i.e. gap.exact_s minus the reduction, table and tree spans.
    """
    covered = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attr: Counter = Counter()
    for sid, _, name, start, end, attrs in spans:
        incl[name] += end - start
        own[name] += end - start - covered[sid]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            attr[f"{name}.{key}"] += value
    busy = incl["draw_instance"] + incl["frobenius"] + incl["bracket_ratios"]
    return {
        "instances.draw_s": own["draw_instance"],
        "instances.draws": calls["draw_instance"],
        "instances.gcd_attempts": attr["draw_instance.attempts"],
        "instances.accept_ratio": _ratio(calls["draw_instance"], attr["draw_instance.attempts"]),
        "group.frobenius_s": own["frobenius"],
        "group.frobenius_calls": calls["frobenius"],
        "group.residues": attr["frobenius.residues"],
        "group.ns_per_residue": _ratio(own["frobenius"] * 1e9, attr["frobenius.residues"]),
        "group.minima_s": own["group_minima"],
        "group.tight_tree_s": own["tightness_threshold"],
        "core.reduction_s": own["basis_reduction"],
        "gap.exact_s": incl["gap_exact"],
        "gap.calls": calls["gap_exact"],
        "gap.scan_cells": attr["gap_exact.cells"],
        "gap.scan_s": own["gap_exact"],
        "gap.ns_per_scan_cell": _ratio(own["gap_exact"] * 1e9, attr["gap_exact.cells"]),
        "bounds.check_s": incl["check_bounds"],
        "bounds.calls": calls["check_bounds"],
        "rounding.pow_bounds_s": own["pow_bounds"],
        "rounding.pow_bounds_calls": calls["pow_bounds"],
        "rounding.cache_hit_ratio": _ratio(calls["bracket_ratios"] - calls["pow_bounds"], calls["bracket_ratios"]),
        "experiments.bracket_s": own["bracket_ratios"],
        "experiments.bracket_calls": calls["bracket_ratios"],
        "experiments.summarize_s": own["summarize"],
        "experiments.csv_s": own["write_records_csv"],
        "experiments.csv_bytes": csv_bytes,
        "experiments.json_s": own["summary_json_dict"],
        "experiments.sample_records_s": incl["sample_records"],
        "experiments.record_busy_s": busy,
        "experiments.pool_efficiency": _ratio(busy, jobs * incl["sample_records"]),
        "cli.self_s": own["cli"],
    }
