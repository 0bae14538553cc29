"""Per-layer tracing by wrapping the package's public functions at run time.

The program's source is not touched: `Tracer.install` replaces each
function in TARGETS, and every alias of it that another `posetderiv`
module imported by name, with a wrapper that records a span.
`Tracer.uninstall` puts the originals back.  Spans stay in memory until
the caller writes them out.

A span is ``[id, parent, name, start, end, request, counts]``.  Counts
are taken from a call's arguments and return value after its clock has
stopped, and the time spent taking them is removed from the clock, so
it inflates no enclosing span either.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

_MARK = "__bench_trace__"


def _smith_counts(args, result):
    a = args[0]
    entries = (result.u.entries, result.s.entries, result.v.entries)
    biggest = max((max(max(e), -min(e)) for e in entries if e), default=0)
    return {
        "cells": a.rows * a.cols,
        "nonzeros": a.rows * a.cols - a.entries.count(0),
        "rank": len(result.divisors),
        "max_entry_bits": biggest.bit_length(),
    }


# (module, attribute path, counts taken from (args, result)).
TARGETS = (
    ("cli", "main", None),
    ("report", "poset_from_json", None),
    ("report", "analysis_report", None),
    ("poset", "Poset.__init__", None),
    ("poset", "canonical_form", None),
    ("poset", "core", lambda args, r: {"removed": args[0].n - r.n}),
    ("poset", "find_crowns", lambda args, r: {"found": len(r)}),
    ("derivations", "consistency_matrix", lambda args, r: {"rows": r.matrix.rows}),
    ("derivations", "outer_witness", None),
    ("derivations", "from_cover_values", None),
    ("derivations", "is_potential", None),
    ("linalg", "smith_normal_form", _smith_counts),
    ("linalg", "kernel_basis", None),
    ("linalg", "solve_linear", None),
    ("homology", "order_complex",
     lambda args, r: {"simplices": sum(map(len, r.simplices_by_dim))}),
    ("homology", "boundary_matrix", lambda args, r: {"cells": r.rows * r.cols}),
    ("homology", "homology", None),
    ("homology", "classify", None),
    ("criteria", "criteria_report", None),
    ("survey", "enumerate_posets", None),
    ("survey", "sweep", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[list] = []
        self._skew = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return time.perf_counter() - self._skew

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, self._now(), None, self.request, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[4] = self._now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:
            self._stack = [s for s in self._stack if s is not span]

    def _count(self, span, counter, args, result) -> None:
        t0 = time.perf_counter()
        span[6] = counter(args, result)
        self._skew += time.perf_counter() - t0

    def _wrap(self, name: str, fn, counter):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    tracer._close(span)
                    span[6] = {"yielded": yielded}

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if counter is not None:
                    tracer._count(span, counter, args, result)
                return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every target and every alias of it in loaded package modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "posetderiv"]
        for module_name, path, counter in TARGETS:
            owner = importlib.import_module(f"posetderiv.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original, counter)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
        self._stack.clear()


def leftover_wrappers() -> list[str]:
    """Names in loaded posetderiv modules that still hold a trace wrapper."""
    out = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "posetderiv":
            continue
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                out.append(f"{name}.{key}")
            elif isinstance(value, type):
                out += [
                    f"{name}.{key}.{k}"
                    for k, v in vars(value).items()
                    if getattr(v, _MARK, False)
                ]
    return out


# -- derived per-layer numbers ------------------------------------------

# metric name -> (span name, statistic); see NOTES.md for what each moves.
SELF_MS = {
    "cli.self_ms": "cli.main",
    "report.parse_ms": "report.poset_from_json",
    "report.analysis_report_self_ms": "report.analysis_report",
    "poset.construct_ms": "poset.Poset.__init__",
    "poset.canonical_form_ms": "poset.canonical_form",
    "poset.core_ms": "poset.core",
    "poset.find_crowns_ms": "poset.find_crowns",
    "derivations.consistency_matrix_ms": "derivations.consistency_matrix",
    "derivations.witness_self_ms": "derivations.outer_witness",
    "derivations.from_cover_values_ms": "derivations.from_cover_values",
    "derivations.is_potential_self_ms": "derivations.is_potential",
    "linalg.kernel_basis_self_ms": "linalg.kernel_basis",
    "linalg.solve_linear_self_ms": "linalg.solve_linear",
    "homology.order_complex_ms": "homology.order_complex",
    "homology.boundary_matrix_ms": "homology.boundary_matrix",
    "criteria.self_ms": "criteria.criteria_report",
    "survey.enumerate_self_ms": "survey.enumerate_posets",
}
CALLS = {
    "poset.construct_calls": "poset.Poset.__init__",
    "poset.canonical_form_calls": "poset.canonical_form",
    "linalg.smith_calls": "linalg.smith_normal_form",
}
SUMS = {
    "poset.core_removed": ("poset.core", "removed"),
    "poset.crowns_found": ("poset.find_crowns", "found"),
    "derivations.relation_rows": ("derivations.consistency_matrix", "rows"),
    "linalg.smith_cells": ("linalg.smith_normal_form", "cells"),
    "linalg.smith_nonzeros": ("linalg.smith_normal_form", "nonzeros"),
    "linalg.smith_rank": ("linalg.smith_normal_form", "rank"),
    "homology.simplices": ("homology.order_complex", "simplices"),
    "homology.boundary_cells": ("homology.boundary_matrix", "cells"),
    "survey.classes": ("survey.enumerate_posets", "yielded"),
}
HOMOLOGY_SELF = ("homology.homology", "homology.classify")
TRANSFORM_PARENTS = ("linalg.kernel_basis", "linalg.solve_linear")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one group of spans (one pass of a workload)."""
    by_id = {s[0]: s for s in spans}
    child_ms: dict[int, float] = {}
    for s in spans:
        if s[1] in by_id:
            child_ms[s[1]] = child_ms.get(s[1], 0.0) + (s[4] - s[3]) * 1000
    total = {}
    self_ms = {}
    calls = {}
    counts: dict[tuple[str, str], int] = {}
    max_bits = 0
    transforms_ms = 0.0
    candidates = 0
    for s in spans:
        sid, parent, name, start, end, _, attrs = s
        ms = (end - start) * 1000
        total[name] = total.get(name, 0.0) + ms
        self_ms[name] = self_ms.get(name, 0.0) + ms - child_ms.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in (attrs or {}).items():
            if key == "max_entry_bits":
                max_bits = max(max_bits, value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value
        parent_name = by_id[parent][2] if parent in by_id else None
        if name == "linalg.smith_normal_form" and parent_name in TRANSFORM_PARENTS:
            transforms_ms += ms
        if name == "poset.canonical_form" and parent_name == "survey.enumerate_posets":
            candidates += 1

    out = {metric: self_ms.get(span, 0.0) for metric, span in SELF_MS.items()}
    out.update({metric: calls.get(span, 0) for metric, span in CALLS.items()})
    out.update({metric: counts.get(key, 0) for metric, key in SUMS.items()})
    out["homology.self_ms"] = sum(self_ms.get(n, 0.0) for n in HOMOLOGY_SELF)
    out["linalg.smith_ms"] = total.get("linalg.smith_normal_form", 0.0)
    out["linalg.smith_max_entry_bits"] = max_bits
    out["linalg.smith_for_transforms_ms"] = transforms_ms
    out["survey.candidates"] = candidates
    out["survey.dedup_ratio"] = out["survey.classes"] / candidates if candidates else 0.0
    return out


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_bits"):
        return "bits"
    if metric in ("survey.dedup_ratio", "trace.overhead_frac"):
        return "1"
    return "count"


def median_metrics(groups) -> dict[str, float]:
    """Median of each per-layer number over several groups of spans."""
    per_group = [layer_metrics(g) for g in groups]
    return {k: statistics.median(m[k] for m in per_group) for k in per_group[0]}
