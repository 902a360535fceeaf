"""Timing spans around expspan's public functions, for the traced run only.

The wrappers are installed from the benchmark's files; the program itself
is not edited.  A function can be bound in several module namespaces (for
example ``expspan.moment.gram_matrix`` is the same object as
``expspan.gram.gram_matrix``, and ``carleson`` imports ``taylor_coeffs`` by
name), so every binding of a target in every expspan module is replaced,
and calls are traced whichever name they go through.  A target that no
longer exists is skipped and its metrics are reported as absent.

A span records its name, start, end, parent span, job id and a few fields
of the returned value.  Spans stay in memory; the run writes them out at
its end.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

# mpmath is imported inside the functions that use it: run.py imports mpmath and
# the program afresh for each timed set-up, and every call must use the latest.

# the layer boundaries: expspan module -> traced public functions
TARGETS = {
    "cli": ["main"],
    "gram": ["gram_matrix", "hermitian_cholesky", "biorthogonal", "mixed_completeness"],
    "moment": ["solve"],
    "products": ["lk_eval", "laurent_coeffs", "lk_circle_minima", "gnk_eval",
                 "derivative_factor", "taylor_coeffs"],
    "lambda_analysis": ["analyze", "gap_check", "condensation_index"],
    "carleson": ["carleson_operator", "apply_to_exponential"],
    "series": ["td_eval", "star_abscissa", "bound_check"],
    "fixtures": ["load_sequence"],
    "core": ["validate_sequence"],
}


def _log10(x) -> float:
    """log10 of an mpf, which may lie far below the range of a float."""
    import mpmath as mp
    return float(mp.log10(x)) if x > 0 else float("-inf")


# fields recorded from a target's return value
ATTRS = {
    "gram.gram_matrix": lambda r: {"digits_used": r.digits_used},
    "gram.biorthogonal": lambda r: {"identity_residual_log10": _log10(r.identity_residual)},
    "moment.solve": lambda r: {"residual_log10": _log10(r.residual_max)},
    "products.laurent_coeffs": lambda r: {"converged": r.converged,
                                          "max_rel_change_log10": _log10(r.max_rel_change)},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs and removes the wrappers and keeps the spans of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs:
                span.attrs = attrs(result)
            return result
        return traced

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "expspan" or name.startswith("expspan."))]
        self.missing = []
        for mod_name, fns in TARGETS.items():
            home = sys.modules.get(f"expspan.{mod_name}")
            for fn_name in fns:
                orig = getattr(home, fn_name, None) if home else None
                if not callable(orig):
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     **s.attrs}) + "\n")


def pass_layers(spans: list[Span], first: int, last: int) -> dict[str, float]:
    """Per-layer sums over spans[first:last], the spans of one traced pass."""
    out: dict[str, float] = {}
    child = [0.0] * (last - first)
    for s in spans[first:last]:
        if s.parent is not None and s.parent >= first:
            child[s.parent - first] += s.end - s.start
    for i, s in enumerate(spans[first:last]):
        dur = s.end - s.start
        out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + dur
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + dur - child[i]
        for key, val in s.attrs.items():
            out.setdefault(f"{s.name}.{key}", []).append(val)
    return out


def layer_metrics(passes: list[dict], missing: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced passes, and any call counts that differ.

    Times are medians over passes; counts must repeat exactly in every pass.
    Metrics of a missing target are left out.
    """
    def per_pass(key, default=0.0):
        return [p.get(key, default) for p in passes]

    def attr(key):
        return [v for p in passes for v in p.get(key, [])]

    gone = set(missing)
    metrics, unstable = {}, []
    for mod, fns in TARGETS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            if name in gone:
                continue
            calls = per_pass(f"{name}.calls", 0)
            if len(set(calls)) > 1:
                unstable.append(f"{name}.calls {calls}")
            metrics[f"{name}.calls"] = (calls[0], "count")
            metrics[f"{name}.s"] = (statistics.median(per_pass(f"{name}.s")), "s")
    if "cli.main" not in gone:
        metrics["cli.main.self_s"] = (statistics.median(per_pass("cli.main.self_s")), "s")
    if "moment.solve" not in gone:
        metrics["moment.solve.self_s"] = (statistics.median(per_pass("moment.solve.self_s")), "s")
        metrics["moment.residual_log10.max"] = (
            max(attr("moment.solve.residual_log10"), default=0.0), "log10")
    if not gone & {"gram.gram_matrix", "gram.hermitian_cholesky", "gram.biorthogonal"}:
        gm, hc = metrics["gram.gram_matrix.calls"][0], metrics["gram.hermitian_cholesky.calls"][0]
        metrics["gram.rung_yield"] = (gm / hc if hc else 0.0, "ratio")
        metrics["gram.assembly_s"] = (statistics.median(per_pass("gram.gram_matrix.self_s")), "s")
        metrics["gram.digits_used.max"] = (max(attr("gram.gram_matrix.digits_used"), default=0),
                                           "digits")
        metrics["gram.identity_residual_log10.max"] = (
            max(attr("gram.biorthogonal.identity_residual_log10"), default=0.0), "log10")
    if "products.laurent_coeffs" not in gone:
        conv = attr("products.laurent_coeffs.converged")
        metrics["products.laurent.converged_frac"] = (
            sum(conv) / len(conv) if conv else 0.0, "ratio")
        metrics["products.laurent.max_rel_change_log10.max"] = (
            max(attr("products.laurent_coeffs.max_rel_change_log10"), default=0.0), "log10")
    return metrics, unstable
