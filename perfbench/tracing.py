"""Spans around the calls into each qfcodes layer, kept in memory.

The traced worker wraps, by name, the library functions that one layer calls
in another (the names ``cli`` and ``descent`` imported, the cross-module
globals that ``ghw``, ``descent`` and ``quadform`` look up at call time, and
every name in ``perfbench.api``).  Nothing inside the library changes: a span
opens when the call enters the layer and closes when it returns.

A span is (name, start, end, parent, job, rss growth).  A layer's self time is
its spans' durations minus the parts covered by their child spans, so the
layer self times plus ``trace.uncovered_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time
from collections import Counter
from contextlib import contextmanager

from perfbench import api

# span name -> per-layer time metric fed by the span's self time
LAYER_TIME = {
    "fields.build": "fields.build_s",
    "quadform": "quadform.s",
    "codes.brute": "codes.brute_s",
    "codes.predicted": "codes.predicted_s",
    "codes.other": "codes.other_s",
    "cyclotomic": "cyclotomic.s",
    "ghw.brute": "ghw.brute_s",
    "ghw.closed": "ghw.closed_s",
    "descent.ghw": "descent.ghw_s",
    "descent.other": "descent.other_s",
    "cli.self": "cli.self_s",
    "cli.render": "cli.render_s",
}

_CYCLOTOMIC = (
    "count_solutions",
    "count_solutions_brute",
    "eta_twisted_sum_brute",
    "eta_twisted_sum_closed",
    "gauss_sum",
    "qf_exp_sum_brute",
    "qf_exp_sum_closed",
)

# (module, attribute, span name): every call into a layer the traced run times
PATCHES = (
    ("qfcodes.cli", "build_tower", "fields.build"),
    ("qfcodes.quadform", "analyze", "quadform"),
    ("qfcodes.cli", "weight_distribution_brute", "codes.brute"),
    ("qfcodes.cli", "cwe_brute", "codes.brute"),
    ("qfcodes.cli", "weight_distribution_predicted", "codes.predicted"),
    ("qfcodes.cli", "cwe_predicted", "codes.predicted"),
    ("qfcodes.cli", "griesmer_check", "codes.other"),
    ("qfcodes.cli", "ab_minimality", "codes.other"),
    ("qfcodes.cli", "eta_matching_permutation", "codes.other"),
    ("qfcodes.cli", "apply_symbol_permutation", "codes.other"),
    *(("qfcodes.cli", name, "cyclotomic") for name in _CYCLOTOMIC),
    ("qfcodes.ghw", "ghw_brute", "ghw.brute"),
    ("qfcodes.ghw", "ghw_closed", "ghw.closed"),
    ("qfcodes.cli", "make_descent", "descent.other"),
    ("qfcodes.cli", "descend", "descent.other"),
    ("qfcodes.cli", "psi_weight_table", "descent.other"),
    ("qfcodes.cli", "descended_wd", "descent.other"),
    ("qfcodes.cli", "orbit_check", "descent.other"),
    ("qfcodes.cli", "char_identity_check", "descent.other"),
    ("qfcodes.cli", "descended_hierarchy", "descent.other"),
    ("qfcodes.descent", "descended_ghw_brute", "descent.ghw"),
    ("qfcodes.descent", "descended_ghw_closed", "descent.other"),
    ("qfcodes.descent", "cwe_brute", "codes.brute"),
    ("qfcodes.descent", "weight_distribution_predicted", "codes.predicted"),
    ("qfcodes.descent", "codeword", "codes.other"),
    ("qfcodes.descent", "eta_twisted_sum_brute", "cyclotomic"),
    ("qfcodes.cli", "run_config", "cli.self"),
    ("qfcodes.cli", "render_json", "cli.render"),
    ("qfcodes.cli", "render_text", "cli.render"),
    ("qfcodes.cli", "render_csv", "cli.render"),
    ("perfbench.api", "build_tower", "fields.build"),
    ("perfbench.api", "make_form", "quadform"),
    ("perfbench.api", "exhaustive_cwe", "codes.brute"),
    ("perfbench.api", "exhaustive_wd", "codes.brute"),
    ("perfbench.api", "cwe_predicted", "codes.predicted"),
    ("perfbench.api", "weight_distribution_predicted", "codes.predicted"),
    ("perfbench.api", "griesmer_check", "codes.other"),
    ("perfbench.api", "ab_minimality", "codes.other"),
    ("perfbench.api", "count_solutions", "cyclotomic"),
    ("perfbench.api", "count_solutions_brute", "cyclotomic"),
)


def messages_enumerated(spec, audit: bool) -> int:
    """Messages whose composition a brute weight-data call computes.

    Exhaustive mode visits every message; stratum mode visits one
    representative and two spot-check members per stratum (4 strata for
    the homogeneous code, 3q + 1 for the affine one).
    """
    if audit:
        return spec.num_messages
    strata = 4 if spec.variant is api.Variant.HOMOGENEOUS else 3 * spec.tower.q + 1
    return 3 * strata


def _count_codes(counts, call, refused):
    if refused:
        return
    spec = call.arguments["spec"]
    counts["codes.messages"] += messages_enumerated(spec, call.arguments.get("audit", True))


def _count_ghw(counts, call, refused):
    spec, r = call.arguments["spec"], call.arguments["r"]
    counts["ghw.rows"] += 1
    if refused:
        counts["ghw.refused"] += 1
    else:
        counts["ghw.subspaces"] += api.gaussian_binomial(spec.dimension, r, spec.tower.q)


def _count_descent_ghw(counts, call, refused):
    spec, r = call.arguments["spec"], call.arguments["r"]
    if not refused:
        tower = spec.tower
        counts["descent.subspaces"] += api.gaussian_binomial(
            spec.dimension * tower.m, r, tower.p
        )


def _count_points(counts, call, refused):
    counts["quadform.points"] += call.arguments["self"].tower.Fq1.order


# span name -> work counter fed from each call's inputs
COUNTERS = {
    "codes.brute": _count_codes,
    "ghw.brute": _count_ghw,
    "descent.ghw": _count_descent_ghw,
}


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder for one worker pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._job: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        rss0 = _rss_kb()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._job, _rss_kb() - rss0)

    @contextmanager
    def job(self, job_id: str):
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = None

    def wrap(self, fn, name: str, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except api.BudgetError:
                    if count is not None:
                        self._count(count, signature, args, kwargs, refused=True)
                    raise
            if count is not None:
                self._count(count, signature, args, kwargs, refused=False)
            return result

        return traced

    def _count(self, count, signature, args, kwargs, refused):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        count(self.counts, call, refused)

    def install(self):
        """Wrap every entry of ``PATCHES`` and the form's value table."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(fn, name, COUNTERS.get(name)))
        prop = api.QuadraticForm.__dict__["value_table"]
        traced = functools.cached_property(self.wrap(prop.func, "quadform", _count_points))
        traced.__set_name__(api.QuadraticForm, "value_table")
        setattr(api.QuadraticForm, "value_table", traced)

    def write(self, path):
        """One JSON object per span."""
        keys = ("name", "start", "end", "parent", "job", "rss_growth_kb")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``)."""
    out = {metric: 0.0 for metric in LAYER_TIME.values()}
    for span, own in zip(spans, self_times(spans)):
        metric = LAYER_TIME.get(span[0])
        if metric is not None:
            out[metric] += own
    builds = [s for s in spans if s[0] == "fields.build"]
    out["fields.build_calls"] = len(builds)
    out["fields.rss_growth_mb"] = sum(s[5] for s in builds) / 1024
    out["cyclotomic.calls"] = sum(1 for s in spans if s[0] == "cyclotomic")
    for key in (
        "quadform.points",
        "codes.messages",
        "ghw.subspaces",
        "descent.subspaces",
    ):
        out[key] = counts.get(key, 0)
    out["codes.us_per_message"] = _per(out["codes.brute_s"], out["codes.messages"])
    out["ghw.us_per_subspace"] = _per(out["ghw.brute_s"], out["ghw.subspaces"])
    out["descent.us_per_subspace"] = _per(out["descent.ghw_s"], out["descent.subspaces"])
    rows = counts.get("ghw.rows", 0)
    out["ghw.budget_refused"] = counts.get("ghw.refused", 0) / rows if rows else 0.0
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - sum(out[m] for m in LAYER_TIME.values())
    return out


def _per(seconds: float, count: int) -> float:
    return seconds * 1e6 / count if count else 0.0
