"""In-memory spans around calls into vncat's layers, and per-layer metrics.

``instrument`` wraps module attributes where their callers look them up
(``vncat.cli.commutant``, ``vncat.commutant.nullspace``, ...), so the
program's source is untouched, and puts every original back on exit.  A
span records name, start, end, parent and scenario id; a span's self time
is its duration minus that of its direct children.  The benchmark calls
``run_scenario`` with one worker thread, so one stack tracks nesting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name).  The span's prefix names its layer, the
# module that defines the function; FiniteGroup and UnitaryRep construction
# is validation code of vncat.crossed, called while a scenario is parsed.
WRAPS = (
    ("vncat.cli", "load_scenario", "scenario.load"),
    ("vncat.cli", "commutant", "commutant.commutant"),
    ("vncat.cli", "double_commutant", "commutant.double_commutant"),
    ("vncat.cli", "span_category", "commutant.span_category"),
    ("vncat.cli", "is_von_neumann", "commutant.is_von_neumann"),
    ("vncat.cli", "endo_algebra", "commutant.endo_algebra"),
    ("vncat.cli", "crossed_product", "crossed.crossed_product"),
    ("vncat.cli", "covariance_residual", "crossed.covariance_residual"),
    ("vncat.cli", "check_causality", "causal.check_causality"),
    ("vncat.cli", "check_isotony", "causal.check_isotony"),
    ("vncat.commutant", "commutant", "commutant.commutant"),
    ("vncat.commutant", "double_commutant", "commutant.double_commutant"),
    ("vncat.commutant", "span_basis", "commutant.span_basis"),
    ("vncat.commutant", "subspace_contains", "commutant.subspace_contains"),
    ("vncat.commutant", "nullspace", "linalg.nullspace"),
    ("vncat.crossed", "double_commutant", "commutant.double_commutant"),
    ("vncat.crossed", "pi_embed", "crossed.pi_embed"),
    ("vncat.causal", "spacelike", "causal.spacelike"),
    ("vncat.causal", "subspace_contains", "commutant.subspace_contains"),
    ("vncat.causal", "interchange_residuals", "category.interchange_residuals"),
    ("vncat.scenario", "FiniteGroup", "crossed.group_validate"),
    ("vncat.scenario", "UnitaryRep", "crossed.rep_validate"),
)

ROOT = "cli.run_scenario"


class Tracer:
    """Spans and counters of one benchmark run.

    Span fields live in flat arrays, which the garbage collector does not
    scan; a list of per-span lists would make every collection in the
    traced program slower as the trace grows.
    """

    FIELDS = ("name", "start_ns", "end_ns", "parent", "scenario", "batch")

    def __init__(self):
        self.names: list[str] = []
        self.scenarios: list[str] = []
        self._ids: dict[str, int] = {}
        self.columns = {f: array("q") for f in self.FIELDS}
        self._stack: list[int] = []
        self.scenario = 0
        self.batch = 0
        self.counts: Counter = Counter()  # keyed by (batch, name)
        self.maxima: dict = {}

    def set_scenario(self, sid: str):
        self.scenario = len(self.scenarios)
        self.scenarios.append(sid)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        c = self.columns
        idx = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["scenario"].append(self.scenario)
        c["batch"].append(self.batch)
        c["end_ns"].append(0)
        self._stack.append(idx)
        c["start_ns"].append(time.perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.columns["end_ns"][idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value=1):
        self.counts[(self.batch, name)] += value

    def maximum(self, name: str, value):
        key = (self.batch, name)
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def write(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, names=self.names, scenarios=self.scenarios,
                   columns={f: col.tolist() for f, col in self.columns.items()})
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- counters read off arguments and results ----------------------------------


def _observe_nullspace(tracer, args, kwargs, result):
    rows, cols = np.shape(args[0])
    m, n = max(rows, cols), min(rows, cols)
    tracer.count("svd_rows", rows)
    tracer.count("svd_cols", cols)
    tracer.count("kernel_cols", result.shape[1])
    tracer.maximum("svd_rows_max", rows)
    tracer.maximum("svd_input_bytes_max", rows * cols * 16)
    # computed, not measured: Golub-Van Loan's 4mn^2 + 8n^3 real flops for
    # singular values and right vectors, times 4 for complex arithmetic
    tracer.count("svd_flops", 4 * (4 * m * n * n + 8 * n ** 3))


def _observe_commutant(tracer, args, kwargs, result):
    universe = args[1] if len(args) > 1 else kwargs["universe"]
    tracer.count("hom_pairs", len(universe.objects) ** 2)


def _observe_spacelike(tracer, args, kwargs, result):
    if result:
        tracer.count("spacelike_hits")


_OBSERVERS = {
    "linalg.nullspace": _observe_nullspace,
    "commutant.commutant": _observe_commutant,
    "causal.spacelike": _observe_spacelike,
}


def _wrap(tracer: Tracer, fn, name: str):
    observe = _OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapped


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every name in WRAPS for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- per-layer metrics ---------------------------------------------------------

# per_layer metric -> (span name whose self time it sums, or a layer prefix)
_SELF_TIMES = {
    "commutant.self_s": "commutant.",
    "commutant.commutant_self_s": "commutant.commutant",
    "commutant.span_basis_s": "commutant.span_basis",
    "commutant.subspace_contains_s": "commutant.subspace_contains",
    "linalg.nullspace_s": "linalg.nullspace",
    "crossed.self_s": "crossed.",
    "crossed.pi_embed_s": "crossed.pi_embed",
    "crossed.covariance_residual_s": "crossed.covariance_residual",
    "crossed.group_validate_s": "crossed.group_validate",
    "crossed.rep_validate_s": "crossed.rep_validate",
    "causal.self_s": "causal.",
    "causal.check_causality_self_s": "causal.check_causality",
    "causal.spacelike_s": "causal.spacelike",
    "causal.check_isotony_s": "causal.check_isotony",
    "category.interchange_residuals_s": "category.interchange_residuals",
    "scenario.load_s": "scenario.load",
    "cli.self_s": ROOT,
}

_CALLS = {
    "commutant.commutant_calls": "commutant.commutant",
    "linalg.nullspace_calls": "linalg.nullspace",
    "crossed.pi_embed_calls": "crossed.pi_embed",
    "causal.spacelike_calls": "causal.spacelike",
    "category.interchange_residuals_calls": "category.interchange_residuals",
}


def self_times(tracer: Tracer) -> dict:
    """{batch: {span name: (self seconds, calls)}}."""
    c = tracer.columns
    dur = [e - s for s, e in zip(c["start_ns"], c["end_ns"])]
    own = list(dur)
    for d, parent in zip(dur, c["parent"]):
        if parent >= 0:
            own[parent] -= d
    out: dict = {}
    for nid, batch, ns in zip(c["name"], c["batch"], own):
        per = out.setdefault(batch, {})
        name = tracer.names[nid]
        secs, calls = per.get(name, (0.0, 0))
        per[name] = (secs + ns * 1e-9, calls + 1)
    return out


def batch_metrics(tracer: Tracer, batch: int, per: dict) -> dict:
    """Per-layer metrics of one traced batch."""
    def secs(key):
        if key.endswith("."):
            return sum((v[0] for n, v in per.items() if n.startswith(key)), 0.0)
        return per.get(key, (0.0, 0))[0]

    def count(name):
        return tracer.counts.get((batch, name), 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {k: secs(v) for k, v in _SELF_TIMES.items()}
    m.update({k: per.get(v, (0.0, 0))[1] for k, v in _CALLS.items()})
    m["commutant.hom_pairs"] = count("hom_pairs")
    m["linalg.svd_rows_max"] = tracer.maxima.get((batch, "svd_rows_max"), 0)
    m["linalg.svd_rows_sum"] = count("svd_rows")
    m["linalg.svd_cols_sum"] = count("svd_cols")
    m["linalg.svd_flops_est"] = count("svd_flops")
    m["linalg.svd_input_bytes_max"] = tracer.maxima.get((batch, "svd_input_bytes_max"), 0)
    m["linalg.kernel_keep_ratio"] = ratio(count("kernel_cols"), count("svd_cols"))
    m["causal.spacelike_hit_ratio"] = ratio(count("spacelike_hits"), m["causal.spacelike_calls"])
    m["cli.report_bytes"] = count("report_bytes")
    return m


def layer_metrics(tracer: Tracer, batches: list[int]) -> dict:
    """Median over ``batches`` of each per-layer metric.

    Counts repeat exactly from batch to batch, so they stay whole numbers.
    """
    per_batch = self_times(tracer)
    rows = [batch_metrics(tracer, b, per_batch.get(b, {})) for b in batches]
    out = {}
    for k in rows[0]:
        col = [r[k] for r in rows]
        ints = all(isinstance(v, int) for v in col)
        out[k] = statistics.median_low(col) if ints else statistics.median(col)
    return out
