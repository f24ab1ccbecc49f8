"""In-memory span tracing at the module attributes suffmdp calls its layers through.

``installed(tracer)`` replaces each function named in ``WRAP_POINTS`` with a
wrapper that records a span (name, start, end, parent, thread) plus a few
work counters read from the call's arguments and result, and puts every
original back on exit.  No file of the package is changed: the program
already resolves these names through module globals at call time, so
patching the attribute is enough.

Parents come from a thread-local stack.  A span opened in a worker thread
whose stack is empty (the experiment harness runs replicates on a thread
pool) takes the open root span as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        with self._lock:
            sp = Span(next(self._ids), name, parent, threading.get_ident(), 0.0)
            self.spans.append(sp)
        is_root = parent is None
        if is_root:
            self._root = sp.id
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if is_root:
                self._root = None


# ---------------------------------------------------------------------------
# Work counters read from a wrapped call's bound arguments and result
# ---------------------------------------------------------------------------


def p_value_floor(report) -> float:
    """Smallest pooled p-value the report's settings allow: (T'/u) K / (B+1).

    T' is the number of time points with a tested stratum, u the pooling
    order and K the fewest action levels tested at one time point.
    """
    per_time: dict[int, int] = {}
    for s in report.strata:
        per_time[s.t] = per_time.get(s.t, 0) + 1
    k = min(per_time.values())
    return len(per_time) / report.pooled_u * k / (report.n_permutations + 1)


def _pooled_counts(args, report) -> dict:
    b = report.n_permutations
    sizes = np.array([s.sample_size for s in report.strata], dtype=np.float64)
    floor = p_value_floor(report)
    return {
        "strata": len(report.strata),
        "permutations": b * len(report.strata),
        "perm_madds": float(b * np.square(sizes).sum()),
        "floor": floor,
        "p_value": report.p_value,
        "at_floor": int(report.p_value <= floor * (1 + 1e-9)),
    }


def _screen_counts(args, result) -> dict:
    return {
        "rounds": len(result.rounds),
        "tests": sum(len(r.tested) for r in result.rounds),
        "selected": len(result.selected),
    }


def _fit_counts(args, model) -> dict:
    cfg = args["cfg"]
    iterations = min(cfg.n_max, (len(model.trace) - 1) * cfg.check_every)
    return {"iterations": iterations, "early_stop": int(iterations < cfg.n_max)}


def _select_counts(args, selection) -> dict:
    return {"dims_tried": len(selection.reports), "feature_dim": selection.feature_dim}


def _q_counts(args, q) -> dict:
    return {"updates": args["epochs"] * len(args["transitions"])}


def _eval_counts(args, value) -> dict:
    return {"rollout_steps": args["n_rollouts"] * args["horizon"]}


# (module, attribute, span name, counter).  dCov's pooled test is reached
# through two modules: screening for screening tests and adnn for the
# residual test.
WRAP_POINTS = [
    ("suffmdp.adnn", "screen", "screening.screen", _screen_counts),
    ("suffmdp.screening", "stratified_pooled_test", "dcov.pooled_test", _pooled_counts),
    ("suffmdp.adnn", "stratified_pooled_test", "dcov.pooled_test", _pooled_counts),
    ("suffmdp.adnn", "select_feature_dimension", "adnn.select_dim", _select_counts),
    ("suffmdp.adnn", "cross_validate_adnn", "adnn.cv", None),
    ("suffmdp.adnn", "fit_adnn", "adnn.fit", _fit_counts),
    ("suffmdp.adnn", "residual_independence_pvalue", "adnn.residual_test", None),
    ("suffmdp.experiment", "sample_trajectories", "simgen.sample", None),
    ("suffmdp.experiment", "flatten_transitions", "core.flatten", None),
    ("suffmdp.experiment", "pca_feature_map", "baselines.pca", None),
    ("suffmdp.experiment", "fit_q_linear", "qlearn.fit_linear", _q_counts),
    ("suffmdp.experiment", "fit_q_nn", "qlearn.fit_nn", _q_counts),
    ("suffmdp.experiment", "evaluate_policy", "qlearn.evaluate", _eval_counts),
]


def _wrap(tracer: Tracer, fn: Callable, name: str, counter: Optional[Callable]):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            sp.counts = counter(bound.arguments, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every point in ``WRAP_POINTS`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counter in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced call
# ---------------------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for start, end in sorted(children.get(sp.id, [])):
            start, end = max(start, cursor), min(end, sp.end)
            if end > start:
                covered += end - start
                cursor = end
        out[sp.id] = sp.duration - covered
    return out


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list, root: Span, workers: int) -> dict:
    """Per-layer numbers of one traced top-level call (``root``)."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    run_s = root.duration

    def group(name):
        return by_name.get(name, [])

    def ms(name, q):
        return _pct([sp.duration * 1e3 for sp in group(name)], q)

    def self_s(name):
        return sum(selfs[sp.id] for sp in group(name))

    def total(name, key):
        return sum(sp.counts.get(key, 0) for sp in group(name))

    pooled_self = self_s("dcov.pooled_test")
    madds = total("dcov.pooled_test", "perm_madds")
    fits = group("adnn.fit")
    selects = group("adnn.select_dim")
    children = [sp for sp in spans if sp.parent == root.id]
    return {
        "dcov.pooled_test.calls": len(group("dcov.pooled_test")),
        "dcov.pooled_test.p50_ms": ms("dcov.pooled_test", 50),
        "dcov.pooled_test.p90_ms": ms("dcov.pooled_test", 90),
        "dcov.pooled_test.self_s": pooled_self,
        "dcov.pooled_test.run_share": pooled_self / run_s,
        "dcov.pooled_test.at_floor": total("dcov.pooled_test", "at_floor"),
        "dcov.strata": total("dcov.pooled_test", "strata"),
        "dcov.permutations": total("dcov.pooled_test", "permutations"),
        "dcov.perm_madds": madds,
        "dcov.perm_gmadds_per_s": madds / pooled_self / 1e9 if pooled_self > 0 else 0.0,
        "screening.screen_s": sum(sp.duration for sp in group("screening.screen")),
        "screening.rounds": total("screening.screen", "rounds"),
        "screening.tests": total("screening.screen", "tests"),
        "screening.selected": total("screening.screen", "selected"),
        "adnn.fit.calls": len(fits),
        "adnn.fit.p50_ms": ms("adnn.fit", 50),
        "adnn.fit.p90_ms": ms("adnn.fit", 90),
        "adnn.fit.self_s": self_s("adnn.fit"),
        "adnn.fit.run_share": self_s("adnn.fit") / run_s,
        "adnn.fit.iterations": total("adnn.fit", "iterations"),
        "adnn.fit.early_stop_frac": total("adnn.fit", "early_stop") / len(fits) if fits else 0.0,
        "adnn.cv.self_s": self_s("adnn.cv"),
        "adnn.residual_test.self_s": self_s("adnn.residual_test"),
        "adnn.select_dim.dims_tried": total("adnn.select_dim", "dims_tried"),
        "adnn.feature_dim": selects[-1].counts["feature_dim"] if selects else 0,
        "qlearn.fit_linear.calls": len(group("qlearn.fit_linear")),
        "qlearn.fit_linear.p50_ms": ms("qlearn.fit_linear", 50),
        "qlearn.fit_nn.p50_ms": ms("qlearn.fit_nn", 50),
        "qlearn.updates": total("qlearn.fit_linear", "updates") + total("qlearn.fit_nn", "updates"),
        "qlearn.evaluate.p50_ms": ms("qlearn.evaluate", 50),
        "qlearn.rollout_steps": total("qlearn.evaluate", "rollout_steps"),
        "core.flatten.p50_ms": ms("core.flatten", 50),
        "baselines.pca.p50_ms": ms("baselines.pca", 50),
        "simgen.sample.p50_ms": ms("simgen.sample", 50),
        "experiment.workers": workers,
        "experiment.busy_frac": sum(sp.duration for sp in children) / (workers * run_s),
        "trace.unattributed_frac": selfs[root.id] / run_s,
    }


def self_time_table(spans: list) -> dict:
    """Span name -> summed self time, for the report line."""
    selfs = self_times(spans)
    table: dict[str, float] = {}
    for sp in spans:
        table[sp.name] = table.get(sp.name, 0.0) + selfs[sp.id]
    return dict(sorted(table.items()))
