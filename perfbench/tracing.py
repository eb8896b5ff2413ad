"""Span tracer for the traced benchmark run.

Spans are kept in memory (name, start, end, parent, op id, thread) and
written out as JSON lines when the run ends.  `instrument` wraps the public
functions and methods of the library so that calls made inside it are
attributed to their layer too; the wrappers only call through, so traced
results are bit-identical to untraced ones.  Nothing under src/ changes.
"""

import contextlib
import functools
import json
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np


class Tracer:
    """In-memory span collector.  `recording` off makes spans no-ops."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.recording = True
        self._local = threading.local()
        self._lock = threading.Lock()
        # levels each evaluator has built, so that the first
        # value_at_level(., L) is told apart from a warm reduction
        self.built = weakref.WeakKeyDictionary()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.recording:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {"name": name, "parent": stack[-1]["id"] if stack else None,
               "op": self.op, "thread": threading.get_ident(), **attrs}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _level_nodes(spec, level):
    """Node count of one quadrature level, computed from the spec (far-field
    torus grid before masking plus near-field polar nodes)."""
    s = 2 ** level
    n_ang = spec.n_angular * s
    return (spec.n_grid * s) ** 3 + spec.n_radial * s * n_ang * 2 * n_ang


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the library's public layer entry points for the duration."""
    from friedrichs import critical, models, oracle, quadrature, solver

    patches = []  # (owner, attribute, original)

    def set_attr(owner, name, value):
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def wrap_function(module, name, span_name):
        orig = getattr(module, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name(*args) if callable(span_name)
                             else span_name):
                return orig(*args, **kwargs)

        # rebind every `from .x import name` copy inside the package
        for mod in [m for k, m in sys.modules.items()
                    if k == "friedrichs" or k.startswith("friedrichs.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    set_attr(mod, attr, wrapper)

    def wrap_method(cls, name, span_name, points=False):
        orig = getattr(cls, name)

        @functools.wraps(orig)
        def wrapper(self, *args, **kwargs):
            with tracer.span(span_name) as rec:
                out = orig(self, *args, **kwargs)
                if rec is not None and points:
                    rec["points"] = int(np.size(out))
                return out

        set_attr(cls, name, wrapper)

    wrap_function(critical, "find_maximizer", "critical.find_maximizer")
    wrap_function(quadrature, "state_norm_diagnostics",
                  "quadrature.state_norm_diagnostics")
    for name in ("solve_eigenvalue", "expansion_fit", "eigenfunction",
                 "classify_threshold"):
        wrap_function(solver, name, "solver." + name)
    wrap_function(oracle, "secular_root",
                  lambda model, p, mu, N, *rest: "oracle.secular_root.N%d" % N)
    wrap_function(oracle, "dense_spectrum", "oracle.dense_spectrum")

    ev_cls = quadrature.OmegaEvaluator
    wrap_method(ev_cls, "__init__", "quadrature.evaluator_init")
    wrap_method(ev_cls, "second_moment", "quadrature.second_moment")
    wrap_method(models.DispersionModel, "w", "models.w", points=True)
    wrap_method(models.DispersionModel, "phi", "models.phi", points=True)

    orig_evaluate = ev_cls.evaluate

    @functools.wraps(orig_evaluate)
    def evaluate(self, z):
        with tracer.span("quadrature.evaluate") as rec:
            out = orig_evaluate(self, z)
            if rec is not None:
                rec["n_grid"] = out.n_grid
                rec["level"] = int(round(np.log2(out.n_grid / self.spec.n_grid)))
            return out

    set_attr(ev_cls, "evaluate", evaluate)

    orig_value_at_level = ev_cls.value_at_level

    @functools.wraps(orig_value_at_level)
    def value_at_level(self, z, level):
        built = tracer.built.setdefault(self, set())
        if level in built:
            with tracer.span("quadrature.reduce.L%d" % level):
                return orig_value_at_level(self, z, level)
        built.update(range(level + 1))
        with tracer.span("quadrature.level_build.L%d" % level,
                         nodes=_level_nodes(self.spec, level)) as rec:
            # memory is attributed only when no other build is being
            # measured, since tracemalloc counts the whole process
            measure = rec is not None and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                out = orig_value_at_level(self, z, level)
                if measure:
                    cur, peak = tracemalloc.get_traced_memory()
                    rec["retained_mb"] = cur / 2 ** 20
                    rec["peak_mb"] = peak / 2 ** 20
            finally:
                if measure:
                    tracemalloc.stop()
            return out

    set_attr(ev_cls, "value_at_level", value_at_level)
    try:
        yield tracer
    finally:
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)


# -- aggregation ----------------------------------------------------------


def self_times(spans):
    """Span duration minus the durations of its direct child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
            for s in spans}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, n_ops):
    """Per-layer numbers from one traced phase.  `.s` is mean self time
    per call; counts named `.calls` and `.points` are per op and per call."""
    selft = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_s(name):
        return _mean([selft[s["id"]] for s in by_name.get(name, [])])

    out = {}
    for name in ("critical.find_maximizer", "quadrature.evaluator_init",
                 "quadrature.evaluate", "quadrature.second_moment",
                 "quadrature.state_norm_diagnostics", "models.w", "models.phi",
                 "solver.solve_eigenvalue", "solver.expansion_fit",
                 "solver.eigenfunction", "solver.classify_threshold",
                 "oracle.dense_spectrum"):
        out[name + ".s"] = self_s(name)
    for level in range(3):
        build = by_name.get("quadrature.level_build.L%d" % level, [])
        prefix = "quadrature.level_build.L%d" % level
        out[prefix + ".s"] = self_s(prefix)
        out[prefix + ".retained_mb"] = _mean(
            [s["retained_mb"] for s in build if "retained_mb" in s])
        out[prefix + ".peak_mb"] = _mean(
            [s["peak_mb"] for s in build if "peak_mb" in s])
        out[prefix + ".nodes"] = _mean([s["nodes"] for s in build])
        out["quadrature.reduce.L%d.s" % level] = self_s(
            "quadrature.reduce.L%d" % level)
    for n in (10, 32, 64, 128):
        out["oracle.secular_root.N%d.s" % n] = self_s("oracle.secular_root.N%d" % n)

    evaluates = by_name.get("quadrature.evaluate", [])
    out["quadrature.evaluate.calls"] = len(evaluates) / max(n_ops, 1)
    out["quadrature.evaluate.share_L2"] = _mean(
        [1.0 if s["level"] == 2 else 0.0 for s in evaluates if "level" in s])
    for name in ("models.w", "models.phi"):
        out[name + ".points"] = _mean([s["points"] for s in by_name.get(name, [])
                                       if "points" in s])

    # Omega evaluations per root: evaluate spans below each solve
    parent = {s["id"]: s["parent"] for s in spans}
    roots = {s["id"]: 0 for s in by_name.get("solver.solve_eigenvalue", [])}
    for s in evaluates:
        p = parent[s["id"]]
        while p is not None and p not in roots:
            p = parent[p]
        if p is not None:
            roots[p] += 1
    out["solver.omega_evals_per_root"] = _mean(list(roots.values()))
    return out
