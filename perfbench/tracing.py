"""Span tracing of the loopgerbe layers, applied from outside the program.

`installed(tracer)` wraps every public function and method of the ten
layer modules, rebinds the names other modules imported with
`from .x import y` (and the check registry, which holds the check
functions directly), and restores every original on exit.  Spans stay
in memory as [name, layer, start, end, parent, op]; `layer_metrics`
derives the per-layer numbers from them and `write_spans` writes them
out when the run ends.  Nothing is wrapped outside an `installed` block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("liegroup", "loops", "forms", "centext", "gerbe", "caloron",
          "sampling", "checks", "report", "cli")

# span names behind the layer-specific metrics
_EXP = ("liegroup.exp_alg",)
_DEXP = ("liegroup.dexp_left", "liegroup.dexp_right")
_GERBE_CURV = ("gerbe.TrivialBundle.curvature", "gerbe.PathFibration.curvature")


class Tracer:
    """Spans and counters of one traced run, keyed by op id."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._seen = defaultdict(dict)   # (op, metric) -> {key: kept refs}
        self._errors = {}                # (layer, id(exc)) -> exc

    def count(self, metric: str, n=1) -> None:
        self.counts[self.op][metric] += n

    def distinct(self, metric: str, args, kwargs) -> None:
        """Count one call and remember its argument set.  Objects are
        keyed by identity and kept alive until the run ends, so a freed
        id cannot be reused by a different object within the run."""
        key = (tuple(_arg_key(a) for a in args)
               + tuple((k, _arg_key(v)) for k, v in sorted(kwargs.items())))
        self.count(metric + ".calls")
        self._seen[(self.op, metric)].setdefault(key, (args, kwargs))

    def distinct_count(self, op, metric: str) -> int:
        return len(self._seen.get((op, metric), ()))

    def error(self, layer: str, exc: BaseException) -> None:
        key = (layer, id(exc))
        if key not in self._errors:
            self._errors[key] = exc
            self.count(layer + ".errors")


def _arg_key(a):
    if isinstance(a, (bool, int, float, complex, str)) or a is None:
        return a
    return id(a)


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook=None):
    spans, stack = tracer.spans, tracer._stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            args, kwargs = hook(args, kwargs)
        idx = len(spans)
        spans.append([name, layer, perf_counter(), 0.0,
                      stack[-1] if stack else -1, tracer.op])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            tracer.error(layer, exc)
            raise
        finally:
            stack.pop()
            spans[idx][3] = perf_counter()

    return wrapper


def _liegroup_hook(tracer: Tracer):
    """Matrices and computed bytes of a module-level liegroup kernel:
    the leading dimensions of the first argument, and the nbytes of the
    array arguments (the result is added by the span wrapper below)."""

    def hook(args, kwargs):
        shape = np.shape(args[0]) if args else ()
        if len(shape) >= 2:
            tracer.count("liegroup.matrices", int(np.prod(shape[:-2])))
        tracer.count("liegroup.bytes_computed",
                     sum(a.nbytes for a in args if isinstance(a, np.ndarray)))
        return args, kwargs

    return hook


def _result_bytes(tracer: Tracer, fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, np.ndarray):
            tracer.count("liegroup.bytes_computed", out.nbytes)
        return out

    return inner


def _pair_forms_hook(tracer: Tracer, form_cls):
    """Hand pair_forms component forms that count their evaluations and
    the distinct (form, point, tangents) argument sets they see."""

    def counted(f):
        def ev(pt, *vecs):
            tracer.distinct("forms.wedge", (f, pt) + vecs, {})
            return f(pt, *vecs)
        return form_cls(f.degree, ev, f.name)

    def hook(args, kwargs):
        args = list(args)
        if len(args) > 1:
            args[1] = tuple(counted(f) for f in args[1])
        elif "forms" in kwargs:
            kwargs = dict(kwargs, forms=tuple(counted(f) for f in kwargs["forms"]))
        return tuple(args), kwargs

    return hook


def _distinct_hook(tracer: Tracer, metric: str):
    def hook(args, kwargs):
        tracer.distinct(metric, args, kwargs)
        return args, kwargs

    return hook


def public_callables(mod):
    """(owner, attribute, raw object, function, qualified name) for every
    public function defined in the module and every public method,
    static method and class method of its classes."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, name, obj, obj, name
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    yield obj, attr, raw, raw.__func__, name + "." + attr
                elif inspect.isfunction(raw):
                    yield obj, attr, raw, raw, name + "." + attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layers for the duration of the block, then restore."""
    mods = {layer: importlib.import_module("loopgerbe." + layer)
            for layer in LAYERS}
    undo = []
    replaced = {}   # id(original function) -> (original, wrapper)
    try:
        for layer, mod in mods.items():
            for owner, attr, raw, fn, qual in public_callables(mod):
                name = layer + "." + qual
                hook = None
                target = fn
                if layer == "liegroup" and owner is mod:
                    hook = _liegroup_hook(tracer)
                    target = _result_bytes(tracer, fn)
                elif name == "forms.pair_forms":
                    hook = _pair_forms_hook(tracer, mods["forms"].Form)
                elif name == "gerbe.nabla_phi":
                    hook = _distinct_hook(tracer, "gerbe.nabla_phi")
                wrapper = _wrap(tracer, target, name, layer, hook)
                new = type(raw)(wrapper) if isinstance(
                    raw, (staticmethod, classmethod)) else wrapper
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                if owner is mod:
                    replaced[id(fn)] = (fn, wrapper)
        # names bound by `from .x import y` in the other modules
        for mod in [importlib.import_module("loopgerbe")] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        # the check registry holds each check function directly
        registry = mods["checks"].CHECKS
        for key, spec in list(registry.items()):
            hit = replaced.get(id(spec.fn))
            if hit is not None and hit[0] is spec.fn:
                undo.append((registry, key, spec))
                registry[key] = dataclasses.replace(spec, fn=hit[1])
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap
    and their durations add up to the covered part of its interval."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [(s[3] - s[2]) - c for s, c in zip(spans, child)]


COUNT_METRICS = (
    [l + ".calls" for l in LAYERS] + [l + ".errors" for l in LAYERS]
    + ["liegroup.dexp.calls", "liegroup.matrices", "liegroup.matrices_per_call",
       "liegroup.bytes_computed", "loops.flow.calls", "forms.ext_d.calls",
       "forms.wedge.component_evals", "forms.wedge.distinct_frac",
       "gerbe.nabla_phi.calls", "gerbe.nabla_phi.distinct_frac",
       "gerbe.curvature.calls", "caloron.curvature.calls",
       "centext.cocycle.calls", "centext.alpha.calls", "report.bytes"])
TIME_METRICS = (
    [l + ".self_s" for l in LAYERS]
    + ["liegroup.exp.self_s", "liegroup.dexp.self_s", "loops.path.self_s",
       "sampling.path.total_s"])
_UNITS = {"liegroup.matrices_per_call": "count/call",
          "liegroup.bytes_computed": "B", "report.bytes": "B",
          "forms.wedge.distinct_frac": "ratio",
          "gerbe.nabla_phi.distinct_frac": "ratio",
          "trace.overhead_frac": "ratio"}


def unit(metric: str) -> str:
    return "s" if metric in TIME_METRICS else _UNITS.get(metric, "count")


def per_op_metrics(tracer: Tracer) -> dict:
    """op id -> {metric: value} for every traced op."""
    selfs = self_times(tracer.spans)
    calls = defaultdict(lambda: defaultdict(int))
    self_s = defaultdict(lambda: defaultdict(float))
    total_s = defaultdict(lambda: defaultdict(float))
    for s, st in zip(tracer.spans, selfs):
        op = s[5]
        for key in (s[0], s[1]):
            calls[op][key] += 1
            self_s[op][key] += st
        total_s[op][s[0]] += s[3] - s[2]
    out = {}
    for op in calls:
        c, t, tot, cnt = calls[op], self_s[op], total_s[op], tracer.counts[op]
        m = {}
        for layer in LAYERS:
            m[layer + ".calls"] = c[layer]
            m[layer + ".self_s"] = t[layer]
            m[layer + ".errors"] = cnt[layer + ".errors"]
        kernels = sum(v for k, v in c.items()
                      if k.startswith("liegroup.") and k.count(".") == 1)
        m["liegroup.exp.self_s"] = sum(t[k] for k in _EXP)
        m["liegroup.dexp.self_s"] = sum(t[k] for k in _DEXP)
        m["liegroup.dexp.calls"] = sum(c[k] for k in _DEXP)
        m["liegroup.matrices"] = cnt["liegroup.matrices"]
        m["liegroup.matrices_per_call"] = (cnt["liegroup.matrices"] / kernels
                                           if kernels else 0.0)
        m["liegroup.bytes_computed"] = cnt["liegroup.bytes_computed"]
        m["loops.path.self_s"] = t["loops.path_from_factors"]
        m["loops.flow.calls"] = c["loops.LoopPoint.flow"]
        m["forms.ext_d.calls"] = c["forms.ext_d"]
        evals = cnt["forms.wedge.calls"]
        m["forms.wedge.component_evals"] = evals
        m["forms.wedge.distinct_frac"] = (
            tracer.distinct_count(op, "forms.wedge") / evals if evals else 0.0)
        nab = cnt["gerbe.nabla_phi.calls"]
        m["gerbe.nabla_phi.calls"] = c["gerbe.nabla_phi"]
        m["gerbe.nabla_phi.distinct_frac"] = (
            tracer.distinct_count(op, "gerbe.nabla_phi") / nab if nab else 0.0)
        m["gerbe.curvature.calls"] = sum(c[k] for k in _GERBE_CURV)
        m["caloron.curvature.calls"] = c["caloron.curvature_samples"]
        m["centext.cocycle.calls"] = c["centext.cocycle_c"]
        m["centext.alpha.calls"] = c["centext.eval_alpha"]
        m["sampling.path.total_s"] = tot["sampling.random_group_path"]
        m["report.bytes"] = cnt["report.bytes"]
        out[op] = m
    return out


def layer_metrics(tracer: Tracer, count_ops: int) -> dict:
    """Per-op means: counts over the first `count_ops` traced ops, so
    they repeat exactly for a seed; times over every traced op."""
    per_op = per_op_metrics(tracer)
    ops = sorted(per_op)
    first = ops[:count_ops]
    out = {}
    for key in COUNT_METRICS:
        out[key] = sum(per_op[o][key] for o in first) / len(first)
    for key in TIME_METRICS:
        out[key] = sum(per_op[o][key] for o in ops) / len(ops)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span: name, start, end, parent, op."""
    with gzip.open(path, "wt") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for s in tracer.spans:
            fh.write("%s\t%r\t%r\t%d\t%s\n" % (s[0], s[2], s[3], s[4], s[5]))
