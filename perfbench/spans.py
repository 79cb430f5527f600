"""In-memory span tracing of ``isingreg`` from outside the package.

The package imports most names with ``from .x import y``, so wrapping a
function in its defining module is not enough: :func:`install` finds every
``isingreg`` module (and class) that holds the original object and rebinds
it there to a wrapper that records a span.  :func:`install` returns an undo
callable, so one process can run untraced and traced rounds back to back.

A span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of the
enclosing span or None), ``op`` (the op id) and ``counts`` (work done, taken
from the call's arguments or result).  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path


class Tracer:
    """Span recorder with a stack for parent links."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = None

    def open(self, name, counts=None):
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "op": self.op,
                           "counts": dict(counts or {})})
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, counts=None):
        span = self.spans[index]
        span["end"] = self.clock()
        span["counts"].update(counts or {})
        self.stack.pop()

    def current(self):
        return self.spans[self.stack[-1]]["name"] if self.stack else None


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(k)
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c in sorted(children[k], key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def outermost(spans, layer):
    """Indices of spans named ``layer`` with no ancestor of the same name,
    so nested calls (a constructor calling another) count once."""
    keep = []
    for k, s in enumerate(spans):
        if s["name"] != layer:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != layer:
            p = spans[p]["parent"]
        if p is None:
            keep.append(k)
    return keep


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _gibbs_name(args):
    blocks = args["model"].A._block_labels is not None
    return "ising.gibbs_block" if blocks else "ising.gibbs_csr"


def _sites(n, args):
    return n * (args["burn_in"] + args["thin"] * (args["count"] - 1))


def _fit_counts(args, result):
    return {"fits": 1, "iters": result.iterations,
            "converged": int(bool(result.converged))}


def _file_bytes(*paths):
    return sum(Path(p).stat().st_size for p in paths if p is not None)


# (module, attribute, span name or callable(args) -> name,
#  counts before the call: callable(args) -> dict,
#  counts after the call: callable(args, result) -> dict)
LAYERS = [
    ("interaction", "InteractionMatrix.block_partition", "interaction.build",
     None, None),
    ("interaction", "InteractionMatrix.curie_weiss", "interaction.build",
     None, None),
    ("interaction", "InteractionMatrix.from_adjacency", "interaction.build",
     None, None),
    ("interaction", "InteractionMatrix.from_dense", "interaction.build",
     None, None),
    ("interaction", "from_weighted_edges", "interaction.build", None, None),
    ("ising", "gibbs_sample", _gibbs_name,
     lambda a: {"site_updates": _sites(a["model"].n, a)}, None),
    ("ising", "serialize_spins", "ising.serialize", None, None),
    ("potts", "potts_objective_grad", "potts.objective",
     lambda a: {"evals": 1, "bytes": 2 * a["problem"].X.nbytes}, None),
    ("potts", "fit_potts", "potts.fit", None, _fit_counts),
    ("potts", "predict_class", "potts.predict", None, None),
    ("mple", "neg_log_pl", "mple.objective", lambda a: {"evals": 1}, None),
    ("mple", "fit", "mple.fit", None, _fit_counts),
    ("models", "FunctionClassModel.eval", "models.eval", None, None),
    ("models", "FunctionClassModel.param_grad", "models.param_grad",
     None, None),
    ("data", "load_citation", "data.load_citation",
     lambda a: {"bytes": _file_bytes(a["nodes_path"], a["edges_path"],
                                     a["splits_path"])}, None),
    ("data", "gen_synthetic", "data.gen_synthetic", None, None),
    ("harness", "rate_experiment", "harness.rate_experiment", None, None),
    ("harness", "accuracy_benchmark", "harness.accuracy_benchmark",
     None, None),
    ("harness", "emit", "harness.emit", None,
     lambda a, written: {"bytes": _file_bytes(*written)}),
    ("diagnostics", "kappa_and_restricted_eig", "diagnostics.kappa",
     None, None),
]

# models is timed only where it is the inner work of an objective evaluation
ONLY_INSIDE = {"models.eval": ("mple.objective", "potts.objective"),
               "models.param_grad": ("mple.objective", "potts.objective")}


def _wrap(tracer, fn, name, before, after):
    sig = inspect.signature(fn)
    inside = ONLY_INSIDE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if inside is not None and tracer.current() not in inside:
            return fn(*args, **kwargs)
        if callable(name) or before or after:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
        label = name(a) if callable(name) else name
        index = tracer.open(label, before(a) if before else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, after(a, result) if after else None)
        return result

    return wrapper


PACKAGE = "isingreg"


def install(tracer):
    """Rebind every traced callable wherever the package holds it.

    Returns a function that restores the originals.
    """
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == PACKAGE
                                     or key.startswith(PACKAGE + "."))]
    undo = []
    for mod_name, attr, name, before, after in LAYERS:
        home = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = _wrap(tracer, fn, name, before, after)
            setattr(cls, meth, staticmethod(wrapped)
                    if isinstance(raw, staticmethod) else wrapped)
            undo.append((cls, meth, raw))
            continue
        fn = getattr(home, attr)
        wrapped = _wrap(tracer, fn, name, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, fn))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore
