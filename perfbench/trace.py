"""In-memory span tracing of hybridseg's public functions, from outside.

``instrument(tracer)`` replaces every public function of the traced modules
(and a few public methods) with a wrapper that records one span per call:
name, start, end, parent span and the workload operation id (train step,
image or seed). Functions imported by name into another module are replaced
there too, so ``cli.score_image`` and ``inference.score_image`` record the
same span. Nothing inside the package is edited; leaving the context
restores the originals.

``self_times`` turns spans into self time: a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# config, labels and errors do no measurable work and are left untraced.
TRACED_MODULES = ("autodiff", "scoring", "network", "optim", "losses", "train",
                  "data", "inference", "metrics", "rasters", "cli")
TRACED_METHODS = (("autodiff", "Tensor", "backward"), ("optim", "Adam", "step"),
                  ("optim", "Adam", "zero_grad"), ("network", "ModelParams", "copy"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into the span list, -1 at the root
    op: str                # workload operation id: "step-12", "pass-1/test_0003", ...
    attrs: dict | None = None


@dataclass
class Tracer:
    """Collects spans while ``enabled``; the workload sets ``op`` per operation."""

    spans: list[Span] = field(default_factory=list)
    enabled: bool = False
    op: str = ""
    op_base: str = ""
    _stack: list[int] = field(default_factory=list)

    def set_op(self, op: str) -> None:
        self.op = self.op_base = op

    def wrap(self, name: str, fn, attrs=None, before=None):
        """Return a span-recording wrapper around ``fn``.

        ``attrs(args, kwargs)`` computes counts for the span after it has
        ended, so counting is not charged to the traced function.
        ``before(tracer, args, kwargs)`` runs ahead of the span (for
        operation ids).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if attrs is not None:
                    span.attrs = attrs(args, kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent, "op": s.op,
                                    "attrs": s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# counts recorded at the span boundaries


def _conv_attrs(args, kwargs):
    x, w = args[0], args[1]
    b = args[2] if len(args) > 2 else kwargs.get("b")
    return {"x": list(x.shape), "w": list(w.shape), "bias": b is not None,
            "x_grad": bool(x.requires_grad), "w_grad": bool(w.requires_grad)}


def _bn_attrs(args, kwargs):
    training = args[5] if len(args) > 5 else kwargs["training"]
    return {"x": list(args[0].shape), "training": bool(training),
            "x_grad": bool(args[0].requires_grad)}


def _forward_attrs(args, kwargs):
    return {"training": bool(args[2] if len(args) > 2 else kwargs.get("training", False))}


def _adam_attrs(args, kwargs):
    return {"optimizer": id(args[0]), "skipped": args[0].skipped}


def _ranked_attrs(args, kwargs):
    return {"pixels": int(getattr(args[0], "size", 0))}


def _file_attrs(args, kwargs):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except OSError:
        return {"bytes": 0}


def _image_id(tracer, args, kwargs):
    # load_scene(root, row): inside a scoring pass, tag spans with the image
    row = args[1] if len(args) > 1 else kwargs["row"]
    tracer.op = f"{tracer.op_base}/{Path(row.image).stem}"


ATTRS = {
    "autodiff.conv2d": _conv_attrs,
    "autodiff.batch_norm": _bn_attrs,
    "network.forward": _forward_attrs,
    "optim.Adam.step": _adam_attrs,
    "metrics.average_precision": _ranked_attrs,
    "metrics.auroc": _ranked_attrs,
    "metrics.fpr_at_tpr": _ranked_attrs,
    "metrics.calibrate_threshold": _ranked_attrs,
}
BEFORE = {"data.load_scene": _image_id}


def _public_functions(module, short):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{short}.{name}", obj


@contextlib.contextmanager
def instrument(tracer: Tracer, extra=()):
    """Wrap the traced modules' public functions for the duration of the block.

    ``extra`` modules (the caller's own) get their imported names replaced too.
    """
    modules = {short: importlib.import_module(f"hybridseg.{short}")
               for short in TRACED_MODULES}
    wrappers = {}  # original function -> wrapper
    for short, module in modules.items():
        for name, fn in _public_functions(module, short):
            attrs = ATTRS.get(name)
            if short == "rasters" and fn.__name__.startswith(("read_", "write_")):
                attrs = _file_attrs
            wrappers[fn] = tracer.wrap(name, fn, attrs, BEFORE.get(name))

    # every module namespace that holds a traced function, by identity
    namespaces = [*modules.values(), importlib.import_module("hybridseg"), *extra]
    patched = []
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(modules[short], cls_name)
        original = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        patched.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(name, original, ATTRS.get(name)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        tracer.enabled = False


@contextlib.contextmanager
def tracing(tracer: Tracer | None):
    """Enable ``tracer`` for the block; a no-op when it is None."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


# ---------------------------------------------------------------------------
# self time


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(spans)]


def ancestors(spans: list[Span], i: int):
    """Yield span ``i`` and then each of its ancestors, innermost first."""
    while i >= 0:
        yield i
        i = spans[i].parent
