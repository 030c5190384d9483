"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps privamp's entry points from the outside, so the
program itself carries no tracing code. A wrapped module function replaces
every binding the program looks it up through (the defining module, modules
that imported it by name, and the package namespace); a method is wrapped on
the class named in METHODS, also when that class inherits it. A class,
method or private entry point that privamp no longer has is skipped and
listed in `Tracer.missing`, so a refactor of the program makes metrics
absent instead of failing the run. A span is (id, name, start, end, parent,
job, error, note). Work done in a hashing worker thread is parented to the
span the main thread is waiting in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "states", "operators", "measures", "exponents", "smoothing", "hashing")
PRIVATE_ENTRY_POINTS = {"hashing": ("_batch_values",)}
METHODS = {
    "states": (("CQState", "__init__"),),
    "measures": (
        ("ConditionalRenyiCurve", "__init__"),
        ("ConditionalRenyiCurve", "log2_q"),
        ("RenyiDivergenceCurve", "__init__"),
        ("RenyiDivergenceCurve", "log2_q"),
    ),
    "hashing": (
        ("AllFunctionsFamily", "sample_table"),
        ("AffinePrimeFamily", "sample_table"),
        ("PermutationProductFamily", "sample_table"),
    ),
}
# what a span notes about its call, read from (args, kwargs, result) after the
# call returned; a note that cannot be read is None and never fails the call
NOTES = {
    "operators.tensor_power": lambda a, k, r: r.dim,
    "smoothing.iid_spectrum": lambda a, k, r: r.natoms,
    "hashing._batch_values": lambda a, k, r: (a[3], a[0].shape[0]),  # (measure, tables)
}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    job: int | None
    error: str | None
    note: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _wrap(self, name: str, fn):
        tracer, note_fn = self, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                error = f"{type(exc).__name__}: {exc}"
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.job, error, None))
                raise
            end = perf_counter()
            stack.pop()
            note = _note(note_fn, args, kwargs, result)
            tracer.spans.append(Span(sid, name, start, end, parent, tracer.job, None, note))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        """Set owner.attr; uninstall() restores it, or deletes it if owner only inherited it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"privamp.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [sys.modules["privamp"]]
        for layer, mod in modules.items():
            private = PRIVATE_ENTRY_POINTS.get(layer, ())
            self.missing.update(f"{layer}.{attr}" for attr in private if not inspect.isfunction(vars(mod).get(attr)))
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in private
                if not (public and inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                name = f"{layer}.{cls_name}.{meth}"
                cls = getattr(mod, cls_name, None)
                fn = inspect.getattr_static(cls, meth, None) if inspect.isclass(cls) else None
                if inspect.isfunction(fn):
                    self._patch(cls, meth, self._wrap(name, fn))
                else:
                    self.missing.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


_INHERITED = object()


def _note(note_fn, args, kwargs, result):
    if note_fn is None:
        return None
    try:
        return note_fn(args, kwargs, result)
    except Exception:  # the call's signature or result changed; the note is lost, the call is not
        return None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.sid: sp.duration - _covered(children.get(sp.sid, []), sp.start, sp.end) for sp in spans}


def nearest_ancestor(spans_by_id: dict[int, Span], span: Span, names) -> Span | None:
    parent = spans_by_id.get(span.parent)
    while parent is not None and parent.name not in names:
        parent = spans_by_id.get(parent.parent)
    return parent
