"""Spans around the calls into each tddq layer, recorded from outside.

`Tracer.install` replaces every public function of the layer modules
(`tddq.traffic`, `tddq.analytic`, `tddq.sim`, `tddq.cli`) and the public
methods of their public classes with a wrapper that records a span: name,
layer, start, end, parent span and the benchmark operation it belongs to.
Functions are replaced where each module binds them, e.g.
`tddq.sim.long_service_moments` as well as `tddq.traffic.long_service_moments`,
so calls between layers are seen too. Spans stay in memory until the
benchmark writes them out; `uninstall` restores the originals.

`probe` is the lighter hook the untraced runs use: it wraps one attribute
with a function of the caller's choosing for the duration of a `with` block.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("traffic", "analytic", "sim", "cli")


@contextmanager
def probe(owner, attr: str, make_wrapper):
    """Temporarily replace `owner.attr` by `make_wrapper(original)`."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self, package, hooks: dict | None = None) -> None:
        self.package = package
        # hooks[span name](arguments, result, seconds) runs after the span closes
        self.hooks = hooks or {}
        self.spans: list = []  # (id, parent, name, layer, start, end, op)
        self.op = 0
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self.hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans[sid] = (sid, parent, name, layer, t0, t1, tracer.op)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._paused = True
                try:
                    hook(bound.arguments, result, t1 - t0)
                finally:
                    tracer._paused = False
            return result

        return wrapper

    def install(self) -> None:
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, modules):
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{public}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(
                                member, f"{layer}.{public}.{attr}", layer))
        for mod in [self.package, *modules]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sid, parent, _name, _layer, t0, t1, _op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[5] - s[4] - child[s[0]] for s in spans]
