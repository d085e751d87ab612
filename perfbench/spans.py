"""External span recorder for the lgh benchmark.

The recorder wraps public functions and methods of ``lgh`` from outside the
package: a module-level function is replaced in every ``lgh`` module that
holds it (so names a module imported with ``from .x import y`` are covered
too), and a method is replaced on the class that defines it.

Per layer name, every call is counted, but only the outermost call is timed:
a call made while a span of the same name is open only bumps the counter.
Timing every nested ``eval_jet`` would cost about half a suite pass, while
the outermost rule costs one timer pair per walk.  Spans stay in memory as
``(name, start, end, parent)`` rows; self times are computed after the pass.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing recorded span, -1 at top level

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Recorded spans nest properly (a child opens and closes inside its
    parent), so the children of one span never overlap and their durations
    can simply be subtracted.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per name: total inclusive seconds and total self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, own):
        row = out.setdefault(s.name, {"total_s": 0.0, "self_s": 0.0})
        row["total_s"] += s.duration
        row["self_s"] += t
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent < 0)


class _Layer:
    __slots__ = ("calls", "depth")

    def __init__(self):
        self.calls = 0
        self.depth = 0


class Recorder:
    """Collects spans and call counts while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._layers: dict[str, _Layer] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------

    def _layer(self, name: str) -> _Layer:
        return self._layers.setdefault(name, _Layer())

    def calls(self, name: str) -> int:
        layer = self._layers.get(name)
        return layer.calls if layer else 0

    def reset(self):
        """Forget spans and counts; installed wrappers stay in place."""
        self.spans = []
        self._stack = []
        self.missing = []
        for layer in self._layers.values():
            layer.calls = 0
            layer.depth = 0

    def timed(self, fn, name: str, on_result=None):
        """Wrap ``fn``: count every call, record a span for the outermost one.

        ``on_result`` sees the return value of each outermost call.
        """
        layer = self._layer(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            if layer.depth:
                return fn(*args, **kwargs)
            stack = rec._stack
            index = len(rec.spans)
            span = Span(name, rec.clock(), 0.0, stack[-1] if stack else -1)
            rec.spans.append(span)
            stack.append(index)
            layer.depth = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                layer.depth = 0
                stack.pop()
                span.end = rec.clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        """Wrap ``fn`` to count calls only (for hot arithmetic operators)."""
        layer = self._layer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def patch_function(self, module, attr: str, make_wrapper):
        """Replace ``module.attr`` in every ``lgh`` module that holds the same
        function object, including the package namespace."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lgh" or name.startswith("lgh.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper):
        """Replace a method on the class that defines it."""
        if cls is None or attr not in vars(cls):
            owner = getattr(cls, "__name__", "<missing class>")
            self.missing.append(f"{owner}.{attr}")
            return
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
