"""Span tracer that attributes host time to the simulator's layers.

The tracer wraps the public entry points of each layer from outside the
program (no source under ``src/`` changes).  Every wrapped call is a span;
spans nest on one stack, and a span's *self* time is its duration minus the
durations of the spans it directly encloses, so the self times of all spans
plus the time spent outside any span add up to the traced wall time.
Counts and times stay in memory; callers read :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable


class Tracer:
    """Per-entry-point call count, total time and self time.

    Entry points are registered as ``(layer, owner, attribute)``: ``owner``
    is a class (methods, class methods) or a module (functions).  A module
    function is also patched in every loaded module that imported it by
    name, so ``from x import f`` callers are traced too.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[float] = []
        self._stats: dict[str, list] = {}  # key -> [layer, calls, total, self]
        self._patches: list[tuple[object, str, object]] = []

    # -- span accounting ---------------------------------------------------
    def wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call under ``key``."""
        stats = self._stats.setdefault(key, [layer, 0, 0.0, 0.0])
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[1] += 1
                stats[2] += elapsed
                stats[3] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def snapshot(self) -> dict[str, dict]:
        """``key -> {layer, calls, total_s, self_s}`` for every entry point."""
        return {
            key: {"layer": layer, "calls": calls, "total_s": total, "self_s": own}
            for key, (layer, calls, total, own) in self._stats.items()
        }

    # -- installation ------------------------------------------------------
    def install(self, entry_points) -> None:
        """Patch every ``(layer, owner, attribute)`` entry point."""
        for layer, owner, attribute in entry_points:
            if isinstance(owner, type):
                self._patch_method(layer, owner, attribute)
            else:
                self._patch_function(layer, owner, attribute)

    def _patch_method(self, layer: str, cls: type, attribute: str) -> None:
        original = cls.__dict__[attribute]
        key = f"{cls.__name__}.{attribute}"
        if isinstance(original, classmethod):
            patched = classmethod(self.wrap(layer, key, original.__func__))
        else:
            patched = self.wrap(layer, key, original)
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, patched)

    def _patch_function(self, layer: str, module, attribute: str) -> None:
        original = getattr(module, attribute)
        patched = self.wrap(layer, attribute, original)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if namespace is not None and namespace.get(attribute) is original:
                self._patches.append((holder, attribute, original))
                setattr(holder, attribute, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_totals(snapshot: dict[str, dict]) -> dict[str, dict]:
    """Sum one snapshot's entry points by layer."""
    layers: dict[str, dict] = {}
    for entry in snapshot.values():
        layer = layers.setdefault(entry["layer"], {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return layers


def unattributed_s(snapshot: dict[str, dict], wall_s: float) -> float:
    """Traced wall time spent outside every span."""
    return wall_s - sum(entry["self_s"] for entry in snapshot.values())
