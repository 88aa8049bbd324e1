"""Outside-in layer tracing: wrap a layer's public functions from outside.

The benchmark does not instrument the program; it replaces each traced
function with a timing wrapper for the length of a traced run and puts
the original back afterwards.  A function is looked up by every caller
under some name: the attribute of its defining module, or the global of a
module that did ``from module import name``.  Patching the defining
module alone would miss the second kind (``repro.engine.sweep`` imports
``generate_trace`` by name), so :meth:`Tracer.install` rebinds every
module global under the traced prefixes that holds the original
function.  Calls that import the function inside a function body read the
defining module at call time and see the wrapper too.

A span is one call of a traced function.  Its self time is its duration
minus the time of the traced calls made inside it (on the same thread),
so the self times of all layers add up to the time the outermost spans
cover.  ``untraced_s`` is the wall time inside the measured window that
no outermost span covers, from any thread.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``hook(args, kwargs, bump) -> (args, kwargs)``: sees each call's
#: arguments before the call, may count work with ``bump(n)`` and may
#: replace the arguments (for example to count the items of an iterator
#: lazily, as the callee consumes them).
Hook = Callable[[tuple, dict, Callable[[int], None]], Tuple[tuple, dict]]


@dataclasses.dataclass(frozen=True)
class Target:
    """One traced function.

    ``path`` is ``"module:function"`` or ``"module:Class.method"``;
    ``layer`` is the metric prefix (``workloads.generate_trace``); targets
    that share a layer add into one set of counts.
    ``counter`` names the extra count a ``hook`` bumps, reported as
    ``<layer>.<counter>``.
    """

    layer: str
    path: str
    hook: Optional[Hook] = None
    counter: Optional[str] = None


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    extra: int = 0


def count_first_len(args: tuple, kwargs: dict,
                    bump: Callable[[int], None]) -> Tuple[tuple, dict]:
    """Hook: count the length of the first positional argument."""
    if args:
        bump(len(args[0]))
    return args, kwargs


def count_iterated(position: int) -> Hook:
    """Hook: count the items the callee draws from argument ``position``.

    The iterable is wrapped in a generator, so the callee still consumes
    it lazily and in the same order.
    """

    def hook(args: tuple, kwargs: dict,
             bump: Callable[[int], None]) -> Tuple[tuple, dict]:
        if len(args) <= position:
            return args, kwargs

        def counted(items: Iterable[Any]):
            for item in items:
                bump(1)
                yield item

        args = args[:position] + (counted(args[position]),) \
            + args[position + 1:]
        return args, kwargs

    return hook


class Tracer:
    """Per-layer call counts and self times of a set of :class:`Target`."""

    def __init__(self, targets: Iterable[Target],
                 prefixes: Tuple[str, ...] = ("repro",)) -> None:
        self.targets = list(targets)
        self.prefixes = prefixes
        self.stats: Dict[str, LayerStats] = {
            target.layer: LayerStats() for target in self.targets
        }
        self._lock = threading.Lock()
        self._local = threading.local()
        self._outer: List[Tuple[float, float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target at every name its callers look it up by."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner, attr = _resolve(target.path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue  # methods are looked up through the class
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith(self.prefixes):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def restore(self) -> None:
        """Put every original function back, in reverse patch order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stats = self.stats[target.layer]
        lock = self._lock
        local = self._local
        outer = self._outer
        hook = target.hook

        def bump(n: int) -> None:
            with lock:
                stats.extra += n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs, bump)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                with lock:
                    stats.calls += 1
                    stats.self_s += duration - children[0]
                    if stack:
                        stack[-1][0] += duration
                    else:
                        outer.append((start, end))

        return traced

    # -- reporting ------------------------------------------------------------

    def covered_s(self, start: float, end: float) -> float:
        """Length of ``[start, end]`` covered by at least one outermost span."""
        with self._lock:
            spans = sorted(
                (max(a, start), min(b, end)) for a, b in self._outer
                if b > start and a < end
            )
        covered = 0.0
        cursor = start
        for a, b in spans:
            if b <= cursor:
                continue
            covered += b - max(a, cursor)
            cursor = b
        return covered

    def layer_metrics(self, start: float, end: float) -> Dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` (and any extra counter),
        plus ``untraced_s`` for the window ``[start, end]``."""
        out: Dict[str, float] = {}
        with self._lock:
            for target in self.targets:
                stats = self.stats[target.layer]
                out[f"{target.layer}.calls"] = stats.calls
                out[f"{target.layer}.self_s"] = stats.self_s
                if target.counter:
                    out[f"{target.layer}.{target.counter}"] = stats.extra
        out["untraced_s"] = max(0.0, (end - start) - self.covered_s(start, end))
        return out


def _resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(Class, "attr")``; ``"pkg.mod:fn"``
    -> ``(module, "fn")``."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in owner.__dict__:
        raise AttributeError(f"{path}: no attribute {attr!r}")
    return owner, attr
