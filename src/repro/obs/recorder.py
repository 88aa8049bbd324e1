"""The run recorder: named manifest sections, timer spans, scoped telemetry.

A :class:`Recorder` holds what a manifest reports beyond the engine's
configuration and cache counters:

* the optional named sections (``validation``, ``explore``,
  ``manycore``, ``serve``), set with :func:`record_section` by the layer
  that produced them, so :mod:`repro.obs` never imports those layers;
* the :class:`TimerSpan` of every :func:`timer` block completed in it
  (the one timing primitive: ``BENCH_<timestamp>.json`` and the
  manifests report wall time in the same shape);
* inside a :func:`recording` scope, the
  :class:`~repro.obs.telemetry.EngineTelemetry` every engine records
  into (outside any scope each engine keeps its own).

The current recorder lives in a :class:`contextvars.ContextVar`.  Its
default is the process root recorder, which a CLI run reports through.
``with recording() as rec:`` opens a fresh scope for the current thread
or task; ``repro serve`` opens one per request, so a response's manifest
is exactly what that request did, whatever else the server is running.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.telemetry import EngineTelemetry


@dataclasses.dataclass
class TimerSpan:
    """One timed region: a dotted name and its wall-clock seconds."""

    name: str
    seconds: float = 0.0

    def as_record(self) -> Dict[str, object]:
        return {"name": self.name, "seconds": round(self.seconds, 6)}


@dataclasses.dataclass
class Recorder:
    """Named sections, timer spans and (in a scope) engine telemetry.

    ``telemetry`` is ``None`` on the process root recorder: engines then
    record into their own :class:`EngineTelemetry`.
    """

    sections: Dict[str, Any] = dataclasses.field(default_factory=dict)
    spans: List[TimerSpan] = dataclasses.field(default_factory=list)
    telemetry: Optional[EngineTelemetry] = None


_CURRENT: contextvars.ContextVar[Recorder] = contextvars.ContextVar(
    "repro_recorder", default=Recorder())


def current_recorder() -> Recorder:
    """The open :func:`recording` scope, else the process root recorder."""
    return _CURRENT.get()


@contextlib.contextmanager
def recording() -> Iterator[Recorder]:
    """Open a fresh recorder scope for the ``with`` block.

    Sections, spans and engine telemetry recorded inside the block land
    on the yielded recorder only; the enclosing recorder is untouched.
    """
    recorder = Recorder(telemetry=EngineTelemetry())
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)


def record_section(name: str, payload: Dict[str, Any]) -> None:
    """Set the current recorder's optional manifest section ``name``."""
    _CURRENT.get().sections[name] = payload


@contextlib.contextmanager
def timer(name: str, record: bool = True) -> Iterator[TimerSpan]:
    """Time a ``with`` block; the yielded span's ``seconds`` is filled in
    on exit (and appended to the recorder current at entry unless
    ``record=False``)."""
    spans = _CURRENT.get().spans
    span = TimerSpan(name)
    start = time.perf_counter()
    try:
        yield span
    finally:
        span.seconds = time.perf_counter() - start
        if record:
            spans.append(span)
