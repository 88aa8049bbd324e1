"""Observability layer: run manifests, engine telemetry, the run recorder.

:mod:`repro.obs` is the reporting surface the rest of the stack threads
through:

* :class:`~repro.obs.recorder.Recorder` — the named manifest sections
  (:func:`~repro.obs.recorder.record_section`), the
  :func:`~repro.obs.recorder.timer` spans and, inside a
  :func:`~repro.obs.recorder.recording` scope, the engine telemetry;
  the process root recorder is the default, ``repro serve`` opens one
  scope per request;
* :class:`~repro.obs.telemetry.EngineTelemetry` — per-batch/per-spec
  execution records plus aggregated pipeline stall attribution, owned by
  every :class:`~repro.engine.sweep.ExperimentEngine` (or by the open
  scope);
* :func:`~repro.obs.manifest.build_manifest` /
  :func:`~repro.obs.manifest.validate_manifest` — schema-versioned JSON
  run records (``--metrics-out`` / ``$REPRO_METRICS`` on every entry
  point; ``python -m repro.obs`` validates one from the shell).
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    check_manifest,
    metrics_path,
    validate_manifest,
    write_manifest,
)
from repro.obs.recorder import (
    Recorder,
    TimerSpan,
    current_recorder,
    record_section,
    recording,
    timer,
)
from repro.obs.telemetry import (
    BatchRecord,
    EngineTelemetry,
    KernelBatchRecord,
    ModelDisagreementWarning,
    SpecTiming,
    warn_model_disagreement,
)

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "BatchRecord",
    "EngineTelemetry",
    "KernelBatchRecord",
    "ManifestError",
    "ModelDisagreementWarning",
    "Recorder",
    "SpecTiming",
    "warn_model_disagreement",
    "TimerSpan",
    "build_manifest",
    "check_manifest",
    "current_recorder",
    "metrics_path",
    "record_section",
    "recording",
    "timer",
    "validate_manifest",
    "write_manifest",
]
