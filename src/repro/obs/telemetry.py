"""Engine-side telemetry: per-batch, per-spec and per-stage accounting.

Every :class:`~repro.engine.sweep.ExperimentEngine` owns one
:class:`EngineTelemetry` and feeds it from ``run_specs`` — or, inside a
:func:`~repro.obs.recorder.recording` scope, feeds the scope's:

* one :class:`BatchRecord` per batch (spec count, hit/miss split, wall
  time, workers used),
* one :class:`SpecTiming` per spec (content key, identity, whether it
  was served from cache, and — for fresh simulations — its wall time),
* aggregated per-stage stall cycles, activity counters and memory-level
  histograms from every :class:`~repro.uarch.ooo.SimResult` /
  :class:`~repro.uarch.multicore.MulticoreResult` the engine returns.

This module deliberately imports nothing from ``repro.engine`` or
``repro.uarch`` — results are consumed by duck typing — so it can be
loaded from anywhere in the stack without cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

#: Activity counters aggregated from every result the engine serves.
COUNTER_FIELDS = (
    "uops",
    "cycles",
    "branches",
    "mispredictions",
    "loads",
    "stores",
)


@dataclasses.dataclass
class SpecTiming:
    """Per-spec record: identity, cache outcome, and simulation time.

    ``seconds`` is ``None`` for cache hits (nothing was simulated).
    """

    key: str
    mode: str
    config: str
    profile: str
    uops: int
    seed: int
    cached: bool
    seconds: Optional[float] = None

    def as_record(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "mode": self.mode,
            "config": self.config,
            "profile": self.profile,
            "uops": self.uops,
            "seed": self.seed,
            "cached": self.cached,
            "seconds": (
                round(self.seconds, 6) if self.seconds is not None else None
            ),
        }


@dataclasses.dataclass
class BatchRecord:
    """One ``run_specs`` call: size, hit/miss split, time, workers."""

    specs: int
    hits: int
    misses: int
    seconds: float
    workers: int

    def as_record(self) -> Dict[str, object]:
        return {
            "specs": self.specs,
            "hits": self.hits,
            "misses": self.misses,
            "seconds": round(self.seconds, 6),
            "workers": self.workers,
        }


@dataclasses.dataclass
class KernelBatchRecord:
    """One same-trace spec group: how it was executed and how wide.

    ``used_kernel`` is False when the group fell back to the scalar
    oracle — singleton groups (nothing to batch) or ``$REPRO_KERNEL=0``.
    ``replay`` is the cache replay the kernel ran, ``"native"`` or
    ``"reference"`` (see :mod:`repro.uarch.native`), and ``"none"`` for
    a scalar group.
    """

    mode: str
    width: int
    seconds: float
    used_kernel: bool
    replay: str = "none"

    def as_record(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "width": self.width,
            "seconds": round(self.seconds, 6),
            "used_kernel": self.used_kernel,
            "replay": self.replay,
        }


class ModelDisagreementWarning(UserWarning):
    """The cycle model and the analytical interval model disagree on the
    *direction* of a config-to-config CPI change — one of them is
    mismodelling the configuration delta."""


def warn_model_disagreement(message: str) -> None:
    """Emit a :class:`ModelDisagreementWarning` (sweep cross-checks)."""
    import warnings

    warnings.warn(message, ModelDisagreementWarning, stacklevel=3)


class EngineTelemetry:
    """Accumulates everything one engine did, for the run manifest."""

    def __init__(self) -> None:
        self.batches: List[BatchRecord] = []
        self.kernel_batches: List[KernelBatchRecord] = []
        self.spec_timings: List[SpecTiming] = []
        self.stall_cycles: Dict[str, int] = {}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_FIELDS}
        self.mem_level_counts: Dict[str, int] = {}

    # -- feeding --------------------------------------------------------------

    def record_batch(self, specs: int, hits: int, misses: int,
                     seconds: float, workers: int) -> None:
        self.batches.append(BatchRecord(specs, hits, misses, seconds, workers))

    def record_kernel_batch(self, mode: str, width: int, seconds: float,
                            used_kernel: bool, replay: str = "none") -> None:
        self.kernel_batches.append(
            KernelBatchRecord(mode, width, seconds, used_kernel, replay)
        )

    def kernel_summary(self) -> Dict[str, object]:
        """Aggregate kernel usage: how many specs were batched through
        the SoA kernel vs fell back to the scalar oracle.

        ``fallback_specs`` counts only specs in groups wide enough to
        batch (width >= 2) that ran scalar anyway — singletons have
        nothing to batch and are reported separately.  ``replay`` is
        ``"reference"`` when any kernel group replayed without the
        compiled walk, else ``"native"`` when any replayed at all, else
        ``"none"``."""
        batched = fallback = singleton = 0
        max_width = 0
        seconds = 0.0
        for record in self.kernel_batches:
            seconds += record.seconds
            if record.used_kernel:
                batched += record.width
                max_width = max(max_width, record.width)
            elif record.width > 1:
                fallback += record.width
            else:
                singleton += 1
        return {
            "groups": len(self.kernel_batches),
            "batched_specs": batched,
            "fallback_specs": fallback,
            "singleton_specs": singleton,
            "max_width": max_width,
            "seconds": round(seconds, 6),
            "replay": next(
                (path for path in ("reference", "native")
                 if any(r.replay == path for r in self.kernel_batches)),
                "none",
            ),
        }

    def record_spec(self, key: str, mode: str, config: str, profile: str,
                    uops: int, seed: int, cached: bool,
                    seconds: Optional[float] = None) -> None:
        self.spec_timings.append(
            SpecTiming(key, mode, config, profile, uops, seed, cached, seconds)
        )

    def observe_result(self, result: object) -> None:
        """Fold one simulation result (single- or multicore) into the
        aggregate stall/activity counters.  Cache hits count too: the
        aggregate describes what the sweeps *reported*, not what was
        freshly simulated."""
        per_core = getattr(result, "per_core", None)
        if per_core is not None:
            for core_result in per_core:
                self._observe_stats(core_result.stats)
            return
        stats = getattr(result, "stats", None)
        if stats is not None:
            self._observe_stats(stats)

    def _observe_stats(self, stats: object) -> None:
        counters = self.counters
        for name in COUNTER_FIELDS:
            counters[name] += int(getattr(stats, name, 0))
        stall_cycles = self.stall_cycles
        for cause, cycles in getattr(stats, "stall_cycles", {}).items():
            stall_cycles[cause] = stall_cycles.get(cause, 0) + int(cycles)
        mem_levels = self.mem_level_counts
        for level, count in getattr(stats, "mem_level_counts", {}).items():
            mem_levels[level] = mem_levels.get(level, 0) + int(count)
