"""Canonical JSON serialization for golden artifacts.

Golden files must be byte-stable: snapshotting the same model state twice
must produce identical bytes, or every diff drowns in serialization
noise.  The canonical form therefore fixes everything JSON leaves open:

* key order — objects are dumped with sorted keys;
* float text — floats pass through Python's shortest round-trip ``repr``
  (the ``json`` module's default), and non-finite values, which JSON
  cannot represent, become tagged objects (``{"__nonfinite__": "nan"}``)
  instead of the non-standard ``NaN`` literal;
* containers — tuples become lists, dataclasses become field mappings;
* encoding — UTF-8, two-space indent, one trailing newline.

:func:`trace_digest` is the shared content hash over a generated
instruction trace; the kernel's replay-sharing memos assume traces are
deterministic functions of ``(profile, uops, seed, thread)``, and the
``traces`` golden artifact pins exactly that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any

from repro.uarch.isa import OP_ORDER, resident_list

#: Tag key marking a non-finite float in canonical form.
NONFINITE_KEY = "__nonfinite__"


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a canonical, JSON-serialisable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {NONFINITE_KEY: "nan"}
        if math.isinf(value):
            return {NONFINITE_KEY: "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, (str, int)):
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__} for a golden artifact"
    )


def decode_nonfinite(value: Any) -> Any:
    """Inverse of the non-finite tagging (scalars only).

    Anything that merely *resembles* a tag (wrong payload string) passes
    through untouched — the comparator treats it structurally instead of
    crashing on it.
    """
    if isinstance(value, dict) and set(value) == {NONFINITE_KEY} \
            and value[NONFINITE_KEY] in ("nan", "inf", "-inf"):
        return float(value[NONFINITE_KEY])
    return value


def canonical_dumps(value: Any) -> str:
    """Serialise ``value`` to canonical JSON text (deterministic bytes)."""
    import json

    return json.dumps(
        canonical(value), sort_keys=True, indent=2, allow_nan=False,
        ensure_ascii=True,
    ) + "\n"


def payload_digest(value: Any) -> str:
    """SHA-256 over the canonical serialization of ``value``."""
    return hashlib.sha256(canonical_dumps(value).encode()).hexdigest()


def trace_digest(trace) -> str:
    """Content hash of one generated instruction trace.

    Covers every field the simulator consumes: the per-uop tuple stream
    plus the trace-level residency metadata.  Moved here from the kernel
    test suite so tests, benchmarks and the ``traces`` golden artifact
    share one definition.
    """
    # Hashes each µop's ``(op.value, src1, src2, address, pc, taken,
    # barrier)`` repr, read from the columns (0 distances are ``None``).
    values = [op.value for op in OP_ORDER]
    columns = trace.columns
    hasher = hashlib.sha256()
    update = hasher.update
    for code, src1, src2, address, pc, taken, barrier in zip(
            columns.op, columns.src1, columns.src2, columns.address,
            columns.pc, columns.taken, columns.barrier):
        update(repr((values[code], src1 or None, src2 or None, address, pc,
                     taken, barrier)).encode())
    hasher.update(repr((trace.name, trace.warmup_ops,
                        resident_list(trace.resident_data),
                        resident_list(trace.resident_code))).encode())
    return hasher.hexdigest()
