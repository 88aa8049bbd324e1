"""Micro-op trace format consumed by the simulator.

The simulator is trace-driven (the paper drives Multi2Sim with SPEC2006 /
SPLASH2 / PARSEC binaries; we drive our core model with statistically
faithful synthetic traces).  Every micro-op in a trace carries:

* the operation class (which functional unit and latency it needs),
* register dependencies, expressed as *producer distances* (how many µops
  back each source operand was produced — the standard trace-driven way to
  encode dataflow without register names),
* a memory address for loads/stores (fed to the real cache hierarchy),
* a PC and taken/not-taken outcome for branches (fed to the real
  tournament predictor).

A trace's primary form is columnar (:class:`TraceColumns`, one list per
field), which is what the generator writes and the batched kernel
reads.  The per-op :class:`MicroOp` list (:attr:`Trace.ops`) is built
lazily, only for the scalar oracle and for tests.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class OpClass(enum.Enum):
    """Functional-unit classes with Table 9 latencies."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP_ADD = "fp_add"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    COMPLEX = "complex"  # multi-uop x86 instruction (complex decoder path)
    SYNC = "sync"  # barrier/lock marker in parallel traces


#: Stable integer encoding of :class:`OpClass` (the op-code column).
OP_ORDER = tuple(OpClass)
OP_CODE: Dict[OpClass, int] = {op: code for code, op in enumerate(OP_ORDER)}


#: Execution latency in cycles per op class (Table 9's FUs & latencies).
OP_LATENCY = {
    OpClass.ALU: 1,
    OpClass.MUL: 2,
    OpClass.DIV: 4,
    OpClass.FP_ADD: 2,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 8,
    OpClass.LOAD: 1,  # plus the cache round trip
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.COMPLEX: 1,
    OpClass.SYNC: 1,
}

#: Functional-unit pools (Table 9): class -> number of units.
FU_POOLS = {
    OpClass.ALU: 4,
    OpClass.MUL: 2,
    OpClass.DIV: 2,
    OpClass.FP_ADD: 2,
    OpClass.FP_MUL: 2,
    OpClass.FP_DIV: 2,
    OpClass.LOAD: 2,  # 2 LSUs
    OpClass.STORE: 2,
    OpClass.BRANCH: 4,  # branches resolve on the ALUs
    OpClass.COMPLEX: 4,
    OpClass.SYNC: 4,
}

#: Issue-rate restriction: FP divide issues every 8 cycles (Table 9).
FP_DIV_ISSUE_INTERVAL = 8


@dataclasses.dataclass(frozen=True)
class MicroOp:
    """One micro-operation in a trace."""

    op: OpClass
    #: Producer distances for up to two source operands (1 = the previous
    #: µop produced it).  ``None`` means the operand is ready (register
    #: value older than the window).
    src1: Optional[int] = None
    src2: Optional[int] = None
    #: Memory address (loads/stores).
    address: Optional[int] = None
    #: Branch PC and resolved direction (branches).
    pc: int = 0
    taken: bool = False
    #: Barrier id for SYNC ops in parallel traces.
    barrier: int = -1

    def __post_init__(self) -> None:
        if self.op in (OpClass.LOAD, OpClass.STORE) and self.address is None:
            raise ValueError(f"{self.op} requires an address")
        for dist in (self.src1, self.src2):
            if dist is not None and dist < 1:
                raise ValueError("producer distance must be >= 1")


class TraceColumns:
    """Column-major body of a trace: one list per :class:`MicroOp` field.

    Encodings: ``op`` holds :data:`OP_CODE` integers; a producer distance
    of ``0`` in ``src1`` / ``src2`` means "operand ready" (``None`` on the
    µop — real distances are >= 1); ``address`` is ``None`` for non-memory
    ops.  ``pc``, ``taken`` and ``barrier`` are stored as on the µop.
    """

    __slots__ = ("op", "src1", "src2", "address", "pc", "taken", "barrier")

    def __init__(self, op: List[int], src1: List[int], src2: List[int],
                 address: List[Optional[int]], pc: List[int],
                 taken: List[bool], barrier: List[int]) -> None:
        self.op = op
        self.src1 = src1
        self.src2 = src2
        self.address = address
        self.pc = pc
        self.taken = taken
        self.barrier = barrier

    def __len__(self) -> int:
        return len(self.op)

    @classmethod
    def from_ops(cls, ops: Iterable[MicroOp]) -> "TraceColumns":
        """Columns of a µop list (hand-built traces)."""
        ops = list(ops)
        return cls(
            [OP_CODE[u.op] for u in ops],
            [u.src1 or 0 for u in ops],
            [u.src2 or 0 for u in ops],
            [u.address for u in ops],
            [u.pc for u in ops],
            [u.taken for u in ops],
            [u.barrier for u in ops],
        )

    def to_ops(self) -> List[MicroOp]:
        """The µop list these columns encode (validated per µop)."""
        return [
            MicroOp(OP_ORDER[code], src1 or None, src2 or None, address, pc,
                    taken, barrier)
            for code, src1, src2, address, pc, taken, barrier in zip(
                self.op, self.src1, self.src2, self.address, self.pc,
                self.taken, self.barrier)
        ]


def resident_parts(lines: Optional[Sequence]) -> Tuple[Sequence[int], ...]:
    """A resident set in its one stored form: a tuple of parts --
    ``range``s or tuples of ints -- read back to back.

    A resident set lists the line addresses warm in a hierarchy before a
    trace runs, in residency order.  The generator's sets are already
    tuples of ``range``s and are kept as they are (never expanded into
    lists); any other int sequence becomes a single part.
    """
    if lines is None or len(lines) == 0:
        return ()
    if isinstance(lines, tuple) and all(
            isinstance(part, (range, tuple)) for part in lines):
        return lines
    return (lines if isinstance(lines, range) else tuple(lines),)


def resident_list(parts: Tuple[Sequence[int], ...]) -> List[int]:
    """A resident set (:func:`resident_parts` form) as one flat list of
    line addresses."""
    return [line for part in parts for line in part]


class Trace:
    """A finished instruction trace plus its identity.

    Built either from columns (the generator) or from a µop list
    (``Trace(name, ops=[...])``, hand-written tests); the other form is
    derived on first use and cached, so a trace is immutable once built.

    ``warmup_ops`` marks a fast-forward prefix: the simulator replays it
    through the caches and predictor untimed, then measures the rest —
    the standard steady-state methodology for sampled simulation.
    """

    def __init__(self, name: str, ops: Optional[Sequence[MicroOp]] = None,
                 warmup_ops: int = 0,
                 resident_data: Optional[Sequence] = None,
                 resident_code: Optional[Sequence] = None,
                 columns: Optional[TraceColumns] = None) -> None:
        if (ops is None) == (columns is None):
            raise ValueError("a trace needs exactly one of ops or columns")
        self.name = name
        self.warmup_ops = warmup_ops
        #: Checkpoint-style warm state: line addresses resident in the
        #: data / instruction hierarchy before the trace runs, in
        #: :func:`resident_parts` form.
        self.resident_data = resident_parts(resident_data)
        self.resident_code = resident_parts(resident_code)
        self._ops = list(ops) if ops is not None else None
        self._columns = columns

    @property
    def columns(self) -> TraceColumns:
        if self._columns is None:
            self._columns = TraceColumns.from_ops(self._ops)
        return self._columns

    @property
    def ops(self) -> List[MicroOp]:
        """The µop list, built from the columns on first use (scalar
        oracle and tests only; the kernel reads :attr:`columns`)."""
        if self._ops is None:
            self._ops = self._columns.to_ops()
        return self._ops

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._ops)

    def __iter__(self):
        return iter(self.ops)

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, uops={len(self)}, "
                f"warmup_ops={self.warmup_ops})")

    def op_mix(self) -> dict:
        """Fraction of each op class in the trace (for sanity checks)."""
        codes = self.columns.op
        total = max(1, len(codes))
        return {
            OP_ORDER[code]: codes.count(code) / total
            for code in sorted(set(codes))
        }


def validate_trace(ops: Sequence[MicroOp]) -> None:
    """Raise if any µop references a producer outside the trace prefix."""
    for index, op in enumerate(ops):
        for dist in (op.src1, op.src2):
            if dist is not None and dist > index:
                raise ValueError(
                    f"uop {index} references producer {dist} before trace start"
                )
