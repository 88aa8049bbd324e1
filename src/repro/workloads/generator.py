"""Deterministic synthetic trace generation from application profiles.

Given an :class:`~repro.workloads.profiles.AppProfile` and a seed, the
generator emits a :class:`~repro.uarch.isa.Trace` whose instruction mix,
dependence structure, address stream and branch stream follow the profile.
Addresses and branches are *raw material*: the simulator's caches and
predictor decide what hits and what mispredicts.

The trace is written straight into :class:`~repro.uarch.isa.TraceColumns`
by one loop; no :class:`~repro.uarch.isa.MicroOp` is built here.  The
checkpoint-warm resident sets are arithmetic progressions and stay
tuples of ``range``s all the way to the cache warm-state builder.

Generation is fully deterministic per ``(profile, seed, thread)`` so that
benchmark runs are reproducible.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Tuple

from repro.uarch.isa import OP_CODE, OpClass, Trace, TraceColumns
from repro.workloads.profiles import AppProfile

#: Base of the shared region used by parallel traces.
SHARED_REGION_BASE = 1 << 40


class TraceGenerator:
    """Synthesises micro-op traces from a profile."""

    def __init__(self, profile: AppProfile, seed: int = 1234,
                 thread: int = 0) -> None:
        self.profile = profile
        # zlib.crc32 (not hash()) keeps traces identical across processes:
        # Python salts str hashes per interpreter run.
        name_key = zlib.crc32(profile.name.encode())
        self._rng = random.Random((seed * 1000003) ^ (thread * 7919) ^ name_key)
        self._thread = thread
        # Per-thread private region offset keeps address streams disjoint.
        self._private_base = (thread + 1) * (1 << 34)
        self._stream_ptr = self._private_base
        # Random accesses draw from a fixed pool of lines covering the
        # working set: applications *reuse* their working set, they do not
        # touch fresh memory forever.  Whether the pool fits in L1/L2/L3
        # (and therefore where these accesses hit) is decided by the
        # simulator's cache hierarchy, not here.
        line = 64
        pool_lines = max(4, min(profile.working_set_bytes // line, 1 << 20))
        self._pool_lines = pool_lines
        self._pool_stride = max(line, profile.working_set_bytes // pool_lines)
        # Static branch sites with per-site bias.
        self._branch_pcs: List[int] = []
        self._branch_bias: List[float] = []
        for b in range(profile.static_branches):
            pc = (self._rng.randrange(profile.code_bytes) & ~3) + 4096
            easy = self._rng.random() < profile.easy_branch_frac
            bias = 0.97 if easy else profile.hard_branch_bias
            # Half the biased branches prefer not-taken.
            if self._rng.random() < 0.5:
                bias = 1.0 - bias
            self._branch_pcs.append(pc)
            self._branch_bias.append(bias)
        self._code_ptr = 4096

    def generate(self, num_uops: int, warmup_frac: float = 0.5) -> Trace:
        """Emit a trace of ``num_uops`` *measured* micro-ops plus a
        fast-forward warmup prefix of ``warmup_frac * num_uops`` ops
        (barrier markers included for parallel profiles).

        Per op, the random draws are, in order: the op class (plus one
        FP refinement draw for FP ops), the code address, then by class —
        memory: source dependence, data address; branch: site, direction,
        source dependence; other: two source dependences.  A dependence
        draw is skipped at index 0 and otherwise takes two or three draws.
        """
        if num_uops < 1:
            raise ValueError("trace length must be positive")
        warmup_ops = int(num_uops * warmup_frac)
        total = num_uops + warmup_ops
        profile = self.profile
        rng = self._rng
        random = rng.random
        randrange = rng.randrange
        expovariate = rng.expovariate

        # Columns start at the defaults of a ready-operand ALU op, so each
        # op writes only the fields it sets.
        op_col = [0] * total
        src1_col = [0] * total
        src2_col = [0] * total
        address_col: List[Optional[int]] = [None] * total
        pc_col = [0] * total
        taken_col = [False] * total
        barrier_col = [-1] * total

        # Op-class thresholds: the same running float sum, in the same
        # order, as a first-match walk over the profile's fractions.
        acc = 0.0
        thresholds = []
        for frac in (profile.load_frac, profile.store_frac,
                     profile.branch_frac, profile.fp_frac, profile.mul_frac,
                     profile.div_frac, profile.complex_frac):
            acc += frac
            thresholds.append(acc)
        (t_load, t_store, t_branch, t_fp, t_mul, t_div,
         t_complex) = thresholds
        LOAD = OP_CODE[OpClass.LOAD]
        STORE = OP_CODE[OpClass.STORE]
        BRANCH = OP_CODE[OpClass.BRANCH]
        FP_ADD = OP_CODE[OpClass.FP_ADD]
        FP_MUL = OP_CODE[OpClass.FP_MUL]
        FP_DIV = OP_CODE[OpClass.FP_DIV]
        MUL = OP_CODE[OpClass.MUL]
        DIV = OP_CODE[OpClass.DIV]
        COMPLEX = OP_CODE[OpClass.COMPLEX]
        SYNC = OP_CODE[OpClass.SYNC]

        # Dependences: serial chains or profile-mean producer distances.
        serial_frac = profile.serial_frac
        dep_rate = 1.0 / profile.dep_distance_mean

        # Data addresses: shared region, hot set, stream, or pool walk.
        is_parallel = profile.is_parallel
        sharing_frac = profile.sharing_frac
        hot_cut = sharing_frac + profile.hot_frac * (1 - sharing_frac)
        shared_span = max(64, profile.working_set_bytes // 8)
        hot_set_bytes = profile.hot_set_bytes
        stream_frac = profile.stream_frac
        stride = profile.stride_bytes
        private_base = self._private_base
        stream_end = private_base + profile.working_set_bytes
        stream_ptr = self._stream_ptr
        pool_lines = self._pool_lines
        pool_stride = self._pool_stride

        # Code addresses: mostly sequential 32B blocks, 10% jumps.
        code_bytes = profile.code_bytes
        code_end = 4096 + code_bytes
        code_ptr = self._code_ptr

        branch_pcs = self._branch_pcs
        branch_bias = self._branch_bias
        sites = len(branch_pcs)

        barrier_id = 0
        barrier_period = profile.barrier_period
        next_barrier = barrier_period or 0
        barriers = is_parallel and next_barrier
        # Imbalance: threads do slightly different amounts of work between
        # barriers; thread 0 is the reference.
        skew = 1.0 + profile.imbalance * (
            random() - 0.5
        ) * 2.0 if is_parallel and self._thread else 1.0

        for index in range(total):
            if barriers and index >= next_barrier:
                op_col[index] = SYNC
                barrier_col[index] = barrier_id
                barrier_id += 1
                next_barrier = index + max(100, int(barrier_period * skew))
                continue
            roll = random()
            if roll < t_load:
                code = LOAD
            elif roll < t_store:
                code = STORE
            elif roll < t_branch:
                code = BRANCH
            elif roll < t_fp:
                fp_roll = random()
                if fp_roll < 0.55:
                    code = FP_ADD
                elif fp_roll < 0.93:
                    code = FP_MUL
                else:
                    code = FP_DIV
            elif roll < t_mul:
                code = MUL
            elif roll < t_div:
                code = DIV
            elif roll < t_complex:
                code = COMPLEX
            else:
                code = 0  # ALU
            op_col[index] = code
            if random() < 0.1:
                code_ptr = 4096 + (randrange(code_bytes) & ~31)
            else:
                code_ptr += 32
                if code_ptr >= code_end:
                    code_ptr = 4096
            memory = code == LOAD or code == STORE
            if code == BRANCH:
                site = randrange(sites)
                if random() < branch_bias[site]:
                    taken_col[index] = True
                pc_col[index] = branch_pcs[site]
            else:
                pc_col[index] = code_ptr
            if index:
                if random() <= 0.55:
                    if random() < serial_frac:
                        distance = 1 + int(expovariate(0.5))
                    else:
                        distance = 1 + int(expovariate(dep_rate))
                    src1_col[index] = (distance if distance < index
                                       else index)
                if not memory and code != BRANCH and random() <= 0.55:
                    if random() < serial_frac:
                        distance = 1 + int(expovariate(0.5))
                    else:
                        distance = 1 + int(expovariate(dep_rate))
                    src2_col[index] = (distance if distance < index
                                       else index)
            if memory:
                roll = random()
                if is_parallel and roll < sharing_frac:
                    # Shared region: all threads touch the same lines.
                    address = SHARED_REGION_BASE + randrange(shared_span)
                elif roll < hot_cut:
                    address = private_base + randrange(hot_set_bytes)
                elif random() < stream_frac:
                    stream_ptr += stride
                    if stream_ptr >= stream_end:
                        stream_ptr = private_base
                    address = stream_ptr
                else:
                    address = private_base + randrange(pool_lines) * pool_stride
                address_col[index] = address
        self._stream_ptr = stream_ptr
        self._code_ptr = code_ptr
        return Trace(
            name=profile.name,
            columns=TraceColumns(op_col, src1_col, src2_col, address_col,
                                 pc_col, taken_col, barrier_col),
            warmup_ops=warmup_ops,
            resident_data=self._resident_data(),
            resident_code=self._resident_code(),
        )

    def _resident_data(self) -> Tuple[range, ...]:
        """Checkpoint-warm data lines: the hot set plus the working-set
        pool (capped — for huge working sets only a steady-state LRU
        residue would survive anyway), as ``range``s read back to back."""
        profile = self.profile
        base = self._private_base
        # Hot lines sit at ``64 * i`` for every 64th byte offset ``i`` of
        # the hot set, i.e. 4 KiB apart.
        parts = [range(base, base + 64 * profile.hot_set_bytes, 64 * 64)]
        cap = 40000
        step = max(1, self._pool_lines // cap)
        parts.append(range(base, base + self._pool_lines * self._pool_stride,
                           step * self._pool_stride))
        if profile.is_parallel and profile.sharing_frac > 0:
            shared_span = max(64, profile.working_set_bytes // 8)
            shared_step = max(64, shared_span // 8192)
            parts.append(range(SHARED_REGION_BASE,
                               SHARED_REGION_BASE + shared_span, shared_step))
        return tuple(parts)

    def _resident_code(self) -> Tuple[range, ...]:
        """Checkpoint-warm instruction lines covering the code footprint."""
        return (range(4096, 4096 + self.profile.code_bytes, 32),)


def generate_trace(profile: AppProfile, num_uops: int, seed: int = 1234,
                   thread: int = 0, warmup_frac: float = 0.5) -> Trace:
    """One-call convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(profile, seed=seed, thread=thread).generate(
        num_uops, warmup_frac=warmup_frac
    )
