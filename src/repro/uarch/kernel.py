"""Batched structure-of-arrays timing kernel.

Every figure/table sweep re-simulates the *same trace* under
configurations that differ only in latencies, widths and frequency.  The
scalar :class:`~repro.uarch.ooo.OutOfOrderCore` interleaves three kinds
of work per micro-op:

1. **trace decoding** — per-op field reads and latency lookups,
2. **microarchitectural state that is configuration-independent** — the
   branch predictor outcome and the cache level each access is served
   from depend only on the access *sequence* and the L2 geometry
   (``shared_l2`` is the single config knob that changes cache contents;
   per-level latencies are pure table lookups),
3. **timing recurrences** — the only part that actually varies per
   configuration.

This kernel factors the three apart.  A trace's measured region is
decoded **once** into flat arrays by slicing its columns
(:class:`~repro.uarch.isa.TraceColumns`: op codes, producer distances,
plus derived FU latencies); the predictor and cache hierarchy are
replayed **once per cache geometry** into per-access level/outcome
arrays -- the caches by one call into a compiled LRU walk
(:mod:`repro.uarch.native`) over flat NumPy warm state, falling back to
the reference :class:`~repro.uarch.cache.CacheHierarchy` when no C
compiler can build it; and the timing recurrences then
run in one generated loop, unrolled across the configurations of a batch
(see :func:`_loop_source`).  The loop is compiled once per batch width —
the per-config constants are arguments, not literals — and a batch wider
than :data:`MAX_BATCH_WIDTH` runs in chunks.  A single configuration
(:func:`simulate_core`, the multicore per-core primitive, which takes
every config of a geometry group at once) is one batch too.  No
:class:`~repro.uarch.isa.MicroOp` is built on this path: ``trace.ops``
exists only for the scalar oracle.

:func:`run_trace_batch` is the public entry point; it is **cycle-exact**
against the scalar oracle — same ``SimResult``, same stats, same stall
attribution — which the property tests assert op-for-op.  The scalar
:meth:`OutOfOrderCore.run` remains the reference implementation (the
same oracle pattern as the thermal solver's reference path).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.configs import CoreConfig
from repro.uarch import native
from repro.uarch import ooo as _ooo
from repro.uarch.bpred import TournamentPredictor
from repro.uarch.cache import (
    PREFETCH_DEGREE,
    CacheHierarchy,
    CoherenceDirectory,
    warm_state,
)
from repro.uarch.isa import (
    FP_DIV_ISSUE_INTERVAL,
    FU_POOLS,
    OP_CODE,
    OP_LATENCY,
    OP_ORDER,
    OpClass,
    Trace,
)
from repro.uarch.ooo import (
    FETCH_BLOCK_UOPS,
    FRONT_END_DEPTH,
    SimResult,
    SimStats,
)

_LOAD = OP_CODE[OpClass.LOAD]
_STORE = OP_CODE[OpClass.STORE]
_BRANCH = OP_CODE[OpClass.BRANCH]
_COMPLEX = OP_CODE[OpClass.COMPLEX]
_SYNC = OP_CODE[OpClass.SYNC]
_DIV = OP_CODE[OpClass.DIV]
_FP_DIV = OP_CODE[OpClass.FP_DIV]
_FP_ADD = OP_CODE[OpClass.FP_ADD]
_FP_MUL = OP_CODE[OpClass.FP_MUL]
_LAT = tuple(OP_LATENCY[op] for op in OP_ORDER)
_POOL_SIZES = tuple(FU_POOLS[op] for op in OP_ORDER)
#: Cycles an op holds its unit (Table 9): only the divides block it for
#: the full latency; everything else is pipelined.
_BUSY = tuple(
    _LAT[code] if code in (_DIV, _FP_DIV) else 1
    for code in range(len(OP_ORDER))
)

#: Memory levels in fixed order; replay stores per-access level codes.
_LEVELS = ("L1", "L2", "L3", "DRAM")


def kernel_enabled() -> bool:
    """Whether the engine should route batches through this kernel
    (``$REPRO_KERNEL=0`` disables it; the scalar oracle runs instead)."""
    value = os.environ.get("REPRO_KERNEL", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


def vector_min_width() -> int:
    """Smallest batch width the generated loop times: always 1.

    Every ``shared_l2`` group, singletons included, runs through the
    one generated loop, so there is no dispatch threshold left to tune.
    Kept as a function so settings reports keep their shape.
    """
    return 1


# -- SoA decode ---------------------------------------------------------------


class TraceArrays:
    """Flat, configuration-independent decode of a trace's measured
    region, sliced from the trace's columns."""

    __slots__ = (
        "n", "codes", "src1", "src2", "lat", "busy",
        "load_pos", "store_pos", "sync_pos",
        "loads", "stores", "branches", "fp_ops", "complex_decodes",
        "ifetch_blocks",
    )

    def __init__(self, trace: Trace) -> None:
        columns = trace.columns
        warmup = trace.warmup_ops
        codes = columns.op[warmup:]
        n = len(codes)
        self.n = n
        self.codes = codes
        # A producer distance beyond the measured prefix never gates (the
        # oracle's ``dist <= i`` check); encode it as "ready" (0).
        self.src1 = [d if d <= i else 0
                     for i, d in enumerate(columns.src1[warmup:])]
        self.src2 = [d if d <= i else 0
                     for i, d in enumerate(columns.src2[warmup:])]
        self.lat = [_LAT[code] for code in codes]
        self.busy = [_BUSY[code] for code in codes]
        self.load_pos = [i for i, code in enumerate(codes) if code == _LOAD]
        self.store_pos = [i for i, code in enumerate(codes) if code == _STORE]
        self.sync_pos = [i for i, code in enumerate(codes) if code == _SYNC]
        self.loads = len(self.load_pos)
        self.stores = len(self.store_pos)
        self.branches = codes.count(_BRANCH)
        self.fp_ops = (codes.count(_FP_ADD) + codes.count(_FP_MUL)
                       + codes.count(_FP_DIV))
        self.complex_decodes = codes.count(_COMPLEX)
        self.ifetch_blocks = (n + FETCH_BLOCK_UOPS - 1) // FETCH_BLOCK_UOPS


class MemoryImage:
    """Per-geometry replay outcome: which level served every access.

    The cache hierarchy's hit/miss/level sequence depends on the
    configuration only through ``shared_l2`` (the sole geometry knob in
    :class:`CacheHierarchy`); per-level *latencies* are pure config
    lookups applied afterwards.  The coherence ``remote`` flags depend
    on the access order alone.  ``replay`` names the cache walk that
    produced the image: ``"native"`` (the compiled walk) or
    ``"reference"`` (:class:`CacheHierarchy`).
    """

    __slots__ = ("fetch_levels", "load_levels", "load_remote", "any_remote",
                 "mem_level_counts", "replay")

    def __init__(self, fetch_levels, load_levels, load_remote,
                 mem_level_counts, replay: str) -> None:
        self.fetch_levels = np.asarray(fetch_levels, dtype=np.int64)
        self.load_levels = np.asarray(load_levels, dtype=np.int64)
        self.load_remote = np.asarray(load_remote, dtype=np.int64)
        self.any_remote = bool(self.load_remote.any())
        self.mem_level_counts = mem_level_counts
        self.replay = replay


def _kernel_state(trace: Trace) -> dict:
    """Decode/replay memo attached to the trace object itself (a trace
    is immutable once generated, so its decode never invalidates)."""
    state = getattr(trace, "_kernel_state", None)
    if state is None:
        state = {"images": {}}
        trace._kernel_state = state
    return state


def decode(trace: Trace) -> TraceArrays:
    """SoA decode of the measured region, memoized on the trace."""
    state = _kernel_state(trace)
    arrays = state.get("arrays")
    if arrays is None:
        arrays = TraceArrays(trace)
        state["arrays"] = arrays
    return arrays


def branch_outcomes(trace: Trace) -> List[bool]:
    """Per-branch predictor outcomes for the measured region, memoized.

    The tournament predictor is fully configuration-independent, so the
    warmup-train + measured-predict replay is a pure function of the
    trace.
    """
    state = _kernel_state(trace)
    corrects = state.get("branches")
    if corrects is None:
        predict_and_train = TournamentPredictor().predict_and_train
        columns = trace.columns
        pcs = columns.pc
        taken = columns.taken
        warmup = trace.warmup_ops
        corrects = []
        for i, code in enumerate(columns.op):
            if code == _BRANCH:
                correct = predict_and_train(pcs[i], taken[i])
                if i >= warmup:
                    corrects.append(correct)
        state["branches"] = corrects
    return corrects


class _TimedReplays(threading.local):
    """Per thread: the ``replay`` of every image timed since the last
    :func:`take_replay_path`."""

    def __init__(self) -> None:
        self.paths = set()


_TIMED_REPLAYS = _TimedReplays()


def take_replay_path() -> str:
    """Which cache replay produced the images this thread timed since the
    last call (the record then starts afresh): ``"reference"`` if any
    came from the reference walk -- no compiled library, or a trace
    outside its address range -- else ``"native"`` if any were timed,
    else ``"none"``."""
    paths = _TIMED_REPLAYS.paths
    _TIMED_REPLAYS.paths = set()
    return next((path for path in ("reference", "native") if path in paths),
                "none")


def _replay_columns(trace: Trace) -> dict:
    """The replay's view of the trace columns, converted once and
    memoized on the trace: int8 op codes, int64 PCs, the positions and
    int64 addresses of the loads and stores, and whether every address
    and PC suits the native walk (non-negative, where C's truncating
    ``/`` and ``%`` agree with Python's floor ones, and far from int64
    overflow)."""
    state = _kernel_state(trace)
    view = state.get("replay")
    if view is None:
        columns = trace.columns
        codes = np.asarray(columns.op, dtype=np.int8)
        positions = np.flatnonzero((codes == _LOAD) | (codes == _STORE))
        addresses = [columns.address[i] for i in positions.tolist()]
        view = {"codes": codes, "positions": positions,
                "addresses": addresses, "in_range": False}
        try:
            pcs = np.asarray(columns.pc, dtype=np.int64)
            mem = np.asarray(addresses, dtype=np.int64)
        except OverflowError:
            pass
        else:
            view.update(pcs=pcs, mem=mem, in_range=all(
                not len(values) or (values.min() >= 0
                                    and values.max() < 2 ** 62)
                for values in (pcs, mem)
            ))
        state["replay"] = view
    return view


def _native_levels(library, trace: Trace, view: dict, shared_l2: bool):
    """Level codes of every fetch block and every load/store, warmup
    included, from one call into the compiled walk over a copy of the
    memoized warm state."""
    warm = warm_state(shared_l2, trace.resident_data, trace.resident_code)
    n = len(view["codes"])
    warmup = min(trace.warmup_ops, n)
    fetch = np.empty(_blocks(warmup) + _blocks(n - warmup), dtype=np.int8)
    mem = np.empty(len(view["positions"]), dtype=np.int8)
    library.replay(
        warm.tags.copy(), warm.counts.copy(),
        np.asarray(warm.geometry, dtype=np.int64).ravel(),
        view["codes"], view["pcs"], view["mem"], n, warmup,
        FETCH_BLOCK_UOPS, PREFETCH_DEGREE, _LOAD, _STORE, fetch, mem,
    )
    return fetch, mem


def _reference_levels(trace: Trace, donor_config: CoreConfig):
    """The same level codes through the oracle's own
    :meth:`CacheHierarchy.fetch` / :meth:`~CacheHierarchy.data_access`
    (the path when the compiled walk is unavailable)."""
    caches = CacheHierarchy(donor_config)
    if trace.resident_data or trace.resident_code:
        caches.preload(trace.resident_data, trace.resident_code)
    code_of = {level: code for code, level in enumerate(_LEVELS)}
    columns = trace.columns
    addresses = columns.address
    pcs = columns.pc
    warmup = trace.warmup_ops
    fetch: List[int] = []
    mem: List[int] = []
    for i, code in enumerate(columns.op):
        index = i if i < warmup else i - warmup
        if index % FETCH_BLOCK_UOPS == 0:
            pc = pcs[i]
            fetch.append(code_of[caches.fetch(pc if pc else index * 4).level])
        if code == _LOAD or code == _STORE:
            access = caches.data_access(addresses[i], is_store=code == _STORE)
            mem.append(code_of[access.level])
    return np.array(fetch, dtype=np.int8), np.array(mem, dtype=np.int8)


def _blocks(ops: int) -> int:
    """Fetch blocks in a run of ``ops`` µops."""
    return (ops + FETCH_BLOCK_UOPS - 1) // FETCH_BLOCK_UOPS


def replay_memory(trace: Trace, donor_config: CoreConfig, core_id: int = 0,
                  coherence: Optional[CoherenceDirectory] = None,
                  noc_penalty: int = 0) -> MemoryImage:
    """Replay preload + warmup + measured accesses through the cache
    hierarchy (and coherence directory, when given), recording the
    level that served each instruction block and each load.

    The caches are walked by the compiled walk (:mod:`repro.uarch.native`)
    over a copy of the memoized flat warm state, or -- when it cannot be
    built -- by the reference :class:`CacheHierarchy`.  Coherence is a
    separate pass over the loads and stores in program order, warmup
    included: the directory never reads or changes cache contents, so
    the split is exact, and a multicore caller still runs its cores in
    order through one directory.

    The donor config only contributes its cache *geometry*
    (``shared_l2``); single-core images are memoized on the trace per
    geometry.  Multicore replays are coupled across cores through the
    shared directory, so their caller sequences and memoizes them.
    """
    single = coherence is None
    if single:
        images: Dict[bool, MemoryImage] = _kernel_state(trace)["images"]
        image = images.get(donor_config.shared_l2)
        if image is not None:
            return image
    view = _replay_columns(trace)
    library = native.replay_library() if view["in_range"] else None
    if library is not None:
        fetch, mem = _native_levels(library, trace, view,
                                    donor_config.shared_l2)
    else:
        fetch, mem = _reference_levels(trace, donor_config)
    codes = view["codes"]
    positions = view["positions"]
    warmup = trace.warmup_ops
    measured = positions >= warmup
    loads = codes[positions] == _LOAD
    load_levels = mem[measured & loads]
    if single:
        load_remote = np.zeros(len(load_levels), dtype=np.int64)
    else:
        account = coherence.account
        extras = np.array([
            account(core_id, address, not is_load, noc_penalty)
            for address, is_load in zip(view["addresses"], loads.tolist())
        ], dtype=np.int64)
        load_remote = (extras[measured & loads] != 0).astype(np.int64)
    counts = np.bincount(load_levels, minlength=len(_LEVELS)).tolist()
    image = MemoryImage(
        fetch[_blocks(min(warmup, len(codes))):], load_levels, load_remote,
        {level: count for level, count in zip(_LEVELS, counts) if count},
        "reference" if library is None else "native",
    )
    if single:
        images[donor_config.shared_l2] = image
    return image


# -- per-config latency tables ------------------------------------------------


def _load_done_terms(config: CoreConfig, image: MemoryImage,
                     noc_penalty: int) -> np.ndarray:
    """Per-load ``access.latency + load_extra`` under one config."""
    table = np.array(
        [
            config.dl1_cycles,
            config.l2_cycles,
            config.l3_cycles + noc_penalty,
            config.l3_cycles + noc_penalty + config.dram_cycles,
        ],
        dtype=np.int64,
    )
    terms = table[image.load_levels]
    if image.any_remote:
        terms = terms + image.load_remote * max(2, noc_penalty)
    return terms + (config.load_to_use_cycles - 4)


def _fetch_penalties(config: CoreConfig, image: MemoryImage) -> np.ndarray:
    """Per-block ``access.latency - il1_cycles`` under one config."""
    il1 = config.il1_cycles
    table = np.array(
        [
            0,
            config.l2_cycles - il1,
            config.l3_cycles - il1,
            config.l3_cycles + config.dram_cycles - il1,
        ],
        dtype=np.int64,
    )
    return table[image.fetch_levels]


def _build_result(trace, arrays, corrects, image, config, commit_at,
                  stall_cycles, sync_commit_cycles,
                  tracked_limiter_cycles) -> SimResult:
    stats = SimStats()
    stats.uops = arrays.n
    stats.cycles = int(commit_at[-1]) if arrays.n else 0
    stats.branches = arrays.branches
    stats.mispredictions = sum(1 for c in corrects if not c)
    stats.loads = arrays.loads
    stats.stores = arrays.stores
    stats.fp_ops = arrays.fp_ops
    stats.complex_decodes = arrays.complex_decodes
    stats.ifetch_blocks = arrays.ifetch_blocks
    stats.mem_level_counts = dict(image.mem_level_counts)
    stats.sync_commit_cycles = sync_commit_cycles
    stats.stall_cycles = stall_cycles
    stats.tracked_limiter_cycles = tracked_limiter_cycles
    return SimResult(
        config_name=config.name,
        trace_name=trace.name,
        cycles=stats.cycles,
        frequency=config.frequency,
        stats=stats,
    )


# -- the generated timing loop ------------------------------------------------

#: Widest batch one generated loop times.  Wider groups run in chunks of
#: this many configs (configs are independent, so chunking never changes
#: results); it also bounds the compile cache to this many entries.
MAX_BATCH_WIDTH = 64

#: Compiled loops keyed by batch width alone: the per-config constants
#: arrive as arguments, so every geometry of one width shares one loop.
_LOOPS: Dict[int, object] = {}


def _loop_params(config: CoreConfig) -> tuple:
    """The per-config constants the generated loop reads, in the order
    its prologue unpacks them."""
    return (
        config.dispatch_width * 2,
        config.dispatch_width,
        config.commit_width,
        config.rob_entries,
        config.iq_entries,
        config.lq_entries,
        config.sq_entries,
        1 if config.hetero else 0,
        max(1, config.branch_mispredict_cycles - FRONT_END_DEPTH),
        config.issue_width,
    )


def _loop_source(width: int) -> str:
    """Generate one fused loop timing ``width`` configs at once.

    The emitted function is a config-axis unrolling of
    :meth:`OutOfOrderCore.run` with all decode, cache and predictor work
    replaced by the precomputed arrays: one walk over the trace arrays
    (op code, producer distances, latency read once per uop instead of
    once per uop *per config*) drives ``width`` inlined copies of the
    timing recurrence.  Each copy reads its widths, queue depths, refill
    and ``hetero`` from ``params[j]`` (see :func:`_loop_params`).  The
    in-order width limiters are inlined as (cycle, used) pairs; the
    issue-bandwidth and FU-pool occupancy maps are inlined as raw
    per-cycle dicts with the same first-fit walks, increments and prune
    schedule as :class:`~repro.uarch.ooo._FuPool` /
    ``_PerCycleBandwidth``, so the schedule and the tracked-cycle
    telemetry stay oracle-identical.
    """
    lines: List[str] = []
    a = lines.append
    js = range(width)
    a("def _loop(n, codes, src1, src2, lat_l, busy_l, corrects,")
    a("          load_pos, store_pos, pool_sizes, params, tables):")
    for j in js:
        a(f"    (fw_{j}, dw_{j}, cw_{j}, rob_{j}, iq_{j}, lq_{j}, sq_{j},")
        a(f"     het_{j}, rfl_{j}, iw_{j}) = params[{j}]")
        a(f"    ld_{j}, fp_{j} = tables[{j}]")
        a(f"    pu_{j} = [dict() for _ in range({len(_POOL_SIZES)})]")
        a(f"    au_{j} = {{}}")
        a(f"    cp_{j} = [0] * n")
        a(f"    il_{j} = [0] * n")
        a(f"    cm_{j} = [0] * n")
        a(f"    fbr_{j} = rf_{j} = fc_{j} = fu_{j} = 0")
        a(f"    rc_{j} = ru_{j} = cc_{j} = cu_{j} = cl_{j} = 0")
        a(f"    lfp_{j} = -{FP_DIV_ISSUE_INTERVAL}")
        a(f"    sfi_{j} = sfr_{j} = srb_{j} = srob_{j} = siq_{j} = 0")
        a(f"    slq_{j} = ssq_{j} = sdc_{j} = sop_{j} = sfu_{j} = sbw_{j} = 0")
    a("    k_load = k_store = k_branch = k_block = 0")
    a(f"    prune_at = {_ooo.PRUNE_INTERVAL}")
    a("    for i in range(n):")
    a("        code = codes[i]")
    # ---- fetch: block-boundary icache/redirect penalties, fetch limiter
    a(f"        if i % {FETCH_BLOCK_UOPS} == 0:")
    for j in js:
        a(f"            p = fp_{j}[k_block]")
        a(f"            b = fbr_{j}")
        a(f"            if rf_{j} > b:")
        a(f"                sfr_{j} += rf_{j} - b")
        a(f"                b = rf_{j}")
        a("            if p > 0:")
        a(f"                sfi_{j} += p")
        a("                b += p")
        a(f"            fbr_{j} = b")
    a("            k_block += 1")
    # ---- rename/dispatch: ROB/IQ/LQ/SQ occupancy, decode penalty
    for j in js:
        a(f"        e = fbr_{j} if fbr_{j} >= rf_{j} else rf_{j}")
        a(f"        if e > fc_{j}:")
        a(f"            fc_{j} = e")
        a(f"            fu_{j} = 0")
        a(f"        if fu_{j} >= fw_{j}:")
        a(f"            fc_{j} += 1")
        a(f"            fu_{j} = 0")
        a(f"        fu_{j} += 1")
        a(f"        e_{j} = fc_{j} + {FRONT_END_DEPTH}")
        a(f"        if i >= rob_{j}:")
        a(f"            g = cm_{j}[i - rob_{j}]")
        a(f"            if g > e_{j}:")
        a(f"                srob_{j} += g - e_{j}")
        a(f"                e_{j} = g")
        a(f"        if i >= iq_{j}:")
        a(f"            g = il_{j}[i - iq_{j}]")
        a(f"            if g > e_{j}:")
        a(f"                siq_{j} += g - e_{j}")
        a(f"                e_{j} = g")
    a(f"        if code == {_LOAD}:")
    for j in js:
        a(f"            if k_load >= lq_{j}:")
        a(f"                g = cm_{j}[load_pos[k_load - lq_{j}]]")
        a(f"                if g > e_{j}:")
        a(f"                    slq_{j} += g - e_{j}")
        a(f"                    e_{j} = g")
    a(f"        elif code == {_STORE}:")
    for j in js:
        a(f"            if k_store >= sq_{j}:")
        a(f"                g = cm_{j}[store_pos[k_store - sq_{j}]]")
        a(f"                if g > e_{j}:")
        a(f"                    ssq_{j} += g - e_{j}")
        a(f"                    e_{j} = g")
    a(f"        elif code == {_COMPLEX}:")
    for j in js:
        a(f"            e_{j} += het_{j}")
        a(f"            sdc_{j} += het_{j}")
    for j in js:
        a(f"        if e_{j} > rc_{j}:")
        a(f"            rc_{j} = e_{j}")
        a(f"            ru_{j} = 0")
        a(f"        if ru_{j} >= dw_{j}:")
        a(f"            rc_{j} += 1")
        a(f"            ru_{j} = 0")
        a(f"        ru_{j} += 1")
        a(f"        if rc_{j} > e_{j}:")
        a(f"            srb_{j} += rc_{j} - e_{j}")
        a(f"        rd_{j} = rc_{j} + 1")
    # ---- register readiness
    a("        d = src1[i]")
    a("        if d:")
    for j in js:
        a(f"            p = cp_{j}[i - d]")
        a(f"            if p > rd_{j}:")
        a(f"                rd_{j} = p")
    a("        d = src2[i]")
    a("        if d:")
    for j in js:
        a(f"            p = cp_{j}[i - d]")
        a(f"            if p > rd_{j}:")
        a(f"                rd_{j} = p")
    for j in js:
        a(f"        if rd_{j} > rc_{j} + 1:")
        a(f"            sop_{j} += rd_{j} - rc_{j} - 1")
    # ---- issue: FP-divide refractory, FU pool first-fit, issue bandwidth
    a(f"        if code == {_FP_DIV}:")
    for j in js:
        a(f"            g = lfp_{j} + {FP_DIV_ISSUE_INTERVAL}")
        a(f"            if g > rd_{j}:")
        a(f"                sfu_{j} += g - rd_{j}")
        a(f"                rd_{j} = g")
    a("        busy = busy_l[i]")
    a("        cnt = pool_sizes[code]")
    a("        if busy == 1:")
    for j in js:
        a(f"            d_ = pu_{j}[code]")
        a(f"            c_ = rd_{j}")
        a("            v = d_.get(c_, 0)")
        a("            while v >= cnt:")
        a("                c_ += 1")
        a("                v = d_.get(c_, 0)")
        a("            d_[c_] = v + 1")
        a(f"            st_{j} = c_")
    a("        else:")
    for j in js:
        a(f"            d_ = pu_{j}[code]")
        a(f"            c_ = rd_{j}")
        a("            while True:")
        a("                k = 0")
        a("                while k < busy and d_.get(c_ + k, 0) < cnt:")
        a("                    k += 1")
        a("                if k == busy:")
        a("                    break")
        a("                c_ += 1")
        a("            for k in range(busy):")
        a("                d_[c_ + k] = d_.get(c_ + k, 0) + 1")
        a(f"            st_{j} = c_")
    for j in js:
        a(f"        if st_{j} > rd_{j}:")
        a(f"            sfu_{j} += st_{j} - rd_{j}")
        a(f"        c_ = st_{j}")
        a(f"        while au_{j}.get(c_, 0) >= iw_{j}:")
        a("            c_ += 1")
        a(f"        au_{j}[c_] = au_{j}.get(c_, 0) + 1")
        a(f"        if c_ > st_{j}:")
        a(f"            sbw_{j} += c_ - st_{j}")
        a(f"        il_{j}[i] = c_")
        a(f"        is_{j} = c_")
    # ---- execute: load latency from the replay image, mispredict refill
    a(f"        if code == {_LOAD}:")
    for j in js:
        a(f"            dn_{j} = is_{j} + ld_{j}[k_load]")
    a("            k_load += 1")
    a("        else:")
    a("            lat = lat_l[i]")
    for j in js:
        a(f"            dn_{j} = is_{j} + lat")
    a(f"            if code == {_BRANCH}:")
    a("                if not corrects[k_branch]:")
    for j in js:
        a(f"                    g = dn_{j} + rfl_{j}")
        a(f"                    if g > rf_{j}:")
        a(f"                        rf_{j} = g")
    a("                k_branch += 1")
    a(f"            elif code == {_STORE}:")
    a("                k_store += 1")
    a(f"            elif code == {_FP_DIV}:")
    for j in js:
        a(f"                lfp_{j} = is_{j}")
    # ---- in-order commit limiter
    for j in js:
        a(f"        cp_{j}[i] = dn_{j}")
        a(f"        t = dn_{j} + 1")
        a(f"        if t < cl_{j}:")
        a(f"            t = cl_{j}")
        a(f"        if t > cc_{j}:")
        a(f"            cc_{j} = t")
        a(f"            cu_{j} = 0")
        a(f"        if cu_{j} >= cw_{j}:")
        a(f"            cc_{j} += 1")
        a(f"            cu_{j} = 0")
        a(f"        cu_{j} += 1")
        a(f"        cm_{j}[i] = cc_{j}")
        a(f"        cl_{j} = cc_{j}")
    # ---- bookkeeping: prune occupancy maps below the rename watermark
    a("        if i >= prune_at:")
    a(f"            prune_at = i + {_ooo.PRUNE_INTERVAL}")
    for j in js:
        a(f"            w = rc_{j}")
        a(f"            au_{j} = {{c: v for c, v in au_{j}.items()"
          f" if c >= w}}")
        a(f"            pu_{j} = [{{c: v for c, v in d_.items() if c >= w}}"
          f" for d_ in pu_{j}]")
    a("    return [")
    for j in js:
        a(f"        (cm_{j}, {{")
        a(f"            'fetch_icache': sfi_{j},")
        a(f"            'fetch_redirect': sfr_{j},")
        a(f"            'rename_bw': srb_{j},")
        a(f"            'rob': srob_{j},")
        a(f"            'iq': siq_{j},")
        a(f"            'lq': slq_{j},")
        a(f"            'sq': ssq_{j},")
        a(f"            'decode': sdc_{j},")
        a(f"            'operand': sop_{j},")
        a(f"            'fu': sfu_{j},")
        a(f"            'issue_bw': sbw_{j},")
        a(f"        }}, len(au_{j}) + sum(map(len, pu_{j}))),")
    a("    ]")
    a("")
    return "\n".join(lines)


def _loop_for(width: int):
    """Fetch (or compile and cache) the generated loop for one width."""
    fn = _LOOPS.get(width)
    if fn is None:
        namespace: Dict[str, object] = {}
        exec(compile(_loop_source(width), f"<repro-kernel-loop-{width}>",
                     "exec"), namespace)
        fn = _LOOPS[width] = namespace["_loop"]
    return fn


def _time_merged(trace: Trace, arrays: TraceArrays,
                 corrects: Sequence[bool], image: MemoryImage,
                 configs: Sequence[CoreConfig],
                 noc_penalty: int = 0) -> List[SimResult]:
    """Time every config against one replay image, in generated-loop
    chunks of at most :data:`MAX_BATCH_WIDTH` configs."""
    _TIMED_REPLAYS.paths.add(image.replay)
    results: List[SimResult] = []
    for lo in range(0, len(configs), MAX_BATCH_WIDTH):
        chunk = configs[lo:lo + MAX_BATCH_WIDTH]
        tables = [
            (
                _load_done_terms(config, image, noc_penalty).tolist(),
                _fetch_penalties(config, image).tolist(),
            )
            for config in chunk
        ]
        rows = _loop_for(len(chunk))(
            arrays.n, arrays.codes, arrays.src1, arrays.src2, arrays.lat,
            arrays.busy, corrects, arrays.load_pos, arrays.store_pos,
            _POOL_SIZES, [_loop_params(config) for config in chunk], tables,
        )
        for config, (commit_at, stalls, tracked) in zip(chunk, rows):
            results.append(_build_result(
                trace, arrays, corrects, image, config, commit_at,
                stall_cycles=stalls,
                sync_commit_cycles=[commit_at[p] for p in arrays.sync_pos],
                tracked_limiter_cycles=tracked,
            ))
    return results


# -- public entry points ------------------------------------------------------


def simulate_core(trace: Trace, configs: Sequence[CoreConfig],
                  image: MemoryImage, noc_penalty: int = 0) -> List[SimResult]:
    """Time one core's trace under every config in ``configs`` against a
    prebuilt memory image (the multicore batch's per-core
    primitive): one batch over the configs that share the image's
    geometry.  Results come back in config order."""
    return _time_merged(trace, decode(trace), branch_outcomes(trace), image,
                        list(configs), noc_penalty)


def run_trace_batch(configs: Sequence[CoreConfig],
                    trace: Trace) -> List[SimResult]:
    """Simulate ``trace`` under every config in one batched evaluation.

    Cycle-exact against ``run_trace(config, trace)`` for each config:
    the trace is decoded once, the predictor replayed once, the caches
    replayed once per L2 geometry, and only the timing recurrences run
    per configuration, through the generated loop (every group, however
    narrow).  Results come back in config order.
    """
    configs = list(configs)
    if not configs:
        return []
    arrays = decode(trace)
    corrects = branch_outcomes(trace)
    results: List[Optional[SimResult]] = [None] * len(configs)
    groups: Dict[bool, List[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(config.shared_l2, []).append(index)
    for indices in groups.values():
        image = replay_memory(trace, configs[indices[0]])
        batch = _time_merged(trace, arrays, corrects, image,
                             [configs[k] for k in indices])
        for index, result in zip(indices, batch):
            results[index] = result
    return results


__all__ = [
    "MAX_BATCH_WIDTH",
    "MemoryImage",
    "TraceArrays",
    "branch_outcomes",
    "decode",
    "kernel_enabled",
    "replay_memory",
    "run_trace_batch",
    "simulate_core",
    "take_replay_path",
    "vector_min_width",
]
