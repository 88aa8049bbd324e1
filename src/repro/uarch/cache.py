"""Set-associative cache hierarchy (Table 9).

Private IL1 (32KB/4-way/32B) and DL1 (32KB/8-way/32B), private L2
(256KB/8-way/64B), and a shared L3 (2MB per core, 16-way, 64B).  LRU
replacement throughout.  The hierarchy returns *round-trip latencies in
core cycles* straight from the :class:`~repro.core.configs.CoreConfig`,
so a higher-clocked M3D core automatically pays more cycles for DRAM —
the effect the paper notes in Section 7.1.1.

For multicores, an optional coherence layer tracks which core last wrote a
line; a read of a remote-dirty line costs an extra NoC round trip
(MESI-style cache-to-cache transfer).

Checkpoint-warm state has one builder, :func:`warm_state`: NumPy turns
the resident sets (in :func:`~repro.uarch.isa.resident_parts` form:
tuples of ``range``s from the generator) into each level's flat LRU
state -- ``tags`` of
``sets * ways`` slots plus ``counts`` of ``sets`` fills -- memoized per
geometry and resident sets.  The batched kernel's compiled replay walk
reads those arrays directly; :meth:`CacheHierarchy.preload` slices its
per-set lists from them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.configs import CoreConfig
from repro.lru import LruMemo
from repro.uarch.isa import resident_list, resident_parts


#: Lines fetched ahead by the L2 stream prefetcher on each L2 miss.
PREFETCH_DEGREE = 4


class SetAssociativeCache:
    """One LRU set-associative cache level.

    Each set is a plain list of resident tags, LRU-first / MRU-last.  At
    Table 9's way counts (4-16) the C-level list scan beats every O(1)
    hashed-container scheme we measured, and the simulator makes tens of
    millions of accesses per sweep, so the constant factor is the cost.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int,
                 name: str = "cache") -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError(f"{name}: size not divisible by ways*line")
        self.name = name
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        self.ways = ways
        self._lines: List[List[int]] = [[] for _ in range(self.sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access an address; True on hit.  Installs the line on miss."""
        self.accesses += 1
        tag = address // self.line_bytes
        line = self._lines[tag % self.sets]
        if tag in line:
            line.remove(tag)
            line.append(tag)
            return True
        self.misses += 1
        line.append(tag)
        if len(line) > self.ways:
            line.pop(0)
        return False

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    __slots__ = ("latency", "level")

    def __init__(self, latency: int, level: str) -> None:
        self.latency = latency
        self.level = level  # "L1", "L2", "L3", "DRAM", "remote"

    def __repr__(self) -> str:
        return f"AccessResult(latency={self.latency}, level={self.level!r})"


def level_geometry(shared_l2: bool) -> Tuple[Tuple[int, int, int], ...]:
    """``(size_bytes, ways, line_bytes)`` of IL1, DL1, L2 and L3.

    Figure 4: folded core pairs share their two L2s, doubling the
    capacity visible to each core -- the only geometry knob.
    """
    l2_bytes = 512 * 1024 if shared_l2 else 256 * 1024
    return ((32 * 1024, 4, 32), (32 * 1024, 8, 32), (l2_bytes, 8, 64),
            (2 * 1024 * 1024, 16, 64))


def _resident_array(parts) -> np.ndarray:
    """A resident set (:func:`~repro.uarch.isa.resident_parts` form) as
    one int64 array; ``range`` parts become ``np.arange`` without a
    Python list in between."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.arange(part.start, part.stop, part.step, dtype=np.int64)
        if isinstance(part, range) else np.asarray(part, dtype=np.int64)
        for part in parts
    ])


def _newest_first_tags(streams, line_bytes: int) -> np.ndarray:
    """Distinct tags of the address arrays ``streams`` in *reverse*
    last-access order.

    In an access-only sequence each set ends up holding its tags in
    last-access order, truncated to ``ways`` — evictions cannot change
    that (an evicted tag re-accessed later reinstalls at its new
    last-access position).  The order depends only on the streams and the
    line size, so levels sharing both (L2 and L3) share this pass.

    On the reversed tag stream, a tag's first occurrence is its last
    access; ``np.unique`` finds those positions, and sorting them gives
    the newest-first order.
    """
    reversed_tags = (np.concatenate(streams) // line_bytes)[::-1]
    _, first = np.unique(reversed_tags, return_index=True)
    return reversed_tags[np.sort(first)]


def _warm_slots(newest_first: np.ndarray, sets: int,
                ways: int) -> Tuple[np.ndarray, np.ndarray]:
    """One level's flat LRU state from a newest-first tag order: each
    set keeps its ``ways`` newest tags, LRU-first in its ``ways`` slots.

    A stable sort by set index keeps the newest-first order inside each
    set; a tag's rank within its set (0 = newest) decides whether it
    survives and, counted back from the set's fill, which slot it takes.
    """
    set_index = newest_first % sets
    order = np.argsort(set_index, kind="stable")
    in_set = set_index[order]
    totals = np.bincount(set_index, minlength=sets)
    rank = np.arange(len(order)) - (np.cumsum(totals) - totals)[in_set]
    kept = rank < ways
    counts = np.minimum(totals, ways)
    kept_sets = in_set[kept]
    tags = np.zeros(sets * ways, dtype=np.int64)
    tags[kept_sets * ways + counts[kept_sets] - 1 - rank[kept]] = (
        newest_first[order[kept]]
    )
    return tags, counts.astype(np.int32)


class WarmState:
    """Flat post-preload LRU state of IL1, DL1, L2 and L3.

    ``geometry[k]`` is ``(sets, ways, line_bytes, tag_offset,
    count_offset)`` for level ``k`` (:func:`level_geometry` order).  Set
    ``s`` of that level owns the ``ways`` slots of ``tags`` from
    ``tag_offset + s * ways``, residents LRU-first, and
    ``counts[count_offset + s]`` of them are filled — the layout the
    native replay walk reads.  Instances are memoized and shared: copy
    the arrays before mutating them.
    """

    __slots__ = ("geometry", "tags", "counts")

    def __init__(self, shared_l2: bool, data_parts, code_parts) -> None:
        data = _resident_array(data_parts)
        code = _resident_array(code_parts)
        levels = level_geometry(shared_l2)
        l2_line, l3_line = levels[2][2], levels[3][2]
        # L2 and L3 see the same streams; at the same line size they
        # share one recency pass.
        l2_order = _newest_first_tags((data, code), l2_line)
        orders = (
            _newest_first_tags((code,), levels[0][2]),
            _newest_first_tags((data,), levels[1][2]),
            l2_order,
            l2_order if l3_line == l2_line
            else _newest_first_tags((data, code), l3_line),
        )
        geometry = []
        tags: List[np.ndarray] = []
        counts: List[np.ndarray] = []
        tag_at = count_at = 0
        for (size, ways, line), order in zip(levels, orders):
            sets = size // (ways * line)
            level_tags, level_counts = _warm_slots(order, sets, ways)
            geometry.append((sets, ways, line, tag_at, count_at))
            tags.append(level_tags)
            counts.append(level_counts)
            tag_at += sets * ways
            count_at += sets
        self.geometry = tuple(geometry)
        self.tags = np.concatenate(tags)
        self.counts = np.concatenate(counts)

    def lines(self, level: int) -> List[List[int]]:
        """Level ``level``'s per-set LRU lists (LRU-first, fresh lists)."""
        sets, ways, _, tag_at, count_at = self.geometry[level]
        rows = self.tags[tag_at:tag_at + sets * ways].reshape(sets, ways)
        fill = self.counts[count_at:count_at + sets].tolist()
        return [row[:count] for row, count in zip(rows.tolist(), fill)]


#: Warm states keyed by (``shared_l2``, data set, code set).  Generator
#: resident sets are tuples of ``range``s, so the key hashes a few ranges,
#: not the lines.
_WARM_STATES = LruMemo(cap=64)


def warm_state(shared_l2: bool, data_parts, code_parts) -> WarmState:
    """The (memoized) warm state a fresh hierarchy of geometry
    ``shared_l2`` holds after :meth:`CacheHierarchy.preload` of resident
    sets in :func:`~repro.uarch.isa.resident_parts` form.

    Exact: each level is built from the streams' last-access order
    (:func:`_newest_first_tags`) instead of replaying every access.
    """
    return _WARM_STATES.get(
        (shared_l2, data_parts, code_parts),
        lambda: WarmState(shared_l2, data_parts, code_parts),
    )


class CacheHierarchy:
    """Private L1s + private L2 + shared L3 for one core."""

    def __init__(self, config: CoreConfig, core_id: int = 0,
                 coherence: Optional["CoherenceDirectory"] = None) -> None:
        self.config = config
        self.core_id = core_id
        self.il1, self.dl1, self.l2, self.l3 = (
            SetAssociativeCache(size, ways, line, name)
            for name, (size, ways, line) in zip(
                ("IL1", "DL1", "L2", "L3"), level_geometry(config.shared_l2))
        )
        self.coherence = coherence
        self._never_preloaded = True

    def preload(self, data_lines, code_lines) -> None:
        """Install checkpoint-warm state (LRU keeps what fits).

        Insertion order is the residency order: for working sets larger
        than a level, only the most recently inserted capacity-worth stays,
        exactly as steady-state LRU would leave it.  Data goes in first and
        code last — the instruction stream is re-touched constantly, so at
        steady state it is the most recently used resident.  Either set
        may be any int sequence or already in
        :func:`~repro.uarch.isa.resident_parts` form.
        """
        data_parts = resident_parts(data_lines)
        code_parts = resident_parts(code_lines)
        levels = (self.il1, self.dl1, self.l2, self.l3)
        if self._never_preloaded and not any(c.accesses for c in levels):
            # Untouched hierarchy: slice each level's lists from the
            # shared warm state instead of replaying every access.
            state = warm_state(self.config.shared_l2, data_parts, code_parts)
            for level, cache in enumerate(levels):
                cache._lines = state.lines(level)
        else:
            # Already-warm hierarchy: layer the residents on top of the
            # existing state through the ordinary access path.
            for address in resident_list(data_parts):
                self.dl1.access(address)
                self.l2.access(address)
                self.l3.access(address)
            for address in resident_list(code_parts):
                self.il1.access(address)
                self.l2.access(address)
                self.l3.access(address)
        self._never_preloaded = False
        for cache in levels:
            cache.accesses = 0
            cache.misses = 0

    def fetch(self, address: int) -> AccessResult:
        """Instruction fetch access."""
        if self.il1.access(address):
            return AccessResult(self.config.il1_cycles, "L1")
        if self.l2.access(address):
            return AccessResult(self.config.l2_cycles, "L2")
        if self.l3.access(address):
            return AccessResult(self.config.l3_cycles, "L3")
        return AccessResult(self.config.l3_cycles + self.config.dram_cycles, "DRAM")

    def data_access(self, address: int, is_store: bool = False,
                    noc_penalty: int = 0) -> AccessResult:
        """Data access; ``noc_penalty`` is the extra ring latency to the
        shared L3 / remote caches in a multicore."""
        coherence_extra = 0
        if self.coherence is not None:
            coherence_extra = self.coherence.account(
                self.core_id, address, is_store, noc_penalty
            )
        if self.dl1.access(address):
            return AccessResult(self.config.dl1_cycles + coherence_extra, "L1")
        if self.l2.access(address):
            return AccessResult(self.config.l2_cycles + coherence_extra, "L2")
        # L2 miss: the stream prefetcher pulls the next lines into L2, so a
        # sequential walk pays the long-latency miss only once per run of
        # lines rather than once per line (standard hardware behaviour;
        # pointer chasing gets no benefit).
        for ahead in range(1, PREFETCH_DEGREE + 1):
            next_line = address + ahead * self.l2.line_bytes
            self.l2.access(next_line)
            self.l3.access(next_line)
        if self.l3.access(address):
            return AccessResult(
                self.config.l3_cycles + noc_penalty + coherence_extra, "L3"
            )
        return AccessResult(
            self.config.l3_cycles + noc_penalty + self.config.dram_cycles
            + coherence_extra,
            "DRAM",
        )


class CoherenceDirectory:
    """MESI-flavoured sharing tracker for the multicore (Table 9's
    "Ring with MESI directory-based protocol").

    Tracks the last writer of each line.  A core touching a line that is
    dirty in another core's cache pays a cache-to-cache transfer: one NoC
    round trip.  Writes claim ownership and (logically) invalidate sharers.
    """

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self._owner: Dict[int, int] = {}
        self.transfers = 0
        self.invalidations = 0

    def account(self, core_id: int, address: int, is_store: bool,
                noc_penalty: int) -> int:
        line = address // self.line_bytes
        owner = self._owner.get(line)
        extra = 0
        if owner is not None and owner != core_id:
            # Remote-dirty: cache-to-cache transfer across the ring.
            self.transfers += 1
            extra = max(2, noc_penalty)
            if is_store:
                self.invalidations += 1
        if is_store:
            self._owner[line] = core_id
        return extra
