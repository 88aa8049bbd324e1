"""Tests for the cache hierarchy, prefetcher and coherence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import base_config, m3d_het_config
from repro.uarch.cache import (
    CacheHierarchy,
    CoherenceDirectory,
    SetAssociativeCache,
    _newest_first_tags,
    _resident_array,
    _warm_slots,
)
from repro.uarch.isa import resident_parts


class TestSetAssociative:
    def test_hit_after_install(self):
        cache = SetAssociativeCache(1024, 2, 64)
        assert not cache.access(0)
        assert cache.access(0)

    def test_same_line_same_tag(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        assert cache.access(63)  # same 64B line
        assert not cache.access(64)  # next line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(2 * 64, 2, 64)  # 1 set, 2 ways
        cache.access(0)
        cache.access(64)
        cache.access(0)  # touch 0: 64 becomes LRU
        cache.access(128)  # evicts 64
        assert cache.access(0)
        assert not cache.access(64)

    def test_miss_rate_accounting(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 3, 64)


class TestHierarchy:
    def test_latencies_match_config(self):
        cfg = base_config()
        caches = CacheHierarchy(cfg)
        miss = caches.data_access(1 << 30)
        assert miss.level == "DRAM"
        assert miss.latency == cfg.l3_cycles + cfg.dram_cycles
        hit = caches.data_access(1 << 30)
        assert hit.level == "L1"
        assert hit.latency == cfg.dl1_cycles

    def test_m3d_dram_costs_more_cycles(self):
        # Same 50ns, more cycles at 3.7+ GHz.
        base = CacheHierarchy(base_config()).data_access(1 << 30)
        m3d = CacheHierarchy(m3d_het_config()).data_access(1 << 30)
        assert m3d.latency > base.latency

    def test_shared_l2_capacity_doubles(self):
        private = CacheHierarchy(base_config())
        shared = CacheHierarchy(m3d_het_config(num_cores=4))
        assert shared.l2.sets == 2 * private.l2.sets

    def test_prefetcher_covers_streams(self):
        caches = CacheHierarchy(base_config())
        # Walk sequential lines: after the first miss, the prefetcher keeps
        # the next lines in L2.
        levels = [caches.data_access(64 * i).level for i in range(32)]
        dram = levels.count("DRAM")
        assert dram < 12  # far fewer than 32 without a prefetcher

    def test_preload_establishes_residency(self):
        caches = CacheHierarchy(base_config())
        lines = [4096 + 64 * i for i in range(32)]
        caches.preload(lines, [])
        assert caches.data_access(4096).level == "L1"

    def test_preload_code_last_wins_l2(self):
        caches = CacheHierarchy(base_config())
        data = [1 << 20 | (64 * i) for i in range(8192)]  # 512KB of data
        code = [4096 + 32 * i for i in range(256)]  # 8KB of code
        caches.preload(data, code)
        assert caches.fetch(4096).level == "L1"

    def test_fetch_path_levels(self):
        caches = CacheHierarchy(base_config())
        first = caches.fetch(1 << 25)
        assert first.level == "DRAM"
        assert caches.fetch(1 << 25).level == "L1"


class TestCoherence:
    def test_remote_dirty_costs_transfer(self):
        directory = CoherenceDirectory()
        cfg = base_config(num_cores=2)
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core1 = CacheHierarchy(cfg, core_id=1, coherence=directory)
        core0.data_access(4096, is_store=True)
        before = directory.transfers
        core1.data_access(4096)
        assert directory.transfers == before + 1

    def test_own_line_free(self):
        directory = CoherenceDirectory()
        cfg = base_config()
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core0.data_access(4096, is_store=True)
        core0.data_access(4096)
        assert directory.transfers == 0

    def test_store_claims_ownership(self):
        directory = CoherenceDirectory()
        cfg = base_config(num_cores=2)
        core0 = CacheHierarchy(cfg, core_id=0, coherence=directory)
        core1 = CacheHierarchy(cfg, core_id=1, coherence=directory)
        core0.data_access(4096, is_store=True)
        core1.data_access(4096, is_store=True)  # transfer + invalidation
        assert directory.invalidations == 1
        core1.data_access(4096)  # now owned locally
        assert directory.transfers == 1


# ---------------------------------------------------------------------------
# Flat NumPy warm state == replaying the resident lines through the LRU
# ---------------------------------------------------------------------------

#: (size, ways, line) of IL1, DL1, both L2 sizes and L3 (Table 9).
LEVELS = (
    (32 * 1024, 4, 32),
    (32 * 1024, 8, 32),
    (256 * 1024, 8, 64),
    (512 * 1024, 8, 64),
    (2 * 1024 * 1024, 16, 64),
)


@st.composite
def resident_lines(draw):
    """A resident-line list with repeats.  Strides that are a multiple of
    a level's set span pile lines into a few sets, so even short lists
    overflow a set; long lists overflow a whole level."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(0, 40000))
    distinct = draw(st.integers(1, 50000))
    stride = draw(st.sampled_from([4, 32, 64, 96, 4096, 32 * 1024,
                                   128 * 1024]))
    base = draw(st.sampled_from([0, 1 << 34, 1 << 40]))
    return [base + rng.randrange(distinct) * stride for _ in range(count)]


def _flat_lists(tags, counts, ways):
    """Per-set LRU lists (LRU-first) read out of a flat level state."""
    rows = tags.reshape(len(counts), ways).tolist()
    return [row[:count] for row, count in zip(rows, counts.tolist())]


@settings(deadline=None, max_examples=25)
@given(data=resident_lines(), code=resident_lines())
def test_numpy_warm_state_matches_lru_replay(data, code):
    for size, ways, line in LEVELS:
        for streams in ((data,), (code,), (data, code)):
            reference = SetAssociativeCache(size, ways, line)
            for lines in streams:
                for address in lines:
                    reference.access(address)
            tags, counts = _warm_slots(
                _newest_first_tags(
                    [_resident_array(resident_parts(s)) for s in streams],
                    line),
                reference.sets, ways,
            )
            assert counts.tolist() == [len(s) for s in reference._lines]
            assert _flat_lists(tags, counts, ways) == reference._lines


def test_range_residents_warm_like_their_lists():
    """A tuple of ranges (the generator's form) warms a hierarchy exactly
    like the flat list of the same lines, and like the access path."""
    data = (range(0, 1 << 20, 4096), range(1 << 34, (1 << 34) + 640000, 64))
    code = (range(4096, 4096 + 48000, 32),)
    flat = [[line for part in parts for line in part] for parts in (data, code)]
    for config in (base_config(), m3d_het_config(num_cores=4)):
        ranged = CacheHierarchy(config)
        ranged.preload(data, code)
        listed = CacheHierarchy(config)
        listed.preload(*flat)
        replayed = CacheHierarchy(config)
        replayed.dl1.access(0)  # no longer pristine: the access path
        replayed.dl1._lines = [[] for _ in replayed.dl1._lines]
        replayed.preload(data, code)
        for a, b, c in zip(
                (ranged.il1, ranged.dl1, ranged.l2, ranged.l3),
                (listed.il1, listed.dl1, listed.l2, listed.l3),
                (replayed.il1, replayed.dl1, replayed.l2, replayed.l3)):
            assert a._lines == b._lines == c._lines
