/*
 * Cache replay walk for repro.uarch.kernel.replay_memory.
 *
 * One pass over a trace through a four-level LRU hierarchy (IL1, DL1,
 * L2, L3), in exactly the order of CacheHierarchy.fetch and
 * CacheHierarchy.data_access, writing the level code (0 = L1, 1 = L2,
 * 2 = L3, 3 = DRAM) that served every fetch block and every memory op.
 *
 * Warm state is flat: level k's sets occupy tags[geometry[5k + 3] ...]
 * as `ways` slots each, LRU-first, with counts[geometry[5k + 4] + set]
 * of them filled.  geometry holds (sets, ways, line_bytes, tag_offset,
 * count_offset) per level.  Addresses and PCs must be non-negative (C's
 * `/` and `%` truncate; Python's floor) -- the loader checks.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t *tags;
    int32_t *counts;
    int64_t sets;
    int64_t ways;
    int64_t line_bytes;
} level_t;

enum { IL1, DL1, L2, L3 };

/* One LRU access; 1 on hit.  A hit moves the tag to the MRU slot; a
 * miss installs it there, evicting the LRU slot when the set is full. */
static int touch(level_t *level, int64_t address)
{
    int64_t tag = address / level->line_bytes;
    int64_t set = tag % level->sets;
    int64_t *slots = level->tags + set * level->ways;
    int32_t count = level->counts[set];
    for (int32_t k = count - 1; k >= 0; --k) {
        if (slots[k] == tag) {
            memmove(slots + k, slots + k + 1,
                    (size_t)(count - 1 - k) * sizeof *slots);
            slots[count - 1] = tag;
            return 1;
        }
    }
    if (count == level->ways) {
        memmove(slots, slots + 1, (size_t)(count - 1) * sizeof *slots);
        slots[count - 1] = tag;
    } else {
        slots[count] = tag;
        level->counts[set] = count + 1;
    }
    return 0;
}

static int8_t fetch(level_t *levels, int64_t address)
{
    if (touch(&levels[IL1], address)) return 0;
    if (touch(&levels[L2], address)) return 1;
    if (touch(&levels[L3], address)) return 2;
    return 3;
}

/* An L2 miss first pulls the next `prefetch` lines into L2 and L3. */
static int8_t data(level_t *levels, int64_t address, int64_t prefetch)
{
    if (touch(&levels[DL1], address)) return 0;
    if (touch(&levels[L2], address)) return 1;
    for (int64_t ahead = 1; ahead <= prefetch; ++ahead) {
        int64_t next_line = address + ahead * levels[L2].line_bytes;
        touch(&levels[L2], next_line);
        touch(&levels[L3], next_line);
    }
    if (touch(&levels[L3], address)) return 2;
    return 3;
}

/* Fetch blocks start every `block_uops` ops, counted from 0 in the
 * warmup prefix and again from 0 in the measured region; a block's
 * address is its first op's PC, or 4 * its index when the PC is 0.
 * mem_addresses holds one address per load/store, in trace order. */
void replay(int64_t *tags, int32_t *counts, const int64_t *geometry,
            const int8_t *codes, const int64_t *pcs,
            const int64_t *mem_addresses, int64_t n, int64_t warmup,
            int64_t block_uops, int64_t prefetch, int8_t load,
            int8_t store, int8_t *fetch_out, int8_t *mem_out)
{
    level_t levels[4];
    for (int k = 0; k < 4; ++k) {
        const int64_t *g = geometry + 5 * k;
        levels[k].sets = g[0];
        levels[k].ways = g[1];
        levels[k].line_bytes = g[2];
        levels[k].tags = tags + g[3];
        levels[k].counts = counts + g[4];
    }
    int64_t blocks = 0, accesses = 0;
    for (int64_t i = 0; i < n; ++i) {
        int64_t index = i < warmup ? i : i - warmup;
        if (index % block_uops == 0)
            fetch_out[blocks++] = fetch(levels, pcs[i] ? pcs[i] : index * 4);
        if (codes[i] == load || codes[i] == store) {
            mem_out[accesses] = data(levels, mem_addresses[accesses],
                                     prefetch);
            ++accesses;
        }
    }
}
