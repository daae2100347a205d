/* Native inner loops of the compiled verification kernel, built on first use
 * by repro/_native.py and called through ctypes.  nk_level compiles one BFS
 * level of repro.verification.kernel.CompiledStateGraph in one call: it
 * expands the frontier, hashes and interns every successor, numbers the new
 * states by packed value and appends the level's CSR rows and parents.  The
 * same loops back the composed batch API: the frontier expansion of
 * repro.scheduler.packed._FrontierExpander (nk_block_rows, nk_expand) and the
 * hash and probe loops of repro.verification.kernel.PackedStateTable
 * (nk_hash, nk_probe, nk_commit, nk_rehash).  Packed states are rows of
 * `words` uint64 words, most significant first, so row order is the order
 * of the packed value. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The int64 `cfg` array of an expander; then (shift, bits) per application. */
enum { CFG_APPS, CFG_WORDS, CFG_OCC_SHIFT, CFG_OCC_BITS, CFG_BUF_SHIFT,
       CFG_EV_RECOVERED, CFG_EV_ADMITTED, CFG_EV_GRANTED, CFG_EV_PREEMPTED,
       CFG_EV_RELEASED, CFG_APP0 };
/* Per application in `ptrs`: block table, dense block -> row array (0 for
 * wide block fields), else the known (block, row) pairs sorted by block and
 * their count. */
enum { PTR_TABLE, PTR_DENSE, PTR_PAIRS, PTR_COUNT, PTR_FIELDS };
/* A table row holds five word-wide XOR deltas (adv, post, arr, arrg, bufg),
 * then these scalars. */
enum { COL_PRIO, COL_ELIG, COL_RECOV, COL_MISS, COL_RELEASE, COL_PREEMPT,
       COL_SCALARS };
#define MAX_WORDS 64
#define MAX_APPS 62
#define PREFETCH_ROWS 16
#define CHUNK_ROWS 4096 /* transitions nk_level expands before probing them */
#define APP(i, k) (ptrs[(i) * PTR_FIELDS + (k)])
#define AS(type, value) ((type)(uintptr_t)(value))

/* Bit field [shift, shift + width) of one word row (width <= 64). */
static inline uint64_t field(const uint64_t *row, int64_t words,
                             int64_t shift, int64_t width)
{
    int64_t col = words - 1 - shift / 64, off = shift % 64;
    uint64_t value = row[col] >> off;
    if (off && col > 0 && off + width > 64)
        value |= row[col - 1] << (64 - off);
    return width >= 64 ? value : value & ((UINT64_C(1) << width) - 1);
}

/* 2 ** popcount(mask), the number of arrival subsets of an eligible mask. */
static inline int64_t subsets(uint64_t mask)
{
    int64_t count = 1;
    for (; mask; mask &= mask - 1)
        count <<= 1;
    return count;
}

static inline int64_t block_row(const uint64_t *ptrs, int64_t i, uint64_t block)
{
    if (APP(i, PTR_DENSE))
        return AS(const int32_t *, APP(i, PTR_DENSE))[block];
    const uint64_t *pairs = AS(const uint64_t *, APP(i, PTR_PAIRS));
    int64_t lo = 0, hi = (int64_t)APP(i, PTR_COUNT);
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (pairs[2 * mid] < block)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < (int64_t)APP(i, PTR_COUNT) && pairs[2 * lo] == block
        ? (int64_t)pairs[2 * lo + 1] : -1;
}

/* Map every (state, application) block of the frontier to its table row,
 * store each state's eligible mask and OR the deadline-miss bits of its
 * buffered applications into *missed (every transition of a state reports
 * them: arrivals never miss).  Unknown blocks are reported as (application,
 * block) pairs in `missing`, once per dense value; the caller adds them and
 * calls again with `again` set, which revisits only the states with unknown
 * blocks.  Returns the number of transitions of the frontier, or minus the
 * number of reported pairs. */
int64_t nk_block_rows(const uint64_t *matrix, int64_t count,
                      const int64_t *cfg, const uint64_t *ptrs, int32_t *rows,
                      uint64_t *eligible, uint64_t *missing, int64_t again,
                      uint64_t *missed)
{
    int64_t n = cfg[CFG_APPS], words = cfg[CFG_WORDS];
    int64_t stride = 5 * words + COL_SCALARS, reported = 0, total = 0;
    for (int64_t s = 0; s < count; s++) {
        int32_t *state_rows = rows + s * n;
        int64_t known = 0;
        while (again && known < n && state_rows[known] >= 0)
            known++;
        if (known == n) {
            total += subsets(eligible[s]);
            continue;
        }
        uint64_t mask = 0, miss = 0;
        uint64_t buffer = field(matrix + s * words, words, cfg[CFG_BUF_SHIFT], n);
        for (int64_t i = 0; i < n; i++) {
            int64_t row = again ? state_rows[i] : -1;
            if (row < 0) {
                uint64_t block = field(matrix + s * words, words,
                                       cfg[CFG_APP0 + 2 * i],
                                       cfg[CFG_APP0 + 2 * i + 1]);
                row = state_rows[i] = (int32_t)block_row(ptrs, i, block);
                if (row == -1) {
                    missing[2 * reported] = (uint64_t)i;
                    missing[2 * reported++ + 1] = block;
                    if (APP(i, PTR_DENSE)) /* marks it reported */
                        AS(int32_t *, APP(i, PTR_DENSE))[block] = -2;
                }
            }
            if (row >= 0) {
                const uint64_t *scalars = AS(const uint64_t *, APP(i, PTR_TABLE))
                    + row * stride + 5 * words;
                mask |= scalars[COL_ELIG];
                miss |= (buffer >> i) & 1 ? scalars[COL_MISS] : 0;
            }
        }
        *missed |= miss;
        eligible[s] = mask;
        total += subsets(mask);
    }
    for (int64_t k = 0; k < reported; k++) /* undo the marks */
        if (APP(missing[2 * k], PTR_DENSE))
            AS(int32_t *, APP(missing[2 * k], PTR_DENSE))[missing[2 * k + 1]] = -1;
    return reported ? -reported : total;
}

static inline void xor_words(uint64_t *target, const uint64_t *delta,
                             int64_t words)
{
    for (int64_t k = 0; k < words; k++)
        target[k] ^= delta[k];
}

/* One transition per frontier state and arrival subset of its eligible
 * applications, subsets ascending by size and then lexicographically by
 * index (the order of PackedSlotSystem.successors); `rows` comes from a
 * successful nk_block_rows call. */
static inline __attribute__((always_inline)) void
expand_states(const uint64_t *matrix, int64_t count, const int64_t *cfg,
              const uint64_t *ptrs, const int32_t *rows, uint64_t *succ,
              uint64_t *events, int64_t *origin, const int64_t words)
{
    int64_t n = cfg[CFG_APPS], stride = 5 * words + COL_SCALARS, t = 0;
    int64_t occ_shift = cfg[CFG_OCC_SHIFT], occ_bits = cfg[CFG_OCC_BITS];
    int64_t occ_col = words - 1 - occ_shift / 64, occ_off = occ_shift % 64;
    const uint64_t *tab[MAX_APPS];
    uint64_t base[MAX_WORDS];
    int members[MAX_APPS], pick[MAX_APPS];
    for (int64_t s = 0; s < count; s++) {
        const uint64_t *state = matrix + s * words;
        uint64_t buffer = field(state, words, cfg[CFG_BUF_SHIFT], n);
        int64_t occ = (int64_t)field(state, words, occ_shift, occ_bits) - 1;
        uint64_t eligible = 0, recovered = 0, miss = 0;
        int64_t buffer_key = INT64_MAX, buffer_app = 0;
        memset(base, 0, (size_t)words * sizeof(uint64_t));
        for (int64_t i = 0; i < n; i++) {
            tab[i] = AS(const uint64_t *, APP(i, PTR_TABLE))
                + rows[s * n + i] * stride;
            const uint64_t *scalars = tab[i] + 5 * words;
            xor_words(base, tab[i], words);
            eligible |= scalars[COL_ELIG];
            recovered |= scalars[COL_RECOV];
            if ((buffer >> i) & 1) {
                miss |= scalars[COL_MISS];
                if ((int64_t)scalars[COL_PRIO] < buffer_key) {
                    buffer_key = (int64_t)scalars[COL_PRIO];
                    buffer_app = i;
                }
            }
        }
        int held = occ >= 0 && occ < n; /* an occupant field past n never exits */
        int release = held && tab[occ][5 * words + COL_RELEASE];
        int preempt = held && tab[occ][5 * words + COL_PREEMPT];
        uint64_t ev_state = miss | (recovered << cfg[CFG_EV_RECOVERED]);
        int p = 0;
        for (int64_t i = 0; i < n; i++)
            if ((eligible >> i) & 1)
                members[p++] = (int)i;
        for (int size = 0; size <= p; size++) {
            for (int j = 0; j < size; j++)
                pick[j] = j;
            for (;;) {
                uint64_t amask = 0, *out = succ + t * words;
                int64_t key = buffer_key, granted = buffer_app;
                memcpy(out, base, (size_t)words * sizeof(uint64_t));
                for (int j = 0; j < size; j++) {
                    int a = members[pick[j]];
                    amask |= UINT64_C(1) << a;
                    xor_words(out, tab[a] + 2 * words, words);
                    if ((int64_t)tab[a][5 * words + COL_PRIO] < key) {
                        key = (int64_t)tab[a][5 * words + COL_PRIO];
                        granted = a;
                    }
                }
                uint64_t next_buffer = buffer | amask;
                int freed_preempt = !release && preempt && next_buffer;
                int exits = release || freed_preempt;
                int grants = (occ < 0 || exits) && next_buffer;
                int64_t next_occ = exits ? -1 : occ;
                if (exits)
                    xor_words(out, tab[occ] + words, words);
                if (grants) {
                    const uint64_t *g = tab[granted];
                    if ((amask >> granted) & 1) { /* arr -> arrg */
                        xor_words(out, g + 2 * words, words);
                        xor_words(out, g + 3 * words, words);
                    } else {
                        xor_words(out, g + 4 * words, words);
                    }
                    next_occ = granted;
                    next_buffer &= ~(UINT64_C(1) << granted);
                }
                uint64_t tail = (uint64_t)(next_occ + 1) | (next_buffer << occ_bits);
                out[occ_col] |= tail << occ_off;
                if (occ_off && occ_col > 0)
                    out[occ_col - 1] |= tail >> (64 - occ_off);
                events[t] = ev_state | (amask << cfg[CFG_EV_ADMITTED])
                    | ((uint64_t)(grants ? granted + 1 : 0) << cfg[CFG_EV_GRANTED])
                    | ((uint64_t)(freed_preempt ? occ + 1 : 0) << cfg[CFG_EV_PREEMPTED])
                    | ((uint64_t)(release ? occ + 1 : 0) << cfg[CFG_EV_RELEASED]);
                origin[t++] = s;
                int j = size - 1; /* next combination of `size` members */
                while (j >= 0 && pick[j] == p - size + j)
                    j--;
                if (j < 0)
                    break;
                for (pick[j]++; ++j < size;)
                    pick[j] = pick[j - 1] + 1;
            }
        }
    }
}

void nk_expand(const uint64_t *matrix, int64_t count, const int64_t *cfg,
               const uint64_t *ptrs, const int32_t *rows, uint64_t *succ,
               uint64_t *events, int64_t *origin)
{
    if (cfg[CFG_WORDS] == 1) /* lets the compiler drop the word loops */
        expand_states(matrix, count, cfg, ptrs, rows, succ, events, origin, 1);
    else
        expand_states(matrix, count, cfg, ptrs, rows, succ, events, origin,
                      cfg[CFG_WORDS]);
}

/* Probe hash of one word row: a splitmix64 finalizer per word, folded
 * FNV-style across the words. */
static inline uint64_t hash_row(const uint64_t *row, int64_t words)
{
    uint64_t h = UINT64_C(0x9E3779B97F4A7C15);
    for (int64_t k = 0; k < words; k++) {
        uint64_t x = row[k] ^ (row[k] >> 30);
        x *= UINT64_C(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        x *= UINT64_C(0x94D049BB133111EB);
        x ^= x >> 31;
        h = (h ^ x) * UINT64_C(0x100000001B3);
    }
    return h;
}

void nk_hash(const uint64_t *keys, int64_t m, int64_t words, uint64_t *hashes)
{
    for (int64_t r = 0; r < m; r++)
        hashes[r] = hash_row(keys + r * words, words);
}

/* Probe every key from its hash through the open-addressing slot array
 * (int32 ids, -1 empty, linear probing).  Lookup (claim == 0): ids[r] is
 * the key's id or -1.  Intern: an absent key claims the empty slot it
 * reaches as the next claim c (numbered on from `claims`): its key is
 * copied to pending[c], and the slot and ids[r] hold the marker -(c + 2),
 * which later rows of the same key resolve to, so each new key is claimed
 * once, by its lowest row.  claimed[c] records that row and slot_of[c] the
 * slot.  Returns the claim count after the batch. */
static inline __attribute__((always_inline)) int64_t
probe_keys(int32_t *slots, uint64_t mask, const uint64_t *states,
           const uint64_t *keys, const uint64_t *hashes, int64_t m,
           const int64_t words, int64_t claim, int64_t *ids, uint64_t *pending,
           int64_t claims, int64_t *claimed, int64_t *slot_of)
{
    size_t bytes = (size_t)words * sizeof(uint64_t);
    for (int64_t r = 0; r < m; r++) {
        uint64_t pos = hashes[r] & mask;
        if (r + PREFETCH_ROWS < m) { /* slots and states are cache misses */
            int64_t ahead = slots[hashes[r + PREFETCH_ROWS / 2] & mask];
            if (ahead >= 0)
                __builtin_prefetch(states + ahead * words);
            __builtin_prefetch(slots + (hashes[r + PREFETCH_ROWS] & mask));
        }
        for (;; pos = (pos + 1) & mask) {
            int64_t id = slots[pos];
            if (id == -1) {
                ids[r] = claim ? -(claims + 2) : -1;
                if (claim) {
                    slots[pos] = (int32_t)ids[r];
                    memcpy(pending + claims * words, keys + r * words, bytes);
                    claimed[claims] = r;
                    slot_of[claims++] = (int64_t)pos;
                }
                break;
            }
            const uint64_t *other = id >= 0 ? states + id * words
                                            : pending + (-id - 2) * words;
            if (!memcmp(keys + r * words, other, bytes)) {
                ids[r] = id;
                break;
            }
        }
    }
    return claims;
}

int64_t nk_probe(int32_t *slots, uint64_t mask, const uint64_t *states,
                 const uint64_t *keys, const uint64_t *hashes, int64_t m,
                 int64_t words, int64_t claim, int64_t *ids, uint64_t *pending,
                 int64_t *claimed, int64_t *slot_of)
{
    if (words == 1)
        return probe_keys(slots, mask, states, keys, hashes, m, 1, claim, ids,
                          pending, 0, claimed, slot_of);
    return probe_keys(slots, mask, states, keys, hashes, m, words, claim, ids,
                      pending, 0, claimed, slot_of);
}

/* One radix-sort record: a word of a claim's key and the claim. */
struct claim_word { uint64_t word; int64_t claim; };
#define DIGIT_BITS 11

/* Order claims 0 .. k-1 by packed value: order[j] is the claim of rank j.
 * An LSD radix sort in DIGIT_BITS digits, least significant word first,
 * over only the bits in which the claims' words differ; `a` and `b` hold k
 * records each. */
static void sort_claims(const uint64_t *pending, int64_t k, int64_t words,
                        int64_t *order, struct claim_word *a,
                        struct claim_word *b)
{
    enum { DIGITS = 1 << DIGIT_BITS, PASSES = (64 + DIGIT_BITS - 1) / DIGIT_BITS };
    uint32_t counts[PASSES][DIGITS];
    for (int64_t j = 0; j < k; j++)
        a[j].claim = j;
    for (int64_t col = words - 1; col >= 0; col--) {
        uint64_t first = pending[a[0].claim * words + col], differ = 0;
        for (int64_t j = 0; j < k; j++) {
            a[j].word = pending[a[j].claim * words + col];
            differ |= a[j].word ^ first;
        }
        if (!differ)
            continue;
        int low = __builtin_ctzll(differ);
        int passes = (64 - __builtin_clzll(differ) - low + DIGIT_BITS - 1) / DIGIT_BITS;
        memset(counts, 0, (size_t)passes * sizeof counts[0]);
        for (int64_t j = 0; j < k; j++)
            for (int p = 0; p < passes; p++)
                counts[p][(a[j].word >> (low + p * DIGIT_BITS)) & (DIGITS - 1)]++;
        for (int p = 0; p < passes; p++) {
            uint32_t *at = counts[p], sum = 0;
            int shift = low + p * DIGIT_BITS;
            for (int d = 0; d < DIGITS; d++) {
                uint32_t here = at[d];
                at[d] = sum;
                sum += here;
            }
            for (int64_t j = 0; j < k; j++)
                b[at[(a[j].word >> shift) & (DIGITS - 1)]++] = a[j];
            struct claim_word *sorted = b;
            b = a;
            a = sorted;
        }
    }
    for (int64_t j = 0; j < k; j++)
        order[j] = a[j].claim;
}

/* Claim order[j] becomes id base + j: its pending key is stored there, its
 * slot holds the id, and id_of[c] records the id of claim c. */
static void assign_ids(int32_t *slots, uint64_t *states,
                       const uint64_t *pending, int64_t words,
                       const int64_t *slot_of, const int64_t *order, int64_t k,
                       int64_t base, int64_t *id_of)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t c = order[j];
        if (j + PREFETCH_ROWS < k)
            __builtin_prefetch(slots + slot_of[order[j + PREFETCH_ROWS]], 1);
        memcpy(states + (base + j) * words, pending + c * words,
               (size_t)words * sizeof(uint64_t));
        slots[slot_of[c]] = (int32_t)(base + j);
        id_of[c] = base + j;
    }
}

/* Number the k claims of one nk_probe call from id base, by packed value
 * (by_value) or else in claim order, and resolve every row's marker.
 * claimed[] is rewritten in id order.  Returns 0, or -1 when out of memory
 * (nothing is assigned then). */
int64_t nk_commit(int32_t *slots, uint64_t *states, const uint64_t *pending,
                  int64_t words, int64_t *claimed, const int64_t *slot_of,
                  int64_t k, int64_t base, int64_t by_value, int64_t *ids,
                  int64_t m)
{
    if (!k)
        return 0;
    int64_t *block = calloc((size_t)k, 3 * sizeof(int64_t) + 2 * sizeof(struct claim_word));
    if (!block)
        return -1;
    int64_t *order = block, *id_of = order + k, *spare = id_of + k;
    struct claim_word *records = (struct claim_word *)(spare + k);
    if (by_value)
        sort_claims(pending, k, words, order, records, records + k);
    else
        for (int64_t j = 0; j < k; j++)
            order[j] = j;
    assign_ids(slots, states, pending, words, slot_of, order, k, base, id_of);
    for (int64_t r = 0; r < m; r++)
        if (ids[r] < -1)
            ids[r] = id_of[-ids[r] - 2];
    for (int64_t j = 0; j < k; j++)
        spare[j] = claimed[order[j]];
    memcpy(claimed, spare, (size_t)k * sizeof(int64_t));
    free(block);
    return 0;
}

/* Re-insert ids 0 .. count-1 into an empty slot array (growth). */
void nk_rehash(int32_t *slots, uint64_t mask, const uint64_t *hashes,
               int64_t count)
{
    for (int64_t id = 0; id < count; id++) {
        uint64_t pos = hashes[id] & mask;
        while (slots[pos] != -1)
            pos = (pos + 1) & mask;
        slots[pos] = (int32_t)id;
    }
}

/* A new state's BFS-tree record: its parent's id and arrival label. */
struct tree_edge { int64_t parent; uint64_t label; };

/* One BFS level of a compiled graph; see nk_level. */
static inline __attribute__((always_inline)) int64_t
compile_level(const uint64_t *matrix, int64_t count, const int64_t *cfg,
              const uint64_t *ptrs, const int32_t *rows,
              const uint64_t *eligible, int32_t *slots, uint64_t mask,
              uint64_t *states, int64_t size, int64_t first, int64_t base,
              int64_t *indptr, int32_t *succ_ids, uint64_t *labels,
              int32_t *parent_ids, uint64_t *parent_labels,
              const int64_t words)
{
    int64_t n = cfg[CFG_APPS], total = 0, widest = CHUNK_ROWS;
    for (int64_t s = 0; s < count; s++) {
        int64_t width = subsets(eligible[s]);
        total += width;
        widest = width > widest ? width : widest;
    }
    /* One block, touched only as far as used: a chunk of transitions
     * (keys, events, origin, hashes, ids), then per claim its pending key,
     * row in the chunk, slot, rank order, id and tree edge, and the sort's
     * records. */
    uint64_t *block = malloc(((size_t)widest * (words + 4)
                              + (size_t)total * (words + 4)) * sizeof(uint64_t)
                             + (size_t)total * sizeof(struct tree_edge)
                             + 2 * (size_t)total * sizeof(struct claim_word));
    if (!block)
        return -1;
    uint64_t *keys = block, *events = keys + widest * words;
    int64_t *origin = (int64_t *)(events + widest);
    uint64_t *hashes = (uint64_t *)(origin + widest);
    int64_t *ids = (int64_t *)(hashes + widest);
    uint64_t *pending = (uint64_t *)(ids + widest);
    int64_t *claimed = (int64_t *)(pending + total * words);
    int64_t *slot_of = claimed + total, *order = slot_of + total;
    int64_t *id_of = order + total;
    struct tree_edge *tree = (struct tree_edge *)(id_of + total);
    struct claim_word *records = (struct claim_word *)(tree + total);
    uint64_t apps = (UINT64_C(1) << n) - 1;
    int64_t claims = 0, t = 0;
    for (int64_t s = 0; s < count;) {
        int64_t end = s, m = 0;
        while (end < count && m + subsets(eligible[end]) <= widest)
            m += subsets(eligible[end++]);
        expand_states(matrix + s * words, end - s, cfg, ptrs, rows + s * n,
                      keys, events, origin, words);
        for (int64_t r = 0; r < m; r++)
            hashes[r] = hash_row(keys + r * words, words);
        int64_t before = claims;
        claims = probe_keys(slots, mask, states, keys, hashes, m, words, 1, ids,
                            pending, claims, claimed, slot_of);
        for (int64_t c = before; c < claims; c++) {
            int64_t r = claimed[c];
            tree[c].parent = first + s + origin[r];
            tree[c].label = (events[r] >> cfg[CFG_EV_ADMITTED]) & apps;
        }
        for (int64_t r = 0; r < m; r++) {
            succ_ids[t + r] = (int32_t)ids[r];
            labels[t + r] = (events[r] >> cfg[CFG_EV_ADMITTED]) & apps;
        }
        for (int64_t r = t; s < end; s++)
            indptr[s] = base + (r += subsets(eligible[s]));
        t += m;
    }
    if (claims > 1)
        sort_claims(pending, claims, words, order, records, records + claims);
    else
        order[0] = 0;
    assign_ids(slots, states, pending, words, slot_of, order, claims, size, id_of);
    for (int64_t j = 0; j < claims; j++) {
        parent_ids[j] = (int32_t)tree[order[j]].parent;
        parent_labels[j] = tree[order[j]].label;
    }
    for (int64_t r = 0; r < total; r++)
        if (succ_ids[r] < 0)
            succ_ids[r] = (int32_t)id_of[-succ_ids[r] - 2];
    free(block);
    return claims;
}

/* Compile one BFS level of a CompiledStateGraph: expand the frontier
 * `matrix` (table rows and eligible masks from a successful nk_block_rows
 * call that found no deadline miss), intern every successor into the table
 * (`slots`, `states`, `size` states so far), number the new states size,
 * size + 1, ... by packed value, and write, from their current ends, the
 * level's indptr entries (offset by `base`, the transitions so far),
 * successor ids and arrival labels, and each new state's parent (`first`
 * plus the frontier row of its first transition) and label.  The caller
 * reserves room for every transition being a new state.  Returns the number
 * of new states, or -1 when out of memory (before anything is claimed). */
int64_t nk_level(const uint64_t *matrix, int64_t count, const int64_t *cfg,
                 const uint64_t *ptrs, const int32_t *rows,
                 const uint64_t *eligible, int32_t *slots, uint64_t mask,
                 uint64_t *states, int64_t size, int64_t first, int64_t base,
                 int64_t *indptr, int32_t *succ_ids, uint64_t *labels,
                 int32_t *parent_ids, uint64_t *parent_labels)
{
    if (cfg[CFG_WORDS] == 1)
        return compile_level(matrix, count, cfg, ptrs, rows, eligible, slots,
                             mask, states, size, first, base, indptr, succ_ids,
                             labels, parent_ids, parent_labels, 1);
    return compile_level(matrix, count, cfg, ptrs, rows, eligible, slots, mask,
                         states, size, first, base, indptr, succ_ids, labels,
                         parent_ids, parent_labels, cfg[CFG_WORDS]);
}
