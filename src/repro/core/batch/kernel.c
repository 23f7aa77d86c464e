/* Batched structure-of-arrays simulation kernel.
 *
 * A C transliteration of the single-core reference state machine
 * (repro.core.system / repro.mem.*).  The kernel owns its state: each
 * run allocates every structure fresh from the geometry slots of icfg
 * and frees it before returning, so only icfg and the B_* buffers
 * cross to repro.core.batch.backend.  The trace crosses as its packed
 * ACCESS_DTYPE records, read in place: icfg carries the record size
 * and the offset of each field the kernel reads.  Bit-identity with
 * the reference is a hard contract: every counter an output carries,
 * recency bump, victim pick and float operation mirrors the Python
 * source exactly.
 * Compile with -ffp-contract=off so the interval-timer float math
 * cannot be fused into FMA (CPython never fuses).
 *
 * Equivalences relied on (each verified against the Python source):
 *   - dict-order LRU == min-prio victim (stamps are unique);
 *   - Belady victim (first maximal in dict order) == max prio with
 *     min install-sequence tie-break (non-LRU sets never reorder);
 *   - min(d, key=d.get) == min-stamp scan (stamps unique);
 *   - RRIP victim (age the set one step at a time until a line reaches
 *     MAX_RRPV, then the first such line in dict order) == age every
 *     line by MAX_RRPV - max RRPV once, then the min-seq line at
 *     MAX_RRPV (non-LRU sets keep install order, as for Belady);
 *   - heapq pop order is determined by the value multiset alone;
 *   - C IEEE-754 doubles replicate CPython float arithmetic.
 *
 * The run refuses, with a nonzero return before it allocates anything,
 * every path, LLC-kind or predictor code it does not implement, and
 * returns ERR_ALLOC before touching any buffer if an allocation fails.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ABI_VERSION 4

/* CacheStats slots (field order of repro.mem.cache.CacheStats). */
enum { ACC = 0, HIT, MISS, PFF, PFH, WB, EV, FILL, INV };
/* DRAMStats slots. */
enum { DREADS = 0, DWRITES, DROWH, DROWM, DROWC };
/* Level codes (repro.mem.hierarchy). */
enum { L1D_LV = 0, L2C_LV, LLC_LV, DRAM_LV, SDC_LV };
/* Access paths, LLC kinds and predictors (repro.core.batch.backend). */
enum { PATH_PLAIN = 0, PATH_SDC, PATH_VICTIM, PATH_BYPASS, N_PATHS };
enum { LLC_LRU = 0, LLC_BELADY, LLC_DISTILL, LLC_SRRIP, LLC_DRRIP,
       LLC_SHIP, N_LLC_KINDS };
enum { PRED_NONE = 0, PRED_LP, PRED_EXPERT, PRED_CLP, N_PREDICTORS };
/* Nonzero returns of repro_batch_run. */
enum { ERR_ALLOC = 1, ERR_TELEMETRY, ERR_PATH, ERR_LLC_KIND,
       ERR_PREDICTOR };

/* repro_batch_run's buffers, in order: the trace's records, the aux
 * columns and DRRIP's leader roles it reads, then the outputs it writes
 * (repro.core.batch.backend builds the same list). */
enum { B_RECORDS = 0, B_AUX_NEXT, B_AUX_IRR, B_AUX_WORD, B_EXPERT_IRR,
       B_LLC_ROLE, B_COUNTERS, B_CYCLES, B_TELE, B_LEVELS, N_BUFS };
/* icfg slots of the record layout: the record size, then the offsets
 * of the fields the kernel reads (repro.core.batch.backend
 * _RECORD_FIELDS, checked there against ACCESS_DTYPE), then the block
 * and page shifts. */
enum { I_REC_SIZE = 84, I_OFF_PC, I_OFF_ADDR, I_OFF_WRITE, I_OFF_GAP,
       I_OFF_DEP, I_BLOCK_BITS, I_PAGE_BITS };
/* Slots of the B_COUNTERS vector: CacheStats of the L1D, L2C, LLC (the
 * distill cache's own when it is one) and SDC, DRAMStats, LPStats and
 * TLBStats, then instructions and telemetry rows. */
enum { OUT_L1 = 0, OUT_L2 = 9, OUT_LLC = 18, OUT_SDC = 27, OUT_DRAM = 36,
       OUT_PRED = 41, OUT_TLB = 46, OUT_INSTRUCTIONS = 50, OUT_TELE_ROWS,
       N_OUT };

static const int64_t NEVER = (int64_t)1 << 62;

typedef struct {
    int64_t sets, ways, latency, mask, bits;
    int64_t *tags, *prio, *seq, *occ;
    uint8_t *dirty, *pf;
    int64_t clock, seqc;
    int64_t stats[9];
} Cache;

/* ---- global kernel state (single-threaded, one run per call) ---- */
static Cache L1, L2, L3, SD, VC;

static int64_t g_path, g_llc_kind, g_pred, g_lp_tagless;
static int64_t g_l1_next_line, g_l2_spp, g_sdc_pf, g_aux_mode;
static int64_t g_sdc_miss_dir_lat, g_llc_lat, g_dir_lat;

/* distill */
static uint8_t *g_usage;
static int64_t *g_wb, *g_ww, *g_ws, *g_wlen, g_dstats[9];
static int64_t g_woc_cap, g_woc_slots, g_dclock;
static int64_t g_belady_clock;

/* dram */
static int64_t *g_rows, g_dram[5];
static int64_t g_banks, g_row_bits, g_lat_hit, g_lat_miss, g_lat_conf;

/* predictor table: the LP, or the CLP (its counter rides g_lp_sacc) */
static int64_t *g_lp_tag, *g_lp_addr, *g_lp_sacc, *g_lp_stamp;
static int64_t *g_lp_occ, g_lp_stats[5];
static int64_t g_lp_sets, g_lp_ways, g_lp_set_bits, g_lp_set_mask;
static int64_t g_lp_tau, g_lp_smax, g_lp_clock;
static int64_t g_clp_weight[5], g_clp_slot;

/* RRIP-family LLC (SRRIP/DRRIP/SHiP in repro.mem.replacement) */
#define MAX_RRPV 3
static const uint8_t *g_llc_role;   /* DRRIP: 1 SRRIP leader, 2 BRRIP */
static int64_t g_psel, g_psel_max, g_brrip_tick, g_brrip_eps;
static int64_t *g_shct, *g_ship_sig;  /* SHiP: SHCT, per-slot signature */
static uint8_t *g_ship_reused;
static int64_t g_shct_mask, g_shct_max;

/* sdcdir */
static int64_t *g_db, *g_dsh, *g_ddc, *g_dst, *g_docc;
static int64_t g_dir_sets, g_dir_ways, g_dir_mask, g_dir_clock;

/* tlb */
typedef struct {
    int64_t sets, ways, mask, clock;
    int64_t *page, *stamp, *occ;
} TLBLevel;
static TLBLevel T1, T2;
static int64_t g_tlb_stats[4];
static int64_t g_tlb_l2_lat, g_tlb_walk_lat;

/* spp */
static int8_t *g_sp_d;
static int16_t *g_sp_c;
static int32_t *g_sp_len, *g_sp_tot;
static int64_t *g_tk_page, *g_tk_off, *g_tk_sig;
static int64_t g_tk_count;
#define TK_CAP 16384
#define SP_SIGS 4096
#define SP_SLOTS 127

/* aux columns */
static const int64_t *g_aux_next, *g_aux_word;
static const uint8_t *g_aux_irr, *g_expert_irr;

/* The trace's records, read in place (memcpy: they are packed). */
static const unsigned char *g_rec;
static int64_t g_rec_size, g_off_pc, g_off_addr, g_off_write, g_off_gap,
    g_off_dep;

static inline const unsigned char *rec(int64_t i) {
    return g_rec + i * g_rec_size;
}

static inline int64_t rec_pc(int64_t i) {
    uint32_t v;
    memcpy(&v, rec(i) + g_off_pc, sizeof v);
    return v;
}

static inline uint64_t rec_addr(int64_t i) {
    uint64_t v;
    memcpy(&v, rec(i) + g_off_addr, sizeof v);
    return v;
}

static inline int rec_write(int64_t i) {
    return rec(i)[g_off_write] ? 1 : 0;
}

static inline int64_t rec_gap(int64_t i) {
    uint16_t v;
    memcpy(&v, rec(i) + g_off_gap, sizeof v);
    return v;
}

static inline int64_t rec_dep(int64_t i) {
    int64_t v;
    memcpy(&v, rec(i) + g_off_dep, sizeof v);
    return v;
}

/* ---------------------------------------------------------------- */
/* Set-associative cache primitives                                  */
/* ---------------------------------------------------------------- */

static inline int64_t c_set(Cache *c, int64_t b) {
    return c->mask >= 0 ? (b & c->mask) : (b % c->sets);
}

static inline int64_t c_tagof(Cache *c, int64_t b) {
    return c->mask >= 0 ? (b >> c->bits) : (b / c->sets);
}

static inline int64_t c_join(Cache *c, int64_t s, int64_t t) {
    return c->mask >= 0 ? ((t << c->bits) | s) : (t * c->sets + s);
}

static inline int64_t c_find(Cache *c, int64_t s, int64_t t) {
    int64_t base = s * c->ways, w;
    for (w = 0; w < c->ways; w++)
        if (c->tags[base + w] == t)
            return base + w;
    return -1;
}

static inline int c_contains(Cache *c, int64_t b) {
    return c_find(c, c_set(c, b), c_tagof(c, b)) >= 0;
}

/* Belady prio (BeladyOPT(irregular_only=True)._prio). */
static inline int64_t bl_prio(int has_aux, int64_t nu, int irr) {
    if (!has_aux)
        return NEVER;
    if (!irr) {
        g_belady_clock++;
        return ((int64_t)1 << 40) + g_belady_clock;
    }
    return nu;
}

/* DRRIP selector: leader-set misses steer PSEL (DRRIPPolicy.on_miss). */
static inline void drrip_miss(int64_t s) {
    if (g_llc_role[s] == 1) {
        if (g_psel < g_psel_max)
            g_psel++;
    } else if (g_llc_role[s] == 2) {
        if (g_psel > 0)
            g_psel--;
    }
}

/* Replacement update of a resident line on a hit or re-fill (on_hit):
 * kind is an LLC_* code; the private caches are always LLC_LRU. */
static inline void c_touch(Cache *c, int64_t i, int kind, int has_aux,
                           int64_t nu, int irr) {
    if (kind == LLC_LRU) {
        c->prio[i] = ++c->clock;
    } else if (kind == LLC_BELADY) {
        c->prio[i] = bl_prio(has_aux, nu, irr);
    } else {
        c->prio[i] = 0;
        if (kind == LLC_SHIP && !g_ship_reused[i]) {
            /* first reuse of the line trains its signature up */
            g_ship_reused[i] = 1;
            if (g_shct[g_ship_sig[i]] < g_shct_max)
                g_shct[g_ship_sig[i]]++;
        }
    }
}

/* RRIP victim of a full set (policy.victim): age the set until a line
 * reaches MAX_RRPV, take the first such line in install order; SHiP
 * then retires it, training a never-reused signature down. */
static int64_t rrip_victim(Cache *c, int64_t base, int kind) {
    int64_t w, maxv = -1, best = -1, bs = 0;
    for (w = 0; w < c->ways; w++)
        if (c->tags[base + w] >= 0 && c->prio[base + w] > maxv)
            maxv = c->prio[base + w];
    if (maxv < MAX_RRPV)
        for (w = 0; w < c->ways; w++)
            if (c->tags[base + w] >= 0)
                c->prio[base + w] += MAX_RRPV - maxv;
    for (w = 0; w < c->ways; w++) {
        int64_t j = base + w;
        if (c->tags[j] >= 0 && c->prio[j] >= MAX_RRPV &&
                (best < 0 || c->seq[j] < bs)) {
            bs = c->seq[j];
            best = j;
        }
    }
    if (kind == LLC_SHIP && !g_ship_reused[best] &&
            g_shct[g_ship_sig[best]] > 0)
        g_shct[g_ship_sig[best]]--;
    return best;
}

/* RRIP insertion RRPV of a newly installed line (policy.on_fill). */
static int64_t rrip_insert(int64_t slot, int64_t s, int kind, int has_aux,
                           int64_t pc) {
    if (kind == LLC_SRRIP)
        return MAX_RRPV - 1;
    if (kind == LLC_DRRIP) {
        int brrip = g_llc_role[s] == 1 ? 0
                  : g_llc_role[s] == 2 ? 1
                  : g_psel > g_psel_max / 2;
        if (!brrip)
            return MAX_RRPV - 1;
        g_brrip_tick++;
        return g_brrip_tick % g_brrip_eps == 0 ? MAX_RRPV - 1 : MAX_RRPV;
    }
    /* SHiP: a fill without a PC (writeback) signs as PC 0 */
    int64_t p = has_aux ? pc : 0;
    int64_t sig = (p ^ (p >> 7)) & g_shct_mask;
    g_ship_sig[slot] = sig;
    g_ship_reused[slot] = 0;
    return g_shct[sig] == 0 ? MAX_RRPV : MAX_RRPV - 1;
}

/* Demand lookup (SetAssocCache.access); kind is an LLC_* code.
 * Returns slot index on hit, -1 on miss. */
static int64_t c_access_k(Cache *c, int64_t b, int write, int kind,
                          int has_aux, int64_t nu, int irr) {
    int64_t s = c_set(c, b), t = c_tagof(c, b);
    int64_t i = c_find(c, s, t);
    c->stats[ACC]++;
    if (i >= 0) {
        c->stats[HIT]++;
        if (c->pf[i]) {
            c->stats[PFH]++;
            c->pf[i] = 0;
        }
        if (write)
            c->dirty[i] = 1;
        c_touch(c, i, kind, has_aux, nu, irr);
        return i;
    }
    c->stats[MISS]++;
    if (kind == LLC_DRRIP)
        drrip_miss(s);
    return -1;
}

static inline int64_t c_access(Cache *c, int64_t b, int write) {
    return c_access_k(c, b, write, LLC_LRU, 0, 0, 0);
}

/* Install (SetAssocCache.fill).  Returns 0 = re-fill, 1 = install into
 * free slot, 2 = install with eviction (evb/evd set).  slot_out gets
 * the line's slot in every case. */
static int c_fill_k(Cache *c, int64_t b, int dirty, int pf, int kind,
                    int has_aux, int64_t nu, int irr,
                    int64_t *evb, int *evd, int64_t *slot_out) {
    int64_t s = c_set(c, b), t = c_tagof(c, b);
    int64_t base = s * c->ways;
    int64_t i = c_find(c, s, t), w, slot = -1;
    if (i >= 0) {
        if (dirty)
            c->dirty[i] = 1;
        if (!pf)
            c->pf[i] = 0;
        c_touch(c, i, kind, has_aux, nu, irr);
        if (slot_out)
            *slot_out = i;
        return 0;
    }
    int evicted = 0;
    if (c->occ[s] >= c->ways) {
        if (kind == LLC_LRU) {
            /* LRU: min prio (== first key of the move-to-end dict). */
            int64_t bp = 0, best = -1;
            for (w = 0; w < c->ways; w++) {
                int64_t j = base + w;
                if (c->tags[j] < 0)
                    continue;
                if (best < 0 || c->prio[j] < bp) {
                    bp = c->prio[j];
                    best = j;
                }
            }
            slot = best;
        } else if (kind == LLC_BELADY) {
            /* Belady: max prio, first-in-dict-order (min seq) ties. */
            int64_t bp = -1, bs = 0, best = -1;
            for (w = 0; w < c->ways; w++) {
                int64_t j = base + w;
                if (c->tags[j] < 0)
                    continue;
                if (best < 0 || c->prio[j] > bp ||
                        (c->prio[j] == bp && c->seq[j] < bs)) {
                    bp = c->prio[j];
                    bs = c->seq[j];
                    best = j;
                }
            }
            slot = best;
        } else {
            slot = rrip_victim(c, base, kind);
        }
        c->stats[EV]++;
        if (c->dirty[slot])
            c->stats[WB]++;
        *evb = c_join(c, s, c->tags[slot]);
        *evd = c->dirty[slot] ? 1 : 0;
        evicted = 2;
    } else {
        for (w = 0; w < c->ways; w++) {
            int64_t j = base + w;
            if (c->tags[j] < 0) {
                slot = j;
                break;
            }
        }
        c->occ[s]++;
        evicted = 1;
    }
    c->tags[slot] = t;
    c->dirty[slot] = dirty ? 1 : 0;
    c->pf[slot] = pf ? 1 : 0;
    if (kind == LLC_LRU)
        c->prio[slot] = ++c->clock;
    else if (kind == LLC_BELADY)
        c->prio[slot] = bl_prio(has_aux, nu, irr);
    else
        c->prio[slot] = rrip_insert(slot, s, kind, has_aux, nu);
    c->seq[slot] = ++c->seqc;
    c->stats[FILL]++;
    if (pf)
        c->stats[PFF]++;
    if (slot_out)
        *slot_out = slot;
    return evicted;
}

static inline int c_fill(Cache *c, int64_t b, int dirty, int pf,
                         int64_t *evb, int *evd) {
    return c_fill_k(c, b, dirty, pf, LLC_LRU, 0, 0, 0, evb, evd, NULL);
}

/* invalidate: returns (was_present, was_dirty) packed as 2*p + d. */
static int c_invalidate(Cache *c, int64_t b) {
    int64_t s = c_set(c, b), t = c_tagof(c, b);
    int64_t i = c_find(c, s, t);
    if (i < 0)
        return 0;
    int d = c->dirty[i] ? 1 : 0;
    c->tags[i] = -1;
    c->dirty[i] = 0;
    c->pf[i] = 0;
    c->occ[s]--;
    c->stats[INV]++;
    return 2 + d;
}

static int c_clear_dirty(Cache *c, int64_t b) {
    int64_t i = c_find(c, c_set(c, b), c_tagof(c, b));
    if (i < 0 || !c->dirty[i])
        return 0;
    c->dirty[i] = 0;
    return 1;
}

static int c_mark_dirty(Cache *c, int64_t b) {
    int64_t i = c_find(c, c_set(c, b), c_tagof(c, b));
    if (i < 0)
        return 0;
    c->dirty[i] = 1;
    return 1;
}

static void c_flush(Cache *c) {
    int64_t s;
    for (s = 0; s < c->sets; s++) {
        c->stats[INV] += c->occ[s];
        c->occ[s] = 0;
    }
    for (s = 0; s < c->sets * c->ways; s++) {
        c->tags[s] = -1;
        c->dirty[s] = 0;
        c->pf[s] = 0;
    }
}

/* ---------------------------------------------------------------- */
/* DRAM (repro.mem.dram.DRAMModel)                                   */
/* ---------------------------------------------------------------- */

static int64_t dram_access(int64_t block) {
    int64_t row = (block << 6) >> g_row_bits;
    int64_t bank = row % g_banks;
    int64_t cur = g_rows[bank];
    if (cur == row) {
        g_dram[DROWH]++;
        return g_lat_hit;
    }
    g_rows[bank] = row;
    if (cur == -1) {
        g_dram[DROWM]++;
        return g_lat_miss;
    }
    g_dram[DROWC]++;
    return g_lat_conf;
}

static int64_t dram_read(int64_t block) {
    g_dram[DREADS]++;
    return dram_access(block);
}

static int64_t dram_write(int64_t block) {
    g_dram[DWRITES]++;
    return dram_access(block);
}

/* ---------------------------------------------------------------- */
/* Distill cache (repro.mem.distill.DistillCache); L3 acts as LOC.   */
/* ---------------------------------------------------------------- */

static void dist_distill(int64_t block, uint8_t bitmap) {
    if (!bitmap)
        return;
    int64_t si = block % L3.sets;
    int64_t base = si * g_woc_slots;
    int64_t word, k;
    for (word = 0; word < 8; word++) {
        if (!(bitmap & ((uint8_t)1 << word)))
            continue;
        g_dclock++;
        int64_t found = -1;
        for (k = 0; k < g_wlen[si]; k++) {
            if (g_wb[base + k] == block && g_ww[base + k] == word) {
                found = k;
                break;
            }
        }
        if (found >= 0) {
            g_ws[base + found] = g_dclock;
        } else {
            g_wb[base + g_wlen[si]] = block;
            g_ww[base + g_wlen[si]] = word;
            g_ws[base + g_wlen[si]] = g_dclock;
            g_wlen[si]++;
        }
    }
    while (g_wlen[si] > g_woc_cap) {
        int64_t best = 0, bs = g_ws[base];
        for (k = 1; k < g_wlen[si]; k++) {
            if (g_ws[base + k] < bs) {
                bs = g_ws[base + k];
                best = k;
            }
        }
        /* order-preserving compaction (dict deletion keeps order) */
        for (k = best; k < g_wlen[si] - 1; k++) {
            g_wb[base + k] = g_wb[base + k + 1];
            g_ww[base + k] = g_ww[base + k + 1];
            g_ws[base + k] = g_ws[base + k + 1];
        }
        g_wlen[si]--;
    }
}

static int dist_access(int64_t b, int write, int64_t word) {
    g_dstats[ACC]++;
    int64_t slot = c_access(&L3, b, write);
    if (slot >= 0) {
        g_dstats[HIT]++;
        g_usage[slot] |= (uint8_t)1 << word;
        return 1;
    }
    int64_t si = b % L3.sets, base = si * g_woc_slots, k;
    for (k = 0; k < g_wlen[si]; k++) {
        if (g_wb[base + k] == b && g_ww[base + k] == word) {
            g_dclock++;
            g_ws[base + k] = g_dclock;
            g_dstats[HIT]++;
            return 1;
        }
    }
    g_dstats[MISS]++;
    return 0;
}

static int dist_fill(int64_t b, int dirty, int pf, int64_t word,
                     int64_t *evb, int *evd) {
    int64_t slot;
    int r = c_fill_k(&L3, b, dirty, pf, LLC_LRU, 0, 0, 0, evb, evd,
                     &slot);
    if (r == 0) {
        g_usage[slot] |= (uint8_t)1 << word;
        return 0;
    }
    if (r == 1) {
        g_usage[slot] = (uint8_t)1 << word;
        return 0;
    }
    uint8_t vbits = g_usage[slot];
    g_usage[slot] = (uint8_t)1 << word;
    dist_distill(*evb, vbits);
    g_dstats[EV]++;
    if (*evd)
        g_dstats[WB]++;
    return 1;
}

/* ---------------------------------------------------------------- */
/* LLC dispatch on g_llc_kind (an LLC_* code)                        */
/* ---------------------------------------------------------------- */

static inline int64_t aux_word_at(int has_aux, int64_t i) {
    return has_aux ? (g_aux_word[i] % 8) : 0;
}

static int llc_access(int64_t b, int write, int has_aux, int64_t i) {
    if (g_llc_kind == LLC_DISTILL)
        return dist_access(b, write, aux_word_at(has_aux, i));
    if (g_llc_kind == LLC_BELADY)
        return c_access_k(&L3, b, write, LLC_BELADY, has_aux,
                          has_aux ? g_aux_next[i] : 0,
                          has_aux ? g_aux_irr[i] : 0) >= 0;
    return c_access_k(&L3, b, write, (int)g_llc_kind, 0, 0, 0) >= 0;
}

/* A fill with has_aux carries access i's aux: its next use for Belady,
 * its PC for SHiP (writebacks fill without one). */
static int llc_fill(int64_t b, int dirty, int pf, int has_aux, int64_t i,
                    int64_t *evb, int *evd) {
    if (g_llc_kind == LLC_DISTILL)
        return dist_fill(b, dirty, pf, aux_word_at(has_aux, i), evb, evd)
            ? 2 : 0;
    if (g_llc_kind == LLC_BELADY)
        return c_fill_k(&L3, b, dirty, pf, LLC_BELADY, has_aux,
                        has_aux ? g_aux_next[i] : 0,
                        has_aux ? g_aux_irr[i] : 0, evb, evd, NULL);
    return c_fill_k(&L3, b, dirty, pf, (int)g_llc_kind, has_aux,
                    has_aux ? rec_pc(i) : 0, 0, evb, evd, NULL);
}

static int llc_mark_dirty(int64_t b) {
    return c_mark_dirty(&L3, b);     /* DistillCache delegates to LOC */
}

static int llc_contains(int64_t b) {
    return c_contains(&L3, b);       /* DistillCache.contains == LOC */
}

/* ---------------------------------------------------------------- */
/* Hierarchy plumbing (repro.mem.hierarchy.MemoryHierarchy)          */
/* ---------------------------------------------------------------- */

static void wb_to_llc(int64_t b) {
    int64_t evb;
    int evd;
    if (llc_mark_dirty(b))
        return;
    if (llc_fill(b, 1, 0, 0, 0, &evb, &evd) == 2 && evd)
        dram_write(evb);
}

static void wb_to_l2(int64_t b) {
    int64_t evb;
    int evd;
    if (c_mark_dirty(&L2, b))
        return;
    if (c_fill(&L2, b, 1, 0, &evb, &evd) == 2 && evd)
        wb_to_llc(evb);
}

static void fill_l1(int64_t b, int dirty, int pf) {
    int64_t evb;
    int evd;
    if (c_fill(&L1, b, dirty, pf, &evb, &evd) == 2 && evd)
        wb_to_l2(evb);
}

static void fill_l2(int64_t b, int pf) {
    int64_t evb;
    int evd;
    if (c_fill(&L2, b, 0, pf, &evb, &evd) == 2 && evd)
        wb_to_llc(evb);
}

static void fill_llc(int64_t b, int has_aux, int64_t i, int pf) {
    int64_t evb;
    int evd;
    if (llc_fill(b, 0, pf, has_aux, i, &evb, &evd) == 2 && evd)
        dram_write(evb);
}

/* ---------------------------------------------------------------- */
/* SPP prefetcher (repro.mem.prefetch.SPPPrefetcher)                 */
/* ---------------------------------------------------------------- */

static inline int64_t tk_hash(int64_t page) {
    return (int64_t)(((uint64_t)page * 0x9E3779B97F4A7C15ULL) >> 50);
}

static int64_t tk_find(int64_t page) {
    int64_t h = tk_hash(page);
    while (g_tk_page[h] != -1) {
        if (g_tk_page[h] == page)
            return h;
        h = (h + 1) & (TK_CAP - 1);
    }
    return -1;
}

static int spp_on_access(int64_t block, int64_t *cand) {
    int64_t page = block >> 6;
    int64_t offset = block & 63;
    int64_t ti = tk_find(page);
    int npf = 0;
    if (ti >= 0) {
        int64_t sig = g_tk_sig[ti];
        int64_t delta = offset - g_tk_off[ti];
        if (delta != 0) {
            /* update pattern table */
            int64_t base = sig * SP_SLOTS, k, found = -1;
            int32_t len = g_sp_len[sig];
            for (k = 0; k < len; k++) {
                if (g_sp_d[base + k] == (int8_t)delta) {
                    found = k;
                    break;
                }
            }
            if (found >= 0) {
                int c = g_sp_c[base + found] + 1;
                g_sp_c[base + found] = c < 16 ? (int16_t)c : 16;
            } else {
                g_sp_d[base + len] = (int8_t)delta;
                g_sp_c[base + len] = 1;
                g_sp_len[sig] = ++len;
            }
            int32_t total = g_sp_tot[sig] + 1;
            if (total > 64) {
                /* halve in insertion order, drop zeros, re-sum */
                int32_t out = 0;
                total = 0;
                for (k = 0; k < len; k++) {
                    int16_t c = (int16_t)(g_sp_c[base + k] >> 1);
                    if (c > 0) {
                        g_sp_d[base + out] = g_sp_d[base + k];
                        g_sp_c[base + out] = c;
                        total += c;
                        out++;
                    }
                }
                g_sp_len[sig] = out;
            }
            g_sp_tot[sig] = total;
            sig = ((sig << 3) ^ (delta & 0x7F)) & 0xFFF;
            /* walk the signature path while confident */
            double conf = 1.0;
            int64_t cur_off = offset, cur_sig = sig;
            int depth;
            for (depth = 0; depth < 4; depth++) {
                int32_t len2 = g_sp_len[cur_sig];
                if (!len2)
                    break;
                int32_t tot = g_sp_tot[cur_sig];
                if (tot <= 0)
                    break;
                int64_t b2 = cur_sig * SP_SLOTS;
                int64_t best_d = 0;
                int32_t best_c = -1;
                for (k = 0; k < len2; k++) {
                    if (g_sp_c[b2 + k] > best_c) {
                        best_c = g_sp_c[b2 + k];
                        best_d = g_sp_d[b2 + k];
                    }
                }
                conf *= (double)best_c / (double)tot;
                if (conf < 0.25)
                    break;
                cur_off += best_d;
                if (cur_off < 0 || cur_off >= 64)
                    break;
                cand[npf++] = (page << 6) + cur_off;
                cur_sig = ((cur_sig << 3) ^ (best_d & 0x7F)) & 0xFFF;
            }
        }
        g_tk_off[ti] = offset;
        g_tk_sig[ti] = sig;
    } else {
        if (g_tk_count > 4096) {
            memset(g_tk_page, -1, TK_CAP * sizeof(int64_t));
            g_tk_count = 0;
        }
        int64_t h = tk_hash(page);
        while (g_tk_page[h] != -1)
            h = (h + 1) & (TK_CAP - 1);
        g_tk_page[h] = page;
        g_tk_off[h] = offset;
        g_tk_sig[h] = 0;
        g_tk_count++;
    }
    return npf;
}

static void l2_prefetch_step(int64_t block, int filter_sdc) {
    int64_t cand[4];
    int n = spp_on_access(block, cand), k;
    for (k = 0; k < n; k++) {
        int64_t pf = cand[k];
        if (c_contains(&L2, pf))
            continue;
        if (filter_sdc && c_contains(&SD, pf))
            continue;
        fill_l2(pf, 1);
    }
}

/* ---------------------------------------------------------------- */
/* Predictor table shared by the LP and the CLP                      */
/* ---------------------------------------------------------------- */

/* pc's slot, found (*hit = 1, stamp refreshed) or allocated over a
 * free way or the least recently stamped one (*hit = 0, zero counter,
 * address ``block``).  Counts lookups, table hits and misses. */
static int64_t pt_slot(int64_t pc, int64_t block, int *hit) {
    g_lp_stats[0]++;                                    /* lookups */
    int64_t idx = pc >> 2;
    int64_t si = idx & g_lp_set_mask;
    /* tag-less: Python keys every slot by idx >> 200, i.e. 0 */
    int64_t tag = g_lp_tagless ? 0 : idx >> g_lp_set_bits;
    int64_t base = si * g_lp_ways, w, slot = -1;
    g_lp_clock++;
    for (w = 0; w < g_lp_ways; w++) {
        if (g_lp_tag[base + w] == tag) {
            slot = base + w;
            g_lp_stats[1]++;                            /* table_hits */
            g_lp_stamp[slot] = g_lp_clock;
            *hit = 1;
            return slot;
        }
    }
    g_lp_stats[2]++;                                    /* table_misses */
    if (g_lp_occ[si] >= g_lp_ways) {
        int64_t bs = g_lp_stamp[base];
        slot = base;
        for (w = 1; w < g_lp_ways; w++) {
            if (g_lp_tag[base + w] >= 0 && g_lp_stamp[base + w] < bs) {
                bs = g_lp_stamp[base + w];
                slot = base + w;
            }
        }
    } else {
        for (w = 0; w < g_lp_ways; w++) {
            if (g_lp_tag[base + w] < 0) {
                slot = base + w;
                break;
            }
        }
        g_lp_occ[si]++;
    }
    g_lp_tag[slot] = tag;
    g_lp_addr[slot] = block;
    g_lp_sacc[slot] = 0;
    g_lp_stamp[slot] = g_lp_clock;
    *hit = 0;
    return slot;
}

/* Count a prediction in the irregular/regular stats and return it. */
static int pt_verdict(int irregular) {
    if (irregular)
        g_lp_stats[3]++;                                /* irregular */
    else
        g_lp_stats[4]++;                                /* regular */
    return irregular;
}

/* Large Predictor (repro.core.lp.LargePredictor): a hit predicts from
 * the averaged stride, then folds in the new one. */
static int lp_predict(int64_t pc, int64_t block) {
    int hit;
    int64_t slot = pt_slot(pc, block, &hit);
    int irregular = hit && g_lp_sacc[slot] >= g_lp_tau;
    if (hit) {
        int64_t stride = block - g_lp_addr[slot];
        if (stride < 0)
            stride = -stride;
        int64_t s_acc = (g_lp_sacc[slot] + stride) >> 1;
        g_lp_sacc[slot] = s_acc <= g_lp_smax ? s_acc : g_lp_smax;
        g_lp_addr[slot] = block;
    }
    return pt_verdict(irregular);
}

/* Cache-Level Predictor (repro.core.clp.CacheLevelPredictor).
 * predict(): consult, allocating a zero counter on a table miss; the
 * counter lives in the s_acc column and the address goes unused. */
static int clp_predict(int64_t pc) {
    int hit;
    g_clp_slot = pt_slot(pc, 0, &hit);
    return pt_verdict(hit && g_lp_sacc[g_clp_slot] >= g_lp_tau);
}

/* update(): fold the serving level into the entry predict() left,
 * which nothing can evict in between. */
static void clp_update(int level) {
    int64_t ctr = (g_lp_sacc[g_clp_slot] + g_clp_weight[level]) >> 1;
    g_lp_sacc[g_clp_slot] = ctr <= g_lp_smax ? ctr : g_lp_smax;
}

/* ---------------------------------------------------------------- */
/* SDC directory (repro.core.sdcdir.SDCDirectory), core id 0 only.   */
/* ---------------------------------------------------------------- */

static inline int64_t dir_setof(int64_t b) {
    return g_dir_mask >= 0 ? (b & g_dir_mask) : (b % g_dir_sets);
}

static int64_t dir_find(int64_t b) {
    int64_t base = dir_setof(b) * g_dir_ways, w;
    for (w = 0; w < g_dir_ways; w++)
        if (g_db[base + w] == b)
            return base + w;
    return -1;
}

/* Returns 1 and fills dis* when a victim entry was displaced. */
static int dir_insert(int64_t b, int dirty, int64_t *disb,
                      int64_t *dissh, int64_t *disdc) {
    int64_t si = dir_setof(b), base = si * g_dir_ways, w;
    g_dir_clock++;
    int64_t slot = dir_find(b);
    if (slot >= 0) {
        g_dsh[slot] |= 1;
        if (dirty)
            g_ddc[slot] = 0;
        g_dst[slot] = g_dir_clock;
        return 0;
    }
    int displaced = 0;
    if (g_docc[si] >= g_dir_ways) {
        /* dict order == stamp order; victim = min stamp */
        int64_t best = -1, bs = 0;
        for (w = 0; w < g_dir_ways; w++) {
            int64_t j = base + w;
            if (g_db[j] == -1)
                continue;
            if (best < 0 || g_dst[j] < bs) {
                bs = g_dst[j];
                best = j;
            }
        }
        *disb = g_db[best];
        *dissh = g_dsh[best];
        *disdc = g_ddc[best];
        displaced = 1;
        slot = best;
    } else {
        for (w = 0; w < g_dir_ways; w++) {
            if (g_db[base + w] == -1) {
                slot = base + w;
                break;
            }
        }
        g_docc[si]++;
    }
    g_db[slot] = b;
    g_dsh[slot] = 1;
    g_ddc[slot] = dirty ? 0 : -1;
    g_dst[slot] = g_dir_clock;
    return displaced;
}

/* Returns 2*was_present + was_dirty_owner. */
static int dir_remove_sharer(int64_t b) {
    int64_t slot = dir_find(b);
    if (slot < 0)
        return 0;
    int was_owner = g_ddc[slot] == 0;
    g_dsh[slot] &= ~(int64_t)1;
    if (was_owner)
        g_ddc[slot] = -1;
    if (g_dsh[slot] == 0) {
        g_db[slot] = -1;
        g_docc[dir_setof(b)]--;
    }
    return 2 + (was_owner ? 1 : 0);
}

static void dir_mark_dirty(int64_t b) {
    int64_t slot = dir_find(b);
    if (slot >= 0)
        g_ddc[slot] = 0;
}

static int dir_clear_dirty(int64_t b) {
    int64_t slot = dir_find(b);
    if (slot < 0 || g_ddc[slot] < 0)
        return 0;
    g_ddc[slot] = -1;
    return 1;
}

/* ---------------------------------------------------------------- */
/* TLB (repro.mem.tlb)                                               */
/* ---------------------------------------------------------------- */

static int64_t tlb_find(TLBLevel *L, int64_t page) {
    int64_t si = L->mask >= 0 ? (page & L->mask) : (page % L->sets);
    int64_t base = si * L->ways, w;
    for (w = 0; w < L->ways; w++)
        if (L->page[base + w] == page)
            return base + w;
    return -1;
}

static int tlb_level_access(TLBLevel *L, int64_t page) {
    L->clock++;
    int64_t slot = tlb_find(L, page);
    if (slot >= 0) {
        L->stamp[slot] = L->clock;
        return 1;
    }
    return 0;
}

static void tlb_level_fill(TLBLevel *L, int64_t page) {
    L->clock++;
    int64_t slot = tlb_find(L, page);
    if (slot >= 0) {
        L->stamp[slot] = L->clock;    /* in-place: dict slot kept */
        return;
    }
    int64_t si = L->mask >= 0 ? (page & L->mask) : (page % L->sets);
    int64_t base = si * L->ways, w;
    if (L->occ[si] >= L->ways) {
        int64_t best = -1, bs = 0;
        for (w = 0; w < L->ways; w++) {
            int64_t j = base + w;
            if (L->page[j] == -1)
                continue;
            if (best < 0 || L->stamp[j] < bs) {
                bs = L->stamp[j];
                best = j;
            }
        }
        slot = best;
    } else {
        for (w = 0; w < L->ways; w++) {
            if (L->page[base + w] == -1) {
                slot = base + w;
                break;
            }
        }
        L->occ[si]++;
    }
    L->page[slot] = page;
    L->stamp[slot] = L->clock;
}

static int64_t tlb_translate(int64_t page) {
    g_tlb_stats[0]++;                                   /* accesses */
    T1.clock++;
    int64_t slot = tlb_find(&T1, page);
    if (slot >= 0) {
        T1.stamp[slot] = T1.clock;
        g_tlb_stats[1]++;                               /* l1_hits */
        return 0;
    }
    if (tlb_level_access(&T2, page)) {
        g_tlb_stats[2]++;                               /* l2_hits */
        tlb_level_fill(&T1, page);
        return g_tlb_l2_lat;
    }
    g_tlb_stats[3]++;                                   /* walks */
    tlb_level_fill(&T2, page);
    tlb_level_fill(&T1, page);
    return g_tlb_l2_lat + g_tlb_walk_lat;
}

/* ---------------------------------------------------------------- */
/* SDC system plumbing (repro.core.system.SingleCoreSystem)          */
/* ---------------------------------------------------------------- */

/* hierarchy.extract: invalidate L1/L2/LLC; latency = max holder lat.
 * Packs latency into *lat, returns was_present. */
static int h_extract(int64_t b, int64_t *lat) {
    int present = 0;
    int64_t latency = 0;
    if (c_invalidate(&L1, b)) {
        present = 1;
        if (L1.latency > latency)
            latency = L1.latency;
    }
    if (c_invalidate(&L2, b)) {
        present = 1;
        if (L2.latency > latency)
            latency = L2.latency;
    }
    if (c_invalidate(&L3, b)) {
        present = 1;
        if (L3.latency > latency)
            latency = L3.latency;
    }
    *lat = latency;
    return present;
}

/* _probe_hierarchy_clean: returns serve latency or -1. */
static int64_t probe_clean(int64_t b) {
    Cache *levels[3] = { &L1, &L2, &L3 };
    int64_t serve = -1;
    int was_dirty = 0;
    int k;
    for (k = 0; k < 3; k++) {
        Cache *c = levels[k];
        int64_t i = c_find(c, c_set(c, b), c_tagof(c, b));
        if (i >= 0) {
            if (serve < 0)
                serve = c->latency;
            if (c->dirty[i]) {
                c->dirty[i] = 0;
                was_dirty = 1;
            }
        }
    }
    if (was_dirty)
        dram_write(b);
    return serve;
}

/* SDCDirectory.install for core 0: a demand or prefetch fill. */
static void sdc_install(int64_t b, int dirty, int prefetch) {
    int64_t disb, dissh, disdc, evb;
    int evd;
    if (dir_insert(b, dirty, &disb, &dissh, &disdc)) {
        int r = c_invalidate(&SD, disb);
        if ((r == 3) || disdc == 0)
            dram_write(disb);
    }
    if (c_fill(&SD, b, dirty, prefetch, &evb, &evd) == 2) {
        int rm = dir_remove_sharer(evb);
        if (evd || (rm & 1))
            dram_write(evb);
    }
}

static void sdc_prefetch(int64_t b) {
    if (g_sdc_pf && !c_contains(&SD, b) && !c_contains(&L1, b)
            && !c_contains(&L2, b) && !c_contains(&L3, b))
        sdc_install(b, 0, 1);
}

/* ---------------------------------------------------------------- */
/* Access paths.  Each returns the level code and adds to *lat.      */
/* ---------------------------------------------------------------- */

static int access_plain(int64_t b, int write, int64_t i, int64_t *lat) {
    int has_aux = g_aux_mode != 0;
    int64_t latency = L1.latency;
    int l1_hit = c_access(&L1, b, write) >= 0;
    if (g_l1_next_line) {
        int64_t pf = b + 1;
        if (!c_contains(&L1, pf))
            fill_l1(pf, 0, 1);
    }
    if (l1_hit) {
        *lat = latency;
        return L1D_LV;
    }
    latency += L2.latency;
    int l2_hit = c_access(&L2, b, 0) >= 0;
    if (g_l2_spp)
        l2_prefetch_step(b, 0);
    if (l2_hit) {
        fill_l1(b, write, 0);
        *lat = latency;
        return L2C_LV;
    }
    latency += g_llc_lat;
    if (llc_access(b, 0, has_aux, i)) {
        fill_l2(b, 0);
        fill_l1(b, write, 0);
        *lat = latency;
        return LLC_LV;
    }
    latency += dram_read(b);
    fill_llc(b, has_aux, i, 0);
    fill_l2(b, 0);
    fill_l1(b, write, 0);
    *lat = latency;
    return DRAM_LV;
}

static int access_via_sdc(int64_t b, int write, int64_t *lat) {
    int64_t latency = SD.latency, plat;
    if (c_access(&SD, b, write) >= 0) {
        if (write) {
            dir_mark_dirty(b);
            h_extract(b, &plat);
        }
        sdc_prefetch(b + 1);
        *lat = latency;
        return SDC_LV;
    }
    latency += g_sdc_miss_dir_lat;
    int64_t served = -1;
    if (write) {
        if (h_extract(b, &plat))
            served = plat;
    } else {
        served = probe_clean(b);
    }
    int level = L2C_LV;
    if (served < 0) {
        served = dram_read(b);
        level = DRAM_LV;
    }
    sdc_install(b, write, 0);
    sdc_prefetch(b + 1);
    *lat = latency + served;
    return level;
}

static int access_regular_with_sdc(int64_t b, int write, int64_t i,
                                   int64_t *lat) {
    int has_aux = g_aux_mode != 0;
    int64_t latency = L1.latency;
    int l1_hit = c_access(&L1, b, write) >= 0;
    if (g_l1_next_line) {
        int64_t pf = b + 1;
        if (!c_contains(&L1, pf) && !c_contains(&SD, pf))
            fill_l1(pf, 0, 1);
    }
    if (l1_hit) {
        if (write && c_contains(&SD, b)) {
            c_invalidate(&SD, b);
            dir_remove_sharer(b);
        }
        *lat = latency;
        return L1D_LV;
    }
    if (c_contains(&SD, b)) {
        int64_t alt = SD.latency + g_dir_lat;
        latency += L2.latency > alt ? L2.latency : alt;
        if (write) {
            c_invalidate(&SD, b);
            dir_remove_sharer(b);
            fill_l1(b, 1, 0);
        } else {
            if (c_clear_dirty(&SD, b)) {
                dir_clear_dirty(b);
                dram_write(b);
            }
            fill_l1(b, 0, 0);
        }
        *lat = latency;
        return SDC_LV;
    }
    latency += L2.latency;
    int l2_hit = c_access(&L2, b, 0) >= 0;
    if (g_l2_spp)
        l2_prefetch_step(b, 1);
    if (l2_hit) {
        fill_l1(b, write, 0);
        *lat = latency;
        return L2C_LV;
    }
    latency += g_llc_lat;
    if (llc_access(b, 0, has_aux, i)) {
        fill_l2(b, 0);
        fill_l1(b, write, 0);
        *lat = latency;
        return LLC_LV;
    }
    latency += dram_read(b);
    fill_llc(b, has_aux, i, 0);
    fill_l2(b, 0);
    fill_l1(b, write, 0);
    *lat = latency;
    return DRAM_LV;
}

static void fill_l1_victim(int64_t b, int dirty, int pf) {
    int64_t evb, vevb;
    int evd, vevd;
    if (c_fill(&L1, b, dirty, pf, &evb, &evd) == 2) {
        /* every L1 eviction (clean too) lands in the victim cache */
        if (c_fill(&VC, evb, evd, 0, &vevb, &vevd) == 2 && vevd)
            wb_to_l2(vevb);
    }
}

static int access_victim(int64_t b, int write, int64_t i, int64_t *lat) {
    int has_aux = g_aux_mode != 0;
    int64_t latency = L1.latency;
    int l1_hit = c_access(&L1, b, write) >= 0;
    if (g_l1_next_line) {
        int64_t pf = b + 1;
        if (!c_contains(&L1, pf) && !c_contains(&VC, pf))
            fill_l1_victim(pf, 0, 1);
    }
    if (l1_hit) {
        *lat = latency;
        return L1D_LV;
    }
    latency += VC.latency;
    if (c_access(&VC, b, write) >= 0) {
        int r = c_invalidate(&VC, b);
        fill_l1_victim(b, write || (r & 1), 0);
        *lat = latency;
        return SDC_LV;
    }
    latency += L2.latency;
    int l2_hit = c_access(&L2, b, 0) >= 0;
    if (g_l2_spp)
        l2_prefetch_step(b, 0);
    if (l2_hit) {
        fill_l1_victim(b, write, 0);
        *lat = latency;
        return L2C_LV;
    }
    latency += g_llc_lat;
    if (llc_access(b, 0, has_aux, i)) {
        fill_l2(b, 0);
        fill_l1_victim(b, write, 0);
        *lat = latency;
        return LLC_LV;
    }
    latency += dram_read(b);
    fill_llc(b, has_aux, i, 0);
    fill_l2(b, 0);
    fill_l1_victim(b, write, 0);
    *lat = latency;
    return DRAM_LV;
}

static int access_lp_bypass(int64_t b, int write, int64_t *lat) {
    int64_t latency = L1.latency;
    int l1_hit = c_access(&L1, b, write) >= 0;
    if (g_l1_next_line) {
        int64_t pf = b + 1;
        if (!c_contains(&L1, pf))
            fill_l1(pf, 0, 1);
    }
    if (l1_hit) {
        *lat = latency;
        return L1D_LV;
    }
    latency += g_sdc_miss_dir_lat;
    if (c_contains(&L2, b)) {
        latency += L2.latency;
        c_access(&L2, b, 0);
        fill_l1(b, write, 0);
        *lat = latency;
        return L2C_LV;
    }
    if (llc_contains(b)) {
        latency += g_llc_lat;
        llc_access(b, 0, 0, 0);
        fill_l1(b, write, 0);
        *lat = latency;
        return LLC_LV;
    }
    latency += dram_read(b);
    fill_l1(b, write, 0);
    *lat = latency;
    return DRAM_LV;
}

/* ---------------------------------------------------------------- */
/* Core timer (repro.mem.timing.CoreTimer) — float-exact port        */
/* ---------------------------------------------------------------- */

typedef struct {
    double *a;
    int64_t len;
} Heap;

static void heap_push(Heap *h, double v) {
    int64_t pos = h->len++;
    h->a[pos] = v;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (h->a[pos] < h->a[parent]) {
            double t = h->a[pos];
            h->a[pos] = h->a[parent];
            h->a[parent] = t;
            pos = parent;
        } else {
            break;
        }
    }
}

static double heap_pop(Heap *h) {
    double top = h->a[0];
    h->len--;
    if (h->len > 0) {
        h->a[0] = h->a[h->len];
        int64_t pos = 0;
        for (;;) {
            int64_t l = 2 * pos + 1, r = l + 1, small = pos;
            if (l < h->len && h->a[l] < h->a[small])
                small = l;
            if (r < h->len && h->a[r] < h->a[small])
                small = r;
            if (small == pos)
                break;
            double t = h->a[pos];
            h->a[pos] = h->a[small];
            h->a[small] = t;
            pos = small;
        }
    }
    return top;
}

typedef struct {
    double issue_time, finish_time;
    int64_t instructions;
    int64_t width, rob_window, hit_latency;
    int64_t limits[2];
    Heap out[2];
    double *rob;          /* ring buffer, capacity rob_window */
    int64_t rob_head, rob_len;
} Timer;

static Timer g_timer;

static void timer_reset(void) {
    g_timer.issue_time = 0.0;
    g_timer.finish_time = 0.0;
    g_timer.instructions = 0;
    g_timer.out[0].len = 0;
    g_timer.out[1].len = 0;
    g_timer.rob_head = 0;
    g_timer.rob_len = 0;
}

static double timer_access(int64_t gap, int64_t latency, int has_dep,
                           double dep_completion, int pool) {
    Timer *t = &g_timer;
    int64_t ops = 1 + gap;
    t->instructions += ops;
    double issue = t->issue_time + (double)ops / (double)t->width;
    double start = issue;
    if (has_dep && dep_completion > start)
        start = dep_completion;
    if (t->rob_len >= t->rob_window) {
        double oldest = t->rob[t->rob_head];
        t->rob_head = (t->rob_head + 1) % t->rob_window;
        t->rob_len--;
        if (oldest > start) {
            start = oldest;
            issue = oldest;
        }
    }
    double completion;
    if (latency > t->hit_latency) {
        Heap *h = &t->out[pool];
        while (h->len && h->a[0] <= start)
            heap_pop(h);
        if (h->len >= t->limits[pool]) {
            double freed = heap_pop(h);
            start = freed;
            if (freed > issue)
                issue = freed;
        }
        completion = start + (double)latency;
        heap_push(h, completion);
    } else {
        completion = start + (double)latency;
    }
    t->issue_time = issue;
    int64_t tail = (t->rob_head + t->rob_len) % t->rob_window;
    t->rob[tail] = completion;
    t->rob_len++;
    if (completion > t->finish_time)
        t->finish_time = completion;
    return completion;
}

/* ---------------------------------------------------------------- */
/* Warm-up reset / context-switch flush                              */
/* ---------------------------------------------------------------- */

/* Zero every counter, at the start of a run and at the warm-up
 * boundary (SingleCoreSystem._reset_stats, which leaves the distill
 * LOC's and the victim cache's own counters alone: no output reads
 * them). */
static void reset_stats(void) {
    memset(L1.stats, 0, sizeof L1.stats);
    memset(L2.stats, 0, sizeof L2.stats);
    memset(L3.stats, 0, sizeof L3.stats);
    memset(SD.stats, 0, sizeof SD.stats);
    memset(VC.stats, 0, sizeof VC.stats);
    memset(g_dstats, 0, sizeof g_dstats);
    memset(g_dram, 0, sizeof g_dram);
    memset(g_lp_stats, 0, sizeof g_lp_stats);
    memset(g_tlb_stats, 0, sizeof g_tlb_stats);
}

static void flush_sdc_state(void) {
    int64_t k;
    if (g_path == PATH_SDC) {
        int64_t cnt = 0;
        for (k = 0; k < SD.sets * SD.ways; k++)
            if (SD.tags[k] >= 0 && SD.dirty[k])
                cnt++;
        g_dram[DWRITES] += cnt;
        c_flush(&SD);
        for (k = 0; k < g_dir_sets * g_dir_ways; k++)
            g_db[k] = -1;
        memset(g_docc, 0, g_dir_sets * sizeof(int64_t));
    }
    if (g_pred == PRED_LP || g_pred == PRED_CLP) {
        for (k = 0; k < g_lp_sets * g_lp_ways; k++)
            g_lp_tag[k] = -1;
        memset(g_lp_occ, 0, g_lp_sets * sizeof(int64_t));
    }
}

/* ---------------------------------------------------------------- */
/* Entry points                                                      */
/* ---------------------------------------------------------------- */

int64_t repro_batch_abi(void) {
    return ABI_VERSION;
}

/* ---- state arrays: allocated per run, released on every return ---- */

#define MAX_OWNED 80

/* How an owned array starts: at 0, at -1 (every byte 0xff), or
 * unset, for an array the run writes before it reads each element. */
enum { ZERO = 0, NEG1, UNSET };

typedef struct {
    void *p;
    size_t bytes;
    int start;
} Owned;

static Owned g_owned[MAX_OWNED];
static int g_nowned, g_alloc_failed;

/* count elements (at least one) of size bytes, starting as start
 * says; NULL, which fails the run, when count * size overflows, the
 * table is full or malloc fails. */
static void *own(int64_t count, size_t size, int start) {
    void *p = NULL;
    size_t bytes = 0;
    if (count < 1)
        count = 1;
    if (g_nowned < MAX_OWNED && (uint64_t)count <= SIZE_MAX / size) {
        bytes = (size_t)count * size;
        p = start == ZERO ? calloc((size_t)count, size) : malloc(bytes);
    }
    if (!p) {
        g_alloc_failed = 1;
        return NULL;
    }
    g_owned[g_nowned++] = (Owned){ p, bytes, start };
    return p;
}

static void release_state(void) {
    while (g_nowned > 0)
        free(g_owned[--g_nowned].p);
    g_alloc_failed = 0;
}

/* A cache from its five geometry slots g. */
static void own_cache(Cache *c, const int64_t *g) {
    const int64_t slots = g[0] * g[1];
    c->sets = g[0];
    c->ways = g[1];
    c->latency = g[2];
    c->mask = g[3];
    c->bits = g[4];
    c->clock = 0;
    c->seqc = 0;
    c->tags = own(slots, sizeof(int64_t), NEG1);
    c->prio = own(slots, sizeof(int64_t), ZERO);
    c->seq = own(slots, sizeof(int64_t), ZERO);
    c->dirty = own(slots, sizeof(uint8_t), ZERO);
    c->pf = own(slots, sizeof(uint8_t), ZERO);
    c->occ = own(c->sets, sizeof(int64_t), ZERO);
}

/* A TLB level from its three geometry slots g. */
static void own_tlb(TLBLevel *L, const int64_t *g) {
    L->sets = g[0];
    L->ways = g[1];
    L->mask = g[2];
    L->clock = 0;
    L->page = own(L->sets * L->ways, sizeof(int64_t), NEG1);
    L->stamp = own(L->sets * L->ways, sizeof(int64_t), ZERO);
    L->occ = own(L->sets, sizeof(int64_t), ZERO);
}

/* Allocate every state array of a run, sized from icfg's geometry
 * slots, and start it as a fresh Python system holds it: tags, keys
 * and tracker pages at -1, the SHCT at its initial counter, the rest
 * at 0 but for the arrays written before they are read; an absent
 * structure is a 1x1 dummy.  On failure every array is released, none
 * touched, and ERR_ALLOC returned. */
static int64_t alloc_state(const int64_t *icfg, double **completions) {
    own_cache(&L1, icfg + 16);
    own_cache(&L2, icfg + 21);
    own_cache(&L3, icfg + 26);
    own_cache(&SD, icfg + 31);
    own_cache(&VC, icfg + 36);
    own_tlb(&T1, icfg + 58);
    own_tlb(&T2, icfg + 61);
    const int64_t l3_slots = L3.sets * L3.ways;
    const int64_t woc_sets = g_llc_kind == LLC_DISTILL ? L3.sets : 1;
    const int ship = g_llc_kind == LLC_SHIP;
    const int64_t dir_slots = g_dir_sets * g_dir_ways;
    const int64_t lp_slots = g_lp_sets * g_lp_ways;
    const int64_t sigs = g_l2_spp ? SP_SIGS : 1;
    const int64_t trackers = g_l2_spp ? TK_CAP : 1;
    int k;
    g_usage = own(l3_slots, sizeof(uint8_t), ZERO);
    g_wb = own(woc_sets * g_woc_slots, sizeof(int64_t), ZERO);
    g_ww = own(woc_sets * g_woc_slots, sizeof(int64_t), ZERO);
    g_ws = own(woc_sets * g_woc_slots, sizeof(int64_t), ZERO);
    g_wlen = own(woc_sets, sizeof(int64_t), ZERO);
    g_shct = own(ship ? g_shct_mask + 1 : 1, sizeof(int64_t), ZERO);
    g_ship_sig = own(ship ? l3_slots : 1, sizeof(int64_t), ZERO);
    g_ship_reused = own(ship ? l3_slots : 1, sizeof(uint8_t), ZERO);
    g_rows = own(g_banks, sizeof(int64_t), NEG1);
    g_lp_tag = own(lp_slots, sizeof(int64_t), NEG1);
    g_lp_addr = own(lp_slots, sizeof(int64_t), ZERO);
    g_lp_sacc = own(lp_slots, sizeof(int64_t), ZERO);
    g_lp_stamp = own(lp_slots, sizeof(int64_t), ZERO);
    g_lp_occ = own(g_lp_sets, sizeof(int64_t), ZERO);
    g_db = own(dir_slots, sizeof(int64_t), NEG1);
    g_dsh = own(dir_slots, sizeof(int64_t), ZERO);
    g_ddc = own(dir_slots, sizeof(int64_t), ZERO);
    g_dst = own(dir_slots, sizeof(int64_t), ZERO);
    g_docc = own(g_dir_sets, sizeof(int64_t), ZERO);
    /* A pattern row is read only below g_sp_len[sig], and a tracker's
     * offset and signature only once g_tk_page holds its page: both
     * are written first, so neither array is zeroed. */
    g_sp_d = own(sigs * SP_SLOTS, sizeof(int8_t), UNSET);
    g_sp_c = own(sigs * SP_SLOTS, sizeof(int16_t), UNSET);
    g_sp_len = own(sigs, sizeof(int32_t), ZERO);
    g_sp_tot = own(sigs, sizeof(int32_t), ZERO);
    g_tk_page = own(trackers, sizeof(int64_t), NEG1);
    g_tk_off = own(trackers, sizeof(int64_t), UNSET);
    g_tk_sig = own(trackers, sizeof(int64_t), UNSET);
    g_timer.out[0].a = own(g_timer.limits[0] + 1, sizeof(double), ZERO);
    g_timer.out[1].a = own(g_timer.limits[1] + 1, sizeof(double), ZERO);
    g_timer.rob = own(g_timer.rob_window, sizeof(double), ZERO);
    *completions = own(icfg[0], sizeof(double), ZERO);
    if (g_alloc_failed) {
        release_state();
        return ERR_ALLOC;
    }
    for (k = 0; k < g_nowned; k++)
        if (g_owned[k].start == NEG1)
            memset(g_owned[k].p, 0xff, g_owned[k].bytes);
    if (ship)
        for (k = 0; k <= g_shct_mask; k++)
            g_shct[k] = g_shct_max / 2;     /* SHiPPolicy: COUNTER_MAX // 2 */
    return 0;
}

static int64_t pymod(int64_t x, int64_t m) {
    int64_t r = x % m;
    return r < 0 ? r + m : r;
}

/* Each path runs with exactly the predictors it was written for. */
static int64_t check_codes(int64_t path, int64_t llc_kind, int64_t pred) {
    if (path < 0 || path >= N_PATHS)
        return ERR_PATH;
    if (llc_kind < 0 || llc_kind >= N_LLC_KINDS)
        return ERR_LLC_KIND;
    if (pred < 0 || pred >= N_PREDICTORS)
        return ERR_PREDICTOR;
    if (path == PATH_SDC ? pred == PRED_NONE
            : path == PATH_BYPASS ? pred != PRED_LP : pred != PRED_NONE)
        return ERR_PREDICTOR;
    return 0;
}

int64_t repro_batch_run(const int64_t *icfg, void **bufs) {
    int64_t bad = check_codes(icfg[1], icfg[2], icfg[3]);
    if (bad)
        return bad;
    int64_t i;

    const int64_t n = icfg[0];
    g_path = icfg[1];
    g_llc_kind = icfg[2];
    g_pred = icfg[3];
    g_lp_tagless = icfg[4];
    const int64_t reset_at = icfg[5];
    const int64_t warmup = icfg[6];
    const int64_t flush_every = icfg[7];
    const int64_t tele_every = icfg[8];
    const int64_t record_levels = icfg[9];
    const int64_t tlb_on = icfg[10];
    g_l1_next_line = icfg[11];
    g_l2_spp = icfg[12];
    g_sdc_pf = icfg[13];
    g_aux_mode = icfg[14];
    g_sdc_miss_dir_lat = icfg[15];

    g_woc_cap = icfg[41];
    g_woc_slots = icfg[42];
    g_dir_sets = icfg[43];
    g_dir_ways = icfg[44];
    g_dir_mask = icfg[45];
    g_dir_lat = icfg[46];
    g_lp_sets = icfg[47];
    g_lp_ways = icfg[48];
    g_lp_set_bits = icfg[49];
    g_lp_set_mask = icfg[50];
    g_lp_tau = icfg[51];
    g_lp_smax = icfg[52];
    g_banks = icfg[53];
    g_row_bits = icfg[54];
    g_lat_hit = icfg[55];
    g_lat_miss = icfg[56];
    g_lat_conf = icfg[57];
    g_tlb_l2_lat = icfg[64];
    g_tlb_walk_lat = icfg[65];
    g_timer.width = icfg[66];
    g_timer.rob_window = icfg[67];
    g_timer.limits[0] = icfg[68];
    g_timer.limits[1] = icfg[69];
    g_timer.hit_latency = icfg[70];
    const int64_t tele_capacity = icfg[71];
    g_llc_lat = icfg[72];
    g_psel = icfg[73];
    g_psel_max = icfg[74];
    g_brrip_tick = icfg[75];
    g_brrip_eps = icfg[76];
    g_shct_mask = icfg[77] - 1;
    g_shct_max = icfg[78];
    for (i = 0; i < 5; i++)
        g_clp_weight[i] = icfg[79 + i];

    double *completions;
    if (alloc_state(icfg, &completions))
        return ERR_ALLOC;

    g_rec = bufs[B_RECORDS];
    g_rec_size = icfg[I_REC_SIZE];
    g_off_pc = icfg[I_OFF_PC];
    g_off_addr = icfg[I_OFF_ADDR];
    g_off_write = icfg[I_OFF_WRITE];
    g_off_gap = icfg[I_OFF_GAP];
    g_off_dep = icfg[I_OFF_DEP];
    const int64_t block_bits = icfg[I_BLOCK_BITS];
    const int64_t page_bits = icfg[I_PAGE_BITS];
    g_aux_next = bufs[B_AUX_NEXT];
    g_aux_irr = bufs[B_AUX_IRR];
    g_aux_word = bufs[B_AUX_WORD];
    g_expert_irr = bufs[B_EXPERT_IRR];
    g_llc_role = bufs[B_LLC_ROLE];
    int64_t *tele = bufs[B_TELE];
    uint8_t *levels = bufs[B_LEVELS];

    g_belady_clock = 0;
    g_dclock = 0;
    g_lp_clock = 0;
    g_dir_clock = 0;
    g_tk_count = 0;
    reset_stats();
    timer_reset();

    int64_t tele_rows = 0;
    int64_t err = 0;

    for (i = 0; i < n; i++) {
        if (flush_every && i && i % flush_every == 0)
            flush_sdc_state();
        if (warmup && i == reset_at) {
            reset_stats();
            timer_reset();
            tele_rows = 0;      /* fresh WindowProbe: drop old windows */
        }
        const uint64_t addr = rec_addr(i);
        const int64_t b = (int64_t)(addr >> block_bits);
        const int64_t pc = rec_pc(i);
        const int w = rec_write(i);
        const int64_t tlb_lat =
            tlb_on ? tlb_translate((int64_t)(addr >> page_bits)) : 0;

        int pool = 0;
        int level;
        int64_t lat = 0;
        if (g_path == PATH_SDC) {
            int irregular = g_pred == PRED_EXPERT
                ? (g_expert_irr[i] ? 1 : 0)
                : g_pred == PRED_CLP ? clp_predict(pc) : lp_predict(pc, b);
            if (irregular) {
                level = access_via_sdc(b, w, &lat);
                pool = 1;
            } else {
                level = access_regular_with_sdc(b, w, i, &lat);
            }
            if (g_pred == PRED_CLP)
                clp_update(level);
        } else if (g_path == PATH_VICTIM) {
            level = access_victim(b, w, i, &lat);
        } else if (g_path == PATH_BYPASS) {
            if (lp_predict(pc, b))
                level = access_lp_bypass(b, w, &lat);
            else
                level = access_plain(b, w, i, &lat);
        } else {
            level = access_plain(b, w, i, &lat);
        }

        const int64_t dep = rec_dep(i);
        const int has_dep = dep >= 0;
        completions[i] = timer_access(
            rec_gap(i), lat + tlb_lat,
            has_dep, has_dep ? completions[dep] : 0.0, pool);
        if (record_levels)
            levels[i] = (uint8_t)level;
        if (tele_every && pymod(i + 1 - reset_at, tele_every) == 0) {
            if (tele_rows >= tele_capacity) {
                err = ERR_TELEMETRY;
                break;
            }
            /* core_snapshot reads the LP's stats, never the CLP's */
            int64_t *row = tele + tele_rows * 11;
            row[0] = L1.stats[ACC] + (g_path == PATH_SDC ? SD.stats[ACC] : 0);
            row[1] = g_timer.instructions;
            row[2] = L1.stats[MISS];
            row[3] = L2.stats[MISS];
            row[4] = g_llc_kind == LLC_DISTILL ? g_dstats[MISS]
                                               : L3.stats[MISS];
            row[5] = g_path == PATH_SDC ? SD.stats[ACC] : 0;
            row[6] = g_path == PATH_SDC ? SD.stats[HIT] : 0;
            row[7] = g_pred == PRED_LP ? g_lp_stats[0] : 0;
            row[8] = g_pred == PRED_LP ? g_lp_stats[3] : 0;
            row[9] = g_dram[DREADS];
            row[10] = g_dram[DWRITES];
            tele_rows++;
        }
    }

    int64_t *out = bufs[B_COUNTERS];
    double *cycles = bufs[B_CYCLES];
    memcpy(out + OUT_L1, L1.stats, sizeof L1.stats);
    memcpy(out + OUT_L2, L2.stats, sizeof L2.stats);
    memcpy(out + OUT_LLC, g_llc_kind == LLC_DISTILL ? g_dstats : L3.stats,
           sizeof g_dstats);
    memcpy(out + OUT_SDC, SD.stats, sizeof SD.stats);
    memcpy(out + OUT_DRAM, g_dram, sizeof g_dram);
    memcpy(out + OUT_PRED, g_lp_stats, sizeof g_lp_stats);
    memcpy(out + OUT_TLB, g_tlb_stats, sizeof g_tlb_stats);
    out[OUT_INSTRUCTIONS] = g_timer.instructions;
    out[OUT_TELE_ROWS] = tele_rows;
    cycles[0] = g_timer.issue_time;
    cycles[1] = g_timer.finish_time;

    release_state();
    return err;
}
