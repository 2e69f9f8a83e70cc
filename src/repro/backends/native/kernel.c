/* The native simulation kernel: one whole (predictor, trace, scenario) run in C.
 *
 * This file re-states, statement for statement, the staged engine of
 * repro/pipeline/engine.py and the predictors it drives for the kinds the
 * native backend accepts: the static baselines (repro/predictors/static.py),
 * bimodal (repro/predictors/bimodal.py), gshare (repro/predictors/gshare.py),
 * perceptron (repro/predictors/perceptron.py), GEHL (repro/predictors/gehl.py)
 * and the TAGE family (repro/core/tage.py,
 * augmented.py, ium.py, loop_predictor.py, statistical_corrector.py and
 * histories/local.py).  Results must equal the interpreter's bit for bit:
 * every table update, silent-write check and access count below mirrors
 * the Python code it names, including its quirks (TAGE entries have no
 * valid bit, so a zero tag hits a never-written entry).
 *
 * Entry point: repro_simulate(plan, ...).  All state is allocated per call,
 * so concurrent calls from several threads are independent.
 *
 * There is one simulation loop, simulate(), and it is specialised by the
 * compiler: the loop and the five stages it drives (predict,
 * update_history, notify_execute, update, retire) are forced inline and
 * take the predictor family and the immediate-update flag as arguments.
 * Twelve small functions call it with constant arguments, so each
 * (family, [I] or delayed) pair compiles to its own instance with the
 * other families' code and the per-branch family and scenario tests folded
 * away; repro_simulate picks the run's instance from a table, once per
 * call.  The in-flight window is a ring whose indices wrap by compare,
 * never by division.
 *
 * The plan is a flat int64 array read front to back (see _plan in
 * __init__.py, which writes it in the same order):
 *
 *   family (0 bimodal, 1 gshare, 2 TAGE, 3 perceptron, 4 GEHL, 5 static),
 *   scenario (0 [I], 1 [A], 2 [B], 3 [C]), retire_delay, execute_delay, then
 *   per family
 *   static:  predicted direction (1 taken, 0 not taken)
 *   bimodal: log2 entries, hysteresis sharing
 *   gshare:  log2 entries, history length
 *   perceptron: log2 rows, history length, weight bits, training threshold
 *   GEHL:    N tables, log2 entries, counter bits, initial threshold,
 *            N x history length (0 for the PC-only table)
 *   TAGE:    bimodal log2 entries, hysteresis sharing, M tagged tables,
 *            M x (log2 entries, tag width, history length), counter bits,
 *            useful bits, max allocations, USE_ALT_ON_NA bits,
 *            allocation tick bits, path history bits,
 *            banked components (bit 0 TAGE, 1 SC, 2 LSC; 4 banks),
 *            retire read scope (0 all, 1 TAGE only, 2 local only),
 *            IUM (0 none, 1 counter, 2 outcome), IUM capacity,
 *            loop (0/1), entries, ways, iteration bits, tag bits, SLIM capacity,
 *            SC tables N (0 = none), N x history length, log2 entries,
 *            counter bits, initial threshold,
 *            LSC tables N (0 = none), N x history length, log2 entries,
 *            counter bits, initial threshold, local history entries,
 *            local history bits, speculative manager capacity.
 *
 * out[] receives: mispredictions, measured branches, instructions,
 * retire_reads, entry_writes, write_accesses, entry_reads, allocations,
 * IUM overrides, warmup branches.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXT 32  /* tagged tables */
#define MAXSC 16 /* corrector tables */
#define LOOP_CONFIDENCE_MAX 7
#define LOOP_AGE_MAX 7
#define SC_TAGE_WEIGHT 8

enum { BIMODAL = 0, GSHARE = 1, TAGE = 2, PERCEPTRON = 3, GEHL = 4, STATIC = 5 };
enum { SCOPE_ALL = 0, SCOPE_TAGE_ONLY = 1, SCOPE_LOCAL_ONLY = 2 };

static inline int imin(int a, int b) { return a < b ? a : b; }
static inline int imax(int a, int b) { return a > b ? a : b; }
static inline int iabs(int a) { return a < 0 ? -a : a; }
static inline uint64_t mask64(int64_t bits) { return bits >= 64 ? ~0ULL : (1ULL << bits) - 1; }
/* SaturatingCounter.update: one step toward `up`, clamped to [lo, hi]. */
static inline int sat(int value, int up, int lo, int hi) {
    return up ? imin(value + 1, hi) : imax(value - 1, lo);
}

/* One retire-time update's activity (predictors/base.py UpdateStats). */
typedef struct {
    int64_t reads, writes, allocations;
} Stats;

/* ---- bimodal table with shared hysteresis (predictors/bimodal.py) ---- */

typedef struct {
    uint8_t *pred, *hyst;
    uint64_t mask;
    int shift; /* log2 of the hysteresis sharing */
} Bimodal;

/* The sharing divides the power-of-two table, so it is a power of two and
 * the hysteresis index is a shift; any other value is a bad plan. */
static int bimodal_init(Bimodal *b, int64_t log2, int64_t sharing) {
    size_t entries = (size_t)1 << log2;
    if (sharing < 1 || (sharing & (sharing - 1)) || sharing > (int64_t)entries) return -1;
    b->shift = __builtin_ctzll((unsigned long long)sharing);
    b->pred = malloc(entries);
    b->hyst = calloc(entries >> b->shift, 1);
    if (!b->pred || !b->hyst) return -2;
    memset(b->pred, 1, entries); /* power-on: weakly taken */
    b->mask = entries - 1;
    return 0;
}

static inline int bimodal_read(const Bimodal *b, uint64_t pc, uint32_t *index, uint32_t *hindex) {
    *index = (uint32_t)((pc >> 2) & b->mask);
    *hindex = *index >> b->shift;
    return 2 * b->pred[*index] + b->hyst[*hindex];
}

static void bimodal_update(Bimodal *b, uint32_t index, uint32_t hindex, int snapshot, int taken,
                           int reread, Stats *st) {
    int counter = snapshot;
    if (reread) {
        counter = 2 * b->pred[index] + b->hyst[hindex];
        st->reads++;
    }
    int updated = sat(counter, taken, 0, 3);
    int wrote = 0;
    if ((updated >> 1) != b->pred[index]) {
        b->pred[index] = (uint8_t)(updated >> 1);
        wrote = 1;
    }
    if ((updated & 1) != b->hyst[hindex]) {
        b->hyst[hindex] = (uint8_t)(updated & 1);
        wrote = 1;
    }
    if (wrote) st->writes++;
}

/* ---- the bank-selection rule (hardware/banking.py, 4 banks) ---- */

typedef struct {
    int previous[2];
    int count;
} Banks;

static inline int bank_select(const Banks *b, uint64_t pc) {
    int bank = (int)(pc & 3);
    while ((b->count > 0 && bank == b->previous[0]) || (b->count > 1 && bank == b->previous[1]))
        bank = (bank + 1) & 3;
    return bank;
}

static inline void bank_advance(Banks *b, uint64_t pc) {
    int bank = bank_select(b, pc);
    if (b->count < 2) {
        b->previous[b->count++] = bank;
    } else {
        b->previous[0] = b->previous[1];
        b->previous[1] = bank;
    }
}

/* ---- global direction history (histories/global_history.py) ----
 *
 * A ring of outcome bits, newest at head; a bit never pushed reads 0, like
 * the zeroed power-on register.  Sized to a power of two above the oldest
 * age any reader asks for. */

typedef struct {
    uint8_t *bits;
    uint32_t mask, head;
} Ring;

static int ring_init(Ring *r, int64_t oldest_age) {
    uint32_t capacity = 64;
    while (capacity < (uint64_t)oldest_age + 1) capacity <<= 1;
    r->bits = calloc(capacity, 1);
    r->mask = capacity - 1;
    return r->bits ? 0 : -2;
}

static inline int ring_bit(const Ring *r, uint32_t head, int age) {
    return r->bits[(head - (uint32_t)age) & r->mask];
}

static inline void ring_push(Ring *r, int taken) {
    r->head = (r->head + 1) & r->mask;
    r->bits[r->head] = (uint8_t)taken;
}

/* FoldedHistory.update: rotate in the newest bit; `out` drops the oldest. */
static inline uint32_t fold_step(uint32_t value, int width, uint32_t mask, int bit) {
    return ((((value << 1) & mask) | (value >> (width - 1))) ^ (uint32_t)bit);
}

/* O-GEHL threshold fitting (gehl.py _adapt_threshold, and the SC's): a 7-bit
 * counter moves the threshold up on `up`, down otherwise, when it saturates. */
static inline void adapt_threshold(int *threshold, int *counter, int up) {
    *counter = sat(*counter, up, -64, 63);
    if (*counter == (up ? 63 : -64)) {
        *threshold = up ? *threshold + 1 : imax(1, *threshold - 1);
        *counter = 0;
    }
}

/* ---- TAGE (core/tage.py) ---- */

typedef struct {
    int tage_taken, provider, provider_ctr, provider_taken, weak, alt_taken;
    uint32_t provider_index, base_index, base_hindex;
    int base_counter;
    uint32_t index[MAXT], tag[MAXT];
    uint8_t useful[MAXT];
} TagePrediction;

typedef struct {
    int tables;
    int index_width[MAXT], length[MAXT], width_2[MAXT];
    uint32_t index_mask[MAXT], tag_mask[MAXT], mask_1[MAXT], mask_2[MAXT];
    uint32_t out_index[MAXT], out_1[MAXT], out_2[MAXT];
    uint32_t path_insert[MAXT], path_out[MAXT];
    int path_age[MAXT];
    int tag_width[MAXT];
    int8_t *ctr[MAXT];
    uint32_t *tags[MAXT];
    uint8_t *useful[MAXT];
    size_t size[MAXT];
    uint32_t fold_index[MAXT], fold_1[MAXT], fold_2[MAXT];
    Ring history;
    uint64_t path, path_mask;
    Bimodal base;
    int ctr_lo, ctr_hi, u_max, max_allocations;
    int alt, alt_lo, alt_hi, tick, tick_hi;
} Tage;

static int tage_init(Tage *t, const int64_t **cursor) {
    const int64_t *p = *cursor;
    int64_t bimodal_log2 = *p++, sharing = *p++;
    int tables = (int)*p++;
    if (tables < 1 || tables > MAXT) return -1;
    t->tables = tables;
    int longest = 0;
    for (int i = 0; i < t->tables; i++) {
        int width = (int)*p++, tag_width = (int)*p++, length = (int)*p++;
        t->index_width[i] = width;
        t->tag_width[i] = tag_width;
        t->length[i] = length;
        longest = imax(longest, length);
        t->width_2[i] = imax(1, tag_width - 1);
        t->index_mask[i] = (uint32_t)mask64(width);
        t->tag_mask[i] = t->mask_1[i] = (uint32_t)mask64(tag_width);
        t->mask_2[i] = (uint32_t)mask64(t->width_2[i]);
        t->out_index[i] = 1u << (length % width);
        t->out_1[i] = 1u << (length % tag_width);
        t->out_2[i] = 1u << (length % t->width_2[i]);
        t->size[i] = (size_t)1 << width;
        t->ctr[i] = calloc(t->size[i], 1);
        t->tags[i] = calloc(t->size[i], sizeof(uint32_t));
        t->useful[i] = calloc(t->size[i], 1);
        if (!t->ctr[i] || !t->tags[i] || !t->useful[i]) return -2;
    }
    int counter_bits = (int)*p++, useful_bits = (int)*p++;
    t->max_allocations = (int)*p++;
    int alt_bits = (int)*p++, tick_bits = (int)*p++, path_bits = (int)*p++;
    t->ctr_lo = -(1 << (counter_bits - 1));
    t->ctr_hi = (1 << (counter_bits - 1)) - 1;
    t->u_max = (1 << useful_bits) - 1;
    t->alt_lo = -(1 << (alt_bits - 1));
    t->alt_hi = (1 << (alt_bits - 1)) - 1;
    t->tick_hi = (1 << tick_bits) - 1;
    t->path_mask = mask64(path_bits);
    /* The path term of table i folds the newest min(L, path bits) path bits,
     * rotated left by i % width (see TAGEPredictor._path_steps). */
    for (int i = 0; i < t->tables; i++) {
        int width = t->index_width[i];
        int path_length = imin(t->length[i], path_bits);
        int rotation = i % width;
        t->path_insert[i] = 1u << rotation;
        t->path_age[i] = path_length - 1;
        t->path_out[i] = 1u << ((path_length % width + rotation) % width);
    }
    *cursor = p;
    if (ring_init(&t->history, longest)) return -2;
    return bimodal_init(&t->base, bimodal_log2, sharing);
}

static void tage_free(Tage *t) {
    for (int i = 0; i < t->tables; i++) {
        free(t->ctr[i]);
        free(t->tags[i]);
        free(t->useful[i]);
    }
    free(t->history.bits);
    free(t->base.pred);
    free(t->base.hyst);
}

/* TAGEPredictor.predict; bank < 0 when the tagged tables are not interleaved. */
static void tage_predict(const Tage *t, uint64_t pc, int bank, TagePrediction *p) {
    int base_counter = bimodal_read(&t->base, pc, &p->base_index, &p->base_hindex);
    int base_taken = base_counter >= 2;
    uint64_t pc_low = pc >> 2;
    int provider = -1, alternate = -1;
    for (int i = 0; i < t->tables; i++) {
        int width = t->index_width[i];
        uint32_t index = (uint32_t)((pc_low ^ (pc >> (2 + width)) ^ (pc >> (2 + 2 * width))) &
                                    t->index_mask[i]) ^
                         t->fold_index[i];
        if (bank >= 0 && width >= 2) index = (index & ~3u) | (uint32_t)bank;
        p->index[i] = index;
        p->tag[i] = ((uint32_t)pc_low & t->tag_mask[i]) ^ (t->fold_1[i] ^ (t->fold_2[i] << 1));
        p->useful[i] = t->useful[i][index];
    }
    for (int i = t->tables - 1; i >= 0; i--) {
        if (t->tags[i][p->index[i]] == p->tag[i]) {
            if (provider < 0) {
                provider = i;
            } else {
                alternate = i;
                break;
            }
        }
    }
    p->base_counter = base_counter;
    p->provider = 0;
    p->provider_index = 0;
    p->provider_ctr = 0;
    p->provider_taken = base_taken;
    p->weak = 0;
    p->alt_taken = base_taken;
    p->tage_taken = base_taken;
    if (provider >= 0) {
        p->provider = provider + 1;
        p->provider_index = p->index[provider];
        p->provider_ctr = t->ctr[provider][p->provider_index];
        p->provider_taken = p->provider_ctr >= 0;
        p->weak = p->provider_ctr == -1 || p->provider_ctr == 0;
        if (alternate >= 0) p->alt_taken = t->ctr[alternate][p->index[alternate]] >= 0;
        p->tage_taken = (p->weak && t->alt >= 0) ? p->alt_taken : p->provider_taken;
    }
}

/* TAGEPredictor.update_history (the bank selector advances in the caller). */
static void tage_update_history(Tage *t, uint64_t pc, int taken) {
    for (int i = 0; i < t->tables; i++) {
        int dropped = ring_bit(&t->history, t->history.head, t->length[i] - 1);
        uint32_t index = fold_step(t->fold_index[i], t->index_width[i], t->index_mask[i], taken);
        uint32_t fold_1 = fold_step(t->fold_1[i], t->tag_width[i], t->mask_1[i], taken);
        uint32_t fold_2 = fold_step(t->fold_2[i], t->width_2[i], t->mask_2[i], taken);
        if (dropped) {
            index ^= t->out_index[i];
            fold_1 ^= t->out_1[i];
            fold_2 ^= t->out_2[i];
        }
        if (pc & 1) index ^= t->path_insert[i];
        if ((t->path >> t->path_age[i]) & 1) index ^= t->path_out[i];
        t->fold_index[i] = index;
        t->fold_1[i] = fold_1;
        t->fold_2[i] = fold_2;
    }
    ring_push(&t->history, taken);
    t->path = ((t->path << 1) | (pc & 1)) & t->path_mask;
}

/* TAGEPredictor.update with _update_provider and _allocate. */
static void tage_update(Tage *t, const TagePrediction *p, int taken, int reread, Stats *st) {
    int provider = p->provider;
    if (provider > 0 && p->weak && p->provider_taken != p->alt_taken)
        t->alt = sat(t->alt, p->alt_taken == taken, t->alt_lo, t->alt_hi);
    if (provider > 0) {
        int table = provider - 1;
        uint32_t index = p->provider_index;
        int counter = p->provider_ctr;
        if (reread) {
            counter = t->ctr[table][index];
            st->reads++;
        }
        int updated = sat(counter, taken, t->ctr_lo, t->ctr_hi);
        if (updated != t->ctr[table][index]) {
            t->ctr[table][index] = (int8_t)updated;
            st->writes++;
        }
        if (p->provider_taken != p->alt_taken && p->provider_taken == taken &&
            t->useful[table][index] != t->u_max) {
            t->useful[table][index] = (uint8_t)t->u_max;
            st->writes++;
        }
    } else {
        bimodal_update(&t->base, p->base_index, p->base_hindex, p->base_counter, taken, reread, st);
    }
    if (p->tage_taken == taken || provider >= t->tables) return;
    int allocated = 0;
    for (int table = provider; table < t->tables && allocated < t->max_allocations;) {
        uint32_t index = p->index[table];
        int useful = p->useful[table];
        if (reread) {
            useful = t->useful[table][index];
            st->reads++;
        }
        if (useful == 0) {
            t->tags[table][index] = p->tag[table];
            t->ctr[table][index] = (int8_t)(taken ? 0 : -1);
            t->useful[table][index] = 0;
            st->writes++;
            st->allocations++;
            allocated++;
            if (t->tick > 0) t->tick--;
            table += 2; /* non-consecutive tables */
        } else {
            if (t->tick < t->tick_hi) t->tick++;
            table += 1;
        }
    }
    if (t->tick == t->tick_hi) {
        for (int i = 0; i < t->tables; i++) memset(t->useful[i], 0, t->size[i]);
        t->tick = 0;
    }
}

/* ---- Statistical Corrector tables (core/statistical_corrector.py) ---- */

typedef struct {
    int taken, total, tage_taken;
    uint32_t index[MAXSC];
    int8_t ctr[MAXSC];
} SCReading;

typedef struct {
    int tables, width, lo, hi, threshold, threshold_ctr, banked;
    int length[MAXSC];
    uint64_t history_mask[MAXSC];
    uint32_t index_mask;
    int8_t *ctr[MAXSC];
} Corrector;

static int corrector_init(Corrector *c, const int64_t **cursor, int tables, int banked) {
    const int64_t *p = *cursor;
    if (tables > MAXSC) return -1;
    c->tables = tables;
    for (int i = 0; i < tables; i++) {
        c->length[i] = (int)*p++;
        c->history_mask[i] = mask64(c->length[i]);
    }
    c->width = (int)*p++;
    int bits = (int)*p++;
    c->threshold = (int)*p++;
    c->lo = -(1 << (bits - 1));
    c->hi = (1 << (bits - 1)) - 1;
    c->index_mask = (uint32_t)mask64(c->width);
    c->banked = banked && c->width >= 2;
    *cursor = p;
    for (int i = 0; i < tables; i++)
        if (!(c->ctr[i] = calloc((size_t)1 << c->width, 1))) return -2;
    return 0;
}

/* _CorrectorCore.read with its _indices hash. */
static void corrector_read(const Corrector *c, uint64_t pc, uint64_t history, int tage_taken,
                           int centered, int bank, SCReading *r) {
    uint64_t base = (pc >> 2) ^ (pc >> (2 + c->width)) ^ (uint64_t)tage_taken;
    int sum = 0;
    for (int i = 0; i < c->tables; i++) {
        uint64_t window = history & c->history_mask[i], folded = 0;
        for (int shift = 0; shift < c->length[i]; shift += c->width) folded ^= window >> shift;
        uint32_t index = (uint32_t)((base ^ folded ^ ((uint64_t)i << 1)) & c->index_mask);
        if (c->banked) index = (index & ~3u) | (uint32_t)bank;
        r->index[i] = index;
        r->ctr[i] = c->ctr[i][index];
        sum += r->ctr[i];
    }
    int confidence = SC_TAGE_WEIGHT * iabs(centered);
    int total = 2 * sum + c->tables + (tage_taken ? confidence : -confidence);
    int sc_taken = total >= 0;
    int revert = sc_taken != tage_taken && iabs(total) >= c->threshold;
    r->total = total;
    r->tage_taken = tage_taken;
    r->taken = revert ? sc_taken : tage_taken;
}

/* _CorrectorCore.train; returns the effective writes. */
static int corrector_train(Corrector *c, const SCReading *r, int taken, int reread) {
    int writes = 0;
    int sc_taken = r->total >= 0;
    if (sc_taken != taken || iabs(r->total) < c->threshold) {
        for (int i = 0; i < c->tables; i++) {
            int8_t *entry = &c->ctr[i][r->index[i]];
            int updated = sat(reread ? *entry : r->ctr[i], taken, c->lo, c->hi);
            if (updated != *entry) {
                *entry = (int8_t)updated;
                writes++;
            }
        }
    }
    if (sc_taken != r->tage_taken)
        adapt_threshold(&c->threshold, &c->threshold_ctr, sc_taken != taken);
    return writes;
}

/* ---- perceptron (predictors/perceptron.py) ---- */

typedef struct {
    int log2_rows, length, lo, hi, threshold;
    uint64_t row_mask;
    int16_t *weights; /* rows x (1 bias + length history weights) */
    Ring history;
} Perceptron;

/* Sized for the in-flight window: retire re-reads the fetch-time history
 * bits from the ring, up to `depth` pushes later. */
static int perceptron_init(Perceptron *q, const int64_t *p, int depth) {
    q->log2_rows = (int)p[0];
    q->length = (int)p[1];
    q->lo = -(1 << (p[2] - 1));
    q->hi = (1 << (p[2] - 1)) - 1;
    q->threshold = (int)p[3];
    q->row_mask = mask64(q->log2_rows);
    q->weights = calloc((size_t)(q->row_mask + 1) * (size_t)(q->length + 1), sizeof(int16_t));
    if (!q->weights) return -2;
    return ring_init(&q->history, (int64_t)q->length + depth);
}

/* PerceptronPredictor.predict: the dot product over history bits seen from `head`. */
static int perceptron_predict(const Perceptron *q, uint64_t pc, uint32_t head, uint32_t *row) {
    *row = (uint32_t)(((pc >> 2) ^ (pc >> (2 + q->log2_rows))) & q->row_mask);
    const int16_t *w = q->weights + (size_t)*row * (size_t)(q->length + 1);
    int total = w[0];
    for (int i = 0; i < q->length; i++)
        total += ring_bit(&q->history, head, i) ? w[1 + i] : -w[1 + i];
    return total;
}

/* PerceptronPredictor.update: trains the current weights (a reread only
 * charges the read) on the fetch-time history bits. */
static void perceptron_update(Perceptron *q, uint32_t row, uint32_t head, int total,
                              int mispredicted, int taken, int reread, Stats *st) {
    if (!mispredicted && iabs(total) > q->threshold) return;
    st->reads += reread;
    int16_t *w = q->weights + (size_t)row * (size_t)(q->length + 1);
    int changed = 0;
    for (int i = 0; i <= q->length; i++) {
        int agree = i == 0 ? taken : ring_bit(&q->history, head, i - 1) == taken;
        int updated = imax(q->lo, imin(q->hi, w[i] + (agree ? 1 : -1)));
        changed |= updated != w[i];
        w[i] = (int16_t)updated;
    }
    if (changed) st->writes++;
}

/* ---- GEHL (predictors/gehl.py) ---- */

typedef struct {
    int tables, width, lo, hi, threshold, threshold_ctr;
    int length[MAXT], shift[MAXT];
    uint32_t mask, out[MAXT], fold[MAXT];
    int8_t *ctr[MAXT];
    Ring history;
} Gehl;

typedef struct {
    int total;
    uint32_t index[MAXT];
    int8_t ctr[MAXT];
} GehlReading;

static int gehl_init(Gehl *g, const int64_t *p) {
    g->tables = (int)p[0];
    g->width = (int)p[1];
    g->lo = -(1 << (p[2] - 1));
    g->hi = (1 << (p[2] - 1)) - 1;
    g->threshold = (int)p[3];
    g->mask = (uint32_t)mask64(g->width);
    if (g->tables < 1 || g->tables > MAXT) return -1;
    int longest = 0;
    for (int i = 0; i < g->tables; i++) {
        g->length[i] = (int)p[4 + i];
        g->out[i] = 1u << (g->length[i] % g->width);
        g->shift[i] = g->width - i % g->width;
        longest = imax(longest, g->length[i]);
        if (!(g->ctr[i] = calloc((size_t)g->mask + 1, 1))) return -2;
    }
    return ring_init(&g->history, longest);
}

/* GEHLPredictor.predict with its _index hash. */
static void gehl_predict(const Gehl *g, uint64_t pc, GehlReading *r) {
    uint64_t pc_hash = (pc >> 2) ^ (pc >> (2 + g->width));
    r->total = 0;
    for (int i = 0; i < g->tables; i++) {
        uint64_t fold = g->length[i] ? g->fold[i] ^ (g->fold[i] >> g->shift[i]) : 0;
        r->index[i] = (uint32_t)((pc_hash ^ fold) & g->mask);
        r->ctr[i] = g->ctr[i][r->index[i]];
        r->total += 2 * r->ctr[i] + 1;
    }
}

/* GEHLPredictor.update_history: one fold step per history table. */
static void gehl_update_history(Gehl *g, int taken) {
    for (int i = 0; i < g->tables; i++) {
        if (!g->length[i]) continue;
        uint32_t fold = fold_step(g->fold[i], g->width, g->mask, taken);
        int dropped = ring_bit(&g->history, g->history.head, g->length[i] - 1);
        g->fold[i] = dropped ? fold ^ g->out[i] : fold;
    }
    ring_push(&g->history, taken);
}

/* GEHLPredictor.update: threshold-gated training, then threshold fitting. */
static void gehl_update(Gehl *g, const GehlReading *r, int mispredicted, int taken, int reread,
                        Stats *st) {
    if (!mispredicted && iabs(r->total) >= g->threshold) return;
    for (int i = 0; i < g->tables; i++) {
        int8_t *entry = &g->ctr[i][r->index[i]];
        int updated = sat(reread ? *entry : r->ctr[i], taken, g->lo, g->hi);
        if (updated != *entry) {
            *entry = (int8_t)updated;
            st->writes++;
        }
    }
    if (reread) st->reads += g->tables;
    adapt_threshold(&g->threshold, &g->threshold_ctr, mispredicted);
}

/* ---- in-flight buffers: IUM, SLIM, speculative local histories ----
 *
 * Each mirrors a Python list of entries in fetch order: append, drop the
 * oldest past capacity, find the youngest match, remove by sequence. */

typedef struct {
    int64_t sequence;
    uint32_t index, set, tag;
    int table, counter, lo, hi, outcome, executed;
    uint64_t history;
} Inflight;

typedef struct {
    Inflight *entries;
    int count, capacity;
    int64_t next;
} Buffer;

static int buffer_init(Buffer *b, int64_t capacity) {
    b->capacity = (int)capacity;
    b->entries = calloc((size_t)capacity + 1, sizeof(Inflight));
    return b->entries ? 0 : -2;
}

static Inflight *buffer_append(Buffer *b) {
    if (b->count == b->capacity) {
        memmove(b->entries, b->entries + 1, (size_t)(b->count - 1) * sizeof(Inflight));
        b->count--;
    }
    Inflight *entry = &b->entries[b->count++];
    memset(entry, 0, sizeof(*entry));
    entry->sequence = b->next++;
    return entry;
}

static Inflight *buffer_find(Buffer *b, int64_t sequence) {
    for (int i = 0; i < b->count; i++)
        if (b->entries[i].sequence == sequence) return &b->entries[i];
    return NULL;
}

static void buffer_remove(Buffer *b, int64_t sequence) {
    Inflight *entry = buffer_find(b, sequence);
    if (!entry) return;
    int at = (int)(entry - b->entries);
    memmove(entry, entry + 1, (size_t)(b->count - at - 1) * sizeof(Inflight));
    b->count--;
}

/* ImmediateUpdateMimicker: youngest executed entry of (table, index). */
static const Inflight *ium_match(const Buffer *b, int table, uint32_t index) {
    for (int i = b->count - 1; i >= 0; i--) {
        const Inflight *e = &b->entries[i];
        if (e->table == table && e->index == index && e->executed) return e;
    }
    return NULL;
}

/* ---- loop predictor (core/loop_predictor.py) ---- */

typedef struct {
    uint32_t tag;
    int past, current, confidence, age, direction, valid;
} LoopEntry;

typedef struct {
    int hit, confident, taken, way, iteration;
    uint32_t set, tag;
} LoopPrediction;

typedef struct {
    LoopEntry *table; /* sets x ways */
    int ways, tag_bits, max_iterations;
    uint32_t sets;
    Buffer slim;
} Loop;

static inline uint32_t loop_set(const Loop *l, uint64_t pc, int way) {
    if (l->sets == 1) return 0;
    uint64_t hashed = (pc >> 2) ^ ((pc >> 2) >> (4 + way)) ^ (uint64_t)(way * 0x9E37);
    return (uint32_t)(hashed % l->sets);
}

static inline uint32_t loop_tag(const Loop *l, uint64_t pc) {
    return (uint32_t)(((pc >> 2) ^ (pc >> (2 + l->tag_bits))) & mask64(l->tag_bits));
}

static LoopEntry *loop_find(Loop *l, uint64_t pc, int *way_out, uint32_t *set_out) {
    uint32_t tag = loop_tag(l, pc);
    for (int way = 0; way < l->ways; way++) {
        uint32_t set = loop_set(l, pc, way);
        LoopEntry *e = &l->table[set * l->ways + way];
        if (e->valid && e->tag == tag) {
            *way_out = way;
            *set_out = set;
            return e;
        }
    }
    return NULL;
}

static void loop_predict(Loop *l, uint64_t pc, LoopPrediction *p) {
    memset(p, 0, sizeof(*p));
    p->way = -1;
    p->tag = loop_tag(l, pc);
    int way;
    uint32_t set;
    const LoopEntry *e = loop_find(l, pc, &way, &set);
    if (!e) return;
    int iteration = e->current;
    for (int i = l->slim.count - 1; i >= 0; i--) {
        const Inflight *s = &l->slim.entries[i];
        if (s->set == set && s->tag == p->tag) {
            iteration = s->counter;
            break;
        }
    }
    int exiting = e->past > 0 && iteration >= e->past;
    p->hit = 1;
    p->confident = e->confidence >= LOOP_CONFIDENCE_MAX && e->past > 0;
    p->taken = exiting ? !e->direction : e->direction;
    p->way = way;
    p->set = set;
    p->iteration = iteration;
}

static int64_t loop_speculate(Loop *l, const LoopPrediction *p, int taken) {
    if (!p->hit) return -1;
    const LoopEntry *e = &l->table[p->set * l->ways + p->way];
    Inflight *s = buffer_append(&l->slim);
    s->set = p->set;
    s->tag = p->tag;
    s->counter = taken == e->direction ? p->iteration + 1 : 0;
    return s->sequence;
}

static void loop_update(Loop *l, uint64_t pc, int taken, const LoopPrediction *p,
                        int main_correct, int64_t slim_sequence) {
    if (slim_sequence >= 0) buffer_remove(&l->slim, slim_sequence);
    int way;
    uint32_t set;
    LoopEntry *e = loop_find(l, pc, &way, &set);
    if (e) { /* _update_hit */
        if (p->hit && p->confident) {
            if (p->taken == taken && !main_correct) e->age = imin(LOOP_AGE_MAX, e->age + 1);
            if (p->taken != taken) {
                e->age = e->confidence = e->valid = 0;
                return;
            }
        }
        if (taken == e->direction) {
            if (++e->current > l->max_iterations) e->valid = e->confidence = e->age = 0;
            return;
        }
        if (e->current == e->past && e->past > 0) {
            e->confidence = imin(LOOP_CONFIDENCE_MAX, e->confidence + 1);
        } else {
            e->past = e->current;
            e->confidence = 0;
        }
        e->current = 0;
        return;
    }
    if (main_correct) return;
    int victim = -1; /* _allocate */
    uint32_t victim_set = 0;
    for (way = 0; way < l->ways; way++) {
        set = loop_set(l, pc, way);
        const LoopEntry *candidate = &l->table[set * l->ways + way];
        if (!candidate->valid) {
            victim = way;
            victim_set = set;
            break;
        }
        if (candidate->age == 0 && victim < 0) {
            victim = way;
            victim_set = set;
        }
    }
    if (victim < 0) {
        for (way = 0; way < l->ways; way++) {
            LoopEntry *candidate = &l->table[loop_set(l, pc, way) * l->ways + way];
            candidate->age = imax(0, candidate->age - 1);
        }
        return;
    }
    LoopEntry fresh = {loop_tag(l, pc), 0, 0, 0, LOOP_AGE_MAX, !taken, 1};
    l->table[victim_set * l->ways + victim] = fresh;
}

/* ---- one in-flight branch: everything its fetch-time reads snapshot ---- */

typedef struct {
    uint64_t pc;
    int taken, prediction, mispredicted, executed, measured, override;
    /* two-bit tables; the perceptron's row, dot product and history head */
    uint32_t index, hindex, head;
    int counter;
    GehlReading gehl;
    /* TAGE family */
    TagePrediction tage;
    SCReading sc, lsc;
    LoopPrediction loop;
    int pre_loop_taken;
    int64_t ium_sequence, lsc_sequence, loop_sequence;
} Slot;

typedef struct {
    int family, scenario, retire_delay, execute_delay, static_taken;
    Bimodal bimodal;
    int8_t *gshare;
    uint64_t gshare_mask, gshare_history, gshare_history_mask;
    Tage tage;
    Perceptron perceptron;
    Gehl gehl;
    int banked, scope, ium_mode, has_loop, has_sc, has_lsc, with_loop;
    Banks banks;
    Buffer ium, lsc_inflight;
    Loop loop;
    Corrector sc, lsc;
    uint64_t sc_history, sc_history_mask, lsc_history_mask, *local, local_mask;
} Sim;

static int sim_init(Sim *s, const int64_t *plan, int64_t plan_len) {
    const int64_t *p = plan;
    s->family = (int)*p++;
    s->scenario = (int)*p++;
    s->retire_delay = (int)*p++;
    s->execute_delay = (int)*p++;
    if (s->family == STATIC) {
        if (plan_len != 5) return -1;
        s->static_taken = p[0] != 0;
        return 0;
    }
    if (s->family == BIMODAL) return bimodal_init(&s->bimodal, p[0], p[1]);
    if (s->family == GSHARE) {
        s->gshare_mask = mask64(p[0]);
        s->gshare_history_mask = mask64(p[1]);
        if (!(s->gshare = malloc((size_t)1 << p[0]))) return -2;
        memset(s->gshare, 2, (size_t)1 << p[0]); /* power-on: weakly taken */
        return 0;
    }
    if (s->family == PERCEPTRON)
        return plan_len == 8 ? perceptron_init(&s->perceptron, p, s->scenario ? s->retire_delay : 0)
                             : -1;
    if (s->family == GEHL) return plan_len == 8 + p[0] ? gehl_init(&s->gehl, p) : -1;
    if (s->family != TAGE) return -1;
    int status = tage_init(&s->tage, &p);
    if (status) return status;
    s->banked = (int)*p++;
    s->scope = (int)*p++;
    s->ium_mode = (int)*p++;
    int64_t ium_capacity = *p++;
    if (s->ium_mode && buffer_init(&s->ium, ium_capacity)) return -2;
    s->has_loop = (int)*p++;
    int64_t entries = *p++, ways = *p++, iteration_bits = *p++, tag_bits = *p++, slim = *p++;
    if (s->has_loop) {
        s->loop.ways = (int)ways;
        s->loop.sets = (uint32_t)(entries / ways);
        s->loop.tag_bits = (int)tag_bits;
        s->loop.max_iterations = (int)mask64(iteration_bits);
        s->loop.table = calloc((size_t)entries, sizeof(LoopEntry));
        if (!s->loop.table || buffer_init(&s->loop.slim, slim)) return -2;
        for (int64_t i = 0; i < entries; i++) s->loop.table[i].direction = 1;
        s->with_loop = -1;
    }
    s->has_sc = (int)*p++;
    if (s->has_sc) {
        if ((status = corrector_init(&s->sc, &p, s->has_sc, s->banked & 2))) return status;
        int longest = 0;
        for (int i = 0; i < s->sc.tables; i++) longest = imax(longest, s->sc.length[i]);
        s->sc_history_mask = mask64(longest);
    }
    s->has_lsc = (int)*p++;
    if (s->has_lsc) {
        if ((status = corrector_init(&s->lsc, &p, s->has_lsc, s->banked & 4))) return status;
        int64_t local_entries = *p++;
        s->lsc_history_mask = mask64(*p++);
        s->local_mask = (uint64_t)local_entries - 1;
        if (!(s->local = calloc((size_t)local_entries, sizeof(uint64_t)))) return -2;
        if (buffer_init(&s->lsc_inflight, *p++)) return -2;
    }
    return p - plan == plan_len ? 0 : -1;
}

static void sim_free(Sim *s) {
    free(s->bimodal.pred);
    free(s->bimodal.hyst);
    free(s->gshare);
    if (s->family == TAGE) tage_free(&s->tage);
    free(s->perceptron.weights);
    free(s->perceptron.history.bits);
    free(s->gehl.history.bits);
    for (int i = 0; i < MAXT; i++) free(s->gehl.ctr[i]);
    free(s->ium.entries);
    free(s->loop.table);
    free(s->loop.slim.entries);
    free(s->lsc_inflight.entries);
    free(s->local);
    for (int i = 0; i < MAXSC; i++) {
        free(s->sc.ctr[i]);
        free(s->lsc.ctr[i]);
    }
}

static inline uint32_t local_index(const Sim *s, uint64_t pc) {
    return (uint32_t)(((pc >> 2) ^ (pc >> 7) ^ (pc >> 13)) & s->local_mask);
}

/* SpeculativeLocalHistoryManager.speculative_history */
static uint64_t local_history(const Sim *s, uint64_t pc) {
    uint32_t index = local_index(s, pc);
    for (int i = s->lsc_inflight.count - 1; i >= 0; i--)
        if (s->lsc_inflight.entries[i].index == index) return s->lsc_inflight.entries[i].history;
    return s->local[index];
}

/* The stages and the loop: forced inline, so each (family, immediate) pair
 * the loop is called with compiles to its own instance (see the header). */
#define STAGE static inline __attribute__((always_inline))

/* Fetch: Predictor.predict, ending in slot->prediction. */
STAGE void predict(Sim *s, Slot *slot, const int family) {
    uint64_t pc = slot->pc;
    slot->override = 0;
    if (family == STATIC) {
        slot->prediction = s->static_taken;
        return;
    }
    if (family == BIMODAL) {
        slot->counter = bimodal_read(&s->bimodal, pc, &slot->index, &slot->hindex);
        slot->prediction = slot->counter >= 2;
        return;
    }
    if (family == GSHARE) {
        slot->index = (uint32_t)(((pc >> 2) ^ (s->gshare_history & s->gshare_history_mask)) &
                                 s->gshare_mask);
        slot->counter = s->gshare[slot->index];
        slot->prediction = slot->counter >= 2;
        return;
    }
    if (family == PERCEPTRON) {
        slot->head = s->perceptron.history.head;
        slot->counter = perceptron_predict(&s->perceptron, pc, slot->head, &slot->index);
        slot->prediction = slot->counter >= 0;
        return;
    }
    if (family == GEHL) {
        gehl_predict(&s->gehl, pc, &slot->gehl);
        slot->prediction = slot->gehl.total >= 0;
        return;
    }
    TagePrediction *t = &slot->tage;
    int bank = s->banked ? bank_select(&s->banks, pc) : -1;
    tage_predict(&s->tage, pc, (s->banked & 1) ? bank : -1, t);
    int prediction = t->tage_taken;
    if (s->ium_mode) {
        const Inflight *hit = ium_match(&s->ium, t->provider,
                                        t->provider > 0 ? t->provider_index : t->base_index);
        if (hit) {
            slot->override = 1;
            prediction = s->ium_mode == 2 ? hit->outcome : hit->counter >= 0;
        }
    }
    int centered = t->provider > 0 ? 2 * t->provider_ctr + 1 : 2 * (t->base_counter - 2) + 1;
    if (s->has_sc) {
        corrector_read(&s->sc, pc, s->sc_history, prediction, centered, bank, &slot->sc);
        prediction = slot->sc.taken;
    }
    if (s->has_lsc) {
        corrector_read(&s->lsc, pc, local_history(s, pc), prediction, centered, bank, &slot->lsc);
        prediction = slot->lsc.taken;
    }
    slot->pre_loop_taken = prediction;
    if (s->has_loop) {
        loop_predict(&s->loop, pc, &slot->loop);
        if (slot->loop.hit && slot->loop.confident && s->with_loop >= 0)
            prediction = slot->loop.taken;
    }
    slot->prediction = prediction;
}

/* Fetch: Predictor.update_history. */
STAGE void update_history(Sim *s, Slot *slot, const int family) {
    uint64_t pc = slot->pc;
    int taken = slot->taken;
    if (family == GSHARE) s->gshare_history = (s->gshare_history << 1) | (uint64_t)taken;
    if (family == PERCEPTRON) ring_push(&s->perceptron.history, taken);
    if (family == GEHL) gehl_update_history(&s->gehl, taken);
    if (family != TAGE) return;
    TagePrediction *t = &slot->tage;
    tage_update_history(&s->tage, pc, taken);
    if (s->banked) bank_advance(&s->banks, pc);
    if (s->has_sc) s->sc_history = ((s->sc_history << 1) | (uint64_t)taken) & s->sc_history_mask;
    slot->ium_sequence = slot->lsc_sequence = slot->loop_sequence = -1;
    if (s->ium_mode) {
        int table = t->provider;
        uint32_t index = table > 0 ? t->provider_index : t->base_index;
        const Inflight *older = ium_match(&s->ium, table, index);
        int counter = older ? older->counter : table > 0 ? t->provider_ctr : t->base_counter - 2;
        Inflight *entry = buffer_append(&s->ium);
        entry->table = table;
        entry->index = index;
        entry->counter = counter;
        entry->lo = table > 0 ? s->tage.ctr_lo : -2;
        entry->hi = table > 0 ? s->tage.ctr_hi : 1;
        slot->ium_sequence = entry->sequence;
    }
    if (s->has_lsc) {
        uint64_t history = ((local_history(s, pc) << 1) | (uint64_t)taken) & s->lsc_history_mask;
        Inflight *entry = buffer_append(&s->lsc_inflight);
        entry->index = local_index(s, pc);
        entry->history = history;
        slot->lsc_sequence = entry->sequence;
    }
    if (s->has_loop) slot->loop_sequence = loop_speculate(&s->loop, &slot->loop, taken);
}

/* Execute: Predictor.notify_execute (the IUM hook). */
STAGE void notify_execute(Sim *s, Slot *slot, const int family) {
    if (family != TAGE || !s->ium_mode || slot->ium_sequence < 0) return;
    Inflight *entry = buffer_find(&s->ium, slot->ium_sequence);
    if (!entry) return;
    entry->outcome = slot->taken;
    entry->executed = 1;
    entry->counter = imax(entry->lo, imin(entry->hi, entry->counter + (slot->taken ? 1 : -1)));
}

/* Retire: Predictor.update. */
STAGE void update(Sim *s, Slot *slot, int reread, Stats *st, const int family) {
    int taken = slot->taken;
    if (family == STATIC) return;
    if (family == BIMODAL) {
        bimodal_update(&s->bimodal, slot->index, slot->hindex, slot->counter, taken, reread, st);
        return;
    }
    if (family == GSHARE) {
        int counter = slot->counter;
        if (reread) {
            counter = s->gshare[slot->index];
            st->reads++;
        }
        int updated = sat(counter, taken, 0, 3);
        if (updated != s->gshare[slot->index]) {
            s->gshare[slot->index] = (int8_t)updated;
            st->writes++;
        }
        return;
    }
    if (family == PERCEPTRON) {
        perceptron_update(&s->perceptron, slot->index, slot->head, slot->counter,
                          slot->mispredicted, taken, reread, st);
        return;
    }
    if (family == GEHL) {
        gehl_update(&s->gehl, &slot->gehl, slot->mispredicted, taken, reread, st);
        return;
    }
    int tage_reread = reread || s->scope == SCOPE_LOCAL_ONLY;
    int local_reread = reread || s->scope == SCOPE_TAGE_ONLY;
    if (s->ium_mode && slot->ium_sequence >= 0) buffer_remove(&s->ium, slot->ium_sequence);
    if (s->has_loop) {
        const LoopPrediction *p = &slot->loop;
        if (p->hit && p->confident && p->taken != slot->pre_loop_taken)
            s->with_loop = sat(s->with_loop, p->taken == taken, -64, 63);
        loop_update(&s->loop, slot->pc, taken, p, slot->pre_loop_taken == taken,
                    slot->loop_sequence);
    }
    if (s->has_sc) {
        st->writes += corrector_train(&s->sc, &slot->sc, taken, local_reread);
        if (local_reread) st->reads += s->sc.tables;
    }
    if (s->has_lsc) {
        uint32_t index = local_index(s, slot->pc);
        s->local[index] = ((s->local[index] << 1) | (uint64_t)taken) & s->lsc_history_mask;
        if (slot->lsc_sequence >= 0) buffer_remove(&s->lsc_inflight, slot->lsc_sequence);
        st->writes += corrector_train(&s->lsc, &slot->lsc, taken, local_reread);
        if (local_reread) st->reads += s->lsc.tables;
    }
    tage_update(&s->tage, &slot->tage, taken, tage_reread, st);
}

enum {
    OUT_MISPREDICTIONS, OUT_BRANCHES, OUT_INSTRUCTIONS, OUT_RETIRE_READS, OUT_ENTRY_WRITES,
    OUT_WRITE_ACCESSES, OUT_ENTRY_READS, OUT_ALLOCATIONS, OUT_IUM_OVERRIDES, OUT_WARMUP,
    OUT_FIELDS
};

/* SimulationEngine._retire plus AccessProfile.record_update. */
STAGE void retire(Sim *s, Slot *slot, int64_t *out, const int family, const int immediate) {
    int reread = 1;
    if (!immediate) {
        if (!slot->executed) notify_execute(s, slot, family);
        reread = s->scenario == 1 || (s->scenario == 3 && slot->mispredicted);
    }
    Stats st = {0, 0, 0};
    update(s, slot, reread, &st, family);
    if (!slot->measured) return;
    if (reread && !immediate) out[OUT_RETIRE_READS]++;
    out[OUT_ENTRY_READS] += st.reads;
    out[OUT_ENTRY_WRITES] += st.writes;
    out[OUT_ALLOCATIONS] += st.allocations;
    if (st.writes) out[OUT_WRITE_ACCESSES]++;
}

/* SimulationEngine.run over one trace.  The in-flight window is a ring of
 * depth + 1 slots (one under [I], which retires each branch as it is
 * fetched) whose indices wrap by compare; the counts gather in a local
 * array, copied to out at the end. */
STAGE void simulate(Sim *s, Slot *window, const int64_t *pcs, const uint8_t *taken,
                    const int64_t *preceding, int64_t n, int64_t warmup, int64_t *out,
                    const int family, const int immediate) {
    int depth = immediate ? 0 : s->retire_delay, capacity = depth + 1;
    int head = 0, tail = 0, count = 0; /* tail: the slot of the next fetch */
    int64_t totals[OUT_FIELDS] = {0};
    for (int64_t i = 0; i < n; i++) {
        int fetched = tail;
        Slot *slot = &window[fetched];
        if (++tail == capacity) tail = 0;
        count++;
        slot->pc = (uint64_t)pcs[i];
        slot->taken = taken[i] != 0;
        slot->measured = i >= warmup;
        slot->executed = 0;
        predict(s, slot, family);
        slot->mispredicted = slot->prediction != slot->taken;
        if (slot->measured) {
            totals[OUT_MISPREDICTIONS] += slot->mispredicted;
            totals[OUT_BRANCHES]++;
            totals[OUT_INSTRUCTIONS] += preceding[i] + 1;
            totals[OUT_IUM_OVERRIDES] += slot->override;
        } else {
            totals[OUT_WARMUP]++;
        }
        update_history(s, slot, family);
        if (!immediate && count > s->execute_delay) {
            int at = fetched - s->execute_delay; /* fetched execute_delay branches ago */
            Slot *resolved = &window[at < 0 ? at + capacity : at];
            if (!resolved->executed) {
                notify_execute(s, resolved, family);
                resolved->executed = 1;
            }
        }
        while (count > depth) {
            retire(s, &window[head], totals, family, immediate);
            if (++head == capacity) head = 0;
            count--;
        }
    }
    for (; count; count--) {
        retire(s, &window[head], totals, family, immediate);
        if (++head == capacity) head = 0;
    }
    memcpy(out, totals, sizeof(totals));
}

/* The instances: one function per (family, immediate) pair, so the
 * compiler builds and frees each on its own, and the table of them. */
typedef void (*Instance)(Sim *, Slot *, const int64_t *, const uint8_t *, const int64_t *,
                         int64_t, int64_t, int64_t *);

#define INSTANCE(f, immediate)                                                            \
    static void simulate_##f##_##immediate(Sim *s, Slot *window, const int64_t *pcs,     \
                                           const uint8_t *taken, const int64_t *preceding, \
                                           int64_t n, int64_t warmup, int64_t *out) {      \
        simulate(s, window, pcs, taken, preceding, n, warmup, out, f, immediate);          \
    }
#define INSTANCES(f) INSTANCE(f, 0) INSTANCE(f, 1)
INSTANCES(BIMODAL)
INSTANCES(GSHARE)
INSTANCES(TAGE)
INSTANCES(PERCEPTRON)
INSTANCES(GEHL)
INSTANCES(STATIC)

/* [family][immediate] */
static const Instance instances[][2] = {
    [BIMODAL] = {simulate_BIMODAL_0, simulate_BIMODAL_1},
    [GSHARE] = {simulate_GSHARE_0, simulate_GSHARE_1},
    [TAGE] = {simulate_TAGE_0, simulate_TAGE_1},
    [PERCEPTRON] = {simulate_PERCEPTRON_0, simulate_PERCEPTRON_1},
    [GEHL] = {simulate_GEHL_0, simulate_GEHL_1},
    [STATIC] = {simulate_STATIC_0, simulate_STATIC_1},
};

/* One (predictor, trace, scenario) run; returns 0, -1 (bad plan) or -2 (no memory). */
int repro_simulate(const int64_t *plan, int64_t plan_len, const int64_t *pcs,
                   const uint8_t *taken, const int64_t *preceding, int64_t n, int64_t warmup,
                   int64_t *out) {
    Sim sim;
    memset(&sim, 0, sizeof(sim));
    memset(out, 0, OUT_FIELDS * sizeof(int64_t));
    int status = sim_init(&sim, plan, plan_len);
    int immediate = sim.scenario == 0;
    int depth = immediate ? 0 : sim.retire_delay;
    Slot *window = status ? NULL : calloc((size_t)depth + 1, sizeof(Slot));
    if (!status && !window) status = -2;
    if (!status)
        instances[sim.family][immediate](&sim, window, pcs, taken, preceding, n, warmup, out);
    free(window);
    sim_free(&sim);
    return status;
}
