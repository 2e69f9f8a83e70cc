/* The native trace generator: generate_workload in C, draw for draw.
 *
 * This file restates the visit loop of generate_workload in
 * repro/traces/synthetic.py and the emit() of its five behaviour classes
 * (biased, globally correlated, loop, local pattern, pointer chase).  The
 * random numbers come from CPython's MT19937 (Matsumoto & Nishimura, ACM
 * TOMACS 1998, as in Modules/_randommodule.c) and the random.Random
 * methods the classes call, restated on top of it:
 *
 *   random()          (a >> 5) * 67108864.0 + (b >> 6), scaled by 2^-53
 *   getrandbits(k)    genrand_uint32() >> (32 - k), for 1 <= k <= 32
 *   _randbelow(n)     getrandbits(n.bit_length()) until the draw is below n
 *   randrange(a, b)   a + _randbelow(b - a); randint(a, b) = randrange(a, b + 1)
 *
 * so the trace, the generator's final state and every conditional draw
 * (a zero skip probability, noise or jitter draws nothing) equal the
 * Python loop's bit for bit.  genrand_uint32 is the fast path, a load and
 * the tempering, inlined into every draw; the twist that refills the 624
 * words every 624th draw is the out-of-line mt_refill.
 *
 * Entry point: repro_generate(plan, ...).  Every value it reads is checked:
 * a plan it cannot run bit-exactly (a draw wider than 32 bits, a PC or gap
 * past int64, an index out of range) returns -1 and the Python loop runs
 * instead; nothing is written past the caller's buffers.  All state lives
 * in the caller's arrays and per-call allocations, so threads generate side
 * by side.
 *
 * The plan is a flat int64 array (see _native_plan in synthetic.py):
 *
 *   branch_count, min_gap, gap width (max_gap - min_gap + 1), source slots S,
 *   labels L, sites N, skeleton length K, K x site index, then per site
 *   kind (0 biased, 1 correlated, 2 loop, 3 local pattern, 4 pointer chase),
 *   pc, label, slot of pc (-1 if no correlated site reads it), then per kind
 *   biased:      bias (float index)
 *   correlated:  source slot, invert (0/1), noise (float index)
 *   loop:        iterations, body branches, jitter, body bias (float index),
 *                P pairs, P x (body index, slot)
 *   local:       length, pattern count, position, base offset and current
 *                offset into patterns, MT state index (used when count > 1)
 *   pointer:     static branches, offset of their biases in floats,
 *                P pairs, P x (branch index, slot)
 *
 * floats[0] is the skip probability.  The site codes are written as
 * unsigned integers of code_width bytes (1, 2 or 4), the width of the
 * caller's codes array.  states holds MT19937 states of 625
 * words (624 words, then the position index): states[0] is the trace's
 * generator, the others belong to local-pattern sites; both they and the
 * current patterns in patterns[] are updated in place.  out[] receives the
 * branch count, the number of site codes, the site index that first used
 * each code (L entries) and each site's final position (N entries).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define STATE_WORDS (MT_N + 1)

enum { BIASED = 0, CORRELATED = 1, LOOP = 2, LOCAL = 3, POINTER = 4 };

typedef struct {
    uint32_t *mt;
    int index;
} MT;

/* The twist, every 624th draw; out of line so genrand_uint32 inlines. */
static __attribute__((noinline)) void mt_refill(MT *g) {
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y, *mt = g->mt;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    g->index = 0;
}

static inline uint32_t genrand_uint32(MT *g) {
    if (g->index >= MT_N) mt_refill(g);
    uint32_t y = g->mt[g->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static inline double mt_random(MT *g) {
    uint32_t a = genrand_uint32(g) >> 5, b = genrand_uint32(g) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static inline int bit_length(uint64_t n) {
    int bits = 0;
    while (n) {
        bits++;
        n >>= 1;
    }
    return bits;
}

/* _randbelow(n) for 1 <= n < 2^32 (callers check the range). */
static inline uint32_t randbelow(MT *g, uint32_t n, int bits) {
    uint32_t r;
    do r = genrand_uint32(g) >> (32 - bits);
    while (r >= n);
    return r;
}

static inline int draw_fits(int64_t n) { return n >= 1 && n <= 0xffffffffLL; }

typedef struct {
    int64_t kind, pc, label, slot;
    int64_t a, b, c; /* per kind: see the plan layout above */
    double p;        /* bias, noise or body bias */
    const int64_t *pairs;
    int64_t npairs;
    MT rng; /* local pattern sites with a pattern count above 1 */
    uint8_t *base, *current;
    const double *biases;
    int bits_a, bits_b; /* bit lengths of the draws a site makes */
} Site;

/* Read one plan value into *v; 0 past the end of the plan. */
#define TAKE(v)                        \
    do {                               \
        if (*at >= plan_len) return 0; \
        (v) = plan[(*at)++];           \
    } while (0)

static int parse_site(Site *s, const int64_t *plan, int64_t plan_len, int64_t *at,
                      const double *floats, int64_t floats_len, uint32_t *states,
                      int64_t states_count, uint8_t *patterns, int64_t patterns_len,
                      int64_t slots, int64_t labels) {
    int64_t p = -1; /* float index of the site's probability, if it has one */
    TAKE(s->kind);
    TAKE(s->pc);
    TAKE(s->label);
    TAKE(s->slot);
    if (s->pc < 0 || s->label < 0 || s->label >= labels || s->slot < -1 || s->slot >= slots)
        return 0;
    switch (s->kind) {
    case BIASED:
        TAKE(p);
        break;
    case CORRELATED:
        TAKE(s->a); /* source slot */
        TAKE(s->b); /* invert */
        TAKE(p);
        if (s->a < 0 || s->a >= slots || (s->b != 0 && s->b != 1)) return 0;
        break;
    case LOOP:
        TAKE(s->a); /* iterations */
        TAKE(s->b); /* body branches */
        TAKE(s->c); /* jitter: randint(-c, c) draws below 2c + 1 */
        TAKE(p);
        /* body PCs pc + 8 * (i + 1) stay in int64 */
        if (s->a < 1 || s->b < 0 || s->b > (INT64_MAX - s->pc) / 8 - 1 || s->c < 0
            || s->c > 0x7fffffffLL || s->a > INT64_MAX - s->c)
            return 0;
        s->bits_a = bit_length((uint64_t)(2 * s->c + 1));
        break;
    case LOCAL: {
        int64_t base, current, state;
        TAKE(s->a); /* length */
        TAKE(s->b); /* pattern count */
        TAKE(s->c); /* position */
        TAKE(base);
        TAKE(current);
        TAKE(state);
        if (!draw_fits(s->a) || s->b < 1 || s->c < 0 || s->c >= s->a || base < 0
            || current < 0 || base > patterns_len - s->a || current > patterns_len - s->a)
            return 0;
        s->base = patterns + base;
        s->current = patterns + current;
        if (s->b > 1) {
            if (state < 1 || state >= states_count) return 0;
            s->rng.mt = states + state * STATE_WORDS;
            if (s->rng.mt[MT_N] > MT_N) return 0;
            s->rng.index = (int)s->rng.mt[MT_N];
        }
        s->bits_a = bit_length((uint64_t)(s->a / 3 > 1 ? s->a / 3 : 1));
        s->bits_b = bit_length((uint64_t)s->a);
        break;
    }
    case POINTER: {
        int64_t biases;
        TAKE(s->a); /* static branches */
        TAKE(biases);
        if (!draw_fits(s->a) || s->a - 1 > (INT64_MAX - s->pc) / 16 || biases < 0
            || biases > floats_len - s->a)
            return 0;
        s->biases = floats + biases;
        s->bits_a = bit_length((uint64_t)s->a);
        break;
    }
    default:
        return 0;
    }
    if (s->kind == BIASED || s->kind == CORRELATED || s->kind == LOOP) {
        if (p < 0 || p >= floats_len) return 0;
        s->p = floats[p];
    }
    if (s->kind == LOOP || s->kind == POINTER) {
        TAKE(s->npairs);
        if (s->npairs < 0 || s->npairs > (plan_len - *at) / 2) return 0;
        s->pairs = plan + *at;
        for (int64_t i = 0; i < s->npairs; i++) {
            int64_t slot = s->pairs[2 * i + 1];
            if (s->pairs[2 * i] < 0 || slot < 0 || slot >= slots) return 0;
        }
        *at += 2 * s->npairs;
    }
    return 1;
}

/* Record `taken` as the last outcome of emitted index `index` of a site. */
static inline void note_pair(const Site *s, uint8_t *last, int64_t index, int taken) {
    for (int64_t i = 0; i < s->npairs; i++)
        if (s->pairs[2 * i] == index) last[s->pairs[2 * i + 1]] = (uint8_t)taken;
}

/* LocalPatternBranch._next_pattern into s->current (variant is scratch). */
static void next_pattern(Site *s, uint8_t *variant) {
    int64_t n = s->a;
    if (s->b == 1) {
        memmove(s->current, s->base, (size_t)n);
        return;
    }
    memmove(variant, s->base, (size_t)n);
    uint32_t flips = 1 + randbelow(&s->rng, (uint32_t)(n / 3 > 1 ? n / 3 : 1), s->bits_a);
    for (uint32_t i = 0; i < flips; i++) {
        uint32_t index = randbelow(&s->rng, (uint32_t)n, s->bits_b);
        variant[index] = !variant[index];
    }
    uint32_t rotation = randbelow(&s->rng, (uint32_t)n, s->bits_b);
    memcpy(s->current, variant + rotation, (size_t)(n - rotation));
    memcpy(s->current + (n - rotation), variant, rotation);
}

int repro_generate(const int64_t *plan, int64_t plan_len, const double *floats,
                   int64_t floats_len, uint32_t *states, int64_t states_count,
                   uint8_t *patterns, int64_t patterns_len, int64_t *pcs, uint8_t *taken,
                   int64_t *gaps, void *codes, int64_t code_width, int64_t capacity,
                   int64_t *out, int64_t out_len) {
    if (plan_len < 7 || floats_len < 1 || states_count < 1 || states[MT_N] > MT_N) return -1;
    int64_t branch_count = plan[0], low = plan[1], width = plan[2], slots = plan[3],
            labels = plan[4], nsites = plan[5], length = plan[6], pos = 7;
    double skip = floats[0];
    if (branch_count < 1 || branch_count > capacity || low < 0 || !draw_fits(width)
        || low > INT64_MAX - (width - 1)
        || (code_width != 1 && code_width != 2 && code_width != 4) || nsites < 1
        || nsites > plan_len / 4 || slots < 0 || slots > nsites || labels < 1 || labels > nsites
        || (code_width < 4 && labels > (1LL << (8 * code_width))) || length < 1
        || length > plan_len - pos || out_len < 2 + labels + nsites
        || !(skip >= 0.0 && skip < 1.0))
        return -1;
    const int64_t *skeleton = plan + pos;
    pos += length;
    for (int64_t k = 0; k < length; k++)
        if (skeleton[k] < 0 || skeleton[k] >= nsites) return -1;

    int status = 0;
    int64_t widest = 1;
    Site *sites = calloc((size_t)nsites, sizeof(Site));
    uint8_t *last = malloc((size_t)slots + 1);
    int64_t *code_of = malloc((size_t)labels * sizeof(int64_t));
    if (!sites || !last || !code_of) status = -2;
    for (int64_t i = 0; !status && i < nsites; i++) {
        if (!parse_site(&sites[i], plan, plan_len, &pos, floats, floats_len, states,
                        states_count, patterns, patterns_len, slots, labels))
            status = -1;
        else if (sites[i].kind == LOCAL && sites[i].a > widest)
            widest = sites[i].a;
    }
    if (!status && pos != plan_len) status = -1;
    uint8_t *variant = status ? NULL : malloc((size_t)widest);
    if (!status && !variant) status = -2;
    if (status) {
        free(sites);
        free(last);
        free(code_of);
        return status;
    }
    memset(last, 1, (size_t)slots + 1); /* an unseen source reads as taken */
    for (int64_t i = 0; i < labels; i++) code_of[i] = -1;

    MT g = {states, (int)states[MT_N]};
    int gap_bits = bit_length((uint64_t)width);
    int64_t n = 0, ncodes = 0;
    while (!status && n < branch_count) {
        for (int64_t k = 0; k < length && n < branch_count; k++) {
            if (skip != 0.0 && mt_random(&g) < skip) continue;
            Site *s = &sites[skeleton[k]];
            int64_t code = code_of[s->label], start = n;
            if (code < 0) {
                code = code_of[s->label] = ncodes;
                out[2 + ncodes++] = skeleton[k];
            }
            switch (s->kind) {
            case BIASED:
                pcs[n] = s->pc;
                taken[n++] = mt_random(&g) < s->p;
                break;
            case CORRELATED: {
                int t = last[s->a] ^ (int)s->b;
                if (s->p != 0.0 && mt_random(&g) < s->p) t = !t;
                pcs[n] = s->pc;
                taken[n++] = (uint8_t)t;
                break;
            }
            case LOOP: {
                int64_t trip = s->a;
                if (s->c) {
                    trip += randbelow(&g, (uint32_t)(2 * s->c + 1), s->bits_a) - s->c;
                    if (trip < 1) trip = 1;
                }
                if (trip > (capacity - n) / (s->b + 1)) {
                    status = -3;
                    break;
                }
                for (int64_t iteration = 0; iteration < trip; iteration++) {
                    for (int64_t body = 0; body < s->b; body++) {
                        int t = mt_random(&g) < s->p;
                        pcs[n] = s->pc + 8 * (body + 1);
                        taken[n++] = (uint8_t)t;
                        if (s->npairs) note_pair(s, last, body, t);
                    }
                    pcs[n] = s->pc;
                    taken[n++] = iteration != trip - 1;
                }
                break;
            }
            case LOCAL: {
                uint8_t t = s->current[s->c] != 0;
                if (++s->c >= s->a) {
                    s->c = 0;
                    next_pattern(s, variant);
                }
                pcs[n] = s->pc;
                taken[n++] = t;
                break;
            }
            case POINTER: {
                uint32_t which = randbelow(&g, (uint32_t)s->a, s->bits_a);
                int t = mt_random(&g) < s->biases[which];
                pcs[n] = s->pc + 16 * (int64_t)which;
                taken[n++] = (uint8_t)t;
                if (s->npairs) note_pair(s, last, which, t);
                break;
            }
            }
            if (status) break;
            if (s->slot >= 0) last[s->slot] = taken[n - 1]; /* the site's own pc emits last */
            for (int64_t i = start; i < n; i++)
                gaps[i] = low + randbelow(&g, (uint32_t)width, gap_bits);
            if (code_width == 1)
                memset((uint8_t *)codes + start, (int)code, (size_t)(n - start));
            else
                for (int64_t i = start; i < n; i++) {
                    if (code_width == 2) ((uint16_t *)codes)[i] = (uint16_t)code;
                    else ((uint32_t *)codes)[i] = (uint32_t)code;
                }
        }
    }
    if (!status) {
        states[MT_N] = (uint32_t)g.index;
        out[0] = n;
        out[1] = ncodes;
        for (int64_t i = 0; i < nsites; i++) {
            Site *s = &sites[i];
            out[2 + labels + i] = s->kind == LOCAL ? s->c : 0;
            if (s->kind == LOCAL && s->b > 1) s->rng.mt[MT_N] = (uint32_t)s->rng.index;
        }
    }
    free(sites);
    free(last);
    free(code_of);
    free(variant);
    return status;
}
