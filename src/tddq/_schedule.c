/* Boundary-to-boundary scheduler of the slotted two-class priority queue,
 * the finisher of its draws, and the row writer of its event trace.
 *
 * tddq_schedule is the compiled twin of `tddq.sim._schedule_py`: the same
 * operations in the same order over the same pre-drawn arrays, so both give
 * bit-identical outputs. Build with -ffp-contract=off, so that no fused
 * multiply-add changes a rounding. Its loop body, tddq_schedule_n, is
 * written once and compiled twice: inlined with n_servers = 1 and aligned
 * = 1 as constants, so that the coupled run at the paper's config has a
 * fixed trip count in every per-server loop and no test of the start rule,
 * and once more with both read at run time, for every other run. Fixing
 * them sped the coupled loop by ~14%; fixing the count at 2 did not speed
 * the decoupled one measurably, and each copy adds ~30-40 ms to the build.
 *
 * Its inputs, all times in slot units: arr_x/dur_x hold one class's arrival
 * times and service durations, ending in a +inf sentinel; lim_x is the
 * number of real arrivals, or -1 for a class that never arrives. Reaching
 * lim_x means the draw ran short: the caller draws more and calls again.
 * The arrivals are drawn at the per-server rate, so arrival k of an
 * n-server run reads as arr_x[k] * (1.0 / n), which is exact for n = 1, 2.
 *
 * Its outputs: busy[n_servers]; the windowed sojourns soj_s/soj_l, in start
 * order; acc = {integral of N(t), window open, window close};
 * cnt = {shorts queued, longs queued, short sojourns, long sojourns}, where
 * a class's packets queued by the last boundary are exactly its arrivals up
 * to it; and, when rec_cls is not NULL, one record per start in start order
 * (class 0 short / 1 long, arrival, service duration, start, server).
 *
 * tddq_arrival_times and tddq_long_ttis finish a class's draw in place, as
 * `tddq.sim._fill_draw` does in numpy blocks, with the same operations in
 * the same order: u[n] holds unit exponentials from the class's stream.
 * tddq_arrival_times turns the gaps into arrival times at rate lam (s +=
 * u / lam, as `/= lam` and `np.cumsum` do; a vanishing rate overflows to
 * +inf). tddq_long_ttis turns SNR draws into long TTIs in slots: the SNR
 * u * mean_snr lies in the region that counts the interior thresholds
 * g[m] strictly below it (an SNR equal to a threshold falls in the lower
 * region, as in `tddq.traffic.sample_long_services`), and becomes that
 * region's entry of slots[m + 1].
 *
 * tddq_trace_merge is the compiled twin of `tddq.sim._write_trace`'s rows:
 * the same bytes from the run's own arrays, a chunk of rows per call, with
 * no event array and no sort. Each of its streams is already in time order,
 * so it merges them.
 *
 * Its inputs, all times in slot units: arr_s[n_s] and arr_l[n_l], each
 * class's arrivals as drawn (per server, read as arr_x[k] * (1.0 / n) as
 * the scheduler reads them); and one record per start, in start order:
 * rec_cls (0 short, 1 long), rec_dur, rec_start and rec_srv, n_rec each.
 * Its 3 + n_servers streams are the short arrivals, the long arrivals,
 * the starts, and each server's departures rec_start + rec_dur in
 * record order. Rows come out by time, then rank (depart, arrival, start),
 * then the order short arrivals, long arrivals, starts, departures, each in
 * its own order: what a stable sort by (time, rank) of those events gives.
 * max_rows caps the rows of one call; scale turns slots into real time.
 *
 * Its state, 7 + n_servers int64 zeros before the first call, carries the
 * merge from one call to the next: the short and long queue counts, the
 * rows written, the bits of the last row's time, then one cursor per
 * stream (the next short arrival, long arrival and start, and the next
 * record of each server's departures).
 *
 * Its outputs: buf, which holds at least TDDQ_ROW_BYTES per row, gets one
 * CSV row (time,event,class,server,queue_len_short,queue_len_long, then
 * CRLF) per event, the time in printf's "%.9g" after scaling and the server
 * empty on arrivals. A whole-number time below 1e9 prints as its integer,
 * another in fixed notation (1e-4 to 1e9) from one 128-bit multiply and
 * shift, and any other through snprintf. Digits come two at a time from a
 * table of the pairs 00 to 99; a one-digit count or server is written
 * directly. A row adds 1 to its class's queue count on arrival,
 * takes 1 on start, and prints both counts after. The return value is the
 * bytes written, 0 once every stream is done, or -1 for a class above 1, a
 * server outside [0, n_servers), or a time below the last row's, which
 * happens exactly when some stream is out of time order.
 */

#include <math.h>
#include <stdio.h>
#include <string.h>

enum { TDDQ_DONE = 0, TDDQ_NEED_MORE = 1, TDDQ_BREACH = 2, TDDQ_STALLED = 3 };

/* 2^53: above it a double no longer holds every whole number of slots */
#define TDDQ_EXACT_SLOTS 9007199254740992.0

static inline __attribute__((always_inline)) int
tddq_schedule_n(const long long n_servers, const int aligned, long long horizon, long long warmup,
                const double *arr_s, const double *dur_s, long long lim_s,
                const double *arr_l, const double *dur_l, long long lim_l,
                double *busy, double *soj_s, double *soj_l, double *acc, long long *cnt,
                unsigned char *rec_cls, double *rec_arr, double *rec_dur,
                double *rec_start, long long *rec_srv)
{
    double free_[n_servers];
    long long ns = 0, nl = 0; /* arrivals taken into the queues */
    long long hs = 0, hl = 0; /* queue heads: the queues are [hs, ns) and [hl, nl) */
    long long started = 0, k_s = 0, k_l = 0;
    double n_int = 0.0, t_w = 0.0, t = 0.0;
    int warm = 0;
    const double per_server = 1.0 / (double)n_servers;
    long long i, j, j2;

    for (j = 0; j < n_servers; j++) {
        free_[j] = 0.0;
        busy[j] = 0.0;
    }

    while (started < horizon) {
        const long long begun = started; /* starts before this boundary */
        /* decision boundary: earliest free server, pushed out to the next
         * packet availability when nothing is waiting */
        t = free_[0];
        for (j = 1; j < n_servers; j++)
            if (free_[j] < t)
                t = free_[j];
        if (hs == ns && hl == nl) {
            double a = (arr_s[ns] < arr_l[nl] ? arr_s[ns] : arr_l[nl]) * per_server;
            double avail = aligned ? ceil(a) : a;
            if (!(avail <= t)) /* a NaN arrival makes t NaN, which stalls below */
                t = avail;
        }
        /* traffic so sparse that time left the exact range: a service would
         * not advance the clock, and at +inf the scans below would pass the
         * sentinels; a NaN clock would never move */
        if (!(t < TDDQ_EXACT_SLOTS))
            return TDDQ_STALLED;

        while (arr_s[ns] * per_server <= t)
            ns++;
        while (arr_l[nl] * per_server <= t)
            nl++;
        if (ns == lim_s || nl == lim_l)
            return TDDQ_NEED_MORE;

        for (j = 0; j < n_servers; j++) {
            int cls;
            double arr, dur, dep;
            if (free_[j] > t)
                continue;
            if (hs < ns) {
                cls = 0;
                arr = arr_s[hs] * per_server;
                dur = dur_s[hs++];
            } else if (hl < nl) {
                cls = 1;
                arr = arr_l[hl] * per_server;
                dur = dur_l[hl++];
            } else {
                break;
            }
            if (started == warmup) {
                /* window opens at this start; credit in-flight remainders */
                t_w = t;
                warm = 1;
                for (j2 = 0; j2 < n_servers; j2++) {
                    double over = free_[j2] - t_w;
                    if (over > 0) {
                        busy[j2] += over;
                        n_int += over;
                    }
                }
            }
            dep = t + dur;
            free_[j] = dep;
            if (warm) {
                busy[j] += dur;
                n_int += dep - (arr > t_w ? arr : t_w);
                if (cls == 0)
                    soj_s[k_s++] = dep - arr;
                else
                    soj_l[k_l++] = dep - arr;
            }
            if (rec_cls) {
                rec_cls[started] = (unsigned char)cls;
                rec_arr[started] = arr;
                rec_dur[started] = dur;
                rec_start[started] = t;
                rec_srv[started] = j;
            }
            started++;
            if (started == horizon)
                break;
        }

        /* work conservation: a boundary never leaves a free server and a
         * waiting packet behind. Every server free at t took a packet unless
         * the queues emptied, so one still free took a zero-length service
         * (an exponential draw can be 0): a boundary that started something
         * runs again, and only one that started nothing breaches */
        if (started < horizon && (hs < ns || hl < nl) && started == begun)
            for (j = 0; j < n_servers; j++)
                if (free_[j] <= t)
                    return TDDQ_BREACH;
    }

    /* close the window at the last start */
    for (j = 0; j < n_servers; j++) {
        double over = free_[j] - t;
        if (over > 0) {
            busy[j] -= over;
            n_int -= over;
        }
    }
    for (i = hs; i < ns; i++)
        n_int += t - fmax(arr_s[i] * per_server, t_w);
    for (i = hl; i < nl; i++)
        n_int += t - fmax(arr_l[i] * per_server, t_w);

    acc[0] = n_int;
    acc[1] = t_w;
    acc[2] = t;
    cnt[0] = ns;
    cnt[1] = nl;
    cnt[2] = k_s;
    cnt[3] = k_l;
    return TDDQ_DONE;
}

int tddq_schedule(long long n_servers, int aligned, long long horizon, long long warmup,
                  const double *arr_s, const double *dur_s, long long lim_s,
                  const double *arr_l, const double *dur_l, long long lim_l,
                  double *busy, double *soj_s, double *soj_l, double *acc, long long *cnt,
                  unsigned char *rec_cls, double *rec_arr, double *rec_dur,
                  double *rec_start, long long *rec_srv)
{
    if (n_servers == 1 && aligned) /* coupled, at the paper's config */
        return tddq_schedule_n(1, 1, horizon, warmup, arr_s, dur_s, lim_s, arr_l, dur_l, lim_l,
                               busy, soj_s, soj_l, acc, cnt,
                               rec_cls, rec_arr, rec_dur, rec_start, rec_srv);
    return tddq_schedule_n(n_servers, aligned, horizon, warmup, arr_s, dur_s, lim_s,
                           arr_l, dur_l, lim_l, busy, soj_s, soj_l, acc, cnt,
                           rec_cls, rec_arr, rec_dur, rec_start, rec_srv);
}

void tddq_arrival_times(double *u, long long n, double lam)
{
    double s = 0.0;
    long long k;
    for (k = 0; k < n; k++) {
        s += u[k] / lam;
        u[k] = s;
    }
}

void tddq_long_ttis(double *u, long long n, double mean_snr,
                    const double *g, long long m, const double *slots)
{
    long long k, i;
    for (k = 0; k < n; k++) {
        const double snr = u[k] * mean_snr;
        long long region = 0;
        for (i = 0; i < m; i++)
            region += snr > g[i];
        u[k] = slots[region];
    }
}

/* The longest row: a "%.9g" time ("-1.23456789e-308", 16), "arrival" (7),
 * "short" (5), a server and two counts (20 each, "-9223372036854775808"),
 * 5 commas and CRLF */
#define TDDQ_ROW_BYTES 95

__extension__ typedef unsigned __int128 tddq_u128;

static const unsigned long long tddq_pow10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
};

/* the two digits of every number below 100: "00", "01", ..., "99" */
static const char tddq_pairs[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* u's decimal digits, two at a time from the pair table; returns the length
 * (at most 20) */
static int tddq_format_u(char *p, unsigned long long u)
{
    int len = 1;
    char *q;
    while (len < 20 && u >= tddq_pow10[len])
        len++;
    q = p + len;
    while (u >= 100) {
        q -= 2;
        memcpy(q, tddq_pairs + 2 * (u % 100), 2);
        u /= 100;
    }
    if (u >= 10)
        memcpy(q - 2, tddq_pairs + 2 * u, 2);
    else
        q[-1] = (char)('0' + u);
    return len;
}

/* x as printf's "%.9g" writes it; returns the length (at most 16).
 *
 * A whole number from 1 up to 1e9 prints as its integer's digits: every
 * start and departure of a slot-aligned run with slot 1. Any
 * other value whose nine digits print in fixed notation (1e-4 <= x < 1e9,
 * and not rounding up to 1e9) is formatted exactly here too. With
 * x = m / 2^s (m the 53-bit significand) and 10^X <= x < 10^(X+1), its
 * digits are m * 10^(8-X) / 2^s rounded half to even: under 2^93, so one
 * 128-bit product and shift; they are written as a leading digit and four
 * pairs from the pair table. Everything else goes to snprintf. */
static int tddq_format_g9(char *p, double x)
{
    if (x >= 1.0 && x < 1e9 && x == (double)(unsigned long long)x)
        return tddq_format_u(p, (unsigned long long)x);
    if (x >= 1e-4 && x < 1e9) {
        int e2, X, s, i, keep, end;
        unsigned long long m, n, hi, lo;
        tddq_u128 prod, digits, rem, half;
        char d[9], *q = p;

        /* a normal double: x = (2^52 + fraction) * 2^(biased exponent - 1075) */
        memcpy(&m, &x, sizeof m);
        s = 1075 - (int)(m >> 52); /* 23..66 in this range */
        m = (m & 0xfffffffffffffULL) | (1ULL << 52);
        /* 2^(e2-1) <= x < 2^e2, so X is floor((e2-1) log10 2) or one more
         * (78913 / 2^18 is log10 2 closely enough for |e2| < 1650, and the
         * offset of 100 keeps the shifted value positive); x >= 10^(X+1)
         * exactly when m * 10^(8-(X+1)) >= 10^8 * 2^s */
        e2 = 53 - s;
        X = (((e2 - 1) * 78913 + (100 << 18)) >> 18) - 100;
        if (X < 8 && (tddq_u128)m * tddq_pow10[7 - X] >= ((tddq_u128)tddq_pow10[8] << s))
            X++;
        if (X >= -4) {
            prod = (tddq_u128)m * tddq_pow10[8 - X];
            digits = prod >> s;
            rem = prod - (digits << s);
            half = (tddq_u128)1 << (s - 1);
            if (rem > half || (rem == half && (digits & 1)))
                digits++;
            if (digits == tddq_pow10[9]) { /* 9.999999995e(X) carries to 1e(X+1) */
                digits = tddq_pow10[8];
                X++;
            }
            if (X <= 8) {
                n = (unsigned long long)digits; /* 10^8 <= n < 10^9 */
                d[0] = (char)('0' + n / tddq_pow10[8]);
                hi = n % tddq_pow10[8] / 10000;
                lo = n % 10000;
                memcpy(d + 1, tddq_pairs + 2 * (hi / 100), 2);
                memcpy(d + 3, tddq_pairs + 2 * (hi % 100), 2);
                memcpy(d + 5, tddq_pairs + 2 * (lo / 100), 2);
                memcpy(d + 7, tddq_pairs + 2 * (lo % 100), 2);
                /* drop trailing zeros of the fraction, and a bare point */
                keep = X >= 0 ? X + 1 : 0;
                for (end = 9; end > keep && d[end - 1] == '0'; end--)
                    ;
                if (X >= 0) {
                    memcpy(q, d, (size_t)keep);
                    q += keep;
                    if (end > keep)
                        *q++ = '.';
                } else {
                    *q++ = '0';
                    *q++ = '.';
                    for (i = -1; i > X; i--)
                        *q++ = '0';
                }
                memcpy(q, d + keep, (size_t)(end - keep));
                q += end - keep;
                return (int)(q - p);
            }
        }
    }
    if (isnan(x)) { /* without a sign, as Python writes it */
        memcpy(p, "nan", 3);
        return 3;
    }
    return snprintf(p, 17, "%.9g", x);
}

/* v in decimal; returns the length (at most 20). A count or server below 10
 * is one digit, written directly. */
static int tddq_format_ll(char *p, long long v)
{
    if (v >= 0 && v < 10) {
        *p = (char)('0' + v);
        return 1;
    }
    if (v < 0) { /* 0 - v in unsigned arithmetic, so LLONG_MIN is safe */
        *p = '-';
        return 1 + tddq_format_u(p + 1, 0ULL - (unsigned long long)v);
    }
    return tddq_format_u(p, (unsigned long long)v);
}

/* trace events, numbered by their rank among simultaneous events (a packet
 * that starts as it arrives is counted in before it is taken out); each
 * number also picks the event's label */
enum { TDDQ_DEPART = 0, TDDQ_ARRIVAL = 1, TDDQ_START = 2 };

/* state[]: the queue counts, rows so far and the last row's time (its
 * bits), then one cursor per stream */
enum { TDDQ_QUEUE_SHORT, TDDQ_QUEUE_LONG, TDDQ_ROWS, TDDQ_LAST_TIME, TDDQ_CURSORS };

/* the order of equal times: rank, then the order made (short arrivals
 * before long ones, departures by record); a done stream's key is largest */
#define TDDQ_KEY(rank, i) (((unsigned long long)(rank) << 56) | (unsigned long long)(i))
#define TDDQ_NONE (~0ULL)

typedef struct {
    const double *arr[2]; /* short, long */
    long long n_arr[2];
    const double *dur, *start;
    const long long *srv;
    long long n_rec;
    double per_server;
} tddq_trace_in;

/* The head of stream s (0 short arrivals, 1 long arrivals, 2 starts, 3 + j
 * server j's departures) at its cursor, which a departure stream first
 * moves onto its server's next record. */
static void tddq_head(const tddq_trace_in *in, long long s, long long *cursor,
                      double *time, unsigned long long *key)
{
    long long k = cursor[s];
    if (s < 2 && k < in->n_arr[s]) {
        *time = in->arr[s][k] * in->per_server;
        *key = TDDQ_KEY(TDDQ_ARRIVAL, s);
        return;
    }
    if (s == 2 && k < in->n_rec) {
        *time = in->start[k];
        *key = TDDQ_KEY(TDDQ_START, 0);
        return;
    }
    if (s > 2) {
        while (k < in->n_rec && in->srv[k] != s - 3)
            k++;
        cursor[s] = k;
        if (k < in->n_rec) {
            *time = in->start[k] + in->dur[k];
            *key = TDDQ_KEY(TDDQ_DEPART, k);
            return;
        }
    }
    *time = INFINITY;
    *key = TDDQ_NONE;
}

long long tddq_trace_merge(long long n_servers, double scale,
                           const double *arr_s, long long n_s,
                           const double *arr_l, long long n_l,
                           const unsigned char *rec_cls, const double *rec_dur,
                           const double *rec_start, const long long *rec_srv, long long n_rec,
                           long long max_rows, long long *state, char *buf)
{
    /* ",event,class," per event and class, and its length */
    static const char *const labels[3][2] = {
        [TDDQ_DEPART] = {",depart,short,", ",depart,long,"},
        [TDDQ_ARRIVAL] = {",arrival,short,", ",arrival,long,"},
        [TDDQ_START] = {",start,short,", ",start,long,"},
    };
    static const size_t label_len[3][2] = {
        [TDDQ_DEPART] = {14, 13}, [TDDQ_ARRIVAL] = {15, 14}, [TDDQ_START] = {13, 12},
    };
    const tddq_trace_in in = {{arr_s, arr_l}, {n_s, n_l}, rec_dur, rec_start, rec_srv,
                              n_rec, 1.0 / (double)n_servers};
    const long long n_streams = 3 + (n_servers > 0 ? n_servers : 0);
    long long *cursor = state + TDDQ_CURSORS;
    long long queue[2] = {state[TDDQ_QUEUE_SHORT], state[TDDQ_QUEUE_LONG]};
    long long rows = state[TDDQ_ROWS], end = rows + max_rows, s, best;
    double head_time[n_streams], last;
    unsigned long long head_key[n_streams];
    char *p = buf;

    if (n_servers < 1)
        return -1;
    memcpy(&last, &state[TDDQ_LAST_TIME], sizeof last);
    for (s = 0; s < n_streams; s++)
        tddq_head(&in, s, cursor, &head_time[s], &head_key[s]);

    for (; rows < end; rows++) {
        long long k, srv = -1;
        int rank, cls;
        double t;

        best = 0;
        for (s = 1; s < n_streams; s++)
            if (head_time[s] < head_time[best]
                || (head_time[s] == head_time[best] && head_key[s] < head_key[best]))
                best = s;
        if (head_key[best] == TDDQ_NONE)
            break; /* every stream is done */
        t = head_time[best];
        if (rows > 0 && t < last)
            return -1; /* some stream is out of time order */
        k = cursor[best]++;
        if (best < 2) {
            rank = TDDQ_ARRIVAL;
            cls = (int)best;
            queue[cls]++;
        } else {
            rank = best == 2 ? TDDQ_START : TDDQ_DEPART;
            cls = rec_cls[k];
            srv = rec_srv[k];
            if (cls > 1 || srv < 0 || srv >= n_servers)
                return -1;
            if (rank == TDDQ_START)
                queue[cls]--;
        }
        tddq_head(&in, best, cursor, &head_time[best], &head_key[best]);
        last = t;

        p += tddq_format_g9(p, t * scale);
        memcpy(p, labels[rank][cls], label_len[rank][cls]);
        p += label_len[rank][cls];
        if (srv >= 0)
            p += tddq_format_ll(p, srv);
        *p++ = ',';
        p += tddq_format_ll(p, queue[0]);
        *p++ = ',';
        p += tddq_format_ll(p, queue[1]);
        *p++ = '\r';
        *p++ = '\n';
    }
    state[TDDQ_QUEUE_SHORT] = queue[0];
    state[TDDQ_QUEUE_LONG] = queue[1];
    state[TDDQ_ROWS] = rows;
    memcpy(&state[TDDQ_LAST_TIME], &last, sizeof last);
    return (long long)(p - buf);
}
