/* Boundary-to-boundary scheduler of the slotted two-class priority queue.
 *
 * The compiled twin of `tddq.sim._schedule_py`: the same operations in the
 * same order over the same pre-drawn arrays, so both give bit-identical
 * outputs. Build with -ffp-contract=off, so that no fused multiply-add
 * changes a rounding.
 *
 * Inputs, all times in slot units. arr_x/dur_x hold one class's arrival
 * times and service durations, ending in a +inf sentinel; lim_x is the
 * number of real arrivals, or -1 for a class that never arrives. Reaching
 * lim_x means the draw ran short: the caller draws more and calls again.
 * The arrivals are drawn at the per-server rate, so arrival k of an
 * n-server run reads as arr_x[k] * (1.0 / n), which is exact for n = 1, 2.
 *
 * Outputs: busy[n_servers]; the windowed sojourns soj_s/soj_l, in start
 * order; acc = {integral of N(t), window open, window close};
 * cnt = {shorts queued, longs queued, short sojourns, long sojourns}, where
 * a class's packets queued by the last boundary are exactly its arrivals up
 * to it; and, when rec_cls is not NULL, one record per start in start order
 * (class 0 short / 1 long, arrival, service duration, start, server).
 */

#include <math.h>

enum { TDDQ_DONE = 0, TDDQ_NEED_MORE = 1, TDDQ_BREACH = 2, TDDQ_STALLED = 3 };

/* 2^53: above it a double no longer holds every whole number of slots */
#define TDDQ_EXACT_SLOTS 9007199254740992.0

int tddq_schedule(long long n_servers, int aligned, long long horizon, long long warmup,
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
        /* decision boundary: earliest free server, pushed out to the next
         * packet availability when nothing is waiting */
        t = free_[0];
        for (j = 1; j < n_servers; j++)
            if (free_[j] < t)
                t = free_[j];
        if (hs == ns && hl == nl) {
            double a = (arr_s[ns] < arr_l[nl] ? arr_s[ns] : arr_l[nl]) * per_server;
            double avail = aligned ? ceil(a) : a;
            if (avail > t)
                t = avail;
        }
        /* traffic so sparse that time left the exact range: a service would
         * not advance the clock, and at +inf the scans below would pass the
         * sentinels */
        if (t >= TDDQ_EXACT_SLOTS)
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
         * waiting packet behind */
        if (started < horizon && (hs < ns || hl < nl))
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
