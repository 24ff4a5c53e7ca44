/* Contention solver kernel: the production twin of the scalar oracle
 * repro.sim.contention.solve_steady_state.
 *
 * Compiled on demand by repro.sim._cext (cc -O2 -shared -fPIC, never
 * -ffast-math: the kernel must stay IEEE-exact) and loaded via ctypes.
 * One call solves a packed batch: element b's stages live in
 * offsets[b]..offsets[b+1] of the flat per-stage arrays.  Every loop
 * accumulates in the same order as the scalar oracle — segment sums
 * walk stages in index order, the limit-cycle window averages
 * chronologically, damping groups as d*x + (1-d)*y — so the float
 * trajectory is bit-identical to it, which
 * tests/property/test_solver_equivalence.py locks.
 *
 * The arrays arrive as three buffers, laid out by repro.sim._cext
 * (which checks their dtype, contiguity and length before any call),
 * with n = offsets[n_batch] stages in all:
 *
 *   ints  (int64):   offsets[n_batch + 1] | comp_of[n] | dnn_of[n]
 *   reals (float64): inflated[n] | kernel_time[n] | hol_k[n] | weights[n]
 *   out   (float64): rates[n_batch * num_dnns] | util[n_batch * num_comp]
 *                    | iterations[n_batch] | converged[n_batch]
 *                    | alloc[n] | eff[n]
 *
 * The limit-cycle check keeps, per DNN, monotonic deques of the window's
 * iterates, so the window's exact minimum and maximum cost O(1) a
 * check.  A DNN whose span already exceeds cycle_tol times its maximum
 * (with a 1e-9 margin) fails the check without a scan: on non-negative
 * iterates the chronological mean never exceeds the maximum by more than
 * a few ulps, so the scan would have found the same ratio above
 * cycle_tol.  Only a window that can still pass is scanned, exactly as
 * the oracle does, and a window holding a NaN always is.
 *
 * Returns 0 on success, 1 on scratch-allocation failure.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Push iterate ``it`` with value ``v`` onto one DNN's deque, a ring of
 * ``window`` (value, iteration) slots from ``*head``.  Iterates older than
 * the window leave the front first; the front then holds the window's
 * minimum (keep_min) or maximum. */
static void window_push(double *val, int64_t *idx, int64_t *head,
                        int64_t *len, int64_t window, int64_t it, double v,
                        int keep_min)
{
    while (*len && idx[*head] <= it - window) {
        *head = (*head + 1) % window;
        (*len)--;
    }
    while (*len) {
        double back = val[(*head + *len - 1) % window];
        if (keep_min ? back < v : back > v)
            break;
        (*len)--;
    }
    int64_t slot = (*head + *len) % window;
    val[slot] = v;
    idx[slot] = it;
    (*len)++;
}

int solve_packed(const int64_t *ints, const double *reals, double *out,
                 int64_t n_batch, int64_t num_dnns, int64_t num_comp,
                 int64_t max_iter, double damping, double tol,
                 int64_t cycle_window, double cycle_tol,
                 int64_t cycle_burn_in)
{
    const int64_t *offsets = ints;
    const int64_t n_total = offsets[n_batch];
    const int64_t *comp_of = offsets + n_batch + 1;
    const int64_t *dnn_of = comp_of + n_total;
    const double *inflated = reals;
    const double *kernel_time = inflated + n_total;
    const double *hol_k = kernel_time + n_total;
    const double *weights = hol_k + n_total;
    double *out_rates = out;
    double *out_util = out_rates + n_batch * num_dnns;
    double *out_iters = out_util + n_batch * num_comp;
    double *out_conv = out_iters + n_batch;
    double *out_alloc = out_conv + n_batch;
    double *out_eff = out_alloc + n_total;

    int64_t max_stages = 0;
    for (int64_t b = 0; b < n_batch; b++) {
        int64_t n = offsets[b + 1] - offsets[b];
        if (n > max_stages)
            max_stages = n;
    }

    double *alloc = malloc((size_t)max_stages * sizeof(double));
    double *hol_wait = malloc((size_t)max_stages * sizeof(double));
    double *blocked = malloc((size_t)max_stages * sizeof(double));
    double *stage_rate = malloc((size_t)max_stages * sizeof(double));
    double *cap_rate = malloc((size_t)max_stages * sizeof(double));
    double *ceiling_rate = malloc((size_t)max_stages * sizeof(double));
    double *target = malloc((size_t)max_stages * sizeof(double));
    double *need = malloc((size_t)max_stages * sizeof(double));
    uint8_t *wants_more = malloc((size_t)max_stages * sizeof(uint8_t));
    double *rates = malloc((size_t)num_dnns * sizeof(double));
    double *new_rates = malloc((size_t)num_dnns * sizeof(double));
    double *means = malloc((size_t)num_dnns * sizeof(double));
    double *weight_sum = malloc((size_t)num_comp * sizeof(double));
    double *totals = malloc((size_t)num_comp * sizeof(double));
    double *sat_need = malloc((size_t)num_comp * sizeof(double));
    double *hot_weight = malloc((size_t)num_comp * sizeof(double));
    double *ring = malloc((size_t)cycle_window * (size_t)num_dnns
                          * sizeof(double));
    /* Per DNN d: deque 2d keeps the window's minimum, 2d + 1 its maximum,
     * each in cycle_window slots. */
    double *q_val = malloc(2 * (size_t)cycle_window * (size_t)num_dnns
                           * sizeof(double));
    int64_t *q_idx = malloc(2 * (size_t)cycle_window * (size_t)num_dnns
                            * sizeof(int64_t));
    int64_t *q_head = malloc(2 * (size_t)num_dnns * sizeof(int64_t));
    int64_t *q_len = malloc(2 * (size_t)num_dnns * sizeof(int64_t));
    if (!alloc || !hol_wait || !blocked || !stage_rate || !cap_rate
        || !ceiling_rate || !target || !need || !wants_more || !rates
        || !new_rates || !means || !weight_sum || !totals || !sat_need
        || !hot_weight || !ring || !q_val || !q_idx || !q_head || !q_len) {
        free(alloc); free(hol_wait); free(blocked); free(stage_rate);
        free(cap_rate); free(ceiling_rate); free(target); free(need);
        free(wants_more); free(rates); free(new_rates); free(means);
        free(weight_sum); free(totals); free(sat_need); free(hot_weight);
        free(ring); free(q_val); free(q_idx); free(q_head); free(q_len);
        return 1;
    }
    const double span_bound = cycle_tol * (1.0 + 1e-9);

    for (int64_t b = 0; b < n_batch; b++) {
        const int64_t s0 = offsets[b];
        const int64_t n_stages = offsets[b + 1] - s0;
        const int64_t *comp = comp_of + s0;
        const int64_t *dnn = dnn_of + s0;
        const double *infl = inflated + s0;
        const double *ktime = kernel_time + s0;
        const double *holk = hol_k + s0;
        const double *wgt = weights + s0;

        /* Entitlements, accumulated in stage order like bincount. */
        for (int64_t c = 0; c < num_comp; c++)
            weight_sum[c] = 0.0;
        for (int64_t s = 0; s < n_stages; s++)
            weight_sum[comp[s]] += wgt[s];
        for (int64_t s = 0; s < n_stages; s++)
            alloc[s] = wgt[s] / weight_sum[comp[s]];

        int has_hol = 0;
        for (int64_t s = 0; s < n_stages; s++) {
            if (holk[s] != 0.0) {
                has_hol = 1;
                break;
            }
        }

        for (int64_t d = 0; d < num_dnns; d++)
            rates[d] = 0.0;
        for (int64_t s = 0; s < n_stages; s++)
            hol_wait[s] = 0.0;
        for (int64_t q = 0; q < 2 * num_dnns; q++) {
            q_head[q] = 0;
            q_len[q] = 0;
        }
        int nan_seen = 0;

        int64_t iterations = 0;
        int converged = 0;
        for (int64_t it = 1; it <= max_iter; it++) {
            iterations = it;
            if (has_hol) {
                for (int64_t c = 0; c < num_comp; c++)
                    totals[c] = 0.0;
                for (int64_t s = 0; s < n_stages; s++) {
                    blocked[s] = rates[dnn[s]] * infl[s] * ktime[s];
                    totals[comp[s]] += blocked[s];
                }
                for (int64_t s = 0; s < n_stages; s++) {
                    double new_wait = holk[s] * (totals[comp[s]] - blocked[s]);
                    hol_wait[s] = damping * hol_wait[s]
                        + (1.0 - damping) * new_wait;
                }
            }

            for (int64_t d = 0; d < num_dnns; d++)
                new_rates[d] = INFINITY;
            for (int64_t s = 0; s < n_stages; s++) {
                cap_rate[s] = alloc[s] / infl[s];
                ceiling_rate[s] = 1.0 / (infl[s] + hol_wait[s]);
                double sr = cap_rate[s] < ceiling_rate[s]
                    ? cap_rate[s] : ceiling_rate[s];
                stage_rate[s] = sr;
                if (sr < new_rates[dnn[s]])
                    new_rates[dnn[s]] = sr;
            }
            for (int64_t d = 0; d < num_dnns; d++) {
                if (isinf(new_rates[d]))
                    new_rates[d] = 0.0;
            }

            /* Water-fill, same satisfied/hungry split as the scalar path. */
            for (int64_t c = 0; c < num_comp; c++) {
                sat_need[c] = 0.0;
                hot_weight[c] = 0.0;
            }
            for (int64_t s = 0; s < n_stages; s++) {
                need[s] = new_rates[dnn[s]] * infl[s];
                int limiting = stage_rate[s]
                    <= new_rates[dnn[s]] * (1.0 + 1e-9);
                wants_more[s] = limiting && cap_rate[s] <= ceiling_rate[s];
                if (wants_more[s])
                    hot_weight[comp[s]] += wgt[s];
                else
                    sat_need[comp[s]] += need[s];
            }
            for (int64_t s = 0; s < n_stages; s++) {
                int64_t c = comp[s];
                if (hot_weight[c] > 0.0) {
                    if (wants_more[s]) {
                        double free_c = 1.0 - sat_need[c];
                        if (free_c < 0.0)
                            free_c = 0.0;
                        target[s] = free_c * wgt[s] / hot_weight[c];
                    } else {
                        target[s] = need[s];
                    }
                } else {
                    target[s] = alloc[s];
                }
            }

            double max_rate = 0.0;
            double max_diff = 0.0;
            for (int64_t d = 0; d < num_dnns; d++) {
                if (new_rates[d] > max_rate)
                    max_rate = new_rates[d];
                double diff = fabs(new_rates[d] - rates[d]);
                if (diff > max_diff)
                    max_diff = diff;
                rates[d] = new_rates[d];
            }
            double floor_r = max_rate > 1e-12 ? max_rate : 1e-12;
            if (max_diff <= tol * floor_r) {
                converged = 1;
                break;
            }

            if (it > cycle_burn_in - cycle_window) {
                double *row = ring + ((it - 1) % cycle_window) * num_dnns;
                for (int64_t d = 0; d < num_dnns; d++) {
                    double v = rates[d];
                    row[d] = v;
                    if (isnan(v))
                        nan_seen = 1;
                    for (int64_t q = 2 * d; q < 2 * d + 2; q++)
                        window_push(q_val + q * cycle_window,
                                    q_idx + q * cycle_window, q_head + q,
                                    q_len + q, cycle_window, it, v,
                                    q == 2 * d);
                }
            }
            int may_settle = it >= cycle_burn_in;
            for (int64_t d = 0; may_settle && !nan_seen && d < num_dnns;
                 d++) {
                double lo = q_val[2 * d * cycle_window + q_head[2 * d]];
                double hi = q_val[(2 * d + 1) * cycle_window
                                  + q_head[2 * d + 1]];
                double hfloor = hi > 1e-12 ? hi : 1e-12;
                if (lo >= 0.0 && hi - lo > span_bound * hfloor)
                    may_settle = 0;
            }
            if (may_settle) {
                double worst = 0.0;
                for (int64_t d = 0; d < num_dnns; d++) {
                    double first = ring[((it - cycle_window) % cycle_window)
                                        * num_dnns + d];
                    double lo = first, hi = first, mean = first;
                    for (int64_t k = it - cycle_window + 1; k < it; k++) {
                        double v = ring[(k % cycle_window) * num_dnns + d];
                        if (v < lo)
                            lo = v;
                        if (v > hi)
                            hi = v;
                        mean = mean + v;
                    }
                    mean /= (double)cycle_window;
                    means[d] = mean;
                    double mfloor = mean > 1e-12 ? mean : 1e-12;
                    double ratio = (hi - lo) / mfloor;
                    if (ratio > worst)
                        worst = ratio;
                }
                if (worst <= cycle_tol) {
                    for (int64_t d = 0; d < num_dnns; d++)
                        rates[d] = means[d];
                    converged = 1;
                    break;
                }
            }

            for (int64_t s = 0; s < n_stages; s++)
                alloc[s] = damping * alloc[s] + (1.0 - damping) * target[s];
        }

        for (int64_t d = 0; d < num_dnns; d++)
            out_rates[b * num_dnns + d] = rates[d];
        for (int64_t c = 0; c < num_comp; c++)
            out_util[b * num_comp + c] = 0.0;
        for (int64_t s = 0; s < n_stages; s++) {
            out_alloc[s0 + s] = alloc[s];
            out_eff[s0 + s] = infl[s] + hol_wait[s];
            out_util[b * num_comp + comp[s]] += rates[dnn[s]] * infl[s];
        }
        out_iters[b] = (double)iterations;
        out_conv[b] = converged ? 1.0 : 0.0;
    }

    free(alloc); free(hol_wait); free(blocked); free(stage_rate);
    free(cap_rate); free(ceiling_rate); free(target); free(need);
    free(wants_more); free(rates); free(new_rates); free(means);
    free(weight_sum); free(totals); free(sat_need); free(hot_weight);
    free(ring); free(q_val); free(q_idx); free(q_head); free(q_len);
    return 0;
}
