/* One collapsed Gibbs sweep of the joint sentiment-topic model, compiled and
 * loaded by segsum.model (see gibbs_sweep there).
 *
 * It samples the chain of the per-sentence numpy sampler in tests/oracles.py
 * (numpy_gibbs_sweep, with libm's log and exp), so it computes the same
 * terms, and each sum over a sentence's ids runs left to right, as
 * numpy_conditional_log's np.cumsum adds them. The conditional is
 * ((aspect + senti) + doc_topic) + doc_senti, and the draw is
 * np.searchsorted(side="right") over np.cumsum of the weights. log and exp
 * are libm's, which CPython's math.log and math.exp call too. Build it
 * with -fno-fast-math -ffp-contract=off, so that the compiler neither
 * reorders nor fuses the floating-point operations.
 *
 * Arrays are C-contiguous: int64 for the flat corpus (vocabulary ids only;
 * the sweep counts repeated ids itself) and the assignments, double for the
 * counts and smoothers, indexed as their numpy shapes
 * (n_TW (T, V), n_STW (S, T, V'), n_DT (D, T), n_DS (D, S), n_TW_rows (T,),
 * n_STW_rows (S, T), beta_prime (S, T, V'), bar_beta_prime (S, T)).
 */

#include <math.h>
#include <stdint.h>

static double ln(double x)
{
    return x <= 0 ? -INFINITY : log(x);
}

/* rep[t]: how many ids before ids[t] equal it, its offset in the rising factorial */
static void count_repeats(const int64_t *ids, int64_t n, double *rep)
{
    for (int64_t t = 0; t < n; t++) {
        rep[t] = 0.0;
        for (int64_t u = 0; u < t; u++)
            rep[t] += ids[u] == ids[t];
    }
}

/* One row of numpy_conditional_log's num - den, for a topic's or a
 * (sentiment, topic) pair's count row: the sum of
 * ln(row[w] + smoother[w * stride] + r) over the ids w and their repeat
 * counts r (count_repeats), minus the sum of ln(x + t) for t below n, each
 * sum left to right. */
static double log_rising_ratio(const double *row, const double *smoother, int64_t stride,
                               double x, const int64_t *ids, const double *rep, int64_t n)
{
    double num = 0.0, den = 0.0;
    for (int64_t t = 0; t < n; t++) {
        num += ln(row[ids[t]] + smoother[ids[t] * stride] + rep[t]);
        den += ln(x + (double)t);
    }
    return num - den;
}

/* numpy_decrement (step -1) or numpy_increment (step +1): add step times
 * one sentence, assigned sentiment j and topic k, to the counts */
static void move(int64_t step, int64_t d, int64_t j, int64_t k, int64_t S, int64_t T,
                 int64_t V, int64_t Vp, const int64_t *a_ids, int64_t na,
                 const int64_t *s_ids, int64_t ns, double *n_TW, double *n_STW,
                 double *n_DT, double *n_DS, double *n_TW_rows, double *n_STW_rows)
{
    for (int64_t t = 0; t < na; t++)
        n_TW[k * V + a_ids[t]] += (double)step;
    for (int64_t t = 0; t < ns; t++)
        n_STW[(j * T + k) * Vp + s_ids[t]] += (double)step;
    n_TW_rows[k] += (double)(step * na);
    n_STW_rows[j * T + k] += (double)(step * ns);
    n_DT[d * T + k] += (double)step;
    n_DS[d * S + j] += (double)step;
}

/* numpy_gibbs_sweep's pick: the index of the first entry of
 * np.cumsum(exp(logp - logp.max())) above u times the total, as
 * np.searchsorted(side="right") finds it. The cumulative weights overwrite
 * logp. */
static int64_t draw(double *logp, int64_t n, double u)
{
    double top = logp[0], total = 0.0;
    for (int64_t m = 1; m < n; m++)
        if (logp[m] > top)
            top = logp[m];
    for (int64_t m = 0; m < n; m++) {
        total += exp(logp[m] - top);
        logp[m] = total;
    }
    const double x = u * total;
    for (int64_t m = 0; m < n; m++)
        if (logp[m] > x)
            return m;
    return n - 1;
}

/* Resample the (sentiment, topic) pair of every sentence in order, with
 * u[i] the uniform draw of sentence i; z, s and the counts are updated in
 * place. work holds S T + T + 2 L doubles, L the longest id list. */
void segsum_sweep(int64_t n_sent, int64_t S, int64_t T, int64_t V, int64_t Vp,
                  double alpha, double beta, double gamma,
                  const int64_t *doc, const int64_t *aspect_start, const int64_t *aspect,
                  const int64_t *senti_start, const int64_t *senti,
                  const double *u, int64_t *z, int64_t *s,
                  double *n_TW, double *n_STW, double *n_DT, double *n_DS,
                  double *n_TW_rows, double *n_STW_rows,
                  const double *beta_prime, const double *bar_beta_prime, double *work)
{
    double *logp = work, *aspect_term = work + S * T, *a_rep = aspect_term + T;
    const double bar_beta = (double)V * beta;
    for (int64_t i = 0; i < n_sent; i++) {
        const int64_t d = doc[i];
        const int64_t *a_ids = aspect + aspect_start[i], *s_ids = senti + senti_start[i];
        const int64_t na = aspect_start[i + 1] - aspect_start[i];
        const int64_t ns = senti_start[i + 1] - senti_start[i];
        double *s_rep = a_rep + na;
        count_repeats(a_ids, na, a_rep);
        count_repeats(s_ids, ns, s_rep);

        move(-1, d, s[i], z[i], S, T, V, Vp, a_ids, na, s_ids, ns,
             n_TW, n_STW, n_DT, n_DS, n_TW_rows, n_STW_rows);
        for (int64_t k = 0; k < T; k++)
            aspect_term[k] = na == 0 ? 0.0 : log_rising_ratio(
                n_TW + k * V, &beta, 0, n_TW_rows[k] + bar_beta, a_ids, a_rep, na);
        for (int64_t jk = 0; jk < S * T; jk++) {
            const double senti_term = ns == 0 ? 0.0 : log_rising_ratio(
                n_STW + jk * Vp, beta_prime + jk * Vp, 1, n_STW_rows[jk] + bar_beta_prime[jk],
                s_ids, s_rep, ns);
            logp[jk] = ((aspect_term[jk % T] + senti_term) + ln(n_DT[d * T + jk % T] + alpha))
                       + ln(n_DS[d * S + jk / T] + gamma);
        }
        const int64_t pick = draw(logp, S * T, u[i]);
        s[i] = pick / T;
        z[i] = pick % T;
        move(1, d, s[i], z[i], S, T, V, Vp, a_ids, na, s_ids, ns,
             n_TW, n_STW, n_DT, n_DS, n_TW_rows, n_STW_rows);
    }
}
