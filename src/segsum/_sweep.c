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
 * Each logarithm is taken once per value it needs, and each is the libm log
 * of the double the numpy sampler takes it of:
 * - ln(n + b) of every count cell of n_TW (b = beta) and n_STW
 *   (b = beta_prime) is held in a table, filled at the start of each call
 *   and rewritten by move whenever it changes the cell's count. A numerator
 *   term with repeat count 0 reads it: (n + b) + 0.0 == n + b.
 * - The denominator of a count row, the sum of ln(x + t) for t below n with
 *   x the row total plus its smoother sum, is the prefix sum P[n] of that
 *   row, P[m] = P[m - 1] + ln(x + (m - 1)): the same left-to-right sum. The
 *   sums are filled as far as a sentence asks for and restart when x differs.
 * - ln(n_DT[d, k] + alpha) is taken once per topic and ln(n_DS[d, j] + gamma)
 *   once per sentiment.
 * The tables live for one call, since the smoothers change between calls.
 *
 * Arrays are C-contiguous: int64 for the flat corpus (vocabulary ids only;
 * the sweep counts repeated ids itself) and the assignments, double for the
 * counts and smoothers, indexed as their numpy shapes
 * (n_TW (T, V), n_STW (S, T, V'), n_DT (D, T), n_DS (D, S), n_TW_rows (T,),
 * n_STW_rows (S, T), beta_prime (S, T, V'), bar_beta_prime (S, T)).
 *
 * work holds, in order, with L the longest id list of a sentence:
 *   logp         S T          the conditional, then its cumulative weights
 *   aspect_term  T            per topic
 *   doc_topic    T            ln(n_DT[d, k] + alpha) per topic
 *   a_rep, s_rep L each       the repeat counts of a sentence's ids
 *   l_TW         T V          ln(n_TW + beta)
 *   l_STW        S T V'       ln(n_STW + beta_prime)
 *   rows         (T + S T) (L + 3)
 *                             per count row, the T rows of n_TW, then the
 *                             S T rows of n_STW: x, how many prefix sums are
 *                             filled, then P[0..L]
 * S T + 2 T + 2 L + T V + S T V' + (T + S T) (L + 3) doubles in all.
 */

#include <math.h>
#include <stdint.h>

static double ln(double x)
{
    return x <= 0 ? -INFINITY : log(x);
}

/* The counts a sweep moves, with their log tables (see the header) */
struct counts {
    int64_t S, T, V, Vp;
    double beta;
    const double *beta_prime;
    double *n_TW, *n_STW, *n_DT, *n_DS, *n_TW_rows, *n_STW_rows;
    double *l_TW, *l_STW;
};

/* rep[t]: how many ids before ids[t] equal it, its offset in the rising factorial */
static void count_repeats(const int64_t *ids, int64_t n, double *rep)
{
    for (int64_t t = 0; t < n; t++) {
        rep[t] = 0.0;
        for (int64_t u = 0; u < t; u++)
            rep[t] += ids[u] == ids[t];
    }
}

/* The sum, left to right, of ln(count[w] + smoother[w * stride] + r) over
 * the ids w and their repeat counts r (count_repeats); log_count[w] holds
 * ln(count[w] + smoother[w * stride]), the term where r is 0. */
static double log_rising_numerator(const double *log_count, const double *count,
                                   const double *smoother, int64_t stride,
                                   const int64_t *ids, const double *rep, int64_t n)
{
    double num = 0.0;
    for (int64_t t = 0; t < n; t++)
        num += rep[t] == 0.0 ? log_count[ids[t]]
                             : ln(count[ids[t]] + smoother[ids[t] * stride] + rep[t]);
    return num;
}

/* The sum, left to right, of ln(x + t) for t below n, from a count row's
 * prefix sums (row: x, how many are filled, P[0..L]); they restart when x
 * differs from the x they were taken for, NaN included. */
static double log_rising_denominator(double *row, double x, int64_t n)
{
    double *prefix = row + 2;
    if (row[0] != x) {
        row[0] = x;
        row[1] = 0.0;
    }
    for (int64_t m = (int64_t)row[1]; m < n; m++) {
        prefix[m + 1] = prefix[m] + ln(x + (double)m);
        row[1] = (double)(m + 1);
    }
    return prefix[n];
}

/* numpy_decrement (step -1) or numpy_increment (step +1): add step times
 * one sentence, assigned sentiment j and topic k, to the counts, and
 * rewrite the logs of the count cells it changes */
static void move(struct counts *c, int64_t step, int64_t d, int64_t j, int64_t k,
                 const int64_t *a_ids, int64_t na, const int64_t *s_ids, int64_t ns)
{
    for (int64_t t = 0; t < na; t++) {
        const int64_t cell = k * c->V + a_ids[t];
        c->n_TW[cell] += (double)step;
        c->l_TW[cell] = ln(c->n_TW[cell] + c->beta);
    }
    for (int64_t t = 0; t < ns; t++) {
        const int64_t cell = (j * c->T + k) * c->Vp + s_ids[t];
        c->n_STW[cell] += (double)step;
        c->l_STW[cell] = ln(c->n_STW[cell] + c->beta_prime[cell]);
    }
    c->n_TW_rows[k] += (double)(step * na);
    c->n_STW_rows[j * c->T + k] += (double)(step * ns);
    c->n_DT[d * c->T + k] += (double)step;
    c->n_DS[d * c->S + j] += (double)step;
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
 * place. work is laid out as the header says, with L = longest. */
void segsum_sweep(int64_t n_sent, int64_t S, int64_t T, int64_t V, int64_t Vp,
                  int64_t longest, double alpha, double beta, double gamma,
                  const int64_t *doc, const int64_t *aspect_start, const int64_t *aspect,
                  const int64_t *senti_start, const int64_t *senti,
                  const double *u, int64_t *z, int64_t *s,
                  double *n_TW, double *n_STW, double *n_DT, double *n_DS,
                  double *n_TW_rows, double *n_STW_rows,
                  const double *beta_prime, const double *bar_beta_prime, double *work)
{
    double *logp = work, *aspect_term = logp + S * T, *doc_topic = aspect_term + T;
    double *a_rep = doc_topic + T, *s_rep = a_rep + longest;
    double *l_TW = s_rep + longest, *l_STW = l_TW + T * V, *rows = l_STW + S * T * Vp;
    const int64_t row_size = longest + 3;
    struct counts c = {S, T, V, Vp, beta, beta_prime,
                       n_TW, n_STW, n_DT, n_DS, n_TW_rows, n_STW_rows, l_TW, l_STW};
    const double bar_beta = (double)V * beta;

    for (int64_t cell = 0; cell < T * V; cell++)
        l_TW[cell] = ln(n_TW[cell] + beta);
    for (int64_t cell = 0; cell < S * T * Vp; cell++)
        l_STW[cell] = ln(n_STW[cell] + beta_prime[cell]);
    for (int64_t r = 0; r < T + S * T; r++) {
        rows[r * row_size] = NAN;
        rows[r * row_size + 1] = 0.0;
        rows[r * row_size + 2] = 0.0;
    }

    for (int64_t i = 0; i < n_sent; i++) {
        const int64_t d = doc[i];
        const int64_t *a_ids = aspect + aspect_start[i], *s_ids = senti + senti_start[i];
        const int64_t na = aspect_start[i + 1] - aspect_start[i];
        const int64_t ns = senti_start[i + 1] - senti_start[i];
        count_repeats(a_ids, na, a_rep);
        count_repeats(s_ids, ns, s_rep);

        move(&c, -1, d, s[i], z[i], a_ids, na, s_ids, ns);
        for (int64_t k = 0; k < T; k++) {
            aspect_term[k] =
                log_rising_numerator(l_TW + k * V, n_TW + k * V, &beta, 0, a_ids, a_rep, na)
                - log_rising_denominator(rows + k * row_size, n_TW_rows[k] + bar_beta, na);
            doc_topic[k] = ln(n_DT[d * T + k] + alpha);
        }
        for (int64_t j = 0; j < S; j++) {
            const double doc_senti = ln(n_DS[d * S + j] + gamma);
            for (int64_t k = 0; k < T; k++) {
                const int64_t jk = j * T + k;
                const double senti_term =
                    log_rising_numerator(l_STW + jk * Vp, n_STW + jk * Vp, beta_prime + jk * Vp,
                                         1, s_ids, s_rep, ns)
                    - log_rising_denominator(rows + (T + jk) * row_size,
                                             n_STW_rows[jk] + bar_beta_prime[jk], ns);
                logp[jk] = ((aspect_term[k] + senti_term) + doc_topic[k]) + doc_senti;
            }
        }
        const int64_t pick = draw(logp, S * T, u[i]);
        s[i] = pick / T;
        z[i] = pick % T;
        move(&c, 1, d, s[i], z[i], a_ids, na, s_ids, ns);
    }
}
