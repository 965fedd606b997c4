"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain loops and, where useful, arbitrary
precision, deliberately sharing no code with the package under test. The
exception to plain loops is the per-sentence numpy Gibbs sampler that the
package used before its scalar kernel: the kernel must sample its chain.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np


# -- sampler conditional -----------------------------------------------------

def conditional_oracle(aspect_ids, senti_ids, n_TW, n_STW, n_DT_d, n_DS_d,
                       alpha, beta, gamma, beta_prime):
    """Term-by-term log-space evaluation of the sentence conditional.

    Counts must already exclude the sentence. Returns an (S, T) nested list
    of unnormalized probabilities.
    """
    S = len(n_STW)
    T = len(n_TW)
    V = len(n_TW[0])
    out = []
    for j in range(S):
        row = []
        for k in range(T):
            logp = 0.0
            # non-sentiment word block, occurrence by occurrence
            counts = {i: n_TW[k][i] for i in set(aspect_ids)}
            total = sum(n_TW[k]) + V * beta
            for i in aspect_ids:
                logp += math.log(counts[i] + beta)
                logp -= math.log(total)
                counts[i] += 1
                total += 1
            # sentiment word block
            s_counts = {i: n_STW[j][k][i] for i in set(senti_ids)}
            s_total = sum(n_STW[j][k][i] + beta_prime[j][k][i]
                          for i in range(len(n_STW[j][k])))
            for i in senti_ids:
                logp += math.log(s_counts[i] + beta_prime[j][k][i])
                logp -= math.log(s_total)
                s_counts[i] += 1
                s_total += 1
            logp += math.log(n_DT_d[k] + alpha)
            logp += math.log(n_DS_d[j] + gamma)
            row.append(math.exp(logp))
        out.append(row)
    return out


# -- MAP objective -----------------------------------------------------------

def objective_oracle(y_topic, y_senti, n_STW, sigma_sq):
    """Direct high-precision summation of the smoother objective."""
    mpmath.mp.dps = 50
    S = len(n_STW)
    T = len(y_topic)
    Vp = len(y_topic[0])
    total = mpmath.mpf(0)
    for j in range(S):
        for k in range(T):
            bp = [mpmath.exp(mpmath.mpf(y_topic[k][i]) + mpmath.mpf(y_senti[j][i]))
                  for i in range(Vp)]
            bar_n = sum(n_STW[j][k])
            bar_bp = sum(bp)
            total += mpmath.loggamma(bar_n + bar_bp) - mpmath.loggamma(bar_bp)
            for i in range(Vp):
                total += mpmath.loggamma(bp[i]) - mpmath.loggamma(n_STW[j][k][i] + bp[i])
    for k in range(T):
        for i in range(Vp):
            total += S * mpmath.mpf(y_topic[k][i])
    for j in range(S):
        for i in range(Vp):
            total += T * mpmath.mpf(y_senti[j][i])
    for j in range(S):
        for k in range(T):
            for i in range(Vp):
                total += (mpmath.mpf(y_topic[k][i]) + mpmath.mpf(y_senti[j][i])) ** 2 \
                    / (2 * mpmath.mpf(sigma_sq))
    return float(total)


def finite_difference_gradient(fun, y_topic, y_senti, h=1e-5):
    """Central differences of fun(y_topic, y_senti) in every coordinate."""
    import copy
    g_topic = [[0.0] * len(y_topic[0]) for _ in y_topic]
    g_senti = [[0.0] * len(y_senti[0]) for _ in y_senti]
    for k in range(len(y_topic)):
        for i in range(len(y_topic[0])):
            up = copy.deepcopy(y_topic)
            dn = copy.deepcopy(y_topic)
            up[k][i] += h
            dn[k][i] -= h
            g_topic[k][i] = (fun(up, y_senti) - fun(dn, y_senti)) / (2 * h)
    for j in range(len(y_senti)):
        for i in range(len(y_senti[0])):
            up = copy.deepcopy(y_senti)
            dn = copy.deepcopy(y_senti)
            up[j][i] += h
            dn[j][i] -= h
            g_senti[j][i] = (fun(y_topic, up) - fun(y_topic, dn)) / (2 * h)
    return g_topic, g_senti


# -- evaluation framework ----------------------------------------------------

def skip2_oracle(x, y):
    """Greedy bipartite pair matching with explicit used flags."""
    y_pairs = [(y[a], y[b]) for a in range(len(y)) for b in range(a + 1, len(y))]
    used = [False] * len(y_pairs)
    matches = 0
    for a in range(len(x)):
        for b in range(a + 1, len(x)):
            pair = (x[a], x[b])
            for idx, yp in enumerate(y_pairs):
                if not used[idx] and yp == pair:
                    used[idx] = True
                    matches += 1
                    break
    return matches


def _choose2(n):
    return n * (n - 1) // 2


def pr_oracle(x, y):
    """Exact-rational P(X,Y), R(X,Y) with the singleton fallback."""
    if len(x) == 0 or len(y) == 0:
        return Fraction(0), Fraction(0)
    if len(x) < 2 or len(y) < 2:
        if len(x) == 1 and len(y) == 1:
            hit = Fraction(1) if x[0] == y[0] else Fraction(0)
        elif len(x) == 1:
            hit = Fraction(1) if x[0] in y else Fraction(0)
        else:
            hit = Fraction(1) if y[0] in x else Fraction(0)
        return hit, hit
    m = skip2_oracle(x, y)
    return Fraction(m, _choose2(len(y))), Fraction(m, _choose2(len(x)))


def entity_oracle(candidates, reference, alpha):
    """All six entity-level statistics.

    Pair counting and argmax logic are independent of the implementation
    under test; aggregation uses the same float operations in the same order
    so results are comparable bit-for-bit.
    """
    assert reference
    if not candidates:
        return {"p_skip": 0.0, "r_skip": 0.0, "p_e": 0.0, "r_e": 0.0,
                "p_cb": 0.0, "r_cb": 0.0, "per_segment": []}
    per_segment = []
    for y in candidates:
        best_r, best_p, best_idx = None, None, None
        for idx, x in enumerate(reference):
            p, r = pr_oracle(x, y)
            if best_r is None or float(r) > best_r:
                best_r, best_p, best_idx = float(r), float(p), idx
        per_segment.append((best_p, best_r, best_idx))
    p_skip = sum(p for p, _, _ in per_segment) / len(candidates)
    r_skip = sum(r for _, r, _ in per_segment) / len(candidates)
    useful = [(y, r) for y, (_, r, _) in zip(candidates, per_segment) if r >= alpha]
    p_e = len(useful) / len(candidates)
    covered = 0
    for x in reference:
        for y, r_y in useful:
            if float(pr_oracle(x, y)[1]) == r_y:
                covered += 1
                break
    r_e = covered / len(reference)
    return {"p_skip": p_skip, "r_skip": r_skip, "p_e": p_e, "r_e": r_e,
            "p_cb": (p_skip + p_e) / 2, "r_cb": (r_skip + r_e) / 2,
            "per_segment": per_segment}


def corpus_oracle(entity_results, candidate_counts):
    n = len(entity_results)
    total_segments = sum(candidate_counts)
    p_sum = sum(p for e in entity_results for p, _, _ in e["per_segment"])
    r_sum = sum(r for e in entity_results for _, r, _ in e["per_segment"])
    return {
        "p_s": p_sum / total_segments if total_segments else 0.0,
        "r_s": r_sum / total_segments if total_segments else 0.0,
        "p_e": sum(e["p_e"] for e in entity_results) / n,
        "r_e": sum(e["r_e"] for e in entity_results) / n,
        "p": sum(e["p_cb"] for e in entity_results) / n,
        "r": sum(e["r_cb"] for e in entity_results) / n,
    }


# -- segment extraction ------------------------------------------------------

EXTRACTION_PATTERNS = {
    1: "nn? vb dt? rb* jj nn",
    2: "nn? vb rb* jj to vb",
    3: "nn? vb rb* jj",
    4: "rb* jj to vb nn?",
    5: "rb* jj nn",
}
_TAG_FAMILY = {tag: tag[:2].lower() for tag in (
    "NN NNS NNP NNPS VB VBD VBG VBN VBP VBZ JJ JJR JJS RB RBR RBS DT TO".split())}


def _span_fits(atoms, classes, i, end):
    """Whether atoms (name, least, most) consume exactly classes[i:end]; a
    neg atom never follows another negation trigger, even before the span."""
    if not atoms:
        return i == end
    name, least, most = atoms[0]
    if name == "neg" and i > 0 and classes[i - 1] == "neg":
        return False
    n = 0
    while True:
        if n >= least and _span_fits(atoms[1:], classes, i + n, end):
            return True
        if n == most or i + n >= end or classes[i + n] != name:
            return False
        n += 1


def extraction_oracle(pairs, pattern_ids, max_words, negation_words):
    """(start, end, pattern id, negated) of each segment of a sentence of
    (surface, tag) pairs, by trying every form and every span length."""
    classes = ["neg" if s.lower() in negation_words else _TAG_FAMILY.get(t)
               for s, t in pairs]
    forms = []
    for pid in (p for p in (1, 2, 4, 3, 5) if p in pattern_ids):
        atoms = []
        for text in EXTRACTION_PATTERNS[pid].split():
            name = text.rstrip("?*")
            least = 0 if text[-1] in "?*" else 1
            most = len(pairs) if name == "nn" or text[-1] == "*" else 1
            atoms.append((name, least, most))
        for pos, (name, _, _) in enumerate(atoms):
            if name in ("jj", "vb"):
                forms.append((pid, True, atoms[:pos] + [("neg", 1, 1)] + atoms[pos:]))
        forms.append((pid, False, atoms))
    segments, start = [], 0
    while start < len(classes):
        hit = next(((start, end, pid, negated) for pid, negated, atoms in forms
                    for end in range(min(len(classes), start + max_words), start, -1)
                    if _span_fits(atoms, classes, start, end)), None)
        if hit is None:
            start += 1
        else:
            segments.append(hit)
            start = hit[1]
    return segments


# -- per-sentence numpy Gibbs sampler ------------------------------------------
#
# The sampler that segsum.model ran before its scalar kernel: each sentence's
# counts move with np.add.at, and its (S, T) conditional is one array
# expression. These functions work on a segsum.model.ModelState.

def numpy_sentences(docs):
    """Per document, per sentence (aspect ids, aspect offsets, senti ids,
    senti offsets) as numpy arrays; an offset counts the earlier occurrences
    of its id in the sentence."""
    def offsets(ids):
        seen = {}
        out = np.empty(len(ids), dtype=np.float64)
        for t, i in enumerate(ids):
            out[t] = seen.get(i, 0)
            seen[i] = out[t] + 1
        return out

    encoded = []
    for doc in docs:
        rows = []
        for sent in doc:
            a = np.asarray(sent.aspect, dtype=np.intp)
            s = np.asarray(sent.senti, dtype=np.intp)
            rows.append((a, offsets(a), s, offsets(s)))
        encoded.append(rows)
    return encoded


def numpy_decrement(state, sentences, d, c):
    aspect, _, senti, _ = sentences[d][c]
    k, j = state.z[d][c], state.s[d][c]
    np.subtract.at(state.n_TW[k], aspect, 1.0)
    np.subtract.at(state.n_STW[j, k], senti, 1.0)
    state.n_TW_rows[k] -= len(aspect)
    state.n_STW_rows[j, k] -= len(senti)
    state.n_DT[d, k] -= 1
    state.n_DS[d, j] -= 1


def numpy_increment(state, sentences, d, c, j, k):
    aspect, _, senti, _ = sentences[d][c]
    np.add.at(state.n_TW[k], aspect, 1.0)
    np.add.at(state.n_STW[j, k], senti, 1.0)
    state.n_TW_rows[k] += len(aspect)
    state.n_STW_rows[j, k] += len(senti)
    state.n_DT[d, k] += 1
    state.n_DS[d, j] += 1
    state.z[d][c] = k
    state.s[d][c] = j


def numpy_conditional_log(state, sentences, d, c):
    """Log of the unnormalized (S, T) conditional of sentence (d, c), whose
    own assignment must already be decremented."""
    hp = state.hp
    aspect, aspect_offsets, senti, senti_offsets = sentences[d][c]
    V = state.vocab.num_aspect_words
    logp = np.zeros((hp.num_sentiments, hp.num_topics))
    if len(aspect):
        num = np.log(state.n_TW[:, aspect] + hp.beta + aspect_offsets)
        den = np.log(state.n_TW_rows[:, None] + V * hp.beta + np.arange(len(aspect)))
        logp += (num.sum(axis=1) - den.sum(axis=1))[None, :]
    if len(senti):
        num = np.log(state.n_STW[:, :, senti] + state.beta_prime[:, :, senti]
                     + senti_offsets)
        den = np.log(state.n_STW_rows[:, :, None] + state.bar_beta_prime[:, :, None]
                     + np.arange(len(senti)))
        logp += num.sum(axis=2) - den.sum(axis=2)
    logp += np.log(state.n_DT[d] + hp.alpha)[None, :]
    logp += np.log(state.n_DS[d] + hp.gamma)[:, None]
    return logp


def numpy_gibbs_sweep(state):
    """Resample every sentence in corpus order with one rng.random() each;
    mutates and returns state."""
    sentences = numpy_sentences(state.docs)
    for d, doc in enumerate(state.docs):
        for c in range(len(doc)):
            numpy_decrement(state, sentences, d, c)
            logp = numpy_conditional_log(state, sentences, d, c)
            p = np.exp(logp - logp.max())
            flat = p.ravel()
            cum = np.cumsum(flat)
            pick = np.searchsorted(cum, state.rng.random() * cum[-1], side="right")
            pick = min(pick, flat.size - 1)
            j, k = divmod(int(pick), state.hp.num_topics)
            numpy_increment(state, sentences, d, c, j, k)
    state.sweep_index += 1
    return state


def numpy_recount(state):
    """(n_TW, n_STW, n_DT, n_DS) rebuilt sentence by sentence from z/s."""
    n_TW = np.zeros_like(state.n_TW)
    n_STW = np.zeros_like(state.n_STW)
    n_DT = np.zeros_like(state.n_DT)
    n_DS = np.zeros_like(state.n_DS)
    for d, doc in enumerate(numpy_sentences(state.docs)):
        for c, (aspect, _, senti, _) in enumerate(doc):
            k, j = state.z[d][c], state.s[d][c]
            np.add.at(n_TW[k], aspect, 1.0)
            np.add.at(n_STW[j, k], senti, 1.0)
            n_DT[d, k] += 1
            n_DS[d, j] += 1
    return n_TW, n_STW, n_DT, n_DS
