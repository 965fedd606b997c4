"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain loops and, where useful, arbitrary
precision, deliberately sharing no code with the package under test. The
exception to plain loops is the per-sentence numpy Gibbs sampler that the
package used before its compiled sweep: the sweep must sample its chain, so
both compute the same terms, each sum left to right. The per-sentence
pattern matcher that the package ran before its one search over the whole
corpus shares the compiled regex: extract_corpus must find what it found.
The MAP objective as the package took it over every cell, before it took
its cell terms only where a count is > 0, is kept as numpy array code: the
package must give its bits. The skip-bigram report as the package built it
text by text, before it scored each polarity in columns, normalizes its
gold items with the package's normalize_text: the report must be the same.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.special import gammaln, psi

from segsum.evaluation import normalize_text
from segsum.patterns import DEFAULT_MAX_WORDS, DEFAULT_NEGATION, TAG_CLASSES, compile_patterns


# -- segments ------------------------------------------------------------------

@dataclass
class Segment:
    """One segment with its own tokens, as segsum kept each survivor before
    its SegmentTable rows went straight to the outputs."""

    tokens: list
    review_id: str
    entity_id: str
    sentence_index: int
    start: int
    end: int            # exclusive
    pattern_id: int
    negated: bool
    aspect: int | None = None
    sentiment: int | None = None
    polarity: float | None = None
    # the per-word average log score that filters.run_procedure ranks by;
    # to_dict leaves it out
    rank: float | None = None

    @property
    def text(self) -> str:
        return " ".join(t.surface for t in self.tokens)

    def __len__(self):
        return len(self.tokens)

    def to_dict(self):
        d = {
            "review_id": self.review_id,
            "entity_id": self.entity_id,
            "sentence_index": self.sentence_index,
            "start": self.start,
            "end": self.end,
            "text": self.text,
            "pattern_id": self.pattern_id,
            "negated": self.negated,
        }
        if self.aspect is not None:
            d["aspect"] = self.aspect
        if self.sentiment is not None:
            d["sentiment"] = self.sentiment
        if self.polarity is not None:
            d["polarity"] = self.polarity
        return d


def table_segments(table):
    """One Segment per row of a SegmentTable, in row order, with the labels
    set so far: the rows as SegmentTable iteration gave them before it gave
    Rows."""
    c = table.corpus
    reviews = c.reviews
    labels = (repeat(None) if column is None else column.tolist()
              for column in (table.aspect, table.sentiment, table.polarity, table.rank))
    return [Segment(list(map(c.tokens.__getitem__, entries[:n])), reviews[r].id,
                    reviews[r].entity_id, index, first, first + n, pattern_id, negated, *labels)
            for entries, n, r, index, first, pattern_id, negated, *labels in zip(
                table.window().tolist(), table.length.tolist(), table.review.tolist(),
                (table.sentence - c.review_starts[table.review]).tolist(),
                (table.start - c.sentence_starts[table.sentence]).tolist(),
                table.pattern_id.tolist(), table.negated.tolist(), *labels)]


def typed(values):
    """Each value with its Python type and repr, which tells -0.0 from 0.0
    and True from 1."""
    return [(type(value), repr(value)) for value in values]


def assert_rows_equal(table, segments):
    """The rows of a SegmentTable are the Segments, field for field: each
    Row's dict is the Segment's to_dict, keys in the same order and values of
    the same types and reprs; each row covers the Segment's tokens; and the
    rank column holds the Segment's ranks (None where unset)."""
    rows = [row.to_dict() for row in table]
    want = [seg.to_dict() for seg in segments]
    assert [list(d.items()) for d in rows] == [list(d.items()) for d in want]
    assert [typed(d.values()) for d in rows] == [typed(d.values()) for d in want]
    c = table.corpus
    assert [[c.tokens[i] for i in c.token_ids[first:first + n].tolist()]
            for first, n in zip(table.start.tolist(), table.length.tolist())] \
        == [seg.tokens for seg in segments]
    ranks = [None] * len(table) if table.rank is None else table.rank.tolist()
    assert typed(ranks) == typed(seg.rank for seg in segments)


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


def dense_map_objective_and_gradient(y_topic, y_senti, n_STW, sigma_sq):
    """segsum.model.map_objective_and_gradient as it was before it took the
    cell terms only where a count is > 0: gammaln and psi over every cell."""
    S, _, _ = n_STW.shape
    T = y_topic.shape[0]
    cross = y_topic[None, :, :] + y_senti[:, None, :]
    beta_prime = np.exp(cross)
    bar_beta = beta_prime.sum(axis=2)
    bar_n = n_STW.sum(axis=2)

    nll = (gammaln(bar_n + bar_beta) - gammaln(bar_beta)).sum()
    nll += (gammaln(beta_prime) - gammaln(n_STW + beta_prime)).sum()
    neg_log_prior = (S * y_topic.sum() + T * y_senti.sum()
                     + (cross ** 2).sum() / (2.0 * sigma_sq))

    row_term = psi(bar_n + bar_beta) - psi(bar_beta)
    cell_term = psi(beta_prime) - psi(n_STW + beta_prime)
    d_beta = (row_term[:, :, None] + cell_term) * beta_prime

    g_topic = d_beta.sum(axis=0) + S + cross.sum(axis=0) / sigma_sq
    g_senti = d_beta.sum(axis=1) + T + cross.sum(axis=1) / sigma_sq
    return nll + neg_log_prior, g_topic, g_senti


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


def clipped_pair_matches(x, y):
    """The shared ordered-pair count of x and y as the sum, over the pairs of
    x, of the lower of its counts in x and in y: what PairCounts.pr_pair
    summed for every pair of texts before it counted shared keys."""
    px, py = Counter(combinations(x, 2)), Counter(combinations(y, 2))
    return sum(min(n, py[pair]) for pair, n in px.items())


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


# -- per-text skip-bigram report -----------------------------------------------

class PairCounts(dict):
    """Normalised text -> the Counter of its ordered pairs (any gap), built on
    first use, so that one evaluate counts the pairs of each text once."""

    def __missing__(self, seq):
        counts = self[seq] = Counter(combinations(seq, 2))
        return counts

    def pr_pair(self, x, y):
        """(P(X,Y), R(X,Y)) from the ordered pairs x and y share, each clipped
        to its lower multiplicity. Below 2 tokens on either side, both are 1
        if the singleton occurs in the other sequence, else 0."""
        if len(x) < 2 or len(y) < 2:
            if len(x) == 0 or len(y) == 0:
                return 0.0, 0.0
            short, other = (x, y) if len(x) < len(y) else (y, x)
            hit = 1.0 if short[0] in other else 0.0
            return hit, hit
        px, py, pairs_x, pairs_y = self[x], self[y], comb(len(x), 2), comb(len(y), 2)
        # where one side repeats no pair, each shared pair counts once
        matches = (len(px.keys() & py.keys()) if len(px) == pairs_x or len(py) == pairs_y
                   else sum(min(n, py[p]) for p, n in px.items()))
        return matches / pairs_y, matches / pairs_x


def entity_scores(candidates, reference, alpha, pair_counts) -> dict:
    """The report entry of one entity: its candidates, token tuples, scored
    against its reference items. Each candidate gets the (P, R) of the item
    maximizing R(X, Y), ties to the first item in reference order (x_max).
    pair_counts, a PairCounts, may hold the pair counts of texts scored
    before. Without candidates every score is the integer 0."""
    if not reference:
        raise ValueError("empty reference")
    segments, covered = [], set()
    for y in candidates:
        scores = [pair_counts.pr_pair(x, y) for x in reference]
        best = max(r for _, r in scores)
        ties = [i for i, (_, r) in enumerate(scores) if r == best]
        segments.append({"P": scores[ties[0]][0], "R": best, "x_max": ties[0]})
        # a reference item is covered when some useful candidate reaches its
        # best recall on it
        if best >= alpha:
            covered.update(ties)
    n = len(segments)
    if not n:
        return {"P_skip": 0, "R_skip": 0, "P_E": 0, "R_E": 0, "P_cb": 0, "R_cb": 0,
                "num_candidates": 0, "num_references": len(reference), "segments": []}
    p_skip = sum(s["P"] for s in segments) / n
    r_skip = sum(s["R"] for s in segments) / n
    p_entity = sum(s["R"] >= alpha for s in segments) / n
    r_entity = len(covered) / len(reference)
    return {"P_skip": p_skip, "R_skip": r_skip, "P_E": p_entity, "R_E": r_entity,
            "P_cb": (p_skip + p_entity) / 2, "R_cb": (r_skip + r_entity) / 2,
            "num_candidates": n, "num_references": len(reference), "segments": segments}


def report_oracle(positive, negative, references, cfg):
    """The dict of evaluation.evaluate(positive, negative, references,
    cfg).to_dict() as the package built it before it scored each polarity in
    columns: each row a tuple of words, and entity_scores per entity, one
    PairCounts shared by both polarities. Raises ValueError as evaluate does."""
    mode = cfg.token_normalization
    corpus = positive.corpus
    usable = [e for e in corpus.entities if e in references]
    pair_counts = PairCounts()

    def polarity(table, side):
        words = [t.stem if mode == "stemmed" else t.surface.lower() for t in corpus.tokens]
        candidates = {entity_id: [] for entity_id in corpus.entities}
        for entity, text in zip(corpus.entity[table.review].tolist(), table.gather(words)):
            candidates[corpus.entities[entity]].append(text)
        entities, excluded = {}, []
        for entity_id in usable:
            reference = references[entity_id][side == "cons"]
            ref_norm = sorted({normalize_text(item, mode) for item in reference if item.strip()})
            ref_norm = [r for r in ref_norm if r]
            if not ref_norm:
                excluded.append(entity_id)
                continue
            entities[entity_id] = entity_scores(candidates[entity_id], ref_norm,
                                                cfg.recall_threshold, pair_counts)
        if not entities:
            raise ValueError(f"no scorable entities (all lacked {side} references)")
        scored = list(entities.values())
        n, n_segments = len(scored), sum(e["num_candidates"] for e in scored)
        p_sum = sum(s["P"] for e in scored for s in e["segments"])
        r_sum = sum(s["R"] for e in scored for s in e["segments"])
        stats = {"P_s": p_sum / n_segments if n_segments else 0.0,
                 "R_s": r_sum / n_segments if n_segments else 0.0,
                 "P_e": sum(e["P_E"] for e in scored) / n,
                 "R_e": sum(e["R_E"] for e in scored) / n,
                 "P": sum(e["P_cb"] for e in scored) / n,
                 "R": sum(e["R_cb"] for e in scored) / n,
                 "num_entities": n, "num_segments": n_segments}
        return {"corpus": stats, "entities": entities, "excluded_no_reference": excluded}

    return {"pros": polarity(positive, "pros"), "cons": polarity(negative, "cons"),
            "skipped_entities": [e for e in corpus.entities if e not in references]}


def typed_tree(obj, path=()):
    """The path of every scalar in nested dicts and lists, with its type and
    repr (see typed)."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for key, value in items for leaf in typed_tree(value, path + (key,))]
    return [(path, *typed([obj])[0])]


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


def match_sentence(sentence, pattern_ids, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION, entity_id="", sentence_index=-1):
    """The segments of one Sentence, as segsum.patterns.extract_corpus found
    them before it searched one class string over the whole corpus: at each
    start, the compiled regex matched within max_words of it."""
    regex, forms = compile_patterns(pattern_ids)
    tokens = sentence.tokens
    classes = "".join("X" if t.surface.lower() in negation_words
                      else TAG_CLASSES.get(t.pos, "O") for t in tokens)
    segments = []
    pos = 0
    while pos < len(tokens):
        found = regex.match(classes, pos, pos + max_words)
        if found is None:
            pos += 1
            continue
        form = forms[found.lastindex - 1]
        end = found.end()
        segments.append(Segment(list(tokens[pos:end]), sentence.review_id, entity_id,
                                sentence_index, pos, end, form.pattern_id, form.negated))
        pos = end
    return segments


def extract_per_sentence(corpus, pattern_ids, max_words=DEFAULT_MAX_WORDS,
                         negation_words=DEFAULT_NEGATION):
    """extract_corpus's segments, from match_sentence on each sentence."""
    return [segment for review in corpus.reviews
            for index, sentence in enumerate(review.sentences)
            for segment in match_sentence(sentence, pattern_ids, max_words, negation_words,
                                          review.entity_id, index)]


# -- corpus encoding -----------------------------------------------------------

class SentenceIds(NamedTuple):
    """A sentence's vocabulary ids in token order, per channel."""

    aspect: tuple
    senti: tuple


def encode_sentences(corpus, vocab):
    """Per review, per sentence, its SentenceIds: the encoding that
    segsum.model kept before encode_corpus built its flat arrays directly.
    A stem in both vocabularies is a sentiment word; other stems drop."""
    docs = []
    for review in corpus.reviews:
        sentences = []
        for sentence in review.sentences:
            aspect, senti = [], []
            for token in sentence.tokens:
                if token.stem in vocab.senti_index:
                    senti.append(vocab.senti_index[token.stem])
                elif token.stem in vocab.aspect_index:
                    aspect.append(vocab.aspect_index[token.stem])
            sentences.append(SentenceIds(tuple(aspect), tuple(senti)))
        docs.append(sentences)
    return docs


# -- initial assignments -------------------------------------------------------

def per_sentence_draws(rng, hp, n):
    """(z, s) of n sentences as segsum.model.init drew them before its one
    draw: a scalar rng.integers(T), then rng.integers(S), for each sentence."""
    z, s = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for i in range(n):
        z[i] = rng.integers(hp.num_topics)
        s[i] = rng.integers(hp.num_sentiments)
    return z, s


# -- per-sentence numpy Gibbs sampler ------------------------------------------
#
# The sampler that segsum.model ran before its compiled sweep: each sentence's
# counts move with np.add.at, and its (S, T) conditional is one array
# expression. These functions work on a segsum.model.ModelState. They take
# logarithms and exponentials with libm's log and exp, elementwise, as
# math.log, math.exp and the compiled sweep do (np.log and np.exp can differ
# from them in the last bit). Each sum over a sentence's ids is the last
# entry of an np.cumsum, which adds left to right by its definition; numpy
# does not promise the order of .sum.

_libm_log = np.frompyfunc(lambda x: math.log(x) if x > 0 else -math.inf, 1, 1)
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def libm_log(a):
    """log of each entry of a with libm's log; -inf where it is 0."""
    return _libm_log(a).astype(float)


def libm_exp(a):
    """exp of each entry of a with libm's exp."""
    return _libm_exp(a).astype(float)


def numpy_sentences(state):
    """Per document, per sentence (aspect ids, aspect offsets, senti ids,
    senti offsets) as numpy arrays, the ids sliced from state.flat; an offset
    counts the earlier occurrences of its id in the sentence."""
    def offsets(ids):
        seen = {}
        out = np.empty(len(ids), dtype=np.float64)
        for t, i in enumerate(ids.tolist()):
            out[t] = seen.get(i, 0)
            seen[i] = out[t] + 1
        return out

    def ids(channel, i):
        start = getattr(state.flat, f"{channel}_start")
        return getattr(state.flat, channel)[start[i]:start[i + 1]].astype(np.intp)

    doc_start = state.flat.doc_start.tolist()
    encoded = []
    for first, end in zip(doc_start, doc_start[1:]):
        rows = []
        for i in range(first, end):
            a, s = ids("aspect", i), ids("senti", i)
            rows.append((a, offsets(a), s, offsets(s)))
        encoded.append(rows)
    return encoded


def numpy_decrement(state, sentences, d, c):
    aspect, _, senti, _ = sentences[d][c]
    i = state.flat.doc_start[d] + c
    k, j = state.z[i], state.s[i]
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
    i = state.flat.doc_start[d] + c
    state.z[i] = k
    state.s[i] = j


def _sum_left_to_right(a):
    """The sums of a over its last axis, each added left to right."""
    return np.cumsum(a, axis=-1)[..., -1]


def numpy_conditional_log(state, sentences, d, c):
    """Log of the unnormalized (S, T) conditional of sentence (d, c), whose
    own assignment must already be decremented."""
    hp = state.hp
    aspect, aspect_offsets, senti, senti_offsets = sentences[d][c]
    V = state.vocab.num_aspect_words
    logp = np.zeros((hp.num_sentiments, hp.num_topics))
    if len(aspect):
        num = libm_log(state.n_TW[:, aspect] + hp.beta + aspect_offsets)
        den = libm_log(state.n_TW_rows[:, None] + V * hp.beta + np.arange(len(aspect)))
        logp += (_sum_left_to_right(num) - _sum_left_to_right(den))[None, :]
    if len(senti):
        num = libm_log(state.n_STW[:, :, senti] + state.beta_prime[:, :, senti]
                       + senti_offsets)
        den = libm_log(state.n_STW_rows[:, :, None] + state.bar_beta_prime[:, :, None]
                       + np.arange(len(senti)))
        logp += _sum_left_to_right(num) - _sum_left_to_right(den)
    logp += libm_log(state.n_DT[d] + hp.alpha)[None, :]
    logp += libm_log(state.n_DS[d] + hp.gamma)[:, None]
    return logp


def numpy_draw(logp, u):
    """The flat index j * T + k of the first cumulative weight above u times
    the total, the weights being exp(logp - logp.max()) in order."""
    cum = np.cumsum(libm_exp(logp - logp.max()).ravel())
    return min(int(np.searchsorted(cum, u * cum[-1], side="right")), cum.size - 1)


def numpy_gibbs_sweep(state):
    """Resample every sentence in corpus order with one rng.random() each;
    mutates and returns state."""
    sentences = numpy_sentences(state)
    for d, doc in enumerate(sentences):
        for c in range(len(doc)):
            numpy_decrement(state, sentences, d, c)
            logp = numpy_conditional_log(state, sentences, d, c)
            j, k = divmod(numpy_draw(logp, state.rng.random()), state.hp.num_topics)
            numpy_increment(state, sentences, d, c, j, k)
    state.sweep_index += 1
    return state


def numpy_recount(state):
    """(n_TW, n_STW, n_DT, n_DS) rebuilt sentence by sentence from z/s."""
    n_TW = np.zeros_like(state.n_TW)
    n_STW = np.zeros_like(state.n_STW)
    n_DT = np.zeros_like(state.n_DT)
    n_DS = np.zeros_like(state.n_DS)
    for d, doc in enumerate(numpy_sentences(state)):
        for c, (aspect, _, senti, _) in enumerate(doc):
            i = state.flat.doc_start[d] + c
            k, j = state.z[i], state.s[i]
            np.add.at(n_TW[k], aspect, 1.0)
            np.add.at(n_STW[j, k], senti, 1.0)
            n_DT[d, k] += 1
            n_DS[d, j] += 1
    return n_TW, n_STW, n_DT, n_DS


# -- per-segment scorers and filters ----------------------------------------
#
# The read path that segsum ran before classify.label_aspects and
# filters.run_procedure scored all segments at once: one segment at a time,
# from Segment.ids, each sum left to right in token order. The weights are
# topic_weights, kept per channel, and the SWN classifier, which the package
# still runs a segment at a time, is written out again here.

POSITIVE, NEGATIVE = 0, 1


class UnclassifiableSegment(ValueError):
    """Segment has no in-vocabulary words to score."""


def topic_weights(est):
    """Per-topic score rows of the vocabulary, keyed by channel: row i of
    "aspect" is log phi_hat[:, i], row i of "senti" is
    sum_j log phi_prime_hat[j, :, i]."""
    return {"aspect": np.log(est.phi_hat).T,
            "senti": np.log(est.phi_prime_hat).sum(axis=0).T}


def classify_topic(segment, weights) -> int:
    """Argmax-k segment score: the sum, in token order, of the topic_weights
    rows of the segment's in-vocabulary words. Ties break toward the lowest k."""
    if not segment.ids:
        raise UnclassifiableSegment(f"no in-vocabulary words in segment {segment.text!r}")
    scores = np.zeros(weights["aspect"].shape[1])
    for channel, idx in segment.ids:
        scores += weights[channel][idx]
    return int(np.argmax(scores))


def segment_ids(segment, vocab):
    """The (channel, index) pair of each in-vocabulary token of a segment, in
    token order; a stem in both lists is a sentiment word."""
    ids = []
    for token in segment.tokens:
        if token.stem in vocab.senti_index:
            ids.append(("senti", vocab.senti_index[token.stem]))
        elif token.stem in vocab.aspect_index:
            ids.append(("aspect", vocab.aspect_index[token.stem]))
    return tuple(ids)


def label_aspects(segments, weights, vocab):
    """(labeled, dropped), each segment encoded (its ids, set as an attribute)
    and labelled with classify_topic."""
    labeled, dropped = [], []
    for seg in segments:
        seg.ids = segment_ids(seg, vocab)
        try:
            seg.aspect = classify_topic(seg, weights)
            labeled.append(seg)
        except UnclassifiableSegment:
            dropped.append(seg)
    return labeled, dropped


def classify_sentiment_sen(segment, y_senti):
    """(sentiment, polarity): polarity is the sum of y_senti[0]-y_senti[1]
    over the segment's sentiment words; negation flips the sign; >= 0 is
    positive."""
    polarity = 0.0
    for channel, idx in segment.ids:
        if channel == "senti":
            polarity += float(y_senti[0, idx] - y_senti[1, idx])
    return _label(polarity, segment.negated)


def classify_sentiment_swn(segment, lexicon):
    """(sentiment, polarity) as classify_sentiment_sen, from the lexicon
    scores of the segment's sentiment tokens, stems outside the vocabulary
    included."""
    polarity = 0.0
    for token in segment.tokens:
        if token.is_sentiment:
            polarity += lexicon.score(token.stem)
    return _label(polarity, segment.negated)


def _label(polarity, negated):
    if negated:
        polarity = -polarity
    return (POSITIVE if polarity >= 0 else NEGATIVE), polarity


def rank_score(segment, est):
    """Per-word-average log score of the segment under its own (j, k):
    sentiment words score log phi_prime_hat[j, k], others log phi_hat[k],
    each with libm's log, summed in token order."""
    j, k = segment.sentiment, segment.aspect
    total = 0.0
    for channel, idx in segment.ids:
        if channel == "aspect":
            total += math.log(est.phi_hat[k, idx])
        else:
            total += math.log(est.phi_prime_hat[j, k, idx])
    return total / len(segment.ids) if segment.ids else -math.inf


def _keep_with_top_word(segments, channel, probs, labels_of, n):
    """Keep the segments holding a `channel` word among the n most probable
    words of probs[labels_of(segment)]."""
    tops = {}
    kept = []
    for seg in segments:
        labels = labels_of(seg)
        if None in labels:
            raise ValueError("missing labels")
        if labels not in tops:
            tops[labels] = set(np.argsort(-probs[labels], kind="stable")[:n].tolist())
        if any(c == channel and idx in tops[labels] for c, idx in seg.ids):
            kept.append(seg)
    return kept


def filter_rank(segments, keep_fraction):
    """Within each entity's (sentiment, aspect) group, drop the bottom
    floor((1-keep_fraction) * n) segments by rank; ties keep corpus order."""
    groups = {}
    for pos, seg in enumerate(segments):
        groups.setdefault((seg.entity_id, seg.sentiment, seg.aspect), []).append(pos)
    survivors = set()
    for members in groups.values():
        n = len(members)
        n_drop = math.floor((1.0 - keep_fraction) * n)
        survivors.update(sorted(members, key=lambda pos: -segments[pos].rank)[: n - n_drop])
    return [seg for pos, seg in enumerate(segments) if pos in survivors]


def run_procedure(stages, segments, est, y_senti, lexicon, config):
    """(positive, negative) survivors of the stages, a segment at a time;
    sets each classified segment's sentiment, polarity and rank."""
    current = list(segments)
    for stage in stages:
        if stage == "AW":
            current = _keep_with_top_word(current, "aspect", est.phi_hat,
                                          lambda seg: (seg.aspect,), config.aw_top_x)
        elif stage == "SW":
            current = _keep_with_top_word(current, "senti", est.phi_prime_hat,
                                          lambda seg: (seg.sentiment, seg.aspect),
                                          config.sw_top_y)
        elif stage == "RANK":
            current = filter_rank(current, config.rank_keep_fraction)
        elif stage in ("SEN", "SWN"):
            for seg in current:
                seg.sentiment, seg.polarity = (
                    classify_sentiment_sen(seg, y_senti) if stage == "SEN"
                    else classify_sentiment_swn(seg, lexicon))
                seg.rank = rank_score(seg, est)
    return ([s for s in current if s.sentiment == POSITIVE],
            [s for s in current if s.sentiment == NEGATIVE])
