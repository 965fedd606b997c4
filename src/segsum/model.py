"""Joint sentiment-topic model over sentences.

Each sentence gets one (topic, sentiment) pair; non-sentiment words are drawn
from a per-topic distribution and sentiment words from a per-(sentiment,
topic) distribution whose Dirichlet smoother factorizes as
beta_prime[j,k,i] = exp(y_topic[k,i] + y_senti[j,i]). Inference alternates
collapsed Gibbs sweeps over sentence assignments with MAP (L-BFGS)
optimization of the y smoothers; y_senti[0,i] - y_senti[1,i] is the learned
polarity of sentiment word i.
"""

from __future__ import annotations

import json
import logging
import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import exp, log as ln
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, psi

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1

DEFAULT_POSITIVE_SEEDS = frozenset({"good", "great", "nice", "excel", "love", "best", "amaz"})
DEFAULT_NEGATIVE_SEEDS = frozenset({"bad", "terribl", "aw", "hate", "worst", "poor", "disappoint"})


@dataclass
class Hyperparams:
    alpha: float = 0.1
    beta: float = 0.01
    gamma: float = 0.1
    sigma1_sq: float = 1.0
    sigma2_sq: float = 1.0
    num_topics: int = 7
    num_sentiments: int = 2
    mu_seed: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "sigma1_sq", "sigma2_sq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.num_topics < 1:
            raise ValueError("num_topics must be >= 1")
        if self.num_sentiments != 2:
            raise ValueError("the model is defined for exactly 2 sentiments")

    @property
    def sigma_sq(self):
        return self.sigma1_sq + self.sigma2_sq

    def to_dict(self):
        return dict(self.__dict__)


@dataclass
class SeedList:
    positive: frozenset = DEFAULT_POSITIVE_SEEDS
    negative: frozenset = DEFAULT_NEGATIVE_SEEDS

    def __post_init__(self):
        overlap = set(self.positive) & set(self.negative)
        if overlap:
            raise ValueError(f"seed words in both polarities: {sorted(overlap)}")

    @classmethod
    def from_file(cls, path):
        """Lines of '<polarity>\t<stem>' with polarity in {positive, negative}."""
        pos, neg = set(), set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                polarity, word = line.split()
                if polarity == "positive":
                    pos.add(word)
                elif polarity == "negative":
                    neg.add(word)
                else:
                    raise ValueError(f"bad seed polarity: {polarity!r}")
        return cls(frozenset(pos), frozenset(neg))


@dataclass
class Schedule:
    burn_in: int = 500
    interleave: int = 100
    total: int = 2000

    def __post_init__(self):
        if self.total < 0 or self.burn_in < 0 or self.interleave < 1:
            raise ValueError("bad schedule")


class SentenceIds(NamedTuple):
    """A sentence's vocabulary ids in token order. An offset counts the
    earlier occurrences of its token's id in the sentence; the offsets are
    None when no id repeats."""

    aspect: tuple
    aspect_offsets: tuple | None
    senti: tuple
    senti_offsets: tuple | None


def _offsets(ids):
    if len(set(ids)) == len(ids):
        return None
    seen = {}
    out = []
    for i in ids:
        out.append(seen.get(i, 0))
        seen[i] = out[-1] + 1
    return tuple(out)


def encode_corpus(corpus, vocab):
    """Map corpus tokens to vocabulary ids, one list of SentenceIds per
    review; out-of-vocabulary tokens drop."""
    docs = []
    for review in corpus.reviews:
        sentences = []
        for sentence in review.sentences:
            aspect, senti = [], []
            for token in sentence.tokens:
                channel, idx = vocab.lookup(token)
                if channel == "aspect":
                    aspect.append(idx)
                elif channel == "senti":
                    senti.append(idx)
            aspect, senti = tuple(aspect), tuple(senti)
            sentences.append(SentenceIds(aspect, _offsets(aspect), senti, _offsets(senti)))
        docs.append(sentences)
    return docs


def _concat(arrays):
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.intp)


class ModelState:
    """Counts, assignments and smoother parameters of a training run."""

    def __init__(self, hp, vocab, docs, rng):
        self.hp = hp
        self.vocab = vocab
        self.docs = docs
        self.rng = rng
        T, S = hp.num_topics, hp.num_sentiments
        V, Vp = vocab.num_aspect_words, vocab.num_senti_words
        D = len(docs)
        self.set_counts(np.zeros((T, V)), np.zeros((S, T, Vp)),
                        np.zeros((D, T)), np.zeros((D, S)))
        self.z = [np.zeros(len(doc), dtype=np.intp) for doc in docs]
        self.s = [np.zeros(len(doc), dtype=np.intp) for doc in docs]
        self.y_topic = np.zeros((T, Vp))
        self.beta_prime = np.ones((S, T, Vp))
        self.bar_beta_prime = np.full((S, T), float(Vp))
        self.sweep_index = 0
        self.optimize_log = []   # (sweep, objective_before, objective_after)

    def refresh_beta_prime(self):
        self.beta_prime = np.exp(self.y_topic[None, :, :] + self.y_senti[:, None, :])
        self.bar_beta_prime = self.beta_prime.sum(axis=2)

    # -- count bookkeeping ---------------------------------------------------

    def set_counts(self, n_TW, n_STW, n_DT, n_DS):
        """Install count matrices and the row totals derived from them."""
        self.n_TW, self.n_STW, self.n_DT, self.n_DS = n_TW, n_STW, n_DT, n_DS
        self.n_TW_rows = n_TW.sum(axis=1)
        self.n_STW_rows = n_STW.sum(axis=2)

    def decrement(self, d, c):
        _move(self, d, self.docs[d][c], self.s[d][c], self.z[d][c], -1)

    def increment(self, d, c, j, k):
        _move(self, d, self.docs[d][c], j, k, 1)
        self.z[d][c] = k
        self.s[d][c] = j

    def recount(self):
        """Rebuild all count matrices from the assignments: one bincount per
        matrix over the corpus's concatenated ids."""
        T, S = self.hp.num_topics, self.hp.num_sentiments
        V, Vp = self.vocab.num_aspect_words, self.vocab.num_senti_words
        sentences = [sent for doc in self.docs for sent in doc]
        z, s = _concat(self.z), _concat(self.s)
        doc = np.repeat(np.arange(len(self.docs)), [len(doc) for doc in self.docs])

        def count(index, shape):
            return np.bincount(index, minlength=math.prod(shape)).reshape(shape).astype(float)

        def ids(channel):
            lengths = [len(getattr(sent, channel)) for sent in sentences]
            flat = np.fromiter(chain.from_iterable(getattr(sent, channel) for sent in sentences),
                               dtype=np.intp, count=sum(lengths))
            return flat, lengths

        aspect, aspect_lengths = ids("aspect")
        senti, senti_lengths = ids("senti")
        return (count(np.repeat(z, aspect_lengths) * V + aspect, (T, V)),
                count(np.repeat(s * T + z, senti_lengths) * Vp + senti, (S, T, Vp)),
                count(doc * T + z, (len(self.docs), T)),
                count(doc * S + s, (len(self.docs), S)))

    def counts_consistent(self):
        """Whether z/s fit the corpus and the counts equal their recount."""
        lengths = [len(doc) for doc in self.docs]
        z, s = _concat(self.z), _concat(self.s)
        if ([len(a) for a in self.z] != lengths or [len(a) for a in self.s] != lengths
                or not ((0 <= z) & (z < self.hp.num_topics)).all()
                or not ((0 <= s) & (s < self.hp.num_sentiments)).all()):
            return False
        return all(np.array_equal(mine, recounted) for mine, recounted in zip(
            (self.n_TW, self.n_STW, self.n_DT, self.n_DS), self.recount()))


def seed_smoothers(vocab, hp, seeds):
    """(y_senti, seed_mask) fixed by the seed words: +-mu_seed in the two
    sentiment rows of each seed word in the sentiment vocabulary, 0 elsewhere."""
    y_senti = np.zeros((hp.num_sentiments, vocab.num_senti_words))
    seed_mask = np.zeros(y_senti.shape, dtype=bool)
    for sign, words in ((1.0, seeds.positive), (-1.0, seeds.negative)):
        for word in words:
            idx = vocab.senti_index.get(word)
            if idx is None:
                log.warning("seed word %r not in sentiment vocabulary; ignored", word)
                continue
            y_senti[0, idx] = sign * hp.mu_seed
            y_senti[1, idx] = -sign * hp.mu_seed
            seed_mask[:, idx] = True
    return y_senti, seed_mask


def init(corpus, vocab, hp, seeds=None, rng_seed=0) -> ModelState:
    seeds = seeds if seeds is not None else SeedList()
    rng = np.random.default_rng(rng_seed)
    docs = encode_corpus(corpus, vocab)
    state = ModelState(hp, vocab, docs, rng)
    state.y_senti, state.seed_mask = seed_smoothers(vocab, hp, seeds)
    state.refresh_beta_prime()

    for z, s in zip(state.z, state.s):
        for c in range(len(z)):
            z[c] = rng.integers(hp.num_topics)
            s[c] = rng.integers(hp.num_sentiments)
    state.set_counts(*state.recount())
    return state


# -- collapsed Gibbs sampler (sentence block) --------------------------------
#
# One scalar kernel serves gibbs_sweep and the per-sentence entry points
# (ModelState.decrement/increment, gibbs_conditional_log): _move updates the
# counts, _log_conditional evaluates the conditional and _draw picks from it.
# It reads counts as counts.n_TW[k][w], which works on a ModelState's numpy
# arrays and, much faster, on the nested lists that gibbs_sweep copies them
# into for one sweep. It samples the chain of the per-sentence numpy
# expressions it replaced (tests/oracles.py), so it adds in their order:
# left to right over a sentence's tokens (pairwise over the aspect tokens of
# a one-topic model), and in numpy's pairwise order (_pairwise) over the log
# terms of a denominator's rising factorial. One helper, _log_rising_ratios,
# computes both word blocks.

def _move(counts, d, sent, j, k, step):
    """Add step (+1 or -1) times sentence sent of document d, assigned
    sentiment j and topic k, to the counts."""
    row = counts.n_TW[k]
    for w in sent.aspect:
        row[w] += step
    row = counts.n_STW[j][k]
    for w in sent.senti:
        row[w] += step
    counts.n_TW_rows[k] += step * len(sent.aspect)
    counts.n_STW_rows[j][k] += step * len(sent.senti)
    counts.n_DT[d][k] += step
    counts.n_DS[d][j] += step


def _sum_in_order(a):
    """sum(a), added left to right from 0.0."""
    total = 0.0
    for v in a:
        total += v
    return total


def _pairwise(a):
    """sum(a) in the order of numpy's pairwise sum over a contiguous row: left
    to right below 8 terms, else 8 interleaved partial sums (halving
    recursively above 128 terms)."""
    n = len(a)
    if n < 8:
        return _sum_in_order(a)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise(a[:half]) + _pairwise(a[half:])
    r = a[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        for m in range(8):
            r[m] += a[i + m]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in a[tail:]:
        total += v
    return total


def _log_rising_ratios(ln, rows, smoothers, totals, bars, ids, offsets, pairwise_numerators):
    """For each count row (a topic's, or a sentiment-topic pair's) with its
    smoother row, row total and smoother total, the log of one word block's
    factor, a ratio of rising factorials: the sum of ln(row[w] + smoother[w]
    + o) over the ids w and their repeat offsets o, minus the sum of
    ln(total + bar + t) for t below len(ids), each added in the order numpy
    added it."""
    n = len(ids)
    out = []
    for row, smoother, total, bar in zip(rows, smoothers, totals, bars):
        x = total + bar
        if offsets is None and n < 8:
            # no repeats, and below 8 terms numpy's pairwise sum adds left to
            # right too: the same sums without the lists
            num = den = 0.0
            for t, w in enumerate(ids):
                num += ln(row[w] + smoother[w])
                den += ln(x + t)
        else:
            nums = [ln(row[w] + smoother[w] + o) for w, o in zip(ids, offsets or repeat(0))]
            num = _pairwise(nums) if pairwise_numerators else _sum_in_order(nums)
            den = _pairwise([ln(x + t) for t in range(n)])
        out.append(num - den)
    return out


@lru_cache(maxsize=4)
def _constant_row(value, length):
    """[value] * length, built once: the aspect words' smoother row."""
    return [value] * length


def _ln_or_minus_inf(x):
    return ln(x) if x > 0 else -math.inf


def _log_conditional(counts, hp, V, sent, d):
    """Log of the unnormalized conditional of sentence sent of document d,
    whose own assignment is not in the counts, as a flat list indexed
    j * T + k."""
    try:
        return _log_terms(counts, hp, V, sent, d, ln)
    except ValueError:
        # a sentiment smoother that underflowed to 0 under a zero count: the
        # cell's log is -inf, as np.log gives it
        return _log_terms(counts, hp, V, sent, d, _ln_or_minus_inf)


def _log_terms(counts, hp, V, sent, d, ln):
    T, beta, alpha, gamma = hp.num_topics, hp.beta, hp.alpha, hp.gamma
    aspect, aspect_offsets, senti, senti_offsets = sent
    doc_topic = [ln(n + alpha) for n in counts.n_DT[d]]
    doc_senti = [ln(n + gamma) for n in counts.n_DS[d]]
    # one aspect term per topic. numpy summed the numerators of one topic
    # pairwise (a contiguous row), of several topics left to right (along a
    # strided axis)
    aspect_term = [0.0] * T
    if aspect:
        aspect_term = _log_rising_ratios(
            ln, counts.n_TW, repeat(_constant_row(beta, V)), counts.n_TW_rows, repeat(V * beta),
            aspect, aspect_offsets, T == 1)
    # one sentiment term per (j, k), j-major
    senti_term = [0.0] * (len(doc_senti) * T)
    if senti:
        cells = chain.from_iterable
        senti_term = _log_rising_ratios(
            ln, cells(counts.n_STW), cells(counts.beta_prime), cells(counts.n_STW_rows),
            cells(counts.bar_beta_prime), senti, senti_offsets, False)
    logp = []
    for j, e in enumerate(doc_senti):
        logp += [((a + b) + c) + e
                 for a, b, c in zip(aspect_term, senti_term[j * T:(j + 1) * T], doc_topic)]
    return logp


def _draw(logp, u):
    """Index of the first cumulative weight above u times the total, the
    weights being exp(logp - max(logp)) in order."""
    top = max(logp)
    cumulative = []
    total = 0.0
    for v in logp:
        total += exp(v - top)
        cumulative.append(total)
    x = u * total
    for i, c in enumerate(cumulative):
        if c > x:
            return i
    return len(logp) - 1


class _CountLists:
    """A ModelState's counts and sentiment smoothers as nested lists, for the
    scalar kernel during one sweep."""

    _COUNTS = ("n_TW", "n_STW", "n_DT", "n_DS", "n_TW_rows", "n_STW_rows")

    def __init__(self, state):
        for name in self._COUNTS + ("beta_prime", "bar_beta_prime"):
            setattr(self, name, getattr(state, name).tolist())

    def write_back(self, state):
        for name in self._COUNTS:
            getattr(state, name)[...] = getattr(self, name)


def gibbs_conditional_log(state, d, c):
    """Log of the unnormalized (S, T) conditional for sentence (d, c).

    The sentence's own assignment must already be decremented.
    """
    hp = state.hp
    logp = _log_conditional(state, hp, state.vocab.num_aspect_words, state.docs[d][c], d)
    return np.array(logp).reshape(hp.num_sentiments, hp.num_topics)


def gibbs_conditional(state, d, c):
    """Unnormalized (S, T) conditional probabilities (linear scale)."""
    return np.exp(gibbs_conditional_log(state, d, c))


def gibbs_sweep(state):
    """Resample every sentence in corpus order, with one rng.random() each;
    mutates and returns state."""
    hp = state.hp
    T, V = hp.num_topics, state.vocab.num_aspect_words
    counts = _CountLists(state)
    random = state.rng.random
    for d, doc in enumerate(state.docs):
        z, s = state.z[d].tolist(), state.s[d].tolist()
        for c, sent in enumerate(doc):
            _move(counts, d, sent, s[c], z[c], -1)
            s[c], z[c] = divmod(_draw(_log_conditional(counts, hp, V, sent, d), random()), T)
            _move(counts, d, sent, s[c], z[c], 1)
        state.z[d][:] = z
        state.s[d][:] = s
    counts.write_back(state)
    state.sweep_index += 1
    return state


# -- MAP smoother optimization ----------------------------------------------

def _objective_terms(y_topic, y_senti, n_STW, sigma_sq):
    S, _, _ = n_STW.shape
    T = y_topic.shape[0]
    beta_prime = np.exp(y_topic[None, :, :] + y_senti[:, None, :])
    bar_beta = beta_prime.sum(axis=2)
    bar_n = n_STW.sum(axis=2)

    nll = (gammaln(bar_n + bar_beta) - gammaln(bar_beta)).sum()
    nll += (gammaln(beta_prime) - gammaln(n_STW + beta_prime)).sum()

    cross = y_topic[None, :, :] + y_senti[:, None, :]
    neg_log_prior = (S * y_topic.sum() + T * y_senti.sum()
                     + (cross ** 2).sum() / (2.0 * sigma_sq))
    return nll + neg_log_prior, beta_prime, bar_beta, bar_n, cross


def map_objective_raw(y_topic, y_senti, n_STW, sigma_sq):
    return _objective_terms(y_topic, y_senti, n_STW, sigma_sq)[0]


def map_gradient_raw(y_topic, y_senti, n_STW, sigma_sq):
    S, _, _ = n_STW.shape
    T = y_topic.shape[0]
    _, beta_prime, bar_beta, bar_n, cross = _objective_terms(
        y_topic, y_senti, n_STW, sigma_sq)

    # dL/d(beta_prime): the row term is shared within each (j, k)
    row_term = psi(bar_n + bar_beta) - psi(bar_beta)          # (S, T)
    cell_term = psi(beta_prime) - psi(n_STW + beta_prime)     # (S, T, V')
    d_beta = (row_term[:, :, None] + cell_term) * beta_prime  # chain rule

    g_topic = d_beta.sum(axis=0) + S + cross.sum(axis=0) / sigma_sq
    g_senti = d_beta.sum(axis=1) + T + cross.sum(axis=1) / sigma_sq
    return g_topic, g_senti


def map_objective(state) -> float:
    return map_objective_raw(state.y_topic, state.y_senti, state.n_STW,
                             state.hp.sigma_sq)


def optimize_smoothers(state, max_iters=50, tol=1e-5) -> ModelState:
    """L-BFGS step on (y_topic, free y_senti); seed entries stay frozen."""
    T, Vp = state.y_topic.shape
    free = ~state.seed_mask
    y_senti_fixed = state.y_senti.copy()
    sigma_sq = state.hp.sigma_sq
    n_STW = state.n_STW

    def unpack(x):
        y_topic = x[: T * Vp].reshape(T, Vp)
        y_senti = y_senti_fixed.copy()
        y_senti[free] = x[T * Vp:]
        return y_topic, y_senti

    def fun(x):
        y_topic, y_senti = unpack(x)
        obj = map_objective_raw(y_topic, y_senti, n_STW, sigma_sq)
        g_topic, g_senti = map_gradient_raw(y_topic, y_senti, n_STW, sigma_sq)
        return obj, np.concatenate([g_topic.ravel(), g_senti[free]])

    x0 = np.concatenate([state.y_topic.ravel(), state.y_senti[free]])
    entry = map_objective(state)
    result = minimize(fun, x0, jac=True, method="L-BFGS-B",
                      options={"maxiter": max_iters, "gtol": tol, "ftol": 0.0})
    if not result.success and result.status != 1:  # status 1 = maxiter reached
        warnings.warn(f"smoother optimization did not converge: {result.message}")
    if result.fun <= entry:
        state.y_topic, state.y_senti = unpack(result.x)
        state.refresh_beta_prime()
    # else: keep the entry iterate; descent contract holds trivially
    return state


def train(state, schedule=None, optimizer_max_iters=50, optimizer_tol=1e-5,
          progress=None) -> ModelState:
    """Run the schedule's sweeps from state.sweep_index up to schedule.total.

    A fresh state from init() and a state from load_checkpoint() go through
    the same loop, so a resumed run takes the MAP steps at the same sweeps as
    an uninterrupted one and appends them to optimize_log.
    """
    schedule = schedule if schedule is not None else Schedule()
    while state.sweep_index < schedule.total:
        gibbs_sweep(state)
        t = state.sweep_index
        if t > schedule.burn_in and (t - schedule.burn_in) % schedule.interleave == 0:
            before = map_objective(state)
            optimize_smoothers(state, optimizer_max_iters, optimizer_tol)
            after = map_objective(state)
            state.optimize_log.append((t, before, after))
        if progress is not None:
            progress(t, schedule.total)
    return state


# -- posterior estimates -----------------------------------------------------

@dataclass
class PosteriorEstimates:
    pi_hat: np.ndarray        # (D, S)
    theta_hat: np.ndarray     # (D, T)
    phi_hat: np.ndarray       # (T, V)
    phi_prime_hat: np.ndarray  # (S, T, V')


def estimate(state) -> PosteriorEstimates:
    hp = state.hp
    V = state.vocab.num_aspect_words
    pi_hat = (state.n_DS + hp.gamma) / (state.n_DS.sum(axis=1, keepdims=True)
                                        + hp.num_sentiments * hp.gamma)
    theta_hat = (state.n_DT + hp.alpha) / (state.n_DT.sum(axis=1, keepdims=True)
                                           + hp.num_topics * hp.alpha)
    phi_hat = (state.n_TW + hp.beta) / (state.n_TW.sum(axis=1, keepdims=True)
                                        + V * hp.beta)
    numer = state.n_STW + state.beta_prime
    phi_prime_hat = numer / numer.sum(axis=2, keepdims=True)
    return PosteriorEstimates(pi_hat, theta_hat, phi_hat, phi_prime_hat)


def lexicon_polarity(state, word: str) -> float:
    idx = state.vocab.senti_index.get(word)
    if idx is None:
        raise KeyError(f"not a sentiment-vocabulary word: {word!r}")
    return float(state.y_senti[0, idx] - state.y_senti[1, idx])


# -- checkpointing & reports -------------------------------------------------

def save_checkpoint(state, path):
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "hyperparams": state.hp.to_dict(),
        "vocab_hash": state.vocab.content_hash(),
        "vocabulary": state.vocab.to_dict(),
        "z": [a.tolist() for a in state.z],
        "s": [a.tolist() for a in state.s],
        "n_TW": state.n_TW.tolist(),
        "n_STW": state.n_STW.tolist(),
        "n_DT": state.n_DT.tolist(),
        "n_DS": state.n_DS.tolist(),
        "y_topic": state.y_topic.tolist(),
        "y_senti": state.y_senti.tolist(),
        "seed_mask": state.seed_mask.tolist(),
        "rng_state": json.loads(json.dumps(state.rng.bit_generator.state)),
        "sweep_index": state.sweep_index,
    }
    # Write beside the target and rename over it, so that a failed write
    # leaves the previous checkpoint in place.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path, corpus=None):
    """Rebuild a ModelState from disk.

    Without a corpus the state supports estimation/classification; resuming
    training additionally requires the original corpus (vocab hash checked).
    """
    from .corpus import Vocabulary

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path}: not a JSON object")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {payload.get('format_version')}")

    def get(key, convert):
        try:
            return convert(payload[key])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint {path}: missing or ill-typed {key!r} "
                             f"({type(exc).__name__}: {exc})") from exc

    def get_array(key, dtype=float):
        return get(key, lambda value: np.asarray(value, dtype=dtype))

    hp = get("hyperparams", lambda d: Hyperparams(**d))
    vocab = get("vocabulary", Vocabulary.from_dict)
    if vocab.content_hash() != payload.get("vocab_hash"):
        raise ValueError("checkpoint vocabulary hash mismatch")

    docs = encode_corpus(corpus, vocab) if corpus is not None else []
    rng = np.random.default_rng()
    get("rng_state", lambda st: setattr(rng.bit_generator, "state", st))
    state = ModelState(hp, vocab, docs, rng)
    state.set_counts(get_array("n_TW"), get_array("n_STW"), get_array("n_DT"),
                     get_array("n_DS"))
    state.z = get("z", lambda rows: [np.asarray(a, dtype=np.intp) for a in rows])
    state.s = get("s", lambda rows: [np.asarray(a, dtype=np.intp) for a in rows])
    state.y_topic = get_array("y_topic")
    state.y_senti = get_array("y_senti")
    state.seed_mask = get_array("seed_mask", bool)
    state.refresh_beta_prime()
    state.sweep_index = get("sweep_index", int)
    if corpus is not None and not state.counts_consistent():
        raise ValueError("checkpoint counts do not match the supplied corpus")
    return state


def topic_report(state, top_n=10) -> dict:
    """Per-topic top aspect words and top positive/negative sentiment words."""
    est = estimate(state)
    vocab = state.vocab
    topics = []
    for k in range(state.hp.num_topics):
        aspect = np.argsort(-est.phi_hat[k], kind="stable")[:top_n]
        pos = np.argsort(-est.phi_prime_hat[0, k], kind="stable")[:top_n]
        neg = np.argsort(-est.phi_prime_hat[1, k], kind="stable")[:top_n]
        topics.append({
            "topic": k,
            "aspect_words": [vocab.aspect_stems[i] for i in aspect],
            "positive_words": [vocab.senti_stems[i] for i in pos],
            "negative_words": [vocab.senti_stems[i] for i in neg],
        })
    return {"num_topics": state.hp.num_topics, "topics": topics}


def format_topic_table(report) -> str:
    lines = []
    header = f"{'topic':<6}{'top aspect words':<40}{'top positive words':<40}{'top negative words'}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["topics"]:
        lines.append(f"{row['topic']:<6}"
                     f"{', '.join(row['aspect_words']):<40}"
                     f"{', '.join(row['positive_words']):<40}"
                     f"{', '.join(row['negative_words'])}")
    return "\n".join(lines)
