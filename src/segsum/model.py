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
import os
import warnings
from dataclasses import dataclass

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


@dataclass
class EncodedSentence:
    aspect_ids: np.ndarray   # indices into the non-sentiment vocabulary
    aspect_offsets: np.ndarray  # per-occurrence within-sentence repeat counts
    senti_ids: np.ndarray
    senti_offsets: np.ndarray


def _offsets(ids):
    seen = {}
    out = np.empty(len(ids), dtype=np.float64)
    for t, i in enumerate(ids):
        out[t] = seen.get(i, 0)
        seen[i] = out[t] + 1
    return out


def encode_corpus(corpus, vocab):
    """Map corpus tokens to vocabulary ids; out-of-vocabulary tokens drop."""
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
            a = np.asarray(aspect, dtype=np.intp)
            s = np.asarray(senti, dtype=np.intp)
            sentences.append(EncodedSentence(a, _offsets(a), s, _offsets(s)))
        docs.append(sentences)
    return docs


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
        self.n_TW = np.zeros((T, V))
        self.n_STW = np.zeros((S, T, Vp))
        self.n_DT = np.zeros((D, T))
        self.n_DS = np.zeros((D, S))
        self.n_TW_rows = np.zeros(T)
        self.n_STW_rows = np.zeros((S, T))
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

    def decrement(self, d, c):
        sent = self.docs[d][c]
        k, j = self.z[d][c], self.s[d][c]
        np.subtract.at(self.n_TW[k], sent.aspect_ids, 1.0)
        np.subtract.at(self.n_STW[j, k], sent.senti_ids, 1.0)
        self.n_TW_rows[k] -= len(sent.aspect_ids)
        self.n_STW_rows[j, k] -= len(sent.senti_ids)
        self.n_DT[d, k] -= 1
        self.n_DS[d, j] -= 1

    def increment(self, d, c, j, k):
        sent = self.docs[d][c]
        np.add.at(self.n_TW[k], sent.aspect_ids, 1.0)
        np.add.at(self.n_STW[j, k], sent.senti_ids, 1.0)
        self.n_TW_rows[k] += len(sent.aspect_ids)
        self.n_STW_rows[j, k] += len(sent.senti_ids)
        self.n_DT[d, k] += 1
        self.n_DS[d, j] += 1
        self.z[d][c] = k
        self.s[d][c] = j

    def recount(self):
        """Rebuild all count matrices from the assignments (for checking)."""
        n_TW = np.zeros_like(self.n_TW)
        n_STW = np.zeros_like(self.n_STW)
        n_DT = np.zeros_like(self.n_DT)
        n_DS = np.zeros_like(self.n_DS)
        for d, doc in enumerate(self.docs):
            for c, sent in enumerate(doc):
                k, j = self.z[d][c], self.s[d][c]
                np.add.at(n_TW[k], sent.aspect_ids, 1.0)
                np.add.at(n_STW[j, k], sent.senti_ids, 1.0)
                n_DT[d, k] += 1
                n_DS[d, j] += 1
        return n_TW, n_STW, n_DT, n_DS

    def counts_consistent(self):
        n_TW, n_STW, n_DT, n_DS = self.recount()
        return (np.array_equal(n_TW, self.n_TW)
                and np.array_equal(n_STW, self.n_STW)
                and np.array_equal(n_DT, self.n_DT)
                and np.array_equal(n_DS, self.n_DS))


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

    for d, doc in enumerate(docs):
        for c in range(len(doc)):
            k = int(rng.integers(hp.num_topics))
            j = int(rng.integers(hp.num_sentiments))
            state.increment(d, c, j, k)
    return state


# -- collapsed Gibbs conditional (sentence block) ----------------------------

def gibbs_conditional_log(state, d, c):
    """Log of the unnormalized (S, T) conditional for sentence (d, c).

    The sentence's own assignment must already be decremented.
    """
    hp = state.hp
    sent = state.docs[d][c]
    V = state.vocab.num_aspect_words
    T = hp.num_topics

    logp = np.zeros((hp.num_sentiments, T))

    n_a = len(sent.aspect_ids)
    if n_a:
        num = np.log(state.n_TW[:, sent.aspect_ids] + hp.beta + sent.aspect_offsets)
        den = np.log(state.n_TW_rows[:, None] + V * hp.beta + np.arange(n_a))
        logp += (num.sum(axis=1) - den.sum(axis=1))[None, :]

    n_s = len(sent.senti_ids)
    if n_s:
        num = np.log(state.n_STW[:, :, sent.senti_ids]
                     + state.beta_prime[:, :, sent.senti_ids]
                     + sent.senti_offsets)
        den = np.log(state.n_STW_rows[:, :, None] + state.bar_beta_prime[:, :, None]
                     + np.arange(n_s))
        logp += num.sum(axis=2) - den.sum(axis=2)

    logp += np.log(state.n_DT[d] + hp.alpha)[None, :]
    logp += np.log(state.n_DS[d] + hp.gamma)[:, None]
    return logp


def gibbs_conditional(state, d, c):
    """Unnormalized (S, T) conditional probabilities (linear scale)."""
    return np.exp(gibbs_conditional_log(state, d, c))


def gibbs_sweep(state):
    """Resample every sentence in corpus order; mutates and returns state."""
    for d, doc in enumerate(state.docs):
        for c in range(len(doc)):
            state.decrement(d, c)
            logp = gibbs_conditional_log(state, d, c)
            p = np.exp(logp - logp.max())
            flat = p.ravel()
            cum = np.cumsum(flat)
            pick = np.searchsorted(cum, state.rng.random() * cum[-1], side="right")
            pick = min(pick, flat.size - 1)
            j, k = divmod(int(pick), state.hp.num_topics)
            state.increment(d, c, j, k)
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
    state.n_TW = get_array("n_TW")
    state.n_STW = get_array("n_STW")
    state.n_DT = get_array("n_DT")
    state.n_DS = get_array("n_DS")
    state.n_TW_rows = state.n_TW.sum(axis=1)
    state.n_STW_rows = state.n_STW.sum(axis=2)
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
