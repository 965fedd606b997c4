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

import ctypes
import hashlib
import json
import logging
import math
import os
import subprocess
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, psi

from .corpus import Corpus, Vocabulary, numbered_lines, write_file

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
        for name in ("alpha", "beta", "gamma", "sigma1_sq", "sigma2_sq", "mu_seed"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number")
        for name in ("num_topics", "num_sentiments"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
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
        polarity_of = {}
        for lineno, line in numbered_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2 or fields[0] not in ("positive", "negative"):
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"'positive|negative<TAB>stem', got {line!r}")
            polarity, word = fields
            if polarity_of.setdefault(word, polarity) != polarity:
                raise ValueError(f"{path}:{lineno}: seed word {word!r} in both polarities")
        positive = frozenset(w for w, p in polarity_of.items() if p == "positive")
        return cls(positive, frozenset(polarity_of) - positive)


@dataclass
class Schedule:
    burn_in: int = 500
    interleave: int = 100
    total: int = 2000

    def __post_init__(self):
        if self.total < 0 or self.burn_in < 0 or self.interleave < 1:
            raise ValueError("bad schedule")


class FlatCorpus(NamedTuple):
    """The corpus encoded against a vocabulary, as flat int64 arrays in the
    sentence order of z/s; the first five fields are segsum_sweep's corpus
    parameters, in order. Per channel: where each sentence's ids start (one
    more entry than there are sentences), and the ids in token order."""

    doc: np.ndarray               # the document of each sentence
    aspect_start: np.ndarray
    aspect: np.ndarray
    senti_start: np.ndarray
    senti: np.ndarray
    doc_start: np.ndarray         # where each document's sentences start (D + 1 entries)
    longest: int                  # the longest id list of a sentence


def encode_corpus(corpus, vocab) -> FlatCorpus:
    """Code every token with one np.take of vocab.encode, and split the codes
    into the two channels by range; out-of-vocabulary tokens drop."""
    codes = vocab.encode(corpus.tokens).take(corpus.token_ids)
    V, pad = vocab.num_aspect_words, vocab.num_aspect_words + vocab.num_senti_words
    arrays = []
    for kept, first in ((codes < V, 0), ((V <= codes) & (codes < pad), V)):
        arrays += [np.concatenate(([0], np.cumsum(kept)))[corpus.sentence_starts],
                   codes[kept] - first]
    aspect_start, aspect, senti_start, senti = arrays
    doc_start = corpus.review_starts
    doc = np.repeat(np.arange(len(doc_start) - 1, dtype=np.int64), np.diff(doc_start))
    longest = max(np.diff(aspect_start).max(initial=0), np.diff(senti_start).max(initial=0))
    return FlatCorpus(doc, aspect_start, aspect, senti_start, senti, doc_start, int(longest))


class ModelState:
    """Counts, assignments and smoother parameters of a training run.

    Built from the assignments z/s (one int64 array each, in the sentence
    order of the encoded corpus `flat`, which the compiled sweep trusts, so
    it must not change), the smoothers y_topic/y_senti, the mask of the seed
    entries of y_senti (fixed during MAP steps) and the count matrices
    (n_TW, n_STW, n_DT, n_DS), which are recounted from z/s when not given.
    The row totals and beta_prime/bar_beta_prime are derived.
    """

    def __init__(self, hp, vocab, flat, rng, z, s, y_topic, y_senti, seed_mask,
                 counts=None, sweep_index=0):
        self.hp = hp
        self.vocab = vocab
        self.flat = flat
        self.rng = rng
        self.z, self.s = z, s
        self.y_topic, self.y_senti, self.seed_mask = y_topic, y_senti, seed_mask
        if counts is None:
            counts = self.recount()
        self.n_TW, self.n_STW, self.n_DT, self.n_DS = counts
        self.n_TW_rows = self.n_TW.sum(axis=1)
        self.n_STW_rows = self.n_STW.sum(axis=2)
        self.refresh_beta_prime()
        self.sweep_index = sweep_index
        self.optimize_log = []   # (sweep, objective_before, objective_after)

    @property
    def docs(self):
        """Per review, the range of its sentences' indices into z/s."""
        starts = self.flat.doc_start.tolist()
        return [range(i, j) for i, j in zip(starts, starts[1:])]

    def refresh_beta_prime(self):
        self.beta_prime = np.exp(self.y_topic[None, :, :] + self.y_senti[:, None, :])
        self.bar_beta_prime = self.beta_prime.sum(axis=2)

    # -- count bookkeeping ---------------------------------------------------

    def recount(self):
        """Rebuild all count matrices from the assignments: one bincount per
        matrix over the flat corpus."""
        T, S, D = self.hp.num_topics, self.hp.num_sentiments, len(self.flat.doc_start) - 1
        V, Vp = self.vocab.num_aspect_words, self.vocab.num_senti_words
        flat, z, s = self.flat, self.z, self.s

        def count(index, shape):
            return np.bincount(index, minlength=math.prod(shape)).reshape(shape).astype(float)

        return (count(np.repeat(z, np.diff(flat.aspect_start)) * V + flat.aspect, (T, V)),
                count(np.repeat(s * T + z, np.diff(flat.senti_start)) * Vp + flat.senti,
                      (S, T, Vp)),
                count(flat.doc * T + z, (D, T)),
                count(flat.doc * S + s, (D, S)))

    def check_assignments(self):
        """ValueError unless z and s are writeable C-contiguous int64 arrays,
        one entry per sentence, each in range: the sweeps write into them."""
        shape = self.flat.doc.shape
        for a, bound in ((self.z, self.hp.num_topics), (self.s, self.hp.num_sentiments)):
            if not (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.shape == shape
                    and a.flags.carray and ((0 <= a) & (a < bound)).all()):
                raise ValueError(f"z/s do not fit the corpus: each must be a writeable, "
                                 f"C-contiguous int64 array of shape {shape}, in range")

    def counts_consistent(self):
        """Whether z/s fit the corpus and the counts equal their recount."""
        try:
            self.check_assignments()
        except ValueError:
            return False
        return all(np.array_equal(mine, recounted) for mine, recounted in zip(
            (self.n_TW, self.n_STW, self.n_DT, self.n_DS), self.recount()))


def seed_smoothers(vocab, hp, seeds):
    """(y_senti, seed_mask) fixed by the seed words: +-mu_seed in the two
    sentiment rows of each seed word in the sentiment vocabulary, 0 elsewhere."""
    y_senti = np.zeros((hp.num_sentiments, vocab.num_senti_words))
    seed_mask = np.zeros(y_senti.shape, dtype=bool)
    for sign, words in ((1.0, seeds.positive), (-1.0, seeds.negative)):
        for word in sorted(words):
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
    flat = encode_corpus(corpus, vocab)
    # one draw under the bounds T, S, T, S, ...: the values and the generator
    # state of rng.integers(T) then rng.integers(S) for each sentence in turn
    draws = rng.integers(0, np.tile([hp.num_topics, hp.num_sentiments], len(flat.doc)))
    z, s = draws[0::2].copy(), draws[1::2].copy()
    # the seed words anchor the initial sentiment: each seeded token votes
    # +1 (positive, s = 0) or -1 (negative, s = 1); a tie keeps the draw
    y_senti, seed_mask = seed_smoothers(vocab, hp, seeds)
    seeded = np.cumsum(np.sign(y_senti[0] - y_senti[1])[flat.senti])
    vote = np.diff(np.concatenate(([0.0], seeded))[flat.senti_start])
    s[vote > 0], s[vote < 0] = 0, 1
    return ModelState(hp, vocab, flat, rng, z, s,
                      np.zeros((hp.num_topics, vocab.num_senti_words)), y_senti, seed_mask)


# -- collapsed Gibbs sampler (sentence block) --------------------------------
#
# gibbs_sweep runs the C sweep of _sweep.c, compiled and loaded at import
# (_load_sweep_kernel), over the encoded corpus (ModelState.flat, from
# encode_corpus) and the state's z/s and count arrays, which it updates in
# place; z/s follow the flat corpus's sentence order, so the sweep copies
# nothing. It samples the chain of the per-sentence numpy sampler in
# tests/oracles.py: the same terms, each sum over a sentence's ids left to
# right, with each logarithm taken once per value it needs (see _sweep.c).

_SWEEP_SOURCE = os.path.join(os.path.dirname(__file__), "_sweep.c")
_SWEEP_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
# -ffp-contract=off: no fused multiply-adds, which would round differently
# from the separately rounded operations of the numpy sampler
_CC_FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")


def _load_sweep_kernel():
    """(segsum_sweep of _sweep.c, None), compiled by cc into __pycache__
    under the hash of the source and the flags unless that file exists; or
    (None, the cause) when cc is missing, the build fails, its output does
    not load or the cache cannot be written."""
    try:
        with open(_SWEEP_SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read() + " ".join(_CC_FLAGS).encode()).hexdigest()
        path = os.path.join(_SWEEP_CACHE, f"_sweep-{key}.so")
        built = not os.path.exists(path)
        if built:
            write_file(path, lambda fh: subprocess.run(
                ["cc", *_CC_FLAGS, "-o", fh.name, _SWEEP_SOURCE, "-lm"],
                check=True, capture_output=True), binary=True)
        try:
            # loaded by its final name, which the frames of a report then show
            kernel = ctypes.CDLL(path).segsum_sweep
        except (OSError, AttributeError):
            if built:   # no later process finds a file that does not load
                os.remove(path)
            raise
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    kernel.restype = None
    kernel.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_double] * 3 + [ctypes.c_void_p] * 17
    return kernel, None


# Import succeeds without the kernel: only gibbs_sweep needs it.
_sweep_kernel, _sweep_unavailable = _load_sweep_kernel()


def _pointer(array, name, shape):
    """The address of a C-contiguous, aligned, writeable float64 array of this
    shape; ValueError naming it otherwise."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape == shape and array.flags.carray):
        raise ValueError(f"{name} must be a C-contiguous, writeable float64 array "
                         f"of shape {shape}")
    return array.ctypes.data


def gibbs_sweep(state):
    """Resample every sentence in corpus order with the compiled sweep, with
    one uniform draw each (rng.random()); mutates and returns state.
    ValueError, naming cc and the cause, when the sweep was not built or
    loaded.

    The work buffer holds, with L = flat.longest, the conditional (S T), the
    per-topic aspect and document terms (2 T), the repeat counts of a
    sentence's ids (2 L), the log tables of n_TW and n_STW (T V + S T V') and
    the prefix sums of each count row's denominator ((T + S T) (L + 3)), in
    the order of the layout in _sweep.c's header. The tables are filled anew
    in each call, so nothing carries over to the next sweep."""
    if _sweep_kernel is None:
        raise ValueError(f"the Gibbs sweep could not be built with cc from {_SWEEP_SOURCE} "
                         f"or loaded: {_sweep_unavailable}")
    state.check_assignments()
    hp, flat = state.hp, state.flat
    S, T = hp.num_sentiments, hp.num_topics
    V, Vp, D = state.vocab.num_aspect_words, state.vocab.num_senti_words, len(flat.doc_start) - 1
    n = len(flat.doc)
    counts = [_pointer(getattr(state, name), name, shape) for name, shape in (
        ("n_TW", (T, V)), ("n_STW", (S, T, Vp)), ("n_DT", (D, T)), ("n_DS", (D, S)),
        ("n_TW_rows", (T,)), ("n_STW_rows", (S, T)),
        ("beta_prime", (S, T, Vp)), ("bar_beta_prime", (S, T)))]
    u = state.rng.random(n)
    L = flat.longest
    work = np.empty(S * T + 2 * T + 2 * L + T * V + S * T * Vp + (T + S * T) * (L + 3))
    _sweep_kernel(n, S, T, V, Vp, L, hp.alpha, hp.beta, hp.gamma,
                  *(a.ctypes.data for a in flat[:5]), u.ctypes.data, state.z.ctypes.data,
                  state.s.ctypes.data, *counts, work.ctypes.data)
    state.sweep_index += 1
    return state


# -- MAP smoother optimization ----------------------------------------------

def occupied_cells(n_STW):
    """(flat indices of the cells of n_STW that hold a count > 0, those counts)."""
    where = np.flatnonzero(n_STW)
    return where, n_STW.ravel()[where]


# L-BFGS-B's trial points may overflow exp; an infinite or NaN value is its
# answer to that, and the error state changes no value
@np.errstate(over="ignore", invalid="ignore")
def map_objective_and_gradient(y_topic, y_senti, n_STW, sigma_sq, occupied=None):
    """The negative log posterior of the smoothers given the sentiment-word
    counts, and its gradients: (objective, d/d y_topic, d/d y_senti).
    occupied is occupied_cells(n_STW), computed here when not given.

    The cell terms gammaln(b) - gammaln(n + b) and psi(b) - psi(n + b) are
    taken only where the count n is > 0, into zeroed arrays of the full
    shape. Where n is 0, n + b == b, so the terms are exactly +0.0 for any
    finite, normal b: every element, and so every sum, is that of the terms
    taken over all cells. Where b underflows to 0 or overflows to inf, the
    terms over all cells are NaN in an empty cell; here they are 0, their
    exact limit for a count of 0."""
    where, counts = occupied if occupied is not None else occupied_cells(n_STW)
    S, _, _ = n_STW.shape
    T = y_topic.shape[0]
    cross = y_topic[None, :, :] + y_senti[:, None, :]
    beta_prime = np.exp(cross)
    bar_beta = beta_prime.sum(axis=2)
    bar_n = n_STW.sum(axis=2)
    b = beta_prime.ravel()[where]
    n_b = counts + b
    log_ratio, cell_term = np.zeros(beta_prime.shape), np.zeros(beta_prime.shape)
    log_ratio.ravel()[where] = gammaln(b) - gammaln(n_b)
    cell_term.ravel()[where] = psi(b) - psi(n_b)

    nll = (gammaln(bar_n + bar_beta) - gammaln(bar_beta)).sum()
    nll += log_ratio.sum()
    neg_log_prior = (S * y_topic.sum() + T * y_senti.sum()
                     + (cross ** 2).sum() / (2.0 * sigma_sq))

    # dL/d(beta_prime): the row term is shared within each (j, k)
    row_term = psi(bar_n + bar_beta) - psi(bar_beta)          # (S, T)
    d_beta = (row_term[:, :, None] + cell_term) * beta_prime  # chain rule

    g_topic = d_beta.sum(axis=0) + S + cross.sum(axis=0) / sigma_sq
    g_senti = d_beta.sum(axis=1) + T + cross.sum(axis=1) / sigma_sq
    return nll + neg_log_prior, g_topic, g_senti


def map_objective(state) -> float:
    return map_objective_and_gradient(state.y_topic, state.y_senti, state.n_STW,
                                      state.hp.sigma_sq)[0]


def optimize_smoothers(state, max_iters=50, tol=1e-5, unconverged=None):
    """L-BFGS step on (y_topic, free y_senti); seed entries stay frozen.
    Returns the MAP objective before and after the step. A step that does not
    converge appends L-BFGS-B's message to the list unconverged, or logs it
    without one."""
    T, Vp = state.y_topic.shape
    free = ~state.seed_mask
    y_senti_fixed = state.y_senti.copy()
    sigma_sq = state.hp.sigma_sq
    n_STW = state.n_STW
    occupied = occupied_cells(n_STW)   # the counts stay fixed during the step

    def unpack(x):
        y_topic = x[: T * Vp].reshape(T, Vp)
        y_senti = y_senti_fixed.copy()
        y_senti[free] = x[T * Vp:]
        return y_topic, y_senti

    def fun(x):
        obj, g_topic, g_senti = map_objective_and_gradient(*unpack(x), n_STW, sigma_sq, occupied)
        return obj, np.concatenate([g_topic.ravel(), g_senti[free]])

    x0 = np.concatenate([state.y_topic.ravel(), state.y_senti[free]])
    entry = map_objective(state)
    result = minimize(fun, x0, jac=True, method="L-BFGS-B",
                      options={"maxiter": max_iters, "gtol": tol, "ftol": 0.0})
    if not result.success and result.status != 1:  # status 1 = maxiter reached
        if unconverged is None:
            log.warning("smoother optimization did not converge: %s", result.message)
        else:
            unconverged.append(result.message)
    if result.fun <= entry:
        state.y_topic, state.y_senti = unpack(result.x)
        state.refresh_beta_prime()
        return entry, result.fun
    return entry, entry  # keep the entry iterate


def train(state, schedule=None) -> ModelState:
    """Run the schedule's sweeps from state.sweep_index up to schedule.total.

    A fresh state from init() and a state from load_checkpoint() go through
    the same loop, so a resumed run takes the MAP steps at the same sweeps as
    an uninterrupted one and appends them to optimize_log.
    """
    schedule = schedule if schedule is not None else Schedule()
    unconverged = []
    while state.sweep_index < schedule.total:
        gibbs_sweep(state)
        t = state.sweep_index
        if t > schedule.burn_in and (t - schedule.burn_in) % schedule.interleave == 0:
            state.optimize_log.append((t, *optimize_smoothers(state, unconverged=unconverged)))
    if unconverged:
        log.warning("smoother optimization did not converge at %d MAP step(s): %s",
                    len(unconverged), "; ".join(dict.fromkeys(unconverged)))
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


# -- checkpointing & reports -------------------------------------------------

def check_word_probabilities(state, where, keys=("'n_TW' and 'hyperparams' beta",
                                                 "'n_STW', 'y_topic' and 'y_senti'")):
    """ValueError "<where>: a word probability is 0 or not finite under <key>"
    unless every word has a positive, finite probability under state, which
    the classifiers take the log of: a huge smoother or beta overflows or
    underflows to 0. keys name what sets the aspect-word and the
    sentiment-word probabilities."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        est = estimate(state)
    for probs, key in zip((est.phi_hat, est.phi_prime_hat), keys):
        if not (np.isfinite(probs) & (probs > 0)).all():
            raise ValueError(f"{where}: a word probability is 0 or not finite under {key}")


def save_checkpoint(state, path):
    """Write the state to path atomically; ValueError if its z/s do not fit
    its corpus, or a word probability is 0 or not finite, which a later load
    would reject."""
    state.check_assignments()
    check_word_probabilities(state, f"checkpoint {path}")
    z, s = ([a[doc.start:doc.stop] for doc in state.docs]
            for a in (state.z.tolist(), state.s.tolist()))
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "hyperparams": state.hp.to_dict(),
        "vocab_hash": state.vocab.content_hash(),
        "vocabulary": state.vocab.to_dict(),
        "z": z,
        "s": s,
        "n_TW": state.n_TW.tolist(),
        "n_STW": state.n_STW.tolist(),
        "n_DT": state.n_DT.tolist(),
        "n_DS": state.n_DS.tolist(),
        "y_topic": state.y_topic.tolist(),
        "y_senti": state.y_senti.tolist(),
        "seed_mask": state.seed_mask.tolist(),
        "rng_state": state.rng.bit_generator.state,
        "sweep_index": state.sweep_index,
    }
    # json.dump's bytes from the C encoder, one call per entry to bound the peak memory
    write_file(path, lambda fh: fh.write("{" + ", ".join(
        f"{json.dumps(key)}: {json.dumps(value, allow_nan=False)}"
        for key, value in payload.items()) + "}"))


def load_checkpoint(path, corpus=None):
    """Rebuild a ModelState from disk.

    Without a corpus the state supports estimation/classification; resuming
    training additionally requires the original corpus (vocab hash checked).
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path}: not a JSON object")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path}: unsupported 'format_version' "
                         f"{payload.get('format_version')!r}, expected {CHECKPOINT_VERSION}")

    def get(key, convert):
        try:
            return convert(payload[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint {path}: missing or ill-typed {key!r} "
                             f"({type(exc).__name__}: {exc})") from exc

    def hyperparams(d):
        missing = sorted(set(Hyperparams.__dataclass_fields__) - set(d))
        if missing:
            raise KeyError(", ".join(missing))
        return Hyperparams(**d)

    hp = get("hyperparams", hyperparams)
    vocab = get("vocabulary", Vocabulary.from_dict)
    if vocab.content_hash() != payload.get("vocab_hash"):
        raise ValueError(f"checkpoint {path}: 'vocab_hash' does not match its 'vocabulary'")

    flat = encode_corpus(corpus if corpus is not None else Corpus([], [], [0], [0], []), vocab)
    rng = np.random.default_rng()
    get("rng_state", lambda st: setattr(rng.bit_generator, "state", st))

    S, T = hp.num_sentiments, hp.num_topics
    V, Vp = vocab.num_aspect_words, vocab.num_senti_words
    D = len(flat.doc_start) - 1 if corpus is not None else None   # None: any number of rows

    def get_array(key, shape, kind="real"):
        """The array at key, of this shape; each entry a finite number (kind
        "real"), a finite whole number >= 0 ("count") or a JSON boolean ("flag")."""
        array = get(key, lambda value: np.asarray(value, dtype=object))
        if array.ndim != len(shape) or any(m not in (None, n) for n, m in zip(array.shape, shape)):
            want = ", ".join("any" if m is None else str(m) for m in shape)
            raise ValueError(f"checkpoint {path}: {key!r} has shape {array.shape}, "
                             f"expected ({want}) from 'hyperparams', 'vocabulary'"
                             + (" and the corpus" if corpus is not None else ""))
        # JSON true and a numeric string would convert to numbers
        valid = set(map(type, array.ravel())) <= ({bool} if kind == "flag" else {int, float})
        if valid and kind != "flag":
            try:
                array = array.astype(float)
            except OverflowError:   # an integer beyond float
                valid = False
            else:
                valid = np.isfinite(array).all() and (
                    kind == "real" or ((array >= 0) & (array == np.floor(array))).all())
        if not valid:
            want = {"real": "a finite number", "count": "a finite whole number >= 0",
                    "flag": "a JSON boolean"}[kind]
            raise ValueError(f"checkpoint {path}: {key!r} holds an entry that is not {want}")
        return array.astype(bool) if kind == "flag" else array

    def get_assignments(key, bound):
        """z or s: rows of ints below bound, one per review and as long as it
        when a corpus is given, concatenated."""
        def convert(rows):
            if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
                raise TypeError("not a list of rows")
            values = list(chain.from_iterable(rows))
            if not all(type(v) is int and 0 <= v < bound for v in values):
                raise ValueError(f"an entry is not an integer in [0, {bound})")
            return [len(row) for row in rows], np.array(values, dtype=np.int64)

        lengths, values = get(key, convert)
        if corpus is not None and lengths != np.diff(flat.doc_start).tolist():
            raise ValueError(f"checkpoint {path}: {key!r} does not hold one row per review "
                             f"with one entry per sentence")
        return values

    def sweep_count(value):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"not a sweep count: {value!r}")
        return value

    z, s = get_assignments("z", T), get_assignments("s", S)
    y_topic, y_senti = get_array("y_topic", (T, Vp)), get_array("y_senti", (S, Vp))
    seed_mask = get_array("seed_mask", (S, Vp), "flag")
    counts = [get_array(key, shape, "count") for key, shape in (
        ("n_TW", (T, V)), ("n_STW", (S, T, Vp)), ("n_DT", (D, T)), ("n_DS", (D, S)))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = ModelState(hp, vocab, flat, rng, z, s, y_topic, y_senti, seed_mask, counts,
                           get("sweep_index", sweep_count))
    check_word_probabilities(state, f"checkpoint {path}")
    if corpus is not None and not state.counts_consistent():
        raise ValueError(f"checkpoint {path}: counts do not match the supplied corpus "
                         f"('n_TW', 'n_STW', 'n_DT' and 'n_DS' against 'z' and 's')")
    return state


def topic_report(state, top_n=10) -> dict:
    """Per-topic top aspect words and top positive/negative sentiment words;
    top_n = 0 lists every word."""
    est = estimate(state)
    vocab = state.vocab
    top = top_n or None
    topics = []
    for k in range(state.hp.num_topics):
        aspect = np.argsort(-est.phi_hat[k], kind="stable")[:top]
        pos = np.argsort(-est.phi_prime_hat[0, k], kind="stable")[:top]
        neg = np.argsort(-est.phi_prime_hat[1, k], kind="stable")[:top]
        topics.append({
            "topic": k,
            "aspect_words": [vocab.aspect_stems[i] for i in aspect],
            "positive_words": [vocab.senti_stems[i] for i in pos],
            "negative_words": [vocab.senti_stems[i] for i in neg],
        })
    return {"num_topics": state.hp.num_topics, "topics": topics}


def format_topic_table(report) -> str:
    """One row per topic. Each column is as wide as its widest cell, and two
    spaces separate the columns."""
    rows = [("topic", "top aspect words", "top positive words", "top negative words")]
    rows += [(str(row["topic"]), *(", ".join(row[f"{kind}_words"])
                                   for kind in ("aspect", "positive", "negative")))
             for row in report["topics"]]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip() for cells in rows]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)
