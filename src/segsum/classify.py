"""Aspect and sentiment classification of extracted segments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import numbered_lines

POSITIVE, NEGATIVE = 0, 1


def topic_weights(est):
    """Per-topic score rows of the vocabulary, keyed by channel: row i of
    "aspect" is log phi_hat[:, i], row i of "senti" is
    sum_j log phi_prime_hat[j, :, i]."""
    return {"aspect": np.log(est.phi_hat).T,
            "senti": np.log(est.phi_prime_hat).sum(axis=0).T}


def encode_ids(segments, est):
    """(codes, lengths): row r of codes holds the ids of segments[r] in token
    order, aspect id i coded i and sentiment id i coded V + i, padded with
    the code V + V'; every table that codes index has a zero (or False) entry
    there. lengths[r] is the number of ids. The codes are int32, which holds
    any vocabulary in half the memory of intp."""
    V, Vp = est.phi_hat.shape[1], est.phi_prime_hat.shape[2]
    lengths = np.array([len(seg.ids) for seg in segments], dtype=np.intp)
    codes = np.full((len(segments), lengths.max(initial=0)), V + Vp, dtype=np.int32)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.fromiter(
        (i if channel == "aspect" else V + i for seg in segments for channel, i in seg.ids),
        dtype=np.int32, count=lengths.sum())
    return codes, lengths


def token_sums(table, codes, labels=None):
    """Per row r of codes, the sum of table[code], or of table[labels[r], code],
    over its codes, added left to right from 0.0 (np.sum would regroup 8 or
    more terms pairwise). Adding the pad's 0.0 leaves a sum that starts at
    +0.0 unchanged."""
    total = np.zeros((len(codes),) + table.shape[1 if labels is None else 2:])
    for column in codes.T:
        total += table[column] if labels is None else table[labels, column]
    return total


def _label(polarity, negated):
    """(sentiment index, polarity): negation flips the sign; >= 0 is positive."""
    if negated:
        polarity = -polarity
    return (POSITIVE if polarity >= 0 else NEGATIVE), polarity


@dataclass
class PolarityLexicon:
    """Stem -> signed score; unknown stems score 0."""

    scores: dict = field(default_factory=dict)

    def __post_init__(self):
        for word, score in self.scores.items():
            if not math.isfinite(score):
                raise ValueError(f"non-finite lexicon score for {word!r}")

    def score(self, stem: str) -> float:
        return self.scores.get(stem, 0.0)

    @classmethod
    def from_tsv(cls, path):
        scores = {}
        for lineno, line in numbered_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'stem<TAB>score'")
            try:
                score = float(parts[1])
            except ValueError:
                score = math.nan
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {parts[1]!r} is not "
                                 f"a finite number")
            scores[parts[0]] = score
        return cls(scores)


def classify_sentiment_swn(segment, lexicon):
    """Lexicon-based classifier; same thresholding and negation as SEN."""
    polarity = 0.0
    for token in segment.tokens:
        if token.is_sentiment:
            polarity += lexicon.score(token.stem)
    return _label(polarity, segment.negated)


def label_aspects(segments, est, vocab):
    """Encode each segment as the (channel, index) pairs of its in-vocabulary
    tokens, in token order (the vocabulary's shared pair per stem), then label
    the aspects of all of them at once: a segment's aspect is the argmax topic
    of the token_sums of its ids' topic_weights rows, ties toward the lowest
    topic. Segments without ids are unclassifiable and dropped.

    Returns (labeled segments, dropped segments).
    """
    stem_ids = vocab.stem_ids
    for seg in segments:
        seg.ids = tuple(stem_ids[t.stem] for t in seg.tokens if t.stem in stem_ids)
    codes, lengths = encode_ids(segments, est)
    weights = topic_weights(est)
    scores = token_sums(np.vstack((weights["aspect"], weights["senti"],
                                   np.zeros(est.phi_hat.shape[0]))), codes)
    labeled, dropped = [], []
    for seg, aspect, n in zip(segments, scores.argmax(axis=1).tolist(), lengths.tolist()):
        if n:
            seg.aspect = aspect
            labeled.append(seg)
        else:
            dropped.append(seg)
    return labeled, dropped
