"""Aspect and sentiment classification of extracted segments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import numbered_lines

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
    rows of the segment's in-vocabulary words; out-of-vocabulary words
    contribute nothing. Ties break toward the lowest k."""
    if not segment.ids:
        raise UnclassifiableSegment(f"no in-vocabulary words in segment {segment.text!r}")
    scores = np.zeros(weights["aspect"].shape[1])
    for channel, idx in segment.ids:
        scores += weights[channel][idx]
    return int(np.argmax(scores))


def _label(polarity, negated):
    """(sentiment index, polarity): negation flips the sign; >= 0 is positive."""
    if negated:
        polarity = -polarity
    return (POSITIVE if polarity >= 0 else NEGATIVE), polarity


def classify_sentiment_sen(segment, y_senti):
    """Model-based classifier: polarity is the sum of y_senti[0]-y_senti[1]
    over the segment's sentiment-vocabulary words; negation flips the sign.
    Returns (sentiment index, polarity)."""
    polarity = 0.0
    for channel, idx in segment.ids:
        if channel == "senti":
            polarity += float(y_senti[0, idx] - y_senti[1, idx])
    return _label(polarity, segment.negated)


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
    its aspect with classify_topic; unclassifiable segments are dropped.

    Returns (labeled segments, dropped segments).
    """
    weights = topic_weights(est)
    stem_ids = vocab.stem_ids
    labeled, dropped = [], []
    for seg in segments:
        seg.ids = tuple(stem_ids[t.stem] for t in seg.tokens if t.stem in stem_ids)
        try:
            seg.aspect = classify_topic(seg, weights)
            labeled.append(seg)
        except UnclassifiableSegment:
            dropped.append(seg)
    return labeled, dropped
