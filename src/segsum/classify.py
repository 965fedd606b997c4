"""Aspect and sentiment classification of extracted segments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def classify_sentiment_sen(segment, y_senti):
    """Model-based classifier: polarity is the sum of y_senti[0]-y_senti[1]
    over the segment's sentiment-vocabulary words; negation flips the sign.
    Returns (sentiment index, polarity)."""
    polarity = 0.0
    for channel, idx in segment.ids:
        if channel == "senti":
            polarity += float(y_senti[0, idx] - y_senti[1, idx])
    if segment.negated:
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
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'stem<TAB>score'")
                scores[parts[0]] = float(parts[1])
        return cls(scores)


def classify_sentiment_swn(segment, lexicon):
    """Lexicon-based classifier; same thresholding and negation as SEN."""
    polarity = 0.0
    for token in segment.tokens:
        if token.is_sentiment:
            polarity += lexicon.score(token.stem)
    if segment.negated:
        polarity = -polarity
    return (POSITIVE if polarity >= 0 else NEGATIVE), polarity


def label_aspects(segments, est, vocab):
    """Encode each segment as the (channel, index) pairs of its in-vocabulary
    tokens, in token order (one shared pair per stem), then label its aspect
    with classify_topic; unclassifiable segments are dropped.

    Returns (labeled segments, dropped segments).
    """
    weights = topic_weights(est)
    pairs = {}
    labeled, dropped = [], []
    for seg in segments:
        for token in seg.tokens:
            if token.stem not in pairs:
                pair = vocab.lookup(token)
                pairs[token.stem] = pair if pair[0] is not None else None
        seg.ids = tuple(pairs[t.stem] for t in seg.tokens if pairs[t.stem] is not None)
        try:
            seg.aspect = classify_topic(seg, weights)
            labeled.append(seg)
        except UnclassifiableSegment:
            dropped.append(seg)
    return labeled, dropped
