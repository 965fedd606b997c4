"""Aspect and sentiment classification of extracted segments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import numbered_lines

POSITIVE, NEGATIVE = 0, 1


def topic_weights(est):
    """Per-topic score rows of the vocabulary, keyed by channel: row i of
    "aspect" is log phi_hat[:, i], row i of "senti" is
    sum_j log phi_prime_hat[j, :, i]."""
    return {"aspect": np.log(est.phi_hat).T,
            "senti": np.log(est.phi_prime_hat).sum(axis=0).T}


def token_sums(table, codes, labels=None):
    """Per row r of codes, the sum of table[code], or of table[labels[r], code],
    over its codes, added left to right from 0.0 (np.sum would regroup 8 or
    more terms pairwise). A pad code anywhere in a row adds the pad's 0.0 and
    leaves the sum as it was: x + 0.0 == x for every x but -0.0, and a sum
    that starts at +0.0 is never -0.0 under round-to-nearest."""
    total = np.zeros((len(codes),) + table.shape[1 if labels is None else 2:])
    for column in codes.T:
        total += table[column] if labels is None else table[labels, column]
    return total


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


def label_aspects(segments, est, vocab):
    """Encode a SegmentTable once and label the aspects of all its rows.
    Each token-table entry gets one code: aspect id i codes i, sentiment id
    i codes V + i, and a stem outside the vocabulary the pad V + V', which
    every table indexed by codes holds as 0 (or False). A row's codes are its
    window of those, in token order with the pads in place, and its ids are
    its non-pad codes. Its aspect is the argmax topic of the token_sums of
    its codes' topic_weights rows, ties toward the lowest topic. Rows without
    ids are unclassifiable and dropped.

    Returns (labelled rows, with codes and aspect; dropped rows, with codes).
    """
    V, Vp = est.phi_hat.shape[1], est.phi_prime_hat.shape[2]
    stem_ids = vocab.stem_ids
    code = [V + Vp] * (len(segments.corpus.tokens) + 1)   # the window's pad last
    for entry, token in enumerate(segments.corpus.tokens):
        if token.stem in stem_ids:
            channel, i = stem_ids[token.stem]
            code[entry] = i if channel == "aspect" else V + i
    codes = np.take(np.array(code, dtype=np.int32), segments.window())
    weights = topic_weights(est)
    scores = token_sums(np.vstack((weights["aspect"], weights["senti"],
                                   np.zeros(est.phi_hat.shape[0]))), codes)
    has_ids = (codes < V + Vp).any(axis=1)
    encoded = replace(segments, codes=codes)
    return (replace(encoded, aspect=scores.argmax(axis=1)).take(has_ids),
            encoded.take(~has_ids))
