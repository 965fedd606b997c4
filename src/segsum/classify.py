"""Aspect and sentiment classification of extracted segments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import numbered_lines

POSITIVE, NEGATIVE = 0, 1


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


def code_sums(aspect, senti, codes, labels=None):
    """token_sums of the table indexed by word code (corpus.Vocabulary.codes)
    along its last axis: the aspect entries, then the sentiment entries, then
    the pad's 0.0, their leading axes broadcast. Row r of codes sums
    table[..., code], or with labels table[labels[r], code], its leading
    axes flattened."""
    lead = np.broadcast_shapes(aspect.shape[:-1], senti.shape[:-1])
    table = np.concatenate([np.broadcast_to(a, lead + a.shape[-1:])
                            for a in (aspect, senti, np.zeros(1))], axis=-1)
    if labels is None:
        return token_sums(np.ascontiguousarray(np.moveaxis(table, -1, 0)), codes)
    return token_sums(table.reshape(-1, table.shape[-1]), codes, labels)


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
    """Encode a SegmentTable once and label the aspects of all its rows. A
    row's codes are the vocab.encode codes of its window, in token order with
    the pads in place, and its ids are its non-pad codes. Its aspect is the
    argmax topic of the code_sums of its codes' topic scores, log phi_hat[:, i]
    for aspect word i and sum_j log phi_prime_hat[j, :, i] for sentiment word
    i, ties toward the lowest topic. Rows without ids are unclassifiable and
    dropped.

    Returns (labelled rows, with codes and aspect; dropped rows, with codes).
    """
    codes = np.take(vocab.encode(segments.corpus.tokens), segments.window())
    scores = code_sums(np.log(est.phi_hat), np.log(est.phi_prime_hat).sum(axis=0), codes)
    has_ids = (codes < vocab.num_aspect_words + vocab.num_senti_words).any(axis=1)
    encoded = replace(segments, codes=codes)
    return (replace(encoded, aspect=scores.argmax(axis=1)).take(has_ids),
            encoded.take(~has_ids))
