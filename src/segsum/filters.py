"""Segment-selection filters and their composition into named procedures.

A procedure is a '+'-joined stage string such as "AW+SEN+SW": stages apply
left to right, exactly one of them must be a sentiment classifier (SEN or
SWN), and the classifier's labels partition the surviving segments into
positive and negative candidate summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import classify

FILTER_STAGES = ("Baseline", "AW", "SW", "RANK")
CLASSIFIER_STAGES = ("SEN", "SWN")


class ProcedureError(ValueError):
    pass


@dataclass
class FilterConfig:
    aw_top_x: int = 200
    sw_top_y: int = 100
    rank_keep_fraction: float = 0.5

    def __post_init__(self):
        if self.aw_top_x < 1 or self.sw_top_y < 1:
            raise ValueError("top-word counts must be >= 1")
        if not 0 < self.rank_keep_fraction <= 1:
            raise ValueError("rank_keep_fraction must be in (0, 1]")


def parse_procedure(name: str) -> tuple:
    """The stages of a procedure name, checked; raises ProcedureError."""
    stages = tuple(name.split("+"))
    known = set(FILTER_STAGES) | set(CLASSIFIER_STAGES)
    for stage in stages:
        if stage not in known:
            raise ProcedureError(f"unknown stage {stage!r} in procedure {name!r}")
    classifiers = [s for s in stages if s in CLASSIFIER_STAGES]
    if len(classifiers) != 1:
        raise ProcedureError(
            f"procedure {name!r} needs exactly one sentiment classifier (SEN or SWN)")
    seen_classifier = False
    for stage in stages:
        if stage in CLASSIFIER_STAGES:
            seen_classifier = True
        elif stage in ("SW", "RANK") and not seen_classifier:
            raise ProcedureError(
                f"stage {stage} in {name!r} requires sentiment labels: place it after the classifier")
    return stages


def _top_words(probs, n):
    """1.0 at the n most probable words of each row of probs (ties in stable
    order), else 0.0."""
    top = np.zeros(probs.shape)
    np.put_along_axis(top, np.argsort(-probs, axis=-1, kind="stable")[..., :n], 1.0, axis=-1)
    return top


def _rank_survivors(group, rank, keep_fraction):
    """Mask of what RANK keeps: in each group of n segments, all but the
    bottom floor((1-keep_fraction) * n) by rank; ties keep corpus order."""
    order = np.lexsort((-rank, group))
    group = group[order]
    sizes = np.bincount(group)
    place = np.arange(len(group)) - (np.cumsum(sizes) - sizes)[group]
    keep = np.empty(len(group), dtype=bool)
    keep[order] = place < (sizes - np.floor((1.0 - keep_fraction) * sizes))[group]
    return keep


def _ranked(table, est):
    """table with each row's rank: the per-word average log score of its ids
    under its own (sentiment j, aspect k), log phi_prime_hat[j, k] for
    sentiment words and log phi_hat[k] for others, summed in token order
    (-inf without ids). A row's rank depends on its codes and labels only."""
    (T, V), Vp = est.phi_hat.shape, est.phi_prime_hat.shape[2]
    # libm's log of each probability once: np.log differs from it in the
    # last bit on some hosts; pads add 0.0 and do not count as words
    logs = [np.array([math.log(p) for p in probs.ravel().tolist()]).reshape(probs.shape)
            for probs in (est.phi_hat, est.phi_prime_hat)]
    total = classify.code_sums(*logs, table.codes, table.sentiment * T + table.aspect)
    words = (table.codes < V + Vp).sum(axis=1)
    return replace(table, rank=np.divide(total, words, out=np.full(len(table), -math.inf),
                                         where=words > 0))


def run_procedure(procedure, segments, est, y_senti=None, lexicon=None,
                  config=None):
    """Apply the named procedure's stages in order to an aspect-labelled
    SegmentTable (classify.label_aspects), each stage to all its rows at
    once over their codes. The classifier stage sets each row's sentiment
    and polarity. The RANK stage ranks its input rows; without one, the
    survivors are ranked at the end.

    Returns (positive rows, negative rows), each a SegmentTable in corpus
    order with every label set.
    """
    stages = parse_procedure(procedure)
    config = config if config is not None else FilterConfig()
    if "SEN" in stages and y_senti is None:
        raise ProcedureError("SEN stage requires the model's y_senti matrix")
    if "SWN" in stages and lexicon is None:
        raise ProcedureError("SWN stage requires a polarity lexicon")

    (S, T, Vp), V = est.phi_prime_hat.shape, est.phi_hat.shape[1]
    table = segments    # the surviving rows, in corpus order; each filter keeps a subset
    for stage in stages:
        if stage == "Baseline":
            continue
        if stage == "AW":
            if table.aspect is None:
                raise ProcedureError("AW filter requires aspect labels")
            keep = classify.code_sums(_top_words(est.phi_hat, config.aw_top_x), np.zeros(Vp),
                                      table.codes, table.aspect) > 0
        elif stage == "SW":   # after the classifier, so every row has its labels
            keep = classify.code_sums(np.zeros(V), _top_words(est.phi_prime_hat, config.sw_top_y),
                                      table.codes, table.sentiment * T + table.aspect) > 0
        elif stage == "RANK":
            table = _ranked(table, est)
            keep = _rank_survivors((table.corpus.entity[table.review] * S + table.sentiment) * T
                                   + table.aspect, table.rank, config.rank_keep_fraction)
        else:   # SEN or SWN
            if table.aspect is None:
                raise ProcedureError(f"{stage} stage requires aspect labels to rank segments")
            if stage == "SEN":
                polarity = classify.code_sums(np.zeros(V), y_senti[0] - y_senti[1], table.codes)
            else:   # lexicon scores of sentiment tokens, also outside the vocabulary
                polarity = classify.token_sums(np.array(
                    [lexicon.score(t.stem) if t.is_sentiment else 0.0
                     for t in table.corpus.tokens] + [0.0]), table.window())
            np.negative(polarity, out=polarity, where=table.negated)
            table = replace(table, polarity=polarity, sentiment=np.where(
                polarity >= 0, classify.POSITIVE, classify.NEGATIVE))
            continue
        table = table.take(keep)

    if table.rank is None:
        table = _ranked(table, est)
    positive = table.sentiment == classify.POSITIVE
    return table.take(positive), table.take(~positive)

