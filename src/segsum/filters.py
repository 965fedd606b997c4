"""Segment-selection filters and their composition into named procedures.

A procedure is a '+'-joined stage string such as "AW+SEN+SW": stages apply
left to right, exactly one of them must be a sentiment classifier (SEN or
SWN), and the classifier's labels partition the surviving segments into
positive and negative candidate summaries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import classify, model, patterns
from .classify import classify_sentiment_swn

log = logging.getLogger(__name__)

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


def _has_top_word(probs, n, offset, size, labels, codes):
    """Mask of the segments, as size-code rows of codes (classify.encode_ids),
    that hold a word among the n most probable of probs[label] (probs
    flattened over its leading axes; ties in stable order), whose words are
    coded from offset."""
    top = np.argsort(-probs, axis=-1, kind="stable")[..., :n]
    table = np.zeros(probs.shape[:-1] + (size,))
    np.put_along_axis(table, top + offset, 1.0, axis=-1)
    return classify.token_sums(table.reshape(-1, size), codes, labels) > 0


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


def run_procedure(procedure, segments, est, y_senti=None, lexicon=None,
                  config=None):
    """Apply the named procedure's stages in order to aspect-labeled
    segments, each stage to all of them at once over their codes
    (classify.encode_ids). The classifier stage also stores each segment's
    rank: the per-word average log score of its ids under its own (sentiment
    j, aspect k), log phi_prime_hat[j, k] for sentiment words and log
    phi_hat[k] for others, summed in token order (-inf without ids).

    Returns (positive segments, negative segments).
    """
    stages = parse_procedure(procedure)
    config = config if config is not None else FilterConfig()
    if "SEN" in stages and y_senti is None:
        raise ProcedureError("SEN stage requires the model's y_senti matrix")
    if "SWN" in stages and lexicon is None:
        raise ProcedureError("SWN stage requires a polarity lexicon")

    segments = np.fromiter(segments, dtype=object)
    (S, T, Vp), V = est.phi_prime_hat.shape, est.phi_hat.shape[1]
    size = V + Vp + 1
    # one entry per surviving segment, in corpus order; each filter keeps a subset
    codes, lengths = classify.encode_ids(segments, est)
    rows = np.arange(len(segments))
    aspect = np.array([-1 if seg.aspect is None else seg.aspect for seg in segments],
                      dtype=np.intp)
    sentiment = np.zeros(len(segments), dtype=np.intp)
    rank = np.zeros(len(segments))
    for stage in stages:
        if stage == "Baseline":
            continue
        if stage == "AW":
            if (aspect < 0).any():
                raise ProcedureError("AW filter requires aspect labels")
            keep = _has_top_word(est.phi_hat, config.aw_top_x, 0, size, aspect, codes)
        elif stage == "SW":   # after the classifier, so every segment has its labels
            keep = _has_top_word(est.phi_prime_hat, config.sw_top_y, V, size,
                                 sentiment * T + aspect, codes)
        elif stage == "RANK":
            entities = {}
            entity = np.array([entities.setdefault(seg.entity_id, len(entities))
                               for seg in segments[rows]], dtype=np.intp)
            keep = _rank_survivors((entity * S + sentiment) * T + aspect, rank,
                                   config.rank_keep_fraction)
        else:   # SEN or SWN
            if (aspect < 0).any():
                raise ProcedureError(f"{stage} stage requires aspect labels to rank segments")
            current = segments[rows].tolist()
            if stage == "SEN":
                polarity = classify.token_sums(
                    np.concatenate((np.zeros(V), y_senti[0] - y_senti[1], [0.0])), codes)
                np.negative(polarity, out=polarity,
                            where=np.array([seg.negated for seg in current], dtype=bool))
            else:
                polarity = np.array([classify_sentiment_swn(seg, lexicon)[1] for seg in current])
            sentiment = np.where(polarity >= 0, classify.POSITIVE, classify.NEGATIVE)
            # libm's log: np.log differs from it in the last bit on some hosts;
            # the pad's probability 1 logs to 0.0
            logs = np.array([math.log(p) for p in np.concatenate(
                (np.broadcast_to(est.phi_hat, (S, T, V)), est.phi_prime_hat,
                 np.ones((S, T, 1))), axis=2).ravel().tolist()]).reshape(S * T, size)
            total = classify.token_sums(logs, codes, sentiment * T + aspect)
            rank = np.divide(total, lengths, out=np.full(len(rows), -math.inf),
                             where=lengths > 0)
            for seg, *labels in zip(current, sentiment.tolist(), polarity.tolist(),
                                    rank.tolist()):
                seg.sentiment, seg.polarity, seg.rank = labels
            continue
        rows, codes, lengths, aspect, sentiment, rank = (
            a[keep] for a in (rows, codes, lengths, aspect, sentiment, rank))

    positive = sentiment == classify.POSITIVE
    return segments[rows[positive]].tolist(), segments[rows[~positive]].tolist()


def entity_candidates(state, corpus, pattern_ids, max_words, procedure, lexicon,
                      config):
    """Extract segments, label their aspects, run the named procedure once
    over them all, and split the survivors by entity. Every entity with a
    labelled segment gets an entry, in sorted order, even with no survivors.

    Returns {entity_id: {"positive": [...], "negative": [...]}}.
    """
    est = model.estimate(state)
    segments = patterns.extract_corpus(corpus, pattern_ids, max_words=max_words)
    labeled, dropped = classify.label_aspects(segments, est, state.vocab)
    if dropped:
        log.info("dropped %d unclassifiable segments", len(dropped))

    pos, neg = run_procedure(procedure, labeled, est, y_senti=state.y_senti,
                             lexicon=lexicon, config=config)
    candidates = {entity_id: {"positive": [], "negative": []}
                  for entity_id in sorted({seg.entity_id for seg in labeled})}
    for polarity, segs in (("positive", pos), ("negative", neg)):
        for seg in segs:
            candidates[seg.entity_id][polarity].append(seg)
    return candidates
