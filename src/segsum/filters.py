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
from .classify import classify_sentiment_sen, classify_sentiment_swn

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


def _keep_with_top_word(segments, channel, probs, labels_of, n, missing):
    """Keep the segments holding a `channel` word among the n most probable
    words of probs[labels_of(segment)], the distribution of their labels."""
    tops = {}
    kept = []
    for seg in segments:
        labels = labels_of(seg)
        if None in labels:
            raise ProcedureError(missing)
        if labels not in tops:
            tops[labels] = set(np.argsort(-probs[labels], kind="stable")[:n].tolist())
        if any(c == channel and idx in tops[labels] for c, idx in seg.ids):
            kept.append(seg)
    return kept


def filter_aw(segments, est, top_x):
    """Keep segments containing a top-X word of their inferred aspect."""
    return _keep_with_top_word(segments, "aspect", est.phi_hat,
                               lambda seg: (seg.aspect,), top_x,
                               "AW filter requires aspect labels")


def filter_sw(segments, est, top_y):
    """Keep segments containing a top-Y sentiment word of their inferred
    (sentiment, aspect) pair."""
    return _keep_with_top_word(segments, "senti", est.phi_prime_hat,
                               lambda seg: (seg.sentiment, seg.aspect), top_y,
                               "SW filter requires aspect and sentiment labels")


def rank_score(segment, est):
    """Per-word-average log score of the segment under its own (j, k):
    sentiment words score log phi_prime_hat[j, k], others log phi_hat[k].
    The terms are summed in token order."""
    j, k = segment.sentiment, segment.aspect
    total = 0.0
    for channel, idx in segment.ids:
        if channel == "aspect":
            total += math.log(est.phi_hat[k, idx])
        else:
            total += math.log(est.phi_prime_hat[j, k, idx])
    return total / len(segment.ids) if segment.ids else -math.inf


def filter_rank(segments, keep_fraction=0.5):
    """Within each entity's (sentiment, aspect) group, drop the bottom
    floor((1-keep_fraction) * n) segments by the rank the classifier stage
    stored; ties keep corpus order."""
    groups = {}
    for pos, seg in enumerate(segments):
        if seg.aspect is None or seg.sentiment is None or seg.rank is None:
            raise ProcedureError("RANK filter requires aspect and sentiment labels")
        groups.setdefault((seg.entity_id, seg.sentiment, seg.aspect), []).append(pos)

    survivors = set()
    for members in groups.values():
        n = len(members)
        n_drop = math.floor((1.0 - keep_fraction) * n)
        ranked = sorted(members, key=lambda pos: -segments[pos].rank)
        survivors.update(ranked[: n - n_drop])
    return [seg for pos, seg in enumerate(segments) if pos in survivors]


def run_procedure(procedure, segments, est, y_senti=None, lexicon=None,
                  config=None):
    """Apply the named procedure's stages in order to aspect-labeled
    segments. The classifier stage also stores each segment's rank_score.

    Returns (positive segments, negative segments).
    """
    stages = parse_procedure(procedure)
    config = config if config is not None else FilterConfig()
    if "SEN" in stages and y_senti is None:
        raise ProcedureError("SEN stage requires the model's y_senti matrix")
    if "SWN" in stages and lexicon is None:
        raise ProcedureError("SWN stage requires a polarity lexicon")

    current = list(segments)
    for stage in stages:
        if stage == "Baseline":
            continue
        if stage == "AW":
            current = filter_aw(current, est, config.aw_top_x)
        elif stage == "SW":
            current = filter_sw(current, est, config.sw_top_y)
        elif stage == "RANK":
            current = filter_rank(current, config.rank_keep_fraction)
        else:   # SEN or SWN
            classify_sentiment, polarities = ((classify_sentiment_sen, y_senti) if stage == "SEN"
                                               else (classify_sentiment_swn, lexicon))
            for seg in current:
                if seg.aspect is None:
                    raise ProcedureError(f"{stage} stage requires aspect labels to rank segments")
                seg.sentiment, seg.polarity = classify_sentiment(seg, polarities)
                seg.rank = rank_score(seg, est)

    positive = [s for s in current if s.sentiment == 0]
    negative = [s for s in current if s.sentiment == 1]
    return positive, negative


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
