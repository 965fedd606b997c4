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


@dataclass
class Procedure:
    name: str
    stages: tuple


def parse_procedure(name: str) -> Procedure:
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
    return Procedure(name, stages)


def _top_word_ids(probs, n):
    return set(np.argsort(-probs, kind="stable")[:n].tolist())


def filter_aw(segments, est, vocab, top_x):
    """Keep segments containing a top-X word of their inferred aspect."""
    tops = {}
    kept = []
    for seg in segments:
        if seg.aspect is None:
            raise ProcedureError("AW filter requires aspect labels")
        if seg.aspect not in tops:
            tops[seg.aspect] = _top_word_ids(est.phi_hat[seg.aspect], top_x)
        top = tops[seg.aspect]
        for token in seg.tokens:
            channel, idx = vocab.lookup(token)
            if channel == "aspect" and idx in top:
                kept.append(seg)
                break
    return kept


def filter_sw(segments, est, vocab, top_y):
    """Keep segments containing a top-Y sentiment word of their inferred
    (sentiment, aspect) pair."""
    tops = {}
    kept = []
    for seg in segments:
        if seg.aspect is None or seg.sentiment is None:
            raise ProcedureError("SW filter requires aspect and sentiment labels")
        key = (seg.sentiment, seg.aspect)
        if key not in tops:
            tops[key] = _top_word_ids(est.phi_prime_hat[key[0], key[1]], top_y)
        top = tops[key]
        for token in seg.tokens:
            channel, idx = vocab.lookup(token)
            if channel == "senti" and idx in top:
                kept.append(seg)
                break
    return kept


def rank_score(segment, est, vocab):
    """Per-word-average log score of the segment under its own (j, k):
    sentiment words score log phi_prime_hat[j, k], others log phi_hat[k]."""
    j, k = segment.sentiment, segment.aspect
    total, scored = 0.0, 0
    for token in segment.tokens:
        channel, idx = vocab.lookup(token)
        if channel == "aspect":
            total += math.log(est.phi_hat[k, idx])
            scored += 1
        elif channel == "senti":
            total += math.log(est.phi_prime_hat[j, k, idx])
            scored += 1
    return total / scored if scored else -math.inf


def filter_rank(segments, est, vocab, keep_fraction=0.5):
    """Within each (sentiment, aspect) group, drop the bottom
    floor((1-keep_fraction) * n) segments by rank score; ties keep corpus
    order."""
    groups = {}
    for pos, seg in enumerate(segments):
        if seg.aspect is None or seg.sentiment is None:
            raise ProcedureError("RANK filter requires aspect and sentiment labels")
        groups.setdefault((seg.sentiment, seg.aspect), []).append((pos, seg))

    survivors = set()
    for members in groups.values():
        n = len(members)
        n_drop = math.floor((1.0 - keep_fraction) * n)
        ranked = sorted(members, key=lambda ps: -rank_score(ps[1], est, vocab))
        for pos, _ in ranked[: n - n_drop]:
            survivors.add(pos)
    return [seg for pos, seg in enumerate(segments) if pos in survivors]


def run_procedure(proc, segments, est, vocab, y_senti=None, lexicon=None,
                  config=None):
    """Apply a procedure's stages in order to aspect-labeled segments.

    Returns (positive segments, negative segments).
    """
    if isinstance(proc, str):
        proc = parse_procedure(proc)
    config = config if config is not None else FilterConfig()
    if "SEN" in proc.stages and y_senti is None:
        raise ProcedureError("SEN stage requires the model's y_senti matrix")
    if "SWN" in proc.stages and lexicon is None:
        raise ProcedureError("SWN stage requires a polarity lexicon")

    current = list(segments)
    for stage in proc.stages:
        if stage == "Baseline":
            continue
        if stage == "AW":
            current = filter_aw(current, est, vocab, config.aw_top_x)
        elif stage == "SW":
            current = filter_sw(current, est, vocab, config.sw_top_y)
        elif stage == "RANK":
            current = filter_rank(current, est, vocab, config.rank_keep_fraction)
        elif stage == "SEN":
            for seg in current:
                seg.sentiment, seg.polarity = classify_sentiment_sen(seg, y_senti, vocab)
        elif stage == "SWN":
            for seg in current:
                seg.sentiment, seg.polarity = classify_sentiment_swn(seg, lexicon)

    positive = [s for s in current if s.sentiment == 0]
    negative = [s for s in current if s.sentiment == 1]
    return positive, negative


def entity_candidates(state, corpus, pattern_ids, max_words, procedure, lexicon,
                      config):
    """Extract segments, label their aspects and run the named procedure on
    each entity's segments.

    Returns ({entity_id: {"positive": [...], "negative": [...]}}, estimates).
    """
    est = model.estimate(state)
    proc = parse_procedure(procedure)
    segments = patterns.extract_corpus(corpus, pattern_ids, max_words=max_words)
    labeled, dropped = classify.label_aspects(segments, est, state.vocab)
    if dropped:
        log.info("dropped %d unclassifiable segments", len(dropped))

    by_entity = {}
    for seg in labeled:
        by_entity.setdefault(seg.entity_id, []).append(seg)

    candidates = {}
    for entity_id in sorted(by_entity):
        pos, neg = run_procedure(
            proc, by_entity[entity_id], est, state.vocab,
            y_senti=state.y_senti, lexicon=lexicon, config=config)
        candidates[entity_id] = {"positive": pos, "negative": neg}
    return candidates, est
