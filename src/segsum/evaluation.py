"""Skip-bigram evaluation of candidate summaries against pros/cons gold.

Positive candidates are scored against the pros reference, negative
candidates against the cons reference, independently. Scores exist at three
levels: per segment (P(Y), R(Y) against the best-recall reference item),
per entity (averages plus the threshold-based P(E)/R(E) and their combined
forms), and per corpus (micro segment stats P_s/R_s, macro entity stats
P_e/R_e/P/R).
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from . import stem as _stem

log = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[a-z0-9']+")


@dataclass
class EvalConfig:
    recall_threshold: float = 0.25
    token_normalization: str = "stemmed"   # or "surface_lower"

    def __post_init__(self):
        if not 0 < self.recall_threshold <= 1:
            raise ValueError("recall_threshold must be in (0, 1]")
        if self.token_normalization not in ("stemmed", "surface_lower"):
            raise ValueError(f"bad token_normalization: {self.token_normalization!r}")


def normalize_text(text: str, mode: str = "stemmed"):
    words = _WORD_RE.findall(text.lower())
    if mode == "stemmed":
        return tuple(_stem.stem(w) for w in words)
    return tuple(words)


def normalize_segments(table, mode: str = "stemmed"):
    """Each row of a SegmentTable as a tuple of words in token order: the
    stems of its tokens, or their lower-cased surfaces."""
    return table.gather([t.stem if mode == "stemmed" else t.surface.lower()
                         for t in table.corpus.tokens])


class PairCounts(dict):
    """Normalised text -> the Counter of its ordered pairs (any gap), built on
    first use, so that one evaluate counts the pairs of each text once."""

    def __missing__(self, seq):
        counts = self[seq] = Counter(combinations(seq, 2))
        return counts

    def pr_pair(self, x, y):
        """(P(X,Y), R(X,Y)) from the ordered pairs x and y share, each clipped
        to its lower multiplicity. Below 2 tokens on either side, both are 1
        if the singleton occurs in the other sequence, else 0."""
        if len(x) < 2 or len(y) < 2:
            if len(x) == 0 or len(y) == 0:
                return 0.0, 0.0
            short, other = (x, y) if len(x) < len(y) else (y, x)
            hit = 1.0 if short[0] in other else 0.0
            return hit, hit
        px, py, pairs_x, pairs_y = self[x], self[y], comb(len(x), 2), comb(len(y), 2)
        # where one side repeats no pair, each shared pair counts once
        matches = (len(px.keys() & py.keys()) if len(px) == pairs_x or len(py) == pairs_y
                   else sum(min(n, py[p]) for p, n in px.items()))
        return matches / pairs_y, matches / pairs_x


@dataclass
class SegmentScore:
    precision: float
    recall: float
    best_indices: tuple   # the reference items reaching the best recall; the first is X_max


def segment_scores(candidate, reference, pair_counts) -> SegmentScore:
    """Score one candidate against the reference item maximizing R(X, Y);
    ties break to the first item in reference order. pair_counts, a
    PairCounts, may hold the pair counts of texts scored before."""
    if not reference:
        raise ValueError("empty reference")
    score = pair_counts.pr_pair
    scores = [score(ref_item, candidate) for ref_item in reference]
    best_recall = max(r for _, r in scores)
    best = tuple(idx for idx, (_, r) in enumerate(scores) if r == best_recall)
    return SegmentScore(*scores[best[0]], best)


@dataclass
class EntityScores:
    p_skip: float
    r_skip: float
    p_entity: float
    r_entity: float
    p_cb: float
    r_cb: float
    num_candidates: int
    num_references: int
    segments: list = field(default_factory=list)
    flagged_empty_candidate: bool = False

    def to_dict(self):
        return {
            "P_skip": self.p_skip, "R_skip": self.r_skip,
            "P_E": self.p_entity, "R_E": self.r_entity,
            "P_cb": self.p_cb, "R_cb": self.r_cb,
            "num_candidates": self.num_candidates,
            "num_references": self.num_references,
            "segments": [{"P": s.precision, "R": s.recall, "x_max": s.best_indices[0]}
                         for s in self.segments],
        }


def entity_scores(candidates, reference, alpha, pair_counts) -> EntityScores:
    """candidates/reference are sequences of token tuples; pair_counts is as
    in segment_scores."""
    reference = list(reference)
    candidates = list(candidates)
    if not reference:
        raise ValueError("empty reference")
    if not candidates:
        return EntityScores(0, 0, 0, 0, 0, 0, 0, len(reference),
                            flagged_empty_candidate=True)

    scored = [segment_scores(y, reference, pair_counts) for y in candidates]
    p_skip = sum(s.precision for s in scored) / len(scored)
    r_skip = sum(s.recall for s in scored) / len(scored)

    useful = [s for s in scored if s.recall >= alpha]
    p_entity = len(useful) / len(candidates)
    # a reference item is covered when some useful candidate reaches its
    # best recall on it
    covered = set().union(*(s.best_indices for s in useful))
    r_entity = len(covered) / len(reference)

    return EntityScores(
        p_skip, r_skip, p_entity, r_entity,
        (p_skip + p_entity) / 2, (r_skip + r_entity) / 2,
        len(candidates), len(reference), scored)


@dataclass
class CorpusStats:
    p_s: float
    r_s: float
    p_e: float
    r_e: float
    p: float
    r: float
    num_entities: int
    num_segments: int

    def to_dict(self):
        return {"P_s": self.p_s, "R_s": self.r_s, "P_e": self.p_e,
                "R_e": self.r_e, "P": self.p, "R": self.r,
                "num_entities": self.num_entities,
                "num_segments": self.num_segments}


def corpus_stats(entities) -> CorpusStats:
    """Micro-average the segment scores, macro-average the entity scores."""
    entities = list(entities)
    if not entities:
        raise ValueError("no scored entities")
    n_segments = sum(e.num_candidates for e in entities)
    p_sum = sum(s.precision for e in entities for s in e.segments)
    r_sum = sum(s.recall for e in entities for s in e.segments)
    n = len(entities)
    return CorpusStats(
        p_s=p_sum / n_segments if n_segments else 0.0,
        r_s=r_sum / n_segments if n_segments else 0.0,
        p_e=sum(e.p_entity for e in entities) / n,
        r_e=sum(e.r_entity for e in entities) / n,
        p=sum(e.p_cb for e in entities) / n,
        r=sum(e.r_cb for e in entities) / n,
        num_entities=n,
        num_segments=n_segments)


@dataclass
class PolarityReport:
    stats: CorpusStats
    entities: dict                 # entity_id -> EntityScores
    excluded_no_reference: list = field(default_factory=list)

    def to_dict(self):
        return {
            "corpus": self.stats.to_dict(),
            "entities": {e: s.to_dict() for e, s in self.entities.items()},
            "excluded_no_reference": self.excluded_no_reference,
        }


@dataclass
class EvalReport:
    pros: PolarityReport
    cons: PolarityReport
    skipped_entities: list = field(default_factory=list)

    def to_dict(self):
        return {"pros": self.pros.to_dict(), "cons": self.cons.to_dict(),
                "skipped_entities": self.skipped_entities}


def _score_polarity(table, per_entity_refs, cfg, pair_counts):
    """Score the rows of table, each entity's in row order, against the
    references of every entity in per_entity_refs."""
    names = table.corpus.entities
    candidates = {entity_id: [] for entity_id in names}
    for entity, text in zip(table.corpus.entity[table.review].tolist(),
                            normalize_segments(table, cfg.token_normalization)):
        candidates[names[entity]].append(text)
    entities = {}
    excluded = []
    for entity_id, reference in per_entity_refs.items():
        ref_norm = sorted({normalize_text(item, cfg.token_normalization)
                           for item in reference if item.strip()})
        ref_norm = [r for r in ref_norm if r]
        if not ref_norm:
            excluded.append(entity_id)
            continue
        entities[entity_id] = entity_scores(candidates[entity_id], ref_norm,
                                            cfg.recall_threshold, pair_counts)
    if not entities:
        raise ValueError("no scorable entities (all lacked references)")
    return PolarityReport(corpus_stats(entities.values()), entities, excluded)


def evaluate(positive, negative, references, cfg=None) -> EvalReport:
    """Score every entity of the corpus of positive and negative, the
    SegmentTables of its positive and negative candidates, against
    references: entity_id -> (pros, cons) string collections. An entity
    without candidates scores 0; one without references is skipped."""
    cfg = cfg if cfg is not None else EvalConfig()
    entities = positive.corpus.entities
    skipped = [e for e in entities if e not in references]
    for entity_id in skipped:
        log.warning("entity %r has no reference; skipped", entity_id)

    usable = [e for e in entities if e in references]
    pair_counts = PairCounts()
    pros = _score_polarity(positive, {e: references[e][0] for e in usable}, cfg, pair_counts)
    cons = _score_polarity(negative, {e: references[e][1] for e in usable}, cfg, pair_counts)
    return EvalReport(pros, cons, skipped)


def format_report_table(report, label="") -> str:
    """One aligned row of the 12-column pros/cons layout (values in %)."""
    cols = ["P_s", "R_s", "P_e", "R_e", "P", "R"]
    header = f"{'procedure':<16}" + "".join(f"{'pros ' + c:>10}" for c in cols) \
        + "".join(f"{'cons ' + c:>10}" for c in cols)
    ps, cs = report.pros.stats, report.cons.stats
    values = [ps.p_s, ps.r_s, ps.p_e, ps.r_e, ps.p, ps.r,
              cs.p_s, cs.r_s, cs.p_e, cs.r_e, cs.p, cs.r]
    row = f"{label:<16}" + "".join(f"{100 * v:>10.1f}" for v in values)
    return header + "\n" + row
