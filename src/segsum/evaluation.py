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

# runs of letters, digits (any script) and apostrophes
_WORD_RE = re.compile(r"(?:[^\W_]|')+")


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


def entity_scores(candidates, reference, alpha, pair_counts) -> dict:
    """The report entry of one entity: its candidates, token tuples, scored
    against its reference items. Each candidate gets the (P, R) of the item
    maximizing R(X, Y), ties to the first item in reference order (x_max).
    pair_counts, a PairCounts, may hold the pair counts of texts scored
    before. Without candidates every score is the integer 0."""
    if not reference:
        raise ValueError("empty reference")
    segments, covered = [], set()
    for y in candidates:
        scores = [pair_counts.pr_pair(x, y) for x in reference]
        best = max(r for _, r in scores)
        ties = [i for i, (_, r) in enumerate(scores) if r == best]
        segments.append({"P": scores[ties[0]][0], "R": best, "x_max": ties[0]})
        # a reference item is covered when some useful candidate reaches its
        # best recall on it
        if best >= alpha:
            covered.update(ties)
    n = len(segments)
    if not n:
        return {"P_skip": 0, "R_skip": 0, "P_E": 0, "R_E": 0, "P_cb": 0, "R_cb": 0,
                "num_candidates": 0, "num_references": len(reference), "segments": []}
    p_skip = sum(s["P"] for s in segments) / n
    r_skip = sum(s["R"] for s in segments) / n
    p_entity = sum(s["R"] >= alpha for s in segments) / n
    r_entity = len(covered) / len(reference)
    return {"P_skip": p_skip, "R_skip": r_skip, "P_E": p_entity, "R_E": r_entity,
            "P_cb": (p_skip + p_entity) / 2, "R_cb": (r_skip + r_entity) / 2,
            "num_candidates": n, "num_references": len(reference), "segments": segments}


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
    """Micro-average the segment scores, macro-average the entity scores, of
    entity_scores entries."""
    entities = list(entities)
    if not entities:
        raise ValueError("no scored entities")
    n_segments = sum(e["num_candidates"] for e in entities)
    p_sum = sum(s["P"] for e in entities for s in e["segments"])
    r_sum = sum(s["R"] for e in entities for s in e["segments"])
    n = len(entities)
    return CorpusStats(
        p_s=p_sum / n_segments if n_segments else 0.0,
        r_s=r_sum / n_segments if n_segments else 0.0,
        p_e=sum(e["P_E"] for e in entities) / n,
        r_e=sum(e["R_E"] for e in entities) / n,
        p=sum(e["P_cb"] for e in entities) / n,
        r=sum(e["R_cb"] for e in entities) / n,
        num_entities=n,
        num_segments=n_segments)


@dataclass
class PolarityReport:
    stats: CorpusStats
    entities: dict                 # entity_id -> its entity_scores entry
    excluded_no_reference: list = field(default_factory=list)

    def to_dict(self):
        return {
            "corpus": self.stats.to_dict(),
            "entities": self.entities,
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


def _score_polarity(table, per_entity_refs, cfg, pair_counts, side):
    """Score the rows of table, each entity's in row order, against the
    references of every entity in per_entity_refs, its side ("pros" or
    "cons")."""
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
        raise ValueError(f"no scorable entities (all lacked {side} references)")
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
    pros = _score_polarity(positive, {e: references[e][0] for e in usable}, cfg, pair_counts,
                           "pros")
    cons = _score_polarity(negative, {e: references[e][1] for e in usable}, cfg, pair_counts,
                           "cons")
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
