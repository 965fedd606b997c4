"""Skip-bigram evaluation of candidate summaries against pros/cons gold.

Positive candidates are scored against the pros reference, negative
candidates against the cons reference, independently. Scores exist at three
levels: per segment (P(Y), R(Y) against the best-recall reference item),
per entity (averages plus the threshold-based P(E)/R(E) and their combined
forms), and per corpus (micro segment stats P_s/R_s, macro entity stats
P_e/R_e/P/R). Each polarity is scored in one pass of array operations over
all its candidates and reference items.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from . import stem as _stem

log = logging.getLogger(__name__)

# runs of letters, digits (any script) and apostrophes, each continued by the
# Unicode marks after it: _words maps every mark to U+0300 first
_WORD_RE = re.compile(r"(?:[^\W_]|')(?:[^\W_]|'|\u0300)*")


@dataclass
class EvalConfig:
    recall_threshold: float = 0.25
    token_normalization: str = "stemmed"   # or "surface_lower"

    def __post_init__(self):
        if not 0 < self.recall_threshold <= 1:
            raise ValueError("recall_threshold must be in (0, 1]")
        if self.token_normalization not in ("stemmed", "surface_lower"):
            raise ValueError(f"bad token_normalization: {self.token_normalization!r}")


def _words(text):
    """The words of text. ASCII text holds no mark and goes to _WORD_RE
    alone: mapping its characters one by one made a warm evaluate of 600 to
    960 gold items 4-5 ms slower."""
    if text.isascii():
        return _WORD_RE.findall(text)
    marked = "".join("\u0300" if unicodedata.category(c)[0] == "M" else c for c in text)
    return [text[m.start():m.end()] for m in _WORD_RE.finditer(marked)]


def normalize_text(text: str, mode: str = "stemmed"):
    words = _words(text.lower())
    if mode == "stemmed":
        return tuple(_stem.stem(w) for w in words)
    return tuple(words)


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
    report entries."""
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
    entities: dict                 # entity_id -> its report entry
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


def _ragged_arange(counts):
    """0..counts[k]-1 for each k in turn, laid end to end."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _units(ids, lengths, v):
    """(text, unit) occurrences of the texts laid end to end in the word ids
    ids, text t holding the next lengths[t]: (text, word) of every word, and
    (text, pair) of every ordered pair of positions i < j, coded a * v + b
    for words a, b < v. A text of L words costs L * (L - 1) / 2 pairs,
    whatever the lengths of the others."""
    text = np.repeat(np.arange(len(lengths)), lengths)
    # the words after each word in its text
    later = np.cumsum(lengths)[text] - np.arange(len(ids)) - 1
    first = np.repeat(np.arange(len(ids)), later)
    second = first + 1 + _ragged_arange(later)
    return (text, ids), (text[first], ids[first] * v + ids[second])


def _clipped_matches(candidate_units, reference_units, cand_entity, ref_entity, offset,
                     n_cells):
    """Per (candidate c, item r) cell, numbered offset[c] + r, the sum over
    the units the two texts share of the lower of their counts: candidate
    and item join on (entity, unit) through sorted keys, and only the hits
    are expanded."""
    (cand, cand_code), (ref, ref_code) = candidate_units, reference_units
    # a pair code a * v + b is below v**2, within int64 for up to 3e9
    # distinct words; the codes are compacted to n units, at most their
    # occurrences, before they meet a text or entity number, so that
    # text * n + unit and entity * n + unit stay below texts * occurrences
    codes, unit = np.unique(np.concatenate([cand_code, ref_code]), return_inverse=True)
    n = len(codes)
    cand_keys, cand_count = np.unique(cand * n + unit[:len(cand)], return_counts=True)
    ref_keys, ref_count = np.unique(ref * n + unit[len(cand):], return_counts=True)
    cand, ref = cand_keys // n, ref_keys // n
    join = cand_entity[cand] * n + cand_keys % n
    order = np.argsort(join)
    join = join[order]
    wanted = ref_entity[ref] * n + ref_keys % n
    lo = np.searchsorted(join, wanted, "left")
    hits = np.searchsorted(join, wanted, "right") - lo
    which = np.repeat(np.arange(len(wanted)), hits)
    at = order[lo[which] + np.arange(len(which)) - (np.cumsum(hits) - hits)[which]]
    return np.bincount(offset[cand[at]] + ref[which],
                       weights=np.minimum(cand_count[at], ref_count[which]), minlength=n_cells)


def _score_polarity(table, per_entity_refs, cfg, side, token_words, index):
    """Score the rows of table, each entity's in row order, against the
    references of every entity in per_entity_refs, its side ("pros" or
    "cons"): token_words holds the word id of each token-table entry, index
    maps each word to its id and takes the new words of the references."""
    scored, items, excluded = [], [], []
    for entity_id, reference in per_entity_refs.items():
        ref_norm = sorted({normalize_text(item, cfg.token_normalization)
                           for item in reference if item.strip()})
        ref_norm = [r for r in ref_norm if r]
        if ref_norm:
            scored.append(entity_id)
            items.append(ref_norm)
        else:
            excluded.append(entity_id)
    if not scored:
        raise ValueError(f"no scorable entities (all lacked {side} references)")

    # the scored entities numbered 0..E-1 (E for the others), their items in
    # entity order
    names = table.corpus.entities
    slot = np.full(len(names), len(scored))
    slot[np.searchsorted(names, scored)] = np.arange(len(scored))
    n_refs = np.array(list(map(len, items)))
    ref_start = np.cumsum(n_refs) - n_refs
    ref_entity = np.repeat(np.arange(len(scored)), n_refs)
    ref_len = np.array([len(item) for ref_norm in items for item in ref_norm])
    ref_ids = np.array([index.setdefault(w, len(index))
                        for ref_norm in items for item in ref_norm for w in item], dtype=np.int64)

    # the candidates: the rows of scored entities, grouped by entity in row order
    row_entity = slot[table.corpus.entity[table.review]]
    rows = np.argsort(row_entity, kind="stable")[:np.count_nonzero(row_entity < len(scored))]
    cand_entity = row_entity[rows]
    cand_len = table.length[rows]
    cand_ids = token_words[table.corpus.token_ids[np.repeat(table.start[rows], cand_len)
                                                  + _ragged_arange(cand_len)]]

    # one cell per (candidate, item of its entity), candidate-major: the
    # cell of candidate c and item r is offset[c] + r
    n_cells_of = n_refs[cand_entity]
    cell_start = np.cumsum(n_cells_of) - n_cells_of
    offset = cell_start - ref_start[cand_entity]
    n_cells = int(n_cells_of.sum())
    cell_cand = np.repeat(np.arange(len(rows)), n_cells_of)
    cell_ref = np.arange(n_cells) - offset[cell_cand]

    (cand_words, cand_pairs), (ref_words, ref_pairs) = (_units(cand_ids, cand_len, len(index)),
                                                        _units(ref_ids, ref_len, len(index)))
    shared_words = _clipped_matches(cand_words, ref_words, cand_entity, ref_entity, offset,
                                    n_cells)
    shared_pairs = _clipped_matches(cand_pairs, ref_pairs, cand_entity, ref_entity, offset,
                                    n_cells)
    # below 2 words on either side, P and R are both 1 if the single word
    # occurs in the other text, else 0
    y, x = cand_len[cell_cand], ref_len[cell_ref]
    short, hit = (y < 2) | (x < 2), shared_words > 0
    precision = np.where(short, hit, shared_pairs / np.maximum(y * (y - 1) // 2, 1))
    recall = np.where(short, hit, shared_pairs / np.maximum(x * (x - 1) // 2, 1))

    # each candidate's best recall, its first item (x_max) and all tied items
    best = np.maximum.reduceat(recall, cell_start)
    tie = recall == best[cell_cand]
    ties = np.flatnonzero(tie)
    first = ties[np.searchsorted(ties, cell_start)]
    useful = best >= cfg.recall_threshold
    # a reference item is covered when some useful candidate reaches its
    # best recall on it
    covered = np.unique(cell_ref[tie & useful[cell_cand]])
    n_covered = np.bincount(ref_entity[covered], minlength=len(scored)).tolist()
    n_useful = np.bincount(cand_entity[useful], minlength=len(scored)).tolist()

    p_best, r_best = precision[first].tolist(), best.tolist()
    segments = [{"P": p, "R": r, "x_max": x}
                for p, r, x in zip(p_best, r_best, (first - cell_start).tolist())]
    bounds = np.searchsorted(cand_entity, np.arange(len(scored) + 1)).tolist()
    entities = {}
    for k, entity_id in enumerate(scored):
        a, b = bounds[k], bounds[k + 1]
        n, n_ref = b - a, len(items[k])
        if not n:
            entities[entity_id] = {"P_skip": 0, "R_skip": 0, "P_E": 0, "R_E": 0, "P_cb": 0,
                                   "R_cb": 0, "num_candidates": 0, "num_references": n_ref,
                                   "segments": []}
            continue
        # Python sums, left to right: numpy's pairwise sum would change bits
        p_skip, r_skip = sum(p_best[a:b]) / n, sum(r_best[a:b]) / n
        p_entity, r_entity = n_useful[k] / n, n_covered[k] / n_ref
        entities[entity_id] = {"P_skip": p_skip, "R_skip": r_skip, "P_E": p_entity,
                               "R_E": r_entity, "P_cb": (p_skip + p_entity) / 2,
                               "R_cb": (r_skip + r_entity) / 2, "num_candidates": n,
                               "num_references": n_ref, "segments": segments[a:b]}
    return PolarityReport(corpus_stats(entities.values()), entities, excluded)


def evaluate(positive, negative, references, cfg=None) -> EvalReport:
    """Score every entity of the corpus of positive and negative, the
    SegmentTables of its positive and negative candidates, against
    references: entity_id -> (pros, cons) string collections. An entity
    without candidates scores 0; one without references is skipped. A
    candidate's words are the stems of its tokens, or their lower-cased
    surfaces: one id per token-table entry."""
    cfg = cfg if cfg is not None else EvalConfig()
    corpus = positive.corpus
    entities = corpus.entities
    skipped = [e for e in entities if e not in references]
    for entity_id in skipped:
        log.warning("entity %r has no reference; skipped", entity_id)

    usable = [e for e in entities if e in references]
    index = {}
    stemmed = cfg.token_normalization == "stemmed"
    token_words = np.array([index.setdefault(t.stem if stemmed else t.surface.lower(), len(index))
                            for t in corpus.tokens], dtype=np.int64)
    pros = _score_polarity(positive, {e: references[e][0] for e in usable}, cfg, "pros",
                           token_words, index)
    cons = _score_polarity(negative, {e: references[e][1] for e in usable}, cfg, "cons",
                           token_words, index)
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
