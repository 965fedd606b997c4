"""Syntactic extraction patterns over POS-tag sequences.

Five positive patterns (ids 1-5), each also in negated forms that admit one
negation trigger right before a jj or vb atom. Each token maps to one class
letter (TAG_CLASSES; X for a negation trigger whatever its tag, O for any
other tag), and all forms of a pattern set compile into one alternation
regex over those letters, one capturing group per form. The alternatives
are in priority order 1, 2, 4, 3, 5 (the longer patterns strictly extend
the shorter ones), negated forms first. Matching is left-to-right by start
position: at each position the first form with a match within the word
limit wins, and its greedy match is also its longest one. Matched tokens
are consumed. A corpus read into an output directory keeps its segments
there (SEGMENTS_FILE), so that the commands after the first load them.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, content_key, file_digest, keep_columns

DEFAULT_NEGATION = frozenset({"not", "n't", "never", "no", "hardly"})

DEFAULT_MAX_WORDS = 7

# Table of the five positive patterns, in regex-like atom notation.
PATTERN_DEFS = {
    1: "nn? vb dt? rb* jj nn",
    2: "nn? vb rb* jj to vb",
    3: "nn? vb rb* jj",
    4: "rb* jj to vb nn?",
    5: "rb* jj nn",
}

# Patterns 1/2/4 strictly extend 3/5, so trying them first realizes the
# longest-pattern rule.
PRIORITY_ORDER = (1, 2, 4, 3, 5)

PRESETS = {
    "service": frozenset({1, 3, 5}),
    "product": frozenset({1, 2, 3, 4, 5}),
}

# The class letter of each tag family (nouns, verbs, adjectives, adverbs).
TAG_CLASSES = {**dict.fromkeys(("NN", "NNS", "NNP", "NNPS"), "N"),
               **dict.fromkeys(("VB", "VBD", "VBG", "VBN", "VBP", "VBZ"), "V"),
               **dict.fromkeys(("JJ", "JJR", "JJS"), "J"),
               **dict.fromkeys(("RB", "RBR", "RBS"), "R"), "DT": "D", "TO": "T"}

# A noun atom takes a whole run of nouns.
ATOM_REGEX = {"nn": "N+", "nn?": "N*", "vb": "V", "dt?": "D?", "rb*": "R*",
              "jj": "J", "to": "T"}

# One trigger that does not follow another: a double negation never matches,
# and the lookbehind also sees the token before the segment's start.
NEGATION_REGEX = "(?<!X)X"


class Form(NamedTuple):
    pattern_id: int
    negated: bool
    regex: str


class Row(NamedTuple):
    """One SegmentTable row as the outputs write it; a label is None until set."""

    review_id: str
    entity_id: str
    sentence_index: int
    start: int
    end: int            # exclusive
    text: str
    pattern_id: int
    negated: bool
    aspect: int | None
    sentiment: int | None
    polarity: float | None

    def to_dict(self):
        """The fields by name, in order, without the labels not set."""
        return {name: value for name, value in zip(self._fields, self) if value is not None}


@dataclass(eq=False)
class SegmentTable:
    """Segments as columns over the token table of `corpus`, one row each:
    row i covers corpus.token_ids[start[i]:start[i] + length[i]], in
    sentence[i] (numbered across the corpus) of review[i]. The label columns
    are None until classify.label_aspects sets `codes` and `aspect` and
    filters.run_procedure `sentiment`, `polarity` and `rank`. Iterating
    gives one Row per row."""

    corpus: Corpus
    start: np.ndarray
    length: np.ndarray
    sentence: np.ndarray
    review: np.ndarray
    pattern_id: np.ndarray
    negated: np.ndarray         # bool
    codes: np.ndarray | None = None
    aspect: np.ndarray | None = None
    sentiment: np.ndarray | None = None
    polarity: np.ndarray | None = None
    rank: np.ndarray | None = None

    def __len__(self):
        return len(self.start)

    def take(self, rows):
        """The table of the given rows (indices or a mask), with their labels."""
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)[1:]
                                if getattr(self, f.name) is not None})

    def window(self):
        """(rows, longest length) array: the token-table index of each row's
        tokens in order, padded with len(corpus.tokens)."""
        offsets = np.arange(self.length.max(initial=0))
        window = np.take(self.corpus.token_ids, self.start[:, None] + offsets, mode="clip")
        window[offsets >= self.length[:, None]] = len(self.corpus.tokens)
        return window

    def gather(self, values):
        """Per row, the tuple of values[i] over its tokens' table entries i, in order."""
        return [tuple(map(values.__getitem__, entries[:n]))
                for entries, n in zip(self.window().tolist(), self.length.tolist())]

    def __iter__(self):
        """One Row per row, in row order, with the labels set so far."""
        c = self.corpus
        reviews = [c.reviews[r] for r in self.review.tolist()]
        first = self.start - c.sentence_starts[self.sentence]
        return map(Row._make, zip(
            [r.id for r in reviews], [r.entity_id for r in reviews],
            (self.sentence - c.review_starts[self.review]).tolist(), first.tolist(),
            (first + self.length).tolist(),
            map(" ".join, self.gather([t.surface for t in c.tokens])),
            self.pattern_id.tolist(), self.negated.tolist(),
            *(repeat(None) if column is None else column.tolist()
              for column in (self.aspect, self.sentiment, self.polarity))))


def compile_patterns(pattern_ids):
    """(regex, forms): every form of the given patterns, in match order (by
    PRIORITY_ORDER, and within a pattern its negated forms, one trigger right
    before a jj or vb atom, ahead of the base form), and one regex that tries
    them in that order, group i + 1 capturing forms[i]."""
    unknown = set(pattern_ids) - set(PATTERN_DEFS)
    if unknown:
        raise ValueError(f"unknown pattern ids: {sorted(unknown)}")
    forms = []
    for pid in (p for p in PRIORITY_ORDER if p in pattern_ids):
        atoms = PATTERN_DEFS[pid].split()
        parts = [ATOM_REGEX[atom] for atom in atoms]
        for i, atom in enumerate(atoms):
            if atom in ("jj", "vb"):
                forms.append(Form(pid, True, "".join(parts[:i] + [NEGATION_REGEX] + parts[i:])))
        forms.append(Form(pid, False, "".join(parts)))
    # Every form starts with J, N, R, V or X, so a search skips other letters
    # without trying each form. (?!) never matches: no patterns, no segments.
    regex = re.compile(f"(?=[JNRVX])(?:{'|'.join(f'({f.regex})' for f in forms)})"
                       if forms else "(?!)")
    return regex, forms


# extract_corpus keeps the segments of a corpus read into an output_dir in
# this file of that directory
SEGMENTS_FILE = "segments.npz"
# the dtype of each SegmentTable column of that file, as extraction makes them
_SEGMENT_COLUMNS = {"start": np.int64, "length": np.int64, "sentence": np.int64,
                    "review": np.int64, "pattern_id": np.int64, "negated": np.bool_}


def extract_corpus(corpus, pattern_ids, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION, output_dir=None) -> SegmentTable:
    """The segments of every sentence, in corpus order: at each start, the
    first form with an end within max_words, taken to its greedy end, which
    is its longest such end; matched tokens are consumed.

    With an output_dir and a corpus that has a key (Corpus.key, which
    ingest_tagged gives a corpus it keeps there): loaded from the
    SEGMENTS_FILE of output_dir if that file holds this extraction under its
    current key; else extracted, and written there under that key for the
    next extraction to load. The key is the sha256 of what an extraction
    depends on: the corpus (by its key), the pattern ids, max_words, the
    negation words and the source of this module."""
    if output_dir is None or corpus.key is None:
        return _extract(corpus, pattern_ids, max_words, negation_words)

    def extract():
        segments = _extract(corpus, pattern_ids, max_words, negation_words)
        return segments, {name: getattr(segments, name) for name in _SEGMENT_COLUMNS}

    key = content_key(corpus.key, sorted(pattern_ids), max_words, sorted(negation_words),
                      file_digest(__file__))
    return keep_columns(os.path.join(output_dir, SEGMENTS_FILE), key, _SEGMENT_COLUMNS,
                        lambda columns: _segments_of(corpus, columns, pattern_ids, max_words),
                        extract)


def _extract(corpus, pattern_ids, max_words, negation_words) -> SegmentTable:
    """extract_corpus's segments, found by one regex search over the corpus.

    One class string covers the corpus, a separator that no form matches
    after each sentence. No form looks past its end, so a match within
    max_words is also an unlimited match: an unlimited match longer than
    max_words is re-run within it, and the search moves on if that fails."""
    regex, forms = compile_patterns(pattern_ids)
    letters = "".join("X" if t.surface.lower() in negation_words
                      else TAG_CLASSES.get(t.pos, "O") for t in corpus.tokens)
    starts = corpus.sentence_starts
    classes = np.insert(np.frombuffer(letters.encode(), dtype=np.uint8)[corpus.token_ids],
                        starts[1:], ord("|")).tobytes().decode()
    found, pos = [], 0
    while (hit := regex.search(classes, pos)) is not None:
        begin = hit.start()
        if hit.end() - begin > max_words:
            hit = regex.match(classes, begin, begin + max_words)
            if hit is None:
                pos = begin + 1
                continue
        pos = hit.end()
        found.append((begin, pos, hit.lastindex - 1))
    begin, end, form = np.array(found, dtype=np.int64).reshape(-1, 3).T
    # sentence k starts at starts[k] + k in classes
    sentence = np.searchsorted(starts[:-1] + np.arange(len(starts) - 1), begin, "right") - 1
    return SegmentTable(corpus, begin - sentence, end - begin, sentence,
                        np.searchsorted(corpus.review_starts, sentence, "right") - 1,
                        np.array([f.pattern_id for f in forms], dtype=np.int64)[form],
                        np.array([f.negated for f in forms], dtype=bool)[form])


def _segments_of(corpus, columns, pattern_ids, max_words):
    """The SegmentTable of corpus with the columns of a SEGMENTS_FILE; None
    if they differ in length or have a row that extraction cannot give:
    outside its sentence, longer than max_words, in another review than its
    sentence's, of a pattern not asked for, or overlapping the row before it."""
    start, length, sentence, review, pattern_id, _ = columns.values()
    if any(column.shape != start.shape for column in columns.values()):
        return None
    starts = corpus.sentence_starts
    if not ((sentence >= 0) & (sentence < corpus.num_sentences)).all():
        return None
    if not ((length >= 1) & (length <= max_words) & (start >= starts[sentence])
            & (start <= starts[sentence + 1] - length)
            & (review == np.searchsorted(corpus.review_starts, sentence, "right") - 1)
            & np.isin(pattern_id, sorted(pattern_ids))).all() \
            or (start[1:] < (start + length)[:-1]).any():
        return None
    return SegmentTable(corpus, **columns)


def resolve_pattern_ids(spec: str):
    """Accepts a preset name ('service'/'product') or '1,3,5' style ids."""
    if spec in PRESETS:
        return set(PRESETS[spec])
    try:
        ids = {int(p) for p in spec.split(",") if p.strip()}
    except ValueError:
        raise ValueError(f"bad pattern spec: {spec!r}") from None
    if not ids or ids - set(PATTERN_DEFS):
        raise ValueError(f"bad pattern spec: {spec!r}")
    return ids
