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
are consumed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass
class Segment:
    tokens: list
    review_id: str
    entity_id: str
    sentence_index: int
    start: int
    end: int            # exclusive
    pattern_id: int
    negated: bool
    aspect: int | None = None
    sentiment: int | None = None
    polarity: float | None = None
    # filters.rank_score, set by the classifier stage of run_procedure; to_dict
    # leaves it out
    rank: float | None = None
    # (channel, index) of each in-vocabulary token, in token order; set by
    # classify.label_aspects
    ids: tuple = ()

    @property
    def text(self) -> str:
        return " ".join(t.surface for t in self.tokens)

    def __len__(self):
        return len(self.tokens)

    def to_dict(self):
        d = {
            "review_id": self.review_id,
            "entity_id": self.entity_id,
            "sentence_index": self.sentence_index,
            "start": self.start,
            "end": self.end,
            "text": self.text,
            "pattern_id": self.pattern_id,
            "negated": self.negated,
        }
        if self.aspect is not None:
            d["aspect"] = self.aspect
        if self.sentiment is not None:
            d["sentiment"] = self.sentiment
        if self.polarity is not None:
            d["polarity"] = self.polarity
        return d


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
    # (?!) never matches, so an empty pattern set gives no segments
    regex = re.compile("|".join(f"({f.regex})" for f in forms) or "(?!)")
    return regex, forms


def match_sentence(sentence, patterns, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION, entity_id="", sentence_index=-1) -> list:
    """At each start, the first form with an end within max_words, taken to
    its greedy end, which is its longest such end; matched tokens are
    consumed. `patterns` is what compile_patterns returns."""
    regex, forms = patterns
    tokens = sentence.tokens
    classes = "".join("X" if t.surface.lower() in negation_words
                      else TAG_CLASSES.get(t.pos, "O") for t in tokens)
    segments = []
    pos = 0
    while pos < len(tokens):
        found = regex.match(classes, pos, pos + max_words)
        if found is None:
            pos += 1
            continue
        form = forms[found.lastindex - 1]
        end = found.end()
        segments.append(Segment(
            tokens=list(tokens[pos:end]),
            review_id=sentence.review_id,
            entity_id=entity_id,
            sentence_index=sentence_index,
            start=pos,
            end=end,
            pattern_id=form.pattern_id,
            negated=form.negated,
        ))
        pos = end
    return segments


def extract_corpus(corpus, pattern_ids, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION) -> list:
    patterns = compile_patterns(pattern_ids)
    segments = []
    for review in corpus.reviews:
        for sent_idx, sentence in enumerate(review.sentences):
            segments += match_sentence(sentence, patterns, max_words, negation_words,
                                       review.entity_id, sent_idx)
    return segments


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
