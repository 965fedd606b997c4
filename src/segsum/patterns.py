"""Syntactic extraction patterns over POS-tag sequences.

Five positive patterns (ids 1-5) plus mechanically derived negation variants.
Matching is left-to-right by start position; at each position patterns are
tried in priority order 1, 2, 4, 3, 5 (the longer patterns strictly extend
the shorter ones) and the longest expansion that fits the word limit wins.
Matched tokens are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})
VERB_TAGS = frozenset({"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"})
ADJ_TAGS = frozenset({"JJ", "JJR", "JJS"})
ADV_TAGS = frozenset({"RB", "RBR", "RBS"})

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


@dataclass(frozen=True)
class PatternAtom:
    category: str   # nn | vb | dt | rb | jj | to | neg
    quantifier: str  # one | optional | star


@dataclass(frozen=True)
class Pattern:
    id: int
    atoms: tuple
    negated: bool = False


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


def parse_pattern(pattern_id: int, definition: str) -> Pattern:
    atoms = []
    for part in definition.split():
        if part.endswith("?"):
            atoms.append(PatternAtom(part[:-1], "optional"))
        elif part.endswith("*"):
            atoms.append(PatternAtom(part[:-1], "star"))
        else:
            atoms.append(PatternAtom(part, "one"))
    return Pattern(pattern_id, tuple(atoms))


def compile_patterns(pattern_ids) -> list:
    unknown = set(pattern_ids) - set(PATTERN_DEFS)
    if unknown:
        raise ValueError(f"unknown pattern ids: {sorted(unknown)}")
    return [parse_pattern(i, PATTERN_DEFS[i]) for i in sorted(pattern_ids)]


def negation_variants(patterns) -> list:
    """One negation token admitted immediately before a jj or vb atom."""
    variants = []
    seen = set()
    neg = PatternAtom("neg", "one")
    for pattern in patterns:
        if pattern.negated:
            continue
        for pos, atom in enumerate(pattern.atoms):
            if atom.category not in ("jj", "vb"):
                continue
            atoms = pattern.atoms[:pos] + (neg,) + pattern.atoms[pos:]
            key = (pattern.id, atoms)
            if key not in seen:
                seen.add(key)
                variants.append(Pattern(pattern.id, atoms, negated=True))
    return variants


def _category_matches(category, token, negation_words):
    tag = token.pos
    surface = token.surface.lower()
    if category == "neg":
        return surface in negation_words
    # Negation triggers are reserved for neg atoms so positive forms cannot
    # silently absorb them via rb*/dt.
    if surface in negation_words:
        return False
    if category == "nn":
        return tag in NOUN_TAGS
    if category == "vb":
        return tag in VERB_TAGS
    if category == "jj":
        return tag in ADJ_TAGS
    if category == "rb":
        return tag in ADV_TAGS
    if category == "dt":
        return tag == "DT"
    if category == "to":
        return tag == "TO"
    raise ValueError(f"unknown atom category: {category}")


def _atom_lengths(atom, tokens, pos, negation_words):
    """Token counts this atom may consume at `pos`, longest first."""
    if atom.category == "neg":
        # at most one negation token: a trigger preceded by another trigger
        # (double negation) never matches
        if pos > 0 and tokens[pos - 1].surface.lower() in negation_words:
            return []
        ok = pos < len(tokens) and _category_matches("neg", tokens[pos], negation_words)
        return [1] if ok else []
    if atom.category == "nn":
        # maximal run of noun tags, backtrackable to shorter prefixes
        run = 0
        while pos + run < len(tokens) and _category_matches("nn", tokens[pos + run], negation_words):
            run += 1
        lengths = list(range(run, 0, -1))
        if atom.quantifier in ("optional", "star"):
            lengths.append(0)
        return lengths
    if atom.quantifier == "star":
        run = 0
        while pos + run < len(tokens) and _category_matches(atom.category, tokens[pos + run], negation_words):
            run += 1
        return list(range(run, -1, -1))
    ok = pos < len(tokens) and _category_matches(atom.category, tokens[pos], negation_words)
    if atom.quantifier == "optional":
        return [1, 0] if ok else [0]
    return [1] if ok else []


def _match_ends(atoms, tokens, start, negation_words):
    """All end positions (exclusive) of full matches starting at `start`."""
    ends = set()

    def walk(idx, pos):
        if idx == len(atoms):
            ends.add(pos)
            return
        for length in _atom_lengths(atoms[idx], tokens, pos, negation_words):
            walk(idx + 1, pos + length)

    walk(0, start)
    return ends


def match_pattern_at(pattern, tokens, start, max_words, negation_words):
    """Longest admissible end for `pattern` at `start`, or None."""
    ends = _match_ends(pattern.atoms, tokens, start, negation_words)
    valid = [e for e in ends if start < e <= start + max_words]
    return max(valid) if valid else None


def _ordered(patterns):
    rank = {pid: i for i, pid in enumerate(PRIORITY_ORDER)}
    # negated variants first within a pattern id: they are the longer forms
    return sorted(patterns, key=lambda p: (rank[p.id], not p.negated))


def match_sentence(sentence, patterns, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION, entity_id="") -> list:
    ordered = _ordered(patterns)
    tokens = sentence.tokens
    segments = []
    pos = 0
    while pos < len(tokens):
        matched = False
        for pattern in ordered:
            end = match_pattern_at(pattern, tokens, pos, max_words, negation_words)
            if end is not None:
                segments.append(Segment(
                    tokens=list(tokens[pos:end]),
                    review_id=sentence.review_id,
                    entity_id=entity_id,
                    sentence_index=-1,
                    start=pos,
                    end=end,
                    pattern_id=pattern.id,
                    negated=pattern.negated,
                ))
                pos = end
                matched = True
                break
        if not matched:
            pos += 1
    return segments


def extract_corpus(corpus, pattern_ids, max_words=DEFAULT_MAX_WORDS,
                   negation_words=DEFAULT_NEGATION) -> list:
    patterns = compile_patterns(pattern_ids)
    patterns = patterns + negation_variants(patterns)
    segments = []
    for review in corpus.reviews:
        for sent_idx, sentence in enumerate(review.sentences):
            for seg in match_sentence(sentence, patterns, max_words,
                                      negation_words, entity_id=review.entity_id):
                seg.sentence_index = sent_idx
                segments.append(seg)
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
