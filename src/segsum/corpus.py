"""Review corpus ingestion and preprocessing.

Reviews arrive pre-tagged (Penn Treebank tags) and split into sentences.
This module reads them, stems tokens, marks sentiment words, builds the two
word vocabularies (sentiment / non-sentiment) and aggregates the per-entity
pros/cons gold standards.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field

from . import stem as _stem

log = logging.getLogger(__name__)

# Penn Treebank word-level tagset plus common punctuation tags.
PENN_TAGS = frozenset({
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
    "VBZ", "WDT", "WP", "WP$", "WRB", ".", ",", ":", "``", "''", "-LRB-",
    "-RRB-", "$", "#",
})

SENTIMENT_TAG_PREFIXES = ("JJ", "RB")

# Extra sentiment words that are neither adjective nor adverb but still
# convey opinion (stemmed forms).
DEFAULT_EXTRA_SENTIMENT = frozenset({"love", "hate", "enjoy", "worth", "disappoint"})

DEFAULT_STOPWORDS = frozenset("""
a an and are as at be been but by did do does for from had has have he her
him his i if in into is it its me my of on or our she so that the their
them they this to was we were what which who will with would you your
""".split())


class CorpusFormatError(ValueError):
    """Raised when an input file cannot be parsed; carries the line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def numbered_lines(path):
    """(lineno, line) for each line of the UTF-8 text file at path, counted
    from 1, without its line ending. Each line is decoded on its own, so a
    line that is not UTF-8 raises CorpusFormatError naming it."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield lineno, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(path, lineno, f"not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class Token:
    surface: str
    stem: str
    pos: str
    is_sentiment: bool


@dataclass
class Sentence:
    tokens: list
    review_id: str


@dataclass
class Review:
    id: str
    entity_id: str
    sentences: list
    pros: list = field(default_factory=list)
    cons: list = field(default_factory=list)


@dataclass
class Corpus:
    reviews: list

    def sentences(self):
        for review in self.reviews:
            for sentence in review.sentences:
                yield review, sentence

    @property
    def num_sentences(self):
        return sum(len(r.sentences) for r in self.reviews)


def make_token(surface: str, pos: str, extra_sentiment=DEFAULT_EXTRA_SENTIMENT) -> Token:
    stemmed = _stem.stem(surface.lower())
    if pos not in PENN_TAGS:
        log.warning("unknown POS tag %r for token %r; treated as non-sentiment", pos, surface)
        return Token(surface, stemmed, pos, False)
    is_sentiment = pos.startswith(SENTIMENT_TAG_PREFIXES) or stemmed in extra_sentiment
    return Token(surface, stemmed, pos, is_sentiment)


# the formats ingest_tagged reads: the values of [paths] corpus_format
CORPUS_FORMATS = ("jsonl", "conll")


def ingest_tagged(path, format: str = "jsonl",
                  extra_sentiment=DEFAULT_EXTRA_SENTIMENT) -> Corpus:
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    read = _ingest_jsonl if format == "jsonl" else _ingest_conll
    return read(path, extra_sentiment)


def _not_a_token(pair):
    raise ValueError(f"token {pair!r} is not a [surface, tag] pair of strings")


def review_from_record(obj, extra_sentiment, shared_tokens) -> Review:
    """Build a Review from one JSONL-style record; empty sentences drop.
    ValueError unless id and entity_id are strings or integers, pros and cons
    lists of strings, sentences a list of lists, and each token a [surface,
    tag] pair of strings.

    shared_tokens, a dict from (surface, tag) to Token, is looked up before a
    Token is made and gets each new one, so the records of one ingest share
    one Token per (surface, tag)."""
    if type(obj["id"]) not in (str, int) or type(obj["entity_id"]) not in (str, int):
        raise ValueError("id and entity_id must be strings or integers")
    pros, cons = obj.get("pros", []), obj.get("cons", [])
    if type(pros) is not list or type(cons) is not list or not set(map(type, pros + cons)) <= {str}:
        raise ValueError("pros and cons must be lists of strings")
    review = Review(str(obj["id"]), str(obj["entity_id"]), [], list(pros), list(cons))
    sentences = obj["sentences"]
    if type(sentences) is not list or not all(type(sent) is list for sent in sentences):
        raise ValueError("sentences must be a list of lists of tokens")
    for sent in sentences:
        # type tests, not a checking function: a valid token costs no more
        # Python calls than the str() conversions these tests replaced
        tokens = [shared_tokens.get((surface, pos))
                  or shared_tokens.setdefault((surface, pos),
                                              make_token(surface, pos, extra_sentiment))
                  for pair in sent for surface, pos in (pair,)
                  if type(pair) in (list, tuple) and type(surface) is str and type(pos) is str
                  or _not_a_token(pair)]
        if tokens:
            review.sentences.append(Sentence(tokens, review.id))
    return review


def _ingest_jsonl(path, extra_sentiment) -> Corpus:
    reviews, shared_tokens = [], {}
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            review = review_from_record(json.loads(line), extra_sentiment, shared_tokens)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(path, lineno, f"bad review record: {exc}") from exc
        if not review.entity_id:
            raise CorpusFormatError(path, lineno, "empty entity_id")
        reviews.append(review)
    return Corpus(reviews)


def _conll_records(path):
    """Each #REVIEW block of a CoNLL file as a JSONL-style record, yielded
    when the block ends. A blank line starts a new sentence."""
    record = None
    for lineno, line in numbered_lines(path):
        if line.startswith("#REVIEW"):
            parts = line.split()
            if len(parts) != 3:
                raise CorpusFormatError(path, lineno, "#REVIEW needs 'id entity_id'")
            if record is not None:
                yield record
            record = {"id": parts[1], "entity_id": parts[2], "sentences": [[]],
                      "pros": [], "cons": []}
        elif not line.strip():
            if record is not None:
                record["sentences"].append([])
        elif record is None:
            kind = "item" if line.startswith(("#PROS", "#CONS")) else "token"
            raise CorpusFormatError(path, lineno, f"{kind} line before #REVIEW")
        elif line.startswith(("#PROS", "#CONS")):
            item = line.split(None, 1)
            record["pros" if line.startswith("#PROS") else "cons"].append(
                item[1] if len(item) > 1 else "")
        else:
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(path, lineno, f"expected 'surface<TAB>pos', got {line!r}")
            record["sentences"][-1].append(parts)
    if record is not None:
        yield record


def _ingest_conll(path, extra_sentiment) -> Corpus:
    shared_tokens = {}
    return Corpus([review_from_record(record, extra_sentiment, shared_tokens)
                   for record in _conll_records(path)])


@dataclass
class Vocabulary:
    """Disjoint stem->index maps for the two word channels, and stem_ids,
    one stem -> (channel, index) map over both.

    A stem that ever occurs as a sentiment word is assigned to the sentiment
    vocabulary; remaining stems go to the non-sentiment (aspect) vocabulary.
    A stem in both lists (only from_dict can give one) is a sentiment word.
    """

    aspect_stems: list
    senti_stems: list
    drop_reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        self.aspect_index = {s: i for i, s in enumerate(self.aspect_stems)}
        self.senti_index = {s: i for i, s in enumerate(self.senti_stems)}
        self.stem_ids = {s: ("aspect", i) for s, i in self.aspect_index.items()}
        self.stem_ids.update((s, ("senti", i)) for s, i in self.senti_index.items())

    @property
    def num_aspect_words(self):
        return len(self.aspect_stems)

    @property
    def num_senti_words(self):
        return len(self.senti_stems)

    def content_hash(self) -> str:
        import hashlib
        payload = json.dumps([self.aspect_stems, self.senti_stems]).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self):
        return {"aspect_stems": self.aspect_stems, "senti_stems": self.senti_stems}

    @classmethod
    def from_dict(cls, d):
        return cls(list(d["aspect_stems"]), list(d["senti_stems"]))


def build_vocabulary(corpus: Corpus, min_count: int = 5,
                     stopwords=DEFAULT_STOPWORDS) -> Vocabulary:
    if not corpus.reviews:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    counts = Counter()
    senti_seen = set()
    for _, sentence in corpus.sentences():
        for token in sentence.tokens:
            counts[token.stem] += 1
            if token.is_sentiment:
                senti_seen.add(token.stem)

    aspect_stems, senti_stems, drop_reasons = [], [], {}
    for s, n in counts.items():
        if s in senti_seen:
            if n < min_count:
                drop_reasons[s] = "below_min_count"
            else:
                senti_stems.append(s)
        else:
            if s in stopwords:
                drop_reasons[s] = "stopword"
            elif n < min_count:
                drop_reasons[s] = "below_min_count"
            else:
                aspect_stems.append(s)

    if not aspect_stems and not senti_stems:
        raise ValueError("vocabulary is empty after filtering")
    aspect_stems.sort()
    senti_stems.sort()
    return Vocabulary(aspect_stems, senti_stems, drop_reasons=drop_reasons)


def _normalize_gold_item(text: str) -> str:
    return " ".join(text.lower().split())


def build_reference_summaries(corpus: Corpus) -> dict:
    """Per entity, deduplicated unions of reviewer pros and cons."""
    refs = {}
    for review in corpus.reviews:
        pros, cons = refs.setdefault(review.entity_id, (set(), set()))
        for item in review.pros:
            norm = _normalize_gold_item(item)
            if norm:
                pros.add(norm)
        for item in review.cons:
            norm = _normalize_gold_item(item)
            if norm:
                cons.add(norm)
    return refs


def load_wordlist(path) -> frozenset:
    """One lowercase stem per line; '#' comments and blanks ignored."""
    words = set()
    for _, line in numbered_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)
