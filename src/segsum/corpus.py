"""Review corpus ingestion and preprocessing.

Reviews arrive pre-tagged (Penn Treebank tags) and split into sentences.
This module reads them, stems tokens, marks sentiment words, builds the two
word vocabularies (sentiment / non-sentiment) and aggregates the per-entity
pros/cons gold standards.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import zipfile
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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

# stems, which build_vocabulary compares with the tokens' stems
DEFAULT_STOPWORDS = frozenset(map(_stem.stem, """
a an and are as at be been but by did do does for from had has have he her
him his i if in into is it its me my of on or our she so that the their
them they this to was we were what which who will with would you your
""".split()))


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


def write_file(path, write, binary=False):
    """Call write(fh) on a new file, UTF-8 text or binary, and rename it over
    path once write returns: a failed write leaves path as it was, and no
    process finds a half-written file. Creates the directory of path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        try:
            os.replace(tmp, path)
        except OSError as exc:   # named by path: the temporary name differs per process
            raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
    """Review `index` of `corpus`; its sentences are built from the arrays on access."""

    id: str
    entity_id: str
    pros: list
    cons: list
    corpus: Corpus = field(repr=False, compare=False)
    index: int

    @property
    def sentences(self):
        c = self.corpus
        first, last = c.review_starts[self.index:self.index + 2].tolist()
        starts = c.sentence_starts[first:last + 1].tolist()
        return [Sentence(list(map(c.tokens.__getitem__, c.token_ids[a:b].tolist())), self.id)
                for a, b in zip(starts, starts[1:])]


class Corpus:
    """Reviews over one token table `tokens`: `token_ids` (int32) holds the
    table index of every token, sentence after sentence; `sentence_starts`
    and `review_starts` (int64, one entry more than there are sentences or
    reviews) where each sentence's tokens and each review's sentences start.
    `records` holds each review's (id, entity_id, pros, cons), `entities`
    the sorted entity ids, and `entity` (int64) the index into them of each
    review's entity. `key` is the key under which ingest_tagged keeps the
    corpus in its output_dir (None without one)."""

    def __init__(self, tokens, token_ids, sentence_starts, review_starts, records):
        self.key = None
        self.tokens = tokens
        self.token_ids = np.asarray(token_ids, dtype=np.int32)
        self.sentence_starts = np.asarray(sentence_starts, dtype=np.int64)
        self.review_starts = np.asarray(review_starts, dtype=np.int64)
        self.reviews = [Review(*record, self, i) for i, record in enumerate(records)]
        self.entities = sorted({review.entity_id for review in self.reviews})
        number = {entity_id: i for i, entity_id in enumerate(self.entities)}
        self.entity = np.array([number[review.entity_id] for review in self.reviews],
                               dtype=np.int64)

    @property
    def num_sentences(self):
        return len(self.sentence_starts) - 1


UNKNOWN_TAG_WARNING = "unknown POS tag %r for token %r; treated as non-sentiment"


def make_token(surface: str, pos: str, extra_sentiment=DEFAULT_EXTRA_SENTIMENT) -> Token:
    stemmed = _stem.stem(surface.lower())
    if pos not in PENN_TAGS:
        log.warning(UNKNOWN_TAG_WARNING, pos, surface)
        return Token(surface, stemmed, pos, False)
    is_sentiment = pos.startswith(SENTIMENT_TAG_PREFIXES) or stemmed in extra_sentiment
    return Token(surface, stemmed, pos, is_sentiment)


# the formats ingest_tagged reads: the values of [paths] corpus_format
CORPUS_FORMATS = ("jsonl", "conll")


# ingest_tagged keeps the corpus it parsed in this file of its output_dir
COLUMNS_FILE = "corpus.npz"
# the dtype of each column of that file; the uint8 columns hold JSON text
_COLUMNS = {"table": np.uint8, "records": np.uint8, "token_ids": np.int32,
            "sentence_starts": np.int64, "review_starts": np.int64}


def ingest_tagged(path, format: str = "jsonl", extra_sentiment=DEFAULT_EXTRA_SENTIMENT,
                  output_dir=None) -> Corpus:
    """The corpus at path. With an output_dir: loaded from its COLUMNS_FILE
    if that file holds this corpus under its current key; else parsed, and
    written there under that key for the next ingest to load. Either way the
    corpus keeps that key as its `key`: the sha256 of what a parse depends
    on, which is the bytes of path, the format, the extra sentiment words
    and the sources of this module and of stem."""
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    read = _ingest_jsonl if format == "jsonl" else _ingest_conll
    if output_dir is None:
        return read(path, extra_sentiment)
    key = content_key(format, sorted(extra_sentiment),
                      *map(file_digest, (path, __file__, _stem.__file__)))

    def parse():
        corpus = read(path, extra_sentiment)
        return corpus, {"table": _text([[t.surface, t.stem, t.pos, t.is_sentiment]
                                        for t in corpus.tokens]),
                        "records": _text([[r.id, r.entity_id, r.pros, r.cons]
                                          for r in corpus.reviews]),
                        "token_ids": corpus.token_ids, "sentence_starts": corpus.sentence_starts,
                        "review_starts": corpus.review_starts}

    corpus = keep_columns(os.path.join(output_dir, COLUMNS_FILE), key, _COLUMNS, _corpus_of,
                          parse)
    corpus.key = key
    return corpus


def content_key(*parts) -> str:
    """The sha256 of the JSON text of parts, in hex."""
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def file_digest(path) -> str:
    """The sha256 of the bytes of the file at path, in hex."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):   # hashlib.file_digest needs Python 3.11
            digest.update(block)
    return digest.hexdigest()


def keep_columns(path, key, dtypes, load, make):
    """A value kept as columns in the npz file at path, under key (an ASCII
    string such as content_key gives): load(columns) if the file holds key
    and, under each name of dtypes, a 1-D array of that dtype, and load
    returns neither None nor raises one of the errors of a spoiled file.
    Otherwise the value of (value, columns) = make(), whose columns (arrays
    by name) are written to path under key through write_file, for the next
    call to load."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if npz["key"].tobytes() == key.encode():
                columns = {name: npz[name] for name in dtypes}
                if all(columns[name].dtype == dtype and columns[name].ndim == 1
                       for name, dtype in dtypes.items()):
                    value = load(columns)
                    if value is not None:
                        return value
    except (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile):
        pass
    value, columns = make()
    write_file(path, lambda fh: np.savez(fh, key=np.frombuffer(key.encode(), dtype=np.uint8),
                                         **columns), binary=True)
    return value


def _text(value):
    """The JSON text of value as a uint8 array."""
    return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)


def _corpus_of(columns):
    """The Corpus of the columns of a COLUMNS_FILE, with the unknown-tag
    warnings of its parse; None if they break an invariant of Corpus (which
    would reach the encoder and the sweep)."""
    tokens = [Token(*entry) for entry in json.loads(columns["table"].tobytes())]
    records = json.loads(columns["records"].tobytes())
    ids, sentences, reviews = (columns["token_ids"], columns["sentence_starts"],
                               columns["review_starts"])
    if not (sentences[0] == 0 and sentences[-1] == len(ids) and (np.diff(sentences) > 0).all()
            and reviews[0] == 0 and reviews[-1] == len(sentences) - 1
            and (np.diff(reviews) >= 0).all() and len(records) == len(reviews) - 1
            and ((ids >= 0) & (ids < len(tokens))).all()):
        return None
    corpus = Corpus(tokens, ids, sentences, reviews, records)
    # the parse warns once per distinct (surface, tag), in table order
    for token in tokens:
        if token.pos not in PENN_TAGS:
            log.warning(UNKNOWN_TAG_WARNING, token.pos, token.surface)
    return corpus


def _check_encodable(what, strings):
    """ValueError naming what and the first of the strings that holds a lone
    surrogate, which json.loads makes of an unpaired escape from \\ud800 to
    \\udfff and UTF-8, the encoding of every output, cannot encode."""
    for text in strings:
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{what} {text!r} holds a lone surrogate, "
                                 f"which UTF-8 cannot encode") from None


def _checked_pair(pair):
    """(surface, tag) of a [surface, tag] list or tuple of strings, the
    surface not empty or whitespace only; else an error naming it."""
    if not (type(pair) in (list, tuple) and len(pair) == 2 and set(map(type, pair)) == {str}):
        raise ValueError(f"token {pair!r} is not a [surface, tag] pair of strings")
    if not pair[0].strip():
        raise ValueError(f"token {pair!r} has an empty surface")
    _check_encodable("token surface or tag", pair)
    return tuple(pair)


class CorpusBuilder(dict):
    """A Corpus built from JSONL-style records, one add() each, over one
    token table: one Token per distinct (surface, tag), in first-seen order.
    As a dict, it maps each (surface, tag) to its index in the table."""

    def __init__(self, extra_sentiment=DEFAULT_EXTRA_SENTIMENT):
        self.extra_sentiment = extra_sentiment
        self.tokens = []
        self.token_ids = array("i")
        self.sentence_lengths = []    # in tokens, of each non-empty sentence
        self.review_ends = []         # in sentences
        self.records = []

    def add(self, obj):
        """Append the review of one record; empty sentences drop. ValueError
        unless id and entity_id are strings or integers, pros and cons lists
        of strings, sentences a list of lists, each token a [surface, tag]
        pair of strings with a surface that is not empty or whitespace only,
        and no string holds a lone surrogate."""
        if type(obj["id"]) not in (str, int) or type(obj["entity_id"]) not in (str, int):
            raise ValueError("id and entity_id must be strings or integers")
        pros, cons = obj.get("pros", []), obj.get("cons", [])
        if type(pros) is not list or type(cons) is not list or not set(map(type, pros + cons)) <= {str}:
            raise ValueError("pros and cons must be lists of strings")
        record = (str(obj["id"]), str(obj["entity_id"]), list(pros), list(cons))
        _check_encodable("id or entity_id", record[:2])
        _check_encodable("pros or cons item", pros + cons)
        sentences = obj["sentences"]
        if type(sentences) is not list or not set(map(type, sentences)) <= {list}:
            raise ValueError("sentences must be a list of lists of tokens")
        start = len(self.token_ids)
        # no Python call per known token; a bad token fails the lookup, and
        # the record is then checked token by token to name the first one
        try:
            if not set(map(type, chain.from_iterable(sentences))) <= {list, tuple}:
                raise TypeError
            self.token_ids.extend(map(self.__getitem__, map(tuple, chain.from_iterable(sentences))))
        except (TypeError, ValueError):
            del self.token_ids[start:]
            for pair in chain.from_iterable(sentences):
                _checked_pair(pair)
            raise
        self.sentence_lengths += filter(None, map(len, sentences))
        self.review_ends.append(len(self.sentence_lengths))
        self.records.append(record)

    def __missing__(self, pair):
        self.tokens.append(make_token(*_checked_pair(pair), self.extra_sentiment))
        index = self[pair] = len(self.tokens) - 1
        return index

    def corpus(self) -> Corpus:
        return Corpus(self.tokens, np.array(self.token_ids),
                      np.cumsum([0] + self.sentence_lengths), [0] + self.review_ends,
                      self.records)


def _ingest_jsonl(path, extra_sentiment) -> Corpus:
    builder = CorpusBuilder(extra_sentiment)
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            builder.add(record := json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(path, lineno, f"bad review record: {exc}") from exc
        if record["entity_id"] == "":
            raise CorpusFormatError(path, lineno, "empty entity_id")
    return builder.corpus()


def _conll_records(path):
    """Each #REVIEW block of a CoNLL file as a JSONL-style record, yielded
    when the block ends. A blank line starts a new sentence. A header is a
    line whose first whitespace-separated field is #REVIEW, #PROS or #CONS;
    any other line of a block is a token line."""
    record = None
    for lineno, line in numbered_lines(path):
        header = line.split(None, 1) if line.startswith("#") else [None]
        if header[0] == "#REVIEW":
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
            kind = "item" if header[0] in ("#PROS", "#CONS") else "token"
            raise CorpusFormatError(path, lineno, f"{kind} line before #REVIEW")
        elif header[0] in ("#PROS", "#CONS"):
            record["pros" if header[0] == "#PROS" else "cons"].append(
                header[1] if len(header) > 1 else "")
        else:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip():
                raise CorpusFormatError(path, lineno, f"expected 'surface<TAB>pos' with a "
                                                      f"non-empty surface, got {line!r}")
            record["sentences"][-1].append(parts)
    if record is not None:
        yield record


def _ingest_conll(path, extra_sentiment) -> Corpus:
    builder = CorpusBuilder(extra_sentiment)
    for record in _conll_records(path):
        builder.add(record)
    return builder.corpus()


@dataclass
class Vocabulary:
    """Disjoint stem->index maps for the two word channels, and codes, one
    stem -> code map over both: aspect index i codes i, sentiment index i
    codes V + i (V aspect words), and V + V' is the pad of a stem outside.

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
        self.codes = dict(self.aspect_index)
        self.codes.update((s, len(self.aspect_stems) + i) for s, i in self.senti_index.items())

    @property
    def num_aspect_words(self):
        return len(self.aspect_stems)

    @property
    def num_senti_words(self):
        return len(self.senti_stems)

    def encode(self, tokens):
        """The int64 code of each token's stem, the pad out of vocabulary, and
        one more pad at the end (SegmentTable.window's pad entry)."""
        pad = len(self.aspect_stems) + len(self.senti_stems)
        return np.array([self.codes.get(t.stem, pad) for t in tokens] + [pad], dtype=np.int64)

    def content_hash(self) -> str:
        return content_key(self.aspect_stems, self.senti_stems)

    def to_dict(self):
        return {"aspect_stems": self.aspect_stems, "senti_stems": self.senti_stems}

    @classmethod
    def from_dict(cls, d):
        return cls(list(d["aspect_stems"]), list(d["senti_stems"]))


def build_vocabulary(corpus: Corpus, min_count: int = 5,
                     stopwords=DEFAULT_STOPWORDS) -> Vocabulary:
    if not corpus.reviews:
        raise ValueError("cannot build a vocabulary from an empty corpus")

    # per stem, in the order of the token table (first-seen order)
    counts, senti_seen = {}, set()
    for token, n in zip(corpus.tokens, np.bincount(corpus.token_ids,
                                                   minlength=len(corpus.tokens)).tolist()):
        if n:
            counts[token.stem] = counts.get(token.stem, 0) + n
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
    """Per entity, in corpus.entities order, the (pros, cons) sets of its
    reviewers' normalized items; each distinct item is normalized once."""
    items = [(set(), set()) for _ in corpus.entities]
    for review, entity in zip(corpus.reviews, corpus.entity.tolist()):
        items[entity][0].update(review.pros)
        items[entity][1].update(review.cons)
    return {entity_id: tuple({norm for norm in map(_normalize_gold_item, raw) if norm}
                             for raw in both)
            for entity_id, both in zip(corpus.entities, items)}


def load_wordlist(path) -> frozenset:
    """One lowercase stem per line; '#' comments and blanks ignored."""
    words = set()
    for _, line in numbered_lines(path):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)
