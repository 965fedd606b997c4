import json
import logging
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segsum import corpus as corpus_mod, stem
from segsum.corpus import (
    COLUMNS_FILE,
    CORPUS_FORMATS,
    DEFAULT_EXTRA_SENTIMENT,
    Corpus,
    CorpusBuilder,
    CorpusFormatError,
    Token,
    Vocabulary,
    build_reference_summaries,
    build_vocabulary,
    ingest_tagged,
    load_wordlist,
    make_token,
)
from segsum.model import encode_corpus
from segsum.synthetic import generate_text_reviews

from conftest import corpus_fields, corpus_of


class TestTokens:
    def test_adjective_is_sentiment_and_stemmed(self):
        t = make_token("delicious", "JJ")
        assert t.stem == "delici"
        assert t.is_sentiment

    def test_noun_is_not_sentiment(self):
        assert not make_token("coffee", "NN").is_sentiment

    def test_extra_list_overrides_tag(self):
        assert make_token("love", "VB").is_sentiment  # default extra list
        assert not make_token("love", "VB", extra_sentiment=frozenset()).is_sentiment

    def test_adverb_is_sentiment(self):
        assert make_token("really", "RB").is_sentiment

    def test_unknown_tag_warns_and_is_not_sentiment(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            t = make_token("weird", "XYZ")
        assert not t.is_sentiment
        assert "unknown POS tag" in caplog.text

    def test_stems_are_lowercase_table3_forms(self):
        for surface, expected in [("Beautiful", "beauti"), ("Romantic", "romant"),
                                  ("Sauces", "sauc"), ("atmosphere", "atmospher")]:
            t = make_token(surface, "NN")
            assert t.stem == expected
            assert t.stem == t.stem.lower() and t.stem

    def test_pure_function_of_inputs(self):
        assert make_token("great", "JJ") == make_token("great", "JJ")


class TestIngest:
    def test_jsonl_roundtrip(self, jsonl_corpus_file):
        path = jsonl_corpus_file([{
            "id": "a", "entity_id": "e",
            "sentences": [[["Great", "JJ"], ["food", "NN"]]],
            "pros": ["great food"], "cons": [],
        }])
        corpus = ingest_tagged(path, "jsonl")
        assert len(corpus.reviews) == 1
        tokens = corpus.reviews[0].sentences[0].tokens
        assert [t.stem for t in tokens] == ["great", "food"]
        assert [t.is_sentiment for t in tokens] == [True, False]

    def test_jsonl_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "entity_id": "e", "sentences": [[["x"]]]}\n')
        with pytest.raises(CorpusFormatError) as err:
            ingest_tagged(path, "jsonl")
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("field,value", [
        ("id", None), ("entity_id", True), ("id", 1.5),
        ("pros", ["fine", 3]), ("cons", {"a": "b"}), ("pros", "abc"),
        ("sentences", [["NN"]]), ("sentences", [[["food", "NN", "x"]]]),
        ("sentences", [[[1, "NN"]]]), ("sentences", [[["food", None]]]),
        ("sentences", [[["good"]]]), ("sentences", [["abc"]]), ("sentences", [[5]]),
        ("sentences", {}), ("sentences", ""), ("sentences", [{}]), ("sentences", [""]),
    ])
    def test_ill_typed_field_names_the_line(self, jsonl_corpus_file, field, value):
        record = {"id": "a", "entity_id": 7, "sentences": [[["Great", "JJ"], ["food", "NN"]]],
                  "pros": ["great food"], "cons": []}
        path = jsonl_corpus_file([record, {**record, field: value}])
        message = ":2: bad review record: "
        if field == "sentences" and value and type(value[0]) is list:
            # one sentence of one malformed token: the whole message names it
            token = value[0][0]
            message += re.escape(f"token {token!r} is not a [surface, tag] pair of strings") + "$"
        with pytest.raises(CorpusFormatError, match=message):
            ingest_tagged(path, "jsonl")
        assert ingest_tagged(jsonl_corpus_file([record]), "jsonl").reviews[0].entity_id == "7"

    # json.dumps writes each lone surrogate as its escape, which json.loads
    # reads back as a lone surrogate: a string that no output can hold
    @pytest.mark.parametrize("field,value,what", [
        ("id", "r\ud800", "id or entity_id"), ("entity_id", "\udfff", "id or entity_id"),
        ("pros", ["fine", "caf\udc00"], "pros or cons item"),
        ("cons", ["\ud83d"], "pros or cons item"),
        ("sentences", [[["Great", "JJ"], ["bad\ud800", "NN"]]], "token surface or tag"),
        ("sentences", [[["Great", "JJ\udfff"]]], "token surface or tag"),
    ])
    def test_a_lone_surrogate_names_the_line(self, jsonl_corpus_file, field, value, what):
        record = {"id": "a", "entity_id": "e", "sentences": [[["Great", "JJ"], ["food", "NN"]]],
                  "pros": ["great food"], "cons": []}
        path = jsonl_corpus_file([record, {**record, field: value}])
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:2: bad review record: {what} ") + r"'.*' holds a lone surrogate"):
            ingest_tagged(path, "jsonl")

    def test_a_surrogate_pair_is_one_character(self, jsonl_corpus_file):
        # the escapes of a pair decode to the one character they encode
        record = {"id": "\U0001f600", "entity_id": "e", "pros": ["café \U0001f600"],
                  "cons": [], "sentences": [[["\U0001f600", "NN"], ["good", "JJ"]]]}
        corpus = ingest_tagged(jsonl_corpus_file([record]), "jsonl")
        assert corpus.reviews[0].id == "\U0001f600"
        assert corpus.tokens[0].surface == "\U0001f600"

    # a surface of whitespace only is as empty: it would make a blank stem a word
    @pytest.mark.parametrize("surface", ["", " ", "\t\u00a0"])
    @pytest.mark.parametrize("sentences", [[[["?", "NN"]]], [[["food", "NN"], ["?", "JJ"]]]])
    def test_an_empty_surface_names_the_line(self, jsonl_corpus_file, sentences, surface):
        sentences = [[[surface if s == "?" else s, tag] for s, tag in sent] for sent in sentences]
        record = {"id": "a", "entity_id": "e", "sentences": [[["Great", "JJ"]]]}
        path = jsonl_corpus_file([record, {**record, "sentences": sentences}])
        with pytest.raises(CorpusFormatError, match=re.escape(
                f"{path}:2: bad review record: token [{surface!r}, ")
                + r"'(NN|JJ)'\] has an empty surface$"):
            ingest_tagged(path, "jsonl")

    @pytest.mark.parametrize("surface", ["", " ", "\u00a0 "])
    def test_an_empty_conll_surface_names_the_line(self, tmp_path, surface):
        path = tmp_path / "c.conll"
        path.write_text(f"#REVIEW r1 e1\nGreat\tJJ\n{surface}\tNN\n")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:3: ") + ".*non-empty"):
            ingest_tagged(path, "conll")

    def test_crlf_line_endings_are_read_as_line_ends(self, tmp_path):
        path = tmp_path / "c.conll"
        path.write_bytes(b"#REVIEW r1 e1\r\nGreat\tJJ\r\nfood\tNN\r\n")
        tokens = ingest_tagged(path, "conll").reviews[0].sentences[0].tokens
        assert [(t.surface, t.pos) for t in tokens] == [("Great", "JJ"), ("food", "NN")]

    def test_conll_format(self, tmp_path):
        path = tmp_path / "c.conll"
        path.write_text(
            "#REVIEW r1 e1\n"
            "#PROS good food\n"
            "#CONS slow service\n"
            "Great\tJJ\nfood\tNN\n\n"
            "slow\tJJ\nservice\tNN\n"
        )
        corpus = ingest_tagged(path, "conll")
        review = corpus.reviews[0]
        assert review.entity_id == "e1"
        assert len(review.sentences) == 2
        assert review.pros == ["good food"]
        assert review.cons == ["slow service"]

    def test_conll_bad_token_line(self, tmp_path):
        path = tmp_path / "c.conll"
        path.write_text("#REVIEW r1 e1\nno-tab-here\n")
        with pytest.raises(CorpusFormatError) as err:
            ingest_tagged(path, "conll")
        assert ":2:" in str(err.value)

    # a header is told by its whole first field: a misspelled one is a token
    # line without a tab, or a token line before #REVIEW
    @pytest.mark.parametrize("lines, lineno", [
        (["#REVIEW r1 e1", "#PROSE good food", "Great\tJJ"], 2),
        (["#REVIEW r1 e1", "#CONSX slow", "Great\tJJ"], 2),
        (["#REVIEWS r1 e1", "Great\tJJ"], 1),
        (["#REVIEW r1 e1", "Great\tJJ", "#REVIEWS r2 e1", "food\tNN"], 3),
    ])
    def test_a_misspelled_conll_header_names_its_line(self, tmp_path, lines, lineno):
        path = tmp_path / "c.conll"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:{lineno}: ")):
            ingest_tagged(path, "conll")


# (surface, tag) pairs that repeat within a sentence, across sentences and
# across reviews; one surface under two tags, and two surfaces of one stem
SHARED_REVIEWS = [
    {"id": "r1", "entity_id": "e1", "pros": ["great food"], "cons": [],
     "sentences": [[["Great", "JJ"], ["food", "NN"], ["fine", "JJ"], ["food", "NN"]],
                   [["fine", "NN"], ["Foods", "NNS"], ["foods", "NNS"]]]},
    {"id": "r2", "entity_id": "e2", "pros": [], "cons": ["slow staff"],
     "sentences": [[["slow", "JJ"], ["staff", "NN"], ["Great", "JJ"], ["food", "NN"]]]},
]


def write_reviews(tmp_path, format, reviews):
    """reviews (JSONL records) written in the given corpus format."""
    path = tmp_path / f"corpus.{format}"
    if format == "jsonl":
        path.write_text("".join(json.dumps(r) + "\n" for r in reviews), encoding="utf-8")
    else:
        path.write_text("".join(
            f"#REVIEW {r['id']} {r['entity_id']}\n"
            + "".join(f"#PROS {item}\n" for item in r["pros"])
            + "".join(f"#CONS {item}\n" for item in r["cons"])
            + "\n".join("".join(f"{surface}\t{tag}\n" for surface, tag in sent)
                        for sent in r["sentences"]) + "\n"
            for r in reviews), encoding="utf-8")
    return path


@pytest.mark.parametrize("format", CORPUS_FORMATS)
class TestSharedTokens:
    def test_one_token_object_per_distinct_surface_and_tag(self, tmp_path, format):
        corpus = ingest_tagged(write_reviews(tmp_path, format, SHARED_REVIEWS), format)
        tokens = [t for review in corpus.reviews for sentence in review.sentences
                  for t in sentence.tokens]
        assert [(t.surface, t.pos) for t in tokens] == [
            tuple(pair) for r in SHARED_REVIEWS for sent in r["sentences"] for pair in sent]
        by_pair = {(t.surface, t.pos): t for t in tokens}
        assert len(tokens) == 11 and len(by_pair) == 8
        assert len({id(t) for t in tokens}) == 8
        assert all(t is by_pair[t.surface, t.pos] for t in tokens)
        assert all(t == make_token(t.surface, t.pos) for t in tokens)

    def test_a_corpus_ingested_twice_is_equal(self, tmp_path, format):
        path = write_reviews(tmp_path, format, SHARED_REVIEWS)
        first, second = ingest_tagged(path, format), ingest_tagged(path, format)
        assert corpus_fields(first) == corpus_fields(second)
        # each ingest has a dict of its own
        assert first.reviews[0].sentences[0].tokens[0] is not \
            second.reviews[0].sentences[0].tokens[0]
        vocab = build_vocabulary(first, min_count=1, stopwords=frozenset())
        assert all(np.array_equal(a, b) for a, b in zip(encode_corpus(first, vocab),
                                                        encode_corpus(second, vocab)))

    @pytest.mark.parametrize("pairs, warnings", [
        ([("weird", "XYZ")] * 3, 1),
        ([("weird", "XYZ"), ("odd", "XYZ"), ("weird", "XYZ")], 2),
    ])
    def test_unknown_tag_warns_once_per_distinct_pair(self, tmp_path, caplog, format,
                                                      pairs, warnings):
        # each unknown pair on a line of its own: a record, or a token line
        reviews = [{"id": f"r{i}", "entity_id": "e", "pros": [], "cons": [],
                    "sentences": [[list(pair), ["food", "NN"]]]}
                   for i, pair in enumerate(pairs)]
        with caplog.at_level(logging.WARNING, logger="segsum.corpus"):
            ingest_tagged(write_reviews(tmp_path, format, reviews), format)
        assert sum("unknown POS tag" in r.getMessage() for r in caplog.records) == warnings


def test_corpus_builder_keeps_one_token_table():
    builder = CorpusBuilder(DEFAULT_EXTRA_SENTIMENT)
    for record in SHARED_REVIEWS:
        builder.add(record)
    corpus = builder.corpus()
    pairs = [tuple(pair) for r in SHARED_REVIEWS for sent in r["sentences"] for pair in sent]
    # the table in first-seen order, and each token's index into it
    assert [(t.surface, t.pos) for t in corpus.tokens] == list(dict.fromkeys(pairs))
    assert [corpus.tokens[i] for i in corpus.token_ids] == [make_token(*p) for p in pairs]
    assert corpus.sentence_starts.tolist() == [0, 4, 7, 11]
    assert corpus.review_starts.tolist() == [0, 2, 3]
    first, second = corpus.reviews
    assert second.sentences[0].tokens[2] is first.sentences[0].tokens[0]   # ("Great", "JJ")
    # (surface, tag) tuples, which no JSON record holds, give the same corpus
    builder = CorpusBuilder(DEFAULT_EXTRA_SENTIMENT)
    for record in SHARED_REVIEWS:
        builder.add({**record, "sentences": [list(map(tuple, sent))
                                             for sent in record["sentences"]]})
    assert corpus_fields(builder.corpus()) == corpus_fields(corpus)


@pytest.mark.parametrize("reviews", [
    SHARED_REVIEWS, generate_text_reviews(num_entities=3, reviews_per_entity=4)],
    ids=["shared", "text"])
def test_jsonl_and_conll_ingest_to_equal_corpora(tmp_path, reviews):
    jsonl, conll = (ingest_tagged(write_reviews(tmp_path, format, reviews), format)
                    for format in ("jsonl", "conll"))
    assert corpus_fields(jsonl) == corpus_fields(conll)
    for corpus in (jsonl, conll):
        tokens = [t for review in corpus.reviews for sentence in review.sentences
                  for t in sentence.tokens]
        assert len({id(t) for t in tokens}) == len({(t.surface, t.pos) for t in tokens})


# -- the columns preprocess writes, loaded in place of a parse ----------------
#
# integer ids, non-ASCII pros, cons and surfaces, an empty sentence, a review
# without sentences, and unknown tags (one of them twice); the last sentence
# has more than one token
COLUMN_REVIEWS = SHARED_REVIEWS + [
    {"id": 7, "entity_id": 3, "pros": ["crème brûlée", "日本"], "cons": ["naïve  service"],
     "sentences": [[["Café", "NN"], ["weird", "XYZ"]], [],
                   [["très", "FW"], ["odd", "ZZ"], ["weird", "XYZ"]]]},
    {"id": "r4", "entity_id": "e1", "pros": [], "cons": [], "sentences": [[], []]},
    {"id": "r5", "entity_id": "e2", "pros": ["ok"], "cons": [],
     "sentences": [[["good", "JJ"], ["staff", "NN"]]]},
]


def _warnings(caplog):
    """The corpus module's warnings caplog holds, as (level, message); then
    clears it."""
    records = [(r.levelname, r.getMessage()) for r in caplog.records
               if r.name == "segsum.corpus"]
    caplog.clear()
    return records


@pytest.fixture
def parses(monkeypatch):
    """A list that gets one entry per parse, in either format, from now on."""
    calls = []
    for name in ("_ingest_jsonl", "_ingest_conll"):
        parse = getattr(corpus_mod, name)
        monkeypatch.setattr(corpus_mod, name,
                            lambda *args, parse=parse: calls.append(args) or parse(*args))
    return calls


@pytest.fixture
def columns(tmp_path, caplog):
    """A function of format: (corpus path, output directory, the parse and its
    warnings) after an ingest into the new directory parsed COLUMN_REVIEWS
    and wrote it to the directory's COLUMNS_FILE under its key."""
    def write(format):
        path = write_reviews(tmp_path, format, COLUMN_REVIEWS)
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="segsum.corpus"):
            parsed = ingest_tagged(path, format, DEFAULT_EXTRA_SENTIMENT, out)
        return path, out, parsed, _warnings(caplog)
    return write


def _loads_without_a_parse(parses, caplog, path, format, extra, out, want, warned):
    """The next ingest into out, once it is asserted to load want from its
    COLUMNS_FILE and to warn what the parse warned."""
    del parses[:]
    with caplog.at_level(logging.WARNING, logger="segsum.corpus"):
        loaded = ingest_tagged(path, format, extra, out)
    assert parses == []
    assert corpus_fields(loaded) == corpus_fields(want)
    assert _warnings(caplog) == warned
    return loaded


def test_without_an_output_dir_the_ingest_only_parses(tmp_path, parses, monkeypatch):
    path = write_reviews(tmp_path, "jsonl", COLUMN_REVIEWS)
    for name in ("content_key", "keep_columns", "write_file"):
        monkeypatch.setattr(corpus_mod, name, lambda *a, **k: pytest.fail("columns touched"))
    ingest_tagged(path, "jsonl")
    assert len(parses) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@pytest.mark.parametrize("format", CORPUS_FORMATS)
def test_loaded_columns_equal_the_parse_and_warn_as_it_does(columns, parses, caplog, format):
    path, out, parsed, warned = columns(format)
    assert len(parses) == 1   # no file yet: the fixture's ingest parsed
    assert corpus_fields(parsed) == corpus_fields(ingest_tagged(path, format))
    assert [m for _, m in warned] == [
        "unknown POS tag 'XYZ' for token 'weird'; treated as non-sentiment",
        "unknown POS tag 'ZZ' for token 'odd'; treated as non-sentiment"]
    caplog.clear()
    loaded = _loads_without_a_parse(parses, caplog, path, format, DEFAULT_EXTRA_SENTIMENT, out,
                                    parsed, warned)
    assert [r.id for r in loaded.reviews] == ["r1", "r2", "7", "r4", "r5"]
    assert loaded.reviews[2].entity_id == "3"
    assert (loaded.token_ids.dtype, loaded.sentence_starts.dtype,
            loaded.review_starts.dtype) == (np.int32, np.int64, np.int64)
    assert all(type(t.is_sentiment) is bool for t in loaded.tokens)
    # no temporary file is left beside it
    assert sorted(p.name for p in out.iterdir()) == [COLUMNS_FILE]


def _changed_byte(path):
    data = path.read_bytes()
    path.write_bytes(data.replace(b"slow", b"slaw", 1))


@pytest.mark.parametrize("format", CORPUS_FORMATS)
@pytest.mark.parametrize("stale", ["corpus byte", "extra_sentiment", "format", "corpus.py",
                                   "stem.py"])
def test_a_stale_key_falls_back_to_the_parse(columns, parses, caplog, tmp_path, monkeypatch,
                                             format, stale):
    path, out, _, _ = columns(format)
    extra, read_as = DEFAULT_EXTRA_SENTIMENT, format
    if stale == "corpus byte":
        _changed_byte(path)
    elif stale == "extra_sentiment":
        extra = DEFAULT_EXTRA_SENTIMENT | {"food"}
    elif stale == "format":
        read_as = "conll" if format == "jsonl" else "jsonl"
    else:
        module = corpus_mod if stale == "corpus.py" else stem
        source = tmp_path / stale
        source.write_bytes(pathlib.Path(module.__file__).read_bytes() + b"\n")
        monkeypatch.setattr(module, "__file__", str(source))
    del parses[:]
    if stale == "format":
        # the file read in the other format does not parse, and stays as it was
        before = (out / COLUMNS_FILE).read_bytes()
        with pytest.raises(CorpusFormatError, match=f"{path}:1: "):
            ingest_tagged(path, read_as, extra, out)
        assert len(parses) == 1
        assert (out / COLUMNS_FILE).read_bytes() == before
        return
    with caplog.at_level(logging.WARNING, logger="segsum.corpus"):
        got = ingest_tagged(path, read_as, extra, out)
        got_warnings = _warnings(caplog)
        fresh = ingest_tagged(path, read_as, extra)
    assert len(parses) == 2
    assert corpus_fields(got) == corpus_fields(fresh)
    assert got_warnings == _warnings(caplog)
    if stale == "extra_sentiment":
        assert any(t.is_sentiment for t in got.tokens if t.stem == "food")
    # the parse replaced the file: it holds the corpus under the new key
    _loads_without_a_parse(parses, caplog, path, read_as, extra, out, fresh, got_warnings)


def _rewrite(path, edit):
    """Apply edit to the arrays of the npz file at path, and write them back."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _set(name, value):
    return lambda path: _rewrite(path, lambda a: a.__setitem__(name, value(a)))


def _text(name, edit):
    def value(arrays):
        return np.frombuffer(json.dumps(edit(json.loads(arrays[name].tobytes()))).encode(),
                             dtype=np.uint8)
    return _set(name, value)


def _with(name, index, value):
    def edited(arrays):
        array = arrays[name].copy()
        array[index] = value(arrays)
        return array
    return _set(name, edited)


BROKEN = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-100]),
    "empty": lambda path: path.write_bytes(b""),
    "not a zip": lambda path: path.write_text("not a zip file"),
    "a member missing": lambda path: _rewrite(path, lambda a: a.pop("review_starts")),
    "an object array": _set("token_ids", lambda a: a["token_ids"].astype(object)),
    "ids of another dtype": _set("token_ids", lambda a: a["token_ids"].astype(np.int64)),
    "2-D starts": _set("sentence_starts", lambda a: a["sentence_starts"][:, None]),
    "a negative id": _with("token_ids", 0, lambda a: -1),
    "an id out of range": _with("token_ids", -1,
                                lambda a: len(json.loads(a["table"].tobytes()))),
    "sentence_starts not from 0": _with("sentence_starts", 0, lambda a: 1),
    "sentence_starts short of the end": _with("sentence_starts", -1,
                                              lambda a: a["sentence_starts"][-1] - 1),
    "an empty sentence": _with("sentence_starts", 1, lambda a: 0),
    "review_starts not from 0": _with("review_starts", 0, lambda a: 1),
    "review_starts short of the end": _with("review_starts", -1,
                                            lambda a: a["review_starts"][-1] - 1),
    "review_starts decreasing": _with("review_starts", 1, lambda a: a["review_starts"][2] + 1),
    "one record too few": _text("records", lambda records: records[:-1]),
    "a record too short": _text("records", lambda records: [r[:3] for r in records]),
    "a table entry too short": _text("table", lambda table: [e[:3] for e in table]),
    "the key as JSON text": _set("key", lambda a: np.frombuffer(
        json.dumps(a["key"].tobytes().decode()).encode(), dtype=np.uint8)),
}


@pytest.mark.parametrize("format", CORPUS_FORMATS)
@pytest.mark.parametrize("break_file", BROKEN.values(), ids=BROKEN.keys())
def test_a_broken_file_under_the_right_key_falls_back_to_the_parse(columns, parses, caplog,
                                                                   format, break_file):
    path, out, parsed, warned = columns(format)
    break_file(out / COLUMNS_FILE)
    del parses[:]
    with caplog.at_level(logging.WARNING, logger="segsum.corpus"):
        got = ingest_tagged(path, format, DEFAULT_EXTRA_SENTIMENT, out)
    assert len(parses) == 1
    assert corpus_fields(got) == corpus_fields(parsed)
    assert _warnings(caplog) == warned
    # the parse replaced the broken file
    _loads_without_a_parse(parses, caplog, path, format, DEFAULT_EXTRA_SENTIMENT, out, parsed,
                           warned)


def test_a_missing_corpus_is_an_error_beside_its_columns(columns):
    path, out, _, _ = columns("jsonl")
    path.unlink()
    with pytest.raises(FileNotFoundError, match=str(path)):
        ingest_tagged(path, "jsonl", DEFAULT_EXTRA_SENTIMENT, out)


ENTITY_REVIEWS = [
    {"id": f"r{i}", "entity_id": entity_id, "pros": [], "cons": [],
     "sentences": [[["good", "JJ"], ["food", "NN"]]]}
    for i, entity_id in enumerate([10, "café", 9, "b", 10, "Zoë", "café"])]


@pytest.mark.parametrize("format", CORPUS_FORMATS)
def test_entities_are_the_sorted_entity_ids_of_the_reviews(tmp_path, parses, format):
    def oracle(corpus):
        ids = [review.entity_id for review in corpus.reviews]
        return sorted(set(ids)), [sorted(set(ids)).index(entity_id) for entity_id in ids]

    path = write_reviews(tmp_path, format, ENTITY_REVIEWS)
    parsed = ingest_tagged(path, format, DEFAULT_EXTRA_SENTIMENT, tmp_path / "out")
    loaded = ingest_tagged(path, format, DEFAULT_EXTRA_SENTIMENT, tmp_path / "out")
    assert len(parses) == 1   # the second ingest loaded the columns
    (tmp_path / "part").mkdir()
    part = ingest_tagged(write_reviews(tmp_path / "part", format, [
        r for r in ENTITY_REVIEWS if r["entity_id"] != "café"]), format)
    for corpus in (parsed, loaded, part, Corpus([], [], [0], [0], [])):
        assert (corpus.entities, corpus.entity.tolist()) == oracle(corpus)
        assert corpus.entity.dtype == np.int64
    assert parsed.entities == ["10", "9", "Zoë", "b", "café"]
    assert part.entities == ["10", "9", "Zoë", "b"]


class TestVocabulary:
    def test_forced_partition_by_tag(self, sentence_factory):
        sent = sentence_factory([("good", "JJ"), ("food", "NN")])
        corpus = corpus_of([("r", "e", [sent])])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        assert vocab.aspect_stems == ["food"]
        assert vocab.senti_stems == ["good"]

    def test_min_count_threshold(self, tiny_corpus):
        vocab = build_vocabulary(tiny_corpus, min_count=2, stopwords=frozenset())
        assert "staff" in vocab.aspect_index      # occurs twice
        assert "delici" not in vocab.senti_index  # occurs once
        assert vocab.drop_reasons["delici"] == "below_min_count"

    def test_stopwords_only_hit_aspect_channel(self, tiny_corpus):
        vocab = build_vocabulary(tiny_corpus, min_count=1, stopwords={"the", "good"})
        assert "the" not in vocab.aspect_index
        assert vocab.drop_reasons["the"] == "stopword"
        # "good" is a sentiment stem; stopword list does not touch it
        assert "good" in vocab.senti_index

    def test_default_stopwords_drop_by_stem(self, sentence_factory):
        # "they", "was" and "this" stem to "thei", "wa" and "thi"
        sent = sentence_factory([("they", "PRP"), ("was", "VBD"), ("this", "DT"),
                                 ("food", "NN"), ("has", "VBZ"), ("good", "JJ")])
        vocab = build_vocabulary(corpus_of([("r", "e", [sent])]), min_count=1)
        assert vocab.aspect_stems == ["food"]
        assert {vocab.drop_reasons[s] for s in ("thei", "wa", "thi", "ha")} == {"stopword"}

    def test_index_spaces_disjoint(self, tiny_corpus):
        vocab = build_vocabulary(tiny_corpus, min_count=1, stopwords=frozenset())
        assert not set(vocab.aspect_index) & set(vocab.senti_index)

    def test_every_token_mapped_or_reason_recorded(self, tiny_corpus):
        vocab = build_vocabulary(tiny_corpus, min_count=2)
        for sentence in (s for r in tiny_corpus.reviews for s in r.sentences):
            for token in sentence.tokens:
                if token.stem not in vocab.codes:
                    assert vocab.drop_reasons[token.stem] in ("stopword", "below_min_count")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(corpus_of([]), 1)

    def test_stem_in_both_lists_is_a_sentiment_word(self, sentence_factory):
        from segsum.classify import label_aspects
        from segsum.corpus import Vocabulary
        from segsum.model import PosteriorEstimates
        from segsum.patterns import extract_corpus

        vocab = Vocabulary.from_dict({"aspect_stems": ["food", "good"],
                                      "senti_stems": ["good"]})
        sent = sentence_factory([("good", "JJ"), ("food", "NN"), ("good", "NN")])
        # V = 2 aspect words, so sentiment id 0 codes 2, and the pad is 3
        assert vocab.encode(sent.tokens).tolist() == [2, 0, 2, 3]

        corpus = corpus_of([("r", "e", [sent])])
        flat = encode_corpus(corpus, vocab)
        assert (flat.aspect.tolist(), flat.senti.tolist()) == ([0], [0, 0])

        est = PosteriorEstimates(pi_hat=np.full((1, 2), 0.5), theta_hat=np.ones((1, 1)),
                                 phi_hat=np.full((1, 2), 0.5),
                                 phi_prime_hat=np.ones((2, 1, 1)))
        # the whole sentence is one segment (pattern 5, jj nn nn); sentiment
        # id 0 codes V + 0 = 2, aspect id 0 codes 0
        labeled, _ = label_aspects(extract_corpus(corpus, {5}), est, vocab)
        assert (labeled.start.tolist(), labeled.length.tolist()) == ([0], [3])
        assert labeled.codes.tolist() == [[2, 0, 2]]


VOCAB_STEMS = ["food", "wait", "good", "bad"]


@settings(max_examples=200, deadline=None)
@given(aspect=st.lists(st.sampled_from(VOCAB_STEMS), unique=True),
       senti=st.lists(st.sampled_from(VOCAB_STEMS), unique=True),
       stems=st.lists(st.sampled_from(VOCAB_STEMS + ["oov"])))
@example(aspect=[], senti=["good", "bad"], stems=["bad", "oov", "good"])     # V = 0
@example(aspect=["wait", "food"], senti=[], stems=["food", "oov", "wait"])   # V' = 0
@example(aspect=["good", "food"], senti=["bad", "good"], stems=["good", "food", "bad", "oov"])
@example(aspect=["food"], senti=["good"], stems=[])                          # empty table
def test_encode_codes_aspect_then_sentiment_indices_then_the_pad(aspect, senti, stems):
    # a stem in both lists (only from_dict can give one) is a sentiment word
    vocab = Vocabulary.from_dict({"aspect_stems": aspect, "senti_stems": senti})
    V, pad = len(aspect), len(aspect) + len(senti)
    want = [V + vocab.senti_index[s] if s in vocab.senti_index else vocab.aspect_index.get(s, pad)
            for s in stems]
    codes = vocab.encode([Token(s, s, "NN", False) for s in stems])
    assert codes.dtype == np.int64 and codes.tolist() == want + [pad]


class TestReferenceSummaries:
    def test_case_insensitive_dedup(self, tiny_corpus):
        refs = build_reference_summaries(tiny_corpus)
        pros, cons = refs["e1"]
        assert pros == {"delicious food", "good food"}
        assert cons == {"rude staff", "slow staff"}

    def test_entity_without_pros(self, sentence_factory):
        corpus = corpus_of([("r", "e", [sentence_factory([("ok", "JJ")])])])
        pros, cons = build_reference_summaries(corpus)["e"]
        assert pros == set() and cons == set()

    def test_set_union(self):
        corpus = corpus_of([
            ("r1", "e", [], ["a", "b"], []),
            ("r2", "e", [], ["b", "c"], []),
        ])
        pros, _ = build_reference_summaries(corpus)["e"]
        assert pros == {"a", "b", "c"}


def test_load_wordlist(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# comment\ngood\n\nbad\n")
    assert load_wordlist(path) == {"good", "bad"}


# (word, stem) pairs of Porter's algorithm as published (Porter, 1980): the
# stems decide the vocabulary, which seed words and stopwords match
PORTER_VECTORS = """
caresses caress ponies poni ties ti caress caress cats cat feed feed agreed agre
plastered plaster bled bled motoring motor sing sing conflated conflat
troubled troubl sized size hopping hop tanned tan falling fall hissing hiss
fizzed fizz failing fail filing file happy happi sky sky relational relat
conditional condit rational ration valenci valenc hesitanci hesit
digitizer digit conformabli conform radicalli radic differentli differ
vileli vile analogousli analog vietnamization vietnam predication predic
operator oper feudalism feudal decisiveness decis hopefulness hope
callousness callous formaliti formal sensitiviti sensit sensibiliti sensibl
triplicate triplic formative form formalize formal electriciti electr
electrical electr hopeful hope goodness good revival reviv allowance allow
inference infer airliner airlin gyroscopic gyroscop adjustable adjust
defensible defens irritant irrit replacement replac adjustment adjust
dependent depend adoption adopt homologou homolog communism commun
activate activ angulariti angular homologous homolog effective effect
bowdlerize bowdler probate probat rate rate cease ceas controll control
roll roll generalization gener oscillators oscil they thei
""".split()


@pytest.mark.parametrize("word,expected", zip(PORTER_VECTORS[::2], PORTER_VECTORS[1::2]))
def test_stemmer_gives_the_published_stems(word, expected):
    assert stem.stem(word) == expected


def test_default_seed_words_are_stems_of_their_words():
    from segsum.model import DEFAULT_NEGATIVE_SEEDS, DEFAULT_POSITIVE_SEEDS
    positive = "good great nice excellent love best amazing".split()
    negative = "bad terrible awful hate worst poor disappointed".split()
    assert DEFAULT_POSITIVE_SEEDS == frozenset(map(stem.stem, positive))
    assert DEFAULT_NEGATIVE_SEEDS == frozenset(map(stem.stem, negative))


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
               min_size=1, max_size=15))
def test_stemmer_output_is_lowercase_nonempty_prefix_like(word):
    s = stem.stem(word)
    assert s and s == s.lower()
    assert len(s) <= len(word) + 1  # step 1b can append an 'e'
