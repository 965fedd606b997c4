"""patterns.extract_corpus, classify.label_aspects and filters.run_procedure
work on a SegmentTable, all its rows at once over arrays of their codes; the
per-sentence extractor and the per-segment scorers and filters in oracles.py
are the reference. Both extract their segments from the same generated
corpora. Segments, aspects, sentiments, polarities, ranks and the order of
the survivors must be equal, to the last bit."""

import itertools
import json
import math
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsum import patterns
from segsum.classify import POSITIVE, PolarityLexicon, label_aspects
from segsum.corpus import Vocabulary, ingest_tagged, make_token
from segsum.filters import (CLASSIFIER_STAGES, FILTER_STAGES, FilterConfig, ProcedureError,
                            parse_procedure, run_procedure)
from segsum.model import PosteriorEstimates
from segsum.patterns import DEFAULT_NEGATION, SEGMENTS_FILE, extract_corpus
from segsum.synthetic import generate_text_reviews

import oracles
from conftest import corpus_of, tagged_sentence

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff", "wine"],
                   senti_stems=["bad", "good", "nice", "rude"])
PAD = VOCAB.num_aspect_words + VOCAB.num_senti_words
# "good" tagged NN is in the vocabulary but no sentiment token for SWN;
# "unknownword", "wonderful" (a sentiment token), "very", "is", "to", "clean"
# and "the" are outside it; "not", "never" and "n't" are negation triggers
WORDS = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("wine", "NN"), ("bad", "JJ"),
         ("good", "JJ"), ("nice", "JJ"), ("rude", "JJ"), ("good", "NN"), ("unknownword", "NN"),
         ("wonderful", "JJ"), ("very", "RB"), ("nice", "RB"), ("is", "VBZ"), ("to", "TO"),
         ("clean", "VB"), ("the", "DT"), ("not", "RB"), ("never", "RB"), ("n't", "RB")]


def _accepted(stages):
    try:
        parse_procedure("+".join(stages))
    except ProcedureError:
        return False
    return True


# every order of every set of filter stages around one classifier
PROCEDURES = sorted({"+".join(stages)
                     for n in range(len(FILTER_STAGES) + 1)
                     for chosen in itertools.permutations(FILTER_STAGES, n)
                     for classifier in CLASSIFIER_STAGES
                     for at in range(n + 1)
                     for stages in [chosen[:at] + (classifier,) + chosen[at:]]
                     if _accepted(stages)})


def normalized(rng, shape):
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def make_corpus(pool, reviews):
    """The corpus of (entity_id, sentence numbers) reviews over a pool of
    sentences, each a list of (surface, tag) pairs; review i is r<i>."""
    return corpus_of([(f"r{i}", entity_id, [tagged_sentence(pool[j], f"r{i}") for j in sentences])
                      for i, (entity_id, sentences) in enumerate(reviews)])


def random_model(rng, T, tied=False):
    """(estimates, y_senti, lexicon) over VOCAB; the lexicon also scores the
    sentiment token "wonderful" outside the vocabulary."""
    phi_hat = normalized(rng, (T, VOCAB.num_aspect_words))
    phi_prime_hat = normalized(rng, (2, T, VOCAB.num_senti_words))
    if tied:   # every argmax ties
        phi_hat[:] = phi_hat[0]
        phi_prime_hat[:] = phi_prime_hat[:, :1]
    est = PosteriorEstimates(normalized(rng, (1, 2)), normalized(rng, (1, T)), phi_hat,
                             phi_prime_hat)
    y_senti = rng.normal(size=(2, VOCAB.num_senti_words))
    y_senti[:, rng.random(VOCAB.num_senti_words) < 0.3] = 0.0
    lexicon = PolarityLexicon({make_token(w, "JJ").stem: float(rng.normal())
                               for w in ("good", "bad", "nice", "wonderful")})
    return est, y_senti, lexicon


def assert_procedure_equals_the_oracle(procedure, table, segs, est, y_senti, lexicon, config):
    """run_procedure on table keeps what oracles.run_procedure keeps of segs,
    with the same labels."""
    pos, neg = run_procedure(procedure, table, est, y_senti=y_senti, lexicon=lexicon,
                             config=config)
    o_pos, o_neg = oracles.run_procedure(parse_procedure(procedure), segs, est, y_senti,
                                         lexicon, config)
    oracles.assert_rows_equal(pos, o_pos)
    oracles.assert_rows_equal(neg, o_neg)


# the words of each class letter of patterns.TAG_CLASSES (X: negation
# trigger, O: other), in and outside the vocabulary
CLASS_WORDS = {
    "N": [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("wine", "NN"), ("good", "NN"),
          ("unknownword", "NN")],
    "V": [("is", "VBZ"), ("clean", "VB")],
    "J": [("bad", "JJ"), ("good", "JJ"), ("nice", "JJ"), ("rude", "JJ"), ("wonderful", "JJ")],
    "R": [("very", "RB"), ("nice", "RB")],
    "X": [("not", "RB"), ("never", "RB"), ("n't", "RB")],
    "D": [("the", "DT")], "T": [("to", "TO")], "O": [("and", "CC")]}
# shapes of the five patterns, plain and negated, and stray letters; each
# letter stands for a run of 1-3 words of its class, so that R and N runs
# outrun the word limit and out-of-vocabulary words fall inside segments
SHAPES = ["XJN", "RJN", "NVXJ", "NXVJ", "NVJ", "JN", "RXJTV", "NVDRJN", "NVRJTV", "RJTVN",
          "XXJN", "O", "N", "J", "V", "X"]


def _shape(letters):
    runs = st.tuples(*(st.lists(st.sampled_from(CLASS_WORDS[c]), min_size=1, max_size=3)
                       for c in letters))
    return runs.map(lambda runs: [pair for run in runs for pair in run])


SENTENCE = st.lists(st.sampled_from(SHAPES).flatmap(_shape), min_size=1, max_size=4).map(
    lambda chunks: [pair for chunk in chunks for pair in chunk])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_path_equals_the_per_segment_oracles(data):
    T = data.draw(st.sampled_from([1, 2, 3, 5]), label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    est, y_senti, lexicon = random_model(rng, T, data.draw(st.booleans(), label="tied topics"))
    # a few distinct sentences, so that equal segments tie in rank
    pool = data.draw(st.lists(SENTENCE, min_size=1, max_size=5), label="sentences")
    sentences = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)
    reviews = data.draw(st.lists(st.tuples(st.sampled_from("abc"), sentences),
                                 min_size=1, max_size=8), label="reviews")
    pattern_ids = data.draw(st.just({1, 2, 3, 4, 5}) | st.sets(st.integers(1, 5), min_size=1),
                            label="pattern ids")
    max_words = data.draw(st.integers(2, 10), label="max_words")
    corpus = make_corpus(pool, reviews)

    table = extract_corpus(corpus, pattern_ids, max_words)
    segs = oracles.extract_per_sentence(corpus, pattern_ids, max_words)
    oracles.assert_rows_equal(table, segs)

    labeled, dropped = label_aspects(table, est, VOCAB)
    o_labeled, o_dropped = oracles.label_aspects(segs, oracles.topic_weights(est), VOCAB)
    oracles.assert_rows_equal(labeled, o_labeled)
    oracles.assert_rows_equal(dropped, o_dropped)

    procedure = data.draw(st.sampled_from(PROCEDURES), label="procedure")
    config = FilterConfig(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)),
                          data.draw(st.sampled_from([0.1, 0.5, 0.75, 1.0])))
    assert_procedure_equals_the_oracle(procedure, labeled, o_labeled, est, y_senti, lexicon,
                                       config)
    # the procedures also take rows without ids that carry an aspect
    aspects = rng.integers(T, size=len(dropped))
    for seg, aspect in zip(o_dropped, aspects.tolist()):
        seg.aspect = aspect
    assert_procedure_equals_the_oracle(procedure, replace(dropped, aspect=aspects), o_dropped,
                                       est, y_senti, lexicon, config)


def test_every_procedure_equals_the_per_segment_oracles():
    rng = np.random.default_rng(5)
    est, y_senti, lexicon = random_model(rng, 3)
    pool = [[WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(2, 14))]
            for _ in range(12)]
    corpus = make_corpus(pool, [("abc"[rng.integers(3)], rng.integers(0, 12, 6).tolist())
                                for _ in range(30)])
    labeled, _ = label_aspects(extract_corpus(corpus, {1, 2, 3, 4, 5}), est, VOCAB)
    config = FilterConfig(2, 2, 0.5)
    assert len(labeled) > 50
    for procedure in PROCEDURES:
        segs = oracles.extract_per_sentence(corpus, {1, 2, 3, 4, 5})
        o_labeled, _ = oracles.label_aspects(segs, oracles.topic_weights(est), VOCAB)
        assert_procedure_equals_the_oracle(procedure, labeled, o_labeled, est, y_senti, lexicon,
                                           config)


# -- fixed traps ---------------------------------------------------------------

def one_segment(pairs, est, max_words=7):
    """The labelled table of the one segment that the sentence of pairs holds
    (it must hold exactly one, which label_aspects keeps), and its oracle
    Segment, labelled too."""
    corpus = corpus_of([("r", "e", [tagged_sentence(pairs, "r")])])
    labeled, _ = label_aspects(extract_corpus(corpus, {1, 2, 3, 4, 5}, max_words), est, VOCAB)
    [seg] = oracles.extract_per_sentence(corpus, {1, 2, 3, 4, 5}, max_words)
    oracles.label_aspects([seg], oracles.topic_weights(est), VOCAB)
    assert len(labeled) == 1 and len(seg) == len(pairs)
    return labeled, seg


def the_segment(procedure, table, est, **kwargs):
    """The one row that procedure keeps of table, as a Segment."""
    pos, neg = run_procedure(procedure, table, est, **kwargs)
    [seg] = oracles.table_segments(pos) + oracles.table_segments(neg)
    return seg


def test_out_of_vocabulary_tokens_pad_in_place_and_do_not_count():
    # "unknownword" is outside the vocabulary, between two words in it
    est, y_senti, _ = random_model(np.random.default_rng(3), 2)
    table, seg = one_segment([("good", "JJ"), ("unknownword", "NN"), ("food", "NN")], est)
    good, food = VOCAB.num_aspect_words + VOCAB.senti_index["good"], VOCAB.aspect_index["food"]
    assert table.codes.tolist() == [[good, PAD, food]]
    got = the_segment("Baseline+SEN", table, est, y_senti=y_senti)
    [want] = sum(oracles.run_procedure(("Baseline", "SEN"), [seg], est, y_senti, None,
                                       FilterConfig()), [])
    j, k = want.sentiment, want.aspect
    assert got == want and got.rank == want.rank == (
        math.log(est.phi_prime_hat[j, k, VOCAB.senti_index["good"]])
        + math.log(est.phi_hat[k, VOCAB.aspect_index["food"]])) / 2


@pytest.mark.parametrize("procedure", ["Baseline+SEN", "Baseline+SWN"])
def test_a_negated_segment_without_sentiment_words_keeps_minus_zero(procedure):
    est, y_senti, lexicon = random_model(np.random.default_rng(4), 2)
    # "not" and "wonderful" are sentiment tokens outside the vocabulary and the lexicon
    table, seg = one_segment([("not", "RB"), ("wonderful", "JJ"), ("food", "NN")], est)
    assert seg.negated
    got = the_segment(procedure, table, est, y_senti=y_senti,
                      lexicon=PolarityLexicon({"good": 1.0}))
    assert got.sentiment == POSITIVE and got.polarity == 0.0
    assert math.copysign(1.0, got.polarity) == -1.0


def test_a_lexicon_score_of_minus_zero_adds_to_plus_zero(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("good\t-0\n")
    lexicon = PolarityLexicon.from_tsv(path)
    assert math.copysign(1.0, lexicon.score("good")) == -1.0
    est, _, _ = random_model(np.random.default_rng(5), 2)
    for pairs, sign in (([("good", "JJ"), ("food", "NN")], 1.0),
                        ([("not", "RB"), ("good", "JJ"), ("food", "NN")], -1.0)):
        table, seg = one_segment(pairs, est)
        got = the_segment("Baseline+SWN", table, est, lexicon=lexicon)
        [want] = sum(oracles.run_procedure(("Baseline", "SWN"), [seg], est, None, lexicon,
                                           FilterConfig()), [])
        assert got.sentiment == POSITIVE and got == want
        assert math.copysign(1.0, got.polarity) == math.copysign(1.0, want.polarity) == sign


# Nine words in one segment: numpy's sum regroups 8 or more terms pairwise,
# and on some hosts np.log differs from libm's log in the last bit. Each
# trap first checks that it is set, that is, that the shortcut gives another
# answer. The segments are pattern 5 (rb* jj nn): "wonderful", outside the
# vocabulary, ahead of nine nouns, or eight adverbs and an adjective ahead of
# "unknownword".

ASPECT_9 = ["food", "staff", "decor", "wine", "room", "menu", "bar", "view", "price"]
SENTI_9 = ["bad", "good", "nice", "rude", "cold", "warm", "fresh", "dull", "slow"]
VOCAB_9 = Vocabulary(aspect_stems=sorted(ASPECT_9), senti_stems=sorted(SENTI_9))
NOUNS_9 = [("wonderful", "JJ")] + [(w, "NN") for w in ASPECT_9]
ADJECTIVES_9 = [(w, "RB") for w in SENTI_9[:-1]] + [(SENTI_9[-1], "JJ"), ("unknownword", "NN")]


def labelled_9(pairs, est):
    """The labelled table of the one segment of the sentence of pairs."""
    corpus = corpus_of([("r", "e", [tagged_sentence(pairs, "r")])])
    labeled, _ = label_aspects(extract_corpus(corpus, {5}, max_words=10), est, VOCAB_9)
    assert labeled.length.tolist() == [10]
    return labeled


def left_to_right(values):
    total = 0.0
    for value in values:
        total += float(value)
    return total


def estimates_9(phi_hat, phi_prime_hat=None):
    T = len(phi_hat)
    if phi_prime_hat is None:
        phi_prime_hat = np.full((2, T, 9), 1 / 9)
    return PosteriorEstimates(np.full((1, 2), 0.5), np.full((1, T), 1 / T), phi_hat,
                              phi_prime_hat)


def aspect_ids(words):
    return [VOCAB_9.aspect_index[w] for w in words]


def test_topic_scores_add_left_to_right():
    # topic 0's nine log weights sum to a below np.sum's b; topic 1 scores
    # one weight t with a < t < b, and log 1 = 0 for the other eight words
    for seed in range(100_000):
        phi = np.ones((2, 9))
        phi[0] = np.random.default_rng(seed).random(9) * 0.9 + 0.05
        weights = np.log(phi)[0][aspect_ids(ASPECT_9)]
        a, b = left_to_right(weights), float(np.sum(weights))
        if b - a < 3 * math.ulp(b):
            continue
        p = math.exp((a + b) / 2)
        for _ in range(50):
            phi[1, VOCAB_9.aspect_index[ASPECT_9[0]]] = p
            weights = oracles.topic_weights(estimates_9(phi))["aspect"]
            t = weights[VOCAB_9.aspect_index[ASPECT_9[0]], 1]
            if a < t < b:
                break
            p = float(np.nextafter(p, 1.0 if t <= a else 0.0))
        else:
            continue
        break
    est = estimates_9(phi)
    rows = oracles.topic_weights(est)["aspect"][aspect_ids(ASPECT_9)]
    # the trap is set: summed pairwise per topic, topic 0 wins
    assert int(np.argmax(np.sum(np.ascontiguousarray(rows.T), axis=1))) == 0
    [twin] = oracles.table_segments(labelled_9(NOUNS_9, est))
    twin.aspect = None
    oracles.label_aspects([twin], oracles.topic_weights(est), VOCAB_9)
    assert labelled_9(NOUNS_9, est).aspect.tolist() == [twin.aspect] == [1]


def test_polarity_adds_left_to_right():
    for seed in itertools.count():
        y_senti = np.zeros((2, 9))
        y_senti[0] = np.random.default_rng(seed).normal(size=9) * 10.0 ** np.arange(-4, 5)
        terms = y_senti[0][[VOCAB_9.senti_index[w] for w in SENTI_9]]
        if left_to_right(terms) != np.sum(terms):   # the trap is set
            break
    est = estimates_9(np.full((1, 9), 1 / 9))
    seg = the_segment("Baseline+SEN", labelled_9(ADJECTIVES_9, est), est, y_senti=y_senti)
    seg.ids = oracles.segment_ids(seg, VOCAB_9)
    assert seg.polarity == left_to_right(terms) == oracles.classify_sentiment_sen(seg, y_senti)[1]


def test_rank_adds_left_to_right():
    for seed in itertools.count():
        phi = np.random.default_rng(seed).random((1, 9)) ** 8 + 1e-9
        logs = [math.log(p) for p in phi[0][aspect_ids(ASPECT_9)]]
        if left_to_right(logs) != np.sum(logs):   # the trap is set
            break
    est = estimates_9(phi)
    seg = the_segment("Baseline+SWN", labelled_9(NOUNS_9, est), est, lexicon=PolarityLexicon())
    seg.ids = oracles.segment_ids(seg, VOCAB_9)
    assert seg.rank == left_to_right(logs) / 9 == oracles.rank_score(seg, est)


def test_rank_takes_libm_logs():
    candidates = np.random.default_rng(0).random(20_000) * 0.9 + 0.05
    differ = candidates[np.log(candidates) != [math.log(p) for p in candidates.tolist()]]
    # a probability that np.log logs differently in a row of nine of it
    p = next((p for p in differ.tolist() if (np.log(np.full((1, 9), p)) != math.log(p)).any()),
             None)
    if p is None:
        pytest.skip("np.log gives libm's log for every candidate on this host")
    est = estimates_9(np.full((1, 9), p))
    seg = the_segment("Baseline+SWN", labelled_9(NOUNS_9, est), est, lexicon=PolarityLexicon())
    seg.ids = oracles.segment_ids(seg, VOCAB_9)
    assert seg.rank == left_to_right([math.log(p)] * 9) / 9 == oracles.rank_score(seg, est)
    assert seg.rank != left_to_right(np.log(est.phi_hat)[0]) / 9   # the trap is set


def test_a_zero_probability_raises():
    phi_prime_hat = np.full((2, 1, 9), 1 / 9)
    phi_prime_hat[:, 0, VOCAB_9.senti_index["good"]] = 0.0
    est = estimates_9(np.full((1, 9), 1 / 9), phi_prime_hat)
    corpus = corpus_of([("r", "e", [tagged_sentence([("good", "JJ"), ("food", "NN")], "r")])])
    with np.errstate(divide="ignore"):
        labeled, _ = label_aspects(extract_corpus(corpus, {5}), est, VOCAB_9)
    assert len(labeled) == 1
    with pytest.raises(ValueError):
        run_procedure("Baseline+SWN", labeled, est, lexicon=PolarityLexicon())


# -- extract once: a corpus read into an output directory keeps its segments --

COLUMNS = ("start", "length", "sentence", "review", "pattern_id", "negated")


def assert_same_columns(table, want):
    for name in COLUMNS:
        got, expected = getattr(table, name), getattr(want, name)
        assert (got.dtype, got.tolist()) == (expected.dtype, expected.tolist()), name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_miss_and_then_a_hit_give_the_live_extraction(data):
    pool = data.draw(st.lists(SENTENCE, min_size=1, max_size=5), label="sentences")
    sentences = st.lists(st.integers(0, len(pool) - 1), max_size=5)
    reviews = data.draw(st.lists(st.tuples(st.sampled_from("abc"), sentences),
                                 min_size=1, max_size=8), label="reviews")
    pattern_ids = data.draw(st.sets(st.integers(1, 5), min_size=1), label="pattern ids")
    max_words = data.draw(st.integers(1, 10), label="max_words")
    corpus = make_corpus(pool, reviews)
    live = extract_corpus(corpus, pattern_ids, max_words)
    corpus.key = "the corpus key"
    with tempfile.TemporaryDirectory() as out:
        missed = extract_corpus(corpus, pattern_ids, max_words, output_dir=out)
        assert os.path.exists(os.path.join(out, SEGMENTS_FILE))
        with mock.patch.object(patterns, "compile_patterns", side_effect=AssertionError):
            hit = extract_corpus(corpus, pattern_ids, max_words, output_dir=out)
    for table in (missed, hit):
        assert table.corpus is corpus
        assert_same_columns(table, live)
    assert list(hit) == list(live)


def write_reviews(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in generate_text_reviews(2, 4)))
    return path


def test_a_corpus_without_a_key_is_extracted_and_not_kept(tmp_path, extractions):
    keyless = ingest_tagged(write_reviews(tmp_path))
    assert keyless.key is None
    assert ingest_tagged(tmp_path / "corpus.jsonl", output_dir=tmp_path / "in").key is not None
    for _ in range(2):
        assert_same_columns(extract_corpus(keyless, {1, 3, 5}, output_dir=tmp_path / "out"),
                            extract_corpus(keyless, {1, 3, 5}))
    assert len(extractions) == 4
    assert not (tmp_path / "out" / SEGMENTS_FILE).exists()


# each change of a part of the key: a superset of the pattern ids, a larger
# max_words and one more negation word keep every row that the file holds
# valid, so that only the key tells the extractions apart
KEY_CHANGES = {
    "pattern ids": lambda args: args.update(pattern_ids={1, 2, 3, 5}),
    "max_words": lambda args: args.update(max_words=8),
    "negation words": lambda args: args.update(negation_words=DEFAULT_NEGATION | {"nor"}),
    "corpus bytes": lambda args: None,
}


@pytest.mark.parametrize("change", KEY_CHANGES)
def test_each_part_of_the_key_forces_a_fresh_extraction(tmp_path, extractions, change):
    path, out = write_reviews(tmp_path), tmp_path / "out"
    args = {"pattern_ids": {1, 3, 5}, "max_words": 7, "negation_words": DEFAULT_NEGATION}
    corpus = ingest_tagged(path, output_dir=out)
    extract_corpus(corpus, **args, output_dir=out)
    before = np.load(out / SEGMENTS_FILE)["key"].tobytes()
    KEY_CHANGES[change](args)
    if change == "corpus bytes":   # a blank line: the same corpus under another key
        with open(path, "a") as fh:
            fh.write("\n")
        corpus = ingest_tagged(path, output_dir=out)
    del extractions[:]
    got = extract_corpus(corpus, **args, output_dir=out)
    assert len(extractions) == 1
    assert np.load(out / SEGMENTS_FILE)["key"].tobytes() != before
    assert_same_columns(got, extract_corpus(corpus, **args))
    # the file written is the next extraction's
    del extractions[:]
    assert_same_columns(extract_corpus(corpus, **args, output_dir=out), got)
    assert extractions == []


def _rewritten(edit):
    """A spoiling of the file: its columns (and key) rewritten after edit(columns, corpus)."""
    def spoil(path, corpus):
        with np.load(path) as npz:
            columns = dict(npz)
        edit(columns, corpus)
        with open(path, "wb") as fh:
            np.savez(fh, **columns)
    return spoil


def _truncate(path, corpus):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _set(name, row, value):
    """A spoiling that sets columns[name][row] to value(columns, corpus)."""
    return _rewritten(lambda columns, corpus: columns[name].__setitem__(row, value(columns, corpus)))


# each spoils the file that extract_corpus(corpus, {1, 3, 5}, 7) wrote
SPOILED_FILES = {
    "truncated": _truncate,
    "start of another dtype": _rewritten(
        lambda columns, _: columns.update(start=columns["start"].astype(np.int32))),
    "negated one row short": _rewritten(
        lambda columns, _: columns.update(negated=columns["negated"][:-1])),
    # the last row, which no row follows that it could overlap
    "a row past its sentence": _set("start", -1, lambda columns, corpus: (
        corpus.sentence_starts[columns["sentence"][-1] + 1] - columns["length"][-1] + 1)),
    "a length above max_words": _set("length", -1, lambda *_: 8),
    "a review not its sentence's": _set("review", 0, lambda columns, _: columns["review"][0] + 1),
    "a pattern not asked for": _set("pattern_id", 0, lambda *_: 2),
    "a sentence outside the corpus": _set("sentence", 0, lambda _, corpus: corpus.num_sentences),
    "a row twice": _rewritten(lambda columns, _: columns.update(
        {name: np.insert(column, 1, column[0]) for name, column in columns.items()
         if name != "key"})),
}


@pytest.mark.parametrize("spoil", SPOILED_FILES)
def test_a_spoiled_file_is_extracted_again_and_rewritten(tmp_path, extractions, spoil):
    out = tmp_path / "out"
    corpus = ingest_tagged(write_reviews(tmp_path), output_dir=out)
    live = extract_corpus(corpus, {1, 3, 5}, 7)
    extract_corpus(corpus, {1, 3, 5}, 7, output_dir=out)
    SPOILED_FILES[spoil](out / SEGMENTS_FILE, corpus)
    del extractions[:]
    assert_same_columns(extract_corpus(corpus, {1, 3, 5}, 7, output_dir=out), live)
    assert len(extractions) == 1
    assert_same_columns(extract_corpus(corpus, {1, 3, 5}, 7, output_dir=out), live)
    assert len(extractions) == 1
