import json

import numpy as np
import pytest

from segsum import patterns
from segsum.corpus import Corpus, Sentence, make_token
from segsum.evaluation import evaluate
from segsum.patterns import SegmentTable


def corpus_of(reviews):
    """The Corpus of (id, entity_id, sentences) or (id, entity_id, sentences,
    pros, cons) tuples, sentences a list of Sentence: equal Tokens share one
    table entry, and empty sentences drop."""
    table, token_ids, sentence_starts, review_starts, records = {}, [], [0], [0], []
    for review_id, entity_id, sentences, *pros_cons in reviews:
        for sentence in sentences:
            token_ids += (table.setdefault(t, len(table)) for t in sentence.tokens)
            if sentence.tokens:
                sentence_starts.append(len(token_ids))
        review_starts.append(len(sentence_starts) - 1)
        pros, cons = pros_cons or ((), ())
        records.append((review_id, entity_id, list(pros), list(cons)))
    return Corpus(list(table), token_ids, sentence_starts, review_starts, records)


def corpus_fields(corpus):
    """Everything a Corpus holds, as lists: two corpora are equal if these are."""
    return (corpus.tokens, corpus.token_ids.tolist(), corpus.sentence_starts.tolist(),
            corpus.review_starts.tolist(), corpus.reviews)


def tagged_sentence(pairs, review_id="r1"):
    return Sentence([make_token(s, p) for s, p in pairs], review_id)


def sentence_table(specs):
    """A SegmentTable of one row per (pairs, negated, entity_id) spec: row i
    spans the whole one sentence of review r<i>, pairs (not empty) made into
    tokens, as pattern 5. Labels come from classify.label_aspects."""
    corpus = corpus_of([(f"r{i}", entity_id, [tagged_sentence(pairs, f"r{i}")])
                        for i, (pairs, _, entity_id) in enumerate(specs)])
    rows = np.arange(len(specs))
    return SegmentTable(corpus, corpus.sentence_starts[:-1], np.diff(corpus.sentence_starts),
                        rows, rows, np.full(len(specs), 5),
                        np.array([negated for _, negated, _ in specs], dtype=bool))


def candidate_tables(candidates):
    """(positive, negative) SegmentTables of a candidate map entity_id ->
    {"positive": [words], "negative": [words]}: one review per entity, in
    map order, its sentences the positive then the negative candidates, each
    word tagged NN and each sentence one pattern-5 row."""
    reviews, positive = [], []
    for i, (entity_id, lists) in enumerate(candidates.items()):
        sentences = []
        for polarity in ("positive", "negative"):
            sentences += [tagged_sentence([(w, "NN") for w in words], f"r{i}")
                          for words in lists[polarity]]
            positive += [polarity == "positive"] * len(lists[polarity])
        reviews.append((f"r{i}", entity_id, sentences))
    corpus = corpus_of(reviews)
    sentence = np.arange(corpus.num_sentences)
    table = SegmentTable(corpus, corpus.sentence_starts[:-1], np.diff(corpus.sentence_starts),
                         sentence, np.searchsorted(corpus.review_starts, sentence, "right") - 1,
                         np.full(len(sentence), 5), np.zeros(len(sentence), dtype=bool))
    positive = np.array(positive, dtype=bool)
    return table.take(positive), table.take(~positive)


def evaluate_map(candidates, references, cfg=None):
    return evaluate(*candidate_tables(candidates), references, cfg)


@pytest.fixture
def extractions(monkeypatch):
    """A list that gets one entry per extraction by regex from now on."""
    calls = []
    extract = patterns._extract
    monkeypatch.setattr(patterns, "_extract", lambda *args: calls.append(args) or extract(*args))
    return calls


@pytest.fixture
def sentence_factory():
    return tagged_sentence


@pytest.fixture
def tiny_corpus():
    """Two reviews of one restaurant, hand-tagged."""
    def review(rid, entity, sents, pros=(), cons=()):
        return rid, entity, [tagged_sentence(s, rid) for s in sents], pros, cons

    r1 = review("r1", "e1", [
        [("the", "DT"), ("food", "NN"), ("is", "VBZ"), ("delicious", "JJ")],
        [("very", "RB"), ("good", "JJ"), ("food", "NN")],
        [("the", "DT"), ("staff", "NN"), ("is", "VBZ"), ("rude", "JJ")],
    ], pros=["delicious food"], cons=["rude staff"])
    r2 = review("r2", "e1", [
        [("food", "NN"), ("is", "VBZ"), ("good", "JJ")],
        [("the", "DT"), ("staff", "NN"), ("is", "VBZ"), ("slow", "JJ")],
    ], pros=["good food", "Delicious  Food"], cons=["slow staff"])
    return corpus_of([r1, r2])


@pytest.fixture
def jsonl_corpus_file(tmp_path):
    def write(reviews, name="corpus.jsonl"):
        path = tmp_path / name
        with open(path, "w") as fh:
            for r in reviews:
                fh.write(json.dumps(r) + "\n")
        return path
    return write
