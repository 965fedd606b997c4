from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsum.evaluation import (
    EvalConfig,
    PairCounts,
    corpus_stats,
    entity_scores,
    evaluate,
    format_report_table,
    normalize_segments,
    normalize_text,
    segment_scores,
)
from segsum.patterns import SegmentTable

import oracles
from conftest import corpus_of, tagged_sentence

tokens = st.lists(st.sampled_from("abcde"), min_size=0, max_size=6).map(tuple)
nonempty = st.lists(st.sampled_from("abcde"), min_size=1, max_size=6).map(tuple)


def pr_pair(x, y):
    return PairCounts().pr_pair(x, y)


def pr_pair_oracle(x, y):
    return tuple(map(float, oracles.pr_oracle(list(x), list(y))))


def skip2(x, y):
    """The shared pair count of x and y (both 2 tokens or longer), read back
    from the precision m / C(|y|, 2) of PairCounts().pr_pair."""
    return round(pr_pair(x, y)[0] * comb(len(y), 2))


def tables(candidates):
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
    return evaluate(*tables(candidates), references, cfg)


class TestNormalize:
    def test_text_stemmed(self):
        assert normalize_text("Delicious Sauces!") == ("delici", "sauc")

    def test_text_surface(self):
        assert normalize_text("Delicious Sauces!", "surface_lower") == \
            ("delicious", "sauces")

    def test_apostrophes_kept(self):
        assert normalize_text("don't", "surface_lower") == ("don't",)

    def test_segment(self):
        # "Sauces" stems to "sauc": the two modes differ
        positive, negative = tables({"e": {"positive": [["Delicious", "Sauces"], ["Food"]],
                                           "negative": [["Rude", "staff"]]}})
        assert normalize_segments(positive) == [("delici", "sauc"), ("food",)]
        assert normalize_segments(positive, "surface_lower") == [("delicious", "sauces"),
                                                                ("food",)]
        assert normalize_segments(negative, "surface_lower") == [("rude", "staff")]
        assert normalize_segments(positive.take([])) == []


class TestSkip2:
    def test_self_match_is_choose2(self):
        x = ("a", "b", "c", "d")
        assert skip2(x, x) == comb(4, 2)

    def test_subsequence_example(self):
        x = ("easy", "to", "clean")
        y = ("very", "easy", "to", "clean")
        assert skip2(x, y) == 3

    def test_disjoint(self):
        assert skip2(("a", "b"), ("c", "d")) == 0

    def test_order_matters(self):
        assert skip2(("a", "b"), ("b", "a")) == 0

    def test_repeated_tokens_clip(self):
        # ("a","a") has one (a,a) pair; ("a","a","a") has three
        assert skip2(("a", "a"), ("a", "a", "a")) == 1
        assert skip2(("a", "a", "a"), ("a", "a")) == 1

    @given(nonempty, nonempty)
    def test_matches_greedy_oracle(self, x, y):
        assert pr_pair(x, y) == pr_pair_oracle(x, y)

    # three words: most draws repeat a word, and many repeat a pair
    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=8).map(tuple),
           st.lists(st.sampled_from("abc"), min_size=2, max_size=8).map(tuple))
    def test_shared_keys_count_equals_the_clipped_min_sum(self, x, y):
        m = oracles.clipped_pair_matches(x, y)
        assert pr_pair(x, y) == (m / comb(len(y), 2), m / comb(len(x), 2))

    @given(nonempty, nonempty)
    def test_symmetric_count(self, x, y):
        # P(X, Y) and R(Y, X) share their count and denominator C(|y|, 2)
        assert pr_pair(x, y) == pr_pair(y, x)[::-1]


class TestPrPair:
    def test_subsequence_example(self):
        x = ("easy", "to", "clean")
        y = ("very", "easy", "to", "clean")
        p, r = pr_pair(x, y)
        assert p == pytest.approx(3 / comb(4, 2))   # 1/2
        assert r == pytest.approx(1.0)

    def test_perfect_match(self):
        x = ("good", "food")
        assert pr_pair(x, x) == (1.0, 1.0)

    def test_singleton_fallback_hit(self):
        assert pr_pair(("clean",), ("very", "clean")) == (1.0, 1.0)
        assert pr_pair(("very", "clean"), ("clean",)) == (1.0, 1.0)

    def test_singleton_fallback_miss(self):
        assert pr_pair(("clean",), ("very", "dirty")) == (0.0, 0.0)

    def test_both_singletons(self):
        assert pr_pair(("a",), ("a",)) == (1.0, 1.0)
        assert pr_pair(("a",), ("b",)) == (0.0, 0.0)

    def test_empty(self):
        assert pr_pair((), ("a", "b")) == (0.0, 0.0)
        assert pr_pair(("a", "b"), ()) == (0.0, 0.0)

    @given(tokens, tokens)
    def test_matches_rational_oracle(self, x, y):
        assert pr_pair(x, y) == pr_pair_oracle(x, y)

    @given(tokens, tokens)
    def test_bounds(self, x, y):
        p, r = pr_pair(x, y)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= r <= 1.0


class TestSegmentScores:
    def test_argmax_recall_first_tie(self):
        reference = [("good", "food"), ("nice", "food"), ("good", "food", "here")]
        s = segment_scores(("good", "food"), reference, PairCounts())
        # items 0 and 2 both give recall 1.0; the first wins
        assert s.best_indices[0] == 0
        assert s.recall == 1.0
        assert s.precision == 1.0

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            segment_scores(("good", "food"), [], PairCounts())


class TestEntityScores:
    def test_hand_example(self):
        reference = [("good", "food"), ("rude", "staff")]
        candidates = [("good", "food"), ("bad", "wine")]
        e = entity_scores(candidates, reference, alpha=0.25, pair_counts=PairCounts())
        assert e.p_skip == pytest.approx(0.5)   # (1 + 0) / 2
        assert e.r_skip == pytest.approx(0.5)
        assert e.p_entity == pytest.approx(0.5)  # 1 of 2 candidates useful
        assert e.r_entity == pytest.approx(0.5)  # only 'good food' covered
        assert e.p_cb == pytest.approx(0.5)
        assert e.r_cb == pytest.approx(0.5)

    def test_perfect_candidates(self):
        reference = [("good", "food"), ("rude", "staff")]
        e = entity_scores(list(reference), reference, alpha=0.25, pair_counts=PairCounts())
        assert (e.p_skip, e.r_skip, e.p_entity, e.r_entity) == (1, 1, 1, 1)

    def test_no_candidates_flagged(self):
        e = entity_scores([], [("good", "food")], alpha=0.25, pair_counts=PairCounts())
        assert e.flagged_empty_candidate
        assert e.p_skip == e.r_skip == e.p_entity == e.r_entity == 0

    def test_alpha_monotonicity(self):
        reference = [("good", "food"), ("rude", "staff")]
        candidates = [("good", "food"), ("very", "good", "food"), ("bad", "wine")]
        loose = entity_scores(candidates, reference, alpha=0.1, pair_counts=PairCounts())
        strict = entity_scores(candidates, reference, alpha=0.9, pair_counts=PairCounts())
        assert strict.p_entity <= loose.p_entity
        assert strict.r_entity <= loose.r_entity

    @given(st.lists(nonempty, min_size=1, max_size=5),
           st.lists(nonempty, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_matches_oracle(self, candidates, reference):
        got = entity_scores(candidates, reference, alpha=0.25, pair_counts=PairCounts())
        want = oracles.entity_oracle([list(y) for y in candidates],
                                     [list(x) for x in reference], 0.25)
        assert got.p_skip == want["p_skip"]
        assert got.r_skip == want["r_skip"]
        assert got.p_entity == want["p_e"]
        assert got.r_entity == want["r_e"]
        assert got.p_cb == want["p_cb"]
        assert got.r_cb == want["r_cb"]


class TestCorpusStats:
    def test_micro_vs_macro(self):
        a = entity_scores([("good", "food")], [("good", "food")], 0.25, PairCounts())
        b = entity_scores([("bad", "wine"), ("ok", "decor")],
                          [("rude", "staff")], 0.25, PairCounts())
        stats = corpus_stats([a, b])
        # micro: 3 segments total, one with P=R=1
        assert stats.p_s == pytest.approx(1 / 3)
        assert stats.r_s == pytest.approx(1 / 3)
        # macro: mean over the two entities
        assert stats.p_e == pytest.approx((1.0 + 0.0) / 2)
        assert stats.p == pytest.approx((a.p_cb + b.p_cb) / 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            corpus_stats([])


class TestEvaluate:
    def refs(self):
        return {"e1": (["good food"], ["rude staff"]),
                "e2": (["nice wine"], ["slow service"])}

    def cands(self):
        return {
            "e1": {"positive": [["good", "food"]],
                   "negative": [["rude", "staff"]]},
            "e2": {"positive": [["nice", "wine"]],
                   "negative": [["bad", "service"]]},
        }

    def test_polarities_scored_separately(self):
        report = evaluate_map(self.cands(), self.refs())
        assert report.pros.stats.p_s == pytest.approx(1.0)
        assert report.pros.stats.r_s == pytest.approx(1.0)
        # cons: e1 perfect, e2 'bad service' vs 'slow service' shares no pair
        assert report.cons.stats.p_s == pytest.approx(0.5)

    def test_missing_reference_entity_skipped(self, caplog):
        import logging
        cands = self.cands()
        cands["e3"] = {"positive": [["x"]], "negative": []}
        with caplog.at_level(logging.WARNING):
            report = evaluate_map(cands, self.refs())
        assert report.skipped_entities == ["e3"]
        assert "e3" in caplog.text

    def test_entity_without_pros_excluded_from_pros_side(self):
        refs = self.refs()
        refs["e2"] = ([], ["slow service"])
        report = evaluate_map(self.cands(), refs)
        assert report.pros.excluded_no_reference == ["e2"]
        assert "e2" in report.cons.entities

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            evaluate_map({}, self.refs())

    def test_entity_without_candidates_is_scored(self):
        cands = self.cands()
        cands["e2"] = {"positive": [], "negative": []}
        report = evaluate_map(cands, self.refs())
        for side in (report.pros, report.cons):
            assert list(side.entities) == ["e1", "e2"]
            assert side.entities["e2"].num_candidates == 0
            assert side.entities["e2"].flagged_empty_candidate
        assert report.pros.stats.p_e == pytest.approx(0.5)

    def test_no_scorable_entities_raises(self):
        refs = {"e1": ([], []), "e2": ([], [])}
        with pytest.raises(ValueError):
            evaluate_map(self.cands(), refs)

    def test_stemming_bridges_inflection(self):
        cands = {"e1": {"positive": [["delicious", "sauces"]],
                        "negative": [["rude", "staff"]]}}
        refs = {"e1": (["Delicious Sauce"], ["rude staff"])}
        report = evaluate_map(cands, refs, EvalConfig(token_normalization="stemmed"))
        assert report.pros.stats.r_s == pytest.approx(1.0)
        surface = evaluate_map(cands, refs,
                           EvalConfig(token_normalization="surface_lower"))
        assert surface.pros.stats.r_s == pytest.approx(0.0)

    def test_report_serializes(self):
        report = evaluate_map(self.cands(), self.refs())
        d = report.to_dict()
        assert set(d) == {"pros", "cons", "skipped_entities"}
        table = format_report_table(report, "AW+SEN")
        assert "AW+SEN" in table and "P_s" in table

    def test_duplicate_references_deduplicate(self):
        refs = {"e1": (["Good  Food", "good food"], ["rude staff"])}
        cands = {"e1": {"positive": [["good", "food"]],
                        "negative": [["rude", "staff"]]}}
        report = evaluate_map(cands, refs)
        assert report.pros.entities["e1"].num_references == 1


class TestRandomInstances:
    def test_thousand_instances_match_oracle(self):
        import numpy as np
        rng = np.random.default_rng(2024)
        alphabet = list("abcdefg")
        for _ in range(200):
            n_cand = int(rng.integers(1, 5))
            n_ref = int(rng.integers(1, 4))
            cands = [tuple(rng.choice(alphabet, size=rng.integers(1, 6)))
                     for _ in range(n_cand)]
            refs = [tuple(rng.choice(alphabet, size=rng.integers(1, 6)))
                    for _ in range(n_ref)]
            got = entity_scores(cands, refs, alpha=0.25, pair_counts=PairCounts())
            want = oracles.entity_oracle([list(y) for y in cands],
                                         [list(x) for x in refs], 0.25)
            assert got.p_skip == want["p_skip"]
            assert got.r_skip == want["r_skip"]
            assert got.p_entity == want["p_e"]
            assert got.r_entity == want["r_e"]


def random_evaluation(rng):
    """A random candidate map and its references: few distinct words, so that
    texts repeat within and across entities and polarities; some texts are
    shorter than 2 tokens, some entities lack pros or cons or references."""
    words = ["good", "food", "bad", "wine", "slow", "staff"]

    def text():
        return [str(w) for w in rng.choice(words, size=int(rng.integers(1, 5)))]

    candidates, references = {}, {}
    for e in range(int(rng.integers(1, 6))):
        candidates[f"e{e}"] = {polarity: [text() for _ in range(rng.integers(0, 5))]
                               for polarity in ("positive", "negative")}
        if e == 0 or rng.random() < 0.8:
            references[f"e{e}"] = tuple(
                [" ".join(text()) for _ in range(rng.integers(e == 0, 4))]
                for _ in ("pros", "cons"))
    return candidates, references


@pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
def test_one_count_per_text_gives_the_report_of_pr_pair(monkeypatch, normalization):
    import numpy as np
    rng = np.random.default_rng(14)
    cfg = EvalConfig(token_normalization=normalization)
    for _ in range(100):
        candidates, references = random_evaluation(rng)
        counted = []
        with monkeypatch.context() as m:
            m.setattr(PairCounts, "__missing__",
                      lambda self, seq, count=PairCounts.__missing__:
                      counted.append(seq) or count(self, seq))
            got = evaluate_map(candidates, references, cfg).to_dict()
        assert len(counted) == len(set(counted))
        with monkeypatch.context() as m:
            m.setattr(PairCounts, "pr_pair", lambda self, x, y: pr_pair_oracle(x, y))
            want = evaluate_map(candidates, references, cfg).to_dict()
        assert got == want
