import re
import tracemalloc
import unicodedata
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsum.evaluation import (
    EvalConfig,
    corpus_stats,
    evaluate,
    format_report_table,
    normalize_text,
)
from segsum.stem import stem

import oracles
from conftest import candidate_tables, evaluate_map

nonempty = st.lists(st.sampled_from("abcde"), min_size=1, max_size=6).map(tuple)


def entry_of(candidates, reference, alpha=0.25):
    """The pros report entry of one entity whose candidates and reference
    items are the given word tuples, as evaluate scores them under
    surface_lower. evaluate sorts the items and drops repeats, so x_max
    indexes sorted(set(reference))."""
    cfg = EvalConfig(recall_threshold=alpha, token_normalization="surface_lower")
    report = evaluate_map({"e": {"positive": [list(y) for y in candidates], "negative": []}},
                          {"e": ([" ".join(x) for x in reference], ["x"])}, cfg)
    return report.pros.entities["e"]


def pr_pair(x, y):
    """(P, R) of candidate y against the one reference item x."""
    segment = entry_of([y], [x])["segments"][0]
    return segment["P"], segment["R"]


def pr_pair_oracle(x, y):
    return tuple(map(float, oracles.pr_oracle(list(x), list(y))))


def skip2(x, y):
    """The shared pair count of x and y (both 2 tokens or longer), read back
    from the precision m / C(|y|, 2) of y against x."""
    return round(pr_pair(x, y)[0] * comb(len(y), 2))


class TestNormalize:
    def test_text_stemmed(self):
        assert normalize_text("Delicious Sauces!") == ("delici", "sauc")

    def test_text_surface(self):
        assert normalize_text("Delicious Sauces!", "surface_lower") == \
            ("delicious", "sauces")

    def test_apostrophes_kept(self):
        assert normalize_text("don't", "surface_lower") == ("don't",)

    def test_letters_of_any_script_kept(self):
        assert normalize_text("Great café", "surface_lower") == ("great", "café")
        assert normalize_text("naïve staff", "surface_lower") == ("naïve", "staff")
        assert normalize_text("x_y 2ème", "surface_lower") == ("x", "y", "2ème")

    # decomposed accents, the dot that "İ".lower() adds, Devanagari vowel signs
    MARKED = [unicodedata.normalize("NFD", "naïve café"), "İstanbul", "हिंदी खाना"]

    @pytest.mark.parametrize("text", MARKED)
    def test_a_mark_continues_its_word(self, text):
        words = tuple(text.lower().split())
        assert any(unicodedata.category(c)[0] == "M" for c in "".join(words))
        assert normalize_text(text, "surface_lower") == words
        assert normalize_text(text) == tuple(map(stem, words))

    def test_a_mark_starts_no_word(self):
        assert normalize_text("\u0301a, \u0301 b\u0301", "surface_lower") == ("a", "b\u0301")

    @given(st.text(st.characters(max_codepoint=127)))
    def test_ascii_text_splits_at_the_ascii_pattern(self, text):
        assert normalize_text(text, "surface_lower") == \
            tuple(re.findall(r"(?:[^\W_]|')+", text.lower()))

    @pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
    def test_a_non_ascii_reference_matches_its_candidate(self, normalization):
        cands = {"e1": {"positive": [["great", "café"]], "negative": [["naïve", "staff"]]}}
        refs = {"e1": (["Great café"], ["naïve staff"])}
        report = evaluate_map(cands, refs, EvalConfig(token_normalization=normalization))
        for side in (report.pros, report.cons):
            assert (side.stats.p_s, side.stats.r_s) == (1.0, 1.0)

    @pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
    def test_a_marked_reference_matches_its_candidate(self, normalization):
        cands = {"e1": {"positive": [text.split() for text in self.MARKED[:2]],
                        "negative": [self.MARKED[2].split()]}}
        refs = {"e1": (self.MARKED[:2], self.MARKED[2:])}
        report = evaluate_map(cands, refs, EvalConfig(token_normalization=normalization))
        for side in (report.pros, report.cons):
            assert (side.stats.p_s, side.stats.r_s) == (1.0, 1.0)

    @pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
    def test_candidate_words_are_stems_or_lowercased_surfaces(self, normalization):
        # "Sauces" stems to "sauc": a candidate matches only the item of its
        # own words, stems or surfaces
        words = {"stemmed": "delici sauc", "surface_lower": "delicious sauces"}[normalization]
        cands = {"e": {"positive": [["Delicious", "Sauces"]], "negative": [["Food"]]}}
        report = evaluate_map(cands, {"e": ([words], ["food"])},
                              EvalConfig(token_normalization=normalization))
        assert report.pros.stats.r_s == report.cons.stats.r_s == 1.0


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
    def test_shared_count_equals_the_clipped_min_sum(self, x, y):
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
        # a gold item without words is dropped (a corpus holds no empty
        # sentence, so no segment is empty)
        entry = evaluate_map({"e": {"positive": [["a", "b"]], "negative": []}},
                             {"e": (["", " ", "!", "a b"], ["x"])}).pros.entities["e"]
        assert entry["num_references"] == 1

    @given(nonempty, nonempty)
    def test_matches_rational_oracle(self, x, y):
        assert pr_pair(x, y) == pr_pair_oracle(x, y)

    @given(nonempty, nonempty)
    def test_bounds(self, x, y):
        p, r = pr_pair(x, y)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= r <= 1.0


def assert_matches_oracle(got, want):
    """A report entry against oracles.entity_oracle, bit for bit: the six
    aggregates and each segment's P, R and x_max."""
    assert (got["P_skip"], got["R_skip"], got["P_E"], got["R_E"], got["P_cb"], got["R_cb"]) \
        == (want["p_skip"], want["r_skip"], want["p_e"], want["r_e"], want["p_cb"], want["r_cb"])
    assert got["segments"] == [{"P": p, "R": r, "x_max": i} for p, r, i in want["per_segment"]]


class TestEntityScores:
    def test_argmax_recall_first_tie(self):
        reference = [("nice", "wine"), ("food", "here"), ("good", "food")]
        e = entry_of([("good", "food", "here")], reference)
        # sorted, the items are "food here", "good food", "nice wine": the
        # first two both give recall 1.0; the first is x_max, and both are covered
        assert e["segments"] == [{"P": 1 / 3, "R": 1.0, "x_max": 0}]
        assert e["R_E"] == 2 / 3

    def test_empty_reference_raises(self):
        for candidates in ([["good", "food"]], []):
            with pytest.raises(ValueError):
                evaluate_map({"e": {"positive": candidates, "negative": candidates}},
                             {"e": ([], [])})

    def test_hand_example(self):
        reference = [("good", "food"), ("rude", "staff")]
        candidates = [("good", "food"), ("bad", "wine")]
        e = entry_of(candidates, reference, alpha=0.25)
        assert e["P_skip"] == pytest.approx(0.5)   # (1 + 0) / 2
        assert e["R_skip"] == pytest.approx(0.5)
        assert e["P_E"] == pytest.approx(0.5)  # 1 of 2 candidates useful
        assert e["R_E"] == pytest.approx(0.5)  # only 'good food' covered
        assert e["P_cb"] == pytest.approx(0.5)
        assert e["R_cb"] == pytest.approx(0.5)

    def test_perfect_candidates(self):
        reference = [("good", "food"), ("rude", "staff")]
        e = entry_of(list(reference), reference, alpha=0.25)
        assert (e["P_skip"], e["R_skip"], e["P_E"], e["R_E"]) == (1, 1, 1, 1)

    def test_no_candidates_scores_integer_zeros(self):
        e = entry_of([], [("good", "food")], alpha=0.25)
        assert e == {"P_skip": 0, "R_skip": 0, "P_E": 0, "R_E": 0, "P_cb": 0, "R_cb": 0,
                     "num_candidates": 0, "num_references": 1, "segments": []}
        assert all(type(v) is int for v in list(e.values())[:-1])

    def test_alpha_monotonicity(self):
        reference = [("good", "food"), ("rude", "staff")]
        candidates = [("good", "food"), ("very", "good", "food"), ("bad", "wine")]
        loose = entry_of(candidates, reference, alpha=0.1)
        strict = entry_of(candidates, reference, alpha=0.9)
        assert strict["P_E"] <= loose["P_E"]
        assert strict["R_E"] <= loose["R_E"]

    @given(st.lists(nonempty, min_size=1, max_size=5),
           st.lists(nonempty, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_matches_oracle(self, candidates, reference):
        got = entry_of(candidates, reference, alpha=0.25)
        assert_matches_oracle(got, oracles.entity_oracle([list(y) for y in candidates],
                                                         [list(x) for x in sorted(set(reference))],
                                                         0.25))


class TestCorpusStats:
    def test_micro_vs_macro(self):
        report = evaluate_map({"a": {"positive": [["good", "food"]], "negative": []},
                               "b": {"positive": [["bad", "wine"], ["ok", "decor"]],
                                     "negative": []}},
                              {"a": (["good food"], ["x"]), "b": (["rude staff"], ["x"])})
        a, b = report.pros.entities["a"], report.pros.entities["b"]
        stats = corpus_stats([a, b])
        assert stats == report.pros.stats
        # micro: 3 segments total, one with P=R=1
        assert stats.p_s == pytest.approx(1 / 3)
        assert stats.r_s == pytest.approx(1 / 3)
        # macro: mean over the two entities
        assert stats.p_e == pytest.approx((1.0 + 0.0) / 2)
        assert stats.p == pytest.approx((a["P_cb"] + b["P_cb"]) / 2)

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
            assert side.entities["e2"]["num_candidates"] == 0
            assert side.entities["e2"]["P_skip"] == 0
        assert report.pros.stats.p_e == pytest.approx(0.5)

    def test_no_scorable_entities_raises(self):
        refs = {"e1": ([], []), "e2": ([], [])}
        with pytest.raises(ValueError, match=r"all lacked pros references"):
            evaluate_map(self.cands(), refs)

    def test_a_side_without_references_is_named(self):
        refs = {"e1": (["good food"], []), "e2": (["nice wine"], [" "])}
        with pytest.raises(ValueError, match=r"^no scorable entities \(all lacked cons "
                                             r"references\)$"):
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
        assert report.pros.entities["e1"]["num_references"] == 1


class TestRandomInstances:
    def test_thousand_instances_match_oracle(self):
        # 200 entities of one evaluate, each checked against its own oracle
        rng = np.random.default_rng(2024)
        alphabet = list("abcdefg")
        candidates, references = {}, {}
        for e in range(200):
            candidates[f"e{e:03}"] = [tuple(rng.choice(alphabet, size=rng.integers(1, 6)))
                                      for _ in range(int(rng.integers(1, 5)))]
            references[f"e{e:03}"] = [tuple(rng.choice(alphabet, size=rng.integers(1, 6)))
                                      for _ in range(int(rng.integers(1, 4)))]
        report = evaluate_map(
            {e: {"positive": [list(map(str, y)) for y in c], "negative": []}
             for e, c in candidates.items()},
            {e: ([" ".join(x) for x in r], ["x"]) for e, r in references.items()},
            EvalConfig(token_normalization="surface_lower"))
        for e, cands in candidates.items():
            assert_matches_oracle(report.pros.entities[e], oracles.entity_oracle(
                [list(y) for y in cands], [list(x) for x in sorted(set(references[e]))], 0.25))


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


def assert_report_of_oracle(candidates, references, cfg):
    """evaluate's report dict is the oracle's, value for value and type for
    type, or both raise the same ValueError."""
    tables = candidate_tables(candidates)
    try:
        want = oracles.report_oracle(*tables, references, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            evaluate(*tables, references, cfg)
        return
    got = evaluate(*tables, references, cfg).to_dict()
    assert got == want
    assert oracles.typed_tree(got) == oracles.typed_tree(want)


@pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
def test_the_report_is_the_oracle_report(normalization):
    rng = np.random.default_rng(14)
    cfg = EvalConfig(token_normalization=normalization)
    for _ in range(100):
        assert_report_of_oracle(*random_evaluation(rng), cfg)


# three words, so that texts repeat words and pairs and candidates tie on
# recall; half the texts have 1 or 2 words
words = st.sampled_from(["good", "food", "sauces"])
texts = st.lists(words, min_size=1, max_size=2) | st.lists(words, min_size=3, max_size=6)


@st.composite
def evaluations(draw):
    """(candidates, references) of 1-4 entities: some without candidates on a
    side, some without references, some without pros or cons items."""
    candidates, references = {}, {}
    for e in range(draw(st.integers(1, 4))):
        candidates[f"e{e}"] = {polarity: draw(st.lists(texts, max_size=4))
                               for polarity in ("positive", "negative")}
        items = st.lists(texts.map(" ".join), max_size=3)
        refs = draw(st.none() | st.tuples(items, items))
        if refs is not None:
            references[f"e{e}"] = refs
    return candidates, references


@given(evaluations(), st.sampled_from(["stemmed", "surface_lower"]),
       st.sampled_from([0.25, 0.5, 1.0]))
@settings(max_examples=150)
def test_hypothesis_cases_give_the_oracle_report(case, normalization, alpha):
    assert_report_of_oracle(*case, EvalConfig(alpha, normalization))


@pytest.mark.parametrize("normalization", ["stemmed", "surface_lower"])
def test_long_candidate_lists_give_the_oracle_report(normalization):
    # hundreds of candidates per entity: their scores sum left to right, as
    # Python's sum adds them, and not as numpy's pairwise sum does
    rng = np.random.default_rng(32)
    words = ["good", "food", "bad", "wine", "slow", "staff", "nice", "sauces"]

    def text(low, high):
        return [str(w) for w in rng.choice(words, size=int(rng.integers(low, high)))]

    candidates = {f"e{e}": {polarity: [text(1, 7) for _ in range(rng.integers(100, 300))]
                            for polarity in ("positive", "negative")} for e in range(3)}
    references = {e: tuple([" ".join(text(2, 5)) for _ in range(6)] for _ in "pc")
                  for e in candidates}
    assert_report_of_oracle(candidates, references, EvalConfig(token_normalization=normalization))


def test_one_long_text_costs_its_own_pairs():
    # one 300-word candidate and one 300-word gold item among 1,600 short
    # texts: the pairs cost the sum of comb(length, 2) over the texts, about
    # 7 MB here, where padding every text to the longest took 310 MB
    rng = np.random.default_rng(33)
    vocab = [f"w{i}" for i in range(60)]

    def text(n):
        return [str(w) for w in rng.choice(vocab, size=n)]

    candidates = {f"e{e}": {polarity: [text(int(rng.integers(1, 5))) for _ in range(100)]
                            for polarity in ("positive", "negative")} for e in range(4)}
    candidates["e0"]["positive"].append(text(300))
    references = {e: tuple([" ".join(text(int(rng.integers(1, 5)))) for _ in range(100)]
                           for _ in "pc") for e in candidates}
    references["e1"][0].append(" ".join(text(300)))
    tables = candidate_tables(candidates)
    cfg = EvalConfig(token_normalization="surface_lower")
    tracemalloc.start()
    try:
        got = evaluate(*tables, references, cfg).to_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = oracles.report_oracle(*tables, references, cfg)
    assert got == want
    assert oracles.typed_tree(got) == oracles.typed_tree(want)
    assert peak < 20e6
