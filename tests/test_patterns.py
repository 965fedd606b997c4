import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segsum.corpus import Sentence, Token
from segsum.patterns import (
    DEFAULT_NEGATION,
    PRESETS,
    compile_patterns,
    extract_corpus,
    resolve_pattern_ids,
)

import oracles
from conftest import corpus_of

ALL_IDS = frozenset({1, 2, 3, 4, 5})
ALL = compile_patterns(ALL_IDS)
_, FORMS = ALL


def extract_sentence(sentence, pattern_ids=ALL_IDS, **kwargs):
    return list(extract_corpus(corpus_of([("r", "e", [sentence])]), pattern_ids, **kwargs))


def segments_of(sentence_factory, pairs, pattern_ids=ALL_IDS, **kwargs):
    return extract_sentence(sentence_factory(pairs), pattern_ids, **kwargs)


class TestPatternDefinitions:
    def test_golden_regexes(self):
        # every form of the five patterns, in match order
        assert [(f.pattern_id, f.negated, f.regex) for f in FORMS] == [
            (1, True, "N*(?<!X)XVD?R*JN+"),
            (1, True, "N*VD?R*(?<!X)XJN+"),
            (1, False, "N*VD?R*JN+"),
            (2, True, "N*(?<!X)XVR*JTV"),
            (2, True, "N*VR*(?<!X)XJTV"),
            (2, True, "N*VR*JT(?<!X)XV"),
            (2, False, "N*VR*JTV"),
            (4, True, "R*(?<!X)XJTVN*"),
            (4, True, "R*JT(?<!X)XVN*"),
            (4, False, "R*JTVN*"),
            (3, True, "N*(?<!X)XVR*J"),
            (3, True, "N*VR*(?<!X)XJ"),
            (3, False, "N*VR*J"),
            (5, True, "R*(?<!X)XJN+"),
            (5, False, "R*JN+"),
        ]
        # one alternation tries them in that order, one group per form, after
        # a lookahead on the letters that start a form (the brute-force
        # oracle below finds no match that starts with another letter)
        assert ALL[0].pattern == "(?=[JNRVX])(?:" + "|".join(f"({f.regex})" for f in FORMS) + ")"

    def test_presets(self):
        assert PRESETS["service"] == {1, 3, 5}
        assert PRESETS["product"] == {1, 2, 3, 4, 5}

    def test_resolve_pattern_ids(self):
        assert resolve_pattern_ids("service") == {1, 3, 5}
        assert resolve_pattern_ids("1,3,5") == {1, 3, 5}
        with pytest.raises(ValueError):
            resolve_pattern_ids("1,9")
        with pytest.raises(ValueError):
            resolve_pattern_ids("fancy")


class TestGoldenExamples:
    """The example strings from the pattern table, hand-tagged."""

    def test_pattern_1(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("instruction", "NN"), ("booklet", "NN"), ("includes", "VBZ"),
            ("clear", "JJ"), ("instruction", "NN")])
        assert len(segs) == 1
        assert segs[0].pattern_id == 1
        assert segs[0].text == "instruction booklet includes clear instruction"

    def test_pattern_2(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("filter", "NN"), ("basket", "NN"), ("is", "VBZ"),
            ("simple", "JJ"), ("to", "TO"), ("remove", "VB")])
        assert [s.pattern_id for s in segs] == [2]

    def test_pattern_3(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("design", "NN"), ("is", "VBZ"), ("striking", "JJ")])
        assert [s.pattern_id for s in segs] == [3]

    def test_pattern_4(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("easy", "JJ"), ("to", "TO"), ("clean", "VB")])
        assert [s.pattern_id for s in segs] == [4]

    def test_pattern_5(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("very", "RB"), ("good", "JJ"), ("food", "NN")])
        assert [s.pattern_id for s in segs] == [5]

    def test_no_adjective_no_match(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("the", "DT"), ("coffee", "NN"), ("machine", "NN")])
        assert segs == []


class TestLongestMatch:
    def test_pattern_1_consumes_span_from_pattern_5(self, sentence_factory):
        # "clear instruction" (jj nn) lies inside the pattern-1 match and
        # must not surface as a separate pattern-5 segment
        pairs = [("booklet", "NN"), ("includes", "VBZ"), ("clear", "JJ"),
                 ("instruction", "NN")]
        segs = segments_of(sentence_factory, pairs)
        assert [s.pattern_id for s in segs] == [1]
        inside = segments_of(sentence_factory, pairs, {5})
        assert inside and inside[0].pattern_id == 5  # 5 alone would match

    def test_priority_3_over_5_is_moot_but_1_beats_both(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("food", "NN"), ("is", "VBZ"), ("really", "RB"), ("good", "JJ"),
            ("value", "NN")])
        assert [s.pattern_id for s in segs] == [1]

    def test_max_words_falls_back_to_shorter_alternative(self, sentence_factory):
        # pattern-1 match needs 8 tokens; with the 7-word cap the nn atoms
        # backtrack, leaving a 7-token match rather than nothing
        pairs = [("instruction", "NN"), ("booklet", "NN"), ("includes", "VBZ"),
                 ("a", "DT"), ("very", "RB"), ("really", "RB"), ("clear", "JJ"),
                 ("instruction", "NN")]
        segs = segments_of(sentence_factory, pairs, max_words=7)
        assert len(segs) == 1
        assert segs[0].end - segs[0].start == 7

    def test_greedy_end_is_longest_end(self):
        # For every form, every class string up to length 5 and every start,
        # the greedy match ends where the longest full match does (the search
        # that the per-sentence matcher once ran). A word limit only cuts the string
        # short, so the shorter strings cover it.
        for form in FORMS:
            regex = re.compile(form.regex)
            for n in range(1, 6):
                for letters in itertools.product("NVJRDTXO", repeat=n):
                    classes = "".join(letters)
                    for pos in range(n):
                        found = regex.match(classes, pos)
                        if found is None:
                            continue
                        longest = next(e for e in range(n, found.end() - 1, -1)
                                       if regex.fullmatch(classes, pos, e))
                        assert found.end() == longest, (form, classes, pos)

    def test_two_disjoint_matches_same_sentence(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("good", "JJ"), ("food", "NN"), ("and", "CC"),
            ("bad", "JJ"), ("service", "NN")])
        assert [s.pattern_id for s in segs] == [5, 5]
        assert [s.text for s in segs] == ["good food", "bad service"]

    def test_non_overlap(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("great", "JJ"), ("food", "NN"), ("is", "VBZ"), ("cheap", "JJ"),
            ("here", "RB")])
        spans = [(s.start, s.end) for s in segs]
        for i, (a0, a1) in enumerate(spans):
            for b0, b1 in spans[i + 1:]:
                assert a1 <= b0 or b1 <= a0


class TestNegation:
    def test_variant_construction_counts(self):
        # pattern 3 has one vb and one jj atom -> two insertion points
        _, forms = compile_patterns({3})
        assert [(f.pattern_id, f.negated) for f in forms] == [
            (3, True), (3, True), (3, False)]

    def test_is_not_easy_to_clean(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("basket", "NN"), ("is", "VBZ"), ("not", "RB"), ("easy", "JJ"),
            ("to", "TO"), ("clean", "VB")])
        assert len(segs) == 1
        assert segs[0].pattern_id == 2
        assert segs[0].negated

    def test_double_negation_never_matches_variants(self, sentence_factory):
        # no form takes either trigger; only the plain jj nn after them matches
        segs = segments_of(sentence_factory, [
            ("not", "RB"), ("not", "RB"), ("good", "JJ"), ("food", "NN")])
        assert [(s.start, s.pattern_id, s.negated) for s in segs] == [(2, 5, False)]

    def test_empty_negation_list_disables_variants(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("is", "VBZ"), ("not", "RB"), ("good", "JJ")],
            negation_words=frozenset())
        # 'not' can no longer be matched by a neg atom, and rb* treats it as
        # a plain adverb
        assert len(segs) == 1
        assert not segs[0].negated

    def test_positive_form_cannot_absorb_negation(self, sentence_factory):
        segs = segments_of(sentence_factory, [
            ("service", "NN"), ("is", "VBZ"), ("not", "RB"), ("good", "JJ")])
        assert len(segs) == 1
        assert segs[0].negated
        assert segs[0].pattern_id == 3


class TestExtractCorpus:
    def test_empty_pattern_set(self, tiny_corpus):
        assert list(extract_corpus(tiny_corpus, set())) == []

    def test_corpus_order_and_entity_ids(self, tiny_corpus):
        segs = extract_corpus(tiny_corpus, {1, 2, 3, 4, 5})
        assert [s.text for s in segs] == [
            "food is delicious", "very good food", "staff is rude",
            "food is good", "staff is slow"]
        assert all(s.entity_id == "e1" for s in segs)

    def test_determinism(self, tiny_corpus):
        a = extract_corpus(tiny_corpus, {1, 3, 5})
        b = extract_corpus(tiny_corpus, {1, 3, 5})
        assert [(s.text, s.pattern_id, s.start) for s in a] == \
               [(s.text, s.pattern_id, s.start) for s in b]

    def test_pattern_restriction(self, tiny_corpus):
        segs = extract_corpus(tiny_corpus, {5})
        assert [s.text for s in segs] == ["very good food"]

    def test_length_bound(self, sentence_factory):
        pairs = [("very", "RB")] * 10 + [("good", "JJ"), ("food", "NN")]
        segs = segments_of(sentence_factory, pairs, {5}, max_words=7)
        assert segs and all(s.end - s.start <= 7 for s in segs)


class TestPrioritySoundness:
    def test_masked_rerun_never_overlaps(self, sentence_factory):
        cases = [
            [("booklet", "NN"), ("includes", "VBZ"), ("clear", "JJ"),
             ("instruction", "NN"), ("and", "CC"), ("good", "JJ"), ("food", "NN")],
            [("easy", "JJ"), ("to", "TO"), ("clean", "VB"), ("filter", "NN")],
            [("basket", "NN"), ("is", "VBZ"), ("simple", "JJ"), ("to", "TO"),
             ("remove", "VB")],
        ]
        for pairs in cases:
            sentence = sentence_factory(pairs)
            segs = extract_sentence(sentence)
            consumed = {i for s in segs if s.pattern_id in (1, 2, 4)
                        for i in range(s.start, s.end)}
            # rerun 3/5 on each contiguous unconsumed region
            regions, current = [], []
            for i, token in enumerate(sentence.tokens):
                if i in consumed:
                    if current:
                        regions.append(current)
                    current = []
                else:
                    current.append((i, token))
            if current:
                regions.append(current)
            for region in regions:
                sub = Sentence([t for _, t in region], sentence.review_id)
                for s in extract_sentence(sub, {3, 5}):
                    original = {region[i][0] for i in range(s.start, s.end)}
                    assert not original & consumed


# every tag family, adjectives drawn more often; XX is no Penn tag
TAGS = ("NN", "NNS", "NNP", "NNPS", "VB", "VBD", "VBG", "VBN", "VBP", "VBZ",
        "JJ", "JJ", "JJ", "JJR", "JJS", "RB", "RBR", "RBS", "DT", "TO", "IN", "XX")
WORDS = ("word",) * 16 + ("not", "Not", "n't", "never")


@settings(max_examples=1500, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(TAGS)),
                      max_size=14),
       pattern_ids=st.sets(st.integers(1, 5)),
       max_words=st.integers(1, 10),
       negation=st.sampled_from([DEFAULT_NEGATION, frozenset()]))
# pattern 4 (jj to vb nn?) with trailing nouns, plain and negated: random
# draws rarely hold it within the word limit
@example(pairs=[("word", t) for t in ("JJ", "TO", "VB", "NN", "NN")], pattern_ids={4},
         max_words=10, negation=DEFAULT_NEGATION)
@example(pairs=[("not", "RB")] + [("word", t) for t in ("JJ", "TO", "VB", "NN", "NN")],
         pattern_ids={4}, max_words=10, negation=DEFAULT_NEGATION)
def test_extract_sentence_equals_oracle(pairs, pattern_ids, max_words, negation):
    """Random tag and negation sequences give the brute-force span matcher's
    segments: same spans, pattern ids and negated flags."""
    sentence = Sentence([Token(s, s.lower(), t, False) for s, t in pairs], "r")
    got = extract_sentence(sentence, pattern_ids, max_words=max_words, negation_words=negation)
    assert [(g.start, g.end, g.pattern_id, g.negated) for g in got] == \
        oracles.extraction_oracle(pairs, pattern_ids, max_words, negation)


# runs of one (word, tag) pair, so that R and N runs outrun the word limit
RUNS = st.lists(st.tuples(st.sampled_from(WORDS + ("no",)), st.sampled_from(TAGS),
                          st.integers(1, 9)), max_size=5)
SENTENCE = RUNS.map(lambda runs: [(word, tag) for word, tag, n in runs for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(reviews=st.lists(st.lists(SENTENCE, max_size=4), max_size=4),
       pattern_ids=st.sets(st.integers(1, 5)),
       max_words=st.integers(1, 8),
       negation=st.sampled_from([DEFAULT_NEGATION, frozenset(), frozenset({"no", "word"})]))
# a sentence that ends in a trigger, then one that starts with one: the
# lookbehind of the second sentence's trigger must not see the first's
@example(reviews=[[[("good", "JJ"), ("not", "RB")], [("not", "RB"), ("good", "JJ"),
                                                      ("food", "NN")]]],
         pattern_ids={1, 2, 3, 4, 5}, max_words=7, negation=DEFAULT_NEGATION)
# empty sentences drop, within and between reviews
@example(reviews=[[[], [("good", "JJ"), ("food", "NN")], []], [], [[], [("bad", "JJ"),
                                                                     ("wine", "NN")]]],
         pattern_ids={5}, max_words=2, negation=DEFAULT_NEGATION)
def test_extract_corpus_equals_the_per_sentence_matcher(reviews, pattern_ids, max_words,
                                                        negation):
    """One search over the whole corpus finds what matching each sentence on
    its own found: the same segments of the same sentences."""
    corpus = corpus_of([
        (f"r{i}", f"e{i % 2}", [Sentence([Token(s, s.lower(), t, False) for s, t in pairs],
                                         f"r{i}") for pairs in sentences])
        for i, sentences in enumerate(reviews)])
    want = [segment
            for i, sentences in enumerate(reviews)
            for index, sentence in enumerate(s for s in sentences if s)
            for segment in oracles.match_sentence(
                Sentence([Token(s, s.lower(), t, False) for s, t in sentence], f"r{i}"),
                pattern_ids, max_words, negation, f"e{i % 2}", index)]
    oracles.assert_rows_equal(extract_corpus(corpus, pattern_ids, max_words, negation), want)
