import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segsum.classify import (
    NEGATIVE,
    POSITIVE,
    PolarityLexicon,
    UnclassifiableSegment,
    classify_sentiment_sen,
    classify_sentiment_swn,
    classify_topic,
    label_aspects,
    topic_weights,
)
from segsum.corpus import Vocabulary, make_token
from segsum.model import PosteriorEstimates
from segsum.patterns import Segment

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff"],
                   senti_stems=["bad", "good", "nice"])


def make_seg(pairs, negated=False, aspect=None, sentiment=None):
    """A segment encoded against VOCAB, as label_aspects encodes it."""
    tokens = [make_token(surface, tag) for surface, tag in pairs]
    ids = tuple(pair for pair in map(VOCAB.lookup, tokens) if pair[0] is not None)
    return Segment(tokens=tokens, review_id="r", entity_id="e",
                   sentence_index=0, start=0, end=len(tokens), pattern_id=5,
                   negated=negated, aspect=aspect, sentiment=sentiment, ids=ids)


def normalized(rng, shape):
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def make_est(rng, T=3, V=3, Vp=3):
    return PosteriorEstimates(
        pi_hat=normalized(rng, (1, 2)),
        theta_hat=normalized(rng, (1, T)),
        phi_hat=normalized(rng, (T, V)),
        phi_prime_hat=normalized(rng, (2, T, Vp)),
    )


class TestTopic:
    def test_single_topic_returns_zero(self):
        est = make_est(np.random.default_rng(0), T=1)
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        assert classify_topic(seg, topic_weights(est)) == 0

    def test_single_aspect_word_is_column_argmax(self):
        est = make_est(np.random.default_rng(1))
        seg = make_seg([("food", "NN")])
        i = VOCAB.aspect_index["food"]
        assert classify_topic(seg, topic_weights(est)) == int(np.argmax(est.phi_hat[:, i]))

    def test_brute_force_fixture(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            est = make_est(rng)
            seg = make_seg([("good", "JJ"), ("food", "NN"), ("unknownword", "NN"),
                            ("staff", "NN"), ("bad", "JJ")])
            scores = []
            for k in range(3):
                total = 0.0
                for token in seg.tokens:
                    if token.stem in VOCAB.aspect_index:
                        total += math.log(est.phi_hat[k, VOCAB.aspect_index[token.stem]])
                    elif token.stem in VOCAB.senti_index:
                        i = VOCAB.senti_index[token.stem]
                        total += math.log(est.phi_prime_hat[0, k, i])
                        total += math.log(est.phi_prime_hat[1, k, i])
                scores.append(total)
            assert classify_topic(seg, topic_weights(est)) == scores.index(max(scores))

    def test_per_word_scale_invariance(self):
        # multiplying a word's column by a constant shifts every topic score
        # equally and cannot change the argmax
        rng = np.random.default_rng(3)
        est = make_est(rng)
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        before = classify_topic(seg, topic_weights(est))
        scaled = PosteriorEstimates(
            est.pi_hat, est.theta_hat,
            est.phi_hat * np.array([1.0, 7.5, 1.0]),
            est.phi_prime_hat * np.array([3.0, 1.0, 1.0]))
        assert classify_topic(seg, topic_weights(scaled)) == before

    def test_out_of_vocabulary_only_raises(self):
        est = make_est(np.random.default_rng(4))
        seg = make_seg([("unknownword", "NN"), ("mystery", "NN")])
        with pytest.raises(UnclassifiableSegment):
            classify_topic(seg, topic_weights(est))

    def test_weights_equal_the_per_token_logs(self):
        # the rows label_aspects precomputes are, bit for bit, the logs that
        # classify_topic took per token before
        est = make_est(np.random.default_rng(8), T=5, V=40, Vp=30)
        weights = topic_weights(est)
        for i in range(40):
            assert np.array_equal(weights["aspect"][i], np.log(est.phi_hat[:, i]))
        for i in range(30):
            assert np.array_equal(weights["senti"][i],
                                  np.log(est.phi_prime_hat[:, :, i]).sum(axis=0))

    def test_labels_equal_the_per_token_computation(self):
        rng = np.random.default_rng(9)
        est = make_est(rng, T=4)
        weights = topic_weights(est)
        stems = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("bad", "JJ"),
                 ("good", "JJ"), ("nice", "JJ"), ("unknownword", "NN")]
        for _ in range(200):
            seg = make_seg([stems[i] for i in rng.integers(0, len(stems), rng.integers(1, 9))])
            if not seg.ids:
                continue
            scores = np.zeros(4)
            for channel, idx in seg.ids:
                if channel == "aspect":
                    scores += np.log(est.phi_hat[:, idx])
                else:
                    scores += np.log(est.phi_prime_hat[:, :, idx]).sum(axis=0)
            assert classify_topic(seg, weights) == int(np.argmax(scores))

    def test_label_aspects_drops_unclassifiable(self):
        est = make_est(np.random.default_rng(5))
        good = make_seg([("food", "NN")])
        bad = make_seg([("unknownword", "NN")])
        labeled, dropped = label_aspects([good, bad], est, VOCAB)
        assert labeled == [good] and dropped == [bad]
        assert good.aspect is not None

    def test_label_aspects_encodes_in_token_order(self):
        est = make_est(np.random.default_rng(6))
        a = Segment(tokens=[make_token(s, t) for s, t in (
                        ("good", "JJ"), ("food", "NN"), ("unknownword", "NN"),
                        ("good", "JJ"))],
                    review_id="r", entity_id="e", sentence_index=0, start=0,
                    end=4, pattern_id=5, negated=False)
        b = make_seg([("food", "NN")])
        b.ids = ()
        label_aspects([a, b], est, VOCAB)
        good, food = ("senti", VOCAB.senti_index["good"]), ("aspect", VOCAB.aspect_index["food"])
        assert a.ids == (good, food, good) and b.ids == (food,)
        # one pair object per stem, shared across segments
        assert a.ids[0] is a.ids[2] and a.ids[1] is b.ids[0]


class TestSen:
    Y = np.array([[0.0, 1.5, 0.25],    # bad, good, nice (sentiment 0 row)
                  [2.0, -0.5, 0.25]])  # sentiment 1 row

    def test_no_sentiment_words_is_positive_zero(self):
        seg = make_seg([("food", "NN")])
        assert classify_sentiment_sen(seg, self.Y) == (POSITIVE, 0.0)

    def test_positive_example(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        label, pol = classify_sentiment_sen(seg, self.Y)
        assert label == POSITIVE and pol == pytest.approx(2.0)

    def test_negative_example(self):
        seg = make_seg([("bad", "JJ"), ("food", "NN")])
        label, pol = classify_sentiment_sen(seg, self.Y)
        assert label == NEGATIVE and pol == pytest.approx(-2.0)

    def test_polarity_sums_over_words(self):
        seg = make_seg([("good", "JJ"), ("bad", "JJ"), ("nice", "JJ")])
        _, pol = classify_sentiment_sen(seg, self.Y)
        assert pol == pytest.approx(2.0 - 2.0 + 0.0)

    def test_negation_flips(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")], negated=True)
        label, pol = classify_sentiment_sen(seg, self.Y)
        assert label == NEGATIVE and pol == pytest.approx(-2.0)

    def test_row_swap_flips_nonzero_classifications(self):
        seg = make_seg([("good", "JJ")])
        label, pol = classify_sentiment_sen(seg, self.Y)
        swapped_label, swapped_pol = classify_sentiment_sen(
            seg, self.Y[::-1].copy())
        assert swapped_pol == pytest.approx(-pol)
        assert {label, swapped_label} == {POSITIVE, NEGATIVE}

    def test_agrees_with_lexicon_polarity_sign(self):
        # the SEN polarity is exactly the sum of per-word learned polarities
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = rng.normal(size=(2, 3))
            seg = make_seg([("good", "JJ"), ("nice", "JJ")])
            _, pol = classify_sentiment_sen(seg, y)
            expected = sum(y[0, VOCAB.senti_index[w]] - y[1, VOCAB.senti_index[w]]
                           for w in ("good", "nice"))
            assert pol == pytest.approx(expected)


class TestSwn:
    LEX = PolarityLexicon({"good": 1.0, "bad": -1.0, "nice": 0.5})

    def test_positive_example(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        assert classify_sentiment_swn(seg, self.LEX) == (POSITIVE, 1.0)

    def test_negative_example(self):
        seg = make_seg([("bad", "JJ"), ("food", "NN")])
        assert classify_sentiment_swn(seg, self.LEX) == (NEGATIVE, -1.0)

    def test_only_sentiment_tokens_scored(self):
        # 'good' with a noun tag is not a sentiment token and scores nothing
        seg = make_seg([("good", "NN"), ("bad", "JJ")])
        label, pol = classify_sentiment_swn(seg, self.LEX)
        assert label == NEGATIVE and pol == pytest.approx(-1.0)

    def test_negation_flips(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")], negated=True)
        assert classify_sentiment_swn(seg, self.LEX) == (NEGATIVE, -1.0)

    def test_unknown_word_scores_zero(self):
        seg = make_seg([("wonderful", "JJ")])
        assert classify_sentiment_swn(seg, self.LEX) == (POSITIVE, 0.0)

    def test_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\ngood\t1.0\nbad\t-1.0\n")
        lex = PolarityLexicon.from_tsv(path)
        assert lex.score("good") == 1.0
        assert lex.score("bad") == -1.0
        assert lex.score("other") == 0.0

    def test_tsv_bad_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good 1.0\n")
        with pytest.raises(ValueError):
            PolarityLexicon.from_tsv(path)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            PolarityLexicon({"good": float("nan")})

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_negation_symmetry(self, score):
        lex = PolarityLexicon({"good": score})
        plain = make_seg([("good", "JJ")])
        negated = make_seg([("good", "JJ")], negated=True)
        _, p = classify_sentiment_swn(plain, lex)
        _, n = classify_sentiment_swn(negated, lex)
        assert n == -p
