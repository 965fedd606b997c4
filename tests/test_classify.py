import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsum.classify import (
    NEGATIVE,
    POSITIVE,
    PolarityLexicon,
    code_sums,
    label_aspects,
)
from segsum.corpus import Vocabulary, make_token
from segsum.filters import run_procedure
from segsum.model import PosteriorEstimates

import oracles
from conftest import sentence_table

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff"],
                   senti_stems=["bad", "good", "nice"])
PAD = VOCAB.num_aspect_words + VOCAB.num_senti_words


def make_seg(pairs, negated=False):
    """A one-row SegmentTable of the (surface, tag) pairs."""
    return sentence_table([(pairs, negated, "e")])


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


def aspect_of(table, est):
    """The aspect label_aspects gives the one row of table; None if it drops it."""
    labeled, _ = label_aspects(table, est, VOCAB)
    return labeled.aspect.tolist()[0] if len(labeled) else None


def classify(procedure, table, **kwargs):
    """(sentiment, polarity) that the classifier stage of procedure gives the
    one row of table, labelled aspect 0."""
    est = make_est(np.random.default_rng(0))
    labeled, _ = label_aspects(table, est, VOCAB)
    pos, neg = run_procedure(procedure, replace(labeled, aspect=np.array([0])), est, **kwargs)
    [seg] = list(pos) + list(neg)
    return seg.sentiment, seg.polarity


def sen(table, y_senti):
    return classify("Baseline+SEN", table, y_senti=y_senti)


def swn(table, lexicon):
    return classify("Baseline+SWN", table, lexicon=lexicon)


# the leading axes of the (aspect, senti) entries of code_sums: those of
# label_aspects' topic scores, SEN, AW, SW and RANK, and (S, T) on both
LEADING_AXES = [((3,), (3,)), ((), ()), ((3,), ()), ((), (2, 3)), ((3,), (2, 3)),
                ((2, 3), (2, 3))]


@settings(max_examples=200, deadline=None)
@given(leads=st.sampled_from(LEADING_AXES), with_labels=st.booleans(),
       V=st.integers(0, 4), Vp=st.integers(0, 4), rows=st.integers(0, 5),
       width=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1))
def test_code_sums_equal_sums_over_the_concatenated_table(leads, with_labels, V, Vp, rows,
                                                          width, seed):
    rng = np.random.default_rng(seed)
    aspect, senti = rng.normal(size=leads[0] + (V,)), rng.normal(size=leads[1] + (Vp,))
    for a in (aspect, senti):
        a[rng.random(a.shape) < 0.3] = -0.0
    lead = np.broadcast_shapes(leads[0], leads[1])
    table = np.concatenate((np.broadcast_to(aspect, lead + (V,)),
                            np.broadcast_to(senti, lead + (Vp,)), np.zeros(lead + (1,))),
                           axis=-1)
    codes = rng.integers(0, V + Vp + 1, (rows, width))
    labels = rng.integers(0, math.prod(lead), rows) if with_labels else None
    want = []
    for r, row in enumerate(codes.tolist()):
        total = 0.0 if with_labels else np.zeros(lead)
        for code in row:
            total = total + (table.reshape(-1, V + Vp + 1)[labels[r], code] if with_labels
                             else table[..., code])
        want.append(total)
    got = code_sums(aspect, senti, codes, labels)
    assert got.shape == (rows,) + (() if with_labels else lead)
    want = np.array(want).reshape(got.shape)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestTopic:
    def test_single_topic_returns_zero(self):
        est = make_est(np.random.default_rng(0), T=1)
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        assert aspect_of(seg, est) == 0

    def test_single_aspect_word_is_column_argmax(self):
        est = make_est(np.random.default_rng(1))
        seg = make_seg([("food", "NN")])
        i = VOCAB.aspect_index["food"]
        assert aspect_of(seg, est) == int(np.argmax(est.phi_hat[:, i]))

    def test_brute_force_fixture(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            est = make_est(rng)
            pairs = [("good", "JJ"), ("food", "NN"), ("unknownword", "NN"), ("staff", "NN"),
                     ("bad", "JJ")]
            seg = make_seg(pairs)
            scores = []
            for k in range(3):
                total = 0.0
                for token in [make_token(*pair) for pair in pairs]:
                    if token.stem in VOCAB.aspect_index:
                        total += math.log(est.phi_hat[k, VOCAB.aspect_index[token.stem]])
                    elif token.stem in VOCAB.senti_index:
                        i = VOCAB.senti_index[token.stem]
                        total += math.log(est.phi_prime_hat[0, k, i])
                        total += math.log(est.phi_prime_hat[1, k, i])
                scores.append(total)
            assert aspect_of(seg, est) == scores.index(max(scores))

    def test_per_word_scale_invariance(self):
        # multiplying a word's column by a constant shifts every topic score
        # equally and cannot change the argmax
        rng = np.random.default_rng(3)
        est = make_est(rng)
        pairs = [("good", "JJ"), ("food", "NN")]
        before = aspect_of(make_seg(pairs), est)
        scaled = PosteriorEstimates(
            est.pi_hat, est.theta_hat,
            est.phi_hat * np.array([1.0, 7.5, 1.0]),
            est.phi_prime_hat * np.array([3.0, 1.0, 1.0]))
        assert aspect_of(make_seg(pairs), scaled) == before

    def test_out_of_vocabulary_only_is_dropped(self):
        est = make_est(np.random.default_rng(4))
        labeled, dropped = label_aspects(make_seg([("unknownword", "NN"), ("mystery", "NN")]),
                                         est, VOCAB)
        assert len(labeled) == 0 and len(dropped) == 1 and dropped.aspect is None
        assert dropped.codes.tolist() == [[PAD, PAD]]

    def test_weights_equal_the_per_token_logs(self):
        # the oracle's rows are, bit for bit, the logs that the per-segment
        # scorer took per token before
        est = make_est(np.random.default_rng(8), T=5, V=40, Vp=30)
        weights = oracles.topic_weights(est)
        for i in range(40):
            assert np.array_equal(weights["aspect"][i], np.log(est.phi_hat[:, i]))
        for i in range(30):
            assert np.array_equal(weights["senti"][i],
                                  np.log(est.phi_prime_hat[:, :, i]).sum(axis=0))

    def test_labels_equal_the_per_token_computation(self):
        rng = np.random.default_rng(9)
        est = make_est(rng, T=4)
        stems = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("bad", "JJ"),
                 ("good", "JJ"), ("nice", "JJ"), ("unknownword", "NN")]
        segs = [[stems[i] for i in rng.integers(0, len(stems), rng.integers(1, 12))]
                for _ in range(200)]
        labeled, _ = label_aspects(sentence_table([(pairs, False, "e") for pairs in segs]),
                                   est, VOCAB)
        assert labeled.review.tolist() == [i for i, pairs in enumerate(segs)
                                           if any(s != "unknownword" for s, _ in pairs)]
        for row, aspect in zip(labeled.review.tolist(), labeled.aspect.tolist()):
            scores = np.zeros(4)
            for surface, _ in segs[row]:
                if surface in VOCAB.aspect_index:
                    scores += np.log(est.phi_hat[:, VOCAB.aspect_index[surface]])
                elif surface in VOCAB.senti_index:
                    i = VOCAB.senti_index[surface]
                    scores += np.log(est.phi_prime_hat[:, :, i]).sum(axis=0)
            assert aspect == int(np.argmax(scores))

    def test_label_aspects_drops_unclassifiable(self):
        est = make_est(np.random.default_rng(5))
        labeled, dropped = label_aspects(sentence_table([([("food", "NN")], False, "e"),
                                                         ([("unknownword", "NN")], False, "e")]),
                                         est, VOCAB)
        assert labeled.review.tolist() == [0] and dropped.review.tolist() == [1]
        assert labeled.aspect is not None

    def test_label_aspects_encodes_in_token_order(self):
        # one code per token, out-of-vocabulary tokens padded in place
        est = make_est(np.random.default_rng(6))
        table = sentence_table([([("good", "JJ"), ("food", "NN"), ("unknownword", "NN"),
                                  ("good", "JJ")], False, "e"), ([("food", "NN")], False, "e")])
        labeled, _ = label_aspects(table, est, VOCAB)
        good = VOCAB.num_aspect_words + VOCAB.senti_index["good"]
        food = VOCAB.aspect_index["food"]
        assert labeled.codes.tolist() == [[good, food, PAD, good], [food, PAD, PAD, PAD]]


class TestSen:
    Y = np.array([[0.0, 1.5, 0.25],    # bad, good, nice (sentiment 0 row)
                  [2.0, -0.5, 0.25]])  # sentiment 1 row

    def test_no_sentiment_words_is_positive_zero(self):
        seg = make_seg([("food", "NN")])
        assert sen(seg, self.Y) == (POSITIVE, 0.0)

    def test_negated_without_sentiment_words_is_positive_minus_zero(self):
        seg = make_seg([("food", "NN")], negated=True)
        label, pol = sen(seg, self.Y)
        assert label == POSITIVE and pol == 0.0 and math.copysign(1.0, pol) == -1.0

    def test_positive_example(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        label, pol = sen(seg, self.Y)
        assert label == POSITIVE and pol == pytest.approx(2.0)

    def test_negative_example(self):
        seg = make_seg([("bad", "JJ"), ("food", "NN")])
        label, pol = sen(seg, self.Y)
        assert label == NEGATIVE and pol == pytest.approx(-2.0)

    def test_polarity_sums_over_words(self):
        seg = make_seg([("good", "JJ"), ("bad", "JJ"), ("nice", "JJ")])
        _, pol = sen(seg, self.Y)
        assert pol == pytest.approx(2.0 - 2.0 + 0.0)

    def test_negation_flips(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")], negated=True)
        label, pol = sen(seg, self.Y)
        assert label == NEGATIVE and pol == pytest.approx(-2.0)

    def test_row_swap_flips_nonzero_classifications(self):
        seg = make_seg([("good", "JJ")])
        label, pol = sen(seg, self.Y)
        swapped_label, swapped_pol = sen(seg, self.Y[::-1].copy())
        assert swapped_pol == pytest.approx(-pol)
        assert {label, swapped_label} == {POSITIVE, NEGATIVE}

    def test_agrees_with_lexicon_polarity_sign(self):
        # the SEN polarity is exactly the sum of per-word learned polarities
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = rng.normal(size=(2, 3))
            seg = make_seg([("good", "JJ"), ("nice", "JJ")])
            _, pol = sen(seg, y)
            expected = sum(y[0, VOCAB.senti_index[w]] - y[1, VOCAB.senti_index[w]]
                           for w in ("good", "nice"))
            assert pol == pytest.approx(expected)


class TestSwn:
    LEX = PolarityLexicon({"good": 1.0, "bad": -1.0, "nice": 0.5})

    def test_positive_example(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")])
        assert swn(seg, self.LEX) == (POSITIVE, 1.0)

    def test_negative_example(self):
        seg = make_seg([("bad", "JJ"), ("food", "NN")])
        assert swn(seg, self.LEX) == (NEGATIVE, -1.0)

    def test_only_sentiment_tokens_scored(self):
        # 'good' with a noun tag is not a sentiment token and scores nothing
        seg = make_seg([("good", "NN"), ("bad", "JJ")])
        label, pol = swn(seg, self.LEX)
        assert label == NEGATIVE and pol == pytest.approx(-1.0)

    def test_negation_flips(self):
        seg = make_seg([("good", "JJ"), ("food", "NN")], negated=True)
        assert swn(seg, self.LEX) == (NEGATIVE, -1.0)

    def test_unknown_word_scores_zero(self):
        seg = make_seg([("wonderful", "JJ"), ("food", "NN")])
        assert swn(seg, self.LEX) == (POSITIVE, 0.0)

    def test_sentiment_word_outside_the_vocabulary_is_scored(self):
        seg = make_seg([("wonderful", "JJ"), ("food", "NN")])
        lexicon = PolarityLexicon({"wonder": -2.0})
        assert make_token("wonderful", "JJ").stem == "wonder"
        assert swn(seg, lexicon) == (NEGATIVE, -2.0)

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

    @pytest.mark.parametrize("score", ["high", "nan", "inf"])
    def test_tsv_bad_score_names_the_line(self, tmp_path, score):
        path = tmp_path / "lex.tsv"
        path.write_text(f"good\t1.0\nbad\t{score}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            PolarityLexicon.from_tsv(path)

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            PolarityLexicon({"good": float("nan")})

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_negation_symmetry(self, score):
        lex = PolarityLexicon({"good": score})
        plain = make_seg([("good", "JJ")])
        negated = make_seg([("good", "JJ")], negated=True)
        _, p = swn(plain, lex)
        _, n = swn(negated, lex)
        assert n == -p
