import math
from dataclasses import replace

import numpy as np
import pytest

from segsum import model
from segsum.classify import PolarityLexicon, label_aspects
from segsum.corpus import CorpusBuilder, Vocabulary, build_vocabulary, make_token
from segsum.filters import (
    FilterConfig,
    ProcedureError,
    parse_procedure,
    run_procedure,
)
from segsum.model import PosteriorEstimates
from segsum.patterns import extract_corpus
from segsum.synthetic import generate_text_reviews

import oracles
from conftest import sentence_table

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff", "wine"],
                   senti_stems=["bad", "good", "nice", "rude"])


def make_table(segments, est, aspects=None, negated=None, entity_ids=None):
    """The SegmentTable of one row per list of (surface, tag) pairs, encoded
    against VOCAB by label_aspects (which must keep every row); aspects, if
    given, replace the labelled ones. Row i is review r<i>."""
    n = len(segments)
    table = sentence_table(list(zip(segments, negated or [False] * n, entity_ids or ["e"] * n)))
    labelled, dropped = label_aspects(table, est, VOCAB)
    assert len(labelled) == n
    return labelled if aspects is None else replace(labelled, aspect=np.array(aspects))


def rows(*tables):
    """The row numbers (review indices) of the tables' segments, in corpus order."""
    return sorted(r for table in tables for r in table.review.tolist())


def normalized(rng, shape):
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def make_est(seed=0, T=2):
    rng = np.random.default_rng(seed)
    return PosteriorEstimates(
        pi_hat=normalized(rng, (1, 2)),
        theta_hat=normalized(rng, (1, T)),
        phi_hat=normalized(rng, (T, VOCAB.num_aspect_words)),
        phi_prime_hat=normalized(rng, (2, T, VOCAB.num_senti_words)),
    )


# scores nothing: its classifier stage labels every segment positive and
# leaves the filters around it to decide
NEUTRAL = PolarityLexicon()
LEX = PolarityLexicon({"good": 1.0, "nice": 0.5, "bad": -1.0, "rude": -1.0})


def survivors(procedure, table, est, config=None, lexicon=NEUTRAL):
    """The rows that procedure keeps, in corpus order."""
    return rows(*run_procedure(procedure, table, est, lexicon=lexicon, config=config))


def classified(procedure, table, est, **kwargs):
    """The Segments that procedure keeps, with their labels, in corpus order."""
    pos, neg = run_procedure(procedure, table, est, **kwargs)
    return sorted(oracles.table_segments(pos) + oracles.table_segments(neg),
                  key=lambda seg: int(seg.review_id[1:]))


def random_segments(rng, n):
    """(pairs, aspects) of n random two-word segments."""
    aspect_words = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("wine", "NN")]
    senti_words = [("bad", "JJ"), ("good", "JJ"), ("nice", "JJ"), ("rude", "JJ")]
    pairs, aspects = [], []
    for _ in range(n):
        pairs.append([senti_words[rng.integers(4)], aspect_words[rng.integers(4)]])
        aspects.append(int(rng.integers(2)))
    return pairs, aspects


def random_table(rng, n, est):
    segments, aspects = random_segments(rng, n)
    return make_table(segments, est, aspects)


def oracle_segments(table, lexicon):
    """The table's rows as Segments, encoded and labelled by the SWN oracle."""
    segs = oracles.table_segments(table)
    for seg in segs:
        seg.ids = oracles.segment_ids(seg, VOCAB)
        seg.sentiment, seg.polarity = oracles.classify_sentiment_swn(seg, lexicon)
    return segs


class TestAw:
    def test_full_top_list_keeps_everything_with_aspect_word(self):
        est = make_est()
        # the second has no aspect-channel word
        table = make_table([[("good", "JJ"), ("food", "NN")], [("good", "JJ")]], est, [0, 0])
        assert survivors("AW+SWN", table, est, FilterConfig(aw_top_x=4)) == [0]

    def test_top_one_keeps_only_best_word(self):
        est = make_est(seed=1)
        best = VOCAB.aspect_stems[int(np.argmax(est.phi_hat[0]))]
        other = next(s for s in VOCAB.aspect_stems if s != best)
        table = make_table([[("good", "JJ"), (best, "NN")], [("good", "JJ"), (other, "NN")]],
                           est, [0, 0])
        assert survivors("AW+SWN", table, est, FilterConfig(aw_top_x=1)) == [0]

    def test_requires_aspect_labels(self):
        table = replace(make_table([[("food", "NN")]], make_est()), aspect=None)
        with pytest.raises(ProcedureError, match="AW filter requires aspect labels"):
            run_procedure("AW+SWN", table, make_est(), lexicon=NEUTRAL)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        est = make_est(seed=7)
        for top_x in (1, 2, 3):
            segments, aspects = random_segments(rng, 30)
            got = survivors("AW+SWN", make_table(segments, est, aspects), est,
                            FilterConfig(aw_top_x=top_x))
            expected = []
            for row, (pairs, aspect) in enumerate(zip(segments, aspects)):
                order = sorted(range(VOCAB.num_aspect_words),
                               key=lambda i: (-est.phi_hat[aspect][i], i))
                top = {VOCAB.aspect_stems[i] for i in order[:top_x]}
                tokens = [make_token(*pair) for pair in pairs]
                if any(t.stem in top for t in tokens if not t.is_sentiment):
                    expected.append(row)
            assert got == expected

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        est = make_est(seed=8)
        table = random_table(rng, 25, est)
        config = FilterConfig(aw_top_x=2)
        once = survivors("AW+SWN", table, est, config)
        assert survivors("AW+SWN", table.take(once), est, config) == once


class TestSw:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        est = make_est(seed=9)
        for top_y in (1, 2, 3):
            table = random_table(rng, 30, est)
            got = survivors("SWN+SW", table, est, FilterConfig(sw_top_y=top_y), LEX)
            expected = []
            for row, seg in enumerate(oracle_segments(table, LEX)):
                probs = est.phi_prime_hat[seg.sentiment, seg.aspect]
                order = sorted(range(VOCAB.num_senti_words),
                               key=lambda i: (-probs[i], i))
                top = {VOCAB.senti_stems[i] for i in order[:top_y]}
                if any(t.stem in top for t in seg.tokens if t.is_sentiment):
                    expected.append(row)
            assert got == expected

    def test_commutes_with_aw(self):
        rng = np.random.default_rng(10)
        est = make_est(seed=10)
        table = random_table(rng, 40, est)
        config = FilterConfig(2, 2)
        assert (survivors("AW+SWN+SW", table, est, config, LEX)
                == survivors("SWN+SW+AW", table, est, config, LEX))


class TestRank:
    def test_keep_fraction_one_is_identity(self):
        rng = np.random.default_rng(11)
        est = make_est(seed=11)
        table = random_table(rng, 12, est)
        assert survivors("SWN+RANK", table, est, FilterConfig(rank_keep_fraction=1.0),
                         LEX) == list(range(12))

    def test_floor_arithmetic(self):
        est = make_est(seed=12)
        config = FilterConfig(rank_keep_fraction=0.5)
        # 5 segments in one group at keep=0.5: drop floor(2.5)=2, keep 3
        table = make_table([[("good", "JJ"), ("food", "NN")]] * 5, est, [0] * 5)
        assert len(survivors("SWN+RANK", table, est, config)) == 3
        # a singleton group never drops
        one = make_table([[("good", "JJ")]], est, [0])
        assert survivors("SWN+RANK", one, est, config) == [0]

    def test_sort_oracle(self):
        rng = np.random.default_rng(13)
        est = make_est(seed=13)
        table = random_table(rng, 30, est)
        got = survivors("SWN+RANK", table, est, FilterConfig(rank_keep_fraction=0.5), LEX)

        segs = oracle_segments(table, LEX)
        groups = {}
        for pos, seg in enumerate(segs):
            groups.setdefault((seg.sentiment, seg.aspect), []).append(pos)
        keep = set()
        for positions in groups.values():
            n = len(positions)
            n_drop = math.floor(0.5 * n)
            scored = sorted(positions,
                            key=lambda p: (-oracles.rank_score(segs[p], est), p))
            keep.update(scored[: n - n_drop])
        assert got == sorted(keep)

    def test_rank_averages_per_word(self):
        est = make_est(seed=14)
        table = make_table([[("good", "JJ"), ("food", "NN")]], est, [1])
        [seg] = classified("Baseline+SWN", table, est, lexicon=NEUTRAL)
        i = VOCAB.senti_index["good"]
        a = VOCAB.aspect_index["food"]
        expected = (math.log(est.phi_prime_hat[0, 1, i])
                    + math.log(est.phi_hat[1, a])) / 2
        assert seg.sentiment == 0 and seg.rank == pytest.approx(expected, rel=1e-12)

    def test_rank_sums_in_token_order(self):
        # aspect and sentiment words alternate; the rank is the left-to-right
        # float sum over the tokens, divided by their count, to the last bit.
        # On this seed, summing the aspect words first gives another float.
        est = make_est(seed=21)
        pairs = [("food", "NN"), ("good", "JJ"), ("staff", "NN"), ("nice", "JJ"),
                 ("wine", "NN"), ("rude", "JJ"), ("decor", "NN"), ("bad", "JJ")]
        [seg] = classified("Baseline+SWN", make_table([pairs], est, [1]), est, lexicon=NEUTRAL)
        total = 0.0
        for surface, tag in pairs:
            if tag == "NN":
                total += math.log(est.phi_hat[1, VOCAB.aspect_index[surface]])
            else:
                total += math.log(est.phi_prime_hat[0, 1, VOCAB.senti_index[surface]])
        assert seg.sentiment == 0 and seg.rank == total / len(pairs)

    def test_rank_without_ids_is_minus_inf(self):
        est = make_est(seed=15)
        _, dropped = label_aspects(sentence_table([([("unknownword", "NN")], False, "e")]),
                                   est, VOCAB)
        [seg] = classified("Baseline+SWN", replace(dropped, aspect=np.array([0])), est,
                           lexicon=NEUTRAL)
        assert seg.rank == -math.inf


class TestProcedureParsing:
    @pytest.mark.parametrize("name", [
        "Baseline+SEN", "Baseline+SWN", "AW+SEN", "AW+SWN",
        "AW+SEN+SW", "AW+SWN+SW", "AW+SEN+SW+RANK"])
    def test_valid_names(self, name):
        assert parse_procedure(name) == tuple(name.split("+"))

    @pytest.mark.parametrize("name,fragment", [
        ("Baseline", "exactly one"),
        ("AW+SEN+SWN", "exactly one"),
        ("AW+XYZ+SEN", "unknown stage"),
        ("SW+SEN", "after the classifier"),
        ("RANK+SWN", "after the classifier"),
    ])
    def test_invalid_names(self, name, fragment):
        with pytest.raises(ProcedureError) as err:
            parse_procedure(name)
        assert fragment in str(err.value)


class TestRunProcedure:
    Y = np.array([[-1.0, 1.0, 0.5, -1.0],   # bad good nice rude
                  [1.0, -1.0, -0.5, 1.0]])

    def test_baseline_swn_partitions_all(self):
        est = make_est(seed=16)
        table = make_table([[("good", "JJ"), ("food", "NN")], [("rude", "JJ"), ("staff", "NN")],
                            [("nice", "JJ"), ("wine", "NN")]], est, [0, 1, 0])
        pos, neg = run_procedure("Baseline+SWN", table, est, lexicon=LEX)
        assert rows(pos) == [0, 2]
        assert rows(neg) == [1]

    def test_sen_and_swn_agree_on_aligned_inputs(self):
        est = make_est(seed=17)
        table = make_table([[("good", "JJ"), ("food", "NN")], [("bad", "JJ"), ("food", "NN")]],
                           est, [0, 0])
        pos_a, neg_a = run_procedure("Baseline+SEN", table, est, y_senti=self.Y)
        pos_b, neg_b = run_procedure("Baseline+SWN", table, est, lexicon=LEX)
        assert [s.text for s in pos_a] == [s.text for s in pos_b]
        assert [s.text for s in neg_a] == [s.text for s in neg_b]

    def test_composed_procedure_is_ordered_subset(self):
        rng = np.random.default_rng(18)
        est = make_est(seed=18)
        table = random_table(rng, 40, est)
        pos, neg = run_procedure("AW+SEN+SW+RANK", table, est,
                                 y_senti=self.Y, config=FilterConfig(2, 2, 0.5))
        assert set(rows(pos, neg)) <= set(range(40))
        assert pos.review.tolist() == rows(pos) and neg.review.tolist() == rows(neg)
        for s in list(pos) + list(neg):
            assert s.sentiment in (0, 1)

    def test_missing_resources_raise(self):
        est = make_est(seed=19)
        table = make_table([[("good", "JJ"), ("food", "NN")]], est, [0])
        with pytest.raises(ProcedureError):
            run_procedure("Baseline+SEN", table, est)  # no y_senti
        with pytest.raises(ProcedureError):
            run_procedure("Baseline+SWN", table, est)  # no lexicon

    @pytest.mark.parametrize("procedure", ["Baseline+SEN", "Baseline+SWN"])
    def test_classifier_requires_aspect_labels(self, procedure):
        # every survivor is ranked under its aspect
        table = replace(make_table([[("good", "JJ"), ("food", "NN")]], make_est()), aspect=None)
        with pytest.raises(ProcedureError, match="aspect labels"):
            run_procedure(procedure, table, make_est(), y_senti=self.Y, lexicon=LEX)


class TestAcrossEntities:
    """One procedure pass over several entities' segments keeps, for each
    entity, what a pass over that entity's segments alone keeps, with the
    same labels and ranks: RANK ranks within one entity. The pass per entity
    is the oracle."""

    CONFIG = FilterConfig(2, 2, 0.5)

    def per_entity(self, procedure, table, est):
        entity_of = np.array([r.entity_id for r in table.corpus.reviews])[table.review]
        out = {}
        for entity_id in sorted(set(entity_of.tolist())):
            pos, neg = run_procedure(procedure, table.take(entity_of == entity_id), est,
                                     y_senti=TestRunProcedure.Y, config=self.CONFIG)
            out[entity_id] = (oracles.table_segments(pos), oracles.table_segments(neg))
        return out

    def one_pass(self, procedure, table, est):
        pos, neg = run_procedure(procedure, table, est, y_senti=TestRunProcedure.Y,
                                 config=self.CONFIG)
        pos, neg = oracles.table_segments(pos), oracles.table_segments(neg)
        return {entity_id: ([s for s in pos if s.entity_id == entity_id],
                            [s for s in neg if s.entity_id == entity_id])
                for entity_id in sorted({r.entity_id for r in table.corpus.reviews})}

    def test_rank_keeps_each_entitys_best(self):
        # one (positive, aspect 0) group: entity a holds the three best-scoring
        # segments, b the worst, in interleaved corpus order. Ranked apart, a
        # keeps 2 of 3 and b its only one; ranked together, b's would drop.
        est = make_est(seed=22)
        best = sorted(VOCAB.aspect_stems, key=lambda w: -est.phi_hat[0, VOCAB.aspect_index[w]])
        table = make_table([[("good", "JJ"), (best[rank], "NN")] for rank in (0, 3, 1, 2)], est,
                           [0] * 4, entity_ids=list("abaa"))
        got = self.one_pass("Baseline+SEN+RANK", table, est)
        assert got == self.per_entity("Baseline+SEN+RANK", table, est)
        assert {entity_id: tuple([s.review_id for s in segs] for segs in lists)
                for entity_id, lists in got.items()} == {"a": (["r0", "r2"], []),
                                                         "b": (["r1"], [])}

    @pytest.mark.parametrize("seed", range(5))
    def test_random_segments(self, seed):
        rng = np.random.default_rng(30 + seed)
        est = make_est(seed=30 + seed)
        segments, aspects = random_segments(rng, 60)
        table = make_table(segments, est, aspects,
                           entity_ids=["abc"[rng.integers(3)] for _ in range(60)])
        for procedure in ("AW+SEN+SW+RANK", "Baseline+SEN+RANK", "AW+SEN"):
            assert (self.one_pass(procedure, table, est)
                    == self.per_entity(procedure, table, est))


def test_one_pass_over_labelled_segments_equals_a_pass_per_entity():
    builder = CorpusBuilder()
    for record in generate_text_reviews(num_entities=4, reviews_per_entity=6, rng_seed=3):
        builder.add(record)
    corp = builder.corpus()
    vocab = build_vocabulary(corp, min_count=1)
    state = model.init(corp, vocab, model.Hyperparams(num_topics=2), rng_seed=0)
    model.gibbs_sweep(state)
    config = FilterConfig(5, 5, 0.5)
    procedure = "AW+SEN+SW+RANK"
    est = model.estimate(state)
    labeled, _ = label_aspects(extract_corpus(corp, {1, 2, 3, 4, 5}, max_words=7), est, vocab)
    pos, neg = run_procedure(procedure, labeled, est, y_senti=state.y_senti, config=config)
    pos, neg = oracles.table_segments(pos), oracles.table_segments(neg)

    entity_of = np.array([review.entity_id for review in corp.reviews])[labeled.review]
    for entity_id in sorted(set(entity_of.tolist())):
        want = run_procedure(procedure, labeled.take(entity_of == entity_id),
                             est, y_senti=state.y_senti, config=config)
        assert ([s for s in pos if s.entity_id == entity_id],
                [s for s in neg if s.entity_id == entity_id]) \
            == tuple(map(oracles.table_segments, want))
