import math

import numpy as np
import pytest

from segsum import model
from segsum.classify import PolarityLexicon, label_aspects
from segsum.corpus import CorpusBuilder, Vocabulary, build_vocabulary, make_token
from segsum.filters import (
    FilterConfig,
    ProcedureError,
    entity_candidates,
    parse_procedure,
    run_procedure,
)
from segsum.model import PosteriorEstimates
from segsum.patterns import Segment, extract_corpus
from segsum.synthetic import generate_text_reviews

import oracles

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff", "wine"],
                   senti_stems=["bad", "good", "nice", "rude"])


def make_seg(pairs, negated=False, aspect=None, sentiment=None, entity_id="e"):
    """A segment encoded against VOCAB, as label_aspects encodes it."""
    tokens = [make_token(surface, tag) for surface, tag in pairs]
    ids = tuple(VOCAB.stem_ids[t.stem] for t in tokens if t.stem in VOCAB.stem_ids)
    return Segment(tokens=tokens, review_id="r", entity_id=entity_id,
                   sentence_index=0, start=0, end=len(tokens), pattern_id=5,
                   negated=negated, aspect=aspect, sentiment=sentiment, ids=ids)


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


def survivors(procedure, segs, est, config=None, lexicon=NEUTRAL):
    """The segments that procedure keeps, in corpus order."""
    pos, neg = run_procedure(procedure, segs, est, lexicon=lexicon, config=config)
    kept = {id(seg) for seg in pos + neg}
    return [seg for seg in segs if id(seg) in kept]


def random_segments(rng, n):
    aspect_words = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("wine", "NN")]
    senti_words = [("bad", "JJ"), ("good", "JJ"), ("nice", "JJ"), ("rude", "JJ")]
    segs = []
    for _ in range(n):
        pairs = [senti_words[rng.integers(4)], aspect_words[rng.integers(4)]]
        segs.append(make_seg(pairs, aspect=int(rng.integers(2))))
    return segs


class TestAw:
    def test_full_top_list_keeps_everything_with_aspect_word(self):
        est = make_est()
        keep = make_seg([("good", "JJ"), ("food", "NN")], aspect=0)
        drop = make_seg([("good", "JJ")], aspect=0)  # no aspect-channel word
        assert survivors("AW+SWN", [keep, drop], est, FilterConfig(aw_top_x=4)) == [keep]

    def test_top_one_keeps_only_best_word(self):
        est = make_est(seed=1)
        best = VOCAB.aspect_stems[int(np.argmax(est.phi_hat[0]))]
        other = next(s for s in VOCAB.aspect_stems if s != best)
        a = make_seg([("good", "JJ"), (best, "NN")], aspect=0)
        b = make_seg([("good", "JJ"), (other, "NN")], aspect=0)
        assert survivors("AW+SWN", [a, b], est, FilterConfig(aw_top_x=1)) == [a]

    def test_requires_aspect_labels(self):
        with pytest.raises(ProcedureError, match="AW filter requires aspect labels"):
            run_procedure("AW+SWN", [make_seg([("food", "NN")])], make_est(), lexicon=NEUTRAL)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        est = make_est(seed=7)
        for top_x in (1, 2, 3):
            segs = random_segments(rng, 30)
            got = survivors("AW+SWN", segs, est, FilterConfig(aw_top_x=top_x))
            expected = []
            for seg in segs:
                order = sorted(range(VOCAB.num_aspect_words),
                               key=lambda i: (-est.phi_hat[seg.aspect][i], i))
                top = {VOCAB.aspect_stems[i] for i in order[:top_x]}
                if any(t.stem in top for t in seg.tokens if not t.is_sentiment):
                    expected.append(seg)
            assert got == expected

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        est = make_est(seed=8)
        segs = random_segments(rng, 25)
        config = FilterConfig(aw_top_x=2)
        once = survivors("AW+SWN", segs, est, config)
        assert survivors("AW+SWN", once, est, config) == once


class TestSw:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        est = make_est(seed=9)
        for top_y in (1, 2, 3):
            segs = random_segments(rng, 30)
            got = survivors("SWN+SW", segs, est, FilterConfig(sw_top_y=top_y), LEX)
            expected = []
            for seg in segs:   # labelled by the SWN stage
                probs = est.phi_prime_hat[seg.sentiment, seg.aspect]
                order = sorted(range(VOCAB.num_senti_words),
                               key=lambda i: (-probs[i], i))
                top = {VOCAB.senti_stems[i] for i in order[:top_y]}
                if any(t.stem in top for t in seg.tokens if t.is_sentiment):
                    expected.append(seg)
            assert got == expected

    def test_commutes_with_aw(self):
        rng = np.random.default_rng(10)
        est = make_est(seed=10)
        segs = random_segments(rng, 40)
        config = FilterConfig(2, 2)
        assert (survivors("AW+SWN+SW", segs, est, config, LEX)
                == survivors("SWN+SW+AW", segs, est, config, LEX))


class TestRank:
    def test_keep_fraction_one_is_identity(self):
        rng = np.random.default_rng(11)
        est = make_est(seed=11)
        segs = random_segments(rng, 12)
        assert survivors("SWN+RANK", segs, est, FilterConfig(rank_keep_fraction=1.0),
                         LEX) == segs

    def test_floor_arithmetic(self):
        est = make_est(seed=12)
        config = FilterConfig(rank_keep_fraction=0.5)
        # 5 segments in one group at keep=0.5: drop floor(2.5)=2, keep 3
        segs = [make_seg([("good", "JJ"), ("food", "NN")], aspect=0) for _ in range(5)]
        assert len(survivors("SWN+RANK", segs, est, config)) == 3
        # a singleton group never drops
        one = [make_seg([("good", "JJ")], aspect=0)]
        assert survivors("SWN+RANK", one, est, config) == one

    def test_sort_oracle(self):
        rng = np.random.default_rng(13)
        est = make_est(seed=13)
        segs = random_segments(rng, 30)
        got = survivors("SWN+RANK", segs, est, FilterConfig(rank_keep_fraction=0.5), LEX)

        groups = {}
        for pos, seg in enumerate(segs):   # labelled by the SWN stage
            groups.setdefault((seg.sentiment, seg.aspect), []).append(pos)
        keep = set()
        for positions in groups.values():
            n = len(positions)
            n_drop = math.floor(0.5 * n)
            scored = sorted(positions,
                            key=lambda p: (-oracles.rank_score(segs[p], est), p))
            keep.update(scored[: n - n_drop])
        assert got == [segs[p] for p in sorted(keep)]

    def test_rank_averages_per_word(self):
        est = make_est(seed=14)
        seg = make_seg([("good", "JJ"), ("food", "NN")], aspect=1)
        run_procedure("Baseline+SWN", [seg], est, lexicon=NEUTRAL)
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
        seg = make_seg(pairs, aspect=1)
        run_procedure("Baseline+SWN", [seg], est, lexicon=NEUTRAL)
        total = 0.0
        for surface, tag in pairs:
            if tag == "NN":
                total += math.log(est.phi_hat[1, VOCAB.aspect_index[surface]])
            else:
                total += math.log(est.phi_prime_hat[0, 1, VOCAB.senti_index[surface]])
        assert seg.sentiment == 0 and seg.rank == total / len(pairs)

    def test_rank_without_ids_is_minus_inf(self):
        est = make_est(seed=15)
        seg = make_seg([("unknownword", "NN")], aspect=0)
        run_procedure("Baseline+SWN", [seg], est, lexicon=NEUTRAL)
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
        segs = [make_seg([("good", "JJ"), ("food", "NN")], aspect=0),
                make_seg([("rude", "JJ"), ("staff", "NN")], aspect=1),
                make_seg([("nice", "JJ"), ("wine", "NN")], aspect=0)]
        pos, neg = run_procedure("Baseline+SWN", segs, est, lexicon=LEX)
        assert pos == [segs[0], segs[2]]
        assert neg == [segs[1]]

    def test_sen_and_swn_agree_on_aligned_inputs(self):
        est = make_est(seed=17)
        segs = [make_seg([("good", "JJ"), ("food", "NN")], aspect=0),
                make_seg([("bad", "JJ"), ("food", "NN")], aspect=0)]
        pos_a, neg_a = run_procedure("Baseline+SEN", segs, est, y_senti=self.Y)
        pos_b, neg_b = run_procedure("Baseline+SWN", segs, est, lexicon=LEX)
        assert [s.text for s in pos_a] == [s.text for s in pos_b]
        assert [s.text for s in neg_a] == [s.text for s in neg_b]

    def test_composed_procedure_is_ordered_subset(self):
        rng = np.random.default_rng(18)
        est = make_est(seed=18)
        segs = random_segments(rng, 40)
        pos, neg = run_procedure("AW+SEN+SW+RANK", segs, est,
                                 y_senti=self.Y, config=FilterConfig(2, 2, 0.5))
        surviving = pos + neg
        index = {id(s): i for i, s in enumerate(segs)}
        assert all(id(s) in index for s in surviving)
        assert [index[id(s)] for s in pos] == sorted(index[id(s)] for s in pos)
        for s in surviving:
            assert s.sentiment in (0, 1)

    def test_missing_resources_raise(self):
        est = make_est(seed=19)
        segs = [make_seg([("good", "JJ"), ("food", "NN")], aspect=0)]
        with pytest.raises(ProcedureError):
            run_procedure("Baseline+SEN", segs, est)  # no y_senti
        with pytest.raises(ProcedureError):
            run_procedure("Baseline+SWN", segs, est)  # no lexicon

    @pytest.mark.parametrize("procedure", ["Baseline+SEN", "Baseline+SWN"])
    def test_classifier_requires_aspect_labels(self, procedure):
        # the classifier stage ranks each segment under its aspect
        segs = [make_seg([("good", "JJ"), ("food", "NN")])]
        with pytest.raises(ProcedureError, match="aspect labels"):
            run_procedure(procedure, segs, make_est(), y_senti=self.Y, lexicon=LEX)


class TestAcrossEntities:
    """One procedure pass over several entities' segments keeps, for each
    entity, what a pass over that entity's segments alone keeps: RANK ranks
    within one entity. The pass per entity is the oracle."""

    CONFIG = FilterConfig(2, 2, 0.5)

    def per_entity(self, procedure, segs, est):
        out = {}
        for entity_id in sorted({s.entity_id for s in segs}):
            pos, neg = run_procedure(procedure, [s for s in segs if s.entity_id == entity_id],
                                     est, y_senti=TestRunProcedure.Y, config=self.CONFIG)
            out[entity_id] = (pos, neg)
        return out

    def one_pass(self, procedure, segs, est):
        pos, neg = run_procedure(procedure, segs, est, y_senti=TestRunProcedure.Y,
                                 config=self.CONFIG)
        return {entity_id: ([s for s in pos if s.entity_id == entity_id],
                            [s for s in neg if s.entity_id == entity_id])
                for entity_id in sorted({s.entity_id for s in segs})}

    def test_rank_keeps_each_entitys_best(self):
        # one (positive, aspect 0) group: entity a holds the three best-scoring
        # segments, b the worst, in interleaved corpus order. Ranked apart, a
        # keeps 2 of 3 and b its only one; ranked together, b's would drop.
        est = make_est(seed=22)
        best = sorted(VOCAB.aspect_stems, key=lambda w: -est.phi_hat[0, VOCAB.aspect_index[w]])
        segs = [make_seg([("good", "JJ"), (best[rank], "NN")], aspect=0, entity_id=entity_id)
                for rank, entity_id in zip((0, 3, 1, 2), "abaa")]
        got = self.one_pass("Baseline+SEN+RANK", segs, est)
        assert got == self.per_entity("Baseline+SEN+RANK", segs, est)
        assert got == {"a": ([segs[0], segs[2]], []), "b": ([segs[1]], [])}

    @pytest.mark.parametrize("seed", range(5))
    def test_random_segments(self, seed):
        rng = np.random.default_rng(30 + seed)
        est = make_est(seed=30 + seed)
        segs = random_segments(rng, 60)
        for seg in segs:
            seg.entity_id = "abc"[rng.integers(3)]
        for procedure in ("AW+SEN+SW+RANK", "Baseline+SEN+RANK", "AW+SEN"):
            assert (self.one_pass(procedure, segs, est)
                    == self.per_entity(procedure, segs, est))


def test_entity_candidates_equals_a_pass_per_entity():
    builder = CorpusBuilder()
    for record in generate_text_reviews(num_entities=4, reviews_per_entity=6, rng_seed=3):
        builder.add(record)
    corp = builder.corpus()
    vocab = build_vocabulary(corp, min_count=1)
    state = model.init(corp, vocab, model.Hyperparams(num_topics=2), rng_seed=0)
    model.gibbs_sweep(state)
    config = FilterConfig(5, 5, 0.5)
    procedure = "AW+SEN+SW+RANK"
    got = entity_candidates(state, corp, {1, 2, 3, 4, 5}, 7, procedure, None, config)

    est = model.estimate(state)
    labeled, _ = label_aspects(extract_corpus(corp, {1, 2, 3, 4, 5}, max_words=7), est, vocab)
    want = {}
    for entity_id in sorted({s.entity_id for s in labeled}):
        pos, neg = run_procedure(procedure, [s for s in labeled if s.entity_id == entity_id],
                                 est, y_senti=state.y_senti, config=config)
        want[entity_id] = {"positive": pos, "negative": neg}
    assert list(got) == list(want)
    for entity_id, lists in want.items():
        for polarity, segs in lists.items():
            assert ([s.to_dict() for s in got[entity_id][polarity]]
                    == [s.to_dict() for s in segs])
