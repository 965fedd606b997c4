"""classify.label_aspects and filters.run_procedure score all segments at once
over arrays of their ids; the per-segment scorers and filters in oracles.py
are the reference. Aspects, sentiments, polarities, ranks and the order of
the survivors must be equal, to the last bit."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsum.classify import PolarityLexicon, label_aspects, topic_weights
from segsum.corpus import Vocabulary, make_token
from segsum.filters import (CLASSIFIER_STAGES, FILTER_STAGES, FilterConfig, ProcedureError,
                            parse_procedure, run_procedure)
from segsum.model import PosteriorEstimates
from segsum.patterns import Segment

import oracles

VOCAB = Vocabulary(aspect_stems=["decor", "food", "staff", "wine"],
                   senti_stems=["bad", "good", "nice", "rude"])
# "good" tagged NN is in the vocabulary but no sentiment token for SWN;
# "wonderful" is a sentiment token outside the vocabulary
WORDS = [("decor", "NN"), ("food", "NN"), ("staff", "NN"), ("wine", "NN"), ("bad", "JJ"),
         ("good", "JJ"), ("nice", "JJ"), ("rude", "JJ"), ("good", "NN"), ("unknownword", "NN"),
         ("wonderful", "JJ")]


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


def segment(pairs, negated=False, entity_id="e"):
    tokens = [make_token(surface, tag) for surface, tag in pairs]
    return Segment(tokens=tokens, review_id="r", entity_id=entity_id, sentence_index=0,
                   start=0, end=len(tokens), pattern_id=5, negated=negated)


def normalized(rng, shape):
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=-1, keepdims=True)


def labels(seg):
    """What a stage stores on a segment, with the sign of a zero and the
    Python type of each value."""
    return [(repr(value), type(value)) for value in
            (seg.aspect, seg.sentiment, seg.polarity, seg.rank)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_path_equals_the_per_segment_oracles(data):
    T = data.draw(st.sampled_from([1, 2, 3, 5]), label="T")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    phi_hat = normalized(rng, (T, VOCAB.num_aspect_words))
    phi_prime_hat = normalized(rng, (2, T, VOCAB.num_senti_words))
    if data.draw(st.booleans(), label="tied topics"):   # every argmax ties
        phi_hat[:] = phi_hat[0]
        phi_prime_hat[:] = phi_prime_hat[:, :1]
    est = PosteriorEstimates(normalized(rng, (1, 2)), normalized(rng, (1, T)), phi_hat,
                             phi_prime_hat)
    y_senti = rng.normal(size=(2, VOCAB.num_senti_words))
    y_senti[:, rng.random(VOCAB.num_senti_words) < 0.3] = 0.0
    lexicon = PolarityLexicon({make_token(w, "JJ").stem: float(rng.normal())
                               for w in ("good", "bad", "nice", "wonderful")})
    # a few segment shapes, so that equal segments tie in rank; up to 12 words
    width = data.draw(st.integers(0, 12), label="width")
    shapes = [[WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(0, width + 1))]
              for _ in range(rng.integers(1, 6))]
    specs = [(shapes[rng.integers(len(shapes))], bool(rng.random() < 0.3), "abc"[rng.integers(3)])
             for _ in range(data.draw(st.integers(1, 40), label="segments"))]
    segs, twins = ([segment(*spec) for spec in specs] for _ in range(2))

    labeled, dropped = label_aspects(segs, est, VOCAB)
    o_labeled, o_dropped = oracles.label_aspects(twins, topic_weights(est), VOCAB)
    index = {id(seg): i for i, seg in enumerate(segs)}
    o_index = {id(seg): i for i, seg in enumerate(twins)}
    assert [index[id(s)] for s in labeled] == [o_index[id(s)] for s in o_labeled]
    assert [index[id(s)] for s in dropped] == [o_index[id(s)] for s in o_dropped]
    assert [labels(s) for s in segs] == [labels(s) for s in twins]

    # the procedures also take segments without ids that carry an aspect
    for seg, twin in zip(dropped, o_dropped):
        seg.aspect = twin.aspect = int(rng.integers(T))
    procedure = data.draw(st.sampled_from(PROCEDURES), label="procedure")
    config = FilterConfig(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)),
                          data.draw(st.sampled_from([0.1, 0.5, 0.75, 1.0])))
    got = run_procedure(procedure, labeled + dropped, est, y_senti=y_senti, lexicon=lexicon,
                        config=config)
    want = oracles.run_procedure(parse_procedure(procedure), o_labeled + o_dropped, est,
                                 y_senti, lexicon, config)
    for kept, o_kept in zip(got, want):
        assert [index[id(s)] for s in kept] == [o_index[id(s)] for s in o_kept]
    assert [labels(s) for s in segs] == [labels(s) for s in twins]


# -- fixed traps ---------------------------------------------------------------
#
# Nine words in one segment: numpy's sum regroups 8 or more terms pairwise,
# and on some hosts np.log differs from libm's log in the last bit. Each
# trap first checks that it is set, that is, that the shortcut gives another
# answer.

ASPECT_9 = ["food", "staff", "decor", "wine", "room", "menu", "bar", "view", "price"]
SENTI_9 = ["bad", "good", "nice", "rude", "cold", "warm", "fresh", "dull", "slow"]
VOCAB_9 = Vocabulary(aspect_stems=sorted(ASPECT_9), senti_stems=sorted(SENTI_9))


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
            t = topic_weights(estimates_9(phi))["aspect"][VOCAB_9.aspect_index[ASPECT_9[0]], 1]
            if a < t < b:
                break
            p = float(np.nextafter(p, 1.0 if t <= a else 0.0))
        else:
            continue
        break
    est = estimates_9(phi)
    rows = topic_weights(est)["aspect"][aspect_ids(ASPECT_9)]
    # the trap is set: summed pairwise per topic, topic 0 wins
    assert int(np.argmax(np.sum(np.ascontiguousarray(rows.T), axis=1))) == 0
    seg, twin = segment([(w, "NN") for w in ASPECT_9]), segment([(w, "NN") for w in ASPECT_9])
    label_aspects([seg], est, VOCAB_9)
    oracles.label_aspects([twin], topic_weights(est), VOCAB_9)
    assert seg.aspect == twin.aspect == 1


def test_polarity_adds_left_to_right():
    for seed in itertools.count():
        y_senti = np.zeros((2, 9))
        y_senti[0] = np.random.default_rng(seed).normal(size=9) * 10.0 ** np.arange(-4, 5)
        terms = y_senti[0][[VOCAB_9.senti_index[w] for w in SENTI_9]]
        if left_to_right(terms) != np.sum(terms):   # the trap is set
            break
    seg = segment([(w, "JJ") for w in SENTI_9])
    seg.ids = tuple(VOCAB_9.stem_ids[w] for w in SENTI_9)
    seg.aspect = 0
    run_procedure("Baseline+SEN", [seg], estimates_9(np.full((1, 9), 1 / 9)), y_senti=y_senti)
    assert seg.polarity == left_to_right(terms) == oracles.classify_sentiment_sen(seg, y_senti)[1]


def test_rank_adds_left_to_right():
    for seed in itertools.count():
        phi = np.random.default_rng(seed).random((1, 9)) ** 8 + 1e-9
        logs = [math.log(p) for p in phi[0][aspect_ids(ASPECT_9)]]
        if left_to_right(logs) != np.sum(logs):   # the trap is set
            break
    seg = segment([(w, "NN") for w in ASPECT_9])
    seg.ids = tuple(VOCAB_9.stem_ids[w] for w in ASPECT_9)
    seg.aspect = 0
    est = estimates_9(phi)
    run_procedure("Baseline+SWN", [seg], est, lexicon=PolarityLexicon())
    assert seg.rank == left_to_right(logs) / 9 == oracles.rank_score(seg, est)


def test_rank_takes_libm_logs():
    candidates = np.random.default_rng(0).random(20_000) * 0.9 + 0.05
    differ = candidates[np.log(candidates) != [math.log(p) for p in candidates.tolist()]]
    # a probability that np.log logs differently in a row of nine of it
    p = next((p for p in differ.tolist() if (np.log(np.full((1, 9), p)) != math.log(p)).any()),
             None)
    if p is None:
        pytest.skip("np.log gives libm's log for every candidate on this host")
    seg = segment([(w, "NN") for w in ASPECT_9])
    seg.ids = tuple(VOCAB_9.stem_ids[w] for w in ASPECT_9)
    seg.aspect = 0
    est = estimates_9(np.full((1, 9), p))
    run_procedure("Baseline+SWN", [seg], est, lexicon=PolarityLexicon())
    assert seg.rank == left_to_right([math.log(p)] * 9) / 9 == oracles.rank_score(seg, est)
    assert seg.rank != left_to_right(np.log(est.phi_hat)[0]) / 9   # the trap is set


def test_a_zero_probability_raises():
    seg = segment([("good", "JJ"), ("food", "NN")])
    seg.ids = (VOCAB_9.stem_ids["good"], VOCAB_9.stem_ids["food"])
    seg.aspect = 0
    phi_prime_hat = np.full((2, 1, 9), 1 / 9)
    phi_prime_hat[:, 0, VOCAB_9.senti_index["good"]] = 0.0
    with pytest.raises(ValueError):
        run_procedure("Baseline+SWN", [seg], estimates_9(np.full((1, 9), 1 / 9), phi_prime_hat),
                      lexicon=PolarityLexicon())
