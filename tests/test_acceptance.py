"""Acceptance criteria for the full pipeline.

Each test prints a single PASS line on success; failures carry the measured
numbers. Budgeted runtimes are asserted with a monotonic clock.
"""

import itertools
import time

import numpy as np
import pytest

from segsum import model
from segsum.corpus import Sentence, Token, build_vocabulary
from segsum.evaluation import EvalConfig
from segsum.patterns import extract_corpus
from segsum.synthetic import (
    generate_generative_corpus,
    generate_text_reviews,
    make_planted_model,
    text_polarity_lexicon,
)

import oracles
from conftest import corpus_of, evaluate_map, tagged_sentence


def report(name, detail=""):
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def word(stem, sentiment=False):
    return Token(stem, stem, "JJ" if sentiment else "NN", sentiment)


def test_sampler_exactness():
    """Empirical assignment frequencies of a one-sentence corpus match the
    exact conditional within total variation 0.01 over 50,000 sweeps."""
    start = time.monotonic()
    sent = Sentence([word("food"), word("sauce"), word("good", True),
                     word("bad", True)], "r0")
    pad = Sentence([word("wine"), word("nice", True)], "r0")
    corpus = corpus_of([("r0", "e0", [sent]), ("r1", "e1", [pad])])
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    hp = model.Hyperparams(num_topics=2)
    state = model.init(corpus, vocab, hp,
                       model.SeedList(frozenset({"good"}), frozenset({"bad"})),
                       rng_seed=123)
    sentences = oracles.numpy_sentences(state)
    # freeze the padding sentence so the target conditional is constant
    oracles.numpy_decrement(state, sentences, 1, 0)
    oracles.numpy_increment(state, sentences, 1, 0, 0, 0)

    oracles.numpy_decrement(state, sentences, 0, 0)
    exact = np.exp(oracles.numpy_conditional_log(state, sentences, 0, 0))
    exact = exact / exact.sum()
    oracles.numpy_increment(state, sentences, 0, 0, state.s[0], state.z[0])

    counts = np.zeros_like(exact)
    sweeps = 50_000
    for _ in range(sweeps):
        oracles.numpy_decrement(state, sentences, 0, 0)
        logp = oracles.numpy_conditional_log(state, sentences, 0, 0)
        j, k = divmod(oracles.numpy_draw(logp, state.rng.random()), hp.num_topics)
        oracles.numpy_increment(state, sentences, 0, 0, j, k)
        counts[j, k] += 1

    tv = 0.5 * np.abs(counts / sweeps - exact).sum()
    elapsed = time.monotonic() - start
    assert tv <= 0.01, f"total variation {tv:.4f} > 0.01"
    assert elapsed < 10, f"{elapsed:.1f}s >= 10s budget"
    report("sampler exactness", f"(TV={tv:.4f}, {elapsed:.1f}s)")


def test_count_consistency():
    """After 100 sweeps on a 50-review corpus every count matrix equals a
    from-scratch recount, bitwise."""
    planted = make_planted_model(num_topics=3)
    corpus = generate_generative_corpus(planted, num_reviews=50, rng_seed=1)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = model.init(corpus, vocab, model.Hyperparams(num_topics=3),
                       model.SeedList(frozenset(), frozenset()), rng_seed=2)
    for _ in range(100):
        model.gibbs_sweep(state)
    assert state.counts_consistent()
    report("count consistency", "(100 sweeps, 50 reviews)")


def test_gradient_check():
    """Analytic MAP gradient matches central finite differences to relative
    error < 1e-4 at 20 random points (T=3, V'=10)."""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    S, T, Vp = 2, 3, 10
    worst = 0.0
    for _ in range(20):
        n = rng.integers(0, 8, size=(S, T, Vp)).astype(float)
        y_topic = rng.normal(scale=0.6, size=(T, Vp))
        y_senti = rng.normal(scale=0.6, size=(S, Vp))
        _, g_topic, g_senti = model.map_objective_and_gradient(y_topic, y_senti, n, 2.0)

        def fun(yt, ys):
            return model.map_objective_and_gradient(np.asarray(yt), np.asarray(ys), n, 2.0)[0]

        fd_topic, fd_senti = oracles.finite_difference_gradient(
            fun, y_topic.tolist(), y_senti.tolist())
        for got, want in ((g_topic, np.asarray(fd_topic)),
                          (g_senti, np.asarray(fd_senti))):
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 5, f"{elapsed:.1f}s >= 5s budget"
    report("gradient check", f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_optimizer_descent():
    """Interleaved smoother optimization never increases the MAP objective."""
    planted = make_planted_model(num_topics=2)
    corpus = generate_generative_corpus(planted, num_reviews=40, rng_seed=3)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = model.init(corpus, vocab, model.Hyperparams(num_topics=2),
                       model.SeedList(frozenset({"pos0"}), frozenset({"neg0"})),
                       rng_seed=4)
    # the schedule burn_in=5, interleave=5, total=30, stepped by hand so that
    # the objective is computed afresh around each step
    steps = 0
    for t in range(1, 31):
        model.gibbs_sweep(state)
        if t > 5 and t % 5 == 0:
            before = model.map_objective(state)
            returned = model.optimize_smoothers(state)
            after = model.map_objective(state)
            assert after <= before, f"objective rose at sweep {t}"
            assert returned == (before, after), f"step at sweep {t} misreported"
            steps += 1
    report("optimizer descent", f"({steps} steps)")


PLANTED_SEEDS = model.SeedList(frozenset({"pos0", "pos1"}), frozenset({"neg0", "neg1"}))


def planted_recovery(state, planted, seeds=PLANTED_SEEDS):
    """(best-permutation mean overlap of each learned topic's top words with
    a planted topic, sign accuracy of the unseeded planted sentiment words).
    A topic's top words are its most frequent aspect stems, ties by index."""
    vocab, n_top = state.vocab, len(planted.topic_vocab[0])
    learned = [{vocab.aspect_stems[i] for i in np.argsort(-row, kind="stable")[:n_top]}
               for row in state.n_TW]
    best = max(float(np.mean([len(planted.topic_vocab[k] & learned[perm[k]]) / n_top
                              for k in range(len(learned))]))
               for perm in itertools.permutations(range(len(learned))))
    unseeded = [(w, +1) for w in sorted(planted.positive_stems - seeds.positive)] \
        + [(w, -1) for w in sorted(planted.negative_stems - seeds.negative)]
    polarity = state.y_senti[0] - state.y_senti[1]
    correct = sum(1 for w, sign in unseeded
                  if np.sign(polarity[vocab.senti_index[w]]) == sign)
    return best, correct / len(unseeded)


def test_generative_recovery():
    """Training on 500 reviews sampled from a planted 3-topic model recovers
    topic supports (mean best-permutation overlap >= 0.6) and sentiment word
    signs (>= 90% correct)."""
    start = time.monotonic()
    planted = make_planted_model(num_topics=3)
    corpus = generate_generative_corpus(planted, num_reviews=500, rng_seed=5)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = model.train(model.init(corpus, vocab, model.Hyperparams(num_topics=3),
                                   PLANTED_SEEDS, rng_seed=6),
                        model.Schedule(burn_in=100, interleave=50, total=400))
    best, accuracy = planted_recovery(state, planted)
    elapsed = time.monotonic() - start
    assert best >= 0.6, f"mean topic overlap {best:.2f} < 0.6"
    assert accuracy >= 0.9, f"sentiment sign accuracy {accuracy:.2f} < 0.9"
    assert elapsed < 120, f"{elapsed:.0f}s >= 120s budget"
    report("generative recovery",
           f"(overlap {best:.2f}, sign acc {accuracy:.2f}, {elapsed:.0f}s)")


# (corpus seed, model seed) on the planted 3-topic corpus of 500 reviews, at
# the benchmark's train schedule (12 sweeps). Before the seed words anchored
# the initial sentiment, all but (5, 0) learned the unseeded sentiment words
# with the inverted sign (accuracy 0.00-0.46). At (40, 40) two planted topics
# share one learned topic: the sampler has no move that leaves such a mode.
@pytest.mark.parametrize("corpus_seed,model_seed", [
    (5, 0), (5, 2), (5, 3), (5, 11), (5, 18), (5, 204), (5, 205), (5, 207),
    *((s, s) for s in (1, 4, 7, 12, 19, 22, 30, 40))])
def test_seed_words_fix_the_polarity(corpus_seed, model_seed):
    planted = make_planted_model(num_topics=3)
    corpus = generate_generative_corpus(planted, num_reviews=500, rng_seed=corpus_seed)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = model.train(model.init(corpus, vocab, model.Hyperparams(num_topics=3),
                                   PLANTED_SEEDS, rng_seed=model_seed),
                        model.Schedule(burn_in=8, interleave=2, total=12))
    overlap, accuracy = planted_recovery(state, planted)
    assert accuracy >= 0.9, f"sentiment sign accuracy {accuracy:.2f} < 0.9"
    if (corpus_seed, model_seed) != (40, 40):
        assert overlap >= 0.9, f"mean topic overlap {overlap:.2f} < 0.9"


def test_pattern_golden_suite():
    """The documented examples of all five patterns, plus a negated form,
    match with the expected pattern ids and spans."""
    cases = [
        ([("instruction", "NN"), ("booklet", "NN"), ("includes", "VBZ"),
          ("clear", "JJ"), ("instruction", "NN")], 1, False),
        ([("filter", "NN"), ("basket", "NN"), ("is", "VBZ"), ("simple", "JJ"),
          ("to", "TO"), ("remove", "VB")], 2, False),
        ([("design", "NN"), ("is", "VBZ"), ("striking", "JJ")], 3, False),
        ([("easy", "JJ"), ("to", "TO"), ("clean", "VB")], 4, False),
        ([("very", "RB"), ("good", "JJ"), ("food", "NN")], 5, False),
        ([("basket", "NN"), ("is", "VBZ"), ("not", "RB"), ("easy", "JJ"),
          ("to", "TO"), ("clean", "VB")], 2, True),
    ]
    for pairs, expected_id, expected_neg in cases:
        corpus = corpus_of([("r1", "e", [tagged_sentence(pairs)])])
        segs = list(extract_corpus(corpus, {1, 2, 3, 4, 5}))
        assert len(segs) == 1, f"{pairs}: got {len(segs)} segments"
        assert segs[0].pattern_id == expected_id
        assert segs[0].negated == expected_neg
        assert (segs[0].start, segs[0].end) == (0, len(pairs))
    report("pattern golden suite", f"({len(cases)} cases)")


def test_eval_oracle_equivalence():
    """Entity-level evaluation matches the independent oracle on 1000 random
    instances, bit for bit: the entities of one evaluate."""
    start = time.monotonic()
    rng = np.random.default_rng(2025)
    alphabet = list("abcdefgh")
    instances = {}
    for i in range(1000):
        cands = [tuple(map(str, rng.choice(alphabet, size=rng.integers(1, 7))))
                 for _ in range(rng.integers(1, 6))]
        refs = [tuple(map(str, rng.choice(alphabet, size=rng.integers(1, 7))))
                for _ in range(rng.integers(1, 5))]
        instances[f"e{i:04}"] = cands, refs
    entries = evaluate_map({e: {"positive": list(map(list, cands)), "negative": []}
                            for e, (cands, _) in instances.items()},
                           {e: ([" ".join(x) for x in refs], ["x"])
                            for e, (_, refs) in instances.items()},
                           EvalConfig(token_normalization="surface_lower")).pros.entities
    for e, (cands, refs) in instances.items():
        got = entries[e]
        # evaluate scores each entity's distinct items in sorted order
        want = oracles.entity_oracle([list(y) for y in cands],
                                     [list(x) for x in sorted(set(refs))], 0.25)
        assert got["P_skip"] == want["p_skip"]
        assert got["R_skip"] == want["r_skip"]
        assert got["P_E"] == want["p_e"]
        assert got["R_E"] == want["r_e"]
        assert got["P_cb"] == want["p_cb"]
        assert got["R_cb"] == want["r_cb"]
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"{elapsed:.1f}s >= 30s budget"
    report("eval oracle equivalence", f"(1000 instances, {elapsed:.1f}s)")


def test_hand_computed_fixtures():
    """Hand-derivable values reproduce exactly."""
    # posterior estimate: n_DT=[3,1], alpha=0.1 -> theta = [3.1, 1.1] / 4.2
    corpus = corpus_of([("r0", "e0", [Sentence([word("food")], "r0")])])
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = model.init(corpus, vocab, model.Hyperparams(num_topics=2),
                       model.SeedList(frozenset(), frozenset()), 0)
    state.n_DT[0] = [3.0, 1.0]
    est = model.estimate(state)
    assert est.theta_hat[0][0] == 3.1 / 4.2
    assert est.theta_hat[0][1] == 1.1 / 4.2

    # MAP objective at zero is exactly zero
    assert model.map_objective_and_gradient(np.zeros((2, 3)), np.zeros((2, 3)),
                                            np.zeros((2, 2, 3)), 2.0)[0] == 0.0

    # evaluation fixture: one exact candidate, one disjoint
    e = evaluate_map({"e": {"positive": [["good", "food"], ["bad", "wine"]], "negative": []}},
                     {"e": (["good food", "rude staff"], ["x"])}).pros.entities["e"]
    assert (e["P_skip"], e["R_skip"], e["P_E"], e["R_E"]) == (0.5, 0.5, 0.5, 0.5)
    report("hand-computed fixtures")


def test_end_to_end_smoke():
    """The full pipeline on a templated synthetic corpus beats the median of
    10 random-selection controls on the combined score."""
    import json
    from segsum import classify, corpus as corpus_mod, evaluation, filters, patterns

    start = time.monotonic()
    reviews = generate_text_reviews(num_entities=5, reviews_per_entity=10,
                                    rng_seed=11)
    corpus = corpus_of([
        (r["id"], r["entity_id"],
         [Sentence([corpus_mod.make_token(s, p) for s, p in sent], r["id"])
          for sent in r["sentences"]],
         r["pros"], r["cons"])
        for r in reviews])
    vocab = build_vocabulary(corpus, min_count=2, stopwords=frozenset({"the", "is", "very"}))
    state = model.train(model.init(corpus, vocab, model.Hyperparams(num_topics=3),
                                   model.SeedList(frozenset({"good", "great"}),
                                                  frozenset({"bad", "terribl"})),
                                   rng_seed=12),
                        model.Schedule(burn_in=30, interleave=20, total=90))
    est = model.estimate(state)
    refs = corpus_mod.build_reference_summaries(corpus)

    labeled, _ = classify.label_aspects(
        extract_corpus(corpus, {1, 2, 3, 4, 5}, max_words=patterns.DEFAULT_MAX_WORDS), est, vocab)
    entity_of = np.array([review.entity_id for review in corpus.reviews])[labeled.review]

    def combined(report_):
        p, c = report_.pros.stats, report_.cons.stats
        return (p.p + p.r + c.p + c.r) / 4

    # one pass over every entity's segments (without RANK, as a pass per entity)
    pos, neg = filters.run_procedure("AW+SEN", labeled, est, y_senti=state.y_senti)
    pipeline_score = combined(evaluation.evaluate(pos, neg, refs))

    controls = []
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        label = np.full(len(labeled), -1)   # -1: not kept
        for entity_id in sorted(set(entity_of.tolist())):
            rows = np.flatnonzero(entity_of == entity_id)
            kept = rows[[rng.random() < 0.5 for _ in rows]]
            label[kept] = rng.integers(0, 2, size=len(kept))
        controls.append(combined(evaluation.evaluate(labeled.take(label == 0),
                                                     labeled.take(label == 1), refs)))
    control_median = float(np.median(controls))

    elapsed = time.monotonic() - start
    assert pipeline_score > control_median, \
        f"pipeline {pipeline_score:.3f} <= control median {control_median:.3f}"
    assert elapsed < 300, f"{elapsed:.0f}s >= 300s budget"
    report("end-to-end smoke",
           f"(pipeline {pipeline_score:.3f} vs control {control_median:.3f}, {elapsed:.0f}s)")
