import numpy as np
import pytest

from segsum import model
from segsum.corpus import Corpus, Review, Sentence, Token, build_vocabulary
from segsum.model import (
    Hyperparams,
    Schedule,
    SeedList,
    estimate,
    gibbs_conditional,
    gibbs_sweep,
    init,
    lexicon_polarity,
    load_checkpoint,
    map_gradient_raw,
    map_objective,
    map_objective_raw,
    optimize_smoothers,
    save_checkpoint,
    topic_report,
    train,
)
from segsum.synthetic import generate_generative_corpus, make_planted_model

import oracles


def word(stem, sentiment=False):
    return Token(stem, stem, "JJ" if sentiment else "NN", sentiment)


def make_corpus(doc_specs):
    """doc_specs: list of docs; each doc a list of (aspect stems, senti stems)."""
    reviews = []
    for d, sentences in enumerate(doc_specs):
        rid = f"r{d}"
        sents = [Sentence([word(a) for a in aspect] + [word(s, True) for s in senti], rid)
                 for aspect, senti in sentences]
        reviews.append(Review(rid, f"e{d}", sents))
    return Corpus(reviews)


FIXTURE_DOCS = [
    [(["food", "sauce"], ["good"]),
     (["food"], ["bad", "bad"]),
     (["staff", "staff", "wait"], [])],
    [(["decor", "music"], ["nice"]),
     ([], ["good", "nice"]),
     (["food", "wait"], ["bad"])],
]


@pytest.fixture
def small_state():
    corpus = make_corpus(FIXTURE_DOCS)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    hp = Hyperparams(num_topics=2)
    return init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), rng_seed=7)


class TestInit:
    def test_counts_match_assignments(self, small_state):
        assert small_state.counts_consistent()

    def test_beta_prime_is_one_without_seeds(self, small_state):
        assert np.all(small_state.beta_prime == 1.0)

    def test_seed_offsets(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2, mu_seed=2.0)
        seeds = SeedList(frozenset({"good"}), frozenset({"bad"}))
        state = init(corpus, vocab, hp, seeds, rng_seed=0)
        g = vocab.senti_index["good"]
        b = vocab.senti_index["bad"]
        assert np.allclose(state.beta_prime[0, :, g], np.e ** 2)
        assert np.allclose(state.beta_prime[1, :, g], np.e ** -2)
        assert np.allclose(state.beta_prime[0, :, b], np.e ** -2)
        assert np.allclose(state.beta_prime[1, :, b], np.e ** 2)
        assert state.seed_mask[:, g].all() and state.seed_mask[:, b].all()

    def test_unknown_seed_ignored_with_warning(self, caplog):
        import logging
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        with caplog.at_level(logging.WARNING):
            state = init(corpus, vocab, Hyperparams(num_topics=2),
                         SeedList(frozenset({"missingword"}), frozenset()))
        assert "missingword" in caplog.text
        assert not state.seed_mask.any()


class TestGibbsConditional:
    def test_empty_sentence_case(self):
        corpus = make_corpus([[([], []), (["food"], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 3)
        state.decrement(0, 0)
        cond = gibbs_conditional(state, 0, 0)
        expected = np.outer(state.n_DS[0] + hp.gamma, state.n_DT[0] + hp.alpha)
        assert np.allclose(cond, expected, rtol=1e-12)
        state.increment(0, 0, state.s[0][0], state.z[0][0])

    def test_single_word_formula(self):
        corpus = make_corpus([[(["food"], []), (["food", "sauce"], [])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        state.decrement(0, 0)
        i = vocab.aspect_index["food"]
        V = vocab.num_aspect_words
        expected = ((state.n_TW[0, i] + hp.beta)
                    / (state.n_TW[0].sum() + V * hp.beta)
                    * (state.n_DT[0, 0] + hp.alpha))
        cond = gibbs_conditional(state, 0, 0)
        assert np.allclose(cond[:, 0],
                           expected * (state.n_DS[0] + hp.gamma), rtol=1e-12)

    def test_matches_term_by_term_oracle(self, small_state):
        state = small_state
        for d in range(2):
            for c in range(3):
                state.decrement(d, c)
                sent = state.docs[d][c]
                got = gibbs_conditional(state, d, c)
                want = oracles.conditional_oracle(
                    list(sent.aspect), list(sent.senti),
                    state.n_TW.tolist(), state.n_STW.tolist(),
                    state.n_DT[d].tolist(), state.n_DS[d].tolist(),
                    state.hp.alpha, state.hp.beta, state.hp.gamma,
                    state.beta_prime.tolist())
                want = np.asarray(want)
                assert np.allclose(got / got.sum(), want / want.sum(), rtol=1e-12)
                state.increment(d, c, state.s[d][c], state.z[d][c])

    def test_repeated_word_increments_numerator(self):
        # "bad bad" in one sentence: second occurrence sees count+1
        corpus = make_corpus([[([], ["bad", "bad"]), ([], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        state.decrement(0, 0)
        i = vocab.senti_index["bad"]
        bp = state.beta_prime
        n = state.n_STW
        bar = state.bar_beta_prime + state.n_STW_rows
        for j in range(2):
            num = (n[j, 0, i] + bp[j, 0, i]) * (n[j, 0, i] + bp[j, 0, i] + 1)
            den = bar[j, 0] * (bar[j, 0] + 1)
            expected = num / den * (state.n_DT[0, 0] + hp.alpha) * (state.n_DS[0, j] + hp.gamma)
            assert gibbs_conditional(state, 0, 0)[j, 0] == pytest.approx(expected, rel=1e-12)


class TestEncoding:
    def test_ids_in_token_order_with_offsets_only_on_repeats(self):
        corpus = make_corpus([[(["food", "sauce", "food"], ["good"]), (["wait"], [])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        (first, second), = model.encode_corpus(corpus, vocab)
        food, sauce = vocab.aspect_index["food"], vocab.aspect_index["sauce"]
        assert first == ((food, sauce, food), (0, 0, 1), (vocab.senti_index["good"],), None)
        assert second == ((vocab.aspect_index["wait"],), None, (), None)
        # the ids are the vocabulary's own int objects, not copies
        assert first.aspect[0] is vocab.aspect_index["food"]


# The scalar kernel must sample the chain of the per-sentence numpy sampler
# it replaced (oracles.numpy_gibbs_sweep): the same z/s, counts, smoothers
# and RNG state, compared with ==, never with a tolerance.

COUNT_NAMES = ("n_TW", "n_STW", "n_DT", "n_DS", "n_TW_rows", "n_STW_rows")


def train_with_both_samplers(corpus, hp, seeds, rng_seed, schedule, monkeypatch):
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    kernel = train(init(corpus, vocab, hp, seeds, rng_seed), schedule)
    with monkeypatch.context() as patch:
        patch.setattr(model, "gibbs_sweep", oracles.numpy_gibbs_sweep)
        reference = train(init(corpus, vocab, hp, seeds, rng_seed), schedule)
    return kernel, reference


def assert_same_chain(a, b):
    assert [z.tolist() for z in a.z] == [z.tolist() for z in b.z]
    assert [s.tolist() for s in a.s] == [s.tolist() for s in b.s]
    for name in COUNT_NAMES + ("y_topic", "y_senti", "beta_prime"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.optimize_log == b.optimize_log
    assert a.sweep_index == b.sweep_index


def random_long_sentence_corpus(seed=17, num_docs=30, longest=20):
    """Sentences of 8 to `longest` aspect and sentiment tokens each over a
    small vocabulary, so that ids repeat, plus some short and empty ones.
    From 8 terms up numpy's pairwise sum adds in another order than left to
    right."""
    rng = np.random.default_rng(seed)
    aspect_stems = [f"asp{i}" for i in range(12)]
    senti_stems = [f"sen{i}" for i in range(9)]
    docs = []
    for _ in range(num_docs):
        sentences = []
        for _ in range(rng.integers(2, 6)):
            long = rng.random() < 0.85
            lengths = rng.integers(8, longest + 1, size=2) if long else rng.integers(0, 4, size=2)
            sentences.append((list(rng.choice(aspect_stems, lengths[0])),
                              list(rng.choice(senti_stems, lengths[1]))))
        docs.append(sentences)
    return make_corpus(docs)


class TestSameChainAsNumpySampler:
    @pytest.mark.parametrize("rng_seed", [0, 2])
    def test_planted_corpus_train_schedule(self, rng_seed, monkeypatch):
        corpus = generate_generative_corpus(make_planted_model(num_topics=3),
                                            num_reviews=500, rng_seed=5)
        seeds = SeedList(frozenset({"pos0", "pos1"}), frozenset({"neg0", "neg1"}))
        kernel, reference = train_with_both_samplers(
            corpus, Hyperparams(num_topics=3), seeds, rng_seed,
            Schedule(burn_in=8, interleave=2, total=12), monkeypatch)
        assert [t for t, _, _ in kernel.optimize_log] == [10, 12]
        assert_same_chain(kernel, reference)

    @pytest.mark.parametrize("num_topics", [1, 4])
    def test_long_sentences_with_repeated_ids(self, num_topics, monkeypatch):
        # with one topic numpy summed the aspect numerators pairwise
        corpus = random_long_sentence_corpus()
        seeds = SeedList(frozenset({"sen0"}), frozenset({"sen1"}))
        kernel, reference = train_with_both_samplers(
            corpus, Hyperparams(num_topics=num_topics), seeds, 3,
            Schedule(burn_in=2, interleave=2, total=6), monkeypatch)
        sentences = [sent for doc in kernel.docs for sent in doc]
        assert sum(len(x.aspect) >= 8 and x.aspect_offsets is not None for x in sentences) > 50
        assert sum(len(x.senti) >= 8 and x.senti_offsets is not None for x in sentences) > 50
        assert_same_chain(kernel, reference)

    @pytest.mark.parametrize("num_topics", [1, 3])
    def test_conditional_adds_in_the_numpy_order(self, num_topics):
        # With np.log for its logarithm, the kernel's conditional equals the
        # numpy expression's bit for bit: the same terms added in the same
        # order, up to pairwise sums of more than 128 terms. (math.log, which
        # the kernel uses, can differ from np.log in the last bit.)
        corpus = random_long_sentence_corpus(seed=29, num_docs=12, longest=300)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = train(init(corpus, vocab, Hyperparams(num_topics=num_topics),
                           SeedList(frozenset({"sen0"}), frozenset({"sen1"})), rng_seed=1),
                      Schedule(burn_in=1, interleave=1, total=2))
        sentences = oracles.numpy_sentences(state.docs)
        for d, doc in enumerate(state.docs):
            for c, sent in enumerate(doc):
                state.decrement(d, c)
                got = model._log_terms(state, state.hp, vocab.num_aspect_words, sent, d,
                                       lambda x: float(np.log(x)))
                want = oracles.numpy_conditional_log(state, sentences, d, c)
                assert got == want.ravel().tolist()
                state.increment(d, c, state.s[d][c], state.z[d][c])

    def test_draw_picks_as_numpy_does(self, monkeypatch):
        # With np.exp for its exponential, the kernel's draw picks the cell
        # that the numpy sampler's cumsum and searchsorted picked
        monkeypatch.setattr(model, "exp", lambda x: float(np.exp(x)))
        rng = np.random.default_rng(31)
        for _ in range(2000):
            logp = rng.normal(scale=rng.choice([0.5, 5.0, 50.0]), size=(2, rng.integers(1, 9)))
            u = rng.random()
            cum = np.cumsum(np.exp(logp - logp.max()).ravel())
            want = min(int(np.searchsorted(cum, u * cum[-1], side="right")), cum.size - 1)
            assert model._draw(logp.ravel().tolist(), u) == want

    def test_recount_equals_per_sentence_recount(self):
        corpus = random_long_sentence_corpus(seed=23)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=5),
                     SeedList(frozenset(), frozenset()), rng_seed=4)
        gibbs_sweep(state)
        for name, fast, slow in zip(COUNT_NAMES, state.recount(), oracles.numpy_recount(state)):
            assert np.array_equal(fast, slow), name
            assert np.array_equal(fast, getattr(state, name)), name
        assert np.array_equal(state.n_TW_rows, state.n_TW.sum(axis=1))
        assert np.array_equal(state.n_STW_rows, state.n_STW.sum(axis=2))

    def test_underflowed_smoother_gives_minus_infinity(self):
        # beta_prime[1, :, bad] underflows to 0; with no count there, the
        # sentiment-1 cells of a sentence holding 'bad' have log -inf
        corpus = make_corpus([[(["food"], ["bad"]), (["food"], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=2),
                     SeedList(frozenset(), frozenset()), rng_seed=0)
        bad = vocab.senti_index["bad"]
        state.y_senti[1, bad] = -800.0
        state.refresh_beta_prime()
        state.decrement(0, 0)
        got = model.gibbs_conditional_log(state, 0, 0)
        with np.errstate(divide="ignore"):
            want = oracles.numpy_conditional_log(state, oracles.numpy_sentences(state.docs), 0, 0)
        assert np.isneginf(got[1]).all() and np.isneginf(want[1]).all()
        assert np.allclose(got[0], want[0], rtol=1e-12)
        state.increment(0, 0, 0, 0)
        gibbs_sweep(state)
        assert state.s[0][0] == 0

    def test_counts_inconsistent_with_the_corpus_structure(self, small_state):
        assert small_state.counts_consistent()
        small_state.z[0] = small_state.z[0][:-1]
        assert not small_state.counts_consistent()

    def test_assignment_out_of_range_is_inconsistent(self, small_state):
        small_state.z[1][0] = small_state.hp.num_topics
        assert not small_state.counts_consistent()


class TestSweep:
    def test_preserves_sentence_totals(self, small_state):
        before_dt = small_state.n_DT.sum(axis=1).copy()
        before_ds = small_state.n_DS.sum(axis=1).copy()
        gibbs_sweep(small_state)
        assert np.array_equal(small_state.n_DT.sum(axis=1), before_dt)
        assert np.array_equal(small_state.n_DS.sum(axis=1), before_ds)

    def test_counts_consistent_after_sweeps(self, small_state):
        for _ in range(20):
            gibbs_sweep(small_state)
        assert small_state.counts_consistent()

    def test_degenerate_conditional_is_taken(self):
        corpus = make_corpus([[([], ["good"]), ([], ["bad"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        state.y_senti[0, vocab.senti_index["good"]] = 30.0
        state.y_senti[1, vocab.senti_index["good"]] = -30.0
        state.y_senti[0, vocab.senti_index["bad"]] = -30.0
        state.y_senti[1, vocab.senti_index["bad"]] = 30.0
        state.refresh_beta_prime()
        state.decrement(0, 0)
        cond = gibbs_conditional(state, 0, 0)
        assert cond.max() / cond.sum() >= 1 - 1e-12
        state.increment(0, 0, state.s[0][0], state.z[0][0])
        gibbs_sweep(state)
        assert state.s[0][0] == 0

    def test_exchange_restores_counts_bitwise(self, small_state):
        snapshot = (small_state.n_TW.copy(), small_state.n_STW.copy(),
                    small_state.n_DT.copy(), small_state.n_DS.copy())
        j, k = small_state.s[0][1], small_state.z[0][1]
        small_state.decrement(0, 1)
        small_state.increment(0, 1, j, k)
        assert np.array_equal(small_state.n_TW, snapshot[0])
        assert np.array_equal(small_state.n_STW, snapshot[1])
        assert np.array_equal(small_state.n_DT, snapshot[2])
        assert np.array_equal(small_state.n_DS, snapshot[3])

    def test_normalized_conditional_sums_to_one(self, small_state):
        small_state.decrement(1, 0)
        cond = gibbs_conditional(small_state, 1, 0)
        assert abs((cond / cond.sum()).sum() - 1.0) <= 1e-12
        small_state.increment(1, 0, small_state.s[1][0], small_state.z[1][0])


class TestMapObjective:
    def test_zero_counts_zero_likelihood(self):
        rng = np.random.default_rng(0)
        y_topic = rng.normal(size=(2, 3))
        y_senti = rng.normal(size=(2, 3))
        n = np.zeros((2, 2, 3))
        obj = map_objective_raw(y_topic, y_senti, n, 2.0)
        prior = (2 * y_topic.sum() + 2 * y_senti.sum()
                 + ((y_topic[None] + y_senti[:, None]) ** 2).sum() / 4.0)
        assert obj == pytest.approx(prior, rel=1e-12)

    def test_zero_everything_is_zero(self):
        y = np.zeros((2, 3))
        assert map_objective_raw(np.zeros((2, 3)), y, np.zeros((2, 2, 3)), 2.0) == 0.0

    def test_fixture_against_high_precision_oracle(self):
        n = np.array([[[3.0, 1.0]], [[0.0, 2.0]]])  # (S=2, T=1, V'=2)
        y_topic = np.zeros((1, 2))
        y_senti = np.zeros((2, 2))
        got = map_objective_raw(y_topic, y_senti, n, 2.0)
        want = oracles.objective_oracle(y_topic.tolist(), y_senti.tolist(),
                                       n.tolist(), 2.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_random_points_against_oracle(self):
        rng = np.random.default_rng(5)
        n = rng.integers(0, 6, size=(2, 3, 4)).astype(float)
        for _ in range(5):
            y_topic = rng.normal(scale=0.8, size=(3, 4))
            y_senti = rng.normal(scale=0.8, size=(2, 4))
            got = map_objective_raw(y_topic, y_senti, n, 2.0)
            want = oracles.objective_oracle(y_topic.tolist(), y_senti.tolist(),
                                           n.tolist(), 2.0)
            assert got == pytest.approx(want, rel=1e-10)


class TestMapGradient:
    def test_zero_counts_at_zero(self):
        S, T, Vp = 2, 3, 4
        g_topic, g_senti = map_gradient_raw(np.zeros((T, Vp)), np.zeros((S, Vp)),
                                            np.zeros((S, T, Vp)), 2.0)
        assert np.allclose(g_topic, S)
        assert np.allclose(g_senti, T)

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        n = rng.integers(0, 5, size=(2, 2, 3)).astype(float)
        for _ in range(5):
            y_topic = rng.normal(scale=0.5, size=(2, 3))
            y_senti = rng.normal(scale=0.5, size=(2, 3))
            g_topic, g_senti = map_gradient_raw(y_topic, y_senti, n, 2.0)

            def fun(yt, ys):
                return map_objective_raw(np.asarray(yt), np.asarray(ys), n, 2.0)

            fd_topic, fd_senti = oracles.finite_difference_gradient(
                fun, y_topic.tolist(), y_senti.tolist())
            assert np.allclose(g_topic, fd_topic, rtol=1e-4, atol=1e-6)
            assert np.allclose(g_senti, fd_senti, rtol=1e-4, atol=1e-6)

    def test_sentiment_swap_symmetry(self):
        rng = np.random.default_rng(3)
        n = rng.integers(0, 5, size=(2, 2, 3)).astype(float)
        y_topic = rng.normal(size=(2, 3))
        y_senti = rng.normal(size=(2, 3))
        g_topic, g_senti = map_gradient_raw(y_topic, y_senti, n, 2.0)
        g_topic_sw, g_senti_sw = map_gradient_raw(y_topic, y_senti[::-1].copy(),
                                                  n[::-1].copy(), 2.0)
        assert np.allclose(g_topic, g_topic_sw)
        assert np.allclose(g_senti, g_senti_sw[::-1])


class TestOptimize:
    def test_descent_and_stationarity(self, small_state):
        for _ in range(5):
            gibbs_sweep(small_state)
        before = map_objective(small_state)
        optimize_smoothers(small_state, max_iters=200, tol=1e-8)
        after = map_objective(small_state)
        assert after <= before + 1e-9
        y_topic = small_state.y_topic.copy()
        optimize_smoothers(small_state, max_iters=200, tol=1e-8)
        assert np.allclose(small_state.y_topic, y_topic, atol=1e-6)

    def test_one_sided_word_gets_positive_offset(self):
        # 'nice' occurs only with sentiment 0
        corpus = make_corpus([[([], ["nice"]), ([], ["nice"]), ([], ["bad"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        i = vocab.senti_index["nice"]
        b = vocab.senti_index["bad"]
        state.n_STW[:] = 0
        state.n_STW[0, 0, i] = 5
        state.n_STW[1, 0, b] = 3
        state.n_STW_rows = state.n_STW.sum(axis=2)
        optimize_smoothers(state, max_iters=300, tol=1e-9)
        assert state.y_senti[0, i] > state.y_senti[1, i]

        # independent dense grid search over the two coordinates
        best = None
        base_topic = state.y_topic.copy()
        base_senti = state.y_senti.copy()
        for a in np.linspace(-4, 4, 81):
            for b2 in np.linspace(-4, 4, 81):
                ys = base_senti.copy()
                ys[0, i], ys[1, i] = a, b2
                val = map_objective_raw(base_topic, ys, state.n_STW, hp.sigma_sq)
                if best is None or val < best[0]:
                    best = (val, a, b2)
        assert best[1] > best[2]

    def test_frozen_seeds_do_not_move(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2)
        state = init(corpus, vocab, hp,
                     SeedList(frozenset({"good"}), frozenset({"bad"})), 0)
        for _ in range(3):
            gibbs_sweep(state)
        g = vocab.senti_index["good"]
        before = state.y_senti[:, g].copy()
        optimize_smoothers(state)
        assert np.array_equal(state.y_senti[:, g], before)


class TestTrain:
    def test_schedule_arithmetic(self):
        corpus = make_corpus([[(["food"], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = train(init(corpus, vocab, Hyperparams(num_topics=2),
                           SeedList(frozenset(), frozenset()), rng_seed=0),
                      Schedule(burn_in=0, interleave=1, total=1))
        assert state.sweep_index == 1
        assert len(state.optimize_log) == 1

    def test_interleave_points(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = train(init(corpus, vocab, Hyperparams(num_topics=2),
                           SeedList(frozenset(), frozenset()), rng_seed=0),
                      Schedule(burn_in=4, interleave=3, total=12))
        assert [t for t, _, _ in state.optimize_log] == [7, 10]

    def test_determinism(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        args = (corpus, vocab, Hyperparams(num_topics=2),
                SeedList(frozenset({"good"}), frozenset({"bad"})))
        schedule = Schedule(burn_in=2, interleave=2, total=10)
        a = train(init(*args, rng_seed=42), schedule)
        b = train(init(*args, rng_seed=42), schedule)
        for za, zb in zip(a.z, b.z):
            assert np.array_equal(za, zb)
        for sa, sb in zip(a.s, b.s):
            assert np.array_equal(sa, sb)
        assert np.array_equal(a.y_topic, b.y_topic)


    def test_resumed_train_logs_map_steps_at_the_same_sweeps(self, tmp_path):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        args = (corpus, vocab, Hyperparams(num_topics=2),
                SeedList(frozenset({"good"}), frozenset({"bad"})))
        schedule = Schedule(burn_in=4, interleave=3, total=12)
        whole = train(init(*args, rng_seed=3), schedule)
        first = train(init(*args, rng_seed=3), Schedule(burn_in=4, interleave=3, total=8))
        assert [t for t, _, _ in first.optimize_log] == [7]
        path = tmp_path / "ckpt.json"
        save_checkpoint(first, path)
        resumed = train(load_checkpoint(path, corpus), schedule)
        assert resumed.optimize_log == whole.optimize_log[1:]
        assert [t for t, _, _ in resumed.optimize_log] == [10]
        for za, zb in zip(whole.z, resumed.z):
            assert np.array_equal(za, zb)
        assert np.array_equal(whole.y_senti, resumed.y_senti)


class TestEstimate:
    def test_empty_document_symmetric_sentiment(self):
        corpus = Corpus([Review("r0", "e0", []),
                         Review("r1", "e1", [Sentence([word("food")], "r1")])])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=2),
                     SeedList(frozenset(), frozenset()), 0)
        est = estimate(state)
        assert np.allclose(est.pi_hat[0], [0.5, 0.5])

    def test_theta_hand_value(self, small_state):
        small_state.n_DT[0] = [3.0, 1.0]
        est = estimate(small_state)
        assert np.allclose(est.theta_hat[0], [3.1 / 4.2, 1.1 / 4.2], rtol=1e-12)

    def test_rows_normalized_and_positive(self, small_state):
        for _ in range(3):
            gibbs_sweep(small_state)
        est = estimate(small_state)
        assert np.allclose(est.pi_hat.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(est.theta_hat.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(est.phi_hat.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(est.phi_prime_hat.sum(axis=2), 1.0, atol=1e-9)
        for arr in (est.pi_hat, est.theta_hat, est.phi_hat, est.phi_prime_hat):
            assert (arr > 0).all()


class TestPolarity:
    def test_zero_difference(self, small_state):
        small_state.y_senti[:] = 0.5
        assert lexicon_polarity(small_state, "good") == 0.0

    def test_seed_value_before_training(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=2, mu_seed=2.0),
                     SeedList(frozenset({"good"}), frozenset()), 0)
        assert lexicon_polarity(state, "good") == pytest.approx(4.0)

    def test_unknown_word_raises(self, small_state):
        with pytest.raises(KeyError):
            lexicon_polarity(small_state, "nonexistent")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, small_state):
        for _ in range(3):
            gibbs_sweep(small_state)
        optimize_smoothers(small_state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.n_TW, small_state.n_TW)
        assert np.array_equal(loaded.n_STW, small_state.n_STW)
        assert np.array_equal(loaded.y_topic, small_state.y_topic)
        assert np.array_equal(loaded.y_senti, small_state.y_senti)
        assert loaded.sweep_index == small_state.sweep_index

    def test_resume_with_corpus_continues_identically(self, tmp_path):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2)
        seeds = SeedList(frozenset(), frozenset())
        state = init(corpus, vocab, hp, seeds, rng_seed=9)
        for _ in range(4):
            gibbs_sweep(state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        resumed = load_checkpoint(path, corpus)
        assert resumed.counts_consistent()
        gibbs_sweep(state)
        gibbs_sweep(resumed)
        for za, zb in zip(state.z, resumed.z):
            assert np.array_equal(za, zb)

    def test_missing_key_names_it(self, tmp_path, small_state):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        del payload["y_topic"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="y_topic"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, small_state,
                                                    monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        before = path.read_bytes()
        gibbs_sweep(small_state)

        def broken_dump(payload, fh):
            fh.write('{"format_version": 1, "z": [')
            raise OSError("disk full")

        monkeypatch.setattr(model.json, "dump", broken_dump)
        with pytest.raises(OSError):
            save_checkpoint(small_state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_vocab_hash_checked(self, tmp_path, small_state):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        payload["vocab_hash"] = "tampered"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestTopicReport:
    def test_shape(self, small_state):
        report = topic_report(small_state, top_n=3)
        assert report["num_topics"] == 2
        for row in report["topics"]:
            assert len(row["aspect_words"]) <= 3
            assert len(row["positive_words"]) <= 3
        text = model.format_topic_table(report)
        assert "top aspect words" in text
