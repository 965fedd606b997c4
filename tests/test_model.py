import hashlib
import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segsum import corpus as corpus_mod, model
from segsum.cli import main
from segsum.corpus import Sentence, Token, Vocabulary, build_vocabulary
from segsum.model import (
    Hyperparams,
    Schedule,
    SeedList,
    estimate,
    gibbs_sweep,
    init,
    load_checkpoint,
    map_objective,
    map_objective_and_gradient,
    optimize_smoothers,
    save_checkpoint,
    topic_report,
    train,
)
from segsum.synthetic import generate_generative_corpus, make_planted_model

import oracles
from conftest import corpus_of
from test_cli import half_writes, write_config, write_corpus


def word(stem, sentiment=False):
    return Token(stem, stem, "JJ" if sentiment else "NN", sentiment)


def make_corpus(doc_specs):
    """doc_specs: list of docs; each doc a list of (aspect stems, senti stems)."""
    reviews = []
    for d, sentences in enumerate(doc_specs):
        rid = f"r{d}"
        sents = [Sentence([word(a) for a in aspect] + [word(s, True) for s in senti], rid)
                 for aspect, senti in sentences]
        reviews.append((rid, f"e{d}", sents))
    return corpus_of(reviews)


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

    # numpy does not document that one draw under the bounds T, S, T, S, ...
    # gives the values and generator state of the scalar draws in turn
    @settings(max_examples=150, deadline=None)
    @given(docs=st.lists(st.lists(st.tuples(st.lists(st.sampled_from(["food", "wait"]),
                                                     max_size=2),
                                            st.lists(st.sampled_from(["good", "bad"]),
                                                     max_size=2)),
                                  max_size=10), max_size=6),
           num_topics=st.integers(1, 40), rng_seed=st.integers(0, 2**63))
    @example(docs=[], num_topics=3, rng_seed=0)
    @example(docs=[[(["food"], [])] * 10] * 6, num_topics=40, rng_seed=2**63)
    def test_one_draw_equals_the_per_sentence_draws(self, docs, num_topics, rng_seed):
        hp = Hyperparams(num_topics=num_topics)
        state = init(make_corpus(docs), Vocabulary(["food", "wait"], ["good", "bad"]), hp,
                     SeedList(frozenset(), frozenset()), rng_seed)
        rng = np.random.default_rng(rng_seed)
        z, s = oracles.per_sentence_draws(rng, hp, len(state.flat.doc))
        assert state.z.tolist() == z.tolist() and state.s.tolist() == s.tolist()
        assert state.rng.bit_generator.state == rng.bit_generator.state
        state.check_assignments()

    def test_seed_words_set_the_initial_sentiment(self):
        # votes +1, -2, none, a tie, unseeded words only, +1
        docs = [[(["food"], ["good"]), (["food"], ["bad", "bad"]), (["wait"], [])],
                [([], ["good", "bad"]), (["food"], ["nice"]), ([], ["nice", "bad", "good", "good"])]]
        corpus = make_corpus(docs)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2)
        state = init(corpus, vocab, hp, SeedList(frozenset({"good"}), frozenset({"bad"})), 3)
        rng = np.random.default_rng(3)
        z, s = oracles.per_sentence_draws(rng, hp, 6)
        assert state.z.tolist() == z.tolist()
        assert state.s.tolist() == [0, 1, s[2], s[3], s[4], 0]
        assert state.rng.bit_generator.state == rng.bit_generator.state
        assert state.counts_consistent()

    def test_seed_file(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# seeds\npositive\tgood\n\nnegative\tbad\n")
        assert SeedList.from_file(path) == SeedList(frozenset({"good"}), frozenset({"bad"}))

    @pytest.mark.parametrize("line", ["positive\tgood\textra", "positive",
                                      "neutral\tfine", "positive\tbad"])
    def test_bad_seed_line_names_the_line(self, tmp_path, line):
        path = tmp_path / "seeds.txt"
        path.write_text(f"negative\tbad\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            SeedList.from_file(path)

    def test_unknown_seed_ignored_with_warning(self, caplog):
        import logging
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        with caplog.at_level(logging.WARNING):
            state = init(corpus, vocab, Hyperparams(num_topics=2),
                         SeedList(frozenset({"missingword"}), frozenset()))
        assert "missingword" in caplog.text
        assert not state.seed_mask.any()

    def test_unknown_seed_warnings_come_in_sorted_order(self, caplog):
        # a SeedList holds frozensets, whose order follows the string hash seed
        import logging
        words = [f"missing{c}" for c in "qwertyuiop"]
        vocab = build_vocabulary(make_corpus(FIXTURE_DOCS), min_count=1, stopwords=frozenset())
        with caplog.at_level(logging.WARNING):
            model.seed_smoothers(vocab, Hyperparams(num_topics=2),
                                 SeedList(frozenset(words[:6]), frozenset(words[6:])))
        assert [r.args[0] for r in caplog.records] == sorted(words[:6]) + sorted(words[6:])


def oracle_conditional(state, sentences, d, c):
    """The numpy sampler's unnormalized (S, T) conditional of sentence (d,
    c), whose own assignment must already be decremented."""
    return np.exp(oracles.numpy_conditional_log(state, sentences, d, c))


class TestGibbsConditional:
    def test_empty_sentence_case(self):
        corpus = make_corpus([[([], []), (["food"], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=2)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 3)
        sentences = oracles.numpy_sentences(state)
        oracles.numpy_decrement(state, sentences, 0, 0)
        cond = oracle_conditional(state, sentences, 0, 0)
        expected = np.outer(state.n_DS[0] + hp.gamma, state.n_DT[0] + hp.alpha)
        assert np.allclose(cond, expected, rtol=1e-12)
        oracles.numpy_increment(state, sentences, 0, 0, state.s[0], state.z[0])

    def test_single_word_formula(self):
        corpus = make_corpus([[(["food"], []), (["food", "sauce"], [])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        sentences = oracles.numpy_sentences(state)
        oracles.numpy_decrement(state, sentences, 0, 0)
        i = vocab.aspect_index["food"]
        V = vocab.num_aspect_words
        expected = ((state.n_TW[0, i] + hp.beta)
                    / (state.n_TW[0].sum() + V * hp.beta)
                    * (state.n_DT[0, 0] + hp.alpha))
        cond = oracle_conditional(state, sentences, 0, 0)
        assert np.allclose(cond[:, 0],
                           expected * (state.n_DS[0] + hp.gamma), rtol=1e-12)

    def test_matches_term_by_term_oracle(self, small_state):
        state = small_state
        sentences = oracles.numpy_sentences(state)
        for d in range(2):
            for c in range(3):
                oracles.numpy_decrement(state, sentences, d, c)
                aspect, _, senti, _ = sentences[d][c]
                got = oracle_conditional(state, sentences, d, c)
                want = oracles.conditional_oracle(
                    aspect.tolist(), senti.tolist(),
                    state.n_TW.tolist(), state.n_STW.tolist(),
                    state.n_DT[d].tolist(), state.n_DS[d].tolist(),
                    state.hp.alpha, state.hp.beta, state.hp.gamma,
                    state.beta_prime.tolist())
                want = np.asarray(want)
                assert np.allclose(got / got.sum(), want / want.sum(), rtol=1e-12)
                i = state.flat.doc_start[d] + c
                oracles.numpy_increment(state, sentences, d, c, state.s[i], state.z[i])

    def test_repeated_word_increments_numerator(self):
        # "bad bad" in one sentence: second occurrence sees count+1
        corpus = make_corpus([[([], ["bad", "bad"]), ([], ["good"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp = Hyperparams(num_topics=1)
        state = init(corpus, vocab, hp, SeedList(frozenset(), frozenset()), 0)
        sentences = oracles.numpy_sentences(state)
        oracles.numpy_decrement(state, sentences, 0, 0)
        i = vocab.senti_index["bad"]
        bp = state.beta_prime
        n = state.n_STW
        bar = state.bar_beta_prime + state.n_STW_rows
        for j in range(2):
            num = (n[j, 0, i] + bp[j, 0, i]) * (n[j, 0, i] + bp[j, 0, i] + 1)
            den = bar[j, 0] * (bar[j, 0] + 1)
            expected = num / den * (state.n_DT[0, 0] + hp.alpha) * (state.n_DS[0, j] + hp.gamma)
            assert oracle_conditional(state, sentences, 0, 0)[j, 0] == pytest.approx(
                expected, rel=1e-12)


ENCODED_STEMS = ["food", "wait", "good", "bad"]


def assert_flat_concatenates(flat, docs):
    """flat is the concatenation of docs, per review per sentence
    (aspect ids, senti ids) tuples."""
    sentences = [sent for doc in docs for sent in doc]
    assert flat.doc.tolist() == [d for d, doc in enumerate(docs) for _ in doc]
    assert flat.doc_start.tolist() == [0, *accumulate(len(doc) for doc in docs)]
    for c, channel in enumerate(("aspect", "senti")):
        ids = [sent[c] for sent in sentences]
        assert getattr(flat, f"{channel}_start").tolist() == [0, *accumulate(map(len, ids))]
        assert getattr(flat, channel).tolist() == [i for row in ids for i in row]
    assert all(a.dtype == np.int64 for a in flat[:6])
    assert flat.longest == max((len(ids) for sent in sentences for ids in sent), default=0)


class TestEncoding:
    def test_ids_in_token_order(self):
        corpus = make_corpus([[(["food", "sauce", "food"], ["good"]), (["wait"], [])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        food, sauce = vocab.aspect_index["food"], vocab.aspect_index["sauce"]
        assert_flat_concatenates(model.encode_corpus(corpus, vocab), [[
            ((food, sauce, food), (vocab.senti_index["good"],)),
            ((vocab.aspect_index["wait"],), ())]])

    @settings(max_examples=200, deadline=None)
    @given(reviews=st.lists(st.lists(st.lists(st.sampled_from(ENCODED_STEMS + ["oov"]),
                                              max_size=6), max_size=4), max_size=4),
           aspect=st.lists(st.sampled_from(ENCODED_STEMS), unique=True),
           senti=st.lists(st.sampled_from(ENCODED_STEMS), unique=True))
    @example(reviews=[], aspect=["food"], senti=["good"])
    @example(reviews=[[], [[], ["oov", "oov"], ["food", "good", "food", "good"]], []],
             aspect=["food"], senti=["good"])
    @example(reviews=[[["good", "food", "oov", "good"], ["bad"]]],
             aspect=["good", "food"], senti=["wait", "good"])
    def test_flat_arrays_concatenate_the_per_sentence_encoding(self, reviews, aspect, senti):
        # reviews without sentences, sentences without tokens or of
        # out-of-vocabulary stems only, repeated ids, the empty corpus and
        # stems in both vocabularies
        corpus = corpus_of([
            (f"r{d}", "e", [Sentence([word(stem) for stem in stems], f"r{d}")
                            for stems in sentences])
            for d, sentences in enumerate(reviews)])
        vocab = Vocabulary(aspect, senti)
        assert_flat_concatenates(model.encode_corpus(corpus, vocab),
                                 oracles.encode_sentences(corpus, vocab))


# The compiled sweep (_sweep.c) must sample the chain of the per-sentence
# numpy sampler (oracles.numpy_gibbs_sweep, with libm's log and exp): the
# same z/s, counts, smoothers and RNG state, compared with ==, never with a
# tolerance.

COUNT_NAMES = ("n_TW", "n_STW", "n_DT", "n_DS", "n_TW_rows", "n_STW_rows")
PLANTED_SEEDS = SeedList(frozenset({"pos0", "pos1"}), frozenset({"neg0", "neg1"}))


def train_with_both_samplers(corpus, hp, seeds, rng_seed, schedule, monkeypatch, prepare=None):
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    states = []
    for sweep in (gibbs_sweep, oracles.numpy_gibbs_sweep):
        state = init(corpus, vocab, hp, seeds, rng_seed)
        if prepare is not None:
            prepare(state)
        with monkeypatch.context() as patch:
            patch.setattr(model, "gibbs_sweep", sweep)
            states.append(train(state, schedule))
    return states


def assert_same_chain(a, b):
    assert a.z.tolist() == b.z.tolist()
    assert a.s.tolist() == b.s.tolist()
    for name in COUNT_NAMES + ("y_topic", "y_senti", "beta_prime"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert a.optimize_log == b.optimize_log
    assert a.sweep_index == b.sweep_index


def assert_same_picks_on_boundaries(reference, compiled, monkeypatch, sweeps=3,
                                    between=lambda sweep: None):
    """Sweep reference with the numpy sampler and compiled with the compiled
    sweep, calling between(sweep) after each, and check that both pick the
    same cells and keep the same counts.

    A draw u picks the first cell whose cumulative weight exceeds u * total.
    Random draws rarely fall within a rounding error of a cumulative weight,
    so equal chains alone would not show a sum added in another order. Here
    each u puts u * total exactly on the middle cumulative weight of the
    numpy sampler's conditional, so a conditional that differs in its last
    bit picks another cell."""
    draw = oracles.numpy_draw
    draws = []

    def draw_on_a_boundary(logp, u):
        cumulative = np.cumsum(oracles.libm_exp(logp - logp.max()).ravel())
        total = cumulative[-1]
        middle = cumulative[np.argmax(cumulative >= total / 2)]
        u = middle / total
        for _ in range(4):   # step u until u * total rounds to the weight
            if u * total != middle:
                u = np.nextafter(u, 2.0 if u * total < middle else -1.0)
        draws.append(u)
        return draw(logp, u)

    class Draws:
        def random(self, n):
            return np.array([draws.pop(0) for _ in range(n)])

    compiled.rng = Draws()
    monkeypatch.setattr(oracles, "numpy_draw", draw_on_a_boundary)
    for sweep in range(sweeps):
        oracles.numpy_gibbs_sweep(reference)
        gibbs_sweep(compiled)
        assert not draws
        assert compiled.z.tolist() == reference.z.tolist()
        assert compiled.s.tolist() == reference.s.tolist()
        for name in COUNT_NAMES:
            assert np.array_equal(getattr(compiled, name), getattr(reference, name)), name
        between(sweep)


def random_long_sentence_corpus(seed=17, num_docs=30, longest=20, first_docs=()):
    """Sentences of 8 to `longest` aspect and sentiment tokens each over a
    small vocabulary, so that ids repeat, plus some short and empty ones,
    after the documents first_docs (make_corpus's doc_specs).
    From 8 terms up the left-to-right sums of the sweep and the numpy
    sampler differ from numpy's own pairwise .sum, so long rows show a sum
    added in another order."""
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
    return make_corpus([*first_docs, *docs])


class TestSameChainAsNumpySampler:
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

    def test_oracle_adds_each_sum_left_to_right(self):
        # the numpy sampler's rule, checked without the compiled sweep: on a
        # sentence of over 128 ids, its conditional equals the same log terms
        # added one by one in token order
        corpus = random_long_sentence_corpus(seed=41, num_docs=8, longest=300)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=4),
                     SeedList(frozenset({"sen0"}), frozenset({"sen1"})), rng_seed=5)
        sentences = oracles.numpy_sentences(state)
        d, c = max(((d, c) for d, doc in enumerate(sentences) for c in range(len(doc))),
                   key=lambda dc: len(sentences[dc[0]][dc[1]][0]))
        aspect, aspect_offsets, senti, senti_offsets = sentences[d][c]
        assert len(aspect) > 128 and len(senti) > 8
        oracles.numpy_decrement(state, sentences, d, c)

        def in_order(terms):
            total = 0.0
            for term in terms:
                total += math.log(term)
            return total

        hp, V = state.hp, state.vocab.num_aspect_words
        expected = []
        for j in range(hp.num_sentiments):
            row = []
            for k in range(hp.num_topics):
                a_num = in_order(state.n_TW[k, w] + hp.beta + r
                                 for w, r in zip(aspect, aspect_offsets))
                a_den = in_order(state.n_TW_rows[k] + V * hp.beta + t
                                 for t in range(len(aspect)))
                s_num = in_order(state.n_STW[j, k, w] + state.beta_prime[j, k, w] + r
                                 for w, r in zip(senti, senti_offsets))
                s_den = in_order(state.n_STW_rows[j, k] + state.bar_beta_prime[j, k] + t
                                 for t in range(len(senti)))
                row.append((((a_num - a_den) + (s_num - s_den))
                            + math.log(state.n_DT[d, k] + hp.alpha))
                           + math.log(state.n_DS[d, j] + hp.gamma))
            expected.append(row)
        assert oracles.numpy_conditional_log(state, sentences, d, c).tolist() == expected

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
        sentences = oracles.numpy_sentences(state)
        oracles.numpy_decrement(state, sentences, 0, 0)
        logp = oracles.numpy_conditional_log(state, sentences, 0, 0)
        assert np.isneginf(logp[1]).all() and np.isfinite(logp[0]).all()
        oracles.numpy_increment(state, sentences, 0, 0, 0, 0)
        gibbs_sweep(state)
        assert state.s[0] == 0

    def test_counts_inconsistent_with_the_corpus_structure(self, small_state):
        assert small_state.counts_consistent()
        small_state.z = small_state.z[:-1]
        assert not small_state.counts_consistent()

    def test_assignment_out_of_range_is_inconsistent(self, small_state):
        small_state.z[small_state.flat.doc_start[1]] = small_state.hp.num_topics
        assert not small_state.counts_consistent()


class TestCompiledSweepSamplesTheOracleChain:
    @pytest.mark.parametrize("rng_seed", [0, 2])
    @pytest.mark.parametrize("num_topics", [1, 3, 7])
    def test_planted_corpus_train_schedule(self, num_topics, rng_seed, monkeypatch):
        corpus = generate_generative_corpus(make_planted_model(num_topics=3),
                                            num_reviews=500, rng_seed=5)
        compiled, reference = train_with_both_samplers(
            corpus, Hyperparams(num_topics=num_topics), PLANTED_SEEDS, rng_seed,
            Schedule(burn_in=8, interleave=2, total=12), monkeypatch)
        assert [t for t, _, _ in compiled.optimize_log] == [10, 12]
        assert_same_chain(compiled, reference)

    @pytest.mark.parametrize("num_topics,longest", [(1, 20), (4, 20), (1, 300), (4, 300)])
    def test_long_sentences_with_repeated_ids(self, num_topics, longest, monkeypatch):
        # the same terms, each sum left to right: rows of 8 terms and more
        # (where numpy's pairwise .sum would add in another order), over 128
        # terms (where it would halve the row), one topic and several, and
        # the longest rows, which fill the sweep's work buffer
        corpus = random_long_sentence_corpus(num_docs=30 if longest == 20 else 8,
                                             longest=longest)
        compiled, reference = train_with_both_samplers(
            corpus, Hyperparams(num_topics=num_topics),
            SeedList(frozenset({"sen0"}), frozenset({"sen1"})), 3,
            Schedule(burn_in=2, interleave=2, total=6), monkeypatch)
        sentences = [sent for doc in oracles.encode_sentences(corpus, compiled.vocab)
                     for sent in doc]
        assert max(len(x.aspect) for x in sentences) > (128 if longest > 128 else 8)
        assert sum(len(set(x.aspect)) < len(x.aspect) and len(set(x.senti)) < len(x.senti)
                   for x in sentences) > 20
        assert_same_chain(compiled, reference)

    def test_underflowed_smoother(self, monkeypatch):
        # beta_prime[1, :, bad] underflows to 0, and 'bad' occurs once, so
        # the sentiment-1 cells of its sentence have log -inf in every sweep
        corpus = make_corpus([[(["food"], ["bad"]), (["food"], ["good"])],
                              [(["wait"], ["nice", "good"]), (["food", "wait"], [])]])

        def underflow(state):
            state.y_senti[1, state.vocab.senti_index["bad"]] = -800.0
            state.refresh_beta_prime()

        compiled, reference = train_with_both_samplers(
            corpus, Hyperparams(num_topics=2), SeedList(frozenset(), frozenset()), 0,
            Schedule(burn_in=20, interleave=1, total=20), monkeypatch, prepare=underflow)
        assert (compiled.beta_prime[1, :, compiled.vocab.senti_index["bad"]] == 0).all()
        assert compiled.s[0] == 0
        assert_same_chain(compiled, reference)

    @pytest.mark.parametrize("num_topics,longest", [(1, 20), (3, 20), (1, 300), (4, 300)])
    def test_same_picks_with_every_draw_on_a_boundary(self, num_topics, longest, monkeypatch):
        corpus = random_long_sentence_corpus(seed=41, num_docs=8, longest=longest)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        hp, seeds = Hyperparams(num_topics=num_topics), SeedList(frozenset({"sen0"}),
                                                                  frozenset({"sen1"}))
        reference, compiled = (init(corpus, vocab, hp, seeds, rng_seed=5) for _ in range(2))
        assert_same_picks_on_boundaries(reference, compiled, monkeypatch)

    @pytest.mark.parametrize("num_topics,longest", [(1, 20), (3, 20), (4, 300)])
    def test_same_picks_when_the_smoothers_change_between_sweeps(self, num_topics, longest,
                                                                 monkeypatch):
        # The compiled sweep holds ln(n + smoother) of every count cell in a
        # table for one call. Between sweeps a MAP step, then an edit of
        # y_senti, change beta_prime, so a table kept from an earlier call
        # would read stale logs. The corpus adds sentences without aspect
        # ids, without sentiment ids, and with neither (a stopword only),
        # and words that occur once or twice, whose count cells drop to 0
        # and come back within a sweep.
        corpus = random_long_sentence_corpus(seed=41, num_docs=8, longest=longest, first_docs=[
            [(["asp0", "asp1"], []), ([], ["sen0", "sen2"]), (["stop"], []),
             (["stop", "stop"], ["sen3"]), (["once", "rare"], ["single", "few"]),
             (["rare", "asp1"], ["few", "sen1"])]])
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset({"stop"}))
        hp, seeds = Hyperparams(num_topics=num_topics), SeedList(frozenset({"sen0"}),
                                                                  frozenset({"sen1"}))
        reference, compiled = (init(corpus, vocab, hp, seeds, rng_seed=5) for _ in range(2))
        lengths = list(zip(np.diff(compiled.flat.aspect_start).tolist(),
                           np.diff(compiled.flat.senti_start).tolist()))
        assert lengths[:3] == [(2, 0), (0, 2), (0, 0)]

        # the reference's count cells that a decrement empties, and those of
        # them that a later increment of the same sweep fills again
        emptied, refilled = set(), set()
        decrement, increment = oracles.numpy_decrement, oracles.numpy_increment

        def cells(state, sentences, d, c, j, k):
            aspect, _, senti, _ = sentences[d][c]
            return ([(state.n_TW, (k, w)) for w in aspect.tolist()]
                    + [(state.n_STW, (j, k, w)) for w in senti.tolist()])

        def watched_decrement(state, sentences, d, c):
            i = state.flat.doc_start[d] + c
            decrement(state, sentences, d, c)
            emptied.update((counts.ndim, cell) for counts, cell
                           in cells(state, sentences, d, c, state.s[i], state.z[i])
                           if counts[cell] == 0)

        def watched_increment(state, sentences, d, c, j, k):
            increment(state, sentences, d, c, j, k)
            refilled.update((counts.ndim, cell) for counts, cell
                            in cells(state, sentences, d, c, j, k)
                            if (counts.ndim, cell) in emptied)

        monkeypatch.setattr(oracles, "numpy_decrement", watched_decrement)
        monkeypatch.setattr(oracles, "numpy_increment", watched_increment)
        smoothers = [reference.beta_prime.copy()]

        def between(sweep):
            emptied.clear()
            for state in (reference, compiled):
                if sweep == 0:
                    optimize_smoothers(state)
                elif sweep == 1:
                    state.y_senti[1, ~state.seed_mask[1]] -= 1.5
                    state.refresh_beta_prime()
            assert np.array_equal(compiled.beta_prime, reference.beta_prime)
            smoothers.append(reference.beta_prime.copy())

        assert_same_picks_on_boundaries(reference, compiled, monkeypatch, between=between)
        assert not np.array_equal(smoothers[0], smoothers[1])
        assert not np.array_equal(smoothers[1], smoothers[2])
        assert {ndim for ndim, _ in refilled} == {2, 3}

    def test_flat_corpus_is_built_on_the_first_sweep(self, small_state):
        # the flat corpus is built with the state, and the sweeps keep it
        flat = small_state.flat
        gibbs_sweep(small_state)
        assert small_state.flat is flat
        assert flat.doc.tolist() == [0, 0, 0, 1, 1, 1]
        assert flat.doc_start.tolist() == [0, 3, 6]
        assert flat.longest == 3
        assert_flat_concatenates(flat, oracles.encode_sentences(make_corpus(FIXTURE_DOCS),
                                                                small_state.vocab))


# The chain of random_long_sentence_corpus(seed=41, num_docs=8) at T = 3 and
# model seed 5 after three sweeps: the sha256 of z's int64 bytes followed by
# s's. A change that means to alter the chain (a new initialization, say)
# must update it; any other change must leave it as it is.
PINNED_CHAIN = "1bb42a8e168a1923d72a97564f5a838a6e4de39dafd11fd323d308717433e65e"


def test_chain_is_pinned():
    corpus = random_long_sentence_corpus(seed=41, num_docs=8)
    vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
    state = init(corpus, vocab, Hyperparams(num_topics=3),
                 SeedList(frozenset({"sen0"}), frozenset({"sen1"})), rng_seed=5)
    for _ in range(3):
        gibbs_sweep(state)
    assert state.z.dtype == state.s.dtype == np.int64
    assert hashlib.sha256(state.z.tobytes() + state.s.tobytes()).hexdigest() == PINNED_CHAIN


def _no_compiler(argv, **kwargs):
    raise FileNotFoundError(2, "No such file or directory", argv[0])


def _compile_error(argv, **kwargs):
    raise model.subprocess.CalledProcessError(1, argv, stderr=b"error: ...")


def _unloadable_output(argv, **kwargs):
    with open(argv[argv.index("-o") + 1], "wb") as fh:
        fh.write(b"not a shared object")


class TestSweepKernelLoader:
    def test_compiles_once_into_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_SWEEP_CACHE", str(tmp_path / "cache"))
        assert model._load_sweep_kernel()[0] is not None
        built = [p.name for p in (tmp_path / "cache").iterdir()]
        assert len(built) == 1 and re.fullmatch(r"_sweep-[0-9a-f]{64}\.so", built[0])
        monkeypatch.setattr(model.subprocess, "run", _no_compiler)
        assert model._load_sweep_kernel()[0] is not None
        assert [p.name for p in (tmp_path / "cache").iterdir()] == built

    @pytest.mark.parametrize("fail,cause", [
        ("no compiler", "FileNotFoundError"), ("compile error", "CalledProcessError"),
        ("unloadable output", "OSError"), ("unwritable cache", "NotADirectoryError")])
    def test_failure_stops_train_and_no_other_command(self, fail, cause, tmp_path, monkeypatch,
                                                      capsys):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--iters", "2"]) == 0
        checkpoint = (tmp_path / "out" / "checkpoint.json").read_bytes()
        cache = tmp_path / "cache"
        if fail == "unwritable cache":
            (tmp_path / "file").write_text("")
            cache = tmp_path / "file" / "cache"
        else:
            cache.mkdir()
            monkeypatch.setattr(model.subprocess, "run", {
                "no compiler": _no_compiler, "compile error": _compile_error,
                "unloadable output": _unloadable_output}[fail])
        monkeypatch.setattr(model, "_SWEEP_CACHE", str(cache))
        kernel, unavailable = model._load_sweep_kernel()
        assert kernel is None and unavailable.startswith(f"{cause}: ")
        if fail != "unwritable cache":
            assert list(cache.iterdir()) == []   # no half-built file left behind
        monkeypatch.setattr(model, "_sweep_kernel", kernel)
        monkeypatch.setattr(model, "_sweep_unavailable", unavailable)
        capsys.readouterr()
        for command in (["train"], ["train", "--resume"]):
            assert main(["--config", str(config), *command]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and re.search(r"\bcc\b", err[0]) and unavailable in err[0]
        assert (tmp_path / "out" / "checkpoint.json").read_bytes() == checkpoint
        assert main(["--config", str(config), "topics"]) == 0


class TestCompiledSweepGuards:
    @pytest.mark.parametrize("name,spoil", [
        ("n_TW", np.asfortranarray),
        ("n_STW", lambda a: a[:, :, :-1]),
        ("n_DT", lambda a: a.astype(np.int64)),
        ("n_DS", lambda a: np.vstack([a, a])),
        ("n_TW_rows", lambda a: a[:1]),
        ("n_STW_rows", lambda a: a.T),
        ("beta_prime", lambda a: a[:, ::-1]),
        ("bar_beta_prime", lambda a: a.tolist()),
        ("n_TW", lambda a: np.frombuffer(a.tobytes()).reshape(a.shape)),   # read-only
    ])
    def test_bad_count_array_is_rejected_before_the_c_call(self, small_state, monkeypatch,
                                                           name, spoil):
        monkeypatch.setattr(model, "_sweep_kernel", lambda *args: pytest.fail("C sweep called"))
        setattr(small_state, name, spoil(getattr(small_state, name)))
        rng_state = small_state.rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{name} must be a C-contiguous"):
            gibbs_sweep(small_state)
        assert small_state.rng.bit_generator.state == rng_state
        assert small_state.sweep_index == 0

    @pytest.mark.parametrize("spoil", [
        lambda state: setattr(state, "z", state.z[:-1]),
        lambda state: state.s.__setitem__(0, 2),
        lambda state: state.z.__setitem__(5, -1),
        # the C sweep writes into z/s through raw pointers
        lambda state: setattr(state, "z", state.z.astype(np.int32)),
        lambda state: setattr(state, "z", np.repeat(state.z, 2)[::2]),       # strided view
        lambda state: state.s.setflags(write=False),
        lambda state: setattr(state, "s", state.s.tolist()),
    ])
    def test_assignments_that_do_not_fit_are_rejected(self, small_state, monkeypatch, spoil):
        monkeypatch.setattr(model, "_sweep_kernel", lambda *args: pytest.fail("C sweep called"))
        spoil(small_state)
        rng_state = small_state.rng.bit_generator.state
        with pytest.raises(ValueError, match="z/s do not fit"):
            gibbs_sweep(small_state)
        assert small_state.rng.bit_generator.state == rng_state
        assert small_state.sweep_index == 0


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
        sentences = oracles.numpy_sentences(state)
        oracles.numpy_decrement(state, sentences, 0, 0)
        cond = oracle_conditional(state, sentences, 0, 0)
        assert cond.max() / cond.sum() >= 1 - 1e-12
        oracles.numpy_increment(state, sentences, 0, 0, state.s[0], state.z[0])
        gibbs_sweep(state)
        assert state.s[0] == 0

    def test_exchange_restores_counts_bitwise(self, small_state):
        snapshot = (small_state.n_TW.copy(), small_state.n_STW.copy(),
                    small_state.n_DT.copy(), small_state.n_DS.copy())
        j, k = small_state.s[1], small_state.z[1]
        sentences = oracles.numpy_sentences(small_state)
        oracles.numpy_decrement(small_state, sentences, 0, 1)
        oracles.numpy_increment(small_state, sentences, 0, 1, j, k)
        assert np.array_equal(small_state.n_TW, snapshot[0])
        assert np.array_equal(small_state.n_STW, snapshot[1])
        assert np.array_equal(small_state.n_DT, snapshot[2])
        assert np.array_equal(small_state.n_DS, snapshot[3])

    def test_normalized_conditional_sums_to_one(self, small_state):
        sentences = oracles.numpy_sentences(small_state)
        oracles.numpy_decrement(small_state, sentences, 1, 0)
        cond = oracle_conditional(small_state, sentences, 1, 0)
        assert abs((cond / cond.sum()).sum() - 1.0) <= 1e-12
        i = small_state.flat.doc_start[1]
        oracles.numpy_increment(small_state, sentences, 1, 0, small_state.s[i], small_state.z[i])


class TestMapObjective:
    def test_zero_counts_zero_likelihood(self):
        rng = np.random.default_rng(0)
        y_topic = rng.normal(size=(2, 3))
        y_senti = rng.normal(size=(2, 3))
        n = np.zeros((2, 2, 3))
        obj = map_objective_and_gradient(y_topic, y_senti, n, 2.0)[0]
        prior = (2 * y_topic.sum() + 2 * y_senti.sum()
                 + ((y_topic[None] + y_senti[:, None]) ** 2).sum() / 4.0)
        assert obj == pytest.approx(prior, rel=1e-12)

    def test_zero_everything_is_zero(self):
        y = np.zeros((2, 3))
        obj, _, _ = map_objective_and_gradient(np.zeros((2, 3)), y, np.zeros((2, 2, 3)), 2.0)
        assert obj == 0.0

    def test_fixture_against_high_precision_oracle(self):
        n = np.array([[[3.0, 1.0]], [[0.0, 2.0]]])  # (S=2, T=1, V'=2)
        y_topic = np.zeros((1, 2))
        y_senti = np.zeros((2, 2))
        got = map_objective_and_gradient(y_topic, y_senti, n, 2.0)[0]
        want = oracles.objective_oracle(y_topic.tolist(), y_senti.tolist(),
                                       n.tolist(), 2.0)
        assert got == pytest.approx(want, rel=1e-10)

    def test_random_points_against_oracle(self):
        rng = np.random.default_rng(5)
        n = rng.integers(0, 6, size=(2, 3, 4)).astype(float)
        for _ in range(5):
            y_topic = rng.normal(scale=0.8, size=(3, 4))
            y_senti = rng.normal(scale=0.8, size=(2, 4))
            got = map_objective_and_gradient(y_topic, y_senti, n, 2.0)[0]
            want = oracles.objective_oracle(y_topic.tolist(), y_senti.tolist(),
                                           n.tolist(), 2.0)
            assert got == pytest.approx(want, rel=1e-10)


class TestMapGradient:
    def test_zero_counts_at_zero(self):
        S, T, Vp = 2, 3, 4
        _, g_topic, g_senti = map_objective_and_gradient(
            np.zeros((T, Vp)), np.zeros((S, Vp)), np.zeros((S, T, Vp)), 2.0)
        assert np.allclose(g_topic, S)
        assert np.allclose(g_senti, T)

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        n = rng.integers(0, 5, size=(2, 2, 3)).astype(float)
        for _ in range(5):
            y_topic = rng.normal(scale=0.5, size=(2, 3))
            y_senti = rng.normal(scale=0.5, size=(2, 3))
            _, g_topic, g_senti = map_objective_and_gradient(y_topic, y_senti, n, 2.0)

            def fun(yt, ys):
                return map_objective_and_gradient(np.asarray(yt), np.asarray(ys), n, 2.0)[0]

            fd_topic, fd_senti = oracles.finite_difference_gradient(
                fun, y_topic.tolist(), y_senti.tolist())
            assert np.allclose(g_topic, fd_topic, rtol=1e-4, atol=1e-6)
            assert np.allclose(g_senti, fd_senti, rtol=1e-4, atol=1e-6)

    def test_sentiment_swap_symmetry(self):
        rng = np.random.default_rng(3)
        n = rng.integers(0, 5, size=(2, 2, 3)).astype(float)
        y_topic = rng.normal(size=(2, 3))
        y_senti = rng.normal(size=(2, 3))
        _, g_topic, g_senti = map_objective_and_gradient(y_topic, y_senti, n, 2.0)
        _, g_topic_sw, g_senti_sw = map_objective_and_gradient(
            y_topic, y_senti[::-1].copy(), n[::-1].copy(), 2.0)
        assert np.allclose(g_topic, g_topic_sw)
        assert np.allclose(g_senti, g_senti_sw[::-1])


def bits(*values):
    """The bytes of each value as float64: equal bytes are the same bits,
    which tells -0.0 from 0.0 and one NaN from another."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


# |y| <= 10 in both smoothers keeps every beta_prime = exp(y_topic + y_senti)
# within [e^-20, e^20]: finite and normal, the domain where the cell terms of
# an empty cell are exactly +0.0 in the dense form
MAP_SMOOTHER = st.floats(-10.0, 10.0)
MAP_COUNTS = {"all zero": st.just(0.0), "all non-zero": st.integers(1, 40).map(float),
              "mixed": st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 7.0, 40.0])}


@st.composite
def map_points(draw):
    """(y_topic, y_senti, n_STW, sigma_sq) with S = 2."""
    T, Vp = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    counts = MAP_COUNTS[draw(st.sampled_from(sorted(MAP_COUNTS)))]
    return (draw(hnp.arrays(np.float64, (T, Vp), elements=MAP_SMOOTHER)),
            draw(hnp.arrays(np.float64, (2, Vp), elements=MAP_SMOOTHER)),
            draw(hnp.arrays(np.float64, (2, T, Vp), elements=counts)),
            draw(st.floats(0.1, 10.0)))


class TestMapOccupiedCells:
    @settings(max_examples=300, deadline=None)
    @given(map_points())
    def test_the_same_bits_as_the_dense_form(self, point):
        want = oracles.dense_map_objective_and_gradient(*point)
        assert bits(*map_objective_and_gradient(*point)) == bits(*want)
        y_topic, y_senti, n, sigma_sq = point
        occupied = model.occupied_cells(n)
        assert bits(*map_objective_and_gradient(y_topic, y_senti, n, sigma_sq, occupied)) \
            == bits(*want)

    def test_an_empty_cell_whose_smoother_underflows_counts_zero(self):
        # exp(-800) is 0.0: the dense form takes gammaln(0) - gammaln(0 + 0)
        # and psi(0) - psi(0 + 0), which are NaN, where the limit for a count
        # of 0 is 0. Outside the domain of the bit-equality test above; no
        # benchmark or acceptance input comes near
        y_topic, y_senti = np.zeros((1, 2)), np.zeros((2, 2))
        y_topic[0, 1] = -800.0
        n = np.array([[[3.0, 0.0]], [[1.0, 0.0]]])
        with np.errstate(invalid="ignore"):
            dense = oracles.dense_map_objective_and_gradient(y_topic, y_senti, n, 2.0)
        masked = map_objective_and_gradient(y_topic, y_senti, n, 2.0)
        assert all(np.isnan(value).any() for value in dense)
        assert all(np.isfinite(value).all() for value in masked)
        # the empty cells add their prior term alone: the objective is that of
        # the occupied column plus (S * y + S * y^2 / (2 sigma^2)) of the other
        column = map_objective_and_gradient(y_topic[:, :1], y_senti[:, :1], n[:, :, :1], 2.0)[0]
        empty = 2 * -800.0 + 2 * 800.0 ** 2 / 4.0
        assert masked[0] == pytest.approx(column + empty, rel=1e-12)

    def test_a_step_returns_the_smoothers_of_the_dense_form(self, monkeypatch):
        planted = make_planted_model(num_topics=3)
        corpus = generate_generative_corpus(planted, num_reviews=60, rng_seed=8)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        steps = []
        for objective in (None, oracles.dense_map_objective_and_gradient):
            if objective is not None:
                monkeypatch.setattr(model, "map_objective_and_gradient",
                                    lambda yt, ys, n, sigma_sq, occupied=None:
                                    objective(yt, ys, n, sigma_sq))
            state = init(corpus, vocab, Hyperparams(num_topics=3),
                         SeedList(frozenset({"pos0"}), frozenset({"neg0"})), rng_seed=9)
            for _ in range(4):
                gibbs_sweep(state)
            assert 0 < np.count_nonzero(state.n_STW) < state.n_STW.size
            returned = optimize_smoothers(state)
            steps.append(bits(state.y_topic, state.y_senti, returned))
        assert steps[0] == steps[1]
        assert np.any(state.y_topic)


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
                val = map_objective_and_gradient(base_topic, ys, state.n_STW, hp.sigma_sq)[0]
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
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.s, b.s)
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
        assert np.array_equal(whole.z, resumed.z)
        assert np.array_equal(whole.y_senti, resumed.y_senti)


class TestEstimate:
    def test_empty_document_symmetric_sentiment(self):
        corpus = corpus_of([("r0", "e0", []),
                                        ("r1", "e1", [Sentence([word("food")], "r1")])])
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
        i = small_state.vocab.senti_index["good"]
        assert small_state.y_senti[0, i] - small_state.y_senti[1, i] == 0.0

    def test_seed_value_before_training(self):
        corpus = make_corpus(FIXTURE_DOCS)
        vocab = build_vocabulary(corpus, min_count=1, stopwords=frozenset())
        state = init(corpus, vocab, Hyperparams(num_topics=2, mu_seed=2.0),
                     SeedList(frozenset({"good"}), frozenset()), 0)
        i = vocab.senti_index["good"]
        assert state.y_senti[0, i] - state.y_senti[1, i] == pytest.approx(4.0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, small_state):
        for _ in range(3):
            gibbs_sweep(small_state)
        optimize_smoothers(small_state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        for corpus in (None, make_corpus(FIXTURE_DOCS)):
            loaded = load_checkpoint(path, corpus)
            for name in ("z", "s") + COUNT_NAMES + ("y_topic", "y_senti", "seed_mask", "beta_prime",
                                       "bar_beta_prime"):
                mine, theirs = getattr(small_state, name), getattr(loaded, name)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
            assert loaded.rng.bit_generator.state == small_state.rng.bit_generator.state
            assert loaded.sweep_index == small_state.sweep_index
            assert loaded.docs == (small_state.docs if corpus is not None else [])

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
        assert np.array_equal(state.z, resumed.z)

    def test_missing_key_names_it(self, tmp_path, small_state):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        del payload["y_topic"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="y_topic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,edit", [
        ("y_topic", lambda rows: [row[:-1] for row in rows]),
        ("y_senti", lambda rows: [row + [0.0] for row in rows]),
        ("seed_mask", lambda rows: rows[:1]),
        ("n_TW", lambda rows: rows + rows[:1]),
        ("n_STW", lambda rows: [rows[0]] * 3),
        ("n_STW", lambda rows: [[row[:-1] for row in block] for block in rows]),
        ("n_DT", lambda rows: [row + [0.0] for row in rows]),
        ("n_DS", lambda rows: [row[:-1] for row in rows]),
    ])
    def test_shape_checked_against_hyperparams_and_vocabulary(self, tmp_path, small_state,
                                                              key, edit):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        payload[key] = edit(payload[key])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: '{key}' has shape"):
            load_checkpoint(path, make_corpus(FIXTURE_DOCS))

    def test_document_count_checked_with_a_corpus_only(self, tmp_path, small_state):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        payload["n_DT"] = payload["n_DT"][:1]
        path.write_text(json.dumps(payload))
        assert load_checkpoint(path).n_DT.shape == (1, 2)
        with pytest.raises(ValueError, match="'n_DT' has shape"):
            load_checkpoint(path, make_corpus(FIXTURE_DOCS))

    @pytest.mark.parametrize("index", ["x", 1.5, True, -1, None])
    def test_sweep_index_must_be_a_count(self, tmp_path, small_state, index):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        payload["sweep_index"] = index
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: .*'sweep_index'"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, small_state,
                                                    monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        before = path.read_bytes()
        gibbs_sweep(small_state)
        # write_file's open: the checkpoint's first write writes half its data and raises
        monkeypatch.setattr(corpus_mod, "open", half_writes("ckpt.json"), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(small_state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_non_finite_value_is_not_written(self, tmp_path, small_state):
        # NaN and Infinity are not JSON: the dump refuses them
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        before = path.read_bytes()
        small_state.y_topic[0, 0] = math.nan
        with pytest.raises(ValueError):
            save_checkpoint(small_state, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_state_without_its_corpus_is_not_saved(self, tmp_path, small_state, monkeypatch):
        # loaded without a corpus, a state holds z/s but no sentences for them
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        before = path.read_bytes()
        loaded = load_checkpoint(path)
        assert loaded.z.shape == (6,) and loaded.flat.doc.shape == (0,)
        monkeypatch.setattr(model, "open", lambda *args, **kwargs: pytest.fail("file opened"),
                            raising=False)
        with pytest.raises(ValueError, match="z/s do not fit"):
            save_checkpoint(loaded, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_counts_that_do_not_match_the_corpus_name_the_file(self, tmp_path, small_state):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_state, path)
        payload = json.loads(path.read_text())
        payload["n_DT"][0][0] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: counts do not"):
            load_checkpoint(path, make_corpus(FIXTURE_DOCS))

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

    def test_table_splits_back_into_the_word_lists(self):
        words = ["atmospher", "environment", "presentation", "reservation", "temperatur"]
        topics = [{"topic": k, "aspect_words": words * 2, "positive_words": words[k:] * 2,
                   "negative_words": words[::-1]} for k in range(3)]
        lines = model.format_topic_table({"num_topics": 3, "topics": topics}).splitlines()
        assert re.split(" {2,}", lines[0]) == ["topic", "top aspect words", "top positive words",
                                               "top negative words"]
        assert set(lines[1]) == {"-"} and len(lines[1]) >= max(map(len, lines))
        assert [re.split(" {2,}", line) for line in lines[2:]] == [
            [str(row["topic"]), ", ".join(row["aspect_words"]), ", ".join(row["positive_words"]),
             ", ".join(row["negative_words"])] for row in topics]
