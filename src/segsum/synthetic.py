"""Synthetic corpora: one sampled from the model's own generative process
(for recovery checks) and one of templated tagged review text with planted
pros/cons (for end-to-end runs)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, CorpusBuilder


@dataclass
class PlantedModel:
    phi: np.ndarray           # (T, V) aspect word distributions
    phi_prime: np.ndarray     # (S, T, V') sentiment word distributions
    aspect_stems: list
    senti_stems: list
    positive_stems: set
    negative_stems: set
    topic_vocab: list         # per topic, the set of its planted aspect stems


def make_planted_model(num_topics=3, aspect_words_per_topic=30,
                       senti_words_per_polarity=15, opposite_mass=0.05):
    aspect_stems = [f"asp{k}word{i}"
                    for k in range(num_topics)
                    for i in range(aspect_words_per_topic)]
    pos = [f"pos{i}" for i in range(senti_words_per_polarity)]
    neg = [f"neg{i}" for i in range(senti_words_per_polarity)]
    senti_stems = pos + neg

    V = len(aspect_stems)
    phi = np.zeros((num_topics, V))
    topic_vocab = []
    for k in range(num_topics):
        lo = k * aspect_words_per_topic
        hi = lo + aspect_words_per_topic
        phi[k, lo:hi] = 1.0 / aspect_words_per_topic
        topic_vocab.append(set(aspect_stems[lo:hi]))

    Vp = len(senti_stems)
    n_pos = len(pos)
    phi_prime = np.zeros((2, num_topics, Vp))
    for k in range(num_topics):
        phi_prime[0, k, :n_pos] = (1 - opposite_mass) / n_pos
        phi_prime[0, k, n_pos:] = opposite_mass / len(neg)
        phi_prime[1, k, :n_pos] = opposite_mass / n_pos
        phi_prime[1, k, n_pos:] = (1 - opposite_mass) / len(neg)

    return PlantedModel(phi, phi_prime, aspect_stems, senti_stems,
                        set(pos), set(neg), topic_vocab)


def generate_generative_corpus(planted, num_reviews=500,
                               sentences_per_review=(4, 8),
                               aspect_words_per_sentence=(2, 5),
                               senti_words_per_sentence=(1, 3),
                               alpha=0.1, gamma=0.1, rng_seed=0) -> Corpus:
    """Sample reviews exactly per the model's generative story: aspect words
    tagged NN, sentiment words JJ, one shared Token per (stem, tag)."""
    rng = np.random.default_rng(rng_seed)
    T = planted.phi.shape[0]
    builder = CorpusBuilder(frozenset())
    for d in range(num_reviews):
        theta = rng.dirichlet(np.full(T, alpha))
        pi = rng.dirichlet(np.full(2, gamma))
        sentences = []
        for _ in range(rng.integers(*sentences_per_review)):
            k = rng.choice(T, p=theta)
            j = rng.choice(2, p=pi)
            n_a = rng.integers(*aspect_words_per_sentence)
            aspect = rng.choice(len(planted.aspect_stems), size=n_a, p=planted.phi[k])
            n_s = rng.integers(*senti_words_per_sentence)
            senti = rng.choice(len(planted.senti_stems), size=n_s, p=planted.phi_prime[j, k])
            sentences.append([[planted.aspect_stems[i], "NN"] for i in aspect]
                             + [[planted.senti_stems[i], "JJ"] for i in senti])
        builder.add({"id": f"r{d}", "entity_id": f"e{d}", "sentences": sentences})
    return builder.corpus()


# -- templated text corpus with planted pros/cons ----------------------------

TEXT_ASPECTS = [
    {
        "nouns": ["food", "pasta", "pizza", "salad", "soup", "dessert"],
        "pos": ["delicious", "fresh", "tasty"],
        "neg": ["bland", "stale", "soggy"],
    },
    {
        "nouns": ["service", "staff", "waiter", "manager", "host"],
        "pos": ["friendly", "attentive", "prompt"],
        "neg": ["rude", "slow", "unhelpful"],
    },
    {
        "nouns": ["decor", "room", "music", "atmosphere", "lighting"],
        "pos": ["cozy", "charming", "elegant"],
        "neg": ["noisy", "cramped", "shabby"],
    },
]

SHARED_POS = ["good", "great"]
SHARED_NEG = ["bad", "terrible"]

NOISE_SENTENCES = [
    [("we", "PRP"), ("went", "VBD"), ("there", "RB"), ("yesterday", "NN")],
    [("i", "PRP"), ("ordered", "VBD"), ("the", "DT"), ("special", "NN")],
    [("they", "PRP"), ("opened", "VBD"), ("last", "JJ"), ("month", "NN")],
    [("my", "PRP$"), ("friend", "NN"), ("recommended", "VBD"), ("it", "PRP")],
]


def text_polarity_lexicon():
    """Signed scores for every adjective used by the generator."""
    scores = {}
    from . import stem as _stem
    for aspect in TEXT_ASPECTS:
        for w in aspect["pos"]:
            scores[_stem.stem(w)] = 1.0
        for w in aspect["neg"]:
            scores[_stem.stem(w)] = -1.0
    for w in SHARED_POS:
        scores[_stem.stem(w)] = 1.0
    for w in SHARED_NEG:
        scores[_stem.stem(w)] = -1.0
    return scores


def _opinion_sentence(rng, aspect, positive):
    noun = aspect["nouns"][rng.integers(len(aspect["nouns"]))]
    pool = (aspect["pos"] + SHARED_POS) if positive else (aspect["neg"] + SHARED_NEG)
    adj = pool[rng.integers(len(pool))]
    if rng.random() < 0.5:
        # "the <noun> is <adj>" -> pattern 3
        return [("the", "DT"), (noun, "NN"), ("is", "VBZ"), (adj, "JJ")]
    # "very <adj> <noun>" -> pattern 5
    return [("very", "RB"), (adj, "JJ"), (noun, "NN")]


def generate_text_reviews(num_entities=5, reviews_per_entity=10,
                          sentences_per_review=(4, 7), rng_seed=0):
    """JSONL-ready review dicts with profile-aligned pros/cons lists."""
    rng = np.random.default_rng(rng_seed)
    reviews = []
    for e in range(num_entities):
        entity_id = f"entity{e}"
        # per-aspect polarity profile of this entity
        profile = [bool(rng.integers(2)) for _ in TEXT_ASPECTS]
        pros, cons = [], []
        for aspect, positive in zip(TEXT_ASPECTS, profile):
            noun = aspect["nouns"][0]
            adj = aspect["pos"][0] if positive else aspect["neg"][0]
            target = pros if positive else cons
            target.append(f"{adj} {noun}")
            target.append(f"{noun} is {adj}")
        for r in range(reviews_per_entity):
            sentences = []
            for _ in range(rng.integers(*sentences_per_review)):
                if rng.random() < 0.3:
                    sentences.append(list(NOISE_SENTENCES[rng.integers(len(NOISE_SENTENCES))]))
                    continue
                a = int(rng.integers(len(TEXT_ASPECTS)))
                positive = profile[a] if rng.random() < 0.9 else not profile[a]
                sentences.append(_opinion_sentence(rng, TEXT_ASPECTS[a], positive))
            reviews.append({
                "id": f"{entity_id}-r{r}",
                "entity_id": entity_id,
                "sentences": sentences,
                "pros": pros,
                "cons": cons,
            })
    return reviews
