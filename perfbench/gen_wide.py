"""Generator of the `wide` workload: tagged reviews over a wide, made-up
vocabulary that exercise all five extraction patterns and their negated
forms.

Every noun, adjective and verb is a made-up word ending in k, p, b or z.
No Porter rule removes a suffix that ends in one of those letters, so each
made-up word is its own stem. The checkers rely on this.

Reviews are drawn from seven aspects. Nouns and adjectives follow a
Zipf-like law over several thousand words, so most stems are rare. About a
fifth of the opinion sentences are negated with `not` or `never`, placed
where a negated pattern admits it. A negated sentence takes its adjective
from the opposite pool, so its meaning keeps the sentence's polarity. Each
entity has three planted aspects whose pros/cons are its gold references.

The generator uses only the standard library and the seed it is given; the
program under test sees nothing but the JSONL written from its output.
"""

from __future__ import annotations

import random

NUM_ASPECTS = 7
NOUNS_PER_ASPECT = 500
ADJECTIVES_PER_POLARITY = 120
NUM_VERBS = 150
ZIPF_EXPONENT = 1.1
NEGATED_SHARE = 0.2
NOISE_SHARE = 0.12

SEED_POSITIVE = ("good", "great")
SEED_NEGATIVE = ("bad", "poor")

_ONSETS = "bdfglmnrstvz"
_VOWELS = "aeiou"
_CODAS = "kpbz"


def _made_up_words(rng, count, taken):
    words = []
    while len(words) < count:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(syllables)) + rng.choice(_CODAS)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _zipf_weights(n):
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n)]


class _Pool:
    """Words drawn with Zipf-like weights by rank."""

    def __init__(self, words):
        self.words = words
        weights = _zipf_weights(len(words))
        total = 0.0
        self.cumulative = []
        for w in weights:
            total += w
            self.cumulative.append(total)

    def draw(self, rng):
        return rng.choices(self.words, cum_weights=self.cumulative)[0]


def make_lexicon(rng):
    """Seven aspects of made-up nouns and polar adjectives, plus verbs."""
    taken = set()
    aspects = []
    for _ in range(NUM_ASPECTS):
        aspects.append({
            "nouns": _Pool(_made_up_words(rng, NOUNS_PER_ASPECT, taken)),
            "pos": _Pool(_made_up_words(rng, ADJECTIVES_PER_POLARITY, taken)),
            "neg": _Pool(_made_up_words(rng, ADJECTIVES_PER_POLARITY, taken)),
        })
    verbs = _Pool(_made_up_words(rng, NUM_VERBS, taken))
    return aspects, verbs


def _adverb(rng, word="very"):
    return [(word, "RB")] if rng.random() < 0.4 else []


def opinion_sentence(rng, noun, noun2, adj, verb, template, negated):
    """Tagged tokens of one opinion sentence.

    `template` is the pattern id the sentence is written for (1-5).
    """
    neg = [(rng.choice(("not", "never")), "RB")] if negated else []
    if template == 1:
        # "the N has a [very] J N2"; negation goes before the verb
        return ([("the", "DT"), (noun, "NN")] + neg
                + [("has", "VBZ"), ("a", "DT")] + ([] if negated else _adverb(rng))
                + [(adj, "JJ"), (noun2, "NN")])
    if template == 2:
        # "the N is [really] [not] J to V"
        return ([("the", "DT"), (noun, "NN"), ("is", "VBZ")]
                + _adverb(rng, "really") + neg
                + [(adj, "JJ"), ("to", "TO"), (verb, "VB")])
    if template == 3:
        # "the N is [really] [not] J"
        return ([("the", "DT"), (noun, "NN"), ("is", "VBZ")]
                + _adverb(rng, "really") + neg + [(adj, "JJ")])
    if template == 4:
        # "we found it [very | not] J to V N"
        return ([("we", "PRP"), ("found", "VBD"), ("it", "PRP")]
                + (neg if negated else _adverb(rng))
                + [(adj, "JJ"), ("to", "TO"), (verb, "VB"), (noun, "NN")])
    # "what a [really] [not] J N"
    return ([("what", "WP"), ("a", "DT")] + _adverb(rng, "really") + neg
            + [(adj, "JJ"), (noun, "NN")])


def noise_sentence(noun, verb):
    """A sentence none of the patterns matches."""
    return [("we", "PRP"), (verb, "VBD"), ("it", "PRP"), ("with", "IN"), (noun, "NN")]


def generate_wide_reviews(seed, num_entities=160, reviews_per_entity=7,
                          sentences_per_review=(4, 7)):
    """JSONL-ready review dicts and the generator's metadata."""
    rng = random.Random(seed)
    aspects, verbs = make_lexicon(rng)
    reviews = []
    negated_sentences = opinion_sentences = 0
    for e in range(num_entities):
        entity_id = f"w{e}"
        planted = rng.sample(range(NUM_ASPECTS), 3)
        profile = {a: rng.random() < 0.5 for a in planted}
        heads = {a: (aspects[a]["nouns"].draw(rng),
                     aspects[a]["pos" if profile[a] else "neg"].draw(rng))
                 for a in planted}
        pros, cons = [], []
        for a in planted:
            noun, adj = heads[a]
            (pros if profile[a] else cons).extend([f"{adj} {noun}", f"{noun} is {adj}"])
        for r in range(reviews_per_entity):
            sentences = []
            for _ in range(rng.randint(*sentences_per_review)):
                if rng.random() < NOISE_SHARE:
                    sentences.append(noise_sentence(
                        aspects[rng.randrange(NUM_ASPECTS)]["nouns"].draw(rng),
                        verbs.draw(rng)))
                    continue
                if rng.random() < 0.6:
                    a = rng.choice(planted)
                    positive = profile[a] if rng.random() < 0.85 else not profile[a]
                else:
                    a = rng.randrange(NUM_ASPECTS)
                    positive = rng.random() < 0.5
                negated = rng.random() < NEGATED_SHARE
                # a negated opposite adjective keeps the sentence's polarity
                pool = "pos" if positive != negated else "neg"
                noun = aspects[a]["nouns"].draw(rng)
                adj = aspects[a][pool].draw(rng)
                if a in heads and rng.random() < 0.4:
                    noun = heads[a][0]
                    if (pool == "pos") == profile[a]:
                        adj = heads[a][1]
                if rng.random() < 0.08:
                    adj = rng.choice(SEED_POSITIVE if pool == "pos" else SEED_NEGATIVE)
                sentences.append(opinion_sentence(
                    rng, noun, aspects[a]["nouns"].draw(rng), adj, verbs.draw(rng),
                    template=rng.randint(1, 5), negated=negated))
                opinion_sentences += 1
                negated_sentences += negated
            reviews.append({
                "id": f"{entity_id}-r{r}",
                "entity_id": entity_id,
                "sentences": [[list(tok) for tok in s] for s in sentences],
                "pros": pros,
                "cons": cons,
            })
    meta = {
        "opinion_sentences": opinion_sentences,
        "negated_sentences": negated_sentences,
        "positive_adjectives": sorted(w for a in aspects for w in a["pos"].words),
        "negative_adjectives": sorted(w for a in aspects for w in a["neg"].words),
    }
    return reviews, meta
