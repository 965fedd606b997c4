import hashlib
import json

import pytest

from segsum.corpus import Token
from segsum.synthetic import generate_generative_corpus, make_planted_model


def corpus_digest(corpus):
    """sha256 of every field of every review, sentence and token, in order."""
    return hashlib.sha256(json.dumps([
        [r.id, r.entity_id, r.pros, r.cons,
         [[s.review_id, [[t.surface, t.stem, t.pos, t.is_sentiment] for t in s.tokens]]
          for s in r.sentences]] for r in corpus.reviews]).encode()).hexdigest()


# The digests of the corpora that generate_generative_corpus returned when it
# built each Token itself; building them with CorpusBuilder must keep them.
@pytest.mark.parametrize("num_topics,rng_seed,digest", [
    pytest.param(3, 5, "bfd6c2c3b19967ccd6555212542e4045ad3885fe08a9524db2681b418f001273",
                 id="T3-seed5"),
    pytest.param(3, 0, "6706293fd9b4813b0ab8774c557c85ee8760509dbe2dbd3d04bc2d05cb416538",
                 id="T3-seed0"),
    pytest.param(7, 2, "39047e69d430d7b6e264365b73ed3c35bcfb6a62b8d14f168ee47906e778093f",
                 id="T7-seed2"),
])
def test_generative_corpus_is_pinned_and_shares_its_tokens(num_topics, rng_seed, digest):
    planted = make_planted_model(num_topics=num_topics)
    corpus = generate_generative_corpus(planted, num_reviews=500, rng_seed=rng_seed)
    assert corpus_digest(corpus) == digest
    by_stem = {}
    for review in corpus.reviews:
        for sentence in review.sentences:
            for token in sentence.tokens:
                assert by_stem.setdefault(token.stem, token) is token
    sentiment = set(planted.senti_stems)
    assert all(token == Token(stem, stem, "JJ" if stem in sentiment else "NN", stem in sentiment)
               for stem, token in by_stem.items())
