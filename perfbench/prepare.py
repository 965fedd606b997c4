"""Write one workload's inputs into a directory: the corpus as JSONL, the
seed-word file, and `meta.json` with what the checkers need to know about
the generator (planted topics, adjective pools).

    python3 perfbench/prepare.py --workload train|summarize|wide --seed N --out DIR

`train` and `summarize` use the program's own synthetic generators on a
fixed corpus seed (`CORPUS_SEEDS`), so their inputs are the same in every
run; `--seed` reaches `summarize` only through the model's `[run] rng_seed`
in the config, and `train` not at all. `wide` uses `gen_wide.py`, which
draws its corpus from `--seed`.
Only the written files reach the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import stem_of  # noqa: E402

# Corpus seeds of the workloads built from the program's own generators.
CORPUS_SEEDS = {"train": 5, "summarize": 1}


def _write_jsonl(path, reviews):
    with open(path, "w", encoding="utf-8") as fh:
        for review in reviews:
            fh.write(json.dumps(review) + "\n")


def _write_seeds(path, positive, negative):
    with open(path, "w", encoding="utf-8") as fh:
        for polarity, words in (("positive", positive), ("negative", negative)):
            for word in sorted(words):
                fh.write(f"{polarity}\t{word}\n")


def prepare_train(_seed, out):
    from segsum.synthetic import generate_generative_corpus, make_planted_model

    planted = make_planted_model(num_topics=3)
    corpus = generate_generative_corpus(planted, num_reviews=500,
                                        rng_seed=CORPUS_SEEDS["train"])
    _write_jsonl(os.path.join(out, "corpus.jsonl"), [
        {"id": r.id, "entity_id": r.entity_id,
         "sentences": [[[t.surface, t.pos] for t in s.tokens] for s in r.sentences]}
        for r in corpus.reviews])
    seeds = ({"pos0", "pos1"}, {"neg0", "neg1"})
    _write_seeds(os.path.join(out, "seeds.txt"), *seeds)
    open(os.path.join(out, "stopwords.txt"), "w").close()
    return {"topic_vocab": [sorted(v) for v in planted.topic_vocab],
            "positive": sorted(planted.positive_stems),
            "negative": sorted(planted.negative_stems),
            "seeds": sorted(seeds[0] | seeds[1])}


def prepare_summarize(_seed, out):
    from segsum.synthetic import (SHARED_NEG, SHARED_POS, TEXT_ASPECTS,
                                  generate_text_reviews)

    reviews = generate_text_reviews(num_entities=100, reviews_per_entity=40,
                                    rng_seed=CORPUS_SEEDS["summarize"])
    _write_jsonl(os.path.join(out, "corpus.jsonl"), reviews)
    positive = [w for a in TEXT_ASPECTS for w in a["pos"]] + list(SHARED_POS)
    negative = [w for a in TEXT_ASPECTS for w in a["neg"]] + list(SHARED_NEG)
    # Every pool adjective is a seed: a three-sweep set-up train leaves the
    # learned polarity of unseeded adjectives near zero.
    _write_seeds(os.path.join(out, "seeds.txt"),
                 {stem_of(w) for w in positive}, {stem_of(w) for w in negative})
    return {"positive_adjectives": positive, "negative_adjectives": negative}


def prepare_wide(seed, out):
    from gen_wide import SEED_NEGATIVE, SEED_POSITIVE, generate_wide_reviews

    reviews, meta = generate_wide_reviews(seed)
    _write_jsonl(os.path.join(out, "corpus.jsonl"), reviews)
    _write_seeds(os.path.join(out, "seeds.txt"), SEED_POSITIVE, SEED_NEGATIVE)
    return meta


PREPARE = {"train": prepare_train, "summarize": prepare_summarize, "wide": prepare_wide}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PREPARE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    meta = PREPARE[args.workload](args.seed, args.out)
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


if __name__ == "__main__":
    main()
