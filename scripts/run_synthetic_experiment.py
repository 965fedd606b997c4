#!/usr/bin/env python3
"""End-to-end demo on a synthetic review corpus.

Generates a templated tagged corpus with planted pros/cons, trains the joint
sentiment-topic model, then extracts, classifies and evaluates candidate
summaries under several filtering procedures. Prints the learned topic table
and one evaluation row per procedure.
"""

import argparse
import logging
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from segsum import classify, cli, corpus as corpus_mod, evaluation, filters, model, patterns
from segsum.corpus import build_vocabulary
from segsum.synthetic import generate_text_reviews, text_polarity_lexicon


def build_corpus(args):
    reviews = generate_text_reviews(num_entities=args.entities,
                                    reviews_per_entity=args.reviews,
                                    rng_seed=args.seed)
    builder = corpus_mod.CorpusBuilder()
    for review in reviews:
        builder.add(review)
    return builder.corpus()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entities", type=int, default=5)
    parser.add_argument("--reviews", type=int, default=10, help="reviews per entity")
    parser.add_argument("--topics", type=int, default=3)
    parser.add_argument("--sweeps", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--procedures", default="Baseline+SEN,AW+SEN,AW+SEN+SW,Baseline+SWN")
    parser.add_argument("--output-dir", default="out/synthetic")
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    corpus = build_corpus(args)
    vocab = build_vocabulary(corpus, min_count=2,
                             stopwords=frozenset({"the", "is", "very"}))
    print(f"corpus: {len(corpus.reviews)} reviews, {corpus.num_sentences} sentences; "
          f"vocabulary: {vocab.num_aspect_words} aspect / {vocab.num_senti_words} sentiment stems")

    schedule = model.Schedule(burn_in=args.sweeps // 4,
                              interleave=max(args.sweeps // 6, 1),
                              total=args.sweeps)
    state = model.init(corpus, vocab, model.Hyperparams(num_topics=args.topics),
                       model.SeedList(frozenset({"good", "great"}),
                                      frozenset({"bad", "terribl"})),
                       rng_seed=args.seed)
    model.train(state, schedule)
    print()
    print(model.format_topic_table(model.topic_report(state, top_n=6)))
    print()

    refs = corpus_mod.build_reference_summaries(corpus)
    lexicon = classify.PolarityLexicon(text_polarity_lexicon())
    config = filters.FilterConfig(aw_top_x=20, sw_top_y=10)

    est = model.estimate(state)
    segments = filters.labelled_segments(corpus, {1, 2, 3, 4, 5}, patterns.DEFAULT_MAX_WORDS,
                                         est, vocab)

    for i, name in enumerate(args.procedures.split(",")):
        positive, negative = filters.run_procedure(name, segments, est, y_senti=state.y_senti,
                                                   lexicon=lexicon, config=config)
        report = evaluation.evaluate(positive, negative, refs)
        path = os.path.join(args.output_dir, f"report_{name.replace('+', '_')}.json")
        cli.write_json(path, report.to_dict())
        head, row = evaluation.format_report_table(report, name).split("\n")
        if i == 0:
            print(head)
        print(row)
    print(f"\nreports written to {args.output_dir}/")


if __name__ == "__main__":
    main()
