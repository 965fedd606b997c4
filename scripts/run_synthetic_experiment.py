#!/usr/bin/env python3
"""End-to-end demo on a synthetic review corpus.

Writes a templated tagged corpus with planted pros/cons, its seed words,
a polarity lexicon and a config into --output-dir, then runs the segsum
commands on them: preprocess, train, topics (the learned topic table) and
one evaluate per procedure (one evaluation row each). Exits with the first
non-zero exit code of a command.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from segsum import cli, corpus
from segsum.synthetic import generate_text_reviews, text_polarity_lexicon

SEEDS = "positive\tgood\npositive\tgreat\nnegative\tbad\nnegative\tterribl\n"


def write_inputs(args):
    """Write the demo's input files into args.output_dir; the config's path."""
    def path(name):
        return os.path.join(args.output_dir, name)

    reviews = generate_text_reviews(num_entities=args.entities,
                                    reviews_per_entity=args.reviews, rng_seed=args.seed)
    corpus.write_file(path("corpus.jsonl"),
                      lambda fh: fh.writelines(json.dumps(review) + "\n" for review in reviews))
    corpus.write_file(path("seeds.txt"), lambda fh: fh.write(SEEDS))
    corpus.write_file(path("lexicon.tsv"), lambda fh: fh.writelines(
        f"{stem}\t{score}\n" for stem, score in text_polarity_lexicon().items()))
    config = (f"[paths]\ncorpus = {path('corpus.jsonl')}\noutput_dir = {args.output_dir}\n"
              f"seeds = {path('seeds.txt')}\nlexicon = {path('lexicon.tsv')}\n"
              f"[model]\nnum_topics = {args.topics}\nmin_count = 2\n"
              f"[schedule]\nburn_in = {args.sweeps // 4}\n"
              f"interleave = {max(args.sweeps // 6, 1)}\ntotal = {args.sweeps}\n"
              f"[filters]\naw_top_x = 20\nsw_top_y = 10\n"
              f"[run]\nrng_seed = {args.seed}\n")
    corpus.write_file(path("config.ini"), lambda fh: fh.write(config))
    return path("config.ini")


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

    config = write_inputs(args)
    commands = ([["preprocess"], ["train"], ["topics", "--top-n", "6"]]
                + [["--procedure", name, "evaluate"] for name in args.procedures.split(",")])
    for command in commands:
        code = cli.main(["--config", config, *command])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
