"""Command-line pipeline: preprocess, train, extract, summarize, evaluate,
topics. Every subcommand is deterministic given the config file and seed.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from itertools import chain, repeat

import numpy as np

from . import classify, corpus as corpus_mod, evaluation, filters, model, patterns
from .config import ConfigError, load_config

log = logging.getLogger(__name__)

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2


class DataError(ValueError):
    pass


def _load_corpus(cfg):
    if not cfg.paths.corpus:
        raise ConfigError("no corpus path configured")
    extra = corpus_mod.DEFAULT_EXTRA_SENTIMENT
    if cfg.paths.extra_sentiment:
        extra = corpus_mod.load_wordlist(cfg.paths.extra_sentiment)
    return corpus_mod.ingest_tagged(cfg.paths.corpus, cfg.paths.corpus_format, extra,
                                    cfg.paths.output_dir)


def _build_vocab(cfg, corp):
    stopwords = corpus_mod.DEFAULT_STOPWORDS
    if cfg.paths.stopwords:
        stopwords = corpus_mod.load_wordlist(cfg.paths.stopwords)
    return corpus_mod.build_vocabulary(corp, cfg.min_count, stopwords)


def _load_seeds(cfg):
    if cfg.paths.seeds:
        return model.SeedList.from_file(cfg.paths.seeds)
    return model.SeedList()


def _load_lexicon(cfg):
    if cfg.paths.lexicon:
        return classify.PolarityLexicon.from_tsv(cfg.paths.lexicon)
    return classify.PolarityLexicon()


def write_json(path, payload):
    """Write payload to path as json.dump(payload, fh, indent=2) does."""
    corpus_mod.write_file(path, lambda fh: dump_json(payload, fh.write))


def _flat(values):
    return not any(map(isinstance, values, repeat((dict, list, tuple))))


def dump_json(obj, write, newline="\n"):
    """Pass obj to write in pieces, byte for byte as json.dump(obj, fh,
    indent=2) writes it; newline is a line break and the indent of obj.

    An indent turns the C encoder off, but its item separator can carry the
    line breaks and indents: each container of scalars, and each list of
    non-empty dicts of scalars, is encoded in one call. The encoder escapes
    every control character in a string, so each line break in its output is
    a separator, and one replace mends the joints between a list's dicts."""
    inner = newline + "  "
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        write(json.dumps(obj))
        return
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if _flat(obj.values() if is_dict else obj):
        encoded = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)
        write(opening + inner + encoded[1:-1] + newline + closing)
    elif (not is_dict and all(map(isinstance, obj, repeat(dict))) and all(obj)
          and _flat(chain.from_iterable(map(dict.values, obj)))):
        deeper = inner + "  "
        encoded = json.JSONEncoder(separators=("," + deeper, ": ")).encode(obj)
        write("[" + inner + "{" + deeper
              + encoded[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
              + inner + "}" + newline + "]")
    else:
        write(opening)
        for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
            # json.dumps converts a non-str key as json.dump does
            write(("," if i else "") + inner + (json.dumps({key: 0})[1:-4] + ": " if is_dict else ""))
            dump_json(value, write, inner)
        write(newline + closing)


def _pattern_ids(cfg, args):
    return patterns.resolve_pattern_ids(args.patterns or cfg.pattern_spec)


def _candidates(cfg, args, corp, state, entity=None):
    """The (positive, negative) survivors of the configured procedure over
    the segments of corp, or of its reviews of entity (an index into
    corp.entities), their aspects labelled; the unclassifiable ones are
    logged and dropped."""
    lexicon = _load_lexicon(cfg)
    est = model.estimate(state)
    segments = patterns.extract_corpus(corp, _pattern_ids(cfg, args), max_words=cfg.max_words,
                                       output_dir=cfg.paths.output_dir)
    if entity is not None:
        segments = segments.take(corp.entity[segments.review] == entity)
    labelled, dropped = classify.label_aspects(segments, est, state.vocab)
    if dropped:
        log.info("dropped %d unclassifiable segments", len(dropped))
    return filters.run_procedure(cfg.procedure, labelled, est, y_senti=state.y_senti,
                                 lexicon=lexicon, config=cfg.filters)


def _load_checkpoint(cfg, corp=None):
    if not os.path.exists(cfg.checkpoint_path):
        raise DataError(f"no checkpoint at {cfg.checkpoint_path}; run train first")
    return model.load_checkpoint(cfg.checkpoint_path, corp)


# -- subcommands -------------------------------------------------------------

def cmd_preprocess(cfg, args):
    corp = _load_corpus(cfg)
    vocab = _build_vocab(cfg, corp)
    refs = corpus_mod.build_reference_summaries(corp)
    out = cfg.paths.output_dir
    write_json(os.path.join(out, "vocab.json"), vocab.to_dict())
    write_json(os.path.join(out, "references.json"),
                {e: {"pros": sorted(p), "cons": sorted(c)}
                 for e, (p, c) in sorted(refs.items())})
    drops = {}
    for reason in vocab.drop_reasons.values():
        drops[reason] = drops.get(reason, 0) + 1
    write_json(os.path.join(out, "preprocess_stats.json"), {
        "reviews": len(corp.reviews),
        "sentences": corp.num_sentences,
        "aspect_vocab": vocab.num_aspect_words,
        "senti_vocab": vocab.num_senti_words,
        "dropped_stems": drops,
    })
    print(f"vocabulary: {vocab.num_aspect_words} aspect stems, "
          f"{vocab.num_senti_words} sentiment stems; {len(refs)} entities")
    return EXIT_OK


def cmd_train(cfg, args):
    corp = _load_corpus(cfg)
    vocab = _build_vocab(cfg, corp)
    schedule = cfg.schedule
    if args.iters is not None:
        schedule = model.Schedule(min(schedule.burn_in, args.iters),
                                  schedule.interleave, args.iters)
    if args.resume:
        state = _load_checkpoint(cfg, corp)
        saved, wanted = state.hp.to_dict(), cfg.hyperparams.to_dict()
        diff = [f"{k} = {wanted[k]} (checkpoint: {saved[k]})"
                for k in saved if saved[k] != wanted[k]]
        if state.vocab.content_hash() != vocab.content_hash():
            diff.append("the vocabulary built with min_count and stopwords")
        y_senti, seed_mask = model.seed_smoothers(state.vocab, state.hp, _load_seeds(cfg))
        differ = (seed_mask != state.seed_mask) | (seed_mask & (y_senti != state.y_senti))
        words = [state.vocab.senti_stems[i] for i in differ.any(axis=0).nonzero()[0]]
        if words:
            diff.append(f"the seed words {', '.join(words)}")
        if diff:
            raise DataError(f"the config contradicts the checkpoint at "
                            f"{cfg.checkpoint_path}: {', '.join(diff)}")
    else:
        # a smoother or beta that no word probability survives fails here,
        # before the first sweep
        with np.errstate(over="ignore", invalid="ignore"):
            state = model.init(corp, vocab, cfg.hyperparams, _load_seeds(cfg), cfg.rng_seed)
        model.check_word_probabilities(state, f"config {args.config}",
                                       ("[model] beta", "[model] mu_seed"))
    model.train(state, schedule)
    model.save_checkpoint(state, cfg.checkpoint_path)
    report = model.topic_report(state)
    write_json(os.path.join(cfg.paths.output_dir, "topics.json"), report)
    corpus_mod.write_file(os.path.join(cfg.paths.output_dir, "topics.txt"),
                          lambda fh: fh.write(model.format_topic_table(report) + "\n"))
    print(f"trained {state.sweep_index} sweeps; checkpoint at {cfg.checkpoint_path}")
    return EXIT_OK


def cmd_extract(cfg, args):
    corp = _load_corpus(cfg)
    segments = patterns.extract_corpus(corp, _pattern_ids(cfg, args), max_words=cfg.max_words,
                                       output_dir=cfg.paths.output_dir)
    out = os.path.join(cfg.paths.output_dir, "segments.jsonl")
    corpus_mod.write_file(out, lambda fh: fh.writelines(
        json.dumps(seg.to_dict()) + "\n" for seg in segments))
    print(f"extracted {len(segments)} segments -> {out}")
    return EXIT_OK


def cmd_summarize(cfg, args):
    corp = _load_corpus(cfg)
    state = _load_checkpoint(cfg, corp)

    entities, entity = corp.entities, None
    if args.entity:
        if args.entity not in corp.entities:
            raise DataError(f"unknown entity: {args.entity}")
        entities, entity = [args.entity], corp.entities.index(args.entity)
    top_n = args.top_n if args.top_n is not None else cfg.top_n
    output = {entity_id: {"positive": [], "negative": []} for entity_id in entities}
    for polarity, table in zip(("positive", "negative"),
                               _candidates(cfg, args, corp, state, entity)):
        # by descending rank, ties in corpus order; 0: all
        for row in table.take(np.argsort(-table.rank, kind="stable")):
            entry = output[row.entity_id][polarity]
            if len(entry) < top_n or not top_n:
                entry.append(row.to_dict())
    write_json(os.path.join(cfg.paths.output_dir, "summaries.json"), output)
    for entity_id, entry in output.items():
        print(f"== {entity_id}")
        for polarity in ("positive", "negative"):
            texts = ", ".join(s["text"] for s in entry[polarity]) or "(none)"
            print(f"  {polarity}: {texts}")
    return EXIT_OK


def cmd_evaluate(cfg, args):
    corp = _load_corpus(cfg)
    state = _load_checkpoint(cfg, corp)
    refs = corpus_mod.build_reference_summaries(corp)
    if not any(p or c for p, c in refs.values()):
        raise DataError("no gold pros/cons in the corpus")

    report = evaluation.evaluate(*_candidates(cfg, args, corp, state), refs, cfg.eval)

    tag = cfg.procedure.replace("+", "_")
    if args.patterns:
        # one name per pattern set, however its ids are spelled
        tag += "_patterns_" + (args.patterns if args.patterns in patterns.PRESETS
                               else "-".join(map(str, sorted(_pattern_ids(cfg, args)))))
    write_json(os.path.join(cfg.paths.output_dir, f"report_{tag}.json"), report.to_dict())
    table = evaluation.format_report_table(report, cfg.procedure)
    corpus_mod.write_file(os.path.join(cfg.paths.output_dir, f"report_{tag}.txt"),
                          lambda fh: fh.write(table + "\n"))
    print(table)
    return EXIT_OK


def cmd_topics(cfg, args):
    state = _load_checkpoint(cfg)
    print(model.format_topic_table(model.topic_report(state, top_n=args.top_n)))
    return EXIT_OK


# -- argument plumbing -------------------------------------------------------

def _count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _patterns(text):
    try:
        patterns.resolve_pattern_ids(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser():
    parser = argparse.ArgumentParser(prog="segsum",
                                     description="Segment-based review summarization pipeline")
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=_count, help="override [run] rng_seed")
    parser.add_argument("--procedure", help="override [run] procedure, e.g. AW+SEN+SW")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("preprocess")
    p_train = sub.add_parser("train")
    p_train.add_argument("--iters", type=_count, help="override total sweep count")
    p_train.add_argument("--resume", action="store_true")
    p_extract = sub.add_parser("extract")
    p_extract.add_argument("--patterns", type=_patterns,
                           help="preset name or ids, e.g. service or 1,3,5")
    p_sum = sub.add_parser("summarize")
    p_sum.add_argument("--entity", help="restrict to one entity")
    p_sum.add_argument("--patterns", type=_patterns)
    p_sum.add_argument("--top-n", type=_count, dest="top_n")
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--patterns", type=_patterns)
    sub.add_parser("topics").add_argument("--top-n", type=_count, dest="top_n", default=10)
    return parser


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "extract": cmd_extract,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
    "topics": cmd_topics,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        cfg.rng_seed = args.seed
    if args.procedure is not None:
        cfg.procedure = args.procedure
    try:
        filters.parse_procedure(cfg.procedure)
    except filters.ProcedureError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:   # a setting that the command needs is missing
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:   # DataError is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
