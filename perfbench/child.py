"""Run one `segsum` command in this interpreter and time it.

    python3 perfbench/child.py --result FILE [--trace] -- <segsum arguments>

The timer starts at the call of `segsum.cli.main` and stops at its return,
so interpreter start-up and imports stay outside it. Ten probes right before
the call and ten right after it time a fixed pure-Python loop, which shows
how fast the machine runs Python code at that moment. The result file gets
the exit code, the wall and CPU time of the call, the median probe time,
the time spent in the probes, and the peak resident set of this process.

With `--trace`, the public functions behind the per-layer metrics are
wrapped first: each call adds to its function's call count, total time and
self time (total minus wrapped callees), non-leaf calls are kept as spans,
and a few outputs are counted. Everything is kept in memory and written
with the result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

SRC = os.path.abspath("src")
CALIBRATION_LOOPS = 100_000


def probes(count=10):
    """Wall times of a fixed pure-Python loop, run `count` times: how fast
    the machine runs Python code right now."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return times


class Tracer:
    def __init__(self):
        self.stack = []          # per open call: time spent in wrapped callees
        self.open_spans = []     # ids of the open non-leaf spans
        self.totals = {}         # name -> [calls, total_s, self_s]
        self.spans = []          # (id, parent id, name, start, end)
        self.counts = Counter()
        self.stems = set()
        self.missing = []

    def wrap(self, owner, attr, name, leaf=False, observe=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, open_spans, spans = self.stack, self.open_spans, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not leaf:
                span_id = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callees = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - callees
                if not leaf:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, name, start, start + elapsed)
            if observe is not None:
                observe(result, *args)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        from segsum import classify, corpus, evaluation, filters, model, patterns, stem

        count = self.counts

        def ingested(result, *_):
            for review in result.reviews:
                count["sentences_ingested"] += len(review.sentences)
                count["tokens"] += sum(len(s.tokens) for s in review.sentences)

        def swept(_, state, *__):
            count["sentences_swept"] += sum(len(doc) for doc in state.docs)

        def extracted(result, corp, *_):
            count["sentences_extracted"] += corp.num_sentences
            count["segments"] += len(result)
            for seg in result:
                count["negated_segments"] += seg.negated
                count[f"pattern_{seg.pattern_id}{'_negated' if seg.negated else ''}"] += 1

        def labelled(result, *_):
            count["labelled"] += len(result[0])
            count["dropped"] += len(result[1])

        def kept(result, *_):
            count["kept_positive"] += len(result[0])
            count["kept_negative"] += len(result[1])

        def scored(result, *_):
            count["segments_scored"] += (result.pros.stats.num_segments
                                         + result.cons.stats.num_segments)

        self.wrap(corpus, "ingest_tagged", "corpus.ingest", observe=ingested)
        self.wrap(corpus, "build_vocabulary", "corpus.vocabulary")
        self.wrap(corpus.Vocabulary, "lookup", "corpus.lookup", leaf=True)
        self.wrap(stem, "stem", "stem", leaf=True,
                  observe=lambda _, word: self.stems.add(word))
        self.wrap(model, "encode_corpus", "model.encode")
        self.wrap(model, "init", "model.init")
        self.wrap(model, "gibbs_sweep", "model.gibbs", observe=swept)
        self.wrap(model, "optimize_smoothers", "model.map")
        self.wrap(model, "estimate", "model.estimate")
        self.wrap(model, "save_checkpoint", "model.save_checkpoint")
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        self.wrap(patterns, "extract_corpus", "patterns.extract", observe=extracted)
        self.wrap(classify, "label_aspects", "classify.label", observe=labelled)
        self.wrap(filters, "run_procedure", "filters.procedure", observe=kept)
        self.wrap(filters, "rank_score", "filters.rank", leaf=True)
        self.wrap(evaluation, "evaluate", "evaluation.evaluate", observe=scored)

    def report(self):
        return {"totals": self.totals, "spans": self.spans, "counts": dict(self.counts),
                "stems": sorted(self.stems), "missing": self.missing}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, SRC)
    import segsum
    from segsum import cli

    if not os.path.realpath(segsum.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"segsum was imported from {segsum.__file__}, not from {SRC}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    before = probes()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    after = probes()

    result = {"exit_code": code, "wall_s": wall, "cpu_s": cpu,
              "calibration_s": statistics.median(before + after),
              "probes_s": sum(before + after),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
