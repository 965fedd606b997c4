"""Benchmark of the segsum pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload train|summarize|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The inputs are generated (see
`prepare.py`: `--seed` sets the model's `[run] rng_seed` of `summarize` and
`wide` and the corpus of `wide`; the inputs of `train` are fixed); then whole
rounds of `segsum` commands run until `--seconds` have passed. Each command
runs in a fresh interpreter (`child.py`), one at a time, with BLAS/OpenMP
threads set to 1, and is timed inside that interpreter from the call of
`segsum.cli.main` to its return. The outputs of the first round are checked
against the checkers in `checks.py`, and every later round must write the
same bytes.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (CLI commands of the rounds) and `metrics`, the
end-to-end metrics with `--trace 0` or the per-layer ones with `--trace 1`.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from child import probes  # noqa: E402

WORK_ROOT = ".perfbench-work"
CHILD_TIMEOUT_S = 120
REPORT = "report_AW_SEN_SW_RANK.json"
STDERR_LOG = "stderr.log"
# Times are reported in reference seconds: a measured time is scaled by
# REFERENCE_S over the median probe time measured around it (see README.md).
# One probe takes about 10 ms on the machine the README describes.
REFERENCE_S = 0.01

# burn_in, interleave, total: the train workload's round and wide's train
# step each hold two MAP steps; summarize's set-up train holds three.
SCHEDULES = {"train": (8, 2, 12), "summarize": (0, 1, 3), "wide": (2, 2, 6)}
# Planted recovery the train workload must reach: best-permutation top-word
# overlap and sign accuracy on the unseeded planted sentiment words.
MIN_TOPIC_OVERLAP = 0.6
MIN_SIGN_ACCURACY = 0.9
# Model seeds of the train workload's two commands, which are the same in
# every run. With seed 0 the program recovers the planted corpus. With seed 2
# it learns every unseeded planted sentiment word with the inverted sign, a
# fault of the program (README, "Known limits"): that command fails the
# planted-recovery check in every run and counts in `failed`.
TRAIN_MODEL_SEEDS = {"out": 0, "out-inverted": 2}

WORKLOADS = {
    # name: (set-up commands, round commands as (output directory, command),
    # files the round writes into each output directory)
    "train": ((), (("out", "train"), ("out-inverted", "train")), ("checkpoint.json",)),
    "summarize": (("preprocess", "train"), (("out", "summarize"), ("out", "evaluate")),
                  ("summaries.json", REPORT)),
    "wide": ((), tuple(("out", c) for c in ("preprocess", "train", "summarize", "evaluate")),
             ("checkpoint.json", "summaries.json", REPORT)),
}


def write_config(workload, seed, work, out):
    """Write the config of the commands whose output directory is
    `work/<out>`; return its path."""
    burn_in, interleave, total = SCHEDULES[workload]
    topics, min_count = {"train": (3, 1), "summarize": (3, 2), "wide": (7, 2)}[workload]
    if workload == "train":
        seed = TRAIN_MODEL_SEEDS[out]
    lines = ["[paths]", f"corpus = {work}/corpus.jsonl", f"output_dir = {work}/{out}",
             f"seeds = {work}/seeds.txt"]
    if workload == "train":
        lines.append(f"stopwords = {work}/stopwords.txt")
    lines += ["[model]", f"num_topics = {topics}", f"min_count = {min_count}",
              "[schedule]", f"burn_in = {burn_in}", f"interleave = {interleave}",
              f"total = {total}",
              "[run]", "procedure = AW+SEN+SW+RANK", f"rng_seed = {seed}"]
    if workload == "summarize":
        # below the 25 + 25 stems, so that AW and SW drop segments
        lines += ["[filters]", "aw_top_x = 20", "sw_top_y = 20"]
    path = os.path.join(work, f"config-{out}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, work):
        self.work = work
        self.env = child_env()
        self.stderr = os.path.join(work, STDERR_LOG)
        self.count = 0

    def _run(self, argv):
        with open(self.stderr, "ab") as err:
            return subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=err,
                                  env=self.env, timeout=CHILD_TIMEOUT_S).returncode

    def prepare(self, workload, seed):
        code = self._run([sys.executable, os.path.join(HERE, "prepare.py"),
                          "--workload", workload, "--seed", str(seed), "--out", self.work])
        if code != 0:
            raise SetupError(f"input generation exited {code}")

    def command(self, config, command, trace=False):
        """Run one segsum command in a child; its result dict, or None if it
        failed. `overhead_s` is the child's wall time outside the timed call."""
        self.count += 1
        result = os.path.join(self.work, f"child{self.count}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--result", result]
        argv += ["--trace"] if trace else []
        argv += ["--", "--config", config, command]
        start = time.perf_counter()
        code = self._run(argv)
        wall = time.perf_counter() - start
        if code != 0 or not os.path.exists(result):
            return None
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        os.remove(result)
        if res["exit_code"] != 0:
            return None
        res["command"] = command
        res["speed"] = REFERENCE_S / res["calibration_s"]
        res["overhead_s"] = wall - res["wall_s"] - res["probes_s"]
        return res


class SetupError(Exception):
    pass


def stderr_tail(work, lines=20):
    """The children's last lines of standard error, for a failed run."""
    path = os.path.join(work, STDERR_LOG)
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def digest(work, outs, names):
    h = hashlib.sha256()
    for out in outs:
        for name in names:
            with open(os.path.join(work, out, name), "rb") as fh:
                h.update(f"{out}/{name}".encode() + b"\0" + fh.read())
    return h.hexdigest()


# -- correctness --------------------------------------------------------------

def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_train(checkpoint, reviews, meta, out):
    """(problems, recovery failures) of one train command's checkpoint."""
    problems = []
    aspect, senti = checks.own_vocabulary(reviews)
    vocab = checkpoint["vocabulary"]
    if (vocab["aspect_stems"], vocab["senti_stems"]) != (aspect, senti):
        problems.append(f"{out}: checkpoint vocabulary differs from the corpus's stems")
    problems += [f"{out}: {p}" for p in checks.check_counts(checkpoint, reviews)]
    if checkpoint["sweep_index"] != SCHEDULES["train"][2]:
        problems.append(f"{out}: sweep_index {checkpoint['sweep_index']}, "
                        f"scheduled {SCHEDULES['train'][2]}")
    overlap, accuracy = checks.planted_recovery(
        checkpoint, meta["topic_vocab"], set(meta["positive"]),
        set(meta["negative"]), set(meta["seeds"]))
    print(f"{out}: planted recovery: top-word overlap {overlap:.3f}, "
          f"sign accuracy {accuracy:.3f}", file=sys.stderr)
    recovery = []
    if overlap < MIN_TOPIC_OVERLAP:
        recovery.append(f"{out}: planted topics not recovered: top-word overlap "
                        f"{overlap:.3f} < {MIN_TOPIC_OVERLAP}")
    if accuracy < MIN_SIGN_ACCURACY:
        recovery.append(f"{out}: planted polarities not recovered: sign accuracy "
                        f"{accuracy:.3f} < {MIN_SIGN_ACCURACY}")
    return problems, recovery


def check_outputs(workload, work):
    """(problems, failed commands per round) of the first round's outputs.

    On `train`, the command with the inverted model seed that fails the
    planted-recovery check is a failed command, not a problem; a recovery
    failure of the other command is a problem."""
    reviews = checks.read_corpus(os.path.join(work, "corpus.jsonl"))
    meta = _load_json(os.path.join(work, "meta.json"))
    if workload == "train":
        problems, failed = [], 0
        for out in TRAIN_MODEL_SEEDS:
            checkpoint = _load_json(os.path.join(work, out, "checkpoint.json"))
            found, recovery = check_train(checkpoint, reviews, meta, out)
            problems += found
            if out == "out-inverted" and recovery:
                failed += 1
                print(f"failed command (a fault of the program): {recovery}",
                      file=sys.stderr)
            else:
                problems += recovery
        return problems, failed

    out = os.path.join(work, "out")
    checkpoint = _load_json(os.path.join(out, "checkpoint.json"))
    summaries = _load_json(os.path.join(out, "summaries.json"))
    report = _load_json(os.path.join(out, REPORT))
    problems = checks.check_summaries(summaries, reviews, checkpoint)
    problems += checks.check_report(report, summaries, reviews)
    for polarity in ("positive", "negative"):
        hits, n = checks.pool_share(summaries, polarity,
                                    set(meta[f"{polarity}_adjectives"]))
        if n == 0:
            problems.append(f"the {polarity} lists are all empty")
        elif workload == "summarize" and 2 * hits <= n:
            problems.append(f"only {hits} of {n} {polarity} segments carry a "
                            f"{polarity} pool adjective")
    if workload == "wide":
        negated = sum(s["negated"] for lists in summaries.values()
                      for segs in lists.values() for s in segs)
        if negated == 0:
            problems.append("no negated segment in the summaries")
    return problems, 0


# -- metrics ------------------------------------------------------------------

def _round_sum(rounds, key):
    """Median over rounds of a time summed over the round's commands, each
    in reference seconds."""
    return statistics.median(sum(r[key] * r["speed"] for r in rnd) for rnd in rounds)


def end_to_end(rounds, prepare_s, checkpoint_bytes):
    return {
        "setup_s": (prepare_s + _round_sum(rounds, "overhead_s"), "s"),
        "round_s": (_round_sum(rounds, "wall_s"), "s"),
        "round_cpu_s": (_round_sum(rounds, "cpu_s"), "s"),
        "peak_rss_mb": (statistics.median(max(r["peak_rss_mb"] for r in rnd)
                                          for rnd in rounds), "MB"),
        "checkpoint_mb": (checkpoint_bytes / 2 ** 20, "MB"),
    }


def _round_layers(rnd):
    """Per-layer figures of one traced round: self times of the wrapped
    functions (in reference seconds) and counts, summed over the round's
    commands."""
    totals, counts, stems = {}, {}, set()
    for res in rnd:
        trace = res["trace"]
        for name, (calls, total, own) in trace["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += total * res["speed"]
            t[2] += own * res["speed"]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        stems.update(trace["stems"])

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def per(value, n, scale):
        return value / n * scale if n else 0.0

    m = {f"cli.{c}_s": sum(r["wall_s"] * r["speed"] for r in rnd if r["command"] == c)
         for c in ("preprocess", "train", "summarize", "evaluate")}
    m.update({
        "corpus.ingest_s": own("corpus.ingest"),
        "corpus.tokens": counts.get("tokens", 0),
        "corpus.vocabulary_s": own("corpus.vocabulary"),
        "corpus.lookup_calls": calls("corpus.lookup"),
        "corpus.lookup_s": own("corpus.lookup"),
        "stem.calls": calls("stem"),
        "stem.distinct_words": len(stems),
        "stem.s": own("stem"),
        "model.encode_s": own("model.encode"),
        "model.init_s": own("model.init"),
        "model.sweeps": calls("model.gibbs"),
        "model.gibbs_s": own("model.gibbs"),
        "model.gibbs_us_per_sentence": per(own("model.gibbs"),
                                           counts.get("sentences_swept", 0), 1e6),
        "model.map_steps": calls("model.map"),
        "model.map_ms_per_step": per(own("model.map"), calls("model.map"), 1e3),
        "model.estimate_s": own("model.estimate"),
        "model.save_checkpoint_s": own("model.save_checkpoint"),
        "model.load_checkpoint_s": own("model.load_checkpoint"),
        "patterns.extract_s": own("patterns.extract"),
        "patterns.us_per_sentence": per(own("patterns.extract"),
                                        counts.get("sentences_extracted", 0), 1e6),
        "patterns.segments": counts.get("segments", 0),
        "patterns.negated_segments": counts.get("negated_segments", 0),
        "classify.label_s": own("classify.label"),
        "classify.labelled": counts.get("labelled", 0),
        "classify.dropped": counts.get("dropped", 0),
        "filters.procedure_s": own("filters.procedure"),
        "filters.kept_positive": counts.get("kept_positive", 0),
        "filters.kept_negative": counts.get("kept_negative", 0),
        "filters.rank_score_calls": calls("filters.rank"),
        "filters.rank_s": own("filters.rank"),
        "evaluation.evaluate_s": own("evaluation.evaluate"),
        "evaluation.segments_scored": counts.get("segments_scored", 0),
        "trace.round_s": sum(r["wall_s"] * r["speed"] for r in rnd),
    })
    return m, counts


def _unit(name):
    if name.endswith("us_per_sentence"):
        return "us"
    if name.endswith("ms_per_step"):
        return "ms"
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer(rounds):
    figures = [_round_layers(rnd) for rnd in rounds]
    metrics = {name: (statistics.median(f[0][name] for f in figures), _unit(name))
               for name in figures[0][0]}
    metrics["cli.startup_s"] = (statistics.median(r["overhead_s"] * r["speed"]
                                                  for rnd in rounds for r in rnd), "s")
    return metrics, figures[0][1]


# -- main -----------------------------------------------------------------------

def run(args, work):
    runner = Runner(work)
    before = probes()
    start = time.perf_counter()
    runner.prepare(args.workload, args.seed)
    setup_cmds, round_cmds, outputs = WORKLOADS[args.workload]
    outs = sorted({out for out, _ in round_cmds})
    configs = {out: write_config(args.workload, args.seed, work, out) for out in outs}
    prepare_s = ((time.perf_counter() - start) * REFERENCE_S
                 / statistics.median(before + probes()))
    for command in setup_cmds:
        res = runner.command(configs["out"], command)
        if res is None:
            raise SetupError(f"set-up command {command} failed")
        prepare_s += (res["wall_s"] + res["overhead_s"]) * res["speed"]

    rounds, attempted, failed = [], 0, 0
    first_digest = None
    # commands of a whole round whose outputs fail a check because of a
    # known fault of the program; every round writes the same outputs
    known_failures = 0
    problems = []
    start = time.perf_counter()
    while True:
        results = []
        for out, command in round_cmds:
            attempted += 1
            res = runner.command(configs[out], command, trace=bool(args.trace))
            if res is None:
                failed += 1
            else:
                results.append(res)
        if len(results) == len(round_cmds):
            rounds.append(results)
            d = digest(work, outs, outputs)
            if first_digest is None:
                first_digest = d
                try:
                    found, known_failures = check_outputs(args.workload, work)
                    problems += found
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    problems.append(f"outputs could not be read: {exc!r}")
            elif d != first_digest:
                problems.append(f"round {len(rounds)} wrote different outputs")
            failed += known_failures
        if time.perf_counter() - start >= args.seconds:
            break

    if not rounds:
        raise SetupError("no round completed")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    checkpoint_bytes = os.path.getsize(os.path.join(work, "out", "checkpoint.json"))
    print(f"set-up {prepare_s:.3f} s; rounds (wall s / reference s): " + ", ".join(
        "+".join(f"{r['wall_s']:.3f}/{r['wall_s'] * r['speed']:.3f}" for r in rnd)
        for rnd in rounds), file=sys.stderr)
    if args.trace:
        metrics, counts = per_layer(rounds)
        print("trace counts: " + json.dumps(counts, sort_keys=True), file=sys.stderr)
        spans = os.path.join(WORK_ROOT, f"trace-{args.workload}-{args.seed}.json")
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump([[{"command": r["command"], "speed": r["speed"], **r["trace"]}
                        for r in rnd] for rnd in rounds], fh)
        print(f"spans written to {spans}", file=sys.stderr)
        missing = sorted({m for rnd in rounds for r in rnd for m in r["trace"]["missing"]})
        if missing:
            print(f"not traced (absent from the program): {missing}", file=sys.stderr)
    else:
        metrics = end_to_end(rounds, prepare_s, checkpoint_bytes)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists(os.path.join("src", "segsum", "cli.py")):
        print("src/segsum/cli.py not found: run from the root of a segsum checkout",
              file=sys.stderr)
        return 2
    work = os.path.abspath(os.path.join(
        WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(work)
    try:
        result = run(args, work)
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}\n{stderr_tail(work)}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
