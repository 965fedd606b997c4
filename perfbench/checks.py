"""Checkers of the program's outputs, written apart from the program.

Nothing here imports `segsum`: each check recomputes what the program should
have produced from the corpus file, the checkpoint and the documented rules,
and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from math import comb

# -- corpus and stems ------------------------------------------------------

# Porter stems of every real word the workload generators write. Made-up
# words (ending in k, p, b or z) and planted words (ending in a digit) are
# their own stems: no Porter rule removes a suffix ending in those letters.
STEMS = {
    "a": "a", "atmosphere": "atmospher", "attentive": "attent", "bad": "bad",
    "bland": "bland", "charming": "charm", "cozy": "cozi", "cramped": "cramp",
    "decor": "decor", "delicious": "delici", "dessert": "dessert",
    "elegant": "eleg", "food": "food", "found": "found", "fresh": "fresh",
    "friend": "friend", "friendly": "friendli", "good": "good", "great": "great",
    "has": "ha", "host": "host", "i": "i", "is": "is", "it": "it", "last": "last",
    "lighting": "light", "manager": "manag", "month": "month", "music": "music",
    "my": "my", "never": "never", "noisy": "noisi", "not": "not",
    "opened": "open", "ordered": "order", "pasta": "pasta", "pizza": "pizza",
    "poor": "poor", "prompt": "prompt", "really": "realli",
    "recommended": "recommend", "room": "room", "rude": "rude", "salad": "salad",
    "service": "servic", "shabby": "shabbi", "slow": "slow", "soggy": "soggi",
    "soup": "soup", "special": "special", "staff": "staff", "stale": "stale",
    "tasty": "tasti", "terrible": "terribl", "the": "the", "there": "there",
    "they": "thei", "to": "to", "unhelpful": "unhelp", "very": "veri",
    "waiter": "waiter", "we": "we", "went": "went", "what": "what",
    "with": "with", "yesterday": "yesterdai",
}

_SELF_STEMMED = re.compile(r"[a-z0-9]*[kpbz0-9]")


def stem_of(word):
    word = word.lower()
    if word in STEMS:
        return STEMS[word]
    if _SELF_STEMMED.fullmatch(word):
        return word
    raise KeyError(f"no known stem for {word!r}")


def read_corpus(path):
    """Reviews of a JSONL corpus as dicts; empty sentences are dropped, as
    the program drops them."""
    reviews = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                obj["sentences"] = [s for s in obj["sentences"] if s]
                reviews.append(obj)
    return reviews


# -- pattern matcher over tag classes -------------------------------------

# The five documented patterns, in atom notation.
PATTERNS = {
    1: "nn? vb dt? rb* jj nn",
    2: "nn? vb rb* jj to vb",
    3: "nn? vb rb* jj",
    4: "rb* jj to vb nn?",
    5: "rb* jj nn",
}
NEGATION = frozenset({"not", "n't", "never", "no", "hardly"})
MAX_WORDS = 7

_CLASS_OF_ATOM = {"nn": "N", "vb": "V", "dt": "D", "rb": "R", "jj": "J", "to": "T"}


def tag_class(surface, tag):
    """One letter per token; a negation trigger is X whatever its tag."""
    if surface.lower() in NEGATION:
        return "X"
    if tag in ("NN", "NNS", "NNP", "NNPS"):
        return "N"
    if tag in ("VB", "VBD", "VBG", "VBN", "VBP", "VBZ"):
        return "V"
    if tag in ("JJ", "JJR", "JJS"):
        return "J"
    if tag in ("RB", "RBR", "RBS"):
        return "R"
    return {"DT": "D", "TO": "T"}.get(tag, "O")


def _atom_regex(atom):
    name, quant = atom.rstrip("?*"), atom[len(atom.rstrip("?*")):]
    cls = _CLASS_OF_ATOM[name]
    if name == "nn":     # a noun atom takes a whole run of nouns
        return cls + ("*" if quant else "+")
    return cls + quant


def compile_patterns():
    """Per pattern id, the regex of its base form and of its negated forms
    (one trigger X right before a jj or vb atom)."""
    base, negated = {}, {}
    for pid, text in PATTERNS.items():
        atoms = text.split()
        parts = [_atom_regex(a) for a in atoms]
        base[pid] = re.compile("".join(parts))
        variants = ["".join(parts[:i] + ["X"] + parts[i:])
                    for i, a in enumerate(atoms) if a.rstrip("?*") in ("jj", "vb")]
        negated[pid] = re.compile("|".join(f"(?:{v})" for v in variants))
    return base, negated


BASE_RE, NEGATED_RE = compile_patterns()


def check_segment_tags(sentence, start, end, pattern_id, negated):
    """Problems with the span sentence[start:end] as a segment of the named
    pattern; `sentence` is a list of (surface, tag)."""
    if not 0 <= start < end <= len(sentence):
        return [f"span {start}:{end} outside a sentence of {len(sentence)} tokens"]
    if end - start > MAX_WORDS:
        return [f"span {start}:{end} longer than {MAX_WORDS} words"]
    if pattern_id not in PATTERNS:
        return [f"unknown pattern id {pattern_id}"]
    classes = "".join(tag_class(s, t) for s, t in sentence[start:end])
    regex = NEGATED_RE[pattern_id] if negated else BASE_RE[pattern_id]
    if not regex.fullmatch(classes):
        form = "negated " if negated else ""
        return [f"tags {classes} do not match {form}pattern {pattern_id}"]
    if negated:
        trigger = start + classes.index("X")
        if trigger > 0 and tag_class(*sentence[trigger - 1]) == "X":
            return [f"trigger at {trigger} follows another trigger"]
    return []


# -- summaries ------------------------------------------------------------

def check_summaries(summaries, reviews, checkpoint):
    """Problems with summaries.json: spans, patterns, list disjointness and
    the sign of the SEN polarity recomputed from the checkpoint."""
    problems = []
    by_id = {r["id"]: r for r in reviews}
    vocab = checkpoint["vocabulary"]["senti_stems"]
    y = checkpoint["y_senti"]
    weight = {w: y[0][i] - y[1][i] for i, w in enumerate(vocab)}
    seen = {}
    for entity_id, lists in summaries.items():
        for polarity in ("positive", "negative"):
            for seg in lists[polarity]:
                where = f"{entity_id}/{polarity}/{seg.get('text')!r}"
                review = by_id.get(seg["review_id"])
                if review is None or review["entity_id"] != entity_id:
                    problems.append(f"{where}: no such review of this entity")
                    continue
                if not 0 <= seg["sentence_index"] < len(review["sentences"]):
                    problems.append(f"{where}: no sentence {seg['sentence_index']}")
                    continue
                sentence = review["sentences"][seg["sentence_index"]]
                start, end = seg["start"], seg["end"]
                span = sentence[start:end]
                if " ".join(s for s, _ in span) != seg["text"] or not span:
                    problems.append(f"{where}: text is not tokens {start}:{end}")
                    continue
                problems += [f"{where}: {p}" for p in check_segment_tags(
                    sentence, start, end, seg["pattern_id"], seg["negated"])]
                key = (seg["review_id"], seg["sentence_index"], start, end)
                if seen.get(key, polarity) != polarity:
                    problems.append(f"{where}: also in the other list")
                seen[key] = polarity
                score = sum(weight.get(stem_of(s), 0.0) for s, _ in span)
                if seg["negated"]:
                    score = -score
                if ("positive" if score >= 0 else "negative") != polarity:
                    problems.append(f"{where}: SEN polarity {score:.6g} belongs in the other list")
    return problems


def pool_share(summaries, polarity, pool):
    """(segments of the list carrying a word of `pool`, segments of the list)."""
    segs = [s for lists in summaries.values() for s in lists[polarity]]
    hits = sum(any(w.lower() in pool for w in s["text"].split()) for s in segs)
    return hits, len(segs)


# -- skip-bigram evaluation ---------------------------------------------------

def skip_bigrams(seq):
    return Counter((seq[i], seq[j]) for i in range(len(seq))
                   for j in range(i + 1, len(seq)))


def precision_recall(candidate, reference):
    """Skip-bigram P and R of a candidate against one reference item.
    Sequences shorter than two tokens are scored by token containment."""
    if not candidate or not reference:
        return 0.0, 0.0
    if len(candidate) == 1 and len(reference) == 1:
        hit = float(candidate == reference)
        return hit, hit
    if len(candidate) == 1 or len(reference) == 1:
        # the shorter is the singleton; a tie of lengths cannot reach here
        short, other = sorted((candidate, reference), key=len)
        hit = float(short[0] in other)
        return hit, hit
    cand, ref = skip_bigrams(candidate), skip_bigrams(reference)
    shared = sum(min(n, ref[p]) for p, n in cand.items())
    return shared / comb(len(candidate), 2), shared / comb(len(reference), 2)


def _normalize_reference(item):
    return tuple(stem_of(w) for w in re.findall(r"[a-z0-9']+", item.lower()))


def micro_scores(summaries, reviews, polarity):
    """(P_s, R_s) of one list over all entities: each candidate is scored
    against the reference item of highest recall (first one on ties) and the
    scores are averaged over candidates."""
    golden = {}
    for review in reviews:
        items = golden.setdefault(review["entity_id"], set())
        for item in review["pros" if polarity == "positive" else "cons"]:
            norm = " ".join(item.lower().split())
            if norm:
                items.add(_normalize_reference(norm))
    p_sum = r_sum = 0.0
    n = 0
    for entity_id, lists in summaries.items():
        refs = sorted(r for r in golden.get(entity_id, ()) if r)
        if not refs:
            continue
        for seg in lists[polarity]:
            cand = tuple(stem_of(w) for w in seg["text"].split())
            best = None
            for ref in refs:
                p, r = precision_recall(cand, ref)
                if best is None or r > best[1]:
                    best = (p, r)
            p_sum += best[0]
            r_sum += best[1]
            n += 1
    return (p_sum / n, r_sum / n) if n else (0.0, 0.0)


def check_report(report, summaries, reviews, tol=1e-9):
    problems = []
    for side, polarity in (("pros", "positive"), ("cons", "negative")):
        p, r = micro_scores(summaries, reviews, polarity)
        got = report[side]["corpus"]
        for name, want in (("P_s", p), ("R_s", r)):
            if abs(got[name] - want) > tol:
                problems.append(f"{side} {name} = {got[name]!r}, recomputed {want!r}")
    return problems


# -- model checkpoint ---------------------------------------------------------

def own_vocabulary(reviews):
    """Sorted (aspect, sentiment) stems of a corpus read with min_count 1
    and no stopwords: a stem ever tagged JJ*/RB* is a sentiment stem."""
    senti, every = set(), set()
    for review in reviews:
        for sentence in review["sentences"]:
            for surface, tag in sentence:
                s = stem_of(surface)
                every.add(s)
                if tag.startswith(("JJ", "RB")):
                    senti.add(s)
    return sorted(every - senti), sorted(senti)


def recount(checkpoint, reviews):
    """n_TW, n_STW, n_DT and n_DS rebuilt from the checkpoint's z and s."""
    vocab = checkpoint["vocabulary"]
    aspect = {w: i for i, w in enumerate(vocab["aspect_stems"])}
    senti = {w: i for i, w in enumerate(vocab["senti_stems"])}
    T = checkpoint["hyperparams"]["num_topics"]
    S = 2
    n_TW = [[0] * len(aspect) for _ in range(T)]
    n_STW = [[[0] * len(senti) for _ in range(T)] for _ in range(S)]
    n_DT = [[0] * T for _ in reviews]
    n_DS = [[0] * S for _ in reviews]
    for d, review in enumerate(reviews):
        for c, sentence in enumerate(review["sentences"]):
            k, j = checkpoint["z"][d][c], checkpoint["s"][d][c]
            n_DT[d][k] += 1
            n_DS[d][j] += 1
            for surface, _ in sentence:
                w = stem_of(surface)
                if w in senti:
                    n_STW[j][k][senti[w]] += 1
                elif w in aspect:
                    n_TW[k][aspect[w]] += 1
    return {"n_TW": n_TW, "n_STW": n_STW, "n_DT": n_DT, "n_DS": n_DS}


def check_counts(checkpoint, reviews):
    problems = []
    if len(checkpoint["z"]) != len(reviews):
        return [f"checkpoint has {len(checkpoint['z'])} documents, corpus {len(reviews)}"]
    for d, review in enumerate(reviews):
        if len(checkpoint["z"][d]) != len(review["sentences"]):
            return [f"document {d}: assignments do not match its sentences"]
    for name, want in recount(checkpoint, reviews).items():
        if name not in checkpoint:
            problems.append(f"{name} is missing from the checkpoint")
        elif checkpoint[name] != want:
            problems.append(f"{name} differs from the recount from z/s")
    return problems


def planted_recovery(checkpoint, topic_vocab, positive, negative, seeds):
    """(best-permutation top-word overlap, sign accuracy on unseeded planted
    sentiment words). A learned topic's top words are its len(planted topic)
    most frequent aspect stems."""
    stems = checkpoint["vocabulary"]["aspect_stems"]
    tops = []
    for row in checkpoint["n_TW"]:
        order = sorted(range(len(row)), key=lambda i: (-row[i], i))
        tops.append({stems[i] for i in order[:len(topic_vocab[0])]})
    overlap = max(
        sum(len(tops[k] & set(topic_vocab[p])) / len(topic_vocab[p])
            for k, p in enumerate(perm)) / len(tops)
        for perm in itertools.permutations(range(len(topic_vocab)), len(tops)))
    y = checkpoint["y_senti"]
    right = total = 0
    for i, w in enumerate(checkpoint["vocabulary"]["senti_stems"]):
        if w in seeds or (w not in positive and w not in negative):
            continue
        total += 1
        right += (y[0][i] - y[1][i] > 0) == (w in positive)
    return overlap, (right / total if total else 0.0)
