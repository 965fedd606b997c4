"""Tests of the benchmark's checkers: each accepts a right output and
rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

REVIEWS = [
    {"id": "r1", "entity_id": "e1",
     "sentences": [[["the", "DT"], ["food", "NN"], ["is", "VBZ"], ["delicious", "JJ"]],
                   [["what", "WP"], ["a", "DT"], ["not", "RB"], ["bland", "JJ"],
                    ["soup", "NN"]]],
     "pros": ["delicious food", "Food is  delicious"], "cons": ["rude staff"]},
    {"id": "r2", "entity_id": "e1",
     "sentences": [[["very", "RB"], ["rude", "JJ"], ["staff", "NN"]]],
     "pros": [], "cons": []},
]


def _segment(review_id, sentence_index, start, end, text, pattern_id, negated=False):
    return {"review_id": review_id, "entity_id": "e1", "sentence_index": sentence_index,
            "start": start, "end": end, "text": text, "pattern_id": pattern_id,
            "negated": negated}


SUMMARIES = {"e1": {
    "positive": [_segment("r1", 0, 1, 4, "food is delicious", 3),
                 _segment("r1", 1, 2, 5, "not bland soup", 5, negated=True)],
    "negative": [_segment("r2", 0, 0, 3, "very rude staff", 5)],
}}


def _checkpoint():
    ck = {
        "hyperparams": {"num_topics": 2},
        "vocabulary": {"aspect_stems": ["food", "is", "soup", "staff", "the"],
                       "senti_stems": ["bland", "delici", "rude", "veri"]},
        "y_senti": [[-0.75, 1.0, -1.0, 0.05], [0.75, -1.0, 1.0, -0.05]],
        "z": [[0, 1], [1]],
        "s": [[0, 0], [1]],
        "sweep_index": 3,
    }
    ck.update(checks.recount(ck, REVIEWS))
    return ck


def test_right_summaries_pass():
    assert checks.check_summaries(SUMMARIES, REVIEWS, _checkpoint()) == []


def test_segment_shifted_by_one_token_is_rejected():
    shifted = copy.deepcopy(SUMMARIES)
    seg = shifted["e1"]["positive"][0]
    seg["start"], seg["end"] = 0, 3
    assert any("text is not tokens" in p
               for p in checks.check_summaries(shifted, REVIEWS, _checkpoint()))
    seg["text"] = "the food is"
    assert any("do not match pattern 3" in p
               for p in checks.check_summaries(shifted, REVIEWS, _checkpoint()))


def test_segment_under_wrong_polarity_is_rejected():
    moved = copy.deepcopy(SUMMARIES)
    moved["e1"]["positive"].append(moved["e1"]["negative"].pop())
    problems = checks.check_summaries(moved, REVIEWS, _checkpoint())
    assert any("belongs in the other list" in p for p in problems)


def test_negation_ignored_by_sen_is_rejected():
    flipped = copy.deepcopy(SUMMARIES)
    flipped["e1"]["positive"][1]["negated"] = False
    problems = checks.check_summaries(flipped, REVIEWS, _checkpoint())
    assert any("do not match pattern 5" in p for p in problems)
    assert any("belongs in the other list" in p for p in problems)


def test_segment_in_both_lists_is_rejected():
    both = copy.deepcopy(SUMMARIES)
    both["e1"]["negative"].append(copy.deepcopy(both["e1"]["positive"][0]))
    assert any("also in the other list" in p
               for p in checks.check_summaries(both, REVIEWS, _checkpoint()))


def test_pattern_regexes():
    cases = [
        ("NVDRJN", 1, False), ("NXVDJN", 1, True), ("VJN", 1, False),
        ("NNVRJTV", 2, False), ("NVRXJTV", 2, True),
        ("NVJ", 3, False), ("VRRJ", 3, False), ("NVXJ", 3, True), ("XNVJ", 3, None),
        ("JTVN", 4, False), ("RJTV", 4, False), ("XJTVN", 4, True),
        ("JN", 5, False), ("RJNN", 5, False), ("RXJN", 5, True), ("XRJN", 5, None),
    ]
    for classes, pid, negated in cases:
        base = bool(checks.BASE_RE[pid].fullmatch(classes))
        neg = bool(checks.NEGATED_RE[pid].fullmatch(classes))
        assert (base, neg) == (negated is False, negated is True), (classes, pid)


def test_double_negation_and_length_are_rejected():
    sentence = [["no", "DT"], ["not", "RB"], ["bland", "JJ"], ["soup", "NN"]]
    assert checks.check_segment_tags(sentence, 1, 4, 5, True) == [
        "trigger at 1 follows another trigger"]
    long = [["very", "RB"]] * 6 + [["bland", "JJ"], ["soup", "NN"]]
    assert checks.check_segment_tags(long, 0, 8, 5, False)
    assert checks.check_segment_tags(long, 1, 8, 5, False) == []


def test_skip_bigram_scores():
    assert checks.precision_recall(("veri", "rude", "staff"), ("rude", "staff")) == (1 / 3, 1.0)
    assert checks.precision_recall(("food",), ("food", "is")) == (1.0, 1.0)
    assert checks.precision_recall(("food",), ("soup",)) == (0.0, 0.0)
    assert checks.precision_recall(("a", "a", "b"), ("a", "b", "b")) == (2 / 3, 2 / 3)


def test_report_off_by_a_little_is_rejected():
    p_pos, r_pos = checks.micro_scores(SUMMARIES, REVIEWS, "positive")
    p_neg, r_neg = checks.micro_scores(SUMMARIES, REVIEWS, "negative")
    # "food is delicious" matches a pros item exactly; "not bland soup" shares nothing
    assert (p_pos, r_pos) == (0.5, 0.5)
    assert (p_neg, r_neg) == (1 / 3, 1.0)
    report = {"pros": {"corpus": {"P_s": p_pos, "R_s": r_pos}},
              "cons": {"corpus": {"P_s": p_neg, "R_s": r_neg}}}
    assert checks.check_report(report, SUMMARIES, REVIEWS) == []
    report["cons"]["corpus"]["R_s"] -= 1e-6
    assert checks.check_report(report, SUMMARIES, REVIEWS) == [
        f"cons R_s = {1.0 - 1e-6!r}, recomputed 1.0"]


def test_count_off_by_one_is_rejected():
    ck = _checkpoint()
    assert ck["n_TW"] == [[1, 1, 0, 0, 1], [0, 0, 1, 1, 0]]
    assert checks.check_counts(ck, REVIEWS) == []
    ck["n_STW"][1][1][2] += 1
    assert checks.check_counts(ck, REVIEWS) == ["n_STW differs from the recount from z/s"]
    ck = _checkpoint()
    ck["n_TW"][0][0] -= 1
    assert checks.check_counts(ck, REVIEWS) == ["n_TW differs from the recount from z/s"]
    ck = _checkpoint()
    del ck["n_DS"]
    assert checks.check_counts(ck, REVIEWS) == ["n_DS is missing from the checkpoint"]


def test_planted_recovery():
    topic_vocab = [["a0", "a1"], ["b0", "b1"]]
    ck = {"vocabulary": {"aspect_stems": ["a0", "a1", "b0", "b1"],
                         "senti_stems": ["neg0", "neg1", "pos0", "pos1"]},
          # learned topics in the other order: the permutation finds them
          "n_TW": [[0, 1, 5, 4], [3, 2, 0, 0]],
          "y_senti": [[-2.0, -0.5, 2.0, 0.5], [2.0, 0.5, -2.0, -0.5]]}
    positive, negative, seeds = {"pos0", "pos1"}, {"neg0", "neg1"}, {"pos0", "neg0"}
    assert checks.planted_recovery(ck, topic_vocab, positive, negative, seeds) == (1.0, 1.0)
    ck["y_senti"] = [[-2.0, 0.5, 2.0, -0.5], [2.0, -0.5, -2.0, 0.5]]
    assert checks.planted_recovery(ck, topic_vocab, positive, negative, seeds) == (1.0, 0.0)
    ck["n_TW"] = [[1, 0, 5, 0], [3, 0, 0, 2]]
    assert checks.planted_recovery(ck, topic_vocab, positive, negative, seeds)[0] == 0.5


def test_stems():
    assert checks.stem_of("Terrible") == "terribl"
    assert checks.stem_of("asp0word12") == "asp0word12"
    assert checks.stem_of("zolekap") == "zolekap"
