import contextlib
import hashlib
import io
import json
import logging
import math
import os
import pathlib
import re
import string
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segsum import classify, corpus as corpus_mod, filters, model, patterns
from segsum.cli import dump_json, main
from segsum.config import ConfigError, PipelineConfig, load_config
from segsum.corpus import PENN_TAGS
from segsum.synthetic import generate_text_reviews, text_polarity_lexicon

import oracles


def write_corpus(tmp_path, **kwargs):
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        for review in generate_text_reviews(**kwargs):
            fh.write(json.dumps(review) + "\n")
    return path


def write_config(tmp_path, corpus_path, extra="", name="config.ini"):
    path = tmp_path / name
    path.write_text(
        f"[paths]\n"
        f"corpus = {corpus_path}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        + extra +
        f"[model]\n"
        f"num_topics = 3\n"
        f"min_count = 2\n"
        f"[schedule]\n"
        f"burn_in = 10\n"
        f"interleave = 10\n"
        f"total = 30\n")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    corpus = write_corpus(tmp_path, num_entities=4, reviews_per_entity=8)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(f"{w}\t{s}\n"
                               for w, s in sorted(text_polarity_lexicon().items())))
    config = write_config(tmp_path, corpus, extra=f"lexicon = {lexicon}\n")
    return tmp_path, config


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\nrng_seed = 3\n")
        cfg = load_config(path)
        assert cfg.rng_seed == 3
        assert cfg.hyperparams.num_topics == 7
        assert cfg.hyperparams.alpha == 0.1
        assert cfg.procedure == "AW+SEN+SW"
        assert cfg.checkpoint_path.endswith("checkpoint.json")

    def test_unknown_section_fails_fast(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[modle]\nnum_topics = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "modle" in str(err.value)

    def test_unknown_key_fails_fast(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\nnum_topic = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "num_topic" in str(err.value)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\nnum_topics = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_domain_value(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\nalpha = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_referenced_file_must_exist(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[paths]\ncorpus = /does/not/exist.jsonl\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "does not exist" in str(err.value)


def _edit_third_record(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines))


def _stray_byte_on_the_third_line(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))


def _first_cell(value):
    """An edit of a nested list that sets its first scalar cell to value."""
    def edit(rows):
        row = rows
        while isinstance(row[0], list):
            row = row[0]
        row[0] = value
        return rows
    return edit


def _assert_edited_checkpoint_fails_naming_it(tmp_path, capsys, key, edit, argv):
    """Train a checkpoint, apply edit to its value at key, and assert that
    argv exits 2 with one line naming the checkpoint and the key."""
    corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
    config = write_config(tmp_path, corpus)
    assert main(["--config", str(config), "train", "--iters", "2"]) == 0
    ckpt = tmp_path / "out" / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    payload[key] = edit(payload[key])
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["--config", str(config), *argv]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: " in err and repr(key) in err
    assert len(err.strip().splitlines()) == 1


class TestExitCodes:
    @pytest.mark.parametrize("content, named", [
        (b"[nope]\nx = 1\n", "[nope]"),
        # configparser cannot parse these three; the message names the file
        (b"[paths]\n[paths]\n", "bad.ini"),
        (b"[run]\n=3\n", "bad.ini"),
        (b"[run]\nrng_seed = 3\xff\n", "bad.ini"),
    ], ids=["unknown-section", "duplicate-section", "no-key", "not-utf-8"])
    def test_config_error_is_one(self, tmp_path, capsys, content, named):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        assert main(["--config", str(bad), "preprocess"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and named in err

    def test_a_percent_sign_is_part_of_a_value(self, tmp_path):
        # configparser's default interpolation raised on both values, uncaught
        (tmp_path / "100%").mkdir()
        corpus = write_corpus(tmp_path / "100%", num_entities=2, reviews_per_entity=3)
        config = write_config(tmp_path, corpus)
        config.write_text(config.read_text().replace("/out\n", "/out%(x)s\n"))
        assert main(["--config", str(config), "preprocess"]) == 0
        assert (tmp_path / "out%(x)s" / "vocab.json").exists()

    def test_usage_error_is_one(self, workspace):
        _, config = workspace
        assert main(["--config", str(config)]) == 1          # no subcommand
        assert main(["--config", str(config), "bogus"]) == 1

    @pytest.mark.parametrize("command, option, value", [
        ("summarize", "--top-n", "-1"), ("topics", "--top-n", "-1"), ("train", "--iters", "-1"),
        *((command, "--patterns", spec)
          for command in ("extract", "summarize", "evaluate") for spec in ("bogus", "9"))])
    def test_negative_top_n_is_one(self, workspace, capsys, command, option, value):
        _, config = workspace
        assert main(["--config", str(config), command, option, value]) == 1
        err = capsys.readouterr().err
        message = f"bad pattern spec: '{value}'" if option == "--patterns" else "must be >= 0"
        assert f"argument {option}: {message}" in err and "data error" not in err

    @pytest.mark.parametrize("command", ["train", "summarize", "topics"])
    def test_negative_seed_is_one(self, workspace, capsys, command):
        _, config = workspace
        assert main(["--config", str(config), "--seed", "-1", command]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0" in err and "data error" not in err

    @pytest.mark.parametrize("section, key, value", [("run", "top_n", -1),
                                                     ("run", "rng_seed", -1),
                                                     ("patterns", "max_words", 0),
                                                     ("patterns", "preset", "bogus"),
                                                     ("paths", "corpus_format", "xml"),
                                                     ("model", "alpha", "nan"),
                                                     ("model", "beta", "inf"),
                                                     ("model", "mu_seed", "nan")])
    def test_out_of_range_config_count_is_one(self, tmp_path, capsys, section, key, value):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        # write_config's extra lines go into its [paths] section, and a
        # [model] key into the [model] section it writes itself
        header = "" if section == "paths" else f"[{section}]\n"
        line = f"{header}{key} = {value}\n"
        config = write_config(tmp_path, corpus, extra="" if section == "model" else line)
        if section == "model":
            config.write_text(config.read_text().replace("[model]\n", line))
        assert main(["--config", str(config), "summarize"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_bad_seed_line_is_two(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("positive\tgood\nneutral\tfine\n")
        config = write_config(tmp_path, corpus, extra=f"seeds = {seeds}\n")
        assert main(["--config", str(config), "train", "--iters", "1"]) == 2
        assert f"{seeds}:2:" in capsys.readouterr().err

    def test_bad_procedure_is_one(self, workspace, capsys):
        _, config = workspace
        code = main(["--config", str(config), "--procedure", "AW+SEN+SWN",
                     "preprocess"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_checkpoint_is_two(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "summarize"]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["topics", "summarize", "evaluate"])
    def test_checkpoint_missing_key_is_two(self, tmp_path, capsys, command):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--iters", "2"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        payload = json.loads(ckpt.read_text())
        del payload["y_topic"]
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["--config", str(config), command]) == 2
        err = capsys.readouterr().err
        assert "y_topic" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [["topics"], ["train", "--resume"]],
                             ids=["topics", "resume"])
    @pytest.mark.parametrize("key,edit", [
        pytest.param("n_TW", lambda rows: [rows[0] + [0.0]] + rows[1:], id="n_TW-row-longer"),
        pytest.param("n_TW", lambda rows: [row + [0.0] for row in rows], id="n_TW-rows-longer"),
        pytest.param("y_topic", lambda rows: [row[:-1] for row in rows], id="y_topic-rows-shorter"),
        pytest.param("sweep_index", lambda index: "x", id="sweep_index-string"),
        pytest.param("hyperparams", lambda hp: {**hp, "alpha": float("nan")},
                     id="hyperparams-alpha-nan"),
    ])
    def test_checkpoint_field_of_the_wrong_shape_is_two(self, tmp_path, capsys, command,
                                                        key, edit):
        _assert_edited_checkpoint_fails_naming_it(tmp_path, capsys, key, edit, command)

    @pytest.mark.parametrize("command", [["train", "--resume"], ["summarize"], ["evaluate"]],
                             ids=["resume", "summarize", "evaluate"])
    @pytest.mark.parametrize("key,edit", [
        pytest.param("z", lambda rows: [rows[0][:-1]] + rows[1:], id="z-row-shorter"),
        pytest.param("z", lambda rows: rows[:-1], id="z-last-row-removed"),
        pytest.param("s", lambda rows: [rows[0], 1] + rows[2:], id="s-row-scalar"),
        pytest.param("s", lambda rows: [rows[0][:-1] + [0.5]] + rows[1:], id="s-entry-fraction"),
        pytest.param("z", lambda rows: [rows[0][:-1] + [3]] + rows[1:], id="z-topic-out-of-range"),
    ])
    def test_checkpoint_assignments_that_do_not_fit_are_two(self, tmp_path, capsys, command,
                                                            key, edit):
        _assert_edited_checkpoint_fails_naming_it(tmp_path, capsys, key, edit, command)

    @pytest.mark.parametrize("command", ["topics", "summarize"])
    @pytest.mark.parametrize("key,edit", [
        pytest.param("y_topic", _first_cell(float("nan")), id="y_topic-nan"),
        pytest.param("y_senti", _first_cell(float("inf")), id="y_senti-infinity"),
        pytest.param("seed_mask", _first_cell(7), id="seed_mask-7"),
        pytest.param("n_TW", _first_cell(-5.0), id="n_TW-negative"),
        pytest.param("n_TW", _first_cell(0.5), id="n_TW-fraction"),
        pytest.param("n_STW", _first_cell(float("inf")), id="n_STW-infinity"),
        pytest.param("n_DT", _first_cell(-1.0), id="n_DT-negative"),
        pytest.param("n_DS", _first_cell(float("nan")), id="n_DS-nan"),
        pytest.param("n_STW", _first_cell(10 ** 400), id="n_STW-beyond-float"),
        pytest.param("rng_state", lambda rng: {**rng, "state": {**rng["state"], "state": -1}},
                     id="rng_state-negative"),
        pytest.param("vocab_hash", lambda digest: "0" * len(digest), id="vocab_hash-other"),
        pytest.param("format_version", lambda version: version + 1, id="format_version-next"),
        # finite, but the word probabilities overflow or underflow to 0
        pytest.param("y_topic", _first_cell(1e308), id="y_topic-1e308"),
        pytest.param("y_senti", _first_cell(2 ** 70), id="y_senti-2**70"),
        pytest.param("hyperparams", lambda hp: {**hp, "beta": 1e308}, id="hyperparams-beta-1e308"),
        # JSON values that are not numbers, where numbers are due
        pytest.param("y_topic", _first_cell("1"), id="y_topic-numeric-string"),
        pytest.param("n_TW", _first_cell(True), id="n_TW-true"),
        pytest.param("hyperparams", lambda hp: {**hp, "num_topics": True},
                     id="hyperparams-num_topics-true"),
        pytest.param("hyperparams", lambda hp: {}, id="hyperparams-empty"),
    ])
    def test_checkpoint_value_out_of_its_domain_is_two(self, tmp_path, capsys, command, key,
                                                       edit):
        # json writes NaN and Infinity as tokens that it reads back
        _assert_edited_checkpoint_fails_naming_it(tmp_path, capsys, key, edit, [command])

    @pytest.mark.parametrize("command", ["topics", "summarize", "evaluate"])
    def test_checkpoint_not_an_object_is_two(self, tmp_path, capsys, command):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        config = write_config(tmp_path, corpus)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "checkpoint.json").write_text("[]")
        assert main(["--config", str(config), command]) == 2
        err = capsys.readouterr().err
        assert "not a JSON object" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name,spoil,command", [
        ("corpus.jsonl", lambda path: _edit_third_record(
            path, lambda r: r["sentences"][0][0].__setitem__(0, None)), "preprocess"),
        ("corpus.jsonl", lambda path: _edit_third_record(
            path, lambda r: r.__setitem__("pros", "abc")), "preprocess"),
        ("corpus.jsonl", _stray_byte_on_the_third_line, "preprocess"),
        ("seeds.txt", _stray_byte_on_the_third_line, "train"),
        ("lexicon.tsv", _stray_byte_on_the_third_line, "summarize"),
        ("stopwords.txt", _stray_byte_on_the_third_line, "preprocess"),
    ], ids=["null-surface", "string-pros", "corpus-byte", "seeds-byte", "lexicon-byte",
            "stopwords-byte"])
    def test_bad_input_line_is_two_and_names_it(self, tmp_path, capsys, name, spoil, command):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        (tmp_path / "seeds.txt").write_text(
            "positive\tgood\npositive\tgreat\nnegative\tbad\nnegative\tterribl\n")
        (tmp_path / "lexicon.tsv").write_text(
            "".join(f"{w}\t{s}\n" for w, s in sorted(text_polarity_lexicon().items())))
        (tmp_path / "stopwords.txt").write_text("the\nis\na\nvery\n")
        config = write_config(tmp_path, corpus, extra="".join(
            f"{key} = {tmp_path / file}\n" for key, file in (
                ("seeds", "seeds.txt"), ("lexicon", "lexicon.tsv"),
                ("stopwords", "stopwords.txt"))))
        assert main(["--config", str(config), "train", "--iters", "2"]) == 0
        path = tmp_path / name
        spoil(path)
        capsys.readouterr()
        assert main(["--config", str(config), command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{path}:3: " in err[0]

    @pytest.mark.parametrize("key,command", [
        ("stopwords", ["preprocess"]), ("extra_sentiment", ["preprocess"]),
        ("seeds", ["train", "--iters", "1"]), ("lexicon", ["summarize"])])
    def test_input_file_that_is_a_directory_is_two(self, tmp_path, capsys, key, command):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
        assert main(["--config", str(write_config(tmp_path, corpus)),
                     "train", "--iters", "1"]) == 0
        folder = tmp_path / "a_directory"
        folder.mkdir()
        config = write_config(tmp_path, corpus, extra=f"{key} = {folder}\n")
        capsys.readouterr()
        assert main(["--config", str(config), *command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(folder) in err[0]

    def test_corpus_format_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        config = write_config(tmp_path, bad)
        assert main(["--config", str(config), "preprocess"]) == 2
        assert "data error" in capsys.readouterr().err


# -- one corpus record mutated in one place -----------------------------------
#
# preprocess either accepts the mutation (exit 0), where the README's record
# schema allows it, or exits 2 with one stderr line naming the record's
# path:lineno; never exit 1 or a traceback.

RECORDS = json.loads(json.dumps(generate_text_reviews(num_entities=2, reviews_per_entity=3)))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                        st.lists(st.none(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.none(), max_size=2))
UNKNOWN_TAGS = st.text(string.ascii_uppercase, min_size=1, max_size=4).filter(
    lambda tag: tag not in PENN_TAGS)
MUTATIONS = ["field", "missing key", "record", "sentence", "token", "surface or tag",
             "pros or cons item", "0xff byte", "empty sentence", "unknown tag",
             "lone surrogate", "empty surface"]


def _mutate(data, record, kinds=MUTATIONS):
    """Mutate the record in one place, in one of these kinds of MUTATIONS:
    (its line, whether the schema allows it)."""
    def other_type(original):
        return data.draw(JSON_VALUES.filter(lambda value: type(value) is not type(original)))

    kind = data.draw(st.sampled_from(kinds))
    sentences = record["sentences"]
    i = data.draw(st.integers(0, len(sentences) - 1))
    t = data.draw(st.integers(0, len(sentences[i]) - 1))
    allowed = kind in ("empty sentence", "unknown tag")
    if kind == "field":
        key = data.draw(st.sampled_from(sorted(record)))
        record[key] = other_type(record[key])
        allowed = key in ("id", "entity_id") and type(record[key]) is int
    elif kind == "missing key":
        key = data.draw(st.sampled_from(sorted(record)))
        del record[key]
        allowed = key in ("pros", "cons")
    elif kind == "record":
        record = other_type(record)
    elif kind == "sentence":
        sentences[i] = other_type(sentences[i])
    elif kind == "token":
        sentences[i][t] = other_type(sentences[i][t])
    elif kind == "surface or tag":
        sentences[i][t][data.draw(st.integers(0, 1))] = other_type("")
    elif kind == "pros or cons item":
        items = record[data.draw(st.sampled_from([k for k in ("pros", "cons") if record[k]]))]
        items[data.draw(st.integers(0, len(items) - 1))] = other_type("")
    elif kind == "empty sentence":
        sentences[i] = []
    elif kind == "unknown tag":
        sentences[i][t][1] = data.draw(UNKNOWN_TAGS)
    elif kind == "lone surrogate":
        # json.dumps writes it as its escape, which json.loads reads back
        strings = [(record, "id"), (record, "entity_id"), (sentences[i][t], 0),
                   (sentences[i][t], 1)] + [(record[key], j) for key in ("pros", "cons")
                                            for j in range(len(record[key]))]
        where, key = data.draw(st.sampled_from(strings))
        where[key] = str(where[key]) + data.draw(st.sampled_from(["\ud800", "\udbff", "\udfff"]))
    elif kind == "empty surface":
        sentences[i][t][0] = data.draw(st.sampled_from(["", " ", "\t\u00a0"]))
    line = json.dumps(record).encode()
    if kind == "0xff byte":
        at = data.draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    return line, allowed


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_record_exits_0_or_2_naming_its_line(data):
    index = data.draw(st.integers(0, len(RECORDS) - 1))
    lines = [json.dumps(record).encode() for record in RECORDS]
    lines[index], allowed = _mutate(data, json.loads(lines[index]))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = pathlib.Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(line + b"\n" for line in lines))
        config = write_config(pathlib.Path(tmp), corpus)
        _assert_exit_0_or_2_naming(["--config", str(config), "preprocess"], allowed,
                                   f"{corpus}:{index + 1}: ")


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_corpus_that_preprocess_accepts_runs_every_later_command(data):
    # up to four records with an empty sentence or an unknown tag, which
    # preprocess accepts and which leave sentences without aspect or
    # sentiment ids for every sweep; the first may instead have a field of
    # another type or a missing key, which it accepts in some places
    indices = data.draw(st.lists(st.integers(0, len(RECORDS) - 1), min_size=1, max_size=4,
                                 unique=True))
    lines = [json.dumps(record).encode() for record in RECORDS]
    for index in indices:
        kinds = ["empty sentence", "unknown tag"]
        if index == indices[0]:
            kinds += ["field", "missing key"]
        lines[index], _ = _mutate(data, json.loads(lines[index]), kinds)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = pathlib.Path(tmp) / "corpus.jsonl"
        corpus.write_bytes(b"".join(line + b"\n" for line in lines))
        config = write_config(pathlib.Path(tmp), corpus)
        for command in (["preprocess"], ["train", "--iters", "2"], ["extract"], ["summarize"],
                        ["evaluate"], ["topics"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", str(config), *command])
            if command == ["preprocess"] and code == 2:
                return   # a rejected corpus: test_a_mutated_record_exits_0_or_2_naming_its_line
            assert code == 0, (command, err.getvalue())


def _assert_exit_0_or_2_naming(argv, allowed, where):
    """Run main(argv): exit 0 if allowed, else exit 2 with one stderr line
    holding `where`; never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if allowed:
        assert code == 0, err
    else:
        assert code == 2
        [line] = err.strip().splitlines()
        assert where in line


# -- one line of the seeds file or the lexicon mutated ------------------------
#
# The command that reads the file either accepts the mutation (exit 0: blank
# and '#' lines, which both readers skip) or exits 2 with one stderr line
# naming the file's path:lineno; never exit 1 or a traceback.

LEXICON = sorted(text_polarity_lexicon().items())
SEED_LINES = [f"{'positive' if score > 0 else 'negative'}\t{stem}" for stem, score in LEXICON]
LEXICON_LINES = [f"{stem}\t{score}" for stem, score in LEXICON]
LINE_MUTATIONS = ["field count", "0xff byte", "blank", "comment"]


def _mutate_line(data, line, kind):
    """The bytes of the line changed by a mutation of this kind."""
    fields = line.split("\t")
    if kind == "field count":
        fields = fields[:1] if data.draw(st.booleans()) else fields + ["1"]
    elif kind == "unknown polarity":
        fields[0] = data.draw(st.sampled_from(["neutral", "Positive", "pos", "+1"]))
    elif kind == "non-finite score":
        fields[1] = data.draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"]))
    elif kind == "blank":
        fields = [data.draw(st.sampled_from(["", " ", "\t"]))]
    elif kind == "comment":
        fields = ["# " + line]
    out = "\t".join(fields).encode()
    if kind == "0xff byte":
        at = data.draw(st.integers(0, len(out)))
        out = out[:at] + b"\xff" + out[at:]
    return out


def _run_on_mutated_file(data, lines, kinds, name, corpus, argv, extra="",
                         allowed=("blank", "comment")):
    """Write lines with one of them mutated to the [paths] file `name` in a
    fresh directory and run argv with a config naming it. The reader accepts
    the mutation kinds in allowed and rejects the others."""
    index = data.draw(st.integers(0, len(lines) - 1))
    encoded = [line.encode() for line in lines]
    kind = data.draw(st.sampled_from(kinds))
    encoded[index] = _mutate_line(data, lines[index], kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{name}.txt"
        path.write_bytes(b"".join(line + b"\n" for line in encoded))
        config = write_config(pathlib.Path(tmp), corpus, extra=f"{name} = {path}\n{extra}")
        _assert_exit_0_or_2_naming(["--config", str(config), *argv], kind in allowed,
                                   f"{path}:{index + 1}: ")


@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    """A small corpus and a checkpoint trained on it for one sweep."""
    tmp_path = tmp_path_factory.mktemp("mutated_lines")
    corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
    assert main(["--config", str(write_config(tmp_path, corpus)),
                 "train", "--iters", "1"]) == 0
    return corpus, tmp_path / "out" / "checkpoint.json"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_seed_line_exits_0_or_2_naming_its_line(trained_once, data):
    corpus, _ = trained_once
    _run_on_mutated_file(data, SEED_LINES, LINE_MUTATIONS + ["unknown polarity"], "seeds",
                         corpus, ["train", "--iters", "1"])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_lexicon_line_exits_0_or_2_naming_its_line(trained_once, data):
    corpus, checkpoint = trained_once
    _run_on_mutated_file(data, LEXICON_LINES, LINE_MUTATIONS + ["non-finite score"], "lexicon",
                         corpus, ["--procedure", "Baseline+SWN", "summarize"],
                         extra=f"checkpoint = {checkpoint}\n")


# a word list reads each line as one word, but blanks and '#' comments: only a
# line that is not UTF-8 fails
@pytest.mark.parametrize("name, lines", [
    ("stopwords", sorted(corpus_mod.DEFAULT_STOPWORDS)),
    ("extra_sentiment", sorted(corpus_mod.DEFAULT_EXTRA_SENTIMENT))])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_word_list_line_exits_0_or_2_naming_its_line(trained_once, name, lines, data):
    corpus, _ = trained_once
    _run_on_mutated_file(data, lines, LINE_MUTATIONS, name, corpus, ["preprocess"],
                         allowed=("field count", "blank", "comment"))


# -- one line of a CoNLL corpus mutated ----------------------------------------
#
# The same properties as for a mutated JSONL record: preprocess exits 0 or
# exits 2 with one stderr line naming the corpus's path:lineno, and a corpus
# that it accepts runs every later command.

CONLL_LINES = [line for r in RECORDS for line in (
    [f"#REVIEW {r['id']} {r['entity_id']}"] + [f"#PROS {item}" for item in r["pros"]]
    + [f"#CONS {item}" for item in r["cons"]]
    + [line for i, sentence in enumerate(r["sentences"])
       for line in [""] * (i > 0) + [f"{surface}\t{tag}" for surface, tag in sentence]])]
CONLL_MUTATIONS = ["tab dropped", "tab added", "empty surface", "blank surface", "unknown tag",
                   "0xff byte", "bare #REVIEW", "malformed #REVIEW", "item before #REVIEW",
                   "misspelled header", "duplicated line"]


def _mutate_conll(data, lines, kind):
    """(lines with one mutation of this kind, the number of the line that the
    parse rejects, or None if it accepts them). A 0xff byte is held as its
    surrogateescape, "\\udcff"."""
    lines = list(lines)

    def pick(test):
        return data.draw(st.sampled_from([i for i, line in enumerate(lines) if test(line)]))

    rejected = None
    if kind in ("tab dropped", "tab added", "empty surface", "blank surface", "unknown tag"):
        i = pick(lambda line: "\t" in line)
        surface, tag = lines[i].split("\t")
        if kind == "tab added":
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "\t" + lines[i][at:]
        elif kind == "unknown tag":
            lines[i] = surface + "\t" + data.draw(UNKNOWN_TAGS)
        else:
            lines[i] = {"tab dropped": surface, "empty surface": "",
                        "blank surface": data.draw(st.sampled_from([" ", "\u00a0"])) + "\t"
                        }[kind] + tag
        rejected = None if kind == "unknown tag" else i + 1
    elif kind == "0xff byte":
        i = pick(lambda line: True)
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + "\udcff" + lines[i][at:]
        rejected = i + 1
    elif kind in ("bare #REVIEW", "malformed #REVIEW"):
        i = pick(lambda line: line.startswith("#REVIEW"))
        lines[i] = "#REVIEW" if kind == "bare #REVIEW" else data.draw(st.sampled_from(
            [" ".join(lines[i].split()[:2]), lines[i] + " extra"]))
        rejected = i + 1
    elif kind == "misspelled header":
        i = pick(lambda line: line.startswith("#"))
        field, rest = lines[i].split(" ", 1) if " " in lines[i] else (lines[i], None)
        field = data.draw(st.sampled_from([field + "S", field + "E", field[:-1], field.lower()]))
        lines[i] = field if rest is None else f"{field} {rest}"
        rejected = i + 1
    elif kind == "item before #REVIEW":
        lines.insert(0, data.draw(st.sampled_from(["#PROS", "#CONS"])) + " an item")
        rejected = 1
    elif kind == "duplicated line":
        i = pick(lambda line: True)
        lines.insert(i, lines[i])
    elif kind == "gold items dropped":
        lines = [line for line in lines if not line.startswith(("#PROS", "#CONS"))]
    return lines, rejected


def _write_conll(tmp, lines):
    """(corpus, config) of lines as a CoNLL corpus in the directory tmp."""
    corpus = pathlib.Path(tmp) / "corpus.conll"
    corpus.write_bytes(b"".join(line.encode("utf-8", "surrogateescape") + b"\n"
                                for line in lines))
    return corpus, write_config(pathlib.Path(tmp), corpus, extra="corpus_format = conll\n")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_conll_line_exits_0_or_2_naming_it(data):
    lines, rejected = _mutate_conll(data, CONLL_LINES, data.draw(st.sampled_from(CONLL_MUTATIONS)))
    with tempfile.TemporaryDirectory() as tmp:
        corpus, config = _write_conll(tmp, lines)
        _assert_exit_0_or_2_naming(["--config", str(config), "preprocess"], rejected is None,
                                   f"{corpus}:{rejected}: ")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_conll_corpus_that_preprocess_accepts_runs_every_later_command(data):
    # one to three mutations that the parse accepts: a duplicated line gives
    # a review without sentences, an empty sentence or a repeated item, an
    # unknown tag a token of neither word channel, and without its gold items
    # the corpus has nothing to evaluate against
    lines = CONLL_LINES
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["duplicated line", "unknown tag", "gold items dropped"]))
        lines, _ = _mutate_conll(data, lines, kind)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, config = _write_conll(tmp, lines)
        for command in (["preprocess"], ["train", "--iters", "2"], ["extract"], ["summarize"],
                        ["evaluate"], ["topics"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", str(config), *command])
            if command == ["evaluate"] and not any(
                    p or c for p, c in corpus_mod.build_reference_summaries(
                        corpus_mod.ingest_tagged(corpus, "conll")).values()):
                assert (code, err.getvalue()) == (2, "data error: no gold pros/cons in the corpus\n")
                continue
            assert code == 0, (command, err.getvalue())


# -- one line of the config mutated ---------------------------------------------
#
# preprocess, which reads the whole config, exits 0 or exits 1 with one stderr
# line starting "config error:". If train --iters 2, which takes a MAP step,
# exits 0, summarize, evaluate and topics exit 0 on its checkpoint. The sizes
# (num_topics, total, burn_in, max_words, aw_top_x, sw_top_y, top_n) are
# small, and no drawn value parses as a large integer, so that no example
# allocates a large array. Paths are relative to the example's directory.

CONFIG_LINES = """[paths]
corpus = corpus.jsonl
corpus_format = jsonl
output_dir = out
checkpoint = out/checkpoint.json
[model]
alpha = 0.1
beta = 0.01
gamma = 0.1
sigma1_sq = 1.0
sigma2_sq = 1.0
num_topics = 2
mu_seed = 2.0
min_count = 2
[schedule]
burn_in = 1
interleave = 1
total = 2
[patterns]
preset = product
max_words = 7
[filters]
aw_top_x = 5
sw_top_y = 5
rank_keep_fraction = 0.5
[eval]
recall_threshold = 0.5
token_normalization = stemmed
[run]
procedure = AW+SEN+SW
rng_seed = 0
top_n = 3""".splitlines()
CONFIG_VALUES = ["0", "-1", "nan", "inf", "1e308", "1e-320", "", "naïve", "日本"]
CONFIG_MUTATIONS = ["value", "misspelled key", "duplicated key", "broken header"]


@st.composite
def mutated_configs(draw):
    """CONFIG_LINES with one line mutated."""
    kind = draw(st.sampled_from(CONFIG_MUTATIONS))
    lines = list(CONFIG_LINES)
    i = draw(st.sampled_from([i for i, line in enumerate(lines)
                              if line.startswith("[") == (kind == "broken header")]))
    if kind == "broken header":
        name = lines[i][1:-1]
        lines[i] = draw(st.sampled_from([f"[{name}", f"{name}]", f"[{name}s]", "[]",
                                         f"[{name.upper()}]"]))
    elif kind == "duplicated key":
        lines.insert(i, lines[i])
    else:
        key, value = lines[i].split(" = ")
        if kind == "value":
            value = draw(st.sampled_from(CONFIG_VALUES))
        else:
            key = draw(st.sampled_from([key + "s", key[:-1], key.replace("_", "-")]))
        lines[i] = f"{key} = {value}"
    return lines


def _config_with(line):
    """CONFIG_LINES with the line of the key of line replaced by it."""
    key = line.split(" = ")[0]
    return [line if old.split(" = ")[0] == key else old for old in CONFIG_LINES]


def _main_in(directory, argv):
    """(exit code, stderr) of main(argv) run in directory."""
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")   # an overflow in the sampler, say
            return main(argv), err.getvalue()
    finally:
        os.chdir(cwd)


# found by this property: an empty corpus path exited 2, and train wrote a
# checkpoint with a word probability that overflowed, which the later
# commands rejected with exit 2
@example(lines=_config_with("corpus = "))
@example(lines=_config_with("mu_seed = 1e308"))
@example(lines=_config_with("beta = 1e308"))
@settings(max_examples=40, deadline=None)
@given(lines=mutated_configs())
def test_a_mutated_config_line_exits_0_or_1_and_a_trained_config_runs_on(lines):
    with tempfile.TemporaryDirectory() as tmp:
        (pathlib.Path(tmp) / "corpus.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in RECORDS), encoding="utf-8")
        (pathlib.Path(tmp) / "config.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, err = _main_in(tmp, ["--config", "config.ini", "preprocess"])
        assert code in (0, 1), err
        if code == 1:
            [line] = err.splitlines()
            assert line.startswith("config error: ")
            return
        if _main_in(tmp, ["--config", "config.ini", "train", "--iters", "2"])[0] == 0:
            for command in ("summarize", "evaluate", "topics"):
                code, err = _main_in(tmp, ["--config", "config.ini", command])
                assert code == 0, (command, err)


# -- one value of a checkpoint mutated -----------------------------------------
#
# topics and summarize either exit 0 or exit 2 with one stderr line naming the
# checkpoint's path and the mutated key; never exit 1 or a traceback. Exit 0
# must write the unmutated checkpoint's output, unless the mutation left the
# value in its documented domain (a finite number where reals are, a whole
# number >= 0 where counts are), which the model may read differently.

CHECKPOINT_VALUES = [math.nan, math.inf, -math.inf, -1, 0.5, 1e308, 2 ** 70, True, "1", None,
                     [], {}]
REAL_HYPERPARAMS = ("alpha", "beta", "gamma", "sigma1_sq", "sigma2_sq", "mu_seed")


@pytest.fixture(scope="module")
def checkpoint_runs(tmp_path_factory):
    """A small corpus, a checkpoint trained on it through a MAP step, and the
    outputs of topics and summarize on it."""
    tmp_path = tmp_path_factory.mktemp("mutated_checkpoint")
    corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=3)
    assert main(["--config", str(write_config(tmp_path, corpus)),
                 "train", "--iters", "12"]) == 0
    payload = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    runs = {command: _checkpoint_run(tmp_path, corpus, payload, command)
            for command in ("topics", "summarize")}
    assert all(code == 0 for code, *_ in runs.values())
    return corpus, payload, runs


def _checkpoint_run(tmp_path, corpus, payload, command):
    """(exit code, stdout, stderr, summaries.json or None) of command on the
    checkpoint payload written into tmp_path."""
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    config = write_config(tmp_path, corpus, extra=f"checkpoint = {checkpoint}\n",
                          name="mutated.ini")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["--config", str(config), command])
    summaries = tmp_path / "out" / "summaries.json"
    return code, out.getvalue(), err.getvalue(), (
        summaries.read_bytes() if summaries.exists() else None)


def _mutate_checkpoint(data, payload):
    """Mutate one value inside one key of payload: a scalar set to one of
    CHECKPOINT_VALUES, a list one entry shorter or longer, or a dict with one
    key removed or added. Returns (the key, whether the value stayed in its
    domain)."""
    key = data.draw(st.sampled_from(sorted(payload)))
    parent, name, node = payload, key, payload[key]
    while isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
        parent, name = node, data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[name]
    if isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
        shorter = data.draw(st.booleans())
        if isinstance(node, dict) and shorter:
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif isinstance(node, dict):
            node["extra"] = 1
        elif shorter:
            node.pop()
        else:
            node.append(node[-1])
        return key, False
    value = data.draw(st.sampled_from(CHECKPOINT_VALUES))
    parent[name] = value
    number = type(value) in (int, float) and math.isfinite(value)
    in_domain = number and (key in ("y_topic", "y_senti") or name in REAL_HYPERPARAMS
                            or (key.startswith("n_") and value >= 0 and value == int(value)))
    return key, in_domain


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_checkpoint_value_exits_0_or_2_naming_its_key(checkpoint_runs, data):
    corpus, payload, unmutated = checkpoint_runs
    payload = json.loads(json.dumps(payload))
    key, in_domain = _mutate_checkpoint(data, payload)
    with tempfile.TemporaryDirectory() as tmp:
        for command, expected in unmutated.items():
            code, out, err, summaries = _checkpoint_run(pathlib.Path(tmp), corpus, payload,
                                                        command)
            assert "Traceback" not in err and code in (0, 2), err
            if code == 2:
                [line] = err.strip().splitlines()
                assert f"checkpoint {pathlib.Path(tmp) / 'checkpoint.json'}: " in line
                assert repr(key) in line, line
            elif not in_domain:
                assert (out, summaries) == (expected[1], expected[3])


class TestPipelineFlow:
    def test_full_flow(self, workspace, capsys):
        tmp_path, config = workspace
        out = tmp_path / "out"

        assert main(["--config", str(config), "preprocess"]) == 0
        assert (out / "vocab.json").exists()
        refs = json.loads((out / "references.json").read_text())
        assert refs and all(set(v) == {"pros", "cons"} for v in refs.values())
        stats = json.loads((out / "preprocess_stats.json").read_text())
        assert stats["reviews"] == 32

        assert main(["--config", str(config), "train"]) == 0
        assert (out / "checkpoint.json").exists()
        topics = json.loads((out / "topics.json").read_text())
        assert topics["num_topics"] == 3
        assert (out / "topics.txt").read_text().startswith("topic")

        assert main(["--config", str(config), "extract"]) == 0
        lines = (out / "segments.jsonl").read_text().splitlines()
        assert lines
        seg = json.loads(lines[0])
        assert {"text", "pattern_id", "entity_id", "negated"} <= set(seg)

        assert main(["--config", str(config), "summarize", "--top-n", "5"]) == 0
        summaries = json.loads((out / "summaries.json").read_text())
        assert set(summaries) == {f"entity{i}" for i in range(4)}
        for entry in summaries.values():
            assert len(entry["positive"]) <= 5 and len(entry["negative"]) <= 5

        assert main(["--config", str(config), "evaluate"]) == 0
        report_path = out / "report_AW_SEN_SW.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert set(report) == {"pros", "cons", "skipped_entities"}
        for side in ("pros", "cons"):
            corpus_block = report[side]["corpus"]
            for key in ("P_s", "R_s", "P_e", "R_e", "P", "R"):
                assert 0.0 <= corpus_block[key] <= 1.0
        table = capsys.readouterr().out
        assert "AW+SEN+SW" in table

        assert main(["--config", str(config), "topics"]) == 0

    @pytest.mark.parametrize("top_n", [0, 2])
    def test_topics_top_n(self, workspace, capsys, top_n):
        tmp_path, config = workspace
        vocab = json.loads((tmp_path / "out" / "checkpoint.json").read_text())["vocabulary"]
        capsys.readouterr()
        assert main(["--config", str(config), "topics", "--top-n", str(top_n)]) == 0
        rows = [re.split(" {2,}", line) for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 3
        for _, aspect, positive, negative in rows:
            assert len(aspect.split(", ")) == (top_n or len(vocab["aspect_stems"]))
            for words in (positive, negative):
                assert len(words.split(", ")) == (top_n or len(vocab["senti_stems"]))

    def test_swn_procedure_writes_its_own_report(self, workspace):
        tmp_path, config = workspace
        code = main(["--config", str(config), "--procedure", "Baseline+SWN",
                     "evaluate"])
        assert code == 0
        assert (tmp_path / "out" / "report_Baseline_SWN.json").exists()

    def test_pattern_override_in_report_name(self, workspace):
        tmp_path, config = workspace
        code = main(["--config", str(config), "evaluate", "--patterns", "3,5"])
        assert code == 0
        assert (tmp_path / "out" / "report_AW_SEN_SW_patterns_3-5.json").exists()

    def test_one_report_name_per_pattern_set(self, workspace):
        tmp_path, config = workspace
        for spelling in ("3,1", "1, 3", "1,,3", "1,3", "service"):
            assert main(["--config", str(config), "evaluate", "--patterns", spelling]) == 0
        assert sorted(p.name for p in (tmp_path / "out").glob("report_*_patterns_[1s]*")) == [
            f"report_AW_SEN_SW_patterns_{name}{ext}" for name in ("1-3", "service")
            for ext in (".json", ".txt")]

    def test_summarize_single_entity(self, workspace):
        tmp_path, config = workspace
        assert main(["--config", str(config), "summarize",
                     "--entity", "entity0"]) == 0
        summaries = json.loads((tmp_path / "out" / "summaries.json").read_text())
        assert set(summaries) == {"entity0"}

    def test_summarize_unknown_entity_is_two(self, workspace):
        _, config = workspace
        assert main(["--config", str(config), "summarize",
                     "--entity", "ghost"]) == 2


def test_summaries_list_each_polarity_by_descending_rank(tmp_path):
    corpus = write_corpus(tmp_path, num_entities=3, reviews_per_entity=6)
    config = write_config(tmp_path, corpus)
    procedure = "Baseline+SEN+RANK"
    assert main(["--config", str(config), "train", "--iters", "5"]) == 0
    assert main(["--config", str(config), "--procedure", procedure, "summarize"]) == 0
    summaries = json.loads((tmp_path / "out" / "summaries.json").read_text())

    cfg = load_config(config)
    corp = corpus_mod.ingest_tagged(corpus)
    state = model.load_checkpoint(cfg.checkpoint_path, corp)
    est = model.estimate(state)
    labeled, _ = classify.label_aspects(patterns.extract_corpus(
        corp, patterns.resolve_pattern_ids(cfg.pattern_spec), max_words=cfg.max_words),
        est, state.vocab)
    tables = filters.run_procedure(procedure, labeled, est, y_senti=state.y_senti,
                                   config=cfg.filters)
    review_index = {review.id: i for i, review in enumerate(corp.reviews)}
    assert list(summaries) == sorted({review.entity_id for review in corp.reviews})
    ties = 0
    for polarity, table in zip(("positive", "negative"), tables):
        segs = oracles.table_segments(table)
        for seg in segs:
            seg.ids = oracles.segment_ids(seg, state.vocab)
            assert seg.rank == oracles.rank_score(seg, est)
        for entity_id, entry in summaries.items():
            ordered = sorted((seg for seg in segs if seg.entity_id == entity_id),
                             key=lambda seg: (-seg.rank, review_index[seg.review_id],
                                              seg.sentence_index, seg.start))
            entries = entry[polarity]
            assert entries == [seg.to_dict() for seg in ordered]
            assert not any("rank" in entry for entry in entries)
            ties += sum(a.rank == b.rank for a, b in zip(ordered, ordered[1:]))
    assert ties


class TestDeterminism:
    def _train_digest(self, tmp_path, name, seed):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        sub = tmp_path / name
        sub.mkdir()
        config = sub / "config.ini"
        config.write_text(
            f"[paths]\ncorpus = {corpus}\noutput_dir = {sub / 'out'}\n"
            f"[model]\nnum_topics = 2\nmin_count = 2\n"
            f"[schedule]\nburn_in = 5\ninterleave = 5\ntotal = 15\n")
        assert main(["--config", str(config), "--seed", str(seed), "train"]) == 0
        payload = (sub / "out" / "checkpoint.json").read_bytes()
        return hashlib.sha256(payload).hexdigest()

    def test_same_seed_same_checkpoint(self, tmp_path):
        a = self._train_digest(tmp_path, "a", 7)
        b = self._train_digest(tmp_path, "b", 7)
        assert a == b

    def test_different_seed_different_checkpoint(self, tmp_path):
        a = self._train_digest(tmp_path, "c", 7)
        b = self._train_digest(tmp_path, "d", 8)
        assert a != b


class TestResume:
    def test_resume_reaches_total(self, tmp_path):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--iters", "10"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        assert json.loads(ckpt.read_text())["sweep_index"] == 10
        assert main(["--config", str(config), "train", "--resume"]) == 0
        assert json.loads(ckpt.read_text())["sweep_index"] == 30

    def test_resume_without_checkpoint_is_two(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--resume", "--iters", "1"]) == 2
        assert "no checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    @pytest.mark.parametrize("setting,changed", [
        ("num_topics = 3", "num_topics = 5"),
        ("min_count = 2", "min_count = 3"),
    ])
    def test_resume_against_contradicting_config_is_two(self, tmp_path, capsys,
                                                        setting, changed):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--iters", "10"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        before = ckpt.read_bytes()
        other = tmp_path / "other.ini"
        other.write_text(config.read_text().replace(setting, changed))
        capsys.readouterr()
        assert main(["--config", str(other), "train", "--resume"]) == 2
        assert "contradicts" in capsys.readouterr().err
        assert ckpt.read_bytes() == before

    def test_resume_error_of_a_real_process_is_its_last_stderr_line(self, tmp_path):
        # In its own process cli.main logs to stderr, so the warnings of
        # seed_smoothers (default seed words missing from this vocabulary)
        # come before the one error line. Under pytest they are captured.
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        config = write_config(tmp_path, corpus)
        assert main(["--config", str(config), "train", "--iters", "1"]) == 0
        other = tmp_path / "other.ini"
        other.write_text(config.read_text().replace("num_topics = 3", "num_topics = 4"))
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "segsum.cli", "--config", str(other),
                                 "train", "--resume"],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        *before, last = result.stderr.strip().splitlines()
        assert last.startswith("data error: ") and "num_topics = 4" in last
        assert before and all(line.startswith("WARNING ") for line in before)

    def test_resume_against_swapped_seeds_is_two(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("positive\tgood\nnegative\tbad\n")
        config = write_config(tmp_path, corpus, extra=f"seeds = {seeds}\n")
        assert main(["--config", str(config), "train", "--iters", "2"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.json"
        before = ckpt.read_bytes()
        seeds.write_text("positive\tbad\nnegative\tgood\n")
        capsys.readouterr()
        assert main(["--config", str(config), "train", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "contradicts" in err and "bad, good" in err
        assert len(err.strip().splitlines()) == 1
        assert ckpt.read_bytes() == before

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
        (tmp_path / "split").mkdir()
        (tmp_path / "whole").mkdir()
        split = write_config(tmp_path / "split", corpus)
        whole = write_config(tmp_path / "whole", corpus)
        assert main(["--config", str(split), "train", "--iters", "10"]) == 0
        assert main(["--config", str(split), "train", "--resume"]) == 0
        assert main(["--config", str(whole), "train"]) == 0
        assert ((tmp_path / "split" / "out" / "checkpoint.json").read_bytes()
                == (tmp_path / "whole" / "out" / "checkpoint.json").read_bytes())


def test_summarize_entity_writes_the_full_runs_entry(tmp_path):
    # each entity's reviews scattered through the corpus file
    reviews = generate_text_reviews(num_entities=3, reviews_per_entity=5, rng_seed=4)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in reviews[::2] + reviews[1::2]))
    config = write_config(tmp_path, corpus)
    summaries = tmp_path / "out" / "summaries.json"
    assert main(["--config", str(config), "train", "--iters", "5"]) == 0
    assert main(["--config", str(config), "summarize"]) == 0
    full = json.loads(summaries.read_text())
    assert len(full) == 3
    for entity_id, entry in full.items():
        assert main(["--config", str(config), "summarize", "--entity", entity_id]) == 0
        assert summaries.read_text() == json.dumps({entity_id: entry}, indent=2)


def test_an_entity_without_segments_gets_an_empty_entry(tmp_path):
    # the only review of "quiet" matches no pattern
    reviews = generate_text_reviews(num_entities=3, reviews_per_entity=5, rng_seed=4)
    reviews.append({"id": "quiet-r0", "entity_id": "quiet",
                    "sentences": [[["the", "DT"], ["menu", "NN"]]],
                    "pros": ["good food"], "cons": ["slow service"]})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in reviews))
    config = write_config(tmp_path, corpus)
    summaries = tmp_path / "out" / "summaries.json"
    assert main(["--config", str(config), "train", "--iters", "5"]) == 0
    assert main(["--config", str(config), "summarize"]) == 0
    full = json.loads(summaries.read_text())
    assert list(full) == ["entity0", "entity1", "entity2", "quiet"]
    assert full["quiet"] == {"positive": [], "negative": []}
    assert main(["--config", str(config), "summarize", "--entity", "quiet"]) == 0
    assert summaries.read_text() == json.dumps({"quiet": full["quiet"]}, indent=2)
    assert main(["--config", str(config), "evaluate"]) == 0
    report = json.loads((tmp_path / "out" / "report_AW_SEN_SW.json").read_text())
    for side in ("pros", "cons"):
        assert report[side]["entities"]["quiet"]["num_candidates"] == 0
        assert (report[side]["corpus"]["num_entities"]
                == 4 - len(report[side]["excluded_no_reference"]))
    assert report["skipped_entities"] == []


# sha256 of each JSON output of preprocess, train (no MAP step), summarize and
# evaluate on a small fixed corpus, as the program wrote them before its
# corpus became arrays over one token table and its JSON writer streamed
# pieces from the C encoder: the whole read path and the writer must keep
# every byte. The vocabulary and what is trained from it are those of the
# stemmed default stopwords ("they" drops) and of the chain whose initial
# sentiments the seed words anchor
PINNED_OUTPUTS = {
    "checkpoint.json": "56795d7da5535bed5d2acbb2b6fd5907412f2c7fdaf1712b45e7807f667eecd7",
    "preprocess_stats.json": "2f7fe83b3a3761ee2eb27b83233632f8e88c308c07d133e432083ff0329cd87c",
    "references.json": "6b9f96d43b11b0f3def3ba24a7e90df319be73f439215cc2aff6ce79134831cb",
    "report_AW_SEN_SW.json": "6e619dafb32d18d710e1045128dc65b91986bc592b68d1cac9085e654f85d513",
    "summaries.json": "24117c1c5f38af836b55ad3a23b16830777a08cceb7d8b2735cc825545a39c11",
    "topics.json": "920894613f817dfff45319412c384f5a6b6f660b32c17b2300c44ada413227a6",
    "vocab.json": "fe508a872b581e2e11d9c274cdac24659d89a1e550268cb337d35dc40e488daa",
}


def test_json_outputs_are_pinned(tmp_path):
    corpus = write_corpus(tmp_path, num_entities=5, reviews_per_entity=8, rng_seed=3)
    config = write_config(tmp_path, corpus)
    for argv in (["preprocess"], ["train", "--iters", "10"], ["summarize"], ["evaluate"]):
        assert main(["--config", str(config)] + argv) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "out").glob("*.json"))} == PINNED_OUTPUTS


# sha256 of the checkpoint and the topic report after a train whose schedule
# takes MAP steps at sweeps 4 and 6, as the program wrote them while its MAP
# objective took gammaln and psi over every cell of n_STW: the smoothers
# that L-BFGS-B returns, and what is estimated from them, keep every bit
PINNED_MAP_OUTPUTS = {
    "checkpoint.json": "3c26252302a5c2868f006c12af4f9b32f5f36e7426616fc24e1bdcd0156a07df",
    "topics.json": "26140293a1f838b91602d4c158f0f3a43399fdec215a96d761c21933a1a5b15b",
}


def test_outputs_after_map_steps_are_pinned(tmp_path):
    corpus = write_corpus(tmp_path, num_entities=5, reviews_per_entity=8, rng_seed=3)
    config = write_config(tmp_path, corpus)
    config.write_text(config.read_text().replace(
        "burn_in = 10\ninterleave = 10\ntotal = 30\n", "burn_in = 2\ninterleave = 2\ntotal = 6\n"))
    assert main(["--config", str(config), "train"]) == 0
    checkpoint = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    assert checkpoint["sweep_index"] == 6 and any(map(any, checkpoint["y_topic"]))
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in PINNED_MAP_OUTPUTS} == PINNED_MAP_OUTPUTS


def test_dump_json_writes_a_summary_in_pieces():
    entry = {"positive": [{"text": "good food", "polarity": 1.5}], "negative": []}
    payload = {"e1": entry, "e2": entry}
    pieces = []
    dump_json(payload, pieces.append)
    assert len(pieces) > 1
    assert "".join(pieces) == json.dumps(payload, indent=2)


JSON_KEYS = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(),
                      st.none())
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),   # NaN, +-inf and -0.0 too
    st.text(max_size=6),
    st.sampled_from(["},\n  {", "},\n    {", '"', "\\", "é ü", "\x00\x1f\n\t", " "]))
FLAT_DICTS = st.dictionaries(JSON_KEYS, JSON_SCALARS, min_size=1, max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(FLAT_DICTS, max_size=3)
                   | st.dictionaries(JSON_KEYS, inner, max_size=4)
                   | st.lists(st.one_of(FLAT_DICTS, st.just({}), st.just([]), inner),
                              max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_dump_json_writes_what_json_dump_writes(payload):
    pieces = []
    dump_json(payload, pieces.append)
    assert "".join(pieces) == json.dumps(payload, indent=2)


def write_negated_corpus(tmp_path):
    """write_corpus's reviews with a negation trigger, a rare adverb or a rare
    noun put into some opinion sentences: the triggers give negated segments,
    and min_count drops the rare stems from the vocabulary, also from within
    a segment."""
    path = tmp_path / "corpus.jsonl"
    reviews = generate_text_reviews(num_entities=4, reviews_per_entity=8, rng_seed=5)
    with open(path, "w") as fh:
        for i, review in enumerate(reviews):
            for j, sentence in enumerate(review["sentences"]):
                tags = [tag for _, tag in sentence]
                if "JJ" not in tags:
                    continue
                if (i + j) % 3 == 0:
                    sentence.insert(tags.index("JJ"), ("not", "RB"))
                elif (i + j) % 3 == 1:
                    sentence.insert(tags.index("JJ"), (f"odd{i}x{j}ly", "RB"))
                elif "NN" in tags:
                    sentence.insert(tags.index("NN"), (f"thing{i}x{j}", "NN"))
            fh.write(json.dumps(review) + "\n")
    return path


# sha256 of the outputs that PINNED_OUTPUTS leaves out, on a corpus with
# negated segments and out-of-vocabulary stems, as the program wrote them
# before extraction, labelling and filtering became arrays over the token
# table, the summaries and the SWN report as trained since the seed words
# anchor the initial sentiments and the default stopwords are stems ("they"
# drops): (command, output file) -> sha256
PINNED_OTHER_OUTPUTS = {
    ("extract", "segments.jsonl"):
        "623239e04e33fa0d88107d96078b15065fb25dc315937a6870a516cfd40ad18d",
    ("summarize --entity entity1 --top-n 2", "summaries.json"):
        "24de538319399f66d69c2394b9ed4af5d24bf6461035b60f19af79dcc2b688c4",
    ("--procedure AW+SWN+SW+RANK summarize", "summaries.json"):
        "e5606618c38705874326d5f390068867067825468dedc9536720f14568477630",
    ("--procedure AW+SWN+SW+RANK evaluate", "report_AW_SWN_SW_RANK.json"):
        "0ee068b7958184cf7b993372dac9c8a70d3a90eaa0566501af3dc8a16e1d1a54",
}


def test_other_outputs_are_pinned(tmp_path):
    corpus = write_negated_corpus(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    # a -0 score, and a score for a sentiment stem outside the vocabulary
    lexicon.write_text("".join(f"{w}\t{s}\n" for w, s in sorted(text_polarity_lexicon().items()))
                       + "not\t-0\nodd1x0li\t2.5\n")
    config = write_config(tmp_path, corpus, extra=f"lexicon = {lexicon}\n")
    for argv in (["preprocess"], ["train", "--iters", "10"]):
        assert main(["--config", str(config)] + argv) == 0
    got = {}
    for command, name in PINNED_OTHER_OUTPUTS:
        assert main(["--config", str(config)] + command.split()) == 0
        got[command, name] = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert got == PINNED_OTHER_OUTPUTS


def write_plural_corpus(tmp_path):
    """write_corpus's reviews with the nouns of every other sentence in the
    plural, tagged NNS: "foods" stems to "food", the word of the references,
    so stemmed and surface_lower evaluation score them apart."""
    path = tmp_path / "corpus.jsonl"
    reviews = generate_text_reviews(num_entities=4, reviews_per_entity=8, rng_seed=5)
    with open(path, "w") as fh:
        for i, review in enumerate(reviews):
            for j, sentence in enumerate(review["sentences"]):
                if (i + j) % 2 == 0:
                    review["sentences"][j] = [(w + "s", "NNS") if tag == "NN" else (w, tag)
                                              for w, tag in sentence]
            fh.write(json.dumps(review) + "\n")
    return path


# sha256 of evaluate's report under each [eval] token_normalization, on
# write_plural_corpus, as the program wrote it when it normalised each
# candidate Segment's own tokens
PINNED_NORMALIZATION_REPORTS = {
    "stemmed": "a18b2aac6fd35b04f9a666887353795c490e19c5a13460be334f3cc3a8f59729",
    "surface_lower": "65c2941bba05072334e760f40a57b44e12ccd2d454d6cb753cfbc2115f95a5f9",
}


def test_reports_of_each_normalization_are_pinned(tmp_path):
    corpus = write_plural_corpus(tmp_path)
    got = {}
    for mode in PINNED_NORMALIZATION_REPORTS:
        config = write_config(tmp_path, corpus, name=f"{mode}.ini",
                              extra=f"[eval]\ntoken_normalization = {mode}\n")
        for argv in (["train", "--iters", "10"], ["evaluate"]):
            assert main(["--config", str(config)] + argv) == 0
        got[mode] = hashlib.sha256(
            (tmp_path / "out" / "report_AW_SEN_SW.json").read_bytes()).hexdigest()
    assert got == PINNED_NORMALIZATION_REPORTS


# -- parse once: a command that parses leaves the columns for the next -------

def write_columns_corpus(tmp_path):
    """write_corpus's reviews and one more with an unknown tag and non-ASCII
    pros, so that the ingest warns."""
    path = write_corpus(tmp_path, num_entities=3, reviews_per_entity=6, rng_seed=4)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": 99, "entity_id": "entity1", "pros": ["très bon"], "cons": [],
                             "sentences": [[["zork", "XYZ"], ["food", "NN"], ["good", "JJ"]]]})
                 + "\n")
    return path


def _run(config, argv, capsys, caplog):
    """(exit code, stdout, stderr and the log's messages, the bytes of every
    file in the output directory but the corpus and segment columns) of one
    command."""
    capsys.readouterr()
    caplog.clear()
    code = main(["--config", str(config), *argv])
    captured = capsys.readouterr()
    out = pathlib.Path(load_config(config).paths.output_dir)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.name not in (corpus_mod.COLUMNS_FILE, patterns.SEGMENTS_FILE)}
    return code, captured.out, captured.err, [r.getMessage() for r in caplog.records], files


@pytest.fixture
def parses(monkeypatch):
    """A list that gets one entry per parse of a JSONL corpus from now on."""
    calls = []
    parse = corpus_mod._ingest_jsonl
    monkeypatch.setattr(corpus_mod, "_ingest_jsonl",
                        lambda *args: calls.append(args) or parse(*args))
    return calls


def test_preprocess_leaves_the_columns_and_no_temporary_file(tmp_path):
    config = write_config(tmp_path, write_columns_corpus(tmp_path))
    assert main(["--config", str(config), "preprocess"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        corpus_mod.COLUMNS_FILE, "preprocess_stats.json", "references.json", "vocab.json"]


def test_a_second_preprocess_leaves_the_columns_as_they_are(tmp_path, monkeypatch, parses):
    corpus = write_columns_corpus(tmp_path)
    config = write_config(tmp_path, corpus)
    columns = tmp_path / "out" / corpus_mod.COLUMNS_FILE
    assert main(["--config", str(config), "preprocess"]) == 0
    before = columns.stat()
    keys = []
    key = corpus_mod.content_key
    monkeypatch.setattr(corpus_mod, "content_key", lambda *args: keys.append(args) or key(*args))
    assert main(["--config", str(config), "preprocess"]) == 0
    after = columns.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert len(keys) == 1   # the corpus is hashed once, to load the file
    # an edited corpus is written again, under its new key
    _edit_third_record(corpus, lambda r: r.__setitem__("pros", ["edited"]))
    assert main(["--config", str(config), "preprocess"]) == 0
    after = columns.stat()
    assert (after.st_ino, after.st_mtime_ns) != (before.st_ino, before.st_mtime_ns)
    del parses[:]
    corpus_mod.ingest_tagged(corpus, output_dir=tmp_path / "out")
    assert parses == []


def half_writes(name):
    """An open whose files named name.* write the first half of their first
    write, then raise OSError."""
    def open_(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if os.path.basename(file).startswith(name + ".") and "w" in mode:
            write = fh.write

            def half(data):
                write(data[:len(data) // 2 + 1])
                raise OSError("disk full")
            fh.write = half
        return fh
    return open_


# the outputs besides the checkpoint (test_model's test_failed_write_keeps_previous_checkpoint)
OUTPUTS = [("corpus.npz", ["preprocess"]), ("topics.txt", ["train", "--iters", "2"]),
           ("segments.npz", ["extract"]), ("segments.jsonl", ["extract"]),
           ("summaries.json", ["summarize"]), ("report_AW_SEN_SW.txt", ["evaluate"])]


@pytest.mark.parametrize("name, argv", OUTPUTS, ids=[name for name, _ in OUTPUTS])
def test_a_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys, name, argv):
    corpus = write_corpus(tmp_path, num_entities=2, reviews_per_entity=4)
    config = write_config(tmp_path, corpus)
    for command in (["preprocess"], ["train", "--iters", "2"], ["extract"], ["summarize"],
                    ["evaluate"]):
        assert main(["--config", str(config), *command]) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # a blank line: the corpus parses the same under another key, so that
    # preprocess writes its columns again, and extract its segments
    with open(corpus, "a") as fh:
        fh.write("\n")
    monkeypatch.setattr(corpus_mod, "open", half_writes(name), raising=False)
    capsys.readouterr()
    assert main(["--config", str(config), *argv]) == 2
    assert capsys.readouterr().err == "data error: disk full\n"
    assert (out / name).read_bytes() == before[name]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


def test_a_checkpoint_in_a_missing_directory_is_created(tmp_path):
    checkpoint = tmp_path / "models" / "run1" / "checkpoint.json"
    config = write_config(tmp_path, write_corpus(tmp_path, num_entities=2, reviews_per_entity=4),
                          extra=f"checkpoint = {checkpoint}\n")
    assert main(["--config", str(config), "train", "--iters", "2"]) == 0
    assert model.load_checkpoint(checkpoint).sweep_index == 2
    assert main(["--config", str(config), "summarize"]) == 0


# a smoother that exp overflows, or a beta that overflows a topic's total,
# gives a word probability of 0 or NaN, which every later command rejects:
# train refuses to write such a checkpoint and keeps the one before
@pytest.mark.parametrize("setting, keys", [
    ("mu_seed = 800", "'n_STW', 'y_topic' and 'y_senti'"),
    ("beta = 1e308", "'n_TW' and 'hyperparams' beta"),
], ids=["mu_seed", "beta"])
def test_train_writes_no_checkpoint_that_a_later_command_rejects(tmp_path, capsys, setting,
                                                                  keys):
    config = write_config(tmp_path, write_corpus(tmp_path, num_entities=2, reviews_per_entity=4))
    assert main(["--config", str(config), "train"]) == 0
    checkpoint = tmp_path / "out" / "checkpoint.json"
    before = checkpoint.read_bytes()
    config.write_text(config.read_text().replace("[model]\n", f"[model]\n{setting}\n"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(config), "train"]) == 2
    assert capsys.readouterr().err == (f"data error: checkpoint {checkpoint}: a word probability "
                                       f"is 0 or not finite under {keys}\n")
    assert checkpoint.read_bytes() == before
    for command in ("summarize", "topics"):
        assert main(["--config", str(config), command]) == 0


@pytest.mark.parametrize("columns_before", [False, True], ids=["fresh", "after-preprocess"])
def test_a_corpus_that_fails_to_parse_writes_no_columns(tmp_path, capsys, columns_before):
    corpus = write_columns_corpus(tmp_path)
    config = write_config(tmp_path, corpus)
    columns = tmp_path / "out" / corpus_mod.COLUMNS_FILE
    if columns_before:
        assert main(["--config", str(config), "preprocess"]) == 0
        before = columns.read_bytes()
    _edit_third_record(corpus, lambda r: r.__setitem__("pros", "abc"))
    capsys.readouterr()
    assert main(["--config", str(config), "preprocess"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {corpus}:3: bad review record: pros and cons must be lists of strings\n")
    if columns_before:
        # the file of the preprocess before stays as it was
        assert columns.read_bytes() == before
    else:
        assert not columns.exists()
    assert [p.name for p in (tmp_path / "out").glob("*.tmp")] == []


# A lone surrogate passed the parse and failed the first UTF-8 write: topics.txt
# for a surface, the entity line that summarize prints for an entity_id, each
# with a message that named no file. An empty surface made the stem "" a word
# of the vocabulary. The parse rejects both, naming the record's line
@pytest.mark.parametrize("edit,error", [
    (lambda r: r["sentences"][0].append(["bad\ud800", "NN"]),
     "token surface or tag 'bad\\ud800' holds a lone surrogate, which UTF-8 cannot encode"),
    (lambda r: r.__setitem__("entity_id", "entity\udc00"),
     "id or entity_id 'entity\\udc00' holds a lone surrogate, which UTF-8 cannot encode"),
    (lambda r: r["sentences"][0].insert(0, ["", "NN"]), "token ['', 'NN'] has an empty surface"),
    (lambda r: r["sentences"][0].insert(0, [" ", "NN"]), "token [' ', 'NN'] has an empty surface"),
], ids=["surrogate surface", "surrogate entity_id", "empty surface", "blank surface"])
@pytest.mark.parametrize("command", ["preprocess", "train", "summarize"])
def test_a_string_no_command_can_use_fails_the_parse(tmp_path, capsys, edit, error, command):
    corpus = write_corpus(tmp_path, num_entities=3, reviews_per_entity=6, rng_seed=4)
    config = write_config(tmp_path, corpus)
    config.write_text(config.read_text().replace("min_count = 2", "min_count = 1")
                      .replace("total = 30", "total = 2"))
    _edit_third_record(corpus, edit)
    capsys.readouterr()
    assert main(["--config", str(config), command]) == 2
    assert capsys.readouterr().err == f"data error: {corpus}:3: bad review record: {error}\n"


def test_a_preprocess_that_fails_after_its_parse_leaves_the_columns(tmp_path, capsys, parses):
    corpus = write_columns_corpus(tmp_path)
    config = write_config(tmp_path, corpus)
    text = config.read_text()
    # above every stem's count
    config.write_text(text.replace("min_count = 2", "min_count = 1000"))
    assert main(["--config", str(config), "preprocess"]) == 2
    assert capsys.readouterr().err == "data error: vocabulary is empty after filtering\n"
    assert len(parses) == 1
    assert [p.name for p in (tmp_path / "out").iterdir()] == [corpus_mod.COLUMNS_FILE]
    # min_count is not a part of the key: the next preprocess loads the file
    config.write_text(text)
    del parses[:]
    assert main(["--config", str(config), "preprocess"]) == 0
    assert parses == []


def test_train_alone_leaves_the_columns_for_the_next_train(tmp_path, parses):
    corpus = write_columns_corpus(tmp_path)
    config = write_config(tmp_path, corpus)
    out = tmp_path / "out"
    assert main(["--config", str(config), "train", "--iters", "5"]) == 0
    assert len(parses) == 1
    del parses[:]
    corpus_mod.ingest_tagged(corpus, output_dir=out)
    assert parses == []
    checkpoint = (out / "checkpoint.json").read_bytes()
    assert main(["--config", str(config), "train", "--iters", "5"]) == 0
    assert parses == []
    assert (out / "checkpoint.json").read_bytes() == checkpoint


def test_a_failed_rename_names_the_output_not_its_temporary_file(tmp_path, capsys):
    config = write_config(tmp_path, write_corpus(tmp_path, num_entities=2, reviews_per_entity=4))
    assert main(["--config", str(config), "train", "--iters", "2"]) == 0
    summaries = tmp_path / "out" / "summaries.json"
    summaries.mkdir()
    capsys.readouterr()
    assert main(["--config", str(config), "summarize"]) == 2
    assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{summaries}'\n"
    assert [p.name for p in (tmp_path / "out").glob("*.tmp")] == []


COLUMN_COMMANDS = (["train", "--iters", "5"], ["extract"], ["summarize"],
                   ["summarize", "--entity", "entity1", "--top-n", "2"], ["evaluate"],
                   ["--procedure", "AW+SWN+SW+RANK", "evaluate"],
                   ["summarize", "--entity", "ghost"])


def test_commands_write_the_same_with_the_columns_as_without(tmp_path, capsys, caplog,
                                                            parses, extractions):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(f"{w}\t{s}\n" for w, s in sorted(text_polarity_lexicon().items())))
    config = write_config(tmp_path, write_columns_corpus(tmp_path),
                          extra=f"lexicon = {lexicon}\n")
    columns = tmp_path / "out" / corpus_mod.COLUMNS_FILE
    segments = tmp_path / "out" / patterns.SEGMENTS_FILE
    caplog.set_level(logging.WARNING)
    assert _run(config, ["preprocess"], capsys, caplog)[0] == 0
    assert _run(config, ["extract"], capsys, caplog)[0] == 0
    for argv in COLUMN_COMMANDS:
        extracts = "train" not in argv and "ghost" not in argv
        del parses[:], extractions[:]
        loaded = _run(config, argv, capsys, caplog)
        assert (parses, extractions) == ([], [])
        columns.rename(tmp_path / "away.npz")
        parsed = _run(config, argv, capsys, caplog)
        assert len(parses) == 1
        (tmp_path / "away.npz").rename(columns)
        segments.unlink()
        del extractions[:]
        extracted = _run(config, argv, capsys, caplog)
        assert len(extractions) == extracts
        if not segments.exists():   # train does not write it, nor an unknown entity
            assert _run(config, ["extract"], capsys, caplog)[0] == 0
        assert loaded == parsed == extracted, argv
        assert loaded[0] == (2 if "ghost" in argv else 0)
        assert "unknown POS tag 'XYZ' for token 'zork'" in " ".join(loaded[3])


def test_a_corpus_edited_after_preprocess_gives_a_fresh_runs_outputs(tmp_path, capsys, caplog):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    corpus = write_columns_corpus(tmp_path / "a")
    config = write_config(tmp_path / "a", corpus)
    commands = (["train", "--iters", "5"], ["summarize"], ["evaluate"])
    assert main(["--config", str(config), "preprocess"]) == 0
    before = [_run(config, argv, capsys, caplog) for argv in commands]
    # the third review dropped, and the second review's pros changed
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    record["pros"] = ["a new pro"]
    corpus.write_text("".join([lines[0], json.dumps(record) + "\n"] + lines[3:]),
                      encoding="utf-8")
    stale = [_run(config, argv, capsys, caplog) for argv in commands]
    fresh_corpus = tmp_path / "b" / "corpus.jsonl"
    fresh_corpus.write_bytes(corpus.read_bytes())
    fresh_config = write_config(tmp_path / "b", fresh_corpus)
    assert main(["--config", str(fresh_config), "preprocess"]) == 0
    fresh = [_run(fresh_config, argv, capsys, caplog) for argv in commands]
    later = ("checkpoint.json", "topics.json", "topics.txt", "summaries.json",
             "report_AW_SEN_SW.json", "report_AW_SEN_SW.txt")
    for got, want in zip(stale, fresh):
        # train's stdout names the checkpoint's directory
        assert got[1].replace(str(tmp_path / "a"), str(tmp_path / "b")) == want[1]
        assert (got[0], got[2:4]) == (want[0], want[2:4])
    # what the three commands wrote
    assert ({k: v for k, v in stale[-1][4].items() if k in later}
            == {k: v for k, v in fresh[-1][4].items() if k in later})
    assert set(later) <= set(fresh[-1][4])
    assert stale[-1][4]["report_AW_SEN_SW.json"] != before[-1][4]["report_AW_SEN_SW.json"]
