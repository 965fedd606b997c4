"""Pipeline configuration: an INI file with one section per stage.

Unknown sections or keys are rejected outright so typos fail fast. Values
are read literally: a '%' is a character of the value, never an
interpolation.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .corpus import CORPUS_FORMATS
from .evaluation import EvalConfig
from .filters import FilterConfig
from .model import Hyperparams, Schedule
from .patterns import resolve_pattern_ids


class ConfigError(ValueError):
    pass


@dataclass
class Paths:
    corpus: str = ""
    corpus_format: str = "jsonl"
    output_dir: str = "out"
    checkpoint: str = ""        # defaults to <output_dir>/checkpoint.json
    stopwords: str = ""         # optional wordlist files
    extra_sentiment: str = ""
    seeds: str = ""
    lexicon: str = ""


@dataclass
class PipelineConfig:
    paths: Paths = field(default_factory=Paths)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    schedule: Schedule = field(default_factory=Schedule)
    filters: FilterConfig = field(default_factory=FilterConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    pattern_spec: str = "product"
    max_words: int = 7
    min_count: int = 5
    procedure: str = "AW+SEN+SW"
    rng_seed: int = 0
    top_n: int = 0              # 0 = unlimited

    def __post_init__(self):
        if self.top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {self.top_n}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.max_words < 1:
            raise ValueError(f"max_words must be >= 1, got {self.max_words}")
        if self.paths.corpus_format not in CORPUS_FORMATS:
            raise ValueError(f"corpus_format must be one of {', '.join(CORPUS_FORMATS)}, "
                             f"got {self.paths.corpus_format!r}")
        try:
            resolve_pattern_ids(self.pattern_spec)
        except ValueError as exc:
            raise ValueError(f"preset: {exc}") from None

    @property
    def checkpoint_path(self):
        return self.paths.checkpoint or os.path.join(self.paths.output_dir,
                                                     "checkpoint.json")


_SCHEMA = {
    "paths": {
        "corpus": str, "corpus_format": str, "output_dir": str,
        "checkpoint": str, "stopwords": str, "extra_sentiment": str,
        "seeds": str, "lexicon": str,
    },
    "model": {
        "alpha": float, "beta": float, "gamma": float,
        "sigma1_sq": float, "sigma2_sq": float, "num_topics": int,
        "mu_seed": float, "min_count": int,
    },
    "schedule": {"burn_in": int, "interleave": int, "total": int},
    "patterns": {"preset": str, "max_words": int},
    "filters": {"aw_top_x": int, "sw_top_y": int, "rank_keep_fraction": float},
    "eval": {"recall_threshold": float, "token_normalization": str},
    "run": {"procedure": str, "rng_seed": int, "top_n": int},
}


# Sections that fill one dataclass field of PipelineConfig; the keys of the
# other sections are PipelineConfig fields themselves.
_NESTED = {
    "paths": ("paths", Paths),
    "model": ("hyperparams", Hyperparams),
    "schedule": ("schedule", Schedule),
    "filters": ("filters", FilterConfig),
    "eval": ("eval", EvalConfig),
}
# Keys stored on PipelineConfig under another name or outside their section.
_RENAMED = {("patterns", "preset"): "pattern_spec", ("model", "min_count"): "min_count"}


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # on one line: a ParsingError puts each bad line on a line of its own
        message = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse config file {path}: {message}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    nested = {section: {} for section in _NESTED}
    top = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            caster = _SCHEMA[section][key]
            try:
                value = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
            if (section, key) in _RENAMED:
                top[_RENAMED[section, key]] = value
            elif section in _NESTED:
                nested[section][key] = value
            else:
                top[key] = value

    try:
        cfg = PipelineConfig(**top, **{name: cls(**nested[section])
                                       for section, (name, cls) in _NESTED.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for label, p in (("corpus", cfg.paths.corpus), ("stopwords", cfg.paths.stopwords),
                     ("extra_sentiment", cfg.paths.extra_sentiment),
                     ("seeds", cfg.paths.seeds), ("lexicon", cfg.paths.lexicon)):
        if p and not os.path.exists(p):
            raise ConfigError(f"{label} file does not exist: {p}")
    return cfg
