"""Flat key-value configuration and resource loading for the CLI.

The config file holds one `key = value` pair per line with '#' comments.
The keys are the fields of Config, and each key's type comes from its
Config default: None means a path, otherwise an int, a bool or a str.
Unknown keys are rejected and every referenced input file must exist at
load time (the audit log is exempt: it is an output). The filter step and
the dangling-else markers have no keys: the six filter reasons always
apply, and only the wordlists they consult are paths here. Relative
paths are resolved against the config file's directory. CLI flags
override config values; validate_config then checks the values once.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .fileio import read_lines
from .filters import FilterConfig, load_wordlist
from .lexicon import (
    SCOPES,
    Lexicon,
    PhraseSets,
    PosDictionary,
    load_lexicon,
    load_pos_dictionary,
    load_rule_lists,
)
from .records import DEFAULT_ABBREVIATIONS, REPORT_FORMATS, SENSE_THRESHOLD, Record

RULE_ATTRIBUTE_KEYS = {
    "rules_implicit": "IMP",
    "rules_connectives": "CON",
    "rules_temporal": "T",
    "rules_referential": "REF",
    "rules_variable": "VAR",
    "rules_weakness": "WN",
}

# created by commands, never required to pre-exist
_OUTPUT_PATH_KEYS = frozenset({"audit_log"})


class Config(Record):
    """Every config key, as a field with its default; a None default marks a path."""

    _defaults = {
        **dict.fromkeys((
            "lexicon",
            "pos_dict",
            "english_wordlist",
            "malay_wordlist",
            "abbreviations",
            "audit_log",
            *RULE_ATTRIBUTE_KEYS,
        )),
        "sense_threshold": SENSE_THRESHOLD,
        "jobs": 1,
        "format": "text",
        "scope": "verified",
        "flag_anaphoric_clitics": False,
    }
    __slots__ = tuple(_defaults)


# config key -> type of its Config default, which decides how its value parses
_KEY_KINDS = {key: type(default) for key, default in Config._defaults.items()}


def _parse_value(key: str, value: str, base: Path, where: str) -> object:
    kind = _KEY_KINDS[key]
    if kind is type(None):  # a path
        resolved = (base / value).resolve()
        if key not in _OUTPUT_PATH_KEYS and not resolved.exists():
            raise ConfigError(f"{where}: {key} file {resolved} does not exist")
        return resolved
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be an integer") from None
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{where}: {key} must be a boolean, got {value!r}")
    return value


def load_config(path: str | Path) -> Config:
    """Parse a config file; validate_config checks the values afterwards."""
    path = Path(path)
    base = path.parent
    cfg = Config()
    seen: set[str] = set()
    for where, line in read_lines(path, "config", ConfigError):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or not key:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in _KEY_KINDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        seen.add(key)
        setattr(cfg, key, _parse_value(key, value, base, where))
    return cfg


def validate_config(cfg: Config) -> Config:
    """Check value ranges once, after CLI flags have overridden the file."""
    if cfg.format not in REPORT_FORMATS:
        raise ConfigError(f"unknown format {cfg.format!r}")
    if cfg.scope not in SCOPES:
        raise ConfigError(f"unknown scope {cfg.scope!r} (use {'|'.join(SCOPES)})")
    if cfg.sense_threshold < 0:
        raise ConfigError("sense_threshold must be non-negative")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be at least 1")
    return cfg


class Resources(Record):
    """Loaded runtime objects derived from a Config."""

    __slots__ = ("lexicon", "posdict", "rules", "filter_config")
    lexicon: Lexicon
    posdict: PosDictionary | None
    rules: PhraseSets
    filter_config: FilterConfig


def configured_lexicon(cfg: Config) -> Path:
    """The lexicon path; an error when neither the config nor --lexicon sets one."""
    if cfg.lexicon is None:
        raise ConfigError("no lexicon configured (set --lexicon or config key)")
    return cfg.lexicon


def load_resources(cfg: Config, *, require_lexicon: bool = True) -> Resources:
    """Every file the config names: what lint, extract and map read."""
    if cfg.lexicon is None and not require_lexicon:
        lexicon = Lexicon()
    else:
        lexicon = load_lexicon(configured_lexicon(cfg))
    posdict = load_pos_dictionary(cfg.pos_dict) if cfg.pos_dict else None
    rules = load_rule_lists({
        attr: getattr(cfg, key)
        for key, attr in RULE_ATTRIBUTE_KEYS.items()
        if getattr(cfg, key) is not None
    })
    abbreviations = (
        load_wordlist(cfg.abbreviations) if cfg.abbreviations else DEFAULT_ABBREVIATIONS
    )
    filter_config = FilterConfig(
        english_words=(
            load_wordlist(cfg.english_wordlist) if cfg.english_wordlist else frozenset()
        ),
        malay_words=(
            load_wordlist(cfg.malay_wordlist) if cfg.malay_wordlist else None
        ),
        abbreviations=abbreviations,
    )
    return Resources(
        lexicon=lexicon,
        posdict=posdict,
        rules=rules,
        filter_config=filter_config,
    )
