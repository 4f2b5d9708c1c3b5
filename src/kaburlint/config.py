"""Flat key-value configuration and resource loading for the CLI.

The config file holds one `key = value` pair per line with '#' comments.
The keys are the fields of Config, and each key's type comes from its
Config default: None means a path, otherwise an int, a bool, a tuple (a
comma-separated marker list) or a str. Unknown keys are rejected and every
referenced input file must exist at load time (the audit log is exempt: it
is an output). The filter step has no keys: its six reasons always apply,
and only the wordlists they consult are paths here. Relative paths are
resolved against the config file's directory. CLI flags override config
values; validate_config then checks the values once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .analyzer import (
    DEFAULT_ALTERNATIVE_MARKERS,
    DEFAULT_CONDITIONAL_MARKERS,
    LintConfig,
    REPORT_FORMATS,
)
from .errors import ConfigError
from .extraction import RuleLists
from .fileio import read_lines
from .filters import FilterConfig, load_wordlist
from .lexicon import Lexicon, PosDictionary, load_lexicon, load_pos_dictionary
from .stats import SCOPE_CANDIDATES, SCOPE_VERIFIED
from .textcore import DEFAULT_ABBREVIATIONS

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

SCOPE_NAMES = {"verified": SCOPE_VERIFIED, "candidates": SCOPE_CANDIDATES}


@dataclass
class Config:
    lexicon: Path | None = None
    pos_dict: Path | None = None
    english_wordlist: Path | None = None
    malay_wordlist: Path | None = None
    abbreviations: Path | None = None
    audit_log: Path | None = None
    rules_implicit: Path | None = None
    rules_connectives: Path | None = None
    rules_temporal: Path | None = None
    rules_referential: Path | None = None
    rules_variable: Path | None = None
    rules_weakness: Path | None = None
    sense_threshold: int = 2
    jobs: int = 1
    format: str = "text"
    scope: str = "verified"
    flag_anaphoric_clitics: bool = False
    conditional_markers: tuple[str, ...] = DEFAULT_CONDITIONAL_MARKERS
    alternative_markers: tuple[str, ...] = DEFAULT_ALTERNATIVE_MARKERS


# config key -> type of its Config default, which decides how its value parses
_KEY_KINDS = {f.name: type(f.default) for f in fields(Config)}


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
    if kind is tuple:  # a comma-separated marker list
        items = tuple(v.strip() for v in value.split(",") if v.strip())
        if not items:
            raise ConfigError(f"{where}: {key} must list at least one marker")
        return items
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
    if cfg.scope not in SCOPE_NAMES:
        raise ConfigError(f"unknown scope {cfg.scope!r} (use verified|candidates)")
    if cfg.sense_threshold < 0:
        raise ConfigError("sense_threshold must be non-negative")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be at least 1")
    return cfg


@dataclass
class Resources:
    """Loaded runtime objects derived from a Config."""

    lexicon: Lexicon
    posdict: PosDictionary | None
    rules: RuleLists
    filter_config: FilterConfig
    lint_config: LintConfig
    config: Config


def load_resources(cfg: Config, *, require_lexicon: bool = True) -> Resources:
    if cfg.lexicon is None:
        if require_lexicon:
            raise ConfigError("no lexicon configured (set --lexicon or config key)")
        lexicon = Lexicon()
    else:
        lexicon = load_lexicon(cfg.lexicon)
    posdict = load_pos_dictionary(cfg.pos_dict) if cfg.pos_dict else None
    rule_paths = {
        attr: getattr(cfg, key)
        for key, attr in RULE_ATTRIBUTE_KEYS.items()
        if getattr(cfg, key) is not None
    }
    rules = RuleLists.load(rule_paths)
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
    lint_config = LintConfig(
        filter_config=filter_config,
        sense_threshold=cfg.sense_threshold,
        conditional_markers=cfg.conditional_markers,
        alternative_markers=cfg.alternative_markers,
        flag_anaphoric_clitics=cfg.flag_anaphoric_clitics,
    )
    return Resources(
        lexicon=lexicon,
        posdict=posdict,
        rules=rules,
        filter_config=filter_config,
        lint_config=lint_config,
        config=cfg,
    )


def default_audit_path(cfg: Config) -> Path:
    if cfg.audit_log is not None:
        return cfg.audit_log
    if cfg.lexicon is not None:
        return cfg.lexicon.with_name(cfg.lexicon.name + ".audit.jsonl")
    return Path("audit.jsonl")
