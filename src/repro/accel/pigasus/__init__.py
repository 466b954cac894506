"""Ported Pigasus IDS accelerators: ruleset and string matcher."""

from .ruleset import (
    PortSpec,
    Rule,
    RulesetError,
    generate_ruleset,
    parse_rules,
)
from .string_match import (
    AhoCorasick,
    BYTES_PER_CYCLE,
    ENGINES_PER_RPU,
    PigasusStringMatcher,
)

__all__ = [
    "PortSpec",
    "Rule",
    "RulesetError",
    "generate_ruleset",
    "parse_rules",
    "AhoCorasick",
    "BYTES_PER_CYCLE",
    "ENGINES_PER_RPU",
    "PigasusStringMatcher",
]
