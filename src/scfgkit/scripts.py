"""Rendering pseudo-words into different writing systems.

Every vocabulary word starts life as a lowercase Latin skeleton of CVC
syllables (see :mod:`scfgkit.lexicon`).  A script maps that skeleton,
character by character, into a writing system: Cyrillic substitutes letters
one for one, Hebrew keeps the consonants and drops the vowels, pointed
Hebrew turns each vowel into a pointing mark on the preceding consonant, and
the diacritic Latin variant decorates a fixed subset of letters with
combining marks.  The mapping tables live in one packaged data file
(``data/script_tables.json``) so they can be inspected; it is the only
table, so a script name means one rendering everywhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from types import MappingProxyType
from typing import Mapping

Ranges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ScriptSpec:
    """One writing system: codepoint ranges plus a skeleton-to-script map."""

    name: str
    base_ranges: Ranges
    diacritic_ranges: Ranges
    mapping: tuple[tuple[str, str], ...]

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.mapping)

    def render(self, char: str) -> str:
        if char in self._map:
            return self._map[char]
        if not self.mapping:  # identity script
            return char
        raise KeyError(f"script {self.name} has no mapping for {char!r}")

    @cached_property
    def _covered(self) -> re.Pattern:
        def char_class(ranges: Ranges) -> str:
            return "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges)

        chars = char_class(self.base_ranges + self.diacritic_ranges)
        pattern = f"[{chars}]*" if chars else ""
        if self.diacritic_ranges:  # and a diacritic somewhere in the word
            marks = char_class(self.diacritic_ranges)
            pattern = f"(?=[^{marks}]*[{marks}])" + pattern
        return re.compile(pattern)

    def covers(self, word: str) -> bool:
        """True when every codepoint of ``word`` falls in this script's ranges
        and, for scripts that use diacritics, at least one diacritic appears."""
        return self._covered.fullmatch(word) is not None


def _parse_ranges(raw: list[list[str]]) -> Ranges:
    return tuple((int(lo, 16), int(hi, 16)) for lo, hi in raw)


@cache
def load_script_tables() -> Mapping[str, ScriptSpec]:
    """The packaged script specs, read once; read-only, since every caller
    shares them."""
    raw = json.loads(resources.files("scfgkit.data").joinpath("script_tables.json").read_text("utf-8"))
    return MappingProxyType({
        name: ScriptSpec(
            name=name,
            base_ranges=_parse_ranges(entry["base_ranges"]),
            diacritic_ranges=_parse_ranges(entry["diacritic_ranges"]),
            mapping=tuple(sorted(entry["map"].items())),
        )
        for name, entry in raw["scripts"].items()
    })


SCRIPT_NAMES = ("Latin", "LatinDiacritics", "Cyrillic", "Hebrew", "HebrewPointed")


def get_script(script: str | ScriptSpec) -> ScriptSpec:
    if isinstance(script, ScriptSpec):
        return script
    table = load_script_tables()
    try:
        return table[script]
    except KeyError:
        raise KeyError(f"unknown script {script!r}; known: {', '.join(sorted(table))}") from None


def transliterate(word: str, script: str | ScriptSpec) -> str:
    """Render a Latin-skeleton word in the given script, left to right."""
    spec = get_script(script)
    return "".join(spec.render(ch) for ch in word)


def script_of(word: str) -> frozenset[str]:
    """All script names consistent with ``word``; empty for mixed-script text.

    A script is consistent when it covers every codepoint and, if it defines
    diacritics, at least one diacritic codepoint is present (so plain Latin
    text reads as Latin, not as diacritic-less LatinDiacritics).
    """
    return frozenset(name for name, spec in load_script_tables().items() if spec.covers(word))
