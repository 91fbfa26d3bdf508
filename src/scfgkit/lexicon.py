"""Pseudo-word generation.

Vocabulary words are strings of 2 to 5 CVC syllables drawn from a fixed
consonant/vowel inventory ('rofxew', 'vejdetwukwesfef'), and agreement
suffixes are short V, VC, CV or CVC strings.  Draws are deterministic in the
random generator or seed they are given.  Which words a vocabulary admits
(not English, not taken, distinct once rendered) is decided by the grammar
generator in :mod:`scfgkit.metagrammar`.
"""

from __future__ import annotations

import random
from functools import cache
from importlib import resources
from typing import Callable

CONSONANTS = "bcdfghjklmnpqrstvwxyz"
VOWELS = "aeiou"
MIN_SYLLABLES = 2
MAX_SYLLABLES = 5

# Suffix shapes for agreement morphology, mirroring natural agreement
# paradigms (-o, -ik, -mi, -sar).
SUFFIX_SHAPES = ("V", "VC", "CV", "CVC")


@cache
def english_words() -> frozenset[str]:
    """The embedded English wordlist (lowercase, one word per line)."""
    text = resources.files("scfgkit.data").joinpath("english_words.txt").read_text("utf-8")
    return frozenset(text.split())


def draw_word(rng: random.Random) -> str:
    """One raw pseudo-word (no novelty or distinctness checks)."""
    n = rng.randint(MIN_SYLLABLES, MAX_SYLLABLES)
    return "".join(
        rng.choice(CONSONANTS) + rng.choice(VOWELS) + rng.choice(CONSONANTS) for _ in range(n)
    )


def _draw_suffix(rng: random.Random) -> str:
    shape = rng.choice(SUFFIX_SHAPES)
    return "".join(rng.choice(VOWELS if ch == "V" else CONSONANTS) for ch in shape)


def generate_suffixes(count: int, rng_seed: int, distinct_key: Callable[[str], object] | None = None) -> tuple[str, ...]:
    """Draw ``count`` distinct agreement suffixes (shapes V, VC, CV, CVC)."""
    rng = random.Random(rng_seed)
    key = distinct_key or (lambda w: w)
    suffixes: list[str] = []
    seen: set[object] = set()
    while len(suffixes) < count:
        s = _draw_suffix(rng)
        if key(s) in seen:
            continue
        seen.add(key(s))
        suffixes.append(s)
    return tuple(suffixes)

