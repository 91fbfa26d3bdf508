"""Translation oracles: chart parsing, target enumeration, pair validation.

Both oracles are one fold (:func:`_fold_targets`) over the packed parse
forest of the source sentence, built by a CKY-style chart parser, in two
value types: :func:`translate` folds the target strings, and
:func:`is_valid_translation` the spans of the candidate that a target yield
can cover, so it stays polynomial and never enumerates the translation set.
The grammar is binarized internally (virtual items never escape);
phonetically null terminals become zero-width chart items, so covert material
(tense, aspect, silent complementizers) parses at any position without
appearing in the input.  Grammars whose source derivations could loop without
consuming input are rejected up front by
:func:`~scfgkit.grammar.check_well_founded`, which :func:`parse_tables` runs,
so every forest is acyclic; the target side is never parsed, so a loop there
alone is never followed.  The oracles read the merged grammar and its tables
from ``grammar.compiled``, built once per grammar object (see
:mod:`scfgkit.compiled`).

Agreement crediting: grammars with feature-indexed nonterminals (``TP_3sg``)
are merged down to their feature-free families first.  For a source language
that does not mark agreement this accepts every feature variant of the
target, matching how such pairs are scored; when the source does mark
agreement the merge changes nothing, because the source surface pins the
feature cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .grammar import (
    Side,
    SyncGrammar,
    SyncRule,
    as_words,
    check_well_founded,
    nonterminal,
)
from .metagrammar import FEATURES

Item = tuple[str, int, int]


class SourceParseError(ValueError):
    """The sentence is not in the grammar's source language."""


class Translations(frozenset):
    """The set of target sentences (space-joined strings) for one source
    sentence.  ``overflowed`` is True when enumeration hit its cap, in which
    case this is a subset of the full translation set."""

    overflowed: bool

    def __new__(cls, items=(), overflowed: bool = False):
        self = super().__new__(cls, items)
        self.overflowed = overflowed
        return self


# --- agreement merge ------------------------------------------------------


def strip_feature(name: str) -> str:
    base, sep, feat = name.rpartition("_")
    return base if sep and feat in FEATURES else name


def merge_features(grammar: SyncGrammar) -> SyncGrammar:
    """Collapse feature-indexed nonterminal families (``VP_1sg`` ... ``VP_3pl``)
    into one symbol each, dropping rules that become duplicates."""
    if not any(strip_feature(n) != n for n in grammar.nonterminals):
        return grammar
    rules: list[SyncRule] = []
    seen: set[tuple] = set()
    for r in grammar.rules:
        merged = SyncRule(
            strip_feature(r.lhs),
            tuple(s if s.terminal else nonterminal(strip_feature(s.text)) for s in r.src),
            tuple(s if s.terminal else nonterminal(strip_feature(s.text)) for s in r.tgt),
        )
        key = (merged.lhs, merged.src, merged.tgt)
        if key not in seen:
            seen.add(key)
            rules.append(merged)
    return SyncGrammar(strip_feature(grammar.start), tuple(rules))


# --- parse tables ---------------------------------------------------------


def _virtual(rule_index: int, stage: int) -> str:
    # NUL is not a legal nonterminal character, so virtual names cannot clash.
    return f"\x00{rule_index}:{stage}"


def _is_virtual(name: str) -> bool:
    return name.startswith("\x00")


@dataclass(frozen=True)
class ParseTables:
    """One side of a grammar, indexed for chart parsing."""

    start: str
    lex: dict  # words tuple -> [(lhs, rule index)]; key () holds null rules
    unary: dict  # child name -> [(parent name, rule index)]
    binary_by_left: dict  # left name -> [(parent, right name, rule index)]
    binary_by_right: dict  # right name -> [(parent, left name, rule index)]


def parse_tables(grammar: SyncGrammar, side: Side) -> ParseTables:
    """Index one side of the grammar for chart parsing, after rejecting it
    if it admits unbounded derivations (see :func:`check_well_founded`)."""
    check_well_founded(grammar, side)
    lex: dict = {}
    unary: dict = {}
    by_left: dict = {}
    by_right: dict = {}
    for idx, rule in enumerate(grammar.rules):
        syms = rule.side(side)
        if any(s.terminal for s in syms):
            words = tuple(w for s in syms for w in s.words())
            lex.setdefault(words, []).append((rule.lhs, idx))
            continue
        names = [s.text for s in syms]
        if len(names) == 1:
            unary.setdefault(names[0], []).append((rule.lhs, idx))
            continue
        for piece in range(len(names) - 1):
            parent = rule.lhs if piece == 0 else _virtual(idx, piece)
            left = names[piece]
            right = names[piece + 1] if piece == len(names) - 2 else _virtual(idx, piece + 1)
            by_left.setdefault(left, []).append((parent, right, idx))
            by_right.setdefault(right, []).append((parent, left, idx))
    return ParseTables(grammar.start, lex, unary, by_left, by_right)


# --- chart construction ---------------------------------------------------


def _parse(tables: ParseTables, words: tuple[str, ...]) -> dict:
    """Build the packed forest: {(i, j): {name: [backpointer, ...]}}.

    Backpointers are ("lex", rule), ("un", rule, child_item) or
    ("bin", rule, left_item, right_item); items are (name, i, j).
    """
    n = len(words)
    chart: dict = {(i, j): {} for i in range(n + 1) for j in range(i, n + 1)}

    for width in range(0, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell = chart[(i, j)]
            seen_bps: set = set()
            queue: list[str] = []

            def add(name: str, bp: tuple) -> None:
                if bp in seen_bps:
                    return
                seen_bps.add(bp)
                bps = cell.get(name)
                if bps is None:
                    cell[name] = [bp]
                    queue.append(name)
                else:
                    bps.append(bp)

            for lhs, idx in tables.lex.get(words[i:j] if width else (), ()):
                add(lhs, ("lex", idx))
            for k in range(i + 1, j):
                left_cell, right_cell = chart[(i, k)], chart[(k, j)]
                for lname in left_cell:
                    for parent, right, idx in tables.binary_by_left.get(lname, ()):
                        if right in right_cell:
                            add(parent, ("bin", idx, (lname, i, k), (right, k, j)))
            # Closure: unary rules, plus binary rules one of whose children is
            # a zero-width item at this span's edge.  Zero-width cells are
            # complete before any wider span (and fill in within this loop
            # when i == j).
            while queue:
                name = queue.pop()
                item = (name, i, j)
                for parent, idx in tables.unary.get(name, ()):
                    add(parent, ("un", idx, item))
                for parent, right, idx in tables.binary_by_left.get(name, ()):
                    if right in chart[(j, j)]:
                        add(parent, ("bin", idx, item, (right, j, j)))
                for parent, left, idx in tables.binary_by_right.get(name, ()):
                    if left in chart[(i, i)]:
                        add(parent, ("bin", idx, (left, i, i), item))
    return chart


# --- forest walking -------------------------------------------------------


def _child_options(bp: tuple, chart: dict) -> list[tuple[int, tuple[Item, ...]]]:
    """Expand one backpointer into (rule index, real child items) options,
    flattening any virtual right spines introduced by binarization."""
    kind = bp[0]
    if kind == "lex":
        return [(bp[1], ())]
    if kind == "un":
        return [(bp[1], (bp[2],))]
    _, idx, left, right = bp
    options: list[tuple[int, tuple[Item, ...]]] = []

    def walk(acc: tuple[Item, ...], item: Item) -> None:
        name, i, j = item
        if not _is_virtual(name):
            options.append((idx, acc + (item,)))
            return
        for sub in chart[(i, j)][name]:
            _, _, l2, r2 = sub
            walk(acc + (l2,), r2)

    walk((left,), right)
    return options


def _grouped_options(item: Item, chart: dict) -> dict[int, list[tuple[Item, ...]]]:
    """All ways to expand an item, grouped by originating rule."""
    grouped: dict[int, list[tuple[Item, ...]]] = {}
    for bp in chart[(item[1], item[2])].get(item[0], ()):
        for idx, children in _child_options(bp, chart):
            grouped.setdefault(idx, []).append(children)
    return grouped


# --- oracles ---------------------------------------------------------------


def recognizes(grammar: SyncGrammar, side: Side, sentence) -> bool:
    """Plain CFG membership for one side of the grammar (no feature merge).
    Builds its parse tables on each call."""
    words = as_words(sentence)
    chart = _parse(parse_tables(grammar, side), words)
    return grammar.start in chart[(0, len(words))]


def _fold_targets(grammar: SyncGrammar, sentence, values):
    """Fold the target yields of the source forest of ``sentence`` in the
    value type ``values``, once per item: an option multiplies the parts of
    its rule's target layout from ``values.one``, and an item adds its options
    in chart order.  Raises :class:`SourceParseError` when the sentence is not
    in the source language."""
    words = as_words(sentence)
    g = grammar.compiled.merged
    chart = _parse(grammar.compiled.src_tables, words)
    if g.start not in chart[(0, len(words))]:
        raise SourceParseError(f"not a source-language sentence: {' '.join(words)!r}")

    @cache
    def value(item: Item):
        options = []
        for idx, child_lists in _grouped_options(item, chart).items():
            layout = g.rules[idx].layout["tgt"]
            for children in child_lists:
                acc = values.one
                for part in layout:
                    part_value = value(children[part]) if isinstance(part, int) else values.words(part)
                    acc = values.times(acc, part_value)
                options.append(acc)
        return values.plus(options)

    return value((g.start, 0, len(words)))


@dataclass
class _TargetStrings:
    """Target yields as word tuples, in first-derived order, at most ``cap``
    per value; ``overflowed`` records any truncation."""

    cap: int
    overflowed: bool = False
    one = [()]

    def _capped(self, yields: list) -> list:
        self.overflowed |= len(yields) > self.cap
        return yields[: self.cap]

    def words(self, words: tuple[str, ...]) -> list:
        return [words]

    def times(self, left: list, right: list) -> list:
        return self._capped([a + b for a in left for b in right])

    def plus(self, options: list) -> list:
        return self._capped(list(dict.fromkeys(y for option in options for y in option)))


class _CandidateSpans:
    """The spans ``(i, j)`` of a candidate that a target yield can cover: the
    yield equals ``candidate[i:j]``."""

    def __init__(self, candidate: tuple[str, ...]):
        self.candidate = candidate
        self.one = self.words(())  # every empty span (i, i)

    def words(self, words: tuple[str, ...]) -> set:
        n, cand = len(words), self.candidate
        return {(i, i + n) for i in range(len(cand) - n + 1) if cand[i : i + n] == words}

    def times(self, left, right) -> set:
        ends: dict[int, list[int]] = {}
        for j, k in right:
            ends.setdefault(j, []).append(k)
        return {(i, k) for i, j in left for k in ends.get(j, ())}

    def plus(self, options: list) -> set:
        return set().union(*options)


def translate(grammar: SyncGrammar, sentence, cap: int = 10_000) -> Translations:
    """All distinct target sentences the grammar pairs with ``sentence``.

    Raises :class:`SourceParseError` when the sentence is not in the source
    language.  At most ``cap`` targets are returned; ``.overflowed`` reports
    truncation.  Feature-indexed grammars are credited per the merge rule
    described in the module docstring.
    """
    values = _TargetStrings(cap)
    yields = _fold_targets(grammar, sentence, values)
    return Translations((" ".join(t) for t in yields), values.overflowed)


def is_valid_translation(grammar: SyncGrammar, source, candidate) -> bool:
    """True when some synchronized derivation pairs ``source`` with
    ``candidate``.  Polynomial: folds the candidate spans that the target
    yields of the source forest can cover, instead of enumerating
    translations.  Raises :class:`SourceParseError` when the source sentence
    itself does not parse."""
    cand = as_words(candidate)
    return (0, len(cand)) in _fold_targets(grammar, source, _CandidateSpans(cand))
