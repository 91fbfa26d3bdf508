"""Translation oracles: chart parsing, target enumeration, pair validation.

Both oracles are one fold (:func:`_fold_targets`) over the packed parse forest
of the source sentence in two value types: :func:`translate` folds the target
strings, and :func:`is_valid_translation` the spans of the candidate that a
target yield can cover, so it stays polynomial and never enumerates the
translation set.  A value type supplies ``words`` (a terminal's words),
``times`` (concatenation) and ``plus`` (alternatives); the fold visits the
items reachable from the root in post-order with an explicit stack, so a
forest of any depth folds.  An item with one backpointer whose last child is
not virtual is its own lone option, so its options are neither grouped nor
expanded; in :class:`_TargetStrings` a product of two one-yield values and a
sum of one one-yield option skip deduplication and cap bookkeeping, so a
source with one target folds without either.

An agenda-driven CKY chart parser builds the forest over the grammar
binarized internally (virtual items never escape).
It takes the start positions right to left and visits only the spans that
can parse: from each start, the ends of its lexical matches and, for each
span it has filled, the ends of the spans that continue it, in rising order
from a min-heap.  So the forest, indexed by start position, holds only the
spans that parse, in the order an all-spans CKY loop would build them.
Phonetically null terminals become zero-width chart items, so covert
material (tense, aspect, silent complementizers) parses at any position
without appearing in the input.  Grammars whose source derivations could
loop without consuming input are rejected up front by
:func:`~scfgkit.grammar.check_well_founded`, which the grammar's compiled
state runs before it builds parse tables, so every forest is acyclic.  Only
the source side is checked and parsed: the target side is read off the
source forest, so a loop there alone is never followed.  The oracles read the merged grammar and its tables from ``grammar.compiled``,
built once per grammar object (see :mod:`scfgkit.compiled`).  Target
strings are concatenated only up to the enumeration cap.

Agreement crediting: grammars with feature-indexed nonterminals (``TP_3sg``)
are merged down to their feature-free families first.  For a source language
that does not mark agreement this accepts every feature variant of the
target, matching how such pairs are scored; when the source does mark
agreement the merge changes nothing, because the source surface pins the
feature cell.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .grammar import (
    Side,
    SyncGrammar,
    SyncRule,
    as_words,
    nonterminal,
)
from .metagrammar import FEATURES

Item = tuple[str, int, int]

TRANSLATE_CAP = 10_000  # default bound on the targets one translation enumerates


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

    lex: dict  # words tuple -> [(lhs, rule index)]; key () holds null rules
    unary: dict  # child name -> [(parent name, rule index)]
    binary_by_left: dict  # left name -> [(parent, right name, rule index)]
    binary_by_right: dict  # right name -> [(parent, left name, rule index)]
    longest: int  # words in the longest terminal run


def parse_tables(grammar: SyncGrammar, side: Side) -> ParseTables:
    """Index one side of the grammar's rule layouts for chart parsing.  The
    side must have passed :func:`~scfgkit.grammar.check_well_founded`, which
    :class:`~scfgkit.compiled.CompiledGrammar`, the only caller, runs before
    it builds tables, so that every forest is acyclic."""
    lex: dict = {}
    unary: dict = {}
    by_left: dict = {}
    by_right: dict = {}
    for idx, rule in enumerate(grammar.rules):
        layout = rule.layout[side]
        if not rule.children:  # validated rules are homogeneous: lexical
            lex.setdefault(layout[0], []).append((rule.lhs, idx))
            continue
        names = [rule.children[p] for p in layout]
        if len(names) == 1:
            unary.setdefault(names[0], []).append((rule.lhs, idx))
            continue
        for piece in range(len(names) - 1):
            parent = rule.lhs if piece == 0 else _virtual(idx, piece)
            left = names[piece]
            right = names[piece + 1] if piece == len(names) - 2 else _virtual(idx, piece + 1)
            by_left.setdefault(left, []).append((parent, right, idx))
            by_right.setdefault(right, []).append((parent, left, idx))
    longest = max(map(len, lex), default=0)
    return ParseTables(lex, unary, by_left, by_right, longest)


# --- chart construction ---------------------------------------------------


def _parse(tables: ParseTables, words: tuple[str, ...]) -> list[dict]:
    """Build the packed forest: ``forest[i]`` maps each end ``j`` (rising) to
    the cell ``{name: [(rule, children), ...]}`` of span ``(i, j)``; only spans
    where some name parses have a cell.  Children are items ``(name, i, j)``:
    ``()`` for a lexical rule, ``(child,)`` for a unary one and ``(left, right)``
    for a binarized piece, whose ``right`` may be virtual.

    Starts are taken from ``n`` down, so every span right of ``i`` is built
    before any span at ``i``.  Each start visits only the ends that can parse:
    its zero-width cell, the ends of its lexical matches, and, for each
    non-empty cell ``(i, k)``, the ends in ``forest[k]``; a min-heap yields
    them rising, so ``forest[i]`` fills in end order and a cell's split loop
    sees every shorter cell at its start.
    """
    n = len(words)
    forest: list[dict] = [{} for _ in range(n + 1)]

    for i in range(n, -1, -1):
        ends = [i] + [
            i + width
            for width in range(1, min(tables.longest, n - i) + 1)
            if words[i : i + width] in tables.lex
        ]
        heapq.heapify(ends)
        last = -1
        while ends:
            j = heapq.heappop(ends)
            if j == last:
                continue
            last = j
            cell: dict = {}
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

            for lhs, idx in tables.lex.get(words[i:j], ()):
                add(lhs, (idx, ()))
            # forest[i] has no cell (i, j) yet, so k == i finds no right cell
            for k, left_cell in forest[i].items():
                right_cell = forest[k].get(j)
                if right_cell is None:
                    continue
                for lname in left_cell:
                    for parent, right, idx in tables.binary_by_left.get(lname, ()):
                        if right in right_cell:
                            add(parent, (idx, ((lname, i, k), (right, k, j))))
            # Closure: unary rules, plus binary rules one of whose children is
            # a zero-width item at this span's edge.  Zero-width cells are
            # complete before any wider span; when i == j the cell fills in
            # within this loop, so it must already be visible as forest[i][i].
            forest[i][j] = cell
            left_nulls, right_nulls = forest[i].get(i, {}), forest[j].get(j, {})
            while queue:
                name = queue.pop()
                item = (name, i, j)
                for parent, idx in tables.unary.get(name, ()):
                    add(parent, (idx, (item,)))
                for parent, right, idx in tables.binary_by_left.get(name, ()):
                    if right in right_nulls:
                        add(parent, (idx, (item, (right, j, j))))
                for parent, left, idx in tables.binary_by_right.get(name, ()):
                    if left in left_nulls:
                        add(parent, (idx, ((left, i, i), item)))
            if not cell:
                del forest[i][j]
            elif j > i:
                # a split (i, j) + (j, m) can parse only where (j, m) does
                for m in forest[j]:
                    if m > j:
                        heapq.heappush(ends, m)
    return forest


# --- forest walking -------------------------------------------------------


def _expand(children: tuple[Item, ...], forest: list[dict]) -> Iterator[tuple[Item, ...]]:
    """The real child lists of one backpointer: a virtual last child, from
    binarization, is replaced by each expansion of its own backpointers."""
    if not children or not _is_virtual(children[-1][0]):
        yield children
        return
    name, i, j = children[-1]
    for _, sub in forest[i][j][name]:
        for rest in _expand(sub, forest):
            yield children[:-1] + rest


def _grouped_options(item: Item, forest: list[dict]) -> dict[int, list[tuple[Item, ...]]]:
    """All ways to expand an item, grouped by originating rule."""
    grouped: dict[int, list[tuple[Item, ...]]] = {}
    for idx, children in forest[item[1]][item[2]][item[0]]:
        grouped.setdefault(idx, []).extend(_expand(children, forest))
    return grouped


# --- oracles ---------------------------------------------------------------


def _fold_targets(grammar: SyncGrammar, sentence, values):
    """Fold the target yields of the source forest of ``sentence`` in the
    value type ``values``, once per item, in post-order from the root with an
    explicit stack: an option multiplies the parts of its rule's target
    layout (a child's value, or ``values.words`` of a terminal's words, which
    are ``()`` for a null one), and an item adds its options in chart order.
    Items that no complete parse uses are never visited.  Raises
    :class:`SourceParseError` when the sentence is not in the source
    language."""
    words = as_words(sentence)
    g = grammar.compiled.merged
    forest = _parse(grammar.compiled.src_tables, words)
    root = (g.start, 0, len(words))
    if g.start not in forest[0].get(len(words), ()):
        raise SourceParseError(f"not a source-language sentence: {' '.join(words)!r}")

    value: dict = {}
    # an item is pushed with None; its first visit pushes it again with its
    # options, above its children, so its second visit finds them folded
    stack: list = [(root, None)]
    while stack:
        item, grouped = stack.pop()
        if grouped is None:
            if item not in value:  # else pushed twice and already folded
                bps = forest[item[1]][item[2]][item[0]]
                idx, children = bps[0]
                if len(bps) == 1 and not (children and _is_virtual(children[-1][0])):
                    grouped = {idx: [children]}  # a lone option: nothing to group or expand
                else:
                    grouped = _grouped_options(item, forest)
                stack.append((item, grouped))
                for child_lists in grouped.values():
                    for children in child_lists:
                        for child in children:
                            if child not in value:
                                stack.append((child, None))
            continue
        options = []
        for idx, child_lists in grouped.items():
            layout = g.rules[idx].layout["tgt"]
            for children in child_lists:
                product = None
                for part in layout:
                    factor = value[children[part]] if isinstance(part, int) else values.words(part)
                    product = factor if product is None else values.times(product, factor)
                options.append(product)
        value[item] = values.plus(options)
    return value[root]


@dataclass
class _TargetStrings:
    """Target yields as word tuples, in first-derived order, at most ``cap``
    per value; ``overflowed`` records any truncation."""

    cap: int
    overflowed: bool = False

    def _capped(self, yields: list) -> list:
        self.overflowed |= len(yields) > self.cap
        return yields[: self.cap]

    def words(self, words: tuple[str, ...]) -> list:
        return [words]

    def times(self, left: list, right: list) -> list:
        if len(left) == 1 and len(right) == 1:
            return [left[0] + right[0]]  # one yield is never past a cap of 1 or more
        product = (a + b for a in left for b in right)
        return self._capped(list(islice(product, self.cap + 1)))

    def plus(self, options: list) -> list:
        # A lone option of one yield has nothing to repeat.  One of several
        # yields may: a product can repeat a concatenation ("x" + "y z" is
        # "x y" + "z"), so it is deduplicated below.  Values are never
        # mutated, so the option's list is shared.
        if len(options) == 1 and len(options[0]) <= 1:
            return options[0]
        return self._capped(list(dict.fromkeys(y for option in options for y in option)))


class _CandidateSpans:
    """The spans of a candidate that a target yield can cover (it equals
    ``candidate[i:j]``), as ``{i: ends j}``.  Values are never mutated, so a
    terminal's spans are found once and a lone option passes ``plus`` as is:
    a deep chain of items folds in time linear in the candidate."""

    def __init__(self, candidate: tuple[str, ...]):
        self.candidate = candidate
        self._terminals: dict = {}

    def words(self, words: tuple[str, ...]) -> dict:
        if words not in self._terminals:
            n, cand = len(words), self.candidate
            self._terminals[words] = {i: {i + n} for i in range(len(cand) - n + 1) if cand[i : i + n] == words}
        return self._terminals[words]

    def times(self, left: dict, right: dict) -> dict:
        spans = {i: set().union(*(right.get(j, ()) for j in mids)) for i, mids in left.items()}
        return {i: ends for i, ends in spans.items() if ends}

    def plus(self, options: list) -> dict:
        if len(options) == 1:
            return options[0]
        spans: dict = {}
        for option in options:
            for i, ends in option.items():
                spans.setdefault(i, set()).update(ends)
        return spans


def translate(grammar: SyncGrammar, sentence, cap: int = TRANSLATE_CAP) -> Translations:
    """All distinct target sentences the grammar pairs with ``sentence``.

    Raises :class:`SourceParseError` when the sentence is not in the source
    language.  At most ``cap`` targets are returned; ``.overflowed`` reports
    truncation.  Feature-indexed grammars are credited per the merge rule
    described in the module docstring.  Raises ``ValueError`` when ``cap`` is
    below 1.
    """
    if cap < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {cap}")
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
    return len(cand) in _fold_targets(grammar, source, _CandidateSpans(cand)).get(0, ())
