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
The work that does not depend on positions is done once per grammar: each
cell's backpointers are placed from templates kept on the parse tables,
keyed by names (see :func:`_parse`), and :func:`translate` keeps the
untruncated target strings of items at most one word wide on the grammar,
per cap (see :func:`_fold_targets`).  Keys come only from the lexicon, the
name sets and the caps asked for, so neither store grows with the sentences
parsed.
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
from dataclasses import dataclass, field
from functools import cached_property
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
    """One side of a grammar, indexed for chart parsing.  The last two
    fields hold the parse's position-free templates, keyed by names, and
    ``null`` the zero-width cell's (see :func:`_parse`); each is built on
    first use and kept for every later sentence, and none takes part in
    equality."""

    lex: dict  # words tuple -> [(lhs, rule index)]; key () holds null rules
    unary: dict  # child name -> [(parent name, rule index)]
    binary_by_left: dict  # left name -> [(parent, right name, rule index)]
    binary_by_right: dict  # right name -> [(parent, left name, rule index)]
    longest: int  # words in the longest terminal run
    # a cell's names before its closure, in order -> (backpointers, names after)
    closures: dict = field(default_factory=dict, compare=False, repr=False)
    # (left cell's names, right cell's names) -> [(parent, rule, left, right)]
    splits: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def null(self) -> tuple:
        """The zero-width cell's template, the same at every position:
        ``(names, template)``.  Its nulls are its own names and its width is
        0, so its closure is not a wider cell's."""
        names: dict = {}
        template: list = []
        for lhs, idx in self.lex.get((), ()):
            names.setdefault(lhs, None)
            template.append((lhs, idx, _LEXICAL, None, None))
        _close(self, names, template, names, 0)
        return tuple(names), tuple(template)


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

# A template backpointer is (name, rule, kind, a, b), without positions: a
# lexical rule; a unary rule over the cell's item ``a``; or a binary rule over
# ``a`` then ``b``, one of them the cell's item and the other a zero-width item
# at its right edge (``b``) or its left edge (``a``).
_LEXICAL, _UNARY, _RIGHT_NULL, _LEFT_NULL = range(4)


def _backpointer(kind: int, idx: int, a: str, b: str | None, i: int, j: int) -> tuple:
    """A template backpointer's children placed in the cell ``(i, j)``."""
    if kind == _UNARY:
        return (idx, ((a, i, j),))
    if kind == _RIGHT_NULL:
        return (idx, ((a, i, j), (b, j, j)))
    if kind == _LEFT_NULL:
        return (idx, ((a, i, i), (b, i, j)))
    return (idx, ())


def _fill(cell: dict, template: tuple, i: int, j: int) -> None:
    """Add a template's backpointers to the cell ``(i, j)``, in order."""
    for name, idx, kind, a, b in template:
        bp = _backpointer(kind, idx, a, b, i, j)
        bps = cell.get(name)
        if bps is None:
            cell[name] = [bp]
        else:
            bps.append(bp)


def _close(tables: ParseTables, names: dict, template: list, nulls, width: int) -> None:
    """The closure of a cell, without positions: unary rules, plus binary
    rules one of whose children is a zero-width item at the cell's edge.
    ``names`` holds the cell's names so far, in order, and gains each name
    the closure adds; ``template`` gains each backpointer.  ``nulls`` are the
    names of the zero-width cell, which is ``names`` itself while the
    zero-width cell (``width`` 0) is closed.  ``width`` 1 stands for any
    cell wider than zero: a backpointer's children differ between two such
    cells only in their positions."""
    seen: set = set()
    queue = list(names)

    def add(name: str, idx: int, kind: int, a: str, b: str | None = None) -> None:
        bp = _backpointer(kind, idx, a, b, 0, width)
        if bp in seen:  # only a zero-width cell can build one twice
            return
        seen.add(bp)
        template.append((name, idx, kind, a, b))
        if name not in names:
            names[name] = None
            queue.append(name)

    while queue:
        name = queue.pop()
        for parent, idx in tables.unary.get(name, ()):
            add(parent, idx, _UNARY, name)
        for parent, right, idx in tables.binary_by_left.get(name, ()):
            if right in nulls:
                add(parent, idx, _RIGHT_NULL, name, right)
        for parent, left, idx in tables.binary_by_right.get(name, ()):
            if left in nulls:
                add(parent, idx, _LEFT_NULL, left, name)


def _closure(tables: ParseTables, seeds: tuple[str, ...]) -> tuple:
    """The closure of a cell wider than zero whose names before it are
    ``seeds``: ``(template, names after)``."""
    names = dict.fromkeys(seeds)
    template: list = []
    _close(tables, names, template, tables.null[0], 1)
    return tuple(template), tuple(names)


def _pieces(tables: ParseTables, left: tuple[str, ...], right: tuple[str, ...]) -> tuple:
    """The binary pieces over a left cell with names ``left`` and a right
    cell with names ``right``, as ``(parent, rule, left name, right name)``
    in the order a split adds them."""
    return tuple(
        (parent, idx, lname, rname)
        for lname in left
        for parent, rname, idx in tables.binary_by_left.get(lname, ())
        if rname in right
    )


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

    Apart from positions, a cell's closure depends only on the names of its
    lexical and split backpointers, and a split's pieces only on the names
    of its two cells, so the work is done once per grammar and kept on
    ``tables``: the zero-width cell, the same at every position
    (``tables.null``); the closure of each cell one word wide or more, keyed
    by those names; and the pieces of each split, keyed by its two cells'
    names.  A sentence adds a cell's lexical backpointers and places the
    rest.  Keys are names only, so the templates stay bounded whatever
    words are parsed.  Two threads that build one template on a cold
    grammar store equal values, so no lock is needed.
    """
    n = len(words)
    forest: list[dict] = [{} for _ in range(n + 1)]
    names: list[dict] = [{} for _ in range(n + 1)]  # names[i][j]: cell (i, j)'s names, in order
    lex, closures, splits = tables.lex, tables.closures, tables.splits

    for i in range(n, -1, -1):
        row, row_names = forest[i], names[i]
        ends = [i] + [
            i + width
            for width in range(1, min(tables.longest, n - i) + 1)
            if words[i : i + width] in lex
        ]
        heapq.heapify(ends)
        last = -1
        while ends:
            j = heapq.heappop(ends)
            if j == last:
                continue
            last = j
            cell = {}
            if j == i:  # the zero-width cell
                shape, template = tables.null
                if not shape:
                    continue
            else:
                for lhs, idx in lex.get(words[i:j], ()):
                    cell.setdefault(lhs, []).append((idx, ()))
                # row has no cell (i, j) yet, so k == i finds no right cell
                for k in row:
                    if j not in forest[k]:
                        continue
                    key = (row_names[k], names[k][j])
                    pieces = splits.get(key)
                    if pieces is None:
                        pieces = splits[key] = _pieces(tables, *key)
                    for parent, idx, lname, rname in pieces:
                        bp = (idx, ((lname, i, k), (rname, k, j)))
                        bps = cell.get(parent)
                        if bps is None:
                            cell[parent] = [bp]
                        else:
                            bps.append(bp)
                if not cell:
                    continue
                seeds = tuple(cell)
                closure = closures.get(seeds)
                if closure is None:
                    closure = closures[seeds] = _closure(tables, seeds)
                template, shape = closure
            _fill(cell, template, i, j)
            row[j] = cell
            row_names[j] = shape
            if j > i:
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
    language.

    Target strings of an item no wider than one word depend only on its
    name, its words and the cap, so they are kept in
    ``grammar.compiled.short_targets`` under that key for every later
    sentence.  A value is kept only while nothing in this fold has been
    truncated, so a kept value is exact and reusing it skips no overflow.
    Candidate spans depend on the candidate and are never kept."""
    words = as_words(sentence)
    g = grammar.compiled.merged
    forest = _parse(grammar.compiled.src_tables, words)
    root = (g.start, 0, len(words))
    if g.start not in forest[0].get(len(words), ()):
        raise SourceParseError(f"not a source-language sentence: {' '.join(words)!r}")
    short = grammar.compiled.short_targets if isinstance(values, _TargetStrings) else None

    value: dict = {}
    # an item is pushed with None; its first visit pushes it again with its
    # options, above its children, so its second visit finds them folded
    stack: list = [(root, None)]
    while stack:
        item, grouped = stack.pop()
        if grouped is None:
            if item in value:  # pushed twice and already folded
                continue
            name, i, j = item
            if short is not None and j - i <= 1:
                kept = short.get((name, words[i:j], values.cap))
                if kept is not None:
                    value[item] = kept
                    continue
            bps = forest[i][j][name]
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
        folded = value[item] = values.plus(options)
        name, i, j = item
        if short is not None and j - i <= 1 and not values.overflowed:
            short[name, words[i:j], values.cap] = folded
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
