"""Translation oracles: chart parsing, target enumeration, pair validation.

Both oracles work on a packed parse forest built by a CKY-style chart parser.
The grammar is binarized internally (virtual items never escape); phonetically
null terminals become zero-width chart items, so covert material (tense,
aspect, silent complementizers) parses at any position without appearing in
the input.  Grammars whose derivations could loop without consuming input are
rejected up front by :func:`~scfgkit.grammar.check_well_founded`, which
:func:`parse_tables` runs, so every forest is acyclic.  The oracles read the
merged grammar and its tables from ``grammar.compiled``, built once per
grammar object (see :mod:`scfgkit.compiled`).

:func:`translate` enumerates the distinct target yields of the source forest.
:func:`is_valid_translation` instead intersects the source forest of the
source sentence with the target forest of the candidate, so it stays
polynomial and never enumerates the translation set.

Agreement crediting: grammars with feature-indexed nonterminals (``TP_3sg``)
are merged down to their feature-free families first.  For a source language
that does not mark agreement this accepts every feature variant of the
target, matching how such pairs are scored; when the source does mark
agreement the merge changes nothing, because the source surface pins the
feature cell.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def translate(grammar: SyncGrammar, sentence, cap: int = 10_000) -> Translations:
    """All distinct target sentences the grammar pairs with ``sentence``.

    Raises :class:`SourceParseError` when the sentence is not in the source
    language.  At most ``cap`` targets are returned; ``.overflowed`` reports
    truncation.  Feature-indexed grammars are credited per the merge rule
    described in the module docstring.
    """
    words = as_words(sentence)
    g = grammar.compiled.merged
    chart = _parse(grammar.compiled.src_tables, words)
    root = (g.start, 0, len(words))
    if g.start not in chart[(0, len(words))]:
        raise SourceParseError(
            f"not a source-language sentence: {' '.join(words)!r}"
        )
    overflowed = False
    memo: dict[Item, list[tuple[str, ...]]] = {}

    def yields(item: Item) -> list[tuple[str, ...]]:
        nonlocal overflowed
        if item in memo:
            return memo[item]
        out: dict[tuple[str, ...], None] = {}
        for idx, child_lists in _grouped_options(item, chart).items():
            layout = g.rules[idx].layout["tgt"]
            for children in child_lists:
                parts = [
                    yields(children[part]) if isinstance(part, int) else [part]
                    for part in layout
                ]
                combos: list[tuple[str, ...]] = [()]
                for part in parts:
                    combos = [c + p for c in combos for p in part]
                    if len(combos) > cap:
                        overflowed = True
                        combos = combos[:cap]
                for c in combos:
                    out[c] = None
        if len(out) > cap:
            overflowed = True
        result = list(out)[:cap]
        memo[item] = result
        return result

    return Translations((" ".join(t) for t in yields(root)), overflowed)


def is_valid_translation(grammar: SyncGrammar, source, candidate) -> bool:
    """True when some synchronized derivation pairs ``source`` with
    ``candidate``.  Polynomial: intersects the two parse forests instead of
    enumerating translations.  Raises :class:`SourceParseError` when the
    source sentence itself does not parse."""
    src_words = as_words(source)
    cand_words = as_words(candidate)
    g = grammar.compiled.merged
    src_chart = _parse(grammar.compiled.src_tables, src_words)
    if g.start not in src_chart[(0, len(src_words))]:
        raise SourceParseError(
            f"not a source-language sentence: {' '.join(src_words)!r}"
        )
    tgt_chart = _parse(grammar.compiled.tgt_tables, cand_words)
    if g.start not in tgt_chart[(0, len(cand_words))]:
        return False

    memo: dict[tuple[Item, Item], bool] = {}

    def match(s_item: Item, t_item: Item) -> bool:
        key = (s_item, t_item)
        if key in memo:
            return memo[key]
        s_groups = _grouped_options(s_item, src_chart)
        t_groups = _grouped_options(t_item, tgt_chart)
        ok = False
        for idx in s_groups.keys() & t_groups.keys():
            # source-order child index of each target-side nonterminal
            align = [p for p in g.rules[idx].layout["tgt"] if isinstance(p, int)]
            for s_children in s_groups[idx]:
                for t_children in t_groups[idx]:
                    if all(
                        match(s_children[si], t_child)
                        for si, t_child in zip(align, t_children)
                    ):
                        ok = True
                        break
                if ok:
                    break
            if ok:
                break
        memo[key] = ok
        return ok

    return match(
        (g.start, 0, len(src_words)), (g.start, 0, len(cand_words))
    )
