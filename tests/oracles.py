"""Independent brute-force oracles for cross-checking the library.

The parsing oracles enumerate derivations top-down from the grammar rules,
sharing no code with the packed-forest machinery they are used to verify.
Pruning is by source length only, so these stay honest (they consider every
derivation shape) but remain feasible for short sentences.

The scoring oracles count n-grams with one ``Counter`` per sentence, order
and metric, and find the nearest gold by a pure-Python Levenshtein
(``edit_distance``, also the reference for the misspelling label) against
each member in turn.  They share only the float formulas
(``_bleu_from_stats``, ``_chrf_from_stats``) with the prefix walks over the
members in ``scfgkit.metrics`` and ``scfgkit.errors`` that they check.

The chart oracle is the all-spans CKY loop the agenda-driven
``scfgkit.parsing._parse`` replaced: it visits every span, so the forests
it builds, order included, are the reference for the parser's.  It closes
each cell in place, with positions, so it is also the reference for the
per-grammar templates the parser places.  The table
oracle indexes a grammar side from its symbols, the way
``scfgkit.parsing.parse_tables`` did before it read the rules' layouts.

The fold oracle is the memoized recursion that ``scfgkit.parsing`` replaced
with a post-order walk on an explicit stack, with the value type's unit
passed in: it reuses the parser and the value types, since only the
traversal changed, and its values, order included, are the reference for
``scfgkit.parsing._fold_targets``.

The pair-table oracle (``all_pairs``) enumerates, top-down from the rules,
each name's distinct (source, target) pairs of each exact source length,
once per name and length.

The sampling oracles are the memoized recursive counts that
``scfgkit.sampling`` replaced with a bottom-up table, and the recursive,
linearly scanning draw and yield walk it replaced with explicit stacks and
bisection, over nested ``(rule index, children)`` trees; they must give the
same counts, and equal seeds the same derivations (a tree's recursive
preorder) and yields.

The well-foundedness oracle is the check ``scfgkit.grammar.check_well_founded``
made before it found nullable names with a worklist: it rescans every rule
until a pass adds none.  Its nullable set and its ``GrammarError`` text are
the reference.

The bootstrap oracle draws all ``(n_resamples, n)`` resample indices at once,
the reference for ``scfgkit.report.bootstrap_ci``'s draw in row blocks.

Helpers that only tests call live here too: one side's CFG membership
(``recognizes``, which checks and indexes that side itself), a derivation's
yields (``src_yield``, ``tgt_yield``), a script's codepoint ranges
(``in_ranges``) and the CVC shape of a pseudo-word (``is_cvc_word``).
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache

import numpy as np

from scfgkit.grammar import GrammarError, Side, SyncGrammar, SyncRule, as_words, check_well_founded
from scfgkit.lexicon import CONSONANTS, MAX_SYLLABLES, MIN_SYLLABLES, VOWELS
from scfgkit.metrics import (
    BleuConfig,
    ScoreRecord,
    _bleu_from_stats,
    _chrf_from_stats,
    _clamp,
)
from scfgkit.parsing import (
    ParseTables,
    SourceParseError,
    _grouped_options,
    _parse,
    _virtual,
    parse_tables,
)
from scfgkit.sampling import Derivation, _children, _read_yield
from scfgkit.scripts import ScriptSpec


def min_src_lens(grammar: SyncGrammar) -> dict[str, int]:
    """Minimum source-yield length per nonterminal (fixpoint)."""
    big = 10**9
    lens = {name: big for name in grammar.nonterminals}

    def rule_min(rule: SyncRule) -> int:
        total = 0
        for sym in rule.src:
            if sym.terminal:
                total += len(sym.words())
            else:
                total += lens[sym.text]
        return total

    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            candidate = rule_min(rule)
            if candidate < lens[rule.lhs]:
                lens[rule.lhs] = candidate
                changed = True
    return lens


def _expand(grammar, lens, name: str, budget: int):
    """All (src words, tgt words) pairs derivable from ``name`` with source
    yield at most ``budget`` words."""
    for rule in grammar.rules_for(name):
        if not rule.children:
            src = rule.src[0].words()
            if len(src) <= budget:
                yield src, rule.tgt[0].words()
            continue
        src_names = [s.text for s in rule.src]
        floor = sum(lens[n] for n in src_names)
        if floor > budget:
            continue

        def walk(idx: int, used: int, parts):
            if idx == len(src_names):
                yield parts
                return
            rest_floor = sum(lens[n] for n in src_names[idx + 1 :])
            for sub in _expand(
                grammar, lens, src_names[idx], budget - used - rest_floor
            ):
                yield from walk(idx + 1, used + len(sub[0]), parts + [sub])

        for parts in walk(0, 0, []):
            by_name = dict(zip(src_names, parts))
            src = tuple(w for part in parts for w in part[0])
            tgt = []
            for sym in rule.tgt:
                if sym.terminal:
                    tgt.extend(sym.words())
                else:
                    tgt.extend(by_name[sym.text][1])
            yield src, tuple(tgt)


def count_derivations(grammar: SyncGrammar, length: int) -> int:
    """Number of derivations with exactly ``length`` source words, counted by
    enumerating every derivation (one yield of :func:`_expand` each)."""
    lens = min_src_lens(grammar)
    return sum(
        1 for src, _ in _expand(grammar, lens, grammar.start, length)
        if len(src) == length
    )


def all_pairs(grammar: SyncGrammar, length: int) -> dict[tuple[str, ...], set[str]]:
    """Every derivable (source, target set) at exactly ``length`` source words,
    built top-down from the rules: a name's distinct (source, target) pairs
    of each exact length are enumerated once, over every way to share the
    length among a rule's children, and reused wherever the name recurs."""
    lens = min_src_lens(grammar)

    @lru_cache(maxsize=None)
    def pairs(name: str, n: int) -> frozenset:
        found = set()
        for rule in grammar.rules_for(name):
            if not rule.children:
                if len(rule.src[0].words()) == n:
                    found.add((rule.src[0].words(), rule.tgt[0].words()))
                continue
            src_names = [s.text for s in rule.src]
            floors = [sum(lens[m] for m in src_names[k:]) for k in range(len(src_names) + 1)]

            def walk(idx: int, left: int, parts):
                if idx == len(src_names):
                    if left == 0:
                        yield parts
                    return
                for k in range(lens[src_names[idx]], left - floors[idx + 1] + 1):
                    for sub in pairs(src_names[idx], k):
                        yield from walk(idx + 1, left - k, parts + [sub])

            for parts in walk(0, n, []):
                by_name = dict(zip(src_names, parts))
                tgt = []
                for sym in rule.tgt:
                    tgt.extend(sym.words() if sym.terminal else by_name[sym.text][1])
                found.add((tuple(w for part in parts for w in part[0]), tuple(tgt)))
        return frozenset(found)

    table: dict[tuple[str, ...], set[str]] = {}
    for src, tgt in pairs(grammar.start, length):
        table.setdefault(src, set()).add(" ".join(tgt))
    return table


def targets_for(grammar: SyncGrammar, src_words: tuple[str, ...]) -> set[str]:
    """Target yields of every derivation whose source yield is exactly
    ``src_words``, found by prefix-constrained top-down expansion."""

    @lru_cache(maxsize=None)
    def expand(name: str, start: int, limit: int):
        """(end, tgt words) pairs for derivations of ``name`` matching
        src_words[start:end] with end <= limit."""
        results = []
        for rule in grammar.rules_for(name):
            if not rule.children:
                words = rule.src[0].words()
                end = start + len(words)
                if end <= limit and src_words[start:end] == words:
                    results.append((end, rule.tgt[0].words()))
                continue
            src_names = [s.text for s in rule.src]

            def walk(idx: int, pos: int, parts):
                if idx == len(src_names):
                    yield pos, dict(zip(src_names, parts))
                    return
                for end, tgt in expand(src_names[idx], pos, limit):
                    yield from walk(idx + 1, end, parts + [tgt])

            for end, by_name in walk(0, start, []):
                tgt = []
                for sym in rule.tgt:
                    if sym.terminal:
                        tgt.extend(sym.words())
                    else:
                        tgt.extend(by_name[sym.text])
                results.append((end, tuple(tgt)))
        return results

    n = len(src_words)
    return {
        " ".join(tgt) for end, tgt in expand(grammar.start, 0, n) if end == n
    }


# --- chart parsing -------------------------------------------------------


def recognizes(grammar: SyncGrammar, side: Side, sentence) -> bool:
    """Plain CFG membership for one side of the grammar (no feature merge),
    after that side's well-foundedness check."""
    check_well_founded(grammar, side)
    words = as_words(sentence)
    forest = _parse(parse_tables(grammar, side), words)
    return grammar.start in forest[0].get(len(words), ())


def parse_tables_from_symbols(grammar: SyncGrammar, side: Side) -> ParseTables:
    """The tables ``scfgkit.parsing.parse_tables`` must build, read from each
    rule's symbols: a side with a terminal is lexical, keyed by its words."""
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
    longest = max(map(len, lex), default=0)
    return ParseTables(lex, unary, by_left, by_right, longest)


def parse_all_spans(tables: ParseTables, words: tuple[str, ...]) -> list[dict]:
    """The forest ``scfgkit.parsing._parse`` must build, made by visiting
    every span, width by width and start by start: ``forest[i]`` maps each
    end ``j`` (rising) to the cell ``{name: [(rule, children), ...]}`` of span
    ``(i, j)``, for the spans where some name parses."""
    n = len(words)
    forest: list[dict] = [{} for _ in range(n + 1)]

    for width in range(0, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
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
    return forest


def fold_targets_recursive(grammar: SyncGrammar, sentence, values, one):
    """The fold ``scfgkit.parsing._fold_targets`` must compute, by recursing
    once per forest level from the root: an option multiplies its target
    layout's parts onto ``one``, and an item adds its options in chart order."""
    words = as_words(sentence)
    g = grammar.compiled.merged
    forest = _parse(grammar.compiled.src_tables, words)
    if g.start not in forest[0].get(len(words), ()):
        raise SourceParseError(f"not a source-language sentence: {' '.join(words)!r}")
    memo: dict = {}

    def value(item):
        if item not in memo:
            options = []
            for idx, child_lists in _grouped_options(item, forest).items():
                layout = g.rules[idx].layout["tgt"]
                for children in child_lists:
                    acc = one
                    for part in layout:
                        part_value = value(children[part]) if isinstance(part, int) else values.words(part)
                        acc = values.times(acc, part_value)
                    options.append(acc)
            memo[item] = values.plus(options)
        return memo[item]

    return value((g.start, 0, len(words)))


# --- sampling ---------------------------------------------------------------


Tree = tuple  # (rule index, tuple of subtrees in source order)


class RecursiveSampler:
    """Derivation counts by memoized recursion, the way ``scfgkit.sampling``
    counted before it filled its table bottom-up, with its own rule index
    and memo tables.

    The start symbol is counted at each shorter length first, in rising
    order, so one count recurses through one length's worth of cells."""

    def __init__(self, grammar: SyncGrammar):
        self.grammar = grammar
        self.nullable = grammar.compiled.nullable
        # lhs -> [(rule index, child names, fixed count of source words)]
        self.rules: dict[str, list[tuple[int, tuple[str, ...], int]]] = {}
        for i, r in enumerate(grammar.rules):
            words = sum(len(p) for p in r.layout["src"] if not isinstance(p, int))
            self.rules.setdefault(r.lhs, []).append((i, r.children, words))
        self.counts: dict[tuple[str, int], int] = {}
        self.seq_counts: dict[tuple[tuple[str, ...], int], int] = {}

    def count(self, name: str, length: int) -> int:
        for shorter in range(length):
            self._count(name, shorter)
        return self._count(name, length)

    def _count(self, name: str, length: int) -> int:
        if length < 0 or (length == 0 and name not in self.nullable):
            return 0
        key = (name, length)
        if key not in self.counts:
            self.counts[key] = sum(
                self.count_seq(names, length - words) for _, names, words in self.rules.get(name, ())
            )
        return self.counts[key]

    def count_seq(self, names: tuple[str, ...], length: int) -> int:
        if length < 0:
            return 0
        if not names:
            return 1 if length == 0 else 0
        if len(names) == 1:
            return self._count(names[0], length)
        key = (names, length)
        if key not in self.seq_counts:
            self.seq_counts[key] = sum(weight for _, weight in self.head_splits(names, length))
        return self.seq_counts[key]

    def head_splits(self, names: tuple[str, ...], length: int):
        """(words of the first name, derivations of ``names`` at ``length``)
        for each split with derivations.  The rest may take no words only if
        all of it is nullable, tested before the first name is counted at the
        full length: same-length recursion stays on the checked edges."""
        head, rest = names[0], names[1:]
        top = length if self.nullable.issuperset(rest) else length - 1
        for l in range(top + 1):
            head_count = self._count(head, l)
            if head_count:
                yield l, head_count * self.count_seq(rest, length - l)

    def draw_split(self, names: tuple[str, ...], length: int, rng) -> list[int]:
        """Split ``length`` over ``names`` with probability proportional to the
        number of derivations under each split, scanning the splits."""
        lengths: list[int] = []
        remaining = length
        for i in range(len(names) - 1):
            pick = rng.randrange(self.count_seq(names[i:], remaining))
            for l, weight in self.head_splits(names[i:], remaining):
                if pick < weight:
                    lengths.append(l)
                    remaining -= l
                    break
                pick -= weight
            else:
                raise AssertionError("split weights out of sync")
        if names:
            lengths.append(remaining)
        return lengths


def draw_recursive(sampler: RecursiveSampler, name: str, length: int, rng) -> Tree:
    """Draw a derivation of ``name`` at ``length`` as a nested
    ``(rule index, children)`` tree, recursing once per level and scanning
    the reference sampler's rules and splits."""
    pick = rng.randrange(sampler.count(name, length))
    for idx, names, words in sampler.rules.get(name, ()):
        weight = sampler.count_seq(names, length - words)
        if pick < weight:
            lengths = sampler.draw_split(names, length - words, rng)
            return idx, tuple(draw_recursive(sampler, c, l, rng) for c, l in zip(names, lengths))
        pick -= weight
    raise AssertionError("counts out of sync with rules")


def check_well_founded_fixpoint(grammar: SyncGrammar, side: Side) -> frozenset[str]:
    """The nullable names of ``side``, found by rescanning every rule until a
    pass adds none, then the same edge check and error as
    ``check_well_founded``."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for r in grammar.rules:
            if r.lhs in nullable:
                continue
            if all(
                r.children[p] in nullable if isinstance(p, int) else not p
                for p in r.layout[side]
            ):
                nullable.add(r.lhs)
                changed = True
    edges: dict[str, set[str]] = {}
    for r in grammar.rules:
        if not r.children:
            continue
        names = [r.children[p] for p in r.layout[side]]
        for i, name in enumerate(names):
            others = names[:i] + names[i + 1 :]
            if all(o in nullable for o in others):
                edges.setdefault(r.lhs, set()).add(name)
    while edges:
        peeled = [a for a, bs in edges.items() if not bs & edges.keys()]
        if not peeled:
            raise GrammarError(
                f"grammar admits unbounded derivations without consuming {side} "
                f"input, through {', '.join(sorted(edges))}"
            )
        for a in peeled:
            del edges[a]
    return frozenset(nullable)


def preorder_recursive(tree: Tree) -> Derivation:
    idx, children = tree
    return (idx,) + tuple(i for child in children for i in preorder_recursive(child))


def src_yield(grammar: SyncGrammar, tree: Derivation) -> tuple[str, ...]:
    return _read_yield(grammar.rules, tree, _children(grammar.rules, tree), "src")


def tgt_yield(grammar: SyncGrammar, tree: Derivation) -> tuple[str, ...]:
    return _read_yield(grammar.rules, tree, _children(grammar.rules, tree), "tgt")


def walk_yield_recursive(grammar: SyncGrammar, tree: Tree, side: Side) -> tuple[str, ...]:
    idx, children = tree
    out: list[str] = []
    for part in grammar.rules[idx].layout[side]:
        if isinstance(part, int):
            out.extend(walk_yield_recursive(grammar, children[part], side))
        else:
            out.extend(part)
    return tuple(out)


# --- scoring ----------------------------------------------------------------


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_stats(cand_words, gold_words):
    """(overlap, candidate count) per word order 1..4."""
    correct = [0] * 4
    total = [0] * 4
    gold_counts = [_ngram_counts(gold_words, n + 1) for n in range(4)]
    for n in range(4):
        cand_counts = _ngram_counts(cand_words, n + 1)
        total[n] = sum(cand_counts.values())
        correct[n] = sum((cand_counts & gold_counts[n]).values())
    return correct, total


def _chrf_order_stats(cand, gold):
    """(cand count, gold count, overlap) per order: character orders 1..6
    first, then word orders 1..2."""
    cand_words = as_words(cand)
    gold_words = as_words(gold)
    cand_chars = "".join(cand_words)
    gold_chars = "".join(gold_words)
    stats = []
    for n in range(1, 7):
        c = _ngram_counts(cand_chars, n)
        g = _ngram_counts(gold_chars, n)
        stats.append((sum(c.values()), sum(g.values()), sum((c & g).values())))
    for n in range(1, 3):
        c = _ngram_counts(cand_words, n)
        g = _ngram_counts(gold_words, n)
        stats.append((sum(c.values()), sum(g.values()), sum((c & g).values())))
    return stats


def bag_of_words(cand, gold) -> int:
    return int(Counter(as_words(cand)) == Counter(as_words(gold)))


def bleu(cand, gold, cfg: BleuConfig | None = None) -> float:
    cfg = cfg or BleuConfig()
    cand_words = as_words(cand)
    gold_words = as_words(gold)
    correct, total = _bleu_stats(cand_words, gold_words)
    return _clamp(_bleu_from_stats(correct, total, len(cand_words), len(gold_words), cfg))


def chrfpp(cand, gold) -> float:
    return _clamp(_chrf_from_stats(_chrf_order_stats(cand, gold)))


def score_candidate(cand, golds, bleu_cfg=None) -> ScoreRecord:
    """One Counter-based BLEU and chrF++ per gold, maximized over the set."""
    golds = [as_words(g) for g in golds]
    words = as_words(cand)
    return ScoreRecord(
        exact=int(any(words == g for g in golds)),
        bag_of_words=max(bag_of_words(cand, g) for g in golds),
        bleu=max(bleu(cand, g, bleu_cfg) for g in golds),
        chrfpp=max(chrfpp(cand, g) for g in golds),
    )


def edit_distance(a, b, limit: int | None = None) -> int:
    """Levenshtein distance over any sequences; stops early past ``limit``."""
    if len(a) < len(b):
        a, b = b, a
    if limit is not None and len(a) - len(b) > limit:
        return limit + 1
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (x != y))
            )
        if limit is not None and min(current) > limit:
            return limit + 1
        previous = current
    return previous[-1]


def nearest_gold(cand_words, golds) -> tuple[str, ...]:
    """The gold member at minimum word-level edit distance: the first with
    the candidate's words in some order, else the first of those sharing the
    most words with it, each word counted as often as both have it."""
    members = [as_words(g) for g in golds]
    distances = [edit_distance(cand_words, g) for g in members]
    tied = [g for g, d in zip(members, distances) if d == min(distances)]
    same = [g for g in tied if sorted(g) == sorted(cand_words)]
    if same:
        return same[0]
    shared = [sum(min(g.count(w), cand_words.count(w)) for w in set(g)) for g in tied]
    return tied[shared.index(max(shared))]


def bootstrap_ci(values, n_resamples: int = 10_000, seed: int = 0):
    """95% percentile bootstrap interval for the mean, from one index draw."""
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    tail = (1.0 - 0.95) / 2.0
    low, high = np.quantile(means, [tail, 1.0 - tail])
    lo_bound, hi_bound = arr.min(), arr.max()
    return float(np.clip(low, lo_bound, hi_bound)), float(np.clip(high, lo_bound, hi_bound))


# --- words and scripts ------------------------------------------------------

_CVC_RE = re.compile(f"(?:[{CONSONANTS}][{VOWELS}][{CONSONANTS}])+\\Z")


def is_cvc_word(word: str, min_syllables: int = MIN_SYLLABLES, max_syllables: int = MAX_SYLLABLES) -> bool:
    if not _CVC_RE.match(word):
        return False
    return min_syllables <= len(word) // 3 <= max_syllables


def in_ranges(spec: ScriptSpec, char: str) -> bool:
    cp = ord(char)
    return any(lo <= cp <= hi for lo, hi in spec.base_ranges + spec.diacritic_ranges)
