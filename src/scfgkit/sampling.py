"""Uniform sampling of gold sentence pairs at an exact source length.

For a grammar and a requested source length, the sampler counts the
derivations of every (nonterminal, length) cell with exact big-integer
arithmetic, then draws a derivation uniformly by walking the counts top
down.  No rejection is involved, so hitting a rare length costs the same as
hitting a common one, and equal seeds always reproduce the same pair.

Lengths are counted in surface words of the source side: a multi-word
terminal contributes each of its words, a phonetically null terminal
contributes nothing.

Counts are filled bottom-up, one whole length at a time, at any length the
start symbol can reach.  Each name, and each suffix of two or more of a
rule's children, has a list of exact integer counts indexed by length (they
pass 2**63 by length 30, so no fixed-width array holds them).  A suffix's
count is a sum over the words its first name takes, of the first name's
count times the rest's.  Within one length a cell reads other cells at that
length only along the edges that the one source check of
``grammar.compiled.nullable`` proved acyclic, so the cells are written in
one topological order fixed when the sampler is built.  That
check also rejects grammars whose counts would be infinite (a nonterminal
deriving itself without consuming source words).

One method gives the weights of a cell's choices at a length, in draw
order: a name's rules, and a suffix's splits at the lengths where its
first name's count is nonzero, a list per cell that the fill appends to.
So a first name that takes one or two words costs one or two products at
every length, filled or drawn, and on a finite grammar a length no
derivation reaches costs little however long.  A fill sums a suffix's
weights into its count; a name's count sums its rules grouped by
(children's cell, fixed words), each group's count times its number of
rules, the same total with one term for a name's many one-word lexical
rules.  A draw picks each rule, and then where each of its children's
suffixes splits, with one ``randrange`` below the count and a bisection
of the weights' running total, kept once built for a (cell, length).

``grammar.compiled.sampler`` is shared by threads.  A fill holds the
sampler's lock while it writes counts and supports, and a length becomes
readable only once every cell at it is written, so reading filled counts
takes no lock.  Cumulative weights are built without it: two threads
building the same ones store equal lists.

A derivation is the tuple of its rules' indices in preorder, children in
source order; each rule's arity comes from the grammar.  Drawing one and
reading its yields keep explicit stacks, and a tuple of ints compares,
hashes, prints and pickles flat, so a derivation of any depth (a
right-recursive rule repeated thousands of times) is handled without
recursion.  Reading a yield needs each node's children, found in one pass
over the preorder; :func:`sample_pair` finds them once and reads both
yields from that one index.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from dataclasses import dataclass
from graphlib import TopologicalSorter
from itertools import accumulate

from .grammar import Side, SyncGrammar, SyncRule


class LengthError(ValueError):
    """No derivation exists at the requested source length."""


Derivation = tuple[int, ...]
"""A derivation: its rules' indices in preorder, children in source order."""

_EMPTY = 0  # the cell of the empty sequence: one derivation, of no words


@dataclass(frozen=True)
class SentencePair:
    """A gold pair: the two surface yields of one derivation."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    tree: Derivation

    @property
    def len_src(self) -> int:
        return len(self.source)

    @property
    def len_tgt(self) -> int:
        return len(self.target)


def _children(rules: tuple[SyncRule, ...], tree: Derivation) -> list[list[int]]:
    """Each node's children, as preorder positions in source order.

    One pass right to left: the subtrees already read wait on a stack, next
    child on top, and a node of arity k takes the top k.  Raises
    ``ValueError`` when ``tree`` is not the preorder of one derivation."""
    children: list[list[int]] = [[]] * len(tree)
    subtrees: list[int] = []
    for pos in range(len(tree) - 1, -1, -1):
        arity = len(rules[tree[pos]].children)
        if arity > len(subtrees):
            raise ValueError("not the preorder of one derivation")
        if arity:
            children[pos] = subtrees[: -arity - 1 : -1]
            del subtrees[-arity:]
        subtrees.append(pos)
    if len(subtrees) != 1:
        raise ValueError("not the preorder of one derivation")
    return children


def _read_yield(
    rules: tuple[SyncRule, ...], tree: Derivation, children: list[list[int]], side: Side
) -> tuple[str, ...]:
    """The words of ``side`` under ``tree``, given its :func:`_children`.

    The stack holds the nodes (preorder positions) and word runs still to
    read, next on top, so any depth of tree can be read."""
    out: list[str] = []
    stack: list[int | tuple[str, ...]] = [0]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            out.extend(item)
            continue
        for part in reversed(rules[tree[item]].layout[side]):
            stack.append(children[item][part] if isinstance(part, int) else part)
    return tuple(out)


class Sampler:
    """Count tables and uniform draws for one grammar.

    Counts are filled bottom-up, one length at a time, in a same-length
    order fixed here.  A grammar whose source side admits unbounded
    derivations (a unary or null-only cycle) would make counts infinite;
    the constructor rejects it with :class:`GrammarError`, raised by the
    grammar's compiled source-side check.
    """

    def __init__(self, grammar: SyncGrammar):
        self.grammar = grammar
        nullable = grammar.compiled.nullable
        # a cell is the empty sequence, a name or a suffix of two or more of
        # a rule's children; _cells maps each to its id
        self._cells: dict[tuple[str, ...] | str, int] = {(): _EMPTY}
        # name cell -> [(rule index, children's cell, fixed count of source words)]
        self._rules: list[list[tuple[int, int, int]]] = [[]]
        # suffix cell -> (head cell, rest cell, head_min, rest_min): the
        # fewest words the head and the rest take in a split, 0 if nullable
        # else 1, so a split reads a cell at its own length only where the
        # order below writes that cell first
        self._splits: list[tuple[int, int, int, int] | None] = [None]
        for i, r in enumerate(grammar.rules):
            # the nullable check took validated rules: lexical, or names only
            if r.children:
                children = r.children[0] if len(r.children) == 1 else r.children
                child, words = self._cell(children, nullable), 0
            else:
                child, words = _EMPTY, sum(map(len, r.layout["src"]))
            self._rules[self._cell(r.lhs, nullable)].append((i, child, words))
        self._start = self._cell(grammar.start, nullable)
        # same-length reads: a name reads its rules' children without fixed
        # words; a suffix reads its head when its rest is nullable and its
        # rest when its head is nullable.  These follow the edges
        # check_well_founded proved acyclic.
        reads: dict[int, set[int]] = {}
        for cell, (rules, split) in enumerate(zip(self._rules, self._splits)):
            if split is None:
                reads[cell] = {child for _, child, words in rules if not words}
            else:
                head, rest, head_min, rest_min = split
                reads[cell] = {c for c, free in ((head, not rest_min), (rest, not head_min)) if free}
        self._order = [c for c in TopologicalSorter(reads).static_order() if c != _EMPTY]
        self._table: list[list[int]] = [[] for _ in self._splits]
        # name cell -> its rules grouped by (children's cell, fixed words),
        # as (children's counts, words, number of rules): a fill sums the
        # groups, so a name's many one-word lexical rules are one term
        self._groups: list[list[tuple[list[int], int, int]]] = []
        for rules in self._rules:
            group: dict[tuple[int, int], int] = {}
            for _, child, words in rules:
                group[child, words] = group.get((child, words), 0) + 1
            self._groups.append([(self._table[c], w, n) for (c, w), n in group.items()])
        # each cell's lengths of nonzero count, rising, appended as the fill
        # writes them: a suffix weighs only its head's
        self._support: list[list[int]] = [[] for _ in self._splits]
        # lengths below _filled are written in every cell; only _fill,
        # holding _lock, writes the table and the supports
        self._filled = 0
        self._lock = threading.Lock()
        self._cumulative_at: list[dict[int, list[int]]] = [{} for _ in self._splits]

    def _cell(self, key: tuple[str, ...] | str, nullable: frozenset[str]) -> int:
        """The id of a cell, made on first use (a suffix's head and rest
        before it)."""
        if key in self._cells:
            return self._cells[key]
        split = None
        if isinstance(key, tuple):
            rest = key[1:] if len(key) > 2 else key[1]
            split = (
                self._cell(key[0], nullable),
                self._cell(rest, nullable),
                int(key[0] not in nullable),
                int(not nullable.issuperset(key[1:])),
            )
        self._cells[key] = len(self._splits)
        self._rules.append([])
        self._splits.append(split)
        return self._cells[key]

    # --- counting ---------------------------------------------------------

    def count(self, length: int) -> int:
        """Number of derivations whose source yield has exactly ``length`` words."""
        if length < 0:
            return 0
        if length >= self._filled:
            with self._lock:
                self._fill(length)
        return self._table[self._start][length]

    def _fill(self, top: int) -> None:
        """Write every cell at each length up to ``top`` not yet written, and
        the lengths of nonzero count to its support.

        Within a length, cells go in the fixed order, so each reads only
        cells at shorter lengths or already written at this one.  A name
        sums its groups of rules; a suffix sums its :meth:`_weights`."""
        table, groups, splits, weights = self._table, self._groups, self._splits, self._weights
        support = self._support
        for length in range(self._filled, top + 1):
            table[_EMPTY].append(int(length == 0))
            for cell in self._order:
                if splits[cell] is None:
                    count = 0
                    for counts, words, n in groups[cell]:
                        if words <= length:
                            count += n * counts[length - words]
                else:
                    count = sum(weights(cell, length))
                table[cell].append(count)
                if count:
                    support[cell].append(length)
            self._filled = length + 1

    def _weights(self, cell: int, length: int):
        """The weights of the choices at (``cell``, ``length``) in draw order:
        a name's rules, each its children's count at the words its own leave;
        a suffix's head lengths, those in the head's support up to the length
        that leaves the rest its fewest words, each head count times rest
        count.  A head length left out has weight 0, and a support only
        grows, so a suffix's i-th weight is at its head's i-th support
        length."""
        table = self._table
        split = self._splits[cell]
        if split is None:
            return (
                table[child][length - words] if words <= length else 0
                for _, child, words in self._rules[cell]
            )
        head, rest, _, rest_min = split
        heads, rests, support = table[head], table[rest], self._support[head]
        return (heads[h] * rests[length - h] for h in support[: bisect_right(support, length - rest_min)])

    def achievable_lengths(self, lo: int = 1, hi: int = 60) -> list[int]:
        return [l for l in range(lo, hi + 1) if self.count(l) > 0]

    # --- drawing ----------------------------------------------------------

    def _cumulative(self, cell: int, length: int) -> list[int]:
        """The running total of :meth:`_weights` at a filled (cell, length),
        whose last entry is the cell's count.  Built once per key and kept; a
        racing build stores an equal list.

        The choices after the last one of positive weight are cut off, as a
        bisection below the total never reaches them."""
        at = self._cumulative_at[cell]
        if length not in at:
            cumulative = list(accumulate(self._weights(cell, length)))
            del cumulative[cumulative.index(cumulative[-1]) + 1 :]
            at[length] = cumulative
        return at[length]

    def sample_tree(self, length: int, rng: random.Random) -> Derivation:
        """Draw a derivation uniformly among those of ``length`` source words.

        Choosing each step proportionally to the derivation counts below it
        makes the whole draw exactly uniform: the step probabilities telescope
        to 1/count(length).  Each rule, then each split of its children
        between the first name and the rest, is picked with one
        ``rng.randrange`` over the total weight and a bisection of the
        cumulative weights; a split's pick indexes the head's support.

        Nodes are drawn in preorder without recursion: the stack holds the
        (cell, length) of the children still to draw, next on top, and each
        node's split is drawn right after its rule, before its first child."""
        if self.count(length) == 0:
            near = self.achievable_lengths(1, length + 10)
            closest = sorted(near, key=lambda l: abs(l - length))[:6]
            raise LengthError(
                f"no derivation with source length {length}; "
                f"nearest achievable lengths: {sorted(closest) or 'none'}"
            )
        rules, splits, support, cumulative = self._rules, self._splits, self._support, self._cumulative
        randrange = rng.randrange
        preorder: list[int] = []
        pending = [(self._start, length)]
        while pending:
            cell, length = pending.pop()
            weights = cumulative(cell, length)
            idx, child, words = rules[cell][bisect_right(weights, randrange(weights[-1]))]
            preorder.append(idx)
            length -= words
            children: list[tuple[int, int]] = []
            while (split := splits[child]) is not None:
                weights = cumulative(child, length)
                head_length = support[split[0]][bisect_right(weights, randrange(weights[-1]))]
                children.append((split[0], head_length))
                child, length = split[1], length - head_length
            if child != _EMPTY:
                children.append((child, length))
            pending.extend(reversed(children))
        return tuple(preorder)


def sample_pair(grammar: SyncGrammar, target_len_src: int, rng_seed: int) -> SentencePair:
    """Draw one gold pair whose source has exactly ``target_len_src`` words.

    Uniform over derivations of that source length; deterministic in the
    seed.  Raises :class:`LengthError` when the length is unreachable.
    """
    if target_len_src < 1:
        raise ValueError("target_len_src must be at least 1")
    tree = grammar.compiled.sampler.sample_tree(target_len_src, random.Random(rng_seed))
    rules = grammar.rules
    children = _children(rules, tree)
    return SentencePair(
        _read_yield(rules, tree, children, "src"), _read_yield(rules, tree, children, "tgt"), tree
    )
