"""Uniform sampling of gold sentence pairs at an exact source length.

For a grammar and a requested source length, the sampler counts the
derivations of every (nonterminal, length) cell with exact big-integer
arithmetic, then draws a derivation uniformly by walking the counts top
down.  No rejection is involved, so hitting a rare length costs the same as
hitting a common one, and equal seeds always reproduce the same pair.

Lengths are counted in surface words of the source side: a multi-word
terminal contributes each of its words, a phonetically null terminal
contributes nothing.

Grammars whose counts would be infinite (a nonterminal deriving itself
without consuming source words) are rejected up front by the one source
check of ``grammar.compiled.nullable("src")``; the sampler takes no nullable
set of its own.  Counting then recurses at one length only along edges that
check proved acyclic, so it needs no cycle detection of its own, and a
sampler shared by threads needs no lock: a memo key only ever receives one
value.

Counting works at any length the start symbol can reach: before the start
symbol is counted at a new length, it is counted at each shorter length in
rising order, so one count recurses through one length's worth of cells
rather than one call level per word.

A derivation is the tuple of its rules' indices in preorder, children in
source order; each rule's arity comes from the grammar.  Drawing one and
reading its yields keep explicit stacks, and a tuple of ints compares,
hashes, prints and pickles flat, so a derivation of any depth (a
right-recursive rule repeated thousands of times) is handled without
recursion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .grammar import Side, SyncGrammar


class LengthError(ValueError):
    """No derivation exists at the requested source length."""


Derivation = tuple[int, ...]
"""A derivation: its rules' indices in preorder, children in source order."""


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


def src_yield(grammar: SyncGrammar, tree: Derivation) -> tuple[str, ...]:
    return _walk_yield(grammar, tree, "src")


def tgt_yield(grammar: SyncGrammar, tree: Derivation) -> tuple[str, ...]:
    return _walk_yield(grammar, tree, "tgt")


def _walk_yield(grammar: SyncGrammar, tree: Derivation, side: Side) -> tuple[str, ...]:
    """The words of ``side`` under ``tree``.

    One pass right to left finds each node's children: the subtrees already
    read wait on a stack, next child on top, and a node of arity k takes the
    top k.  The walk's stack then holds the nodes (preorder positions) and
    word runs still to read, next on top, so any depth of tree can be read."""
    rules = grammar.rules
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

    Counting is memoized per (nonterminal, length).  A grammar whose source
    side admits unbounded derivations (a unary or null-only cycle) would make
    counts infinite; the constructor rejects it with :class:`GrammarError`,
    raised by the grammar's compiled source-side check.
    """

    def __init__(self, grammar: SyncGrammar):
        self.grammar = grammar
        self._nullable = grammar.compiled.nullable("src")
        # lhs -> [(rule index, child names, fixed count of source words)]
        self._rules: dict[str, list[tuple[int, tuple[str, ...], int]]] = {}
        for i, r in enumerate(grammar.rules):
            words = sum(len(p) for p in r.layout["src"] if not isinstance(p, int))
            self._rules.setdefault(r.lhs, []).append((i, r.children, words))
        self._counts: dict[tuple[str, int], int] = {}
        self._seq_counts: dict[tuple[tuple[str, ...], int], int] = {}
        # the start symbol is counted at every shorter length; a racing
        # thread may lower it, which only re-reads memoized counts
        self._counted = 0

    # --- counting ---------------------------------------------------------

    def count(self, length: int) -> int:
        """Number of derivations whose source yield has exactly ``length`` words.

        The start symbol is first counted at each shorter length not yet
        counted, in rising order, which bounds the recursion of this count."""
        for shorter in range(self._counted, length):
            self._count(self.grammar.start, shorter)
        self._counted = max(self._counted, length)
        return self._count(self.grammar.start, length)

    def _count(self, name: str, length: int) -> int:
        if length < 0 or (length == 0 and name not in self._nullable):
            return 0
        key = (name, length)
        if key in self._counts:
            return self._counts[key]
        total = sum(
            self._count_seq(names, length - words) for _, names, words in self._rules.get(name, ())
        )
        self._counts[key] = total
        return total

    def _count_seq(self, names: tuple[str, ...], length: int) -> int:
        if length < 0:
            return 0
        if not names:
            return 1 if length == 0 else 0
        if len(names) == 1:
            return self._count(names[0], length)
        key = (names, length)
        if key in self._seq_counts:
            return self._seq_counts[key]
        total = sum(weight for _, weight in self._head_splits(names, length))
        self._seq_counts[key] = total
        return total

    def _head_splits(self, names: tuple[str, ...], length: int):
        """(words of the first name, derivations of ``names`` at ``length``)
        for each split with derivations.  The rest may take no words only if
        all of it is nullable, tested before the first name is counted at the
        full length: same-length recursion stays on the checked edges."""
        head, rest = names[0], names[1:]
        top = length if self._nullable.issuperset(rest) else length - 1
        for l in range(top + 1):
            head_count = self._count(head, l)
            if head_count:
                yield l, head_count * self._count_seq(rest, length - l)

    def achievable_lengths(self, lo: int = 1, hi: int = 60) -> list[int]:
        return [l for l in range(lo, hi + 1) if self.count(l) > 0]

    # --- drawing ----------------------------------------------------------

    def sample_tree(self, length: int, rng: random.Random) -> Derivation:
        if self.count(length) == 0:
            near = self.achievable_lengths(1, length + 10)
            closest = sorted(near, key=lambda l: abs(l - length))[:6]
            raise LengthError(
                f"no derivation with source length {length}; "
                f"nearest achievable lengths: {sorted(closest) or 'none'}"
            )
        return self._draw(self.grammar.start, length, rng)

    def _draw(self, name: str, length: int, rng: random.Random) -> Derivation:
        """Choosing each step proportionally to the derivation counts below it
        makes the whole draw exactly uniform: the step probabilities telescope
        to 1/count(name, length).

        Nodes are drawn in preorder without recursion: the stack holds the
        (name, length) of the children still to draw, next on top, and each
        node's split is drawn right after its rule, before its first child."""
        preorder: list[int] = []
        pending = [(name, length)]
        while pending:
            name, length = pending.pop()
            pick = rng.randrange(self._count(name, length))
            for idx, names, words in self._rules.get(name, ()):
                weight = self._count_seq(names, length - words)
                if pick < weight:
                    break
                pick -= weight
            else:
                raise AssertionError("counts out of sync with rules")
            preorder.append(idx)
            lengths = self._draw_split(names, length - words, rng)
            pending.extend(reversed(list(zip(names, lengths))))
        return tuple(preorder)

    def _draw_split(self, names: tuple[str, ...], length: int, rng: random.Random) -> list[int]:
        """Split ``length`` over ``names`` with probability proportional to the
        number of derivations under each split."""
        lengths: list[int] = []
        remaining = length
        for i in range(len(names) - 1):
            pick = rng.randrange(self._count_seq(names[i:], remaining))
            for l, weight in self._head_splits(names[i:], remaining):
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


def sample_pair(grammar: SyncGrammar, target_len_src: int, rng_seed: int) -> SentencePair:
    """Draw one gold pair whose source has exactly ``target_len_src`` words.

    Uniform over derivations of that source length; deterministic in the
    seed.  Raises :class:`LengthError` when the length is unreachable.
    """
    if target_len_src < 1:
        raise ValueError("target_len_src must be at least 1")
    tree = grammar.compiled.sampler.sample_tree(target_len_src, random.Random(rng_seed))
    return SentencePair(src_yield(grammar, tree), tgt_yield(grammar, tree), tree)
