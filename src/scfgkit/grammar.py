"""Synchronous context-free grammars and their line-oriented text format.

A synchronous CFG (SCFG) pairs two context-free grammars rule by rule, so
that every derivation simultaneously produces a source string and a target
string.  Grammars are written one rule per line::

    S -> <NP VP, NP VP>             # non-lexical: both sides all nonterminals
    NP -> <'I', 'watashi wa'>       # lexical: one quoted terminal per side

The right-hand side is a pair in angle brackets; the first element expands
the left-hand side in the source language, the second in the target
language.  Non-lexical rules must use the same set of nonterminals on both
sides (possibly in a different order); a nonterminal may appear at most once
per side, so the alignment between sides is implied by name.  Terminal
surfaces whose text begins with the null mark U+2205 are phonetically null:
they occupy a grammatical position but contribute no surface words.

Parsing keeps each side's original spelling (spacing included) on the rule,
so ``serialize_grammar(parse_grammar_text(text))`` reproduces ``text``
byte for byte.  Structural equality ignores the remembered spelling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:
    from .compiled import CompiledGrammar

NULL_MARK = "∅"

Side = Literal["src", "tgt"]

_NT_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RULE_RE = re.compile(r"(?P<lhs>\S+)\s*->\s*<(?P<rhs>.*)>\s*\Z")


class GrammarError(ValueError):
    """A grammar violates the format or a structural invariant."""


@dataclass(frozen=True)
class Symbol:
    """One right-hand-side symbol: a nonterminal name or a terminal surface."""

    text: str
    terminal: bool

    @property
    def null(self) -> bool:
        """True for phonetically null terminals (surface starts with U+2205)."""
        return self.terminal and self.text.startswith(NULL_MARK)

    def words(self) -> tuple[str, ...]:
        """Surface words this symbol contributes (empty for nonterminals/nulls)."""
        if not self.terminal or self.null:
            return ()
        return tuple(self.text.split())


def nonterminal(name: str) -> Symbol:
    return Symbol(name, terminal=False)


def terminal(surface: str) -> Symbol:
    return Symbol(surface, terminal=True)


@dataclass(frozen=True)
class SyncRule:
    """One synchronous rule.  ``src``/``tgt`` are the two right-hand sides.

    ``src_text``/``tgt_text`` remember the side's original spelling from the
    text format (or a preferred spelling chosen by a generator); they are
    ignored by equality and hashing.
    """

    lhs: str
    src: tuple[Symbol, ...]
    tgt: tuple[Symbol, ...]
    src_text: str | None = field(default=None, compare=False)
    tgt_text: str | None = field(default=None, compare=False)

    def side(self, side: Side) -> tuple[Symbol, ...]:
        return self.src if side == "src" else self.tgt

    @cached_property
    def children(self) -> tuple[str, ...]:
        """Source-side nonterminals in order: a derivation node's subtrees."""
        return tuple(s.text for s in self.src if not s.terminal)

    @cached_property
    def layout(self) -> dict[Side, tuple[tuple[str, ...] | int, ...]]:
        """Per side, each right-hand-side symbol as its surface words or, for a
        nonterminal, the index of its first occurrence in :attr:`children`."""
        index: dict[str, int] = {}
        src: list[tuple[str, ...] | int] = []
        child = 0
        for s in self.src:
            if s.terminal:
                src.append(s.words())
            else:
                src.append(index.setdefault(s.text, child))
                child += 1
        return {"src": tuple(src), "tgt": tuple(s.words() if s.terminal else index[s.text] for s in self.tgt)}


@dataclass(frozen=True)
class SyncGrammar:
    """An SCFG: a start symbol and an ordered tuple of rules."""

    start: str
    rules: tuple[SyncRule, ...]

    @cached_property
    def nonterminals(self) -> frozenset[str]:
        names = {r.lhs for r in self.rules}
        for r in self.rules:
            names.update(s.text for s in r.src + r.tgt if not s.terminal)
        return frozenset(names)

    @cached_property
    def compiled(self) -> CompiledGrammar:
        """The state derived from this grammar (text, merged grammar, parse
        tables, sampler, word vocabularies), built on first use and kept here."""
        from .compiled import CompiledGrammar

        return CompiledGrammar(self)

    @cached_property
    def _by_lhs(self) -> dict[str, tuple[SyncRule, ...]]:
        table: dict[str, list[SyncRule]] = {}
        for r in self.rules:
            table.setdefault(r.lhs, []).append(r)
        return {lhs: tuple(rs) for lhs, rs in table.items()}

    def rules_for(self, lhs: str) -> tuple[SyncRule, ...]:
        return self._by_lhs.get(lhs, ())

    def reachable(self) -> frozenset[str]:
        """Nonterminals reachable from the start symbol."""
        seen: set[str] = set()
        stack = [self.start]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            for r in self.rules_for(name):
                for sym in r.src + r.tgt:
                    if not sym.terminal and sym.text not in seen:
                        stack.append(sym.text)
        return frozenset(seen)


def as_words(sentence: str | tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """Normalize a sentence given as a string or word sequence to a word tuple."""
    if isinstance(sentence, str):
        return tuple(sentence.split())
    return tuple(sentence)


def word_vocab(grammar: SyncGrammar, side: Side) -> frozenset[str]:
    """All surface words on one side (multi-word terminals split, nulls dropped)."""
    return grammar.compiled.words[side]


# --- text format ---------------------------------------------------------


def _split_toplevel_comma(text: str) -> tuple[str, str]:
    """Split on the single comma that sits outside quoted terminals."""
    in_quote = False
    split_at = -1
    for i, ch in enumerate(text):
        if ch == "'":
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            if split_at >= 0:
                raise GrammarError(f"more than one side separator in {text!r}")
            split_at = i
    if in_quote:
        raise GrammarError(f"unterminated quote in {text!r}")
    if split_at < 0:
        raise GrammarError(f"missing side separator in {text!r}")
    return text[:split_at], text[split_at + 1 :]


def _parse_side(raw: str, lineno: int) -> tuple[Symbol, ...]:
    symbols: list[Symbol] = []
    i, n = 0, len(raw)
    while i < n:
        ch = raw[i]
        if ch.isspace():
            i += 1
        elif ch == "'":
            end = raw.find("'", i + 1)
            if end < 0:
                raise GrammarError(f"line {lineno}: unterminated terminal in {raw!r}")
            symbols.append(terminal(raw[i + 1 : end]))
            i = end + 1
        else:
            j = i
            while j < n and not raw[j].isspace() and raw[j] != "'":
                j += 1
            name = raw[i:j]
            if not _NT_RE.match(name):
                raise GrammarError(f"line {lineno}: bad nonterminal name {name!r}")
            symbols.append(nonterminal(name))
            i = j
    if not symbols:
        raise GrammarError(f"line {lineno}: empty rule side")
    return tuple(symbols)


def _parse_rule(line: str, lineno: int) -> SyncRule:
    m = _RULE_RE.match(line)
    if not m:
        raise GrammarError(f"line {lineno}: not of the form 'A -> <..., ...>': {line!r}")
    lhs = m.group("lhs")
    if not _NT_RE.match(lhs):
        raise GrammarError(f"line {lineno}: bad left-hand side {lhs!r}")
    src_raw, tgt_raw = _split_toplevel_comma(m.group("rhs"))
    src = _parse_side(src_raw, lineno)
    tgt = _parse_side(tgt_raw, lineno)
    return SyncRule(lhs, src, tgt, src_text=src_raw, tgt_text=tgt_raw)


def parse_grammar_text(text: str, start: str | None = None) -> SyncGrammar:
    """Parse the text format.  The start symbol defaults to the first rule's lhs.

    Blank lines and lines starting with ``#`` are skipped.  The parsed grammar
    is validated (see :func:`validate`).
    """
    rules: list[SyncRule] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(_parse_rule(line.rstrip("\n"), lineno))
    if not rules:
        raise GrammarError("no rules found")
    grammar = SyncGrammar(start or rules[0].lhs, tuple(rules))
    validate(grammar)
    return grammar


def rule_text(rule: SyncRule) -> str:
    """Render one rule in the text format, preferring remembered spellings."""

    def default(side: tuple[Symbol, ...]) -> str:
        return " ".join(f"'{s.text}'" if s.terminal else s.text for s in side)

    src = rule.src_text if rule.src_text is not None else default(rule.src)
    tgt = rule.tgt_text if rule.tgt_text is not None else " " + default(rule.tgt)
    return f"{rule.lhs} -> <{src},{tgt}>"


def serialize_grammar(grammar: SyncGrammar) -> str:
    """Render a grammar in the text format, one rule per line, trailing newline.

    Deterministic: equal grammars with equal remembered spellings serialize to
    identical bytes, and ``parse_grammar_text`` inverts this exactly.
    """
    return "".join(rule_text(r) + "\n" for r in grammar.rules)


# --- validation ----------------------------------------------------------


def validate(grammar: SyncGrammar) -> None:
    """Check structural invariants; raise :class:`GrammarError` on violation.

    Rules must be homogeneous (all-nonterminal sides, or exactly one terminal
    per side).  Non-lexical rules must use each nonterminal at most once per
    side and the same set on both sides.  Every nonterminal reachable from the
    start symbol must have at least one rule.  Unreachable right-hand-side
    names are tolerated: vestigial rules are allowed as long as the generative
    part of the grammar is self-contained.
    """
    if grammar.start not in grammar._by_lhs:
        raise GrammarError(f"start symbol {grammar.start!r} has no rules")
    for r in grammar.rules:
        n_term_src = sum(s.terminal for s in r.src)
        n_term_tgt = sum(s.terminal for s in r.tgt)
        if n_term_src or n_term_tgt:
            if not (n_term_src == len(r.src) == 1 and n_term_tgt == len(r.tgt) == 1):
                raise GrammarError(
                    f"rule {rule_text(r)!r} mixes terminals and nonterminals"
                )
            continue
        src_names = [s.text for s in r.src]
        tgt_names = [s.text for s in r.tgt]
        if len(set(src_names)) != len(src_names) or len(set(tgt_names)) != len(tgt_names):
            raise GrammarError(f"rule {rule_text(r)!r} repeats a nonterminal on one side")
        if set(src_names) != set(tgt_names):
            raise GrammarError(f"rule {rule_text(r)!r} has mismatched sides")
    missing = [
        name for name in sorted(grammar.reachable()) if name not in grammar._by_lhs
    ]
    if missing:
        raise GrammarError(f"reachable nonterminals without rules: {', '.join(missing)}")


def check_well_founded(grammar: SyncGrammar, side: Side) -> frozenset[str]:
    """Reject grammars where some nonterminal derives itself while consuming
    no input on this side (unary cycles, including through null terminals).

    Returns the nullable nonterminals (those that can derive no words on this
    side), found with a worklist: each rule of names counts those not yet
    known nullable, and a name found nullable counts down the rules that use
    it, so every rule is read once.  The edges checked, ``A -> B`` for a rule
    of ``A`` whose other names are all nullable, are then proved acyclic.
    The grammar must be validated: each rule lexical or all names.
    """
    # a rule of names waits on those not yet known nullable; once none is
    # left, its left-hand side is nullable and wakes the rules that use it
    waiting = [0] * len(grammar.rules)
    users: dict[str, list[int]] = {}
    found: list[str] = []  # nullable, not yet woken
    for i, r in enumerate(grammar.rules):
        if not r.children:  # validated rules are homogeneous: lexical
            if not any(r.layout[side]):
                found.append(r.lhs)
            continue
        for p in r.layout[side]:
            users.setdefault(r.children[p], []).append(i)
        waiting[i] = len(r.children)
    nullable: set[str] = set()
    while found:
        name = found.pop()
        if name in nullable:
            continue
        nullable.add(name)
        for i in users.get(name, ()):
            waiting[i] -= 1
            if not waiting[i]:
                found.append(grammar.rules[i].lhs)
    edges: dict[str, set[str]] = {}
    for r in grammar.rules:
        if not r.children:  # validated rules are homogeneous: lexical
            continue
        names = [r.children[p] for p in r.layout[side]]
        for i, name in enumerate(names):
            others = names[:i] + names[i + 1 :]
            if all(o in nullable for o in others):
                edges.setdefault(r.lhs, set()).add(name)
    # peel off names whose edges all leave the graph; a cycle never peels
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

