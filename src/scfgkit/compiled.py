"""The state derived from one grammar, built once and kept on the grammar.

Every trial on a grammar reads the same derived state: its text, the merged
agreement grammar, the parse tables, the sampler's count tables and the word
vocabularies.  ``SyncGrammar.compiled`` builds one :class:`CompiledGrammar`
on first use and keeps it on the grammar object, so a lookup is an attribute
read and never hashes the frozen grammar.  Each part is built on first use,
and only here.  Only the source side is checked and parsed: it passes
:func:`~scfgkit.grammar.check_well_founded` once, before the first tables or
sampler built on it, and the target side is only ever read off a source
parse.  The merged grammar compiles itself like any other, so a merge that
joins families into a cycle fails the same check.

Two stores fill in as sentences are parsed and stay for the grammar's
life: the parse's templates on the source tables, keyed by names (see
:func:`~scfgkit.parsing._parse`), and ``short_targets``, the untruncated
target strings of source items at most one word wide, per cap (see
:func:`~scfgkit.parsing._fold_targets`), keyed by name, words and cap.
Their keys come from the name sets, the lexicon and the caps asked for,
never from an input word outside the lexicon, so both stay bounded.  Two
threads may build a part or a store entry twice on a cold grammar; both
results are equal, so no lock is needed.
"""

from __future__ import annotations

from functools import cached_property

from .grammar import Side, SyncGrammar, check_well_founded, serialize_grammar
from .parsing import ParseTables, merge_features, parse_tables
from .sampling import Sampler


class CompiledGrammar:
    """Derived state of one grammar; read it through ``grammar.compiled``.

    ``merged`` is the grammar with feature families merged (the grammar
    itself when it has none).
    """

    def __init__(self, grammar: SyncGrammar):
        self.grammar = grammar
        self.merged = merge_features(grammar)
        # (name, words, cap) of a source item at most one word wide -> its
        # untruncated target strings (see :func:`~scfgkit.parsing._fold_targets`)
        self.short_targets: dict = {}

    @cached_property
    def nullable(self) -> frozenset[str]:
        """The grammar's nullable names on the source side, from its
        well-foundedness check (raises ``GrammarError``)."""
        return check_well_founded(self.grammar, "src")

    @cached_property
    def src_tables(self) -> ParseTables:
        """Source-side parse tables of the merged grammar, built once the
        merged grammar has passed its own source-side check."""
        self.merged.compiled.nullable  # raises GrammarError on a cycle
        return parse_tables(self.merged, "src")

    @cached_property
    def words(self) -> dict[Side, frozenset[str]]:
        """Each side's surface words, from the lexical (childless) rules."""
        lexical = [r for r in self.grammar.rules if not r.children]
        return {side: frozenset(w for r in lexical for w in r.layout[side][0]) for side in ("src", "tgt")}

    @cached_property
    def text(self) -> str:
        """The grammar in the text format, as every prompt embeds it."""
        return serialize_grammar(self.grammar)

    @cached_property
    def sampler(self) -> Sampler:
        return Sampler(self.grammar)
