"""The state derived from one grammar, built once and kept on the grammar.

Every trial on a grammar reads the same derived state: the merged agreement
grammar, the source-side parse tables, the sampler's count tables and the
word vocabularies.  ``SyncGrammar.compiled`` builds one
:class:`CompiledGrammar` on first use and keeps it on the grammar object, so
a lookup is an attribute read and never hashes the frozen grammar.  The
tables and the sampler are built on first use as well, so a grammar that is
only sampled builds no tables.  Each side of the grammar passes
:func:`~scfgkit.grammar.check_well_founded` once, before the first tables or
sampler built on it, and the sampler reuses the nullable set that check
returns.  Two threads may build a part twice on a cold grammar; both results
are equal, so no lock is needed.
"""

from __future__ import annotations

from functools import cached_property

from .grammar import Side, SyncGrammar, check_well_founded
from .parsing import ParseTables, merge_features, parse_tables
from .sampling import Sampler


class CompiledGrammar:
    """Derived state of one grammar; read it through ``grammar.compiled``.

    ``merged`` is the grammar with feature families merged (the grammar
    itself when it has none).  ``words`` maps each side to its surface words.
    """

    def __init__(self, grammar: SyncGrammar):
        self.grammar = grammar
        self.merged = merge_features(grammar)
        self.words = {
            side: frozenset(w for r in grammar.rules for s in r.side(side) for w in s.words())
            for side in ("src", "tgt")
        }
        self._nullable: dict[Side, frozenset[str]] = {}
        self._tables: dict[Side, ParseTables] = {}

    def nullable(self, side: Side) -> frozenset[str]:
        """The grammar's nullable names on one side, from its well-foundedness
        check (run on the first call per side; raises ``GrammarError``)."""
        if side not in self._nullable:
            self._nullable[side] = check_well_founded(self.grammar, side)
        return self._nullable[side]

    def tables(self, side: Side) -> ParseTables:
        """Parse tables of one side of the grammar, features unmerged."""
        if side not in self._tables:
            self.nullable(side)
            self._tables[side] = parse_tables(self.grammar, side)
        return self._tables[side]

    @cached_property
    def src_tables(self) -> ParseTables:
        """Source-side parse tables of the merged grammar."""
        if self.merged is self.grammar:
            return self.tables("src")
        # merging can join families into a cycle, so the merge is checked too
        check_well_founded(self.merged, "src")
        return parse_tables(self.merged, "src")

    @cached_property
    def sampler(self) -> Sampler:
        return Sampler(self.grammar, self.nullable("src"))
