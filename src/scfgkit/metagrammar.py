"""Parameterized grammar generation.

A :class:`GrammarSpec` names a point in the benchmark's condition space: how
many rules the grammar has, the word order of each language, whether each
language marks subject-verb agreement, which script each language is written
in, and a seed.  :func:`generate` expands the spec into a concrete
:class:`~scfgkit.grammar.SyncGrammar` over a fixed X-bar clause skeleton
(CP over TP over VP, DP objects, optional embedded clauses) plus freshly
drawn vocabularies.  Equal specs produce byte-identical grammars.

Word order moves exactly three things: the subject (specifier of TP), the
heads T/V/DET, and the phonetically empty specifier slots of VP and DETP
(which leave their trace in the rule spelling, e.g. ``VP -> < VBAR, VBAR >``).
Everything else (determiners inside DP, adjectives, complementizers) keeps a
fixed order on both sides.

Agreement splits the clausal spine into one copy per feature cell (1sg, 1pl,
3sg, 3pl) so the subject's person/number features propagate to the verb;
verbs on an agreeing side carry a per-cell suffix, pronouns exist per cell,
and full DPs and proper names are third person singular.  The emitted
grammar compiles the indexing into plain nonterminal names (``TP_3sg``).

One table of closed classes gives the skeleton's size, the manifest's
counts, the draw and the emission.  Each side draws its lexemes in one fixed
order with one draw-and-reject loop; a lexeme is a stem with one surface per
feature cell, and a plain word is a stem whose only cell is uninflected.
The lexical rules are emitted in a second fixed order.  Both orders are part
of the output: changing either changes every generated grammar.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

from .grammar import SyncGrammar, SyncRule, nonterminal, terminal, validate
from .lexicon import draw_word, english_words, generate_suffixes
from .scripts import ScriptSpec, get_script, transliterate
from .seeds import derive_seed

WORD_ORDERS = ("SVO", "SOV", "OVS")
FEATURES = ("1sg", "1pl", "3sg", "3pl")

# Open-class categories sharing the non-skeleton rule budget, in draw order.
OPEN_CLASSES = ("V", "N", "PROPN", "ADJ")

# Closed classes in manifest order: the lexemes drawn per side (and per drawn
# feature cell), or the one surface both sides give a phonetically null head.
_CLOSED: dict[str, int | str] = {
    "DET_def": 2,
    "DET_indef": 2,
    "T": "∅_T_pres",
    "ASP": "∅_Asp_prog",
    "PRON": 2,
    "C": 2,
    "CNULL": "∅",
}
# Under agreement pronouns are drawn anew for each feature cell, and each verb
# stem is inflected for every cell.
_DRAWN_PER_CELL = "PRON"
_INFLECTED = "V"

# Both orders are fixed, so equal specs give byte-identical grammars.
_DRAW_ORDER = ("DET_def", "DET_indef", "C", "PRON", *OPEN_CLASSES)
_EMIT_ORDER = ("DET_def", "DET_indef", "T", "ASP", "V", "N", "PROPN", "PRON", "ADJ", "C", "CNULL")

MANIFEST_VERSION = 1
SAMPLING_DISTRIBUTION = "uniform over derivations at fixed source length"


@dataclass(frozen=True)
class GrammarSpec:
    """Parameters of one generated grammar."""

    size: int
    word_order_src: str = "SVO"
    word_order_tgt: str = "SOV"
    agreement_src: bool = False
    agreement_tgt: bool = False
    script_src: str = "Latin"
    script_tgt: str = "Latin"
    seed: int = 0

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        # every field is a scalar, so asdict's deep copy would copy nothing
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "GrammarSpec":
        return from_fields(cls, data)

    @property
    def agreement(self) -> bool:
        return self.agreement_src or self.agreement_tgt


_hints = cache(get_type_hints)  # each config class's field types, resolved once


def from_fields(cls, data, path: str = ""):
    """Build the config dataclass ``cls`` from the JSON object ``data``, one key
    per field, each value read by :func:`_typed`.  ``ValueError`` names any key
    that is not a field, any field without a default or key, and any mistyped value."""
    where = path or cls.__name__
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object: {data!r}")
    known = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    unknown = [str(k) for k in data if k not in known]
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [name for name, required in known.items() if required and name not in data]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(missing)}")
    return cls(**{k: _typed(v, _hints(cls)[k], f"{path} {k}".lstrip(), read=True) for k, v in data.items()})


def check_fields(obj, path: str = "") -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` not of its type."""
    for name, hint in _hints(type(obj)).items():
        _typed(getattr(obj, name), hint, f"{path} {name}".lstrip(), read=False)


# Each field type: the types its value may have, and their name; a float is finite.
_KINDS = {int: (int, "a whole number"), float: ((int, float), "a finite number"), bool: (bool, "true or false"),
          str: (str, "a string"), dict: (dict, "a JSON object"), tuple: ((list, tuple), "a list"),
          Path: ((str, os.PathLike), "a path")}


def _typed(value, hint, path: str, read: bool):
    """``value`` checked against the field type ``hint``, or ``ValueError`` naming
    ``path``; only a bool is a bool.  When ``read`` from JSON, a dataclass comes
    from a JSON object, a list becomes a tuple and a string a ``Path``."""
    kind, args = get_origin(hint) or hint, get_args(hint)
    if args and kind is not tuple:  # X | None
        return value if value is None else _typed(value, args[0], path, read)
    if read and is_dataclass(kind):
        return from_fields(kind, value, path)
    accepted, called = _KINDS.get(kind) or (kind, f"of type {kind.__name__}")
    if (not isinstance(value, accepted) or isinstance(value, bool) is not (kind is bool)
            or kind is float and not abs(value) < math.inf):
        raise ValueError(f"{path} must be {called}: {value!r}")
    if kind is tuple:
        items = tuple(_typed(item, args[0], f"{path} [{i}]", read) for i, item in enumerate(value))
        return items if read else value
    return Path(value) if read and kind is Path else value


class SpecError(ValueError):
    """A GrammarSpec that the metagrammar cannot realize."""


def _cells(spec: GrammarSpec, per_cell: bool = True) -> tuple[str | None, ...]:
    """Feature cells: every feature under agreement, else (or unless
    ``per_cell``) one cell with no feature."""
    return FEATURES if spec.agreement and per_cell else (None,)


def _lhs(category: str, feature: str | None) -> str:
    """The name of ``category`` indexed by ``feature`` (``TP_3sg``)."""
    return f"{category}_{feature}" if feature else category


def _specifier_final(order: str) -> bool:
    return order == "OVS"


def _head_final(order: str) -> bool:
    return order in ("SOV", "OVS")


def _spec_slots(order: str, spec: str, bar: str) -> list[str]:
    """Specifier-level layout; the specifier may be the empty string."""
    return [bar, spec] if _specifier_final(order) else [spec, bar]


def _head_slots(order: str, head: str, complement: str) -> list[str]:
    return [complement, head] if _head_final(order) else [head, complement]


def _rule(lhs: str, src_positions: list[str], tgt_positions: list[str]) -> SyncRule:
    """Build a non-lexical rule, remembering the positions in the spelling so
    empty specifier positions leave their padding (``< VBAR, VBAR >``)."""
    src = tuple(nonterminal(s) for s in src_positions if s)
    tgt = tuple(nonterminal(s) for s in tgt_positions if s)
    return SyncRule(
        lhs, src, tgt,
        src_text=" ".join(src_positions),
        tgt_text=" " + " ".join(tgt_positions),
    )


def _lex(lhs: str, src_surface: str, tgt_surface: str) -> SyncRule:
    return SyncRule(
        lhs,
        (terminal(src_surface),),
        (terminal(tgt_surface),),
        src_text=f"'{src_surface}'",
        tgt_text=f" '{tgt_surface}'",
    )


def _both(lhs: str, *names: str) -> SyncRule:
    return _rule(lhs, list(names), list(names))


def _ordered(lhs: str, spec: GrammarSpec, layout: Callable[[str], list[str]]) -> SyncRule:
    return _rule(lhs, layout(spec.word_order_src), layout(spec.word_order_tgt))


def _skeleton_nonlexical(spec: GrammarSpec) -> list[SyncRule]:
    cells = _cells(spec)
    rules: list[SyncRule] = [_both("S", "CP_matrix")]
    for feat in cells:
        rules.append(_both("CP_matrix", "CNULL", _lhs("TP", feat)))
    for feat in cells:
        rules.append(_both("CP_embed", "C", _lhs("TP", feat)))
    for feat in cells:
        rules.append(_ordered(
            _lhs("TP", feat), spec,
            lambda order, feat=feat: _spec_slots(order, _lhs("NP_SUBJ", feat), _lhs("TBAR", feat)),
        ))
    for feat in cells:
        rules.append(_ordered(
            _lhs("TBAR", feat), spec,
            lambda order, feat=feat: _head_slots(order, "T", _lhs("VP", feat)),
        ))
    for feat in cells:
        rules.append(_both(_lhs("NP_SUBJ", feat), _lhs("PRON", feat)))
    # Full nominals are third person singular subjects.
    rules.append(_both(_lhs("NP_SUBJ", "3sg" if spec.agreement else None), "PROPN"))
    rules.append(_both(_lhs("NP_SUBJ", "3sg" if spec.agreement else None), "DP"))
    for feat in cells:
        rules.append(_ordered(
            _lhs("VP", feat), spec,
            lambda order, feat=feat: _spec_slots(order, "", _lhs("VBAR", feat)),
        ))
    for feat in cells:
        rules.append(_ordered(
            _lhs("VBAR", feat), spec,
            lambda order, feat=feat: _head_slots(order, _lhs("V", feat), "OBJ_PHRASE"),
        ))
    rules.append(_both("OBJ_PHRASE", "DP"))
    rules.append(_both("OBJ_PHRASE", "CP_embed"))
    rules.append(_ordered("DETP", spec, lambda order: _spec_slots(order, "", "DETBAR")))
    rules.append(_ordered("DETBAR", spec, lambda order: _head_slots(order, "DET", "NP")))
    rules.append(_both("DP", "DP_def"))
    rules.append(_both("DP", "DP_indef"))
    rules.append(_both("DP_def", "DET_def", "NP"))
    rules.append(_both("DP_indef", "DET_indef", "NP"))
    rules.append(_both("DP_def", "PROPN"))
    rules.append(_both("NP", "N_HEAD"))
    rules.append(_both("NP", "AdjP", "NP"))
    rules.append(_both("NP_COMMON", "N"))
    rules.append(_both("NP_COMMON", "AdjP", "NP_COMMON"))
    rules.append(_both("AdjP", "ADJ"))
    rules.append(_both("N_HEAD", "N"))
    rules.append(_both("N_HEAD", "PROPN"))
    return rules


def _closed_class_counts(spec: GrammarSpec) -> dict[str, int]:
    """Lexemes per closed class and side, in manifest order; a null head
    counts as one."""
    return {
        c: n * len(_cells(spec, c == _DRAWN_PER_CELL)) if isinstance(n, int) else 1
        for c, n in _CLOSED.items()
    }


def skeleton_size(spec: GrammarSpec) -> int:
    """Rules spent before open-class vocabulary: the clause skeleton plus
    closed-class lexical entries (37 without agreement, 64 with)."""
    return len(_skeleton_nonlexical(spec)) + sum(_closed_class_counts(spec).values())


def open_class_counts(spec: GrammarSpec) -> dict[str, int]:
    """Lexeme count per open class implied by ``spec.size``; raises SpecError
    when the size is not realizable."""
    if spec.word_order_src not in WORD_ORDERS or spec.word_order_tgt not in WORD_ORDERS:
        raise SpecError(f"word orders must be one of {WORD_ORDERS}")
    base = skeleton_size(spec)
    n_classes = len(OPEN_CLASSES)
    budget = spec.size - base
    step = n_classes * len(_cells(spec))
    if budget < step or budget % step:
        achievable = f"{base + step}, {base + 2 * step}, {base + 3 * step}, ..."
        raise SpecError(
            f"size {spec.size} is not realizable: the skeleton takes {base} rules and "
            f"open classes grow in steps of {step}; achievable sizes are {achievable}"
        )
    share = budget // n_classes
    return {c: share // len(_cells(spec, c == _INFLECTED)) for c in OPEN_CLASSES}


@dataclass(frozen=True)
class _LexEntry:
    category: str
    latin: str
    rendered: str
    feature: str | None = None


def _form(lexeme: tuple[_LexEntry, ...], feature: str | None) -> str:
    """The rendered surface of ``lexeme`` in ``feature``'s cell; a lexeme
    with one cell shows the same surface in every cell."""
    return (lexeme[FEATURES.index(feature)] if len(lexeme) > 1 else lexeme[0]).rendered


class _SideLexicon:
    """Vocabulary for one side, drawn deterministically and rendered into the
    side's script.  Rendered forms are kept globally distinct so words never
    collide on the page, even in scripts that drop vowels.

    ``lexemes`` maps each drawn name (``PRON_1sg``, ``V``, ``N``, ...) to its
    lexemes; a lexeme holds one entry per feature cell."""

    def __init__(
        self,
        side: str,
        spec: GrammarSpec,
        open_counts: dict[str, int],
        script: ScriptSpec,
        taken_words: set[str],
        taken_renders: set[str],
    ) -> None:
        self.script = script
        self._rng = random.Random(derive_seed(spec.seed, "vocab", side))
        self._english = english_words()
        self._taken_words = taken_words
        self._taken_renders = taken_renders
        self.suffixes: dict[str, str] | None = None
        if spec.agreement_src if side == "src" else spec.agreement_tgt:
            # Suffixes must stay distinct after rendering, or feature cells
            # would collapse on the page (vowel-dropping scripts).
            drawn = generate_suffixes(
                len(FEATURES),
                derive_seed(spec.seed, "suffixes", side),
                distinct_key=lambda s: transliterate(s, script),
            )
            self.suffixes = dict(zip(FEATURES, drawn))
        self.entries: list[_LexEntry] = []
        self.lexemes: dict[str, list[tuple[_LexEntry, ...]]] = {}
        for category in _DRAW_ORDER:
            count = open_counts[category] if category in open_counts else _CLOSED[category]
            for cell in _cells(spec, category == _DRAWN_PER_CELL):
                if category == _INFLECTED and self.suffixes:
                    suffixes = self.suffixes
                else:
                    suffixes = {cell: ""}
                self.lexemes[_lhs(category, cell)] = self._draw(category, count, suffixes)

    def _draw(
        self, category: str, count: int, suffixes: dict[str | None, str]
    ) -> list[tuple[_LexEntry, ...]]:
        """Draw ``count`` lexemes: stems with one surface per feature cell of
        ``suffixes`` (a plain word is a stem whose one cell adds nothing).

        A stem is admitted when neither it nor any surface is English or
        already taken, and the rendered surfaces are distinct and not already
        taken.  It then takes the stem and the surfaces as words, and the
        rendered surfaces only: a stem that takes suffixes never appears."""
        lexemes: list[tuple[_LexEntry, ...]] = []
        while len(lexemes) < count:
            stem = draw_word(self._rng)
            surfaces = [stem + sfx for sfx in suffixes.values()]
            words = {stem, *surfaces}
            if not (words.isdisjoint(self._english) and words.isdisjoint(self._taken_words)):
                continue
            renders = [transliterate(w, self.script) for w in surfaces]
            if len(set(renders)) < len(renders) or not self._taken_renders.isdisjoint(renders):
                continue
            self._taken_words.update(words)
            self._taken_renders.update(renders)
            lexeme = tuple(
                _LexEntry(category, w, r, cell) for cell, w, r in zip(suffixes, surfaces, renders)
            )
            lexemes.append(lexeme)
            self.entries.extend(lexeme)
        return lexemes


def _lexical_rules(spec: GrammarSpec, src: _SideLexicon, tgt: _SideLexicon) -> list[SyncRule]:
    rules: list[SyncRule] = []
    for category in _EMIT_ORDER:
        null = _CLOSED.get(category)
        if isinstance(null, str):
            rules.append(_lex(category, null, null))
            continue
        for cell in _cells(spec, category == _DRAWN_PER_CELL):
            lhs = _lhs(category, cell)
            for s, t in zip(src.lexemes[lhs], tgt.lexemes[lhs]):
                for feat in _cells(spec, category == _INFLECTED):
                    rules.append(_lex(_lhs(lhs, feat), _form(s, feat), _form(t, feat)))
    return rules


def generate(spec: GrammarSpec) -> SyncGrammar:
    """Expand a spec into a grammar with exactly ``spec.size`` rules."""
    return _build(spec)[0]


def _build(spec: GrammarSpec):
    """The grammar of ``spec`` with its two lexicons and open-class counts."""
    counts = open_class_counts(spec)
    script_src = get_script(spec.script_src)
    script_tgt = get_script(spec.script_tgt)
    taken_words: set[str] = set()
    taken_renders: set[str] = set()
    src = _SideLexicon("src", spec, counts, script_src, taken_words, taken_renders)
    tgt = _SideLexicon("tgt", spec, counts, script_tgt, taken_words, taken_renders)
    rules = _skeleton_nonlexical(spec) + _lexical_rules(spec, src, tgt)
    grammar = SyncGrammar("S", tuple(rules))
    validate(grammar)
    if len(grammar.rules) != spec.size:
        raise AssertionError(
            f"internal accounting error: built {len(grammar.rules)} rules for size {spec.size}"
        )
    return grammar, src, tgt, counts


def generate_with_manifest(spec: GrammarSpec) -> tuple[SyncGrammar, dict]:
    """Like :func:`generate`, also returning a manifest describing the draw."""
    grammar, src, tgt, counts = _build(spec)
    manifest = {
        "format_version": MANIFEST_VERSION,
        "spec": spec.to_dict(),
        "size": len(grammar.rules),
        "skeleton_size": skeleton_size(spec),
        "features": list(FEATURES) if spec.agreement else None,
        "per_category_lexemes": dict(_closed_class_counts(spec), **counts),
        "per_category_rules": {
            c: n * len(_cells(spec, c == _INFLECTED)) for c, n in counts.items()
        },
        "suffixes": {
            "src": src.suffixes,
            "tgt": tgt.suffixes,
        },
        "vocab": {
            "src": [asdict(e) for e in src.entries],
            "tgt": [asdict(e) for e in tgt.entries],
        },
        "sampling_distribution": SAMPLING_DISTRIBUTION,
    }
    return grammar, manifest
