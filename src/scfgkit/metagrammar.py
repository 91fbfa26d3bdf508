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
"""

from __future__ import annotations

import random
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable

from .grammar import SyncGrammar, SyncRule, nonterminal, terminal, validate
from .lexicon import draw_word, english_words, generate_suffixes
from .scripts import ScriptSpec, default_scripts, get_script, transliterate
from .seeds import derive_seed

WORD_ORDERS = ("SVO", "SOV", "OVS")
FEATURES = ("1sg", "1pl", "3sg", "3pl")

# Open-class categories sharing the non-skeleton rule budget, in emission order.
OPEN_CLASSES = ("V", "N", "PROPN", "ADJ")

NULL_T = "∅_T_pres"
NULL_ASP = "∅_Asp_prog"
NULL_C = "∅"

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GrammarSpec":
        return from_fields(cls, data)

    @property
    def agreement(self) -> bool:
        return self.agreement_src or self.agreement_tgt


def from_fields(cls, data: dict, **convert: Callable):
    """Build the dataclass ``cls`` from ``data``, one key per field, passing
    the value of each field named in ``convert`` through its function.
    Raises ``ValueError`` naming any key that is not a field, and any
    field without a default that has no key."""
    known = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    unknown = [str(k) for k in data if k not in known]
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = [name for name, required in known.items() if required and name not in data]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    return cls(**{k: convert[k](v) if k in convert else v for k, v in data.items()})


class SpecError(ValueError):
    """A GrammarSpec that the metagrammar cannot realize."""


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
    feats = FEATURES if spec.agreement else None

    def f(name: str, feat: str | None) -> str:
        return f"{name}_{feat}" if feat else name

    rules: list[SyncRule] = [_both("S", "CP_matrix")]
    for feat in feats or (None,):
        rules.append(_both("CP_matrix", "CNULL", f("TP", feat)))
    for feat in feats or (None,):
        rules.append(_both("CP_embed", "C", f("TP", feat)))
    for feat in feats or (None,):
        rules.append(_ordered(
            f("TP", feat), spec,
            lambda order, feat=feat: _spec_slots(order, f("NP_SUBJ", feat), f("TBAR", feat)),
        ))
    for feat in feats or (None,):
        rules.append(_ordered(
            f("TBAR", feat), spec,
            lambda order, feat=feat: _head_slots(order, "T", f("VP", feat)),
        ))
    for feat in feats or (None,):
        rules.append(_both(f("NP_SUBJ", feat), f("PRON", feat)))
    # Full nominals are third person singular subjects.
    rules.append(_both(f("NP_SUBJ", "3sg" if feats else None), "PROPN"))
    rules.append(_both(f("NP_SUBJ", "3sg" if feats else None), "DP"))
    for feat in feats or (None,):
        rules.append(_ordered(
            f("VP", feat), spec,
            lambda order, feat=feat: _spec_slots(order, "", f("VBAR", feat)),
        ))
    for feat in feats or (None,):
        rules.append(_ordered(
            f("VBAR", feat), spec,
            lambda order, feat=feat: _head_slots(order, f("V", feat), "OBJ_PHRASE"),
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
    return {
        "DET_def": 2,
        "DET_indef": 2,
        "T": 1,
        "ASP": 1,
        "PRON": 2 * (len(FEATURES) if spec.agreement else 1),
        "C": 2,
        "CNULL": 1,
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
    step = n_classes * (len(FEATURES) if spec.agreement else 1)
    if budget < step or budget % step:
        achievable = f"{base + step}, {base + 2 * step}, {base + 3 * step}, ..."
        raise SpecError(
            f"size {spec.size} is not realizable: the skeleton takes {base} rules and "
            f"open classes grow in steps of {step}; achievable sizes are {achievable}"
        )
    share = budget // n_classes
    verb_rules_per_stem = len(FEATURES) if spec.agreement else 1
    return {
        cls: share // verb_rules_per_stem if cls == "V" else share for cls in OPEN_CLASSES
    }


@dataclass(frozen=True)
class _LexEntry:
    category: str
    latin: str
    rendered: str
    feature: str | None = None


class _SideLexicon:
    """Vocabulary for one side, drawn deterministically and rendered into the
    side's script.  Rendered forms are kept globally distinct so words never
    collide on the page, even in scripts that drop vowels."""

    def __init__(
        self,
        side: str,
        spec: GrammarSpec,
        counts: dict[str, int],
        script: ScriptSpec,
        taken_words: set[str],
        taken_renders: set[str],
    ) -> None:
        self.side = side
        self.agreeing = spec.agreement_src if side == "src" else spec.agreement_tgt
        self.script = script
        self._rng = random.Random(derive_seed(spec.seed, "vocab", side))
        self._english = english_words()
        self._taken_words = taken_words
        self._taken_renders = taken_renders
        self.suffixes: dict[str, str] | None = None
        if self.agreeing:
            # Suffixes must stay distinct after rendering, or feature cells
            # would collapse on the page (vowel-dropping scripts).
            drawn = generate_suffixes(
                len(FEATURES),
                derive_seed(spec.seed, "suffixes", side),
                distinct_key=lambda s: transliterate(s, script),
            )
            self.suffixes = dict(zip(FEATURES, drawn))
        self.entries: list[_LexEntry] = []
        # Draw order is fixed so vocabularies are stable for a given seed.
        self.closed = {
            "DET_def": self._draw_batch("DET_def", counts["DET_def"]),
            "DET_indef": self._draw_batch("DET_indef", counts["DET_indef"]),
            "C": self._draw_batch("C", counts["C"]),
        }
        if spec.agreement:
            self.pronouns = {
                feat: self._draw_batch("PRON", 2, feature=feat) for feat in FEATURES
            }
        else:
            self.pronouns = {"": self._draw_batch("PRON", 2)}
        self.verbs = self._draw_verbs(counts["V"])
        self.open = {
            "N": self._draw_batch("N", counts["N"]),
            "PROPN": self._draw_batch("PROPN", counts["PROPN"]),
            "ADJ": self._draw_batch("ADJ", counts["ADJ"]),
        }

    def _admissible(self, surfaces: list[str]) -> list[str] | None:
        renders = []
        for s in surfaces:
            if s in self._english or s in self._taken_words:
                return None
            renders.append(transliterate(s, self.script))
        if len(set(renders)) != len(renders) or any(r in self._taken_renders for r in renders):
            return None
        return renders

    def _claim(self, surfaces: list[str], renders: list[str]) -> None:
        self._taken_words.update(surfaces)
        self._taken_renders.update(renders)

    def _draw_batch(self, category: str, count: int, feature: str | None = None) -> list[_LexEntry]:
        batch: list[_LexEntry] = []
        while len(batch) < count:
            w = draw_word(self._rng)
            renders = self._admissible([w])
            if renders is None:
                continue
            self._claim([w], renders)
            entry = _LexEntry(category, w, renders[0], feature)
            batch.append(entry)
            self.entries.append(entry)
        return batch

    def _draw_verbs(self, count: int) -> list[dict]:
        """Verb lexemes: a stem plus, on an agreeing side, one suffixed surface
        per feature cell.  All surfaces of a lexeme are claimed together.  The
        bare stem is reserved as a word either way, but only surfaces that can
        actually appear take part in the rendered-form distinctness check."""
        verbs: list[dict] = []
        while len(verbs) < count:
            stem = draw_word(self._rng)
            if self.suffixes:
                surfaces = {feat: stem + sfx for feat, sfx in self.suffixes.items()}
            else:
                surfaces = {"": stem}
            words = [stem] + [s for s in surfaces.values() if s != stem]
            if any(w in self._english or w in self._taken_words for w in words):
                continue
            rendered = {feat: transliterate(s, self.script) for feat, s in surfaces.items()}
            renders = list(rendered.values())
            if len(set(renders)) != len(renders) or any(r in self._taken_renders for r in renders):
                continue
            self._taken_words.update(words)
            self._taken_renders.update(renders)
            verbs.append({"stem": stem, "surfaces": surfaces, "rendered": rendered})
            for feat, s in surfaces.items():
                self.entries.append(_LexEntry("V", s, rendered[feat], feat or None))
        return verbs

    def verb_surface(self, index: int, feature: str | None) -> str:
        key = feature if (self.suffixes and feature) else ""
        return self.verbs[index]["rendered"][key]


def _lexical_rules(spec: GrammarSpec, src: _SideLexicon, tgt: _SideLexicon) -> list[SyncRule]:
    rules: list[SyncRule] = []
    for cat in ("DET_def", "DET_indef"):
        for s, t in zip(src.closed[cat], tgt.closed[cat]):
            rules.append(_lex(cat, s.rendered, t.rendered))
    rules.append(_lex("T", NULL_T, NULL_T))
    rules.append(_lex("ASP", NULL_ASP, NULL_ASP))
    feats = FEATURES if spec.agreement else [None]
    for i in range(len(src.verbs)):
        for feat in feats:
            lhs = f"V_{feat}" if feat else "V"
            rules.append(_lex(lhs, src.verb_surface(i, feat), tgt.verb_surface(i, feat)))
    for cat in ("N", "PROPN"):
        for s, t in zip(src.open[cat], tgt.open[cat]):
            rules.append(_lex(cat, s.rendered, t.rendered))
    for feat in feats:
        key = feat or ""
        lhs = f"PRON_{feat}" if feat else "PRON"
        for s, t in zip(src.pronouns[key], tgt.pronouns[key]):
            rules.append(_lex(lhs, s.rendered, t.rendered))
    for s, t in zip(src.open["ADJ"], tgt.open["ADJ"]):
        rules.append(_lex("ADJ", s.rendered, t.rendered))
    for s, t in zip(src.closed["C"], tgt.closed["C"]):
        rules.append(_lex("C", s.rendered, t.rendered))
    rules.append(_lex("CNULL", NULL_C, NULL_C))
    return rules


def _build(spec: GrammarSpec, tables: dict[str, ScriptSpec] | None) -> tuple[SyncGrammar, dict]:
    counts = open_class_counts(spec)
    closed = _closed_class_counts(spec)
    lexeme_counts = dict(closed, **counts)
    per_cat = dict(counts, DET_def=2, DET_indef=2, C=2)
    script_src = get_script(spec.script_src, tables)
    script_tgt = get_script(spec.script_tgt, tables)
    taken_words: set[str] = set()
    taken_renders: set[str] = set()
    src = _SideLexicon("src", spec, per_cat, script_src, taken_words, taken_renders)
    tgt = _SideLexicon("tgt", spec, per_cat, script_tgt, taken_words, taken_renders)
    rules = _skeleton_nonlexical(spec) + _lexical_rules(spec, src, tgt)
    grammar = SyncGrammar("S", tuple(rules))
    validate(grammar)
    if len(grammar.rules) != spec.size:
        raise AssertionError(
            f"internal accounting error: built {len(grammar.rules)} rules for size {spec.size}"
        )
    rule_counts = {
        "V": counts["V"] * (len(FEATURES) if spec.agreement else 1),
        "N": counts["N"],
        "PROPN": counts["PROPN"],
        "ADJ": counts["ADJ"],
    }
    manifest = {
        "format_version": MANIFEST_VERSION,
        "spec": spec.to_dict(),
        "size": len(grammar.rules),
        "skeleton_size": skeleton_size(spec),
        "features": list(FEATURES) if spec.agreement else None,
        "per_category_lexemes": lexeme_counts,
        "per_category_rules": rule_counts,
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


def generate(spec: GrammarSpec, tables: dict[str, ScriptSpec] | None = None) -> SyncGrammar:
    """Expand a spec into a grammar with exactly ``spec.size`` rules."""
    return _build(spec, tables)[0]


def generate_with_manifest(
    spec: GrammarSpec, tables: dict[str, ScriptSpec] | None = None
) -> tuple[SyncGrammar, dict]:
    """Like :func:`generate`, also returning a manifest describing the draw."""
    return _build(spec, tables)
