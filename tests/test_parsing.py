import gc
import hashlib
import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit import compiled, parsing, sampling
from scfgkit.grammar import GrammarError, check_well_founded, parse_grammar_text
from scfgkit.metagrammar import GrammarSpec, generate
from scfgkit.parsing import (
    TRANSLATE_CAP,
    SourceParseError,
    Translations,
    _CandidateSpans,
    _fold_targets,
    _TargetStrings,
    is_valid_translation,
    merge_features,
    strip_feature,
    translate,
)
from scfgkit.sampling import Sampler, sample_pair

from .oracles import (
    all_pairs,
    fold_targets_recursive,
    parse_all_spans,
    parse_tables_from_symbols,
    recognizes,
    src_yield,
    targets_for,
)


def test_docs_grammar_translation(fig1_grammar):
    assert translate(fig1_grammar, "I open the box") == {
        "watashi wa hako wo akemasu"
    }
    assert translate(fig1_grammar, "the box open") == {"hako wo akemasu"}
    assert translate(fig1_grammar, "I open") == {"watashi wa akemasu"}


def test_recognizes_each_side(fig1_grammar):
    assert recognizes(fig1_grammar, "src", "I open the box")
    assert not recognizes(fig1_grammar, "src", "open I the box")
    assert not recognizes(fig1_grammar, "src", "I open the")
    assert recognizes(fig1_grammar, "tgt", "watashi wa hako wo akemasu")
    assert not recognizes(fig1_grammar, "tgt", "akemasu watashi wa")


def test_unparseable_source_raises(fig1_grammar):
    with pytest.raises(SourceParseError):
        translate(fig1_grammar, "box the open I")
    with pytest.raises(SourceParseError):
        is_valid_translation(fig1_grammar, "box the open I", "hako wo akemasu")


def test_validity_separates_gold_from_noise(fig1_grammar):
    src = "I open the box"
    assert is_valid_translation(fig1_grammar, src, "watashi wa hako wo akemasu")
    assert not is_valid_translation(fig1_grammar, src, "watashi wa akemasu")
    assert not is_valid_translation(fig1_grammar, src, "hako wo watashi wa akemasu")
    assert not is_valid_translation(fig1_grammar, src, "watashi wa hako wo zzz")
    assert not is_valid_translation(fig1_grammar, src, "")


def test_translations_type():
    g = parse_grammar_text("S -> <'a', 'b'>")
    out = translate(g, "a")
    assert isinstance(out, Translations)
    assert isinstance(out, frozenset)
    assert out == {"b"}
    assert out.overflowed is False


def test_strip_feature():
    assert strip_feature("TP_3sg") == "TP"
    assert strip_feature("NP_SUBJ_1pl") == "NP_SUBJ"
    assert strip_feature("NP_SUBJ") == "NP_SUBJ"
    assert strip_feature("V") == "V"


MERGE_TEXT = """\
S -> <TP_1sg, TP_1sg>
S -> <TP_3pl, TP_3pl>
TP_1sg -> <PRON_1sg V_1sg, PRON_1sg V_1sg>
TP_3pl -> <PRON_3pl V_3pl, PRON_3pl V_3pl>
PRON_1sg -> <'ido', 'na'>
PRON_3pl -> <'ido', 'ko'>
V_1sg -> <'lomu', 'bakomi'>
V_3pl -> <'lomu', 'bakosar'>
"""


def test_feature_merge_credits_all_suffix_variants():
    g = parse_grammar_text(MERGE_TEXT)
    # strict sampling keeps features consistent
    pair = sample_pair(g, 2, rng_seed=0)
    assert " ".join(pair.target) in {"na bakomi", "ko bakosar"}
    # translation and validity collapse the feature indices, so all four
    # pronoun/verb combinations are credited
    assert translate(g, "ido lomu") == {
        "na bakomi", "na bakosar", "ko bakomi", "ko bakosar"
    }
    for cand in ("na bakomi", "na bakosar", "ko bakomi", "ko bakosar"):
        assert is_valid_translation(g, "ido lomu", cand)
    assert not is_valid_translation(g, "ido lomu", "na na")


def test_feature_merge_is_noop_without_features(fig1_grammar):
    merged = merge_features(fig1_grammar)
    assert [r.lhs for r in merged.rules] == [r.lhs for r in fig1_grammar.rules]
    assert translate(merged, "I open the box") == translate(fig1_grammar, "I open the box")


AMBIG_TEXT = """\
S -> <A B, A B>
A -> <'a', 'p'>
A -> <'a', 'q'>
A -> <'a', 'r'>
A -> <'a', 's'>
B -> <'a', 'w'>
B -> <'a', 'x'>
B -> <'a', 'y'>
B -> <'a', 'z'>
"""


def test_translation_cap_and_overflow_flag():
    g = parse_grammar_text(AMBIG_TEXT)
    full = translate(g, "a a")
    assert len(full) == 16
    assert not full.overflowed
    capped = translate(g, "a a", cap=10)
    assert capped.overflowed
    assert len(capped) <= 10
    assert capped <= full
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap"):
            translate(g, "a a", cap=cap)


REPEAT_TEXT = """\
R -> <S T, S T>
S -> <P Q, P Q>
P -> <'p', 'x'>
P -> <'p', 'x y'>
Q -> <'q', 'y z'>
Q -> <'q', 'z'>
T -> <'t', 'u'>
T -> <'t', 'v'>
"""


def test_a_lone_option_drops_the_yields_its_product_repeats():
    # S over "p q" has one backpointer, but "x" + "y z" and "x y" + "z" both
    # give "x y z"; the repeat must go before R's product counts against a cap
    g = parse_grammar_text(REPEAT_TEXT)
    yields = _fold_targets(g, "p q t", _TargetStrings(10_000))
    assert len(yields) == len(set(yields)) == 6
    assert not translate(g, "p q t", cap=6).overflowed
    assert translate(g, "p q t", cap=5).overflowed


def test_unary_cycle_rejected():
    g = parse_grammar_text(
        "S -> <A, A>\n"
        "A -> <S, S>\n"
        "S -> <'a', 'a'>\n"
    )
    with pytest.raises(GrammarError):
        translate(g, "a")


def test_null_cycle_rejected():
    g = parse_grammar_text(
        "S -> <N S, S N>\n"
        "S -> <'a', 'a'>\n"
        "N -> <'∅_x', 'word'>\n"
    )
    with pytest.raises(GrammarError):
        translate(g, "a")


def test_target_only_null_cycle_is_not_followed():
    # well-founded on the source side; on the target side S -> S N loops
    # through the null N, which a check on the source forest never follows
    g = parse_grammar_text(
        "S -> <N S, S N>\n"
        "S -> <'a', 'a'>\n"
        "N -> <'x', '∅_n'>\n"
    )
    assert translate(g, "x x a") == {"a"}
    assert is_valid_translation(g, "x x a", "a")
    assert not is_valid_translation(g, "x x a", "a a")


def test_null_terminals_only_skip_source_words():
    g = parse_grammar_text(
        "S -> <D N, D N>\n"
        "D -> <'the', '∅_def'>\n"
        "N -> <'box', 'hako'>\n"
    )
    assert translate(g, "the box") == {"hako"}
    assert is_valid_translation(g, "the box", "hako")
    assert not is_valid_translation(g, "the box", "∅_def hako")


def test_multi_word_terminals_span_several_positions(fig1_grammar):
    # 'watashi wa' is one terminal but two target words
    assert recognizes(fig1_grammar, "tgt", ["watashi", "wa", "akemasu"])
    assert not recognizes(fig1_grammar, "tgt", ["watashi", "akemasu"])


def test_translate_agrees_with_brute_force(appendix_grammar):
    for length in (3, 4):
        table = all_pairs(appendix_grammar, length)
        assert table
        for src, expected in sorted(table.items())[::7]:
            assert translate(appendix_grammar, src) == expected
    # longer sentences: spot-check sampled sources against the
    # prefix-constrained oracle
    for length in (5, 6, 7):
        pair = sample_pair(appendix_grammar, length, rng_seed=length)
        expected = targets_for(appendix_grammar, pair.source)
        assert translate(appendix_grammar, pair.source) == expected
        assert " ".join(pair.target) in expected


def test_validity_agrees_with_brute_force(appendix_grammar):
    table = all_pairs(appendix_grammar, 3)
    srcs = sorted(table)
    for src in srcs[::11]:
        golds = table[src]
        some_gold = next(iter(golds))
        assert is_valid_translation(appendix_grammar, src, some_gold)
        # a gold for a different source is valid only if shared
        other = table[srcs[(srcs.index(src) + 1) % len(srcs)]]
        for cand in sorted(other)[:2]:
            assert is_valid_translation(appendix_grammar, src, cand) == (cand in golds)


def test_validity_never_enumerates(appendix_grammar):
    # a long sentence with a huge translation set still validates quickly
    pair = sample_pair(appendix_grammar, 30, rng_seed=1)
    assert is_valid_translation(appendix_grammar, pair.source, pair.target)
    out = translate(appendix_grammar, pair.source, cap=50)
    assert out.overflowed or " ".join(pair.target) in out


AGREE_SPEC = GrammarSpec(size=128, word_order_src="SVO", word_order_tgt="SOV", agreement_tgt=True)


@settings(max_examples=20, deadline=None)
@given(
    spec=st.sampled_from([GrammarSpec(size=57), AGREE_SPEC]),
    seed=st.integers(min_value=0, max_value=5),
    length=st.integers(min_value=3, max_value=15),
    draw=st.integers(min_value=0, max_value=10**9),
)
def test_sampled_pairs_always_validate(spec, seed, length, draw):
    g = generate(replace(spec, seed=seed))
    pair = sample_pair(g, length, rng_seed=draw)
    tgt = " ".join(pair.target)
    assert is_valid_translation(g, pair.source, tgt)
    out = translate(g, pair.source)
    if not out.overflowed:
        assert tgt in out
    assert not is_valid_translation(g, pair.source, tgt + " zzz")


# A virtual right spine (S -> A B C) with several splits (multi-word A and C),
# zero-width children (N, M), unary rules (A -> X, B -> X) and structural
# ambiguity (S -> S A, A -> A X, A -> X A).  Reordering the lexical rules, the
# splits, the left names of a cell, the closure or a virtual item's
# backpointers changes some capped subset below.
SPINE_TEXT = """\
S -> <A B C, C A B>
S -> <S A, A S>
A -> <X, X>
A -> <'a', 'p'>
A -> <'a', 'q'>
A -> <'a a', 'w'>
A -> <A X, X A>
A -> <X A, A X>
X -> <'a', 'r'>
B -> <N A, A N>
B -> <A M, M A>
B -> <X, X>
N -> <'∅_n', 'n'>
M -> <'∅_m', 'm'>
C -> <'c', 's'>
C -> <'c', 't'>
C -> <'a c', 'u'>
"""

# (grammar, source, gold-set size) -> {cap: digest of the sorted capped set}
CAPPED_SUBSETS = {
    ("agree", (40, 43), 256): {1: "ebbbfae033919a2b", 5: "ec0551fb2fac3498", 100: "e2bda54420549860"},
    ("agree", (40, 212), 1024): {1: "c1b8385a2cacbb8e", 5: "9316ad7bb43fd596", 100: "4f95f1899f145a1e"},
    ("agree", (50, 224), 1024): {1: "deb3bb53ae21a9b0", 5: "8ce18b2b1ab7141a", 100: "97a2dc5120ba5961"},
    ("spine", "a a a c", 155): {1: "6ff87837795c1951", 5: "dae5bf49e818eab4", 100: "e88c32dda9cbbf64"},
    ("spine", "a a c a a", 420): {1: "c925c89c77139766", 5: "f285101635897073", 100: "36040a2f628de82f"},
}


def test_capped_subset_is_pinned():
    # which targets a cap keeps follows the order of rules and backpointers
    grammars = {"agree": generate(AGREE_SPEC), "spine": parse_grammar_text(SPINE_TEXT)}
    for (name, source, size), digests in CAPPED_SUBSETS.items():
        g = grammars[name]
        if name == "agree":
            source = sample_pair(g, source[0], rng_seed=source[1]).source
        assert len(translate(g, source)) == size
        for cap, digest in digests.items():
            out = translate(g, source, cap=cap)
            assert out.overflowed and len(out) == cap
            assert hashlib.sha256("\n".join(sorted(out)).encode()).hexdigest()[:16] == digest


def test_fold_frees_its_memo_on_return():
    # the fold's values live in a dict local to one call; a reference cycle
    # through it (say, a memoized closure that reaches itself) would leave the
    # values and the forest to the cyclic collector
    g = parse_grammar_text(SPINE_TEXT)
    translate(g, "a a c a a")  # builds the grammar's derived state
    gc.collect()
    gc.disable()
    try:
        translate(g, "a a c a a")
        assert gc.collect() == 0
        is_valid_translation(g, "a a c a a", "p p s p p n")
        assert gc.collect() == 0
    finally:
        gc.enable()


def _ordered(forest: list[dict]) -> list:
    """A forest with every order made visible to ``==``: ends, names, and
    backpointers."""
    return [[(j, list(cell.items())) for j, cell in row.items()] for row in forest]


NAMES = ("S", "A", "B", "C", "D")
WORDS = ("a", "b", "c")


@st.composite
def random_grammar_lines(draw):
    """The rules, one per line, of a grammar over a few names and words, with
    null and multi-word terminals, unary chains and rules of 2 to 4 names.
    A side may derive a name from itself without consuming words."""
    names = NAMES[: draw(st.integers(2, len(NAMES)))]
    surface = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    lines = []
    for name in names:
        for src in draw(st.lists(st.one_of(surface, st.just(f"∅_{name}")), min_size=1, max_size=3)):
            tgt = draw(st.one_of(surface, st.just("∅_t")))
            lines.append(f"{name} -> <'{src}', '{tgt}'>")
    structural = draw(st.lists(
        st.tuples(st.sampled_from(names), st.permutations(names), st.integers(1, 4), st.randoms()),
        max_size=7,
    ))
    for lhs, order, arity, rnd in structural:
        rhs = list(order[:arity])
        tgt = rnd.sample(rhs, len(rhs))
        lines.insert(rnd.randrange(len(lines) + 1), f"{lhs} -> <{' '.join(rhs)}, {' '.join(tgt)}>")
    return lines


@st.composite
def random_grammars(draw):
    """A well-founded grammar from :func:`random_grammar_lines`, and a word
    sequence to parse: sampled from the grammar, or random."""
    lines = draw(random_grammar_lines())
    # drop structural rules until no side derives a name from itself
    # without consuming words (what a GrammarError would reject)
    while True:
        g = parse_grammar_text("\n".join(lines), start="S")
        try:
            check_well_founded(g, "src")
            check_well_founded(g, "tgt")
            break
        except GrammarError:
            lines.remove(next(line for line in reversed(lines) if "'" not in line))
    return g, draw_words(draw, g)


def draw_words(draw, g):
    """A word sequence to parse with ``g``: sampled from it, or random."""
    length = draw(st.integers(0, 9))
    sampler = Sampler(g)
    if length and sampler.count(length) and draw(st.booleans()):
        return src_yield(g, sampler.sample_tree(length, draw(st.randoms())))
    return tuple(draw(st.lists(st.sampled_from(WORDS), max_size=length)))


@settings(max_examples=300, deadline=None)
@given(case=random_grammars(), side=st.sampled_from(["src", "tgt"]))
def test_agenda_parse_matches_all_spans_on_random_grammars(case, side):
    g, words = case
    tables = parsing.parse_tables(g, side)
    assert tables == parse_tables_from_symbols(g, side)
    assert _ordered(parsing._parse(tables, words)) == _ordered(parse_all_spans(tables, words))


@settings(max_examples=300, deadline=None)
@given(case=random_grammars(), side=st.sampled_from(["src", "tgt"]), data=st.data())
def test_warm_templates_parse_each_later_sentence_as_all_spans_does(case, side, data):
    # one tables object parses three sentences in turn, so the second and
    # third place templates the sentences before them built
    g, words = case
    tables = parsing.parse_tables(g, side)
    for sentence in (words, draw_words(data.draw, g), words[::-1]):
        assert _ordered(parsing._parse(tables, sentence)) == _ordered(parse_all_spans(tables, sentence))


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from([GrammarSpec(size=57), GrammarSpec(size=237), AGREE_SPEC]),
    seed=st.integers(min_value=0, max_value=3),
    length=st.sampled_from([3, 5, 20, 50]),
    draw=st.integers(min_value=0, max_value=10**9),
)
def test_agenda_parse_matches_all_spans_on_benchmark_grammars(spec, seed, length, draw):
    g = generate(replace(spec, seed=seed))
    words = sample_pair(g, length, rng_seed=draw).source
    tables = g.compiled.src_tables
    assert tables == parse_tables_from_symbols(g.compiled.merged, "src")
    for sentence in (words, words[1:], words[::-1]):
        assert _ordered(parsing._parse(tables, sentence)) == _ordered(
            parse_all_spans(tables, sentence)
        )


def _assert_fold_matches_recursion(g, source):
    """The fold gives the recursive oracle's target yields, in order, and its
    overflow flag at every cap, and its candidate spans and validity answers
    for golds and near misses."""
    try:
        golds = fold_targets_recursive(g, source, _TargetStrings(3), [()])
    except SourceParseError:
        with pytest.raises(SourceParseError):
            _fold_targets(g, source, _TargetStrings(3))
        return
    for cap in (10_000, 7, 1):
        values, reference = _TargetStrings(cap), _TargetStrings(cap)
        assert _fold_targets(g, source, values) == fold_targets_recursive(g, source, reference, [()])
        assert values.overflowed == reference.overflowed
    candidates = {()}
    for gold in golds:
        candidates.update((gold, gold[::-1], gold[:-1], gold + gold[:1]))
    for cand in sorted(candidates):
        spans = _CandidateSpans(cand)
        expected = fold_targets_recursive(g, source, spans, spans.words(()))
        assert _fold_targets(g, source, spans) == expected
        assert is_valid_translation(g, source, cand) == (len(cand) in expected.get(0, ()))


@settings(max_examples=300, deadline=None)
@given(case=random_grammars())
def test_fold_matches_the_recursive_fold_on_random_grammars(case):
    _assert_fold_matches_recursion(*case)


@st.composite
def many_target_grammars(draw):
    """A grammar whose items at most one word wide have several targets, all
    over the one word "x", so two concatenations often spell the same
    string: names A, B and C pair "a" or a null with targets of 0 to 3
    words, and S joins two or three of them in a drawn target order.
    Returned with a sentence of 0 to 3 words "a"."""
    lines = []
    for name in "ABC":
        for src in draw(st.lists(st.sampled_from(["a", f"∅_{name}"]), min_size=1, max_size=4)):
            tgt = draw(st.sampled_from(["∅_t", "x", "x x", "x x x"]))
            lines.append(f"{name} -> <'{src}', '{tgt}'>")
    for _ in range(draw(st.integers(1, 3))):
        rhs = draw(st.permutations("ABC"))[: draw(st.integers(2, 3))]
        tgt = draw(st.permutations(rhs))
        lines.append(f"S -> <{' '.join(rhs)}, {' '.join(tgt)}>")
    return parse_grammar_text("\n".join(lines), start="S"), ("a",) * draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(random_grammars(), many_target_grammars()), data=st.data())
def test_warm_fold_matches_the_recursive_fold_at_rising_and_repeated_caps(case, data):
    # one grammar translates three sentences in turn, each at caps that rise
    # and repeat, so a value kept at one cap meets every later cap
    g, words = case
    for sentence in (words, draw_words(data.draw, g), words[::-1]):
        for cap in (1, 2, 3, 4, 5, 6, 7, 10_000, 7, 6, 5, 4, 3, 2, 1):
            values, reference = _TargetStrings(cap), _TargetStrings(cap)
            try:
                expected = fold_targets_recursive(g, sentence, reference, [()])
            except SourceParseError:
                with pytest.raises(SourceParseError):
                    _fold_targets(g, sentence, values)
                continue
            assert _fold_targets(g, sentence, values) == expected
            assert values.overflowed == reference.overflowed


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from([GrammarSpec(size=57), GrammarSpec(size=237), AGREE_SPEC]),
    seed=st.integers(min_value=0, max_value=2),
    length=st.sampled_from([5, 20, 50]),
    draw=st.integers(min_value=0, max_value=10**9),
)
def test_fold_matches_the_recursive_fold_on_benchmark_grammars(spec, seed, length, draw):
    g = generate(replace(spec, seed=seed))
    _assert_fold_matches_recursion(g, sample_pair(g, length, rng_seed=draw).source)


# A spine whose parse stays linear: the source a^k b is one chain of k + 1
# nested S items, and its one target is b a^k.
DEEP_TEXT = "S -> <A S, S A>\nS -> <B, B>\nA -> <'a', 'a'>\nB -> <'b', 'b'>\n"


def deep_pair(k: int) -> tuple[str, str]:
    return " ".join(["a"] * k + ["b"]), " ".join(["b"] + ["a"] * k)


def test_translate_a_source_thousands_of_levels_deep():
    source, target = deep_pair(2999)
    out = translate(parse_grammar_text(DEEP_TEXT), source)
    assert out == {target} and not out.overflowed


def test_validate_a_source_thousands_of_levels_deep():
    # past the interpreter's recursion limit, at translate's depth
    source, target = deep_pair(2999)
    g = parse_grammar_text(DEEP_TEXT)
    assert is_valid_translation(g, source, target)
    assert not is_valid_translation(g, source, target + " a")


class _CountingSpans(_CandidateSpans):
    """Adds up the size of every new value that ``words``, ``times`` and
    ``plus`` return."""

    def __init__(self, candidate):
        super().__init__(candidate)
        self.built = 0
        self._seen: dict = {}  # holds each value, so no id is reused

    def _count(self, value):
        if id(value) not in self._seen:
            self._seen[id(value)] = value
            self.built += len(value)
        return value

    def words(self, words):
        return self._count(super().words(words))

    def times(self, left, right):
        return self._count(super().times(left, right))

    def plus(self, options):
        return self._count(super().plus(options))


def test_validity_builds_values_linear_in_a_deep_candidate():
    # each of the k + 1 S items adds one word to its target yield; building
    # the spans of 'a' per A item, or copying a lone option, is quadratic
    source, target = deep_pair(400)
    spans = _CountingSpans(tuple(target.split()))
    _fold_targets(parse_grammar_text(DEEP_TEXT), source, spans)
    assert spans.built <= 3 * 401


# Two halves of 7^3 = 343 target yields each: their product is 117,649.
PRODUCT_TEXT = "S -> <A D, A D>\nA -> <X Y Z, X Y Z>\nD -> <X Y Z, X Y Z>\n" + "".join(
    f"{name} -> <'{name.lower()}', '{name.lower()}{k}'>\n" for name in "XYZ" for k in range(7)
)


def test_product_stops_at_the_cap():
    g = parse_grammar_text(PRODUCT_TEXT)
    translate(g, "x y z x y z", cap=1)  # builds the grammar's derived state
    tracemalloc.start()
    try:
        out = translate(g, "x y z x y z", cap=400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.overflowed and len(out) == 400
    # a 117,649-yield product alone holds over 10 MB of word tuples
    assert peak < 2_000_000, peak


def test_each_side_is_checked_once():
    g = parse_grammar_text(SPINE_TEXT)
    sides: list[str] = []
    patches = _count_checks(sides)
    for patch in patches:
        patch.start()
    try:
        for _ in range(2):
            pair = sample_pair(g, 4, rng_seed=0)
            translate(g, pair.source)
            assert is_valid_translation(g, pair.source, pair.target)
    finally:
        for patch in patches:
            patch.stop()
    # nothing in the pipeline checks or parses the target side
    assert sides == ["src"]


def _count_checks(sides):
    """Patches counting every ``check_well_founded`` call, wherever imported."""

    def counted(grammar, side):
        sides.append(side)
        return check_well_founded(grammar, side)

    return [
        mock.patch.object(module, "check_well_founded", counted)
        for module in (compiled, parsing, sampling)
        if hasattr(module, "check_well_founded")
    ]


def test_direct_samplers_share_the_compiled_source_check():
    g = parse_grammar_text(SPINE_TEXT)
    sides: list[str] = []
    patches = _count_checks(sides)
    for patch in patches:
        patch.start()
    try:
        assert Sampler(g).count(4) == Sampler(g).count(4)
        translate(g, sample_pair(g, 4, rng_seed=0).source)
    finally:
        for patch in patches:
            patch.stop()
    assert sides == ["src"]


def test_merged_grammar_is_checked_as_a_grammar():
    # the families A_1sg and A_3sg form a unary cycle only once merged
    g = parse_grammar_text("S -> <A_1sg, A_1sg>\nA_1sg -> <A_3sg, A_3sg>\nA_3sg -> <'a', 'a'>\n")
    assert sample_pair(g, 1, rng_seed=0).source == ("a",)
    assert recognizes(g, "src", "a")
    with pytest.raises(GrammarError, match="unbounded"):
        translate(g, "a")


THREE_TARGETS_TEXT = """\
S -> <A B, B A>
A -> <'a', 'x'>
A -> <'a', 'y'>
A -> <'a', 'z'>
B -> <'b', 'w'>
"""


# The one-word source "a" has 4 concatenations of which 3 differ ("x" +
# "y z" is "x y" + "z"), so a cap of 3 truncates the product to 3 and the
# deduplication leaves 2: fewer than the cap, yet truncated.
REPEATED_CONCATENATION_TEXT = """\
S -> <P N, P N>
P -> <'a', 'x'>
P -> <'a', 'x y'>
N -> <'∅_n', 'z'>
N -> <'∅_n', 'y z'>
"""


@pytest.mark.parametrize(
    "text, source, caps",
    [
        # the word "a" has 3 targets: kept at the default cap, they must not
        # stand in at a cap they reach
        (THREE_TARGETS_TEXT, "a b", (TRANSLATE_CAP, 2, 3, 4, 2, TRANSLATE_CAP)),
        # a truncated value must not be kept, whatever its length
        (REPEATED_CONCATENATION_TEXT, "a", (3, 3, TRANSLATE_CAP, 3, 2, TRANSLATE_CAP)),
    ],
    ids=["three-targets", "repeated-concatenation"],
)
def test_kept_target_strings_match_a_fresh_grammar_at_each_cap(text, source, caps):
    g = parse_grammar_text(text)
    for cap in caps:
        out = translate(g, source, cap=cap)
        fresh = translate(parse_grammar_text(text), source, cap=cap)
        assert (out, out.overflowed) == (fresh, fresh.overflowed)
    assert translate(g, source, cap=caps[1]).overflowed  # so some cap above truncated


def test_templates_hold_no_key_from_a_word_outside_the_lexicon():
    g = generate(GrammarSpec(size=57))
    tables = g.compiled.src_tables
    lexicon = sorted(g.compiled.words["src"])
    rnd = random.Random(0)
    for n in range(1000):
        if n % 2:
            words = [rnd.choice(lexicon + ["zz0", "zz1"]) for _ in range(rnd.randint(0, 8))]
        else:  # a sentence of the grammar, with an unknown word now and then
            words = list(sample_pair(g, rnd.choice([3, 5, 8]), rng_seed=n).source)
            if rnd.random() < 0.5:
                words[rnd.randrange(len(words))] = "zz2"
        try:
            translate(g, words)
        except SourceParseError:
            pass
    names = set(g.compiled.merged.nonterminals)
    for pieces in tables.binary_by_left.values():
        names.update(name for parent, right, _ in pieces for name in (parent, right))
    assert tables.closures and all(set(seeds) <= names for seeds in tables.closures)
    assert tables.splits and all(set(left) | set(right) <= names for left, right in tables.splits)
    short = g.compiled.short_targets
    assert short and all(
        name in names and (words == () or words in tables.lex) for name, words, _ in short
    )


def _template_keys(tables) -> dict:
    """The keys of every store kept on ``tables``."""
    return {name: set(store) for name, store in vars(tables).items() if isinstance(store, dict)}


@settings(max_examples=300, deadline=None)
@given(case=random_grammars(), data=st.data())
def test_templates_are_keyed_by_names_alone(case, data):
    # two new words "y" and "z" have one set of lexical names, so a sentence
    # that differs from a parsed one only in "z" for "y" adds no template
    g, words = case
    lhs = data.draw(st.lists(st.sampled_from(sorted(g.nonterminals)), min_size=1, unique=True))
    extra = "".join(f"{name} -> <'{word}', '{word}'>\n" for word in "yz" for name in lhs)
    g = parse_grammar_text(g.compiled.text + extra, start="S")
    tables = parsing.parse_tables(g, "src")
    position = data.draw(st.integers(0, len(words)))
    for sentence in (words, draw_words(data.draw, g), words[:position] + ("y",) + words[position:]):
        parsing._parse(tables, sentence)
    kept = _template_keys(tables)
    parsing._parse(tables, words[:position] + ("z",) + words[position:])
    assert _template_keys(tables) == kept

    names = set(g.nonterminals)
    for pieces in tables.binary_by_left.values():
        names.update(name for parent, right, _ in pieces for name in (parent, right))

    def is_names(key) -> bool:
        return isinstance(key, tuple) and all(name in names for name in key)

    assert all(is_names(seeds) for seeds in tables.closures)
    assert all(len(key) == 2 and is_names(key[0]) and is_names(key[1]) for key in tables.splits)


def test_threads_translating_on_a_cold_grammar_agree():
    # more threads than a CI runner has cores, each building the templates
    # and kept target strings of one cold grammar while the others read them
    sources = [sample_pair(generate(AGREE_SPEC), length, rng_seed=n).source
               for length in (5, 20) for n in range(10)]
    expected = [translate(generate(AGREE_SPEC), s, cap=cap) for s in sources for cap in (10_000, 3)]
    g = generate(AGREE_SPEC)
    start = threading.Barrier(4)
    results: list = [None] * 4

    def work(k):
        start.wait()
        results[k] = [translate(g, s, cap=cap) for s in sources for cap in (10_000, 3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in results:
        assert [(t, t.overflowed) for t in out] == [(t, t.overflowed) for t in expected]
