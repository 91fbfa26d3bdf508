import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scfgkit.grammar import GrammarError, check_well_founded, parse_grammar_text
from scfgkit.metagrammar import GrammarSpec, generate
from scfgkit.parsing import translate
from scfgkit.sampling import (
    LengthError,
    Sampler,
    SentencePair,
    sample_pair,
)

from .conftest import DATA, FIG1_TEXT
from .oracles import (
    RecursiveSampler,
    check_well_founded_fixpoint,
    count_derivations,
    draw_recursive,
    preorder_recursive,
    src_yield,
    tgt_yield,
    walk_yield_recursive,
)
from .test_parsing import random_grammar_lines, random_grammars

SPINE_TEXT = "S -> <A S, A S>\nS -> <A, A>\nA -> <'a', 'a'>\n"


def test_docs_grammar_has_one_derivation_per_length(fig1_grammar):
    s = Sampler(fig1_grammar)
    assert [s.count(l) for l in range(1, 8)] == [0, 1, 1, 1, 1, 0, 0]
    assert s.achievable_lengths(1, 10) == [2, 3, 4, 5]


def test_docs_grammar_pairs(fig1_grammar):
    pair = sample_pair(fig1_grammar, 4, rng_seed=0)
    assert pair.source == ("I", "open", "the", "box")
    assert pair.target == ("watashi", "wa", "hako", "wo", "akemasu")
    assert pair.len_src == 4 and pair.len_tgt == 5
    # the null article contributes no target words
    assert sample_pair(fig1_grammar, 3, rng_seed=0).target == ("hako", "wo", "akemasu")


def test_counts_match_brute_force_enumeration(appendix_grammar):
    s = Sampler(appendix_grammar)
    for length in range(1, 6):
        assert s.count(length) == count_derivations(appendix_grammar, length)


def test_exact_length_and_determinism(appendix_grammar):
    for length in (3, 5, 8, 12, 20):
        a = sample_pair(appendix_grammar, length, rng_seed=41)
        b = sample_pair(appendix_grammar, length, rng_seed=41)
        assert a == b
        assert a.len_src == length
        assert src_yield(appendix_grammar, a.tree) == a.source
        assert tgt_yield(appendix_grammar, a.tree) == a.target


def test_different_seeds_reach_different_pairs(appendix_grammar):
    pairs = {sample_pair(appendix_grammar, 8, rng_seed=i).source for i in range(12)}
    assert len(pairs) > 1


def test_draws_are_roughly_uniform():
    g = parse_grammar_text(
        "S -> <A, A>\n"
        "A -> <'a', 'x'>\n"
        "A -> <'a', 'y'>\n"
    )
    targets = [sample_pair(g, 1, rng_seed=i).target[0] for i in range(400)]
    share = targets.count("x") / len(targets)
    assert 0.4 < share < 0.6


def test_unreachable_length_raises_with_hint(fig1_grammar):
    with pytest.raises(LengthError) as err:
        sample_pair(fig1_grammar, 9, rng_seed=0)
    assert "9" in str(err.value)
    assert "5" in str(err.value)  # nearest achievable length is suggested
    with pytest.raises(ValueError):
        sample_pair(fig1_grammar, 0, rng_seed=0)


def test_null_only_cycle_is_rejected():
    g = parse_grammar_text(
        "S -> <S, S>\n"
        "S -> <'a', 'b'>\n"
    )
    with pytest.raises(GrammarError):
        Sampler(g).count(1)


def test_left_recursion_through_a_word_is_counted():
    # S consumes a word of B before recursing, so the grammar is well
    # founded; counting must not mistake the left-recursive rule for a cycle
    g = parse_grammar_text(
        "S -> <S B, B S>\n"
        "S -> <'a', 'x'>\n"
        "B -> <'b', 'y'>\n"
    )
    pair = sample_pair(g, 3, rng_seed=0)
    assert (pair.source, pair.target) == (("a", "b", "b"), ("y", "y", "x"))
    assert Sampler(g).count(3) == 1


LONG_SPECS = [
    GrammarSpec(size=57),
    GrammarSpec(size=237),
    GrammarSpec(size=128, agreement_tgt=True),
    GrammarSpec(size=80, word_order_src="OVS", agreement_src=True, agreement_tgt=True),
]


@pytest.mark.parametrize("spec", LONG_SPECS, ids=lambda s: f"size{s.size}")
def test_long_sources_are_sampled_and_translated(spec):
    # a top-down count used to recurse one call level per word
    g = generate(spec)
    for length in (150, 300):
        pair = sample_pair(g, length, rng_seed=length)
        assert pair.len_src == length
        assert " ".join(pair.target) in translate(g, pair.source, cap=10**6)


def _assert_matches_the_recursive_reference(g, top, lengths, seeds):
    """Counts at every length up to ``top`` and draws at ``lengths`` equal
    those of the memoized recursive reference with its linear scans."""
    sampler, reference = Sampler(g), RecursiveSampler(g)
    assert [sampler.count(l) for l in range(top + 1)] == [
        reference.count(g.start, l) for l in range(top + 1)
    ]
    for length in lengths:
        if not sampler.count(length):
            continue
        for seed in seeds:
            tree = sampler.sample_tree(length, random.Random(seed))
            drawn = draw_recursive(reference, g.start, length, random.Random(seed))
            assert tree == preorder_recursive(drawn)
            assert src_yield(g, tree) == walk_yield_recursive(g, drawn, "src")
            assert tgt_yield(g, tree) == walk_yield_recursive(g, drawn, "tgt")


@pytest.mark.parametrize("spec", LONG_SPECS, ids=lambda s: f"size{s.size}")
def test_draws_and_yields_match_the_recursive_reference(spec):
    _assert_matches_the_recursive_reference(generate(spec), 60, (3, 5, 20, 50), range(12))


@pytest.mark.parametrize(
    "text",
    [FIG1_TEXT, (DATA / "appendix_grammar.scfg").read_text("utf-8"), SPINE_TEXT],
    ids=["fig1", "appendix", "spine"],
)
def test_small_grammars_match_the_recursive_reference(text):
    _assert_matches_the_recursive_reference(
        parse_grammar_text(text), 60, (2, 3, 4, 5, 8, 20, 50), range(12)
    )


@settings(max_examples=150, deadline=None)
@given(case=random_grammars())
def test_random_grammars_match_the_recursive_reference(case):
    # null terminals, unary chains and nullable names make a name and a
    # suffix read other cells at their own length
    g, _ = case
    _assert_matches_the_recursive_reference(g, 12, range(13), range(3))


def _assert_counts_are_the_sums_of_their_weights(sampler, top):
    """Every count the fill writes up to ``top`` is the total a draw bisects
    (a name's grouped rules sum to its rules' weights), a suffix's weights
    over its head's support sum to the product over every head length, and
    each cell's support lists the lengths of nonzero count."""
    sampler.count(top)
    table = sampler._table
    for cell in sampler._order:
        counts = table[cell]
        assert [sum(sampler._weights(cell, length)) for length in range(top + 1)] == counts[: top + 1]
        if (split := sampler._splits[cell]) is not None:
            heads, rests = table[split[0]], table[split[1]]
            dense = [sum(heads[h] * rests[length - h] for h in range(length + 1)) for length in range(top + 1)]
            assert dense == counts[: top + 1]
        assert sampler._support[cell] == [length for length, count in enumerate(counts) if count]


@settings(max_examples=150, deadline=None)
@given(case=random_grammars())
def test_random_grammars_fill_each_count_from_its_weights(case):
    g, _ = case
    _assert_counts_are_the_sums_of_their_weights(Sampler(g), 60)


BENCHMARK_FAMILIES = {
    "plain57": lambda seed: GrammarSpec(size=57, seed=seed),
    "plain237": lambda seed: GrammarSpec(size=237, seed=seed),
    "agree128": lambda seed: GrammarSpec(size=128, agreement_tgt=True, seed=seed),
}


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(sorted(BENCHMARK_FAMILIES)), seed=st.integers(0, 10**6))
def test_benchmark_grammars_fill_each_count_from_its_weights(family, seed):
    _assert_counts_are_the_sums_of_their_weights(Sampler(generate(BENCHMARK_FAMILIES[family](seed))), 60)


@settings(max_examples=300, deadline=None)
@given(lines=random_grammar_lines(), side=st.sampled_from(["src", "tgt"]))
@example(lines=["S -> <S, S>", "S -> <'a', 'b'>"], side="src")
@example(lines=["S -> <A B, B A>", "A -> <'∅_A', 'x'>", "B -> <S, S>", "B -> <'b', 'y'>"], side="src")
def test_the_worklist_finds_the_nullable_names_the_fixpoint_does(lines, side):
    # grammars the check rejects are included: both must give the same error
    def outcome(check, g):
        try:
            return check(g, side)
        except GrammarError as exc:
            return str(exc)

    g = parse_grammar_text("\n".join(lines), start="S")
    assert outcome(check_well_founded, g) == outcome(check_well_founded_fixpoint, g)


def test_an_unreachable_long_length_is_refused_with_little_work():
    # the hint counts every length up to 10,010; a suffix weighs only the
    # lengths its head's support lists, which on a finite grammar stay a
    # few, not every head length at each of the 10,010 (about 5 s)
    g = parse_grammar_text(FIG1_TEXT)
    with pytest.raises(LengthError, match=r"nearest achievable lengths: \[2, 3, 4, 5\]"):
        sample_pair(g, 10_000, rng_seed=0)
    sampler = g.compiled.sampler
    assert sampler._filled == 10_011
    assert all(len(support) <= 4 for support in sampler._support)


def test_right_recursion_is_counted_at_any_length():
    g = parse_grammar_text(SPINE_TEXT)
    assert Sampler(g).count(2000) == 1


def test_a_long_right_recursive_draw_keeps_few_weights():
    # each split of `A S` has one choice of positive weight, A taking one
    # word, so a 3,000-word draw keeps one weight per split; keeping the
    # zero-weight choices after it too would hold 4.5 million (40 MB)
    import tracemalloc

    g = parse_grammar_text(SPINE_TEXT)
    tracemalloc.start()
    try:
        sample_pair(g, 3000, rng_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_deep_tree_is_rebuilt_compared_and_hashed():
    # rebuilding a pair from its derivation, == and hash may not recurse once
    # per derivation level. A RecursionError is turned into a plain failure:
    # pytest would walk its thousands of frames
    g = parse_grammar_text(SPINE_TEXT)
    pair = sample_pair(g, 3000, rng_seed=0)
    try:
        tree = tuple(list(pair.tree))
        rebuilt = SentencePair(src_yield(g, tree), tgt_yield(g, tree), tree)
        again = sample_pair(g, 3000, rng_seed=0)
        equal = rebuilt == pair == again and hash(rebuilt) == hash(pair) == hash(again)
        distinct = len({pair, rebuilt, again})
        recursed = False
    except RecursionError:
        recursed = True
    assert not recursed
    assert rebuilt is not pair and again is not pair
    assert equal and distinct == 1
    assert pair.tree == (0, 2) * 2999 + (1, 2)
    assert rebuilt != SentencePair(pair.source, pair.target, pair.tree[:-2])


def test_a_deep_tree_is_printed_and_pickled():
    # the repr, pickling and deep-copying may not recurse once per level.
    # A RecursionError is turned into a plain failure, as above
    import copy
    import pickle

    g = parse_grammar_text(SPINE_TEXT)
    pair = sample_pair(g, 3000, rng_seed=0)
    try:
        text = repr(pair)
        restored = pickle.loads(pickle.dumps(pair))
        copied = copy.deepcopy(pair)
        recursed = False
    except RecursionError:
        recursed = True
    assert not recursed
    assert "tree=(0, 2, 0, 2, 0" in text
    assert restored == pair and restored is not pair
    assert copied == pair


def test_concurrent_cold_counts_are_safe():
    # grammar.compiled.sampler hands one Sampler to every harness worker
    # thread; racing fills of a cold count table must raise nothing and agree
    # on the counts.  The tiny switch interval makes the interleaving dense
    # enough to race reliably; without the Sampler's fill lock the counts
    # come out 0.
    import sys
    import threading

    grammar = generate(GrammarSpec(size=57, seed=9))
    expected = Sampler(grammar).count(30)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            s = Sampler(grammar)
            barrier = threading.Barrier(8)
            results: list[int] = []
            errors: list[Exception] = []

            def work():
                barrier.wait()
                try:
                    results.append(s.count(30))
                except Exception as exc:  # noqa: BLE001 - record, assert below
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(old_interval)


def test_concurrent_cold_draws_match_one_thread():
    # eight threads draw from one cold Sampler, each at the lengths 20-30
    # from its own first one up, so fills, reads of filled lengths and
    # cumulative weights race; every draw must be the one a single thread
    # makes
    import sys
    import threading

    grammar = generate(GrammarSpec(size=57, seed=9))
    lengths = [[20 + (k + i) % 11 for i in range(11)] for k in range(8)]

    def draws(sampler, k):
        return [sampler.sample_tree(length, random.Random(k)) for length in lengths[k]]

    expected = [draws(Sampler(grammar), k) for k in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            s = Sampler(grammar)
            barrier = threading.Barrier(8)
            results: list = [None] * 8
            errors: list[Exception] = []

            def work(k):
                try:
                    barrier.wait(timeout=60)
                    results[k] = draws(s, k)
                except Exception as exc:  # noqa: BLE001 - record, assert below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert results == expected
    finally:
        sys.setswitchinterval(old_interval)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    length=st.integers(min_value=3, max_value=25),
    draw=st.integers(min_value=0, max_value=10**9),
)
def test_sampled_pairs_have_requested_length(seed, length, draw):
    g = generate(GrammarSpec(size=57, seed=seed % 7))
    try:
        pair = sample_pair(g, length, rng_seed=draw)
    except LengthError:
        assert g.compiled.sampler.count(length) == 0
        return
    assert pair.len_src == length
    assert src_yield(g, pair.tree) == pair.source
    assert tgt_yield(g, pair.tree) == pair.target
