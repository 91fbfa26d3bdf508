"""Differential tests: the n-gram walk's scores, edit distances and nearest gold
against the oracles.

``tests/oracles.py`` keeps the Counter-based scorer, the dynamic-programming
edit distance and the enumerating nearest-gold search; every score here must
equal theirs exactly (``==`` on floats), every distance theirs, and the same
gold member must be chosen.  Each scoring property runs on the members as
drawn and sorted (the order ``harness.judge`` passes them in), so the n-gram
walk resumes from neighbours that share all, some or none of a prefix.
"""

from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit import errors, metrics
from scfgkit.grammar import as_words
from scfgkit.metagrammar import GrammarSpec, generate
from scfgkit.metrics import BleuConfig, ScoreRecord
from scfgkit.parsing import translate
from scfgkit.sampling import sample_pair

from . import oracles as oracle

# Latin with diacritics, Cyrillic, pointed Hebrew, Devanagari with a
# combining sign, CJK and the punctuation models wrap answers in.
ALPHABET = "abcé" + "жщы" + "שָׁל" + "कि" + "漢字" + ".,`!"

ORDERS = pytest.mark.parametrize("order", [list, sorted], ids=["drawn", "sorted"])


@st.composite
def scoring_cases(draw):
    """A candidate and a gold list over a small shared vocabulary, so
    n-grams overlap; possibly empty, with duplicate golds and the
    candidate itself among them."""
    pool = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=4), min_size=1, max_size=6))
    sentence = st.lists(st.sampled_from(pool), max_size=9).map(" ".join)
    cand = draw(sentence)
    golds = draw(st.lists(sentence, min_size=1, max_size=7))
    if draw(st.booleans()):
        golds.append(draw(st.sampled_from(golds)))
    if draw(st.booleans()):
        golds.insert(draw(st.integers(0, len(golds))), cand)
    return cand, golds


bleu_configs = st.builds(BleuConfig, smoothing=st.sampled_from(["exp-floor", "none"]))


@ORDERS
@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), bleu_cfg=bleu_configs)
def test_score_candidate_matches_oracle(order, case, bleu_cfg):
    # the whole gold set, then each member alone
    cand, golds = case
    for gold_set in [order(golds)] + [[gold] for gold in golds]:
        got = metrics.score_candidate(cand, gold_set, bleu_cfg)
        assert got == oracle.score_candidate(cand, gold_set, bleu_cfg)


@ORDERS
@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), bleu_cfg=bleu_configs)
def test_gold_members_match_oracle(order, case, bleu_cfg):
    # a nonempty member is scored from membership
    cand, golds = case
    golds = order(golds + [cand])
    got = metrics.score_candidate(cand, golds, bleu_cfg)
    assert got == oracle.score_candidate(cand, golds, bleu_cfg)


MAXIMUM = ScoreRecord(exact=1, bag_of_words=1, bleu=1.0, chrfpp=1.0)

# The one gold member that scores below the maximum, so must not be scored
# from membership: the empty answer, which has no n-gram.
BELOW_MAXIMUM = [("", ["", "a b"]), ((), [""])]


@pytest.mark.parametrize("cand, golds", BELOW_MAXIMUM)
def test_members_below_the_maximum_are_counted(cand, golds):
    got = metrics.score_candidate(cand, golds)
    assert got == oracle.score_candidate(cand, golds)
    assert got.exact == 1 and got != MAXIMUM


def test_members_at_the_maximum_count_no_ngrams():
    # a repeated word, a one-character answer and a word without characters,
    # which still has word n-grams
    cases = [("a b a", ["x", "a b a"]), ("é", ["é"]), (("",), [("",)])]
    for cand, golds in cases:
        for bleu_cfg in (BleuConfig(), BleuConfig(smoothing="none")):
            assert oracle.score_candidate(cand, golds, bleu_cfg) == MAXIMUM
            with mock.patch.object(metrics, "_ngram_stats", side_effect=AssertionError):
                assert metrics.score_candidate(cand, golds, bleu_cfg) == MAXIMUM


@ORDERS
@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
def test_nearest_gold_matches_oracle(order, case):
    cand, golds = case
    golds = order(golds)
    cand_words = errors.normalize_words(cand)
    got = errors.nearest_gold(cand_words, golds)
    assert got == oracle.nearest_gold(cand_words, golds)


@st.composite
def distance_cases(draw):
    """A candidate and members over a small alphabet, as word tuples or as
    strings: the candidate up to 150 symbols (past a 64-bit word) or empty,
    the members in any order, with duplicates and prefixes of one another."""
    words = draw(st.booleans())
    symbol = st.sampled_from(["a", "b", "жы"] if words else "abж")
    as_kind = tuple if words else "".join
    sequence = st.integers(0, 150).flatmap(lambda n: st.lists(symbol, min_size=n, max_size=n))
    cand = draw(sequence)
    stems = draw(st.lists(sequence, min_size=1, max_size=3))
    members = [stem[: draw(st.integers(0, len(stem)))] if draw(st.booleans()) else stem
               for stem in draw(st.lists(st.sampled_from(stems), min_size=1, max_size=6))]
    return as_kind(cand), [as_kind(member) for member in draw(st.permutations(members))]


@settings(max_examples=100, deadline=None)
@given(case=distance_cases())
def test_edit_distances_match_oracle(case):
    cand, members = case
    got = list(errors._distances(cand, members))
    assert got == [oracle.edit_distance(cand, member) for member in members]


@settings(max_examples=300, deadline=None)
@given(
    word=st.text("abcж", min_size=1, max_size=9),
    vocab=st.lists(st.text("abcж", min_size=1, max_size=9), min_size=1, max_size=30),
)
def test_misspelling_early_exit_matches_oracle(word, vocab):
    # the check stops at the first target word within the distance
    tgt = frozenset(vocab)
    labels = errors.classify(word, {vocab[0]}, src_vocab=frozenset(), tgt_vocab=tgt)
    near = any(oracle.edit_distance(word, real) <= errors.MISSPELLING_DISTANCE for real in tgt)
    assert ("misspelling" in labels) == (word not in tgt and near)


def test_ties_keep_the_first_member_in_any_member_order():
    # every gold is one substitution away; the first must win in any order
    for golds in permutations(["x b", "a y", "a z", "w b", "a v"]):
        assert errors.nearest_gold(("a", "b"), golds) == tuple(golds[0].split())


def test_ties_prefer_the_candidates_words_in_any_member_order():
    # every gold is two edits away; two have the candidate's words, and the
    # first of those wins
    for golds in permutations(["x y c", "a x z", "c b a", "b a c"]):
        first = next(gold for gold in golds if sorted(gold.split()) == ["a", "b", "c"])
        assert errors.nearest_gold(("a", "b", "c"), golds) == tuple(first.split())


def test_256_gold_agreement_case_matches_oracle():
    spec = GrammarSpec(
        size=128, word_order_src="SVO", word_order_tgt="SOV", agreement_tgt=True, seed=0
    )
    grammar = generate(spec)
    pair = sample_pair(grammar, 40, rng_seed=43)
    golds = sorted(translate(grammar, pair.source))
    assert len(golds) == 256
    perturbed = list(as_words(golds[200]))
    perturbed[1], perturbed[2] = perturbed[2], perturbed[1]
    del perturbed[-3]
    for cand in (" ".join(pair.source), " ".join(perturbed), " ".join(pair.target)):
        assert metrics.score_candidate(cand, golds) == oracle.score_candidate(cand, golds)
        cand_words = errors.normalize_words(cand)
        assert errors.nearest_gold(cand_words, golds) == oracle.nearest_gold(
            cand_words, golds
        )
