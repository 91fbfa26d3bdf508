"""Differential tests: batched scoring and nearest gold against the oracles.

``tests/oracles.py`` keeps the Counter-based scorer and the enumerating
nearest-gold search; every score here must equal theirs exactly (``==`` on
floats) and the same gold member must be chosen.  Running each property with
a block of 2 golds as well as the defaults puts block boundaries, and ties
across blocks, inside small examples.
"""

from contextlib import contextmanager
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

BLOCKS = pytest.mark.parametrize("block", [2, None])


@contextmanager
def gold_block(size: int | None):
    """Golds per batch in scoring and nearest-gold search (None: defaults)."""
    if size is None:
        yield
        return
    with mock.patch.object(metrics, "GOLD_BLOCK", size), mock.patch.object(
        errors, "GOLD_BLOCK", size
    ):
        yield


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


@BLOCKS
@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), bleu_cfg=bleu_configs)
def test_score_candidate_matches_oracle(block, case, bleu_cfg):
    # the whole gold set, then each member alone
    cand, golds = case
    for gold_set in [golds] + [[gold] for gold in golds]:
        with gold_block(block):
            got = metrics.score_candidate(cand, gold_set, bleu_cfg)
        assert got == oracle.score_candidate(cand, gold_set, bleu_cfg)


@BLOCKS
@settings(max_examples=150, deadline=None)
@given(case=scoring_cases(), bleu_cfg=bleu_configs)
def test_gold_members_match_oracle(block, case, bleu_cfg):
    # a nonempty member is scored from membership
    cand, golds = case
    golds = golds + [cand]
    with gold_block(block):
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
            with mock.patch.object(metrics, "_CandidateNgrams", side_effect=AssertionError):
                assert metrics.score_candidate(cand, golds, bleu_cfg) == MAXIMUM


@BLOCKS
@settings(max_examples=200, deadline=None)
@given(case=scoring_cases())
def test_nearest_gold_matches_oracle(block, case):
    cand, golds = case
    cand_words = errors.normalize_words(cand)
    with gold_block(block):
        got = errors.nearest_gold(cand_words, golds)
    assert got == oracle.nearest_gold(cand_words, golds)


def test_ties_keep_the_first_member_across_blocks():
    # every gold is one substitution away; the first must win in any block
    golds = ["x b", "a y", "a z", "w b", "a v"]
    for block in (1, 2, 3, None):
        with gold_block(block):
            assert errors.nearest_gold(("a", "b"), golds) == ("x", "b")


def test_ties_prefer_the_candidates_words_across_blocks():
    # every gold is two edits away; the last has the candidate's words
    golds = ["x y c", "a x z", "c b a", "b a c"]
    for block in (1, 2, 3, None):
        with gold_block(block):
            assert errors.nearest_gold(("a", "b", "c"), golds) == ("c", "b", "a")


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
