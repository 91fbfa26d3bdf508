import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.metrics import (
    BleuConfig,
    ScoreRecord,
    bag_of_words,
    bleu,
    chrfpp,
    corpus_bleu,
    corpus_chrfpp,
    exact_match,
    score_candidate,
)

words = st.lists(
    st.sampled_from("wug nat lomu ido bakomi zat puj".split()),
    min_size=0,
    max_size=8,
).map(" ".join)


def test_exact_match_is_membership_in_gold_set():
    assert exact_match("a b c", {"a b c"}) == 1
    assert exact_match("a b c", {"a b", "a b c d"}) == 0
    assert exact_match("a b c", {"x y", "a b c"}) == 1
    assert exact_match("a b c", set()) == 0
    # comparison is over words, so runs of whitespace do not matter
    assert exact_match("a  b", {"a b"}) == 1


def test_bag_of_words_ignores_order_only():
    assert bag_of_words("a b c", "c b a") == 1.0
    assert bag_of_words("a b c", "a b c") == 1.0
    assert bag_of_words("a a b", "a b b") == 0.0  # multiset, not set
    assert bag_of_words("a b", "a b c") == 0.0
    assert bag_of_words("", "") == 1.0


def test_fixture_conformance(metric_fixtures):
    worst = 0.0
    for case in metric_fixtures["cases"]:
        got = bleu(case["cand"], case["gold"])
        worst = max(worst, abs(got - case["bleu"]))
        got_none = bleu(case["cand"], case["gold"], BleuConfig(smoothing="none"))
        worst = max(worst, abs(got_none - case["bleu_none"]))
        got_chrf = chrfpp(case["cand"], case["gold"])
        worst = max(worst, abs(got_chrf - case["chrfpp"]))
    assert worst <= 1e-4, worst


def test_handpicked_reference_values(metric_fixtures):
    by_pair = {(c["cand"], c["gold"]): c for c in metric_fixtures["cases"]}
    case = by_pair[("a b c d", "a b c e")]
    assert bleu("a b c d", "a b c e") == pytest.approx(case["bleu"])
    # candidate sharing no word with the gold: smoothing keeps BLEU above
    # zero, the unsmoothed variant is exactly zero
    case = by_pair[("xyz qrs", "aei oua")]
    assert case["bleu_none"] == 0.0
    assert bleu("xyz qrs", "aei oua", BleuConfig(smoothing="none")) == 0.0
    assert bleu("xyz qrs", "aei oua") == pytest.approx(case["bleu"])
    assert case["bleu"] > 0.0
    assert chrfpp("xyz qrs", "aei oua") == 0.0


def test_brevity_penalty_direction():
    long_gold = "a b c d e f g h"
    short = bleu("a b c d", long_gold)
    padded = bleu("a b c d e f g h", long_gold)
    assert padded == 1.0
    assert short < padded


def test_empty_candidate_scores_zero():
    assert bleu("", "a b c") == 0.0
    assert chrfpp("", "a b c") == 0.0
    assert bag_of_words("", "a b c") == 0.0


def test_bleu_config_validation():
    with pytest.raises(ValueError):
        BleuConfig(max_order=0)
    with pytest.raises(ValueError):
        BleuConfig(smoothing="banana")
    with pytest.raises(ValueError):
        BleuConfig(weights=(0.5, 0.5, 0.5, 0.5, 0.5))


def test_chrfpp_sees_subword_overlap():
    # word metrics see nothing, character metrics reward the shared stem
    assert bag_of_words("wugnat", "wugnap") == 0.0
    assert chrfpp("wugnat", "wugnap") > 0.3
    assert chrfpp("wugnat", "wugnat") == 1.0


def test_corpus_variants_pool_statistics():
    cands = ["a b c d", "e f g h"]
    golds = ["a b c d", "a b c d"]
    pooled = corpus_bleu(cands, golds)
    assert 0.0 <= pooled <= 1.0
    assert corpus_bleu(["a b c d e"], ["a b c d e"]) == 1.0
    # corpus BLEU keeps the fixed n-gram order: a corpus with no 4-grams
    # scores zero rather than falling back to shorter orders
    assert corpus_bleu(["a b"], ["a b"]) == 0.0
    assert corpus_chrfpp(["a b"], ["a b"]) == 1.0
    assert corpus_chrfpp(cands, golds) < 1.0


def test_score_candidate_takes_best_gold():
    golds = {"a b c", "x y z"}
    rec = score_candidate("x y z", golds)
    assert isinstance(rec, ScoreRecord)
    assert rec.exact == 1.0
    assert rec.bag_of_words == 1.0
    assert rec.bleu == 1.0
    assert rec.chrfpp == 1.0
    rec2 = score_candidate("z y x", golds)
    assert rec2.exact == 0.0
    assert rec2.bag_of_words == 1.0
    with pytest.raises(ValueError):
        score_candidate("a", set())


def test_score_record_as_dict():
    d = score_candidate("a", {"a"}).as_dict()
    assert d == {
        "exact": 1.0,
        "bag_of_words": 1.0,
        "bleu": 1.0,
        "chrfpp": 1.0,
    }


@settings(max_examples=150, deadline=None)
@given(cand=words, gold=words)
def test_scores_are_bounded(cand, gold):
    for value in (
        exact_match(cand, [gold]),
        bag_of_words(cand, gold),
        bleu(cand, gold),
        bleu(cand, gold, BleuConfig(smoothing="none")),
        chrfpp(cand, gold),
    ):
        assert 0.0 <= value <= 1.0
        assert math.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(text=words)
def test_identity_scores_one(text):
    assert exact_match(text, [text]) == 1
    assert bag_of_words(text, text) == 1
    if text:
        assert bleu(text, text) == 1.0
        assert chrfpp(text, text) == 1.0


@settings(max_examples=100, deadline=None)
@given(cand=words, gold=words, extra=words)
def test_adding_golds_never_lowers_scores(cand, gold, extra):
    base = score_candidate(cand, {gold})
    wider = score_candidate(cand, {gold, extra})
    assert wider.exact >= base.exact
    assert wider.bag_of_words >= base.bag_of_words
    assert wider.bleu >= base.bleu
    assert wider.chrfpp >= base.chrfpp


@settings(max_examples=100, deadline=None)
@given(cand=words, gold=words)
def test_exact_match_implies_perfect_scores(cand, gold):
    if exact_match(cand, [gold]) == 1 and cand:
        assert bag_of_words(cand, gold) == 1
        assert bleu(cand, gold) == 1.0
        assert chrfpp(cand, gold) == 1.0
