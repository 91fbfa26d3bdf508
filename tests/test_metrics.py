import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.metrics import BleuConfig, ScoreRecord, score_candidate

words = st.lists(
    st.sampled_from("wug nat lomu ido bakomi zat puj".split()),
    min_size=0,
    max_size=8,
).map(" ".join)


NO_SMOOTHING = BleuConfig(smoothing="none")


def test_bag_of_words_ignores_order_only():
    assert score_candidate("a b c", ["c b a"]).bag_of_words == 1.0
    assert score_candidate("a b c", ["a b c"]).bag_of_words == 1.0
    assert score_candidate("a a b", ["a b b"]).bag_of_words == 0.0  # multiset, not set
    assert score_candidate("a b", ["a b c"]).bag_of_words == 0.0
    assert score_candidate("", [""]).bag_of_words == 1.0


def test_fixture_conformance(metric_fixtures):
    worst = 0.0
    for case in metric_fixtures["cases"]:
        got = score_candidate(case["cand"], [case["gold"]])
        worst = max(worst, abs(got.bleu - case["bleu"]))
        got_none = score_candidate(case["cand"], [case["gold"]], NO_SMOOTHING).bleu
        worst = max(worst, abs(got_none - case["bleu_none"]))
        worst = max(worst, abs(got.chrfpp - case["chrfpp"]))
    assert worst <= 1e-4, worst


def test_handpicked_reference_values(metric_fixtures):
    by_pair = {(c["cand"], c["gold"]): c for c in metric_fixtures["cases"]}
    case = by_pair[("a b c d", "a b c e")]
    assert score_candidate("a b c d", ["a b c e"]).bleu == pytest.approx(case["bleu"])
    # candidate sharing no word with the gold: smoothing keeps BLEU above
    # zero, the unsmoothed variant is exactly zero
    case = by_pair[("xyz qrs", "aei oua")]
    assert case["bleu_none"] == 0.0
    assert score_candidate("xyz qrs", ["aei oua"], NO_SMOOTHING).bleu == 0.0
    assert score_candidate("xyz qrs", ["aei oua"]).bleu == pytest.approx(case["bleu"])
    assert case["bleu"] > 0.0
    assert score_candidate("xyz qrs", ["aei oua"]).chrfpp == 0.0


def test_brevity_penalty_direction():
    long_gold = "a b c d e f g h"
    short = score_candidate("a b c d", [long_gold]).bleu
    padded = score_candidate("a b c d e f g h", [long_gold]).bleu
    assert padded == 1.0
    assert short < padded


def test_empty_candidate_scores_zero():
    assert score_candidate("", ["a b c"]) == ScoreRecord(0, 0, 0.0, 0.0)


def test_bleu_config_validation():
    with pytest.raises(ValueError):
        BleuConfig(smoothing="banana")


def test_chrfpp_sees_subword_overlap():
    # word metrics see nothing, character metrics reward the shared stem
    assert score_candidate("wugnat", ["wugnap"]).bag_of_words == 0.0
    assert score_candidate("wugnat", ["wugnap"]).chrfpp > 0.3
    assert score_candidate("wugnat", ["wugnat"]).chrfpp == 1.0


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
    # exact match is membership in the gold set
    assert score_candidate("a b c", {"a b", "a b c d"}).exact == 0
    assert score_candidate("a b c", {"x y", "a b c"}).exact == 1
    # comparison is over words, so runs of whitespace do not matter
    assert score_candidate("a  b", {"a b"}).exact == 1
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
        *score_candidate(cand, [gold]).as_dict().values(),
        score_candidate(cand, [gold], NO_SMOOTHING).bleu,
    ):
        assert 0.0 <= value <= 1.0
        assert math.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(text=words)
def test_identity_scores_one(text):
    rec = score_candidate(text, [text])
    assert rec.exact == 1
    assert rec.bag_of_words == 1
    if text:
        assert rec.bleu == 1.0
        assert rec.chrfpp == 1.0


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
    rec = score_candidate(cand, [gold])
    if rec.exact == 1 and cand:
        assert rec.bag_of_words == 1
        assert rec.bleu == 1.0
        assert rec.chrfpp == 1.0


def _pinned_cases() -> list:
    """400 gold sets and an answer made from one member: a word dropped, two
    words swapped or a word added, each at random."""
    # random() is the one stream Python keeps the same across versions
    rng = random.Random(29)
    vocab = "a b c wug nat é жщы שָׁל कि 漢字".split()

    def pick(seq):
        return seq[int(rng.random() * len(seq))]

    def sentence():
        return [pick(vocab) for _ in range(int(rng.random() * 9))]

    cases = []
    for _ in range(400):
        golds = [sentence() for _ in range(1 + int(rng.random() * 6))]
        cand = list(pick(golds))
        if cand and rng.random() < 0.6:
            del cand[int(rng.random() * len(cand))]
        if len(cand) > 1 and rng.random() < 0.5:
            i = int(rng.random() * (len(cand) - 1))
            cand[i], cand[i + 1] = cand[i + 1], cand[i]
        if rng.random() < 0.3:
            cand.append(pick(vocab))
        cases.append((" ".join(cand), [" ".join(g) for g in golds]))
    return cases


# SHA-256 of the pinned cases' scores, one line each, floats as float.hex():
# a change to any formula, order of summation or setting moves it
PINNED_SCORES = {
    "exp-floor": "d78f71708f23d871f98f07cc61a1e55a3966294d9d4838f4c43d74778a6b062c",
    "none": "9ceb0c6af0ccc7321f6c330fd47bf36baacf7a3cf42cc9595ffff37e543c0c13",
}


@pytest.mark.parametrize("smoothing", sorted(PINNED_SCORES))
def test_score_bits_are_pinned(smoothing):
    cfg = BleuConfig(smoothing=smoothing)
    lines = [
        f"{r.exact} {r.bag_of_words} {r.bleu.hex()} {r.chrfpp.hex()}"
        for r in (score_candidate(cand, golds, cfg) for cand, golds in _pinned_cases())
    ]
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == PINNED_SCORES[smoothing]
