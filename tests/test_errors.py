from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.cli import main
from scfgkit.errors import (
    LABELS,
    MISSPELLING_DISTANCE,
    UNPARSEABLE,
    aggregate,
    classify,
    nearest_gold,
    normalize_words,
    sorted_labels,
)
from scfgkit.grammar import word_vocab
from scfgkit.lexicon import english_words
from scfgkit.metagrammar import GrammarSpec, generate
from scfgkit.scripts import SCRIPT_NAMES, get_script, transliterate

from .oracles import edit_distance, in_ranges

SRC = frozenset({"wug", "nat", "ido"})
TGT = frozenset({"lomu", "bako", "zatpuj", "kem"})
GOLDS = {"lomu bako zatpuj"}


def labels_for(cand, golds=GOLDS, **kw):
    kw.setdefault("src_vocab", SRC)
    kw.setdefault("tgt_vocab", TGT)
    return classify(cand, golds, **kw)


def test_taxonomy_is_fixed():
    assert LABELS == (
        "word_order",
        "recall",
        "hallucination",
        "misspelling",
        "source_vocab",
        "orthography",
        "english_vocab",
        "omission",
    )
    assert UNPARSEABLE == "unparseable"


def test_matching_candidate_gets_no_labels():
    assert labels_for("lomu bako zatpuj") == frozenset()
    # edge punctuation is forgiven before comparison
    assert labels_for("lomu bako zatpuj.") == frozenset()
    assert labels_for("`lomu bako zatpuj`") == frozenset()


def test_word_order():
    assert labels_for("bako lomu zatpuj") == {"word_order"}
    assert labels_for("zatpuj bako lomu") == {"word_order"}


def test_recall_word_from_target_language():
    assert labels_for("lomu kem zatpuj") == {"recall", "omission"}


def test_hallucination_and_misspelling():
    # not a word of either language, far from every target word
    assert labels_for("lomu bako zzq") == {"hallucination", "omission"}
    # one letter off a real target word counts as a misspelling as well
    assert labels_for("lomu bako zatpul") == {
        "hallucination",
        "misspelling",
        "omission",
    }
    assert edit_distance("zatpul", "zatpuj") <= MISSPELLING_DISTANCE


def test_source_vocab_leak():
    assert labels_for("lomu bako wug") == {"source_vocab", "omission"}


def test_english_vocab():
    got = labels_for("lomu bako the", english=english_words())
    assert "english_vocab" in got
    assert "omission" in got
    # without a wordlist the word is just a hallucination
    assert "english_vocab" not in labels_for("lomu bako the")


def test_omission_alone():
    assert labels_for("lomu bako") == {"omission"}
    assert labels_for("") == {"omission"}


def test_extra_gold_word_is_not_omission():
    golds = {"lomu bako"}
    assert classify("lomu bako zatpuj", golds, SRC, TGT) == {"recall"}


def test_orthography_wrong_script():
    cyr = get_script("Cyrillic")
    gold = transliterate("lomu", cyr) + " " + transliterate("bako", cyr)
    golds = {gold}
    tgt = frozenset(gold.split())
    # candidate written in Latin letters violates the script ranges
    got = classify("lomu bako", golds, SRC, tgt, script=cyr)
    assert "orthography" in got
    assert classify(gold, golds, SRC, tgt, script=cyr) == frozenset()


def test_orthography_missing_diacritics():
    pointed = get_script("HebrewPointed")
    bare = get_script("Hebrew")
    gold = transliterate("lomu", pointed)
    stripped = transliterate("lomu", bare)
    got = classify(stripped, {gold}, SRC, frozenset({gold}), script=pointed)
    assert "orthography" in got


def test_nearest_gold_picks_minimum_edit_distance():
    golds = ["lomu bako zatpuj", "kem zatpuj"]
    assert nearest_gold(("kem", "zatpuj"), golds) == ("kem", "zatpuj")
    assert nearest_gold(("lomu", "bako"), golds) == ("lomu", "bako", "zatpuj")
    with pytest.raises(ValueError):
        nearest_gold(("a",), [])
    # classification is against the nearest member
    got = classify("kem zatpul", golds, SRC, TGT)
    assert got == {"hallucination", "misspelling", "omission"}


def test_a_reversed_gold_anchors_to_a_member_with_its_words():
    # gold sets are sorted, and with a Hebrew-script agreeing target every
    # variant ties with the pair's own gold; the first of them used to win,
    # labelling the reversal recall and omission instead of word order
    from scfgkit.harness import GoldSet
    from scfgkit.parsing import TRANSLATE_CAP
    from scfgkit.sampling import sample_pair

    grammar = generate(GrammarSpec(size=128, agreement_tgt=True, script_tgt="Hebrew", seed=3))
    for length in (5, 8, 20):
        for seed in range(10):
            pair = sample_pair(grammar, length, rng_seed=seed)
            answer = list(reversed(pair.target))
            gold = " ".join(pair.target)
            labels = GoldSet.of(grammar, pair.source, gold, TRANSLATE_CAP).labels(answer, get_script("Hebrew"))
            assert "word_order" in labels, (length, seed, labels)


def test_a_reversed_gold_missing_a_word_anchors_to_its_own_gold():
    # the reversal ties its own gold and other agreement variants at the
    # minimum distance but has no variant's multiset; the sorted-first
    # variant used to win, labelling words of the answer's own gold recall
    from scfgkit.harness import GoldSet
    from scfgkit.parsing import TRANSLATE_CAP
    from scfgkit.sampling import sample_pair

    grammar = generate(GrammarSpec(size=128, agreement_tgt=True, script_tgt="Hebrew", seed=3))
    for length in (5, 8, 20):
        for seed in range(10):
            pair = sample_pair(grammar, length, rng_seed=seed)
            answer = list(reversed(pair.target[1:]))
            gold = " ".join(pair.target)
            labels = GoldSet.of(grammar, pair.source, gold, TRANSLATE_CAP).labels(answer, get_script("Hebrew"))
            assert "recall" not in labels, (length, seed, labels)
            assert "omission" in labels, (length, seed, labels)


def test_normalize_words():
    assert normalize_words("a, b. `c`!") == ("a", "b", "c")
    assert normalize_words("  ") == ()
    assert normalize_words(["a.", "..", "b"]) == ("a", "b")


def test_sorted_labels_order():
    got = sorted_labels({"omission", "word_order", UNPARSEABLE, "recall"})
    assert got == ["word_order", "recall", "omission", UNPARSEABLE]


def test_aggregate_counts_and_rates():
    table = aggregate([{"recall"}, {"recall", "omission"}])
    row = table["all"]
    assert row["n"] == 2
    assert row["counts"]["recall"] == 2
    assert row["counts"]["omission"] == 1
    assert row["rates"]["recall"] == 1.0
    assert row["rates"]["omission"] == 0.5
    assert row["unlabeled"] == 0


def test_aggregate_unlabeled_and_groups():
    table = aggregate(
        [set(), {"recall"}, {UNPARSEABLE}, {"omission"}],
        group_keys=["a", "a", "b", "b"],
    )
    assert table["a"]["n"] == 2
    assert table["a"]["unlabeled"] == 1
    # a label outside the taxonomy does not count as labeled
    assert table["b"]["unlabeled"] == 1
    assert table["b"]["counts"]["omission"] == 1
    with pytest.raises(ValueError):
        aggregate([set()], group_keys=[])


def test_edit_distance_examples():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance(("a", "b"), ("b", "a")) == 2
    assert edit_distance("same", "same") == 0


short = st.text(alphabet="abcde", max_size=8)


@settings(max_examples=200, deadline=None)
@given(a=short, b=short)
def test_edit_distance_properties(a, b):
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)
    assert d >= abs(len(a) - len(b))
    limited = edit_distance(a, b, limit=2)
    if d <= 2:
        assert limited == d
    else:
        assert limited > 2


@settings(max_examples=100, deadline=None)
@given(
    cand=st.lists(st.sampled_from(sorted(SRC | TGT) + ["zzq", "the"]), max_size=6),
)
def test_classify_returns_known_labels(cand):
    got = labels_for(" ".join(cand), english=english_words())
    assert got <= set(LABELS)


@lru_cache(maxsize=None)
def target_vocab(size: int, agreement: bool, script: str) -> tuple[str, ...]:
    spec = GrammarSpec(size=size, agreement_tgt=agreement, script_tgt=script, seed=4)
    return tuple(sorted(word_vocab(generate(spec), "tgt")))


EDITS = ("substitute", "delete", "insert", "mark", "foreign")


def apply_edit(word: str, edit, alphabet: str, foreign: str) -> str:
    kind, at, pick = edit
    cut = at % (len(word) + 1)
    if kind == "substitute" and word:
        cut = at % len(word)
        return word[:cut] + alphabet[pick % len(alphabet)] + word[cut + 1 :]
    if kind == "delete" and word:
        cut = at % len(word)
        return word[:cut] + word[cut + 1 :]
    if kind == "insert":
        return word[:cut] + alphabet[pick % len(alphabet)] + word[cut:]
    if kind == "mark":
        # a combining acute accent or a Hebrew qamats
        return word[:cut] + "\u0301\u05b8"[pick % 2] + word[cut:]
    return word[:cut] + foreign + word[cut:]


@settings(max_examples=300, deadline=None)
@given(
    grammar=st.sampled_from([(237, False), (128, True)]),
    script=st.sampled_from(SCRIPT_NAMES),
    pick=st.integers(min_value=0, max_value=10**6),
    edits=st.lists(
        st.tuples(
            st.sampled_from(EDITS),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=4,
    ),
)
def test_misspelling_matches_the_oracle(grammar, script, pick, edits):
    # the kernel compares a word only with target words of a length within
    # MISSPELLING_DISTANCE of its own; the oracle compares it with all of them
    tgt = target_vocab(*grammar, script)
    alphabet = "".join(sorted(set("".join(tgt))))
    foreign = next(ch for ch in "qжא" if not in_ranges(get_script(script), ch))
    word = tgt[pick % len(tgt)]
    for edit in edits:
        word = apply_edit(word, edit, alphabet, foreign)
    if not word:
        return
    labels = classify(word, {tgt[0]}, src_vocab=frozenset(), tgt_vocab=frozenset(tgt))
    near = any(edit_distance(word, real) <= MISSPELLING_DISTANCE for real in tgt)
    assert ("misspelling" in labels) == (word not in tgt and near)


# Seeded wrong answers on three generated grammars, with the labels
# `scfgkit classify` and the scores `scfgkit score --grammar` gave them when
# they were pinned (tools/gen_label_fixtures.py).
LABEL_FIXTURES = sorted((Path(__file__).parent / "data" / "labels").iterdir())


@pytest.mark.parametrize("fixture", LABEL_FIXTURES, ids=lambda path: path.name)
def test_classify_keeps_the_pinned_labels(fixture, tmp_path):
    grammar, out = tmp_path / "grammar.scfg", tmp_path / "labels.jsonl"
    assert main(["gen", *(fixture / "flags").read_text("utf-8").split(), "--out", str(grammar)]) == 0
    assert main(["classify", "--pairs", str(fixture / "pairs.jsonl"), "--cands", str(fixture / "cands.txt"),
                 "--grammar", str(grammar), "--out", str(out)]) == 0
    assert out.read_bytes() == (fixture / "labels.jsonl").read_bytes()


@pytest.mark.parametrize("fixture", LABEL_FIXTURES, ids=lambda path: path.name)
def test_score_keeps_the_pinned_scores(fixture, tmp_path):
    grammar, out = tmp_path / "grammar.scfg", tmp_path / "scores.jsonl"
    assert main(["gen", *(fixture / "flags").read_text("utf-8").split(), "--out", str(grammar)]) == 0
    assert main(["score", "--pairs", str(fixture / "pairs.jsonl"), "--cands", str(fixture / "cands.txt"),
                 "--grammar", str(grammar), "--out", str(out)]) == 0
    assert out.read_bytes() == (fixture / "scores.jsonl").read_bytes()


def test_each_command_does_only_its_own_work(tmp_path, monkeypatch):
    # classify never scores and score never labels; each enumerates one gold
    # set per run of lines with one source and gold: 15 runs of 8 answers
    from scfgkit import harness

    fixture = Path(__file__).parent / "data" / "labels" / "latin-agr"
    grammar = tmp_path / "grammar.scfg"
    assert main(["gen", *(fixture / "flags").read_text("utf-8").split(), "--out", str(grammar)]) == 0
    calls = {}
    for name in ("translate", "score_candidate", "classify"):
        def counted(*args, _name=name, _inner=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    inputs = ["--pairs", str(fixture / "pairs.jsonl"), "--cands", str(fixture / "cands.txt"), "--grammar", str(grammar)]
    for command, work in (("classify", {"translate": 15, "score_candidate": 0, "classify": 120}),
                          ("score", {"translate": 15, "score_candidate": 120, "classify": 0})):
        calls.update(dict.fromkeys(work, 0))
        assert main([command, *inputs, "--out", str(tmp_path / "out.jsonl")]) == 0
        assert calls == work, command
