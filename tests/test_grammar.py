import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.grammar import (
    GrammarError,
    SyncGrammar,
    SyncRule,
    as_words,
    nonterminal,
    parse_grammar_text,
    rule_text,
    serialize_grammar,
    terminal,
    validate,
    word_vocab,
)
from scfgkit.metagrammar import GrammarSpec, generate


def test_symbol_null_and_words():
    assert terminal("∅_T_pres").null
    assert terminal("∅_T_pres").words() == ()
    assert terminal("watashi wa").words() == ("watashi", "wa")
    assert nonterminal("VP").words() == ()
    assert not nonterminal("∅oddname").null  # null applies to terminals only


def test_parse_single_rule():
    g = parse_grammar_text("S -> <NP VP, VP NP>\nNP -> <'a', 'b'>\nVP -> <'c', 'd'>")
    assert g.start == "S"
    assert g.rules[0].lhs == "S"
    assert [s.text for s in g.rules[0].src] == ["NP", "VP"]
    assert [s.text for s in g.rules[0].tgt] == ["VP", "NP"]
    assert not g.rules[1].children and g.rules[0].children == ("NP", "VP")


def test_parse_skips_blank_and_comment_lines():
    g = parse_grammar_text("# header\n\nS -> <'x', 'y'>\n")
    assert len(g.rules) == 1


def test_quoted_terminal_may_contain_comma():
    g = parse_grammar_text("S -> <'a, b', 'c'>")
    assert g.rules[0].src[0].text == "a, b"


def test_parse_rejects_malformed_lines():
    for bad in ("S -> NP VP", "S <NP, VP>", "S -> <NP>", "-> <'a', 'b'>"):
        with pytest.raises(GrammarError):
            parse_grammar_text(bad)


def test_parse_rejects_mixed_sides():
    with pytest.raises(GrammarError):
        parse_grammar_text("S -> <NP 'x', NP>\nNP -> <'a', 'b'>")


def test_roundtrip_preserves_bytes(appendix_text):
    g = parse_grammar_text(appendix_text)
    assert serialize_grammar(g) == appendix_text


def test_rule_text_default_spelling():
    rule = SyncRule("S", (nonterminal("A"), nonterminal("B")), (nonterminal("B"), nonterminal("A")))
    assert rule_text(rule) == "S -> <A B, B A>"


def test_validate_accepts_fig1(fig1_grammar):
    validate(fig1_grammar)


def test_validate_rejects_duplicate_nonterminal_in_side():
    with pytest.raises(GrammarError, match="repeats"):
        parse_grammar_text("S -> <A A, A A>\nA -> <'a', 'b'>")


def test_validate_rejects_side_nonterminal_mismatch():
    with pytest.raises(GrammarError, match="mismatched sides"):
        parse_grammar_text("S -> <A B, A C>\nA -> <'a','a'>\nB -> <'b','b'>\nC -> <'c','c'>")


def test_validate_rejects_missing_expansion():
    with pytest.raises(GrammarError, match="without rules"):
        parse_grammar_text("S -> <A B, B A>\nA -> <'a', 'b'>")


def test_word_vocab_splits_multiword_and_drops_nulls(fig1_grammar):
    tgt = word_vocab(fig1_grammar, "tgt")
    assert {"watashi", "wa", "hako", "wo", "akemasu"} == tgt
    assert "∅_def" not in tgt
    assert "I" in word_vocab(fig1_grammar, "src")


def test_as_words_accepts_strings_and_sequences():
    assert as_words("a b  c") == ("a", "b", "c")
    assert as_words(["a", "b"]) == ("a", "b")
    assert as_words(()) == ()


@settings(max_examples=30, deadline=None)
@given(
    size=st.sampled_from([57, 77, 117]),
    seed=st.integers(min_value=0, max_value=10_000),
    tgt_order=st.sampled_from(["SVO", "SOV", "OVS"]),
)
def test_generated_grammars_roundtrip(size, seed, tgt_order):
    g = generate(GrammarSpec(size=size, word_order_tgt=tgt_order, seed=seed))
    text = serialize_grammar(g)
    again = parse_grammar_text(text)
    assert again == SyncGrammar(g.start, g.rules)
    assert serialize_grammar(again) == text
