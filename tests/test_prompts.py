from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit import compiled, grammar, prompts
from scfgkit.grammar import parse_grammar_text, serialize_grammar
from scfgkit.prompts import ANSWER_MARKER, extract_answer, render_prompt


def test_reference_prompt_is_byte_exact(appendix_grammar, appendix_prompt):
    got = render_prompt(appendix_grammar, "sirlob rofxew livhuj")
    assert got == appendix_prompt


def test_prompt_embeds_grammar_and_sentence(fig1_grammar):
    prompt = render_prompt(fig1_grammar, "I open the box")
    assert "```\n" + serialize_grammar(fig1_grammar) + "```" in prompt
    assert "Here is the input sentence: `I open the box`." in prompt
    # announced once in the instructions, once in the closing reminder
    assert prompt.count(ANSWER_MARKER) == 2
    assert f"{ANSWER_MARKER} <output sentence>" in prompt
    assert not prompt.endswith("\n")


def test_each_grammar_is_serialized_once(fig1_grammar):
    fresh = parse_grammar_text(serialize_grammar(fig1_grammar))
    calls = []

    def counted(g):
        calls.append(g)
        return grammar.serialize_grammar(g)

    patches = [
        mock.patch.object(module, "serialize_grammar", counted)
        for module in (compiled, prompts)
        if hasattr(module, "serialize_grammar")
    ]
    for patch in patches:
        patch.start()
    try:
        first = render_prompt(fresh, "I open the box")
        second = render_prompt(fresh, "I open the box")
    finally:
        for patch in patches:
            patch.stop()
    assert calls == [fresh]
    assert first == second == render_prompt(fig1_grammar, "I open the box")


def test_prompts_differ_only_in_input_line(fig1_grammar):
    a = render_prompt(fig1_grammar, "I open the box")
    b = render_prompt(fig1_grammar, "I open")
    diff = [
        (la, lb)
        for la, lb in zip(a.splitlines(), b.splitlines())
        if la != lb
    ]
    assert len(diff) == 1
    assert diff[0][0] == "Here is the input sentence: `I open the box`."
    assert diff[0][1] == "Here is the input sentence: `I open`."


def test_extract_answer_plain():
    assert extract_answer("Final answer: wug nat lomu") == ("wug", "nat", "lomu")


def test_extract_answer_takes_last_marker():
    text = "Final answer: wrong guess\nmore thinking\nFinal answer: right one"
    assert extract_answer(text) == ("right", "one")


def test_extract_answer_strips_wrapping():
    assert extract_answer("Final answer: `wug nat`") == ("wug", "nat")
    assert extract_answer("Final answer: wug nat.") == ("wug", "nat")
    assert extract_answer("Final answer: `wug nat.`") == ("wug", "nat")
    assert extract_answer("Final answer:   wug nat  \n") == ("wug", "nat")
    # only one trailing period is removed; inner periods survive
    assert extract_answer("Final answer: w.g nat") == ("w.g", "nat")


def test_extract_answer_failures():
    assert extract_answer("I think the answer is wug nat") is None
    assert extract_answer("") is None
    assert extract_answer("final answer: wug") is None  # marker is case sensitive
    assert extract_answer("Final answer:") == ()
    assert extract_answer("Final answer: .") == ()


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=200))
def test_extract_answer_never_raises(text):
    got = extract_answer(text)
    assert got is None or isinstance(got, tuple)
    if ANSWER_MARKER not in text:
        assert got is None


@settings(max_examples=50, deadline=None)
@given(words=st.lists(st.sampled_from("wug nat lomu zat".split()), min_size=1, max_size=6))
def test_extract_answer_round_trips_clean_answers(words):
    response = f"some reasoning...\n{ANSWER_MARKER} {' '.join(words)}"
    assert extract_answer(response) == tuple(words)
