"""Prompt rendering and answer extraction for the translation task.

The prompt is a fixed instruction text (typos and all: it is frozen, and
every byte matters for reproducibility) followed by the serialized grammar
in a fenced block, the input sentence, and a closing reminder about the
``Final answer:`` marker.  The grammar block is ``grammar.compiled.text``,
serialized once per grammar object (or that text as a run manifest holds
it).  Extraction takes whatever follows the last occurrence of that marker.
"""

from __future__ import annotations

from .grammar import SyncGrammar, as_words

ANSWER_MARKER = "Final answer:"

_PARAGRAPHS = (
    "You will be presented with a synchronous context-free grammar (SCFG) "
    "which defines a mapping between two context-free languages.You will "
    "also be presented with a sentence produced by one of the languages "
    "defined by the grammar. You task is to use the rules of the grammar to "
    "translate the sentence from the source language into the target "
    "language.",
    "A grammar is defined by a set of production rules. Rules come in two "
    "forms: non-lexical rules, of the form `A -> <B C, D E>` where all of "
    "`A, B, C, D, E` are non-terminal symbols; and lexical rules, of the "
    "form `A -> <'a', 'b'>`  where `A` is a non-terminal symbol and `'a'` "
    "and `'b'` are terminal symbols (words). The right-hand side of each "
    "production rule consists of a pair demarcated by angle brackets. The "
    "first element of this pair shows the expansion of the left-hand side "
    "in one language, and the second element shows the expansion in the "
    "other language. The order of the symbols may differ between the two "
    "languages. All grammars are guaranteed to start with a distinguished "
    "start symbol `S`. All grammars are defined according to X-bar style "
    "rules, intended to model natural language syntax. This means that "
    "productions are built are phrases (XP) which produce specifiers (YP) "
    "and bar-level projections (XBar); these bar-level projections in turn "
    "produce heads (X) and complements (ZP). Certain lexical productions "
    "in the grammar produce words which begin with a null symbol '∅'; "
    "these words are phonetically null and do not appear in the surface "
    "forms of either the input or output sentences, though they may be "
    "important for the syntactic structure of the sentence. Do not include "
    "these null words in your output sentence, though you may need to "
    "reason about them to get the correct structure.",
    "You may use any reasoning strategy you like to solve this task, "
    "including identifying the categories of the words in the input "
    "sentence, using the grammar to build a parse tree for the input, and "
    "then following that derivation using the other language's expansions "
    "to produce the output sentence. Feel free to write down intermediate "
    "steps in your reasoning.",
    "You will be evaluated based on the string accuracy of the output "
    "sentence, which you should format like the following: `Final answer: "
    "<output sentence>`. If you do not end your response with this format, "
    "you will be marked as incorrect.",
)

_GRAMMAR_HEADER = "Here is the synchronous context-free grammar:"
_INPUT_LINE = "Here is the input sentence: `{sentence}`."
_REMINDER = (
    "Remember to end your response with the format "
    "`Final answer: <output sentence>`."
)


def render_prompt(grammar: SyncGrammar, sentence) -> str:
    """The full task prompt for one (grammar, source sentence) pair."""
    return render_prompt_from_text(grammar.compiled.text, sentence)


def render_prompt_from_text(grammar_text: str, sentence) -> str:
    """The prompt of :func:`render_prompt` for a grammar given as its
    serialized text, such as a run manifest holds; nothing is parsed."""
    words = as_words(sentence)
    blocks = (
        *_PARAGRAPHS,
        _GRAMMAR_HEADER,
        f"```\n{grammar_text}```",
        _INPUT_LINE.format(sentence=" ".join(words)),
        _REMINDER,
    )
    return "\n\n".join(blocks)


def extract_answer(response: str) -> tuple[str, ...] | None:
    """Words of the answer after the last ``Final answer:`` marker.

    Strips surrounding whitespace and backticks and one trailing period;
    returns None when the marker never appears (an extraction failure).
    """
    _, marker, rest = response.rpartition(ANSWER_MARKER)
    if not marker:
        return None
    text = rest.strip().strip("`").strip()
    if text.endswith("."):
        text = text[:-1]
    return tuple(text.strip("`").split())
