import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scfgkit.scripts import (
    SCRIPT_NAMES,
    get_script,
    load_script_tables,
    script_of,
    transliterate,
)

from .oracles import in_ranges

latin_words = st.text(alphabet="bcdfghjklmnpqrstvwxyzaeiou", min_size=1, max_size=12)
# characters from every packaged script's ranges, one past each end, and any
script_chars = st.one_of(
    *(
        st.characters(min_codepoint=lo - 1, max_codepoint=hi + 1)
        for spec in load_script_tables().values()
        for lo, hi in spec.base_ranges + spec.diacritic_ranges
    ),
    st.characters(),
)


def test_all_five_scripts_load():
    tables = load_script_tables()
    assert set(SCRIPT_NAMES) == set(tables)


def test_the_one_table_is_shared_and_read_only():
    tables = load_script_tables()
    assert load_script_tables() is tables
    with pytest.raises(TypeError):
        tables["Latin"] = tables["Cyrillic"]
    assert transliterate("wugnat", "Latin") == "wugnat"


def test_latin_is_identity():
    assert transliterate("wugnat", "Latin") == "wugnat"


def test_cyrillic_maps_every_letter_into_range():
    word = "abcdefghijklmnopqrstuvwxyz"
    out = transliterate(word, "Cyrillic")
    assert len(out) == 26
    assert all(0x0400 <= ord(ch) <= 0x04FF for ch in out)
    assert len(set(out)) == 26  # one-to-one


def test_hebrew_drops_vowels():
    out = transliterate("banofu", "Hebrew")
    consonants = transliterate("bnf", "Hebrew")
    assert out == consonants
    assert all(0x05D0 <= ord(ch) <= 0x05EA for ch in out)


def test_hebrew_pointed_keeps_one_mark_per_vowel():
    word = "banofu"
    out = transliterate(word, "HebrewPointed")
    marks = [ch for ch in out if 0x05B0 <= ord(ch) <= 0x05C7]
    assert len(marks) == sum(ch in "aeiou" for ch in word)


def test_diacritic_latin_decorates_vowels():
    out = transliterate("sana", "LatinDiacritics")
    assert any(0x0300 <= ord(ch) <= 0x036F for ch in out)
    # undecorated letters pass through
    assert transliterate("pth", "LatinDiacritics") == "pth"


def test_script_of_plain_latin():
    assert script_of("rofxew") == frozenset({"Latin"})


def test_script_of_requires_diacritics_for_diacritic_scripts():
    plain = transliterate("sana", "Latin")
    dotted = transliterate("sana", "LatinDiacritics")
    assert "LatinDiacritics" not in script_of(plain)
    assert script_of(dotted) == frozenset({"LatinDiacritics"})


def test_script_of_mixture_is_empty():
    mixed = transliterate("ba", "Cyrillic") + "ba"
    assert script_of(mixed) == frozenset()
    mixed2 = transliterate("ba", "Hebrew") + transliterate("ba", "Cyrillic")
    assert script_of(mixed2) == frozenset()


def test_unknown_script_raises():
    with pytest.raises(KeyError):
        get_script("Klingon")


@settings(max_examples=200, deadline=None)
@given(word=latin_words)
def test_transliteration_is_deterministic_and_in_range(word):
    for name in SCRIPT_NAMES:
        spec = get_script(name)
        out = transliterate(word, spec)
        assert out == transliterate(word, spec)
        assert all(in_ranges(spec, ch) for ch in out)


@settings(max_examples=200, deadline=None)
@given(a=latin_words, b=latin_words)
def test_injective_scripts_separate_distinct_words(a, b):
    # Hebrew intentionally collapses words differing only in vowels; every
    # other script must keep distinct words distinct.
    for name in ("Latin", "LatinDiacritics", "Cyrillic", "HebrewPointed"):
        if a != b:
            assert transliterate(a, name) != transliterate(b, name)


@settings(max_examples=300, deadline=None)
@given(word=st.text(script_chars, max_size=12))
@example(word="")
def test_covers_matches_the_per_codepoint_definition(word):
    for spec in load_script_tables().values():
        marked = any(lo <= ord(ch) <= hi for ch in word for lo, hi in spec.diacritic_ranges)
        expected = all(in_ranges(spec, ch) for ch in word) and (marked or not spec.diacritic_ranges)
        assert spec.covers(word) == expected
