import re

from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.lexicon import (
    CONSONANTS,
    SUFFIX_SHAPES,
    VOWELS,
    english_words,
    generate_suffixes,
)
from scfgkit.metagrammar import GrammarSpec, generate_with_manifest
from scfgkit.scripts import script_of

from .oracles import is_cvc_word


def test_english_wordlist_loads():
    words = english_words()
    assert {"the", "box", "open"} <= words
    assert all(w == w.lower() for w in words)


def test_cvc_shape_recognizer():
    assert is_cvc_word("rofxew")
    assert is_cvc_word("vejdetwukwesfef")
    assert not is_cvc_word("rof")          # one syllable
    assert not is_cvc_word("rofxewrofxewrofxew")  # six syllables
    assert not is_cvc_word("aof")          # vowel onset
    assert not is_cvc_word("rofxe")        # open final syllable


def check_vocab(spec):
    """Check the vocabulary the generator draws for ``spec``: every word is a
    CVC pseudo-word and not English, except that the verb forms of an
    agreeing side are a CVC stem plus that side's suffix, and every rendered
    form is distinct across both sides.  Returns the vocabulary per side."""
    _, manifest = generate_with_manifest(spec)
    for side in ("src", "tgt"):
        suffixes = manifest["suffixes"][side]
        for e in manifest["vocab"][side]:
            word = e["latin"]
            assert word not in english_words(), word
            if suffixes and e["category"] == "V":
                suffix = suffixes[e["feature"]]
                assert word.endswith(suffix), word
                word = word[: -len(suffix)]
            assert is_cvc_word(word), word
    renders = [e["rendered"] for side in ("src", "tgt") for e in manifest["vocab"][side]]
    assert len(set(renders)) == len(renders)
    return manifest["vocab"]


def test_generated_words_are_cvc_and_novel():
    vocab = check_vocab(GrammarSpec(size=237, seed=0))
    assert len(vocab["src"]) + len(vocab["tgt"]) > 400


def test_distinct_key_controls_collisions():
    # the generator keys distinctness on the rendered form, so no two words
    # collide once a vowel-dropping script has rendered them
    vocab = check_vocab(GrammarSpec(size=237, script_tgt="Hebrew", seed=2))
    assert len(vocab["tgt"]) > 200
    assert all(script_of(e["rendered"]) == {"Hebrew"} for e in vocab["tgt"])


def test_suffix_shapes_and_distinctness():
    shape_re = re.compile(f"[{VOWELS}]|[{VOWELS}][{CONSONANTS}]|[{CONSONANTS}][{VOWELS}]|[{CONSONANTS}][{VOWELS}][{CONSONANTS}]")
    suffixes = generate_suffixes(4, rng_seed=3)
    assert len(set(suffixes)) == 4
    for s in suffixes:
        assert shape_re.fullmatch(s), s
        assert 1 <= len(s) <= 3
    assert generate_suffixes(4, rng_seed=3) == generate_suffixes(4, rng_seed=3)


def test_suffixes_distinct_under_key():
    skeleton = lambda s: "".join(c for c in s if c not in VOWELS)
    suffixes = generate_suffixes(4, rng_seed=4, distinct_key=skeleton)
    assert len({skeleton(s) for s in suffixes}) == 4


def test_suffix_shape_inventory_is_full():
    # over many seeds all four shapes show up
    seen = set()
    for seed in range(40):
        for s in generate_suffixes(4, rng_seed=seed):
            if len(s) == 1:
                seen.add("V")
            elif len(s) == 3:
                seen.add("CVC")
            elif s[0] in VOWELS:
                seen.add("VC")
            else:
                seen.add("CV")
    assert seen == set(SUFFIX_SHAPES)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    agreement=st.sampled_from([(False, False), (False, True), (True, False), (True, True)]),
    script=st.sampled_from(["Latin", "Cyrillic", "Hebrew"]),
)
def test_vocab_properties_hold_for_any_seed(seed, agreement, script):
    agreement_src, agreement_tgt = agreement
    check_vocab(GrammarSpec(
        size=128 if agreement_src or agreement_tgt else 57,
        agreement_src=agreement_src,
        agreement_tgt=agreement_tgt,
        script_tgt=script,
        seed=seed,
    ))
