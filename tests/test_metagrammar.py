import hashlib
import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.grammar import rule_text, serialize_grammar, word_vocab
from scfgkit.lexicon import english_words
from scfgkit.metagrammar import (
    FEATURES,
    OPEN_CLASSES,
    WORD_ORDERS,
    GrammarSpec,
    SpecError,
    generate,
    generate_with_manifest,
    open_class_counts,
    skeleton_size,
)
from scfgkit.scripts import SCRIPT_NAMES, get_script, script_of

from .conftest import DATA


def rules_by_lhs(grammar, lhs):
    return [r for r in grammar.rules if r.lhs == lhs]


def test_skeleton_sizes():
    assert skeleton_size(GrammarSpec(size=57)) == 37
    assert skeleton_size(GrammarSpec(size=96, agreement_tgt=True)) == 64


def test_open_class_split_is_even():
    assert open_class_counts(GrammarSpec(size=57)) == {c: 5 for c in OPEN_CLASSES}
    assert open_class_counts(GrammarSpec(size=117)) == {c: 20 for c in OPEN_CLASSES}
    # with agreement each verb stem spends four rules (one per feature cell)
    assert open_class_counts(GrammarSpec(size=96, agreement_tgt=True)) == {
        "V": 2, "N": 8, "PROPN": 8, "ADJ": 8,
    }


def test_unachievable_sizes_rejected():
    for size, agreement in ((58, False), (36, False), (100, True), (63, True)):
        with pytest.raises(SpecError):
            open_class_counts(GrammarSpec(size=size, agreement_tgt=agreement))
    with pytest.raises(SpecError):
        generate(GrammarSpec(size=58))


def test_exact_rule_counts():
    for size in (57, 77, 117, 837):
        g = generate(GrammarSpec(size=size, seed=1))
        assert len(g.rules) == size


def test_skeleton_matches_reference_layout(appendix_text):
    # Same word orders as the reference grammar: SVO source, OVS target.
    g = generate(GrammarSpec(size=57, word_order_tgt="OVS", seed=5))
    mine = [rule_text(r) for r in g.rules[:26]]
    reference = appendix_text.splitlines()[:26]
    assert mine == reference


def test_reference_open_class_counts(appendix_grammar):
    for category in OPEN_CLASSES:
        assert len(rules_by_lhs(appendix_grammar, category)) == 5


@pytest.mark.parametrize("src", ["SVO", "SOV", "OVS"])
@pytest.mark.parametrize("tgt", ["SVO", "SOV", "OVS"])
def test_word_order_layouts(src, tgt):
    g = generate(GrammarSpec(size=57, word_order_src=src, word_order_tgt=tgt, seed=2))
    (tp,) = rules_by_lhs(g, "TP")
    (tbar,) = rules_by_lhs(g, "TBAR")
    (detbar,) = rules_by_lhs(g, "DETBAR")
    for order, side in ((src, "src"), (tgt, "tgt")):
        tp_names = [s.text for s in tp.side(side)]
        expected_tp = ["TBAR", "NP_SUBJ"] if order == "OVS" else ["NP_SUBJ", "TBAR"]
        assert tp_names == expected_tp
        head_final = order in ("SOV", "OVS")
        tbar_names = [s.text for s in tbar.side(side)]
        assert tbar_names == (["VP", "T"] if head_final else ["T", "VP"])
        detbar_names = [s.text for s in detbar.side(side)]
        assert detbar_names == (["NP", "DET"] if head_final else ["DET", "NP"])


def test_generation_is_deterministic():
    spec = GrammarSpec(size=117, word_order_tgt="OVS", seed=9)
    assert serialize_grammar(generate(spec)) == serialize_grammar(generate(spec))


def test_seeds_change_vocabulary():
    a = generate(GrammarSpec(size=57, seed=1))
    b = generate(GrammarSpec(size=57, seed=2))
    assert word_vocab(a, "src") != word_vocab(b, "src")


def test_vocabularies_are_disjoint_and_not_english():
    g = generate(GrammarSpec(size=117, seed=3))
    src = word_vocab(g, "src")
    tgt = word_vocab(g, "tgt")
    assert not src & tgt
    assert not (src | tgt) & english_words()


def test_agreement_grammar_structure():
    g = generate(GrammarSpec(size=96, agreement_tgt=True, seed=4))
    assert len(g.rules) == 96
    # one verb rule per feature cell, sharing a source stem
    v_rules = [r for r in g.rules if r.lhs.startswith("V_")]
    assert {r.lhs.rsplit("_", 1)[1] for r in v_rules} == set(FEATURES)
    stems = {r.src[0].text for r in v_rules}
    forms = {r.tgt[0].text for r in v_rules}
    assert len(stems) < len(forms)  # bare source stems, suffixed target forms
    # DP subjects stay third person singular
    np3sg = rules_by_lhs(g, "NP_SUBJ_3sg")
    others = [r for f in ("1sg", "1pl", "3pl") for r in rules_by_lhs(g, f"NP_SUBJ_{f}")]
    assert any(r.src[0].text in ("DP", "PROPN") for r in np3sg)
    assert all(r.src[0].text.startswith("PRON") for r in others)


def test_agreement_suffixes_in_manifest():
    _, manifest = generate_with_manifest(
        GrammarSpec(size=96, agreement_tgt=True, seed=4)
    )
    suffixes = manifest["suffixes"]["tgt"]
    assert set(suffixes) == set(FEATURES)
    assert len(set(suffixes.values())) == 4


def test_manifest_counts_and_vocab():
    g, manifest = generate_with_manifest(GrammarSpec(size=57, seed=7))
    assert manifest["size"] == len(g.rules) == 57
    assert manifest["per_category_rules"]["V"] == 5
    assert manifest["per_category_lexemes"]["N"] == 5
    assert manifest["suffixes"]["tgt"] is None  # no agreement morphology
    for side in ("src", "tgt"):
        categories = {entry["category"] for entry in manifest["vocab"][side]}
        assert {"V", "N", "PROPN", "ADJ", "PRON", "DET_def", "DET_indef", "C"} <= categories
    assert "uniform" in manifest["sampling_distribution"]


def test_target_script_rendering():
    g, manifest = generate_with_manifest(
        GrammarSpec(size=57, script_tgt="Cyrillic", seed=8)
    )
    for word in word_vocab(g, "tgt"):
        assert script_of(word) == frozenset({"Cyrillic"})
    for entry in manifest["vocab"]["tgt"]:
        assert entry["rendered"] in word_vocab(g, "tgt")
    # source side untouched
    assert all("Latin" in script_of(w) for w in word_vocab(g, "src"))


def test_hebrew_vocab_unique_after_vowel_drop():
    g = generate(GrammarSpec(size=117, script_tgt="Hebrew", seed=11))
    tgt = word_vocab(g, "tgt")
    spec = get_script("Hebrew")
    assert all(spec.covers(w) for w in tgt)
    assert len(tgt) == len(set(tgt))


def test_spec_dict_roundtrip():
    spec = GrammarSpec(
        size=96,
        word_order_tgt="OVS",
        agreement_tgt=True,
        script_tgt="HebrewPointed",
        seed=12,
    )
    assert GrammarSpec.from_dict(spec.to_dict()) == spec


def test_spec_dict_is_the_dataclass_dict():
    # records and run.json hold this dict, so its keys keep the field order
    spec = GrammarSpec(size=128, agreement_tgt=True, script_tgt="Cyrillic", seed=2)
    assert list(spec.to_dict().items()) == list(asdict(spec).items())
    assert GrammarSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("script", SCRIPT_NAMES)
def test_the_manifest_spec_names_its_grammar(script):
    # one script table: the spec a manifest file records regenerates its grammar
    g, manifest = generate_with_manifest(GrammarSpec(size=57, script_tgt=script, seed=4))
    spec = GrammarSpec.from_dict(json.loads(json.dumps(manifest))["spec"])
    assert serialize_grammar(generate(spec)) == serialize_grammar(g)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    script=st.sampled_from(["Latin", "Cyrillic", "HebrewPointed"]),
)
def test_generated_sizes_hold_under_any_seed(seed, script):
    g = generate(GrammarSpec(size=77, script_tgt=script, seed=seed))
    assert len(g.rules) == 77


# Every word-order pair, agreement setting and target script at one seed; the
# source script runs one step behind the target's so both sides are rendered.
PINNED_SPECS = [
    GrammarSpec(
        size=128 if agr_src or agr_tgt else 77,
        word_order_src=src,
        word_order_tgt=tgt,
        agreement_src=agr_src,
        agreement_tgt=agr_tgt,
        script_src=SCRIPT_NAMES[i - 1],
        script_tgt=script,
        seed=13,
    )
    for src in WORD_ORDERS
    for tgt in WORD_ORDERS
    for agr_src in (False, True)
    for agr_tgt in (False, True)
    for i, script in enumerate(SCRIPT_NAMES)
]


def spec_key(spec):
    agr = "".join(side for side, on in (("s", spec.agreement_src), ("t", spec.agreement_tgt)) if on)
    return f"{spec.word_order_src}-{spec.word_order_tgt}-agr{agr or '0'}-{spec.script_src}-{spec.script_tgt}"


def generator_digests():
    """SHA-256 of the serialized grammar and of the JSON manifest, per pinned spec."""
    digests = {}
    for spec in PINNED_SPECS:
        g, manifest = generate_with_manifest(spec)
        digests[spec_key(spec)] = [
            hashlib.sha256(serialize_grammar(g).encode("utf-8")).hexdigest(),
            hashlib.sha256(
                json.dumps(manifest, ensure_ascii=False, sort_keys=False).encode("utf-8")
            ).hexdigest(),
        ]
    return digests


def test_generated_bytes_are_pinned():
    # frozen from the generator's output; a change here changes every
    # grammar and manifest a spec names, so it must be deliberate
    pinned = json.loads((DATA / "generator_digests.json").read_text("utf-8"))
    assert generator_digests() == pinned
