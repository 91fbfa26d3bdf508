"""Acceptance gate: one test per shipped guarantee.

Each test checks one externally stated behavior of the package at its stated
tolerance, so `pytest -v tests/test_acceptance.py` prints one pass/fail line
per guarantee.  Reference values come either from hand-derived oracles, from
the brute-force enumerators in tests/oracles.py (which share no code with the
chart parser), or from the frozen metric fixtures (see their provenance
block).
"""

import itertools
import random
import time
from dataclasses import replace

from scfgkit.errors import classify
from scfgkit.grammar import word_vocab
from scfgkit.harness import (
    MOCK_ECHO_SOURCE,
    MOCK_ORACLE,
    EndpointProfile,
    ExperimentConfig,
    read_log,
    run_experiment,
)
from scfgkit.lexicon import english_words
from scfgkit.metagrammar import (
    OPEN_CLASSES,
    WORD_ORDERS,
    GrammarSpec,
    generate,
    generate_with_manifest,
)
from scfgkit.metrics import BleuConfig, score_candidate
from scfgkit.parsing import is_valid_translation, translate
from scfgkit.prompts import render_prompt
from scfgkit.sampling import Sampler, sample_pair
from scfgkit.scripts import get_script, script_of, transliterate

from .oracles import all_pairs, targets_for

HEBREW_MARKS = (0x05B0, 0x05C7)


def test_criterion_01_docs_grammar_round_trip(fig1_grammar):
    t0 = time.monotonic()
    targets = translate(fig1_grammar, "I open the box")
    assert targets == {"watashi wa hako wo akemasu"}
    assert score_candidate("watashi wa hako wo akemasu", targets).exact == 1
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_reference_prompt_and_translation(appendix_grammar, appendix_prompt):
    t0 = time.monotonic()
    assert render_prompt(appendix_grammar, "sirlob rofxew livhuj") == appendix_prompt
    # hand-derived target for the reference input sentence
    assert translate(appendix_grammar, "sirlob rofxew livhuj") == {
        "vacfaq tuvrol zatpuj"
    }
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_exact_grammar_sizes():
    t0 = time.monotonic()
    for size in (57, 77, 117, 837, 4037):
        g = generate(GrammarSpec(size=size, seed=size))
        assert len(g.rules) == size, size
    g57 = generate(GrammarSpec(size=57, seed=0))
    for category in OPEN_CLASSES:
        assert sum(r.lhs == category for r in g57.rules) == 5, category
    assert time.monotonic() - t0 < 5.0


def test_criterion_04_sampled_pairs_are_sound():
    t0 = time.monotonic()
    conditions = [
        GrammarSpec(size=57, word_order_src=s, word_order_tgt=t, seed=i)
        for i, (s, t) in enumerate(itertools.product(WORD_ORDERS, WORD_ORDERS))
    ]
    conditions += [
        GrammarSpec(size=57, seed=20),  # no agreement on either side
        GrammarSpec(size=96, agreement_src=True, seed=21),
        GrammarSpec(size=96, agreement_tgt=True, seed=22),
        GrammarSpec(size=96, agreement_src=True, agreement_tgt=True, seed=23),
    ]
    assert len(conditions) == 13
    grammars = [generate(spec) for spec in conditions]
    lengths = [
        Sampler(g).achievable_lengths(3, 20) for g in grammars
    ]
    assert all(len(l) >= 15 for l in lengths)  # nearly every length reachable
    checked = 0
    for i in range(1000):
        g = grammars[i % 13]
        length = lengths[i % 13][(i // 13) % len(lengths[i % 13])]
        pair = sample_pair(g, length, rng_seed=i)
        assert pair.len_src == length
        tgt = " ".join(pair.target)
        assert is_valid_translation(g, pair.source, tgt)
        targets = translate(g, pair.source, cap=200_000)
        assert not targets.overflowed
        assert score_candidate(tgt, targets).exact == 1.0
        checked += 1
    assert checked == 1000
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_translate_matches_brute_force():
    t0 = time.monotonic()
    orders = list(itertools.product(WORD_ORDERS, WORD_ORDERS))
    for i in range(50):
        src_order, tgt_order = orders[i % len(orders)]
        g = generate(
            GrammarSpec(size=57, word_order_src=src_order, word_order_tgt=tgt_order, seed=100 + i)
        )
        # full slices: every source of length 3 and 4
        for length in (3, 4):
            table = all_pairs(g, length)
            assert table
            for src, expected in table.items():
                assert translate(g, src) == expected, (i, src)
        # longer sentences: exhaustive enumeration constrained to sampled sources
        for length in (5, 6, 7, 8):
            for rep in range(2):
                pair = sample_pair(g, length, rng_seed=1000 * length + rep)
                expected = targets_for(g, pair.source)
                assert translate(g, pair.source) == expected, (i, pair.source)
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_metric_conformance(metric_fixtures):
    cases = metric_fixtures["cases"]
    assert len(cases) >= 200
    worst = 0.0
    for case in cases:
        got = score_candidate(case["cand"], [case["gold"]])
        worst = max(worst, abs(got.bleu - case["bleu"]))
        got_none = score_candidate(case["cand"], [case["gold"]], BleuConfig(smoothing="none"))
        worst = max(worst, abs(got_none.bleu - case["bleu_none"]))
        worst = max(worst, abs(got.chrfpp - case["chrfpp"]))
    assert worst <= 1e-4, worst


def test_criterion_07_script_validity():
    def target_sentences(script, seed):
        g, manifest = generate_with_manifest(
            GrammarSpec(size=57, script_tgt=script, seed=seed)
        )
        latin_of = {e["rendered"]: e["latin"] for e in manifest["vocab"]["tgt"]}
        for k in range(100):
            pair = sample_pair(g, 3 + k % 8, rng_seed=k)
            yield pair.target, latin_of

    def marks(word):
        return sum(HEBREW_MARKS[0] <= ord(ch) <= HEBREW_MARKS[1] for ch in word)

    # pointed Hebrew: at least one mark per vowel of the underlying word
    for sentence, latin_of in target_sentences("HebrewPointed", 1):
        for word in sentence:
            vowels = sum(ch in "aeiou" for ch in latin_of[word])
            assert vowels > 0
            assert marks(word) >= vowels, word
    # unpointed Hebrew: no marks at all
    for sentence, _ in target_sentences("Hebrew", 2):
        assert all(marks(word) == 0 for word in sentence)
    # Cyrillic: every codepoint in block, spaces aside
    for sentence, _ in target_sentences("Cyrillic", 3):
        text = " ".join(sentence)
        assert all(ch == " " or 0x0400 <= ord(ch) <= 0x04FF for ch in text), text
    # mixed-script strings match no script at all
    cyr = get_script("Cyrillic")
    heb = get_script("Hebrew")
    rng = random.Random(4)
    for _ in range(100):
        a = chr(rng.randrange(ord("a"), ord("z") + 1))
        mixture = rng.choice(
            [
                a + transliterate("bo", cyr),
                transliterate("gad", heb) + a,
                transliterate("do", cyr) + transliterate("ne", heb),
            ]
        )
        assert script_of(mixture) == frozenset(), mixture


def test_criterion_08_classifier_perturbation_suite():
    g, manifest = generate_with_manifest(GrammarSpec(size=57, seed=8))
    src_vocab = word_vocab(g, "src")
    tgt_vocab = word_vocab(g, "tgt")
    english = english_words()

    def instances(want, perturb, script=None, grammar=g, count=100):
        """Build clean perturbed candidates and check their labels.

        A perturbation that happens to produce another valid translation is
        not an error instance, so such draws are skipped and redrawn.
        """
        hits = 0
        seed = 0
        while hits < count:
            seed += 1
            assert seed < 40 * count, "ran out of clean perturbation instances"
            pair = sample_pair(grammar, 4 + seed % 8, rng_seed=seed)
            golds = translate(grammar, pair.source)
            cand = perturb(pair, golds)
            if cand is None or cand in golds:
                continue
            got = classify(
                cand,
                golds,
                src_vocab=word_vocab(grammar, "src"),
                tgt_vocab=word_vocab(grammar, "tgt"),
                script=script,
                english=english,
            )
            assert want <= got, (cand, sorted(golds), sorted(got))
            hits += 1

    def transpose(pair, golds):
        if len(golds) != 1:  # perturb only unambiguous golds
            return None
        words = list(pair.target)
        for i in range(len(words) - 1):
            if words[i] != words[i + 1]:
                words[i], words[i + 1] = words[i + 1], words[i]
                return " ".join(words)
        return None

    def substitute(pair, golds):
        if len(golds) != 1:
            return None
        words = list(pair.target)
        gold_words = set(words)
        pool = sorted(tgt_vocab - gold_words)
        if not pool or not words:
            return None
        words[len(words) // 2] = pool[len(words) % len(pool)]
        return " ".join(words)

    def inject(pair, golds):
        # far from every real word, so it cannot count as a misspelling
        words = list(pair.target)
        words.insert(len(words) // 2, "vvxxqqzz")
        return " ".join(words)

    def copy_source(pair, golds):
        return " ".join(pair.source)

    instances({"word_order"}, transpose)
    instances({"recall", "omission"}, substitute)
    instances({"hallucination"}, inject)
    instances({"source_vocab", "omission"}, copy_source)

    pointed = get_script("HebrewPointed")
    g_heb = generate(GrammarSpec(size=57, script_tgt="HebrewPointed", seed=9))

    def strip_marks(pair, golds):
        text = " ".join(pair.target)
        return "".join(
            ch for ch in text if not (HEBREW_MARKS[0] <= ord(ch) <= HEBREW_MARKS[1])
        )

    instances({"orthography"}, strip_marks, script=pointed, grammar=g_heb)


def test_criterion_09_mock_experiments(tmp_path):
    t0 = time.monotonic()
    conditions = (
        GrammarSpec(size=57, seed=0),
        GrammarSpec(size=77, seed=1),
        GrammarSpec(size=117, seed=2),
    )

    def config(url, out):
        return ExperimentConfig(
            conditions=conditions,
            lengths=(3, 5, 8),
            n_per_cell=10,
            endpoint=EndpointProfile(url=url),
            model_name="mock",
            out_dir=tmp_path / out,
        )

    oracle = run_experiment(config(MOCK_ORACLE, "oracle"))
    assert len(oracle) == 90
    assert all(r["scores"]["exact"] == 1.0 for r in oracle)

    echo = run_experiment(config(MOCK_ECHO_SOURCE, "echo"))
    assert len(echo) == 90
    assert all("source_vocab" in r["labels"] for r in echo)

    # interrupt the oracle run partway and resume it
    log = tmp_path / "oracle" / "runs.jsonl"
    lines = log.read_text("utf-8").splitlines()
    log.write_text("\n".join(lines[:40]) + "\n", "utf-8")
    resumed = run_experiment(config(MOCK_ORACLE, "oracle"))
    ids = [r["trial_id"] for r in resumed]
    assert len(ids) == 90
    assert len(set(ids)) == 90
    assert sorted(ids) == sorted(r["trial_id"] for r in oracle)
    assert len(read_log(log)) == 90
    assert time.monotonic() - t0 < 60.0


AGREEMENT_FRAGMENT = """\
S -> <TP_1sg, TP_1sg>
S -> <TP_1pl, TP_1pl>
S -> <TP_3sg, TP_3sg>
S -> <TP_3pl, TP_3pl>
TP_1sg -> <PRON_1sg V_1sg, PRON_1sg V_1sg>
TP_1pl -> <PRON_1pl V_1pl, PRON_1pl V_1pl>
TP_3sg -> <PRON_3sg V_3sg, PRON_3sg V_3sg>
TP_3pl -> <PRON_3pl V_3pl, PRON_3pl V_3pl>
PRON_1sg -> <'ido', 'na'>
PRON_1pl -> <'ido', 'inca'>
PRON_3sg -> <'ido', 'ul'>
PRON_3pl -> <'ido', 'ko'>
V_1sg -> <'lomu', 'bakomi'>
V_1pl -> <'lomu', 'bakowa'>
V_3sg -> <'lomu', 'bakoso'>
V_3pl -> <'lomu', 'bakosar'>
"""


def test_criterion_10_agreement_variants_are_credited():
    from scfgkit.grammar import parse_grammar_text

    g = parse_grammar_text(AGREEMENT_FRAGMENT)
    # a source with no agreement marking admits every verb form of the
    # agreeing target, whether or not it matches the subject's features
    for verb in ("bakomi", "bakowa", "bakoso", "bakosar"):
        assert is_valid_translation(g, "ido lomu", f"na {verb}"), verb
    # matched-feature pairs are of course valid too
    for pron, verb in (("na", "bakomi"), ("inca", "bakowa"), ("ul", "bakoso"), ("ko", "bakosar")):
        assert is_valid_translation(g, "ido lomu", f"{pron} {verb}")

    # same behavior on a generated agreement grammar: swap a verb's suffix
    # for a different feature cell and the candidate is still accepted
    spec = GrammarSpec(size=96, agreement_tgt=True, seed=10)
    gen, manifest = generate_with_manifest(spec)
    suffixes = manifest["suffixes"]["tgt"]
    verb_entries = [e for e in manifest["vocab"]["tgt"] if e["category"] == "V"]
    rendered_of = {e["latin"]: e["rendered"] for e in verb_entries}
    feature_of = {e["rendered"]: e["feature"] for e in verb_entries}
    pair = sample_pair(gen, 3, rng_seed=2)
    target = list(pair.target)
    verb_pos = next(i for i, w in enumerate(target) if w in feature_of)
    feat = feature_of[target[verb_pos]]
    stem = target[verb_pos][: -len(suffixes[feat])]
    swapped = 0
    for other, sfx in suffixes.items():
        if other == feat:
            continue
        variant = list(target)
        variant[verb_pos] = rendered_of[stem + sfx]
        assert is_valid_translation(gen, pair.source, variant), other
        swapped += 1
    assert swapped == 3
