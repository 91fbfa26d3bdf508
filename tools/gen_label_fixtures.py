"""Pin the error labels of seeded wrong answers in tests/data/labels/.

    PYTHONPATH=src python3 tools/gen_label_fixtures.py

For each grammar below, a directory holds:

- ``flags``: the ``scfgkit gen`` flags that rebuild the grammar;
- ``pairs.jsonl``: one line per candidate, each a pair that ``scfgkit
  sample`` could write (source and target, at lengths 5, 20 and 50, with at
  least one source of 256 or more golds on an agreement grammar);
- ``cands.txt``: the seeded wrong answers, one per pair line;
- ``labels.jsonl``: what ``scfgkit classify`` writes for them.

``tests/test_errors.py`` rebuilds each grammar and compares ``classify``'s
output with ``labels.jsonl`` byte for byte, so a change to the labelling
code that moves any label fails there.  Run this script only to pin labels
that are meant to change.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from scfgkit.cli import main
from scfgkit.grammar import parse_grammar_text, word_vocab
from scfgkit.lexicon import english_words
from scfgkit.parsing import translate
from scfgkit.sampling import sample_pair
from scfgkit.seeds import derive_seed

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "labels"

GRAMMARS = {
    "latin-agr": "--size 128 --tgt-agr --seed 0",
    "cyrillic-agr": "--size 128 --tgt-agr --tgt-script Cyrillic --seed 1",
    "hebrew": "--size 237 --tgt-script Hebrew --seed 2",
}
LENGTHS = (5, 20, 50)
PAIRS_PER_LENGTH = 5
LARGE = 256  # golds of the one large source sought at the longest length
LARGEST = 256  # golds past which a source is too slow for tier-1


def wrong_answers(gold: list[str], source: list[str], rng: random.Random,
                  tgt_vocab: list[str], english: list[str]) -> list[str]:
    """Eight wrong answers derived from ``gold``: a swapped, dropped and
    substituted word, a one-letter misspelling, a copied source word, an
    inserted English word, the reversed gold, and the gold repeated twice."""

    def at() -> int:
        return rng.randrange(len(gold))

    swapped = list(gold)
    i, j = at(), at()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    if swapped == gold and len(gold) > 1:
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
    dropped = list(gold)
    del dropped[at()]
    substituted = list(gold)
    substituted[at()] = rng.choice(tgt_vocab)
    misspelled = list(gold)
    k = at()
    word = misspelled[k]
    spot = rng.randrange(len(word))
    letters = sorted(set("".join(tgt_vocab)) - {word[spot]})
    misspelled[k] = word[:spot] + rng.choice(letters) + word[spot + 1 :]
    copied = list(gold)
    copied[at()] = rng.choice(source)
    inserted = list(gold)
    inserted.insert(rng.randrange(len(gold) + 1), rng.choice(english))
    answers = [swapped, dropped, substituted, misspelled, copied, inserted, gold[::-1], gold + gold]
    return [" ".join(words) for words in answers]


def pairs_for(grammar) -> list[dict]:
    """``PAIRS_PER_LENGTH`` pairs per length, drawn as ``scfgkit sample``
    draws them; at the longest length of an agreement grammar the first
    draw with ``LARGE`` to ``LARGEST`` golds is one of them."""
    pairs = []
    for length in LENGTHS:
        drawn, large = [], None
        for i in range(200):
            seed = derive_seed(0, "sample", length, i)
            pair = sample_pair(grammar, length, rng_seed=seed)
            size = len(translate(grammar, " ".join(pair.source)))
            if size > LARGEST:
                continue
            if length == LENGTHS[-1] and large is None and size >= LARGE:
                large = pair
            elif len(drawn) < PAIRS_PER_LENGTH:
                drawn.append(pair)
            if len(drawn) == PAIRS_PER_LENGTH and (large is not None or length != LENGTHS[-1]):
                break
        if large is not None:
            drawn[-1] = large
        pairs.extend(drawn)
    return pairs


def build(name: str, flags: str, work: Path) -> None:
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    grammar_path = work / f"{name}.scfg"
    assert main(["gen", *flags.split(), "--out", str(grammar_path)]) == 0
    grammar = parse_grammar_text(grammar_path.read_text("utf-8"))
    tgt_vocab = sorted(word_vocab(grammar, "tgt"))
    english = sorted(english_words())
    pair_lines, cand_lines = [], []
    for index, pair in enumerate(pairs_for(grammar)):
        rng = random.Random(f"{name} {index}")
        for cand in wrong_answers(list(pair.target), list(pair.source), rng, tgt_vocab, english):
            pair_lines.append(json.dumps({"source": " ".join(pair.source), "target": " ".join(pair.target)},
                                         ensure_ascii=False))
            cand_lines.append(cand)
    (out / "flags").write_text(flags + "\n", encoding="utf-8")
    (out / "pairs.jsonl").write_text("".join(line + "\n" for line in pair_lines), encoding="utf-8")
    (out / "cands.txt").write_text("".join(line + "\n" for line in cand_lines), encoding="utf-8")
    assert main(["classify", "--pairs", str(out / "pairs.jsonl"), "--cands", str(out / "cands.txt"),
                 "--grammar", str(grammar_path), "--out", str(out / "labels.jsonl")]) == 0


def run() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, flags in GRAMMARS.items():
            build(name, flags, Path(work))
            print(f"wrote {OUT / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run())
