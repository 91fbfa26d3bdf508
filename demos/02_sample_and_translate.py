"""Sample gold sentence pairs at exact lengths, then translate and verify.

The sampler draws uniformly over all derivations whose source side has
exactly the requested number of words, so length is an experimental control
rather than a side effect.  Run:

    python demos/02_sample_and_translate.py
"""

from scfgkit import (
    GrammarSpec,
    LengthError,
    Sampler,
    generate,
    is_valid_translation,
    sample_pair,
    translate,
)

grammar = generate(GrammarSpec(size=57, word_order_tgt="SOV", seed=3))

# --- 1. exact-length sampling ----------------------------------------------
# A Sampler precomputes derivation counts by source length; those counts
# tell us which lengths are reachable before we ever draw.
sampler = Sampler(grammar)
achievable = [n for n in range(1, 13) if sampler.count(n) > 0]
print("achievable source lengths up to 12:", achievable)

print("\none pair per length (seeded, so this output is reproducible):")
for length in achievable[:4]:
    pair = sample_pair(grammar, length, rng_seed=41)
    src, tgt = " ".join(pair.source), " ".join(pair.target)
    assert pair.len_src == length
    print(f"  len {length}: {src}  ->  {tgt}")

# Asking for an impossible length fails loudly and suggests alternatives.
try:
    sample_pair(grammar, 1, rng_seed=0)
except LengthError as err:
    print("\nlength 1 is impossible:", err)

# --- 2. translation as forest enumeration -----------------------------------
# translate() parses the source side and reads every target yield off the
# derivation forest.  Ambiguous sources give several targets; the gold set
# for scoring is exactly this set.
pair = sample_pair(grammar, 5, rng_seed=41)
src, tgt = " ".join(pair.source), " ".join(pair.target)
targets = translate(grammar, src)
print(f"\nsource: {src}")
print(f"{len(targets)} gold translation(s); sampled target is among them:",
      tgt in targets)
for tgt in sorted(targets):
    print("  ", tgt)

# --- 3. verification without enumeration ------------------------------------
# is_valid_translation() folds, over the source parse forest, the spans of the
# candidate that a target yield can cover, so it never enumerates and stays
# fast even when the gold set would be huge.
print("\nvalidity checks:")
print("  gold target:     ", is_valid_translation(grammar, src, tgt))
scrambled = " ".join(reversed(pair.target))
print("  reversed target: ", is_valid_translation(grammar, src, scrambled))
print("  garbage:         ", is_valid_translation(grammar, src, "blorp"))
