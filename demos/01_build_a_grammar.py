"""Build a synchronous grammar two ways: by hand, and from a parameter spec.

A synchronous context-free grammar (SCFG) expands each nonterminal in two
languages at once, so a single derivation yields a (source, target) sentence
pair.  Run this file top to bottom:

    python demos/01_build_a_grammar.py
"""

from scfgkit import (
    GrammarSpec,
    generate_with_manifest,
    parse_grammar_text,
    rule_text,
    serialize_grammar,
    word_vocab,
)

# --- 1. a tiny hand-written grammar ---------------------------------------
# Each rule pairs a source expansion with a target expansion.  Nonterminals
# are bare names, terminals are quoted, and a terminal starting with ∅ is
# phonetically null: it never appears in surface strings (here the target
# language has no overt definite article).
text = """\
S -> <NP_SUBJ VP, NP_SUBJ VP>
NP_SUBJ -> <PRON, PRON>
NP_SUBJ -> <DP, DP>
DP -> <D NP, D NP>
NP -> <N, N>
VP -> <V DP, DP V>
VP -> <V, V>
PRON -> <'I', 'watashi wa'>
D -> <'the', '∅_def'>
N -> <'box', 'hako wo'>
V -> <'open', 'akemasu'>
"""

grammar = parse_grammar_text(text)
print(f"parsed {len(grammar.rules)} rules, start symbol {grammar.start}")
print("source vocabulary:", sorted(word_vocab(grammar, "src")))
print("target vocabulary:", sorted(word_vocab(grammar, "tgt")))

# Each rule names its nonterminals once per side; here the VP rules put
# the verb last in the target language.
print("VP rules:")
for rule in grammar.rules_for("VP"):
    print(" ", rule_text(rule))

# Serialization is the exact text format back, so grammars round-trip.
assert parse_grammar_text(serialize_grammar(grammar)) is not None

# --- 2. a generated grammar ------------------------------------------------
# A GrammarSpec names a point in a typology: rule budget, word order per
# side, agreement morphology per side, script per side, and a seed.  The
# generator expands it over a fixed clause skeleton (CP/TP/VP/DP) and draws
# fresh pseudo-word vocabularies; equal specs give byte-identical grammars.
spec = GrammarSpec(size=57, word_order_src="SVO", word_order_tgt="OVS", seed=7)
generated, manifest = generate_with_manifest(spec)
print(f"\ngenerated grammar: {len(generated.rules)} rules (requested {spec.size})")
print("rules per open class:", manifest["per_category_rules"])

print("\nthe clause spine, with the OVS target putting the subject last:")
for rule in generated.rules[:4]:
    print(" ", rule_text(rule))

print("\na few lexical entries (source word -> target word):")
shown = 0
for rule in generated.rules:
    if not rule.children and rule.lhs in ("V", "N") and shown < 6:
        print(f"  {rule.lhs}: {rule.src[0].text} -> {rule.tgt[0].text}")
        shown += 1
