"""Score candidate translations against a gold set with four metrics.

exact match and bag-of-words are binary; BLEU and chrF++ are graded, so
they tell near misses apart from noise.  score_candidate() gives all four
for one candidate against a gold set.  Run:

    python demos/03_scoring_metrics.py
"""

from scfgkit import BleuConfig, score_candidate

gold = "vihrah feqloj qivsat fojzot tugsig"

# Candidates arranged from perfect to hopeless.
candidates = [
    ("identical      ", gold),
    ("reordered      ", "feqloj vihrah qivsat fojzot tugsig"),
    ("one misspelling", "vihrah feqloj qivsat fojzot tugsiq"),
    ("one word lost  ", "vihrah feqloj qivsat fojzot"),
    ("unrelated      ", "aaa bbb ccc ddd eee"),
]

print(f"gold: {gold}\n")
print(f"{'candidate':<16} {'exact':>5} {'bag':>4} {'bleu':>7} {'chrf++':>7}")
for name, cand in candidates:
    rec = score_candidate(cand, [gold])
    print(f"{name:<16} {rec.exact:>5} {rec.bag_of_words:>4}"
          f" {rec.bleu:>7.4f} {rec.chrfpp:>7.4f}")

# Things to notice:
#  - reordering keeps bag-of-words at 1 but costs most of the BLEU n-grams;
#  - a single misspelled word zeroes exact match yet chrF++ stays high,
#    because it works on character n-grams;
#  - the unrelated candidate is not quite 0.0 under the default exponential
#    smoothing.  Switch smoothing off for a hard zero:
unrelated = "aaa bbb ccc ddd eee"
print("\nunrelated, exp smoothing: ", f"{score_candidate(unrelated, [gold]).bleu:.4f}")
print("unrelated, no smoothing:  ",
      f'{score_candidate(unrelated, [gold], BleuConfig(smoothing="none")).bleu:.4f}')

# --- multiple golds ----------------------------------------------------------
# Ambiguous sources have several correct targets.  score_candidate() takes
# the best score over the gold set, so a candidate matching any gold wins.
golds2 = {"na bakomi", "ko bakomi"}
record = score_candidate("ko bakomi", golds2)
print("\nbest-over-golds record:", record.as_dict())
