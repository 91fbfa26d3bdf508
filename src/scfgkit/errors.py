"""Error taxonomy for failed translations.

Eight non-exclusive labels describe how a wrong candidate went wrong:

- ``word_order``: right words (as a set), wrong order.
- ``recall``: used a real target-language word that the gold sentence
  does not contain.
- ``hallucination``: used a word from neither language's vocabulary.
- ``misspelling``: a hallucinated word within edit distance 2 of a real
  target word (the near-miss subtype, so misspelling implies hallucination).
- ``source_vocab``: copied a source-language word into the translation.
- ``orthography``: a codepoint outside the target script's ranges, or a
  diacritic-bearing script rendered with no diacritics at all.
- ``english_vocab``: used an English word.
- ``omission``: failed to include every needed gold word (multiset-wise).

Labels that compare against "the" gold sentence anchor to the gold-set
member with minimum word-level edit distance to the candidate.  Ties go to
the first such member with the candidate's word multiset, else to the first
such member sharing the most words with the candidate (as multisets), which
is the first member in the order given when none shares a word.  Gold sets
are sorted, so without that preference a reordered gold, whole or with a
word dropped, would anchor to another agreement variant and read as
``recall`` instead of ``word_order`` or ``omission``.

One exact Levenshtein kernel, bit-parallel (Myers 1999; Hyyrö 2003), gives
the distances: over words from the candidate to each gold member, and over
characters from a hallucinated word to the target words whose length is
within ``MISSPELLING_DISTANCE`` of its own (a distance is at least the
length difference; Ukkonen 1985).  Each member resumes from the state the
one before it reached at the end of their common prefix, and both lists come
sorted, so the agreement variants of a gold set cost only the words they
differ in.  The distances come one at a time: the misspelling check stops
at the first target word within reach.  Callers classify only failures; a
candidate equal to some gold member gets the empty set.
"""

from __future__ import annotations

from collections import Counter

from .grammar import as_words
from .scripts import ScriptSpec

LABELS = (
    "word_order",
    "recall",
    "hallucination",
    "misspelling",
    "source_vocab",
    "orthography",
    "english_vocab",
    "omission",
)

UNPARSEABLE = "unparseable"

# Trimmed from word edges before any comparison; models often wrap answers
# in backticks or end them with a period.
_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~‘’“”…"


def normalize_words(sentence) -> tuple[str, ...]:
    words = (w.strip(_PUNCT) for w in as_words(sentence))
    return tuple(w for w in words if w)


MISSPELLING_DISTANCE = 2


def _distances(cand, members):
    """Yield the Levenshtein distance from ``cand`` to each of ``members``, in
    order, over symbols: words of word tuples, characters of strings.

    Bit-parallel (Myers 1999, in Hyyrö's 2003 form for the global distance):
    the candidate is the pattern, symbol i its bit i, and a member is read
    one symbol at a time, each step updating the column of vertical deltas
    (``vp``, ``vn``) and the bottom cell ``score`` in a few integer
    operations.  Python ints have no width, so one int holds a candidate of
    any length.  Each member resumes from the column it shares with the member
    before it at the end of their common prefix, so sorted members, such as
    the agreement variants of a gold set, each cost their own suffix.
    """
    if not cand:
        yield from map(len, members)
        return
    peq: dict = {}
    for i, symbol in enumerate(cand):
        peq[symbol] = peq.get(symbol, 0) | 1 << i
    mask = (1 << len(cand)) - 1
    top = 1 << (len(cand) - 1)
    previous = ()
    columns = [(mask, 0, len(cand))]  # (vp, vn, score) after each symbol of previous
    for member in members:
        shared = 0
        for a, b in zip(previous, member):
            if a != b:
                break
            shared += 1
        del columns[shared + 1 :]
        vp, vn, score = columns[-1]
        for symbol in member[shared:]:
            eq = peq.get(symbol, 0)
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
            hp = vn | (mask & ~(d0 | vp))
            hn = vp & d0
            if hp & top:
                score += 1
            elif hn & top:
                score -= 1
            hp = hp << 1 | 1
            vp = (hn << 1 | ~(d0 | hp)) & mask
            vn = hp & d0 & mask
            columns.append((vp, vn, score))
        previous = member
        yield score


def nearest_gold(cand_words: tuple[str, ...], golds) -> tuple[str, ...]:
    """The gold member at minimum word-level edit distance (ties: the first
    with the candidate's word multiset, else the first of those sharing the
    most words with it)."""
    members = [as_words(g) for g in golds]
    if not members:
        raise ValueError("gold set is empty")
    distances = list(_distances(cand_words, members))
    best = min(distances)
    tied = [member for member, distance in zip(members, distances) if distance == best]
    bag = Counter(cand_words)

    def agreement(member: tuple[str, ...]) -> tuple[bool, int]:
        common = [word for word in member if word in bag]
        shared = sum((Counter(common) & bag).values()) if common else 0
        return shared == len(member) == len(cand_words), shared

    return max(tied, key=agreement)


def classify(
    cand,
    golds,
    src_vocab: frozenset[str] | set[str],
    tgt_vocab: frozenset[str] | set[str],
    script: ScriptSpec | None = None,
    english: frozenset[str] | set[str] = frozenset(),
) -> frozenset[str]:
    """Label one failed candidate against the gold set.

    ``src_vocab`` / ``tgt_vocab`` are surface word vocabularies of the two
    languages; ``script`` is the target script (None skips orthography);
    ``english`` is a lowercase English wordlist.
    """
    cand_words = normalize_words(cand)
    gold = nearest_gold(cand_words, golds)
    if cand_words == gold:
        return frozenset()
    labels = set()
    if set(cand_words) == set(gold):
        labels.add("word_order")
    gold_set = set(gold)
    for word in cand_words:
        if word in tgt_vocab and word not in gold_set:
            labels.add("recall")
        if word not in src_vocab and word not in tgt_vocab:
            labels.add("hallucination")
            near = sorted(r for r in tgt_vocab if abs(len(r) - len(word)) <= MISSPELLING_DISTANCE)
            if any(d <= MISSPELLING_DISTANCE for d in _distances(word, near)):
                labels.add("misspelling")
        if word in src_vocab and word not in tgt_vocab:
            labels.add("source_vocab")
        if word.lower() in english:
            labels.add("english_vocab")
    if script is not None and cand_words and not script.covers("".join(cand_words)):
        labels.add("orthography")
    if Counter(gold) - Counter(cand_words):
        labels.add("omission")
    return frozenset(labels)


def sorted_labels(labels) -> list[str]:
    """Stable serialization order: taxonomy labels first, extras appended."""
    known = [label for label in LABELS if label in labels]
    return known + sorted(set(labels) - set(LABELS))


def aggregate(label_sets, group_keys=None) -> dict:
    """Fold label sets into per-group counts and rates.

    ``group_keys`` pairs each item with a grouping value (None puts all
    items in one group named "all").  Rates may sum past 1 since labels are
    non-exclusive; items with no label at all are tallied as "unlabeled".
    """
    label_sets = list(label_sets)
    keys = list(group_keys) if group_keys is not None else ["all"] * len(label_sets)
    if len(keys) != len(label_sets):
        raise ValueError("one group key per label set required")
    table: dict = {}
    for key, labels in zip(keys, label_sets):
        row = table.setdefault(
            key, {"n": 0, "counts": dict.fromkeys(LABELS, 0), "unlabeled": 0}
        )
        row["n"] += 1
        hit = False
        for label in labels:
            if label in row["counts"]:
                row["counts"][label] += 1
                hit = True
        if not hit:
            row["unlabeled"] += 1
    for row in table.values():
        n = row["n"]
        row["rates"] = {
            label: (count / n if n else 0.0) for label, count in row["counts"].items()
        }
    return table
