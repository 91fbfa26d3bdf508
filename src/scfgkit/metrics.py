"""Translation quality measures: exact match, bag of words, BLEU, chrF++.

:func:`score_candidate` is the one entry point: it scores a candidate on all
four against a gold set.  All four score into [0, 1] and agree directionally
(1 best).  The languages here are whitespace-delimited by construction, so
tokenization is plain whitespace splitting throughout.

BLEU and chrF++ run in the one configuration the paper reports, SacreBLEU's
defaults at ``tokenize='none'`` (Post 2018).  BLEU is 4-gram with uniform
weights: n-gram precisions up to the effective order (the largest order with
any candidate n-grams), exponential smoothing for zero counts (each zero
halves the floor again; :class:`BleuConfig` can turn it off), and the standard
brevity penalty.  chrF++ (Popović 2017) averages the per-order F(beta), beta =
2, of character n-grams of orders 1..6 (whitespace removed) and word n-grams of
orders 1..2 over the orders where both sides have n-grams.

For multi-reference items (a gold set with several credited variants) exact
match is membership; the graded metrics take the maximum over the gold set.
A nonempty exact member scores the maximum on every metric, so
``score_candidate`` returns that record from membership without counting
n-grams.

Every metric reads one set of integer n-gram statistics: per order, the
candidate's n-gram count, each gold's n-gram count and each gold's clipped
overlap.  One pure-Python walk gives them for gold sets of any size, on each
side: words at orders 1..4, and the words' characters joined without spaces
at orders 1..6.  The candidate's n-grams of every order are counted once, in
one ``Counter``; its keys are the sentence's n-grams themselves (a symbol at
order 1, a slice above), so keys of different orders never compare equal and
no two n-grams share a key in any script.  The members are read in the order
given (:class:`~scfgkit.harness.GoldSet` sorts them), and each member resumes
from the prefix it shares with the member before it: only the n-grams that
start within ``max_order - 1`` symbols of the end of that prefix, or past it,
are taken back from the previous member's counts and added from this
member's.  So a member costs only its suffix past that prefix, and the walk
keeps one count per n-gram of the candidate, for any number of members.
Word orders are shared by BLEU and chrF++, bag of words is read off the
unigram overlap, and the floats come from the same per-gold formulas, so
every score is what one Counter per n-gram order would give.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .grammar import as_words

Sentence = "str | tuple[str, ...] | list[str]"

# SacreBLEU's defaults: BLEU's orders and their uniform weights, chrF++'s
# beta and its character and word orders
BLEU_WEIGHTS = (0.25,) * 4
CHRF_BETA = 2.0
CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2


@dataclass(frozen=True)
class BleuConfig:
    """BLEU's smoothing of zero n-gram counts: "exp-floor" (SacreBLEU's
    'exp') or "none"."""

    smoothing: str = "exp-floor"

    def __post_init__(self):
        if self.smoothing not in ("exp-floor", "none"):
            raise ValueError(f"unknown smoothing: {self.smoothing!r}")


@dataclass(frozen=True)
class ScoreRecord:
    """Per-candidate metric values."""

    exact: int
    bag_of_words: int
    bleu: float
    chrfpp: float

    def as_dict(self) -> dict:
        return {
            "exact": self.exact,
            "bag_of_words": self.bag_of_words,
            "bleu": self.bleu,
            "chrfpp": self.chrfpp,
        }


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))


def _shared_prefix(a, b) -> int:
    """Length of the longest common prefix of the sequences ``a`` and ``b``,
    bisected by slice comparisons."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) >> 1
        if a[:mid] == b[:mid]:
            low = mid
        else:
            high = mid - 1
    return low


def _ngram_stats(cand, golds, max_order: int) -> list[tuple[int, list[int], list[int]]]:
    """Per order 1..max_order: (the candidate's n-gram count, each gold's
    n-gram count, each gold's clipped overlap with the candidate), for a
    candidate and golds that are all strs or all word tuples.

    ``room[g]`` is the candidate's count of the n-gram ``g`` minus the
    current member's, so adding one ``g`` to the member raises its overlap
    while ``room[g]`` is above 0, and taking one back lowers it while
    ``room[g]`` is at least 0.  Each member takes back the previous member's
    n-grams from where the two differ and adds its own.  A position is
    followed order by order only while the candidate has its n-gram: every
    prefix of a candidate n-gram is one too.
    """
    size = len(cand)
    room = Counter(cand)
    room.update(cand[i:i + n] for n in range(2, max_order + 1) for i in range(size - n + 1))
    get = room.get
    running = [0] * (max_order + 1)  # the current member's overlap by order
    overlaps: list[list[int]] = [[] for _ in range(max_order)]
    prev = cand[:0]
    for gold in golds:
        start = max(0, _shared_prefix(prev, gold) - max_order + 1)
        # (sequence, change in its count, room above which a change is overlap)
        for seq, step, floor in ((prev, -1, -1), (gold, 1, 0)):
            end = len(seq)
            for i, symbol in enumerate(seq[start:], start):
                left = get(symbol)
                if left is None:
                    continue
                room[symbol] = left - step
                if left > floor:
                    running[1] += step
                stop = i + max_order
                if stop > end:  # min() costs a call per position
                    stop = end
                n = 1
                for j in range(i + 2, stop + 1):
                    n += 1
                    gram = seq[i:j]
                    left = get(gram)
                    if left is None:
                        break
                    room[gram] = left - step
                    if left > floor:
                        running[n] += step
        for n in range(max_order):
            overlaps[n].append(running[n + 1])
        prev = gold
    lengths = list(map(len, golds))
    return [
        (max(0, size - n + 1), [m - n + 1 if m >= n else 0 for m in lengths], overlaps[n - 1])
        for n in range(1, max_order + 1)
    ]


def _any_bag_match(words) -> int:
    """1 iff some gold has the candidate's word multiset: the unigram
    overlap equals both lengths."""
    cand_len, gold_lens, overlaps = words[0]
    return int(any(o == cand_len == m for o, m in zip(overlaps, gold_lens)))


def _bleu_from_stats(correct, total, sys_len: int, ref_len: int, cfg: BleuConfig) -> float:
    order = len(BLEU_WEIGHTS)
    precisions = [0.0] * order
    floor = 1.0
    effective_order = order
    for n in range(order):
        if total[n] == 0:
            break
        effective_order = n + 1
        if correct[n] == 0:
            if cfg.smoothing == "exp-floor":
                floor *= 2.0
                precisions[n] = 1.0 / (floor * total[n])
        else:
            precisions[n] = correct[n] / total[n]
    if sys_len == 0:
        return 0.0
    brevity = math.exp(1 - ref_len / sys_len) if sys_len < ref_len else 1.0
    used = BLEU_WEIGHTS[:effective_order]
    norm = sum(used)
    log_sum = sum(
        w / norm * (math.log(p) if p > 0 else -9999999999)
        for w, p in zip(used, precisions)
    )
    return brevity * math.exp(log_sum)


def _best_bleu(words, cfg: BleuConfig) -> float:
    """Highest sentence BLEU over the golds measured in ``words``; golds with
    equal statistics (reference length, overlap per order) score once."""
    sys_len, ref_lens, _ = words[0]
    total = [c for c, _, _ in words]
    return max(
        _clamp(_bleu_from_stats(correct, total, sys_len, ref_len, cfg))
        for ref_len, *correct in set(zip(ref_lens, *(o for _, _, o in words)))
    )


def _chrf_from_stats(stats) -> float:
    total = 0.0
    effective = 0
    for n_cand, n_gold, match in stats:
        if n_cand == 0 or n_gold == 0:
            continue
        effective += 1
        prec = match / n_cand
        rec = match / n_gold
        if prec + rec > 0:
            total += (1 + CHRF_BETA**2) * prec * rec / (CHRF_BETA**2 * prec + rec)
    return total / effective if effective else 0.0


def _best_chrf(orders) -> float:
    """Highest chrF++ over the golds measured in ``orders``; golds with equal
    statistics score once."""
    cand = [c for c, _, _ in orders]
    k = len(orders)
    keys = set(zip(*(g for _, g, _ in orders), *(o for _, _, o in orders)))
    return max(_clamp(_chrf_from_stats(zip(cand, key[:k], key[k:]))) for key in keys)


def score_candidate(cand: Sentence, golds, bleu_cfg: BleuConfig | None = None) -> ScoreRecord:
    """Score one candidate against a nonempty gold set.

    Exact match is membership in the gold set; bag of words, BLEU and chrF++
    each take their maximum over the set (the crediting rule for grammars
    that pair one source with several target variants).  A nonempty member
    scores the maximum on every metric and is scored from membership alone:
    against an equal gold every precision, recall and the brevity penalty
    are exactly 1, so BLEU is exactly 1.0, and each chrF++ order's F(beta)
    is exactly 1.0, with word orders to average over.  An empty answer has
    no n-gram and scores 0.  Otherwise the n-gram statistics of the whole
    set come from one walk over the members per side (words, characters),
    in which a member costs only its suffix past the prefix it shares with
    the member before it, so sorted members cost least; BLEU and chrF++
    share the word orders.
    """
    bleu_cfg = bleu_cfg or BleuConfig()
    golds = [as_words(g) for g in golds]
    if not golds:
        raise ValueError("gold set is empty")
    cand_words = as_words(cand)
    exact = int(cand_words in golds)
    if exact and cand_words:
        return ScoreRecord(exact=1, bag_of_words=1, bleu=1.0, chrfpp=1.0)
    words = _ngram_stats(cand_words, golds, len(BLEU_WEIGHTS))
    chars = _ngram_stats("".join(cand_words), ["".join(g) for g in golds], CHRF_CHAR_ORDER)
    return ScoreRecord(
        exact=exact,
        bag_of_words=_any_bag_match(words),
        bleu=_best_bleu(words, bleu_cfg),
        chrfpp=_best_chrf(chars + words[:CHRF_WORD_ORDER]),
    )
