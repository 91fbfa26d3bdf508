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
overlap.  The candidate's n-grams are coded once per call as exact integers
(symbols numbered among the candidate's distinct symbols, order-n codes built
as ``rank(n-1) * base + symbol`` and re-ranked with ``np.unique``, so no
hashing and no collisions in any script).  Gold n-grams are ranked against
those codes by binary search, ``GOLD_BLOCK`` golds per numpy pass, which
bounds the temporary arrays for gold sets of any size.
Word orders are shared by BLEU and chrF++, bag of words is read off the
unigram overlap, and the floats come from the same per-gold formulas, so
every score is what one Counter per n-gram order would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count, repeat

import numpy as np

from .grammar import as_words

Sentence = "str | tuple[str, ...] | list[str]"

# Golds measured per numpy pass: the temporaries hold about 60 bytes per
# character of the block's golds (~1 MB for 32 golds of 600 characters).
GOLD_BLOCK = 32

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


def _lookup(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value in the sorted ``keys``, or ``len(keys)`` if absent."""
    at = np.searchsorted(keys, values)
    if not len(keys):
        return at
    return np.where(keys[np.minimum(at, len(keys) - 1)] == values, at, len(keys))


def _word_coder(cand):
    """Numbers the candidate's distinct words 0..V-1; any other word is V."""
    vocab = dict(zip(dict.fromkeys(cand), count()))
    absent = len(vocab)

    def code(seqs) -> np.ndarray:
        words = chain.from_iterable(seqs)
        return np.fromiter(map(vocab.get, words, repeat(absent)), np.int64)

    return code, absent


def _char_coder(cand):
    """Numbers the candidate's distinct characters 0..V-1; any other is V.
    A sentence's characters are those of its words joined without spaces."""
    alphabet = np.array(sorted(map(ord, set("".join(cand)))), np.uint32)

    def code(seqs) -> np.ndarray:
        text = "".join(chain.from_iterable(seqs))
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        return _lookup(alphabet, points)

    return code, len(alphabet)


def _char_count(words) -> int:
    return sum(map(len, words))


class _CandidateNgrams:
    """One candidate's n-grams of orders 1..max_order, coded and counted once.

    Order-1 ranks are the symbol ids; an order-n code is the order-(n-1) rank
    of its prefix times ``base`` plus its last symbol, ranked among the
    candidate's distinct codes.  Gold positions are followed order by order
    only while the candidate has their n-gram: an (n+1)-gram can match only
    where its n-gram prefix did, so the work shrinks with the order.
    """

    def __init__(self, cand, max_order: int, chars: bool):
        self.size = _char_count if chars else len
        self.length = self.size(cand)
        self.max_order = max_order
        self.code, symbols = _char_coder(cand) if chars else _word_coder(cand)
        self.base = symbols + 1
        ids = self.code([cand])
        ranks = ids
        self.orders: list[tuple[np.ndarray, np.ndarray]] = []
        for n in range(1, max_order + 1):
            if n == 1:
                uniq, counts = np.arange(symbols), np.bincount(ids, minlength=symbols)
            else:
                codes = ranks[:-1] * self.base + ids[n - 1 :]
                uniq, ranks, counts = np.unique(
                    codes, return_inverse=True, return_counts=True
                )
            if not len(uniq):
                break
            self.orders.append((uniq, counts))

    def stats(self, golds) -> list[tuple[int, list[int], list[int]]]:
        """Per order 1..max_order: (candidate n-gram count, each gold's
        n-gram count, each gold's clipped overlap), as Python ints."""
        lengths = [self.size(g) for g in golds]
        overlaps: list[list[int]] = [[] for _ in range(self.max_order)]
        for start in range(0, len(golds), GOLD_BLOCK):
            stop = start + GOLD_BLOCK
            self._overlaps(golds[start:stop], lengths[start:stop], overlaps)
        return [
            (
                max(0, self.length - n + 1),
                [max(0, m - n + 1) for m in lengths],
                overlaps[n - 1],
            )
            for n in range(1, self.max_order + 1)
        ]

    def _overlaps(self, block, lengths, overlaps) -> None:
        rows = len(block)
        ids = self.code(block)
        ends = np.cumsum(lengths, dtype=np.int64)
        # positions whose n-gram the candidate has: start, gold, n-gram rank
        at = np.flatnonzero(ids < self.base - 1)
        gold = np.searchsorted(ends, at, side="right")
        ranks = ids[at]
        for n in range(1, self.max_order + 1):
            if n > len(self.orders) or not len(at):
                overlaps[n - 1].extend([0] * rows)
                continue
            uniq, counts = self.orders[n - 1]
            if n > 1:
                fits = ends[gold] - at >= n  # the n-gram ends inside its gold
                at, gold = at[fits], gold[fits]
                ranks = _lookup(uniq, ranks[fits] * self.base + ids[at + n - 1])
                found = ranks < len(uniq)
                at, gold, ranks = at[found], gold[found], ranks[found]
            cells = np.bincount(
                gold * len(uniq) + ranks, minlength=rows * len(uniq)
            ).reshape(rows, len(uniq))
            overlaps[n - 1].extend(np.minimum(cells, counts).sum(axis=1).tolist())


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
    set come from one batched pass per side (words, characters); BLEU and
    chrF++ share the word orders.
    """
    bleu_cfg = bleu_cfg or BleuConfig()
    golds = [as_words(g) for g in golds]
    if not golds:
        raise ValueError("gold set is empty")
    cand_words = as_words(cand)
    exact = int(cand_words in golds)
    if exact and cand_words:
        return ScoreRecord(exact=1, bag_of_words=1, bleu=1.0, chrfpp=1.0)
    words = _CandidateNgrams(cand_words, len(BLEU_WEIGHTS), chars=False).stats(golds)
    chars = _CandidateNgrams(cand_words, CHRF_CHAR_ORDER, chars=True).stats(golds)
    return ScoreRecord(
        exact=exact,
        bag_of_words=_any_bag_match(words),
        bleu=_best_bleu(words, bleu_cfg),
        chrfpp=_best_chrf(chars + words[:CHRF_WORD_ORDER]),
    )
