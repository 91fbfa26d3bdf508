"""Aggregate run records into tables of means with bootstrap intervals.

A report groups records along each axis of :data:`AXES` (grammar size,
source length); each cell reports the per-metric mean with a 95%
nonparametric bootstrap confidence interval (10,000 percentile resamples).
Cells with the same number of records, on any axis and for any metric, share
one resample stream: its indices are drawn once, a block of
:data:`RESAMPLE_BLOCK` indices at a time, and each cell's interval is the one
:func:`bootstrap_ci` gives for its scores alone.  Records are read in one
pass that keeps only their four scores under each axis's group, so a
generator over a run log need not hold the records, and every group has a
record.  A resample count that is not a whole number >= 1, or a seed that is
not one >= 0, is refused.  Tables emit as CSV (long form) and as aligned text
with metrics as rows and groups as columns.  numpy is imported by the
functions that build and bootstrap the score arrays, not with the module, so
importing the package for :data:`AXES` and :data:`METRICS` does not load it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

METRICS = ("exact", "bag_of_words", "bleu", "chrfpp")
# each tail of the 95% interval as (1 - 0.95) / 2 computes it,
# 0.025000000000000022: the literal 0.025 would move the quantiles
TAIL = (1.0 - 0.95) / 2.0
# elements of resample indices drawn at once
RESAMPLE_BLOCK = 1 << 16
# (table name, record field, CSV column, text title), in report order
AXES = (
    ("by_size", "grammar_size", "size", "grammar size"),
    ("by_length", "length", "length", "sentence length"),
)


@dataclass(frozen=True)
class CellStat:
    n: int
    mean: float
    ci_low: float
    ci_high: float


def _check(n_resamples, seed) -> None:
    """Refuse bootstrap arguments that no interval can be drawn with."""
    if isinstance(n_resamples, bool) or not isinstance(n_resamples, Integral) or n_resamples < 1:
        raise ValueError(f"n_resamples must be a whole number >= 1: {n_resamples!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a whole number >= 0: {seed!r}")


def _intervals(columns: list, n_resamples: int, seed: int) -> list:
    """95% percentile bootstrap interval for the mean of each nonempty float
    array in ``columns``, in order.

    Columns of one size share one resample stream, drawn once from
    ``default_rng(seed)``.  It is drawn a block of rows at a time, so memory
    stays bounded; the generator's stream, and so every index, is the same as
    in one (n_resamples, n) draw, which is what each column would see alone.
    Only the resampled means of one size's columns are held at a time.
    """
    import numpy as np

    _check(n_resamples, seed)
    by_size: dict = {}
    for i, arr in enumerate(columns):
        by_size.setdefault(arr.size, []).append(i)
    intervals = [None] * len(columns)
    for n, same_size in by_size.items():
        rng = np.random.default_rng(seed)
        rows = max(1, RESAMPLE_BLOCK // n)
        means = np.empty((len(same_size), n_resamples))
        for start in range(0, n_resamples, rows):
            idx = rng.integers(0, n, size=(min(rows, n_resamples - start), n))
            for k, i in enumerate(same_size):
                means[k, start:start + len(idx)] = columns[i][idx].mean(axis=1)
        for i, resampled in zip(same_size, means):
            low, high = np.quantile(resampled, [TAIL, 1.0 - TAIL])
            # quantile interpolation can drift one ulp past the sample range
            lo_bound, hi_bound = columns[i].min(), columns[i].max()
            intervals[i] = float(np.clip(low, lo_bound, hi_bound)), float(np.clip(high, lo_bound, hi_bound))
    return intervals


def bootstrap_ci(values, n_resamples: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """95% percentile bootstrap interval for the mean of ``values``."""
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    return _intervals([arr], n_resamples, seed)[0]


def _score_columns(records, keys) -> list:
    """For each field of ``keys``, {group value: (len(METRICS), n) float array
    of its scores, n >= 1}, groups sorted, from one pass over the iterable
    ``records``; only each record's four scores are kept."""
    import numpy as np

    tables: list = [{} for _ in keys]
    for r in records:
        scores = r["scores"]
        row = tuple(scores[metric] for metric in METRICS)
        for key, table in zip(keys, tables):
            table.setdefault(r[key], []).append(row)
    return [
        {group: np.asarray(table[group], dtype=float).T for group in sorted(table)}
        for table in tables
    ]


def _stat_tables(tables: list, n_resamples: int, seed: int) -> list:
    """Each table of :func:`_score_columns` as a table of :class:`CellStat`;
    the columns of all ``tables`` are bootstrapped together."""
    columns = [col for table in tables for cols in table.values() for col in cols]
    intervals = iter(_intervals(columns, n_resamples, seed))
    return [
        {
            group: {
                metric: CellStat(col.size, float(col.mean()), *next(intervals))
                for metric, col in zip(METRICS, cols)
            }
            for group, cols in table.items()
        }
        for table in tables
    ]


def aggregate_report(records, *, n_resamples: int = 10_000, seed: int = 0) -> dict:
    """{table name: {group value: {metric: CellStat}}} for each axis of
    :data:`AXES`, from one pass over ``records``, any iterable of records,
    used once."""
    tables = _score_columns(records, [key for _, key, _, _ in AXES])
    return {name: table for (name, *_), table in zip(AXES, _stat_tables(tables, n_resamples, seed))}


def table_to_csv(table: dict, key_name: str) -> str:
    """Long-form CSV: one row per (group, metric) cell."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([key_name, "metric", "n", "mean", "ci_low", "ci_high"])
    for group, row in table.items():
        for metric in METRICS:
            stat = row[metric]
            writer.writerow(
                [group, metric, stat.n, f"{stat.mean:.6f}", f"{stat.ci_low:.6f}", f"{stat.ci_high:.6f}"]
            )
    return out.getvalue()


def _format_stat(stat: CellStat) -> str:
    return f"{stat.mean:.3f} [{stat.ci_low:.3f}, {stat.ci_high:.3f}]"


def table_to_text(table: dict, key_name: str) -> str:
    """Aligned text table: metric rows, one column per group."""
    groups = list(table)
    header = ["metric"] + [f"{key_name}={g}" for g in groups]
    rows = [header]
    for metric in METRICS:
        rows.append([metric] + [_format_stat(table[g][metric]) for g in groups])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def write_report(records, out_dir: str | Path, *, n_resamples: int = 10_000, seed: int = 0) -> dict:
    """Write one CSV per axis of :data:`AXES` plus a combined text report.

    ``records`` is any iterable of records, used once: a generator over a run
    log is read in one pass that keeps only each record's scores.

    Returns {"by_size": Path, "by_length": Path, "text": Path}.
    """
    _check(n_resamples, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = aggregate_report(records, n_resamples=n_resamples, seed=seed)
    paths = {}
    sections = []
    for name, _, column, title in AXES:
        paths[name] = out / f"{name}.csv"
        paths[name].write_text(table_to_csv(report[name], column), encoding="utf-8")
        sections.append(f"Mean results by {title}\n\n" + table_to_text(report[name], column))
    paths["text"] = out / "report.txt"
    paths["text"].write_text("\n".join(sections), encoding="utf-8")
    return paths
