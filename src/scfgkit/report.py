"""Aggregate run records into tables of means with bootstrap intervals.

A report groups records along each axis of :data:`AXES` (grammar size,
source length); each cell reports the per-metric mean with a 95%
nonparametric bootstrap confidence interval (10,000 percentile resamples).
Tables emit as CSV (long form) and as aligned text with metrics as rows and
groups as columns; a group given to :func:`group_table` with no records
renders as an em dash.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METRICS = ("exact", "bag_of_words", "bleu", "chrfpp")
EMPTY_CELL = "—"
# elements of resample indices drawn at once by bootstrap_ci
RESAMPLE_BLOCK = 1 << 20
# (table name, record field, CSV column, text title), in report order
AXES = (
    ("by_size", "grammar_size", "size", "grammar size"),
    ("by_length", "length", "length", "sentence length"),
)


@dataclass(frozen=True)
class CellStat:
    n: int
    mean: float | None
    ci_low: float | None
    ci_high: float | None

    @property
    def empty(self) -> bool:
        return self.n == 0


def bootstrap_ci(
    values,
    n_resamples: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(seed)
    # draw the resample indices a block of rows at a time, so memory stays
    # bounded; the generator's stream, and so every index, is the same as in
    # one (n_resamples, n) draw
    rows = max(1, RESAMPLE_BLOCK // arr.size)
    blocks = []
    for start in range(0, n_resamples, rows):
        size = (min(rows, n_resamples - start), arr.size)
        blocks.append(arr[rng.integers(0, arr.size, size=size)].mean(axis=1))
    means = np.concatenate(blocks)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [tail, 1.0 - tail])
    # quantile interpolation can drift one ulp past the sample range
    lo_bound, hi_bound = arr.min(), arr.max()
    return float(np.clip(low, lo_bound, hi_bound)), float(np.clip(high, lo_bound, hi_bound))


def _cell(values, n_resamples: int, seed: int) -> CellStat:
    if not values:
        return CellStat(0, None, None, None)
    arr = np.asarray(values, dtype=float)
    low, high = bootstrap_ci(arr, n_resamples=n_resamples, seed=seed)
    return CellStat(len(values), float(arr.mean()), low, high)


def group_table(
    records,
    key: str,
    groups=None,
    n_resamples: int = 10_000,
    seed: int = 0,
) -> dict:
    """{group value: {metric: CellStat}} for one grouping field.

    ``groups`` fixes the column set (empty groups included); by default the
    distinct values present in the records are used, sorted.
    """
    scores: dict = {}
    for r in records:
        scores.setdefault(r[key], []).append(r["scores"])
    if groups is None:
        groups = sorted(scores)
    return {
        group: {
            metric: _cell(
                [s[metric] for s in scores.get(group, ())], n_resamples, seed
            )
            for metric in METRICS
        }
        for group in groups
    }


def aggregate_report(records, *, n_resamples: int = 10_000, seed: int = 0) -> dict:
    """{table name: group_table} for each axis of :data:`AXES`."""
    records = list(records)
    return {
        name: group_table(records, key, n_resamples=n_resamples, seed=seed)
        for name, key, _, _ in AXES
    }


def table_to_csv(table: dict, key_name: str) -> str:
    """Long-form CSV: one row per (group, metric) cell."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([key_name, "metric", "n", "mean", "ci_low", "ci_high"])
    for group, row in table.items():
        for metric in METRICS:
            stat = row[metric]
            if stat.empty:
                writer.writerow([group, metric, 0, "", "", ""])
            else:
                writer.writerow(
                    [
                        group,
                        metric,
                        stat.n,
                        f"{stat.mean:.6f}",
                        f"{stat.ci_low:.6f}",
                        f"{stat.ci_high:.6f}",
                    ]
                )
    return out.getvalue()


def _format_stat(stat: CellStat) -> str:
    if stat.empty:
        return EMPTY_CELL
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

    Returns {"by_size": Path, "by_length": Path, "text": Path}.
    """
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
