import csv
import hashlib
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfgkit.report import (
    AXES,
    METRICS,
    CellStat,
    aggregate_report,
    bootstrap_ci,
    table_to_csv,
    table_to_text,
    write_report,
)

from . import oracles


def record(size, length, exact=1.0):
    scores = {m: exact for m in METRICS}
    return {"grammar_size": size, "length": length, "scores": scores}


def test_bootstrap_ci_of_constant_data_is_degenerate():
    low, high = bootstrap_ci([1.0] * 20)
    assert low == 1.0 and high == 1.0


def test_bootstrap_ci_brackets_the_mean():
    low, high = bootstrap_ci([0.0, 1.0] * 25, n_resamples=2000)
    assert low < 0.5 < high
    assert 0.0 <= low <= high <= 1.0


def test_bootstrap_ci_is_deterministic_in_seed():
    values = [0.0, 1.0, 1.0, 0.0, 1.0]
    assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)
    with pytest.raises(ValueError):
        bootstrap_ci([])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 60, 101, 480, 1001, 2000, 3001])
def test_bootstrap_ci_equals_the_one_shot_draw(n):
    # 2,000 resamples: one row block up to n = 524, then up to six with a
    # ragged last one
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        for values in (rng.random(n), (rng.random(n) < 0.3).astype(float)):
            got = bootstrap_ci(values, n_resamples=2_000, seed=seed)
            assert got == oracles.bootstrap_ci(values, n_resamples=2_000, seed=seed)


def test_bootstrap_ci_memory_is_bounded():
    values = np.random.default_rng(0).random(2_000)
    tracemalloc.start()
    try:
        bootstrap_ci(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one draw of all (10,000, 2,000) indices and their gather hold 320 MB, a
    # block of 2^20 indices and its gather 16 MB, one of 2^16 1 MB
    assert peak < 4 * 2**20


def test_group_table_means():
    records = [record(57, 3, 1.0), record(57, 3, 0.0), record(117, 3, 1.0)]
    table = aggregate_report(records, n_resamples=200)["by_size"]
    assert table[57]["exact"].n == 2
    assert table[57]["exact"].mean == 0.5
    assert table[117]["bleu"].mean == 1.0


def test_aggregate_report_has_both_axes():
    records = [record(57, 3), record(57, 5, 0.0), record(117, 3)]
    report = aggregate_report(records, n_resamples=50)
    assert set(report) == {"by_size", "by_length"}
    assert list(report["by_size"]) == [57, 117]
    assert list(report["by_length"]) == [3, 5]


def test_csv_shape_and_empty_cells():
    # a group is a value some record has, so no cell is empty
    table = aggregate_report([record(57, 3), record(117, 5, 0.0)], n_resamples=50)["by_size"]
    text = table_to_csv(table, "grammar_size")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["grammar_size", "metric", "n", "mean", "ci_low", "ci_high"]
    assert len(rows) == 1 + 2 * len(METRICS)
    by_group = {(r[0], r[1]): r for r in rows[1:]}
    assert float(by_group[("57", "exact")][3]) == 1.0
    assert by_group[("57", "exact")][2] == "1"
    assert float(by_group[("117", "exact")][3]) == 0.0
    assert all(all(row) for row in rows)


def test_text_table_alignment_and_empty_marker():
    # every cell holds a mean and its interval; none needs a marker
    table = aggregate_report([record(57, 3), record(117, 5, 0.0)], n_resamples=50)["by_size"]
    text = table_to_text(table, "size")
    lines = text.splitlines()
    assert len({len(l) for l in lines if l.strip()}) <= 2  # aligned columns
    assert "size=57" in lines[0] and "size=117" in lines[0]
    assert "1.000 [1.000, 1.000]" in text and "0.000 [0.000, 0.000]" in text
    assert text.count("[") == 2 * len(METRICS)


def test_write_report_files(tmp_path):
    records = [record(57, 3), record(57, 4, 0.0), record(117, 3)]
    paths = write_report(records, tmp_path / "report", n_resamples=50)
    assert set(paths) == {"by_size", "by_length", "text"}
    for p in paths.values():
        assert p.exists()
    text = paths["text"].read_text("utf-8")
    assert "Mean results by grammar size" in text
    assert "Mean results by sentence length" in text
    csv_text = paths["by_size"].read_text("utf-8")
    assert csv_text.startswith("size,metric,n,mean,ci_low,ci_high")
    assert "57,exact,2,0.500000" in csv_text


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
def test_ci_is_ordered_and_within_range(values):
    low, high = bootstrap_ci(values, n_resamples=300)
    assert min(values) <= low <= high <= max(values)


def _pinned_record(size, length, scores):
    return {"grammar_size": size, "length": length, "scores": dict(zip(METRICS, scores))}


def _pinned_record_sets() -> dict:
    # random() is the one stream Python keeps the same across versions
    rng = random.Random(12)
    unequal = (
        [_pinned_record(57, 3, [1, 1, 1.0, 1.0])] * 5
        + [_pinned_record(117, 20, [0, 1, 0.5, 0.75])] * 2
        + [_pinned_record(237, 50, [0, 0, 0.0, 0.0])]
    )
    binary = [
        _pinned_record(size, length, [int(rng.random() < 0.4)] * 4)
        for size in (57, 117)
        for length in (5, 20, 50)
        for _ in range(3)
    ]
    fractional = [
        _pinned_record(
            (57, 117, 237)[int(rng.random() * 3)],
            (3, 5, 20, 50)[int(rng.random() * 4)],
            [
                int(rng.random() < 0.3),
                int(rng.random() < 0.5),
                round(rng.random(), 4),
                round(rng.random(), 4),
            ],
        )
        for _ in range(40)
    ]
    return {"unequal": unequal, "binary": binary, "fractional": fractional}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of by_size.csv, by_length.csv and report.txt (300 resamples, seed 1)
PINNED_REPORTS = {
    "unequal": (
        "8a879460173c0a410d1e893b155f827a9c025ea73fa7d2c19392a45620d1024f",
        "55ecbae53d884fd782351d7c8aadcb1c6eeff96f58663e4eb7a872afce43702e",
        "7e196baf3b5ce525bc10b89b9ad7b73a6f23cb15f02601769ce67ec450018558",
    ),
    "binary": (
        "79a132f53abb8eaeda7defff7de161b0f235fc380adbc8dba9de69b39354d1bc",
        "058ee5fb1271062a62b646ea8c34d4109763a3a34d50184d275464430f667515",
        "a7c10ecdbf831e6b5e5be808fd0a82a12efda508bedf4ba6a923ee22aafcb645",
    ),
    "fractional": (
        "685a7067b76e12f6f4586648cee4adb938e60cf9796f94dcdbaebc9f7b647b3b",
        "6a55835c24865e79ac90e1e4392da2a61f7e67977ea5902cf28a7057defd22af",
        "dd9d475a4c67e5b8f832c57a443417d50462c2c5937e3ab4eca499abfb60a058",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(tmp_path, name):
    records = _pinned_record_sets()[name]
    paths = write_report(records, tmp_path, n_resamples=300, seed=1)
    digests = tuple(_sha256(paths[key].read_text("utf-8")) for key in ("by_size", "by_length", "text"))
    assert digests == PINNED_REPORTS[name]


def _mixed_records() -> list:
    # by_size: 600 records (two row blocks at 2,000 resamples), 30 and 1; by_length:
    # two groups of 30, the size of size 117's group too, and one of 571
    rng = random.Random(5)
    sizes = [57] * 600 + [117] * 30 + [237]
    lengths = [3] * 30 + [5] * 30 + [20] * 571
    rng.shuffle(lengths)
    return [
        _pinned_record(size, length, [int(rng.random() < 0.6), int(rng.random() < 0.8),
                                      round(rng.random(), 4), round(rng.random(), 4)])
        for size, length in zip(sizes, lengths)
    ]


def test_report_cells_equal_one_shot_draws_of_their_own():
    records = _mixed_records()
    report = aggregate_report(records, n_resamples=2_000, seed=7)
    for name, key, _, _ in AXES:
        for group, row in report[name].items():
            for metric in METRICS:
                values = np.asarray([r["scores"][metric] for r in records if r[key] == group], dtype=float)
                low, high = oracles.bootstrap_ci(values, n_resamples=2_000, seed=7)
                assert row[metric] == CellStat(values.size, float(values.mean()), low, high), (name, group, metric)


def test_write_report_reads_a_one_shot_iterable(tmp_path):
    records = _mixed_records()
    listed = write_report(records, tmp_path / "list", n_resamples=300, seed=2)
    streamed = write_report((r for r in records), tmp_path / "stream", n_resamples=300, seed=2)
    for key in ("by_size", "by_length", "text"):
        assert streamed[key].read_bytes() == listed[key].read_bytes()


def test_cells_of_one_size_share_one_resample_stream(monkeypatch):
    # 120 records: sizes of 60 and lengths of 40 give 20 cells of two sizes
    records = [record(size, length) for size in (57, 237) for length in (5, 20, 50) for _ in range(20)]
    seeded = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    aggregate_report(records, n_resamples=100, seed=4)
    assert seeded == [4, 4]


def test_aggregate_report_memory_is_bounded():
    # 32 columns of 2,000 records each, all of one size
    values = np.random.default_rng(0).random(8_000)
    records = [
        _pinned_record((57, 117, 237, 400)[i % 4], (3, 5, 20, 50)[i // 4 % 4], [float(v)] * 4)
        for i, v in enumerate(values)
    ]
    tracemalloc.start()
    try:
        aggregate_report(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 32 columns' resampled means hold 2.6 MB, a block of 2^16 indices
    # and its gather 1 MB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n_resamples", [0, -3, 2.5, "100", True])
def test_bad_resample_counts_are_refused(tmp_path, n_resamples):
    records = [record(57, 3), record(117, 5, 0.0)]
    for call in (
        lambda: bootstrap_ci([1.0, 0.0], n_resamples=n_resamples),
        lambda: aggregate_report(records, n_resamples=n_resamples),
        lambda: write_report(records, tmp_path / "report", n_resamples=n_resamples),
    ):
        with pytest.raises(ValueError, match="n_resamples must be a whole number >= 1"):
            call()
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_bad_seeds_are_refused(tmp_path, seed):
    records = [record(57, 3), record(117, 5, 0.0)]
    for call in (
        lambda: bootstrap_ci([1.0, 0.0], seed=seed),
        lambda: aggregate_report(records, seed=seed),
        lambda: write_report(records, tmp_path / "report", seed=seed),
    ):
        with pytest.raises(ValueError, match="seed must be a whole number >= 0"):
            call()
    assert not (tmp_path / "report").exists()
