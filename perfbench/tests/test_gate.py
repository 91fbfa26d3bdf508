"""The correctness gate fails when a digest or an invariant is violated.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

RECORD = {
    "trial_id": "c0_len5_r0", "seed": 7, "source": "a b c", "gold": "x y z",
    "gold_set_size": 1, "golds_overflowed": False, "status": "ok", "labels": [],
    "scores": {"exact": 1, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0, "labels": []},
    "prompt": "...",
}


def _records():
    second = dict(copy.deepcopy(RECORD), trial_id="c0_len5_r1", seed=8)
    return [copy.deepcopy(RECORD), second]


def test_digest_tracks_every_checked_field():
    base = common.records_digest(_records())
    for field, value in [("gold", "x z y"), ("gold_set_size", 2), ("golds_overflowed", True),
                         ("status", "transport_failed"), ("labels", ["recall"]), ("seed", 9),
                         ("source", "a c b")]:
        recs = _records()
        recs[0][field] = value
        assert common.records_digest(recs) != base, field
    for score in common.SCORE_NAMES:
        recs = _records()
        recs[1]["scores"][score] = 0.5
        assert common.records_digest(recs) != base, score


def test_digest_ignores_schema_trimming_and_order():
    base = common.records_digest(_records())
    recs = _records()
    for r in recs:
        del r["prompt"]
        del r["scores"]["labels"]
    assert common.records_digest(recs) == base
    assert common.records_digest(list(reversed(_records()))) == base


def test_check_records_rejects_bad_logs():
    recs = _records()
    common.check_records("grid-plain-oracle", recs, copy.deepcopy(recs))
    with pytest.raises(common.GateError, match="read back"):
        common.check_records("grid-plain-oracle", recs, recs[:1])
    inexact = copy.deepcopy(recs)
    inexact[0]["scores"]["exact"] = 0
    with pytest.raises(common.GateError, match="inexact"):
        common.check_records("grid-plain-oracle", inexact, copy.deepcopy(inexact))
    common.check_records("grid-agree-echo", inexact, copy.deepcopy(inexact))
    dup = [recs[0], copy.deepcopy(recs[0])]
    with pytest.raises(common.GateError, match="duplicate"):
        common.check_records("grid-agree-echo", dup, copy.deepcopy(dup))


def test_expected_digests_checked_at_default_seed_only():
    expected = {"grid-plain-oracle": {"records": "abc"}}
    common.check_expected("grid-plain-oracle", common.DEFAULT_SEED, {"records": "abc"}, expected)
    with pytest.raises(common.GateError):
        common.check_expected("grid-plain-oracle", common.DEFAULT_SEED, {"records": "abd"}, expected)
    common.check_expected("grid-plain-oracle", common.DEFAULT_SEED + 1, {"records": "abd"}, expected)


def test_frozen_digests_cover_every_workload():
    expected = json.loads(common.EXPECTED_PATH.read_text("utf-8"))
    assert set(expected) == set(common.WORKLOADS)
    for digests in expected.values():
        assert set(digests) == {"records", "report"}


def _copy_checkout(tmp_path: Path, with_sources: bool) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(checkout: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=170)


def test_command_fails_on_a_wrong_frozen_digest(tmp_path):
    checkout = _copy_checkout(tmp_path, with_sources=True)
    path = checkout / "perfbench" / "expected.json"
    expected = json.loads(path.read_text("utf-8"))
    expected["grid-plain-oracle"]["records"] = "0" * 64
    path.write_text(json.dumps(expected), "utf-8")
    proc = _run(checkout, "--workload", "grid-plain-oracle", "--seed", str(common.DEFAULT_SEED),
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "digest" in proc.stderr


def test_command_fails_without_the_program(tmp_path):
    checkout = _copy_checkout(tmp_path, with_sources=False)
    proc = _run(checkout, "--workload", "grid-plain-oracle", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
