"""Workload definitions, statistics and the correctness gate.

Shared by the runner (``run.py``), which never imports scfgkit, and by the
repetition process (``rep.py``), which does.  Nothing here imports scfgkit,
so the runner stays cheap and cannot warm the library's caches.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

# Sizing, and why (also in README.md):
# - the trial grids run 20 (plain) or 10 (agreement) replicates per
#   (condition, length) cell per repetition, so one repetition is 1-2 s of
#   trial work and a run holds 16 fresh interpreters at 36 s: run-level
#   medians then average over the speed of many processes, which on the
#   reference machine differs by up to +-30 % between fresh interpreters;
# - a run's repetition count is fixed by --seconds and rep_s, the nominal
#   seconds per repetition on a 2-core Xeon, not by the clock: the same seed
#   and --seconds do the same work on any machine, and the pooled trial
#   metrics never depend on whether one more heavy repetition fit.
PLAIN_SIZES = (57, 237)
AGREE_SIZE = 128
LENGTHS = (5, 20, 50)

WORKLOADS = {
    "grid-plain-oracle": {
        "endpoint": "mock://oracle",
        "agreement": False,
        "n_per_cell": 20,
        "rep_s": 2.3,
    },
    "grid-agree-echo": {
        "endpoint": "mock://echo-source",
        "agreement": True,
        "n_per_cell": 10,
        "rep_s": 2.3,
    },
}

# Fewest repetitions a run makes, so set-up time is a median of several.
MIN_REPS = 3
# A traced repetition runs the untraced one, then the traced one.
TRACE_REP_FACTOR = 2.5

# Ladder of percentiles a tail may be reported at.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def mix(*parts) -> int:
    """A 31-bit seed mixed from the parts (stable across Python versions)."""
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "big") >> 1


def rep_count(workload: str, seconds: float, trace: bool) -> int:
    rep_s = WORKLOADS[workload]["rep_s"]
    if trace:
        return max(1, round(seconds / (rep_s * TRACE_REP_FACTOR)))
    return max(MIN_REPS, round(seconds / rep_s))


def tail_for_count(n: int) -> float:
    """The highest ladder percentile with TAIL_MIN_BEYOND samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        raise ValueError(f"{n} samples are too few for any tail percentile")
    return best


def experiment_config(workload: str, seed: int, rep: int, out_dir: str) -> dict:
    """The JSON form of the ExperimentConfig for one repetition.

    The seed draws every grammar: its vocabulary and spelling, and so every
    sentence, gold set and prompt.  The master seed, which fixes the shape of
    each sampled derivation (and with it the gold-set size, 4^k under target
    agreement), follows a schedule by repetition index alone, so every run
    pays for the same mix of shapes: the heavy tail is in every run rather
    than a lottery per seed.  Each repetition takes a new grammar and a new
    shape set.
    """
    w = WORKLOADS[workload]
    key = (seed, rep)
    if w["agreement"]:
        conditions = [{
            "size": AGREE_SIZE, "word_order_src": "SVO", "word_order_tgt": "SOV",
            "agreement_tgt": True, "seed": mix(workload, "grammar", 0, *key),
        }]
    else:
        conditions = [
            {"size": size, "word_order_src": "SVO", "word_order_tgt": "SOV",
             "seed": mix(workload, "grammar", i, *key)}
            for i, size in enumerate(PLAIN_SIZES)
        ]
    return {
        "conditions": conditions,
        "lengths": list(LENGTHS),
        "n_per_cell": w["n_per_cell"],
        "endpoint": {"url": w["endpoint"]},
        "model_name": "perfbench",
        "out_dir": out_dir,
        "master_seed": mix(workload, "shapes", rep),
        # Trial work is CPU-bound under the GIL: a second thread adds no
        # throughput, only scheduling noise in per-trial latency.
        "max_parallel": 1,
    }


# --- statistics -----------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# --- correctness gate -----------------------------------------------------

SCORE_NAMES = ("exact", "bag_of_words", "bleu", "chrfpp")
ROW_FIELDS = ("trial_id", "seed", "source", "gold", "gold_set_size",
              "golds_overflowed", "status", "labels")


class GateError(AssertionError):
    """An output of the program is wrong."""


def digest_row(record: dict) -> list:
    """The fields a record's correctness rests on.

    Scores are read by name rather than hashed as a dict, so dropping or
    adding other keys of ``scores`` (or of the record) does not trip it.
    """
    return [record[f] for f in ROW_FIELDS] + [record["scores"][s] for s in SCORE_NAMES]


def records_digest(records) -> str:
    rows = sorted((digest_row(r) for r in records), key=lambda row: row[0])
    blob = json.dumps(rows, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes() + b"\0")
    return h.hexdigest()


def check_records(workload: str, records, readback) -> None:
    """Invariants that hold at every seed."""
    if readback != records:
        raise GateError(f"{workload}: the log on disk does not read back to the returned records")
    ids = [r["trial_id"] for r in records]
    if len(set(ids)) != len(ids):
        raise GateError(f"{workload}: duplicate trial ids in the log")
    if workload == "grid-plain-oracle":
        wrong = [r["trial_id"] for r in records if r["scores"]["exact"] != 1]
        if wrong:
            raise GateError(f"{workload}: oracle answers scored inexact: {wrong[:5]}")


def check_expected(workload: str, seed: int, digests: dict, expected: dict | None = None) -> None:
    """At the default seed, compare digests of repetition 0 to the frozen ones."""
    if seed != DEFAULT_SEED:
        return
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text("utf-8"))
    want = expected.get(workload)
    if not want:
        raise GateError(f"{workload}: no frozen digests in {EXPECTED_PATH.name}")
    for name, value in want.items():
        if digests.get(name) != value:
            raise GateError(
                f"{workload}: {name} digest {digests.get(name)} != expected {value} at seed {seed}"
            )
