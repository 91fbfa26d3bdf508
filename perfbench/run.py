"""scfgkit benchmark: mock-run trial throughput, resume and report.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-plain-oracle --seed 0 --seconds 36 --trace 0

Runs repetitions of one workload, each in a fresh interpreter, one at a time,
until ``--seconds`` are used, then prints a table of every metric (with unit
and sample count) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs each repetition untraced and then
traced, with a span around every layer call the harness makes, and reports
the per-layer metrics, writing the spans to
``.perfbench/trace-<workload>-s<seed>.jsonl``.  ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.

The correctness gate runs in every mode; on a mismatch the command prints the
result with ``"correct": false`` and exits 1.  Without ``src/scfgkit`` next to
this directory it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import common

ROOT = common.BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench"
REP_SCRIPT = common.BENCH_DIR / "rep.py"
# Stop starting repetitions once this much of the run has passed; with the
# child timeout, a run on a slow machine still ends within three minutes.
# A repetition takes 3-7 s on the reference machine, gold checks included.
HARD_STOP_S = 140.0
CHILD_TIMEOUT_S = 35.0


class ChildFailed(RuntimeError):
    def __init__(self, mode: str, code: int, stderr: str):
        super().__init__(f"rep.py {mode} exited {code}:\n{stderr}")
        self.gate = code == 3


def machine_context(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_child(mode: str, workload: str, seed: int, rep: int, work: Path, **extra) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    result = work / f"{mode}.json"
    cmd = [sys.executable, str(REP_SCRIPT), mode, "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--dir", str(work),
           "--result", str(result)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(mode, proc.returncode, proc.stderr[-4000:])
    return json.loads(result.read_text("utf-8"))


def repetitions(count: int, run_dir: Path, started: float, one_rep):
    """Call ``one_rep(rep, rep_dir)`` count times, fewer only past HARD_STOP_S."""
    results = []
    for rep in range(count):
        rep_dir = run_dir / f"rep{rep}"
        results.append(one_rep(rep, rep_dir))
        shutil.rmtree(rep_dir, ignore_errors=True)
        if time.perf_counter() - started > HARD_STOP_S:
            break
    return results


def end_to_end(reps: list) -> tuple[dict, list]:
    """Metrics a user of `scfgkit run` / `scfgkit report` sees, and the table."""
    trials = sum(r["trials"] for r in reps)
    trial_ms = [ms for r in reps for ms in r["trial_ms"]]
    tail_p = common.tail_for_count(len(trial_ms))
    beyond = sum(ms > common.percentile(trial_ms, tail_p) for ms in trial_ms)
    n = len(reps)
    values = {
        # Pooled over repetitions: the agreement grid's trial time is heavy
        # tailed, and a median of repetitions would discard the costly ones.
        "trials_per_s": (trials / sum(r["run_s"] for r in reps), "1/s", f"{trials} trials"),
        "trial_ms_p50": (common.percentile(trial_ms, 50), "ms", f"{len(trial_ms)} trials"),
        "trial_ms_tail": (common.percentile(trial_ms, tail_p), "ms",
                          f"p{tail_p:g} of {len(trial_ms)} trials, {beyond} beyond"),
        "log_bytes_per_record": (common.median([r["log_bytes_per_record"] for r in reps]),
                                 "bytes", f"median of {n} reps"),
        # Means: one fresh interpreter runs these short steps either fast or
        # about 1.6x slower, and a median of repetitions flips between the
        # two modes from run to run.
        "resume_s": (statistics.fmean(r["resume_s"] for r in reps), "s", f"mean of {n} reps"),
        "report_s": (statistics.fmean(r["report_s"] for r in reps), "s", f"mean of {n} reps"),
        "peak_rss_mb": (common.median([r["peak_rss_mb"] for r in reps]), "MB", f"median of {n} reps"),
        "setup_s": (common.median([r["setup_s"] for r in reps]), "s", f"median of {n} reps"),
    }
    failed = sum(r["failed"] for r in reps)
    table = [(name, v, unit, note) for name, (v, unit, note) in values.items()]
    table.append(("failed_share", failed / trials, "ratio", f"{failed} of {trials} trials"))
    return {name: {"value": v, "unit": u} for name, (v, u, _) in values.items()}, table


def _stat(values, stat: str):
    if not values:
        return 0.0, "0 samples"
    if stat == "p50":
        return common.percentile(values, 50), f"p50 of {len(values)}"
    if stat == "tail":
        p = common.tail_for_count(len(values))
        return common.percentile(values, p), f"p{p:g} of {len(values)}"
    raise ValueError(stat)


def per_layer(traces: list, untraced_trial_ms: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced repetitions (pooled over repetitions)."""
    span: dict[str, list] = {}
    for t in traces:
        for name, values in t["span_ms"].items():
            span.setdefault(name, []).extend(values)
    pooled = {key: [x for t in traces for x in t[key]]
              for key in ("trial_ms", "trial_self_ms", "first_sample_ms", "gold_set_size",
                          "prompt_bytes", "record_bytes")}
    trial_total = sum(pooled["trial_ms"])
    n = len(traces)
    rows = []

    def add(name, value, unit, note):
        rows.append((name, value, unit, note))

    def timing(layer, stats):
        values = span.get(layer, [])
        for stat in stats:
            if stat in ("p50", "tail"):
                v, note = _stat(values, stat)
                add(f"{layer}.ms_{stat}", v, "ms", note)
            elif stat == "share":
                add(f"{layer}.share", sum(values) / trial_total, "ratio",
                    f"{len(values)} calls over {len(pooled['trial_ms'])} trials")
            elif stat == "calls":
                add(f"{layer}.calls", len(values), "count", f"over {n} reps")

    add("scfgkit.import.ms", common.median(span["scfgkit.import"]), "ms", f"median of {n} reps")
    per_rep_gen = [sum(t["span_ms"]["metagrammar.generate"]) for t in traces]
    add("metagrammar.generate.ms", common.median(per_rep_gen), "ms",
        f"all conditions, median of {n} reps")
    timing("sampling.sample_pair", ("p50", "tail"))
    v, note = _stat(pooled["first_sample_ms"], "p50")
    add("sampling.sample_pair.first_ms", v, "ms", f"first draw per grammar, {note}")
    timing("parsing.translate", ("p50", "tail", "share"))
    add("parsing.gold_set_size.p50", common.percentile(pooled["gold_set_size"], 50), "count",
        f"p50 of {len(pooled['gold_set_size'])} trials")
    add("parsing.gold_set_size.max", max(pooled["gold_set_size"]), "count",
        f"max of {len(pooled['gold_set_size'])} trials")
    add("parsing.overflowed.count", sum(t["overflowed"] for t in traces), "count",
        f"over {len(pooled['gold_set_size'])} trials")
    timing("parsing.is_valid_translation", ("p50", "tail"))
    timing("metrics.score_candidate", ("p50", "tail", "share"))
    add("metrics.golds_scored.count", sum(t["golds_scored"] for t in traces), "count",
        f"over {n} reps")
    timing("errors.classify", ("p50", "tail", "share", "calls"))
    add("grammar.word_vocab.ms_total", sum(span.get("grammar.word_vocab", [])), "ms",
        f"{len(span.get('grammar.word_vocab', []))} calls over {n} reps")
    timing("prompts.render_prompt", ("p50",))
    add("prompts.prompt_bytes.p50", common.percentile(pooled["prompt_bytes"], 50), "bytes",
        f"p50 of {len(pooled['prompt_bytes'])}")
    timing("prompts.extract_answer", ("p50",))
    timing("harness.log_append", ("p50",))
    add("harness.record_bytes.p50", common.percentile(pooled["record_bytes"], 50), "bytes",
        f"p50 of {len(pooled['record_bytes'])}")
    add("harness.read_log.s", common.median(span["harness.read_log"]) / 1e3, "s",
        f"median of {n} reps")
    timing("report.bootstrap_ci", ("p50", "calls"))
    add("report.write_report.s", common.median(span["report.write_report"]) / 1e3, "s",
        f"median of {n} reps")
    add("report.peak_mb", common.median([t["report_peak_mb"] for t in traces]), "MB",
        f"tracemalloc peak, median of {n} reps")
    add("trace.coverage", 1.0 - sum(pooled["trial_self_ms"]) / trial_total, "ratio",
        "layer self time / traced trial time")
    add("trace.overhead", trial_total / sum(untraced_trial_ms), "ratio",
        f"traced / untraced trial time, {len(pooled['trial_ms'])} trials")
    return {name: {"value": v, "unit": u} for name, v, u, _ in rows}, rows


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:38s} {value:14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "scfgkit" / "__init__.py").is_file():
        print(f"error: no scfgkit sources at {ROOT / 'src' / 'scfgkit'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    context = machine_context(args.seed, args.workload)
    print(json.dumps({"context": context}))
    run_dir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    count = common.rep_count(args.workload, args.seconds, bool(args.trace))
    digests = []
    spans_path = WORK_ROOT / f"trace-{args.workload}-s{args.seed}.jsonl"
    try:
        if args.trace:
            spans_path.unlink(missing_ok=True)
            untraced_ms = []
            failures = []

            def one_rep(rep, rep_dir):
                plain = run_child("rep", args.workload, args.seed, rep, rep_dir)
                digests.append(plain["digests"])
                untraced_ms.extend(plain["trial_ms"])
                failures.append(plain["failed"])
                traced = run_child("trace", args.workload, args.seed, rep, rep_dir,
                                   spans=spans_path)
                if traced["digests"] != plain["digests"]:
                    raise common.GateError(
                        f"{args.workload}: rep {rep} traced output differs from untraced")
                return traced

            traces = repetitions(count, run_dir, started, one_rep)
            metrics, rows = per_layer(traces, untraced_ms)
            attempted = sum(len(t["trial_ms"]) for t in traces)
            failed = sum(failures)
            title = f"per-layer metrics (traced runs; spans in {spans_path.relative_to(ROOT)})"
        else:
            def one_rep(rep, rep_dir):
                result = run_child("rep", args.workload, args.seed, rep, rep_dir)
                digests.append(result["digests"])
                return result

            reps = repetitions(count, run_dir, started, one_rep)
            metrics, rows = end_to_end(reps)
            attempted = sum(r["trials"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            title = "end-to-end metrics"

        print(json.dumps({"digests_rep0": digests[0]}))
        common.check_expected(args.workload, args.seed, digests[0])
    except (ChildFailed, common.GateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ChildFailed) and not exc.gate:
            return 1
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print_table(title, rows)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
