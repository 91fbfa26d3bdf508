"""One repetition of a benchmark workload, in a fresh interpreter.

The runner (``run.py``) starts this script once per repetition, so the
library's module caches start cold, as they do for a user's ``scfgkit run``.
Modes:

``rep``    one repetition as a user runs it, timed step by step: set-up, the
           ``run_experiment`` call (each ``run_trial`` call timed by wrapping
           the module attribute), a re-invocation of the finished run, and
           ``write_report``.  Afterwards, untimed, every sampled gold is
           checked against ``translate`` and ``is_valid_translation``.
``trace``  the same repetition through the real ``run_experiment``, with the
           harness's names for the layer functions it calls replaced by
           span-wrapping versions, so the spans follow the program.

Each mode writes one JSON object to ``--result``.  A violated invariant
raises :class:`common.GateError`, which exits with status 3.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import resource
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import common

ROOT = common.BENCH_DIR.parent
REPEATS = 3


def _import_library():
    import scfgkit

    where = Path(scfgkit.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"scfgkit imported from {where}, not from {ROOT / 'src'}")
    return scfgkit


def _config(harness, args, out_dir: Path):
    raw = common.experiment_config(args.workload, args.seed, args.rep, str(out_dir))
    return harness.ExperimentConfig.from_dict(raw)


def _verify_golds(cfg, records) -> None:
    """Every sampled gold is among translate()'s targets and is accepted by
    is_valid_translation (run outside all timing)."""
    from scfgkit import generate, is_valid_translation, translate

    grammars = {}
    for r in records:
        ci = r["condition_index"]
        if ci not in grammars:
            grammars[ci] = generate(cfg.conditions[ci])
        g = grammars[ci]
        if r["gold"] not in translate(g, r["source"], cap=cfg.translate_cap):
            raise common.GateError(f"{r['trial_id']}: sampled gold missing from translate()")
        if not is_valid_translation(g, r["source"], r["gold"]):
            raise common.GateError(f"{r['trial_id']}: sampled gold rejected by is_valid_translation")


def _digests(records, paths) -> dict:
    return {
        "records": common.records_digest(records),
        "report": common.files_digest([paths["by_size"], paths["by_length"], paths["text"]]),
    }


def rep(args) -> dict:
    out = Path(args.dir) / "run"
    log = out / "runs.jsonl"

    t0 = time.perf_counter()
    _import_library()
    from scfgkit import generate, harness, report

    cfg = _config(harness, args, out)
    for spec in cfg.conditions:
        generate(spec)
    setup_s = time.perf_counter() - t0

    trial_s = []
    inner = harness.run_trial

    def timed_run_trial(*a, **kw):
        start = time.perf_counter()
        try:
            return inner(*a, **kw)
        finally:
            trial_s.append(time.perf_counter() - start)

    harness.run_trial = timed_run_trial
    start = time.perf_counter()
    records = harness.run_experiment(cfg, resume=True)
    run_s = time.perf_counter() - start
    harness.run_trial = inner

    if len(trial_s) != len(records):
        raise common.GateError(f"timed {len(trial_s)} run_trial calls for {len(records)} records")
    log_bytes = log.stat().st_size
    common.check_records(args.workload, records, harness.read_log(log))

    # Resume and report are short and idempotent, so each is timed REPEATS
    # times and the fastest kept, as timeit does: on a machine whose speed
    # drifts, interference only adds time.
    resume_times = []
    for _ in range(REPEATS):
        # Re-invoking a finished run: reads the whole log, runs nothing.
        start = time.perf_counter()
        again = harness.run_experiment(cfg, resume=True)
        resume_times.append(time.perf_counter() - start)
        if again != records:
            raise common.GateError("re-invoked run did not return the logged records")

    report_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        paths = report.write_report(records, out / "report")
        report_times.append(time.perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _verify_golds(cfg, records)
    return {
        "setup_s": setup_s,
        "trials": len(records),
        "run_s": run_s,
        "trial_ms": [s * 1e3 for s in trial_s],
        "failed": sum(r["status"] != "ok" for r in records),
        "log_bytes_per_record": log_bytes / len(records),
        "resume_s": min(resume_times),
        "report_s": min(report_times),
        "peak_rss_mb": peak_rss_mb,
        "digests": _digests(records, paths),
    }


class Tracer:
    """Spans kept in memory: name, start, end, parent span, trial id.

    The harness runs trials on a worker thread and writes the log on the
    calling thread, so each thread keeps its own stack of open spans.  A span
    without a trial id of its own takes its parent's.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trial: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trial": trial if trial is not None or parent is None else parent["trial"],
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            stack.pop()

    def wrap(self, name: str, fn, trial_of=None, observe=None):
        """``fn`` with a span around each call; ``trial_of(*a, **kw)`` names the
        trial, ``observe(result, *a, **kw)`` sees each call (outside the span)."""

        @functools.wraps(fn)
        def traced(*a, **kw):
            with self.span(name, trial_of(*a, **kw) if trial_of else None):
                result = fn(*a, **kw)
            if observe:
                observe(result, *a, **kw)
            return result

        return traced


class _SpannedJson:
    """A stand-in for the harness's ``json`` module whose ``dumps`` (the
    serialization of each record appended to the log) runs in a span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def trace(args) -> dict:
    out = Path(args.dir) / "trace"
    log = out / "runs.jsonl"
    tr = Tracer()

    with tr.span("scfgkit.import"):
        _import_library()
        from scfgkit import generate, harness, is_valid_translation, report
    cfg = _config(harness, args, out)
    grammars = [tr.wrap("metagrammar.generate", generate)(spec) for spec in cfg.conditions]

    prompt_bytes, golds_scored = [], []
    h = harness
    layers = {
        "derive_seed": tr.wrap("seeds.derive_seed", h.derive_seed),
        "sample_pair": tr.wrap("sampling.sample_pair", h.sample_pair),
        "translate": tr.wrap("parsing.translate", h.translate),
        "render_prompt": tr.wrap("prompts.render_prompt", h.render_prompt,
                                 observe=lambda p, *a, **kw: prompt_bytes.append(len(p.encode("utf-8")))),
        "extract_answer": tr.wrap("prompts.extract_answer", h.extract_answer),
        "score_candidate": tr.wrap("metrics.score_candidate", h.score_candidate,
                                   observe=lambda s, cand, golds, *a, **kw: golds_scored.append(len(golds))),
        "classify": tr.wrap("errors.classify", h.classify),
        "sorted_labels": tr.wrap("errors.sorted_labels", h.sorted_labels),
        "word_vocab": tr.wrap("grammar.word_vocab", h.word_vocab),
        "get_script": tr.wrap("scripts.get_script", h.get_script),
        "english_words": tr.wrap("lexicon.english_words", h.english_words),
        "run_trial": tr.wrap("harness.run_trial", h.run_trial,
                             trial_of=lambda cfg, g, ci, length, rep_i, *a, **kw: h.trial_id(ci, length, rep_i)),
        "_Client": type("_Client", (h._Client,), {
            "__call__": tr.wrap("harness.client", h._Client.__call__)}),
        "json": _SpannedJson(tr.wrap("harness.log_append", json.dumps,
                                     trial_of=lambda record, *a, **kw: record["trial_id"])),
    }
    with mock.patch.multiple(h, **layers), tr.span("harness.run_experiment"):
        records = h.run_experiment(cfg, resume=True)
    common.check_records(args.workload, records, h.read_log(log))

    # Off today's trial path: the forest-intersection check of each gold.
    valid = tr.wrap("parsing.is_valid_translation", is_valid_translation)
    for r in records:
        if not valid(grammars[r["condition_index"]], r["source"], r["gold"]):
            raise common.GateError(f"{r['trial_id']}: gold rejected by is_valid_translation")

    # Re-invoking the finished run reads the whole log back.
    with mock.patch.object(h, "read_log", tr.wrap("harness.read_log", h.read_log)):
        h.run_experiment(cfg, resume=True)

    with mock.patch.object(report, "bootstrap_ci", tr.wrap("report.bootstrap_ci", report.bootstrap_ci)):
        paths = tr.wrap("report.write_report", report.write_report)(records, out / "report")

    # Untimed pass: Python-heap peak of write_report (numpy buffers included).
    tracemalloc.start()
    report.write_report(records, out / "report_mem")
    report_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    with open(args.spans, "a", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(dict(span, rep=args.rep)) + "\n")
    with log.open("rb") as fh:
        record_bytes = [len(line) for line in fh]
    return {
        **_trace_summary(tr),
        "gold_set_size": [r["gold_set_size"] for r in records],
        "overflowed": sum(bool(r["golds_overflowed"]) for r in records),
        "golds_scored": sum(golds_scored),
        "prompt_bytes": prompt_bytes,
        "record_bytes": record_bytes,
        "report_peak_mb": report_peak / 2**20,
        "digests": _digests(records, paths),
    }


def _trace_summary(tr: Tracer) -> dict:
    by_name: dict[str, list[float]] = {}
    child_ms: dict[int, float] = {}
    first_sample: dict[str, float] = {}
    for s in tr.spans:
        ms = (s["end"] - s["start"]) * 1e3
        by_name.setdefault(s["name"], []).append(ms)
        if s["parent"] is not None:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + ms
        if s["name"] == "sampling.sample_pair":
            first_sample.setdefault(s["trial"].split("_", 1)[0], ms)
    trial_spans = [s for s in tr.spans if s["name"] == "harness.run_trial"]
    trial_ms = [(s["end"] - s["start"]) * 1e3 for s in trial_spans]
    return {
        "span_ms": by_name,
        "trial_ms": trial_ms,
        "trial_self_ms": [ms - child_ms.get(s["id"], 0.0) for s, ms in zip(trial_spans, trial_ms)],
        "first_sample_ms": list(first_sample.values()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("rep", "trace"))
    p.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--dir", required=True, help="this repetition's working directory")
    p.add_argument("--result", required=True, help="where to write the JSON result")
    p.add_argument("--spans", help="trace mode: append spans to this JSONL file")
    args = p.parse_args(argv)
    try:
        result = {"rep": rep, "trace": trace}[args.mode](args)
    except common.GateError as exc:
        print(f"correctness gate: {exc}", file=sys.stderr)
        return 3
    Path(args.result).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
