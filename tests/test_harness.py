import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import scfgkit
from scfgkit import harness, report
from scfgkit.cli import main
from scfgkit.errors import UNPARSEABLE
from scfgkit.grammar import SyncGrammar, SyncRule
from scfgkit.harness import (
    MOCK_ECHO_SOURCE,
    MOCK_ORACLE,
    EndpointProfile,
    ExperimentConfig,
    RetryPolicy,
    Run,
    _Client,
    read_log,
    read_manifest,
    record_prompt,
    run_experiment,
    run_trial,
    trial_id,
)
from scfgkit.metagrammar import GrammarSpec, generate
from scfgkit.parsing import is_valid_translation, translate
from scfgkit.prompts import render_prompt
from scfgkit.report import write_report
from scfgkit.sampling import sample_pair
from scfgkit.seeds import derive_seed


def make_config(tmp_path, url=MOCK_ORACLE, **kw):
    kw.setdefault("conditions", (GrammarSpec(size=57, seed=0), GrammarSpec(size=77, seed=1)))
    kw.setdefault("lengths", (3, 4))
    kw.setdefault("n_per_cell", 2)
    kw.setdefault("model_name", "test-model")
    return ExperimentConfig(endpoint=EndpointProfile(url=url), out_dir=tmp_path / "run", **kw)


def schema_2_form(record: dict, manifest: dict) -> dict:
    """``record`` as a schema-2 line held it: also with the ``spec``,
    ``extracted`` and ``model`` that schema 3 leaves to ``manifest`` and the
    response."""
    return dict(record, schema_version=2, spec=manifest["conditions"][record["condition_index"]]["spec"],
                extracted=harness.answer_words(record["response"]), model=manifest["config"]["model_name"])


def read_whole_log(log) -> list[dict]:
    """``read_log(log)``, once a pass over ``log`` finds no corrupt line and
    no repeated trial id, both of which read_log skips with only a warning."""
    with open(log, "rb") as fh:
        scanned = harness.LogRecords(fh)
        list(scanned)
    assert (scanned.corrupt, scanned.repeated) == (0, 0)
    return read_log(log)


def whole_record(trial: str, **fields) -> dict:
    """A schema-2 record holding every field a log's readers check."""
    return {"schema_version": 2, "trial_id": trial, "grammar_size": 57, "length": 3,
            "scores": {"exact": 1, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0}, **fields}


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        make_config(tmp_path, lengths=(2,))
    with pytest.raises(ValueError):
        make_config(tmp_path, lengths=(51,))
    # a repeated length would run and log the same trial ids twice
    for lengths in ((5, 5), (3, 4, 3), ()):
        with pytest.raises(ValueError, match="lengths"):
            make_config(tmp_path, lengths=lengths)
    with pytest.raises(ValueError):
        make_config(tmp_path, n_per_cell=0)
    with pytest.raises(ValueError):
        make_config(tmp_path, conditions=())
    for cap in (0, -1):
        with pytest.raises(ValueError, match="translate_cap"):
            make_config(tmp_path, translate_cap=cap)
    for attempts in (0, 2.5, "3", True):
        with pytest.raises(ValueError, match="retry max_attempts"):
            RetryPolicy(max_attempts=attempts)
    for backoff in (-0.5, float("nan"), float("inf"), "0.5", True):
        with pytest.raises(ValueError, match="retry backoff_s"):
            RetryPolicy(backoff_s=backoff)
    assert RetryPolicy(backoff_s=0).backoff_s == 0
    with pytest.raises(ValueError):
        EndpointProfile(url="http://x", kind="socket")
    # urllib fails these at every attempt, so they are refused at load
    for url in ("http://", "http:///v1", "https://:8000/v1", "http://[::1/v1", "MOCK://oracle", "file:///x"):
        with pytest.raises(ValueError, match="endpoint url"):
            EndpointProfile(url=url)
    for url in ("HTTPS://host/v1", "Http://127.0.0.1:8000", "https://[::1]:8000/v1"):
        assert EndpointProfile(url=url).url == url


@pytest.mark.parametrize(
    "build, field",
    [(lambda tmp_path: GrammarSpec(size=57.0), "size"),
     (lambda tmp_path: GrammarSpec(size=57, agreement_tgt="false"), "agreement_tgt"),
     (lambda tmp_path: EndpointProfile(url=MOCK_ORACLE, auth_env=5), "endpoint auth_env"),
     (lambda tmp_path: make_config(tmp_path, retry=3), "retry")],
    ids=["size-float", "agreement-string", "auth_env-number", "retry-number"],
)
def test_a_config_built_in_python_is_checked_against_its_annotations(tmp_path, build, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build(tmp_path)


def test_config_from_dict(tmp_path):
    raw = {
        "conditions": [{"size": 57, "seed": 3}],
        "lengths": [3, 5],
        "n_per_cell": 4,
        "endpoint": {"url": MOCK_ORACLE},
        "model_name": "m",
        "out_dir": str(tmp_path),
        "master_seed": 7,
        "retry": {"max_attempts": 2, "backoff_s": 0.1},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.conditions == (GrammarSpec(size=57, seed=3),)
    assert cfg.retry == RetryPolicy(max_attempts=2, backoff_s=0.1)
    assert cfg.master_seed == 7


def test_config_from_dict_takes_the_field_defaults(tmp_path):
    raw = {
        "conditions": [{"size": 57}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": MOCK_ORACLE},
        "model_name": "m",
        "out_dir": str(tmp_path),
    }
    assert ExperimentConfig.from_dict(raw) == ExperimentConfig(
        conditions=(GrammarSpec(size=57),), lengths=(3,), n_per_cell=1,
        endpoint=EndpointProfile(url=MOCK_ORACLE), model_name="m", out_dir=tmp_path,
    )


@pytest.mark.parametrize(
    "path", [(), ("endpoint",), ("retry",), ("conditions", 0)], ids=lambda p: "/".join(map(str, p))
)
def test_config_from_dict_rejects_unknown_keys(tmp_path, path):
    raw = {
        "conditions": [{"size": 57}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": MOCK_ORACLE},
        "retry": {"max_attempts": 1},
        "model_name": "m",
        "out_dir": str(tmp_path),
    }
    target = raw
    for key in path:
        target = target[key]
    target["translate_caps"] = 5
    with pytest.raises(ValueError, match="unknown .* key.*translate_caps"):
        ExperimentConfig.from_dict(raw)


def test_config_from_dict_names_missing_keys():
    with pytest.raises(ValueError, match="missing ExperimentConfig key.*endpoint"):
        ExperimentConfig.from_dict({"conditions": [], "lengths": [], "n_per_cell": 1,
                                    "model_name": "m", "out_dir": "x"})


def test_trial_id_and_seed_derivation():
    assert trial_id(0, 10, 3) == "c0_len10_r3"
    assert derive_seed(0, 1, 10, 2) == derive_seed(0, 1, 10, 2)
    assert derive_seed(0, 1, 10, 2) != derive_seed(0, 1, 10, 3)
    assert derive_seed(0, 1, 10, 2) != derive_seed(1, 1, 10, 2)


def test_oracle_mock_scores_perfectly(tmp_path):
    cfg = make_config(tmp_path)
    records = run_experiment(cfg)
    assert len(records) == 2 * 2 * 2
    for r in records:
        assert r["status"] == "ok"
        assert r["scores"]["exact"] == 1.0
        assert r["labels"] == []
        assert r["gold"] in r["response"]
        assert len(r["source"].split()) == r["length"]


def test_echo_mock_is_labeled_source_vocab(tmp_path):
    cfg = make_config(tmp_path, url=MOCK_ECHO_SOURCE)
    records = run_experiment(cfg)
    for r in records:
        assert r["status"] == "ok"
        assert r["scores"]["exact"] == 0.0
        assert "source_vocab" in r["labels"]


def test_log_is_written_in_grid_order(tmp_path):
    cfg = make_config(tmp_path)
    run_experiment(cfg)
    logged = read_log(tmp_path / "run" / "runs.jsonl")
    expected = [
        trial_id(ci, length, rep)
        for ci in range(2)
        for length in (3, 4)
        for rep in range(2)
    ]
    assert [r["trial_id"] for r in logged] == expected


def test_resume_skips_finished_trials(tmp_path):
    cfg = make_config(tmp_path)
    first = run_experiment(cfg)
    log = tmp_path / "run" / "runs.jsonl"
    lines = log.read_text("utf-8").splitlines()
    # drop two finished trials and simulate a torn write
    log.write_text("\n".join(lines[:-2]) + '\n{"trial_id": "c1_len4_r', "utf-8")
    resumed = run_experiment(cfg)
    ids = [r["trial_id"] for r in resumed]
    assert sorted(ids) == sorted(r["trial_id"] for r in first)
    assert len(set(ids)) == len(ids) == len(first)
    # the first fresh record must not fuse with the torn fragment on disk
    assert read_whole_log(log) == resumed
    # rerunning a complete log adds nothing
    assert len(run_experiment(cfg)) == len(first)


def cut_points(data: bytes) -> list[int]:
    """Byte offsets at which to cut a log: each line boundary, 1 and 2 bytes
    either side of it, and between the two bytes of each line's first
    Cyrillic letter."""
    boundaries = [0] + [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
    cuts = {b + d for b in boundaries for d in (-2, -1, 0, 1, 2) if 0 <= b + d <= len(data)}
    for start, end in zip(boundaries, boundaries[1:]):
        lead = next((i for i in range(start, end) if data[i] in (0xD0, 0xD1)), None)
        if lead is not None:
            cuts.add(lead + 1)
    return sorted(cuts)


# A Latin oracle condition and a Cyrillic agreement condition whose records
# hold two-byte letters.
CRASH_CONDITIONS = [
    pytest.param(MOCK_ORACLE, GrammarSpec(size=57, seed=0), id="oracle"),
    pytest.param(MOCK_ECHO_SOURCE, GrammarSpec(size=128, agreement_tgt=True, script_tgt="Cyrillic", seed=3),
                 id="echo-cyrillic"),
]


@pytest.mark.parametrize("url, spec", CRASH_CONDITIONS)
def test_a_resume_after_any_cut_of_the_log_returns_the_fresh_run(tmp_path, url, spec):
    # a crash leaves some prefix of the log, and perhaps a stale temporary
    # manifest: the resume must return the fresh run's records, timing
    # aside, and leave a log that reads back to them
    cfg = make_config(tmp_path, url=url, conditions=(spec,), lengths=(3, 5), n_per_cell=2, max_parallel=2)
    first = run_experiment(cfg)
    log, manifest = cfg.out_dir / "runs.jsonl", cfg.out_dir / "run.json"
    data, manifest_bytes = log.read_bytes(), manifest.read_bytes()
    cuts = cut_points(data)
    if url == MOCK_ECHO_SOURCE:
        assert any(data[cut - 1] in (0xD0, 0xD1) for cut in cuts)
    cases = [(cut, False) for cut in cuts] + [(0, True), (cuts[len(cuts) // 2], True)]
    for cut, stale in cases:
        log.write_bytes(data[:cut])
        manifest.write_bytes(manifest_bytes)
        if stale:
            manifest.with_name("run.json.tmp").write_bytes(manifest_bytes[: len(manifest_bytes) // 2])
        resumed = run_experiment(cfg)
        assert [dict(r, timing=None) for r in resumed] == [dict(r, timing=None) for r in first], (cut, stale)
        assert read_whole_log(log) == resumed, (cut, stale)
        assert read_manifest(cfg.out_dir) == json.loads(manifest_bytes), (cut, stale)


def test_a_record_is_a_line_once_its_newline_is_written(tmp_path, monkeypatch, capsys):
    # the last record, whole but for its newline, is torn: every reader
    # leaves it out, and a resume runs that trial again
    cfg = make_config(tmp_path)
    first = run_experiment(cfg)
    log = tmp_path / "run" / "runs.jsonl"
    log.write_bytes(log.read_bytes()[:-1])
    assert read_log(log) == first[:-1]
    with open(log, "rb") as fh:
        records = harness.LogRecords(fh)
        assert list(records) == first[:-1] and records.corrupt == 0
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    by_size = (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    assert "57,exact,4,1.000000" in by_size and "77,exact,3,1.000000" in by_size
    assert "warning" not in capsys.readouterr().err

    ran = []
    inner = harness.run_trial

    def counted(cfg, grammar, ci, length, rep, client):
        ran.append(trial_id(ci, length, rep))
        return inner(cfg, grammar, ci, length, rep, client)

    monkeypatch.setattr(harness, "run_trial", counted)
    resumed = run_experiment(cfg)
    assert ran == [first[-1]["trial_id"]]
    assert resumed[:-1] == first[:-1] and resumed[-1]["trial_id"] == first[-1]["trial_id"]
    assert read_whole_log(log) == resumed
    assert log.read_bytes().endswith(b"\n")


def test_read_log_counts_corrupt_lines_but_not_a_torn_tail(tmp_path, caplog):
    log = tmp_path / "runs.jsonl"
    records = [dict(whole_record(f"t{i}"), target="Вася ест") for i in range(3)]
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    torn = lines[2].encode("utf-8")[:-12]  # cut inside a Cyrillic letter
    log.write_bytes(
        (lines[0] + "\n" + lines[1][:20] + "\n\n" + lines[1] + "\n").encode("utf-8") + torn
    )
    with caplog.at_level("WARNING", logger="scfgkit.harness"):
        assert read_log(log) == records[:2]
    assert [r.getMessage() for r in caplog.records] == [
        f"skipped 1 corrupt line(s) in {log} (first: {log} line 2: not a JSON object)"
    ]
    with open(log, "rb") as fh:
        scanned = harness.LogRecords(fh)
        assert list(scanned) == records[:2] and scanned.corrupt == 1
    caplog.clear()
    log.write_bytes((lines[0] + "\n").encode("utf-8") + torn)
    with caplog.at_level("WARNING", logger="scfgkit.harness"):
        assert read_log(log) == records[:1]
    assert not caplog.records


def test_read_log_warns_of_a_stream_without_a_name(caplog):
    # a binary stream need not have a file name: the warnings call it "log"
    line = json.dumps(whole_record("t0"))
    stream = io.BytesIO(f"{{}}\n{line}\n{line}\n".encode("utf-8"))
    with caplog.at_level("WARNING", logger="scfgkit.harness"):
        assert read_log(stream) == [whole_record("t0")]
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 1 corrupt line(s) in log (first: log line 1: trial_id must be a string: None)",
        "skipped 1 repeated trial id(s) in log",
    ]


def test_a_resume_skips_a_line_that_is_not_a_json_object(tmp_path, caplog):
    cfg = make_config(tmp_path)
    first = run_experiment(cfg)
    log = tmp_path / "run" / "runs.jsonl"
    lines = log.read_text("utf-8").splitlines()
    log.write_text("\n".join(lines[:2] + ["[1, 2]", '"x"'] + lines[2:-1]) + "\n", "utf-8")
    with caplog.at_level("WARNING", logger="scfgkit.harness"):
        resumed = run_experiment(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"skipped 2 corrupt line(s) in {log} (first: {log} line 3: not a JSON object)"
    ]
    assert [r["trial_id"] for r in resumed] == [r["trial_id"] for r in first]
    assert read_log(log) == resumed


def test_exact_credit_does_not_depend_on_translate_cap(tmp_path):
    spec = GrammarSpec(
        size=128, word_order_src="SVO", word_order_tgt="SOV", agreement_tgt=True, seed=0
    )
    cfg = make_config(
        tmp_path, conditions=(spec,), lengths=(5,), n_per_cell=1, translate_cap=2
    )
    grammar = generate(spec)
    answers = []

    def left_out_variant(prompt, gold, source):
        capped = translate(grammar, source, cap=cfg.translate_cap)
        assert capped.overflowed
        answers.append(sorted(translate(grammar, source) - capped - {gold})[0])
        return f"Final answer: {answers[-1]}"

    record = run_trial(cfg, grammar, 0, 5, 0, client=left_out_variant)
    assert record["golds_overflowed"]
    assert is_valid_translation(grammar, record["source"], answers[0])
    assert record["scores"] == {
        "exact": 1, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0,
    }
    assert record["labels"] == []
    # the recorded size stays that of the enumerated (capped) set
    capped = translate(grammar, record["source"], cap=cfg.translate_cap)
    assert record["gold_set_size"] == len(capped | {record["gold"]})
    # an answer outside the language still gets no credit
    echo = run_trial(cfg, grammar, 0, 5, 0, client=_Client(make_config(tmp_path, url=MOCK_ECHO_SOURCE)))
    assert echo["golds_overflowed"] and echo["scores"]["exact"] == 0


def test_trial_path_never_hashes_the_grammar(tmp_path, monkeypatch):
    # derived grammar state is kept on the grammar object; a trial must not
    # look it up by the grammar's (whole-rule-set) hash
    spec = GrammarSpec(
        size=128, word_order_src="SVO", word_order_tgt="SOV", agreement_tgt=True, seed=0
    )
    cfg = make_config(
        tmp_path, url=MOCK_ECHO_SOURCE, conditions=(spec,), lengths=(5,), translate_cap=2
    )
    grammar = generate(spec)
    client = _Client(cfg)
    run_trial(cfg, grammar, 0, 5, 0, client)
    hashed = []
    for cls in (SyncGrammar, SyncRule):
        monkeypatch.setattr(
            cls, "__hash__", lambda self, _hash=cls.__hash__: hashed.append(self) or _hash(self)
        )
    record = run_trial(cfg, grammar, 0, 5, 1, client)
    assert record["golds_overflowed"] and record["labels"]
    assert hashed == []
    assert grammar.compiled is grammar.compiled
    hash(grammar)
    assert hashed  # the counter itself works


def test_resume_false_restarts_log(tmp_path):
    cfg = make_config(tmp_path)
    run_experiment(cfg)
    records = run_experiment(cfg, resume=False)
    assert len(records) == 8
    assert len(read_log(tmp_path / "run" / "runs.jsonl")) == 8


def test_runs_are_deterministic_up_to_timing(tmp_path):
    a = run_experiment(make_config(tmp_path / "a"))
    b = run_experiment(make_config(tmp_path / "b"))
    for ra, rb in zip(a, b):
        ra = dict(ra)
        rb = dict(rb)
        ra.pop("timing")
        rb.pop("timing")
        assert ra == rb


def test_extraction_failure_is_a_failed_trial(tmp_path):
    cfg = make_config(tmp_path)
    grammar = generate(cfg.conditions[0])
    record = run_trial(
        cfg, grammar, 0, 3, 0, client=lambda prompt, gold, source: "no marker here"
    )
    assert record["status"] == "extraction_failed"
    assert record["labels"] == [UNPARSEABLE]
    assert record["scores"]["exact"] == 0.0
    assert harness.answer_words(record["response"]) is None and "extracted" not in record


def test_an_unknown_mock_is_refused_at_load(tmp_path):
    # the client answers only the mocks it knows, so any other would fail
    # every trial of the run
    for url in ("mock://nope", "mock://", "mock://oracle/", "mock://Oracle"):
        with pytest.raises(ValueError, match="endpoint url"):
            make_config(tmp_path, url=url)


def test_unreachable_endpoint_fails_without_raising(tmp_path):
    cfg = ExperimentConfig(
        conditions=(GrammarSpec(size=57, seed=0),),
        lengths=(3,),
        n_per_cell=1,
        endpoint=EndpointProfile(url="http://127.0.0.1:1/v1", timeout_s=2.0),
        model_name="m",
        out_dir=tmp_path / "run",
        retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
    )
    records = run_experiment(cfg)
    assert len(records) == 1
    assert records[0]["status"] == "transport_failed"
    assert records[0]["error"]


def test_records_are_json_round_trippable(tmp_path):
    cfg = make_config(tmp_path)
    records = run_experiment(cfg)
    for r in records:
        assert json.loads(json.dumps(r)) == r
    assert r["schema_version"] == 3
    assert r["endpoint"]["url"] == MOCK_ORACLE
    assert read_manifest(tmp_path / "run")["config"]["model_name"] == "test-model"
    assert not {"spec", "model", "extracted"} & set(r)
    assert "prompt" not in r and len(r["prompt_sha256"]) == 64
    assert "Final answer:" in record_prompt(tmp_path / "run", r)


def test_record_prompt_rebuilds_the_prompt_each_trial_sent(tmp_path, monkeypatch):
    sent = []

    def answer(self, prompt, gold, source):
        sent.append(prompt)
        return f"Final answer: {gold}"

    monkeypatch.setattr(_Client, "__call__", answer)
    spec = GrammarSpec(size=128, agreement_tgt=True, script_tgt="Hebrew", seed=4)
    cfg = make_config(tmp_path, max_parallel=1,
                      conditions=(GrammarSpec(size=57, seed=0), spec, GrammarSpec(size=77, seed=1)))
    records = run_experiment(cfg)
    assert len(records) == len(sent) == 12
    assert {r["condition_index"] for r in records} == {0, 1, 2}
    for record, prompt in zip(records, sent):
        assert record_prompt(cfg.out_dir, record) == prompt
        assert record["prompt_sha256"] == hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def test_record_prompt_refuses_a_manifest_that_does_not_match(tmp_path):
    cfg = make_config(tmp_path)
    record = run_experiment(cfg)[0]
    manifest_path = cfg.out_dir / "run.json"
    manifest = json.loads(manifest_path.read_text("utf-8"))
    manifest["conditions"][0]["grammar"] = manifest["conditions"][1]["grammar"]
    manifest_path.write_text(json.dumps(manifest), "utf-8")
    with pytest.raises(ValueError, match="prompt_sha256"):
        record_prompt(cfg.out_dir, record)


def test_manifest_holds_config_versions_and_grammars(tmp_path):
    cfg = replace(
        make_config(tmp_path, master_seed=9, translate_cap=50, max_parallel=2,
                    retry=RetryPolicy(max_attempts=2, backoff_s=0.25)),
        endpoint=EndpointProfile(url=MOCK_ORACLE, timeout_s=5.5, params={"temperature": 0.5}),
    )
    run_experiment(cfg)
    manifest = read_manifest(cfg.out_dir)
    assert ExperimentConfig.from_dict(manifest["config"]) == cfg
    assert manifest["version"] == scfgkit.__version__
    assert "numpy" not in manifest  # no record depends on numpy
    assert manifest["python"] == "{}.{}.{}".format(*sys.version_info)
    assert len(manifest["conditions"]) == len(cfg.conditions)
    for spec, entry in zip(cfg.conditions, manifest["conditions"]):
        text = generate(spec).compiled.text
        assert entry["spec"] == spec.to_dict()
        assert entry["grammar"] == text
        assert entry["grammar_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert not list(cfg.out_dir.glob("*.tmp"))


def test_each_record_is_serialized_once(tmp_path, monkeypatch):
    # a stand-in for the harness's json module (as a tracing tool would
    # install) sees one dumps call per record, with that record
    dumped = []

    class CountingJson:
        def dumps(self, record, **kw):
            dumped.append(record["trial_id"])
            return json.dumps(record, **kw)

        def __getattr__(self, name):
            return getattr(json, name)

    monkeypatch.setattr(harness, "json", CountingJson())
    records = run_experiment(make_config(tmp_path))
    assert dumped == [r["trial_id"] for r in records]
    assert run_experiment(make_config(tmp_path)) == records
    assert len(dumped) == len(records)


def _count_generated(monkeypatch) -> list:
    generated = []
    monkeypatch.setattr(harness, "generate", lambda spec: generated.append(spec) or generate(spec))
    return generated


def test_a_finished_run_resumes_without_generating(tmp_path, monkeypatch):
    cfg = make_config(tmp_path)
    records = run_experiment(cfg)
    generated = _count_generated(monkeypatch)
    assert run_experiment(cfg) == records
    assert generated == []
    # with trials left in one condition, only that grammar is generated
    log = cfg.out_dir / "runs.jsonl"
    log.write_text("".join(log.read_text("utf-8").splitlines(keepends=True)[:-1]), "utf-8")
    resumed = run_experiment(cfg)
    assert generated == [cfg.conditions[1]]
    assert [dict(r, timing=None) for r in resumed] == [dict(r, timing=None) for r in records]


def test_resume_refuses_a_generator_that_changed(tmp_path, monkeypatch):
    cfg = make_config(tmp_path)
    run_experiment(cfg)
    log = cfg.out_dir / "runs.jsonl"
    log.write_text("".join(log.read_text("utf-8").splitlines(keepends=True)[:-1]), "utf-8")
    monkeypatch.setattr(harness, "generate", lambda spec: generate(replace(spec, seed=spec.seed + 1)))
    with pytest.raises(ValueError, match="condition 1 generates a grammar other than"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "change",
    [{"conditions": (GrammarSpec(size=57, seed=5), GrammarSpec(size=77, seed=1))},
     {"master_seed": 1}, {"translate_cap": 10}, {"model_name": "other-model"}],
    ids=["conditions", "master_seed", "translate_cap", "model_name"],
)
def test_resume_refuses_other_grammars_seeds_or_model(tmp_path, monkeypatch, change):
    cfg = make_config(tmp_path, lengths=(3,))
    records = run_experiment(cfg)
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: ran.append(a))
    generated = _count_generated(monkeypatch)
    with pytest.raises(ValueError, match=next(iter(change))):
        run_experiment(make_config(tmp_path, lengths=(3, 4), **change))
    assert ran == [] and generated == []
    assert read_whole_log(cfg.out_dir / "runs.jsonl") == records


def test_resume_may_grow_the_grid(tmp_path):
    small = make_config(tmp_path, lengths=(3,), n_per_cell=1)
    records = run_experiment(small)
    # a manifest with the numpy version, as earlier versions wrote it,
    # resumes, and is rewritten without it once the config changes
    manifest_path = small.out_dir / "run.json"
    manifest_path.write_text(json.dumps(dict(read_manifest(small.out_dir), numpy="1.26.4")), "utf-8")
    assert run_experiment(small) == records
    assert read_manifest(small.out_dir)["numpy"] == "1.26.4"
    grown = make_config(tmp_path, lengths=(3, 4), n_per_cell=2, max_parallel=1)
    records = run_experiment(grown)
    assert len(records) == 8
    manifest = read_manifest(grown.out_dir)
    assert ExperimentConfig.from_dict(manifest["config"]) == grown
    assert "numpy" not in manifest
    for record in records:
        record_prompt(grown.out_dir, record)


def test_the_cli_rejudges_a_run_log_to_its_own_records(tmp_path, monkeypatch):
    _failing_client(monkeypatch, MOCK_ECHO_SOURCE)
    spec = GrammarSpec(size=128, agreement_tgt=True, script_tgt="Cyrillic", seed=4)
    cfg = make_config(tmp_path, conditions=(spec,), lengths=(5, 8, 12), n_per_cell=4, max_parallel=1)
    records = run_experiment(cfg)
    assert [r["status"] for r in records[:4]] == ["ok", "transport_failed", "extraction_failed", "ok"]
    grammar = tmp_path / "grammar.scfg"
    grammar.write_text(read_manifest(cfg.out_dir)["conditions"][0]["grammar"], "utf-8")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps({"source": r["source"], "target": r["gold"]}) + "\n" for r in records), "utf-8")
    common = ["--pairs", str(pairs), "--cands", str(cfg.out_dir / "runs.jsonl"), "--grammar", str(grammar)]
    assert main(["score", *common, "--out", str(tmp_path / "scores.jsonl")]) == 0
    assert main(["classify", *common, "--script", "Cyrillic", "--out", str(tmp_path / "labels.jsonl")]) == 0
    scored = [json.loads(line) for line in (tmp_path / "scores.jsonl").read_text("utf-8").splitlines()]
    labeled = [json.loads(line) for line in (tmp_path / "labels.jsonl").read_text("utf-8").splitlines()]
    assert [{key: s[key] for key in r["scores"]} for r, s in zip(records, scored)] == [r["scores"] for r in records]
    assert len(scored) == len(labeled) == len(records) == 12
    # the run leaves a trial the endpoint never answered unlabelled, while
    # classify reads its null response as no answer: the FOUND line in
    # CHANGES.md on the transport-failed record that classify labels
    assert (records[1]["labels"], labeled[1]["labels"]) == ([], [UNPARSEABLE])
    assert records[2]["labels"] == labeled[2]["labels"] == [UNPARSEABLE]
    assert [row["labels"] for i, row in enumerate(labeled) if i != 1] == [
        r["labels"] for i, r in enumerate(records) if i != 1]
    assert {"source_vocab", "orthography", "omission"} <= {label for r in records for label in r["labels"]}


def test_a_schema_1_log_still_reads_reports_and_rebuilds(tmp_path, capsys):
    log = tmp_path / "runs.jsonl"
    shutil.copy(Path(__file__).parent / "data" / "v1_runs.jsonl", log)
    records = read_log(log)
    assert [r["schema_version"] for r in records] == [1, 1]
    grammar = generate(GrammarSpec.from_dict(records[0]["spec"]))
    for record in records:
        assert record_prompt(tmp_path, record) == record["prompt"]
        assert record["prompt"] == render_prompt(grammar, record["source"])
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    assert "57,exact,2,1.000000" in (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    # resuming it, with one more replicate, writes the manifest it lacked
    cfg = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(3,),
                      n_per_cell=3, model_name="v1-oracle", master_seed=5)
    cfg.out_dir.mkdir()
    shutil.copy(log, cfg.out_dir / "runs.jsonl")
    resumed = run_experiment(cfg)
    assert resumed[:2] == records
    assert resumed[2]["schema_version"] == 3
    assert [record_prompt(cfg.out_dir, r) for r in resumed[:2]] == [r["prompt"] for r in records]
    assert record_prompt(cfg.out_dir, resumed[2]) == render_prompt(grammar, resumed[2]["source"])
    assert read_whole_log(cfg.out_dir / "runs.jsonl") == resumed


def _failing_client(monkeypatch, mock=MOCK_ORACLE):
    """Answer trials in grid order: the second raises (transport_failed), the
    third has no answer marker (extraction_failed), the rest answer as the
    ``mock`` endpoint does."""
    calls = []

    def answer(self, prompt, gold, source):
        calls.append(source)
        if len(calls) == 2:
            raise RuntimeError("connection refused")
        return "no marker here" if len(calls) == 3 else f"Final answer: {harness._MOCKS[mock](gold, source)}"

    monkeypatch.setattr(_Client, "__call__", answer)


def test_a_log_line_leaves_out_what_the_manifest_and_the_response_give(tmp_path, monkeypatch):
    _failing_client(monkeypatch)
    cfg = make_config(tmp_path, max_parallel=1)
    records = run_experiment(cfg)
    assert [r["status"] for r in records[:4]] == ["ok", "transport_failed", "extraction_failed", "ok"]
    # a record is its line: what it leaves out is one lookup away
    lines = [json.loads(line) for line in (cfg.out_dir / "runs.jsonl").read_text("utf-8").splitlines()]
    assert lines == records
    assert all(line["schema_version"] == 3 and not {"spec", "model", "extracted"} & set(line) for line in lines)
    assert read_whole_log(cfg.out_dir / "runs.jsonl") == records
    assert [harness.answer_words(r["response"]) for r in records[1:3]] == [None, None]
    assert harness.answer_words(records[0]["response"]) == records[0]["gold"].split()
    manifest = read_manifest(cfg.out_dir)
    assert manifest["config"]["model_name"] == "test-model"
    assert ([manifest["conditions"][r["condition_index"]]["spec"] for r in records]
            == [spec.to_dict() for spec in cfg.conditions for _ in range(4)])


def test_a_schema_2_log_resumes_into_a_mixed_log(tmp_path, monkeypatch):
    _failing_client(monkeypatch)
    cfg = make_config(tmp_path, max_parallel=1)
    records = run_experiment(cfg)
    log = cfg.out_dir / "runs.jsonl"
    schema_2 = [schema_2_form(r, read_manifest(cfg.out_dir)) for r in records]
    log.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in schema_2[:5]), "utf-8")
    resumed = run_experiment(cfg)
    assert [r["schema_version"] for r in resumed] == [2] * 5 + [3] * 3
    assert resumed[:5] == schema_2[:5]
    assert [dict(r, timing=None) for r in resumed[5:]] == [dict(r, timing=None) for r in records[5:]]
    assert read_whole_log(log) == resumed
    # the mixed log reports as the records do, and resumes with nothing to run
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "mixed"), "--resamples", "200"]) == 0
    write_report(records, tmp_path / "records", n_resamples=200)
    for name in ("by_size.csv", "by_length.csv", "report.txt"):
        assert (tmp_path / "mixed" / name).read_bytes() == (tmp_path / "records" / name).read_bytes()
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: pytest.fail("ran a finished trial"))
    assert run_experiment(cfg) == resumed


def test_a_schema_3_log_without_its_manifest_is_refused(tmp_path, capsys):
    # read_log needs no manifest, but a resume does: it is refused, and the
    # log, torn tail included, is left as it was
    cfg = make_config(tmp_path)
    records = run_experiment(cfg)
    log = cfg.out_dir / "runs.jsonl"
    manifest = cfg.out_dir / "run.json"
    manifest.unlink()
    log.write_bytes(log.read_bytes() + b'{"trial_id": "c1_len4_r')
    before = log.read_bytes()
    assert read_log(log) == records == [json.loads(line) for line in before.splitlines()[:-1]]
    with pytest.raises(ValueError, match=f"{manifest} is missing"):
        run_experiment(cfg)
    assert log.read_bytes() == before and not manifest.exists()
    # the report reads only fields a line holds
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"), "--resamples", "200"]) == 0
    assert "57,exact,4,1.000000" in (tmp_path / "report" / "by_size.csv").read_text("utf-8")


def test_a_schema_2_log_without_its_manifest_is_refused(tmp_path, monkeypatch):
    # without run.json a schema-2 log is not a pre-manifest (schema-1) log:
    # adopted under another config, it would mix grammars and models
    made = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(3,), model_name="a")
    records = run_experiment(made)
    log = made.out_dir / "runs.jsonl"
    manifest = read_manifest(made.out_dir)
    log.write_text("".join(json.dumps(schema_2_form(r, manifest), ensure_ascii=False) + "\n" for r in records),
                   "utf-8")
    (made.out_dir / "run.json").unlink()
    before = log.read_bytes()
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: pytest.fail("ran a trial"))
    other = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=1),), lengths=(3,), n_per_cell=3,
                        model_name="b")
    with pytest.raises(ValueError, match=f"{made.out_dir / 'run.json'} is missing"):
        run_experiment(other)
    assert log.read_bytes() == before and not (made.out_dir / "run.json").exists()


def test_a_schema_3_log_scores_as_cands_as_its_schema_2_form(tmp_path, monkeypatch):
    spec = GrammarSpec(size=128, agreement_tgt=True, script_tgt="Cyrillic", seed=4)
    inner, calls = _Client.__call__, []

    def answer(self, prompt, gold, source):  # every third trial gives no answer
        calls.append(source)
        return "no marker" if len(calls) % 3 == 0 else inner(self, prompt, gold, source)

    monkeypatch.setattr(_Client, "__call__", answer)
    cfg = make_config(tmp_path, url=MOCK_ECHO_SOURCE, conditions=(spec,), lengths=(5, 8), n_per_cell=4,
                      max_parallel=1)
    records = run_experiment(cfg)
    assert {"ok", "extraction_failed"} == {r["status"] for r in records}
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps({"source": r["source"], "target": r["gold"]}) + "\n" for r in records), "utf-8")
    schema_2 = tmp_path / "schema_2.jsonl"
    manifest = read_manifest(cfg.out_dir)
    schema_2.write_text("".join(json.dumps(schema_2_form(r, manifest), ensure_ascii=False) + "\n"
                                for r in records), "utf-8")
    for name, cands in (("3", cfg.out_dir / "runs.jsonl"), ("2", schema_2)):
        assert main(["score", "--pairs", str(pairs), "--cands", str(cands), "--out", str(tmp_path / f"scores{name}")]) == 0
    assert (tmp_path / "scores3").read_bytes() == (tmp_path / "scores2").read_bytes()
    scored = [json.loads(line) for line in (tmp_path / "scores3").read_text("utf-8").splitlines()]
    words = [harness.answer_words(r["response"]) for r in records]
    assert [row["cand"] for row in scored] == [w and " ".join(w) for w in words]


@pytest.mark.parametrize(
    "edit, error",
    [
        ({"trial_id": 5}, "trial_id must be a string: 5"),
        ({"scores": None}, "scores must be an object: None"),
        ({"scores": {"exact": 1, "bag_of_words": 1, "bleu": "0.5", "chrfpp": 1.0}},
         "scores bleu must be a finite number: '0.5'"),
        ({"scores": {"exact": True, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0}},
         "scores exact must be a finite number: True"),
        ({"scores": {"exact": 1, "bag_of_words": 1, "bleu": 1.0}}, "scores chrfpp must be a finite number: None"),
        ({"scores": {"exact": 1, "bag_of_words": 1, "bleu": float("nan"), "chrfpp": 1.0}},
         "scores bleu must be a finite number: nan"),
        ({"scores": {"exact": 1, "bag_of_words": 10**400, "bleu": 1.0, "chrfpp": 1.0}},
         "scores bag_of_words must be a finite number: 1000"),
        ({"grammar_size": [1]}, "grammar_size must be a whole number: [1]"),
        ({"grammar_size": True}, "grammar_size must be a whole number: True"),
        ({"length": 3.0}, "length must be a whole number: 3.0"),
    ],
    ids=["trial_id", "scores", "score-string", "score-bool", "score-missing", "score-nan", "score-huge",
         "size-list", "size-bool", "length-float"],
)
def test_a_record_with_a_checked_field_of_the_wrong_type_is_corrupt(tmp_path, edit, error):
    log = tmp_path / "runs.jsonl"
    records = [whole_record(f"t{i}") for i in range(3)]
    lines = [json.dumps(r) for r in records[:2]] + [json.dumps({**records[2], **edit}), json.dumps(records[0])]
    log.write_text("\n".join(lines) + "\n", "utf-8")
    with open(log, "rb") as fh:
        scanned = harness.LogRecords(fh)
        assert list(scanned) == records[:2]
        assert (scanned.corrupt, scanned.repeated) == (1, 1)
        assert scanned.first_error.startswith(f"{log} line 3: {error}")


def test_a_line_nested_too_deep_to_parse_is_corrupt(tmp_path):
    log = tmp_path / "runs.jsonl"
    log.write_text(json.dumps(whole_record("t0")) + "\n" + "[" * 100_000 + "\n", "utf-8")
    with open(log, "rb") as fh:
        scanned = harness.LogRecords(fh)
        assert list(scanned) == [whole_record("t0")] and scanned.corrupt == 1
        assert scanned.first_error == f"{log} line 2: not a JSON object"


@pytest.mark.parametrize("index", [9, -1, True, "0"], ids=["past-the-end", "negative", "bool", "string"])
def test_record_prompt_refuses_a_condition_index_that_names_no_condition(tmp_path, index):
    # in a one-condition run, -1 and True would pick condition 0 as list indices
    cfg = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),))
    record = run_experiment(cfg)[0]
    assert record_prompt(cfg.out_dir, record)
    with pytest.raises(ValueError, match=f"^{record['trial_id']}: condition_index {index!r} names no condition"):
        record_prompt(cfg.out_dir, dict(record, condition_index=index))


@pytest.mark.parametrize("version", ["3", True, 0, 4])
def test_record_prompt_refuses_a_schema_version_a_log_cannot_hold(tmp_path, version):
    # the rule LogRecords applies: a whole number from 1 to SCHEMA_VERSION
    cfg = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),))
    record = run_experiment(cfg)[0]
    with pytest.raises(ValueError, match=f"^{record['trial_id']}: schema_version must be a whole number"):
        record_prompt(cfg.out_dir, dict(record, schema_version=version))


def test_a_slow_first_trial_does_not_widen_the_look_ahead(tmp_path, monkeypatch):
    # while the first trial waits on its endpoint, the other thread starts
    # only trials less than 2 * max_parallel past it
    calls, made, made_at_first_write, released = itertools.count(), [], [], threading.Event()
    inner = _Client.__call__

    def answer(self, prompt, gold, source):
        call = next(calls)
        made.append(call)
        if call == 0:
            released.wait(timeout=30)
        return inner(self, prompt, gold, source)

    class CountingJson:
        def dumps(self, record, **kw):
            if not made_at_first_write:
                made_at_first_write.append(len(made))
            return json.dumps(record, **kw)

        def __getattr__(self, name):
            return getattr(json, name)

    monkeypatch.setattr(_Client, "__call__", answer)
    monkeypatch.setattr(harness, "json", CountingJson())
    cfg = make_config(tmp_path, n_per_cell=4, max_parallel=2)
    release = threading.Timer(0.3, released.set)
    release.start()
    try:
        records = run_experiment(cfg)
    finally:
        release.cancel()
        released.set()
    assert made_at_first_write == [2 * cfg.max_parallel]
    assert [r["trial_id"] for r in records] == [
        trial_id(ci, length, rep) for ci in range(2) for length in cfg.lengths for rep in range(4)]
    assert read_whole_log(cfg.out_dir / "runs.jsonl") == records


def test_more_threads_than_cores_switching_often_write_the_one_thread_log(tmp_path):
    def masked(records):
        return [dict(r, timing=None) for r in records]

    one = run_experiment(make_config(tmp_path / "one", n_per_cell=8, max_parallel=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cfg = make_config(tmp_path / "six", n_per_cell=8, max_parallel=6)
        six = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert masked(six) == masked(one)
    assert read_whole_log(cfg.out_dir / "runs.jsonl") == six


def test_the_run_core_streams_in_bounded_memory(tmp_path, monkeypatch):
    # a record is dropped once it is yielded: over 2,000 trials the core's
    # tracemalloc peak stays within a fixed budget of its peak over 500,
    # where a list of the records grows by about 3.3 kB a trial.  Each trial
    # returns a fresh copy of a mock://oracle record, so that 2,500 trials
    # cost a fraction of a second under tracemalloc.
    cfg = make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(5,), n_per_cell=1,
                      max_parallel=1)
    [record] = run_experiment(cfg)
    line = json.dumps(record, ensure_ascii=False)

    def copy_trial(cfg, grammar, ci, length, rep, client):
        return dict(json.loads(line), trial_id=trial_id(ci, length, rep), replicate=rep)

    monkeypatch.setattr(harness, "run_trial", copy_trial)

    def peak(n: int) -> int:
        run = Run(replace(cfg, n_per_cell=n, out_dir=tmp_path / str(n)))
        tracemalloc.start()
        try:
            assert sum(1 for _ in run) == n == run.logged
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(500)
    assert peak(2_000) - small < 64 * 1024


def grid_ids(cfg) -> list[str]:
    return [trial_id(ci, length, rep) for ci in range(len(cfg.conditions)) for length in cfg.lengths
            for rep in range(cfg.n_per_cell)]


@pytest.mark.parametrize("max_parallel", [1, 3])
def test_a_trial_that_raises_stops_the_run_with_no_gap(tmp_path, monkeypatch, max_parallel):
    # the 4th trial raises, on the iterating thread or on a helper: the run
    # raises it, the log holds the three trials before it, and at one thread
    # no trial starts after it; a resume then completes the fresh run
    def masked(records):
        return [dict(r, timing=None) for r in records]

    cfg = make_config(tmp_path, n_per_cell=4, max_parallel=max_parallel)
    calls = []

    def raising(cfg, grammar, ci, length, rep, client):
        calls.append(trial_id(ci, length, rep))
        if (ci, length, rep) == (0, cfg.lengths[0], 3):
            raise RuntimeError("the 4th trial failed")
        return run_trial(cfg, grammar, ci, length, rep, client)

    monkeypatch.setattr(harness, "run_trial", raising)
    with pytest.raises(RuntimeError, match="^the 4th trial failed$"):
        run_experiment(cfg)
    log = cfg.out_dir / "runs.jsonl"
    assert [r["trial_id"] for r in read_whole_log(log)] == grid_ids(cfg)[:3]
    if max_parallel == 1:
        assert calls == grid_ids(cfg)[:4]
    monkeypatch.setattr(harness, "run_trial", run_trial)
    resumed = run_experiment(cfg)
    fresh = run_experiment(replace(cfg, out_dir=tmp_path / "fresh"))
    assert masked(resumed) == masked(fresh)
    assert read_whole_log(log) == resumed


def test_a_run_closed_early_logs_a_prefix_and_iterates_once(tmp_path, monkeypatch):
    cfg = make_config(tmp_path, n_per_cell=4, max_parallel=2)
    calls = []

    def counted(*args):
        calls.append(args[2:5])
        return run_trial(*args)

    monkeypatch.setattr(harness, "run_trial", counted)
    run = Run(cfg)
    trials = iter(run)
    taken = list(itertools.islice(trials, 3))
    trials.close()
    log = cfg.out_dir / "runs.jsonl"
    logged = read_whole_log(log)
    assert run.logged == len(logged)
    assert logged[:3] == taken
    assert [r["trial_id"] for r in logged] == grid_ids(cfg)[:len(logged)]
    made = len(calls)
    assert list(run) == [] and len(calls) == made
    assert read_whole_log(log) == logged


def test_a_schema_3_record_whose_rebuilt_answer_disagrees_with_its_scores_is_refused(tmp_path, monkeypatch):
    _failing_client(monkeypatch)
    cfg = make_config(tmp_path, max_parallel=1)
    records = run_experiment(cfg)
    assert [r["status"] for r in records[:3]] == ["ok", "transport_failed", "extraction_failed"]
    assert records[0]["scores"]["exact"] == 1 and records[0]["gold_set_size"] == 1
    log = cfg.out_dir / "runs.jsonl"
    lines = log.read_text("utf-8").splitlines()
    # as an answer rule other than the one that scored the log would rebuild it
    for number, response, error in (
        (0, "no marker", "is None for status 'ok'"),
        (0, "Final answer: other words", "\\['other', 'words'\\], is not the gold"),
        (2, "Final answer: x", "is \\['x'\\] for status 'extraction_failed'"),
        (1, "Final answer: x", "is \\['x'\\] for status 'transport_failed'"),
    ):
        edited = list(lines)
        edited[number] = json.dumps(dict(json.loads(lines[number]), response=response))
        log.write_text("\n".join(edited) + "\n", "utf-8")
        with pytest.raises(ValueError, match=f"{records[number]['trial_id']} in .*: the answer in its response.*{error}"):
            read_log(log)


def test_a_repeated_trial_id_is_read_once(tmp_path, caplog, monkeypatch):
    cfg = make_config(tmp_path)
    records = run_experiment(cfg)
    log = cfg.out_dir / "runs.jsonl"
    log.write_bytes(log.read_bytes() * 2)
    with caplog.at_level("WARNING", logger="scfgkit.harness"):
        assert read_log(log) == records
    assert [r.getMessage() for r in caplog.records] == [f"skipped 8 repeated trial id(s) in {log}"]
    monkeypatch.setattr(harness, "run_trial", lambda *a, **kw: pytest.fail("ran a finished trial"))
    assert run_experiment(cfg) == records


class _Loopback:
    """A scripted HTTP endpoint on 127.0.0.1: the n-th POST gets the n-th
    reply of :meth:`script` (:func:`_reply`, or one of ``HANG``, ``DROP`` and
    ``SHORT``), and ``sent`` records each request's headers (looked up
    without regard to case) and JSON body (None for a GET)."""

    HANG = "hang"  # answers nothing until the server stops
    DROP = "drop"  # closes the connection without a reply
    SHORT = "short"  # sends fewer body bytes than its Content-Length

    def __init__(self):
        self.replies = []
        self.sent = []
        self.lock = threading.Lock()
        self.stopping = threading.Event()
        loopback = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.answer(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))

            def do_GET(self):  # urllib follows a 301, 302 or 303 to a POST as a GET
                self.answer(None)

            def answer(self, payload):
                with loopback.lock:
                    loopback.sent.append((self.headers, payload))
                    reply = loopback.replies[len(loopback.sent) - 1]
                if reply == loopback.HANG:
                    # not time.sleep, which a test may have patched
                    loopback.stopping.wait(30)
                elif reply == loopback.SHORT:
                    self.send_response(200)
                    self.send_header("Content-Length", "100")
                    self.end_headers()
                    self.wfile.write(b'{"text": "Final')
                elif reply != loopback.DROP:
                    status, body, headers = reply
                    data = json.dumps(body).encode("utf-8")
                    self.send_response(status)
                    for name, value in {"Content-Length": str(len(data)), **headers}.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1"
        self.thread = threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.01})
        self.thread.start()

    def script(self, replies) -> "_Loopback":
        self.replies = list(replies)
        return self

    def close(self):
        self.stopping.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def _reply(status: int, body, **headers) -> tuple:
    return status, body, {name.replace("_", "-"): value for name, value in headers.items()}


@pytest.fixture
def loopback(monkeypatch):
    # urllib sends even a loopback request through a *_proxy variable's proxy
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = _Loopback()
    yield server
    server.close()


@pytest.fixture
def second_loopback(loopback):
    server = _Loopback()
    yield server
    server.close()


def _loopback_trial(tmp_path, loopback, replies, backoff_s=0, timeout_s=60.0, kind="plain"):
    """One trial against ``loopback`` scripted with ``replies``; returns the
    record and the number of requests sent."""
    cfg = replace(
        make_config(tmp_path, retry=RetryPolicy(backoff_s=backoff_s)),
        endpoint=EndpointProfile(url=loopback.script(replies).url, timeout_s=timeout_s, kind=kind),
    )
    grammar = generate(cfg.conditions[0])
    return run_trial(cfg, grammar, 0, 3, 0, client=_Client(cfg)), len(loopback.sent)


@pytest.mark.parametrize("kind", ["plain", "chat"])
def test_the_endpoint_receives_the_prompt_the_record_names(tmp_path, loopback, kind):
    text = "Final answer: x"
    body = {"text": text} if kind == "plain" else {"choices": [{"message": {"content": text}}]}
    loopback.script([_reply(200, body)])
    cfg = replace(
        make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(3,), n_per_cell=1),
        endpoint=EndpointProfile(url=loopback.url, kind=kind, params={"temperature": 0}),
    )
    [record] = run_experiment(cfg)
    [(headers, payload)] = loopback.sent
    prompt = payload["prompt"] if kind == "plain" else payload["messages"][0]["content"]
    assert prompt.startswith("You will be presented with a synchronous context-free grammar")
    assert record_prompt(cfg.out_dir, record) == prompt
    assert list(payload) == ["model", "prompt" if kind == "plain" else "messages", "temperature"]
    assert payload["model"] == "test-model" and payload["temperature"] == 0
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == f"scfgkit/{scfgkit.__version__}"
    assert "Authorization" not in headers
    assert record["status"] == "ok" and record["response"] == text


def test_the_token_is_sent_but_never_logged(tmp_path, loopback, monkeypatch):
    token = "sk-loopback-5c2f9e"
    monkeypatch.setenv("SCFGKIT_TEST_TOKEN", token)
    loopback.script([_reply(200, _gold_answer(tmp_path))])
    cfg = replace(
        make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(3,), n_per_cell=1),
        endpoint=EndpointProfile(url=loopback.url, auth_env="SCFGKIT_TEST_TOKEN"),
    )
    [record] = run_experiment(cfg)
    [(headers, _)] = loopback.sent
    assert headers["Authorization"] == f"Bearer {token}"
    assert record["status"] == "ok" and record["endpoint"]["auth_env"] == "SCFGKIT_TEST_TOKEN"
    for name in ("runs.jsonl", "run.json"):
        assert token not in (cfg.out_dir / name).read_text("utf-8")


@pytest.mark.parametrize("status", [301, 302, 303])
def test_a_redirect_is_not_sent_the_token(tmp_path, loopback, second_loopback, monkeypatch, status):
    token = "sk-loopback-5c2f9e"
    monkeypatch.setenv("SCFGKIT_TEST_TOKEN", token)
    loopback.script([_reply(status, {}, Location=second_loopback.url)])
    second_loopback.script([_reply(200, _gold_answer(tmp_path))])
    cfg = replace(make_config(tmp_path), endpoint=EndpointProfile(url=loopback.url, auth_env="SCFGKIT_TEST_TOKEN"))
    record = run_trial(cfg, generate(cfg.conditions[0]), 0, 3, 0, client=_Client(cfg))
    [(headers, _)] = loopback.sent
    assert headers["Authorization"] == f"Bearer {token}"
    [(headers, payload)] = second_loopback.sent
    assert payload is None and "Authorization" not in headers
    assert record["status"] == "ok"


def test_a_non_finite_param_is_refused_at_load():
    # NaN or Infinity is not JSON: no request could carry it, and the
    # manifest and every record would hold a token strict readers refuse
    for params in ({"temperature": float("nan")}, {"stop": [{"p": float("inf")}]}, {"t": -float("inf")},
                   {"seed": {1, 2}}):
        with pytest.raises(ValueError, match="endpoint params"):
            EndpointProfile(url="http://127.0.0.1/v1", params=params)


def _gold_answer(tmp_path) -> dict:
    cfg = make_config(tmp_path)
    pair = sample_pair(generate(cfg.conditions[0]), 3, derive_seed(cfg.master_seed, 0, 3, 0))
    return {"text": "Final answer: " + " ".join(pair.target)}


@pytest.mark.parametrize("status", [401, 404, 307])
def test_a_client_error_is_sent_once(tmp_path, loopback, status):
    # a 307 is not followed: a POST's body is not sent again to another URL
    reply = _reply(status, {}, Location=loopback.url)
    record, sent = _loopback_trial(tmp_path, loopback, [reply] * 3)
    assert sent == 1
    assert record["status"] == "transport_failed"
    assert str(status) in record["error"]


def test_a_malformed_body_is_sent_once(tmp_path, loopback):
    record, sent = _loopback_trial(tmp_path, loopback, [_reply(200, {"txt": "hi"})] * 3)
    assert sent == 1
    assert record["status"] == "transport_failed"
    assert "malformed" in record["error"] and "200" in record["error"]


@pytest.mark.parametrize(
    "kind, body",
    [
        ("plain", {"text": 5}),
        ("plain", {"text": None}),
        ("plain", {"text": ["Final answer: x"]}),
        ("chat", {"choices": [{"message": {"content": None}}]}),
        ("chat", {"choices": [{"message": {"content": [{"type": "text", "text": "Final answer: x"}]}}]}),
    ],
    ids=["number", "null", "list", "chat-null", "chat-parts"],
)
def test_an_answer_that_is_not_a_string_is_a_malformed_body(tmp_path, loopback, kind, body):
    # such an answer has no words to extract: the trial fails, and the run goes on
    record, sent = _loopback_trial(tmp_path, loopback, [_reply(200, body)] * 3, kind=kind)
    assert sent == 1
    assert record["status"] == "transport_failed" and record["response"] is None
    assert "malformed" in record["error"] and "not a string" in record["error"]


def test_a_run_goes_on_past_an_answer_that_is_not_a_string(tmp_path, loopback):
    loopback.script([_reply(200, {"text": 5}), _reply(200, {"text": "Final answer: x"})])
    cfg = replace(
        make_config(tmp_path, conditions=(GrammarSpec(size=57, seed=0),), lengths=(3,), max_parallel=1),
        endpoint=EndpointProfile(url=loopback.url),
        retry=RetryPolicy(max_attempts=1),
    )
    records = run_experiment(cfg)
    assert [r["status"] for r in records] == ["transport_failed", "ok"]
    assert read_log(cfg.out_dir / "runs.jsonl") == records


@pytest.mark.parametrize(
    "failure",
    [_reply(503, {}), _reply(429, {}), _Loopback.DROP, _Loopback.HANG, _Loopback.SHORT],
    ids=["503", "429", "connection", "timeout", "short-body"],
)
def test_a_retryable_failure_is_retried(tmp_path, loopback, failure):
    answer = _reply(200, _gold_answer(tmp_path))
    record, sent = _loopback_trial(tmp_path, loopback, [failure, answer], timeout_s=0.5)
    assert sent == 2
    assert record["status"] == "ok"
    assert record["scores"]["exact"] == 1


def test_retries_stop_at_max_attempts(tmp_path, loopback):
    record, sent = _loopback_trial(tmp_path, loopback, [_reply(500, {})] * 3)
    assert sent == 3
    assert record["status"] == "transport_failed"
    assert "after 3 attempts" in record["error"] and "500" in record["error"]


@pytest.mark.parametrize(
    "status, retry_after, backoff_s, waited",
    [
        (429, "7", 0, 7),
        (503, "3", 0, 3),
        (429, "1", 2.0, 2.0),  # the backoff, when it is longer
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", 0.5, 0.5),  # an HTTP-date: the backoff
        (429, "soon", 0.5, 0.5),
        (429, "-3", 0, 0),
    ],
)
def test_a_retryable_response_waits_its_retry_after(tmp_path, loopback, monkeypatch, status, retry_after, backoff_s, waited):
    slept = []
    monkeypatch.setattr(harness.time, "sleep", slept.append)
    limited = _reply(status, {}, Retry_After=retry_after)
    answer = _reply(200, _gold_answer(tmp_path))
    record, sent = _loopback_trial(tmp_path, loopback, [limited, answer], backoff_s=backoff_s)
    assert (sent, record["status"], slept) == (2, "ok", [waited])


def test_retry_after_holds_for_one_wait_only(tmp_path, loopback, monkeypatch):
    slept = []
    monkeypatch.setattr(harness.time, "sleep", slept.append)
    limited = _reply(429, {}, Retry_After="7")
    answer = _reply(200, _gold_answer(tmp_path))
    replies = [limited, _Loopback.DROP, answer]
    record, sent = _loopback_trial(tmp_path, loopback, replies, backoff_s=0.25)
    assert (sent, record["status"], slept) == (3, "ok", [7, 0.5])


def test_a_mock_run_imports_no_http_stack(tmp_path):
    code = (
        "import sys\n"
        "import scfgkit\n"
        "from scfgkit import harness\n"
        "cfg = harness.ExperimentConfig(conditions=(scfgkit.GrammarSpec(size=57),), lengths=(3,),\n"
        "    n_per_cell=1, endpoint=harness.EndpointProfile(url=harness.MOCK_ORACLE),\n"
        "    model_name='m', out_dir=sys.argv[1])\n"
        "[record] = harness.run_experiment(cfg)\n"
        "assert record['status'] == 'ok', record\n"
        "print(sorted({'requests', 'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(scfgkit.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_runs_scoring_and_labelling_import_no_numpy(tmp_path):
    # only the report's bootstrap needs numpy, and it loads numpy on first use
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import scfgkit\n"
        "from scfgkit import harness\n"
        "out = Path(sys.argv[1])\n"
        "def grid(spec, url, name):\n"
        "    cfg = harness.ExperimentConfig(conditions=(spec,), lengths=(5, 20), n_per_cell=2,\n"
        "        endpoint=harness.EndpointProfile(url=url), model_name=name, out_dir=out / name)\n"
        "    return harness.run_experiment(cfg)\n"
        "spec = scfgkit.GrammarSpec(size=128, agreement_tgt=True)\n"
        "agree = grid(spec, harness.MOCK_ECHO_SOURCE, 'agree')\n"
        "plain = grid(scfgkit.GrammarSpec(size=57), harness.MOCK_ORACLE, 'plain')\n"
        "assert all(r['status'] == 'ok' for r in agree + plain)\n"
        "assert all(r['labels'] and not r['scores']['exact'] for r in agree), agree\n"
        "assert all(r['scores']['exact'] for r in plain), plain\n"
        "gold = agree[-1]['gold']\n"
        "wrong = ' '.join(reversed(gold.split()))\n"
        "assert scfgkit.score_candidate(wrong, [gold]).exact == 0\n"
        "grammar = scfgkit.generate(spec)\n"
        "vocabs = scfgkit.word_vocab(grammar, 'src'), scfgkit.word_vocab(grammar, 'tgt')\n"
        "assert scfgkit.classify(wrong, [gold], *vocabs)\n"
        "print('numpy' in sys.modules)\n"
        "paths = scfgkit.write_report(agree + plain, out / 'report', n_resamples=50)\n"
        "print(sorted(path.name for path in paths.values() if path.stat().st_size))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(scfgkit.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n['by_length.csv', 'by_size.csv', 'report.txt']\n"


# The names the benchmark's trace (perfbench/rep.py) replaces with timed
# versions: renaming or removing one breaks only a traced benchmark run.
TRACED_HARNESS_NAMES = (
    "derive_seed", "sample_pair", "translate", "render_prompt", "extract_answer", "score_candidate",
    "classify", "sorted_labels", "word_vocab", "get_script", "english_words", "run_trial", "trial_id",
    "read_log",
)


def test_the_names_the_benchmark_traces_exist():
    for name in TRACED_HARNESS_NAMES:
        assert callable(getattr(harness, name, None)), name
    assert "__call__" in vars(harness._Client)
    assert callable(harness.json.dumps)
    for name in ("bootstrap_ci", "write_report"):
        assert callable(getattr(report, name, None)), name
