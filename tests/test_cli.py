import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import scfgkit
from scfgkit.cli import main
from scfgkit.grammar import parse_grammar_text
from scfgkit.harness import read_log
from .conftest import FIG1_TEXT
from .oracles import src_yield, tgt_yield
from .test_parsing import AMBIG_TEXT, DEEP_TEXT, deep_pair


def jsonl(path):
    return [json.loads(l) for l in path.read_text("utf-8").splitlines() if l.strip()]


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.scfg"
    path.write_text(FIG1_TEXT, "utf-8")
    return path


def test_gen_writes_grammar_and_manifest(tmp_path):
    out = tmp_path / "g.scfg"
    assert main([
        "gen", "--size", "57", "--tgt-order", "OVS", "--seed", "3",
        "--out", str(out),
    ]) == 0
    grammar = parse_grammar_text(out.read_text("utf-8"))
    assert len(grammar.rules) == 57
    manifest = json.loads((tmp_path / "g.scfg.manifest.json").read_text("utf-8"))
    assert manifest["size"] == 57
    assert manifest["spec"]["word_order_tgt"] == "OVS"


def test_gen_from_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"size": 77, "seed": 1, "script_tgt": "Cyrillic"}), "utf-8")
    out = tmp_path / "g.scfg"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(parse_grammar_text(out.read_text("utf-8")).rules) == 77


def test_gen_rejects_bad_size(tmp_path, capsys):
    assert main(["gen", "--size", "58", "--out", str(tmp_path / "g.scfg")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "achievable sizes" in err


def test_sample_writes_pairs(tmp_path, fig1_path):
    out = tmp_path / "pairs.jsonl"
    assert main([
        "sample", "--grammar", str(fig1_path), "--len", "4", "--n", "3",
        "--seed", "5", "--out", str(out),
    ]) == 0
    records = jsonl(out)
    assert len(records) == 3
    for r in records:
        assert r["source"] == "I open the box"
        assert r["target"] == "watashi wa hako wo akemasu"
        assert r["len_src"] == 4 and r["len_tgt"] == 5
        assert isinstance(r["tree"], list)


def test_sample_at_a_long_length(tmp_path):
    grammar = tmp_path / "g.scfg"
    assert main(["gen", "--size", "57", "--out", str(grammar)]) == 0
    out = tmp_path / "pairs.jsonl"
    assert main(["sample", "--grammar", str(grammar), "--len", "150", "--out", str(out)]) == 0
    assert jsonl(out)[0]["len_src"] == 150


def test_sample_a_derivation_thousands_of_levels_deep(tmp_path):
    grammar = tmp_path / "right.scfg"
    grammar.write_text("S -> <A S, A S>\nS -> <A, A>\nA -> <'a', 'a'>\n", "utf-8")
    out = tmp_path / "pairs.jsonl"
    assert main(["sample", "--grammar", str(grammar), "--len", "3000", "--out", str(out)]) == 0
    (record,) = jsonl(out)
    assert record["source"] == " ".join(["a"] * 3000)
    assert len(record["tree"]) == 2 * 3000


def test_a_sampled_tree_gives_back_its_source_and_target(tmp_path, appendix_text, appendix_grammar):
    grammar = tmp_path / "appendix.scfg"
    grammar.write_text(appendix_text, "utf-8")
    out = tmp_path / "pairs.jsonl"
    assert main([
        "sample", "--grammar", str(grammar), "--len", "10", "--n", "5",
        "--seed", "3", "--out", str(out),
    ]) == 0
    for record in jsonl(out):
        tree = tuple(record["tree"])
        assert " ".join(src_yield(appendix_grammar, tree)) == record["source"]
        assert " ".join(tgt_yield(appendix_grammar, tree)) == record["target"]
        for broken in (tree + (0,), tree[:-1], ()):
            with pytest.raises(ValueError):
                src_yield(appendix_grammar, broken)


def test_sample_bytes_are_pinned(tmp_path, capsys):
    # digest of the nested-tree sampler's output: the draws (and so the RNG
    # call order), their yields and the written trees must not change
    grammar = tmp_path / "g.scfg"
    assert main([
        "gen", "--size", "128", "--tgt-agr", "--tgt-script", "Hebrew", "--seed", "3",
        "--out", str(grammar),
    ]) == 0
    capsys.readouterr()
    assert main(["sample", "--grammar", str(grammar), "--len", "20", "--n", "50", "--seed", "4"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "a90637c0a73f594f163251b0f28d24a7437ddf0be68bc2eaed82674002029c4a"
    )


def test_sample_unreachable_length_fails(tmp_path, fig1_path, capsys):
    assert main(["sample", "--grammar", str(fig1_path), "--len", "9",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "nearest achievable" in capsys.readouterr().err


def test_translate_stdout(fig1_path, capsys):
    assert main(["translate", "--grammar", str(fig1_path),
                 "--sentence", "I open the box"]) == 0
    assert capsys.readouterr().out.splitlines() == ["watashi wa hako wo akemasu"]


def test_translate_json_flag(fig1_path, capsys):
    assert main(["translate", "--grammar", str(fig1_path),
                 "--sentence", "I open", "--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body == {"targets": ["watashi wa akemasu"], "overflowed": False}


def test_translate_a_source_thousands_of_levels_deep(tmp_path, capsys):
    grammar = tmp_path / "spine.scfg"
    grammar.write_text(DEEP_TEXT, "utf-8")
    source, target = deep_pair(2999)
    assert main(["translate", "--grammar", str(grammar), "--sentence", source]) == 0
    assert capsys.readouterr().out.splitlines() == [target]


@pytest.mark.parametrize("cap", ["0", "-1", "-3"])
def test_translate_rejects_a_cap_below_one(fig1_path, capsys, cap):
    assert main(["translate", "--grammar", str(fig1_path),
                 "--sentence", "I open", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "cap" in captured.err


def test_translate_rejects_non_sentence(fig1_path, capsys):
    assert main(["translate", "--grammar", str(fig1_path),
                 "--sentence", "box I"]) == 1
    assert "box I" in capsys.readouterr().err


def test_score_pipeline(tmp_path, fig1_path):
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    out = tmp_path / "scores.jsonl"
    main(["sample", "--grammar", str(fig1_path), "--len", "4", "--n", "2",
          "--out", str(pairs)])
    records = jsonl(pairs)
    cands.write_text(
        json.dumps({"cand": records[0]["target"]}) + "\n"
        + json.dumps({"cand": "wo hako watashi wa akemasu"}) + "\n",
        "utf-8",
    )
    assert main(["score", "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 0
    scored = jsonl(out)
    assert scored[0]["exact"] == 1.0
    assert scored[1]["exact"] == 0.0
    assert scored[1]["bag_of_words"] == 1.0
    assert set(scored[0]) == {
        "exact", "bag_of_words", "bleu", "chrfpp", "cand", "source"
    }


def test_score_accepts_plain_text_candidates(tmp_path, fig1_path):
    # raw model output, one sentence per line, needs no JSON quoting
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.txt"
    out = tmp_path / "scores.jsonl"
    main(["sample", "--grammar", str(fig1_path), "--len", "4", "--n", "2",
          "--out", str(pairs)])
    records = jsonl(pairs)
    cands.write_text(records[0]["target"] + "\nwo hako watashi wa akemasu\n", "utf-8")
    assert main(["score", "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 0
    scored = jsonl(out)
    assert scored[0]["exact"] == 1.0
    assert scored[1]["exact"] == 0.0


def test_score_length_mismatch(tmp_path, fig1_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    pairs.write_text(json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n", "utf-8")
    cands.write_text("", "utf-8")
    assert main(["score", "--pairs", str(pairs), "--cands", str(cands),
                 "--out", str(tmp_path / "o.jsonl")]) == 1


def test_exact_credit_does_not_depend_on_cap(tmp_path):
    # 'a a' has 16 targets; at --cap 3 the enumerated set stops before 's z'
    grammar = tmp_path / "ambig.scfg"
    grammar.write_text(AMBIG_TEXT, "utf-8")
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.txt"
    pairs.write_text(json.dumps({"source": "a a", "target": "p w"}) + "\n", "utf-8")
    cands.write_text("s z\n", "utf-8")
    common = ["--pairs", str(pairs), "--cands", str(cands), "--grammar", str(grammar), "--cap", "3"]
    assert main(["score", *common, "--out", str(tmp_path / "scores.jsonl")]) == 0
    assert jsonl(tmp_path / "scores.jsonl")[0]["exact"] == 1.0
    assert main(["classify", *common, "--out", str(tmp_path / "labels.jsonl")]) == 0
    assert jsonl(tmp_path / "labels.jsonl")[0]["labels"] == []


def test_classify_pipeline(tmp_path, fig1_path):
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    out = tmp_path / "labels.jsonl"
    pairs.write_text(
        json.dumps({"source": "I open the box", "target": "watashi wa hako wo akemasu"}) + "\n"
        + json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n"
        + json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n",
        "utf-8",
    )
    cands.write_text(
        json.dumps({"cand": "watashi wa hako wo akemasu"}) + "\n"
        + json.dumps({"cand": "akemasu watashi wa"}) + "\n"
        + json.dumps({"cand": "watashi wa open"}) + "\n",
        "utf-8",
    )
    assert main(["classify", "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 0
    labeled = jsonl(out)
    assert labeled[0]["labels"] == []
    assert labeled[1]["labels"] == ["word_order"]
    assert "source_vocab" in labeled[2]["labels"]
    assert "omission" in labeled[2]["labels"]


def answerless_inputs(tmp_path):
    # a failed trial's run-log record carries no answer: "extracted" is null
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    pairs.write_text(
        json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n"
        + json.dumps({"source": "I open the box", "target": "watashi wa hako wo akemasu"}) + "\n",
        "utf-8",
    )
    cands.write_text(
        json.dumps({"extracted": None, "status": "extraction_failed"}) + "\n"
        + json.dumps({"extracted": ["watashi", "wa", "hako", "wo", "akemasu"]}) + "\n",
        "utf-8",
    )
    return ["--pairs", str(pairs), "--cands", str(cands)]


def test_score_gives_an_answerless_record_zero(tmp_path, fig1_path):
    out = tmp_path / "scores.jsonl"
    common = answerless_inputs(tmp_path)
    assert main(["score", *common, "--grammar", str(fig1_path), "--out", str(out)]) == 0
    scored = jsonl(out)
    assert scored[0] == {
        "exact": 0, "bag_of_words": 0, "bleu": 0.0, "chrfpp": 0.0,
        "cand": None, "source": "I open",
    }
    assert scored[1]["exact"] == 1
    # without a grammar the reference target alone is gold
    assert main(["score", *common, "--out", str(out)]) == 0
    assert jsonl(out)[0]["exact"] == 0


def test_classify_labels_an_answerless_record_unparseable(tmp_path, fig1_path):
    out = tmp_path / "labels.jsonl"
    common = answerless_inputs(tmp_path)
    assert main(["classify", *common, "--grammar", str(fig1_path), "--out", str(out)]) == 0
    labeled = jsonl(out)
    assert labeled[0] == {"cand": None, "source": "I open", "labels": ["unparseable"]}
    assert labeled[1]["labels"] == []


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize(
    "field", [5, [1, 2], ["a", 2], {"a": 1}, True], ids=["int", "ints", "mixed", "object", "bool"]
)
def test_a_malformed_candidate_field_exits_2(tmp_path, fig1_path, capsys, command, field):
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    out = tmp_path / "out.jsonl"
    pairs.write_text(json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n", "utf-8")
    cands.write_text(json.dumps({"cand": field}) + "\n", "utf-8")
    assert main([command, "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'cand'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize("torn", ["record", "string"])
def test_a_torn_json_candidate_exits_2(tmp_path, fig1_path, capsys, command, torn):
    # the first 120 bytes of a `scfgkit sample` line, or a JSON string cut
    # short, is a torn record, not a plain-text answer
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    out = tmp_path / "out.jsonl"
    assert main(["sample", "--grammar", str(fig1_path), "--len", "4", "--out", str(pairs)]) == 0
    line = pairs.read_text("utf-8")
    cands.write_text((line[:120] if torn == "record" else '"watashi wa') + "\n", "utf-8")
    capsys.readouterr()
    assert main([command, "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cands} line 1: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--pairs", "--cands"])
def test_a_line_nested_too_deep_exits_2(tmp_path, capsys, flag):
    # json.loads gives up on 100,000 nested arrays with a RecursionError
    files = {"--pairs": tmp_path / "pairs.jsonl", "--cands": tmp_path / "cands.jsonl"}
    out = tmp_path / "out.jsonl"
    files["--pairs"].write_text(json.dumps({"source": "I open", "target": "watashi wa akemasu"}) + "\n", "utf-8")
    files["--cands"].write_text("watashi wa akemasu\n", "utf-8")
    files[flag].write_text("[" * 100_000 + "\n", "utf-8")
    assert main(["score", "--pairs", str(files["--pairs"]), "--cands", str(files["--cands"]),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[flag]} line 1: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
def test_a_raw_unicode_line_break_inside_a_string_stays_in_its_line(tmp_path, fig1_path, command, char):
    # json.dumps(..., ensure_ascii=False) writes these raw in run logs and in
    # `scfgkit sample` output; only "\n" ends a line
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.jsonl"
    out = tmp_path / "out.jsonl"
    pair = {"source": "I open", "target": "watashi wa akemasu", "note": f"a{char}b"}
    record = {"extracted": ["watashi", "wa", "akemasu"], "response": f"ok{char}Final answer: watashi wa akemasu"}
    pairs.write_text(json.dumps(pair, ensure_ascii=False) + "\n", "utf-8")
    cands.write_text(json.dumps(record, ensure_ascii=False) + "\n", "utf-8")
    assert main([command, "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 0
    [row] = [json.loads(line) for line in out.read_text("utf-8").split("\n") if line]
    assert row["cand"] == "watashi wa akemasu"
    if command == "score":
        assert row["exact"] == 1
    else:
        assert row["labels"] == []


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize(
    "record, field",
    [({"src": "I open", "target": "watashi wa akemasu"}, "'source'"),
     ("I open", "source and target"),
     ([1], "source and target"),
     ({"source": 5, "target": "watashi wa akemasu"}, "'source'"),
     ({"source": "I open", "target": None}, "'target'")],
    ids=["no-source", "string", "list", "source-number", "target-null"],
)
def test_a_malformed_pair_record_exits_2(tmp_path, fig1_path, capsys, command, record, field):
    pairs = tmp_path / "pairs.jsonl"
    cands = tmp_path / "cands.txt"
    out = tmp_path / "out.jsonl"
    good = {"source": "I open", "target": "watashi wa akemasu"}
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", "utf-8")
    cands.write_text("watashi wa akemasu\nwatashi wa akemasu\n", "utf-8")
    assert main([command, "--pairs", str(pairs), "--cands", str(cands),
                 "--grammar", str(fig1_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pairs} line 2: ") and err.count("\n") == 1 and field in err
    assert not out.exists()


def test_gen_has_no_script_table_flag(tmp_path, capsys):
    # the packaged table is the only one, so a spec names one grammar
    upper = {c: c.upper() for c in "abcdefghijklmnopqrstuvwxyz"}
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"version": 1, "scripts": {
        "Latin": {"base_ranges": [["61", "7a"]], "diacritic_ranges": [], "map": {}},
        "Cyrillic": {"base_ranges": [["41", "5a"]], "diacritic_ranges": [], "map": upper},
    }}), "utf-8")
    out = tmp_path / "g.scfg"
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--tgt-script", "Cyrillic", "--script-table", str(table), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--script-table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["top", "endpoint", "retry", "condition"])
def test_run_rejects_an_unknown_config_key(tmp_path, capsys, where):
    raw = {
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": "mock://oracle"},
        "retry": {"max_attempts": 1},
        "model_name": "oracle",
        "out_dir": str(tmp_path / "run"),
    }
    target = {"top": raw, "endpoint": raw["endpoint"], "retry": raw["retry"],
              "condition": raw["conditions"][0]}[where]
    target["typo_key"] = 5
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), "utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "typo_key" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "endpoint",
    [{"url": 5}, {"url": "localhost:8000/v1"}, {"url": "ftp://127.0.0.1/v1"}, {"url": "http:///v1"},
     {"url": "mock://nope"}, {"timeout_s": 0}, {"timeout_s": -1}, {"timeout_s": "60"},
     {"timeout_s": float("inf")}, {"params": [1]}, {"params": {"temperature": float("nan")}},
     {"params": {"stop": [{"p": float("inf")}]}}],
    ids=["url-number", "url-schemeless", "url-ftp", "url-no-host", "url-unknown-mock", "timeout-zero",
         "timeout-negative", "timeout-string", "timeout-infinite", "params", "params-nan",
         "params-nested-infinity"],
)
def test_run_rejects_a_malformed_endpoint(tmp_path, capsys, endpoint):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": "mock://oracle", **endpoint},
        "model_name": "oracle",
        "out_dir": str(tmp_path / "run"),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint ") and err.count("\n") == 1
    assert next(iter(endpoint)) in err
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_non_finite_retry_backoff(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": "mock://oracle"},
        "retry": {"backoff_s": float("nan")},
        "model_name": "oracle",
        "out_dir": str(tmp_path / "run"),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: retry backoff_s ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "fields",
    [{"n_per_cell": "2"}, {"n_per_cell": True}, {"n_per_cell": 1.5}, {"max_parallel": "4"},
     {"max_parallel": True}, {"translate_cap": True}, {"translate_cap": 2.5}, {"lengths": ["3"]},
     {"lengths": [3.0]}, {"lengths": 3}, {"master_seed": "0"}, {"master_seed": 1.5},
     {"model_name": float("nan")}, {"model_name": ""}, {"model_name": 5},
     {"endpoint": "mock://oracle"}, {"conditions": [5]}, {"conditions": 5}, {"conditions": {"size": 57}},
     {"out_dir": 5}, {"retry": 3}, {"conditions": [{"size": "57"}]}, {"conditions": [{"size": 57.0}]},
     {"conditions": [{"size": 57, "seed": 1.5}]}, {"conditions": [{"size": 128, "agreement_tgt": "false"}]},
     {"endpoint": {"url": "mock://oracle", "auth_env": 5}}],
    ids=["n_per_cell-string", "n_per_cell-bool", "n_per_cell-fraction", "max_parallel-string",
         "max_parallel-bool", "translate_cap-bool", "translate_cap-fraction", "lengths-string",
         "lengths-float", "lengths-number", "master_seed-string", "master_seed-fraction",
         "model_name-nan", "model_name-empty", "model_name-number",
         "endpoint-string", "conditions-number-item", "conditions-number", "conditions-object",
         "out_dir-number", "retry-number", "size-string", "size-float", "seed-fraction",
         "agreement_tgt-string", "auth_env-number"],
)
def test_run_rejects_a_malformed_config(tmp_path, capsys, fields):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(tmp_path / "run"),
        **fields,
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(fields))} ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "condition",
    [{"size": 58}, {"size": 57, "word_order_tgt": "XYZ"}, {"size": 57, "script_tgt": "Klingon"}],
    ids=["size", "word_order", "script"],
)
def test_run_refuses_an_unrealizable_condition_before_its_run_directory(tmp_path, capsys, condition):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}, condition],
        "lengths": [3],
        "n_per_cell": 1,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(tmp_path / "run"),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "spec, error",
    [({"size": "57"}, "size "), ({"size": 57, "agreement_tgt": "yes"}, "agreement_tgt "),
     ({"size": 57, "script_tgt": "Klingon"}, "unknown script 'Klingon'; known: ")],
    ids=["size-string", "agreement-string", "unknown-script"],
)
def test_gen_refuses_a_malformed_spec_file(tmp_path, capsys, spec, error):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), "utf-8")
    out = tmp_path / "g.scfg"
    assert main(["gen", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("resamples", ["0", "-3"])
def test_report_refuses_a_resample_count_below_one(tmp_path, capsys, resamples):
    log = tmp_path / "runs.jsonl"
    record = {"grammar_size": 57, "length": 3, "scores": {"exact": 1, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0}}
    log.write_text(json.dumps(record) + "\n", "utf-8")
    out = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out), "--resamples", resamples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_resamples ") and err.count("\n") == 1 and resamples in err
    assert not out.exists()


def test_report_refuses_a_negative_seed(tmp_path, capsys):
    log = tmp_path / "runs.jsonl"
    record = {"grammar_size": 57, "length": 3, "scores": {"exact": 1, "bag_of_words": 1, "bleu": 1.0, "chrfpp": 1.0}}
    log.write_text(json.dumps(record) + "\n", "utf-8")
    out = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and err.count("\n") == 1 and "-1" in err
    assert not out.exists()


def test_run_and_report(tmp_path, capsys):
    config = tmp_path / "config.json"
    run_dir = tmp_path / "run"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3, 4],
        "n_per_cell": 2,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(run_dir),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "4 trials (4 ok)" in out
    log = run_dir / "runs.jsonl"
    assert len(jsonl(log)) == 4

    report_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(report_dir),
                 "--resamples", "200"]) == 0
    shown = capsys.readouterr().out
    assert "Mean results by grammar size" in shown
    assert (report_dir / "by_size.csv").exists() or list(report_dir.glob("*.csv"))


def test_report_reads_a_log_with_a_torn_last_line(tmp_path, capsys):
    # a run cut mid-append leaves a partial line, which resume drops
    config = tmp_path / "config.json"
    run_dir = tmp_path / "run"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3, 4],
        "n_per_cell": 2,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(run_dir),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 0
    log = run_dir / "runs.jsonl"
    with log.open("a", encoding="utf-8") as fh:
        fh.write('{"trial_id": "c0-L3-r9", "source": "ha')
    capsys.readouterr()
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    by_size = (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    assert "57,exact,4,1.000000" in by_size
    assert main(["report", "--log", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "report")]) == 2
    assert "no run log" in capsys.readouterr().err


def test_report_counts_corrupt_lines(tmp_path, capsys):
    config = tmp_path / "config.json"
    run_dir = tmp_path / "run"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3, 4],
        "n_per_cell": 2,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(run_dir),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 0
    log = run_dir / "runs.jsonl"
    lines = log.read_text("utf-8").splitlines()
    lines[1] = lines[1][:40]
    log.write_text("\n".join(lines) + "\n", "utf-8")
    capsys.readouterr()
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    assert f"skipped 1 corrupt line(s) in {log}" in capsys.readouterr().err
    by_size = (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    assert "57,exact,3,1.000000" in by_size


def _mock_run_log(tmp_path, lengths=(3, 4)):
    config = tmp_path / "config.json"
    run_dir = tmp_path / "run"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}, {"size": 77, "seed": 1}],
        "lengths": list(lengths),
        "n_per_cell": 2,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(run_dir),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 0
    return run_dir / "runs.jsonl"


def test_report_counts_a_line_that_is_not_a_json_object(tmp_path, capsys):
    log = _mock_run_log(tmp_path)
    with log.open("a", encoding="utf-8") as fh:
        fh.write('[1, 2]\n"x"\n7\nnull\n')
    capsys.readouterr()
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    assert f"skipped 4 corrupt line(s) in {log}" in capsys.readouterr().err
    by_size = (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    assert "57,exact,4,1.000000" in by_size and "77,exact,4,1.000000" in by_size


@pytest.mark.parametrize(
    "edit, error",
    [(lambda record: {}, "trial_id must be a string: None"),
     (lambda record: dict(record, grammar_size=[1]), "grammar_size must be a whole number: [1]"),
     (lambda record: dict(record, scores=dict(record["scores"], bleu="0.5")),
      "scores bleu must be a finite number: '0.5'"),
     (lambda record: dict(record, schema_version="3"), "schema_version must be a whole number from 1 to 3: '3'")],
    ids=["empty", "size-list", "score-string", "version-string"],
)
def test_report_skips_a_record_whose_checked_fields_are_wrong(tmp_path, capsys, edit, error):
    log = _mock_run_log(tmp_path)
    lines = log.read_text("utf-8").splitlines()
    log.write_text("\n".join([json.dumps(edit(json.loads(lines[0]))), *lines[1:]]) + "\n", "utf-8")
    capsys.readouterr()
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                 "--resamples", "200"]) == 0
    err = capsys.readouterr().err
    assert f"warning: skipped 1 corrupt line(s) in {log} (first: {log} line 1: {error})" in err
    by_size = (tmp_path / "report" / "by_size.csv").read_text("utf-8")
    assert "57,exact,3,1.000000" in by_size and "77,exact,4,1.000000" in by_size
    # a resume skips the line too, and runs its trial again
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    assert "8 trials (8 ok)" in capsys.readouterr().out


def test_report_counts_a_repeated_trial_id_once(tmp_path, capsys):
    log = _mock_run_log(tmp_path)
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "once"), "--resamples", "200"]) == 0
    log.write_bytes(log.read_bytes() * 2)
    capsys.readouterr()
    assert main(["report", "--log", str(log), "--out", str(tmp_path / "twice"), "--resamples", "200"]) == 0
    assert f"warning: skipped 8 repeated trial id(s) in {log}" in capsys.readouterr().err
    for name in ("by_size.csv", "by_length.csv", "report.txt"):
        assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()


def test_a_resume_without_the_manifest_of_its_schema_3_log_exits_2(tmp_path, capsys):
    log = _mock_run_log(tmp_path)
    (log.parent / "run.json").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(log.parent / "run.json") in err


def test_report_memory_is_bounded_on_a_long_log(tmp_path, capsys):
    # 7,200 records of a mock run, about 780 bytes each, with varied scores;
    # the report keeps four scores per record, not the records
    log = _mock_run_log(tmp_path, lengths=(3, 4, 5))
    templates = [json.loads(line) for line in log.read_text("utf-8").splitlines()]
    with log.open("w", encoding="utf-8") as fh:
        for i in range(7_200):
            record = dict(templates[i % len(templates)], trial_id=f"t{i}")
            record["scores"] = {**record["scores"], "exact": i % 3 % 2, "bleu": (i % 7) / 7}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    assert log.stat().st_size > 5_040 * 1_000
    capsys.readouterr()
    tracemalloc.start()
    try:
        status = main(["report", "--log", str(log), "--out", str(tmp_path / "report"),
                       "--resamples", "2000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert (tmp_path / "report" / "by_length.csv").read_text("utf-8").count(",exact,2400,") == 3
    # a list of the records alone holds about 25 MB
    assert peak < 16 * 2**20


def test_run_resume_via_cli(tmp_path, capsys):
    config = tmp_path / "config.json"
    run_dir = tmp_path / "run"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}],
        "lengths": [3],
        "n_per_cell": 2,
        "endpoint": {"url": "mock://oracle"},
        "model_name": "oracle",
        "out_dir": str(run_dir),
    }), "utf-8")
    main(["run", "--config", str(config)])
    capsys.readouterr()
    main(["run", "--config", str(config)])
    assert "2 trials" in capsys.readouterr().out
    assert len(jsonl(run_dir / "runs.jsonl")) == 2


@pytest.mark.parametrize("max_parallel", [1, 2])
def test_run_stops_on_ctrl_c_and_says_how_many_trials_are_logged(tmp_path, max_parallel):
    # SIGINT at a seeded delay after the first record: exit 130 within
    # seconds, one stderr line whose count read_log confirms, and no torn
    # line.  The interpreter itself is killed on a hang: a kill of an outer
    # `timeout` would leave it running.
    config = tmp_path / "config.json"
    log = tmp_path / "run" / "runs.jsonl"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}], "lengths": [5], "n_per_cell": 20_000,
        "endpoint": {"url": "mock://oracle"}, "model_name": "oracle", "out_dir": str(log.parent),
        "max_parallel": max_parallel,
    }), "utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(scfgkit.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "scfgkit.cli", "run", "--config", str(config)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not (log.exists() and log.stat().st_size) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(random.Random(max_parallel).uniform(0.0, 0.3))
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=10)
        waited = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    assert waited < 5
    found = re.fullmatch(f"interrupted: ([0-9]+) trials logged -> {re.escape(str(log))}\n", err)
    assert found, err
    assert int(found.group(1)) == len(read_log(log)) > 0
    assert log.read_bytes().endswith(b"\n")


# The child stops in the middle of read_log: a hook on the check each record
# gets marks that reading has begun, then waits there for the signal.
INTERRUPTED_READ = """\
import pathlib, sys, time
from scfgkit import cli, harness
check = harness._check_answer
def hook(record):
    check(record)
    pathlib.Path(sys.argv[1]).touch()
    time.sleep(60)
harness._check_answer = hook
sys.exit(cli.main(sys.argv[2:]))
"""


def test_ctrl_c_while_a_resume_reads_its_log_leaves_the_log_whole(tmp_path):
    config = tmp_path / "config.json"
    log = tmp_path / "run" / "runs.jsonl"
    marker = tmp_path / "reading"
    config.write_text(json.dumps({
        "conditions": [{"size": 57, "seed": 0}], "lengths": [5], "n_per_cell": 400,
        "endpoint": {"url": "mock://oracle"}, "model_name": "oracle", "out_dir": str(log.parent),
    }), "utf-8")
    assert main(["run", "--config", str(config)]) == 0
    logged = log.read_bytes()
    manifest = (log.parent / "run.json").read_bytes()
    with log.open("ab") as fh:  # a torn last line, which a finished set-up would cut
        fh.write(b'{"trial_id": "c0_len5_r400"')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(scfgkit.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTED_READ, str(marker), "run", "--config", str(config)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    assert err == f"interrupted: set-up stopped before any trial ran -> {log}\n"
    assert out == ""
    assert log.read_bytes() == logged + b'{"trial_id": "c0_len5_r400"'
    assert (log.parent / "run.json").read_bytes() == manifest
