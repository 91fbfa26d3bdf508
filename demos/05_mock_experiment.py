"""Run a small end-to-end evaluation against the built-in mock endpoints.

The harness samples gold pairs over a grid of (grammar condition, source
length, replicate), prompts an endpoint, scores and labels each answer, and
appends one JSON record per trial to a resumable log.  The two mock URLs
stand in for a model: "mock://oracle" always answers with a gold target,
"mock://echo-source" parrots the source back.  A record is its log line: it
carries the SHA-256 of its prompt, and the run's manifest, run.json, holds
each condition's spec and grammar once, so record_prompt rebuilds a record's
prompt from it.  The answer's words come from the response.  Run:

    python demos/05_mock_experiment.py
"""

import hashlib
import tempfile
from pathlib import Path

from scfgkit import (
    EndpointProfile,
    ExperimentConfig,
    GrammarSpec,
    read_log,
    run_experiment,
    write_report,
)
from scfgkit.harness import MOCK_ECHO_SOURCE, MOCK_ORACLE, answer_words, read_manifest, record_prompt

out_dir = Path(tempfile.mkdtemp(prefix="scfgkit_demo_"))
config = ExperimentConfig(
    conditions=(
        GrammarSpec(size=57, word_order_tgt="SOV", seed=11),
        GrammarSpec(size=77, word_order_tgt="SOV", seed=12),
    ),
    lengths=(3, 5),
    n_per_cell=3,
    endpoint=EndpointProfile(url=MOCK_ORACLE),
    model_name="demo-oracle",
    out_dir=out_dir / "oracle",
    master_seed=2024,
)

records = run_experiment(config)
print(f"ran {len(records)} trials against the oracle mock")
print("every trial scored exact:",
      all(r["scores"]["exact"] == 1 for r in records))

sample = records[0]
print("\none record:")
for key in ("trial_id", "grammar_size", "length", "source", "scores", "prompt_sha256"):
    print(f"  {key}: {sample[key]}")
print(f"  answer: {answer_words(sample['response'])}")

# --- the manifest ------------------------------------------------------------
# run.json holds the config, the versions and each condition's spec and
# grammar text, so a record's spec and prompt are looked up rather than
# stored in every line.
manifest = read_manifest(config.out_dir)
print(f"\nrun.json: scfgkit {manifest['version']}, "
      f"{len(manifest['conditions'])} grammars, Python {manifest['python']}")
print("the record's spec:", manifest["conditions"][sample["condition_index"]]["spec"])
prompt = record_prompt(config.out_dir, sample)
assert hashlib.sha256(prompt.encode("utf-8")).hexdigest() == sample["prompt_sha256"]
print("rebuilt prompt, first line:", prompt.splitlines()[0][:72] + "...")

# --- resumability ------------------------------------------------------------
# The log is the source of truth.  Rerunning the same config skips every
# trial already present, so an interrupted run picks up where it stopped.
again = run_experiment(config)
print("\nrerun added no trials:", len(again) == len(records))
print("log lines:", len(read_log(config.out_dir / "runs.jsonl")))

# --- a model with a systematic failure mode ----------------------------------
echo_config = ExperimentConfig(
    conditions=config.conditions,
    lengths=config.lengths,
    n_per_cell=config.n_per_cell,
    endpoint=EndpointProfile(url=MOCK_ECHO_SOURCE),
    model_name="demo-echo",
    out_dir=out_dir / "echo",
    master_seed=2024,
)
echo_records = run_experiment(echo_config)
leaked = sum("source_vocab" in r["labels"] for r in echo_records)
print(f"\necho mock: {leaked}/{len(echo_records)} answers flagged source_vocab")

# --- reporting ---------------------------------------------------------------
# write_report() groups records by grammar size and by source length, with
# bootstrap confidence intervals, as two CSVs plus a readable text table.
paths = write_report(echo_records, out_dir / "echo_report", seed=0)
print(f"\nreport files in {out_dir / 'echo_report'}:")
print(paths["text"].read_text())
