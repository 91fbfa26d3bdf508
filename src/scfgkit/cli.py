"""Command-line interface.

Subcommands mirror the library's pipeline: ``gen`` a grammar, ``sample``
gold pairs, ``translate`` a sentence, ``score`` and ``classify`` candidate
translations, ``run`` an experiment against an endpoint, and ``report``
aggregate a run log.  File formats are plain text grammars and JSONL
records throughout.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from .grammar import parse_grammar_text, serialize_grammar, word_vocab
from .harness import ExperimentConfig, LogRecords, Run, answer_words, judge, zero_scores
from .metagrammar import WORD_ORDERS, GrammarSpec, generate_with_manifest
from .metrics import score_candidate
from .parsing import TRANSLATE_CAP, SourceParseError, translate
from .report import write_report
from .sampling import sample_pair
from .scripts import SCRIPT_NAMES, get_script, script_of
from .seeds import derive_seed


def _read_grammar(path: str):
    return parse_grammar_text(Path(path).read_text("utf-8"))


def _read_lines(path: str, read) -> list:
    """``read(line)`` of each non-blank line of ``path``, stripped.  A line ends
    only at ``\n``, as in a run log: ``json.dumps(..., ensure_ascii=False)``
    writes U+0085, U+2028 and U+2029 raw inside strings, where
    ``str.splitlines`` would also split.  A ``ValueError`` from ``read``, or
    the ``RecursionError`` of a line nested too deep to parse, is raised
    again as a ``ValueError`` naming the file and the line."""
    values = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(read(line))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    return values


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _pair(line: str) -> dict:
    """A ``--pairs`` line: a JSON object whose ``source`` and ``target`` are
    strings, as ``scfgkit sample`` writes."""
    pair = json.loads(line)
    if not isinstance(pair, dict):
        raise ValueError(f"a pair is a JSON object with string source and target fields, not {pair!r}")
    for field in ("source", "target"):
        if field not in pair:
            raise ValueError(f"pair has no {field!r} field")
        if not isinstance(pair[field], str):
            raise ValueError(f"pair field {field!r} is not a string: {pair[field]!r}")
    return pair


def _candidate(line: str) -> str | None:
    """A ``--cands`` line: a JSON string, a JSON object with a
    cand/candidate/text/extracted field, or else a ``response`` field whose
    answer :func:`~scfgkit.harness.answer_words` takes (run logs work
    as-is), or plain text.  A field that is null, as in the record of a
    failed trial, or a response without the answer marker gives None.  A line
    that starts with ``{`` or ``"`` and does not parse, such as a torn
    record, is refused rather than scored as plain text."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        if line.startswith(("{", '"')):  # a torn record, not an answer
            raise ValueError(f"a line that starts with {line[0]} is JSON and does not parse: {exc}") from None
        return line
    if isinstance(record, str):
        return record
    if not isinstance(record, dict):
        return line
    for key in ("cand", "candidate", "text", "extracted"):
        if key in record:
            value = record[key]
            if value is None or isinstance(value, str):
                return value
            if isinstance(value, list) and all(isinstance(word, str) for word in value):
                return " ".join(value)
            raise ValueError(f"candidate field {key!r} is not a string, a list of strings or null: {value!r}")
    if "response" in record:
        response = record["response"]
        if response is not None and not isinstance(response, str):
            raise ValueError(f"candidate field 'response' is not a string or null: {response!r}")
        words = answer_words(response)
        return None if words is None else " ".join(words)
    raise ValueError(f"candidate record has no cand/candidate/text/extracted/response field: {record!r}")


def _judged(args, grammar, script=None) -> list | None:
    """(pair, candidate or None if it has no answer, and its
    :func:`~scfgkit.harness.judge` result, None without a ``grammar``) per line
    of ``--pairs`` and ``--cands``; None once it has reported that the two
    differ in length."""
    pairs = _read_lines(args.pairs, _pair)
    cands = _read_lines(args.cands, _candidate)
    if len(pairs) != len(cands):
        print("pairs and candidates differ in length", file=sys.stderr)
        return None
    judged = []
    for pair, cand in zip(pairs, cands):
        gold = " ".join(pair["target"].split())
        words = None if cand is None else cand.split()
        verdict = None if grammar is None else judge(grammar, pair["source"], gold, words, args.cap, script)
        judged.append((pair, cand, verdict))
    return judged


def _cmd_gen(args) -> int:
    if args.spec:
        spec = GrammarSpec.from_dict(json.loads(Path(args.spec).read_text("utf-8")))
    else:
        spec = GrammarSpec(
            size=args.size,
            word_order_src=args.src_order,
            word_order_tgt=args.tgt_order,
            agreement_src=args.src_agr,
            agreement_tgt=args.tgt_agr,
            script_src=args.src_script,
            script_tgt=args.tgt_script,
            seed=args.seed,
        )
    grammar, manifest = generate_with_manifest(spec)
    text = serialize_grammar(grammar)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        manifest_path = args.manifest or f"{args.out}.manifest.json"
    else:
        sys.stdout.write(text)
        manifest_path = args.manifest
    if manifest_path:
        Path(manifest_path).write_text(
            json.dumps(manifest, ensure_ascii=False, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


def _cmd_sample(args) -> int:
    grammar = _read_grammar(args.grammar)
    records = []
    for i in range(args.n):
        seed = derive_seed(args.seed, "sample", i)
        pair = sample_pair(grammar, args.len, rng_seed=seed)
        records.append(
            {
                "source": " ".join(pair.source),
                "target": " ".join(pair.target),
                "len_src": pair.len_src,
                "len_tgt": pair.len_tgt,
                "seed": seed,
                "tree": list(pair.tree),
            }
        )
    if args.out:
        _write_jsonl(args.out, records)
    else:
        for record in records:
            print(json.dumps(record, ensure_ascii=False))
    return 0


def _cmd_translate(args) -> int:
    grammar = _read_grammar(args.grammar)
    sentence = args.sentence if args.sentence else sys.stdin.read()
    try:
        targets = translate(grammar, sentence, cap=args.cap)
    except SourceParseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {"targets": sorted(targets), "overflowed": targets.overflowed},
                ensure_ascii=False,
            )
        )
    else:
        for target in sorted(targets):
            print(target)
        if targets.overflowed:
            print("(translation set truncated)", file=sys.stderr)
    return 0


def _cmd_score(args) -> int:
    judged = _judged(args, _read_grammar(args.grammar) if args.grammar else None)
    if judged is None:
        return 1
    records = []
    for pair, cand, verdict in judged:
        if verdict is not None:
            scores = verdict.scores
        else:  # the pair's target is the one gold
            scores = zero_scores() if cand is None else score_candidate(cand, [pair["target"]])
        records.append({**scores.as_dict(), "cand": cand, "source": pair["source"]})
    _write_jsonl(args.out, records)
    return 0


def _cmd_classify(args) -> int:
    grammar = _read_grammar(args.grammar)
    script = _target_script(args.script, word_vocab(grammar, "tgt"))
    judged = _judged(args, grammar, script)
    if judged is None:
        return 1
    records = [{"cand": cand, "source": pair["source"], "labels": verdict.labels} for pair, cand, verdict in judged]
    _write_jsonl(args.out, records)
    return 0


def _target_script(name: str | None, tgt_vocab):
    if name:
        return get_script(name)
    consistent = None
    for word in tgt_vocab:
        found = script_of(word)
        consistent = found if consistent is None else consistent & found
    if consistent and len(consistent) == 1:
        return get_script(next(iter(consistent)))
    return None


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    log = Path(cfg.out_dir) / "runs.jsonl"
    run = None
    try:
        run = Run(cfg, resume=not args.no_resume)  # a resume reads the whole log first
        ok = sum(r["status"] == "ok" for r in run.prior)
        with closing(iter(run)) as records:  # an interrupt between records closes them too
            for record in records:
                ok += record["status"] == "ok"
    except KeyboardInterrupt:
        done = "set-up stopped before any trial ran" if run is None else f"{run.logged} trials logged"
        print(f"interrupted: {done} -> {log}", file=sys.stderr)
        return 130
    print(f"{run.logged} trials ({ok} ok) -> {log}")
    return 0


def _cmd_report(args) -> int:
    if not Path(args.log).is_file():
        raise FileNotFoundError(f"no run log at {args.log}")
    with open(args.log, "rb") as fh:
        records = LogRecords(fh)
        paths = write_report(records, args.out, n_resamples=args.resamples, seed=args.seed)
    for warning in records.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    print(paths["text"].read_text("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfgkit",
        description="Synchronous grammars: generate, sample, translate, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a grammar from a parameter spec")
    p.add_argument("--spec", help="JSON spec file (overrides the flags below)")
    p.add_argument("--size", type=int, default=57)
    p.add_argument("--src-order", default="SVO", choices=WORD_ORDERS)
    p.add_argument("--tgt-order", default="SOV", choices=WORD_ORDERS)
    p.add_argument("--src-agr", action="store_true")
    p.add_argument("--tgt-agr", action="store_true")
    p.add_argument("--src-script", default="Latin", choices=SCRIPT_NAMES)
    p.add_argument("--tgt-script", default="Latin", choices=SCRIPT_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="grammar output path (default stdout)")
    p.add_argument("--manifest", help="manifest output path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sample", help="sample gold pairs at a fixed source length")
    p.add_argument("--grammar", required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="pairs JSONL path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("translate", help="enumerate target translations")
    p.add_argument("--grammar", required=True)
    p.add_argument("--sentence", help="source sentence (default: read stdin)")
    p.add_argument("--cap", type=int, default=TRANSLATE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("score", help="score candidates against gold pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--cands", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grammar", help="credit all grammar translations as gold")
    p.add_argument("--cap", type=int, default=TRANSLATE_CAP)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("classify", help="label translation errors")
    p.add_argument("--pairs", required=True)
    p.add_argument("--cands", required=True)
    p.add_argument("--grammar", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--script", choices=SCRIPT_NAMES, help="target script (default: detect)")
    p.add_argument("--cap", type=int, default=TRANSLATE_CAP)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--no-resume", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="aggregate a run log into tables")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resamples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # covers bad specs, unreachable lengths, malformed grammars and
        # missing files; unexpected bugs still get a traceback
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
