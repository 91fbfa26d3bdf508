"""Batch evaluation harness: prompt, query, extract, score, log.

An experiment is a grid of (grammar condition, source length) cells with a
fixed number of replicates per cell.  Each trial deterministically derives
its seed from the master seed and its cell coordinates, samples one gold
pair, renders the prompt, queries the endpoint, extracts and scores the
answer, and appends one JSON line to the run log.  Logs are append-only and
resumable: a rerun skips trial ids already present.  A line is a record once
its newline is written: a resume cuts off a last line without one.

A run is a :class:`Run`, which yields each record once its line is written;
:func:`run_experiment` collects them.  The calling thread alone writes the
log.  At ``max_parallel`` 1 it runs the trials too; above 1, ``max_parallel``
helper threads run them, each handing its record back through a one-shot
queue, and only overlap endpoint waits (a trial's own work holds the
interpreter lock).  Memory does not grow with the grid.
On Ctrl-C, any other exception or an early close, every finished record up
to the first unfinished trial is written and the exception propagates; a
resume runs the rest.  Each line is flushed, not fsynced, so power loss is
out of scope.

A record does not repeat its prompt, which is mostly the grammar: it carries
the prompt's SHA-256 (``prompt_sha256``).  Before the first record of a log,
the run writes a manifest, ``run.json``, holding the config, the package,
Python and numpy versions, and each condition's grammar text with its
SHA-256; :func:`record_prompt` rebuilds a record's prompt from it.  A resumed
run reads the manifest instead of generating every grammar, and refuses a
config whose grammars, seeds or model differ from the ones the log was made
with.

A record (schema version 3) is its log line: :func:`run_trial` returns the
dict :func:`run_experiment` writes, and :func:`read_log` returns each line as
it was written.  A record holds nothing the manifest or its response gives:
its condition's spec is ``manifest["conditions"][condition_index]["spec"]``,
the model is ``manifest["config"]["model_name"]`` (both are resume keys), and
the answer's words are :func:`answer_words` of the response.  Records of
schema versions 1 (which held the prompt itself) and 2 (which also held
``spec``, ``model`` and ``extracted``) read as they are.  Reading a log checks
the fields its readers use and skips a repeated trial id (see
:class:`LogRecords`).

Endpoints speak a minimal JSON POST ``{model, prompt} -> {text}``; a
"chat" profile adapts that to chat-completion shaped payloads.  Two
in-process mocks need no network: ``mock://oracle`` answers with the gold
target, ``mock://echo-source`` parrots the source sentence back.  Every
config field is checked against its annotation at every level.  The POST
uses stdlib ``urllib``, imported on first use: proxies come from ``*_proxy``
variables, TLS is verified against the system CA store, a 307 or 308
redirect is not followed, a 301, 302 or 303 is followed as a GET that
carries no bearer token, and the User-Agent is ``scfgkit/<version>``.

Trial results never raise: endpoint failures and responses with no
``Final answer:`` marker are recorded as failed trials with zero scores.
Only what a retry can fix is retried, with exponential backoff: transport
errors (refused, dropped or timed-out connections, a body cut short), HTTP
429 and HTTP 5xx.  A 429 or 5xx response whose ``Retry-After`` header gives
whole seconds waits at least that long before the next attempt.  Any other
error status, or a body without the answer field, fails the trial at once.

One rule, :func:`judge`, turns (grammar, source, gold, answer) into the
gold set, the scores and the error labels, for a run and for ``scfgkit
score`` and ``scfgkit classify``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from queue import Empty, SimpleQueue
from typing import BinaryIO, Iterator, TextIO
from urllib.parse import urlsplit  # already loaded by pathlib

import numpy as np

from .errors import UNPARSEABLE, classify, sorted_labels
from .grammar import SyncGrammar, word_vocab
from .lexicon import english_words
from .metagrammar import GrammarSpec, check_fields, from_fields, generate
from .metrics import ScoreRecord, score_candidate
from .parsing import TRANSLATE_CAP, is_valid_translation, translate
from .prompts import extract_answer, render_prompt, render_prompt_from_text
from .report import AXES, METRICS
from .sampling import sample_pair
from .scripts import ScriptSpec, get_script
from .seeds import derive_seed

SCHEMA_VERSION = 3
MANIFEST_NAME = "run.json"
# The config fields that fix what a finished trial id stands for: its
# grammar, its sentence and gold set, and the model that answered.  A resumed
# run must agree on them with the manifest; the others (the grid's extent,
# where the endpoint is, retries, threads, out_dir) may change.
_RESUME_KEYS = ("conditions", "master_seed", "translate_cap", "model_name")

logger = logging.getLogger(__name__)

MOCK_ORACLE = "mock://oracle"
MOCK_ECHO_SOURCE = "mock://echo-source"
# The mock endpoints, each with its answer from a trial's gold target and source.
_MOCKS = {
    MOCK_ORACLE: lambda gold, source: gold,
    MOCK_ECHO_SOURCE: lambda gold, source: source,
}


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff_s: float = 0.5  # sleep backoff_s * 2**attempt between tries

    def __post_init__(self):
        check_fields(self, "retry")
        if self.max_attempts < 1:
            raise ValueError(f"retry max_attempts must be >= 1: {self.max_attempts!r}")
        if self.backoff_s < 0:
            raise ValueError(f"retry backoff_s must be >= 0: {self.backoff_s!r}")


def _names_a_host(url: str) -> bool:
    """Whether ``url`` is an http or https URL with a host: urllib raises an
    OSError, which a retry cannot fix, for any other scheme or a missing host."""
    try:
        parts = urlsplit(url)
        return parts.scheme.lower() in ("http", "https") and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False


@dataclass(frozen=True)
class EndpointProfile:
    """Where and how to send prompts.

    ``kind`` "plain" posts {model, prompt} and reads {text}; "chat" posts a
    chat-completions payload and reads choices[0].message.content.
    ``auth_env`` names an environment variable holding a bearer token; only
    the name is ever logged.  ``params`` are decoding parameters forwarded
    verbatim (the harness sets no defaults of its own).
    """

    url: str
    kind: str = "plain"
    auth_env: str | None = None
    timeout_s: float = 60.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self, "endpoint")
        if self.kind not in ("plain", "chat"):
            raise ValueError(f"unknown endpoint kind: {self.kind!r}")
        if not (self.url in _MOCKS or _names_a_host(self.url)):
            raise ValueError(f"endpoint url must be http(s) with a host or one of {', '.join(_MOCKS)}: {self.url!r}")
        if self.timeout_s <= 0:
            raise ValueError(f"endpoint timeout_s must be positive: {self.timeout_s!r}")
        try:  # NaN is not JSON; json.dumps is left to the log append alone
            json.JSONEncoder(allow_nan=False).encode(self.params)
        except (ValueError, TypeError):
            raise ValueError(f"endpoint params must be a JSON object without NaN or Infinity: {self.params!r}") from None

    def metadata(self) -> dict:
        return {
            "url": self.url,
            "kind": self.kind,
            "auth_env": self.auth_env,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class ExperimentConfig:
    conditions: tuple[GrammarSpec, ...]
    lengths: tuple[int, ...]
    n_per_cell: int
    endpoint: EndpointProfile
    model_name: str
    out_dir: Path
    master_seed: int = 0
    max_parallel: int = 4
    retry: RetryPolicy = RetryPolicy()
    translate_cap: int = TRANSLATE_CAP

    def __post_init__(self):
        check_fields(self)
        if not self.conditions:
            raise ValueError("need at least one grammar condition")
        for name in ("n_per_cell", "max_parallel", "translate_cap"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1: {value!r}")
        if not self.lengths or len(set(self.lengths)) != len(self.lengths):
            raise ValueError("lengths must be nonempty and free of repeats")
        if any(not 3 <= n <= 50 for n in self.lengths):
            raise ValueError("lengths must lie in [3, 50]")
        if not self.model_name:
            raise ValueError("model_name must not be empty")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config from its JSON form.  Keys left out take the field
        defaults; an unknown or mistyped key at any level raises ``ValueError``."""
        return from_fields(cls, raw)

    def to_dict(self) -> dict:
        """The config's JSON form, which :meth:`from_dict` reads back equal."""
        raw = asdict(self)
        return dict(raw, conditions=list(raw["conditions"]), lengths=list(self.lengths),
                    out_dir=str(self.out_dir))

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text("utf-8")))


def trial_id(condition_index: int, length: int, replicate: int) -> str:
    return f"c{condition_index}_len{length}_r{replicate}"


def _sha256(text: str) -> str:
    """SHA-256 hex digest of the UTF-8 encoding of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def zero_scores() -> ScoreRecord:
    return ScoreRecord(exact=0, bag_of_words=0, bleu=0.0, chrfpp=0.0)


def _retry_after_s(resp) -> float:
    """The wait a response's ``Retry-After`` header asks for in whole seconds;
    0 when it is absent or not whole seconds (an HTTP-date, say)."""
    value = resp.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class _Client:
    """Sends one prompt per call; mocks answer locally."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def __call__(self, prompt: str, gold: str, source: str) -> str:
        mock = _MOCKS.get(self.cfg.endpoint.url)
        if mock:
            return f"Final answer: {mock(gold, source)}"
        return self._http(prompt)

    def _http(self, prompt: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        from . import __version__  # the package imports this module first

        endpoint = self.cfg.endpoint
        headers = {"Content-Type": "application/json", "User-Agent": f"scfgkit/{__version__}"}
        token = endpoint.auth_env and os.environ.get(endpoint.auth_env)
        if endpoint.kind == "chat":
            message = {"messages": [{"role": "user", "content": prompt}]}
        else:
            message = {"prompt": prompt}
        payload = {"model": self.cfg.model_name, **message, **endpoint.params}
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(endpoint.url, data, headers)
        if token:  # an unredirected header is never sent on to a redirect's target
            request.add_unredirected_header("Authorization", f"Bearer {token}")
        last_error = None
        retry_after = 0.0
        for attempt in range(self.cfg.retry.max_attempts):
            if attempt:
                time.sleep(max(retry_after, self.cfg.retry.backoff_s * 2 ** (attempt - 1)))
            retry_after = 0.0
            try:
                with urllib.request.urlopen(request, timeout=endpoint.timeout_s) as resp:
                    status, raw = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code != 429 and exc.code < 500:
                    raise  # any other error status is not retried
                last_error = f"HTTP {exc.code}"
                retry_after = _retry_after_s(exc)
                continue
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            try:
                body = json.loads(raw)
                if endpoint.kind == "chat":
                    answer = body["choices"][0]["message"]["content"]
                else:
                    answer = body["text"]
                if not isinstance(answer, str):
                    raise TypeError(f"the answer is not a string: {answer!r}")
                return answer
            except (ValueError, LookupError, TypeError) as exc:
                raise RuntimeError(f"malformed response body (HTTP {status}): {exc!r}") from exc
        raise RuntimeError(f"endpoint failed after {self.cfg.retry.max_attempts} attempts: {last_error}")


@dataclass(frozen=True)
class Judgement:
    """What :func:`judge` finds of an answer; ``gold_set_size`` is before the answer may join."""

    gold_set_size: int
    overflowed: bool
    scores: ScoreRecord
    labels: list[str]


def judge(grammar: SyncGrammar, source, gold: str, words: list[str] | None, cap: int,
          script: ScriptSpec | None) -> Judgement:
    """Score and label the answer ``words`` (None if there is none) to
    ``source`` against its gold set: ``gold`` and the translations of
    ``source`` the grammar enumerates up to ``cap``, each space-joined.

    Exact credit never depends on ``cap``: when the enumeration overflowed and
    the answer is not in the set, ``is_valid_translation`` (a fold over the
    source forest that never enumerates) decides whether it is a gold member,
    and a member joins the set.  No answer scores zero and is unparseable; an
    exact answer has no label; any other gets :func:`~scfgkit.errors.classify`'s
    against both vocabularies of ``grammar``, the target ``script`` and
    English words."""
    golds = translate(grammar, source, cap=cap)
    members = sorted(set(golds) | {gold})
    size = len(members)
    if words is None:
        return Judgement(size, golds.overflowed, zero_scores(), [UNPARSEABLE])
    answer = " ".join(words)
    if golds.overflowed and answer not in members and is_valid_translation(grammar, source, answer):
        members.append(answer)
    scores = score_candidate(answer, members)
    labels = []
    if not scores.exact:
        vocabs = word_vocab(grammar, "src"), word_vocab(grammar, "tgt")
        labels = sorted_labels(classify(answer, members, *vocabs, script=script, english=english_words()))
    return Judgement(size, golds.overflowed, scores, labels)


def run_trial(
    cfg: ExperimentConfig,
    grammar: SyncGrammar,
    condition_index: int,
    length: int,
    replicate: int,
    client: _Client,
) -> dict:
    """Execute one trial end to end; always returns a record, never raises."""
    spec = cfg.conditions[condition_index]
    seed = derive_seed(cfg.master_seed, condition_index, length, replicate)
    pair = sample_pair(grammar, length, rng_seed=seed)
    source = " ".join(pair.source)
    gold = " ".join(pair.target)
    prompt = render_prompt(grammar, pair.source)

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    status = "ok"
    error = None
    response = None
    try:
        response = client(prompt, gold, source)
    except Exception as exc:  # noqa: BLE001 - failures become failed trials
        status = "transport_failed"
        error = str(exc)
    elapsed = time.perf_counter() - t0

    words = answer_words(response)
    if status == "ok" and words is None:
        status = "extraction_failed"
    verdict = judge(grammar, pair.source, gold, words, cfg.translate_cap, get_script(spec.script_tgt))
    return {
        "schema_version": SCHEMA_VERSION,
        "trial_id": trial_id(condition_index, length, replicate),
        "condition_index": condition_index,
        "grammar_size": spec.size,
        "length": length,
        "replicate": replicate,
        "seed": seed,
        "source": source,
        "gold": gold,
        "gold_set_size": verdict.gold_set_size,
        "golds_overflowed": verdict.overflowed,
        "prompt_sha256": _sha256(prompt),
        "response": response,
        "status": status,
        "error": error,
        "scores": verdict.scores.as_dict(),
        "labels": [] if status == "transport_failed" else verdict.labels,  # an unanswered trial has none
        "endpoint": cfg.endpoint.metadata(),
        "timing": {"started_at": started, "elapsed_s": elapsed},
    }


# The fields a log's readers use, each checked on every record read: the
# trial id keys a resume, and the scores and the group keys of report.AXES
# make the report.
_GROUP_KEYS = tuple(key for _, key, _, _ in AXES)


def _version_error(record: dict) -> str | None:
    """What is wrong with ``record``'s ``schema_version``, or None: when
    present (a missing one reads as 1), it must be a whole number from 1 to
    :data:`SCHEMA_VERSION` (a bool is not one)."""
    version = record.get("schema_version", 1)
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        return f"schema_version must be a whole number from 1 to {SCHEMA_VERSION}: {version!r}"
    return None


def _record_error(record: dict) -> str | None:
    """What is wrong with the fields a log's readers use in ``record``, or
    None: ``schema_version`` as :func:`_version_error` says, ``trial_id`` a
    string, each of the four ``scores`` a finite number and each group key a
    whole number (a bool is neither)."""
    if error := _version_error(record):
        return error
    if type(record.get("trial_id")) is not str:
        return f"trial_id must be a string: {record.get('trial_id')!r}"
    scores = record.get("scores")
    if type(scores) is not dict:
        return f"scores must be an object: {scores!r}"
    for metric in METRICS:
        value = scores.get(metric)
        # NaN, the infinities and ints beyond float range fail the bound
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            return f"scores {metric} must be a finite number: {value!r}"
    for key in _GROUP_KEYS:
        if type(record.get(key)) is not int:
            return f"{key} must be a whole number: {record.get(key)!r}"
    return None


class LogRecords:
    """The records of a run log, in one forward pass, as an iterable used once.

    A line is a record once its newline is written: a last line without one
    is a torn append (a run cut mid-write), neither a record nor corrupt.  A
    whole line that is not a JSON object (bad JSON, UTF-8 cut mid-character,
    or JSON of another type), or one whose fields :func:`_record_error` finds
    wrong, is corrupt: it is skipped and counted in ``corrupt``, and
    ``first_error`` names the first by file, line and field.
    A record whose trial id an earlier record has is skipped and counted in
    ``repeated``; :meth:`warnings` words both counts for the readers.
    Records are yielded as the line holds them.  ``log`` is a binary file
    open at its start, which the pass leaves at the end of the whole lines,
    where a resume truncates it.
    """

    def __init__(self, log: BinaryIO):
        self.log = log
        self.corrupt = 0
        self.first_error: str | None = None
        self.repeated = 0

    def __iter__(self) -> Iterator[dict]:
        seen = set()
        for number, line in enumerate(self.log, 1):
            if not line.endswith(b"\n"):  # only ever the last line
                self.log.seek(-len(line), os.SEEK_CUR)
                return
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):  # RecursionError: nested too deep to parse
                record = None
            error = _record_error(record) if isinstance(record, dict) else "not a JSON object"
            if error:
                self.corrupt += 1
                if self.first_error is None:
                    self.first_error = f"{self._name()} line {number}: {error}"
            elif record["trial_id"] in seen:
                self.repeated += 1
            else:
                seen.add(record["trial_id"])
                yield record

    def _name(self) -> str:
        return getattr(self.log, "name", "log")

    def warnings(self) -> list[str]:
        """One line for the corrupt lines and one for the repeated trial ids
        that the pass skipped, each only when there were some."""
        lines = []
        if self.corrupt:
            lines.append(f"skipped {self.corrupt} corrupt line(s) in {self._name()} (first: {self.first_error})")
        if self.repeated:
            lines.append(f"skipped {self.repeated} repeated trial id(s) in {self._name()}")
        return lines


def answer_words(response: str | None) -> list[str] | None:
    """The words of the answer in a trial's ``response`` (as a schema-2
    record's ``extracted`` field held them): None for a failed transport (no
    response) or a response without the answer marker."""
    words = None if response is None else extract_answer(response)
    return None if words is None else list(words)


def _check_answer(record: dict) -> None:
    """``ValueError`` unless the answer in a schema-3 ``record``'s response
    agrees with what the record says was scored: there is one exactly when
    the trial is ``ok``, and an exact answer whose gold set is the gold alone
    is the gold.  So a later change to the answer rule fails loudly on a log
    the old rule scored."""
    words = answer_words(record["response"])
    status = record["status"]
    if (words is None) != (status != "ok"):
        raise ValueError(f"the answer in its response is {words!r} for status {status!r}")
    if (status == "ok" and record["scores"]["exact"] == 1 and record["gold_set_size"] == 1
            and not record["golds_overflowed"] and " ".join(words) != record["gold"]):
        raise ValueError(f"the answer in its response, {words!r}, is not the gold its exact score says it is")


def read_log(log: str | Path | BinaryIO) -> list[dict]:
    """The records of a run log (a path, or a binary file open at its start),
    each as its line holds it, as :class:`LogRecords` reads them.  A schema-3
    record whose response disagrees with its status or exact score raises
    ``ValueError`` naming the trial (see :func:`_check_answer`).  Corrupt
    lines and repeated trial ids are skipped with a warning on this module's
    logger, and a missing path has no records."""
    if isinstance(log, (str, os.PathLike)):
        if not os.path.exists(log):
            return []
        with open(log, "rb") as fh:
            return read_log(fh)
    records = LogRecords(log)
    listed = []
    for record in records:
        if record.get("schema_version") == SCHEMA_VERSION:
            try:
                _check_answer(record)
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise ValueError(f"{record['trial_id']} in {getattr(log, 'name', log)}: {exc}") from None
        listed.append(record)
    for warning in records.warnings():
        logger.warning("%s", warning)
    return listed


def _manifest(cfg: ExperimentConfig, conditions: list[dict]) -> dict:
    from . import __version__  # the package imports this module first

    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "conditions": conditions,
    }


def _condition_entry(spec: GrammarSpec, grammar: SyncGrammar) -> dict:
    text = grammar.compiled.text
    return {"spec": spec.to_dict(), "grammar_sha256": _sha256(text), "grammar": text}


def _write_manifest(path: Path, manifest: dict) -> None:
    """Write the manifest whole or not at all: to a temporary file, then
    renamed over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def read_manifest(run_dir: str | Path) -> dict:
    """The manifest (``run.json``) of the run in ``run_dir``."""
    return json.loads((Path(run_dir) / MANIFEST_NAME).read_text("utf-8"))


def record_prompt(run_dir: str | Path, record: dict) -> str:
    """The prompt the trial of ``record`` sent, rebuilt from the manifest of
    the run in ``run_dir`` and checked against the record's ``prompt_sha256``
    (``ValueError`` on a mismatch, when its ``schema_version`` is not one a
    log may hold, or when its ``condition_index`` is not an int naming a
    condition of the manifest).  A schema-1 record holds its prompt."""
    if error := _version_error(record):
        raise ValueError(f"{record['trial_id']}: {error}")
    if record.get("schema_version", 1) < 2:
        return record["prompt"]
    conditions = read_manifest(run_dir)["conditions"]
    index = record["condition_index"]
    if type(index) is not int or not 0 <= index < len(conditions):  # -1 or True would pick one
        raise ValueError(f"{record['trial_id']}: condition_index {index!r} names no condition of {MANIFEST_NAME}")
    prompt = render_prompt_from_text(conditions[index]["grammar"], record["source"])
    if _sha256(prompt) != record["prompt_sha256"]:
        raise ValueError(
            f"{record['trial_id']}: the prompt rebuilt from {MANIFEST_NAME} does not match "
            "the record's prompt_sha256"
        )
    return prompt


def _check_resumable(cfg: ExperimentConfig, manifest: dict) -> None:
    """Refuse to resume a log made under other grammars, seeds or model."""
    now, then = cfg.to_dict(), manifest["config"]
    changed = [key for key in _RESUME_KEYS if now[key] != then.get(key)]
    if changed:
        raise ValueError(
            f"{cfg.out_dir} holds a run made with other {', '.join(changed)}; "
            "resume with its config, or use another out_dir or resume=False"
        )


class Run:
    """One run (or resume) of ``cfg``'s grid, set up when it is made; its
    trials run as it is iterated, once.

    Making it reads a resumed log and writes the manifest, as
    :func:`run_experiment` describes; ``prior`` holds the records the log
    already had.  Iterating it runs the trials left and yields each record
    once its line is written; ``logged`` counts the records in the log,
    ``prior`` included.

    The iterating thread is the only one that writes the log.  It walks the
    trials in grid order and keeps a one-shot ``SimpleQueue`` for each trial
    started and not written.  At ``max_parallel`` 1 it runs each trial itself
    and writes the record at once; what a trial raises is raised at once.
    Above 1, it hands each trial with its queue to ``max_parallel`` helper
    threads, and starts trial ``i`` only while ``i`` is less than the first
    unwritten trial plus ``2 * max_parallel``.  It waits on the oldest queue,
    writes its record as one line, flushed, and yields it; a helper puts what
    its trial raised in the queue, and it is raised when that trial comes
    up.  On an exception, Ctrl-C or an early close, no trial starts after it,
    the helpers finish the trials they run, and the records that follow the
    last one written are written up to the first trial without one.  The
    iterating thread waits only in ``SimpleQueue.get`` and ``Thread.join``,
    which an interrupt leaves holding no lock (an interrupt inside an
    executor's ``Condition`` can leave its lock held and hang the run).
    """

    def __init__(self, cfg: ExperimentConfig, resume: bool = True):
        self.cfg = cfg
        out_dir = Path(cfg.out_dir)
        self._log_path = out_dir / "runs.jsonl"
        manifest_path = out_dir / MANIFEST_NAME
        self.prior: list[dict] = []
        manifest = None
        if resume and self._log_path.exists():
            if manifest_path.exists():
                manifest = read_manifest(out_dir)
            with self._log_path.open("r+b") as fh:
                self.prior = read_log(fh)  # leaves fh at the end of the last whole line
                if manifest is None and any(r.get("schema_version", 1) != 1 for r in self.prior):
                    raise ValueError(f"{self._log_path} holds records written under a manifest, and "
                                     f"{manifest_path} is missing; restore it, or use another out_dir or resume=False")
                if fh.tell() < os.fstat(fh.fileno()).st_size:
                    fh.truncate()
        done = {r["trial_id"] for r in self.prior}

        def todo():  # lazily, so memory does not grow with the grid
            return (
                (ci, length, rep)
                for ci in range(len(cfg.conditions))
                for length in cfg.lengths
                for rep in range(cfg.n_per_cell)
                if trial_id(ci, length, rep) not in done
            )

        # a log with records and no manifest predates manifests: it gets one now
        if manifest is None or not self.prior:
            grammars = {ci: generate(spec) for ci, spec in enumerate(cfg.conditions)}
            entries = [_condition_entry(spec, grammars[ci]) for ci, spec in enumerate(cfg.conditions)]
            out_dir.mkdir(parents=True, exist_ok=True)  # only once every spec has generated
            if not resume:
                self._log_path.unlink(missing_ok=True)
            _write_manifest(manifest_path, _manifest(cfg, entries))
        else:
            _check_resumable(cfg, manifest)
            grammars = {ci: generate(cfg.conditions[ci]) for ci in sorted({ci for ci, _, _ in todo()})}
            for ci, grammar in grammars.items():
                if _sha256(grammar.compiled.text) != manifest["conditions"][ci]["grammar_sha256"]:
                    raise ValueError(
                        f"condition {ci} generates a grammar other than the one in {manifest_path}"
                    )
            if manifest["config"] != cfg.to_dict():
                _write_manifest(manifest_path, _manifest(cfg, manifest["conditions"]))
        self._grammars = grammars
        self._client = _Client(cfg)
        self._todo = todo()
        self._appended = 0  # lines this run wrote to the log

    @property
    def logged(self) -> int:
        """The number of records in the log."""
        return len(self.prior) + self._appended

    def __iter__(self) -> Iterator[dict]:
        todo, self._todo = self._todo, iter(())  # a second iteration has nothing to do
        parallel = self.cfg.max_parallel
        jobs: SimpleQueue = SimpleQueue()  # (trial, its one-shot queue), read by the helpers
        helpers = [threading.Thread(target=self._help, args=(jobs,), daemon=True)
                   for _ in range(parallel if parallel > 1 else 0)]
        window = 2 * parallel if helpers else 1
        pending: deque[SimpleQueue] = deque()  # one queue per trial started and not written, in grid order
        with self._log_path.open("a", encoding="utf-8") as log:
            for helper in helpers:
                helper.start()
            try:
                while True:
                    while len(pending) < window and (trial := next(todo, None)):
                        done = SimpleQueue()
                        pending.append(done)
                        if helpers:
                            jobs.put((trial, done))
                        else:
                            done.put(self._run(trial))
                    if not pending:
                        return
                    # An interrupt that lands as get returns drops the
                    # record: its trial counts as unfinished, and the
                    # finally clause stops at its queue, now empty.
                    record = pending[0].get()
                    if isinstance(record, BaseException):
                        raise record
                    self._append(log, record)
                    pending.popleft()
                    yield record
            finally:
                with suppress(Empty):  # no trial starts from here on
                    while True:
                        jobs.get_nowait()
                for _ in helpers:
                    jobs.put(None)
                for helper in helpers:
                    helper.join()
                for done in pending:  # no thread puts any more
                    record = None if done.empty() else done.get()
                    if not isinstance(record, dict):
                        break
                    self._append(log, record)

    def _help(self, jobs: SimpleQueue) -> None:
        while (job := jobs.get()) is not None:
            trial, done = job
            try:
                done.put(self._run(trial))
            except BaseException as exc:  # raised in the iterating thread when this trial comes up
                done.put(exc)

    def _run(self, trial: tuple[int, int, int]) -> dict:
        ci, length, rep = trial
        return run_trial(self.cfg, self._grammars[ci], ci, length, rep, self._client)

    def _append(self, log: TextIO, record: dict) -> None:
        """Write ``record`` to ``log`` as one line, flushed."""
        line = json.dumps(record, ensure_ascii=False) + "\n"
        # No call comes between these two statements, so an interrupt lands
        # before or after both, and ``logged`` counts each line written.
        self._appended += 1
        log.write(line)
        log.flush()


def run_experiment(cfg: ExperimentConfig, resume: bool = True) -> list[dict]:
    """Run (or resume) the full grid; returns all records including prior ones.

    Each finished trial's record is appended to ``<out_dir>/runs.jsonl``
    as one line, by :class:`Run`.  Records are written in grid order
    (conditions x lengths x replicates) so identical configs yield identical
    logs up to timing fields.  A resumed
    log is read in one pass that also cuts off a torn last line, so the log
    on disk reads back to exactly the records returned.  A log of schema-1
    records alone predates manifests and is adopted under ``cfg``; a log
    with any other record and no manifest raises ``ValueError`` naming the
    missing ``run.json``, and is left as it was.

    A new log starts with ``<out_dir>/run.json``, the run's manifest.  A log
    with records resumed under its manifest generates only the conditions
    with trials left, so a finished run generates nothing.  Before any trial
    runs, it raises ``ValueError`` when the config differs from the
    manifest's in its conditions, master seed, enumeration cap or model, or
    when a condition now generates another grammar; any other change of
    config (a larger grid, say) is written to the manifest.
    """
    run = Run(cfg, resume)
    return run.prior + list(run)
