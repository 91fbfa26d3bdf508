"""Synchronous context-free grammar toolkit for translation evaluation.

Generate parameterized paired grammars, sample gold sentence pairs at exact
lengths, enumerate or verify translations, score candidates with standard
MT metrics, label translation errors, and run prompt-based evaluations
against model endpoints.
"""

from .grammar import (
    GrammarError,
    SyncGrammar,
    SyncRule,
    Symbol,
    as_words,
    parse_grammar_text,
    rule_text,
    serialize_grammar,
    word_vocab,
)
from .metagrammar import (
    FEATURES,
    OPEN_CLASSES,
    WORD_ORDERS,
    GrammarSpec,
    SpecError,
    generate,
    generate_with_manifest,
    open_class_counts,
    skeleton_size,
)
from .sampling import (
    Derivation,
    LengthError,
    Sampler,
    SentencePair,
    sample_pair,
)
from .parsing import (
    SourceParseError,
    Translations,
    is_valid_translation,
    merge_features,
    translate,
)
from .metrics import (
    BleuConfig,
    ScoreRecord,
    score_candidate,
)
from .errors import LABELS, aggregate, classify, sorted_labels
from .scripts import (
    SCRIPT_NAMES,
    ScriptSpec,
    get_script,
    load_script_tables,
    script_of,
    transliterate,
)
from .prompts import ANSWER_MARKER, extract_answer, render_prompt
from .harness import (
    EndpointProfile,
    ExperimentConfig,
    RetryPolicy,
    read_log,
    run_experiment,
)
from .report import aggregate_report, bootstrap_ci, write_report
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = [
    "ANSWER_MARKER",
    "BleuConfig",
    "Derivation",
    "EndpointProfile",
    "ExperimentConfig",
    "FEATURES",
    "GrammarError",
    "GrammarSpec",
    "LABELS",
    "LengthError",
    "OPEN_CLASSES",
    "RetryPolicy",
    "SCRIPT_NAMES",
    "Sampler",
    "ScriptSpec",
    "ScoreRecord",
    "SentencePair",
    "SourceParseError",
    "SpecError",
    "SyncGrammar",
    "SyncRule",
    "Symbol",
    "Translations",
    "WORD_ORDERS",
    "aggregate",
    "aggregate_report",
    "as_words",
    "bootstrap_ci",
    "classify",
    "derive_seed",
    "extract_answer",
    "generate",
    "generate_with_manifest",
    "get_script",
    "is_valid_translation",
    "load_script_tables",
    "merge_features",
    "open_class_counts",
    "parse_grammar_text",
    "read_log",
    "render_prompt",
    "rule_text",
    "run_experiment",
    "sample_pair",
    "score_candidate",
    "script_of",
    "serialize_grammar",
    "skeleton_size",
    "sorted_labels",
    "transliterate",
    "translate",
    "word_vocab",
]
