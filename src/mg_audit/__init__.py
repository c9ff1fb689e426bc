"""Audit masculine-generics bias in French corpora and LLM responses."""

__version__ = "0.1.0"

from .agreement import AgreementResult, cohen_kappa
from .analysis import (
    Occurrence,
    TextAnalysis,
    aggregate_m_scores,
    analyze_text,
    bias_rates,
    class_frequencies,
    find_candidates,
)
from .conllu import AnnotatedDocument, AnnotatedToken, read_conllu, write_conllu
from .ensemble import ClassifierMember, EnsembleVerdict, ensemble_classify, train_member
from .features import FeatureResources, FeatureVector, build_feature_vector
from .filters import FilterDecision
from .ingest import ingest_source
from .lexicon import (
    HumanNounDB,
    LexicalEntry,
    MGLexicon,
    annotate_classes,
    extract_mg_subset,
    merge_lexicons,
    recursive_definition_search,
)
from .markers import MarkerLexicon, detect_markers
from .narrowing import apportion, narrow_proportional
from .report import AuditReport, build_report, emit_report
from .validation import build_validation_prompt, parse_validation_response

__all__ = [
    "AgreementResult",
    "AnnotatedDocument",
    "AnnotatedToken",
    "AuditReport",
    "ClassifierMember",
    "EnsembleVerdict",
    "FeatureResources",
    "FeatureVector",
    "FilterDecision",
    "HumanNounDB",
    "LexicalEntry",
    "MGLexicon",
    "MarkerLexicon",
    "Occurrence",
    "TextAnalysis",
    "aggregate_m_scores",
    "analyze_text",
    "annotate_classes",
    "apportion",
    "bias_rates",
    "build_feature_vector",
    "build_report",
    "build_validation_prompt",
    "class_frequencies",
    "cohen_kappa",
    "detect_markers",
    "emit_report",
    "ensemble_classify",
    "extract_mg_subset",
    "find_candidates",
    "ingest_source",
    "merge_lexicons",
    "narrow_proportional",
    "parse_validation_response",
    "read_conllu",
    "recursive_definition_search",
    "train_member",
    "write_conllu",
]
