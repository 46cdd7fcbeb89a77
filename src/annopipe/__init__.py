"""annopipe: composable clinical-text annotation pipelines.

Non-destructive text processing with span provenance, rule-based NER and
context detection, Brat/Doccano/JSON converters, PROV-style provenance
tracing, and entity-level evaluation.
"""

from . import ops  # noqa: F401  (populates the default operation registry)
from .core import (
    Annotation,
    Attribute,
    Document,
    Entity,
    Relation,
    Segment,
    create_document,
    full_text_segment,
)
from .evaluation import MatchSpec, Metrics, align_entities, compare_runs, evaluate, score
from .pipeline import (
    OperationRegistry,
    PipelineSpec,
    PipelineStep,
    as_operation,
    compile_pipeline,
    default_registry,
    register_operation,
    run_pipeline,
    validate_pipeline,
)
from .provenance import (
    OperationDescriptor,
    ProvGraph,
    Tracer,
    VerbosityLevel,
    build_graph,
    export_prov,
    parse_prov_json,
)
from .spans import (
    ModifiedSpan,
    Span,
    concatenate,
    extract,
    extract_each,
    insert,
    normalize_spans,
    remove,
    replace,
    span_length,
)

__version__ = "0.1.0"

__all__ = [
    "Document",
    "Annotation",
    "Segment",
    "Entity",
    "Relation",
    "Attribute",
    "create_document",
    "full_text_segment",
    "Span",
    "ModifiedSpan",
    "span_length",
    "extract",
    "extract_each",
    "replace",
    "remove",
    "insert",
    "concatenate",
    "normalize_spans",
    "OperationDescriptor",
    "Tracer",
    "VerbosityLevel",
    "ProvGraph",
    "build_graph",
    "export_prov",
    "parse_prov_json",
    "PipelineSpec",
    "PipelineStep",
    "OperationRegistry",
    "default_registry",
    "register_operation",
    "as_operation",
    "compile_pipeline",
    "validate_pipeline",
    "run_pipeline",
    "MatchSpec",
    "Metrics",
    "align_entities",
    "score",
    "evaluate",
    "compare_runs",
]
