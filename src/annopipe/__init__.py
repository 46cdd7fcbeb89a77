"""annopipe: composable clinical-text annotation pipelines.

Non-destructive text processing with span provenance, rule-based NER and
context detection, Brat/Doccano/JSON converters, PROV-style provenance
tracing, and entity-level evaluation.

Each public name is imported from its submodule the first time it is read
(PEP 562), so a process loads only the modules it uses.
"""

__version__ = "0.1.0"


def _lazy(package: str, names: dict) -> tuple:
    """``(__all__, __getattr__, __dir__)`` of ``package``, whose public names
    are those of ``names`` (submodule -> names it defines), read on access."""
    import sys
    from importlib import import_module

    source = {name: module for module, defined in names.items() for name in defined}

    def __getattr__(name):
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # Not stored in the package, so a name always reads what its module holds.
        return getattr(import_module(f"{package}.{source[name]}"), name)

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(source))

    return list(source), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy(__name__, {
    "core": (
        "Document", "Annotation", "Segment", "Entity", "Relation", "Attribute",
        "create_document", "full_text_segment",
    ),
    "spans": (
        "Span", "ModifiedSpan", "span_length", "extract", "extract_each", "replace",
        "remove", "insert", "concatenate", "normalize_spans",
    ),
    "provenance": (
        "OperationDescriptor", "Tracer", "VerbosityLevel", "ProvGraph", "build_graph",
        "export_prov", "parse_prov_json",
    ),
    "pipeline": (
        "PipelineSpec", "PipelineStep", "OperationRegistry", "default_registry",
        "register_operation", "as_operation", "compile_pipeline", "validate_pipeline",
        "run_pipeline",
    ),
    "evaluation": ("MatchSpec", "Metrics", "align_entities", "score", "evaluate", "compare_runs"),
})
