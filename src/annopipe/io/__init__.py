from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "brat": ("parse_brat", "emit_brat"),
    "doccano": ("parse_doccano_jsonl", "emit_doccano_jsonl"),
    "docjson": ("serialize_document_json", "parse_document_json"),
    "textdir": ("load_text_documents",),
})


def _logger(name):
    """The logger ``name``; logging is imported only when something is logged."""
    import logging

    return logging.getLogger(name)
