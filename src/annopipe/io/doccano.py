"""Doccano sequence-labeling JSONL: one JSON object per line.

Layout: {"text": "...", "label": [[start, end, "Label"], ...]}. The format
cannot express discontinuous spans; on export only the first merged fragment
is written and a warning is logged.
"""

from __future__ import annotations

import json

from . import _logger
from ..core import Document, Entity, create_document
from ..exceptions import MalformedJsonError, OutOfBoundsError, expect_json
from ..spans import Span


def parse_doccano_jsonl(line: str) -> tuple[Document, list[Entity]]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    if "text" not in expect_json(obj, dict, "the record"):
        raise MalformedJsonError('missing "text" key')
    text = expect_json(obj["text"], str, '"text"')
    doc = create_document(text)
    entities = []
    for index, triple in enumerate(expect_json(obj.get("label", []), list, '"label"')):
        where = f"label {index}"
        if len(expect_json(triple, list, where)) != 3 or triple[2] == "":
            raise MalformedJsonError(f"{where}: bad label triple {triple!r}")
        start, end = (expect_json(offset, int, f"{where}: each offset") for offset in triple[:2])
        label = expect_json(triple[2], str, f"{where}: the label")
        if start < 0 or end > len(text) or start > end:
            raise OutOfBoundsError(
                f"label span ({start}, {end}) out of bounds for length {len(text)}"
            )
        entity = Entity(label=label, text=text[start:end], spans=[Span(start, end)])
        doc.attach(entity)
        entities.append(entity)
    return doc, entities


def emit_doccano_jsonl(doc: Document, entities: list[Entity]) -> str:
    """One JSONL line for a document; lossy on discontinuous entities."""
    labels = []
    for entity in entities:
        fragments = entity.normalized_spans()
        if not fragments:
            _logger(__name__).warning("entity %s projects to nothing; skipped", entity.id)
            continue
        if len(fragments) > 1:
            _logger(__name__).warning(
                "entity %s is discontinuous; exporting first fragment only", entity.id
            )
        labels.append([fragments[0].start, fragments[0].end, entity.label])
    return json.dumps({"text": doc.text, "label": labels}, ensure_ascii=False)
