"""Doccano sequence-labeling JSONL: one JSON object per line.

Layout: {"text": "...", "label": [[start, end, "Label"], ...]}. A label is one
continuous range, so the writer refuses an entity whose chain projects to
more than one raw range, or to none. Attributes, relations and segments that
are not entities have no place in the format and are not written.
"""

from __future__ import annotations

import json

from ..core import Annotation, Document, Entity, create_document
from ..exceptions import ConfigError, EmptyProjectionError, MalformedJsonError
from ..exceptions import OutOfBoundsError, expect_json
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


def emit_doccano_jsonl(doc: Document, annotations: list[Annotation]) -> str:
    """One JSONL line for a document, one label for each entity among
    ``annotations``. An entity must project to exactly one original span:
    EmptyProjectionError for none, ConfigError for more, and OutOfBoundsError
    for one past the end of the document."""
    labels = []
    for entity in (a for a in annotations if isinstance(a, Entity)):
        fragments = entity.normalized_spans_in(doc.text)
        if len(fragments) != 1:
            error = ConfigError if fragments else EmptyProjectionError
            raise error(f"annotation {entity.id} ({entity.label}) projects to "
                        f"{len(fragments)} original spans; a doccano label holds 1")
        labels.append([fragments[0].start, fragments[0].end, entity.label])
    return json.dumps({"text": doc.text, "label": labels}, ensure_ascii=False)
