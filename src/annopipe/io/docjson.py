"""Native JSON serialization: lossless round-trip of the full core model.

Span encoding: original spans as {"s": int, "e": int}, modified spans as
{"len": int, "replaced": [{"s": .., "e": ..}, ...]}.
"""

from __future__ import annotations

import json

from ..core import Annotation, Attribute, Document, Entity, Relation, Segment
from ..exceptions import MalformedJsonError
from ..spans import AnySpan, ModifiedSpan, Span


def _span_to_obj(span: AnySpan) -> dict:
    if isinstance(span, Span):
        return {"s": span.start, "e": span.end}
    return {"len": span.length, "replaced": [{"s": r.start, "e": r.end} for r in span.replaced]}


def _int(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, not {value!r}")
    return value


def _str(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, not {value!r}")
    return value


def _object(obj: dict, key: str) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be an object, not {value!r}")
    return value


def _span_from_obj(obj: dict) -> AnySpan:
    if "len" in obj:
        return ModifiedSpan(
            _int(obj, "len"),
            tuple(Span(_int(r, "s"), _int(r, "e")) for r in obj.get("replaced", [])),
        )
    return Span(_int(obj, "s"), _int(obj, "e"))


def _attr_to_obj(attr: Attribute) -> dict:
    return {"id": attr.id, "label": attr.label, "value": attr.value}


def _ann_to_obj(ann: Annotation) -> dict:
    obj = {
        "id": ann.id,
        "label": ann.label,
        "attributes": [_attr_to_obj(a) for a in ann.attributes],
        "metadata": ann.metadata,
    }
    if isinstance(ann, Segment):
        obj["kind"] = "entity" if isinstance(ann, Entity) else "segment"
        obj["text"] = ann.text
        obj["spans"] = [_span_to_obj(s) for s in ann.spans]
    elif isinstance(ann, Relation):
        obj["kind"] = "relation"
        obj["source_id"] = ann.source_id
        obj["target_id"] = ann.target_id
    else:
        obj["kind"] = "annotation"
    return obj


def _ann_from_obj(obj: dict) -> Annotation:
    common = dict(
        id=_str(obj, "id"),
        label=_str(obj, "label"),
        attributes=[
            Attribute(id=_str(a, "id"), label=_str(a, "label"), value=a["value"])
            for a in obj.get("attributes", [])
        ],
        metadata=_object(obj, "metadata"),
    )
    kind = obj.get("kind", "annotation")
    if kind in ("segment", "entity"):
        cls = Entity if kind == "entity" else Segment
        return cls(
            text=_str(obj, "text"),
            spans=[_span_from_obj(s) for s in obj["spans"]],
            **common,
        )
    if kind == "relation":
        return Relation(source_id=obj["source_id"], target_id=obj["target_id"], **common)
    return Annotation(**common)


def serialize_document_json(doc: Document) -> str:
    obj = {
        "id": doc.id,
        "text": doc.text,
        "metadata": doc.metadata,
        "annotations": [_ann_to_obj(a) for a in doc.annotations],
    }
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def parse_document_json(text: str) -> Document:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "text" not in obj:
        raise MalformedJsonError('missing "text" key')
    if not isinstance(obj["text"], str):
        raise MalformedJsonError('"text" must be a string')
    if not isinstance(obj.get("id", ""), str):
        raise MalformedJsonError('"id" must be a string')
    if not isinstance(obj.get("metadata", {}), dict):
        raise MalformedJsonError('"metadata" must be an object')
    annotations = obj.get("annotations", [])
    if not isinstance(annotations, list):
        raise MalformedJsonError('"annotations" must be a list')
    doc = Document(text=obj["text"], metadata=obj.get("metadata", {}))
    if obj.get("id"):
        doc.id = obj["id"]
    for index, ann_obj in enumerate(annotations):
        try:
            ann = _ann_from_obj(ann_obj)
        except KeyError as exc:
            raise MalformedJsonError(f"annotation {index}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise MalformedJsonError(f"annotation {index}: {exc}") from exc
        doc.attach(ann)
    return doc
