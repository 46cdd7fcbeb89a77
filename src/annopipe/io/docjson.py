"""Native JSON serialization: lossless round-trip of the full core model.

Span encoding: original spans as {"s": int, "e": int}, modified spans as
{"len": int, "replaced": [{"s": .., "e": ..}, ...]}.
"""

from __future__ import annotations

import json

from ..core import Annotation, Attribute, Document, Entity, Relation, Segment
from ..exceptions import JSON_SCALAR, AnnopipeError, ConfigError, MalformedJsonError, expect_json
from ..spans import AnySpan, ModifiedSpan, Span


def _span_to_obj(span: AnySpan) -> dict:
    if isinstance(span, Span):
        return {"s": span.start, "e": span.end}
    return {"len": span.length, "replaced": [{"s": r.start, "e": r.end} for r in span.replaced]}


def _get(obj: dict, key: str, kind, default=None):
    """``obj[key]``, or ``default`` if given for a missing key, of JSON type ``kind``."""
    if default is None and key not in obj:
        raise MalformedJsonError(f"missing key {key!r}")
    return expect_json(obj.get(key, default), kind, f'"{key}"')


def _original(obj) -> Span:
    obj = expect_json(obj, dict, "each span")
    return Span(_get(obj, "s", int), _get(obj, "e", int))


def _span_from_obj(obj) -> AnySpan:
    if "len" not in expect_json(obj, dict, "each span"):
        return _original(obj)
    replaced = _get(obj, "replaced", list, [])
    return ModifiedSpan(_get(obj, "len", int), tuple(map(_original, replaced)))


def _attr_from_obj(obj) -> Attribute:
    obj = expect_json(obj, dict, "each attribute")
    value = _get(obj, "value", JSON_SCALAR)
    return Attribute(id=_get(obj, "id", str), label=_get(obj, "label", str), value=value)


_KINDS = {"annotation": Annotation, "segment": Segment, "entity": Entity, "relation": Relation}


def _ann_to_obj(ann: Annotation) -> dict:
    obj = {
        "id": ann.id,
        "label": ann.label,
        "attributes": [{"id": a.id, "label": a.label, "value": a.value} for a in ann.attributes],
        "metadata": ann.metadata,
        # The most specific kind: Entity and Relation are listed after their bases.
        "kind": next(k for k, cls in reversed(_KINDS.items()) if isinstance(ann, cls)),
    }
    if isinstance(ann, Segment):
        obj["text"] = ann.text
        obj["spans"] = [_span_to_obj(s) for s in ann.spans]
    elif isinstance(ann, Relation):
        obj["source_id"] = ann.source_id
        obj["target_id"] = ann.target_id
    return obj


def _ann_from_obj(obj, raw: str) -> Annotation:
    """The annotation ``obj`` states; each original span of a segment must
    read in its text as in the document's raw text ``raw``."""
    obj = expect_json(obj, dict, "each annotation")
    common = dict(
        id=_get(obj, "id", str),
        label=_get(obj, "label", str),
        attributes=[_attr_from_obj(a) for a in _get(obj, "attributes", list, [])],
        metadata=_get(obj, "metadata", dict, {}),
    )
    kind = _get(obj, "kind", str, "annotation")
    if kind not in _KINDS:
        raise MalformedJsonError(f'"kind" must be one of {", ".join(_KINDS)}, not {kind!r}')
    if kind == "relation":
        common.update((key, _get(obj, key, str)) for key in ("source_id", "target_id"))
    if kind in ("annotation", "relation"):
        return _KINDS[kind](**common)
    spans = [_span_from_obj(s) for s in _get(obj, "spans", list)]
    seg = _KINDS[kind](text=_get(obj, "text", str), spans=spans, **common)
    if mismatch := _text_mismatch(seg, raw):
        raise MalformedJsonError(mismatch)
    return seg


def _text_mismatch(seg: Segment, raw: str) -> str:
    """How ``seg``'s text under its first original span that reads otherwise
    in the raw text ``raw`` differs from it, or "" if none does."""
    start = 0
    for span in seg.spans:
        text, start = seg.text[start:start + span.length], start + span.length
        if isinstance(span, Span) and text != raw[span.start:span.end]:
            return (f"span ({span.start}, {span.end}): text {text!r} does not match "
                    f"document slice {raw[span.start:span.end]!r}")
    return ""


def serialize_document_json(doc: Document) -> str:
    """``doc`` as native JSON; ConfigError, as parse_document_json would not
    read it back, for a relation naming an annotation ``doc`` does not hold
    and for a segment whose text under an original span is not the raw text's."""
    for ann in doc.annotations:
        if isinstance(ann, Segment) and (mismatch := _text_mismatch(ann, doc.text)):
            raise ConfigError(f"annotation {ann.id}: {mismatch}")
        for key in ("source_id", "target_id") if isinstance(ann, Relation) else ():
            if doc.get_annotation(named := getattr(ann, key)) is None:
                raise ConfigError(f'annotation {ann.id}: "{key}" names no annotation: {named!r}')
    obj = {
        "id": doc.id,
        "text": doc.text,
        "metadata": doc.metadata,
        "annotations": [_ann_to_obj(a) for a in doc.annotations],
    }
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def parse_document_json(text: str) -> Document:
    try:
        obj = expect_json(json.loads(text), dict, "the document")
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    doc = Document(text=_get(obj, "text", str), metadata=_get(obj, "metadata", dict, {}))
    doc.id = _get(obj, "id", str, "") or doc.id
    for index, ann_obj in enumerate(_get(obj, "annotations", list, [])):
        try:
            doc.attach(_ann_from_obj(ann_obj, doc.text))
        except (AnnopipeError, ValueError) as exc:
            raise MalformedJsonError(f"annotation {index}: {exc}") from exc
    # A relation may name an annotation listed after it, so ids are checked once all are in.
    for index, ann in enumerate(doc.annotations):
        for key in ("source_id", "target_id") if isinstance(ann, Relation) else ():
            named = getattr(ann, key)
            if doc.get_annotation(named) is None:
                where = f'annotation {index}: "{key}"'
                raise MalformedJsonError(f"{where} names no annotation: {named!r}")
    return doc
