"""Core data model: documents, annotations and attributes.

A Document owns an immutable raw text and an ordered collection of
annotations. Segments and entities carry a span chain mapping their own text
back to the raw document (see :mod:`annopipe.spans`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .exceptions import DuplicateIdError, OutOfBoundsError
from .spans import AnySpan, Span, extract_each, normalize_spans, span_length

ScalarValue = Union[bool, int, float, str, None]


def new_id() -> str:
    """An opaque annotation id: 128 random bits as 32 lowercase hex digits."""
    return os.urandom(16).hex()


@dataclass
class Attribute:
    """A labeled scalar value carried by an annotation (e.g. is_negated=True)."""

    label: str
    value: ScalarValue = None
    id: str = field(default_factory=new_id)

    def __post_init__(self):
        if not self.label:
            raise ValueError("attribute label must be non-empty")


@dataclass
class Annotation:
    """Base class for all annotation kinds."""

    label: str
    attributes: list[Attribute] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    id: str = field(default_factory=new_id)

    def __post_init__(self):
        if not self.label:
            raise ValueError("annotation label must be non-empty")
        seen = set()
        for attr in self.attributes:
            if attr.id in seen:
                raise DuplicateIdError(f"duplicate attribute id {attr.id}")
            seen.add(attr.id)

    def get_attribute(self, label: str) -> Optional[Attribute]:
        for attr in self.attributes:
            if attr.label == label:
                return attr
        return None


@dataclass
class Segment(Annotation):
    """A labeled piece of text with a span chain into the raw document."""

    text: str = ""
    spans: list[AnySpan] = field(default_factory=list)

    def __post_init__(self):
        super().__post_init__()
        if self.spans and span_length(self.spans) != len(self.text):
            raise ValueError(
                f"span chain covers {span_length(self.spans)} code points "
                f"but text has {len(self.text)}"
            )

    def normalized_spans(self) -> list[Span]:
        return normalize_spans(self.spans)

    def normalized_spans_in(self, text: str) -> list[Span]:
        """The normalized spans, checked against the raw ``text``: OutOfBoundsError
        naming the annotation if one runs past its end."""
        ranges = normalize_spans(self.spans)
        if ranges and ranges[-1].end > len(text):
            last = ranges[-1]
            raise OutOfBoundsError(f"annotation {self.id} ({self.label}): span ({last.start}, "
                                   f"{last.end}) exceeds text length {len(text)}")
        return ranges


@dataclass
class Entity(Segment):
    """A recognized mention (drug, date, ...); may carry a norm_id attribute."""


@dataclass
class Relation(Annotation):
    """A directed link between two annotations of the same document."""

    source_id: str = ""
    target_id: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.source_id == self.target_id:
            raise ValueError("relation source and target must differ")


@dataclass
class Document:
    """An immutable raw text plus an ordered collection of annotations."""

    text: str
    metadata: dict = field(default_factory=dict)
    id: str = field(default_factory=new_id)

    def __post_init__(self):
        self._annotations: dict[str, Annotation] = {}

    @property
    def annotations(self) -> list[Annotation]:
        return list(self._annotations.values())

    def attach(self, ann: Annotation) -> "Document":
        """Attach an annotation; segment spans must normalize within bounds."""
        if ann.id in self._annotations:
            raise DuplicateIdError(f"annotation {ann.id} already attached")
        if isinstance(ann, Segment):
            for span in normalize_spans(ann.spans):
                if span.end > len(self.text):
                    raise OutOfBoundsError(
                        f"span ({span.start}, {span.end}) exceeds text "
                        f"length {len(self.text)}"
                    )
        self._annotations[ann.id] = ann
        return self

    def get_annotation(self, ann_id: str) -> Optional[Annotation]:
        return self._annotations.get(ann_id)

    def get_annotations(self, label: Optional[str] = None) -> list[Annotation]:
        """All annotations in attachment order, optionally filtered by label."""
        anns = self.annotations
        if label is None:
            return anns
        return [a for a in anns if a.label == label]


def create_document(text: str, metadata: Optional[dict] = None) -> Document:
    return Document(text=text, metadata=dict(metadata or {}))


def full_text_segment(doc: Document, label: str = "full_text") -> Segment:
    """A segment covering the whole raw text, the entry point of pipelines."""
    spans: list[AnySpan] = [Span(0, len(doc.text))] if doc.text else []
    return Segment(label=label, text=doc.text, spans=spans)


def entities_at(
    seg: Segment, found: Sequence[tuple[int, int, str, list[Attribute]]]
) -> list[Entity]:
    """One entity per ``(start, end, label, attributes)`` range of seg's text,
    in the given order, each cut with its chain back to the raw document."""
    pieces = extract_each(seg.text, seg.spans, [(s, e) for s, e, _, _ in found])
    return [
        Entity(label=label, text=text, spans=spans, attributes=attributes)
        for (_, _, label, attributes), (text, spans) in zip(found, pieces)
    ]
