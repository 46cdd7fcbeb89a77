import pytest

from annopipe.core import (
    Annotation,
    Attribute,
    Document,
    Entity,
    Relation,
    Segment,
    create_document,
    full_text_segment,
    new_id,
)
from annopipe.exceptions import DuplicateIdError, OutOfBoundsError
from annopipe.spans import ModifiedSpan, Span


class TestAttribute:
    def test_defaults(self):
        attr = Attribute(label="is_negated")
        assert attr.value is None
        assert attr.id

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            Attribute(label="")


class TestAnnotation:
    def test_fresh_ids_differ(self):
        assert Annotation(label="x").id != Annotation(label="x").id

    def test_new_id_is_32_lowercase_hex_digits_and_unique(self):
        ids = [new_id() for _ in range(100_000)]
        assert all(len(i) == 32 and set(i) <= set("0123456789abcdef") for i in ids)
        assert len(set(ids)) == len(ids)

    def test_duplicate_attribute_ids_rejected(self):
        attr = Attribute(label="a", value=1)
        with pytest.raises(DuplicateIdError):
            Annotation(label="x", attributes=[attr, attr])

    def test_get_attribute(self):
        ann = Annotation(label="x", attributes=[Attribute(label="a", value=3)])
        assert ann.get_attribute("a").value == 3
        assert ann.get_attribute("missing") is None


class TestSegment:
    def test_span_length_must_match_text(self):
        with pytest.raises(ValueError):
            Segment(label="s", text="abc", spans=[Span(0, 2)])

    def test_empty_spans_allowed(self):
        seg = Segment(label="s", text="abc")
        assert seg.spans == []

    def test_normalized_spans(self):
        seg = Segment(
            label="s",
            text="ab-cd",
            spans=[Span(0, 2), ModifiedSpan(1), Span(2, 4)],
        )
        assert seg.normalized_spans() == [Span(0, 4)]


class TestRelation:
    def test_source_target_must_differ(self):
        with pytest.raises(ValueError):
            Relation(label="r", source_id="x", target_id="x")


class TestDocument:
    def test_attach_and_order(self):
        doc = create_document("Hello world")
        e1 = Entity(label="A", text="Hello", spans=[Span(0, 5)])
        e2 = Entity(label="B", text="world", spans=[Span(6, 11)])
        doc.attach(e1).attach(e2)
        assert [a.label for a in doc.annotations] == ["A", "B"]

    def test_label_filter(self):
        doc = create_document("Hello world")
        doc.attach(Entity(label="A", text="Hello", spans=[Span(0, 5)]))
        doc.attach(Entity(label="B", text="world", spans=[Span(6, 11)]))
        assert [a.text for a in doc.get_annotations("B")] == ["world"]

    def test_duplicate_id_rejected(self):
        doc = create_document("Hello")
        ent = Entity(label="A", text="He", spans=[Span(0, 2)])
        doc.attach(ent)
        with pytest.raises(DuplicateIdError):
            doc.attach(ent)

    def test_out_of_bounds_segment_rejected(self):
        doc = create_document("ab")
        with pytest.raises(OutOfBoundsError):
            doc.attach(Entity(label="A", text="abc", spans=[Span(0, 3)]))

    def test_get_annotation_by_id(self):
        doc = create_document("ab")
        ent = Entity(label="A", text="a", spans=[Span(0, 1)])
        doc.attach(ent)
        assert doc.get_annotation(ent.id) is ent
        assert doc.get_annotation("nope") is None


class TestFullTextSegment:
    def test_covers_whole_text(self):
        doc = create_document("Hello")
        seg = full_text_segment(doc)
        assert seg.text == "Hello"
        assert seg.spans == [Span(0, 5)]

    def test_empty_document(self):
        seg = full_text_segment(create_document(""))
        assert seg.text == ""
        assert seg.spans == []
