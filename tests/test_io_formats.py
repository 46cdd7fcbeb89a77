import json

import pytest

from annopipe.core import Attribute, Entity, Relation, Segment, create_document
from annopipe.exceptions import (
    ConfigError, DecodeError, EmptyProjectionError, MalformedJsonError, OutOfBoundsError,
)
from annopipe.io.doccano import emit_doccano_jsonl, parse_doccano_jsonl
from annopipe.io.docjson import parse_document_json, serialize_document_json
from annopipe.io.textdir import load_text_documents
from annopipe.spans import ModifiedSpan, Span


class TestDoccano:
    def test_parse_line(self):
        doc, entities = parse_doccano_jsonl(
            '{"text": "aspirine 500", "label": [[0, 8, "Drug"]]}'
        )
        assert doc.text == "aspirine 500"
        assert [(e.label, e.text) for e in entities] == [("Drug", "aspirine")]
        assert entities[0].spans == [Span(0, 8)]
        assert doc.annotations == entities

    def test_parse_rejects_bad_json(self):
        with pytest.raises(MalformedJsonError):
            parse_doccano_jsonl("{not json")

    def test_parse_rejects_missing_text(self):
        with pytest.raises(MalformedJsonError):
            parse_doccano_jsonl('{"label": []}')

    def test_parse_rejects_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            parse_doccano_jsonl('{"text": "ab", "label": [[0, 9, "X"]]}')

    def test_round_trip(self):
        line = '{"text": "aspirine 500", "label": [[0, 8, "Drug"]]}'
        doc, entities = parse_doccano_jsonl(line)
        assert json.loads(emit_doccano_jsonl(doc, entities)) == json.loads(line)

    def test_discontinuous_entity_is_refused_by_name(self):
        doc = create_document("Douleur forte du genou")
        ent = Entity(
            label="S",
            text="Douleur genou",
            spans=[Span(0, 7), ModifiedSpan(1), Span(17, 22)],
        )
        with pytest.raises(ConfigError, match=f"annotation {ent.id} .*2 original spans"):
            emit_doccano_jsonl(doc, [ent])

    def test_entity_projecting_to_nothing_is_refused_by_name(self):
        doc = create_document("abc")
        ent = Entity(label="S", text="xyz", spans=[ModifiedSpan(3)])
        with pytest.raises(EmptyProjectionError, match=ent.id):
            emit_doccano_jsonl(doc, [ent])

    def test_entity_past_the_end_of_the_document_is_refused_by_name(self):
        doc = create_document("abc")
        ent = Entity(label="X", text="abcde", spans=[Span(0, 5)])
        named = rf"annotation {ent.id} \(X\): span \(0, 5\) exceeds text length 3"
        with pytest.raises(OutOfBoundsError, match=named):
            emit_doccano_jsonl(doc, [ent])

    def test_what_doccano_cannot_hold_is_left_out(self):
        doc = create_document("aspirine 500")
        ent = Entity(label="Drug", text="aspirine", spans=[Span(0, 8)],
                     attributes=[Attribute(label="is_negated", value=True)])
        sentence = Segment(label="sentence", text="aspirine 500", spans=[Span(0, 12)])
        rel = Relation(label="in", source_id=ent.id, target_id=sentence.id)
        line = emit_doccano_jsonl(doc, [sentence, ent, rel])
        assert json.loads(line) == {"text": "aspirine 500", "label": [[0, 8, "Drug"]]}


MALFORMED_DOCCANO = {
    "text not a string": ('{"text": 5}', '"text"'),
    "string offset": ('{"text": "abc", "label": [["a", 2, "X"]]}', "label 0"),
    "float offset": ('{"text": "abc", "label": [[0, 1, "X"], [0.0, 2, "X"]]}', "label 1"),
    "label not a string": ('{"text": "abc", "label": [[0, 2, 7]]}', "label 0"),
}


@pytest.mark.parametrize("line, where", MALFORMED_DOCCANO.values(), ids=MALFORMED_DOCCANO.keys())
def test_malformed_doccano_record_raises_malformed_json(line, where):
    with pytest.raises(MalformedJsonError, match=where):
        parse_doccano_jsonl(line)


def _break_first_annotation(obj, key, value):
    if value is None:
        del obj["annotations"][0][key]
    else:
        obj["annotations"][0][key] = value


MALFORMED_DOCJSON = {
    "text not a string": (lambda obj: obj.update(text=5), '"text"'),
    "annotations not a list": (lambda obj: obj.update(annotations=5), '"annotations"'),
    "annotation without label": (
        lambda obj: _break_first_annotation(obj, "label", None), "annotation 0: missing key 'label'"
    ),
    "label not a string": (lambda obj: _break_first_annotation(obj, "label", 3), "annotation 0"),
    "span without end": (lambda obj: _break_first_annotation(obj, "spans", [{"s": 0}]), "annotation 0"),
    "string offset": (
        lambda obj: _break_first_annotation(obj, "spans", [{"s": "0", "e": 11}]), "annotation 0"
    ),
    "annotation not an object": (lambda obj: obj.update(annotations=[[]]), "annotation 0"),
    "annotation id not a string": (lambda obj: _break_first_annotation(obj, "id", 7), "annotation 0"),
    "attribute id not a string": (
        lambda obj: _break_first_annotation(
            obj, "attributes", [{"id": 7, "label": "a", "value": True}]
        ),
        "annotation 0",
    ),
    "annotation metadata not an object": (
        lambda obj: _break_first_annotation(obj, "metadata", 5), "annotation 0"
    ),
    "document id not a string": (lambda obj: obj.update(id=7), '"id"'),
    "document metadata not an object": (lambda obj: obj.update(metadata=5), '"metadata"'),
    "relation id not a string": (
        lambda obj: obj["annotations"].append(
            {"id": "r1", "label": "in", "kind": "relation", "source_id": 5, "target_id": "x"}
        ),
        'annotation 1: "source_id" must be a string, not int',
    ),
    "attribute value an object": (
        lambda obj: _break_first_annotation(
            obj, "attributes", [{"id": "a1", "label": "v", "value": {"k": 1}}]
        ),
        'annotation 0: "value" must be a string, number, boolean or null, not dict',
    ),
    "boolean offset": (
        lambda obj: _break_first_annotation(obj, "spans", [{"s": False, "e": 11}]),
        'annotation 0: "s" must be an integer, not bool',
    ),
    "attributes an object": (
        lambda obj: _break_first_annotation(obj, "attributes", {"a1": True}),
        'annotation 0: "attributes" must be a list, not dict',
    ),
    "unknown kind": (
        lambda obj: _break_first_annotation(obj, "kind", "entiy"),
        "annotation 0: \"kind\" must be one of annotation, segment, entity, relation, not 'entiy'",
    ),
    "text unlike the document": (
        lambda obj: _break_first_annotation(obj, "text", "Hello World"),
        r"annotation 0: span \(0, 11\): text 'Hello World' does not match document slice 'Hello world'",
    ),
    "original span past the end of the text": (
        lambda obj: obj["annotations"][0].update(text="Hello world!", spans=[{"s": 0, "e": 12}]),
        r"annotation 0: span \(0, 12\): text 'Hello world!' does not match",
    ),
    "replaced range past the end of the text": (
        lambda obj: _break_first_annotation(
            obj, "spans", [{"len": 11, "replaced": [{"s": 0, "e": 20}]}]
        ),
        r"annotation 0: span \(0, 20\) exceeds text length 11",
    ),
    "repeated id": (
        lambda obj: obj["annotations"].append(dict(obj["annotations"][0])),
        r"annotation 1: annotation \w+ already attached",
    ),
    "relation naming no annotation": (
        lambda obj: obj["annotations"].insert(0, {
            "id": "r1", "label": "in", "kind": "relation",
            "source_id": obj["annotations"][0]["id"], "target_id": "zz",
        }),
        "annotation 0: \"target_id\" names no annotation: 'zz'",
    ),
}


@pytest.mark.parametrize("breakage, where", MALFORMED_DOCJSON.values(), ids=MALFORMED_DOCJSON.keys())
def test_malformed_document_json_raises_malformed_json(breakage, where):
    doc = create_document("Hello world")
    doc.attach(Segment(label="sent", text="Hello world", spans=[Span(0, 11)]))
    obj = json.loads(serialize_document_json(doc))
    breakage(obj)
    with pytest.raises(MalformedJsonError, match=where):
        parse_document_json(json.dumps(obj))


class TestDocumentJson:
    def _sample(self):
        doc = create_document("Hello world", {"filename": "a.txt"})
        seg = Segment(label="sent", text="Hello world", spans=[Span(0, 11)])
        ent = Entity(
            label="X",
            text="there",
            spans=[ModifiedSpan(5, (Span(6, 11),))],
            attributes=[Attribute(label="norm_id", value="N42")],
            metadata={"rule": "r1"},
        )
        doc.attach(seg).attach(ent)
        doc.attach(Relation(label="in", source_id=ent.id, target_id=seg.id))
        return doc

    def test_lossless_round_trip(self):
        doc = self._sample()
        back = parse_document_json(serialize_document_json(doc))
        assert back.id == doc.id
        assert back.text == doc.text
        assert back.metadata == doc.metadata
        assert serialize_document_json(back) == serialize_document_json(doc)

    def test_a_relation_may_come_before_what_it_names(self):
        doc = self._sample()
        obj = json.loads(serialize_document_json(doc))
        obj["annotations"].insert(0, obj["annotations"].pop())
        parsed = parse_document_json(json.dumps(obj))
        assert [a.id for a in parsed.annotations] == [doc.annotations[-1].id] + [
            a.id for a in doc.annotations[:-1]
        ]

    def test_kinds_preserved(self):
        back = parse_document_json(serialize_document_json(self._sample()))
        kinds = [type(a).__name__ for a in back.annotations]
        assert kinds == ["Segment", "Entity", "Relation"]

    def test_modified_span_survives(self):
        back = parse_document_json(serialize_document_json(self._sample()))
        ent = back.get_annotations("X")[0]
        assert ent.spans == [ModifiedSpan(5, (Span(6, 11),))]

    def test_rejects_bad_json(self):
        with pytest.raises(MalformedJsonError):
            parse_document_json("nope")

    def test_writer_refuses_a_relation_naming_no_annotation_of_the_document(self):
        doc = self._sample()
        rel = Relation(label="in", source_id=doc.annotations[0].id, target_id="zz")
        doc.attach(rel)
        named = f"annotation {rel.id}: \"target_id\" names no annotation: 'zz'"
        with pytest.raises(ConfigError, match=named):
            serialize_document_json(doc)


    def test_writer_refuses_a_segment_whose_text_is_not_the_raw_text(self):
        doc = create_document("abc")
        ent = Entity(label="X", text="xyz", spans=[Span(0, 3)])
        doc.attach(ent)
        named = rf"annotation {ent.id}: span \(0, 3\): text 'xyz' does not match document slice"
        with pytest.raises(ConfigError, match=named):
            serialize_document_json(doc)


class TestTextDir:
    def test_loads_directory_in_filename_order(self, tmp_path):
        (tmp_path / "b.txt").write_text("second", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first", encoding="utf-8")
        (tmp_path / "ignored.md").write_text("x", encoding="utf-8")
        docs = load_text_documents(tmp_path)
        assert [d.text for d in docs] == ["first", "second"]
        assert docs[0].metadata["filename"] == "a.txt"

    def test_loads_single_file(self, tmp_path):
        file = tmp_path / "one.txt"
        file.write_text("contenu", encoding="utf-8")
        docs = load_text_documents(file)
        assert len(docs) == 1 and docs[0].text == "contenu"

    def test_decode_error_reports_offset(self, tmp_path):
        file = tmp_path / "bad.txt"
        file.write_bytes(b"ok\xff\xfe")
        with pytest.raises(DecodeError) as err:
            load_text_documents(file)
        assert err.value.byte_offset == 2
