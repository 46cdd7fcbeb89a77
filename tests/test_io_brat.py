import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe.core import (
    Annotation, Attribute, Entity, Relation, create_document, full_text_segment,
)
from annopipe.exceptions import (
    ConfigError,
    EmptyProjectionError,
    MalformedLineError,
    OutOfBoundsError,
    SurfaceMismatchError,
)
from annopipe.io.brat import emit_brat, parse_brat
from annopipe.spans import ModifiedSpan, Span, span_length
from annopipe.textops import DeidRule, deidentify, match_dates

FIXTURES = Path(__file__).parent / "fixtures" / "brat"


class TestParse:
    def test_continuous_entity(self):
        text = "Patient sous aspirine."
        anns = parse_brat("T1\tDrug 13 21\taspirine\n", text)
        assert len(anns) == 1
        ent = anns[0]
        assert (ent.label, ent.text) == ("Drug", "aspirine")
        assert ent.spans == [Span(13, 21)]

    def test_discontinuous_entity_chain_length_matches_surface(self):
        text = "Douleur forte du genou."
        anns = parse_brat("T1\tSymptom 0 7;14 22\tDouleur du genou\n", text)
        ent = anns[0]
        assert ent.text == "Douleur du genou"
        assert span_length(ent.spans) == len(ent.text)
        assert ent.normalized_spans() == [Span(0, 7), Span(14, 22)]
        assert any(isinstance(s, ModifiedSpan) for s in ent.spans)

    def test_valueless_attribute_is_true(self):
        anns = parse_brat("T1\tDrug 0 3\tabc\nA1\tnegated T1\n")
        assert anns[0].get_attribute("negated").value is True

    def test_valued_attribute(self):
        anns = parse_brat("T1\tDrug 0 3\tabc\nA1\tcertainty T1 high\n")
        assert anns[0].get_attribute("certainty").value == "high"

    def test_relation_links_entity_ids(self):
        anns = parse_brat(
            "T1\tDrug 0 3\tabc\nT2\tProblem 4 7\tdef\nR1\ttreats Arg1:T1 Arg2:T2\n"
        )
        rel = [a for a in anns if isinstance(a, Relation)][0]
        assert rel.source_id == anns[0].id
        assert rel.target_id == anns[1].id

    def test_forward_relation_reference_allowed(self):
        anns = parse_brat(
            "R1\ttreats Arg1:T1 Arg2:T2\nT1\tDrug 0 3\tabc\nT2\tProblem 4 7\tdef\n"
        )
        assert len([a for a in anns if isinstance(a, Relation)]) == 1

    def test_unsupported_sigils_skipped(self, caplog):
        anns = parse_brat("T1\tDrug 0 3\tabc\n#1\tAnnotatorNotes T1 check\n")
        assert len(anns) == 1

    def test_surface_mismatch_carries_details(self):
        with pytest.raises(SurfaceMismatchError) as err:
            parse_brat("T1\tDrug 0 3\txyz\n", "abc def")
        assert err.value.line_no == 1

    def test_no_doc_text_skips_surface_check(self):
        anns = parse_brat("T1\tDrug 0 3\txyz\n")
        assert anns[0].text == "xyz"

    @pytest.mark.parametrize(
        "line", ["T2\tDrug 0 5\tab", "T2\tDrug 0 2\tabc", "T2\tDrug 0 2;3 4\tabc"]
    )
    def test_surface_length_unlike_its_fragments_is_malformed(self, line):
        # Two fragments cover their code points and one separator.
        assert parse_brat("T1\tDrug 0 2;3 4\tab d\n")[0].text == "ab d"
        with pytest.raises(MalformedLineError, match="^line 2: surface .* code points long") as err:
            parse_brat(f"T1\tDrug 0 1\ta\n{line}\n")
        assert err.value.line_no == 2


class TestEmit:
    def test_canonical_numbering_and_order(self):
        doc = create_document("abc def")
        e1 = Entity(label="Drug", text="abc", spans=[Span(0, 3)])
        e2 = Entity(
            label="Drug",
            text="def",
            spans=[Span(4, 7)],
            attributes=[Attribute(label="negated", value=True)],
        )
        rel = Relation(label="after", source_id=e2.id, target_id=e1.id)
        out = emit_brat(doc, [e1, e2, rel])
        assert out == (
            "T1\tDrug 0 3\tabc\n"
            "T2\tDrug 4 7\tdef\n"
            "A1\tnegated T2\n"
            "R1\tafter Arg1:T2 Arg2:T1\n"
        )

    def test_false_and_none_attributes_omitted(self):
        doc = create_document("abc")
        ent = Entity(
            label="D",
            text="abc",
            spans=[Span(0, 3)],
            attributes=[
                Attribute(label="negated", value=False),
                Attribute(label="unset", value=None),
                Attribute(label="dose", value=400),
            ],
        )
        assert emit_brat(doc, [ent]) == "T1\tD 0 3\tabc\nA1\tdose T1 400\n"

    def test_placeholder_entity_rejected(self):
        doc = create_document("abc")
        ent = Entity(label="D", text="xxx", spans=[ModifiedSpan(3)])
        with pytest.raises(EmptyProjectionError):
            emit_brat(doc, [ent])

    def test_entity_past_the_end_of_the_document_is_refused_by_name(self):
        doc = create_document("abc")
        ent = Entity(label="X", text="abcde", spans=[Span(0, 5)])
        named = rf"annotation {ent.id} \(X\): span \(0, 5\) exceeds text length 3"
        with pytest.raises(OutOfBoundsError, match=named):
            emit_brat(doc, [ent])

    def test_entity_found_on_transformed_text_projects_back(self):
        # An entity carrying a chain into replaced text is emitted with the
        # original offsets it stands for.
        doc = create_document("Hello world")
        ent = Entity(label="X", text="there", spans=[ModifiedSpan(5, (Span(6, 11),))])
        assert emit_brat(doc, [ent]) == "T1\tX 6 11\tworld\n"


class TestEmitOneLinePerAnnotation:
    """Line breaks inside an entity end a fragment; what one Brat line cannot
    hold is refused, naming the annotation."""

    @pytest.mark.parametrize(
        "text, fragments, surface",
        [("Né le 12\nmars 1980.", "6 8;9 18", "12 mars 1980"),
         ("Né le 12\r\nmars 1980.", "6 8;10 19", "12 mars 1980")],
    )
    def test_date_across_a_line_break_becomes_two_fragments(self, text, fragments, surface):
        doc = create_document(text)
        out = emit_brat(doc, match_dates(full_text_segment(doc)))
        assert out == f"T1\tdate {fragments}\t{surface}\nA1\tnormalized T1 1980-03-12\n"
        (ent,) = parse_brat(out, text)
        assert (ent.label, ent.text) == ("date", surface)

    def test_entity_ending_in_a_carriage_return_drops_it(self):
        doc = create_document("aspirine\r\n")
        out = emit_brat(doc, [Entity(label="Drug", text="aspirine\r", spans=[Span(0, 9)])])
        assert out == "T1\tDrug 0 8\taspirine\n"
        assert parse_brat(out, doc.text)[0].normalized_spans() == [Span(0, 8)]

    def test_entity_of_only_line_breaks_projects_to_nothing(self):
        doc = create_document("a\r\nb")
        with pytest.raises(EmptyProjectionError):
            emit_brat(doc, [Entity(label="D", text="\r\n", spans=[Span(1, 3)])])

    def test_placeholder_label_with_a_space_is_refused(self):
        doc = create_document("Vu M. Dupont.")
        _, entities = deidentify(full_text_segment(doc), [DeidRule(r"Dupont", "[PATIENT NAME]")])
        with pytest.raises(ConfigError, match=entities[0].id):
            emit_brat(doc, entities)

    @pytest.mark.parametrize(
        "entity_label, attribute, relation_label",
        [
            ("Drug name", None, "after"),
            ("Drug", Attribute("is negated", True), "after"),
            ("Drug", Attribute("note", ""), "after"),
            ("Drug", Attribute("note", "a\nb"), "after"),
            ("Drug", Attribute("note", "a\r"), "after"),
            ("Drug", None, "comes after"),
        ],
    )
    def test_what_one_line_cannot_hold_is_refused(self, entity_label, attribute, relation_label):
        doc = create_document("abc def")
        first = Entity(label=entity_label, text="abc", spans=[Span(0, 3)])
        if attribute:
            first.attributes.append(attribute)
        second = Entity(label="Drug", text="def", spans=[Span(4, 7)])
        rel = Relation(label=relation_label, source_id=first.id, target_id=second.id)
        named = rel.id if relation_label == "comes after" else first.id
        with pytest.raises(ConfigError, match=named):
            emit_brat(doc, [first, second, rel])


@pytest.mark.parametrize("end", ["plain annotation", "entity not passed", "unknown id"])
def test_relation_to_what_is_not_written_is_refused_by_name(end):
    doc = create_document("abc def")
    first = Entity(label="Drug", text="abc", spans=[Span(0, 3)])
    other = {
        "plain annotation": Annotation(label="note"),
        "entity not passed": Entity(label="Drug", text="def", spans=[Span(4, 7)]),
        "unknown id": None,
    }[end]
    rel = Relation(label="after", source_id=first.id, target_id=other.id if other else "zz")
    passed = [first, rel] + ([other] if end == "plain annotation" else [])
    with pytest.raises(ConfigError, match=f"annotation {rel.id}: relation argument "):
        emit_brat(doc, passed)


# Documents with line ends of both kinds, tabs and astral characters.
BRAT_PIECES = ["a", "é", "\U0001F600", " ", "\t", "\n", "\r\n", "\r", ".", "x y"]
brat_labels = st.text(
    st.characters(whitelist_categories=("L", "N", "P", "S")), min_size=1, max_size=6
)
one_line_values = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), min_size=1
)


@st.composite
def brat_documents(draw):
    """A document and entities over random, possibly discontinuous raw ranges."""
    doc = create_document("".join(draw(st.lists(st.sampled_from(BRAT_PIECES), min_size=1))))
    entities = []
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, len(doc.text)), min_size=2, max_size=6)))
        spans = [Span(s, e) for s, e in zip(cuts[::2], cuts[1::2])]
        attributes = [
            Attribute(draw(brat_labels), draw(st.one_of(st.just(True), one_line_values)))
            for _ in range(draw(st.integers(0, 2)))
        ]
        entities.append(Entity(
            label=draw(brat_labels),
            text="".join(doc.text[s.start : s.end] for s in spans),
            spans=spans,
            attributes=attributes,
        ))
    return doc, entities


def _runs_off_line_breaks(text, spans):
    """Maximal runs of the characters ``spans`` cover, line breaks left out."""
    covered = sorted({i for s in spans for i in range(s.start, s.end) if text[i] not in "\r\n"})
    runs = []
    for i in covered:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [Span(s, e) for s, e in runs]


@settings(max_examples=300, deadline=None)
@given(brat_documents())
def test_emit_then_parse_gives_back_labels_and_raw_ranges(drawn):
    doc, entities = drawn
    expected = [_runs_off_line_breaks(doc.text, e.spans) for e in entities]
    for entity, ranges in zip(entities, expected):
        if not ranges:
            with pytest.raises(EmptyProjectionError):
                emit_brat(doc, [entity])
    kept = [(e, ranges) for e, ranges in zip(entities, expected) if ranges]
    first = emit_brat(doc, [e for e, _ in kept])
    parsed = parse_brat(first, doc.text)
    assert [(e.label, e.normalized_spans()) for e in parsed] == [
        (e.label, ranges) for e, ranges in kept
    ]
    assert emit_brat(doc, parsed) == first


class TestFixtureRoundTrip:
    def test_good_fixtures_round_trip_byte_identical(self):
        stems = sorted(p.stem for p in (FIXTURES / "good").glob("*.ann"))
        assert len(stems) == 30
        for stem in stems:
            text = (FIXTURES / "good" / f"{stem}.txt").read_text(encoding="utf-8")
            original = (FIXTURES / "good" / f"{stem}.ann").read_text(encoding="utf-8")
            doc = create_document(text)
            anns = parse_brat(original, text)
            assert emit_brat(doc, anns) == original, stem

    def test_bad_fixtures_fail_on_expected_line(self):
        manifest = json.loads(
            (FIXTURES / "bad" / "manifest.json").read_text(encoding="utf-8")
        )
        assert len(manifest) == 10
        for stem, line_no in manifest.items():
            text = (FIXTURES / "bad" / f"{stem}.txt").read_text(encoding="utf-8")
            ann = (FIXTURES / "bad" / f"{stem}.ann").read_text(encoding="utf-8")
            with pytest.raises((MalformedLineError, SurfaceMismatchError)) as err:
                parse_brat(ann, text)
            assert err.value.line_no == line_no, stem
