"""Every writer either refuses a document or writes what its reader gives back:
each entity's label and raw ranges, as the format states them."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe.core import Attribute, Entity, create_document
from annopipe.exceptions import ConfigError, EmptyProjectionError
from annopipe.io.brat import emit_brat, parse_brat
from annopipe.io.doccano import emit_doccano_jsonl, parse_doccano_jsonl
from annopipe.io.docjson import parse_document_json, serialize_document_json
from annopipe.spans import ModifiedSpan, Span

# Line ends of every kind, tabs and astral characters.
PIECES = ["a", "é", "\U0001F600", " ", "\t", "\n", "\r\n", "\r", ".", "x y"]
# Labels and attribute values every format can hold on one line.
labels = st.text(st.characters(whitelist_categories=("L", "N", "P", "S")), min_size=1, max_size=6)
values = st.one_of(
    st.just(True), st.just(False), st.none(), st.integers(-5, 5),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), min_size=1),
)


@st.composite
def chains(draw, text):
    """A span chain over ``text``: original spans, replacements standing for
    one or two raw ranges and insertions standing for none, possibly
    discontinuous, or covering only line breaks."""
    breaks = [m.span() for m in re.finditer(r"[\r\n]+", text)]
    if breaks and draw(st.integers(0, 3)) == 0:
        ranges = [draw(st.sampled_from(breaks))]
    else:
        cuts = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=6)))
        ranges = list(zip(cuts[::2], cuts[1::2]))
    chain = []
    for start, end in ranges:
        kind = draw(st.sampled_from(["original", "replaced", "inserted", "joined"]))
        last = chain[-1] if chain else None
        if kind == "original":
            chain.append(Span(start, end))
        elif kind == "joined" and isinstance(last, ModifiedSpan) and last.replaced:
            # One replacement standing for two raw ranges.
            chain[-1] = ModifiedSpan(last.length, last.replaced + (Span(start, end),))
        else:
            replaced = () if kind == "inserted" else (Span(start, end),)
            chain.append(ModifiedSpan(draw(st.integers(0, 3)), replaced))
    return chain


@st.composite
def documents(draw):
    """A document holding entities drawn over its text, with attributes."""
    doc = create_document("".join(draw(st.lists(st.sampled_from(PIECES), min_size=1))))
    for _ in range(draw(st.integers(0, 4))):
        chain = draw(chains(doc.text))
        text = "".join(
            doc.text[s.start:s.end] if isinstance(s, Span) else "#" * s.length for s in chain
        )
        attributes = [Attribute(draw(labels), draw(values)) for _ in range(draw(st.integers(0, 2)))]
        doc.attach(Entity(label=draw(labels), text=text, spans=chain, attributes=attributes))
    return doc


def _runs(covered):
    """The maximal runs of consecutive offsets in ``covered``, as spans."""
    runs = []
    for i in sorted(covered):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [Span(s, e) for s, e in runs]


def _covered(entity):
    """The raw offsets an entity's chain stands for."""
    ranges = [r for s in entity.spans for r in ([s] if isinstance(s, Span) else s.replaced)]
    return {i for r in ranges for i in range(r.start, r.end)}


def _brat(doc):
    return parse_brat(emit_brat(doc, doc.annotations), doc.text)


def _doccano(doc):
    return parse_doccano_jsonl(emit_doccano_jsonl(doc, doc.annotations))[1]


def _json(doc):
    return parse_document_json(serialize_document_json(doc)).annotations


def _brat_ranges(doc, entity):
    """Brat: the ranges cut at each line break, which is left out; none is refused."""
    ranges = _runs(i for i in _covered(entity) if doc.text[i] not in "\r\n")
    return ranges, EmptyProjectionError if not ranges else None


def _doccano_ranges(doc, entity):
    """Doccano: one range per label; none or several are refused."""
    ranges = _runs(_covered(entity))
    return ranges, None if len(ranges) == 1 else EmptyProjectionError if not ranges else ConfigError


def _json_ranges(doc, entity):
    """Native JSON: the chain as it stands; nothing is refused."""
    return _runs(_covered(entity)), None


def _alone(doc, entity):
    """A document of ``doc``'s text holding only ``entity``."""
    return create_document(doc.text).attach(entity)


@pytest.mark.parametrize(
    "round_trip, stated",
    [(_brat, _brat_ranges), (_doccano, _doccano_ranges), (_json, _json_ranges)],
    ids=["brat", "doccano", "json"],
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=documents())
def test_writer_refuses_or_its_reader_gives_back_labels_and_raw_ranges(round_trip, stated, drawn):
    # The document with all its entities, then each entity on its own.
    for doc in [drawn] + [_alone(drawn, e) for e in drawn.annotations]:
        expected = [(e, *stated(doc, e)) for e in doc.annotations]
        refused = [(e, error) for e, _, error in expected if error]
        if refused:
            first, error = refused[0]
            with pytest.raises(error, match=first.id):
                round_trip(doc)
            continue
        read = round_trip(doc)
        assert [(e.label, e.normalized_spans()) for e in read] == [
            (e.label, ranges) for e, ranges, _ in expected
        ]
