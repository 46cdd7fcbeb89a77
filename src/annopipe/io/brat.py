"""Brat standoff format: parsing and emission.

Supported lines:
    T<i>\t<label> <start> <end>[;<start> <end>]*\t<surface>
    A<j>\t<label> T<i>[ <value>]
    R<k>\t<label> Arg1:T<i> Arg2:T<j>

Lines with other sigils (N, E, #, *) are skipped with a warning. Ids are
scoped per file; emission renumbers T/A/R sequentially in attachment order.
Emission writes each annotation on one line that the parser reads back: a
line break inside an entity ends a fragment, and an annotation that no such
line can hold, or a relation to an annotation that is not written as a T
line, raises ConfigError.
"""

from __future__ import annotations

import re
from typing import Optional

from . import _logger
from ..core import Annotation, Attribute, Entity, Relation, Segment
from ..exceptions import ConfigError, EmptyProjectionError, MalformedLineError, SurfaceMismatchError
from ..spans import ModifiedSpan, Span

# Separator joining the surface text of discontinuous fragments
DISCONTINUOUS_SEP = " "

_T_RE = re.compile(r"^T(\d+)\t(\S+) (\d+ \d+(?:;\d+ \d+)*)\t(.*)$")
_A_RE = re.compile(r"^A(\d+)\t(\S+) (T\d+)(?: (.+))?$")
_R_RE = re.compile(r"^R(\d+)\t(\S+) Arg1:(T\d+) Arg2:(T\d+)$")
# A run of text holding no line break
_ONE_LINE_RE = re.compile(r"[^\r\n]+")


def _parse_fragments(field: str, line_no: int) -> list[tuple[int, int]]:
    fragments = []
    for part in field.split(";"):
        start_s, end_s = part.split(" ")
        start, end = int(start_s), int(end_s)
        if start > end:
            raise MalformedLineError(line_no, f"fragment {start} {end} has start > end")
        fragments.append((start, end))
    for (_, prev_end), (start, _) in zip(fragments, fragments[1:]):
        if start < prev_end:
            raise MalformedLineError(line_no, "fragments not sorted")
    return fragments


def parse_brat(ann_text: str, doc_text: Optional[str] = None) -> list[Annotation]:
    """Parse a .ann file into entities, relations, and entity attributes.

    When doc_text is given, each entity surface is validated against the
    document slices. Attributes without a value become boolean True.
    """
    entities_by_tid: dict[str, Entity] = {}
    annotations: list[Annotation] = []
    pending_relations: list[tuple[int, str, str, str]] = []
    skipped = 0

    for line_no, line in enumerate(ann_text.split("\n"), 1):
        line = line.removesuffix("\r")  # CRLF line ends
        if not line.strip():
            continue
        sigil = line[0]
        if sigil == "T":
            match = _T_RE.match(line)
            if not match:
                raise MalformedLineError(line_no, f"unparsable entity line {line!r}")
            tid_num, label, frag_field, surface = match.groups()
            fragments = _parse_fragments(frag_field, line_no)
            if doc_text is not None:
                if any(end > len(doc_text) for _, end in fragments):
                    raise MalformedLineError(line_no, "fragment exceeds document length")
                expected = DISCONTINUOUS_SEP.join(
                    doc_text[s:e] for s, e in fragments
                )
                if expected != surface:
                    raise SurfaceMismatchError(line_no, expected, surface)
            covered = sum(e - s for s, e in fragments)
            covered += len(DISCONTINUOUS_SEP) * (len(fragments) - 1)
            if len(surface) != covered:
                raise MalformedLineError(
                    line_no, f"surface {surface!r} is not {covered} code points long"
                )
            entity = Entity(
                label=label,
                text=surface,
                spans=_fragments_to_spans(fragments),
            )
            tid = f"T{tid_num}"
            if tid in entities_by_tid:
                raise MalformedLineError(line_no, f"duplicate id {tid}")
            entities_by_tid[tid] = entity
            annotations.append(entity)
        elif sigil == "A":
            match = _A_RE.match(line)
            if not match:
                raise MalformedLineError(line_no, f"unparsable attribute line {line!r}")
            _, label, target, value = match.groups()
            if target not in entities_by_tid:
                raise MalformedLineError(line_no, f"unknown attribute target {target}")
            entities_by_tid[target].attributes.append(
                Attribute(label=label, value=True if value is None else value)
            )
        elif sigil == "R":
            match = _R_RE.match(line)
            if not match:
                raise MalformedLineError(line_no, f"unparsable relation line {line!r}")
            _, label, arg1, arg2 = match.groups()
            pending_relations.append((line_no, label, arg1, arg2))
        else:
            skipped += 1
            _logger(__name__).warning("line %d: skipping unsupported sigil %r", line_no, sigil)

    for line_no, label, arg1, arg2 in pending_relations:
        for arg in (arg1, arg2):
            if arg not in entities_by_tid:
                raise MalformedLineError(line_no, f"unknown relation argument {arg}")
        annotations.append(
            Relation(
                label=label,
                source_id=entities_by_tid[arg1].id,
                target_id=entities_by_tid[arg2].id,
            )
        )
    if skipped:
        _logger(__name__).info("skipped %d unsupported line(s)", skipped)
    return annotations


def _fragments_to_spans(fragments: list[tuple[int, int]]) -> list:
    """Span chain for a (possibly discontinuous) entity.

    Separator characters joining discontinuous fragments in the surface text
    stand for no original range, so they become zero-provenance modified
    spans, keeping the chain length equal to the surface length.
    """
    chain = [Span(*fragments[0])]
    for start, end in fragments[1:]:
        chain += [ModifiedSpan(len(DISCONTINUOUS_SEP)), Span(start, end)]
    return chain


def _one_line(pattern: re.Pattern, line: str, ann_id: str) -> str:
    """``line`` if parse_brat reads it back through ``pattern`` as written, else
    ConfigError naming annotation ``ann_id``: for a label holding whitespace, an
    empty attribute value or a line break."""
    if "\r" in line or not pattern.fullmatch(line):
        raise ConfigError(f"annotation {ann_id}: {line!r} is not one Brat line")
    return line


def emit_brat(doc, annotations: list[Annotation]) -> str:
    """Serialize annotations as canonical Brat standoff text.

    Entities are numbered T1..Tn in attachment order with spans taken from
    their normalized chains, cut at each line break, which is dropped;
    attributes and relations follow. Raises OutOfBoundsError for a segment
    that runs past the end of the document, EmptyProjectionError for one
    that projects to no original character but line breaks, and
    ConfigError for an annotation one Brat line cannot hold and for a
    relation whose source or target is not among the segments written.
    """
    lines = []
    tid_by_ann_id: dict[str, str] = {}
    segments = [a for a in annotations if isinstance(a, Segment)]
    for i, seg in enumerate(segments, 1):
        fragments = [
            m.span() for s in seg.normalized_spans_in(doc.text)
            for m in _ONE_LINE_RE.finditer(doc.text, s.start, s.end)
        ]
        if not fragments:
            raise EmptyProjectionError(
                f"annotation {seg.id} ({seg.label}) projects to no original span"
            )
        tid = f"T{i}"
        tid_by_ann_id[seg.id] = tid
        frag_field = ";".join(f"{start} {end}" for start, end in fragments)
        surface = DISCONTINUOUS_SEP.join(doc.text[start:end] for start, end in fragments)
        lines.append(_one_line(_T_RE, f"{tid}\t{seg.label} {frag_field}\t{surface}", seg.id))

    written = [
        (seg, attr) for seg in segments for attr in seg.attributes
        if attr.value is not False and attr.value is not None
    ]
    for num, (seg, attr) in enumerate(written, 1):
        value = "" if attr.value is True else f" {attr.value}"
        line = f"A{num}\t{attr.label} {tid_by_ann_id[seg.id]}{value}"
        lines.append(_one_line(_A_RE, line, seg.id))

    for num, rel in enumerate((a for a in annotations if isinstance(a, Relation)), 1):
        for end in (rel.source_id, rel.target_id):
            if end not in tid_by_ann_id:
                raise ConfigError(f"annotation {rel.id}: relation argument {end} is not written")
        arg1, arg2 = tid_by_ann_id[rel.source_id], tid_by_ann_id[rel.target_id]
        lines.append(_one_line(_R_RE, f"R{num}\t{rel.label} Arg1:{arg1} Arg2:{arg2}", rel.id))

    return "".join(line + "\n" for line in lines)
