"""Brat standoff format: parsing and emission.

Supported lines:
    T<i>\t<label> <start> <end>[;<start> <end>]*\t<surface>
    A<j>\t<label> T<i>[ <value>]
    R<k>\t<label> Arg1:T<i> Arg2:T<j>

Lines with other sigils (N, E, #, *) are skipped with a warning. Ids are
scoped per file; emission renumbers T/A/R sequentially in attachment order.
"""

from __future__ import annotations

import re
from typing import Optional

from . import _logger
from ..core import Annotation, Attribute, Entity, Relation, Segment
from ..exceptions import EmptyProjectionError, MalformedLineError, SurfaceMismatchError
from ..spans import Span, normalize_spans

# Separator joining the surface text of discontinuous fragments
DISCONTINUOUS_SEP = " "

_T_RE = re.compile(r"^T(\d+)\t(\S+) (\d+ \d+(?:;\d+ \d+)*)\t(.*)$")
_A_RE = re.compile(r"^A(\d+)\t(\S+) (T\d+)(?: (.+))?$")
_R_RE = re.compile(r"^R(\d+)\t(\S+) Arg1:(T\d+) Arg2:(T\d+)$")


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
    if len(fragments) == 1:
        return [Span(*fragments[0])]
    # Discontinuous: model separators as inserted text standing for nothing.
    from ..spans import ModifiedSpan

    chain = []
    for i, (start, end) in enumerate(fragments):
        if i > 0:
            chain.append(ModifiedSpan(len(DISCONTINUOUS_SEP)))
        chain.append(Span(start, end))
    return chain


def emit_brat(doc, annotations: list[Annotation]) -> str:
    """Serialize annotations as canonical Brat standoff text.

    Entities are numbered T1..Tn in attachment order with spans taken from
    their normalized chains; attributes and relations follow. Raises
    EmptyProjectionError for a segment that projects to no original span.
    """
    t_lines = []
    a_lines = []
    r_lines = []
    tid_by_ann_id: dict[str, str] = {}
    segments = [a for a in annotations if isinstance(a, Segment)]
    relations = [a for a in annotations if isinstance(a, Relation)]

    for i, seg in enumerate(segments, 1):
        fragments = normalize_spans(seg.spans)
        if not fragments:
            raise EmptyProjectionError(
                f"annotation {seg.id} ({seg.label}) projects to no original span"
            )
        tid = f"T{i}"
        tid_by_ann_id[seg.id] = tid
        frag_field = ";".join(f"{s.start} {s.end}" for s in fragments)
        surface = DISCONTINUOUS_SEP.join(doc.text[s.start : s.end] for s in fragments)
        t_lines.append(f"{tid}\t{seg.label} {frag_field}\t{surface}")

    attr_num = 1
    for seg in segments:
        for attr in seg.attributes:
            if attr.value is False or attr.value is None:
                continue
            tid = tid_by_ann_id[seg.id]
            if attr.value is True:
                a_lines.append(f"A{attr_num}\t{attr.label} {tid}")
            else:
                a_lines.append(f"A{attr_num}\t{attr.label} {tid} {attr.value}")
            attr_num += 1

    rel_num = 1
    for rel in relations:
        arg1 = tid_by_ann_id.get(rel.source_id)
        arg2 = tid_by_ann_id.get(rel.target_id)
        if arg1 is None or arg2 is None:
            _logger(__name__).warning(
                "relation %s references an unexported entity; skipped", rel.id
            )
            continue
        r_lines.append(f"R{rel_num}\t{rel.label} Arg1:{arg1} Arg2:{arg2}")
        rel_num += 1

    lines = t_lines + a_lines + r_lines
    return "".join(line + "\n" for line in lines)
