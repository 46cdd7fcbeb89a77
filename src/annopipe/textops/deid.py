"""Regex de-identification with placeholder substitution.

Replacement goes through the span engine, so the output chain records which
original ranges each placeholder stands for, and the returned entities keep
the original matched spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core import Entity, Segment
from ..spans import _leftmost_longest, extract, replace


@dataclass
class DeidRule:
    pattern: str
    placeholder: str

    def __post_init__(self):
        if not self.placeholder:
            raise ValueError("placeholder must be non-empty")
        self._compiled = re.compile(self.pattern)

    @property
    def label(self) -> str:
        return self.placeholder.strip("[]") or self.placeholder


def deidentify(seg: Segment, rules: list[DeidRule]) -> tuple[Segment, list[Entity]]:
    """Replace PHI matches with placeholders.

    Returns the transformed segment and one entity per match, labeled by the
    rule's placeholder name and spanning the original matched text.
    Overlapping matches are resolved leftmost-longest.
    """
    candidates = []
    for rule in rules:
        for m in rule._compiled.finditer(seg.text):
            if m.start() < m.end():
                candidates.append((m.start(), m.end(), rule))
    selected = _leftmost_longest(candidates)

    entities = []
    for start, end, rule in selected:
        ent_text, ent_spans = extract(seg.text, seg.spans, [(start, end)])
        entities.append(Entity(label=rule.label, text=ent_text, spans=ent_spans))

    if selected:
        ranges = [(s, e) for s, e, _ in selected]
        placeholders = [rule.placeholder for _, _, rule in selected]
        new_text, new_spans = replace(seg.text, seg.spans, ranges, placeholders)
    else:  # nothing to replace: the chain is kept, in a list of the new segment's own
        new_text, new_spans = seg.text, list(seg.spans)
    new_seg = Segment(label=seg.label, text=new_text, spans=new_spans, metadata=dict(seg.metadata))
    return new_seg, entities
