"""Regex-rule NER."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..core import Entity, Segment, entities_at


@dataclass
class RegexRule:
    pattern: str
    label: str
    exclusion_pattern: Optional[str] = None
    group: int = 0

    def __post_init__(self):
        self._compiled = re.compile(self.pattern)
        self._exclusion = (
            re.compile(self.exclusion_pattern) if self.exclusion_pattern else None
        )
        if not 0 <= self.group <= self._compiled.groups:
            raise ValueError(
                f"group {self.group} not present in pattern {self.pattern!r}"
            )


def match_regex(seg: Segment, rules: list[RegexRule]) -> list[Entity]:
    """One entity per non-excluded, non-empty match.

    A rule whose exclusion pattern matches the segment text contributes no
    entities. With a capture group set, the entity covers only that group.
    """
    found = []
    for rule in rules:
        if rule._exclusion and rule._exclusion.search(seg.text):
            continue
        for m in rule._compiled.finditer(seg.text):
            start, end = m.span(rule.group)
            if start == -1 or start >= end:
                continue
            found.append((start, end, rule.label, []))
    entities = entities_at(seg, found)
    entities.sort(key=lambda e: tuple((s.start, s.end) for s in e.normalized_spans()))
    return entities
