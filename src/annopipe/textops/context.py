"""Context detection around entities: negation, hypothesis, antecedents.

NegEx-style scoping: a cue before (or after) an entity triggers the context
attribute when it lies within a token window and no terminator intervenes.
The attribute is always emitted, with value False when no cue applies.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from ..core import Attribute, Entity, Segment
from ..exceptions import ScopeError
from ..spans import Span, normalize_spans


@dataclass
class ContextRuleSet:
    attribute_label: str
    cues_before: list[str] = field(default_factory=list)
    cues_after: list[str] = field(default_factory=list)
    terminators: list[str] = field(default_factory=list)
    max_token_window: int = 5

    def __post_init__(self):
        if not self.cues_before and not self.cues_after:
            raise ValueError("at least one cue list must be non-empty")
        if self.max_token_window < 1:
            raise ValueError("max_token_window must be positive")


_NEGATION_CUES = [
    r"\bpas\b",
    r"\bsans\b",
    r"\baucune?\b",
    r"\babsence de\b",
    r"\bni\b",
]
_DEFAULT_TERMINATORS = [r"\bmais\b", r"\bcependant\b", ",", ";"]

DEFAULT_NEGATION_RULES = ContextRuleSet(
    attribute_label="is_negated",
    cues_before=list(_NEGATION_CUES),
    cues_after=list(_NEGATION_CUES),
    terminators=list(_DEFAULT_TERMINATORS),
)

DEFAULT_HYPOTHESIS_RULES = ContextRuleSet(
    attribute_label="is_hypothesis",
    cues_before=[r"\bsi\b", r"éventuell?e?s?\b", r"\bpossibles?\b", r"\bsuspicion de\b"],
    cues_after=[r"\bpossibles?\b", r"\béventuell?e?s?\b"],
    terminators=list(_DEFAULT_TERMINATORS),
)

DEFAULT_FAMILY_RULES = ContextRuleSet(
    attribute_label="is_family",
    cues_before=[
        r"\bantécédents?\b",
        r"\bATCD\b",
        r"\bfamilia(?:l|le|ux)\b",
        r"\bmère\b",
        r"\bpère\b",
    ],
    cues_after=[r"\bfamilia(?:l|le|ux)\b"],
    terminators=list(_DEFAULT_TERMINATORS),
)


def _covers(cover: list[Span], ranges: list[Span]) -> bool:
    """Whether every range lies inside one range of a merged cover."""
    starts = [r.start for r in cover]
    for r in ranges:
        k = bisect_right(starts, r.start) - 1
        if k < 0 or cover[k].end < r.end:
            return False
    return True


def _scoped(
    sentences: list[Segment], entities: list[Entity]
) -> list[list[tuple[Entity, int, int]]]:
    """For each sentence, ``(entity, start, end)`` of every entity it holds, in
    input order, with ``[start, end)`` the entity's range in the sentence's text.

    A sentence holds an entity when its original characters contain all of
    the entity's normalized original range; an entity with no original range
    is held by none. Placeholder (modified) characters stand for text the
    sentence no longer shows, so they hold nothing. The range runs from the
    first to the last sentence character the entity covers. One index of the
    sentences' merged original ranges, sorted by offset, finds the
    candidates of each entity by bisection.
    """
    pieces = []  # per sentence: its original spans with their offsets in its text
    covers = []
    for sentence in sentences:
        offsets = accumulate((s.length for s in sentence.spans), initial=0)
        own = [(o, s) for o, s in zip(offsets, sentence.spans) if isinstance(s, Span)]
        pieces.append(own)
        covers.append(normalize_spans(s for _, s in own))
    index = sorted((r.start, r.end, i) for i, cover in enumerate(covers) for r in cover)
    starts = [start for start, _, _ in index]
    reach = list(accumulate((end for _, end, _ in index), max))
    held: list[list[tuple[Entity, int, int]]] = [[] for _ in sentences]
    for entity in entities:
        ranges = normalize_spans(entity.spans)
        if not ranges:
            continue
        first = ranges[0]
        # Walk back over the covers starting at or before the entity while
        # some of them still reach its end.
        k = bisect_right(starts, first.start) - 1
        while k >= 0 and reach[k] >= first.end:
            _, end, i = index[k]
            if end >= first.end and _covers(covers[i], ranges[1:]):
                overlaps = (
                    (o + max(p.start, r.start) - p.start, o + min(p.end, r.end) - p.start)
                    for o, p in pieces[i]
                    for r in ranges
                )
                los, his = zip(*((lo, hi) for lo, hi in overlaps if lo < hi))
                held[i].append((entity, min(los), max(his)))
            k -= 1
    return held


def _scan(
    sentence: Segment, scoped: list[tuple[Entity, int, int]], rules: ContextRuleSet
) -> list[tuple[str, Attribute]]:
    """(entity_id, attribute) of each ``(entity, start, end)`` in ``scoped``,
    ``[start, end)`` in the sentence's text. Cues, terminators and tokens are
    scanned once per call."""
    text = sentence.text
    tokens = [m.span() for m in re.finditer(r"\S+", text)]
    token_starts = [start for start, _ in tokens]
    token_ends = [end for _, end in tokens]
    cues_before = [
        m.span() for cue in rules.cues_before for m in re.finditer(cue, text, re.IGNORECASE)
    ]
    cues_after = [
        m.span() for cue in rules.cues_after for m in re.finditer(cue, text, re.IGNORECASE)
    ]
    terminators = [
        m.span() for t in rules.terminators for m in re.finditer(t, text, re.IGNORECASE)
    ]

    def gap_blocked(lo: int, hi: int) -> bool:
        return any(lo <= t_start and t_end <= hi for t_start, t_end in terminators)

    def tokens_between(lo: int, hi: int) -> int:
        # Tokens are disjoint and sorted, so those inside [lo, hi] are a run.
        return max(0, bisect_right(token_ends, hi) - bisect_left(token_starts, lo))

    results = []
    for entity, ent_start, ent_end in scoped:
        triggered = any(
            cue_end <= ent_start
            and tokens_between(cue_end, ent_start) <= rules.max_token_window
            and not gap_blocked(cue_end, ent_start)
            for _, cue_end in cues_before
        ) or any(
            cue_start >= ent_end
            and tokens_between(ent_end, cue_start) <= rules.max_token_window
            and not gap_blocked(ent_end, cue_start)
            for cue_start, _ in cues_after
        )
        results.append((entity.id, Attribute(label=rules.attribute_label, value=triggered)))
    return results


def detect_context(
    sentence: Segment, entities: list[Entity], rules: ContextRuleSet
) -> list[tuple[str, Attribute]]:
    """(entity_id, attribute) pairs; one attribute per entity, True or False.

    Cues, terminators and tokens are scanned once per call, so evaluate all
    the entities of a sentence together. Raises ScopeError naming an entity
    that is not wholly inside the sentence.
    """
    (scoped,) = _scoped([sentence], entities)
    if len(scoped) < len(entities):
        placed = {id(entity) for entity, _, _ in scoped}
        lost = next(e for e in entities if id(e) not in placed)
        raise ScopeError(f"entity {lost.id} does not lie wholly inside the sentence")
    return _scan(sentence, scoped, rules)
