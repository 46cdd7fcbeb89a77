"""Built-in date matching with ISO-8601 normalization.

Recognizes numeric dates (dd/mm/yyyy, dd-mm-yyyy, yyyy-mm-dd) and French
month-name dates ("12 mars 1980"). Matches whose fields do not form a valid
calendar date still yield a "date" entity, just without the "normalized"
attribute.
"""

from __future__ import annotations

import datetime
import re
from typing import Optional

from ..core import Attribute, Entity, Segment, entities_at
from ..spans import _leftmost_longest

_MONTHS_FR = {
    "janvier": 1,
    "février": 2,
    "fevrier": 2,
    "mars": 3,
    "avril": 4,
    "mai": 5,
    "juin": 6,
    "juillet": 7,
    "août": 8,
    "aout": 8,
    "septembre": 9,
    "octobre": 10,
    "novembre": 11,
    "décembre": 12,
    "decembre": 12,
}

_MONTH_ALT = "|".join(sorted(_MONTHS_FR, key=len, reverse=True))

# (pattern, field order) where order maps groups to (day, month, year)
_DATE_PATTERNS = [
    (re.compile(r"\b(\d{4})-(\d{1,2})-(\d{1,2})\b"), ("y", "m", "d")),
    (re.compile(r"\b(\d{1,2})/(\d{1,2})/(\d{4})\b"), ("d", "m", "y")),
    (re.compile(r"\b(\d{1,2})-(\d{1,2})-(\d{4})\b"), ("d", "m", "y")),
    (
        re.compile(rf"\b(\d{{1,2}})(?:er)?\s+({_MONTH_ALT})\s+(\d{{4}})\b", re.IGNORECASE),
        ("d", "month_name", "y"),
    ),
]


def _normalize(groups: tuple, order: tuple) -> Optional[str]:
    fields = dict(zip(order, groups))
    try:
        month = (
            _MONTHS_FR[fields["month_name"].lower()]
            if "month_name" in fields
            else int(fields["m"])
        )
        value = datetime.date(int(fields["y"]), month, int(fields["d"]))
    except (KeyError, ValueError):
        return None
    return value.isoformat()


def match_dates(seg: Segment) -> list[Entity]:
    candidates = []
    for pattern, order in _DATE_PATTERNS:
        for m in pattern.finditer(seg.text):
            candidates.append((m.start(), m.end(), _normalize(m.groups(), order)))
    found = []
    for start, end, value in _leftmost_longest(candidates):
        norm = [] if value is None else [Attribute("normalized", value)]
        found.append((start, end, "date", norm))
    return entities_at(seg, found)
