"""Rule-based sentence splitting.

Splits at configurable punctuation characters and newlines. Abbreviation
dots ("Dr.", "M.") are not handled; adjust punct_chars if needed.
"""

from __future__ import annotations

import re
from typing import Iterable

from ..core import Segment
from ..spans import extract_each


def split_sentences(
    seg: Segment,
    punct_chars: Iterable[str] = ".!?",
    keep_punct: bool = True,
) -> list[Segment]:
    """Partition a segment into trimmed, non-empty sentence segments.

    Each sentence is built with span extraction, so its chain still maps to
    the raw document. With keep_punct the terminating punctuation character
    stays attached to its sentence. A newline always ends a sentence and is
    never kept; entries of punct_chars longer than one character cut nothing.
    """
    marks = "".join(re.escape(c) for c in dict.fromkeys(punct_chars) if len(c) == 1 and c != "\n")
    # One sentence: from a character that is neither space nor a cut (a mark
    # or \n) to the last non-space before the next cut; with keep_punct, on
    # through the spaces and the mark that end it.
    pattern = rf"[^\s{marks}](?:[^\n{marks}]*[^\s{marks}])?"
    if keep_punct and marks:
        pattern += rf"(?:[^\S\n{marks}]*[{marks}])?"
    ranges = [m.span() for m in re.finditer(pattern, seg.text)]
    return [
        Segment(label="sentence", text=sent_text, spans=sent_spans)
        for sent_text, sent_spans in extract_each(seg.text, seg.spans, ranges)
    ]
