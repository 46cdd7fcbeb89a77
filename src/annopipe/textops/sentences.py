"""Rule-based sentence splitting.

Splits at configurable punctuation characters and newlines. Abbreviation
dots ("Dr.", "M.") are not handled; adjust punct_chars if needed.
"""

from __future__ import annotations

from typing import Iterable

from ..core import Segment
from ..spans import extract_each


def _trimmed(text: str, start: int, end: int):
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return (start, end) if start < end else None


def split_sentences(
    seg: Segment,
    punct_chars: Iterable[str] = ".!?",
    keep_punct: bool = True,
) -> list[Segment]:
    """Partition a segment into trimmed, non-empty sentence segments.

    Each sentence is built with span extraction, so its chain still maps to
    the raw document. With keep_punct the terminating punctuation character
    stays attached to its sentence.
    """
    punct = set(punct_chars)
    text = seg.text
    ranges = []
    start = 0
    for i, ch in enumerate(text):
        if ch in punct or ch == "\n":
            rng = _trimmed(text, start, i)
            if rng:
                s, e = rng
                if keep_punct and ch != "\n":
                    e = i + 1
                ranges.append((s, e))
            start = i + 1
    rng = _trimmed(text, start, len(text))
    if rng:
        ranges.append(rng)

    return [
        Segment(label="sentence", text=sent_text, spans=sent_spans)
        for sent_text, sent_spans in extract_each(text, seg.spans, ranges)
    ]
