"""Non-destructive span algebra.

Every derived text carries a chain of spans mapping each character back to
the raw document. Original spans reference a half-open [start, end) range of
the raw text; modified spans stand for replacement text and remember which
original ranges the replacement covers. All offsets are Unicode code points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Sequence, Union

from .exceptions import ArityMismatchError, InvalidRangeError


@dataclass(frozen=True)
class Span:
    """A [start, end) range of the original document text."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise InvalidRangeError(f"invalid span ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ModifiedSpan:
    """Replacement text of `length` code points standing for `replaced` ranges.

    `replaced` may be empty for pure insertions. Slicing a modified span keeps
    the full replaced list: a part of a replacement still stands for everything
    the replacement stands for.
    """

    length: int
    replaced: tuple[Span, ...] = ()

    def __post_init__(self):
        if self.length < 0:
            raise InvalidRangeError(f"negative modified-span length {self.length}")
        if not isinstance(self.replaced, tuple):
            object.__setattr__(self, "replaced", tuple(self.replaced))


AnySpan = Union[Span, ModifiedSpan]


def span_length(spans: Iterable[AnySpan]) -> int:
    """Total number of code points covered by a span chain."""
    return sum(s.length for s in spans)


def _check_ranges(ranges: Sequence[tuple[int, int]], text_length: int) -> None:
    prev_end = 0
    for start, end in ranges:
        if start > end:
            raise InvalidRangeError(f"range ({start}, {end}) has start > end")
        if start < 0 or end > text_length:
            raise InvalidRangeError(
                f"range ({start}, {end}) out of bounds for length {text_length}"
            )
        if start < prev_end:
            raise InvalidRangeError(
                f"range ({start}, {end}) overlaps or precedes previous range"
            )
        prev_end = end


def _leftmost_longest(candidates: Iterable[tuple]) -> list[tuple]:
    """The ``(start, end, ...)`` candidates kept by a leftmost-longest pick.

    Candidates are taken by start, longest first; the sort is stable, so of
    equal ranges the one listed first wins. A candidate is kept when it
    starts at or after the end of the last one kept.
    """
    selected = []
    last_end = 0
    for candidate in sorted(candidates, key=lambda c: (c[0], c[0] - c[1])):
        if candidate[0] >= last_end:
            selected.append(candidate)
            last_end = candidate[1]
    return selected


def _offsets(spans: Sequence[AnySpan]) -> list[int]:
    """Offset of each span in the text the chain annotates, then the total length."""
    return list(accumulate((s.length for s in spans), initial=0))


def _slice_chain(
    spans: Sequence[AnySpan], offsets: list[int], start: int, end: int
) -> list[AnySpan]:
    """Spans covering [start, end) of the text the chain annotates.

    `offsets` is `_offsets(spans)`; the walk starts at the span holding
    `start`, so a slice costs O(log n + k) for k spans returned. Original
    spans are narrowed; modified spans yield a modified span of the sliced
    length carrying the full replaced list.
    """
    out: list[AnySpan] = []
    for i in range(bisect_right(offsets, start) - 1, len(spans)):
        offset = offsets[i]
        if offset >= end:
            break
        span = spans[i]
        lo = max(start, offset)
        hi = min(end, offsets[i + 1])
        if lo < hi:
            if isinstance(span, Span):
                out.append(Span(span.start + (lo - offset), span.start + (hi - offset)))
            else:
                out.append(ModifiedSpan(hi - lo, span.replaced))
    return out


def _replaced_ranges(spans: Iterable[AnySpan]) -> tuple[Span, ...]:
    """Original ranges a chain portion stands for, in chain order."""
    out: list[Span] = []
    for span in spans:
        if isinstance(span, Span):
            if span.length > 0:
                out.append(span)
        else:
            out.extend(span.replaced)
    return tuple(out)


def _coalesce(spans: list[AnySpan]) -> list[AnySpan]:
    """Merge consecutive contiguous original spans (canonical chain form)."""
    out: list[AnySpan] = []
    for span in spans:
        if (
            out
            and isinstance(span, Span)
            and isinstance(out[-1], Span)
            and out[-1].end == span.start
        ):
            out[-1] = Span(out[-1].start, span.end)
        else:
            out.append(span)
    return out


def extract(
    text: str, spans: Sequence[AnySpan], ranges: Sequence[tuple[int, int]]
) -> tuple[str, list[AnySpan]]:
    """Keep only the given ranges of the text, slicing the chain accordingly."""
    _check_ranges(ranges, len(text))
    return concatenate(extract_each(text, spans, ranges))


def extract_each(
    text: str, spans: Sequence[AnySpan], ranges: Sequence[tuple[int, int]]
) -> list[tuple[str, list[AnySpan]]]:
    """Cut each range out on its own: item i is `extract(text, spans, [ranges[i]])`.

    The ranges may come in any order and overlap. The chain's offsets are
    computed once for all of them, and not at all when there are none, as
    for most segments a matcher scans.
    """
    if not ranges:
        return []
    offsets = _offsets(spans)
    out = []
    for start, end in ranges:
        _check_ranges(((start, end),), len(text))
        out.append((text[start:end], _coalesce(_slice_chain(spans, offsets, start, end))))
    return out


def replace(
    text: str,
    spans: Sequence[AnySpan],
    ranges: Sequence[tuple[int, int]],
    replacements: Sequence[str],
) -> tuple[str, list[AnySpan]]:
    """Substitute each range with its replacement text.

    The covered portion of the chain becomes a modified span remembering the
    original ranges it stood for. Zero-length modified spans are dropped.
    """
    if len(ranges) != len(replacements):
        raise ArityMismatchError(
            f"{len(ranges)} ranges but {len(replacements)} replacements"
        )
    _check_ranges(ranges, len(text))
    offsets = _offsets(spans)
    out_text = []
    out_spans: list[AnySpan] = []
    cursor = 0
    for (start, end), replacement in zip(ranges, replacements):
        if cursor < start:
            out_text.append(text[cursor:start])
            out_spans.extend(_slice_chain(spans, offsets, cursor, start))
        if replacement:
            out_text.append(replacement)
            out_spans.append(
                ModifiedSpan(
                    len(replacement), _replaced_ranges(_slice_chain(spans, offsets, start, end))
                )
            )
        cursor = end
    if cursor < len(text):
        out_text.append(text[cursor:])
        out_spans.extend(_slice_chain(spans, offsets, cursor, len(text)))
    return "".join(out_text), _coalesce(out_spans)


def remove(
    text: str, spans: Sequence[AnySpan], ranges: Sequence[tuple[int, int]]
) -> tuple[str, list[AnySpan]]:
    """Delete the given ranges; equivalent to replacing them with empty text."""
    return replace(text, spans, ranges, [""] * len(ranges))


def insert(
    text: str,
    spans: Sequence[AnySpan],
    positions: Sequence[int],
    inserts: Sequence[str],
) -> tuple[str, list[AnySpan]]:
    """Insert text at the given positions; insertions map to no original range."""
    if len(positions) != len(inserts):
        raise ArityMismatchError(f"{len(positions)} positions but {len(inserts)} inserts")
    ranges = [(p, p) for p in positions]
    return replace(text, spans, ranges, inserts)


def concatenate(
    parts: Sequence[tuple[str, Sequence[AnySpan]]], separator: str = ""
) -> tuple[str, list[AnySpan]]:
    """Join (text, chain) parts with a separator carrying no provenance."""
    out_text = []
    out_spans: list[AnySpan] = []
    for i, (text, spans) in enumerate(parts):
        if i > 0 and separator:
            out_text.append(separator)
            out_spans.append(ModifiedSpan(len(separator)))
        out_text.append(text)
        out_spans.extend(spans)
    return "".join(out_text), _coalesce(out_spans)


def normalize_spans(spans: Iterable[AnySpan]) -> list[Span]:
    """Project a chain onto the original document.

    Original spans are kept, modified spans contribute their replaced ranges,
    pure insertions contribute nothing. The result is sorted by start with
    overlapping and exactly-adjacent ranges merged.
    """
    collected = [s for s in _replaced_ranges(spans) if s.length > 0]
    collected.sort(key=attrgetter("start", "end"))
    merged: list[Span] = []
    for span in collected:
        if merged and span.start <= merged[-1].end:
            if span.end > merged[-1].end:
                merged[-1] = Span(merged[-1].start, span.end)
        else:
            merged.append(span)
    return merged
