"""Dictionary NER with word boundaries and leftmost-longest resolution."""

from __future__ import annotations

import csv
import io
import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..core import Attribute, Entity, Segment, entities_at
from ..io.textdir import read_utf8
from ..spans import _leftmost_longest


@dataclass
class DictionaryEntry:
    term: str
    label: str
    norm_id: Optional[str] = None
    case_sensitive: bool = False

    def __post_init__(self):
        if not self.term:
            raise ValueError("dictionary term must be non-empty")
        if not self.label:
            raise ValueError("dictionary label must be non-empty")


def load_dictionary(path) -> list[DictionaryEntry]:
    """Read a dictionary file: UTF-8, "term,label,norm_id" lines, "#" comments,
    a leading byte order mark ignored. A line without a term or label raises
    ValueError naming the file and line."""
    entries = []
    text = read_utf8(path).removeprefix("\ufeff")
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        row = [cell.strip() for cell in next(csv.reader(io.StringIO(line)))] + ["", ""]
        try:
            entries.append(DictionaryEntry(row[0], row[1], row[2] or None))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from exc
    return entries


def _fold_char(ch: str, strip_accents: bool, lower: bool) -> str:
    """The folding rule for one character: NFD without combining marks, then
    lowercase only when that keeps the length."""
    out = ch
    if strip_accents:
        out = "".join(
            c for c in unicodedata.normalize("NFD", ch) if not unicodedata.combining(c)
        )
    if lower:
        low = out.lower()
        if len(low) == len(out):
            out = low
    return out


class _FoldTable(dict):
    """``str.translate`` table of one folding mode, filled on first sight of a
    code point. A character that does not fold to exactly one character maps
    to "", so a translated text shorter than its input contains one.

    The tables only memoize a pure function, so the module shares one per mode.
    """

    def __init__(self, strip_accents: bool, lower: bool):
        super().__init__()
        self.mode = (strip_accents, lower)

    def __missing__(self, code: int) -> str:
        out = _fold_char(chr(code), *self.mode)
        value = self[code] = out if len(out) == 1 else ""
        return value


_FOLD_TABLES = {
    (strip_accents, lower): _FoldTable(strip_accents, lower)
    for strip_accents in (False, True)
    for lower in (False, True)
}


def fold_text(text: str, strip_accents: bool, lower: bool) -> tuple[str, list[int]]:
    """Accent/case folding with a map from folded positions to original indices.

    Folding is per original character so offsets stay recoverable: combining
    marks fold to nothing, characters whose lowercase form changes length are
    kept as-is.
    """
    table = _FOLD_TABLES[bool(strip_accents), bool(lower)]
    folded = text.translate(table)
    if len(folded) == len(text):
        return folded, list(range(len(text)))
    parts = []
    index_map = []
    for i, ch in enumerate(text):
        out = table[ord(ch)] or _fold_char(ch, strip_accents, lower)
        parts.append(out)
        index_map.extend([i] * len(out))
    return "".join(parts), index_map


# A maximal run of str.isalnum characters: a word, as the boundary check sees it.
_WORD = re.compile(r"[^\W_]+")


class PreparedDictionary(NamedTuple):
    """Dictionary entries with their terms folded once for matching."""

    strip_accents: bool
    # (folded term, lower, entry) in entry order; terms folding to "" dropped.
    needles: tuple[tuple[str, bool, DictionaryEntry], ...]
    # Per case mode (lower flag) the needles use: needle indices by the
    # needle's head word, "" for needles that start with a non-word character.
    heads: dict[bool, dict[str, list[int]]]


def prepare_dictionary(
    entries: list[DictionaryEntry], strip_accents: bool = False
) -> PreparedDictionary:
    """Fold every term once, in the case mode its entry matches in, and index
    the folded terms by head word."""
    needles = []
    heads: dict[bool, dict[str, list[int]]] = {}
    for entry in entries:
        lower = not entry.case_sensitive
        needle = fold_text(entry.term, strip_accents, lower)[0]
        if needle:
            head = _WORD.match(needle)
            heads.setdefault(lower, {}).setdefault(head[0] if head else "", []).append(
                len(needles)
            )
            needles.append((needle, lower, entry))
    return PreparedDictionary(strip_accents, tuple(needles), heads)


def match_prepared(seg: Segment, prepared: PreparedDictionary) -> list[Entity]:
    """Entities for the prepared terms found on word boundaries of seg.

    The segment is folded once per case mode the terms use. Only terms whose
    head word is a word of the fold are searched: a match starts a word of
    the fold, and that word is the head, since the head ends on a non-word
    character the match shares or on the match's end boundary. Overlapping
    candidates are resolved leftmost-longest; on equal spans the earlier
    entry wins.
    """
    folds = {
        lower: fold_text(seg.text, prepared.strip_accents, lower)
        for lower in prepared.heads
    }
    picked = []
    for lower, (haystack, _) in folds.items():
        heads = prepared.heads[lower]
        for word in heads.keys() & {"", *_WORD.findall(haystack)}:
            picked.extend(heads[word])
    candidates = []
    for i in sorted(picked):
        needle, lower, entry = prepared.needles[i]
        haystack, index_map = folds[lower]
        pos = haystack.find(needle)
        while pos != -1:
            end = pos + len(needle)
            start_ok = pos == 0 or not haystack[pos - 1].isalnum()
            end_ok = end == len(haystack) or not haystack[end].isalnum()
            if start_ok and end_ok:
                candidates.append((index_map[pos], index_map[end - 1] + 1, entry))
            pos = haystack.find(needle, pos + 1)

    found = []
    for start, end, entry in _leftmost_longest(candidates):
        norm = [] if entry.norm_id is None else [Attribute("norm_id", entry.norm_id)]
        found.append((start, end, entry.label, norm))
    return entities_at(seg, found)


def match_dictionary(
    seg: Segment, entries: list[DictionaryEntry], strip_accents: bool = False
) -> list[Entity]:
    """Entities for dictionary terms found on word boundaries.

    Overlapping candidates are resolved leftmost-longest. Matching is
    case-insensitive unless the entry is case-sensitive; accents are folded
    when strip_accents. A norm_id entry value becomes a "norm_id" attribute.
    To match many segments against the same entries, prepare them once with
    prepare_dictionary and call match_prepared.
    """
    return match_prepared(seg, prepare_dictionary(entries, strip_accents))
