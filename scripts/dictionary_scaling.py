"""Time dictionary matching on a 9 KB note as the dictionary grows.

The note is built from the bundled demo notes. match_prepared runs over it
with the demo dictionary's 14 terms, then with those 14 plus pseudo-word
distractors that occur nowhere in the note, up to 16,000 of them. Each size
is timed as the best of 5 runs. The script exits 1 when 16,000 distractors
make matching more than 4 times slower than the 14 terms alone, or change
what is found: the cost should follow the terms whose first word occurs in
the text, not the size of the dictionary. A ratio holds up on slow machines
better than an absolute time.

    PYTHONPATH=src python3 scripts/dictionary_scaling.py
"""

from __future__ import annotations

import random
import re
import sys
import time

from annopipe import demo
from annopipe.core import create_document, full_text_segment
from annopipe.textops import (
    DictionaryEntry,
    fold_text,
    load_dictionary,
    match_prepared,
    prepare_dictionary,
)

NOTE_SIZE = 9_000
# Distractors added to the 14 demo terms: 14, 1,000, 4,000 and 16,014 terms.
DISTRACTORS = (0, 986, 3_986, 16_000)
MAX_RATIO = 4.0
SYLLABLES = ["ba", "dro", "fen", "gli", "kor", "lux", "mi", "nep", "ostra", "pyr", "quel", "ziv"]
SUFFIXES = ["ine", "ol", "ide", "ate", "mab", "pril", "zole"]


def demo_note(size: int) -> str:
    """Demo notes joined, in name order and cycling, until ``size`` characters."""
    notes = [p.read_text(encoding="utf-8").strip() for p in sorted(demo.corpus_dir().glob("*.txt"))]
    parts, length, i = [], 0, 0
    while length < size:
        parts.append(notes[i % len(notes)])
        length += len(parts[-1]) + 1
        i += 1
    return "\n".join(parts)


def distractors(text: str, n: int) -> list[DictionaryEntry]:
    """``n`` drug-like pseudo-words, none of which is a word of ``text``."""
    rng = random.Random(0)
    taken = set(re.findall(r"\w+", fold_text(text, True, True)[0]))
    out = []
    while len(out) < n:
        term = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        term += rng.choice(SUFFIXES)
        if term not in taken:
            taken.add(term)
            out.append(DictionaryEntry(term=term, label="Distractor"))
    return out


def best_time(seg, prepared, runs: int = 5) -> tuple[float, list]:
    best, found = float("inf"), None
    for _ in range(runs):
        start = time.perf_counter()
        found = match_prepared(seg, prepared)
        best = min(best, time.perf_counter() - start)
    return best, found


def main() -> int:
    text = demo_note(NOTE_SIZE)
    seg = full_text_segment(create_document(text))
    terms = load_dictionary(demo.dictionary_path())
    extra = distractors(text, max(DISTRACTORS))
    times, spans = {}, {}
    for n in DISTRACTORS:
        entries = terms + extra[:n]
        seconds, found = best_time(seg, prepare_dictionary(entries, strip_accents=True))
        times[n] = seconds
        spans[n] = [(e.label, e.spans) for e in found]
        print(f"{len(entries):>6} terms: {seconds * 1000:8.2f} ms, {len(found)} entities")
    ratio = times[max(DISTRACTORS)] / times[0]
    print(f"{len(text)} characters; {len(terms) + max(DISTRACTORS)} / {len(terms)} terms: {ratio:.2f}x")
    if any(spans[n] != spans[0] for n in DISTRACTORS):
        print("distractor terms changed the entities found")
        return 1
    if ratio > MAX_RATIO:
        print(f"matching time grows with dictionary size (ratio above {MAX_RATIO})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
