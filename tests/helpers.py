"""Shared test utilities: span oracle, random op sequences, graph signatures."""

from __future__ import annotations

import hashlib
import random
import unicodedata

from annopipe import spans as sp
from annopipe.core import Attribute, Entity

# Alphabet with multi-code-point graphemes: combining accents, astral emoji,
# CJK, plus plain ASCII.
ALPHABET = (
    "abc de\nfgh,;tuxyz0123456789"
    "éàüßñçøπЖ中文字"
    "́̈"  # combining marks
    "\U0001F600\U0001F9EA\U0001F680"  # astral plane
)


class TaggedText:
    """Character-provenance oracle.

    Each character carries the set of original indices it stands for. This
    mirrors the span-algebra semantics by brute force: the engine's
    normalize_spans must always equal the re-segmentation of the union of
    these per-character sets.
    """

    def __init__(self, text, tags):
        assert len(text) == len(tags)
        self.text = text
        self.tags = list(tags)

    @classmethod
    def original(cls, text):
        return cls(text, [frozenset([i]) for i in range(len(text))])

    def extract(self, ranges):
        text = "".join(self.text[s:e] for s, e in ranges)
        tags = [t for s, e in ranges for t in self.tags[s:e]]
        return TaggedText(text, tags)

    def replace(self, ranges, replacements):
        parts, tags, cursor = [], [], 0
        for (s, e), rep in zip(ranges, replacements):
            parts.append(self.text[cursor:s])
            tags.extend(self.tags[cursor:s])
            union = frozenset().union(*self.tags[s:e]) if e > s else frozenset()
            parts.append(rep)
            tags.extend([union] * len(rep))
            cursor = e
        parts.append(self.text[cursor:])
        tags.extend(self.tags[cursor:])
        return TaggedText("".join(parts), tags)

    def remove(self, ranges):
        return self.replace(ranges, [""] * len(ranges))

    def insert(self, positions, inserts):
        return self.replace([(p, p) for p in positions], inserts)

    @staticmethod
    def concatenate(parts, sep):
        text, tags = "", []
        for i, part in enumerate(parts):
            if i and sep:
                text += sep
                tags.extend([frozenset()] * len(sep))
            text += part.text
            tags.extend(part.tags)
        return TaggedText(text, tags)

    def normalized(self):
        """Maximal runs of the union of all referenced original indices."""
        indices = sorted(set().union(frozenset(), *self.tags))
        runs = []
        for i in indices:
            if runs and i == runs[-1][1]:
                runs[-1] = (runs[-1][0], i + 1)
            else:
                runs.append((i, i + 1))
        return runs


def random_text(rng: random.Random, max_len: int = 200) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


def random_ranges(rng: random.Random, length: int, max_ranges: int = 3):
    k = rng.randint(0, max_ranges)
    points = sorted(rng.randint(0, length) for _ in range(2 * k))
    return [(points[2 * i], points[2 * i + 1]) for i in range(k)]


def apply_random_op(rng: random.Random, state, oracle):
    """One random span operation applied to both the engine and the oracle."""
    text, chain = state
    op = rng.choice(["extract", "replace", "remove", "insert", "concatenate"])
    if op == "extract":
        ranges = random_ranges(rng, len(text))
        new_state = sp.extract(text, chain, ranges)
        new_oracle = oracle.extract(ranges)
    elif op == "replace":
        ranges = random_ranges(rng, len(text))
        reps = [random_text(rng, 8) for _ in ranges]
        new_state = sp.replace(text, chain, ranges, reps)
        new_oracle = oracle.replace(ranges, reps)
    elif op == "remove":
        ranges = random_ranges(rng, len(text))
        new_state = sp.remove(text, chain, ranges)
        new_oracle = oracle.remove(ranges)
    elif op == "insert":
        positions = sorted(
            rng.randint(0, len(text)) for _ in range(rng.randint(0, 3))
        )
        inserts = [random_text(rng, 6) for _ in positions]
        new_state = sp.insert(text, chain, positions, inserts)
        new_oracle = oracle.insert(positions, inserts)
    else:
        sep = random_text(rng, 3)
        other_text = random_text(rng, 30)
        # The second part has no original provenance of its own.
        other_chain = [sp.ModifiedSpan(len(other_text))] if other_text else []
        new_state = sp.concatenate([(text, chain), (other_text, other_chain)], sep)
        other_oracle = TaggedText(other_text, [frozenset()] * len(other_text))
        new_oracle = TaggedText.concatenate([oracle, other_oracle], sep)
    return new_state, new_oracle


def assert_engine_matches_oracle(state, oracle):
    text, chain = state
    assert sp.span_length(chain) == len(text)
    assert text == oracle.text
    engine_norm = [(s.start, s.end) for s in sp.normalize_spans(chain)]
    assert engine_norm == oracle.normalized()


def graph_signature(graph) -> str:
    """Structure-only fingerprint of a provenance graph (ids ignored).

    Weisfeiler-Lehman-style label refinement seeded by node kind and activity
    name; sub-graphs are folded into their composite activity's seed.
    """
    labels = {e: "E" for e in graph.entities}
    for act_id, act in graph.activities.items():
        sub = graph.sub_graphs.get(act_id)
        seed = f"A:{act.name}:{act.composite}"
        if sub is not None:
            seed += ":" + graph_signature(sub)
        labels[act_id] = seed

    edges = (
        [("used", a, e) for a, e in graph.used]
        + [("gen", e, a) for e, a in graph.was_generated_by]
        + [("der", g, s) for g, s in graph.was_derived_from]
        + [("inf", b, a) for b, a in graph.was_informed_by]
    )
    for _ in range(4):
        new_labels = {}
        for node in labels:
            incoming = sorted(
                (kind, labels[src]) for kind, src, dst in edges if dst == node
            )
            outgoing = sorted(
                (kind, labels[dst]) for kind, src, dst in edges if src == node
            )
            payload = repr((labels[node], incoming, outgoing))
            new_labels[node] = hashlib.sha256(payload.encode()).hexdigest()
        labels = new_labels
    return hashlib.sha256(repr(sorted(labels.values())).encode()).hexdigest()


def entity_fingerprint(entity) -> tuple:
    """Structural identity of an entity, ignoring generated ids."""
    return (
        type(entity).__name__,
        entity.label,
        entity.text,
        tuple((s.start, s.end) for s in sp.normalize_spans(entity.spans)),
        tuple(sorted((a.label, a.value) for a in entity.attributes)),
    )


# Dictionary matching as first written: every call folds the text per
# character through unicodedata and re-folds every term. Kept verbatim as the
# reference the fast fold_text and match_dictionary are compared against.


def frozen_fold_text(text, strip_accents, lower):
    folded = []
    index_map = []
    for i, ch in enumerate(text):
        out = ch
        if strip_accents:
            out = "".join(
                c
                for c in unicodedata.normalize("NFD", ch)
                if not unicodedata.combining(c)
            )
        if lower:
            low = out.lower()
            if len(low) == len(out):
                out = low
        folded.append(out)
        index_map.extend([i] * len(out))
    return "".join(folded), index_map


def _frozen_fold_term(term, strip_accents, lower):
    return frozen_fold_text(term, strip_accents, lower)[0]


def _frozen_is_word_char(ch):
    return ch.isalnum()


def frozen_match_dictionary(seg, entries, strip_accents=False):
    exact_text, exact_map = frozen_fold_text(seg.text, strip_accents, lower=False)
    lower_text, lower_map = frozen_fold_text(seg.text, strip_accents, lower=True)

    candidates = []
    for entry in entries:
        if entry.case_sensitive:
            haystack, index_map = exact_text, exact_map
        else:
            haystack, index_map = lower_text, lower_map
        needle = _frozen_fold_term(
            entry.term, strip_accents, lower=not entry.case_sensitive
        )
        if not needle:
            continue
        pos = haystack.find(needle)
        while pos != -1:
            end = pos + len(needle)
            start_ok = pos == 0 or not _frozen_is_word_char(haystack[pos - 1])
            end_ok = end == len(haystack) or not _frozen_is_word_char(haystack[end])
            if start_ok and end_ok:
                orig_start = index_map[pos]
                orig_end = index_map[end - 1] + 1
                candidates.append((orig_start, orig_end, entry))
            pos = haystack.find(needle, pos + 1)

    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
    entities = []
    last_end = 0
    for start, end, entry in candidates:
        if start < last_end:
            continue
        ent_text, ent_spans = sp.extract(seg.text, seg.spans, [(start, end)])
        attributes = []
        if entry.norm_id is not None:
            attributes.append(Attribute(label="norm_id", value=entry.norm_id))
        entities.append(
            Entity(
                label=entry.label, text=ent_text, spans=ent_spans, attributes=attributes
            )
        )
        last_end = end
    return entities
