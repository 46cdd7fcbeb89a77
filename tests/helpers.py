"""Shared test utilities: span oracle, random op sequences, graph signatures."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import unicodedata
import uuid
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from annopipe import spans as sp
from annopipe.core import Attribute, Document, Entity, Segment, new_id
from annopipe.evaluation import MatchSpec
from annopipe.exceptions import ArityMismatchError, ConfigError, InvalidRangeError, ScopeError
from annopipe.io.brat import emit_brat
from annopipe.io.doccano import emit_doccano_jsonl
from annopipe.io.docjson import serialize_document_json
from annopipe.pipeline import Plan, _items, _Registered
from annopipe.provenance import Activity, ProvGraph, Tracer, VerbosityLevel
from annopipe.spans import Span, normalize_spans
from annopipe.textops import ContextRuleSet
from annopipe.textops.dates import _DATE_PATTERNS, _normalize

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


# The span slicer as first written: every slice walks the chain from its
# start. Kept verbatim as the reference the bisected slicer is compared
# against.


def frozen_check_ranges(ranges: Sequence[tuple[int, int]], text_length: int) -> None:
    prev_end = 0
    first = True
    for start, end in ranges:
        if start > end:
            raise InvalidRangeError(f"range ({start}, {end}) has start > end")
        if start < 0 or end > text_length:
            raise InvalidRangeError(
                f"range ({start}, {end}) out of bounds for length {text_length}"
            )
        if not first and start < prev_end:
            raise InvalidRangeError(
                f"range ({start}, {end}) overlaps or precedes previous range"
            )
        prev_end = end
        first = False


def frozen_slice_chain(spans: Sequence[sp.AnySpan], start: int, end: int) -> list[sp.AnySpan]:
    """Spans covering [start, end) of the text the chain annotates.

    Original spans are narrowed; modified spans yield a modified span of the
    sliced length carrying the full replaced list.
    """
    out: list[sp.AnySpan] = []
    offset = 0
    for span in spans:
        lo = max(start, offset)
        hi = min(end, offset + span.length)
        if lo < hi:
            if isinstance(span, sp.Span):
                out.append(sp.Span(span.start + (lo - offset), span.start + (hi - offset)))
            else:
                out.append(sp.ModifiedSpan(hi - lo, span.replaced))
        offset += span.length
        if offset >= end:
            break
    return out


def frozen_replaced_ranges(spans: Iterable[sp.AnySpan]) -> tuple[sp.Span, ...]:
    """Original ranges a chain portion stands for, in chain order."""
    out: list[sp.Span] = []
    for span in spans:
        if isinstance(span, sp.Span):
            if span.length > 0:
                out.append(span)
        else:
            out.extend(span.replaced)
    return tuple(out)


def frozen_coalesce(spans: list[sp.AnySpan]) -> list[sp.AnySpan]:
    """Merge consecutive contiguous original spans (canonical chain form)."""
    out: list[sp.AnySpan] = []
    for span in spans:
        if (
            out
            and isinstance(span, sp.Span)
            and isinstance(out[-1], sp.Span)
            and out[-1].end == span.start
        ):
            out[-1] = sp.Span(out[-1].start, span.end)
        else:
            out.append(span)
    return out


def frozen_extract(
    text: str, spans: Sequence[sp.AnySpan], ranges: Sequence[tuple[int, int]]
) -> tuple[str, list[sp.AnySpan]]:
    """Keep only the given ranges of the text, slicing the chain accordingly."""
    frozen_check_ranges(ranges, len(text))
    out_text = []
    out_spans: list[sp.AnySpan] = []
    for start, end in ranges:
        out_text.append(text[start:end])
        out_spans.extend(frozen_slice_chain(spans, start, end))
    return "".join(out_text), frozen_coalesce(out_spans)


def frozen_replace(
    text: str,
    spans: Sequence[sp.AnySpan],
    ranges: Sequence[tuple[int, int]],
    replacements: Sequence[str],
) -> tuple[str, list[sp.AnySpan]]:
    """Substitute each range with its replacement text.

    The covered portion of the chain becomes a modified span remembering the
    original ranges it stood for. Zero-length modified spans are dropped.
    """
    if len(ranges) != len(replacements):
        raise ArityMismatchError(
            f"{len(ranges)} ranges but {len(replacements)} replacements"
        )
    frozen_check_ranges(ranges, len(text))
    out_text = []
    out_spans: list[sp.AnySpan] = []
    cursor = 0
    for (start, end), replacement in zip(ranges, replacements):
        if cursor < start:
            out_text.append(text[cursor:start])
            out_spans.extend(frozen_slice_chain(spans, cursor, start))
        if replacement:
            out_text.append(replacement)
            out_spans.append(
                sp.ModifiedSpan(
                    len(replacement), frozen_replaced_ranges(frozen_slice_chain(spans, start, end))
                )
            )
        cursor = end
    if cursor < len(text):
        out_text.append(text[cursor:])
        out_spans.extend(frozen_slice_chain(spans, cursor, len(text)))
    return "".join(out_text), frozen_coalesce(out_spans)


# Context detection as first written: the op evaluates every (sentence,
# entity) pair and skips the pairs that raise ScopeError; each call rescans
# the sentence character by character. Kept verbatim as the reference for
# the op that scopes each entity once and scans each sentence once.


def frozen_original_index_per_char(sentence: Segment) -> list:
    """For each sentence character, its original document index (None if inserted)."""
    out = []
    for span in sentence.spans:
        if isinstance(span, Span):
            out.extend(range(span.start, span.end))
        else:
            out.extend([None] * span.length)
    return out


def frozen_local_range(sentence: Segment, entity: Entity, char_origins: list) -> tuple[int, int]:
    """The entity's [start, end) within the sentence's own text."""
    ent_ranges = normalize_spans(entity.spans)
    if not ent_ranges:
        raise ScopeError(f"entity {entity.id} projects to no original span")
    targets = set()
    for r in ent_ranges:
        targets.update(range(r.start, r.end))
    positions = [i for i, orig in enumerate(char_origins) if orig in targets]
    if not positions:
        raise ScopeError(f"entity {entity.id} lies outside the sentence")
    covered = {char_origins[i] for i in positions}
    if not targets <= covered:
        raise ScopeError(f"entity {entity.id} extends beyond the sentence")
    return positions[0], positions[-1] + 1


def frozen_detect_context(
    sentence: Segment, entities: list[Entity], rules: ContextRuleSet
) -> list[tuple[str, Attribute]]:
    """(entity_id, attribute) pairs; one attribute per entity, True or False."""
    text = sentence.text
    char_origins = frozen_original_index_per_char(sentence)
    tokens = [m.span() for m in re.finditer(r"\S+", text)]
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
        return sum(1 for t_start, t_end in tokens if lo <= t_start and t_end <= hi)

    results = []
    for entity in entities:
        ent_start, ent_end = frozen_local_range(sentence, entity, char_origins)
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


def frozen_detect_context_factory(params):
    rules = ContextRuleSet(
        attribute_label=params["attribute_label"],
        cues_before=params.get("cues_before", []),
        cues_after=params.get("cues_after", []),
        terminators=params.get("terminators", []),
        max_token_window=params.get("max_token_window", 5),
    )

    def run(sentences, entities):
        # New entities carrying the context attribute found in their sentence;
        # the inputs stay untouched, so provenance can derive one from the other.
        added = {e.id: [] for e in entities}
        for sentence in sentences:
            for entity in entities:
                try:
                    pairs = frozen_detect_context(sentence, [entity], rules)
                except ScopeError:
                    continue
                for entity_id, attribute in pairs:
                    added[entity_id].append(attribute)
        return [
            dataclasses.replace(
                e,
                id=new_id(),
                attributes=e.attributes + added[e.id],
                metadata=dict(e.metadata),
                spans=list(e.spans),
            )
            for e in entities
        ]

    return run


# Entity alignment as first written: exact mode tests every pred x ref pair.
# Kept verbatim as the reference for the keyed exact-mode lookup.


def _frozen_char_set(entity: Entity) -> frozenset:
    chars = set()
    for span in sp.normalize_spans(entity.spans):
        chars.update(range(span.start, span.end))
    return frozenset(chars)


def _frozen_start(entity: Entity) -> int:
    ranges = sp.normalize_spans(entity.spans)
    return ranges[0].start if ranges else -1


def _frozen_iou(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def frozen_align_entities(
    pred: list[Entity], ref: list[Entity], spec: Optional[MatchSpec] = None
) -> tuple[list[tuple[str, str]], list[Entity], list[Entity]]:
    """One-to-one alignment of predicted and reference entities.

    Exact mode requires identical normalized span lists (and labels when
    label-sensitive); overlap mode accepts pairs whose character IoU reaches
    the threshold. Pairs are resolved greedily by descending IoU, ties broken
    by (ref start, pred start).
    """
    spec = spec or MatchSpec()
    pred_sets = [_frozen_char_set(e) for e in pred]
    ref_sets = [_frozen_char_set(e) for e in ref]

    candidates = []
    for pi, p in enumerate(pred):
        for ri, r in enumerate(ref):
            if spec.label_sensitive and p.label != r.label:
                continue
            if spec.mode == "exact":
                if pred_sets[pi] and pred_sets[pi] == ref_sets[ri]:
                    candidates.append((1.0, _frozen_start(r), _frozen_start(p), pi, ri))
            else:
                iou = _frozen_iou(pred_sets[pi], ref_sets[ri])
                if iou >= spec.iou_threshold:
                    candidates.append((iou, _frozen_start(r), _frozen_start(p), pi, ri))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    match_of_pred: dict[int, int] = {}
    match_of_ref: dict[int, int] = {}
    for _, _, _, pi, ri in candidates:
        if pi in match_of_pred or ri in match_of_ref:
            continue
        match_of_pred[pi] = ri
        match_of_ref[ri] = pi

    # Augment the greedy matching to maximum cardinality so that true
    # positive counts are invariant under swapping pred and ref.
    adjacency: dict[int, list[int]] = {}
    for _, _, _, pi, ri in candidates:
        adjacency.setdefault(pi, []).append(ri)

    def augment(pi: int, visited: set) -> bool:
        for ri in adjacency.get(pi, []):
            if ri in visited:
                continue
            visited.add(ri)
            if ri not in match_of_ref or augment(match_of_ref[ri], visited):
                match_of_pred[pi] = ri
                match_of_ref[ri] = pi
                return True
        return False

    for pi in range(len(pred)):
        if pi not in match_of_pred:
            augment(pi, set())

    pairs = []
    seen_pred = set()
    for _, _, _, pi, ri in candidates:
        if pi in seen_pred or match_of_pred.get(pi) != ri:
            continue
        seen_pred.add(pi)
        pairs.append((pred[pi].id, ref[ri].id))
    unmatched_pred = [p for i, p in enumerate(pred) if i not in match_of_pred]
    unmatched_ref = [r for i, r in enumerate(ref) if i not in match_of_ref]
    return pairs, unmatched_pred, unmatched_ref


# The provenance graph builder as first written: every composite scope
# rescans the whole trace for its member records and for references outside
# it. Kept verbatim as the reference the one-pass builder is compared
# against.


def frozen_descendant_scopes(tracer: Tracer, root: str) -> set:
    out = {root}
    changed = True
    while changed:
        changed = False
        for scope in tracer._scopes.values():
            if scope.parent in out and scope.id not in out:
                out.add(scope.id)
                changed = True
    return out


def frozen_dedupe(items):
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def frozen_add_activity_edges(graph: ProvGraph, act_id: str, sources, outputs) -> None:
    graph.entities.update(sources)
    graph.entities.update(outputs)
    for src in sources:
        graph.used.append((act_id, src))
    for out in outputs:
        graph.was_generated_by.append((out, act_id))
        for src in sources:
            graph.was_derived_from.append((out, src))


def frozen_build_level(tracer: Tracer, scope_id: Optional[str]) -> ProvGraph:
    graph = ProvGraph()
    direct = [rec for rec in tracer._records if rec.scope == scope_id]
    children = [s for s in tracer._scopes.values() if s.parent == scope_id]

    positions = {id(rec): i for i, rec in enumerate(tracer._records)}
    events = []  # (position in trace, kind, payload) to keep trace order
    for rec in direct:
        events.append((positions[id(rec)], "record", rec))
    for child in children:
        member_scopes = frozen_descendant_scopes(tracer, child.id)
        group = [r for r in tracer._records if r.scope in member_scopes]
        if not group:
            continue
        first = min(positions[id(r)] for r in group)
        events.append((first, "composite", (child, group)))
    events.sort(key=lambda e: e[0])

    for _, kind, payload in events:
        if kind == "record":
            rec = payload
            act_id = str(uuid.uuid4())
            graph.activities[act_id] = Activity(act_id, rec.op.name, dict(rec.op.config))
            frozen_add_activity_edges(graph, act_id, frozen_dedupe(rec.sources), frozen_dedupe(rec.outputs))
        else:
            child, group = payload
            group_set = set(id(r) for r in group)
            generated = set()
            consumed = set()
            for rec in group:
                generated.update(rec.outputs)
                consumed.update(rec.sources)
            referenced_outside = set()
            for rec in tracer._records:
                if id(rec) not in group_set:
                    referenced_outside.update(rec.sources)
                    referenced_outside.update(rec.outputs)
            ext_sources = frozen_dedupe(
                s for rec in group for s in rec.sources if s not in generated
            )
            exposed = frozen_dedupe(
                o
                for rec in group
                for o in rec.outputs
                if o not in consumed or o in referenced_outside
            )
            act_id = child.id
            graph.activities[act_id] = Activity(
                act_id, child.op.name, dict(child.op.config), composite=True
            )
            frozen_add_activity_edges(graph, act_id, ext_sources, exposed)
            if tracer.level >= VerbosityLevel.FULL:
                graph.sub_graphs[act_id] = frozen_build_level(tracer, child.id)

    generator = {ent: act for ent, act in graph.was_generated_by}
    informed = []
    for act_id in graph.activities:
        informants = frozen_dedupe(
            generator[ent]
            for a, ent in graph.used
            if a == act_id and ent in generator and generator[ent] != act_id
        )
        informed.extend((act_id, informant) for informant in informants)
    graph.was_informed_by = informed
    return graph


def frozen_build_graph(tracer: Tracer) -> ProvGraph:
    """Build the PROV graph for a trace at the tracer's verbosity level."""
    if tracer.level == VerbosityLevel.NONE:
        return ProvGraph()
    graph = frozen_build_level(tracer, None)
    graph.check_acyclic()
    return graph


def reachable_from(pairs, start) -> set:
    """Items the (output, source) ``pairs`` lead back to from ``start``, by fixpoint."""
    reached = {src for out, src in pairs if out == start}
    while True:
        more = {src for out, src in pairs if out in reached} - reached
        if not more:
            return reached
        reached |= more


# Item lineage by brute force: each item of a step whose inputs are all
# declared one-item runs through the step's bound op alone, and the outputs
# that call made, matched to the recorded outputs by position and content,
# derive from the items it took.
# detect_context output k derives from input entity k and every sentence the
# first-written scoping accepts it in.


def _item_step_derivations(registered, op, args: list, outs: list) -> set:
    lengths = {len(a) for a in args if isinstance(a, list)}
    n = lengths.pop() if lengths else 1
    calls = []
    for i in range(n):
        took = [a[i] if isinstance(a, list) else a for a in args]
        result = op(*took)
        calls.append((took, result if len(registered.outputs) > 1 else (result,)))
    pairs = set()
    for pos, out in enumerate(outs):
        recorded = out if isinstance(out, list) else [out]
        concatenated = all(isinstance(r[pos], list) for _, r in calls)
        cursor = 0
        for took, result in calls:
            for item in result[pos] if concatenated else [result[pos]]:
                made = recorded[cursor]
                assert entity_fingerprint(item) == entity_fingerprint(made)
                pairs.update((made.id, src.id) for src in took)
                cursor += 1
        assert cursor == len(recorded)
    return pairs


def _whole_list_derivations(registered, op, args: list, outs: list) -> set:
    """Pairs of a step taking a list whole: call i runs the bound op alone on
    item i of each list wired to a one-item input and the whole of every
    other arg, and each output it made derives from each item it took. An
    output is named by its id, or, without one, by its position among the
    step's outputs, which list each output slot's items in call order."""
    mapped = [
        isinstance(a, list) and not isinstance(s, list) for s, a in zip(registered.inputs, args)
    ]
    lengths = {len(a) for a, m in zip(args, mapped) if m}
    calls = []
    for i in range(lengths.pop() if lengths else 1):
        took = [a[i] if m else a for a, m in zip(args, mapped)]
        result = op(*took)
        calls.append((took, result if len(registered.outputs) > 1 else (result,)))
    pairs = set()
    position = 0
    for pos, (slot, out) in enumerate(zip(registered.outputs, outs)):
        recorded = out if isinstance(out, list) else [out]
        cursor = 0
        for took, result in calls:
            sources = {x.id for t in took for x in (t if isinstance(t, list) else [t])}
            for item in result[pos] if isinstance(slot, list) else [result[pos]]:
                made = recorded[cursor]
                if isinstance(made, str):
                    assert item == made
                else:
                    assert entity_fingerprint(item) == entity_fingerprint(made)
                name = made.id if hasattr(made, "id") else position + cursor
                pairs.update((name, src) for src in sources)
                cursor += 1
        assert cursor == len(recorded)
        position += cursor
    return pairs


def _context_derivations(args: list, outs: list) -> set:
    sentences, entities = args
    pairs = set()
    for entity, derived in zip(entities, outs[0]):
        pairs.add((derived.id, entity.id))
        for sentence in sentences:
            try:
                frozen_local_range(sentence, entity, frozen_original_index_per_char(sentence))
            except ScopeError:
                continue
            pairs.add((derived.id, sentence.id))
    return pairs


def expected_derivations(plan, env: dict) -> list:
    """(op name, expected pairs) of each record a traced run of ``plan`` made.

    ``env`` holds every slot value of the run; a sub-pipeline must list all
    of its slots among its outputs, so that its steps' values are there too.
    The pairs are a set of ``(output, source id)``: each output of a call
    with each item that call took, or, for detect_context, with its entity
    and sentences.
    """
    expected = []
    for step, registered, op in plan.steps:
        args = [env[k] for k in step.input_keys]
        outs = [env[k] for k in step.output_keys]
        if isinstance(op, Plan):
            sub = op.spec
            inner = dict(zip(sub.pipeline_inputs, args))
            inner.update(zip(sub.pipeline_outputs, outs))
            expected.extend(expected_derivations(op, inner))
        elif step.op_name == "detect_context":
            expected.append((step.op_name, _context_derivations(args, outs)))
        elif any(isinstance(slot, list) for slot in registered.inputs):
            expected.append((step.op_name, _whole_list_derivations(registered, op, args, outs)))
        else:
            expected.append((step.op_name, _item_step_derivations(registered, op, args, outs)))
    return expected


# The PROV-JSON and DOT codec as it was before the writer streamed straight
# from the graph: a dict tree passed to json.dumps, and one loop per relation.
# The writer, the reader and the DOT export must match it byte for byte.


def frozen_graph_to_dict(graph: ProvGraph) -> dict:
    doc = {
        "entity": {ent: {} for ent in sorted(graph.entities)},
        "activity": {},
        "used": {},
        "wasGeneratedBy": {},
        "wasDerivedFrom": {},
        "wasInformedBy": {},
    }
    for act in graph.activities.values():
        rec = {"prov:label": act.name}
        if act.config:
            rec["config"] = act.config
        if act.composite:
            rec["composite"] = True
        if act.id in graph.sub_graphs:
            rec["members"] = frozen_graph_to_dict(graph.sub_graphs[act.id])
        doc["activity"][act.id] = rec
    for i, (act, ent) in enumerate(graph.used, 1):
        doc["used"][f"u{i}"] = {"prov:activity": act, "prov:entity": ent}
    for i, (ent, act) in enumerate(graph.was_generated_by, 1):
        doc["wasGeneratedBy"][f"g{i}"] = {"prov:entity": ent, "prov:activity": act}
    for i, (gen, src) in enumerate(graph.was_derived_from, 1):
        doc["wasDerivedFrom"][f"d{i}"] = {
            "prov:generatedEntity": gen,
            "prov:usedEntity": src,
        }
    for i, (informed, informant) in enumerate(graph.was_informed_by, 1):
        doc["wasInformedBy"][f"i{i}"] = {
            "prov:informed": informed,
            "prov:informant": informant,
        }
    return doc


def frozen_graph_from_dict(doc: dict) -> ProvGraph:
    graph = ProvGraph()
    graph.entities = set(doc.get("entity", {}))
    for act_id, rec in doc.get("activity", {}).items():
        graph.activities[act_id] = Activity(
            act_id,
            rec.get("prov:label", ""),
            dict(rec.get("config", {})),
            composite=bool(rec.get("composite")),
        )
        if "members" in rec:
            graph.sub_graphs[act_id] = frozen_graph_from_dict(rec["members"])
    for rec in doc.get("used", {}).values():
        graph.used.append((rec["prov:activity"], rec["prov:entity"]))
    for rec in doc.get("wasGeneratedBy", {}).values():
        graph.was_generated_by.append((rec["prov:entity"], rec["prov:activity"]))
    for rec in doc.get("wasDerivedFrom", {}).values():
        graph.was_derived_from.append(
            (rec["prov:generatedEntity"], rec["prov:usedEntity"])
        )
    for rec in doc.get("wasInformedBy", {}).values():
        graph.was_informed_by.append((rec["prov:informed"], rec["prov:informant"]))
    return graph


def _dot_string(text: str) -> str:
    """``text`` double-quoted for DOT, with backslash, quote and newline escaped."""
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def frozen_graph_to_dot(graph: ProvGraph, lines=None) -> str:
    """The DOT writer as it stood before it streamed, with each quoted string
    escaped (the writer of that time wrote them raw, giving invalid DOT)."""
    q = _dot_string
    top = lines is None
    if top:
        lines = ["digraph provenance {"]
    for ent in sorted(graph.entities):
        lines.append(f'  {q(ent)} [shape=ellipse];')
    for act in graph.activities.values():
        lines.append(f'  {q(act.id)} [shape=box, label={q(act.name)}];')
    for act, ent in graph.used:
        lines.append(f'  {q(act)} -> {q(ent)} [label="used"];')
    for ent, act in graph.was_generated_by:
        lines.append(f'  {q(ent)} -> {q(act)} [label="wasGeneratedBy"];')
    for gen, src in graph.was_derived_from:
        lines.append(f'  {q(gen)} -> {q(src)} [label="wasDerivedFrom"];')
    for informed, informant in graph.was_informed_by:
        lines.append(f'  {q(informed)} -> {q(informant)} [label="wasInformedBy"];')
    for sub in graph.sub_graphs.values():
        frozen_graph_to_dot(sub, lines)
    if top:
        lines.append("}")
        return "\n".join(lines) + "\n"
    return ""


def frozen_export_prov(graph: ProvGraph, format: str = "prov-json") -> str:
    if format == "prov-json":
        return json.dumps(frozen_graph_to_dict(graph), ensure_ascii=False) + "\n"
    if format == "dot":
        return frozen_graph_to_dot(graph)
    raise ValueError(f"unknown provenance export format {format!r}")


def frozen_parse_prov_json(text: str) -> ProvGraph:
    """Inverse of frozen_export_prov(graph, 'prov-json')."""
    return frozen_graph_from_dict(json.loads(text))


# A batch operation's lineage, as the frozen runner takes it: (args, outputs)
# -> (output item, source item) pairs, where outputs holds one value per
# output slot.
Lineage = Callable[[list, tuple], Iterable[tuple]]


# The step runner as it was before one pass ran an operation and stated its
# lineage: _run_mapped filled a ``calls`` list that _lineage read back, and
# _execute gave an empty step its stand-in id. Kept verbatim as the reference
# _run_step's outputs are compared against; _items is the pipeline's own, and
# _source_id and _output_id are verbatim copies of the run-wide identity map
# the pipeline named id-less items by until ids were kept beside each key.


def _source_id(minted: dict, item) -> str:
    """Provenance id of an item a step takes.

    An item with a string ``id`` is named by it. Any other item (a str, an
    int) keeps the id minted when a step made it, or, if no step made it,
    the id minted the first time a step takes it.
    """
    item_id = getattr(item, "id", None)
    if isinstance(item_id, str):
        return item_id
    known = minted.get(id(item))
    if known is None:
        # The item is kept with its id, so no later object reuses its id().
        known = minted[id(item)] = (item, new_id())
    return known[1]


def _output_id(minted: dict, item) -> str:
    """Provenance id of an item a step makes; an id-less item gets a new one."""
    minted.pop(id(item), None)
    return _source_id(minted, item)


def frozen_run_mapped(
    registered: _Registered, op: Callable, args: list, calls: Optional[list] = None
) -> tuple:
    """Execute an operation, mapping item-mode operations over list slots.

    Returns the step's outputs, one value per output slot. Given a list as
    ``calls``, an item-mode operation appends, for each call it makes, the
    items that call made per output slot.
    """
    if registered.mode == "batch" or not any(isinstance(a, list) for a in args):
        result = op(*args)
        outputs = result if registered.n_outputs > 1 else (result,)
        if calls is not None:
            calls.append([_items(o) for o in outputs])
        return outputs

    list_lengths = {len(a) for a in args if isinstance(a, list)}
    if len(list_lengths) > 1:
        raise ValueError("item-mode operation got list inputs of different lengths")
    n = list_lengths.pop()
    per_item = [
        op(*[a[i] if isinstance(a, list) else a for a in args]) for i in range(n)
    ]
    if registered.n_outputs == 1:
        per_item = [(r,) for r in per_item]
    outputs = []
    slot_items = []  # per output slot, the items each call made
    for pos in range(registered.n_outputs):
        results = [r[pos] for r in per_item]
        # Concatenate per-item list results, otherwise collect into a list.
        concatenated = bool(results) and all(isinstance(r, list) for r in results)
        outputs.append([x for r in results for x in r] if concatenated else results)
        if calls is not None:
            slot_items.append(results if concatenated else [[r] for r in results])
    if calls is not None:
        calls.extend(zip(*slot_items))
    return tuple(outputs)


def frozen_lineage(
    args: list, outputs: tuple, calls: Optional[list], lineage: Optional[Lineage], minted: dict
) -> tuple[list, list, Optional[list]]:
    """Source ids, output ids and (output, source) id pairs of one step.

    The pairs come from ``calls`` for an item-mode step and from ``lineage``,
    the registered lineage function, for a batch step. They are None when
    there is neither.
    """
    arg_ids = [[_source_id(minted, item) for item in _items(a)] for a in args]
    source_ids = [i for ids in arg_ids for i in ids]
    if calls is None:
        output_ids = [_output_id(minted, item) for o in outputs for item in _items(o)]
        pairs = None
        if lineage is not None:
            # Outputs already have their ids, so both sides are looked up.
            pairs = [
                (_source_id(minted, out), _source_id(minted, src))
                for out, src in lineage(args, outputs)
            ]
        return source_ids, output_ids, pairs
    per_slot = [[] for _ in outputs]
    pairs = []
    for i, made in enumerate(calls):
        took = dict.fromkeys(
            ids[i] if isinstance(a, list) else ids[0] for a, ids in zip(args, arg_ids)
        )
        for slot_ids, items in zip(per_slot, made):
            for item in items:
                out = _output_id(minted, item)
                slot_ids.append(out)
                pairs.extend((out, src) for src in took)
    return source_ids, [i for ids in per_slot for i in ids], pairs


def frozen_run_step(registered: _Registered, op: Callable, args: list, minted: Optional[dict]):
    """The traced step of the frozen _execute: (outputs, lineage), lineage as
    (source ids, output ids, pairs), or None when ``minted`` is None."""
    traced = minted is not None
    calls = [] if traced and registered.mode == "item" else None
    outputs = frozen_run_mapped(registered, op, args, calls)
    if not traced:
        return outputs, None
    source_ids, output_ids, pairs = frozen_lineage(
        args, outputs, calls, registered.lineage, minted
    )
    if not output_ids:
        # The step made nothing; an id stands for its empty
        # result, derived from everything the step took.
        output_ids = [new_id()]
        if pairs is not None:
            pairs = [(output_ids[0], s) for s in dict.fromkeys(source_ids)]
    return outputs, (source_ids, output_ids, pairs)


def frozen_write_corpus(fmt: str, path: str, pairs: list[tuple[str, Document]]) -> None:
    """cli._write_corpus as it stood with its own branch per output format."""
    path = Path(path)
    if fmt == "doccano":
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for _, doc in pairs:
            entities = [a for a in doc.annotations if isinstance(a, Entity)]
            lines.append(emit_doccano_jsonl(doc, entities))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return
    path.mkdir(parents=True, exist_ok=True)
    for stem, doc in pairs:
        if fmt == "brat":
            (path / f"{stem}.txt").write_text(doc.text, encoding="utf-8")
            segments = [a for a in doc.annotations if isinstance(a, Segment)]
            relations = [a for a in doc.annotations if not isinstance(a, Segment)]
            (path / f"{stem}.ann").write_text(
                emit_brat(doc, segments + relations), encoding="utf-8"
            )
        elif fmt == "json":
            (path / f"{stem}.json").write_text(
                serialize_document_json(doc), encoding="utf-8"
            )
        else:
            raise ConfigError(f"unknown output format {fmt!r}")


# The matchers as they stood when each cut its own entities out of the
# segment's chain. Kept verbatim as the reference for the matchers that cut
# through core.entities_at.


def frozen_match_dates(seg: Segment) -> list[Entity]:
    candidates = []
    for pattern, order in _DATE_PATTERNS:
        for m in pattern.finditer(seg.text):
            candidates.append((m.start(), m.end(), _normalize(m.groups(), order)))
    selected = sp._leftmost_longest(candidates)

    entities = []
    pieces = sp.extract_each(seg.text, seg.spans, [(s, e) for s, e, _ in selected])
    for (_, _, normalized), (ent_text, ent_spans) in zip(selected, pieces):
        attributes = []
        if normalized is not None:
            attributes.append(Attribute(label="normalized", value=normalized))
        entities.append(
            Entity(label="date", text=ent_text, spans=ent_spans, attributes=attributes)
        )
    return entities


def frozen_match_regex(seg: Segment, rules: list) -> list[Entity]:
    labels = []
    ranges = []
    for rule in rules:
        if rule._exclusion and rule._exclusion.search(seg.text):
            continue
        for m in rule._compiled.finditer(seg.text):
            start, end = m.span(rule.group)
            if start == -1 or start >= end:
                continue
            labels.append(rule.label)
            ranges.append((start, end))
    entities = [
        Entity(label=label, text=ent_text, spans=ent_spans)
        for label, (ent_text, ent_spans) in zip(
            labels, sp.extract_each(seg.text, seg.spans, ranges)
        )
    ]
    entities.sort(key=lambda e: tuple((s.start, s.end) for s in e.normalized_spans()))
    return entities


# The sentence splitter as first written: a per-character loop over the
# segment's text. Kept verbatim as the reference the one-pattern splitter is
# compared against.


def _frozen_trimmed(text: str, start: int, end: int):
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return (start, end) if start < end else None


def frozen_split_sentences(seg: Segment, punct_chars=".!?", keep_punct: bool = True):
    punct = set(punct_chars)
    text = seg.text
    ranges = []
    start = 0
    for i, ch in enumerate(text):
        if ch in punct or ch == "\n":
            rng = _frozen_trimmed(text, start, i)
            if rng:
                s, e = rng
                if keep_punct and ch != "\n":
                    e = i + 1
                ranges.append((s, e))
            start = i + 1
    rng = _frozen_trimmed(text, start, len(text))
    if rng:
        ranges.append(rng)

    return [
        Segment(label="sentence", text=sent_text, spans=sent_spans)
        for sent_text, sent_spans in sp.extract_each(text, seg.spans, ranges)
    ]
