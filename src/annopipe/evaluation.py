"""Entity-level evaluation: alignment, precision/recall/F1, run comparison.

Matching works on normalized original character sets, so entities found on
transformed text compare correctly against references on the raw text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import Entity
from .spans import normalize_spans


@dataclass
class MatchSpec:
    mode: str = "exact"  # "exact" or "overlap"
    iou_threshold: float = 0.5
    label_sensitive: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "overlap"):
            raise ValueError(f"unknown match mode {self.mode!r}")
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError("iou_threshold must be in (0, 1]")


@dataclass
class LabelCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: LabelCounts) -> LabelCounts:
        return LabelCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class Metrics:
    per_label: dict = field(default_factory=dict)

    @property
    def micro(self) -> LabelCounts:
        return sum(self.per_label.values(), LabelCounts())


def _located(entities: list[Entity]) -> list[tuple[int, int, int, set]]:
    """``(first char, last char, index, char set)`` of each entity with
    characters, from one projection of its spans, sorted."""
    located = []
    for i, entity in enumerate(entities):
        ranges = normalize_spans(entity.spans)
        if ranges:
            chars = set()
            for span in ranges:
                chars.update(range(span.start, span.end))
            located.append((ranges[0].start, ranges[-1].end - 1, i, chars))
    return sorted(located)


def align_entities(
    pred: list[Entity], ref: list[Entity], spec: Optional[MatchSpec] = None
) -> tuple[list[tuple[str, str]], list[Entity], list[Entity]]:
    """One-to-one alignment of predicted and reference entities.

    Overlap mode accepts pairs whose character IoU reaches the threshold;
    exact mode is overlap at IoU 1, which only equal normalized character
    sets reach. Labels must agree when label-sensitive. Pairs are resolved
    greedily by descending IoU, ties broken by (ref start, pred start).
    """
    spec = spec or MatchSpec()
    threshold = 1.0 if spec.mode == "exact" else spec.iou_threshold
    # The threshold is above 0, so a pair needs a shared character and
    # hence overlapping [first, last] ranges: sweep both sides by first
    # character, keeping open the refs whose range reaches the pred's.
    candidates = []
    refs, open_refs, next_ref = _located(ref), [], 0
    for lo, hi, pi, p_chars in _located(pred):
        while next_ref < len(refs) and refs[next_ref][0] <= hi:
            open_refs.append(refs[next_ref])
            next_ref += 1
        open_refs = [r for r in open_refs if r[1] >= lo]
        label = pred[pi].label
        for r_lo, _, ri, r_chars in open_refs:
            if r_lo > hi or (spec.label_sensitive and label != ref[ri].label):
                continue
            shared = len(p_chars & r_chars)
            iou = shared / (len(p_chars) + len(r_chars) - shared)
            if iou >= threshold:
                candidates.append((iou, r_lo, lo, pi, ri))
    # pi and ri order ties as a pred-major scan over all pairs would.
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], c[3], c[4]))

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

    # Depth first from each unmatched pred, trying its refs in candidate order;
    # the stack holds each pred of the path with the refs it has yet to try.
    for root in range(len(pred)):
        if root in match_of_pred:
            continue
        visited, stack = set(), [(root, iter(adjacency.get(root, ())))]
        while stack:
            ri = next((r for r in stack[-1][1] if r not in visited), None)
            if ri is None:
                stack.pop()
            elif ri in match_of_ref:
                visited.add(ri)
                pi = match_of_ref[ri]
                stack.append((pi, iter(adjacency[pi])))
            else:
                # A free ref ends the path: each pred on it takes the next ref.
                for pi, _ in reversed(stack):
                    match_of_ref[ri] = pi
                    match_of_pred[pi], ri = ri, match_of_pred.get(pi)
                break

    # Each (pi, ri) is one candidate, so each match gives one pair.
    pairs = [(pred[pi].id, ref[ri].id) for *_, pi, ri in candidates if match_of_pred.get(pi) == ri]
    unmatched_pred = [p for i, p in enumerate(pred) if i not in match_of_pred]
    unmatched_ref = [r for i, r in enumerate(ref) if i not in match_of_ref]
    return pairs, unmatched_pred, unmatched_ref


def score(
    matches: list[tuple[str, str]],
    unmatched_pred: list[Entity],
    unmatched_ref: list[Entity],
    match_labels: Optional[list[tuple[str, str]]] = None,
) -> Metrics:
    """Counts and metrics per label and micro-averaged.

    True positives are counted under the reference label; match_labels
    supplies (pred_label, ref_label) per match. Without it, matches count
    toward the micro totals under a generic label. A match_labels of another
    length than matches raises ValueError.
    """
    if match_labels is None:
        match_labels = [("entity", "entity")] * len(matches)
    elif len(match_labels) != len(matches):
        raise ValueError(f"{len(match_labels)} match labels for {len(matches)} matches")
    metrics = Metrics()

    def counts(label: str) -> LabelCounts:
        return metrics.per_label.setdefault(label, LabelCounts())

    for _, ref_label in match_labels:
        counts(ref_label).tp += 1
    for entity in unmatched_pred:
        counts(entity.label).fp += 1
    for entity in unmatched_ref:
        counts(entity.label).fn += 1
    return metrics


def evaluate(
    pred: list[Entity], ref: list[Entity], spec: Optional[MatchSpec] = None
) -> Metrics:
    matches, unmatched_pred, unmatched_ref = align_entities(pred, ref, spec)
    by_id = {e.id: e for e in pred + ref}
    match_labels = [(by_id[p].label, by_id[r].label) for p, r in matches]
    return score(matches, unmatched_pred, unmatched_ref, match_labels)


def merge_metrics(parts: list[Metrics]) -> Metrics:
    """Sum counts across documents (sum-then-score, never score-then-average)."""
    total = Metrics()
    for part in parts:
        for label, counts in part.per_label.items():
            total.per_label[label] = total.per_label.get(label, LabelCounts()) + counts
    return total


def metrics_to_dict(metrics: Metrics) -> dict:
    def row(counts: LabelCounts) -> dict:
        return {
            "tp": counts.tp,
            "fp": counts.fp,
            "fn": counts.fn,
            "precision": counts.precision,
            "recall": counts.recall,
            "f1": counts.f1,
        }

    return {
        "per_label": {label: row(c) for label, c in sorted(metrics.per_label.items())},
        "micro": row(metrics.micro),
    }


def format_metrics(metrics: Metrics) -> str:
    lines = [f"{'label':<16}{'tp':>6}{'fp':>6}{'fn':>6}{'prec':>8}{'rec':>8}{'f1':>8}"]
    rows = sorted(metrics.per_label.items()) + [("micro", metrics.micro)]
    for label, c in rows:
        lines.append(
            f"{label:<16}{c.tp:>6}{c.fp:>6}{c.fn:>6}"
            f"{c.precision:>8.3f}{c.recall:>8.3f}{c.f1:>8.3f}"
        )
    return "\n".join(lines)


def compare_runs(a: Metrics, b: Metrics, name_a: str = "A", name_b: str = "B") -> str:
    """Side-by-side per-label and micro comparison with deltas and a winner."""
    labels = sorted(set(a.per_label) | set(b.per_label))
    lines = [
        f"{'label':<16}{name_a + ' f1':>10}{name_b + ' f1':>10}{'delta':>10}"
    ]

    def cell(metrics: Metrics, label: str):
        return metrics.per_label.get(label)

    for label in labels:
        ca, cb = cell(a, label), cell(b, label)
        fa = f"{ca.f1:.3f}" if ca else "-"
        fb = f"{cb.f1:.3f}" if cb else "-"
        delta = f"{cb.f1 - ca.f1:+.3f}" if ca and cb else "-"
        lines.append(f"{label:<16}{fa:>10}{fb:>10}{delta:>10}")
    fa, fb = a.micro.f1, b.micro.f1
    lines.append(f"{'micro':<16}{fa:>10.3f}{fb:>10.3f}{fb - fa:>+10.3f}")
    if fa > fb:
        lines.append(f"winner: {name_a}")
    elif fb > fa:
        lines.append(f"winner: {name_b}")
    else:
        lines.append("winner: tie")
    return "\n".join(lines)
