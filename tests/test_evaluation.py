import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe import evaluation
from annopipe.core import Entity
from annopipe.evaluation import (
    LabelCounts,
    MatchSpec,
    align_entities,
    compare_runs,
    evaluate,
    format_metrics,
    merge_metrics,
    metrics_to_dict,
    score,
)
from annopipe.spans import Span, normalize_spans

from helpers import frozen_align_entities


def ent(start, end, label="Drug"):
    return Entity(label=label, text="x" * (end - start), spans=[Span(start, end)])


def test_overlap_alignment_of_a_1500_entity_chain():
    # Each pred shares 9 characters with the ref at its index and 1 with the
    # ref before; the augmenting path from the last pred visits every pred.
    pred = [ent(10 * i, 10 * i + 10) for i in range(1500)]
    ref = [ent(10 * i + 1, 10 * i + 11) for i in range(1499)]
    counts = evaluate(pred, ref, MatchSpec(mode="overlap", iou_threshold=0.01)).micro
    assert (counts.tp, counts.fp, counts.fn) == (1499, 1, 0)


class TestMatchSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MatchSpec(mode="fuzzy")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            MatchSpec(iou_threshold=0.0)


class TestAlign:
    def test_exact_match(self):
        pairs, up, ur = align_entities([ent(0, 5)], [ent(0, 5)])
        assert len(pairs) == 1 and not up and not ur

    def test_exact_requires_identical_spans(self):
        pairs, up, ur = align_entities([ent(0, 5)], [ent(0, 6)])
        assert not pairs and len(up) == 1 and len(ur) == 1

    def test_label_sensitivity(self):
        strict = MatchSpec(label_sensitive=True)
        loose = MatchSpec(label_sensitive=False)
        pred, ref = [ent(0, 5, "A")], [ent(0, 5, "B")]
        assert align_entities(pred, ref, strict)[0] == []
        assert len(align_entities(pred, ref, loose)[0]) == 1

    def test_overlap_iou_example(self):
        # (0, 8) vs (1, 9): intersection 7, union 9, IoU 7/9 >= 0.5
        spec = MatchSpec(mode="overlap", iou_threshold=0.5)
        pairs, _, _ = align_entities([ent(0, 8)], [ent(1, 9)], spec)
        assert len(pairs) == 1

    def test_overlap_threshold_boundary(self):
        # IoU is exactly 0.5 for (0, 2) vs (0, 4); threshold is inclusive.
        spec = MatchSpec(mode="overlap", iou_threshold=0.5)
        assert len(align_entities([ent(0, 2)], [ent(0, 4)], spec)[0]) == 1
        strict = MatchSpec(mode="overlap", iou_threshold=0.51)
        assert align_entities([ent(0, 2)], [ent(0, 4)], strict)[0] == []

    def test_one_to_one(self):
        # Two predictions over one reference: only one can match.
        spec = MatchSpec(mode="overlap", iou_threshold=0.3)
        pairs, up, ur = align_entities([ent(0, 8), ent(2, 8)], [ent(0, 8)], spec)
        assert len(pairs) == 1 and len(up) == 1 and not ur


class TestScores:
    def test_two_thirds_arithmetic(self):
        pred = [ent(0, 5), ent(10, 15), ent(20, 25)]
        ref = [ent(0, 5), ent(10, 15), ent(30, 35)]
        metrics = evaluate(pred, ref)
        micro = metrics.micro
        assert (micro.tp, micro.fp, micro.fn) == (2, 1, 1)
        for value in (micro.precision, micro.recall, micro.f1):
            assert abs(value - 2 / 3) < 1e-9

    def test_score_without_match_labels_counts_matches_as_entity(self):
        metrics = score([("p1", "r1"), ("p2", "r2")], [ent(0, 5, "Drug")], [])
        assert metrics.per_label["entity"].tp == 2
        assert metrics.per_label["Drug"].fp == 1

    def test_score_rejects_match_labels_of_another_length(self):
        with pytest.raises(ValueError, match="1 match labels for 2 matches"):
            score([("p1", "r1"), ("p2", "r2")], [], [], [("Drug", "Drug")])

    def test_zero_denominators_give_zero(self):
        counts = LabelCounts()
        assert (counts.precision, counts.recall, counts.f1) == (0.0, 0.0, 0.0)

    def test_per_label_breakdown(self):
        pred = [ent(0, 5, "A"), ent(10, 15, "B")]
        ref = [ent(0, 5, "A"), ent(20, 25, "B")]
        metrics = evaluate(pred, ref)
        assert metrics.per_label["A"].tp == 1
        assert metrics.per_label["B"].fp == 1
        assert metrics.per_label["B"].fn == 1

    def test_counts_add_field_by_field_into_a_new_count(self):
        a, b = LabelCounts(1, 2, 3), LabelCounts(10, 20, 30)
        assert a + b == LabelCounts(11, 22, 33)
        assert (a, b) == (LabelCounts(1, 2, 3), LabelCounts(10, 20, 30))

    def test_merge_leaves_its_parts_unchanged(self):
        part = evaluate([ent(0, 5)], [ent(0, 5)])
        merged = merge_metrics([part, part])
        assert merged.per_label["Drug"].tp == 2 and part.per_label["Drug"].tp == 1

    def test_merge_is_sum_then_score(self):
        part1 = evaluate([ent(0, 5)], [ent(0, 5)])  # p = 1
        part2 = evaluate([ent(0, 5), ent(9, 12)], [ent(0, 5)])  # p = 0.5
        merged = merge_metrics([part1, part2])
        assert merged.micro.tp == 2 and merged.micro.fp == 1
        assert abs(merged.micro.precision - 2 / 3) < 1e-9  # not mean(1, 0.5)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_symmetry_of_counts(self, seed):
        rng = random.Random(seed)
        spec = MatchSpec(
            mode=rng.choice(["exact", "overlap"]),
            iou_threshold=rng.choice([0.3, 0.5, 0.8]),
            label_sensitive=rng.random() < 0.5,
        )
        def random_set():
            return [
                ent(s, s + rng.randint(1, 6), rng.choice("AB"))
                for s in (rng.randint(0, 40) for _ in range(rng.randint(0, 8)))
            ]
        a, b = random_set(), random_set()
        ab = evaluate(a, b, spec).micro
        ba = evaluate(b, a, spec).micro
        assert ab.tp == ba.tp
        assert ab.fp == ba.fn and ab.fn == ba.fp

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_self_match_is_perfect(self, seed):
        rng = random.Random(seed)
        entities = [
            ent(s, s + rng.randint(1, 6), rng.choice("AB"))
            for s in (10 * i for i in range(rng.randint(1, 8)))
        ]
        micro = evaluate(entities, entities).micro
        assert (micro.tp, micro.fp, micro.fn) == (len(entities), 0, 0)
        assert micro.f1 == 1.0


class TestReporting:
    def test_metrics_to_dict(self):
        d = metrics_to_dict(evaluate([ent(0, 5)], [ent(0, 5)]))
        assert d["micro"]["tp"] == 1
        assert "Drug" in d["per_label"]

    def test_format_metrics_table(self):
        table = format_metrics(evaluate([ent(0, 5)], [ent(0, 5)]))
        assert "micro" in table and "1.000" in table

    def test_compare_runs_declares_winner(self):
        good = evaluate([ent(0, 5)], [ent(0, 5)])
        bad = evaluate([ent(9, 12)], [ent(0, 5)])
        out = compare_runs(good, bad, name_a="dict", name_b="regex")
        assert "winner: dict" in out

    def test_compare_runs_tie(self):
        same = evaluate([ent(0, 5)], [ent(0, 5)])
        assert "winner: tie" in compare_runs(same, same)


# Alignment in both modes against the all-pairs scan, with exact mode the
# overlap sweep at IoU 1.

fragments = st.tuples(st.integers(0, 12), st.integers(0, 3)).map(
    lambda t: Span(t[0], t[0] + t[1])
)
entities = st.builds(
    lambda label, spans: Entity(label=label, text="", spans=[])
    if not spans
    else Entity(label=label, text="x" * sum(s.length for s in spans), spans=spans),
    st.sampled_from(["Drug", "Date"]),
    # Several fragments: discontiguous, adjacent, overlapping or empty.
    st.lists(fragments, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(entities, max_size=8),
    st.lists(entities, max_size=8),
    st.sampled_from(["exact", "overlap"]),
    st.booleans(),
)
def test_align_entities_matches_frozen_align(pred, ref, mode, label_sensitive):
    # Repeat some entities so that equal keys compete for one another.
    pred = pred + pred[:2]
    ref = ref + ref[1:3]
    spec = MatchSpec(mode=mode, label_sensitive=label_sensitive)
    # Each entity's spans are projected onto the raw text once per call.
    with mock.patch.object(evaluation, "normalize_spans", wraps=normalize_spans) as projected:
        got = align_entities(pred, ref, spec)
    assert projected.call_count == len(pred) + len(ref)
    expected = frozen_align_entities(pred, ref, spec)
    assert got[0] == expected[0]
    assert [e.id for e in got[1]] == [e.id for e in expected[1]]
    assert [e.id for e in got[2]] == [e.id for e in expected[2]]
    if mode == "exact":
        assert got == align_entities(pred, ref, MatchSpec("overlap", 1.0, label_sensitive))


# The overlap sweep compares only pairs whose character ranges overlap; at
# any threshold it finds the candidates of the all-pairs scan.

wide_fragments = st.tuples(st.integers(0, 40), st.integers(0, 12)).map(
    lambda t: Span(t[0], t[0] + t[1])
)
wide_entities = st.builds(
    lambda label, spans: Entity(
        label=label, text="x" * sum(s.length for s in spans), spans=spans
    ),
    st.sampled_from(["Drug", "Date"]),
    st.lists(wide_fragments, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(wide_entities, max_size=12),
    st.lists(wide_entities, max_size=12),
    st.sampled_from([0.01, 0.2, 0.5, 1.0]),
    st.booleans(),
)
def test_overlap_alignment_matches_frozen_align_at_any_threshold(
    pred, ref, threshold, label_sensitive
):
    pred = pred + pred[:2]
    spec = MatchSpec(mode="overlap", iou_threshold=threshold, label_sensitive=label_sensitive)
    got = align_entities(pred, ref, spec)
    expected = frozen_align_entities(pred, ref, spec)
    assert got[0] == expected[0]
    assert [e.id for e in got[1]] == [e.id for e in expected[1]]
    assert [e.id for e in got[2]] == [e.id for e in expected[2]]
