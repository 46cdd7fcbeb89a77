"""Span arithmetic on synthetic traces, and wrapping of annopipe's functions."""

import pytest

import tracing


def test_self_time_subtracts_the_union_of_children():
    rec = tracing.SpanRecorder()
    root = rec.add_span("pipeline", "pipeline.run_pipeline", 0.0, 10.0, size=100)
    a = rec.add_span("spans", "spans.extract", 1.0, 4.0, parent=root)
    rec.add_span("spans", "spans.replace", 3.0, 6.0, parent=root)  # overlaps a
    rec.add_span("spans", "spans.normalize_spans", 2.0, 3.0, parent=a)
    rec.add_span("cli", "cli.main", 20.0, 21.5)
    assert tracing.self_times(rec.start, rec.end, rec.parent) == [5.0, 2.0, 3.0, 1.0, 1.5]

    summary = tracing.summarize(rec)
    assert summary["layers"] == {"pipeline": 5.0, "spans": 6.0, "cli": 1.5}
    assert summary["functions"]["spans.extract"] == {"calls": 1, "self_s": 2.0, "useful": 1}
    (doc,) = summary["docs"]["pipeline.run_pipeline"]
    assert doc["size"] == 100 and doc["duration_s"] == 10.0
    assert doc["layers"] == {"pipeline": 5.0, "spans": 6.0}
    assert summary["top_level_s"] == 10.0  # the pipeline span; cli is not a layer span


def test_nested_roots_belong_to_the_outermost_document():
    rec = tracing.SpanRecorder()
    outer = rec.add_span("pipeline", "pipeline.run_pipeline", 0.0, 4.0, size=10)
    rec.add_span("pipeline", "pipeline.run_pipeline", 1.0, 3.0, parent=outer, size=-1)
    rec.add_span("pipeline", "pipeline.run_pipeline", 5.0, 6.0, size=20)
    docs = tracing.summarize(rec)["docs"]["pipeline.run_pipeline"]
    assert [(d["size"], d["layers"]["pipeline"]) for d in docs] == [(10, 4.0), (20, 1.0)]


@pytest.mark.parametrize("power, expected", [(1, 4.0), (2, 16.0)])
def test_scaling_4x_from_size_classes(power, expected):
    sizes = [9_000] * 16 + [36_000] * 4
    times = [0.01 * (s / 9_000) ** power for s in sizes]
    assert tracing.scaling_4x(sizes, times) == pytest.approx(expected)


def test_scaling_4x_from_documents_of_a_traced_summary():
    rec = tracing.SpanRecorder()
    t = 0.0
    for size in [1_000, 4_000] * 3:
        root = rec.add_span("pipeline", "pipeline.run_pipeline", t, t + 1.0, size=size)
        cost = 0.001 * (size / 1_000) ** 2
        rec.add_span("spans", "spans.extract", t, t + cost, parent=root)
        t += 2.0
    docs = tracing.summarize(rec)["docs"]["pipeline.run_pipeline"]
    ratio = tracing.scaling_4x([d["size"] for d in docs], [d["layers"]["spans"] for d in docs])
    assert ratio == pytest.approx(16.0)


def test_scaling_4x_needs_two_sizes():
    assert tracing.scaling_4x([100, 100], [1.0, 2.0]) == 0.0
    assert tracing.scaling_4x([0, 400], [1.0, 2.0]) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(range(1, 1_001)) == (99.0, 990)
    assert tracing.tail_percentile(range(1, 21)) == (50.0, 10)
    assert tracing.tail_percentile(range(1, 20)) == (0.0, 0.0)


def test_installed_wraps_every_alias_and_restores():
    import annopipe
    import annopipe.spans
    import annopipe.textops.deid
    from annopipe.core import create_document, full_text_segment
    from annopipe.textops import DeidRule, deidentify

    original = annopipe.spans.extract
    rec = tracing.SpanRecorder()
    with tracing.installed(rec):
        assert annopipe.spans.extract is not original
        assert annopipe.textops.deid.extract is annopipe.spans.extract
        assert annopipe.extract is annopipe.spans.extract
        seg = full_text_segment(create_document("Vu le 01/02/2020."))
        annopipe.textops.deid.deidentify(seg, [DeidRule(r"\d\d/\d\d/\d{4}", "[DATE]")])
    assert annopipe.spans.extract is original
    assert annopipe.textops.deid.extract is original
    assert annopipe.textops.deid.deidentify is deidentify

    summary = tracing.summarize(rec)
    assert summary["functions"]["textops.deid.deidentify"]["calls"] == 1
    assert summary["functions"]["spans.extract"]["calls"] == 1
    assert summary["functions"]["spans.replace"]["calls"] == 1
    assert summary["functions"]["provenance.Tracer.record"]["calls"] == 0


def test_a_missing_function_is_absent_not_an_error(monkeypatch):
    import annopipe.textops.dictionary as dictionary

    monkeypatch.delattr(dictionary, "load_dictionary")
    names = {name for _, name, _, _ in tracing.discover_targets()}
    assert "textops.dictionary.match_dictionary" in names
    assert "textops.dictionary.load_dictionary" not in names
