import json

import pytest

from annopipe.exceptions import CycleDetectedError, SelfDerivationError
from annopipe.provenance import (
    OperationDescriptor,
    ProvGraph,
    Tracer,
    VerbosityLevel,
    build_graph,
    export_prov,
    parse_prov_json,
)


def _op(name):
    return OperationDescriptor(name=name)


class TestTracer:
    def test_records_flat_view(self):
        tracer = Tracer()
        op = _op("split")
        tracer.record(op, ["doc"], ["s1", "s2"])
        recs = tracer.records
        assert [(r.data_item_id, r.op_id) for r in recs] == [
            ("s1", op.id),
            ("s2", op.id),
        ]
        assert recs[0].source_ids == ["doc"]

    def test_none_level_drops_records(self):
        tracer = Tracer(VerbosityLevel.NONE)
        tracer.record(_op("x"), ["a"], ["b"])
        assert tracer.records == []

    def test_self_derivation_rejected(self):
        tracer = Tracer()
        with pytest.raises(SelfDerivationError):
            tracer.record(_op("x"), ["a"], ["a"])

    def test_requires_outputs(self):
        with pytest.raises(ValueError):
            Tracer().record(_op("x"), ["a"], [])

    def test_verbosity_parse(self):
        assert VerbosityLevel.parse("steps") is VerbosityLevel.STEPS
        assert VerbosityLevel.parse("FULL") is VerbosityLevel.FULL


class TestBuildGraph:
    def test_flat_chain(self):
        tracer = Tracer()
        tracer.record(_op("a"), ["doc"], ["seg"])
        tracer.record(_op("b"), ["seg"], ["ent"])
        graph = build_graph(tracer)
        assert graph.entities == {"doc", "seg", "ent"}
        assert len(graph.activities) == 2
        assert ("ent", "seg") in graph.was_derived_from
        # b used seg which a generated, so b was informed by a
        names = {a: act.name for a, act in graph.activities.items()}
        informed = [(names[x], names[y]) for x, y in graph.was_informed_by]
        assert informed == [("b", "a")]

    def test_each_output_generated_once(self):
        tracer = Tracer()
        tracer.record(_op("a"), ["doc"], ["s1", "s2"])
        tracer.record(_op("b"), ["s1"], ["e1"])
        graph = build_graph(tracer)
        generated = [ent for ent, _ in graph.was_generated_by]
        assert sorted(generated) == ["e1", "s1", "s2"]

    def test_acyclic_check_raises_on_cycle(self):
        graph = ProvGraph()
        graph.entities = {"x"}
        graph.activities = {"a": None}
        graph.used = [("a", "x")]
        graph.was_generated_by = [("x", "a")]
        with pytest.raises(CycleDetectedError):
            graph.check_acyclic()

    def test_none_level_graph_is_empty(self):
        tracer = Tracer(VerbosityLevel.NONE)
        tracer.record(_op("a"), ["doc"], ["seg"])
        graph = build_graph(tracer)
        assert graph.entities == set()
        assert graph.activities == {}


def _nested_trace(level):
    """One outer op, then a two-step nested scope, then a consumer."""
    tracer = Tracer(level)
    tracer.record(_op("load"), ["raw"], ["doc"])
    scope = tracer.open_scope(_op("preprocess"))
    tracer.record(_op("split"), ["doc"], ["sent"], scope=scope)
    tracer.record(_op("clean"), ["sent"], ["clean_sent"], scope=scope)
    tracer.record(_op("ner"), ["clean_sent"], ["ent"])
    return tracer


class TestCompositeActivities:
    def test_steps_level_collapses_scope(self):
        graph = build_graph(_nested_trace(VerbosityLevel.STEPS))
        composites = [a for a in graph.activities.values() if a.composite]
        assert [c.name for c in composites] == ["preprocess"]
        # Intermediate "sent" is internal to the scope: consumed inside,
        # never referenced outside, so it stays hidden at this level.
        assert "sent" not in graph.entities
        assert {"doc", "clean_sent", "ent", "raw"} <= graph.entities
        assert graph.sub_graphs == {}

    def test_full_level_adds_sub_graph(self):
        graph = build_graph(_nested_trace(VerbosityLevel.FULL))
        composites = [a for a in graph.activities.values() if a.composite]
        assert len(composites) == 1
        sub = graph.sub_graphs[composites[0].id]
        assert {"doc", "sent", "clean_sent"} <= sub.entities
        assert sorted(a.name for a in sub.activities.values()) == ["clean", "split"]

    def test_steps_entities_subset_of_full(self):
        steps = build_graph(_nested_trace(VerbosityLevel.STEPS))
        full = build_graph(_nested_trace(VerbosityLevel.FULL))
        assert steps.all_entities() <= full.all_entities()

    def test_composite_informed_edges(self):
        graph = build_graph(_nested_trace(VerbosityLevel.STEPS))
        names = {a: act.name for a, act in graph.activities.items()}
        informed = {(names[x], names[y]) for x, y in graph.was_informed_by}
        assert informed == {("preprocess", "load"), ("ner", "preprocess")}


class TestExport:
    def test_prov_json_round_trip(self):
        graph = build_graph(_nested_trace(VerbosityLevel.FULL))
        text = export_prov(graph, "prov-json")
        back = parse_prov_json(text)
        assert back.entities == graph.entities
        assert set(back.activities) == set(graph.activities)
        assert sorted(back.used) == sorted(graph.used)
        assert sorted(back.was_generated_by) == sorted(graph.was_generated_by)
        assert sorted(back.was_derived_from) == sorted(graph.was_derived_from)
        assert sorted(back.was_informed_by) == sorted(graph.was_informed_by)
        assert set(back.sub_graphs) == set(graph.sub_graphs)

    def test_prov_json_keys(self):
        doc = json.loads(export_prov(build_graph(_nested_trace(VerbosityLevel.STEPS))))
        assert set(doc) == {
            "entity",
            "activity",
            "used",
            "wasGeneratedBy",
            "wasDerivedFrom",
            "wasInformedBy",
        }
        composite = [a for a in doc["activity"].values() if a.get("composite")]
        assert len(composite) == 1

    def test_full_export_nests_members(self):
        doc = json.loads(export_prov(build_graph(_nested_trace(VerbosityLevel.FULL))))
        members = [a["members"] for a in doc["activity"].values() if "members" in a]
        assert len(members) == 1
        assert len(members[0]["activity"]) == 2

    def test_dot_export(self):
        dot = export_prov(build_graph(_nested_trace(VerbosityLevel.STEPS)), "dot")
        assert dot.startswith("digraph provenance {")
        assert 'label="preprocess"' in dot
        assert "wasGeneratedBy" in dot

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_prov(ProvGraph(), "xml")


class TestMerge:
    def test_merged_tracers_keep_all_records(self):
        a, b = Tracer(), Tracer()
        a.record(_op("x"), ["d1"], ["o1"])
        b.record(_op("x"), ["d2"], ["o2"])
        a.merge(b)
        graph = build_graph(a)
        assert {"o1", "o2"} <= graph.entities
        assert len(graph.activities) == 2
