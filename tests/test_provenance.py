import dataclasses
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe.exceptions import CycleDetectedError, MalformedJsonError, SelfDerivationError
from annopipe.provenance import (
    Activity,
    OperationDescriptor,
    ProvGraph,
    Tracer,
    VerbosityLevel,
    build_graph,
    export_prov,
    parse_prov_json,
)

from helpers import (
    frozen_build_graph,
    frozen_descendant_scopes,
    frozen_export_prov,
    frozen_parse_prov_json,
    reachable_from,
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

    def test_a_record_without_pairs_holds_every_output_with_every_source(self):
        tracer = Tracer()
        tracer.record(_op("x"), ["a", "b", "a"], ["c", "d", "c"])
        assert tracer._records[0].derivations == [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")]

    def test_self_derivation_rejected(self):
        tracer = Tracer()
        with pytest.raises(SelfDerivationError):
            tracer.record(_op("x"), ["a"], ["a"])

    def test_requires_outputs(self):
        with pytest.raises(ValueError):
            Tracer().record(_op("x"), ["a"], [])

    def test_unopened_scope_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record(_op("x"), ["a"], ["b"], scope="never-opened")
        with pytest.raises(ValueError):
            tracer.open_scope(_op("sub"), parent="never-opened")
        assert tracer.records == [] and tracer._scopes == {}

    def test_verbosity_parse(self):
        assert VerbosityLevel.parse("steps") is VerbosityLevel.STEPS
        assert VerbosityLevel.parse("FULL") is VerbosityLevel.FULL

    def test_derivations_must_name_the_record_items(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.record(_op("x"), ["a"], ["b"], derivations=[("c", "a")])
        with pytest.raises(ValueError):
            tracer.record(_op("x"), ["a"], ["b"], derivations=[("b", "c")])
        assert tracer._records == []

    def test_derivations_kept_beside_full_sources(self):
        tracer = Tracer()
        tracer.record(_op("split"), ["d1", "d2"], ["s1", "s2"], derivations=[("s1", "d1")])
        assert [r.source_ids for r in tracer.records] == [["d1", "d2"], ["d1", "d2"]]
        assert tracer._records[0].derivations == [("s1", "d1")]


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

    def test_derivations_replace_the_cross_product(self):
        tracer = Tracer()
        tracer.record(
            _op("split"), ["d1", "d2"], ["s1", "s2", "s3"],
            derivations=[("s1", "d1"), ("s2", "d2"), ("s3", "d2"), ("s1", "d1")],
        )
        graph = build_graph(tracer)
        assert graph.was_derived_from == [("s1", "d1"), ("s2", "d2"), ("s3", "d2")]
        assert len(graph.used) == 2 and len(graph.was_generated_by) == 3

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

    def test_composite_derives_through_inner_pairs(self):
        tracer = Tracer(VerbosityLevel.STEPS)
        tracer.record(
            _op("load"), ["raw"], ["d1", "d2"], derivations=[("d1", "raw"), ("d2", "raw")]
        )
        scope = tracer.open_scope(_op("preprocess"))
        tracer.record(
            _op("split"), ["d1", "d2"], ["s1", "s2"], scope=scope,
            derivations=[("s1", "d1"), ("s2", "d2")],
        )
        tracer.record(
            _op("clean"), ["s1", "s2"], ["c1", "c2"], scope=scope,
            derivations=[("c1", "s1"), ("c2", "s2")],
        )
        tracer.record(_op("ner"), ["c2"], ["e2"], derivations=[("e2", "c2")])
        graph = build_graph(tracer)
        assert ("c1", "d1") in graph.was_derived_from
        assert ("c2", "d2") in graph.was_derived_from
        assert ("c1", "d2") not in graph.was_derived_from
        assert len(graph.was_derived_from) == 5

    def test_composite_informed_edges(self):
        graph = build_graph(_nested_trace(VerbosityLevel.STEPS))
        names = {a: act.name for a, act in graph.activities.items()}
        informed = {(names[x], names[y]) for x, y in graph.was_informed_by}
        assert informed == {("preprocess", "load"), ("ner", "preprocess")}


class TestInterleavedScope:
    """A scope's records interleaved with an outside record that feeds them.

    Collapsed into one composite, the scope both feeds and is fed by the
    outside activity. The graph has a cycle in used/wasGeneratedBy whatever
    the item lineage says, so build_graph rejects the trace. run_pipeline
    never makes one: a sub-pipeline's records are contiguous.
    """

    @pytest.mark.parametrize("level", [VerbosityLevel.STEPS, VerbosityLevel.FULL])
    @pytest.mark.parametrize("with_pairs", [False, True])
    def test_build_graph_reports_the_cycle(self, level, with_pairs):
        def pairs(*p):
            return list(p) if with_pairs else None

        tracer = Tracer(level)
        sub = tracer.open_scope(_op("sub"))
        tracer.record(_op("a"), ["in"], ["x"], scope=sub, derivations=pairs(("x", "in")))
        tracer.record(_op("b"), ["x"], ["y"], derivations=pairs(("y", "x")))
        tracer.record(_op("c"), ["y"], ["z"], scope=sub, derivations=pairs(("z", "y")))
        with pytest.raises(CycleDetectedError):
            build_graph(tracer)


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

    def test_dot_escapes_backslash_quote_and_newline(self):
        tracer = Tracer(VerbosityLevel.STEPS)
        name = 'split "fast"\nv2\\'
        tracer.record(OperationDescriptor(name=name), sources=['in "1"'], outputs=["out\n1"])
        graph = build_graph(tracer)
        dot = export_prov(graph, "dot")
        (act_id,) = graph.activities
        assert f'  "{act_id}" [shape=box, label="split \\"fast\\"\\nv2\\\\"];\n' in dot
        assert '  "in \\"1\\"" [shape=ellipse];\n' in dot
        assert f'  "out\\n1" -> "{act_id}" [label="wasGeneratedBy"];\n' in dot
        # One statement a line, and every quoted string closes on its line.
        statements = dot.splitlines()[1:-1]
        assert len(statements) == len(graph.entities) + 1 + 3  # used, generated, derived
        for line in statements:
            assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0
        # PROV-JSON keeps each string as it is.
        assert parse_prov_json(export_prov(graph)).activities[act_id].name == name

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

    def test_merge_carries_derivations(self):
        a, b = Tracer(), Tracer()
        b.record(_op("x"), ["d1", "d2"], ["o1"], derivations=[("o1", "d2")])
        a.merge(b)
        assert a._records[0].derivations == [("o1", "d2")]
        assert build_graph(a).was_derived_from == [("o1", "d2")]


ITEMS = [f"e{i}" for i in range(10)]


@st.composite
def nested_traces(draw, level):
    """Merged traces over a shared item pool, with scopes up to 3 deep.

    Sources come from below a random cut of the pool and outputs from above
    it, so item lineage itself stays acyclic; a scope whose records
    interleave with outside ones can still collapse into a cycle, which both
    builders must report. Scopes may be left empty, and any record may reuse
    items another scope or tracer produced.
    """
    tracers = []
    for _ in range(draw(st.integers(1, 3))):
        tracer = Tracer(level)
        depth = {None: 0}
        for _ in range(draw(st.integers(0, 14))):
            scope = draw(st.sampled_from(list(depth)))
            if depth[scope] < 3 and draw(st.integers(0, 3)) == 0:
                op = OperationDescriptor(draw(st.sampled_from("pq")), {"n": len(depth)})
                depth[tracer.open_scope(op, parent=scope)] = depth[scope] + 1
                continue
            cut = draw(st.integers(1, len(ITEMS) - 1))
            sources = draw(st.lists(st.sampled_from(ITEMS[:cut]), max_size=4))
            outputs = draw(st.lists(st.sampled_from(ITEMS[cut:]), min_size=1, max_size=3))
            tracer.record(_op(draw(st.sampled_from("abc"))), sources, outputs, scope=scope)
        tracers.append(tracer)
    for other in tracers[1:]:
        tracers[0].merge(other)
    return tracers[0]


def _build_with_counted_ids(builder, tracer):
    """Build with activity ids drawn from a counter, so builds compare by position."""
    counter = itertools.count()

    def count():
        return f"act{next(counter)}"

    with mock.patch("uuid.uuid4", count), mock.patch("annopipe.provenance.new_id", count):
        try:
            return builder(tracer)
        except CycleDetectedError:
            return CycleDetectedError


def _with_composite_lineage(frozen, graph, tracer):
    """``frozen`` with each composite's wasDerivedFrom edges taken from ``graph``.

    The frozen builder derives each exposed output of a composite from every
    outside source. Those edges of ``graph`` must instead be the exposed
    outputs with the outside sources that its member records lead back to,
    each output deriving from each source of its record: a subset of the
    frozen edges, in any order. Every other edge stays the frozen builder's.
    """
    derived, at = [], 0
    for act_id, act in frozen.activities.items():
        outs = [out for out, a in frozen.was_generated_by if a == act_id]
        n = len(outs) * sum(a == act_id for a, _ in frozen.used)
        block, at = frozen.was_derived_from[at:at + n], at + n
        if act.composite:
            members = frozen_descendant_scopes(tracer, act_id)
            records = [rec for rec in tracer._records if rec.scope in members]
            made = {out for rec in records for out in rec.outputs}
            pairs = {(out, src) for rec in records for out in rec.outputs for src in rec.sources}
            expected = {(out, src) for out in outs for src in reachable_from(pairs, out) - made}
            assert expected <= set(block)
            block = graph.was_derived_from[len(derived):len(derived) + len(expected)]
            assert len(block) == len(set(block)) and set(block) == expected
        derived += block
    assert at == len(frozen.was_derived_from)
    subs = {
        act_id: _with_composite_lineage(sub, graph.sub_graphs.get(act_id, ProvGraph()), tracer)
        for act_id, sub in frozen.sub_graphs.items()
    }
    return dataclasses.replace(frozen, was_derived_from=derived, sub_graphs=subs)


class TestBuilderMatchesFrozen:
    @pytest.mark.parametrize("level", [VerbosityLevel.STEPS, VerbosityLevel.FULL])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_graph_as_frozen_builder(self, level, data):
        tracer = data.draw(nested_traces(level))
        frozen = _build_with_counted_ids(frozen_build_graph, tracer)
        graph = _build_with_counted_ids(build_graph, tracer)
        if frozen is CycleDetectedError:
            assert graph is CycleDetectedError
            return
        expected = _with_composite_lineage(frozen, graph, tracer)
        assert list(graph.activities.items()) == list(expected.activities.items())
        assert graph == expected
        assert export_prov(graph) == export_prov(expected)


# Characters that JSON must escape or that leave the basic plane, mixed into
# otherwise arbitrary text.
AWKWARD = st.one_of(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "\U0010fffd"]),
    st.characters(),
)
NAMES = st.text(alphabet=AWKWARD, max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)
RELATIONS = ("used", "was_generated_by", "was_derived_from", "was_informed_by")


@st.composite
def prov_graphs(draw, depth=0):
    """Graphs with awkward ids, labels and configs, any section possibly empty,
    and sub-graphs nested up to 3 deep under activities."""
    graph = ProvGraph()
    graph.entities = draw(st.sets(NAMES, max_size=4))
    for act_id in draw(st.lists(NAMES, max_size=2, unique=True)):
        config = draw(st.dictionaries(NAMES, JSON_VALUES, max_size=3))
        graph.activities[act_id] = Activity(act_id, draw(NAMES), config, draw(st.booleans()))
        if depth < 3 and draw(st.booleans()):
            graph.sub_graphs[act_id] = draw(prov_graphs(depth + 1))
    for name in RELATIONS:
        setattr(graph, name, draw(st.lists(st.tuples(NAMES, NAMES), max_size=4)))
    return graph


class TestCodecMatchesFrozen:
    @settings(max_examples=200, deadline=None)
    @given(graph=prov_graphs())
    def test_same_bytes_and_graph_as_frozen_codec(self, graph):
        text = export_prov(graph, "prov-json")
        assert text == frozen_export_prov(graph, "prov-json")
        assert export_prov(graph, "dot") == frozen_export_prov(graph, "dot")
        assert parse_prov_json(text) == frozen_parse_prov_json(text)


MALFORMED = {
    "relation without prov:activity": {"used": {"u1": {"prov:entity": "e"}}},
    "top-level array": [],
    "members not an object": {"activity": {"a": {"prov:label": "x", "members": 5}}},
    "section not an object": {"wasGeneratedBy": ["g1"]},
    "record not an object": {"wasInformedBy": {"i1": "a"}},
    "id not a string": {"wasDerivedFrom": {"d1": {"prov:generatedEntity": 1, "prov:usedEntity": "e"}}},
    "label not a string": {"activity": {"a": {"prov:label": 7}}},
    "config not an object": {"activity": {"a": {"prov:label": "x", "config": 5}}},
    "composite not a boolean": {"activity": {"a": {"prov:label": "x", "composite": "no"}}},
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_prov_json_raises(doc):
    with pytest.raises(MalformedJsonError):
        parse_prov_json(json.dumps(doc))


def test_malformed_relation_names_section_and_record():
    with pytest.raises(MalformedJsonError, match="prov:activity of used record 'u1'"):
        parse_prov_json(json.dumps(MALFORMED["relation without prov:activity"]))
