"""Per-item lineage: recorded (output, source) pairs against brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe import demo, pipeline, provenance
from annopipe.core import create_document
from annopipe.exceptions import CycleDetectedError
from annopipe.io.textdir import load_text_documents
from annopipe.pipeline import (
    PipelineSpec,
    PipelineStep,
    as_operation,
    compile_pipeline,
    default_registry,
    run_pipeline,
)
from annopipe.provenance import (
    OperationDescriptor,
    Tracer,
    VerbosityLevel,
    build_graph,
)
from annopipe.textops import DEFAULT_NEGATION_RULES

from helpers import (
    entity_fingerprint,
    expected_derivations,
    frozen_descendant_scopes,
    reachable_from,
)

DEID_RULES = [
    {"pattern": r"\b\d{2}/\d{2}/\d{4}\b", "placeholder": "[DATE]"},
    {"pattern": r"\b0\d(?: \d{2}){4}\b", "placeholder": "[PHONE]"},
]
CONTEXT_PARAMS = {
    "attribute_label": DEFAULT_NEGATION_RULES.attribute_label,
    "cues_before": DEFAULT_NEGATION_RULES.cues_before,
    "cues_after": DEFAULT_NEGATION_RULES.cues_after,
    "terminators": DEFAULT_NEGATION_RULES.terminators,
}


def _steps():
    """split -> deid -> dictionary -> detect_context -> brat, keyed by slot."""
    return {
        "full_text": PipelineStep("to_segment", {}, ["doc"], ["full_text"]),
        "sentences": PipelineStep("split_sentences", {}, ["full_text"], ["sentences"]),
        "deid": PipelineStep("deidentify", {"rules": DEID_RULES}, ["sentences"], ["deid", "phi"]),
        "entities": PipelineStep(
            "match_dictionary",
            {"path": str(demo.dictionary_path()), "strip_accents": True},
            ["deid"],
            ["entities"],
        ),
        "negated": PipelineStep(
            "detect_context", CONTEXT_PARAMS, ["deid", "entities"], ["negated"]
        ),
        "brat": PipelineStep("emit_brat", {}, ["doc", "negated"], ["brat"]),
    }


def _spec(name, steps, inputs=("doc",)):
    """A spec that outputs every slot it makes, so the oracle sees every value."""
    keys = [k for s in steps for k in s.output_keys]
    return PipelineSpec(name, list(steps), list(inputs), keys)


def _flat_plan():
    return compile_pipeline(_spec("flat", _steps().values()))


def _nested_plan():
    """The same pipeline with two nesting levels: preprocess(split, ner(deid, dict))."""
    s = _steps()
    registry = default_registry().copy()
    ner = _spec("ner", [s["deid"], s["entities"]], inputs=["sentences"])
    as_operation(ner, registry)
    ner_step = PipelineStep("ner", {}, ["sentences"], ner.pipeline_outputs)
    pre = _spec("preprocess", [s["full_text"], s["sentences"], ner_step])
    as_operation(pre, registry)
    outer = _spec(
        "outer",
        [PipelineStep("preprocess", {}, ["doc"], pre.pipeline_outputs), s["negated"], s["brat"]],
    )
    return compile_pipeline(outer, registry)


def _assert_records_match_oracle(plan, docs, level=VerbosityLevel.FULL):
    tracer = Tracer(level)
    expected = []
    for doc in docs:
        env = {"doc": doc, **run_pipeline(plan, {"doc": doc}, tracer=tracer)}
        expected.extend(expected_derivations(plan, env))
    records = tracer._records
    assert [name for name, _ in expected] == [rec.op.name for rec in records]
    for (name, pairs), rec in zip(expected, records):
        # An output without an id of its own is named by its position among the step's.
        pairs = {(rec.outputs[o] if isinstance(o, int) else o, s) for o, s in pairs}
        if pairs:
            assert len(rec.derivations) == len(pairs) and set(rec.derivations) == pairs, name
        else:  # the step made nothing; its stand-in derives from all it took
            assert rec.derivations == [(rec.outputs[0], s) for s in dict.fromkeys(rec.sources)]
    return tracer


class TestRecordedPairsMatchOracle:
    def test_flat_pipeline_over_demo_corpus(self):
        tracer = _assert_records_match_oracle(_flat_plan(), load_text_documents(demo.corpus_dir()))
        assert sum(rec.op.name == "detect_context" for rec in tracer._records) == 24

    def test_nested_pipeline_over_demo_corpus(self):
        docs = load_text_documents(demo.corpus_dir())
        for level in (VerbosityLevel.STEPS, VerbosityLevel.FULL):
            tracer = _assert_records_match_oracle(_nested_plan(), docs, level)
            assert {rec.scope for rec in tracer._records} >= set(tracer._scopes)

    def test_empty_and_blank_documents(self):
        docs = [create_document(""), create_document(" \n "), create_document("Sans aspirine")]
        _assert_records_match_oracle(_flat_plan(), docs)
        _assert_records_match_oracle(_nested_plan(), docs)

    def test_records_keep_every_source_of_their_step(self):
        tracer = Tracer(VerbosityLevel.FULL)
        doc = load_text_documents(demo.corpus_dir())[0]
        env = run_pipeline(_flat_plan(), {"doc": doc}, tracer=tracer)
        deid = next(rec for rec in tracer._records if rec.op.name == "deidentify")
        assert deid.sources == [s.id for s in env["sentences"]]


def test_a_composite_derives_each_output_only_from_the_inputs_that_made_it():
    """deidentify(sentences) -> clean, phi; emit_brat(doc, phi) -> brat, nested.

    Each clean sentence derives from its sentence alone, never from the
    document; the Brat text derives from the document and each sentence that
    held a placeholder.
    """
    registry = default_registry().copy()
    steps = [
        PipelineStep("deidentify", {"rules": DEID_RULES}, ["sentences"], ["clean", "phi"]),
        PipelineStep("emit_brat", {}, ["doc", "phi"], ["brat"]),
    ]
    sub = PipelineSpec("deid_brat", steps, ["doc", "sentences"], ["clean", "brat"])
    name = as_operation(sub, registry)
    outer = _spec("outer", [
        _steps()["full_text"],
        _steps()["sentences"],
        PipelineStep(name, {}, ["doc", "sentences"], ["clean", "brat"]),
    ])
    doc = create_document("Vu le 12/03/2024. Pas de fièvre. Rappel au 06 12 34 56 78.")
    tracer = Tracer(VerbosityLevel.FULL)
    env = run_pipeline(compile_pipeline(outer, registry), {"doc": doc}, tracer=tracer)
    graph = build_graph(tracer)
    (scope,) = tracer._scopes
    exposed = [out for out, act in graph.was_generated_by if act == scope]
    clean = [s.id for s in env["clean"]]
    (brat,) = set(exposed) - set(clean)
    sentences = [s.id for s in env["sentences"]]
    assert len(sentences) == 3
    assert env["brat"] == "T1\tDATE 6 16\t12/03/2024\nT2\tPHONE 43 57\t06 12 34 56 78\n"
    got = {pair for pair in graph.was_derived_from if pair[0] in exposed}
    brat_sources = [doc.id, sentences[0], sentences[2]]  # the sentences holding a placeholder
    assert got == {*zip(clean, sentences), *((brat, src) for src in brat_sources)}


def _shape(value):
    """Run outputs with each segment replaced by its id-free fingerprint."""
    if isinstance(value, dict):
        return {key: _shape(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return entity_fingerprint(value) if hasattr(value, "spans") else value


@pytest.mark.parametrize("make_plan", [_flat_plan, _nested_plan])
def test_none_tracer_does_no_provenance_work(make_plan, monkeypatch):
    """A NONE tracer records nothing, builds no descriptor and mints no id."""
    plan = make_plan()
    docs = load_text_documents(demo.corpus_dir())
    untraced = [_shape(run_pipeline(plan, {"doc": doc})) for doc in docs]
    work = []
    monkeypatch.setattr(Tracer, "record", lambda *a, **k: work.append("record"))
    monkeypatch.setattr(Tracer, "open_scope", lambda *a, **k: work.append("scope"))
    monkeypatch.setattr(provenance, "OperationDescriptor", lambda *a, **k: work.append("op"))
    monkeypatch.setattr(pipeline, "new_id", lambda: work.append("id"))
    tracer = Tracer(VerbosityLevel.NONE)
    traced = [_shape(run_pipeline(plan, {"doc": doc}, tracer=tracer)) for doc in docs]
    assert work == []
    assert traced == untraced


def _long_note(size=36_000):
    """Demo notes joined until the text reaches ``size`` characters."""
    notes = [p.read_text(encoding="utf-8").strip() for p in sorted(demo.corpus_dir().glob("*.txt"))]
    parts, length = [], 0
    for note in itertools.cycle(notes):
        if length >= size:
            break
        parts.append(note)
        length += len(note) + 1
    return create_document("\n".join(parts))


def test_lineage_stays_linear_on_a_long_note():
    """At full, a 36 KB note gives at most two derivations per generated item.

    Deriving every output of a step from every input of it gives hundreds.
    """
    spec = PipelineSpec("context", list(_steps().values()), ["doc"], ["brat"])
    tracer = Tracer(VerbosityLevel.FULL)
    doc = _long_note()
    outputs = run_pipeline(spec, {"doc": doc}, tracer=tracer)
    assert "is_negated" in outputs["brat"]
    graph = build_graph(tracer)
    derived = generated = 0
    stack = [graph]
    while stack:
        g = stack.pop()
        derived += len(g.was_derived_from)
        generated += len(g.was_generated_by)
        stack.extend(g.sub_graphs.values())
    assert generated > 1_000
    assert derived <= 2 * generated


ITEMS = [f"e{i:02d}" for i in range(30)]


@st.composite
def traces_with_pairs(draw, level):
    """Traces whose records all carry pairs, with scopes up to 3 deep.

    Each item is made by at most one record, so each derivation at a level
    belongs to the one activity that made its output there. Sources come
    from below a random cut of the pool and outputs from above it, so item
    lineage stays acyclic.
    """
    tracer = Tracer(level)
    depth = {None: 0}
    made = set()
    for _ in range(draw(st.integers(0, 16))):
        scope = draw(st.sampled_from(list(depth)))
        if depth[scope] < 3 and draw(st.integers(0, 3)) == 0:
            op = OperationDescriptor(draw(st.sampled_from("pq")), {"n": len(depth)})
            depth[tracer.open_scope(op, parent=scope)] = depth[scope] + 1
            continue
        cut = draw(st.integers(1, len(ITEMS) - 1))
        free = [i for i in ITEMS[cut:] if i not in made]
        if not free:
            continue
        sources = draw(st.lists(st.sampled_from(ITEMS[:cut]), max_size=4))
        outputs = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
        made.update(outputs)
        pairs = []
        for out in outputs:
            if sources:
                pairs += [(out, s) for s in draw(st.lists(st.sampled_from(sources), max_size=3))]
        op = OperationDescriptor(draw(st.sampled_from("abc")))
        tracer.record(op, sources, outputs, scope, pairs)
    return tracer


def _composites(graph):
    """(composite id, its level's graph) for every composite at every level."""
    for act_id, act in graph.activities.items():
        if act.composite:
            yield act_id, graph
            if act_id in graph.sub_graphs:
                yield from _composites(graph.sub_graphs[act_id])


class TestCompositeLineage:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_composite_derives_from_reachable_external_sources(self, data):
        level = data.draw(st.sampled_from([VerbosityLevel.STEPS, VerbosityLevel.FULL]))
        tracer = data.draw(traces_with_pairs(level))
        try:
            graph = build_graph(tracer)
        except CycleDetectedError:
            return  # an interleaved scope; see test_provenance
        for key, level_graph in _composites(graph):
            members = frozen_descendant_scopes(tracer, key)
            records = [rec for rec in tracer._records if rec.scope in members]
            made = {out for rec in records for out in rec.outputs}
            pairs = {pair for rec in records for pair in rec.derivations}
            exposed = [out for out, act in level_graph.was_generated_by if act == key]
            expected = {(out, src) for out in exposed for src in reachable_from(pairs, out) - made}
            got = [(out, src) for out, src in level_graph.was_derived_from if out in set(exposed)]
            assert len(got) == len(set(got))
            assert set(got) == expected

    def test_a_pairless_record_leads_each_output_back_through_each_source(self):
        tracer = Tracer(VerbosityLevel.STEPS)
        scope = tracer.open_scope(OperationDescriptor("sub"))
        pairs = [("s1", "d1"), ("s2", "d2")]
        tracer.record(OperationDescriptor("a"), ["d1", "d2"], ["s1", "s2"], scope, pairs)
        tracer.record(OperationDescriptor("b"), ["s1", "s2"], ["e1", "e2"], scope)
        cross = [("e1", "s1"), ("e1", "s2"), ("e2", "s1"), ("e2", "s2")]
        assert tracer._records[1].derivations == cross
        graph = build_graph(tracer)
        assert graph.was_derived_from == [("e1", "d2"), ("e1", "d1"), ("e2", "d2"), ("e2", "d1")]

    def test_a_pairless_record_adds_no_edge_its_sources_do_not_lead_to(self):
        tracer = Tracer(VerbosityLevel.STEPS)
        scope = tracer.open_scope(OperationDescriptor("sub"))
        pairs = [("s1", "d1"), ("s2", "d2")]
        tracer.record(OperationDescriptor("a"), ["d1", "d2"], ["s1", "s2"], scope, pairs)
        tracer.record(OperationDescriptor("b"), ["s1"], ["e1"], scope)
        graph = build_graph(tracer)
        assert graph.was_derived_from == [("s2", "d2"), ("e1", "d1")]
