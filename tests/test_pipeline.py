import itertools
import json
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from annopipe import demo
from annopipe.core import create_document
from annopipe.exceptions import (
    ConfigError,
    DuplicateNameError,
    MissingInputError,
    StepFailureError,
)
from annopipe.pipeline import (
    OperationRegistry,
    _Registered,
    _run_step,
    PipelineSpec,
    PipelineStep,
    as_operation,
    compile_pipeline,
    register_operation,
    run_pipeline,
    validate_pipeline,
)
from annopipe.provenance import Tracer, VerbosityLevel, build_graph
from annopipe.textops import deid, dictionary


def make_registry():
    reg = OperationRegistry()
    reg.register("double", lambda params: (lambda x: x * 2), 1, 1, "item")
    reg.register("add", lambda params: (lambda a, b: a + b), 2, 1, "item")
    reg.register(
        "split_pair",
        lambda params: (lambda x: (x, -x)),
        1,
        2,
        "item",
    )
    reg.register("total", lambda params: (lambda xs: sum(xs)), 1, 1, "batch")
    reg.register(
        "explode",
        lambda params: (lambda x: [x, x + 1]),
        1,
        1,
        "item",
    )
    reg.register(
        "boom",
        lambda params: (lambda x: 1 / 0),
        1,
        1,
        "item",
    )
    return reg


def counting_registry():
    """make_registry plus "inc", whose factory logs the params it binds."""
    reg = make_registry()
    bound = []
    reg.register("inc", lambda params: bound.append(params) or (lambda x: x + 1))
    return reg, bound


def spec_of(steps, inputs=("x",), outputs=("y",), name="test"):
    return PipelineSpec(
        name=name,
        steps=steps,
        pipeline_inputs=list(inputs),
        pipeline_outputs=list(outputs),
    )


class TestSpecSerialization:
    def test_dict_round_trip(self):
        spec = spec_of(
            [PipelineStep("double", {"k": 1}, ["x"], ["y"])],
        )
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(ConfigError):
            PipelineSpec.from_dict({"name": "x"})

    @pytest.mark.parametrize(
        "where, step, top",
        [
            ("step 0: ", {"param": {"keep_punct": False}}, {}),
            ("step 0: ", {"ouputs": ["z"]}, {}),
            ("", {}, {"output": ["y"]}),
        ],
        ids=["step-param", "step-ouputs", "file-output"],
    )
    def test_from_dict_rejects_unknown_keys(self, where, step, top):
        obj = {
            "name": "x", "inputs": ["x"], "outputs": ["y"], **top,
            "steps": [{"op": "split_sentences", "inputs": ["x"], "outputs": ["y"], **step}],
        }
        (key,) = step or top
        with pytest.raises(ConfigError, match=f"^invalid pipeline config: {where}unknown key '{key}'$"):
            PipelineSpec.from_dict(obj)


class TestValidation:
    def test_valid_pipeline_has_no_issues(self):
        spec = spec_of([PipelineStep("double", {}, ["x"], ["y"])])
        assert validate_pipeline(spec, make_registry()) == []

    def test_forward_reference_flagged(self):
        spec = spec_of(
            [
                PipelineStep("double", {}, ["missing"], ["y"]),
            ]
        )
        issues = validate_pipeline(spec, make_registry())
        assert any("missing" in i.reason for i in issues)
        assert issues[0].step_index == 0

    def test_duplicate_output_key_flagged(self):
        spec = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["y"]),
                PipelineStep("double", {}, ["x"], ["y"]),
            ]
        )
        issues = validate_pipeline(spec, make_registry())
        assert any("produced twice" in i.reason for i in issues)

    def test_unknown_operation_flagged(self):
        spec = spec_of([PipelineStep("nope", {}, ["x"], ["y"])])
        issues = validate_pipeline(spec, make_registry())
        assert any("not registered" in i.reason for i in issues)

    def test_arity_mismatch_flagged(self):
        spec = spec_of([PipelineStep("add", {}, ["x"], ["y"])])
        issues = validate_pipeline(spec, make_registry())
        assert any("expects 2 inputs" in i.reason for i in issues)

    def test_unproduced_pipeline_output_flagged(self):
        spec = spec_of([PipelineStep("double", {}, ["x"], ["z"])])
        issues = validate_pipeline(spec, make_registry())
        assert any(i.step_index is None for i in issues)


class TestExecution:
    def test_scalar_chain(self):
        reg = make_registry()
        spec = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["d"]),
                PipelineStep("add", {}, ["d", "x"], ["y"]),
            ]
        )
        assert run_pipeline(spec, {"x": 3}, registry=reg) == {"y": 9}

    def test_item_op_maps_over_lists(self):
        reg = make_registry()
        spec = spec_of([PipelineStep("double", {}, ["x"], ["y"])])
        assert run_pipeline(spec, {"x": [1, 2, 3]}, registry=reg) == {"y": [2, 4, 6]}

    def test_item_op_list_results_concatenated(self):
        reg = make_registry()
        spec = spec_of([PipelineStep("explode", {}, ["x"], ["y"])])
        assert run_pipeline(spec, {"x": [1, 10]}, registry=reg) == {"y": [1, 2, 10, 11]}

    def test_multi_output_mapping(self):
        reg = make_registry()
        spec = spec_of(
            [PipelineStep("split_pair", {}, ["x"], ["pos", "neg"])],
            outputs=("pos", "neg"),
        )
        result = run_pipeline(spec, {"x": [1, 2]}, registry=reg)
        assert result == {"pos": [1, 2], "neg": [-1, -2]}

    def test_batch_op_sees_whole_list(self):
        reg = make_registry()
        spec = spec_of([PipelineStep("total", {}, ["x"], ["y"])])
        assert run_pipeline(spec, {"x": [1, 2, 3]}, registry=reg) == {"y": 6}

    def test_missing_input_raises(self):
        spec = spec_of([PipelineStep("double", {}, ["x"], ["y"])])
        with pytest.raises(MissingInputError):
            run_pipeline(spec, {}, registry=make_registry())

    def test_invalid_spec_raises_config_error(self):
        spec = spec_of([PipelineStep("nope", {}, ["x"], ["y"])])
        with pytest.raises(ConfigError):
            run_pipeline(spec, {"x": 1}, registry=make_registry())

    def test_step_failure_wraps_cause(self):
        spec = spec_of([PipelineStep("boom", {}, ["x"], ["y"])])
        with pytest.raises(StepFailureError) as err:
            run_pipeline(spec, {"x": 1}, registry=make_registry())
        assert err.value.step_index == 0
        assert err.value.op_name == "boom"
        assert isinstance(err.value.cause, ZeroDivisionError)

    def test_mismatched_list_lengths_fail(self):
        reg = make_registry()
        spec = spec_of([PipelineStep("add", {}, ["a", "b"], ["y"])], inputs=("a", "b"))
        with pytest.raises(StepFailureError):
            run_pipeline(spec, {"a": [1, 2], "b": [1]}, registry=reg)


class TestCompile:
    def test_factories_run_once_per_compile(self):
        reg, bound = counting_registry()
        spec = spec_of(
            [
                PipelineStep("inc", {"k": 1}, ["x"], ["a"]),
                PipelineStep("inc", {"k": 2}, ["a"], ["y"]),
            ]
        )
        plan = compile_pipeline(spec, reg)
        assert bound == [{"k": 1}, {"k": 2}]
        results = [run_pipeline(plan, {"x": x})["y"] for x in (0, 5, [1, 2])]
        assert results == [2, 7, [3, 4]]
        assert len(bound) == 2

    def test_factory_error_fails_the_compile(self):
        reg = make_registry()
        reg.register("needs_k", lambda params: params["k"])
        spec = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["d"]),
                PipelineStep("needs_k", {}, ["d"], ["y"]),
            ]
        )
        with pytest.raises(StepFailureError) as err:
            compile_pipeline(spec, reg)
        assert (err.value.step_index, err.value.op_name) == (1, "needs_k")
        assert isinstance(err.value.cause, KeyError)


class TestNesting:
    def _nested_setup(self):
        reg = make_registry()
        inner = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["d"]),
                PipelineStep("double", {}, ["d"], ["y"]),
            ],
            name="quadruple",
        )
        as_operation(inner, reg)
        outer = spec_of(
            [
                PipelineStep("quadruple", {}, ["x"], ["q"]),
                PipelineStep("double", {}, ["q"], ["y"]),
            ],
            name="outer",
        )
        return reg, outer

    def test_nested_pipeline_runs(self):
        reg, outer = self._nested_setup()
        assert run_pipeline(outer, {"x": 2}, registry=reg) == {"y": 16}

    def test_nested_equals_flat(self):
        reg, outer = self._nested_setup()
        flat = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["a"]),
                PipelineStep("double", {}, ["a"], ["b"]),
                PipelineStep("double", {}, ["b"], ["y"]),
            ],
            name="flat",
        )
        for x in [0, 1, 7, [1, 2, 3]]:
            assert run_pipeline(outer, {"x": x}, registry=reg) == run_pipeline(
                flat, {"x": x}, registry=reg
            )

    def test_nested_pipeline_appears_as_composite_activity(self):
        reg, outer = self._nested_setup()
        tracer = Tracer(VerbosityLevel.STEPS)
        run_pipeline(outer, {"x": 2}, tracer=tracer, registry=reg)
        graph = build_graph(tracer)
        composites = [a for a in graph.activities.values() if a.composite]
        assert [c.name for c in composites] == ["quadruple"]

    def test_full_level_expands_nested_steps(self):
        reg, outer = self._nested_setup()
        tracer = Tracer(VerbosityLevel.FULL)
        run_pipeline(outer, {"x": 2}, tracer=tracer, registry=reg)
        graph = build_graph(tracer)
        assert len(graph.sub_graphs) == 1
        sub = next(iter(graph.sub_graphs.values()))
        assert [a.name for a in sub.activities.values()] == ["double", "double"]

    def test_nested_failure_names_the_outer_step(self):
        reg = make_registry()
        as_operation(spec_of([PipelineStep("boom", {}, ["x"], ["y"])], name="fragile"), reg)
        outer = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["d"]),
                PipelineStep("fragile", {}, ["d"], ["y"]),
            ],
            name="outer",
        )
        with pytest.raises(StepFailureError) as err:
            run_pipeline(outer, {"x": 1}, registry=reg)
        assert (err.value.step_index, err.value.op_name) == (1, "fragile")
        inner = err.value.cause
        assert isinstance(inner, StepFailureError)
        assert (inner.step_index, inner.op_name) == (0, "boom")
        assert isinstance(inner.cause, ZeroDivisionError)
        assert str(err.value).startswith("step 1 (fragile) failed: step 0 (boom) failed:")

    def test_nested_step_with_params_fails_the_compile(self):
        reg, _ = self._nested_setup()
        outer = spec_of(
            [
                PipelineStep("double", {}, ["x"], ["d"]),
                PipelineStep("quadruple", {"k": 1}, ["d"], ["y"]),
            ],
            name="outer",
        )
        with pytest.raises(StepFailureError) as err:
            compile_pipeline(outer, reg)
        assert (err.value.step_index, err.value.op_name) == (1, "quadruple")
        assert isinstance(err.value.cause, TypeError)
        assert "'k'" in str(err.value)

    def test_sub_pipeline_binds_once_at_registration(self):
        reg, bound = counting_registry()
        as_operation(spec_of([PipelineStep("inc", {}, ["x"], ["y"])], name="inc1"), reg)
        assert len(bound) == 1
        outer = spec_of(
            [
                PipelineStep("inc1", {}, ["x"], ["a"]),
                PipelineStep("inc1", {}, ["a"], ["y"]),
            ],
            name="outer",
        )
        plan = compile_pipeline(outer, reg)
        assert [run_pipeline(plan, {"x": x})["y"] for x in (0, 3)] == [2, 5]
        assert len(bound) == 1

    def test_spec_may_share_its_name_with_a_sub_pipeline(self):
        reg, _ = self._nested_setup()
        same_name = spec_of([PipelineStep("quadruple", {}, ["x"], ["y"])], name="quadruple")
        assert run_pipeline(same_name, {"x": 2}, registry=reg) == {"y": 8}

    def test_self_referencing_sub_pipeline_rejected(self):
        reg = make_registry()
        loop = spec_of([PipelineStep("loop", {}, ["x"], ["y"])], name="loop")
        with pytest.raises(ConfigError):
            as_operation(loop, reg)
        assert reg.get("loop") is None

    def test_duplicate_registration_rejected(self):
        reg, outer = self._nested_setup()
        with pytest.raises(DuplicateNameError):
            as_operation(
                spec_of([PipelineStep("double", {}, ["x"], ["y"])], name="quadruple"),
                reg,
            )

    def test_registry_copy_is_independent(self):
        reg = make_registry()
        clone = reg.copy()
        clone.register("extra", lambda params: (lambda x: x), 1, 1, "item")
        assert reg.get("extra") is None
        assert clone.get("double") is not None


class TestItemLineage:
    def _trace(self, steps, inputs, registry, level=VerbosityLevel.FULL):
        tracer = Tracer(level)
        spec = spec_of(steps, inputs=list(inputs), outputs=steps[-1].output_keys[:1])
        run_pipeline(spec, inputs, tracer, registry)
        return tracer

    def test_each_output_derives_from_the_item_that_made_it(self):
        steps = [PipelineStep("explode", {}, ["x"], ["y"])]
        (rec,) = self._trace(steps, {"x": [1, 2]}, make_registry())._records
        (s1, s2), (o1, o2, o3, o4) = rec.sources, rec.outputs
        assert rec.derivations == [(o1, s1), (o2, s1), (o3, s2), (o4, s2)]

    def test_broadcast_input_feeds_every_call(self):
        steps = [PipelineStep("add", {}, ["x", "k"], ["y"])]
        (rec,) = self._trace(steps, {"x": [1, 2], "k": 10}, make_registry())._records
        (x1, x2, k), (o1, o2) = rec.sources, rec.outputs
        assert rec.derivations == [(o1, x1), (o1, k), (o2, x2), (o2, k)]

    def test_idless_output_keeps_its_id_downstream(self):
        reg = OperationRegistry()
        reg.register("upper", lambda params: str.upper)
        reg.register("length", lambda params: len)
        steps = [PipelineStep("upper", {}, ["x"], ["u"]), PipelineStep("length", {}, ["u"], ["y"])]
        graph = build_graph(self._trace(steps, {"x": ["ab", "cde"]}, reg, VerbosityLevel.STEPS))
        names = {a: act.name for a, act in graph.activities.items()}
        made_by = {ent: names[act] for ent, act in graph.was_generated_by}
        used = [ent for act, ent in graph.used if names[act] == "length"]
        assert [made_by.get(ent) for ent in used] == ["upper", "upper"]
        assert [(names[a], names[b]) for a, b in graph.was_informed_by] == [("length", "upper")]

    def test_output_that_is_its_own_input_gets_a_new_id(self):
        reg = make_registry()
        reg.register("same", lambda params: (lambda x: x))
        (rec,) = self._trace([PipelineStep("same", {}, ["x"], ["y"])], {"x": [0, 7]}, reg)._records
        assert not set(rec.sources) & set(rec.outputs)


class TestBatchLineage:
    def _registry(self):
        reg = make_registry()
        reg.register(
            "zip_add",
            lambda params: (lambda a, b: [x + y for x, y in zip(a, b)]),
            2,
            1,
            "batch",
            lineage=lambda args, outputs: (
                (out, src)
                for k, out in enumerate(outputs[0])
                for src in (args[0][k], args[1][k])
            ),
        )
        return reg

    def test_declared_lineage_is_recorded(self):
        tracer = Tracer()
        spec = spec_of([PipelineStep("zip_add", {}, ["a", "b"], ["y"])], inputs=("a", "b"))
        result = run_pipeline(spec, {"a": [1, 2], "b": [300, 400]}, tracer, self._registry())
        assert result == {"y": [301, 402]}
        (rec,) = tracer._records
        (a1, a2, b1, b2), (o1, o2) = rec.sources, rec.outputs
        assert rec.derivations == [(o1, a1), (o1, b1), (o2, a2), (o2, b2)]

    def test_undeclared_lineage_is_the_cross_product(self):
        tracer = Tracer()
        spec = spec_of([PipelineStep("total", {}, ["x"], ["y"])])
        run_pipeline(spec, {"x": [1, 2]}, tracer, make_registry())
        assert tracer._records[0].derivations is None
        assert len(build_graph(tracer).was_derived_from) == 2

    def test_only_batch_operations_declare_lineage(self):
        with pytest.raises(ValueError):
            OperationRegistry().register("f", lambda params: len, lineage=lambda a, o: [])


@dataclass
class Rec:
    """An item with a string id, compared by value."""

    id: str


# One entry per output slot: ("list", k, kind) makes k new items, ("one",
# kind) one item; kind "echo" passes the call's first input item through.
SLOT_RESULTS = st.one_of(
    st.tuples(st.just("list"), st.integers(0, 2), st.sampled_from(["rec", "str", "int", "echo"])),
    st.tuples(st.just("one"), st.sampled_from(["rec", "str", "int", "echo"])),
)
ATOMS = st.one_of(
    st.builds(Rec, st.sampled_from(["a", "b", "c"])),
    st.text(max_size=2),
    st.integers(-3, 300),
)


def _make_op(script, n_outputs):
    """A fresh op: call ``c`` makes, per slot, what ``script[c % len(script)]`` says."""
    counter = itertools.count()

    def make(kind, call, pos, j, first):
        if kind == "echo":
            return first
        if kind == "rec":
            return Rec(f"o{call}.{pos}.{j}")
        if kind == "str":
            return f"s{call}.{pos}.{j}"
        return call * 10 + j  # small ints are shared objects

    def op(*args):
        call = next(counter)
        first = args[0][0] if isinstance(args[0], list) and args[0] else args[0]
        result = []
        for pos, spec in enumerate(script[call % len(script)][:n_outputs]):
            if spec[0] == "list":
                result.append([make(spec[2], call, pos, j, first) for j in range(spec[1])])
            else:
                result.append(make(spec[1], call, pos, 0, first))
        return tuple(result) if n_outputs > 1 else result[0]

    return op


def _flat(value):
    return value if isinstance(value, list) else [value]


def _cyclic_lineage(args, outputs):
    """Output item k derives from input item k, cycling over the inputs."""
    sources = [x for a in args for x in _flat(a)]
    made = [x for o in outputs for x in _flat(o)]
    return [(out, sources[k % len(sources)]) for k, out in enumerate(made)] if sources else []


@st.composite
def generated_steps(draw):
    """(registered, script, args): item or batch, 1-3 slots, list/empty/broadcast args."""
    mode = draw(st.sampled_from(["item", "batch"]))
    n_outputs = draw(st.integers(1, 3))
    lineage = None
    if mode == "batch" and draw(st.booleans()):
        lineage = _cyclic_lineage
    length = draw(st.integers(0, 3))
    args = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["list", "list", "empty", "broadcast", "ragged"]))
        if kind == "broadcast":
            args.append(draw(ATOMS))
        else:
            size = {"list": length, "empty": 0, "ragged": draw(st.integers(0, 3))}[kind]
            args.append(draw(st.lists(ATOMS, min_size=size, max_size=size)))
    script = draw(st.lists(st.lists(SLOT_RESULTS, min_size=3, max_size=3), min_size=1, max_size=3))
    registered = _Registered(None, len(args), n_outputs, mode, lineage=lineage)
    return registered, script, args


def _run_counted(runner, registered, script, args, traced):
    """Run one step with provenance ids drawn from a fresh counter."""
    counter = itertools.count()
    minted = {} if traced else None

    def new_id():
        return f"id{next(counter)}"

    with mock.patch("annopipe.pipeline.new_id", new_id), mock.patch.object(helpers, "new_id", new_id):
        try:
            outputs, lineage = runner(registered, _make_op(script, registered.n_outputs), args, minted)
        except ValueError as exc:
            return "raised", str(exc)
    kept = None if minted is None else sorted(item_id for _, item_id in minted.values())
    return outputs, lineage, kept


class TestStepRunnerMatchesFrozen:
    @settings(max_examples=500, deadline=None)
    @given(step=generated_steps(), traced=st.booleans())
    def test_same_outputs_and_lineage_as_frozen_runner(self, step, traced):
        expected = _run_counted(helpers.frozen_run_step, *step, traced)
        assert _run_counted(_run_step, *step, traced) == expected

    def test_untraced_step_has_no_lineage(self):
        registered = _Registered(None, 1, 1, "item")
        assert _run_step(registered, lambda x: [x, x], [[1, 2]], None) == (([1, 1, 2, 2],), None)


DEID_RULE = {"pattern": r"\b\d{2}/\d{2}/\d{4}\b", "placeholder": "[DATE]"}
REGEX_RULE = {"pattern": r"\baspirine\b", "label": "Drug"}
ENTRY = {"term": "aspirine", "label": "Drug"}
CONTEXT = {"attribute_label": "is_negated", "cues_before": [r"\bpas\b"]}


def _builtin_spec(op, params):
    """A pipeline over one document whose last step runs ``op`` with ``params``."""
    step = {
        "to_segment": ("doc", ["full"]),
        "split_sentences": ("full", ["out"]),
        "deidentify": ("full", ["out", "phi"]),
        "match_dictionary": ("full", ["out"]),
        "match_regex": ("full", ["out"]),
        "match_dates": ("full", ["out"]),
        "detect_context": ("sentences dates", ["out"]),
        "emit_brat": ("doc dates", ["out"]),
    }
    inputs, outputs = step[op]
    steps = [] if op == "to_segment" else [PipelineStep("to_segment", {}, ["doc"], ["full"])]
    if op in ("detect_context", "emit_brat"):
        steps.append(PipelineStep("split_sentences", {}, ["full"], ["sentences"]))
        steps.append(PipelineStep("match_dates", {}, ["sentences"], ["dates"]))
    steps.append(PipelineStep(op, params, inputs.split(), outputs))
    return spec_of(steps, inputs=["doc"], outputs=outputs[:1])


# (op, params, the name a misspelt or contradictory param leaves unbound)
MISSPELT_PARAMS = [
    ("to_segment", {"lable": "text"}, "lable"),
    ("split_sentences", {"keep_punc": False}, "keep_punc"),
    ("split_sentences", {"punct_char": ".;"}, "punct_char"),
    ("deidentify", {"rules": [DEID_RULE], "rule": [DEID_RULE]}, "rule"),
    ("deidentify", {"rules": [{**DEID_RULE, "label": "date"}]}, "label"),
    ("match_dictionary", {"entries": [ENTRY], "strip_accent": True}, "strip_accent"),
    ("match_dictionary", {"rules": []}, "rules"),
    ("match_dictionary", {"entries": [{**ENTRY, "case_sensitve": True}]}, "case_sensitve"),
    ("match_dictionary", {"path": str(demo.dictionary_path()), "entries": [ENTRY]}, "entries"),
    ("match_dictionary", {"path": str(demo.dictionary_path()), "strip_accent": True}, "strip_accent"),
    ("match_regex", {"rules": [REGEX_RULE], "group": 1}, "group"),
    ("match_regex", {"rules": [{**REGEX_RULE, "grup": 0}]}, "grup"),
    ("match_dates", {"lang": "fr"}, "lang"),
    ("detect_context", {**CONTEXT, "max_token_windw": 3}, "max_token_windw"),
    ("emit_brat", {"format": "brat"}, "format"),
]


class TestBuiltinParams:
    @pytest.mark.parametrize("op, params, name", MISSPELT_PARAMS)
    def test_param_the_op_does_not_take_fails_the_compile(self, op, params, name):
        spec = _builtin_spec(op, params)
        with pytest.raises(StepFailureError) as err:
            compile_pipeline(spec)
        assert (err.value.step_index, err.value.op_name) == (len(spec.steps) - 1, op)
        assert isinstance(err.value.cause, TypeError)
        assert repr(name) in str(err.value)

    @pytest.mark.parametrize("op", sorted({op for op, _, _ in MISSPELT_PARAMS}))
    def test_spelt_params_compile_and_run(self, op):
        params = {
            "deidentify": {"rules": [DEID_RULE]},
            "match_dictionary": {"entries": [ENTRY], "strip_accents": True},
            "match_regex": {"rules": [{**REGEX_RULE, "group": 0}]},
            "detect_context": {**CONTEXT, "max_token_window": 3},
        }.get(op, {})
        plan = compile_pipeline(_builtin_spec(op, params))
        run_pipeline(plan, {"doc": create_document("Pas d'aspirine le 12/03/2021. Revu.")})

    @pytest.mark.parametrize(
        "params",
        [{}, {"path": str(demo.dictionary_path()), "entries": [ENTRY]}],
        ids=["neither", "both"],
    )
    def test_match_dictionary_takes_entries_or_a_path(self, params):
        with pytest.raises(StepFailureError) as err:
            compile_pipeline(_builtin_spec("match_dictionary", params))
        assert isinstance(err.value.cause, TypeError)
        assert str(err.value).endswith("match_dictionary takes exactly one of 'entries' and 'path'")

    def test_ops_look_their_functions_up_when_called(self, monkeypatch):
        plan = compile_pipeline(PipelineSpec.from_dict(
            json.loads(demo.pipeline_path("drug_ner_dict").read_text(encoding="utf-8"))
        ))
        modules = {"deidentify": deid, "match_prepared": dictionary}
        calls = dict.fromkeys(modules, 0)

        def counting(name):
            fn = getattr(modules[name], name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, module in modules.items():
            monkeypatch.setattr(module, name, counting(name))
        run_pipeline(plan, {"doc": create_document("Aspirine le 12/03/2021. Revu.")})
        assert calls["deidentify"] > 0 and calls["match_prepared"] > 0

    def test_editing_a_spec_after_compile_leaves_the_plan(self):
        spec = _builtin_spec("split_sentences", {"punct_chars": ["."], "keep_punct": False})
        plan = compile_pipeline(spec)
        spec.steps[-1].params["keep_punct"] = True
        spec.steps[-1].params["punct_chars"].append(";")
        sentences = run_pipeline(plan, {"doc": create_document("Un; deux. Trois.")})["out"]
        assert [s.text for s in sentences] == ["Un; deux", "Trois"]

    def test_editing_a_cue_list_after_compile_leaves_the_plan(self):
        spec = _builtin_spec("detect_context", dict(CONTEXT, cues_before=[r"\bpas\b"]))
        plan = compile_pipeline(spec)
        spec.steps[-1].params["cues_before"].append(r"\bsans\b")
        (date,) = run_pipeline(plan, {"doc": create_document("Vu sans le 12/03/2021.")})["out"]
        assert date.attributes[-1].value is False

    def test_register_operation_forwards_to_register(self):
        reg = OperationRegistry()
        lineage = lambda args, outputs: []  # noqa: E731
        register_operation("pairs", lambda params: zip, 2, 1, "batch", lineage=lineage, registry=reg)
        register_operation("same", lambda params: (lambda x: x), registry=reg)
        assert reg.get("pairs") == _Registered(reg.get("pairs").factory, 2, 1, "batch", lineage=lineage)
        assert (reg.get("same").n_inputs, reg.get("same").n_outputs, reg.get("same").mode) == (1, 1, "item")
        with pytest.raises(DuplicateNameError):
            register_operation("same", lambda params: None, registry=reg)
