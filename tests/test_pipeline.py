import itertools
import json
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from annopipe import demo
from annopipe.core import Document, Entity, Segment, create_document
from annopipe.exceptions import (
    ConfigError,
    DuplicateNameError,
    MissingInputError,
    StepFailureError,
)
from annopipe.pipeline import (
    Derived,
    OperationRegistry,
    _Registered,
    _run_step,
    PipelineSpec,
    PipelineStep,
    as_operation,
    compile_pipeline,
    default_registry,
    register_operation,
    run_pipeline,
    validate_pipeline,
)
from annopipe.provenance import Tracer, VerbosityLevel, build_graph
from annopipe.textops import deid, dictionary


def make_registry():
    reg = OperationRegistry()
    reg.register("double", lambda params: (lambda x: x * 2))
    reg.register("add", lambda params: (lambda a, b: a + b), (object, object))
    reg.register("split_pair", lambda params: (lambda x: (x, -x)), outputs=(object, object))
    reg.register("total", lambda params: (lambda xs: sum(xs)), ([int],), (int,))
    reg.register("explode", lambda params: (lambda x: [x, x + 1]), outputs=([object],))
    reg.register("boom", lambda params: (lambda x: 1 / 0))
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

    def test_a_key_of_another_type_is_named(self):
        spec = spec_of(
            [
                PipelineStep("to_segment", {}, ["doc"], ["full"]),
                PipelineStep("emit_brat", {}, ["full", "doc"], ["y"]),
            ],
            inputs=["doc"],
        )
        assert [(i.step_index, i.reason) for i in validate_pipeline(spec)] == [
            (1, "emit_brat input 1 takes Document, but 'full' holds Segment"),
            (1, "emit_brat input 2 takes [Annotation], but 'doc' holds Document"),
        ]

    def test_one_item_where_a_list_is_taken_is_named(self):
        spec = spec_of(
            [PipelineStep("total", {}, ["x"], ["s"]), PipelineStep("total", {}, ["s"], ["y"])]
        )
        assert [i.reason for i in validate_pipeline(spec, make_registry())] == [
            "total input 1 takes [int], but 's' holds int"
        ]

    def test_consumers_of_a_pipeline_input_must_agree(self):
        spec = spec_of(
            [
                PipelineStep("to_segment", {}, ["doc"], ["full"]),
                PipelineStep("match_regex", {"rules": []}, ["doc"], ["y"]),
            ],
            inputs=["doc"],
        )
        assert [i.reason for i in validate_pipeline(spec)] == [
            "match_regex input 1 takes Segment, but 'doc' holds Document"
        ]

    def test_a_pipeline_input_holds_what_its_consumers_take(self):
        spec = spec_of(
            [PipelineStep("double", {}, ["x"], ["d"]), PipelineStep("total", {}, ["x"], ["y"])]
        )
        assert compile_pipeline(spec, make_registry()).inputs == ([int],)
        steps = [
            PipelineStep("match_regex", {"rules": []}, ["s"], ["a"]),
            PipelineStep("detect_context", CONTEXT, ["t", "s"], ["y"]),
        ]
        plan = compile_pipeline(spec_of(steps, inputs=["s", "t"]))
        assert (plan.inputs, plan.outputs) == (([Entity], [Segment]), ([Entity],))

    def test_an_undeclared_slot_matches_anything(self):
        spec = spec_of(
            [PipelineStep("double", {}, ["x"], ["d"]), PipelineStep("total", {}, ["d"], ["y"])]
        )
        assert validate_pipeline(spec, make_registry()) == []
        assert run_pipeline(spec, {"x": [1, 2]}, registry=make_registry()) == {"y": 6}


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
    def test_compile_checks_the_wiring_through_validate_pipeline(self):
        spec = spec_of([PipelineStep("double", {}, ["x"], ["y"])])
        with mock.patch("annopipe.pipeline.validate_pipeline", wraps=validate_pipeline) as check:
            compile_pipeline(spec, make_registry())
        assert check.call_count == 1

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

    def test_sub_pipeline_registers_the_slots_of_its_plan(self):
        reg = default_registry().copy()
        steps = [
            PipelineStep("split_sentences", {}, ["full"], ["sentences"]),
            PipelineStep("match_dates", {}, ["sentences"], ["dates"]),
            PipelineStep("emit_brat", {}, ["doc", "dates"], ["brat"]),
        ]
        as_operation(spec_of(steps, ["full", "doc"], ["sentences", "brat"], name="dated"), reg)
        registered = reg.get("dated")
        assert (registered.inputs, registered.outputs) == ((Segment, Document), ([Segment], str))
        wrong = spec_of(
            [
                PipelineStep("to_segment", {}, ["doc"], ["full"]),
                PipelineStep("dated", {}, ["full", "full"], ["s", "y"]),
            ],
            ["doc"],
            ["y"],
        )
        assert [i.reason for i in validate_pipeline(wrong, reg)] == [
            "dated input 2 takes Document, but 'full' holds Segment"
        ]

    def test_a_sub_pipeline_input_is_typed_by_all_its_consumers_first(self):
        reg = default_registry().copy()
        steps = [
            PipelineStep("deidentify", {"rules": [DEID_RULE]}, ["sentences"], ["clean", "phi"]),
            PipelineStep("detect_context", CONTEXT, ["sentences", "phi"], ["ctx"]),
        ]
        sub = spec_of(steps, ["sentences"], ["clean", "ctx"], name="scrub")
        as_operation(sub, reg)
        registered = reg.get("scrub")
        assert (registered.inputs, registered.outputs) == (([Segment],), ([Segment], [Entity]))
        outer = spec_of(
            [
                PipelineStep("to_segment", {}, ["doc"], ["full"]),
                PipelineStep("split_sentences", {}, ["full"], ["sentences"]),
                PipelineStep("scrub", {}, ["sentences"], ["clean", "ctx"]),
                PipelineStep("detect_context", CONTEXT, ["clean", "ctx"], ["y"]),
            ],
            ["doc"],
        )
        assert validate_pipeline(outer, reg) == []
        doc = create_document("Vu le 01/02/2020. Pas de fièvre.")
        result = run_pipeline(spec_of(outer.steps, ["doc"], ["clean"]), {"doc": doc}, registry=reg)
        assert [type(s) for s in result["clean"]] == [Segment, Segment]

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

    def test_a_nested_step_is_typed_the_way_it_runs(self):
        reg = default_registry().copy()
        reg.register("count", lambda params: len, ([Entity],), (int,))
        inner = spec_of(
            [
                PipelineStep("match_regex", {"rules": [{"pattern": r"\ba+\b", "label": "A"}]},
                             ["s"], ["ents"]),
                PipelineStep("count", {}, ["ents"], ["n"]),
            ],
            ["s"],
            ["n"],
            name="per_sent",
        )
        as_operation(inner, reg)
        assert reg.get("per_sent").single == (0,)
        outer = spec_of(
            [
                PipelineStep("to_segment", {}, ["doc"], ["full"]),
                PipelineStep("split_sentences", {}, ["full"], ["sentences"]),
                PipelineStep("per_sent", {}, ["sentences"], ["counts"]),
            ],
            ["doc"],
            ["counts"],
        )
        plan = compile_pipeline(outer, reg)
        assert plan.outputs == (int,)
        assert run_pipeline(plan, {"doc": create_document("aa b. a. ccc.")}) == {"counts": 2}

    def test_registry_copy_is_independent(self):
        reg = make_registry()
        clone = reg.copy()
        clone.register("extra", lambda params: (lambda x: x))
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

    def _equal_values_registry(self):
        """``one`` and ``two`` each make the int 1 from a document, the same
        object; ``show`` and ``same`` take any item."""
        reg = OperationRegistry()
        reg.register("one", lambda params: (lambda doc: len(doc.text) - 2), (Document,), (int,))
        reg.register("two", lambda params: (lambda doc: 1), (Document,), (int,))
        reg.register("show", lambda params: str)
        reg.register("same", lambda params: (lambda x: x))
        return reg

    def test_equal_values_do_not_share_lineage(self):
        steps = [
            PipelineStep("one", {}, ["doc"], ["a"]),
            PipelineStep("two", {}, ["doc"], ["b"]),
            PipelineStep("show", {}, ["a"], ["y"]),
        ]
        spec = spec_of(steps, inputs=["doc"], outputs=["y"])
        tracer = Tracer(VerbosityLevel.FULL)
        run_pipeline(spec, {"doc": create_document("abc")}, tracer, self._equal_values_registry())
        graph = build_graph(tracer)
        names = {a: act.name for a, act in graph.activities.items()}
        made_by = {ent: names[act] for ent, act in graph.was_generated_by}
        derived = [(made_by[out], made_by.get(src)) for out, src in graph.was_derived_from]
        assert [pair for pair in derived if pair[0] == "show"] == [("show", "one")]
        assert [(names[a], names[b]) for a, b in graph.was_informed_by] == [("show", "one")]

    def test_passing_an_idless_item_through_leaves_its_other_consumers_alone(self):
        steps = [
            PipelineStep("one", {}, ["doc"], ["a"]),
            PipelineStep("same", {}, ["a"], ["c"]),
            PipelineStep("show", {}, ["a"], ["y"]),
            PipelineStep("show", {}, ["c"], ["z"]),
        ]
        spec = spec_of(steps, inputs=["doc"], outputs=["y", "z"])
        tracer = Tracer(VerbosityLevel.FULL)
        run_pipeline(spec, {"doc": create_document("abc")}, tracer, self._equal_values_registry())
        one, same, show_a, show_c = tracer._records
        assert same.sources == show_a.sources == one.outputs
        assert show_c.sources == same.outputs != one.outputs
        assert show_a.derivations == [(show_a.outputs[0], one.outputs[0])]

    def test_an_idless_item_keeps_its_id_across_a_sub_pipeline_scope(self):
        reg = self._equal_values_registry()
        as_operation(spec_of([PipelineStep("show", {}, ["x"], ["y"])], name="wrap"), reg)
        steps = [
            PipelineStep("one", {}, ["doc"], ["a"]),
            PipelineStep("two", {}, ["doc"], ["b"]),
            PipelineStep("wrap", {}, ["a"], ["w"]),
            PipelineStep("same", {}, ["w"], ["z"]),
        ]
        spec = spec_of(steps, inputs=["doc"], outputs=["z"])
        tracer = Tracer(VerbosityLevel.FULL)
        result = run_pipeline(spec, {"doc": create_document("abc")}, tracer, reg)
        assert result == {"z": "1"}
        one, two, inner, same = tracer._records
        assert inner.scope is not None and same.scope is None
        assert inner.sources == one.outputs != two.outputs
        assert same.sources == inner.outputs
        graph = build_graph(tracer)
        names = {a: act.name for a, act in graph.activities.items()}
        assert [(names[a], names[b]) for a, b in graph.was_informed_by] == [
            ("wrap", "one"), ("same", "wrap")
        ]

    def test_a_list_made_in_an_undeclared_slot_names_each_item_its_consumer_takes(self):
        reg = self._equal_values_registry()
        reg.register("pair", lambda params: (lambda x: [x, x + "!"]))
        steps = [PipelineStep("pair", {}, ["x"], ["p"]), PipelineStep("show", {}, ["p"], ["y"])]
        tracer = Tracer()
        assert run_pipeline(spec_of(steps), {"x": "ab"}, tracer, reg) == {"y": ["ab", "ab!"]}
        pair, show = tracer._records
        assert len(pair.outputs) == 2 and show.sources == pair.outputs
        assert pair.derivations == [(out, pair.sources[0]) for out in pair.outputs]

    def test_a_derived_pair_naming_an_item_its_call_did_not_take_fails_the_step(self):
        def stray(xs):
            made = ["made"]
            return Derived(made, [(made[0], "elsewhere")])

        reg = OperationRegistry()
        reg.register("stray", lambda params: stray, ([str],), ([str],))
        spec = spec_of([PipelineStep("stray", {}, ["x"], ["y"])])
        assert run_pipeline(spec, {"x": ["a"]}, registry=reg) == {"y": ["made"]}
        with pytest.raises(StepFailureError) as err:
            run_pipeline(spec, {"x": ["a"]}, Tracer(), reg)
        assert isinstance(err.value.cause, ValueError)
        assert "'elsewhere', which its call neither took nor made" in str(err.value)


class TestBatchLineage:
    def _registry(self):
        def zip_add(a, b):
            sums = [x + y for x, y in zip(a, b)]
            return Derived(sums, [(out, src) for k, out in enumerate(sums) for src in (a[k], b[k])])

        reg = make_registry()
        reg.register("zip_add", lambda params: zip_add, ([int], [int]), ([int],))
        return reg

    def test_declared_lineage_is_recorded(self):
        tracer = Tracer()
        spec = spec_of([PipelineStep("zip_add", {}, ["a", "b"], ["y"])], inputs=("a", "b"))
        result = run_pipeline(spec, {"a": [1, 2], "b": [300, 400]}, tracer, self._registry())
        assert result == {"y": [301, 402]}
        (rec,) = tracer._records
        (a1, a2, b1, b2), (o1, o2) = rec.sources, rec.outputs
        assert rec.derivations == [(o1, a1), (o1, b1), (o2, a2), (o2, b2)]

    def test_undeclared_lineage_pairs_each_output_with_each_item_its_call_took(self):
        tracer = Tracer()
        spec = spec_of([PipelineStep("total", {}, ["x"], ["y"])])
        run_pipeline(spec, {"x": [1, 2]}, tracer, make_registry())
        (rec,) = tracer._records
        (x1, x2), (y,) = rec.sources, rec.outputs
        assert rec.derivations == [(y, x1), (y, x2)]
        assert build_graph(tracer).was_derived_from == [(y, x1), (y, x2)]

    def test_a_list_input_goes_whole_to_every_call(self):
        reg = make_registry()
        reg.register("scale", lambda params: (lambda xs, k: [x * k for x in xs]), ([int], int), ([int],))
        spec = spec_of([PipelineStep("scale", {}, ["xs", "k"], ["y"])], inputs=("xs", "k"))
        tracer = Tracer()
        assert run_pipeline(spec, {"xs": [1, 2], "k": [10, 100]}, tracer, reg) == {
            "y": [10, 20, 100, 200]
        }
        (rec,) = tracer._records
        (x1, x2, k10, k100), (o10, o20, o100, o200) = rec.sources, rec.outputs
        assert rec.derivations == [
            (o10, x1), (o10, x2), (o10, k10), (o20, x1), (o20, x2), (o20, k10),
            (o100, x1), (o100, x2), (o100, k100), (o200, x1), (o200, x2), (o200, k100),
        ]
        edges = build_graph(tracer).was_derived_from
        assert len(edges) == 12
        assert not {(o10, k100), (o20, k100), (o100, k10), (o200, k10)} & set(edges)


@dataclass
class Rec:
    """An item with a string id, compared by value."""

    id: str


# What one call makes in an output slot: ("list", k, kind) k new items for a
# list slot, ("one", kind) one item for a one-item slot; kind "echo" passes
# the call's first input item through.
KINDS = st.sampled_from(["rec", "str", "int", "echo"])
SLOT_RESULTS = {
    True: st.tuples(st.just("list"), st.integers(0, 2), KINDS),
    False: st.tuples(st.just("one"), KINDS),
}
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
        first = args[0]
        if isinstance(first, list):  # a list taken whole: its first item, or a new one
            first = first[0] if first else Rec(f"e{call}")
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


def _stating(op, n_outputs):
    """``op`` returning ``Derived`` with the pairs ``_cyclic_lineage`` names."""

    def run(*args):
        result = op(*args)
        return Derived(result, _cyclic_lineage(list(args), result if n_outputs > 1 else (result,)))

    return run


@st.composite
def generated_steps(draw):
    """(registered, frozen stand-in, script, args, states lineage).

    Each of 1-3 input and output slots is declared one-item or a list, and
    the script makes what each output slot declares. A step with a list
    input is the frozen runner's batch mode: its list inputs get lists, its
    one-item inputs single items, and it may state its lineage. Otherwise it
    is item mode, whose inputs get lists, empty, ragged or single items.
    """
    slots = st.lists(st.sampled_from([object, [object]]), min_size=1, max_size=3)
    inputs, outputs = draw(slots), draw(slots)
    batch = any(isinstance(slot, list) for slot in inputs)
    states = batch and draw(st.booleans())
    length = draw(st.integers(0, 3))
    args = []
    for slot in inputs:
        if not batch:
            kind = draw(st.sampled_from(["list", "list", "empty", "broadcast", "ragged"]))
        elif isinstance(slot, list):
            kind = draw(st.sampled_from(["list", "empty", "ragged"]))
        else:
            kind = "broadcast"
        if kind == "broadcast":
            args.append(draw(ATOMS))
        else:
            size = {"list": length, "empty": 0, "ragged": draw(st.integers(0, 3))}[kind]
            args.append(draw(st.lists(ATOMS, min_size=size, max_size=size)))
    results = st.tuples(*[SLOT_RESULTS[isinstance(slot, list)] for slot in outputs])
    script = draw(st.lists(results, min_size=1, max_size=3))
    frozen = SimpleNamespace(
        mode="batch" if batch else "item",
        n_outputs=len(outputs),
        lineage=_cyclic_lineage if states else None,
    )
    return _Registered(None, tuple(inputs), tuple(outputs)), frozen, script, args, states


def _run_counted(runner, registered, op, args, arg_ids):
    """Run one step with provenance ids drawn from a fresh counter."""
    counter = itertools.count()

    def new_id():
        return f"id{next(counter)}"

    with mock.patch("annopipe.pipeline.new_id", new_id), mock.patch.object(helpers, "new_id", new_id):
        try:
            return runner(registered, op, args, arg_ids)
        except ValueError as exc:
            return "raised", str(exc)


# The frozen runner's message for ragged lists, and the runner's, which names
# the slots by declaration rather than by the old mode.
FROZEN_RAGGED = "item-mode operation got list inputs of different lengths"
RAGGED = "lists wired to one-item inputs differ in length"


def _recorded(op):
    """``op``, appending what each call returns to its ``results`` list."""

    def run(*args):
        run.results.append(op(*args))
        return run.results[-1]

    run.results = []
    return run


def _input_ids(args) -> list:
    """Provenance ids of each argument's items, as a run seeds them: a
    ``Rec`` by its id, any other item by a name of its own position."""
    return [
        [x.id if isinstance(x, Rec) else f"in{k}.{j}" for j, x in enumerate(_flat(a))]
        for k, a in enumerate(args)
    ]


def _lineage_oracle(registered, args, arg_ids, results) -> tuple:
    """The lineage of a step whose calls returned ``results``, stated from
    first principles: (source ids, output ids, pairs, each slot's ids).

    A list wired to a one-item input is mapped: call i takes its item i, and
    every other argument whole. Each item a call makes is named by its
    string id, or by the next counter id, in call, slot and item order; a
    one-item slot of a mapped step holds one item per call. A call's pairs
    are each item it made with each distinct id it took, unless it returned
    ``Derived``: then each pair names its output by the id the call made that
    object with and its source by the id the call took it with, the first
    such when one object comes twice. A step that made nothing names one
    stand-in, the next counter id, derived from every distinct source id.
    """
    counter = itertools.count()
    mapped = [isinstance(a, list) and not isinstance(s, list) for s, a in zip(registered.inputs, args)]
    slot_ids = [[] for _ in registered.outputs]
    pairs = []
    for i, result in enumerate(results):
        took = []
        for a, ids, m in zip(args, arg_ids, mapped):
            took += [(a[i], ids[i])] if m else list(zip(_flat(a), ids))
        own = result.pairs if isinstance(result, Derived) else None
        values = result.outputs if isinstance(result, Derived) else result
        values = values if len(registered.outputs) > 1 else (values,)
        made = []
        for slot, value, ids in zip(registered.outputs, values, slot_ids):
            for item in value if isinstance(slot, list) else [value]:
                made.append((item, item.id if isinstance(item, Rec) else f"id{next(counter)}"))
                ids.append(made[-1][1])
        if own is None:
            pairs += [(out, src) for _, out in made for src in dict.fromkeys(s for _, s in took)]
            continue

        def named(item, among):
            if isinstance(item, Rec):
                return item.id
            return next(item_id for other, item_id in among if other is item)

        pairs += [(named(out, made), named(src, took)) for out, src in own]
    sources = [i for ids in arg_ids for i in ids]
    outputs = [i for ids in slot_ids for i in ids]
    if not outputs:
        outputs = [f"id{next(counter)}"]
        pairs = [(outputs[0], src) for src in dict.fromkeys(sources)]
    return sources, outputs, pairs, slot_ids


class TestStepRunnerMatchesFrozen:
    @settings(max_examples=500, deadline=None)
    @given(step=generated_steps(), traced=st.booleans())
    def test_same_outputs_and_lineage_as_frozen_runner(self, step, traced):
        """Outputs as the frozen runner gives them; lineage as the oracle states it."""
        registered, frozen, script, args, states = step
        n = len(registered.outputs)
        expected = _run_counted(helpers.frozen_run_step, frozen, _make_op(script, n), args, None)
        if expected == ("raised", FROZEN_RAGGED):
            expected = ("raised", RAGGED)
        op = _make_op(script, n)
        op = _recorded(_stating(op, n) if states else op)
        arg_ids = _input_ids(args) if traced else None
        got = _run_counted(_run_step, registered, op, args, arg_ids)
        if expected[0] == "raised":
            assert got == expected
            return
        assert got[0] == expected[0]
        lineage = _lineage_oracle(registered, args, arg_ids, op.results) if traced else None
        assert got[1] == lineage

    def test_ragged_lists_wired_to_one_item_inputs_are_named(self):
        registered = _Registered(None, (object, object, [object]), (object,))
        with pytest.raises(ValueError, match=f"^{RAGGED}$"):
            _run_step(registered, lambda a, b, c: a, [[1, 2], [3], [4, 5]], None)

    def test_untraced_step_has_no_lineage(self):
        registered = _Registered(None, (object,), ([object],))
        assert _run_step(registered, lambda x: [x, x], [[1, 2]], None) == (([1, 1, 2, 2],), None)

    def test_one_item_output_of_a_mapped_step_is_collected_not_concatenated(self):
        registered = _Registered(None, (object,), (object,))
        assert _run_step(registered, lambda x: [x, x], [[1, 2]], None) == (([[1, 1], [2, 2]],), None)


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


SPELT_PARAMS = {
    "deidentify": {"rules": [DEID_RULE]},
    "match_dictionary": {"entries": [ENTRY], "strip_accents": True},
    "match_regex": {"rules": [{**REGEX_RULE, "group": 0}]},
    "detect_context": {**CONTEXT, "max_token_window": 3},
}
SHIPPED = sorted((demo.corpus_dir().parent / "pipelines").glob("*.json"))
OPS = ["to_segment", "split_sentences", "deidentify", "match_dictionary", "match_regex",
       "match_dates", "detect_context", "emit_brat"]


def _every_key_out(spec):
    """The spec with every key it makes among its outputs."""
    keys = [k for step in spec.steps for k in step.output_keys]
    return PipelineSpec(spec.name, spec.steps, spec.pipeline_inputs, keys)


class TestDeclaredSlots:
    @pytest.mark.parametrize(
        "spec",
        [PipelineSpec.from_dict(json.loads(p.read_text(encoding="utf-8"))) for p in SHIPPED]
        + [_builtin_spec(op, SPELT_PARAMS.get(op, {})) for op in OPS],
        ids=[p.stem for p in SHIPPED] + OPS,
    )
    def test_each_step_makes_what_its_op_declares(self, spec):
        # A one-item output slot holds one item per call: a list when the
        # step mapped over a list, the item itself otherwise.
        plan = compile_pipeline(_every_key_out(spec))
        doc = create_document("Pas d'aspirine le 12/03/2021. Revu au 01 02 03 04 05 avec paracétamol.")
        env = {"doc": doc, **run_pipeline(plan, {"doc": doc})}
        for step, registered, _ in plan.steps:
            mapped = any(
                isinstance(env[k], list) and not isinstance(slot, list)
                for k, slot in zip(step.input_keys, registered.inputs)
            )
            for key, slot in zip(step.output_keys, registered.outputs):
                listed = isinstance(slot, list) or mapped
                items = env[key] if listed else [env[key]]
                kind = slot[0] if isinstance(slot, list) else slot
                assert isinstance(items, list) and items, (step.op_name, key)
                assert all(isinstance(item, kind) for item in items), (step.op_name, key)


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
        plan = compile_pipeline(_builtin_spec(op, SPELT_PARAMS.get(op, {})))
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
        register_operation("pairs", lambda params: zip, [[int], [str]], outputs=[[tuple]], registry=reg)
        register_operation("same", lambda params: (lambda x: x), registry=reg)
        assert reg.get("pairs") == _Registered(reg.get("pairs").factory, ([int], [str]), ([tuple],))
        assert (reg.get("same").inputs, reg.get("same").outputs) == ((object,), (object,))
        with pytest.raises(DuplicateNameError):
            register_operation("same", lambda params: None, registry=reg)

    @pytest.mark.parametrize("slot", ["Segment", [Segment, Entity], [], ["Segment"]])
    def test_a_slot_that_is_no_type_is_refused_at_registration(self, slot):
        reg = OperationRegistry()
        with pytest.raises(ValueError, match=r"^operation 'bad': a slot is a type or \[type\]"):
            reg.register("bad", lambda params: None, (Segment, slot))
        assert reg.get("bad") is None
