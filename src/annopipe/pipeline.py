"""Declarative pipelines: named operations chained through data slots.

A pipeline spec is an ordered list of steps wired by input/output keys.
``compile_pipeline`` validates a spec once and binds each step's operation
once, giving a ``Plan`` that runs over any number of inputs. A spec can
itself be registered as an operation and nested inside another pipeline,
appearing as one composite activity in provenance.

Data slots hold a single value or a homogeneous list. One runner runs every
step: an "item" operation once per index of its list slots (a non-list slot
goes whole to every call; list results are concatenated), a "batch"
operation once on the slot values as-is.

A traced run states lineage in the same pass: an item-mode step derives what
each call made from what that call took, a batch step from what its
registered ``lineage`` function names (every output from every input without
one), and a step that made nothing records one stand-in item derived from all
it took. A run without a tracer, or at level NONE, does no provenance work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from .core import new_id
from .exceptions import (
    ConfigError,
    DuplicateNameError,
    MissingInputError,
    StepFailureError,
)
from .provenance import OperationDescriptor, Tracer, VerbosityLevel


@dataclass
class PipelineStep:
    op_name: str
    params: dict = field(default_factory=dict)
    input_keys: list[str] = field(default_factory=list)
    output_keys: list[str] = field(default_factory=list)


@dataclass
class PipelineSpec:
    name: str
    steps: list[PipelineStep] = field(default_factory=list)
    pipeline_inputs: list[str] = field(default_factory=list)
    pipeline_outputs: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineSpec":
        """A spec from its JSON form; ConfigError names a missing, unknown or mistyped key."""
        try:
            _checked_keys(obj, _PIPELINE_KEYS, "")
            for index, step in enumerate(obj["steps"]):
                _checked_keys(step, _STEP_KEYS, f"step {index}: ")
            return cls(
                name=obj["name"],
                pipeline_inputs=list(obj["inputs"]),
                pipeline_outputs=list(obj["outputs"]),
                steps=[
                    PipelineStep(
                        op_name=step["op"],
                        params=dict(step.get("params", {})),
                        input_keys=list(step["inputs"]),
                        output_keys=list(step["outputs"]),
                    )
                    for step in obj["steps"]
                ],
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"invalid pipeline config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": list(self.pipeline_inputs),
            "outputs": list(self.pipeline_outputs),
            "steps": [
                {
                    "op": s.op_name,
                    "params": s.params,
                    "inputs": s.input_keys,
                    "outputs": s.output_keys,
                }
                for s in self.steps
            ],
        }


# The keys of a pipeline config and of each of its steps, with the JSON type of each.
_PIPELINE_KEYS = {"name": str, "inputs": list, "outputs": list, "steps": list}
_STEP_KEYS = {"op": str, "params": dict, "inputs": list, "outputs": list}
_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}


def _checked_keys(obj: dict, types: dict, where: str) -> None:
    """ConfigError for the first key of ``obj`` not in ``types`` or of another type."""
    for key, value in obj.items():
        if key not in types:
            raise ConfigError(f"invalid pipeline config: {where}unknown key {key!r}")
        if not isinstance(value, types[key]):
            kind = f"{_JSON_TYPES[types[key]]}, not {type(value).__name__}"
            raise ConfigError(f"invalid pipeline config: {where}{key!r} must be {kind}")


@dataclass
class ValidationIssue:
    step_index: Optional[int]
    reason: str


# A batch operation's lineage: (args, outputs) -> (output item, source item)
# pairs, where outputs holds one value per output slot.
Lineage = Callable[[list, tuple], Iterable[tuple]]


@dataclass
class _Registered:
    factory: Callable
    n_inputs: int
    n_outputs: int
    mode: str  # "item" or "batch"
    lineage: Optional[Lineage] = None


class OperationRegistry:
    """Name -> operation factory mapping used to resolve pipeline steps."""

    def __init__(self):
        self._ops: dict[str, _Registered] = {}

    def register(
        self,
        name: str,
        factory: Callable,
        n_inputs: int = 1,
        n_outputs: int = 1,
        mode: str = "item",
        lineage: Optional[Lineage] = None,
    ) -> None:
        """Register an operation factory under ``name``.

        A batch operation may pass ``lineage`` to say which of its outputs
        derive from which inputs; without it, each derives from every input.
        """
        if name in self._ops:
            raise DuplicateNameError(f"operation {name!r} already registered")
        if mode not in ("item", "batch"):
            raise ValueError(f"unknown mode {mode!r}")
        if lineage is not None and mode != "batch":
            raise ValueError("only batch operations declare their lineage")
        self._ops[name] = _Registered(factory, n_inputs, n_outputs, mode, lineage=lineage)

    def get(self, name: str) -> Optional[_Registered]:
        return self._ops.get(name)

    def copy(self) -> "OperationRegistry":
        clone = OperationRegistry()
        clone._ops = dict(self._ops)
        return clone


_default_registry: Optional[OperationRegistry] = None


def default_registry() -> OperationRegistry:
    """The registry steps resolve against when none is given; the built-in
    operations of ``ops`` register in it the first time it is asked for."""
    global _default_registry
    if _default_registry is None:
        from .ops import register_builtin_operations

        registry = OperationRegistry()
        register_builtin_operations(registry)
        _default_registry = registry
    return _default_registry


def register_operation(
    name: str, factory: Callable, *args, registry: Optional[OperationRegistry] = None, **kwargs
) -> None:
    """``OperationRegistry.register`` on ``registry``, the default one if None."""
    (registry or default_registry()).register(name, factory, *args, **kwargs)


def as_operation(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> str:
    """Register a pipeline as an operation under its own name; its factory
    returns the plan compiled here, and fails for a step that gives params."""
    registry = registry or default_registry()
    plan = compile_pipeline(spec, registry)

    def factory(params):
        if params:
            raise TypeError(f"a nested pipeline takes no params, got {next(iter(params))!r}")
        return plan

    n_inputs, n_outputs = len(spec.pipeline_inputs), len(spec.pipeline_outputs)
    registry.register(spec.name, factory, n_inputs, n_outputs, "batch")
    return spec.name


def validate_pipeline(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> list[ValidationIssue]:
    registry = registry or default_registry()
    issues: list[ValidationIssue] = []
    available = set(spec.pipeline_inputs)
    produced = set(spec.pipeline_inputs)
    for index, step in enumerate(spec.steps):
        if not step.input_keys or not step.output_keys:
            issues.append(ValidationIssue(index, "step has empty key list"))
        registered = registry.get(step.op_name)
        if registered is None:
            issues.append(
                ValidationIssue(index, f"operation {step.op_name!r} not registered")
            )
        else:
            if len(step.input_keys) != registered.n_inputs:
                issues.append(
                    ValidationIssue(
                        index,
                        f"{step.op_name} expects {registered.n_inputs} inputs, "
                        f"step wires {len(step.input_keys)}",
                    )
                )
            if len(step.output_keys) != registered.n_outputs:
                issues.append(
                    ValidationIssue(
                        index,
                        f"{step.op_name} produces {registered.n_outputs} outputs, "
                        f"step wires {len(step.output_keys)}",
                    )
                )
        for key in step.input_keys:
            if key not in available:
                issues.append(
                    ValidationIssue(index, f"input key {key!r} not yet produced")
                )
        for key in step.output_keys:
            if key in produced:
                issues.append(ValidationIssue(index, f"key {key!r} produced twice"))
            produced.add(key)
            available.add(key)
    for key in spec.pipeline_outputs:
        if key not in available:
            issues.append(ValidationIssue(None, f"pipeline output {key!r} never produced"))
    return issues


def _items(value) -> list:
    """The items of a slot value: a list's elements, or the value itself."""
    return value if isinstance(value, list) else [value]


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
    item_id = getattr(item, "id", None)
    if isinstance(item_id, str):
        return item_id
    item_id = new_id()
    minted[id(item)] = (item, item_id)
    return item_id


class _BoundStep(NamedTuple):
    step: PipelineStep
    registered: _Registered
    op: "Callable | Plan"  # a sub-pipeline's op is its plan


@dataclass(frozen=True)
class Plan:
    """A validated pipeline whose operations are bound, ready to run."""

    spec: PipelineSpec
    steps: tuple[_BoundStep, ...]


def compile_pipeline(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> Plan:
    """Validate a spec and call each step's factory, once.

    Raises ConfigError for an invalid spec and StepFailureError when a
    factory fails.
    """
    registry = registry or default_registry()
    issues = validate_pipeline(spec, registry)
    if issues:
        raise ConfigError("invalid pipeline: " + "; ".join(i.reason for i in issues))
    steps = []
    for index, step in enumerate(spec.steps):
        registered = registry.get(step.op_name)
        try:
            op = registered.factory(step.params)
        except Exception as exc:
            raise StepFailureError(index, step.op_name, exc) from exc
        steps.append(_BoundStep(step, registered, op))
    return Plan(spec, tuple(steps))


def _run_step(
    registered: _Registered, op: Callable, args: list, minted: Optional[dict]
) -> tuple[tuple, Optional[tuple[list, list, Optional[list]]]]:
    """Run one step's operation; return its outputs and, if traced, its lineage.

    Without ``minted`` the step is not traced and its lineage is None;
    otherwise it is the step's source ids, output ids and (output, source)
    id pairs, or None for pairs when a batch step declares no lineage.
    """
    mapped = registered.mode == "item" and any(isinstance(a, list) for a in args)
    calls = [args]
    if mapped:
        list_lengths = {len(a) for a in args if isinstance(a, list)}
        if len(list_lengths) > 1:
            raise ValueError("item-mode operation got list inputs of different lengths")
        calls = [
            [a[i] if isinstance(a, list) else a for a in args]
            for i in range(list_lengths.pop())
        ]
    results = [op(*call) for call in calls]
    if registered.n_outputs == 1:
        results = [(r,) for r in results]
    if mapped:
        outputs, split = [], []  # split: each call made a list of items
        for pos in range(registered.n_outputs):
            slot = [r[pos] for r in results]
            concatenated = bool(slot) and all(isinstance(r, list) for r in slot)
            outputs.append([x for r in slot for x in r] if concatenated else slot)
            split.append(concatenated)
        outputs = tuple(outputs)
    else:
        outputs = results[0]
        split = [isinstance(o, list) for o in outputs]
    if minted is None:
        return outputs, None

    arg_ids = [[_source_id(minted, item) for item in _items(a)] for a in args]
    source_ids = [i for ids in arg_ids for i in ids]
    batch = registered.mode == "batch"
    per_slot = [[] for _ in split]
    pairs = []
    for i, result in enumerate(results):
        took = () if batch else dict.fromkeys(
            ids[i] if isinstance(a, list) else ids[0] for a, ids in zip(args, arg_ids)
        )
        for made, is_list, slot_ids in zip(result, split, per_slot):
            for item in made if is_list else (made,):
                out = _output_id(minted, item)
                slot_ids.append(out)
                pairs.extend((out, src) for src in took)
    output_ids = [i for ids in per_slot for i in ids]
    if batch:
        pairs = None
        if registered.lineage is not None:
            # Outputs already have their ids, so both sides are looked up.
            pairs = [
                (_source_id(minted, out), _source_id(minted, src))
                for out, src in registered.lineage(args, outputs)
            ]
    if not output_ids:
        # The step made nothing; an id stands for its empty result, derived
        # from everything the step took.
        output_ids = [new_id()]
        if pairs is not None:
            pairs = [(output_ids[0], s) for s in dict.fromkeys(source_ids)]
    return outputs, (source_ids, output_ids, pairs)


def run_pipeline(
    pipeline: PipelineSpec | Plan,
    inputs: dict,
    tracer: Optional[Tracer] = None,
    registry: Optional[OperationRegistry] = None,
) -> dict:
    """Execute a plan over the given input slots.

    A spec is compiled against ``registry`` first; to run one pipeline over
    many inputs, compile it once with ``compile_pipeline`` and pass the plan.
    """
    plan = pipeline if isinstance(pipeline, Plan) else compile_pipeline(pipeline, registry)
    traced = tracer is not None and tracer.level != VerbosityLevel.NONE
    return _execute(plan, inputs, tracer, None, {} if traced else None)


def _execute(
    plan: Plan, inputs: dict, tracer: Optional[Tracer], scope: Optional[str], minted: Optional[dict]
) -> dict:
    """Run a plan's steps; a sub-pipeline step runs its plan in a tracer scope.

    ``minted`` holds the provenance ids of the run's id-less items, and is
    None when the run is not traced: then no step mints an id or records
    anything. A sub-pipeline shares it with the pipeline that runs it.
    """
    for key in plan.spec.pipeline_inputs:
        if key not in inputs:
            raise MissingInputError(f"missing pipeline input {key!r}")

    env = dict(inputs)
    for index, (step, registered, op) in enumerate(plan.steps):
        args = [env[k] for k in step.input_keys]
        try:
            if isinstance(op, Plan):
                sub_scope = None
                if minted is not None:
                    sub_scope = tracer.open_scope(
                        OperationDescriptor(name=op.spec.name, config=step.params),
                        parent=scope,
                    )
                sub_inputs = dict(zip(op.spec.pipeline_inputs, args))
                result = _execute(op, sub_inputs, tracer, sub_scope, minted)
                outputs = tuple(result[k] for k in op.spec.pipeline_outputs)
            else:
                outputs, lineage = _run_step(registered, op, args, minted)
                if lineage is not None:
                    source_ids, output_ids, pairs = lineage
                    tracer.record(
                        OperationDescriptor(name=step.op_name, config=step.params),
                        sources=source_ids,
                        outputs=output_ids,
                        scope=scope,
                        derivations=pairs,
                    )
        except Exception as exc:
            raise StepFailureError(index, step.op_name, exc) from exc
        for key, value in zip(step.output_keys, outputs):
            env[key] = value
    return {key: env[key] for key in plan.spec.pipeline_outputs}
