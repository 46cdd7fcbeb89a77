"""Declarative pipelines: named operations chained through data slots.

A pipeline spec is an ordered list of steps wired by input/output keys.
``compile_pipeline`` validates a spec once and binds each step's operation
once, giving a ``Plan`` that runs over any number of inputs. A spec can
itself be registered as an operation and nested inside another pipeline,
appearing as one composite activity in provenance.

Each operation declares its slots once, as an item type or ``[type]`` for a
list; ``object`` is undeclared and matches anything. The compile checks each
key against what its producer declares. One runner runs every step: once per
index of the lists wired to one-item inputs (a list input goes whole to
every call), concatenating the outputs declared as lists.

A traced run keeps the provenance ids of each key's items beside its value:
an item's string ``id``, or one minted when a step makes it or the run takes
it as an input. It states lineage in the same pass, as (output, source)
pairs: each item a call made derives from each item that call took (the
item at its index of a mapped list, the whole of a list input, the one item
otherwise), unless the operation returns ``Derived`` with its own pairs. A
step that made nothing records one stand-in item derived from all it took.
A run without a tracer, or at level NONE, does no provenance work, and one
without a tracer does not load ``provenance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .core import new_id
from .exceptions import (
    ConfigError,
    DuplicateNameError,
    MalformedJsonError,
    MissingInputError,
    StepFailureError,
    expect_json,
)

if TYPE_CHECKING:
    from .provenance import Tracer


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
            _checked_keys(expect_json(obj, dict, "the top level"), _PIPELINE_KEYS, "")
            for i, step in enumerate(obj["steps"]):
                _checked_keys(expect_json(step, dict, f"step {i}"), _STEP_KEYS, f"step {i}: ")
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
        except (KeyError, MalformedJsonError) as exc:
            raise ConfigError(f"invalid pipeline config: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": list(self.pipeline_inputs),
            "outputs": list(self.pipeline_outputs),
            "steps": [
                {"op": s.op_name, "params": s.params, "inputs": s.input_keys,
                 "outputs": s.output_keys}
                for s in self.steps
            ],
        }


# The keys of a pipeline config and of each of its steps, with the JSON type of each.
_PIPELINE_KEYS = {"name": str, "inputs": list, "outputs": list, "steps": list}
_STEP_KEYS = {"op": str, "params": dict, "inputs": list, "outputs": list}


def _checked_keys(obj: dict, types: dict, where: str) -> None:
    """MalformedJsonError for the first key of ``obj`` not in ``types`` or of another type."""
    for key, value in obj.items():
        if key not in types:
            raise MalformedJsonError(f"{where}unknown key {key!r}")
        expect_json(value, types[key], f"{where}{key!r}")
        if key in ("inputs", "outputs") and not all(isinstance(k, str) for k in value):
            raise MalformedJsonError(f"{where}{key!r} must hold strings")


@dataclass
class ValidationIssue:
    step_index: Optional[int]
    reason: str


class Derived(NamedTuple):
    """An operation's outputs with its lineage, as (output item, source item) pairs."""

    outputs: object
    pairs: list


@dataclass
class _Registered:
    factory: Callable
    inputs: tuple  # per slot, an item type or [item type]
    outputs: tuple
    single: tuple = ()  # positions of outputs holding one item whatever the inputs hold


def _shown(slot) -> str:
    return f"[{slot[0].__name__}]" if isinstance(slot, list) else slot.__name__


class OperationRegistry:
    """Name -> operation factory mapping used to resolve pipeline steps."""

    def __init__(self):
        self._ops: dict[str, _Registered] = {}

    def register(
        self, name: str, factory: Callable, inputs: tuple = (object,), outputs: tuple = (object,)
    ) -> None:
        """Register an operation factory under ``name`` with its slots: each is
        an item type for one item, or ``[type]`` for a list of them."""
        if name in self._ops:
            raise DuplicateNameError(f"operation {name!r} already registered")
        for slot in (*inputs, *outputs):
            item = slot[0] if isinstance(slot, list) and len(slot) == 1 else slot
            if not isinstance(item, type):
                raise ValueError(f"operation {name!r}: a slot is a type or [type], not {slot!r}")
        self._ops[name] = _Registered(factory, tuple(inputs), tuple(outputs))

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


def as_operation(spec: PipelineSpec, registry: Optional[OperationRegistry] = None) -> str:
    """Register a pipeline as an operation with the slots of its plan; its factory
    returns the plan compiled here, and fails for a step that gives params."""
    registry = registry or default_registry()
    plan = compile_pipeline(spec, registry)

    def factory(params):
        if params:
            raise TypeError(f"a nested pipeline takes no params, got {next(iter(params))!r}")
        return plan

    registry.register(spec.name, factory, plan.inputs, plan.outputs)
    registry.get(spec.name).single = plan.single
    return spec.name


# What a key holds: one item, a list, or either, as the pipeline's inputs decide.
_ONE, _EITHER, _LIST = 0, 1, 2


def _fits(kind: type, holds: int, slot) -> bool:
    """Whether a key holding ``kind`` items (one, a list or either) may feed ``slot``."""
    whole = isinstance(slot, list)
    return kind is object or (
        issubclass(kind, slot[0] if whole else slot) and (holds != _ONE or not whole)
    )


def validate_pipeline(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None, held: Optional[dict] = None
) -> list[ValidationIssue]:
    """The issues of a spec; ``held``, if given, gets each key's (item type, what it holds).

    A key holds what its producer declares, and a one-item output a list when
    its step maps over one; a sub-pipeline's step does not map, so an output
    its plan holds as one item whatever it takes stays one. A pipeline input
    holds the most specific type its consumers take, and a list if one takes
    it whole; both are settled from all its consumers before any output is typed.
    """
    registry = registry or default_registry()
    held = {} if held is None else held
    held.update((key, (object, _EITHER)) for key in spec.pipeline_inputs)
    steps = [(step, registry.get(step.op_name)) for step in spec.steps]
    for step, registered in steps:
        for key, slot in zip(step.input_keys, registered.inputs if registered else ()):
            if key in spec.pipeline_inputs:
                (kind, holds), whole = held[key], isinstance(slot, list)
                want = slot[0] if whole else slot
                narrowed = want if issubclass(want, kind) else kind
                if issubclass(narrowed, want):  # a consumer that disagrees is named below
                    held[key] = (narrowed, _LIST if whole else holds)
    issues = []  # (step index, reason)
    for index, (step, registered) in enumerate(steps):
        op = step.op_name
        if not step.input_keys or not step.output_keys:
            issues.append((index, "step has empty key list"))
        for key in step.input_keys:
            if key not in held:
                issues.append((index, f"input key {key!r} not yet produced"))
        made = [(object, _EITHER)] * len(step.output_keys)
        wires = (len(step.input_keys), len(step.output_keys))
        if registered is None:
            issues.append((index, f"operation {op!r} not registered"))
        elif wires != (len(registered.inputs), len(registered.outputs)):
            slots = f"{len(registered.inputs)} inputs and {len(registered.outputs)} outputs"
            issues.append((index, f"{op} expects {slots}, step wires {wires[0]} and {wires[1]}"))
        else:
            maps = _ONE
            for position, (key, slot) in enumerate(zip(step.input_keys, registered.inputs), 1):
                kind, holds = held.get(key, (object, _EITHER))
                maps = maps if isinstance(slot, list) else max(maps, holds)
                if not _fits(kind, holds, slot):
                    shown = _shown([kind] if holds == _LIST else kind)
                    reason = f"takes {_shown(slot)}, but {key!r} holds {shown}"
                    issues.append((index, f"{op} input {position} {reason}"))
            made = [(s[0], _LIST) if isinstance(s, list) else (s, maps) for s in registered.outputs]
            for k in registered.single:
                made[k] = (made[k][0], _ONE)
        for key, shape in zip(step.output_keys, made):
            if key in held:
                issues.append((index, f"key {key!r} produced twice"))
            held[key] = shape
    for key in spec.pipeline_outputs:
        if key not in held:
            issues.append((None, f"pipeline output {key!r} never produced"))
    return [ValidationIssue(*issue) for issue in issues]


def _items(value) -> list:
    """The items of a slot value: a list's elements, or the value itself."""
    return value if isinstance(value, list) else [value]


def _item_id(item, known: Optional[dict] = None) -> str:
    """Provenance id of an item: its string ``id``; else, without ``known``, a
    new id, and with it, the id ``known`` holds for the object."""
    item_id = getattr(item, "id", None)
    if not isinstance(item_id, str):
        item_id = new_id() if known is None else known.get(id(item))
    if item_id is None:
        raise ValueError(f"a derivation names {item!r}, which its call neither took nor made")
    return item_id


@dataclass(frozen=True)
class Plan:
    """A validated pipeline, its operations bound, with the slot each input and output holds."""

    spec: PipelineSpec
    steps: tuple  # (step, registered, bound op) per step; a sub-pipeline's op is its plan
    inputs: tuple
    outputs: tuple
    single: tuple = ()  # positions of outputs holding one item whatever the inputs hold

    def require_input(self, kind: type) -> None:
        """ConfigError unless the plan takes exactly one input, which one ``kind`` item fits."""
        if len(self.inputs) != 1 or not _fits(kind, _ONE, self.inputs[0]):
            taken = ", ".join(map(_shown, self.inputs)) or "none"
            message = f"must take exactly one input, a {kind.__name__}, not {taken}"
            raise ConfigError(f"pipeline {self.spec.name!r} {message}")


def compile_pipeline(spec: PipelineSpec, registry: Optional[OperationRegistry] = None) -> Plan:
    """Validate a spec and call each step's factory, once.

    Raises ConfigError for an invalid spec and StepFailureError when a
    factory fails.
    """
    registry = registry or default_registry()
    held: dict = {}
    issues = validate_pipeline(spec, registry, held)
    if issues:
        raise ConfigError("invalid pipeline: " + "; ".join(i.reason for i in issues))
    steps = []
    for index, step in enumerate(spec.steps):
        registered = registry.get(step.op_name)
        try:
            op = registered.factory(step.params)
        except Exception as exc:
            raise StepFailureError(index, step.op_name, exc) from exc
        steps.append((step, registered, op))

    def slots(keys):
        return tuple([held[k][0]] if held[k][1] == _LIST else held[k][0] for k in keys)

    outputs = spec.pipeline_outputs
    single = tuple(k for k, key in enumerate(outputs) if held[key][1] == _ONE)
    return Plan(spec, tuple(steps), slots(spec.pipeline_inputs), slots(outputs), single)


def _run_step(
    registered: _Registered, op: Callable, args: list, arg_ids: Optional[list]
) -> tuple[tuple, Optional[tuple[list, list, list, list]]]:
    """Run one step's operation; return its outputs and, if traced, its lineage:
    its source ids, output ids, (output, source) id pairs and each output
    slot's item ids. ``arg_ids`` holds each argument's item ids, or is None
    when the step is not traced. The pairs are each call's ``Derived`` pairs,
    naming an id-less item by the first id its call took or made it with, or
    each item the call made with each item it took."""
    mapped = [
        isinstance(a, list) and not isinstance(s, list) for s, a in zip(registered.inputs, args)
    ]
    calls, mapping = [args], any(mapped)
    if mapping:
        lengths = {len(a) for a, m in zip(args, mapped) if m}
        if len(lengths) > 1:
            raise ValueError("lists wired to one-item inputs differ in length")
        calls = [[a[i] if m else a for a, m in zip(args, mapped)] for i in range(lengths.pop())]
    results = [op(*call) for call in calls]
    stated = [r.pairs if isinstance(r, Derived) else None for r in results]
    results = [r.outputs if isinstance(r, Derived) else r for r in results]
    if len(registered.outputs) == 1:
        results = [(r,) for r in results]
    if mapping:
        outputs = tuple(
            [x for r in results for x in r[k]] if isinstance(s, list) else [r[k] for r in results]
            for k, s in enumerate(registered.outputs)
        )
    else:
        outputs = results[0]
    if arg_ids is None:
        return outputs, None

    slot_ids = [[] for _ in registered.outputs]
    pairs = []
    arg_items = [list(zip(_items(a), ids)) for a, ids in zip(args, arg_ids)]
    for i, (result, own) in enumerate(zip(results, stated)):
        took = [x for items, m in zip(arg_items, mapped) for x in (items[i:i + 1] if m else items)]
        made = []
        for value, slot, ids in zip(result, registered.outputs, slot_ids):
            # The slot's items, as the next step takes them from the step's value.
            for item in (value if isinstance(slot, list) else (value,)) if mapping else _items(value):
                made.append((item, _item_id(item)))
                ids.append(made[-1][1])
        if own is None:
            sources = dict.fromkeys(src for _, src in took)
            pairs.extend((out, src) for _, out in made for src in sources)
        else:
            took_ids = {id(item): src for item, src in reversed(took)}
            made_ids = {id(item): out for item, out in reversed(made)}
            pairs.extend((_item_id(o, made_ids), _item_id(s, took_ids)) for o, s in own)
    source_ids = [i for ids in arg_ids for i in ids]
    output_ids = [i for ids in slot_ids for i in ids]
    if not output_ids:
        # The step made nothing: a stand-in derived from everything it took.
        output_ids = [new_id()]
        pairs = [(output_ids[0], s) for s in dict.fromkeys(source_ids)]
    return outputs, (source_ids, output_ids, pairs, slot_ids)


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
    traced = tracer is not None and tracer.level > 0  # above VerbosityLevel.NONE
    outputs, _ = _execute(plan, inputs, tracer, None, {} if traced else None)
    return dict(zip(plan.spec.pipeline_outputs, outputs))


def _execute(
    plan: Plan, inputs: dict, tracer: Optional[Tracer], scope: Optional[str], ids: Optional[dict]
) -> tuple[tuple, Optional[tuple]]:
    """Run a plan's steps; return its output values and, if traced, their items' ids.

    ``ids`` maps a key to the ids of its items, or is None when the run is not
    traced: then no step mints an id or records anything. Given empty, it is
    seeded once from the declared inputs. A sub-pipeline step runs its plan
    in a tracer scope over its keys' values and ids, whole, and takes back
    its outputs' values and ids.
    """
    for key in plan.spec.pipeline_inputs:
        if key not in inputs:
            raise MissingInputError(f"missing pipeline input {key!r}")
    env = dict(inputs)
    if ids is not None:
        from .provenance import OperationDescriptor

        ids = ids or {k: [_item_id(x) for x in _items(env[k])] for k in plan.spec.pipeline_inputs}
    for index, (step, registered, op) in enumerate(plan.steps):
        args = [env[k] for k in step.input_keys]
        arg_ids = None if ids is None else [ids[k] for k in step.input_keys]
        try:
            if isinstance(op, Plan):
                sub_scope = sub_ids = None
                if ids is not None:
                    descriptor = OperationDescriptor(name=op.spec.name, config=step.params)
                    sub_scope = tracer.open_scope(descriptor, parent=scope)
                    sub_ids = dict(zip(op.spec.pipeline_inputs, arg_ids))
                sub_inputs = dict(zip(op.spec.pipeline_inputs, args))
                outputs, out_ids = _execute(op, sub_inputs, tracer, sub_scope, sub_ids)
            else:
                outputs, lineage = _run_step(registered, op, args, arg_ids)
                if lineage is not None:
                    sources, made, pairs, out_ids = lineage
                    descriptor = OperationDescriptor(name=step.op_name, config=step.params)
                    tracer.record(descriptor, sources, made, scope=scope, derivations=pairs)
        except Exception as exc:
            raise StepFailureError(index, step.op_name, exc) from exc
        env.update(zip(step.output_keys, outputs))
        if ids is not None:
            ids.update(zip(step.output_keys, out_ids))
    keys = plan.spec.pipeline_outputs
    return tuple(env[k] for k in keys), None if ids is None else tuple(ids[k] for k in keys)
