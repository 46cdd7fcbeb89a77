"""Declarative pipelines: named operations chained through data slots.

A pipeline spec is an ordered list of steps wired by input/output keys.
``compile_pipeline`` validates a spec once and binds each step's operation
once, giving a ``Plan`` that runs over any number of inputs. A spec can
itself be registered as an operation and nested inside another pipeline,
appearing as one composite activity in provenance.

Data slots hold a single value or a homogeneous list. Operations registered
in "item" mode are mapped over list slots (list results are concatenated);
"batch" operations receive slot values as-is.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

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
        try:
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
        except (KeyError, TypeError) as exc:
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


@dataclass
class ValidationIssue:
    step_index: Optional[int]
    reason: str


@dataclass
class _Registered:
    factory: Callable
    n_inputs: int
    n_outputs: int
    mode: str  # "item" or "batch"
    plan: Optional["Plan"] = None  # set for a registered sub-pipeline


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
    ) -> None:
        if name in self._ops:
            raise DuplicateNameError(f"operation {name!r} already registered")
        if mode not in ("item", "batch"):
            raise ValueError(f"unknown mode {mode!r}")
        self._ops[name] = _Registered(factory, n_inputs, n_outputs, mode)

    def register_pipeline(self, spec: PipelineSpec) -> None:
        reg = _Registered(
            factory=None,
            n_inputs=len(spec.pipeline_inputs),
            n_outputs=len(spec.pipeline_outputs),
            mode="batch",
            plan=compile_pipeline(spec, self),
        )
        if spec.name in self._ops:
            raise DuplicateNameError(f"operation {spec.name!r} already registered")
        self._ops[spec.name] = reg

    def get(self, name: str) -> Optional[_Registered]:
        return self._ops.get(name)

    def copy(self) -> "OperationRegistry":
        clone = OperationRegistry()
        clone._ops = dict(self._ops)
        return clone


_default_registry = OperationRegistry()


def default_registry() -> OperationRegistry:
    return _default_registry


def register_operation(
    name: str,
    factory: Callable,
    n_inputs: int = 1,
    n_outputs: int = 1,
    mode: str = "item",
    registry: Optional[OperationRegistry] = None,
) -> None:
    (registry or _default_registry).register(name, factory, n_inputs, n_outputs, mode)


def as_operation(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> str:
    """Register a pipeline as an operation under its own name."""
    (registry or _default_registry).register_pipeline(spec)
    return spec.name


def validate_pipeline(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> list[ValidationIssue]:
    registry = registry or _default_registry
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


def _item_ids(value) -> list[str]:
    """Provenance ids for a slot value; values without ids get a fresh one."""
    items = value if isinstance(value, list) else [value]
    ids = []
    for item in items:
        item_id = getattr(item, "id", None)
        ids.append(item_id if isinstance(item_id, str) else str(uuid.uuid4()))
    return ids


class _BoundStep(NamedTuple):
    step: PipelineStep
    registered: _Registered
    op: Optional[Callable]  # None for a sub-pipeline, which runs its own plan


@dataclass(frozen=True)
class Plan:
    """A validated pipeline whose operations are bound, ready to run."""

    spec: PipelineSpec
    steps: tuple[_BoundStep, ...]


def compile_pipeline(
    spec: PipelineSpec, registry: Optional[OperationRegistry] = None
) -> Plan:
    """Validate a spec and call each step's factory, once.

    A sub-pipeline step reuses the plan compiled when it was registered.
    Raises ConfigError for an invalid spec and StepFailureError when a
    factory fails.
    """
    registry = registry or _default_registry
    issues = validate_pipeline(spec, registry)
    if issues:
        raise ConfigError("invalid pipeline: " + "; ".join(i.reason for i in issues))
    steps = []
    for index, step in enumerate(spec.steps):
        registered = registry.get(step.op_name)
        op = None
        if registered.plan is None:
            try:
                op = registered.factory(step.params)
            except Exception as exc:
                raise StepFailureError(index, step.op_name, exc) from exc
        steps.append(_BoundStep(step, registered, op))
    return Plan(spec, tuple(steps))


def _run_mapped(registered: _Registered, op: Callable, args: list):
    """Execute an operation, mapping item-mode operations over list slots."""
    if registered.mode == "batch" or not any(isinstance(a, list) for a in args):
        return op(*args)

    list_lengths = {len(a) for a in args if isinstance(a, list)}
    if len(list_lengths) > 1:
        raise ValueError("item-mode operation got list inputs of different lengths")
    n = list_lengths.pop()
    per_item = [
        op(*[a[i] if isinstance(a, list) else a for a in args]) for i in range(n)
    ]
    if registered.n_outputs == 1:
        return _combine([r for r in per_item])
    combined = []
    for pos in range(registered.n_outputs):
        combined.append(_combine([r[pos] for r in per_item]))
    return tuple(combined)


def _combine(results: list):
    """Concatenate per-item list results, otherwise collect into a list."""
    if results and all(isinstance(r, list) for r in results):
        return [x for r in results for x in r]
    return results


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
    return _execute(plan, inputs, tracer, None)


def _execute(plan: Plan, inputs: dict, tracer: Optional[Tracer], scope: Optional[str]) -> dict:
    """Run a plan's steps; a sub-pipeline step runs its plan in a tracer scope."""
    for key in plan.spec.pipeline_inputs:
        if key not in inputs:
            raise MissingInputError(f"missing pipeline input {key!r}")

    env = dict(inputs)
    for index, (step, registered, op) in enumerate(plan.steps):
        args = [env[k] for k in step.input_keys]
        try:
            if registered.plan is not None:
                sub = registered.plan
                sub_scope = None
                if tracer is not None and tracer.level != VerbosityLevel.NONE:
                    sub_scope = tracer.open_scope(
                        OperationDescriptor(name=sub.spec.name, config=step.params),
                        parent=scope,
                    )
                sub_inputs = dict(zip(sub.spec.pipeline_inputs, args))
                result = _execute(sub, sub_inputs, tracer, sub_scope)
                outputs = tuple(result[k] for k in sub.spec.pipeline_outputs)
            else:
                result = _run_mapped(registered, op, args)
                outputs = result if registered.n_outputs > 1 else (result,)
                if tracer is not None:
                    source_ids = [i for a in args for i in _item_ids(a)]
                    output_ids = [i for o in outputs for i in _item_ids(o)]
                    tracer.record(
                        OperationDescriptor(name=step.op_name, config=step.params),
                        sources=source_ids,
                        outputs=output_ids or [str(uuid.uuid4())],
                        scope=scope,
                    )
        except Exception as exc:
            raise StepFailureError(index, step.op_name, exc) from exc
        for key, value in zip(step.output_keys, outputs):
            env[key] = value
    return {key: env[key] for key in plan.spec.pipeline_outputs}
