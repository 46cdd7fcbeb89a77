"""Provenance tracing with configurable verbosity and PROV-JSON export.

A Tracer accumulates records of which operation produced which data items
from which inputs. Records carry an optional scope identifying the composite
activity (nested pipeline) they ran under, and the (output, source) pairs
saying which output derives from which source. build_graph turns a trace into
a PROV-style graph: each activity's outputs derive from sources by its pairs,
and a composite's exposed outputs from the outside sources its members' pairs
lead back to. At `steps` verbosity nested pipelines collapse into a single
composite activity, at `full` verbosity composites additionally carry their
expanded sub-graph.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .core import new_id
from .exceptions import CycleDetectedError, MalformedJsonError, SelfDerivationError, expect_json


class VerbosityLevel(enum.IntEnum):
    NONE = 0
    STEPS = 1
    FULL = 2

    @classmethod
    def parse(cls, name: str) -> "VerbosityLevel":
        return cls[name.upper()]


@dataclass
class OperationDescriptor:
    """Identity and configuration of one operation invocation."""

    name: str
    config: dict = field(default_factory=dict)
    id: str = field(default_factory=new_id)

    def __post_init__(self):
        if not self.name:
            raise ValueError("operation name must be non-empty")


@dataclass
class ProvenanceRecord:
    """One produced data item, the operation that made it, and its inputs."""

    data_item_id: str
    op_id: str
    source_ids: list[str]


@dataclass
class _Record:
    op: OperationDescriptor
    sources: list[str]
    outputs: list[str]
    scope: Optional[str]
    derivations: list[tuple[str, str]]  # (output, source) pairs


@dataclass
class _Scope:
    id: str
    op: OperationDescriptor
    parent: Optional[str]


class Tracer:
    """Append-only provenance store at a fixed verbosity level."""

    def __init__(self, level: VerbosityLevel = VerbosityLevel.FULL):
        self.level = VerbosityLevel(level)
        self._records: list[_Record] = []
        self._scopes: dict[str, _Scope] = {}

    def record(
        self,
        op: OperationDescriptor,
        sources: list[str],
        outputs: list[str],
        scope: Optional[str] = None,
        derivations: Optional[list[tuple[str, str]]] = None,
    ) -> None:
        """Record one step: ``op`` made ``outputs`` from ``sources``.

        ``derivations`` lists the ``(output, source)`` pairs saying which
        output derives from which source; without it, every output derives
        from every source, and the record holds those pairs.
        """
        if not outputs:
            raise ValueError("record requires at least one output")
        source_set = set(sources)
        for out in outputs:
            if out in source_set:
                raise SelfDerivationError(f"{out} listed as both source and output")
        if scope is not None and scope not in self._scopes:
            raise ValueError(f"record names unknown scope {scope!r}")
        if derivations is not None:
            derivations = list(derivations)
            output_set = set(outputs)
            for out, src in derivations:
                if out not in output_set or src not in source_set:
                    raise ValueError(
                        f"derivation ({out}, {src}) names an item outside the record"
                    )
        if self.level == VerbosityLevel.NONE:
            return
        if derivations is None:
            derivations = [(o, s) for o in dict.fromkeys(outputs) for s in dict.fromkeys(sources)]
        self._records.append(_Record(op, list(sources), list(outputs), scope, derivations))

    def open_scope(
        self, op: OperationDescriptor, parent: Optional[str] = None
    ) -> str:
        """Declare a composite activity (nested pipeline); returns its scope id."""
        if parent is not None and parent not in self._scopes:
            raise ValueError(f"open_scope names unknown parent scope {parent!r}")
        scope_id = new_id()
        self._scopes[scope_id] = _Scope(scope_id, op, parent)
        return scope_id

    @property
    def records(self) -> list[ProvenanceRecord]:
        """Flat per-output view of the trace."""
        return [
            ProvenanceRecord(out, rec.op.id, list(rec.sources))
            for rec in self._records
            for out in rec.outputs
        ]

    def merge(self, other: "Tracer") -> None:
        """Absorb another tracer's records (per-worker traces)."""
        self._records.extend(other._records)
        self._scopes.update(other._scopes)


@dataclass
class Activity:
    id: str
    name: str
    config: dict = field(default_factory=dict)
    composite: bool = False


@dataclass
class ProvGraph:
    entities: set = field(default_factory=set)
    activities: dict = field(default_factory=dict)
    used: list = field(default_factory=list)
    was_generated_by: list = field(default_factory=list)
    was_derived_from: list = field(default_factory=list)
    was_informed_by: list = field(default_factory=list)
    sub_graphs: dict = field(default_factory=dict)

    def all_entities(self) -> set:
        """Entities of this graph and every nested sub-graph."""
        out = set(self.entities)
        for sub in self.sub_graphs.values():
            out |= sub.all_entities()
        return out

    def check_acyclic(self) -> None:
        """Topologically sort entities and activities; raise on cycle."""
        nodes = set(self.entities) | set(self.activities)
        succ = {n: [] for n in nodes}
        indeg = {n: 0 for n in nodes}
        for act, ent in self.used:
            succ[ent].append(act)
            indeg[act] += 1
        for ent, act in self.was_generated_by:
            succ[act].append(ent)
            indeg[ent] += 1
        queue = [n for n in nodes if indeg[n] == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if seen != len(nodes):
            raise CycleDetectedError("provenance graph contains a cycle")
        for sub in self.sub_graphs.values():
            sub.check_acyclic()


def _add_activity_edges(graph: ProvGraph, act_id: str, sources, outputs, derivations) -> None:
    """Edges of one activity, deriving outputs from sources by ``derivations``."""
    graph.entities.update(sources)
    graph.entities.update(outputs)
    for src in sources:
        graph.used.append((act_id, src))
    for out in outputs:
        graph.was_generated_by.append((out, act_id))
    graph.was_derived_from.extend(dict.fromkeys(derivations))


def _composite_derivations(records: list, generated: set, exposed) -> list:
    """Pairs deriving each exposed output of a composite from the external
    sources that its records' pairs lead back to.

    The walk from an output goes back through the pairs: an item made inside
    the composite leads on to its own sources, any other item is an external
    source. An output's sources are kept once walked, so a walk that reaches
    an output walked before takes its sources whole.
    """
    parents: dict = {}
    for rec in records:
        for out, src in rec.derivations:
            parents.setdefault(out, []).append(src)
    reached: dict = {}
    pairs = []
    for out in exposed:
        found: dict = {}
        seen = {out}
        stack = [out]
        while stack:
            for src in parents.get(stack.pop(), ()):
                if src in seen:
                    continue
                seen.add(src)
                if src in reached:
                    found.update(reached[src])
                elif src in generated:
                    stack.append(src)
                else:
                    found[src] = None
        reached[out] = found
        pairs.extend((out, src) for src in found)
    return pairs


def _build_level(
    tracer: Tracer, scope_id: Optional[str], records: list, mentions: Counter
) -> ProvGraph:
    """Graph of ``records`` (all within ``scope_id``) seen from that scope.

    Records of the scope itself become activities; records of a nested scope
    group under the child of ``scope_id`` they descend from, which becomes one
    composite activity placed where its first record was. ``mentions`` counts
    the records of the whole trace that name each item.
    """
    graph = ProvGraph()
    units: dict = {}  # trace position -> record, child scope id -> its records
    for position, rec in enumerate(records):
        if rec.scope == scope_id:
            units[position] = rec
            continue
        child = rec.scope
        while tracer._scopes[child].parent != scope_id:
            child = tracer._scopes[child].parent
        units.setdefault(child, []).append(rec)

    for key, unit in units.items():
        if isinstance(key, int):
            act_id = new_id()
            graph.activities[act_id] = Activity(act_id, unit.op.name, dict(unit.op.config))
            sources, outputs = dict.fromkeys(unit.sources), dict.fromkeys(unit.outputs)
            _add_activity_edges(graph, act_id, sources, outputs, unit.derivations)
            continue
        generated = {o for rec in unit for o in rec.outputs}
        consumed = {s for rec in unit for s in rec.sources}
        inside = Counter(i for rec in unit for i in set(rec.sources) | set(rec.outputs))
        ext_sources = dict.fromkeys(
            s for rec in unit for s in rec.sources if s not in generated
        )
        # An output stays visible if nothing inside consumes it or a record
        # outside the scope names it.
        exposed = dict.fromkeys(
            o
            for rec in unit
            for o in rec.outputs
            if o not in consumed or mentions[o] > inside[o]
        )
        scope = tracer._scopes[key]
        graph.activities[key] = Activity(
            key, scope.op.name, dict(scope.op.config), composite=True
        )
        pairs = _composite_derivations(unit, generated, exposed)
        _add_activity_edges(graph, key, ext_sources, exposed, pairs)
        if tracer.level >= VerbosityLevel.FULL:
            graph.sub_graphs[key] = _build_level(tracer, key, unit, mentions)

    generator = {ent: act for ent, act in graph.was_generated_by}
    used_by = {act_id: [] for act_id in graph.activities}
    for act_id, ent in graph.used:
        used_by[act_id].append(ent)
    for act_id, used in used_by.items():
        informants = dict.fromkeys(generator.get(ent, act_id) for ent in used)
        informants.pop(act_id, None)
        graph.was_informed_by.extend((act_id, informant) for informant in informants)
    return graph


def build_graph(tracer: Tracer) -> ProvGraph:
    """Build the PROV graph for a trace at the tracer's verbosity level."""
    if tracer.level == VerbosityLevel.NONE:
        return ProvGraph()
    mentions = Counter(
        i for rec in tracer._records for i in set(rec.sources) | set(rec.outputs)
    )
    graph = _build_level(tracer, None, tracer._records, mentions)
    graph.check_acyclic()
    return graph


# One row per PROV relation: the ProvGraph field holding its pairs, the
# PROV-JSON section, the record id prefix, and the keys of the pair's two items.
_RELATIONS = (
    ("used", "used", "u", "prov:activity", "prov:entity"),
    ("was_generated_by", "wasGeneratedBy", "g", "prov:entity", "prov:activity"),
    ("was_derived_from", "wasDerivedFrom", "d", "prov:generatedEntity", "prov:usedEntity"),
    ("was_informed_by", "wasInformedBy", "i", "prov:informed", "prov:informant"),
)


def _write_prov_json(graph: ProvGraph, write) -> None:
    """Pass ``graph`` to ``write`` as compact PROV-JSON, a fragment at a time:
    the text ``json.dumps(..., ensure_ascii=False)`` gives, with entities sorted,
    records numbered from 1 in each graph and sub-graphs nested as ``members``."""
    quote = json.encoder.encode_basestring
    write('{"entity": {')
    write(", ".join(f"{quote(ent)}: {{}}" for ent in sorted(graph.entities)))
    write('}, "activity": {')
    for n, act in enumerate(graph.activities.values()):
        write(f'{", " if n else ""}{quote(act.id)}: {{"prov:label": {quote(act.name)}')
        if act.config:
            write(', "config": ' + json.dumps(act.config, ensure_ascii=False))
        if act.composite:
            write(', "composite": true')
        if act.id in graph.sub_graphs:
            write(', "members": ')
            _write_prov_json(graph.sub_graphs[act.id], write)
        write("}")
    write("}")
    for field_name, section, prefix, first, second in _RELATIONS:
        write(f', "{section}": {{')
        write(", ".join(
            f'"{prefix}{i}": {{"{first}": {quote(a)}, "{second}": {quote(b)}}}'
            for i, (a, b) in enumerate(getattr(graph, field_name), 1)
        ))
        write("}")
    write("}")


def _graph_from_dict(doc: dict) -> ProvGraph:
    graph = ProvGraph()
    graph.entities = set(expect_json(doc.get("entity", {}), dict, "section 'entity'"))
    for act_id, rec in expect_json(doc.get("activity", {}), dict, "section 'activity'").items():
        rec = expect_json(rec, dict, f"activity {act_id!r}")
        where = f"of activity {act_id!r}"
        graph.activities[act_id] = Activity(
            act_id,
            expect_json(rec.get("prov:label", ""), str, f"prov:label {where}"),
            dict(expect_json(rec.get("config", {}), dict, f"config {where}")),
            composite=expect_json(rec.get("composite", False), bool, f"composite {where}"),
        )
        if "members" in rec:
            members = expect_json(rec["members"], dict, f"members {where}")
            graph.sub_graphs[act_id] = _graph_from_dict(members)
    for field_name, section, _, first, second in _RELATIONS:
        pairs = getattr(graph, field_name)
        for rec_id, rec in expect_json(doc.get(section, {}), dict, f"section {section!r}").items():
            where = f"{section} record {rec_id!r}"
            rec = expect_json(rec, dict, where)
            pairs.append(tuple(expect_json(rec.get(k), str, f"{k} of {where}") for k in (first, second)))
    return graph


def _dot_quote(text: str) -> str:
    """``text`` as a DOT double-quoted string."""
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _write_dot(graph: ProvGraph, write) -> None:
    q = _dot_quote
    for ent in sorted(graph.entities):
        write(f"  {q(ent)} [shape=ellipse];\n")
    for act in graph.activities.values():
        write(f"  {q(act.id)} [shape=box, label={q(act.name)}];\n")
    for field_name, section, *_ in _RELATIONS:
        for a, b in getattr(graph, field_name):
            write(f"  {q(a)} -> {q(b)} [label={q(section)}];\n")
    for sub in graph.sub_graphs.values():
        _write_dot(sub, write)


def export_prov(graph: ProvGraph, format: str = "prov-json") -> str:
    parts: list = []
    if format == "prov-json":
        _write_prov_json(graph, parts.append)
    elif format == "dot":
        parts.append("digraph provenance {\n")
        _write_dot(graph, parts.append)
        parts.append("}")
    else:
        raise ValueError(f"unknown provenance export format {format!r}")
    parts.append("\n")
    return "".join(parts)


def parse_prov_json(text: str) -> ProvGraph:
    """Inverse of export_prov(graph, 'prov-json')."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"invalid JSON: {exc}") from exc
    return _graph_from_dict(expect_json(doc, dict, "PROV-JSON document"))
