"""Built-in operations available to pipeline configs.

Each factory takes the step's params dict and returns a callable. Params bind
by name onto the function or rule type that declares them and their defaults;
one that names nothing raises TypeError. Every factory imports the module
behind its operation when a plan binds the step, so validating a pipeline
imports no text operation. The callable keeps a copy of the params and looks
its function up on that module when called. ``default_registry`` registers
these operations the first time it is used. Each declares its slots with
``core`` types, so checking a pipeline's wiring imports nothing more;
``detect_context`` returns its lineage with its outputs, as ``Derived``.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect

from .core import Annotation, Document, Entity, Segment, new_id
from .pipeline import Derived, OperationRegistry


def _bound(module: str, name: str, rule: str, n_data: int):
    """A factory binding a step's params onto function ``name`` of ``module``,
    after its ``n_data`` data args; with a ``rule`` type, each dict of the
    ``rules`` param becomes one of those."""

    def factory(params):
        mod = importlib.import_module(module, __package__)
        inspect.signature(getattr(mod, name)).bind(*[None] * n_data, **params)
        kwargs = copy.deepcopy(params)
        if rule:
            kwargs["rules"] = [getattr(mod, rule)(**r) for r in kwargs["rules"]]
        return lambda *data: getattr(mod, name)(*data, **kwargs)

    return factory


def _match_dictionary_factory(params):
    from .textops import dictionary

    rest = dict(params)
    path = rest.pop("path", None)
    # Only the names are checked: with a path, the entries come from its file.
    inspect.signature(dictionary.prepare_dictionary).bind_partial(**rest)
    if ("path" in params) == ("entries" in rest):
        raise TypeError("match_dictionary takes exactly one of 'entries' and 'path'")
    if "path" in params:
        entries = dictionary.load_dictionary(path)
    else:
        entries = [dictionary.DictionaryEntry(**e) for e in rest.pop("entries")]
    prepared = dictionary.prepare_dictionary(entries, **rest)
    return lambda seg: dictionary.match_prepared(seg, prepared)


def _detect_context_factory(params):
    from .textops import context

    rules = context.ContextRuleSet(**copy.deepcopy(params))

    def run(sentences, entities):
        # New entities carrying the context attribute found in each sentence
        # that holds them, in sentence order; the inputs stay untouched, and
        # output entity k derives from input entity k and each of those.
        added = {e.id: [] for e in entities}
        holders = {id(e): [] for e in entities}
        for sentence, scoped in zip(sentences, context._scoped(sentences, entities)):
            found = context._scan(sentence, scoped, rules) if scoped else []
            for (entity, _, _), (_, attribute) in zip(scoped, found):
                added[entity.id].append(attribute)
                holders[id(entity)].append(sentence)
        outputs = [
            dataclasses.replace(
                e,
                id=new_id(),
                attributes=e.attributes + added[e.id],
                metadata=dict(e.metadata),
                spans=list(e.spans),
            )
            for e in entities
        ]
        pairs = [(d, s) for e, d in zip(entities, outputs) for s in (e, *holders[id(e)])]
        return Derived(outputs, pairs)

    return run


# The operations that call one function: (name, module, function, rule type
# of its "rules" param, input slots, output slots).
_FUNCTIONS = (
    ("to_segment", ".core", "full_text_segment", "", (Document,), (Segment,)),
    ("split_sentences", ".textops.sentences", "split_sentences", "", (Segment,), ([Segment],)),
    ("deidentify", ".textops.deid", "deidentify", "DeidRule", (Segment,), (Segment, [Entity])),
    ("match_regex", ".textops.regexp", "match_regex", "RegexRule", (Segment,), ([Entity],)),
    ("match_dates", ".textops.dates", "match_dates", "", (Segment,), ([Entity],)),
    ("emit_brat", ".io.brat", "emit_brat", "", (Document, [Annotation]), (str,)),
)


def register_builtin_operations(registry: OperationRegistry) -> None:
    for name, module, function, rule, inputs, outputs in _FUNCTIONS:
        registry.register(name, _bound(module, function, rule, len(inputs)), inputs, outputs)
    registry.register("match_dictionary", _match_dictionary_factory, (Segment,), ([Entity],))
    registry.register("detect_context", _detect_context_factory, ([Segment], [Entity]), ([Entity],))
