"""Built-in operations available to pipeline configs.

Each factory takes the step's params dict and returns a callable. Params bind
by name onto the function or rule type that declares them and their defaults;
one that names nothing raises TypeError. The callable keeps a copy of the
params and looks its function up when called. ``default_registry`` registers
these operations the first time it is used. The context, date and regex
factories import their textops module when a plan binds them, so validating a
pipeline imports none of them.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect

from .core import full_text_segment, new_id
from .io.brat import emit_brat
from .pipeline import OperationRegistry
from .textops.deid import DeidRule, deidentify
from .textops.dictionary import DictionaryEntry, load_dictionary, match_prepared, prepare_dictionary
from .textops.sentences import split_sentences


def _checked(fn, params: dict, *data) -> dict:
    """A deep copy of a step's params, checked to bind onto ``fn`` after its data args."""
    inspect.signature(fn).bind(*data, **params)
    return copy.deepcopy(params)


def _to_segment_factory(params):
    kwargs = _checked(full_text_segment, params, None)
    return lambda doc: full_text_segment(doc, **kwargs)


def _split_sentences_factory(params):
    kwargs = _checked(split_sentences, params, None)
    return lambda seg: split_sentences(seg, **kwargs)


def _deidentify_factory(params):
    kwargs = _checked(deidentify, params, None)
    kwargs["rules"] = [DeidRule(**r) for r in kwargs["rules"]]
    return lambda seg: deidentify(seg, **kwargs)


def _match_dictionary_factory(params):
    # With both "path" and "entries", prepare_dictionary gets entries twice.
    rest = dict(params)
    if "path" in rest:
        entries = load_dictionary(rest.pop("path"))
    else:
        entries = [DictionaryEntry(**e) for e in rest.pop("entries")]
    prepared = prepare_dictionary(entries, **rest)
    return lambda seg: match_prepared(seg, prepared)


def _match_regex_factory(params):
    from .textops import regexp

    kwargs = _checked(regexp.match_regex, params, None)
    kwargs["rules"] = [regexp.RegexRule(**r) for r in kwargs["rules"]]
    return lambda seg: regexp.match_regex(seg, **kwargs)


def _match_dates_factory(params):
    from .textops import dates

    kwargs = _checked(dates.match_dates, params, None)
    return lambda seg: dates.match_dates(seg, **kwargs)


def _detect_context_factory(params):
    from .textops import context

    rules = context.ContextRuleSet(**copy.deepcopy(params))

    def run(sentences, entities):
        # New entities carrying the context attribute found in each sentence
        # that holds them, in sentence order; the inputs stay untouched, so
        # provenance can derive one from the other.
        added = {e.id: [] for e in entities}
        for sentence, scoped in zip(sentences, context._scoped(sentences, entities)):
            if scoped:
                for entity_id, attribute in context._scan(sentence, scoped, rules):
                    added[entity_id].append(attribute)
        return [
            dataclasses.replace(
                e,
                id=new_id(),
                attributes=e.attributes + added[e.id],
                metadata=dict(e.metadata),
                spans=list(e.spans),
            )
            for e in entities
        ]

    return run


def _detect_context_lineage(args, outputs):
    """Output entity k derives from input entity k and each sentence holding it."""
    from .textops.context import _scoped

    sentences, entities = args
    holders = {id(e): [] for e in entities}
    for sentence, scoped in zip(sentences, _scoped(sentences, entities)):
        for entity, _, _ in scoped:
            holders[id(entity)].append(sentence)
    for entity, derived in zip(entities, outputs[0]):
        yield derived, entity
        for sentence in holders[id(entity)]:
            yield derived, sentence


def _emit_brat_factory(params):
    kwargs = _checked(emit_brat, params, None, None)
    return lambda doc, entities: emit_brat(doc, entities, **kwargs)


def register_builtin_operations(registry: OperationRegistry) -> None:
    registry.register("to_segment", _to_segment_factory, 1, 1, "item")
    registry.register("split_sentences", _split_sentences_factory, 1, 1, "item")
    registry.register("deidentify", _deidentify_factory, 1, 2, "item")
    registry.register("match_dictionary", _match_dictionary_factory, 1, 1, "item")
    registry.register("match_regex", _match_regex_factory, 1, 1, "item")
    registry.register("match_dates", _match_dates_factory, 1, 1, "item")
    registry.register(
        "detect_context", _detect_context_factory, 2, 1, "batch", _detect_context_lineage
    )
    registry.register("emit_brat", _emit_brat_factory, 2, 1, "batch")
