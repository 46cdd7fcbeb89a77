"""Built-in operations available to pipeline configs.

Each factory takes the step's params dict and returns a callable. Importing
this module populates the default registry.
"""

from __future__ import annotations

import dataclasses

from .core import full_text_segment, new_id
from .io.brat import emit_brat
from .pipeline import OperationRegistry, default_registry
from .textops import (
    ContextRuleSet,
    DeidRule,
    DictionaryEntry,
    RegexRule,
    deidentify,
    detect_context,
    load_dictionary,
    match_dates,
    match_prepared,
    match_regex,
    prepare_dictionary,
    split_sentences,
)
from .textops.context import _entities_by_sentence


def _to_segment_factory(params):
    label = params.get("label", "full_text")
    return lambda doc: full_text_segment(doc, label=label)


def _split_sentences_factory(params):
    punct_chars = params.get("punct_chars", ".!?")
    keep_punct = params.get("keep_punct", True)
    return lambda seg: split_sentences(seg, punct_chars, keep_punct)


def _deidentify_factory(params):
    rules = [DeidRule(r["pattern"], r["placeholder"]) for r in params["rules"]]
    return lambda seg: deidentify(seg, rules)


def _parse_dictionary_params(params) -> list[DictionaryEntry]:
    if "path" in params:
        return load_dictionary(params["path"])
    return [
        DictionaryEntry(
            term=e["term"],
            label=e["label"],
            norm_id=e.get("norm_id"),
            case_sensitive=e.get("case_sensitive", False),
        )
        for e in params["entries"]
    ]


def _match_dictionary_factory(params):
    prepared = prepare_dictionary(
        _parse_dictionary_params(params), params.get("strip_accents", False)
    )
    return lambda seg: match_prepared(seg, prepared)


def _match_regex_factory(params):
    rules = [
        RegexRule(
            pattern=r["pattern"],
            label=r["label"],
            exclusion_pattern=r.get("exclusion_pattern"),
            group=r.get("group", 0),
        )
        for r in params["rules"]
    ]
    return lambda seg: match_regex(seg, rules)


def _match_dates_factory(params):
    return match_dates


def _detect_context_factory(params):
    rules = ContextRuleSet(
        attribute_label=params["attribute_label"],
        cues_before=params.get("cues_before", []),
        cues_after=params.get("cues_after", []),
        terminators=params.get("terminators", []),
        max_token_window=params.get("max_token_window", 5),
    )

    def run(sentences, entities):
        # New entities carrying the context attribute found in each sentence
        # that holds them, in sentence order; the inputs stay untouched, so
        # provenance can derive one from the other.
        added = {e.id: [] for e in entities}
        for sentence, held in zip(sentences, _entities_by_sentence(sentences, entities)):
            if held:
                for entity_id, attribute in detect_context(sentence, held, rules):
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
    sentences, entities = args
    holders = {id(e): [] for e in entities}
    for sentence, held in zip(sentences, _entities_by_sentence(sentences, entities)):
        for entity in held:
            holders[id(entity)].append(sentence)
    for entity, derived in zip(entities, outputs[0]):
        yield derived, entity
        for sentence in holders[id(entity)]:
            yield derived, sentence


def _emit_brat_factory(params):
    return lambda doc, entities: emit_brat(doc, entities)


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


register_builtin_operations(default_registry())
