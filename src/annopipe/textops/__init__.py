from .context import (
    DEFAULT_FAMILY_RULES,
    DEFAULT_HYPOTHESIS_RULES,
    DEFAULT_NEGATION_RULES,
    ContextRuleSet,
    detect_context,
)
from .dates import match_dates
from .deid import DeidRule, deidentify
from .dictionary import (
    DictionaryEntry,
    PreparedDictionary,
    fold_text,
    load_dictionary,
    match_dictionary,
    match_prepared,
    prepare_dictionary,
)
from .regexp import RegexRule, match_regex
from .sentences import split_sentences

__all__ = [
    "split_sentences",
    "DeidRule",
    "deidentify",
    "DictionaryEntry",
    "fold_text",
    "load_dictionary",
    "match_dictionary",
    "PreparedDictionary",
    "prepare_dictionary",
    "match_prepared",
    "RegexRule",
    "match_regex",
    "match_dates",
    "ContextRuleSet",
    "detect_context",
    "DEFAULT_NEGATION_RULES",
    "DEFAULT_HYPOTHESIS_RULES",
    "DEFAULT_FAMILY_RULES",
]
