from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "sentences": ("split_sentences",),
    "deid": ("DeidRule", "deidentify"),
    "dictionary": (
        "DictionaryEntry", "fold_text", "load_dictionary", "match_dictionary",
        "PreparedDictionary", "prepare_dictionary", "match_prepared",
    ),
    "regexp": ("RegexRule", "match_regex"),
    "dates": ("match_dates",),
    "context": (
        "ContextRuleSet", "detect_context", "DEFAULT_NEGATION_RULES",
        "DEFAULT_HYPOTHESIS_RULES", "DEFAULT_FAMILY_RULES",
    ),
})
