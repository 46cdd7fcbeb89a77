import importlib.util
import random
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annopipe import demo
from annopipe.core import Entity, Segment, create_document, full_text_segment
from annopipe.exceptions import ScopeError
from annopipe.pipeline import PipelineSpec, PipelineStep, default_registry, run_pipeline
from annopipe.provenance import Tracer, VerbosityLevel
from annopipe.spans import (
    ModifiedSpan,
    Span,
    concatenate,
    extract,
    normalize_spans,
    replace,
    span_length,
)
from annopipe.textops import (
    DEFAULT_FAMILY_RULES,
    DEFAULT_HYPOTHESIS_RULES,
    DEFAULT_NEGATION_RULES,
    ContextRuleSet,
    DeidRule,
    DictionaryEntry,
    RegexRule,
    deidentify,
    detect_context,
    fold_text,
    load_dictionary,
    match_dates,
    match_dictionary,
    match_prepared,
    match_regex,
    prepare_dictionary,
    split_sentences,
)
from annopipe.textops import context as context_module
from annopipe.textops import dictionary as dictionary_module
from helpers import (
    entity_fingerprint,
    frozen_detect_context,
    frozen_detect_context_factory,
    frozen_fold_text,
    frozen_local_range,
    frozen_match_dictionary,
    frozen_match_dates,
    frozen_match_regex,
    frozen_original_index_per_char,
    frozen_split_sentences,
)


def seg_of(text):
    return full_text_segment(create_document(text))


class TestSplitSentences:
    def test_basic_split_keeps_punct(self):
        sentences = split_sentences(seg_of("Il dort. Elle lit."))
        assert [s.text for s in sentences] == ["Il dort.", "Elle lit."]
        assert [normalize_spans(s.spans) for s in sentences] == [
            [Span(0, 8)],
            [Span(9, 18)],
        ]

    def test_newline_splits_without_punct(self):
        sentences = split_sentences(seg_of("ligne un\nligne deux"))
        assert [s.text for s in sentences] == ["ligne un", "ligne deux"]

    def test_only_punctuation_yields_nothing(self):
        assert split_sentences(seg_of("...")) == []

    def test_trailing_text_without_punct_kept(self):
        sentences = split_sentences(seg_of("Fin sans point"))
        assert [s.text for s in sentences] == ["Fin sans point"]

    def test_drop_punct_option(self):
        sentences = split_sentences(seg_of("Il dort. Elle lit."), keep_punct=False)
        assert [s.text for s in sentences] == ["Il dort", "Elle lit"]

    def test_chain_length_invariant(self):
        for sent in split_sentences(seg_of("Un. Deux! Trois?\nQuatre")):
            assert span_length(sent.spans) == len(sent.text)


# Pieces of text the splitter must treat as the character loop did: line
# ends, characters str.isspace counts as space (\x1c, \x85, \xa0, U+3000),
# an astral character, and regex metacharacters that may be cut characters.
SPLIT_PIECES = [
    "a", "Zé", "\U0001F600", " ", "\t", "\n", "\r\n", "\x1c", "\x85", "\xa0", "\u3000",
    ".", "!", "?", ";", "]", "^", "-", "\\", "[",
]
# Entries of punct_chars: one character, a space, a newline, longer ones and
# an empty one.
SPLIT_MARKS = [
    ".", "!", "?", ";", "]", "^", "-", "\\", "[", " ", "\n", "\x85", "..", "ab", "\r\n", "",
]

split_texts = st.lists(st.sampled_from(SPLIT_PIECES), max_size=30).map("".join)


@st.composite
def split_segments(draw):
    """A full-text segment, or one whose chain ``replace`` has rewritten."""
    seg = seg_of(draw(split_texts))
    cuts = sorted(draw(st.lists(st.integers(0, len(seg.text)), max_size=4)))
    ranges = list(zip(cuts[::2], cuts[1::2]))
    replacements = [draw(split_texts) for _ in ranges]
    text, spans = replace(seg.text, seg.spans, ranges, replacements)
    return Segment(label="segment", text=text, spans=spans)


@settings(max_examples=500, deadline=None)
@given(
    split_segments(),
    st.one_of(st.lists(st.sampled_from(SPLIT_MARKS), max_size=5), split_texts),
    st.booleans(),
)
def test_split_sentences_matches_frozen_splitter(seg, punct_chars, keep_punct):
    got = split_sentences(seg, punct_chars, keep_punct)
    expected = frozen_split_sentences(seg, punct_chars, keep_punct)
    assert [(s.text, s.spans) for s in got] == [(s.text, s.spans) for s in expected]


class TestDeidentify:
    RULES = [
        DeidRule(r"\b\d{2}/\d{2}/\d{4}\b", "[DATE]"),
        DeidRule(r"\b0\d(?: \d{2}){4}\b", "[PHONE]"),
    ]

    def test_placeholder_substitution(self):
        seg = seg_of("Vu le 12/03/2021 pour suivi.")
        new_seg, entities = deidentify(seg, self.RULES)
        assert new_seg.text == "Vu le [DATE] pour suivi."
        assert [(e.label, e.text) for e in entities] == [("DATE", "12/03/2021")]
        assert entities[0].spans == [Span(6, 16)]

    def test_output_chain_remembers_original_range(self):
        seg = seg_of("Vu le 12/03/2021 pour suivi.")
        new_seg, _ = deidentify(seg, self.RULES)
        assert normalize_spans(new_seg.spans) == [Span(0, 28)]
        placeholder = [s for s in new_seg.spans if isinstance(s, ModifiedSpan)]
        assert placeholder == [ModifiedSpan(6, (Span(6, 16),))]

    def test_multiple_matches(self):
        seg = seg_of("Rappel au 06 11 22 33 44 le 01/02/2020.")
        new_seg, entities = deidentify(seg, self.RULES)
        assert new_seg.text == "Rappel au [PHONE] le [DATE]."
        assert sorted(e.label for e in entities) == ["DATE", "PHONE"]

    def test_no_match_is_identity(self):
        seg = seg_of("Rien à masquer ici.")
        new_seg, entities = deidentify(seg, self.RULES)
        assert new_seg.text == seg.text
        assert entities == []

    def test_no_match_keeps_the_chain_in_a_list_of_its_own(self):
        # A chain no replacement would have built: adjacent original spans.
        seg = Segment(label="s", text="Rien ici.", spans=[Span(0, 4), Span(4, 9), ModifiedSpan(0)])
        new_seg, _ = deidentify(seg, self.RULES)
        assert new_seg.spans == seg.spans and new_seg.spans is not seg.spans
        assert new_seg.id != seg.id and new_seg.label == seg.label


class TestDictionary:
    ENTRIES = [
        DictionaryEntry(term="paracétamol", label="Drug", norm_id="N02BE01"),
        DictionaryEntry(term="aspirine", label="Drug"),
    ]

    def test_simple_match_with_norm_id(self):
        entities = match_dictionary(seg_of("Prise de paracétamol 500."), self.ENTRIES)
        assert [(e.label, e.text) for e in entities] == [("Drug", "paracétamol")]
        assert entities[0].get_attribute("norm_id").value == "N02BE01"

    def test_case_insensitive_by_default(self):
        entities = match_dictionary(seg_of("ASPIRINE prescrite."), self.ENTRIES)
        assert [e.text for e in entities] == ["ASPIRINE"]

    def test_word_boundaries(self):
        assert match_dictionary(seg_of("désaspirinette"), self.ENTRIES) == []

    def test_accent_folding_maps_back_to_original_offsets(self):
        entities = match_dictionary(
            seg_of("Prise de paracetamol."),
            self.ENTRIES,
            strip_accents=True,
        )
        assert [e.text for e in entities] == ["paracetamol"]
        assert entities[0].spans == [Span(9, 20)]

    def test_leftmost_longest(self):
        entries = [
            DictionaryEntry(term="acide", label="Drug"),
            DictionaryEntry(term="acide acétylsalicylique", label="Drug"),
        ]
        entities = match_dictionary(seg_of("acide acétylsalicylique 100"), entries)
        assert [e.text for e in entities] == ["acide acétylsalicylique"]

    def test_load_dictionary_file(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text(
            "# drugs\nparacétamol,Drug,N02BE01\naspirine,Drug\n", encoding="utf-8"
        )
        entries = load_dictionary(path)
        assert [(e.term, e.label, e.norm_id) for e in entries] == [
            ("paracétamol", "Drug", "N02BE01"),
            ("aspirine", "Drug", None),
        ]

    def test_load_dictionary_ignores_a_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_bytes(b"\xef\xbb\xbfaspirine,Drug,B01\nparacetamol,Drug\n")
        entries = load_dictionary(path)
        assert [e.term for e in entries] == ["aspirine", "paracetamol"]
        entities = match_dictionary(seg_of("Aspirine ce matin."), entries)
        assert [(e.text, e.label) for e in entities] == [("Aspirine", "Drug")]

    def test_load_dictionary_rejects_short_line(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("paracétamol\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "line, field", [("aspirine,", "label"), (",Drug", "term"), (" , Drug ,N02BA01", "term")]
    )
    def test_load_dictionary_names_file_and_line_of_an_empty_field(self, tmp_path, line, field):
        path = tmp_path / "dict.csv"
        path.write_text(f"# drugs\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_dictionary(path)
        assert str(info.value) == f"{path}, line 2: dictionary {field} must be non-empty"

    def test_dictionary_entry_rejects_an_empty_label(self):
        with pytest.raises(ValueError, match="label must be non-empty"):
            DictionaryEntry(term="aspirine", label="")


def _naive_dictionary_matches(text, entries, strip_accents):
    """All-substrings brute-force oracle for match_dictionary."""

    def fold(s, lower):
        return frozen_fold_text(s, strip_accents, lower)[0]

    candidates = []
    for entry in entries:
        lower = not entry.case_sensitive
        needle = fold(entry.term, lower)
        for i in range(len(text)):
            for j in range(i + 1, len(text) + 1):
                if fold(text[i:j], lower) != needle:
                    continue
                # Reject matches that only work because a boundary character
                # folds into the needle (index granularity is per original char).
                if j < len(text) and fold(text[i : j + 1], lower) == needle:
                    continue
                before_ok = i == 0 or not text[i - 1].isalnum()
                after_ok = j == len(text) or not text[j].isalnum()
                if before_ok and after_ok:
                    candidates.append((i, j))
                break
    candidates.sort(key=lambda c: (c[0], -(c[1] - c[0])))
    selected, last_end = [], 0
    for start, end in candidates:
        if start >= last_end:
            selected.append((start, end))
            last_end = end
    return selected


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dictionary_matches_naive_scan(seed):
    rng = random.Random(seed)
    vocab = ["aspirine", "paracétamol", "PARACETAMOL", "toux", "reflux", "et", "500"]
    entries = [
        DictionaryEntry(term="aspirine", label="Drug"),
        DictionaryEntry(term="paracétamol", label="Drug"),
        DictionaryEntry(term="toux", label="Symptom"),
    ]
    strip_accents = rng.random() < 0.5
    words = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
    text = rng.choice(["", " "]).join(words) + rng.choice(["", ".", " fin"])
    expected = _naive_dictionary_matches(text, entries, strip_accents)
    got = match_dictionary(seg_of(text), entries, strip_accents)
    assert [tuple((s.start, s.end) for s in e.normalized_spans()) for e in got] == [
        ((s, e),) for s, e in expected
    ]


class TestRegex:
    def test_basic_match(self):
        rules = [RegexRule(pattern=r"\b\d+ mg\b", label="dose")]
        entities = match_regex(seg_of("ibuprofène 400 mg matin"), rules)
        assert [(e.label, e.text) for e in entities] == [("dose", "400 mg")]

    def test_exclusion_pattern_suppresses_rule(self):
        rules = [
            RegexRule(
                pattern=r"\baspirine\b",
                label="Drug",
                exclusion_pattern=r"allergie",
            )
        ]
        assert match_regex(seg_of("allergie à l'aspirine"), rules) == []
        assert len(match_regex(seg_of("sous aspirine"), rules)) == 1

    def test_capture_group(self):
        rules = [RegexRule(pattern=r"dose de (\d+) mg", label="dose", group=1)]
        entities = match_regex(seg_of("dose de 250 mg"), rules)
        assert [e.text for e in entities] == ["250"]
        assert entities[0].spans == [Span(8, 11)]

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            RegexRule(pattern=r"abc", label="x", group=2)

    def test_negative_group_rejected_naming_the_pattern(self):
        with pytest.raises(ValueError, match=re.escape("group -1 not present in pattern '(a)bc'")):
            RegexRule(pattern=r"(a)bc", label="x", group=-1)

    def test_results_sorted_by_position(self):
        rules = [
            RegexRule(pattern=r"\bmg\b", label="unit"),
            RegexRule(pattern=r"\b\d+\b", label="num"),
        ]
        entities = match_regex(seg_of("400 mg puis 200 mg"), rules)
        starts = [e.normalized_spans()[0].start for e in entities]
        assert starts == sorted(starts)


class TestDates:
    def test_numeric_formats(self):
        entities = match_dates(seg_of("Vu le 12/03/2021 puis le 2021-04-05."))
        assert [(e.text, e.get_attribute("normalized").value) for e in entities] == [
            ("12/03/2021", "2021-03-12"),
            ("2021-04-05", "2021-04-05"),
        ]

    def test_french_month_name(self):
        entities = match_dates(seg_of("Opéré le 1er août 1999."))
        assert [(e.text, e.get_attribute("normalized").value) for e in entities] == [
            ("1er août 1999", "1999-08-01"),
        ]

    def test_invalid_calendar_date_has_no_normalized(self):
        entities = match_dates(seg_of("noté 31/02/2020 au dossier"))
        assert [e.text for e in entities] == ["31/02/2020"]
        assert entities[0].get_attribute("normalized") is None

    def test_label_is_date(self):
        entities = match_dates(seg_of("le 01-02-2003"))
        assert [e.label for e in entities] == ["date"]


class TestContext:
    def _run(self, text, term, rules=DEFAULT_NEGATION_RULES):
        sentence = seg_of(text)
        start = text.index(term)
        ent_text, ent_spans = (
            term,
            [Span(start, start + len(term))],
        )
        from annopipe.core import Entity

        entity = Entity(label="Drug", text=ent_text, spans=ent_spans)
        results = detect_context(sentence, [entity], rules)
        assert len(results) == 1
        return results[0][1]

    def test_negation_cue_before(self):
        attr = self._run("pas d'aspirine ce jour", "aspirine")
        assert (attr.label, attr.value) == ("is_negated", True)

    def test_terminator_blocks_cue(self):
        attr = self._run("aspirine mais pas de fièvre", "aspirine")
        assert attr.value is False

    def test_cue_after(self):
        attr = self._run("aspirine non prise sans effet", "aspirine")
        assert attr.value is True

    def test_window_limit(self):
        rules = ContextRuleSet(
            attribute_label="is_negated",
            cues_before=[r"\bpas\b"],
            max_token_window=2,
        )
        near = self._run("pas de aspirine", "aspirine", rules)
        far = self._run("pas un seul vrai signe vers aspirine", "aspirine", rules)
        assert near.value is True
        assert far.value is False

    def test_attribute_always_emitted(self):
        attr = self._run("aspirine au long cours", "aspirine")
        assert attr.value is False

    def test_entity_outside_sentence_raises(self):
        from annopipe.core import Entity

        sentence = Segment(label="sentence", text="rien ici", spans=[Span(0, 8)])
        entity = Entity(label="Drug", text="aspirine", spans=[Span(50, 58)])
        with pytest.raises(ScopeError):
            detect_context(sentence, [entity], DEFAULT_NEGATION_RULES)

    def test_ruleset_validation(self):
        with pytest.raises(ValueError):
            ContextRuleSet(attribute_label="x")
        with pytest.raises(ValueError):
            ContextRuleSet(
                attribute_label="x", cues_before=["a"], max_token_window=0
            )

    def _op(self, **params):
        params = {"attribute_label": "is_negated", "cues_before": [r"\bpas\b"], **params}
        return default_registry().get("detect_context").factory(params)

    def test_op_returns_new_entities_and_leaves_inputs_alone(self):
        from annopipe.core import Entity

        text = "pas d'aspirine ce jour. Rien."
        sentences = split_sentences(seg_of(text))
        entity = Entity(label="Drug", text="aspirine", spans=[Span(6, 14)])
        (out,) = self._op()(sentences, [entity]).outputs
        assert entity.attributes == []
        assert out.id != entity.id
        assert (out.label, out.text, out.spans) == ("Drug", "aspirine", [Span(6, 14)])
        assert [(a.label, a.value) for a in out.attributes] == [("is_negated", True)]

    def test_op_raises_on_a_bad_cue_pattern(self):
        from annopipe.core import Entity

        entity = Entity(label="Drug", text="aspirine", spans=[Span(0, 8)])
        with pytest.raises(re.error):
            self._op(cues_before=["("])([seg_of("aspirine")], [entity])


class TestFoldText:
    def test_index_map_points_to_original(self):
        folded, index_map = fold_text("Été", strip_accents=True, lower=True)
        assert folded == "ete"
        assert index_map == [0, 1, 2]

    def test_combining_marks_fold_away(self):
        text = "été"  # "été" with combining accents
        folded, index_map = fold_text(text, strip_accents=True, lower=True)
        assert folded == "ete"
        assert [text[i] for i in index_map] == ["e", "t", "e"]
        assert all(not unicodedata.combining(c) for c in folded)


# Characters whose fold is not one character in some mode (combining marks,
# dotted capital I, Hangul syllables, the dz digraph), case pairs, and word
# and non-word characters.
FOLD_ALPHABET = "aéÉeİıßﬁ한̧́Ç_-. 1²ǅ"
FOLD_MODES = [(s, lo) for s in (False, True) for lo in (False, True)]

fold_texts = st.text(
    alphabet=st.one_of(st.sampled_from(FOLD_ALPHABET), st.characters()), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(fold_texts)
def test_fold_text_matches_frozen_fold(text):
    for strip_accents, lower in FOLD_MODES:
        assert fold_text(text, strip_accents, lower) == frozen_fold_text(
            text, strip_accents, lower
        )


def test_fold_text_of_empty_string():
    for strip_accents, lower in FOLD_MODES:
        assert fold_text("", strip_accents, lower) == ("", [])


# Terms include ones that start or end with a non-word character and ones that
# fold to "" when accents are stripped (a lone combining mark).
DICT_TERMS = [
    "aspirine", "Aspirine", "ASPIRINE", "asp", "paracétamol", "paracetamol",
    "é", "É", "e", "-e", "e.", "ß", "ﬁ", "İ", "한", "_a", "1²", "\u0301", "a\u0301",
]


@st.composite
def dictionaries(draw):
    terms = draw(st.lists(st.sampled_from(DICT_TERMS), min_size=1, max_size=8))
    # Labels are unique per entry, so a duplicate term shows which entry won.
    return [
        DictionaryEntry(
            term=term,
            label=f"L{i}",
            norm_id=draw(st.sampled_from([None, "N1"])),
            case_sensitive=draw(st.booleans()),
        )
        for i, term in enumerate(terms)
    ]


dict_texts = st.lists(
    st.one_of(st.sampled_from(DICT_TERMS), fold_texts), max_size=10
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(dict_texts, dictionaries(), st.booleans(), st.booleans())
def test_match_dictionary_matches_frozen_matcher(text, entries, strip_accents, deid):
    seg = seg_of(text)
    if deid:  # match on a modified span chain too
        seg, _ = deidentify(seg, [DeidRule(r"\d+", "[N]")])
    expected = frozen_match_dictionary(seg, entries, strip_accents)
    got = match_dictionary(seg, entries, strip_accents)
    assert [entity_fingerprint(e) for e in got] == [
        entity_fingerprint(e) for e in expected
    ]


def test_match_dictionary_op_folds_terms_once(monkeypatch):
    calls = []
    real = dictionary_module.fold_text

    def counting(text, strip_accents, lower):
        calls.append(text)
        return real(text, strip_accents, lower)

    monkeypatch.setattr(dictionary_module, "fold_text", counting)
    entries = [{"term": t, "label": "Drug"} for t in ("aspirine", "tramadol", "morphine")]
    op = default_registry().get("match_dictionary").factory({"entries": entries})
    assert len(calls) == 3
    texts = ["sous aspirine.", "morphine le soir.", "rien."]
    found = [[e.text for e in op(seg_of(t))] for t in texts]
    assert found == [["aspirine"], ["morphine"], []]
    # One fold per segment: no entry is case-sensitive, so no exact-case fold.
    assert len(calls) == 3 + len(texts)


# The head-word index: terms sharing a head word, terms whose head is
# followed by a non-word character, terms starting with one, and heads that
# occur in the text only inside a longer word.
HEAD_TERMS = [
    "ab", "AB", "ab-c", "abc", "ab_c", "c-ab", "ab c", "ab.", "-ab", "áb",
    "ab\u0301", "b", "c", "xaby", "ab-cd", "ab²",
]
head_texts = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(HEAD_TERMS + ["xab", "aby", "abcd", "_ab", "ab_", "ABC"]),
            st.text(alphabet="abcxyÁ_-. ²\u0301", max_size=4),
        ),
        st.sampled_from(["", " ", " ", "-", ".", "_"]),
    ),
    max_size=10,
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=300, deadline=None)
@given(
    head_texts,
    st.lists(st.sampled_from(HEAD_TERMS), min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=8, max_size=8),
    st.booleans(),
)
def test_head_word_index_matches_frozen_matcher(text, terms, case_sensitive, strip_accents):
    entries = [
        DictionaryEntry(term=term, label=f"L{i}", case_sensitive=case_sensitive[i])
        for i, term in enumerate(terms)
    ]
    seg = seg_of(text)
    expected = frozen_match_dictionary(seg, entries, strip_accents)
    got = match_dictionary(seg, entries, strip_accents)
    assert [entity_fingerprint(e) for e in got] == [
        entity_fingerprint(e) for e in expected
    ]


def _dictionary_scaling_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "dictionary_scaling.py"
    spec = importlib.util.spec_from_file_location("dictionary_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_large_dictionary_matches_frozen_matcher_on_a_long_note():
    script = _dictionary_scaling_script()
    text = script.demo_note(9_000)
    seg = seg_of(text)
    terms = load_dictionary(demo.dictionary_path())
    entries = terms + script.distractors(text, 16_000)
    got = match_dictionary(seg, entries, strip_accents=True)
    assert [entity_fingerprint(e) for e in got] == [
        entity_fingerprint(e) for e in frozen_match_dictionary(seg, entries, True)
    ]
    assert len(got) > 100
    assert [entity_fingerprint(e) for e in got] == [
        entity_fingerprint(e) for e in match_dictionary(seg, terms, strip_accents=True)
    ]


def test_terms_whose_head_word_is_absent_are_never_searched():
    searched = []

    class RecordingNeedles(tuple):
        def __getitem__(self, i):
            searched.append(i)
            return super().__getitem__(i)

    terms = ["aspirine", "morphine", "aspirine forte", "-x", "doli", "prane", "Doliprane"]
    entries = [DictionaryEntry(term=t, label="Drug") for t in terms]
    entries[-1].case_sensitive = True
    prepared = prepare_dictionary(entries)
    prepared = prepared._replace(needles=RecordingNeedles(prepared.needles))
    found = match_prepared(seg_of("Sous aspirine et doliprane."), prepared)
    assert [e.text for e in found] == ["aspirine"]
    # "doli" and "prane" occur only inside "doliprane"; the case-sensitive
    # "Doliprane" needs the exact-case word; "-x" has no head word.
    assert searched == [0, 2, 3]


# The detect_context op against the per-(sentence, entity) op it replaced.

CONTEXT_WORDS = [
    "pas", "de", "sans", "aucun", "ni", "si", "possible", "ATCD", "mère",
    "familial", "mais", ",", ";", "aspirine", "fièvre", "morphine", "12/03/2021",
    ".", "!", "\n",
]
CONTEXT_RULES = [
    DEFAULT_NEGATION_RULES,
    DEFAULT_HYPOTHESIS_RULES,
    DEFAULT_FAMILY_RULES,
    ContextRuleSet(
        attribute_label="is_negated",
        cues_before=[r"\bpas\b"],
        cues_after=[r"\bsans\b"],
        terminators=[","],
        max_token_window=1,
    ),
]


def _random_cut(rng, seg, max_ranges=2):
    """A piece of seg made of up to max_ranges sorted ranges (maybe empty)."""
    n = len(seg.text)
    points = sorted(rng.randint(0, n) for _ in range(2 * rng.randint(1, max_ranges)))
    text, spans = extract(seg.text, seg.spans, list(zip(points[::2], points[1::2])))
    return text, spans


def context_case(seed):
    """Sentences and entities over one random note.

    Sentences: the split (de-identified or not), plus overlapping extracts,
    duplicates, concatenations and a shuffle. Entities: ranges of the raw
    note (some spanning two sentences or lying between them), PHI entities
    that lie only inside a placeholder, cuts of de-identified sentences, and
    entities with no original span.
    """
    rng = random.Random(seed)
    doc_seg = seg_of(" ".join(rng.choice(CONTEXT_WORDS) for _ in range(rng.randint(0, 30))))
    sentences = split_sentences(doc_seg)
    phi = []
    if rng.random() < 0.5:
        pairs = [deidentify(s, [DeidRule(r"\d{2}/\d{2}/\d{4}", "[DATE]")]) for s in sentences]
        sentences = [s for s, _ in pairs]
        phi = [e for _, found in pairs for e in found]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["extract", "duplicate", "concatenate"])
        if kind == "extract":
            text, spans = _random_cut(rng, doc_seg)
        elif kind == "duplicate" and sentences:
            sentences.append(rng.choice(sentences))
            continue
        elif kind == "concatenate" and sentences:
            parts = [rng.choice(sentences) for _ in range(2)]
            text, spans = concatenate([(s.text, s.spans) for s in parts], " ")
        else:
            continue
        sentences.append(Segment(label="sentence", text=text, spans=spans))
    if rng.random() < 0.3:
        rng.shuffle(sentences)

    entities = list(phi)
    sources = [doc_seg] + sentences
    for _ in range(rng.randint(0, 8)):
        text, spans = _random_cut(rng, rng.choice(sources))
        entities.append(Entity(label="Drug", text=text, spans=spans))
    if rng.random() < 0.3:
        entities.append(Entity(label="Drug", text="ajout", spans=[ModifiedSpan(5)]))
    if entities and rng.random() < 0.2:
        entities.append(rng.choice(entities))  # the same entity twice
    rng.shuffle(entities)
    return sentences, entities, rng.choice(CONTEXT_RULES)


def _rule_params(rules):
    return {
        "attribute_label": rules.attribute_label,
        "cues_before": rules.cues_before,
        "cues_after": rules.cues_after,
        "terminators": rules.terminators,
        "max_token_window": rules.max_token_window,
    }


def _context_fingerprint(entity):
    return (
        entity.label,
        entity.text,
        entity.spans,
        entity.metadata,
        [(a.label, a.value) for a in entity.attributes],
    )


def _holds(sentence, entity):
    try:
        frozen_local_range(sentence, entity, frozen_original_index_per_char(sentence))
    except ScopeError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_detect_context_op_matches_frozen_op(seed):
    sentences, entities, rules = context_case(seed)
    before = [_context_fingerprint(e) for e in entities]
    params = _rule_params(rules)
    got = default_registry().get("detect_context").factory(params)(sentences, entities).outputs
    expected = frozen_detect_context_factory(params)(sentences, entities)
    assert [_context_fingerprint(e) for e in got] == [
        _context_fingerprint(e) for e in expected
    ]
    assert [_context_fingerprint(e) for e in entities] == before
    assert not {e.id for e in got} & {e.id for e in entities}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_detect_context_runs_once_per_sentence_holding_entities(seed):
    # One scan per sentence holding entities, and each sentence and entity
    # projected once, also in a run traced at full: the op states its lineage
    # from the same scoping pass.
    sentences, entities, rules = context_case(seed)
    calls = []
    projections = []
    scan = context_module._scan

    def counting(sentence, scoped, rules):
        calls.append(sentence)
        return scan(sentence, scoped, rules)

    def projecting(spans):
        projections.append(spans)
        return normalize_spans(spans)

    step = PipelineStep("detect_context", _rule_params(rules), ["sentences", "entities"], ["out"])
    spec = PipelineSpec("context", [step], ["sentences", "entities"], ["out"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(context_module, "_scan", counting)
        mp.setattr(context_module, "normalize_spans", projecting)
        tracer = Tracer(VerbosityLevel.FULL)
        run_pipeline(spec, {"sentences": sentences, "entities": entities}, tracer)
    assert len(projections) == len(entities) + len(sentences)
    holding = [s for s in sentences if any(_holds(s, e) for e in entities)]
    assert calls == holding
    (record,) = tracer._records
    assert record.derivations is not None


@pytest.mark.parametrize("rules", CONTEXT_RULES)
def test_detect_context_matches_frozen_on_every_cut(rules):
    # Every entity range of a short sentence, including ones that start or
    # end on a space, next to a cue or inside a placeholder.
    sentence, _ = deidentify(
        seg_of("pas de aspirine de de sans 12/03/2021 , mère fièvre possible ni"),
        [DeidRule(r"\d{2}/\d{2}/\d{4}", "[DATE]")],
    )
    n = len(sentence.text)
    for start in range(n + 1):
        for end in range(start, n + 1):
            text, spans = extract(sentence.text, sentence.spans, [(start, end)])
            entity = Entity(label="Drug", text=text, spans=spans)
            try:
                expected = frozen_detect_context(sentence, [entity], rules)
            except ScopeError:
                with pytest.raises(ScopeError):
                    detect_context(sentence, [entity], rules)
                continue
            got = detect_context(sentence, [entity], rules)
            assert [(i, a.label, a.value) for i, a in got] == [
                (i, a.label, a.value) for i, a in expected
            ]


def test_detect_context_op_on_empty_inputs():
    op = default_registry().get("detect_context").factory(
        _rule_params(DEFAULT_NEGATION_RULES)
    )
    sentences = split_sentences(seg_of("pas d'aspirine."))
    entity = Entity(label="Drug", text="aspirine", spans=[Span(6, 14)])
    assert op([], []).outputs == []
    assert op(sentences, []).outputs == []
    (out,) = op([], [entity]).outputs
    assert _context_fingerprint(out) == _context_fingerprint(entity)


# Tokens holding dates (valid and not), digit runs, capitals and placeholders.
MATCH_TOKENS = [
    "12/03/2021", "31/02/2020", "2021-04-05", "01-02-2003", "1er août 1999",
    "12 mars 1980", "06 12 34 56 78", "400", "mg", "Dr", "aspirine", "X", "[N]", "-",
]
MATCH_REPLACEMENTS = ["", " ", "[X]", "12/03/2021", "Dupont", "7"]


@st.composite
def placeholder_segments(draw):
    """A segment whose chain holds modified spans: disjoint ranges of a note,
    some empty, replaced by placeholders that may themselves match."""
    text = " ".join(draw(st.lists(st.sampled_from(MATCH_TOKENS), max_size=8)))
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)))
    ranges = list(zip(cuts[::2], cuts[1::2]))
    replacements = [draw(st.sampled_from(MATCH_REPLACEMENTS)) for _ in ranges]
    seg = seg_of(text)
    text, spans = replace(seg.text, seg.spans, ranges, replacements)
    return Segment(label="sentence", text=text, spans=spans, metadata={"n": len(ranges)})


def _entity_view(entities):
    """Everything of the entities but their ids."""
    return [
        (type(e), e.label, e.text, e.spans, [(a.label, a.value) for a in e.attributes])
        for e in entities
    ]


# Overlapping rules, so leftmost-longest has to pick.
OVERLAPPING_DEID_RULES = [
    DeidRule(r"\d{2}/\d{2}/\d{4}", "[DATE]"),
    DeidRule(r"\d{2}/\d{2}", "[DM]"),
    DeidRule(r"\d+", "[N]"),
    DeidRule(r"\b0\d(?: \d{2}){4}\b", "[PHONE]"),
    DeidRule(r"[A-Z]\w*", "[NAME]"),
    DeidRule(r"\[\w+\]", "[PH]"),
]

MATCH_REGEX_RULES = [
    RegexRule(r"\d+", "num"),
    RegexRule(r"\b(\d+) mg\b", "dose", group=1),
    RegexRule(r"(\d{2})/(\d{2})/\d{4}", "month", group=2),
    RegexRule(r"(a)?sp", "optional", group=1),
    RegexRule(r"[a-z]+", "word", exclusion_pattern=r"Dr"),
    RegexRule(r"\[\w+\]", "placeholder", exclusion_pattern=r"\d{4}-"),
    RegexRule(r"x*", "empty"),
]


@settings(max_examples=300, deadline=None)
@given(
    placeholder_segments(),
    st.lists(st.sampled_from(OVERLAPPING_DEID_RULES), min_size=1, max_size=4),
    st.lists(st.sampled_from(MATCH_REGEX_RULES), min_size=1, max_size=4),
)
def test_matchers_match_frozen_matchers_on_placeholder_chains(seg, deid_rules, regex_rules):
    new_seg, _ = deidentify(seg, deid_rules)
    for matched in (seg, new_seg):
        assert _entity_view(match_dates(matched)) == _entity_view(frozen_match_dates(matched))
        assert _entity_view(match_regex(matched, regex_rules)) == _entity_view(
            frozen_match_regex(matched, regex_rules)
        )
