"""Seeded corpora with gold annotations for the benchmark workloads.

Notes are assembled from the demo vocabulary of
``scripts/generate_demo_corpus.py`` (imported, never run), so every drug
mention's raw offsets are known by construction. Each corpus directory holds
``<stem>.txt`` notes with gold ``<stem>.ann`` files beside them (brat layout),
plus the pipeline configs, dictionaries and ``expected.json``: the per-label
tp/fp/fn that a correct run of the workload's pipelines scores against gold.

A workload runs in phases, each over its own input directory of notes whose
names start with the directory's name; ``corpus/`` holds every phase's notes
and gold, so one ``annopipe eval`` scores them all, and ``one_<dir>/`` holds
one typical note of each phase for set-up time.

Expected counts come from the construction plus a brute-force matcher written
here with ``re`` and ``unicodedata``; nothing in this module calls annopipe's
matchers. The same (workload, seed) always yields byte-identical files.
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
import unicodedata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_SCRIPT = ROOT / "scripts" / "generate_demo_corpus.py"

WORKLOADS = ("short_notes", "long_notes")
NESTED_OP = "deid_dict"

# Corpus sizes, before the edge-case notes every short-note corpus adds. One
# run+eval pass takes a few seconds on 2 cores.
SHORT_NOTES = 400
PROVENANCE_NOTES = 300
CONTEXT_NOTES = 6
LONG_NOTE_SIZES = [9_000] * 4 + [36_000]

# Glue the benchmark adds to the demo vocabulary: month-name dates survive
# de-identification (its rule only knows dd/mm/yyyy) and reach match_dates;
# phone numbers give deidentify a second rule to apply.
MONTHS = ("janvier", "mars", "avril", "mai", "juin", "juillet", "octobre")
_DISTRACTOR_SYLLABLES = (
    "ba", "co", "da", "fe", "gi", "lo", "mi", "nu", "pa", "ri", "sa", "to",
    "vi", "xa", "zo", "ké", "té", "dro", "flu", "cly",
)
_DISTRACTOR_SUFFIXES = (
    "prazole", "statine", "mycine", "cilline", "olol", "sartan", "pril",
    "azépam", "tidine", "floxacine", "virine", "mab", "dronate", "triptan",
)


def load_vocabulary():
    """The demo generator module: DICTIONARY, DOCUMENTS, DEID_RULES, ..."""
    if not DEMO_SCRIPT.is_file():
        raise FileNotFoundError(f"demo vocabulary not found: {DEMO_SCRIPT}")
    spec = importlib.util.spec_from_file_location("_demo_vocabulary", DEMO_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fold(text: str) -> str:
    """Accent- and case-folded text of the same length as the input."""
    out = "".join(
        c for c in unicodedata.normalize("NFD", text) if not unicodedata.combining(c)
    ).lower()
    if len(out) != len(text):
        raise ValueError(f"folding changed the length of {text!r}")
    return out


class Note:
    """Raw text plus gold drug mentions, built part by part."""

    def __init__(self):
        self.text = ""
        self.drugs: list[tuple[int, int]] = []
        self.month_dates = 0

    def add(self, parts) -> None:
        for part in parts:
            if isinstance(part, tuple):
                _, name = part
                self.drugs.append((len(self.text), len(self.text) + len(name)))
                self.text += name
            else:
                self.text += part

    def add_month_date(self, rng: random.Random) -> None:
        day, year = rng.randint(1, 28), rng.randint(2015, 2023)
        self.add([f"Revu le {day} {rng.choice(MONTHS)} {year}. "])
        self.month_dates += 1

    def add_phone(self, rng: random.Random) -> None:
        digits = " ".join(f"{rng.randint(0, 99):02d}" for _ in range(4))
        self.add([f"Tél. : 0{rng.randint(1, 7)} {digits}. "])

    def gold_ann(self) -> str:
        return "".join(
            f"T{i}\tDrug {s} {e}\t{self.text[s:e]}\n"
            for i, (s, e) in enumerate(self.drugs, 1)
        )


def _template_parts(vocab, rng: random.Random) -> list:
    return list(vocab.DOCUMENTS[rng.choice(sorted(vocab.DOCUMENTS))])


def _spread(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """`count` sizes evenly spaced over [low, high] in seeded order, so every
    seed gives a corpus of about the same total size."""
    sizes = [low + (high - low) * i // max(count - 1, 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _short_note(vocab, rng: random.Random, target: int) -> Note:
    """One to several demo notes, about `target` (80-600) UTF-8 bytes."""
    note = Note()
    while True:
        parts = _template_parts(vocab, rng)
        candidate = note.text + "".join(p if isinstance(p, str) else p[1] for p in parts)
        if note.text and len(candidate.encode("utf-8")) + 1 > 600:
            break
        note.add(parts)
        note.add([" "])
        if len(note.text.encode("utf-8")) >= target:
            break
    note.text = note.text.rstrip(" ") + "\n"
    return note


def _long_note(vocab, rng: random.Random, size: int, note: Note) -> Note:
    """Fill `note` with demo notes, month-name dates and phone numbers up to
    `size` characters."""
    while len(note.text) < size:
        roll = rng.random()
        if roll < 0.08:
            note.add_month_date(rng)
        elif roll < 0.14:
            note.add_phone(rng)
        else:
            note.add(_template_parts(vocab, rng))
            note.add(["\n" if rng.random() < 0.2 else " "])
    note.text = note.text.rstrip(" ") + "\n"
    return note


def _edge_notes(vocab) -> dict[str, Note]:
    """Shapes real corpora contain. They are kept even if a pipeline fails on them."""
    notes = {}
    notes["edge_empty"] = Note()
    notes["edge_blank"] = Note()
    notes["edge_blank"].add(["  \n\t \n"])
    no_punct = Note()
    no_punct.add(vocab.DOCUMENTS["note_09"])
    no_punct.text = no_punct.text.rstrip(".")
    notes["edge_no_final_punct"] = no_punct
    first = Note()
    first.add(["12/03/2021 : "] + list(vocab.DOCUMENTS["note_04"]))
    notes["edge_date_first"] = first
    last = Note()
    last.add(list(vocab.DOCUMENTS["note_05"]) + [" Contrôle le 15/09/2021"])
    notes["edge_date_last"] = last
    return notes


def distractor_terms(vocab, rng: random.Random, n: int) -> list[str]:
    """Drug-like pseudo-words that occur nowhere in the vocabulary's text."""
    words = set()
    for parts in vocab.DOCUMENTS.values():
        for part in parts:
            text = part if isinstance(part, str) else part[1]
            words.update(re.findall(r"\w+", fold(text)))
    real = {fold(term) for term, _, _ in vocab.DICTIONARY}
    out: list[str] = []
    seen = set()
    while len(out) < n:
        stem = "".join(rng.choice(_DISTRACTOR_SYLLABLES) for _ in range(rng.randint(1, 3)))
        term = stem + rng.choice(_DISTRACTOR_SUFFIXES)
        key = fold(term)
        if key in seen or key in real or key in words:
            continue
        seen.add(key)
        out.append(term)
    return out


def _dictionary_csv(rows) -> str:
    lines = ["# term,label,norm_id"] + [f"{t},{label},{code}" for t, label, code in rows]
    return "\n".join(lines) + "\n"


def _dictionary_matches(text: str, terms: list[str]) -> set[tuple[int, int]]:
    """Word-bounded, folded, leftmost-longest matches of the terms."""
    alternation = "|".join(
        re.escape(t) for t in sorted({fold(t) for t in terms}, key=len, reverse=True)
    )
    pattern = re.compile(rf"(?<!\w)(?:{alternation})(?!\w)")
    return {m.span() for m in pattern.finditer(fold(text))}


def _drug_counts(note: Note, predicted: list[set]) -> dict:
    """tp/fp/fn for label Drug when each set in `predicted` is emitted."""
    gold = set(note.drugs)
    found = set().union(*predicted) if predicted else set()
    tp = len(gold & found)
    return {"tp": tp, "fp": sum(len(p) for p in predicted) - tp, "fn": len(gold) - tp}


def _add_counts(total: dict, label: str, counts: dict) -> None:
    slot = total.setdefault(label, {"tp": 0, "fp": 0, "fn": 0})
    for key, value in counts.items():
        slot[key] += value


def _step(op: str, inputs: list, outputs: list, params: dict | None = None) -> dict:
    return {"op": op, "params": params or {}, "inputs": inputs, "outputs": outputs}


def _context_params() -> dict:
    """detect_context params spelling out the default negation rules."""
    from annopipe.textops import DEFAULT_NEGATION_RULES as rules

    return {
        "attribute_label": rules.attribute_label,
        "cues_before": rules.cues_before,
        "cues_after": rules.cues_after,
        "terminators": rules.terminators,
        "max_token_window": rules.max_token_window,
    }


def _pipelines(vocab, workload: str) -> dict[str, dict]:
    """Pipeline configs by file name."""
    deid = {"rules": vocab.DEID_RULES}
    if workload == "long_notes":
        steps = [
            _step("to_segment", ["doc"], ["full_text"]),
            _step("deidentify", ["full_text"], ["deid_text", "phi"], deid),
            _step(
                "match_dictionary", ["deid_text"], ["drugs_dict"],
                {"path": "dict1000.csv", "strip_accents": True},
            ),
            _step("match_regex", ["deid_text"], ["drugs_regex"], {"rules": vocab.REGEX_DRUG_RULES}),
            _step("match_dates", ["deid_text"], ["dates"]),
        ]
        context = _sentence_steps(deid) + [
            _step("detect_context", ["deid_sentences", "entities"], ["negated"], _context_params()),
            _step("emit_brat", ["doc", "negated"], ["brat"]),
        ]
        return {
            "pipeline.json": _spec("bench_long", steps, ["drugs_dict", "drugs_regex", "dates"]),
            "context.json": _spec("bench_context", context, ["brat"]),
        }
    flat = _sentence_steps(deid)
    head, per_sentence = flat[:2], flat[2:]
    return {
        "pipeline.json": _spec("bench_short", flat, ["entities"]),
        "provenance.json": _spec(
            "bench_provenance", head + [_step(NESTED_OP, ["sentences"], ["entities"])], ["entities"]
        ),
        "nested.json": _spec(NESTED_OP, per_sentence, ["entities"], inputs=["sentences"]),
    }


def _sentence_steps(deid: dict) -> list:
    """Split sentences, then de-identify them and match the demo dictionary."""
    return [
        _step("to_segment", ["doc"], ["full_text"]),
        _step("split_sentences", ["full_text"], ["sentences"], {"punct_chars": ".!?", "keep_punct": True}),
        _step("deidentify", ["sentences"], ["deid_sentences", "phi"], deid),
        _step(
            "match_dictionary", ["deid_sentences"], ["entities"],
            {"path": "dict14.csv", "strip_accents": True},
        ),
    ]


def _spec(name: str, steps: list, outputs: list, inputs=("doc",)) -> dict:
    return {"name": name, "inputs": list(inputs), "outputs": outputs, "steps": steps}


def _short_notes(vocab, rng: random.Random, count: int) -> dict[str, Note]:
    notes = {
        f"{i:05d}": _short_note(vocab, rng, size)
        for i, size in enumerate(_spread(rng, count, 80, 600))
    }
    notes.update(_edge_notes(vocab))
    return notes


def _notes_for(workload: str, vocab, rng: random.Random) -> dict[str, dict[str, Note]]:
    """Notes by the input directory of the phase that runs them."""
    if workload == "short_notes":
        return {
            "short": _short_notes(vocab, rng, SHORT_NOTES),
            "prov": _short_notes(vocab, rng, PROVENANCE_NOTES),
        }
    long: dict[str, Note] = {}
    sizes = list(LONG_NOTE_SIZES)
    rng.shuffle(sizes)
    for i, size in enumerate(sizes):
        start = Note()
        if i == 0:
            start.add(["12/03/2021 : "])  # a date at the very first character
        long[f"{i:03d}_{size // 1000}k"] = _long_note(vocab, rng, size, start)
    last = long[max(long)]
    last.text = last.text.rstrip("\n") + " Revu le 15/09/2021"  # ... and the last
    context = {
        f"{i:03d}": _long_note(vocab, rng, size, Note())
        for i, size in enumerate(_spread(rng, CONTEXT_NOTES, 2_000, 4_000))
    }
    context.update(_edge_notes(vocab))
    return {"long": long, "context": context}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the workload's corpus, configs and expected counts; return a summary."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    vocab = load_vocabulary()
    rng = random.Random(f"{workload}:{seed}")
    out = Path(out_dir)
    corpus = out / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)

    real_terms = [term for term, _, _ in vocab.DICTIONARY]
    (out / "dict14.csv").write_text(_dictionary_csv(vocab.DICTIONARY), encoding="utf-8")
    if workload == "long_notes":
        rows = list(vocab.DICTIONARY) + [
            (term, "Drug", f"X{i:04d}")
            for i, term in enumerate(distractor_terms(vocab, rng, 1_000 - len(vocab.DICTIONARY)))
        ]
        rng.shuffle(rows)
        (out / "dict1000.csv").write_text(_dictionary_csv(rows), encoding="utf-8")
    for name, config in _pipelines(vocab, workload).items():
        (out / name).write_text(json.dumps(config, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    phases = _notes_for(workload, vocab, rng)
    regex = re.compile(vocab.REGEX_DRUG_RULES[0]["pattern"])
    expected: dict = {}
    for input_dir, notes in phases.items():
        (out / input_dir).mkdir()
        for name in sorted(notes):
            note, stem = notes[name], f"{input_dir}_{name}"
            (out / input_dir / f"{stem}.txt").write_text(note.text, encoding="utf-8")
            (corpus / f"{stem}.txt").write_text(note.text, encoding="utf-8")
            (corpus / f"{stem}.ann").write_text(note.gold_ann(), encoding="utf-8")
            predicted = [_dictionary_matches(note.text, real_terms)]
            if input_dir == "long":  # dictionary, regex and dates on the full text
                predicted.append({m.span() for m in regex.finditer(note.text)})
                if note.month_dates:
                    _add_counts(expected, "date", {"tp": 0, "fp": note.month_dates, "fn": 0})
            _add_counts(expected, "Drug", _drug_counts(note, predicted))

        # The phase's one-note corpus for set-up time: its median-sized note.
        regular = sorted((len(n.text), name) for name, n in notes.items() if not name.startswith("edge_"))
        typical = regular[len(regular) // 2][1]
        (out / f"one_{input_dir}").mkdir()
        (out / f"one_{input_dir}" / f"{input_dir}_{typical}.txt").write_text(
            notes[typical].text, encoding="utf-8"
        )

    every = [n for notes in phases.values() for n in notes.values()]
    summary = {
        "workload": workload,
        "seed": seed,
        "docs": len(every),
        "phase_docs": {input_dir: len(notes) for input_dir, notes in phases.items()},
        "bytes": sum(len(n.text.encode("utf-8")) for n in every),
        "expected": {label: expected[label] for label in sorted(expected)},
    }
    (out / "expected.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary
