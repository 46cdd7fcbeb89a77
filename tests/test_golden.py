"""Golden outputs: the demo corpus through a full pipeline, byte for byte.

The pipeline splits sentences, de-identifies them, matches the demo
dictionary, a drug regex and dates, scopes negation, hypothesis and family
context, and writes Brat. The expected `.ann` files under
`tests/fixtures/golden/` were written by the span and context code as it was
before slicing bisected and context scoped once per sentence; the run must
reproduce them exactly at every provenance level.

To rewrite the fixtures on purpose (an intended output change), run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from annopipe import demo
from annopipe.cli import main
from annopipe.textops import (
    DEFAULT_FAMILY_RULES,
    DEFAULT_HYPOTHESIS_RULES,
    DEFAULT_NEGATION_RULES,
)

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _step(op, inputs, outputs, params=None):
    return {"op": op, "params": params or {}, "inputs": inputs, "outputs": outputs}


def _context(rules):
    return {
        "attribute_label": rules.attribute_label,
        "cues_before": rules.cues_before,
        "cues_after": rules.cues_after,
        "terminators": rules.terminators,
        "max_token_window": rules.max_token_window,
    }


def golden_pipeline() -> dict:
    deid_rules = [
        {"pattern": r"\b\d{2}/\d{2}/\d{4}\b", "placeholder": "[DATE]"},
        {"pattern": r"\b0\d(?: \d{2}){4}\b", "placeholder": "[PHONE]"},
    ]
    drug_rule = {"pattern": r"\b[a-zà-ÿ]+(?:ine|ol|ène|ane)\b", "label": "Drug"}
    return {
        "name": "golden",
        "inputs": ["doc"],
        "outputs": ["phi", "drugs_ctx", "regex_ctx", "dates_ctx"],
        "steps": [
            _step("to_segment", ["doc"], ["full_text"]),
            _step("split_sentences", ["full_text"], ["sentences"]),
            _step("deidentify", ["sentences"], ["clean", "phi"], {"rules": deid_rules}),
            _step(
                "match_dictionary", ["clean"], ["drugs"],
                {"path": str(demo.dictionary_path()), "strip_accents": True},
            ),
            _step("match_regex", ["clean"], ["regex_drugs"], {"rules": [drug_rule]}),
            # Dates are matched on the raw sentences, so the numeric ones lie
            # inside the [DATE] placeholders of "clean" and get no context.
            _step("match_dates", ["sentences"], ["dates"]),
            _step(
                "detect_context", ["clean", "drugs"], ["drugs_neg"],
                _context(DEFAULT_NEGATION_RULES),
            ),
            _step(
                "detect_context", ["clean", "drugs_neg"], ["drugs_hyp"],
                _context(DEFAULT_HYPOTHESIS_RULES),
            ),
            _step(
                "detect_context", ["clean", "drugs_hyp"], ["drugs_ctx"],
                _context(DEFAULT_FAMILY_RULES),
            ),
            _step(
                "detect_context", ["clean", "regex_drugs"], ["regex_ctx"],
                _context(DEFAULT_NEGATION_RULES),
            ),
            _step(
                "detect_context", ["clean", "dates"], ["dates_ctx"],
                _context(DEFAULT_NEGATION_RULES),
            ),
        ],
    }


def run_golden(tmp: Path, out: Path, level: str) -> int:
    """Run the golden pipeline over the demo corpus, writing `.ann` files to out."""
    pipeline = tmp / "golden.json"
    pipeline.write_text(json.dumps(golden_pipeline()), encoding="utf-8")
    return main([
        "run",
        "--pipeline", str(pipeline),
        "--input-dir", str(demo.corpus_dir()),
        "--output-dir", str(out),
        "--output-format", "brat",
        "--prov-level", level,
        "--prov-out", str(tmp / "prov.json"),
    ])


def test_fixtures_cover_the_demo_corpus():
    expected = sorted(p.stem for p in demo.corpus_dir().glob("*.txt"))
    assert sorted(p.stem for p in GOLDEN.glob("*.ann")) == expected
    # Brat carries only true attributes; the demo notes hold negations only.
    text = "".join(p.read_text(encoding="utf-8") for p in GOLDEN.glob("*.ann"))
    assert "\tis_negated " in text


@pytest.mark.parametrize("level", ["none", "full"])
def test_demo_corpus_matches_golden_ann(tmp_path, level):
    out = tmp_path / "out"
    assert run_golden(tmp_path, out, level) == 0
    produced = sorted(out.glob("*.ann"))
    assert [p.name for p in produced] == sorted(p.name for p in GOLDEN.glob("*.ann"))
    for path in produced:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if run_golden(Path(tmp), out, "none") != 0:
            sys.exit("golden pipeline failed")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(out, GOLDEN)
