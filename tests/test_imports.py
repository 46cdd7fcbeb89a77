"""Which annopipe modules a command loads, each checked in a fresh interpreter,
and the package names that resolve on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import annopipe
from annopipe import demo

# Each package's __all__, by the submodule that defines each name.
PUBLIC = {
    "annopipe": {
        "core": [
            "Document", "Annotation", "Segment", "Entity", "Relation", "Attribute",
            "create_document", "full_text_segment",
        ],
        "spans": [
            "Span", "ModifiedSpan", "span_length", "extract", "extract_each", "replace",
            "remove", "insert", "concatenate", "normalize_spans",
        ],
        "provenance": [
            "OperationDescriptor", "Tracer", "VerbosityLevel", "ProvGraph", "build_graph",
            "export_prov", "parse_prov_json",
        ],
        "pipeline": [
            "PipelineSpec", "PipelineStep", "OperationRegistry", "default_registry",
            "register_operation", "as_operation", "compile_pipeline", "validate_pipeline",
            "run_pipeline",
        ],
        "evaluation": ["MatchSpec", "Metrics", "align_entities", "score", "evaluate", "compare_runs"],
    },
    "annopipe.io": {
        "brat": ["parse_brat", "emit_brat"],
        "doccano": ["parse_doccano_jsonl", "emit_doccano_jsonl"],
        "docjson": ["serialize_document_json", "parse_document_json"],
        "textdir": ["load_text_documents"],
    },
    "annopipe.textops": {
        "sentences": ["split_sentences"],
        "deid": ["DeidRule", "deidentify"],
        "dictionary": [
            "DictionaryEntry", "fold_text", "load_dictionary", "match_dictionary",
            "PreparedDictionary", "prepare_dictionary", "match_prepared",
        ],
        "regexp": ["RegexRule", "match_regex"],
        "dates": ["match_dates"],
        "context": [
            "ContextRuleSet", "detect_context", "DEFAULT_NEGATION_RULES",
            "DEFAULT_HYPOTHESIS_RULES", "DEFAULT_FAMILY_RULES",
        ],
    },
}

BUILTINS = [
    "deidentify", "detect_context", "emit_brat", "match_dates", "match_dictionary",
    "match_regex", "split_sentences", "to_segment",
]


def _stdout(code: str, *argv) -> list[str]:
    """Stdout lines of a fresh interpreter that runs ``code`` with ``argv`` as
    sys.argv[1:], then prints one line naming the annopipe modules loaded."""
    script = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('annopipe')))"
    env = dict(os.environ, PYTHONPATH=str(Path(annopipe.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(code: str, *argv) -> set[str]:
    return set(_stdout(code, *argv)[-1].split())


CLI = "import sys\nfrom annopipe.cli import main\nassert main(sys.argv[1:]) == 0"


def test_eval_loads_no_pipeline_provenance_or_textops(tmp_path):
    loaded = _loaded(
        CLI + "\nassert 'logging' not in sys.modules",
        "eval", "--pred-dir", demo.reference_dir(), "--ref-dir", demo.reference_dir(),
        "--json-out", tmp_path / "eval.json",
    )
    assert "annopipe.evaluation" in loaded and "annopipe.io.brat" in loaded
    unwanted = {"annopipe.pipeline", "annopipe.ops", "annopipe.provenance"}
    assert not loaded & unwanted
    assert not [m for m in loaded if m.startswith("annopipe.textops")]


def test_brat_run_loads_only_the_modules_its_steps_name(tmp_path):
    loaded = _loaded(
        CLI, "run", "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", demo.corpus_dir(), "--output-dir", tmp_path / "out",
        "--prov-level", "none",
    )
    assert list((tmp_path / "out").glob("*.ann"))
    assert {"annopipe.textops.deid", "annopipe.textops.dictionary"} <= loaded
    unwanted = {
        "annopipe.evaluation", "annopipe.io.doccano", "annopipe.io.docjson",
        "annopipe.textops.context", "annopipe.textops.dates", "annopipe.textops.regexp",
    }
    assert not loaded & unwanted


def test_convert_loads_only_the_reader_and_writer_of_its_two_formats(tmp_path):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "a.txt").write_text("Prise d'aspirine.", encoding="utf-8")
    (tmp_path / "in" / "a.ann").write_text("T1\tDrug 8 16\taspirine\n", encoding="utf-8")
    loaded = _loaded(
        CLI + "\nassert 'logging' not in sys.modules",
        "convert", "--in-format", "brat", "--out-format", "doccano",
        "--in", tmp_path / "in", "--out", tmp_path / "out.jsonl",
    )
    assert '[[8, 16, "Drug"]]' in (tmp_path / "out.jsonl").read_text(encoding="utf-8")
    assert {"annopipe.io.brat", "annopipe.io.doccano"} <= loaded
    unwanted = {"annopipe.io.docjson", "annopipe.pipeline", "annopipe.provenance"}
    assert not loaded & unwanted
    assert not [m for m in loaded if m.startswith("annopipe.textops")]


@pytest.mark.parametrize("traced", [False, True])
def test_a_forked_run_imports_what_its_workers_run_before_the_pool(tmp_path, traced):
    # Prints the annopipe modules loaded when the run creates its pool, flushed
    # so that no forked worker inherits the line.
    probe = """
import concurrent.futures
import sys
Pool = concurrent.futures.ProcessPoolExecutor
class Probe(Pool):
    def __init__(self, *args, **kwargs):
        print(*sorted(m for m in sys.modules if m.startswith("annopipe")), flush=True)
        super().__init__(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = Probe
"""
    args = [
        "run", "--pipeline", demo.pipeline_path("drug_ner_regex"),
        "--input-dir", demo.corpus_dir(), "--output-format", "doccano",
    ]
    if traced:
        args += ["--prov-level", "full", "--prov-out", tmp_path / "prov.json"]
    inline = _loaded(CLI, *args, "--output-dir", tmp_path / "one", "--workers", 1)
    at_pool = _stdout(probe + CLI, *args, "--output-dir", tmp_path / "two", "--workers", 2)[0]
    assert {"annopipe.textops.regexp", "annopipe.io.doccano"} <= inline <= set(at_pool.split())
    assert ("annopipe.provenance" in at_pool.split()) == traced


# Fails a document whose run leaves provenance loaded, in the process that ran it.
NO_PROVENANCE = """
import sys
import annopipe.cli
process = annopipe.cli._process
def checked(doc):
    result = process(doc)
    assert "annopipe.provenance" not in sys.modules, "provenance loaded"
    return result
annopipe.cli._process = checked
"""


@pytest.mark.parametrize("extra", [
    ["--prov-level", "none"],
    ["--prov-level", "none", "--workers", 2],
    ["--prov-level", "full"],
])
def test_a_run_that_writes_no_trace_loads_no_provenance(tmp_path, extra):
    loaded = _loaded(
        NO_PROVENANCE + CLI, "run", "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", demo.corpus_dir(), "--output-dir", tmp_path / "out", *extra,
    )
    assert len(list((tmp_path / "out").glob("*.ann"))) == 24
    assert "annopipe.pipeline" in loaded and "annopipe.provenance" not in loaded


# Fails a document whose run leaves uuid or platform loaded, in the process that ran it.
NO_UUID = """
import sys
import annopipe.cli
process = annopipe.cli._process
def checked(doc):
    result = process(doc)
    assert not {"uuid", "_uuid", "platform"} & set(sys.modules), "uuid loaded"
    return result
annopipe.cli._process = checked
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_a_traced_run_loads_no_uuid(tmp_path, workers):
    loaded = _loaded(
        NO_UUID + CLI + '\nassert not {"uuid", "_uuid", "platform"} & set(sys.modules)',
        "run", "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", demo.corpus_dir(), "--output-dir", tmp_path / "out",
        "--prov-level", "full", "--prov-out", tmp_path / "prov.json", "--workers", workers,
    )
    assert (tmp_path / "prov.json").stat().st_size and "annopipe.provenance" in loaded


@pytest.mark.parametrize("nested", [False, True])
def test_run_pipeline_without_a_tracer_loads_no_provenance(nested):
    loaded = _loaded(f"""
import json
from annopipe import demo
from annopipe.io.textdir import load_text_documents
from annopipe.pipeline import PipelineSpec, PipelineStep, as_operation, compile_pipeline, run_pipeline
path = demo.pipeline_path("drug_ner_dict")
spec = PipelineSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
if {nested}:
    step = PipelineStep(as_operation(spec), {{}}, ["doc"], ["entities"])
    spec = PipelineSpec("outer", [step], ["doc"], ["entities"])
doc = load_text_documents(demo.corpus_dir())[0]
assert run_pipeline(compile_pipeline(spec), {{"doc": doc}})["entities"]
""")
    assert "annopipe.pipeline" in loaded and "annopipe.provenance" not in loaded


def test_building_the_parser_loads_no_command_module():
    loaded = _loaded("from annopipe.cli import build_parser\nbuild_parser()")
    assert loaded == {"annopipe", "annopipe.cli", "annopipe.exceptions"}


def test_default_registry_fills_itself_and_validation_imports_no_textops():
    lines = _stdout("""
import sys
from annopipe.pipeline import PipelineSpec, PipelineStep, default_registry, validate_pipeline
assert "annopipe.ops" not in sys.modules
print(*sorted(default_registry()._ops))
step = PipelineStep("detect_context", {}, ["sentences", "entities"], ["out"])
assert validate_pipeline(PipelineSpec("p", [step], ["sentences", "entities"], ["out"])) == []
""")
    assert lines[0].split() == BUILTINS
    loaded = set(lines[-1].split())
    assert "annopipe.ops" in loaded and "annopipe.io.brat" not in loaded
    assert not [m for m in loaded if m.startswith("annopipe.textops.")]


@pytest.mark.parametrize("package", sorted(PUBLIC))
def test_every_public_name_resolves_to_its_submodules_object(package):
    pkg = importlib.import_module(package)
    by_module = PUBLIC[package]
    assert pkg.__all__ == [name for names in by_module.values() for name in names]
    listed = dir(pkg)
    starred = {}
    exec(f"from {package} import *", starred)
    for sub, names in by_module.items():
        module = importlib.import_module(f"{package}.{sub}")
        for name in names:
            assert getattr(pkg, name) is getattr(module, name) is starred[name], name
            assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
