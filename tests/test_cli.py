import concurrent.futures
import copy
import itertools
import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest

from annopipe import cli, demo, provenance
from annopipe.cli import main
from annopipe.core import (
    Annotation, Document, Entity, Relation, create_document, full_text_segment,
)
from annopipe.exceptions import (
    ConfigError, MalformedJsonError, MalformedLineError, SurfaceMismatchError,
)
from annopipe.io.brat import parse_brat
from annopipe.io.docjson import serialize_document_json
from annopipe.io.textdir import load_text_documents
from annopipe.pipeline import PipelineSpec, as_operation, default_registry, run_pipeline
from annopipe.provenance import build_graph, export_prov, parse_prov_json
from annopipe.spans import ModifiedSpan, Span
from annopipe.textops import DEFAULT_NEGATION_RULES, load_dictionary

from helpers import frozen_write_corpus, graph_signature

FIXTURES = Path(__file__).parent / "fixtures" / "brat"

# From Python 3.12, forking a process that has threads warns; `annopipe run
# --workers N` must fork before any thread exists, so that warning fails here.
pytestmark = pytest.mark.filterwarnings("error:This process .* is multi-threaded:DeprecationWarning")


@pytest.fixture()
def corpus(tmp_path):
    dst = tmp_path / "corpus"
    shutil.copytree(demo.corpus_dir(), dst)
    return dst


def run_cli(*args):
    return main([str(a) for a in args])


class TestRun:
    def test_run_emits_ann_files(self, tmp_path, corpus):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--pipeline", demo.pipeline_path("drug_ner_dict"),
            "--input-dir", corpus,
            "--output-dir", out,
        )
        assert code == 0
        produced = sorted(p.name for p in out.glob("*.ann"))
        expected = sorted(p.stem + ".ann" for p in corpus.glob("*.txt"))
        assert produced == expected
        assert any(p.read_text(encoding="utf-8") for p in out.glob("*.ann"))

    def test_run_writes_provenance(self, tmp_path, corpus):
        out = tmp_path / "out"
        prov = tmp_path / "prov.json"
        code = run_cli(
            "run",
            "--pipeline", demo.pipeline_path("drug_ner_dict"),
            "--input-dir", corpus,
            "--output-dir", out,
            "--prov-level", "full",
            "--prov-out", prov,
        )
        assert code == 0
        doc = json.loads(prov.read_text(encoding="utf-8"))
        assert doc["activity"] and doc["wasGeneratedBy"]

    @pytest.mark.parametrize("level", ["steps", "full"])
    def test_run_without_prov_out_traces_nothing(self, tmp_path, corpus, monkeypatch, level):
        # No trace is written, so none is recorded, whatever --prov-level says.
        records = []
        record = provenance.Tracer.record
        monkeypatch.setattr(
            provenance.Tracer, "record", lambda *a, **k: records.append(a) or record(*a, **k)
        )
        pipeline = demo.pipeline_path("drug_ner_dict")
        assert _run_at(1, pipeline, corpus, tmp_path / "none") == 0
        assert _run_at(1, pipeline, corpus, tmp_path / level, "--prov-level", level) == 0
        assert records == []
        assert _files(tmp_path / level) == _files(tmp_path / "none")

    def test_bad_pipeline_path_exits_2(self, tmp_path, corpus):
        code = run_cli(
            "run",
            "--pipeline", tmp_path / "missing.json",
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
        )
        assert code == 2

    def test_invalid_pipeline_config_exits_2(self, tmp_path, corpus, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "inputs": ["doc"],
                    "outputs": ["missing"],
                    "steps": [],
                }
            ),
            encoding="utf-8",
        )
        code = run_cli(
            "run",
            "--pipeline", bad,
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "ok.txt").write_text("aspirine.", encoding="utf-8")
        (corpus / "bad.txt").write_bytes(b"aspirine \xff.")
        code = run_cli(
            "run",
            "--pipeline", demo.pipeline_path("drug_ner_dict"),
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
        )
        # The whole corpus fails to load: decoding is a config-stage error.
        assert code == 2

    def test_pipeline_without_exactly_one_input_exits_2(self, tmp_path, corpus, capsys):
        spec = json.loads(demo.pipeline_path("drug_ner_dict").read_text(encoding="utf-8"))
        spec["inputs"].append("extra")
        pipeline = tmp_path / "two_inputs.json"
        pipeline.write_text(json.dumps(spec), encoding="utf-8")
        code = run_cli(
            "run",
            "--pipeline", pipeline,
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
        )
        assert code == 2
        assert "exactly one input" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.ann"))

    def test_factory_error_exits_2_before_any_document(self, tmp_path, corpus, capsys):
        pipeline = tmp_path / "bad_regex.json"
        pipeline.write_text(
            json.dumps(
                {
                    "name": "bad_regex",
                    "inputs": ["doc"],
                    "outputs": ["drugs"],
                    "steps": [
                        _step("to_segment", ["doc"], ["full_text"]),
                        _step(
                            "match_regex", ["full_text"], ["drugs"],
                            {"rules": [{"pattern": "(", "label": "Drug"}]},
                        ),
                    ],
                }
            ),
            encoding="utf-8",
        )
        code = run_cli(
            "run",
            "--pipeline", pipeline,
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: step 1 (match_regex) failed:")
        assert not list((tmp_path / "out").glob("*.ann"))

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2


def _step(op, inputs, outputs, params=None):
    return {"op": op, "params": params or {}, "inputs": inputs, "outputs": outputs}


CONTEXT_PIPELINE = {
    "name": "negated_drugs",
    "inputs": ["doc"],
    "outputs": ["brat"],
    "steps": [
        _step("to_segment", ["doc"], ["full_text"]),
        _step("split_sentences", ["full_text"], ["sentences"]),
        _step(
            "deidentify", ["sentences"], ["clean", "phi"],
            {"rules": [{"pattern": r"\b\d{2}/\d{2}/\d{4}\b", "placeholder": "[DATE]"}]},
        ),
        _step(
            "match_dictionary", ["clean"], ["drugs"],
            {"path": str(demo.dictionary_path()), "strip_accents": True},
        ),
        _step(
            "detect_context", ["clean", "drugs"], ["negated"],
            {
                "attribute_label": "is_negated",
                "cues_before": DEFAULT_NEGATION_RULES.cues_before,
                "cues_after": DEFAULT_NEGATION_RULES.cues_after,
                "terminators": DEFAULT_NEGATION_RULES.terminators,
            },
        ),
        _step("emit_brat", ["doc", "negated"], ["brat"]),
    ],
}


def _negated_lines(brat):
    return [line for line in brat.splitlines() if "\tis_negated " in line]


@pytest.mark.parametrize("level", ["none", "steps", "full"])
def test_detect_context_pipeline_runs_at_every_prov_level(tmp_path, corpus, level):
    pipeline = tmp_path / "context.json"
    pipeline.write_text(json.dumps(CONTEXT_PIPELINE), encoding="utf-8")
    out = tmp_path / "out"
    prov = tmp_path / "prov.json"
    code = run_cli(
        "run",
        "--pipeline", pipeline,
        "--input-dir", corpus,
        "--output-dir", out,
        "--prov-level", level,
        "--prov-out", prov,
    )
    assert code == 0

    spec = PipelineSpec.from_dict(CONTEXT_PIPELINE)
    expected = {}
    for doc in load_text_documents(corpus):
        brat = run_pipeline(spec, {"doc": doc})["brat"]
        expected[Path(doc.metadata["filename"]).stem] = _negated_lines(brat)
    got = {
        p.stem: _negated_lines(p.read_text(encoding="utf-8")) for p in out.glob("*.ann")
    }
    assert got == expected
    assert any(expected.values())


def test_run_loads_a_path_dictionary_once(tmp_path, corpus, monkeypatch):
    loaded = []

    def counting_load(path):
        loaded.append(path)
        return load_dictionary(path)

    monkeypatch.setattr("annopipe.textops.dictionary.load_dictionary", counting_load)
    pipeline = tmp_path / "context.json"
    pipeline.write_text(json.dumps(CONTEXT_PIPELINE), encoding="utf-8")
    code = run_cli(
        "run",
        "--pipeline", pipeline,
        "--input-dir", corpus,
        "--output-dir", tmp_path / "out",
        "--workers", 2,
    )
    assert code == 0
    assert len(list((tmp_path / "out").glob("*.ann"))) == len(list(corpus.glob("*.txt"))) > 1
    assert loaded == [str(demo.dictionary_path())]


def _regex_rule_with_grup(step):
    step["op"] = "match_regex"
    step["params"] = {"rules": [{"pattern": r"\baspirine\b", "label": "Drug", "grup": 0}]}


# (misspelt name, index of the step it sits in, edit of that step)
MISSPELT_STEPS = [
    ("keep_punc", 1, lambda step: step["params"].update(keep_punc=False)),
    ("param", 1, lambda step: step.update(param=step.pop("params"))),
    ("strip_accent", 3, lambda step: step["params"].update(strip_accent=True)),
    (
        "case_sensitve", 3,
        lambda step: step.update(params={"entries": [{"term": "a", "label": "Drug", "case_sensitve": True}]}),
    ),
    ("grup", 3, _regex_rule_with_grup),
    ("max_token_windw", 4, lambda step: step["params"].update(max_token_windw=3)),
]


@pytest.mark.parametrize("name, index, edit", MISSPELT_STEPS, ids=[m[0] for m in MISSPELT_STEPS])
def test_run_with_a_misspelt_param_or_key_exits_2_before_any_document(
    tmp_path, corpus, capsys, name, index, edit
):
    config = copy.deepcopy(CONTEXT_PIPELINE)
    edit(config["steps"][index])
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"step {index}" in err[0]
    assert repr(name) in err[0]
    assert not out.exists()


# (edit of the context pipeline's config, the start of the error it gives)
MALFORMED_VALUES = [
    (lambda c: c["steps"][1].update(params="x"), "step 1: 'params' must be an object, not str"),
    (
        lambda c: c["steps"][1].update(params=[["keep_punct", False]]),
        "step 1: 'params' must be an object, not list",
    ),
    (lambda c: c["steps"][1].update(outputs="s"), "step 1: 'outputs' must be a list, not str"),
    (lambda c: c["steps"][0].update(inputs="doc"), "step 0: 'inputs' must be a list, not str"),
    (lambda c: c["steps"][0].update(op=["to_segment"]), "step 0: 'op' must be a string, not list"),
    (lambda c: c.update(inputs="doc"), "'inputs' must be a list, not str"),
    (
        lambda c: c["steps"][1].update(inputs=[["full_text"]]),
        "step 1: 'inputs' must hold strings",
    ),
]


@pytest.mark.parametrize(
    "edit, message", MALFORMED_VALUES,
    ids=[
        "params-str", "params-pairs", "outputs-str", "inputs-str", "op-list", "file-inputs-str",
        "inputs-nested",
    ],
)
def test_run_with_a_value_of_the_wrong_type_exits_2_before_any_document(
    tmp_path, corpus, capsys, edit, message
):
    config = copy.deepcopy(CONTEXT_PIPELINE)
    edit(config)
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: invalid pipeline config: {message}"]
    assert not out.exists()


# (edit of orange.json, the one error it gives)
MISWIRED = [
    (
        lambda c: c["steps"][4].update(inputs=["entities", "doc"]),
        "emit_brat input 1 takes Document, but 'entities' holds [Entity]; "
        "emit_brat input 2 takes [Annotation], but 'doc' holds Document",
    ),
    (
        lambda c: c["steps"][3].update(inputs=["doc"]),
        "match_regex input 1 takes Segment, but 'doc' holds Document",
    ),
]


@pytest.mark.parametrize("edit, message", MISWIRED, ids=["brat-swapped", "regex-on-doc"])
def test_miswired_step_exits_2_before_any_document(tmp_path, corpus, capsys, edit, message):
    config = json.loads(demo.pipeline_path("orange").read_text(encoding="utf-8"))
    edit(config)
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: invalid pipeline: {message}"]
    assert not out.exists()


def test_pipeline_whose_input_takes_no_document_exits_2(tmp_path, corpus, capsys):
    config = {
        "name": "regex_on_doc",
        "inputs": ["doc"],
        "outputs": ["drugs"],
        "steps": [_step("match_regex", ["doc"], ["drugs"], {"rules": []})],
    }
    pipeline = tmp_path / "pipeline.json"
    pipeline.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: pipeline 'regex_on_doc' must take exactly one input, a Document, not Segment"
    ]
    assert not out.exists()


def test_document_failing_at_run_time_fails_alone(tmp_path, capsys):
    # A cue pattern is compiled on first use, so every document holding an
    # entity fails at the detect_context step while the run goes on.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("Pas d'aspirine ce jour.", encoding="utf-8")
    (corpus / "b.txt").write_text("Prise de paracétamol.", encoding="utf-8")
    spec = json.loads(json.dumps(CONTEXT_PIPELINE))
    spec["steps"][4]["params"]["cues_before"] = ["("]
    pipeline = tmp_path / "bad_cue.json"
    pipeline.write_text(json.dumps(spec), encoding="utf-8")
    code = run_cli(
        "run",
        "--pipeline", pipeline,
        "--input-dir", corpus,
        "--output-dir", tmp_path / "out",
    )
    assert code == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed:")]
    assert len(failed) == 2
    for name, line in zip(["a.txt", "b.txt"], sorted(failed)):
        assert line.startswith(f"failed: {name}: step 4 (detect_context)")


def _run_at(workers, pipeline, corpus, out, *extra):
    return run_cli(
        "run",
        "--pipeline", pipeline,
        "--input-dir", corpus,
        "--output-dir", out,
        "--workers", workers,
        *extra,
    )


def _files(directory):
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(directory.iterdir())}


def _ids_in_order(text):
    """``text`` with each random 32-hex-digit id renamed by its first appearance."""
    seen = {}
    return re.sub(r"\b[0-9a-f]{32}\b", lambda m: f"id{seen.setdefault(m[0], len(seen))}", text)


@pytest.mark.parametrize("fmt", sorted(cli.FORMATS))
def test_two_workers_write_the_files_of_one(tmp_path, corpus, fmt):
    written = []
    pipeline = demo.pipeline_path("drug_ner_dict")
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert _run_at(workers, pipeline, corpus, out, "--output-format", fmt) == 0
        written.append(_files(out))
    if fmt == "json":  # document and annotation ids are drawn afresh in every run
        written = [{name: _ids_in_order(text) for name, text in w.items()} for w in written]
    assert written[0] == written[1]
    assert len(written[0]) == len(list(corpus.glob("*.txt")))


def test_document_failing_in_a_worker_fails_alone_as_inline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("Pas d'aspirine ce jour.", encoding="utf-8")
    (corpus / "b.txt").write_text("Rien à signaler.", encoding="utf-8")
    (corpus / "c.txt").write_text("Prise de paracétamol.", encoding="utf-8")
    spec = json.loads(json.dumps(CONTEXT_PIPELINE))
    spec["steps"][4]["params"]["cues_before"] = ["("]
    pipeline = tmp_path / "bad_cue.json"
    pipeline.write_text(json.dumps(spec), encoding="utf-8")
    errs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert _run_at(workers, pipeline, corpus, out) == 1
        assert sorted(p.name for p in out.iterdir()) == ["b.ann"]
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    failed = [line.split(": ")[:2] for line in errs[0].splitlines()]
    assert failed == [["failed", "a.txt"], ["failed", "c.txt"]]


NESTED_DEID_DICT = {
    "name": "deid_dict_in_test",
    "inputs": ["sentences"],
    "outputs": ["drugs"],
    "steps": CONTEXT_PIPELINE["steps"][2:4],
}


def _outer_pipeline(tmp_path, monkeypatch, nested_params=None):
    """A pipeline file whose step 2 runs NESTED_DEID_DICT, registered with
    as_operation in a copy of the default registry."""
    registry = default_registry()
    monkeypatch.setattr(registry, "_ops", dict(registry._ops))
    name = as_operation(PipelineSpec.from_dict(NESTED_DEID_DICT))
    outer = {
        "name": "outer",
        "inputs": ["doc"],
        "outputs": ["entities"],
        "steps": [
            _step("to_segment", ["doc"], ["full_text"]),
            _step("split_sentences", ["full_text"], ["sentences"]),
            _step(name, ["sentences"], ["drugs"], nested_params),
            _step("emit_brat", ["doc", "drugs"], ["entities"]),
        ],
    }
    pipeline = tmp_path / "outer.json"
    pipeline.write_text(json.dumps(outer), encoding="utf-8")
    return pipeline


def test_sub_pipeline_registered_in_the_run_process_runs_in_workers(tmp_path, corpus, monkeypatch):
    pipeline = _outer_pipeline(tmp_path, monkeypatch)
    written, graphs = [], []
    for workers in (1, 2):
        out, prov = tmp_path / f"out{workers}", tmp_path / f"prov{workers}.json"
        code = _run_at(workers, pipeline, corpus, out, "--prov-level", "full", "--prov-out", prov)
        assert code == 0
        written.append(_files(out))
        graphs.append(parse_prov_json(prov.read_text(encoding="utf-8")))
    assert written[0] == written[1] and any(written[0].values())
    assert graph_signature(graphs[0]) == graph_signature(graphs[1])
    assert graphs[0].sub_graphs


def test_nested_step_with_params_exits_2_before_any_document(tmp_path, corpus, monkeypatch, capsys):
    pipeline = _outer_pipeline(tmp_path, monkeypatch, {"strip_accents": True})
    out = tmp_path / "out"
    assert run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: step 2 (deid_dict_in_test) failed:")
    assert "'strip_accents'" in err[0]
    assert not out.exists()


def test_worker_that_dies_fails_its_documents_without_a_traceback(tmp_path, monkeypatch, capsys):
    registry = default_registry()
    monkeypatch.setattr(registry, "_ops", dict(registry._ops))
    test_pid = os.getpid()

    def segment_or_die_on_n3(params):
        def run(doc):
            if doc.metadata["filename"] == "n3.txt" and os.getpid() != test_pid:
                os._exit(3)
            return full_text_segment(doc)
        return run

    registry.register("segment_or_die_on_n3_in_a_worker", segment_or_die_on_n3)
    spec = json.loads(demo.pipeline_path("drug_ner_dict").read_text(encoding="utf-8"))
    spec["steps"][0]["op"] = "segment_or_die_on_n3_in_a_worker"
    pipeline = tmp_path / "dying.json"
    pipeline.write_text(json.dumps(spec), encoding="utf-8")
    corpus, out, prov = _corpus_of(tmp_path, 6), tmp_path / "out", tmp_path / "prov.json"
    code = _run_at(2, pipeline, corpus, out, "--prov-level", "steps", "--prov-out", prov)
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failed = [line.split(": ") for line in err.splitlines()]
    assert all(f[0] == "failed" and f[2] == "worker process ended abruptly" for f in failed)
    written = [p.stem + ".txt" for p in out.iterdir()]
    assert sorted(written + [f[1] for f in failed]) == [f"n{i}.txt" for i in range(6)]
    assert "n3.txt" not in written
    assert parse_prov_json(prov.read_text(encoding="utf-8"))


def _corpus_of(tmp_path, count):
    corpus = tmp_path / f"corpus{count}"
    corpus.mkdir()
    for i in range(count):
        (corpus / f"n{i}.txt").write_text("Prise d'aspirine.", encoding="utf-8")
    return corpus


def test_one_document_at_four_workers_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    pipeline = demo.pipeline_path("drug_ner_dict")
    assert _run_at(4, pipeline, _corpus_of(tmp_path, 1), tmp_path / "out") == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["n0.ann"]
    with pytest.raises(AssertionError, match="process pool"):
        _run_at(4, pipeline, _corpus_of(tmp_path, 2), tmp_path / "out2")


def test_workers_above_one_without_fork_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    pipeline = demo.pipeline_path("drug_ner_dict")
    assert _run_at(2, pipeline, _corpus_of(tmp_path, 2), tmp_path / "out") == 2
    assert "fork" in _single_error_line(capsys)


class TestConvert:
    def test_brat_json_brat_round_trip(self, tmp_path):
        src = FIXTURES / "good"
        json_dir = tmp_path / "as_json"
        back_dir = tmp_path / "back"
        assert run_cli(
            "convert", "--in-format", "brat", "--out-format", "json",
            "--in", src, "--out", json_dir,
        ) == 0
        assert run_cli(
            "convert", "--in-format", "json", "--out-format", "brat",
            "--in", json_dir, "--out", back_dir,
        ) == 0
        for ann in sorted(src.glob("*.ann")):
            assert (back_dir / ann.name).read_bytes() == ann.read_bytes(), ann.name
            txt = ann.with_suffix(".txt")
            assert (back_dir / txt.name).read_bytes() == txt.read_bytes()

    def test_brat_to_doccano(self, tmp_path, corpus):
        for ann in demo.reference_dir().glob("*.ann"):
            shutil.copy(ann, corpus / ann.name)
        out = tmp_path / "corpus.jsonl"
        assert run_cli(
            "convert", "--in-format", "brat", "--out-format", "doccano",
            "--in", corpus, "--out", out,
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(list(corpus.glob("*.txt")))
        first = json.loads(lines[0])
        assert first["text"] and first["label"]

    def test_unknown_format_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "convert", "--in-format", "xmi", "--out-format", "brat",
            "--in", tmp_path, "--out", tmp_path / "out",
        )
        assert code == 2


class TestEval:
    def _write_pair(self, root, name, pred_line, ref_line, text):
        for sub, line in (("pred", pred_line), ("ref", ref_line)):
            d = root / sub
            d.mkdir(exist_ok=True)
            (d / f"{name}.txt").write_text(text, encoding="utf-8")
            (d / f"{name}.ann").write_text(line, encoding="utf-8")

    def test_eval_prints_table(self, tmp_path, capsys):
        self._write_pair(
            tmp_path, "doc",
            "T1\tDrug 0 8\taspirine\n",
            "T1\tDrug 0 8\taspirine\n",
            "aspirine 500",
        )
        code = run_cli(
            "eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "micro" in out and "1.000" in out

    def test_eval_json_out(self, tmp_path, capsys):
        self._write_pair(
            tmp_path, "doc",
            "T1\tDrug 0 8\taspirine\n",
            "T1\tDrug 0 8\taspirine\n",
            "aspirine 500",
        )
        json_out = tmp_path / "metrics.json"
        code = run_cli(
            "eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref",
            "--json-out", json_out,
        )
        assert code == 0
        assert json.loads(json_out.read_text(encoding="utf-8"))["micro"]["tp"] == 1

    @pytest.mark.parametrize("threshold", ["0", "2"])
    def test_threshold_outside_0_1_exits_2(self, tmp_path, capsys, threshold):
        self._write_pair(
            tmp_path, "doc",
            "T1\tDrug 0 8\taspirine\n",
            "T1\tDrug 0 8\taspirine\n",
            "aspirine 500",
        )
        code = run_cli(
            "eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref",
            "--mode", "overlap", "--threshold", threshold,
        )
        assert code == 2
        _single_error_line(capsys)

    def test_missing_counterpart_exits_2(self, tmp_path, capsys):
        self._write_pair(
            tmp_path, "doc",
            "T1\tDrug 0 8\taspirine\n",
            "T1\tDrug 0 8\taspirine\n",
            "aspirine 500",
        )
        (tmp_path / "ref" / "extra.ann").write_text("", encoding="utf-8")
        code = run_cli(
            "eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref"
        )
        assert code == 2

    def test_compare_with(self, tmp_path, capsys, monkeypatch):
        self._write_pair(
            tmp_path, "doc",
            "T1\tDrug 0 8\taspirine\n",
            "T1\tDrug 0 8\taspirine\n",
            "aspirine 500",
        )
        other = tmp_path / "other"
        other.mkdir()
        (other / "doc.txt").write_text("aspirine 500", encoding="utf-8")
        (other / "doc.ann").write_text("T1\tDrug 9 12\t500\n", encoding="utf-8")
        loaded = []
        load = cli._load_ann_entities
        monkeypatch.setattr(cli, "_load_ann_entities", lambda d: loaded.append(d) or load(d))
        code = run_cli(
            "eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref",
            "--compare-with", other,
        )
        assert code == 0
        assert "winner: pred" in capsys.readouterr().out
        assert loaded == [tmp_path / "ref", tmp_path / "pred", other]  # the reference once


class TestProv:
    def test_export_dot(self, tmp_path, corpus, capsys):
        prov = tmp_path / "prov.json"
        run_cli(
            "run",
            "--pipeline", demo.pipeline_path("drug_ner_dict"),
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
            "--prov-level", "steps",
            "--prov-out", prov,
        )
        capsys.readouterr()
        dot_out = tmp_path / "prov.dot"
        code = run_cli(
            "prov", "export", "--in", prov, "--format", "dot", "--out", dot_out
        )
        assert code == 0
        assert dot_out.read_text(encoding="utf-8").startswith("digraph provenance {")

    def test_prov_json_reexport_round_trips(self, tmp_path, corpus, capsys):
        prov = tmp_path / "prov.json"
        run_cli(
            "run",
            "--pipeline", demo.pipeline_path("drug_ner_dict"),
            "--input-dir", corpus,
            "--output-dir", tmp_path / "out",
            "--prov-level", "steps",
            "--prov-out", prov,
        )
        capsys.readouterr()
        code = run_cli("prov", "export", "--in", prov, "--format", "prov-json")
        assert code == 0
        out = capsys.readouterr().out
        original = json.loads(prov.read_text(encoding="utf-8"))
        assert set(json.loads(out)["entity"]) == set(original["entity"])

    @pytest.mark.parametrize("level, docs", [("none", 24), ("full", 0)])
    def test_an_empty_trace_is_written_and_re_exported_unchanged(
        self, tmp_path, corpus, capsys, level, docs
    ):
        # At level none, or over no document, --prov-out still writes a trace: an empty one.
        for txt in sorted(corpus.glob("*.txt"))[docs:]:
            txt.unlink()
        prov = tmp_path / "prov.json"
        code = _run_at(1, demo.pipeline_path("drug_ner_dict"), corpus, tmp_path / "out",
                       "--prov-level", level, "--prov-out", prov)
        assert code == 0 and len(list((tmp_path / "out").glob("*.ann"))) == docs
        sections = ("entity", "activity", "used", "wasGeneratedBy", "wasDerivedFrom", "wasInformedBy")
        empty = json.dumps(dict.fromkeys(sections, {})) + "\n"
        assert prov.read_text(encoding="utf-8") == empty
        capsys.readouterr()
        assert run_cli("prov", "export", "--in", prov, "--format", "prov-json") == 0
        assert capsys.readouterr().out == empty

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run_cli("prov", "export", "--in", tmp_path / "nope.json") == 2


def _single_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_missing_input_dir_exits_2(tmp_path, capsys):
    code = run_cli(
        "run",
        "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", tmp_path / "missing",
        "--output-dir", tmp_path / "out",
    )
    assert code == 2
    _single_error_line(capsys)


@pytest.mark.parametrize("where", ["missing_dir/prov.json", "a_directory"])
def test_unwritable_prov_out_exits_2_before_any_document(tmp_path, corpus, capsys, where):
    (tmp_path / "a_directory").mkdir()
    code = run_cli(
        "run",
        "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", corpus,
        "--output-dir", tmp_path / "out",
        "--prov-level", "full",
        "--prov-out", tmp_path / where,
    )
    assert code == 2
    _single_error_line(capsys)
    assert not list(tmp_path.rglob("*.ann"))


MALFORMED_PROV = {
    "relation without prov:activity": {"used": {"u1": {"prov:entity": "e"}}},
    "top-level array": [],
    "members not an object": {"activity": {"a": {"prov:label": "x", "members": 5}}},
}


@pytest.mark.parametrize("doc", MALFORMED_PROV.values(), ids=MALFORMED_PROV.keys())
def test_prov_export_of_malformed_prov_json_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "prov.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("prov", "export", "--in", path) == 2
    _single_error_line(capsys)


@pytest.mark.parametrize("fmt", ["brat", "json", "doccano"])
def test_convert_of_a_missing_input_exits_2(tmp_path, capsys, fmt):
    code = run_cli(
        "convert", "--in-format", fmt, "--out-format", "brat",
        "--in", tmp_path / "missing", "--out", tmp_path / "out",
    )
    assert code == 2
    _single_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_convert_of_a_malformed_doccano_line_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"text": "ab", "label": []}\n\n{"text": "ab", "label": [[0, 2, 7]]}\n')
    code = run_cli(
        "convert", "--in-format", "doccano", "--out-format", "json",
        "--in", path, "--out", tmp_path / "out",
    )
    assert code == 2
    _single_error_line(capsys)


@pytest.mark.parametrize("missing", ["pred", "ref", "both"])
def test_eval_of_a_missing_directory_exits_2(tmp_path, capsys, missing):
    for side in ("pred", "ref"):
        if missing not in (side, "both"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "doc.ann").write_text("", encoding="utf-8")
    code = run_cli("eval", "--pred-dir", tmp_path / "pred", "--ref-dir", tmp_path / "ref")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path / ("ref" if missing == "ref" else "pred")) in err


def _counted_ids(fn, *args):
    """Call ``fn`` with provenance ids and uuid.uuid4 drawn from one fresh counter."""
    counter = itertools.count()

    def count():
        return f"act{next(counter)}"

    with mock.patch("uuid.uuid4", count), mock.patch("annopipe.provenance.new_id", count):
        return fn(*args)


@pytest.mark.parametrize("workers", [1, 4])
def test_prov_out_is_export_prov_of_the_merged_trace(tmp_path, corpus, monkeypatch, workers):
    merged = []

    def build(tracer):
        merged.append(tracer)
        return _counted_ids(build_graph, tracer)

    monkeypatch.setattr(provenance, "build_graph", build)
    prov = tmp_path / "prov.json"
    code = run_cli(
        "run",
        "--pipeline", demo.pipeline_path("drug_ner_dict"),
        "--input-dir", corpus,
        "--output-dir", tmp_path / "out",
        "--prov-level", "full",
        "--prov-out", prov,
        "--workers", workers,
    )
    assert code == 0 and len(merged) == 1
    expected = export_prov(_counted_ids(build_graph, merged[0]), "prov-json")
    assert prov.read_text(encoding="utf-8") == expected


def _non_utf8(path):
    """A file at ``path`` whose fourth byte is not UTF-8."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"abc\xff\n")
    return path


def _eval_of_a_non_utf8_ann(tmp):
    (tmp / "pred").mkdir()
    (tmp / "pred" / "doc.ann").write_text("", encoding="utf-8")
    bad = _non_utf8(tmp / "ref" / "doc.ann")
    return ["eval", "--pred-dir", tmp / "pred", "--ref-dir", tmp / "ref"], bad


def _convert_of_a_non_utf8_brat_ann(tmp):
    bad = _non_utf8(tmp / "in" / "doc.ann")
    (tmp / "in" / "doc.txt").write_text("abc", encoding="utf-8")
    return ["convert", "--in-format", "brat", "--out-format", "json",
            "--in", tmp / "in", "--out", tmp / "out"], bad


def _convert_of_a_non_utf8_json(tmp):
    bad = _non_utf8(tmp / "in" / "doc.json")
    return ["convert", "--in-format", "json", "--out-format", "brat",
            "--in", tmp / "in", "--out", tmp / "out"], bad


def _convert_of_a_dangling_relation_json(tmp):
    (tmp / "in").mkdir()
    bad = tmp / "in" / "doc.json"
    bad.write_text(json.dumps({"text": "abc", "annotations": [
        {"id": "a", "label": "Drug", "kind": "entity", "text": "abc", "spans": [{"s": 0, "e": 3}]},
        {"id": "r", "label": "rel", "kind": "relation", "source_id": "a", "target_id": "zz"},
    ]}), encoding="utf-8")
    return ["convert", "--in-format", "json", "--out-format", "brat",
            "--in", bad.parent, "--out", tmp / "out"], bad


def _convert_of_a_non_utf8_doccano_file(tmp):
    bad = _non_utf8(tmp / "in.jsonl")
    return ["convert", "--in-format", "doccano", "--out-format", "json",
            "--in", bad, "--out", tmp / "out"], bad


def _run_of_a_non_utf8_pipeline(tmp):
    bad = _non_utf8(tmp / "pipeline.json")
    return ["run", "--pipeline", bad, "--input-dir", demo.corpus_dir(),
            "--output-dir", tmp / "out"], bad


def _eval_json_out_into_a_missing_directory(tmp):
    for side in ("pred", "ref"):
        (tmp / side).mkdir()
        (tmp / side / "doc.ann").write_text("", encoding="utf-8")
    json_out = tmp / "missing" / "metrics.json"
    return ["eval", "--pred-dir", tmp / "pred", "--ref-dir", tmp / "ref",
            "--json-out", json_out], json_out


def _brat_pair(tmp, ann_line):
    """in/doc.txt holding "abc" and in/doc.ann holding ``ann_line``."""
    (tmp / "in").mkdir()
    (tmp / "in" / "doc.txt").write_text("abc", encoding="utf-8")
    bad = tmp / "in" / "doc.ann"
    bad.write_text(ann_line, encoding="utf-8")
    return bad


def _eval_of_a_surface_mismatch(tmp):
    bad = _brat_pair(tmp, "T1\tDrug 0 3\tabd\n")
    return ["eval", "--pred-dir", bad.parent, "--ref-dir", bad.parent], bad


def _convert_of_a_surface_mismatch(tmp):
    bad = _brat_pair(tmp, "T1\tDrug 0 3\tabd\n")
    return ["convert", "--in-format", "brat", "--out-format", "json",
            "--in", bad.parent, "--out", tmp / "out"], bad


def _convert_of_a_malformed_ann_line(tmp):
    bad = _brat_pair(tmp, "T1\tDrug zero 3\tabc\n")
    return ["convert", "--in-format", "brat", "--out-format", "json",
            "--in", bad.parent, "--out", tmp / "out"], bad


def _prov_export_of_a_truncated_file(tmp):
    bad = tmp / "prov.json"
    bad.write_text('{"entity": {', encoding="utf-8")
    return ["prov", "export", "--in", bad], bad


def _run_with_a_non_utf8_dictionary(tmp):
    return _run_with_a_dictionary(_non_utf8(tmp / "dict.csv"))


def _run_with_a_dictionary_line_without_label(tmp):
    bad = tmp / "dict.csv"
    bad.write_text("aspirine,Drug\nparacétamol\n", encoding="utf-8")
    return _run_with_a_dictionary(bad)


def _run_with_a_dictionary_holding(content):
    def case(tmp):
        bad = tmp / "dict.csv"
        bad.write_text(content, encoding="utf-8")
        return _run_with_a_dictionary(bad)

    return case


def _run_with_a_dictionary(bad):
    tmp = bad.parent
    pipeline = tmp / "pipeline.json"
    pipeline.write_text(json.dumps({
        "name": "dict", "inputs": ["doc"], "outputs": ["entities"],
        "steps": [
            {"op": "to_segment", "params": {}, "inputs": ["doc"], "outputs": ["seg"]},
            {"op": "match_dictionary", "params": {"path": str(bad)},
             "inputs": ["seg"], "outputs": ["entities"]},
        ],
    }), encoding="utf-8")
    return ["run", "--pipeline", pipeline, "--input-dir", demo.corpus_dir(),
            "--output-dir", tmp / "out"], bad


BOUNDARY_CASES = {
    "eval non-UTF-8 .ann": _eval_of_a_non_utf8_ann,
    "convert brat non-UTF-8 .ann": _convert_of_a_non_utf8_brat_ann,
    "convert json non-UTF-8 .json": _convert_of_a_non_utf8_json,
    "convert json relation naming no annotation": _convert_of_a_dangling_relation_json,
    "convert doccano non-UTF-8 file": _convert_of_a_non_utf8_doccano_file,
    "run non-UTF-8 pipeline": _run_of_a_non_utf8_pipeline,
    "eval json-out into a missing directory": _eval_json_out_into_a_missing_directory,
    "eval surface mismatch .ann": _eval_of_a_surface_mismatch,
    "convert brat surface mismatch .ann": _convert_of_a_surface_mismatch,
    "convert brat malformed .ann line": _convert_of_a_malformed_ann_line,
    "prov export truncated PROV-JSON": _prov_export_of_a_truncated_file,
    "run non-UTF-8 dictionary": _run_with_a_non_utf8_dictionary,
    "run dictionary line without a label": _run_with_a_dictionary_line_without_label,
    "run dictionary line with an empty label": _run_with_a_dictionary_holding("a,Drug\nb,\n"),
    "run dictionary line with an empty term": _run_with_a_dictionary_holding("a,Drug\n,Drug\n"),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_bad_file_exits_2_with_one_error_line_naming_it(tmp_path, capsys, case):
    argv, named = case(tmp_path)
    assert run_cli(*argv) == 2
    assert str(named) in _single_error_line(capsys)


@pytest.mark.parametrize(
    "fmt, name, content, error",
    [
        ("brat", "doc.ann", "T1\tDrug 0 3\tabd\n", SurfaceMismatchError),
        ("brat", "doc.ann", "T1\tDrug zero 3\tabc\n", MalformedLineError),
        ("json", "doc.json", "{", MalformedJsonError),
    ],
)
def test_load_corpus_keeps_the_parse_error_type_and_names_the_file(
    tmp_path, fmt, name, content, error
):
    (tmp_path / "doc.txt").write_text("abc", encoding="utf-8")
    bad = tmp_path / name
    bad.write_text(content, encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(bad))}: "):
        cli._load_corpus(fmt, tmp_path)


@pytest.mark.parametrize("flag", ["--in-format", "--out-format"])
def test_convert_rejects_an_unknown_format_before_writing(tmp_path, capsys, flag):
    (tmp_path / "in").mkdir()
    formats = {"--in-format": "json", "--out-format": "json", flag: "xmi"}
    code = run_cli(
        "convert", *itertools.chain(*formats.items()),
        "--in", tmp_path / "in", "--out", tmp_path / "out",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{flag}: invalid choice: 'xmi'" in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def brat_corpora(tmp_path_factory):
    """The brat fixtures and the demo corpus with its reference, each loaded once."""
    demo_dir = tmp_path_factory.mktemp("demo")
    for src in [*demo.corpus_dir().glob("*.txt"), *demo.reference_dir().glob("*.ann")]:
        shutil.copy(src, demo_dir / src.name)
    return [cli._load_corpus("brat", path) for path in (FIXTURES / "good", demo_dir)]


def _discontinuous(pairs):
    """Stems of the documents holding an entity with more than one raw range."""
    return [stem for stem, doc in pairs if any(
        isinstance(a, Entity) and len(a.normalized_spans()) > 1 for a in doc.annotations
    )]


@pytest.mark.parametrize("fmt", ["brat", "json", "doccano"])
def test_write_corpus_matches_the_frozen_writer(tmp_path, brat_corpora, fmt):
    # The frozen writer kept the first range of a discontinuous entity in
    # doccano; the writer refuses the corpus, naming the first such document.
    assert _discontinuous(brat_corpora[0]) and not _discontinuous(brat_corpora[1])
    for index, pairs in enumerate(brat_corpora):
        assert any(doc.annotations for _, doc in pairs)
        new, old = tmp_path / "new" / str(index), tmp_path / "old" / str(index)
        if fmt == "doccano":
            new, old = new / "corpus.jsonl", old / "corpus.jsonl"
            if _discontinuous(pairs):
                with pytest.raises(ConfigError, match=f"^{_discontinuous(pairs)[0]}: annotation "):
                    cli._write_corpus(fmt, new, pairs)
                assert not (tmp_path / "new").exists()
                continue
        cli._write_corpus(fmt, new, pairs)
        frozen_write_corpus(fmt, old, pairs)
    written = {p.relative_to(tmp_path / "old"): p.read_bytes()
               for p in (tmp_path / "old").rglob("*") if p.is_file()}
    assert written == {p.relative_to(tmp_path / "new"): p.read_bytes()
                       for p in (tmp_path / "new").rglob("*") if p.is_file()}


def test_convert_that_cannot_emit_a_document_writes_nothing(tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    # The second document's entity is a pure insertion: no Brat offsets.
    for stem, span in (("a", Span(0, 3)), ("b", ModifiedSpan(3, ()))):
        doc = create_document("abc")
        doc.attach(Entity(label="Drug", text="abc", spans=[span]))
        (src / f"{stem}.json").write_text(serialize_document_json(doc), encoding="utf-8")
    code = run_cli(
        "convert", "--in-format", "json", "--out-format", "brat",
        "--in", src, "--out", tmp_path / "out",
    )
    assert code == 2
    _single_error_line(capsys)
    assert not (tmp_path / "out").exists()


# A date in two raw ranges: Brat holds it, a doccano label holds one range.
PROBE_TEXT, PROBE_ANN = "Vu le 12 , mars 1980.", "T1\tdate 6 8;11 20\t12 mars 1980\n"


def _probe_corpus(tmp_path, with_ann):
    src = tmp_path / "in"
    src.mkdir()
    (src / "a.txt").write_text(PROBE_TEXT, encoding="utf-8")
    if with_ann:
        (src / "a.ann").write_text(PROBE_ANN, encoding="utf-8")
    (src / "b.txt").write_text("Prise d'aspirine le 2 mars.", encoding="utf-8")
    return src


def test_convert_to_doccano_refuses_a_discontinuous_entity_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    code = run_cli(
        "convert", "--in-format", "brat", "--out-format", "doccano",
        "--in", _probe_corpus(tmp_path, True), "--out", out,
    )
    assert code == 2
    line = _single_error_line(capsys)
    assert line.startswith("error: a: annotation ") and "(date) projects to 2 original spans" in line
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_fails_only_the_document_its_format_cannot_hold(tmp_path, monkeypatch, capsys, workers):
    registry = default_registry()
    monkeypatch.setattr(registry, "_ops", dict(registry._ops))

    def probe_date(params):  # the probe's date, in the document that holds it
        return lambda doc: parse_brat(PROBE_ANN, doc.text) if doc.text == PROBE_TEXT else []

    registry.register("probe_date", probe_date, (Document,), ([Entity],))
    spec = {"name": "probe", "inputs": ["doc"], "outputs": ["dates"],
            "steps": [_step("probe_date", ["doc"], ["dates"])]}
    pipeline = tmp_path / "probe.json"
    pipeline.write_text(json.dumps(spec), encoding="utf-8")
    corpus = _probe_corpus(tmp_path, False)
    for fmt, code, written in (("brat", 0, ["a.ann", "b.ann"]), ("doccano", 1, ["b.jsonl"])):
        out = tmp_path / fmt
        assert _run_at(workers, pipeline, corpus, out, "--output-format", fmt) == code
        assert sorted(p.name for p in out.iterdir()) == written
    assert (tmp_path / "brat" / "a.ann").read_text(encoding="utf-8") == PROBE_ANN
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("failed: a.txt: annotation ")


def test_convert_to_brat_refuses_a_relation_to_a_plain_annotation(tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    doc = create_document("abc")
    drug, note = Entity(label="Drug", text="abc", spans=[Span(0, 3)]), Annotation(label="note")
    rel = Relation(label="noted", source_id=drug.id, target_id=note.id)
    doc.attach(drug).attach(note).attach(rel)
    (src / "doc.json").write_text(serialize_document_json(doc), encoding="utf-8")
    code = run_cli(
        "convert", "--in-format", "json", "--out-format", "brat",
        "--in", src, "--out", tmp_path / "out",
    )
    assert code == 2
    line = _single_error_line(capsys)
    assert line == f"error: doc: annotation {rel.id}: relation argument {note.id} is not written"
    assert not (tmp_path / "out").exists()


def test_convert_and_eval_read_a_crlf_brat_pair(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    (src / "doc.txt").write_bytes(b"aspirine 500\r\nparacetamol\r\n")
    (src / "doc.ann").write_bytes(
        b"T1\tDrug 0 8\taspirine\r\nT2\tDrug 14 25\tparacetamol\r\nA1\tNeg T1\r\n"
    )
    assert run_cli(
        "convert", "--in-format", "brat", "--out-format", "brat",
        "--in", src, "--out", tmp_path / "out",
    ) == 0
    assert (tmp_path / "out" / "doc.ann").read_bytes() == (
        b"T1\tDrug 0 8\taspirine\nT2\tDrug 14 25\tparacetamol\nA1\tNeg T1\n"
    )
    # The offsets count the .txt's carriage returns.
    assert run_cli("eval", "--pred-dir", src, "--ref-dir", src) == 0


def test_convert_to_brat_of_a_label_with_a_space_writes_nothing(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text('{"text": "aspirine", "label": [[0, 8, "Drug name"]]}\n', encoding="utf-8")
    code = run_cli(
        "convert", "--in-format", "doccano", "--out-format", "brat",
        "--in", src, "--out", tmp_path / "out",
    )
    assert code == 2
    assert r"'T1\tDrug name 0 8\taspirine' is not one Brat line" in _single_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_eval_of_an_ann_whose_surface_length_is_not_its_fragments(tmp_path, capsys):
    # No .txt beside the .ann, so only the fragments can check the surface.
    bad = tmp_path / "pred" / "a.ann"
    bad.parent.mkdir()
    bad.write_text("T1\tDrug 0 5\tab\n", encoding="utf-8")
    assert run_cli("eval", "--pred-dir", bad.parent, "--ref-dir", bad.parent) == 2
    assert _single_error_line(capsys).startswith(f"error: {bad}: line 1: ")


def test_run_fails_only_the_document_whose_brat_label_holds_a_space(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("Prise d'aspirine.", encoding="utf-8")
    (corpus / "b.txt").write_text("Rien.", encoding="utf-8")
    pipeline = tmp_path / "spaced_label.json"
    pipeline.write_text(json.dumps({
        "name": "spaced_label", "inputs": ["doc"], "outputs": ["entities"],
        "steps": [
            {"op": "to_segment", "params": {}, "inputs": ["doc"], "outputs": ["seg"]},
            {"op": "match_regex",
             "params": {"rules": [{"pattern": "aspirine", "label": "Drug name"}]},
             "inputs": ["seg"], "outputs": ["entities"]},
        ],
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("run", "--pipeline", pipeline, "--input-dir", corpus, "--output-dir", out) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed:")]
    assert len(failed) == 1 and failed[0].startswith("failed: a.txt: annotation ")
    assert "Drug name" in failed[0] and failed[0].endswith("is not one Brat line")
    assert sorted(p.name for p in out.glob("*.ann")) == ["b.ann"]


def test_convert_of_a_doccano_label_brat_cannot_hold_names_the_document(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    src.write_text('{"text": "aspirine", "label": [[0, 8, "Drug name"]]}\n', encoding="utf-8")
    code = run_cli(
        "convert", "--in-format", "doccano", "--out-format", "brat",
        "--in", src, "--out", tmp_path / "out",
    )
    assert code == 2
    assert _single_error_line(capsys).startswith("error: doc_0001: annotation ")
    assert not (tmp_path / "out").exists()


_ENTITY = {"id": "a", "label": "Drug", "kind": "entity", "text": "abc", "spans": [{"s": 0, "e": 3}]}


@pytest.mark.parametrize(
    "annotations, where",
    [
        ([dict(_ENTITY, attributes=[{"id": "b", "label": "v", "value": {"k": 1}}])], 0),
        ([dict(_ENTITY, text="xyz")], 0),
        ([dict(_ENTITY, text="abcdefghi", spans=[{"s": 0, "e": 9}])], 0),
        ([_ENTITY, _ENTITY], 1),
    ],
    ids=["attribute value an object", "text unlike the document", "span past the end", "repeated id"],
)
def test_convert_of_a_malformed_native_json_document_names_the_file(
    tmp_path, capsys, annotations, where
):
    bad = tmp_path / "in" / "doc.json"
    bad.parent.mkdir()
    bad.write_text(json.dumps({"text": "abc def", "annotations": annotations}), encoding="utf-8")
    code = run_cli(
        "convert", "--in-format", "json", "--out-format", "brat",
        "--in", bad.parent, "--out", tmp_path / "out",
    )
    assert code == 2
    assert _single_error_line(capsys).startswith(f"error: {bad}: annotation {where}: ")
    assert not (tmp_path / "out").exists()
