import concurrent.futures
import itertools
import json
import multiprocessing
import os
import re
import shutil
from pathlib import Path
from unittest import mock

import pytest

from annopipe import cli, demo, ops
from annopipe.cli import main
from annopipe.core import Entity, create_document, full_text_segment
from annopipe.exceptions import MalformedJsonError, MalformedLineError, SurfaceMismatchError
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

    monkeypatch.setattr(ops, "load_dictionary", counting_load)
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


@pytest.mark.parametrize("fmt", sorted(cli.OUTPUT_EXTENSIONS))
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


def test_sub_pipeline_registered_in_the_run_process_runs_in_workers(tmp_path, corpus, monkeypatch):
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
            _step(name, ["sentences"], ["drugs"]),
            _step("emit_brat", ["doc", "drugs"], ["entities"]),
        ],
    }
    pipeline = tmp_path / "outer.json"
    pipeline.write_text(json.dumps(outer), encoding="utf-8")
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

    def test_brat_to_doccano(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert run_cli(
            "convert", "--in-format", "brat", "--out-format", "doccano",
            "--in", FIXTURES / "good", "--out", out,
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30
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
    """Call ``fn`` with uuid.uuid4 drawn from a fresh counter."""
    counter = itertools.count()
    with mock.patch("uuid.uuid4", lambda: f"act{next(counter)}"):
        return fn(*args)


@pytest.mark.parametrize("workers", [1, 4])
def test_prov_out_is_export_prov_of_the_merged_trace(tmp_path, corpus, monkeypatch, workers):
    merged = []

    def build(tracer):
        merged.append(tracer)
        return _counted_ids(build_graph, tracer)

    monkeypatch.setattr(cli, "build_graph", build)
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


@pytest.mark.parametrize("fmt", ["brat", "json", "doccano"])
def test_write_corpus_matches_the_frozen_writer(tmp_path, brat_corpora, fmt):
    for index, pairs in enumerate(brat_corpora):
        assert any(doc.annotations for _, doc in pairs)
        new, old = tmp_path / "new" / str(index), tmp_path / "old" / str(index)
        if fmt == "doccano":
            new, old = new / "corpus.jsonl", old / "corpus.jsonl"
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
