"""Command-line front end: run pipelines, convert formats, evaluate, export provenance.

Exit codes: 0 success, 1 partial failure (some documents failed), 2 config
or usage error. ``main`` is the one error boundary: an OSError or
AnnopipeError from any command (a bad input, an unwritable output) becomes one
``error:`` line and exit 2. Input files are read through ``read_utf8``.

Each command imports the modules it runs when it starts, so parsing the
command line loads only argparse.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .exceptions import AnnopipeError, ConfigError, MissingCounterpartError

if TYPE_CHECKING:
    from .core import Annotation, Document, Entity
    from .evaluation import MatchSpec
    from .pipeline import Plan


def _load_pipeline(path: str) -> Plan:
    """Read a pipeline config taking one document, and compile it."""
    from .core import Document
    from .io.textdir import read_utf8
    from .pipeline import PipelineSpec, compile_pipeline

    try:
        obj = json.loads(read_utf8(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read pipeline {path}: {exc}") from exc
    plan = compile_pipeline(PipelineSpec.from_dict(obj))
    plan.require_input(Document)
    return plan


def _collect_annotations(outputs: dict) -> tuple[list[Annotation], list[str]]:
    from .core import Annotation

    items = [i for v in outputs.values() for i in (v if isinstance(v, list) else [v])]
    return [i for i in items if isinstance(i, Annotation)], [i for i in items if isinstance(i, str)]


# (plan, input key, emitter, level) of the run, the level None when the run
# traces nothing; forked workers inherit it.
_RUN = None


def _process(doc: Document):
    """``(True, payload, tracer)`` of one document under ``_RUN``, the tracer None
    when the run traces nothing, or ``(False, message, None)``: a message crosses
    back from a worker, as some AnnopipeErrors do not unpickle."""
    from .pipeline import run_pipeline

    plan, input_key, emit, level = _RUN
    try:
        tracer = None
        if level is not None:  # cmd_run has loaded provenance
            from .provenance import Tracer

            tracer = Tracer(level)
        annotations, emitted = _collect_annotations(run_pipeline(plan, {input_key: doc}, tracer))
        return True, emit(doc, annotations, emitted), tracer
    except Exception as exc:
        return False, str(exc), None


def cmd_run(args) -> int:
    global _RUN
    # What _process runs is imported before any worker forks, so that no
    # worker compiles a module: the plan's modules by _load_pipeline, the
    # writer by writer() and, for a run that writes a trace, provenance here.
    from .io.textdir import load_text_documents

    plan = _load_pipeline(args.pipeline)
    # A trace is recorded only to be written: without --prov-out, none, and
    # provenance is not loaded. At level none the trace written is empty.
    merged = level = None
    if args.prov_out:
        from .provenance import Tracer, VerbosityLevel, _write_prov_json, build_graph

        merged = Tracer(VerbosityLevel.parse(args.prov_level))
        level = None if merged.level == VerbosityLevel.NONE else merged.level
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    docs = load_text_documents(args.input_dir)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Opened before any document runs, so an unwritable path fails the
    # run up front rather than after every output is written.
    prov_out = open(args.prov_out, "w", encoding="utf-8") if args.prov_out else None

    extension, _, _, writer = FORMATS[args.output_format]
    _RUN = (plan, plan.spec.pipeline_inputs[0], writer(), level)
    workers = min(args.workers, len(docs))
    failures = []
    names = [doc.metadata.get("filename", doc.id) for doc in docs]
    with prov_out or contextlib.nullcontext(), contextlib.ExitStack() as stack:
        broken = ()  # what the results raise when a worker dies; nothing inline
        if workers <= 1:
            results = map(_process, docs)
        else:  # imported here, so a run that forks nothing does not pay for them
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool as broken
            if "fork" not in multiprocessing.get_all_start_methods():
                raise ConfigError("--workers above 1 needs fork, which this platform lacks")
            fork = multiprocessing.get_context("fork")
            pool = stack.enter_context(ProcessPoolExecutor(workers, mp_context=fork))
            results = pool.map(_process, docs, chunksize=max(1, len(docs) // (4 * workers)))
        done = 0
        try:
            for name, (ok, text, tracer) in zip(names, results):
                done += 1
                if not ok:
                    failures.append((name, text))
                    continue
                (out_dir / f"{Path(name).stem}{extension}").write_text(text, encoding="utf-8")
                if tracer is not None:
                    merged.merge(tracer)
        except broken:
            failures += [(name, "worker process ended abruptly") for name in names[done:]]
        if prov_out:
            _write_prov_json(build_graph(merged), prov_out.write)
            prov_out.write("\n")

    for name, message in failures:
        print(f"failed: {name}: {message}", file=sys.stderr)
    return 1 if failures else 0


def _directory(path: str) -> Path:
    """``path`` as a directory; ConfigError when there is none there."""
    path = Path(path)
    if not path.is_dir():
        raise ConfigError(f"no such directory: {path}")
    return path


def _named(name, call, *args):
    """``call(*args)``; an annopipe error it raises keeps its type, and its
    message gains ``name`` in front."""
    try:
        return call(*args)
    except AnnopipeError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def _parse(path, parse, *args):
    """``parse`` of the UTF-8 text at ``path``, its errors naming the file."""
    from .io.textdir import read_utf8

    return _named(path, parse, read_utf8(path), *args)


def _read_brat(path: str) -> list[tuple[str, Document]]:
    from .io.brat import parse_brat
    from .io.textdir import load_text_documents

    pairs = []
    for txt in sorted(_directory(path).glob("*.txt")):
        doc = load_text_documents(txt)[0]
        ann_file = txt.with_suffix(".ann")
        for ann in _parse(ann_file, parse_brat, doc.text) if ann_file.exists() else ():
            doc.attach(ann)
        pairs.append((txt.stem, doc))
    return pairs


def _read_doccano(path: str) -> list[tuple[str, Document]]:
    from .io.doccano import parse_doccano_jsonl
    from .io.textdir import read_utf8

    lines = [(n, line) for n, line in enumerate(read_utf8(path).splitlines(), 1) if line.strip()]
    return [
        (f"doc_{index:04d}", _named(f"{path}, line {n}", parse_doccano_jsonl, line)[0])
        for index, (n, line) in enumerate(lines, 1)
    ]


def _read_json(path: str) -> list[tuple[str, Document]]:
    from .io.docjson import parse_document_json

    files = sorted(_directory(path).glob("*.json"))
    return [(file.stem, _parse(file, parse_document_json)) for file in files]


def _brat_writer():
    from .io.brat import emit_brat

    return lambda doc, annotations, emitted: emitted[0] if emitted else emit_brat(doc, annotations)


def _doccano_writer():
    from .io.doccano import emit_doccano_jsonl

    return lambda doc, annotations, emitted: emit_doccano_jsonl(doc, annotations) + "\n"


def _json_writer():
    from .io.docjson import serialize_document_json

    def emit(doc, annotations, emitted):
        for ann in annotations:
            if doc.get_annotation(ann.id) is None:
                doc.attach(ann)
        return serialize_document_json(doc)

    return emit


# Each format: (extension, layout, read, writer). In convert, a corpus is a file per
# document in a directory ("files"), the same with each text in a .txt beside
# ("standoff"), or one JSONL file, a line per document ("lines"). read(path) gives
# its (stem, document) pairs; writer() gives emit(doc, annotations, emitted), one
# document's payload, emitted holding a pipeline's Brat texts. Each imports its module.
FORMATS = {
    "brat": (".ann", "standoff", _read_brat, _brat_writer),
    "doccano": (".jsonl", "lines", _read_doccano, _doccano_writer),
    "json": (".json", "files", _read_json, _json_writer),
}


def _load_corpus(fmt: str, path: str) -> list[tuple[str, Document]]:
    _, _, read, _ = FORMATS[fmt]
    return read(path)


def _write_corpus(fmt: str, path: str, pairs: list[tuple[str, Document]]) -> None:
    extension, layout, _, writer = FORMATS[fmt]
    # Every payload is built before the first write: a refused document leaves nothing written.
    emit = writer()
    payloads = [(stem, doc, _named(stem, emit, doc, doc.annotations, [])) for stem, doc in pairs]
    path = Path(path)
    if layout == "lines":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(payload for _, _, payload in payloads), encoding="utf-8")
        return
    path.mkdir(parents=True, exist_ok=True)
    for stem, doc, payload in payloads:
        if layout == "standoff":
            (path / f"{stem}.txt").write_text(doc.text, encoding="utf-8")
        (path / f"{stem}{extension}").write_text(payload, encoding="utf-8")


def cmd_convert(args) -> int:
    _write_corpus(args.out_format, args.out_path, _load_corpus(args.in_format, args.in_path))
    return 0


def _load_ann_entities(directory: Path) -> dict[str, list[Entity]]:
    """Entities of each .ann file in ``directory`` by stem, in name order; each is
    checked against the .txt of its stem, if the directory lists one."""
    from .core import Entity
    from .io.brat import parse_brat
    from .io.textdir import read_utf8

    names = set(os.listdir(directory))
    out = {}
    for name in sorted(n for n in names if n.endswith(".ann")):
        stem = name[: -len(".ann")]
        doc_text = read_utf8(directory / f"{stem}.txt") if f"{stem}.txt" in names else None
        annotations = _parse(directory / name, parse_brat, doc_text)
        out[stem] = [a for a in annotations if isinstance(a, Entity)]
    return out


def _eval_dirs(pred_dir: str, ref_dir: str, ref: dict[str, list[Entity]], spec: MatchSpec):
    """Metrics of the .ann files in ``pred_dir`` against ``ref``, loaded from ``ref_dir``."""
    from .evaluation import evaluate, merge_metrics

    pred = _load_ann_entities(_directory(pred_dir))
    for stem in sorted(set(pred) - set(ref)):
        raise MissingCounterpartError(stem, pred_dir)
    for stem in sorted(set(ref) - set(pred)):
        raise MissingCounterpartError(stem, ref_dir)
    return merge_metrics([evaluate(pred[stem], ref[stem], spec) for stem in sorted(ref)])


def cmd_eval(args) -> int:
    from .evaluation import MatchSpec, compare_runs, format_metrics, metrics_to_dict

    # --mode and --threshold are absent unless given: MatchSpec states their defaults.
    given = {key: getattr(args, key) for key in ("mode", "iou_threshold") if key in args}
    try:
        spec = MatchSpec(**given, label_sensitive=not args.label_insensitive)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _directory(args.pred_dir)  # a missing --pred-dir is named before a missing --ref-dir
    ref = _load_ann_entities(_directory(args.ref_dir))
    metrics = _eval_dirs(args.pred_dir, args.ref_dir, ref, spec)
    other = args.compare_with and _eval_dirs(args.compare_with, args.ref_dir, ref, spec)
    print(format_metrics(metrics))
    if other:
        print()
        print(compare_runs(metrics, other, name_a="pred", name_b="compare"))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(metrics_to_dict(metrics), indent=2) + "\n", encoding="utf-8"
        )
    return 0


def cmd_prov(args) -> int:
    from .provenance import export_prov, parse_prov_json

    payload = export_prov(_parse(args.in_path, parse_prov_json), args.format)
    if args.out_path:
        Path(args.out_path).write_text(payload, encoding="utf-8")
    else:
        print(payload, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annopipe", description="Clinical text annotation pipelines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a pipeline over a corpus of .txt files")
    run.add_argument("--pipeline", required=True)
    run.add_argument("--input-dir", required=True)
    run.add_argument("--output-dir", required=True)
    run.add_argument("--output-format", default="brat", choices=sorted(FORMATS))
    run.add_argument("--prov-level", default="none", choices=["none", "steps", "full"])
    run.add_argument("--prov-out", default=None)
    run.add_argument("--workers", type=int, default=1)
    run.set_defaults(func=cmd_run)

    convert = sub.add_parser("convert", help="convert between annotation formats")
    convert.add_argument("--in-format", required=True, choices=sorted(FORMATS))
    convert.add_argument("--out-format", required=True, choices=sorted(FORMATS))
    convert.add_argument("--in", dest="in_path", required=True)
    convert.add_argument("--out", dest="out_path", required=True)
    convert.set_defaults(func=cmd_convert)

    ev = sub.add_parser("eval", help="entity-level evaluation of .ann directories")
    ev.add_argument("--pred-dir", required=True)
    ev.add_argument("--ref-dir", required=True)
    ev.add_argument("--mode", default=argparse.SUPPRESS, choices=["exact", "overlap"])
    ev.add_argument(
        "--threshold", dest="iou_threshold", metavar="THRESHOLD", type=float,
        default=argparse.SUPPRESS,
    )
    ev.add_argument("--label-insensitive", action="store_true")
    ev.add_argument("--json-out", default=None)
    ev.add_argument("--compare-with", default=None)
    ev.set_defaults(func=cmd_eval)

    prov = sub.add_parser("prov", help="provenance utilities")
    prov_sub = prov.add_subparsers(dest="prov_command", required=True)
    export = prov_sub.add_parser("export", help="re-export a prov-json graph")
    export.add_argument("--in", dest="in_path", required=True)
    export.add_argument("--format", default="dot", choices=["dot", "prov-json"])
    export.add_argument("--out", dest="out_path", default=None)
    export.set_defaults(func=cmd_prov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, AnnopipeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
