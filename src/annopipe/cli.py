"""Command-line front end: run pipelines, convert formats, evaluate, export provenance.

Exit codes: 0 success, 1 partial failure (some documents failed), 2 config
or usage error. ``main`` is the one error boundary: an OSError or
AnnopipeError from any command (a bad input, an unwritable output) becomes one
``error:`` line and exit 2. Input files are read through ``read_utf8``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from . import ops  # noqa: F401  (register builtin operations)
from .core import Annotation, Document, Entity
from .evaluation import (
    MatchSpec,
    compare_runs,
    evaluate,
    format_metrics,
    merge_metrics,
    metrics_to_dict,
)
from .exceptions import AnnopipeError, ConfigError, MalformedJsonError, MalformedLineError
from .exceptions import MissingCounterpartError, SurfaceMismatchError
from .io.brat import emit_brat, parse_brat
from .io.doccano import emit_doccano_jsonl, parse_doccano_jsonl
from .io.docjson import parse_document_json, serialize_document_json
from .io.textdir import load_text_documents, read_utf8
from .pipeline import Plan, PipelineSpec, compile_pipeline, run_pipeline
from .provenance import Tracer, VerbosityLevel, build_graph, export_prov, parse_prov_json
from .provenance import _write_prov_json

OUTPUT_EXTENSIONS = {"brat": ".ann", "doccano": ".jsonl", "json": ".json"}


def _load_pipeline(path: str) -> Plan:
    """Read a pipeline config taking one document, and compile it."""
    try:
        obj = json.loads(read_utf8(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read pipeline {path}: {exc}") from exc
    spec = PipelineSpec.from_dict(obj)
    if len(spec.pipeline_inputs) != 1:
        raise ConfigError(
            f"pipeline {spec.name!r} must declare exactly one input, "
            f"not {len(spec.pipeline_inputs)}"
        )
    return compile_pipeline(spec)


def _collect_annotations(outputs: dict) -> tuple[list[Annotation], list[str]]:
    annotations: list[Annotation] = []
    texts: list[str] = []
    for value in outputs.values():
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, Annotation):
                annotations.append(item)
            elif isinstance(item, str):
                texts.append(item)
    return annotations, texts


def _emit(doc: Document, annotations: list[Annotation], emitted: list[str], fmt: str) -> str:
    """One document's payload in ``fmt``, a key of OUTPUT_EXTENSIONS."""
    if fmt == "brat":
        if emitted:
            return emitted[0]
        return emit_brat(doc, annotations)
    if fmt == "doccano":
        entities = [a for a in annotations if isinstance(a, Entity)]
        return emit_doccano_jsonl(doc, entities) + "\n"
    for ann in annotations:
        if doc.get_annotation(ann.id) is None:
            doc.attach(ann)
    return serialize_document_json(doc)


# (plan, input key, output format, level) of the run; forked workers inherit it.
_RUN = None


def _process(doc: Document):
    """``(tracer, payload)`` of one document under ``_RUN``, or ``(None, message)``:
    a message crosses back from a worker, as some AnnopipeErrors do not unpickle."""
    plan, input_key, fmt, level = _RUN
    try:
        tracer = Tracer(level)
        annotations, emitted = _collect_annotations(run_pipeline(plan, {input_key: doc}, tracer))
        return tracer, _emit(doc, annotations, emitted, fmt)
    except Exception as exc:
        return None, str(exc)


def cmd_run(args) -> int:
    global _RUN
    plan = _load_pipeline(args.pipeline)
    level = VerbosityLevel.parse(args.prov_level)
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    docs = load_text_documents(args.input_dir)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Opened before any document runs, so an unwritable path fails the
    # run up front rather than after every output is written.
    prov_out = open(args.prov_out, "w", encoding="utf-8") if args.prov_out else None

    extension = OUTPUT_EXTENSIONS[args.output_format]
    _RUN = (plan, plan.spec.pipeline_inputs[0], args.output_format, level)
    workers = min(args.workers, len(docs))
    failures = []
    merged = Tracer(level)
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
            for name, (tracer, payload) in zip(names, results):
                done += 1
                if tracer is None:
                    failures.append((name, payload))
                    continue
                (out_dir / f"{Path(name).stem}{extension}").write_text(payload, encoding="utf-8")
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


def _parse(path, parse, *args):
    """``parse`` of the UTF-8 text at ``path``; a parse error keeps its type and
    its message gains the file's path in front."""
    try:
        return parse(read_utf8(path), *args)
    except (MalformedLineError, SurfaceMismatchError, MalformedJsonError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load_corpus(fmt: str, path: str) -> list[tuple[str, Document]]:
    """(stem, document) pairs with annotations attached; fmt is brat, doccano or json."""
    if fmt in ("brat", "json"):
        path = _directory(path)
    if fmt == "brat":
        pairs = []
        for txt in sorted(path.glob("*.txt")):
            doc = load_text_documents(txt)[0]
            ann_file = txt.with_suffix(".ann")
            if ann_file.exists():
                for ann in _parse(ann_file, parse_brat, doc.text):
                    doc.attach(ann)
            pairs.append((txt.stem, doc))
        return pairs
    if fmt == "doccano":
        pairs = []
        lines = read_utf8(path).splitlines()
        for line_no, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                doc, _ = parse_doccano_jsonl(line)
            except MalformedJsonError as exc:
                raise MalformedJsonError(f"{path}, line {line_no}: {exc}") from exc
            pairs.append((f"doc_{len(pairs) + 1:04d}", doc))
        return pairs
    files = sorted(path.glob("*.json"))
    return [(file.stem, _parse(file, parse_document_json)) for file in files]


def _write_corpus(fmt: str, path: str, pairs: list[tuple[str, Document]]) -> None:
    # Built before the first write, so a document that cannot be emitted
    # leaves nothing written.
    payloads = [(stem, doc, _emit(doc, doc.annotations, [], fmt)) for stem, doc in pairs]
    path = Path(path)
    if fmt == "doccano":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(payload for _, _, payload in payloads), encoding="utf-8")
        return
    path.mkdir(parents=True, exist_ok=True)
    for stem, doc, payload in payloads:
        if fmt == "brat":
            (path / f"{stem}.txt").write_text(doc.text, encoding="utf-8")
        (path / f"{stem}{OUTPUT_EXTENSIONS[fmt]}").write_text(payload, encoding="utf-8")


def cmd_convert(args) -> int:
    _write_corpus(args.out_format, args.out_path, _load_corpus(args.in_format, args.in_path))
    return 0


def _load_ann_entities(directory: Path) -> dict[str, list[Entity]]:
    out = {}
    for ann_file in sorted(directory.glob("*.ann")):
        txt_file = ann_file.with_suffix(".txt")
        doc_text = read_utf8(txt_file) if txt_file.exists() else None
        annotations = _parse(ann_file, parse_brat, doc_text)
        out[ann_file.stem] = [a for a in annotations if isinstance(a, Entity)]
    return out


def _eval_dirs(pred_dir: str, ref_dir: str, ref: dict[str, list[Entity]], spec: MatchSpec):
    """Metrics of the .ann files in ``pred_dir`` against ``ref``, loaded from ``ref_dir``."""
    pred = _load_ann_entities(_directory(pred_dir))
    for stem in sorted(set(pred) - set(ref)):
        raise MissingCounterpartError(stem, pred_dir)
    for stem in sorted(set(ref) - set(pred)):
        raise MissingCounterpartError(stem, ref_dir)
    return merge_metrics([evaluate(pred[stem], ref[stem], spec) for stem in sorted(ref)])


def cmd_eval(args) -> int:
    spec = MatchSpec(
        mode=args.mode,
        iou_threshold=args.threshold,
        label_sensitive=not args.label_insensitive,
    )
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
    run.add_argument("--output-format", default="brat", choices=sorted(OUTPUT_EXTENSIONS))
    run.add_argument("--prov-level", default="none", choices=["none", "steps", "full"])
    run.add_argument("--prov-out", default=None)
    run.add_argument("--workers", type=int, default=1)
    run.set_defaults(func=cmd_run)

    convert = sub.add_parser("convert", help="convert between annotation formats")
    convert.add_argument("--in-format", required=True, choices=sorted(OUTPUT_EXTENSIONS))
    convert.add_argument("--out-format", required=True, choices=sorted(OUTPUT_EXTENSIONS))
    convert.add_argument("--in", dest="in_path", required=True)
    convert.add_argument("--out", dest="out_path", required=True)
    convert.set_defaults(func=cmd_convert)

    ev = sub.add_parser("eval", help="entity-level evaluation of .ann directories")
    ev.add_argument("--pred-dir", required=True)
    ev.add_argument("--ref-dir", required=True)
    ev.add_argument("--mode", default="exact", choices=["exact", "overlap"])
    ev.add_argument("--threshold", type=float, default=0.5)
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
