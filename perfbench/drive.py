"""One annopipe process of the benchmark, optionally traced.

    drive.py [--trace OUT] [--nested SPEC] cli ARGS...
        Register the nested pipeline SPEC (if given) with as_operation, then
        run ``annopipe ARGS...`` through annopipe.cli.main.
    drive.py [--trace OUT] context --pipeline P --input-dir D --output-dir O
        Run pipeline P over every note with run_pipeline and no tracer, and
        write each note's "brat" output as <stem>.ann. This is how
        detect_context pipelines run, since ``annopipe run`` fails them.

With --trace, the public functions of annopipe's layers are wrapped with span
recorders for the run, and the span summary is written to OUT as JSON. Its
``harness_s`` is the time this script spent importing the recorder, wrapping,
restoring and summarising, so that it can be taken out of the process's wall
time. Exit codes follow the CLI: 0 success, 1 some documents failed, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def run_context(args) -> int:
    from annopipe.io.textdir import load_text_documents
    from annopipe.pipeline import PipelineSpec, run_pipeline

    spec = PipelineSpec.from_dict(json.loads(Path(args.pipeline).read_text(encoding="utf-8")))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for doc in load_text_documents(args.input_dir):
        name = doc.metadata["filename"]
        try:
            outputs = run_pipeline(spec, {"doc": doc})
        except Exception as exc:  # one bad note fails alone, as in annopipe run
            print(f"failed: {name}: {exc!r}", file=sys.stderr)
            failures += 1
            continue
        (out_dir / f"{Path(name).stem}.ann").write_text(outputs["brat"], encoding="utf-8")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="drive.py")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--nested", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    context = sub.add_parser("context")
    context.add_argument("--pipeline", required=True)
    context.add_argument("--input-dir", required=True)
    context.add_argument("--output-dir", required=True)
    args = parser.parse_args(argv)

    import annopipe.cli
    from annopipe.pipeline import PipelineSpec, as_operation

    if args.nested:
        as_operation(PipelineSpec.from_dict(json.loads(Path(args.nested).read_text(encoding="utf-8"))))

    def run() -> int:
        if args.mode == "context":
            return run_context(args)
        return annopipe.cli.main(args.cli_args)

    if not args.trace:
        return run()
    start = time.perf_counter()
    import tracing

    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        ran = time.perf_counter()
        code = run()
        done = time.perf_counter()
    summary = tracing.summarize(recorder)
    summary["harness_s"] = (ran - start) + (time.perf_counter() - done)
    Path(args.trace).write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
