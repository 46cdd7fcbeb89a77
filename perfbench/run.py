"""annopipe benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's seeded corpus under .perfbench_work/, then drives
annopipe as users do: ``annopipe run`` then ``annopipe eval``, each in its
own process, timed from outside. Every run's output is checked; a run that
fails the check makes the workload fail instead of yielding numbers.

--trace 0 repeats run+eval passes for S seconds and reports, for each timing,
its fastest sample (the machine's interference only ever adds time) and the
median peak RSS. --trace 1 repeats (untraced run, traced run, traced eval) for S
seconds and reports the medians of per-layer metrics from the span recorder.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See perfbench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import corpus
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVE_SCRIPT = Path(__file__).resolve().parent / "drive.py"

SETUP_SAMPLES = 2  # one-note runs per pass
PROCESS_TIMEOUT_S = 150.0
MB = 1024 * 1024


class Phase(NamedTuple):
    """One process of a pass. mode "cli" is ``annopipe run``; "nested" is
    ``annopipe run`` after the nested pipeline is registered with
    as_operation; "context" is run_pipeline per note with no tracer, the only
    way detect_context runs, since ``annopipe run`` fails it."""

    mode: str
    pipeline: str
    input_dir: str
    prov: str = "none"
    workers: int = 1


# A pass runs every phase of its workload, one after another.
WORKLOADS = {
    "short_notes": [
        Phase("cli", "pipeline.json", "short", workers=min(2, os.cpu_count() or 1)),
        Phase("nested", "provenance.json", "prov", prov="full"),
    ],
    "long_notes": [
        Phase("cli", "pipeline.json", "long"),
        Phase("context", "context.json", "context"),
    ],
}

# Steps that must each leave one PROV activity per document of a --prov-level
# full phase.
PROV_STEPS = ("to_segment", "split_sentences", corpus.NESTED_OP, "deidentify", "match_dictionary")


class CheckFailed(Exception):
    """A run's output is wrong; the workload reports failure, not numbers."""


class Proc(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def spawn(argv, cwd: Path, log: str) -> Proc:
    """Run a process to completion; wall, CPU and peak RSS of it and its children."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
        (cwd / f"{log}.err").read_text(encoding="utf-8", errors="replace"),
    )


def combined(procs: list[Proc]) -> Proc:
    """One pass of several phase processes, run one after another."""
    return Proc(
        next((p.code for p in procs if p.code), 0),
        sum(p.wall_s for p in procs),
        sum(p.cpu_s for p in procs),
        max(p.rss_mb for p in procs),
        "".join(p.stderr for p in procs),
    )


class Workload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.phases = WORKLOADS[name]
        self.summary = corpus.generate(name, seed, work)
        self.docs = self.summary["docs"]
        self.workers_flag = self._cli_has_workers()

    def _cli_has_workers(self) -> bool:
        spawn([sys.executable, "-m", "annopipe.cli", "run", "--help"], self.work, "help")
        return "--workers" in (self.work / "help.out").read_text(encoding="utf-8")

    def run_argv(self, phase: Phase, input_dir: str, trace: str | None, workers: int | None) -> list[str]:
        drive = [sys.executable, str(DRIVE_SCRIPT)] + (["--trace", trace] if trace else [])
        if phase.mode == "context":
            return drive + [
                "context", "--pipeline", phase.pipeline,
                "--input-dir", input_dir, "--output-dir", "out",
            ]
        if phase.mode == "nested":
            prefix = drive + ["--nested", "nested.json", "cli"]
        elif trace:
            prefix = drive + ["cli"]
        else:
            prefix = [sys.executable, "-m", "annopipe.cli"]
        argv = prefix + [
            "run", "--pipeline", phase.pipeline, "--input-dir", input_dir,
            "--output-dir", "out", "--prov-level", phase.prov,
        ]
        if self.workers_flag:
            argv += ["--workers", str(workers or phase.workers)]
        if phase.prov == "full":
            argv += ["--prov-out", "prov.json"]
        return argv

    def eval_argv(self, trace: str | None = None) -> list[str]:
        args = ["eval", "--pred-dir", "out", "--ref-dir", "corpus", "--json-out", "eval.json"]
        if trace:
            return [sys.executable, str(DRIVE_SCRIPT), "--trace", trace, "cli"] + args
        return [sys.executable, "-m", "annopipe.cli"] + args

    def run(self, trace: str | None = None, workers: int | None = None) -> Proc:
        return combined(self.run_phases(trace=trace, workers=workers))

    def run_phases(self, one: bool = False, trace: str | None = None, workers: int | None = None) -> list[Proc]:
        """Every phase over its corpus, or over its one-note corpus; phase i
        of a traced run writes its spans to ``<trace>i.json``. ``workers``
        overrides every phase's worker count."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "prov.json").unlink(missing_ok=True)
        procs = []
        for i, phase in enumerate(self.phases):
            input_dir = f"one_{phase.input_dir}" if one else phase.input_dir
            argv = self.run_argv(phase, input_dir, f"{trace}{i}.json" if trace else None, workers)
            procs.append(spawn(argv, self.work, f"run{i}"))
        return procs

    def evaluate(self, trace: str | None = None) -> Proc:
        (self.work / "eval.json").unlink(missing_ok=True)
        return spawn(self.eval_argv(trace), self.work, "eval")


def check_eval(eval_json: Path, expected: dict) -> None:
    """Per-label tp/fp/fn of ``annopipe eval --json-out`` must equal the expected."""
    try:
        per_label = json.loads(eval_json.read_text(encoding="utf-8"))["per_label"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"no evaluation output: {exc}") from exc
    got = {
        label: {k: row[k] for k in ("tp", "fp", "fn")} for label, row in sorted(per_label.items())
    }
    if got != expected:
        raise CheckFailed(f"evaluation {got} != expected {expected}")


def check_prov(prov_json: Path, docs: int) -> dict:
    """PROV-JSON loads, is acyclic and has one activity per step per document.

    Ids and edge counts are not pinned; returns size, entity and edge counts.
    """
    from annopipe.provenance import parse_prov_json

    try:
        text = prov_json.read_text(encoding="utf-8")
        graph = parse_prov_json(text)
        graph.check_acyclic()
    except Exception as exc:
        raise CheckFailed(f"provenance output rejected: {exc!r}") from exc
    labels: dict[str, int] = {}
    entities = edges = 0
    stack = [graph]
    while stack:
        g = stack.pop()
        for act in g.activities.values():
            labels[act.name] = labels.get(act.name, 0) + 1
        entities += len(g.entities)
        edges += len(g.used) + len(g.was_generated_by) + len(g.was_derived_from)
        edges += len(g.was_informed_by)
        stack.extend(g.sub_graphs.values())
    for step in PROV_STEPS:
        if labels.get(step, 0) != docs:
            raise CheckFailed(f"{labels.get(step, 0)} {step} activities for {docs} documents")
    return {"prov_mb": len(text.encode("utf-8")) / MB, "entities": entities, "edges": edges}


def negated_count(out_dir: Path) -> int:
    return sum(
        len(re.findall(r"^A\d+\tis_negated ", f.read_text(encoding="utf-8"), re.MULTILINE))
        for f in out_dir.glob("*.ann")
    )


def check_evaluation(wl: Workload, ev: Proc) -> None:
    if ev.code != 0:
        raise CheckFailed(f"eval exit code {ev.code}: {ev.stderr[-2000:]}")
    check_eval(wl.work / "eval.json", wl.summary["expected"])


def check_pass(wl: Workload, run: Proc, ev: Proc) -> dict:
    """Check one run+eval pass; returns the recorded facts of its outputs."""
    if run.code != 0:  # 1 when any document failed
        raise CheckFailed(f"run exit code {run.code}: {run.stderr[-2000:]}")
    check_evaluation(wl, ev)
    facts = {"prov_mb": 0.0, "entities": 0, "edges": 0, "negated": 0}
    for phase in wl.phases:
        if phase.prov == "full":
            docs = wl.summary["phase_docs"][phase.input_dir]
            facts.update(check_prov(wl.work / "prov.json", docs))
        if phase.mode == "context":
            facts["negated"] = negated_count(wl.work / "out")
    return facts


def setup_sample(wl: Workload) -> float:
    """Wall time of every phase over its one-note corpus, summed."""
    proc = combined(wl.run_phases(one=True))
    if proc.code != 0:
        raise CheckFailed(f"one-note run exit code {proc.code}: {proc.stderr[-2000:]}")
    return proc.wall_s


def passes(seconds: float):
    """Yield pass numbers until the next pass would end after ``seconds``;
    there is always at least one pass."""
    start = time.perf_counter()
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield n
        n += 1
        last = time.perf_counter() - began


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, int, dict]:
    """Fastest run and eval times, median set-up time and peak RSS.

    Other tenants of a shared host slow this one for seconds to minutes at a
    time, by up to 1.7x, and only ever add time. The fastest sample of a
    process is what the program costs while they are quiet, so it repeats
    from run to run where a median follows how long the host was busy. A
    run of several phases costs the sum of each phase's fastest time.
    """
    wl.run_phases(one=True)  # fills the bytecode cache
    setups, evals, phases, rss, attempted, facts = [], [], [], [], 0, {}
    for _ in passes(seconds):
        setups += [setup_sample(wl) for _ in range(SETUP_SAMPLES)]
        procs = wl.run_phases()
        run = combined(procs)
        ev = wl.evaluate()
        attempted += wl.docs
        facts = check_pass(wl, run, ev)
        again = wl.evaluate()
        check_evaluation(wl, again)
        evals += [ev.wall_s, again.wall_s]
        phases.append(procs)
        rss.append(run.rss_mb)
    by_phase = list(zip(*phases))
    metrics = {
        "setup_s": tracing.median(setups),
        "docs_per_s": wl.docs / sum(min(p.wall_s for p in ps) for ps in by_phase),
        "cpu_s": sum(min(p.cpu_s for p in ps) for ps in by_phase),
        "peak_rss_mb": tracing.median(rss),
        "eval_s": min(evals),
    }
    facts["passes"] = len(phases)
    return metrics, attempted, facts


def layer_metrics(run_traces: list, eval_trace: dict, run_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced run's phase summaries and the traced
    eval summary.

    ``run_wall`` is the traced run's process wall time over all phases, and
    ``untraced_wall`` that of an untraced run with the same worker count.
    Scaling ratios of the pipeline layers come from the first phase alone,
    whose documents come in size classes.
    """
    functions: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for trace in run_traces + [eval_trace]:
        for name, stats in trace["functions"].items():
            slot = functions.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                slot[key] += value
        for layer, value in trace["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + value

    out: dict[str, float] = {}

    def fn(name: str, key: str) -> None:
        if name in functions:  # a function that no longer exists stays absent
            out[f"{name}.{key}"] = functions[name][key]

    def layer_scaling(layer: str, root: str, trace: dict) -> float:
        rows = trace["docs"].get(root, [])
        return tracing.scaling_4x(
            [r["size"] for r in rows], [r["layers"].get(layer, 0.0) for r in rows]
        )

    docs = [row for t in run_traces for row in t["docs"]["pipeline.run_pipeline"]]
    latencies = [r["duration_s"] for r in docs]
    tail_pct, tail_s = tracing.tail_percentile(latencies)
    fn("pipeline.run_pipeline", "calls")
    fn("pipeline.validate_pipeline", "calls")
    fn("pipeline.validate_pipeline", "self_s")
    out["pipeline.self_s"] = layers.get("pipeline", 0.0)
    out["pipeline.docs"] = len(docs)
    out["pipeline.doc_p50_s"] = tracing.median(latencies)
    out["pipeline.doc_tail_pct"] = tail_pct
    out["pipeline.doc_tail_s"] = tail_s

    fn("textops.dictionary.load_dictionary", "calls")
    fn("textops.dictionary.fold_text", "calls")
    fn("textops.dictionary.match_dictionary", "self_s")
    for name in ("extract", "replace", "normalize_spans"):
        fn(f"spans.{name}", "self_s")
    fn("spans.extract", "calls")
    for layer in ("spans", "textops.dictionary", "textops.deid", "textops.regexp"):
        out[f"{layer}.scaling_4x"] = layer_scaling(layer, "pipeline.run_pipeline", run_traces[0])
    for layer in ("spans", "textops.dictionary", "textops.deid", "textops.regexp",
                  "textops.dates", "textops.sentences", "textops.context",
                  "provenance", "evaluation"):
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    out["textops.self_s"] = sum(v for k, v in layers.items() if k.startswith("textops."))

    fn("textops.context.detect_context", "calls")
    fn("textops.context.detect_context", "self_s")
    if "textops.context.detect_context" in functions:
        stats = functions["textops.context.detect_context"]
        out["textops.context.detect_context.useful_ratio"] = (
            stats["useful"] / stats["calls"] if stats["calls"] else 0.0
        )

    fn("provenance.Tracer.record", "calls")
    fn("provenance.Tracer.record", "self_s")
    fn("provenance.build_graph", "self_s")
    fn("provenance.export_prov", "self_s")

    fn("io.brat.emit_brat", "self_s")
    fn("io.textdir.load_text_documents", "self_s")
    fn("io.brat.parse_brat", "self_s")

    fn("evaluation.align_entities", "calls")
    fn("evaluation.align_entities", "self_s")
    out["evaluation.scaling_4x"] = layer_scaling("evaluation", "evaluation.evaluate", eval_trace)

    out["cli.other_s"] = run_wall - sum(t["harness_s"] + t["top_level_s"] for t in run_traces)
    out["trace.overhead_ratio"] = run_wall / untraced_wall
    return out


def traced(wl: Workload, seconds: float) -> tuple[dict, int, dict]:
    rows, attempted, facts = [], 0, {}
    for _ in passes(seconds):
        # Both runs use one worker: the span recorder follows one thread, and
        # the overhead ratio must not mix in the worker count.
        plain = wl.run(workers=1)
        ev = wl.evaluate()
        check_pass(wl, plain, ev)
        run = wl.run(trace="run_trace", workers=1)
        ev = wl.evaluate(trace="eval_trace.json")
        attempted += 2 * wl.docs
        facts = check_pass(wl, run, ev)
        run_traces = [
            json.loads((wl.work / f"run_trace{i}.json").read_text(encoding="utf-8"))
            for i in range(len(wl.phases))
        ]
        eval_trace = json.loads((wl.work / "eval_trace.json").read_text(encoding="utf-8"))
        row = layer_metrics(run_traces, eval_trace, run.wall_s, plain.wall_s)
        row["provenance.entities"] = facts["entities"]
        row["provenance.edges"] = facts["edges"]
        row["provenance.prov_mb"] = facts["prov_mb"]
        row["textops.context.is_negated"] = facts["negated"]
        row["src.lines"] = src_lines()
        rows.append(row)
    metrics = {key: tracing.median([r[key] for r in rows]) for key in rows[0]}
    facts["passes"] = len(rows)
    return metrics, attempted, facts


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def load_metric_specs() -> dict[str, list]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout holding annopipe's sources."""
    for needed in (SRC / "annopipe" / "cli.py", corpus.DEMO_SCRIPT, ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            raise SystemExit(f"error: {needed.relative_to(ROOT)} not found; run from an annopipe checkout")
    sys.path.insert(0, str(SRC))
    import annopipe

    if Path(annopipe.__file__).resolve().parent != SRC / "annopipe":
        raise SystemExit(f"error: annopipe imported from {annopipe.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    specs = load_metric_specs()
    units = {m["name"]: m["unit"] for m in specs["end_to_end"] + specs["per_layer"]}
    units.update(fail_ratio="ratio", prov_mb="MB")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, work)
    phases = ", ".join(
        f"{p.input_dir} {wl.summary['phase_docs'][p.input_dir]} docs"
        + (f" workers {p.workers}" if p.mode != "context" and wl.workers_flag else "")
        for p in wl.phases
    )
    print(f"{wl.name} seed {wl.seed}: {wl.docs} docs, {wl.summary['bytes']} bytes; {phases}")
    if not wl.workers_flag:
        print("workers flag absent")
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, facts = measure(wl, args.seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": wl.docs, "failed": wl.docs, "metrics": {}}))
        return 1

    if not args.trace:
        shown = dict(metrics, fail_ratio=0.0)  # any failed document fails the check
        if any(p.prov == "full" for p in wl.phases):
            shown["prov_mb"] = facts["prov_mb"]
        print(" | ".join(f"{k} {v:.6g} {units[k]}" for k, v in shown.items()))
        print(f"passes {facts['passes']}; exit codes run 0, eval 0; src lines {src_lines()}")
    names = [m["name"] for m in specs["per_layer" if args.trace else "end_to_end"]]
    absent = [n for n in names if n not in metrics]
    if absent:
        print("absent metrics: " + ", ".join(absent))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
