"""Span recorder for the traced run, and the arithmetic that turns spans into
per-layer metrics.

The recorder wraps the public functions of annopipe's layer modules. A
function is wrapped wherever an ``annopipe.*`` module holds that same object,
so call sites that import it by name are traced too; ``installed`` puts the
originals back on exit. Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import pkgutil
import statistics
import sys
import time
from array import array

# Layer modules under ``annopipe.``; every ``textops`` submodule is added.
LAYERS = ("cli", "pipeline", "spans", "provenance", "io.brat", "io.textdir", "evaluation")
METHODS = {"provenance": ("Tracer.record",)}


def _doc_size(args, kwargs) -> int:
    """Text length of the first document among run_pipeline's inputs."""
    inputs = args[1] if len(args) > 1 else kwargs.get("inputs", {})
    for value in inputs.values():
        text = getattr(value, "text", None)
        if isinstance(text, str):
            return len(text)
    return -1


def _entity_count(args, kwargs) -> int:
    """Predicted plus reference entities given to evaluate."""
    return sum(len(a) for a in args[:2] if isinstance(a, list))


# Functions whose outermost calls stand for one document, with its size:
# a pipeline run sized by text length, an evaluation by entity count.
ROOTS = {"pipeline.run_pipeline": _doc_size, "evaluation.evaluate": _entity_count}


class SpanRecorder:
    """Spans (name, start, end, parent) recorded by function wrappers.

    A span is useful when its call returned a truthy result without raising.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("q")
        self.useful = bytearray()
        self._stack = [-1]

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def add_span(self, layer, name, start, end, parent=-1, size=-1) -> int:
        """Append a finished, useful span directly (synthetic traces and tests)."""
        idx = len(self.start)
        self.name.append(self._name_id(layer, name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.size.append(size)
        self.useful.append(1)
        return idx

    def wrap(self, layer: str, name: str, fn, sizer=None):
        nid = self._name_id(layer, name)
        clock, stack = time.perf_counter, self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, sizes, useful = self.parent, self.size, self.useful

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            sizes.append(sizer(args, kwargs) if sizer else -1)
            useful.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            useful[idx] = bool(result)
            return result

        return wrapper


def discover_targets() -> list[tuple[str, str, object, object]]:
    """(layer, name, function, owning class or None) for every traced function.

    A module or function that no longer exists is simply not listed, so its
    metrics come out absent.
    """
    layers = list(LAYERS)
    try:
        textops = importlib.import_module("annopipe.textops")
        layers += sorted(
            f"textops.{m.name}" for m in pkgutil.iter_modules(textops.__path__)
        )
    except ImportError:
        pass
    targets = []
    for layer in layers:
        try:
            module = importlib.import_module(f"annopipe.{layer}")
        except ImportError:
            continue
        for attr, obj in sorted(vars(module).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                targets.append((layer, f"{layer}.{attr}", obj, None))
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                targets.append((layer, f"{layer}.{dotted}", fn, cls))
    return targets


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every target wherever annopipe holds it; restore on exit."""
    targets = discover_targets()
    replaced = []  # (holder, attribute, original)
    wrappers = {}
    for layer, name, fn, cls in targets:
        wrappers[id(fn)] = (fn, recorder.wrap(layer, name, fn, ROOTS.get(name)))
        if cls is not None:
            method = name.rsplit(".", 1)[1]
            replaced.append((cls, method, fn))
            setattr(cls, method, wrappers[id(fn)][1])
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "annopipe" or mod_name.startswith("annopipe.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    replaced.append((module, attr, value))
                    setattr(module, attr, hit[1])
        yield recorder
    finally:
        for holder, attr, original in reversed(replaced):
            setattr(holder, attr, original)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, cursor = 0.0, lo
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, hi)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((hi - lo) - covered)
    return out


def scaling_4x(sizes, times) -> float:
    """Time at 4x input over time at 1x, from a log-log fit over documents.

    With two size classes exactly 4x apart this is the ratio of their
    geometric-mean times: 4 is linear, 16 quadratic. 0.0 when the documents
    do not span two sizes.
    """
    points = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return 4 ** (sxy / sxx)


def tail_percentile(values) -> tuple[float, float]:
    """(p, value): the highest of a few percentiles with ten samples beyond it.

    Nearest-rank percentiles; (0.0, 0.0) with fewer than twenty samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0.0, 0.0


def median(values) -> float:
    """Median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def summarize(recorder: SpanRecorder) -> dict:
    """Per-function and per-layer totals, and per-document rows, of a trace."""
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    functions = {name: {"calls": 0, "self_s": 0.0, "useful": 0} for name in recorder.names}
    layers = dict.fromkeys(recorder.layers, 0.0)
    top_level: dict[str, float] = {}
    doc_of = array("i")
    roots: dict[str, list] = {name: [] for name in ROOTS}
    doc_rows: list[dict] = []
    for i, nid in enumerate(recorder.name):
        name, layer = recorder.names[nid], recorder.layers[nid]
        duration = recorder.end[i] - recorder.start[i]
        stats = functions[name]
        stats["calls"] += 1
        stats["self_s"] += selfs[i]
        stats["useful"] += recorder.useful[i]
        layers[layer] += selfs[i]

        p = recorder.parent[i]
        doc = doc_of[p] if p >= 0 else -1
        if doc < 0 and name in ROOTS:
            doc = len(doc_rows)
            row = {"root": name, "size": recorder.size[i], "duration_s": duration, "layers": {}}
            doc_rows.append(row)
            roots[name].append(row)
        doc_of.append(doc)
        if doc >= 0:
            per_doc = doc_rows[doc]["layers"]
            per_doc[layer] = per_doc.get(layer, 0.0) + selfs[i]

        if layer != "cli" and _under_cli_only(recorder, p):
            top_level[layer] = top_level.get(layer, 0.0) + duration
    return {
        "functions": functions,
        "layers": layers,
        "top_level_s": sum(top_level.values()),
        "docs": roots,
    }


def _under_cli_only(recorder: SpanRecorder, p: int) -> bool:
    while p >= 0:
        if recorder.layers[recorder.name[p]] != "cli":
            return False
        p = recorder.parent[p]
    return True
