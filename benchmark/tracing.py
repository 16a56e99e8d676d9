"""Spans around the program's layers, recorded from the benchmark's side.

In traced mode the benchmark replaces, for the length of a run, the public
functions that ``mkagg.cli`` calls with wrappers. Each call records a span
(name, start, end, parent span, run id, pass) plus counts taken at the same
boundary: descriptors embedded, kernel block sizes, bytes moved, pairs
ranked, and for the memory-heavy stages the tracemalloc peak of the call.
Spans stay in memory and are written as JSON when the run ends.

Span names are ``<module>.<function>`` after the module that defines the
function, so a layer is a module of the program. Each CLI command is a span
``cli.<command>`` around ``mkagg.cli.main``, the parent of the wrapped calls
it makes; calls from the ``eval`` worker threads take the running command as
their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import tracemalloc
from pathlib import Path

# Functions wrapped in each module, by the attribute the CLI reaches them
# through: ``cli`` imports most of them by name, and calls matio and
# retrieval through the module.
WRAPPED = {
    "cli": (
        "train_codebook", "embed_set", "gram", "sinkhorn_weights", "aggregate_democratic",
        "aggregate_sum", "gmp_weights", "aggregate_gmp", "NormalizeConfig", "apply_chain",
        "l2_normalize", "rn_fit",
    ),
    "matio": ("read_matrix_file", "write_matrix_file"),
    "retrieval": ("rank", "average_precision", "read_manifest", "read_ground_truth"),
}

# Calls whose tracemalloc peak is recorded; tracing memory costs time, so
# only the stages that allocate the big arrays pay it.
MEMORY = {"embed.train_codebook", "embed.embed_set", "kernel.gram"}


def _kernel_counts(args, kwargs, kern):
    sizes = [kern.n] if kern.blocks is None else [len(b.indices) for b in kern.blocks]
    return {"blocks": len(sizes), "max_block": max(sizes), "entries": sum(s * s for s in sizes)}


COUNTS = {
    "embed.embed_set": lambda a, k, r: {"descriptors": r.n, "phi_bytes": r.dim * r.n * 8},
    "kernel.gram": _kernel_counts,
    "matio.read_matrix_file": lambda a, k, r: {"bytes": 24 + 4 * r[0].size},
    "matio.write_matrix_file": lambda a, k, r: {"bytes": 24 + 4 * a[2].size},
    "retrieval.rank": lambda a, k, r: {"pairs": len(a[1])},
}

# Per-layer metrics: busy seconds are the wall time during which at least
# one call of the named functions ran (the union of their spans).
BUSY = {
    "embed.embed_set_s": ("embed.embed_set",),
    "embed.train_codebook_s": ("embed.train_codebook",),
    "kernel.gram_s": ("kernel.gram",),
    "democratic.sinkhorn_weights_s": ("democratic.sinkhorn_weights",),
    "democratic.aggregate_s": ("democratic.aggregate_democratic", "democratic.aggregate_sum"),
    "gmp.gmp_weights_s": ("gmp.gmp_weights",),
    "gmp.aggregate_s": ("gmp.aggregate_gmp",),
    "normalize.config_s": ("normalize.NormalizeConfig",),
    "normalize.apply_chain_s": ("normalize.apply_chain",),
    "normalize.rn_fit_s": ("normalize.rn_fit",),
    "retrieval.rank_s": ("retrieval.rank",),
    "retrieval.average_precision_s": ("retrieval.average_precision",),
    "retrieval.read_manifest_s": ("retrieval.read_manifest",),
    "retrieval.read_ground_truth_s": ("retrieval.read_ground_truth",),
    "matio.read_s": ("matio.read_matrix_file",),
    "matio.write_s": ("matio.write_matrix_file",),
}
CALLS = {
    "embed.embed_set_calls": "embed.embed_set",
    "matio.files_read": "matio.read_matrix_file",
    "matio.files_written": "matio.write_matrix_file",
}
# (metric, span name, count key, how counts combine within a pass)
TOTALS = (
    ("embed.descriptors", "embed.embed_set", "descriptors", sum),
    ("embed.phi_bytes", "embed.embed_set", "phi_bytes", max),
    ("embed.embed_set_peak_mb", "embed.embed_set", "peak_mb", max),
    ("embed.train_codebook_peak_mb", "embed.train_codebook", "peak_mb", max),
    ("kernel.blocks", "kernel.gram", "blocks", sum),
    ("kernel.max_block", "kernel.gram", "max_block", max),
    ("kernel.entries", "kernel.gram", "entries", sum),
    ("kernel.gram_peak_mb", "kernel.gram", "peak_mb", max),
    ("retrieval.rank_pairs", "retrieval.rank", "pairs", sum),
    ("matio.bytes_read", "matio.read_matrix_file", "bytes", sum),
    ("matio.bytes_written", "matio.write_matrix_file", "bytes", sum),
)
# Self time of a command: its span minus the part its wrapped children cover.
SELF = {
    "cli.train_codebook_self_s": "cli.train-codebook",
    "cli.aggregate_self_s": "cli.aggregate",
    "cli.normalize_self_s": "cli.normalize",
    "cli.eval_self_s": "cli.eval",
}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pass_no = 0
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._command: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, name, fn, args, kwargs, count=None, memory=False, command=False):
        stack = self._stack()
        parent = stack[-1] if stack else self._command
        span_id = next(self._ids)
        stack.append(span_id)
        if command:
            self._command = span_id
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            counts = {}
            if memory:
                counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            stack.pop()
            if command:
                self._command = None
            if count is not None and done:
                counts.update(count(args, kwargs, result))
            self.spans.append({
                "id": span_id, "name": name, "start": start - self._t0, "end": end - self._t0,
                "parent": parent, "run": self.run_id, "pass": self.pass_no, "counts": counts,
            })

    def command(self, name: str, fn, *args):
        """Run one CLI command as a span that parents every call it makes."""
        return self._call(name, fn, args, {}, command=True)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count, memory = COUNTS.get(name), name in MEMORY

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count, memory)

        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the functions in WRAPPED; ``modules`` maps "cli", "matio", "retrieval" to modules."""
        for key, attrs in WRAPPED.items():
            module = modules[key]
            for attr in attrs:
                fn = getattr(module, attr)
                setattr(module, attr, self._wrap(fn))
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}), encoding="utf-8")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass: times are means over passes, counts
        come from the first pass (every pass does the same work). A function
        that was never called has no metric."""
        by_pass: dict[int, dict[str, list[dict]]] = {}
        for span in self.spans:
            by_pass.setdefault(span["pass"], {}).setdefault(span["name"], []).append(span)
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        passes = [by_pass[p] for p in sorted(by_pass)]
        first = passes[0]

        out: dict[str, float] = {}
        for metric, names in BUSY.items():
            if any(n in first for n in names):
                out[metric] = statistics.fmean(
                    covered((s["start"], s["end"]) for n in names for s in p.get(n, ())) for p in passes
                )
        for metric, name in CALLS.items():
            if name in first:
                out[metric] = len(first[name])
        for metric, name, key, combine in TOTALS:
            if name in first:
                out[metric] = combine(s["counts"][key] for s in first[name])
        for metric, name in SELF.items():
            if name in first:
                out[metric] = statistics.fmean(
                    sum(
                        (s["end"] - s["start"]) - covered(children.get(s["id"], ()))
                        for s in p.get(name, ())
                    )
                    for p in passes
                )
        return out

