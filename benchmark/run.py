"""End-to-end and per-layer benchmark of the mkagg pipeline.

Runs the whole CLI pipeline in this process through ``mkagg.cli.main`` on
files written by the benchmark's own seeded generator, for at least
``--seconds`` seconds, checks every output against plain-numpy references,
and prints the metrics; the last line of standard output is one JSON object.

    python3 benchmark/run.py --workload spread --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 2

One pass runs, in order: ``train-codebook``; ``aggregate`` of every image
with ``sum``, ``democratic`` and ``gmp``; ``rn-fit`` per method where the
workload uses a rotation; then ``normalize`` of every aggregate and ``eval``
of every image as a query against all images, per method. Passes repeat in
a closed loop until the time is up; every pass must write the same bytes.

With ``--trace 0`` the metrics are end to end. With ``--trace 1`` the
public functions the CLI calls are wrapped, the spans are written to
``.bench_traces/<workload>-seed<seed>.json`` and the metrics are per layer.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so pin it before any import
# of numpy; --threads gets the same value.
THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import METHODS, WORKLOADS, Workload, image_ids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sum_images_per_s", "images/s"),
    ("democratic_images_per_s", "images/s"),
    ("gmp_images_per_s", "images/s"),
    ("normalize_vectors_per_s", "vectors/s"),
    ("eval_queries_per_s", "queries/s"),
    ("map_sum", "mAP"),
    ("map_democratic", "mAP"),
    ("map_gmp", "mAP"),
)
# Per-layer metrics that only some workloads produce: printed where present,
# kept out of the JSON result, which lists the metrics every workload has.
WORKLOAD_SPECIFIC = {"normalize.rn_fit_s"}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "_bytes": "bytes", "bytes_read": "bytes", "bytes_written": "bytes"}


def load_cli():
    """Import ``mkagg.cli`` from the checkout this benchmark sits in, and nowhere else."""
    src = ROOT / "src"
    if not (src / "mkagg" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program at {src / 'mkagg'}; run from a full checkout")
    sys.path.insert(0, str(src))
    from mkagg import cli

    if Path(cli.__file__).resolve().parent != (src / "mkagg").resolve():
        raise SystemExit(f"benchmark: mkagg imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Call:
    command: str
    method: str | None
    wall: float
    ok: bool
    stdout: str


@dataclass
class Pass:
    setup_wall: float = 0.0
    pipeline_wall: float = 0.0
    pipeline_cpu: float = 0.0
    evals: dict[str, str] = field(default_factory=dict)  # last printed output per method
    printed: list[str] = field(default_factory=list)  # every eval output, for the digest
    digest: str = ""


class Pipeline:
    """One client driving the CLI in a closed loop over a workload's files."""

    def __init__(self, cli, w: Workload, work: Path, tracer: tracing.Tracer | None):
        self.cli, self.w, self.work, self.tracer = cli, w, work, tracer
        self.calls: list[Call] = []
        self.errors: list[str] = []

    def call(self, command: str, method: str | None, *argv) -> Call:
        argv = ["--threads", str(THREADS), command, *map(str, argv)]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.command(f"cli.{command}", self.cli.main, argv)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
        call = Call(command, method, time.perf_counter() - start, rc == 0, buf.getvalue())
        if not call.ok:
            self.errors.append(f"{' '.join(argv)} -> {rc}")
        self.calls.append(call)
        return call

    def run_pass(self) -> Pass:
        w, work, p = self.w, self.work, Pass()
        ids = image_ids(w)
        p.setup_wall += self.call(
            "train-codebook", None, "--input", work / "train.mkds", "--clusters", w.c,
            "--seed", 0, "--output", work / "codebook.mkcb",
        ).wall
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for m in METHODS:
            for image in ids:
                self.call(
                    "aggregate", m, "--descriptors", work / "img" / f"{image}.mkds",
                    "--codebook", work / "codebook.mkcb", "--embedding", "residual",
                    "--method", m, "--gamma", checks.GAMMA, "--iters", checks.N_ITER,
                    "--lambda", checks.LAMBDA, "--output", work / "agg" / m / f"{image}.mkvc",
                )
        rn_wall = rn_cpu = 0.0
        for m in METHODS if w.uses_rotation else ():
            cpu = time.process_time()
            rn_wall += self.call(
                "rn-fit", m, "--vectors", work / f"agg_{m}.tsv", "--max-eigvecs", w.truncate,
                "--output", work / f"rotation_{m}.mkrt",
            ).wall
            rn_cpu += time.process_time() - cpu
        for _ in range(w.rounds):
            for m in METHODS:
                rotation = ("--rn", work / f"rotation_{m}.mkrt", "--truncate", w.truncate) if w.uses_rotation else ()
                for image in ids:
                    self.call(
                        "normalize", m, "--input", work / "agg" / m / f"{image}.mkvc", "--alpha",
                        checks.ALPHA, *rotation, "--output", work / "norm" / m / f"{image}.mkvc",
                    )
            for m in METHODS:
                p.evals[m] = self.call(
                    "eval", m, "--index", work / f"norm_{m}.tsv", "--queries", work / f"norm_{m}.tsv",
                    "--truth", work / "truth.tsv", "--exclude-self",
                ).stdout
                p.printed.append(p.evals[m])
        p.pipeline_wall = time.perf_counter() - wall0 - rn_wall
        p.pipeline_cpu = time.process_time() - cpu0 - rn_cpu
        p.setup_wall += rn_wall
        p.digest = self.digest(p)
        return p

    def digest(self, p: Pass) -> str:
        h = hashlib.sha256()
        outputs = [self.work / "codebook.mkcb", *sorted(self.work.glob("rotation_*.mkrt"))]
        outputs += sorted(self.work.glob("agg/*/*.mkvc")) + sorted(self.work.glob("norm/*/*.mkvc"))
        for path in outputs:
            h.update(path.read_bytes())
        for text in p.printed:
            h.update(text.encode())
        return h.hexdigest()


def end_to_end(pipe: Pipeline, passes: list[Pass], peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of a run in which no operation failed.

    Pipeline and CPU time are means over the passes, and each rate is its
    calls over their total time: on a shared virtual machine the CPU speed
    can sit on one of two plateaus for tens of seconds, and a median snaps
    to one of them where a mean weighs both. Setup time is the median over
    the passes.
    """
    walls: dict[str, list[float]] = {}
    for call in pipe.calls:
        walls.setdefault(call.command if call.command != "aggregate" else call.method, []).append(call.wall)
    n_queries = len(image_ids(pipe.w))
    values = {
        "setup_s": statistics.median(p.setup_wall for p in passes),
        "pipeline_s": statistics.fmean(p.pipeline_wall for p in passes),
        "cpu_s": statistics.fmean(p.pipeline_cpu for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "normalize_vectors_per_s": len(walls["normalize"]) / sum(walls["normalize"]),
        "eval_queries_per_s": n_queries * len(walls["eval"]) / sum(walls["eval"]),
    }
    for m in METHODS:
        values[f"{m}_images_per_s"] = len(walls[m]) / sum(walls[m])
        values[f"map_{m}"] = checks.parse_eval(passes[-1].evals[m])[1]
    return values


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    cli = load_cli()
    work = ROOT / ".bench_work" / f"{w.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer(f"{w.name}-seed{seed}-{os.getpid()}") if trace else None
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", w.name,
             "--seed", str(seed), "--out", str(work)],
            check=True, timeout=170,
        )
        pipe = Pipeline(cli, w, work, tracer)
        if tracer is not None:
            from mkagg import matio, retrieval

            tracer.install({"cli": cli, "matio": matio, "retrieval": retrieval})
        passes: list[Pass] = []
        start = time.perf_counter()
        try:
            while not passes or time.perf_counter() - start < seconds:
                if tracer is not None:
                    tracer.pass_no = len(passes)
                passes.append(pipe.run_pass())
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        # Read before the checks run, so that only the program's stages count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = list(pipe.errors)
        if len({p.digest for p in passes}) != 1:
            failures.append("outputs differ between passes over the same inputs")
        if not pipe.errors:
            failures += checks.verify(w, work, passes[-1].evals)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(
        f"workload {w.name}, seed {seed}: {len(passes)} passes in {elapsed:.1f} s, "
        f"{len(pipe.calls)} operations, {len(pipe.errors)} failed, "
        f"{len(failures)} check failures; BLAS threads and --threads {THREADS}"
    )
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    e2e = end_to_end(pipe, passes, peak_rss_mb) if not pipe.errors else {}
    for name, unit in END_TO_END:
        if name in e2e:
            print(f"  {name:<34} {e2e[name]:>14.6g} {unit}")
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END if name in e2e}
    else:
        path = ROOT / ".bench_traces" / f"{w.name}-seed{seed}.json"
        tracer.write(path)
        layers = tracer.layer_metrics()
        if "pipeline_s" in e2e:
            layers["trace.pipeline_s"] = e2e["pipeline_s"]
        print(f"per layer, per pass ({len(tracer.spans)} spans written to {path.relative_to(ROOT)}):")
        for name in sorted(layers):
            print(f"  {name:<34} {layers[name]:>14.6g} {per_layer_unit(name)}")
        for name in sorted(set(tracing.BUSY) - set(layers)):
            print(f"  {name:<34} {'absent':>14} (not called on this workload)")
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in layers.items() if name not in WORKLOAD_SPECIFIC
        }
    print(json.dumps({
        "correct": not failures, "attempted": len(pipe.calls), "failed": len(pipe.errors),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, timeout=900).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
