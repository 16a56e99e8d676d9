"""SHA-256 digests of every output one benchmark pass writes, per output kind.

Writes a workload's inputs with the benchmark's own generator, runs one pass
of ``benchmark/run.py``'s ``Pipeline`` against the ``mkagg`` package under
``--tree``'s ``src/``, and prints one digest per output kind: the codebook,
the rotations, the aggregates, the normalized vectors and the printed
``eval`` output. Two trees give the same outputs exactly when they print the
same lines, so a change is checked to be byte-identical by running this on
both and comparing:

    python3 tools/output_digest.py --tree . --workload all --seed 1 2 3 > change.txt
    python3 tools/output_digest.py --tree ../parent --workload all --seed 1 2 3 > parent.txt
    diff parent.txt change.txt

The benchmark code comes from this checkout's ``benchmark/``, which is only
read; each tree is run in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
from workloads import WORKLOADS, generate  # noqa: E402


def load_cli(tree: Path):
    """Import ``mkagg.cli`` from ``tree/src`` and nowhere else."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from mkagg import cli

    if Path(cli.__file__).resolve().parent != src / "mkagg":
        raise SystemExit(f"output_digest: mkagg imported from {cli.__file__}, not from {src}")
    return cli


def _files_digest(paths) -> str:
    h = hashlib.sha256()
    for path, name in paths:
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digests(cli, workload: str, seed: int) -> dict[str, str]:
    """Run one pass of ``workload`` at ``seed`` and digest its outputs by kind."""
    with tempfile.TemporaryDirectory(prefix="mkagg-digest-") as tmp:
        work = Path(tmp)
        generate(WORKLOADS[workload], seed, work)
        pipe = run.Pipeline(cli, WORKLOADS[workload], work, tracer=None)
        printed = pipe.run_pass().printed
        if pipe.errors:
            raise SystemExit(f"output_digest: {workload} seed {seed}: " + "; ".join(pipe.errors))

        def files(pattern: str):
            return [(p, p.relative_to(work).as_posix()) for p in sorted(work.glob(pattern))]

        out = {
            "codebook": _files_digest(files("codebook.mkcb")),
            "rotations": _files_digest(files("rotation_*.mkrt")),
            "aggregates": _files_digest(files("agg/*/*.mkvc")),
            "normalized": _files_digest(files("norm/*/*.mkvc")),
        }
        out["eval"] = hashlib.sha256("\0".join(printed).encode()).hexdigest()
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True, help="checkout whose src/mkagg is run")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args()
    cli = load_cli(args.tree)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        for seed in args.seed:
            for kind, digest in digests(cli, workload, seed).items():
                print(f"{workload}\tseed {seed}\t{kind}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
