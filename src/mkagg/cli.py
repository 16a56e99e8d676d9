"""Command-line surface for the aggregation pipeline.

Exit codes: 0 success, 2 usage or precondition error, 3 data-format error,
4 numerical failure (Sinkhorn scaling failure, zero-vector normalization).
A NaN or infinity in the payload of a descriptor, codebook, vector or
rotation file exits 2: the file is well-formed, but its values fail a
precondition.
The argument parser is built once per process and reused by every ``main``
call. ``--threads`` and ``rn-fit --max-eigvecs`` are accepted for
compatibility and ignored: every stage runs in the calling thread, with BLAS
doing its own threading, and every row of a rotation gets the sign rule.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

import numpy as np

from . import matio, retrieval
from .democratic import DemocraticConfig, aggregate_democratic, aggregate_sum, sinkhorn_weights
from .embed import EmbeddingConfig, embed_set, train_codebook
from .gmp import GmpConfig, aggregate_gmp, gmp_weights
from .kernel import gram, parts
from .normalize import NormalizeConfig, apply_chain, l2_normalize, rn_fit
from .types import (
    AggregateVector,
    Codebook,
    DataFormatError,
    DescriptorSet,
    EmbeddedSet,
    NumericalError,
    WeightVector,
)


def _load_descriptors(path: str) -> DescriptorSet:
    mat, _ = matio.read_matrix_file(path, matio.MAGIC_DESCRIPTORS)
    return DescriptorSet(mat)


def _load_codebook(path: str) -> Codebook:
    mat, _ = matio.read_matrix_file(path, matio.MAGIC_CODEBOOK)
    return Codebook(mat)


def cmd_train_codebook(args) -> int:
    training = _load_descriptors(args.input)
    codebook = train_codebook(training, c=args.clusters, seed=args.seed)
    matio.write_matrix_file(args.output, matio.MAGIC_CODEBOOK, codebook.centroids)
    print(f"wrote {args.clusters} centroids to {args.output}")
    return 0


def _aggregate_one(embedded: EmbeddedSet, args) -> tuple[AggregateVector, WeightVector]:
    """Pool ``embedded`` by ``args.method``. Democratic weights are scaled one
    ``kernel.parts`` part at a time, since the scaling never mixes blocks: a
    packed part from its Gram, with the whole kernel's weights bit for bit,
    and a cell over the budget from its rows, equal up to rounding (a
    mostly-outer one still from its full n_k^2 clipped Gram, ROADMAP item 1).
    GMP builds no Gram."""
    if args.method == "sum":
        return aggregate_sum(embedded), WeightVector(np.ones(embedded.n), "uniform")
    if args.method == "democratic":
        cfg = DemocraticConfig(gamma=args.gamma, n_iter=args.iters)
        alpha = np.empty(embedded.n)
        for idx, part, packed in parts(embedded):
            alpha[idx] = sinkhorn_weights(gram(part) if packed else part, cfg).alpha
        weights = WeightVector(alpha, "democratic")
        return aggregate_democratic(embedded, weights), weights
    weights = gmp_weights(embedded, GmpConfig(lam=args.lam))
    return aggregate_gmp(embedded, weights), weights


def cmd_aggregate(args) -> int:
    descriptors = _load_descriptors(args.descriptors)
    codebook = _load_codebook(args.codebook)
    cfg = EmbeddingConfig(kind=args.embedding, normalize_residuals=args.normalize_residuals)
    embedded = embed_set(descriptors, codebook, cfg)
    aggregate, weights = _aggregate_one(embedded, args)
    matio.save_vector(args.output, aggregate.xi)
    if args.dump_weights:
        matio.write_text_file(args.dump_weights, retrieval.export_weights(embedded, weights))
    print(f"wrote {aggregate.dim}-dim {args.method} aggregate to {args.output}")
    return 0


def cmd_normalize(args) -> int:
    vec = matio.load_vector(args.input)
    # The rotation is passed as read (float32): the config keys its check on
    # those bytes and keeps only its float64 copy.
    cfg = NormalizeConfig(
        alpha_exponent=args.alpha,
        rotation=matio.read_matrix_file(args.rn, matio.MAGIC_ROTATION)[0] if args.rn else None,
        truncate_to=args.truncate,
    )
    out = apply_chain(AggregateVector(vec, ("raw",)), cfg)
    matio.save_vector(args.output, out.xi)
    print(f"wrote normalized vector ({' -> '.join(out.state)}) to {args.output}")
    return 0


def cmd_rn_fit(args) -> int:
    entries = retrieval.read_manifest(args.vectors)
    vectors = [AggregateVector(matio.load_vector(path), ("raw",)) for _, path in entries]
    rotation = rn_fit(vectors)
    matio.write_matrix_file(args.output, matio.MAGIC_ROTATION, rotation)
    # n centered vectors span at most n - 1 dimensions.
    principal = min(len(vectors) - 1, rotation.shape[0])
    print(
        f"wrote {rotation.shape[0]}x{rotation.shape[1]} rotation to {args.output} "
        f"(at most {principal} principal rows from {len(vectors)} training vectors)"
    )
    return 0


def _load_normalized(path: str) -> AggregateVector:
    # Vector files carry no normalization state; re-normalizing is idempotent
    # for already-unit vectors and makes raw aggregates comparable.
    vec = l2_normalize(matio.load_vector(path))
    return AggregateVector(vec, ("raw", "l2"))


def cmd_eval(args) -> int:
    index_entries = retrieval.read_manifest(args.index)
    query_entries = retrieval.read_manifest(args.queries)
    truth = retrieval.read_ground_truth(args.truth)
    # A ranking holds the whole index, so the relevant ids it misses are those
    # the index lacks; named per query here in place of the AP warning.
    index_ids = {item_id for item_id, _ in index_entries}
    for qid, _ in query_entries:
        relevant = truth.relevant.get(qid, frozenset())
        if not relevant <= index_ids:
            missing = relevant - index_ids - ({qid} if args.exclude_self else set())
            if missing:
                print(f"mkagg: warning: query {qid!r}: relevant id(s) {sorted(missing)} not in the index",
                      file=sys.stderr)

    index = [(item_id, _load_normalized(path)) for item_id, path in index_entries]
    queries = [(qid, _load_normalized(path)) for qid, path in query_entries]
    rankings = ((qid, [item_id for item_id, _ in retrieval.rank(vec, index)]) for qid, vec in queries)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"\d+ relevant id\(s\) missing from the ranking", UserWarning)
        aps = retrieval.query_average_precisions(rankings, truth, args.exclude_self)
    for (qid, _), ap in zip(queries, aps):
        print(f"{qid}\t{ap:.6f}")
    print(f"mAP\t{float(np.mean(aps)):.6f}")
    return 0


_DEMO_CLUSTER_ANGLES = np.linspace(np.deg2rad(80.0), np.deg2rad(100.0), 10)
_DEMO_DISTINCT_A = 0.0
_DEMO_DISTINCT_B = np.deg2rad(45.0)


def cmd_demo2d(args) -> int:
    """2-D toy: a tight cluster of descriptors plus one distinctive descriptor.

    Sum pooling lets the cluster dominate, so the two configurations end up
    nearly parallel; the weighted aggregations keep them distinguishable.
    """
    points = [("cluster", a) for a in _DEMO_CLUSTER_ANGLES]
    points += [("distinct_a", _DEMO_DISTINCT_A), ("distinct_b", _DEMO_DISTINCT_B)]
    lines = ["label\tx\ty"] + [f"{label}\t{np.cos(a):.12g}\t{np.sin(a):.12g}" for label, a in points]
    # The library's default settings, which are also ``aggregate``'s defaults.
    settings = dict(gamma=DemocraticConfig.gamma, iters=DemocraticConfig.n_iter, lam=GmpConfig.lam)
    for tag, angle in (("a", _DEMO_DISTINCT_A), ("b", _DEMO_DISTINCT_B)):
        angles = np.concatenate([_DEMO_CLUSTER_ANGLES, [angle]])
        embedded = EmbeddedSet(phi=np.stack([np.cos(angles), np.sin(angles)]))
        for method in ("sum", "democratic", "gmp"):
            xi = _aggregate_one(embedded, argparse.Namespace(method=method, **settings))[0].xi
            lines.append(f"{method}_{tag}\t{xi[0]:.12g}\t{xi[1]:.12g}")
    matio.write_text_file(args.output, "\n".join(lines) + "\n")
    print(f"wrote 2-D pooling demo to {args.output}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkagg", description="Descriptor-set aggregation and retrieval evaluation"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; ignored (every stage runs in one thread)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-codebook", help="k-means vocabulary from a descriptor file")
    p.add_argument("--input", required=True, help="MKDS descriptor file")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="MKCB output path")
    p.set_defaults(func=cmd_train_codebook)

    p = sub.add_parser("aggregate", help="embed a descriptor set and pool it into one vector")
    p.add_argument("--descriptors", required=True, help="MKDS descriptor file")
    p.add_argument("--codebook", required=True, help="MKCB codebook file")
    p.add_argument("--embedding", choices=("bow", "residual"), default="residual")
    p.add_argument(
        "--normalize-residuals", action=argparse.BooleanOptionalAction, default=True
    )
    p.add_argument("--method", choices=("sum", "democratic", "gmp"), default="sum")
    p.add_argument("--gamma", type=float, default=DemocraticConfig.gamma, help="Sinkhorn damping exponent")
    p.add_argument("--iters", type=int, default=DemocraticConfig.n_iter, help="Sinkhorn iteration count")
    p.add_argument("--lambda", dest="lam", type=float, default=GmpConfig.lam, help="ridge regularizer")
    p.add_argument("--output", required=True, help="MKVC output path")
    p.add_argument("--dump-weights", default=None, help="optional per-descriptor weight TSV")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("normalize", help="apply the normalization chain to an aggregate")
    p.add_argument("--input", required=True, help="MKVC input path")
    p.add_argument("--alpha", type=float, default=0.5, help="power-law exponent")
    p.add_argument("--rn", default=None, help="optional MKRT rotation file")
    p.add_argument("--truncate", type=int, default=None, help="keep the first D' components")
    p.add_argument("--output", required=True, help="MKVC output path")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("rn-fit", help="learn a PCA rotation from aggregated vectors")
    p.add_argument("--vectors", required=True, help="manifest of id<TAB>vector_file lines")
    p.add_argument("--max-eigvecs", type=int, help="accepted for compatibility; ignored (every row is signed)")
    p.add_argument("--output", required=True, help="MKRT output path")
    p.set_defaults(func=cmd_rn_fit)

    p = sub.add_parser("eval", help="rank queries against an index and report mAP")
    p.add_argument("--index", required=True, help="manifest of id<TAB>vector_file lines")
    p.add_argument("--queries", required=True, help="manifest of id<TAB>vector_file lines")
    p.add_argument("--truth", required=True, help="ground-truth TSV")
    p.add_argument("--exclude-self", action="store_true", help="drop the query from its ranking")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo2d", help="2-D pooling demo as a plottable TSV")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_demo2d)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"mkagg: data format error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"mkagg: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"mkagg: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"mkagg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
