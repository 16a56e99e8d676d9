"""Tests of the benchmark's checks: each accepts the program's output and
rejects a deliberately perturbed one. A check that never fails proves nothing.

Run with the program on the path:  PYTHONPATH=src python -m pytest benchmark
"""

from __future__ import annotations

import numpy as np
import pytest

import checks
from mkagg import (
    AggregateVector,
    DemocraticConfig,
    DescriptorSet,
    EmbeddingConfig,
    GmpConfig,
    NormalizeConfig,
    aggregate_democratic,
    aggregate_gmp,
    aggregate_sum,
    apply_chain,
    average_precision,
    embed_set,
    gmp_weights,
    gram,
    rank,
    rn_fit,
    sinkhorn_weights,
    train_codebook,
)
from mkagg.types import WeightVector


@pytest.fixture(scope="module")
def image():
    """A small image with a burst, plus a codebook trained on separate data."""
    rng = np.random.default_rng(5)
    words = rng.normal(size=(4, 8))
    train = np.repeat(words, 30, axis=0) + 0.01 * rng.normal(size=(120, 8))
    codebook = train_codebook(DescriptorSet(train), c=4, seed=0)
    burst = words[1] + 0.3 + 0.01 * rng.normal(size=(25, 8))
    points = np.vstack([words[rng.integers(4, size=40)] + 0.3 * rng.normal(size=(40, 8)), burst])
    points = points.astype(np.float32).astype(np.float64)
    return points, codebook, train.astype(np.float32).astype(np.float64)


def program_weights(points, codebook):
    embedded = embed_set(DescriptorSet(points), codebook, EmbeddingConfig("residual"))
    kern = gram(embedded)
    return embedded, {
        "sum": WeightVector(np.ones(embedded.n), "uniform"),
        "democratic": sinkhorn_weights(kern, DemocraticConfig(gamma=checks.GAMMA, n_iter=checks.N_ITER)),
        "gmp": gmp_weights(kern, GmpConfig(lam=checks.LAMBDA)),
    }


def pooled(embedded, method, weights):
    if method == "sum":
        return aggregate_sum(embedded).xi
    if method == "democratic":
        return aggregate_democratic(embedded, weights).xi
    return aggregate_gmp(embedded, weights).xi


def flipped(alpha: np.ndarray) -> np.ndarray:
    """The weights with the sign of the largest one flipped."""
    alpha = alpha.copy()
    i = int(np.argmax(alpha))
    alpha[i] = -alpha[i]
    return alpha


def test_assign_breaks_ties_toward_lowest_index():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    assert checks.assign(np.array([[0.0, 0.0], [-2.0, 0.0]]), centroids).tolist() == [0, 1]


@pytest.mark.parametrize("method", ["sum", "democratic", "gmp"])
def test_aggregate_reference_accepts_program_and_rejects_flipped_weight(image, method):
    points, codebook, _ = image
    embedded, weights = program_weights(points, codebook)
    ref = checks.reference_aggregates(points, codebook.centroids)[method]
    out = pooled(embedded, method, weights[method]).astype(np.float32).astype(np.float64)
    assert checks.compare("aggregate", out, ref) == []

    bad = embedded.phi @ flipped(weights[method].alpha)
    assert checks.compare("aggregate", bad, ref) != []


def test_gmp_identity_accepts_program_and_rejects_flipped_weight(image):
    points, codebook, _ = image
    embedded, weights = program_weights(points, codebook)
    centroids = codebook.centroids
    assignment = checks.assign(points, centroids)
    residuals = checks.unit_residuals(points, centroids, assignment)
    xi = pooled(embedded, "gmp", weights["gmp"]).astype(np.float32).astype(np.float64)
    assert checks.check_gmp_identity("gmp", xi, residuals, assignment, codebook.c) == []

    bad = embedded.phi @ flipped(weights["gmp"].alpha)
    assert checks.check_gmp_identity("gmp", bad, residuals, assignment, codebook.c) != []
    # Sum pooling is not a GMP output either.
    assert checks.check_gmp_identity("gmp", pooled(embedded, "sum", None), residuals, assignment, codebook.c) != []


def test_normalization_checks_reject_non_unit_and_wrong_length():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=64)
    rotation = np.linalg.qr(rng.normal(size=(64, 64)))[0]
    out = apply_chain(AggregateVector(raw), NormalizeConfig(0.5, rotation, 16)).xi
    out = out.astype(np.float32).astype(np.float64)
    ref = checks.normalize(raw, rotation, 16)
    assert checks.check_normalized("v", out, 16) == []
    assert checks.compare("v", out, ref) == []

    assert checks.check_normalized("v", 1.01 * out, 16) != []
    assert checks.check_normalized("v", np.append(out, 0.0), 16) != []
    assert checks.compare("v", checks.normalize(raw, None, 16), ref) != []


def test_rotation_check_accepts_rn_fit_and_rejects_swapped_or_skewed_rows():
    rng = np.random.default_rng(2)
    scales = np.linspace(3.0, 0.5, 12)
    data = rng.normal(size=(40, 12)) * scales
    rotation = rn_fit([AggregateVector(v) for v in data], max_eigvecs=6)
    rotation = rotation.astype(np.float32).astype(np.float64)
    assert checks.check_rotation("R", rotation, data, 6) == []

    swapped = rotation.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert checks.check_rotation("R", swapped, data, 6) != []
    skewed = rotation.copy()
    skewed[3] += 1e-3 * skewed[4]
    assert checks.check_rotation("R", skewed, data, 6) != []


def test_codebook_check_accepts_kmeans_and_rejects_wrong_or_duplicate_centroid(image):
    _, codebook, train = image
    centroids = codebook.centroids.astype(np.float32).astype(np.float64)
    assert checks.check_codebook("C", centroids, train, 4) == []

    moved = centroids.copy()
    moved[2] += 0.01
    assert checks.check_codebook("C", moved, train, 4) != []
    duplicate = centroids.copy()
    duplicate[3] = duplicate[0]
    assert checks.check_codebook("C", duplicate, train, 4) != []
    assert checks.check_codebook("C", centroids[:3], train, 4) != []


def test_eval_check_accepts_program_and_rejects_swapped_ranking():
    rng = np.random.default_rng(3)
    ids = [f"img{i:04d}" for i in range(12)]
    centers = rng.normal(size=(4, 16))
    vectors = np.repeat(centers, 3, axis=0) + 0.8 * rng.normal(size=(12, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    relevant = {q: {ids[j] for j in range(12) if j // 3 == i // 3 and j != i} for i, q in enumerate(ids)}
    junk = {ids[0]: {ids[5]}}

    index = [(i, AggregateVector(v, ("raw", "l2"))) for i, v in zip(ids, vectors)]
    rankings = {q: [i for i, _ in rank(vec, index)] for q, vec in index}

    def printed(rankings):
        aps = {
            q: average_precision(r, relevant[q], junk.get(q, frozenset()), exclude_id=q)
            for q, r in rankings.items()
        }
        lines = [f"{q}\t{ap:.6f}" for q, ap in aps.items()]
        return "\n".join(lines + [f"mAP\t{np.mean(list(aps.values())):.6f}"]) + "\n"

    ref = checks.reference_aps(ids, vectors, (relevant, junk))
    assert checks.check_eval("eval", printed(rankings), ref) == []

    # Swap a relevant item with the irrelevant one ranked right after it.
    query, pos = next(
        (q, j) for q, r in rankings.items() for j in range(len(r) - 1)
        if r[j] in relevant[q] and r[j + 1] not in relevant[q] | junk.get(q, set()) | {q}
    )
    swapped = dict(rankings)
    r = list(rankings[query])
    r[pos], r[pos + 1] = r[pos + 1], r[pos]
    swapped[query] = r
    assert checks.check_eval("eval", printed(swapped), ref) != []
