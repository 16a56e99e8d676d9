"""Reference and property checks of the pipeline's outputs, in plain numpy.

The references re-derive every output from the inputs by the documented
method, without calling the program: nearest centroid by the direct squared
distance (lowest index wins a tie), normalized residuals, the per-centroid
Gram, the damped Sinkhorn loop of ``democratic.py``, GMP as a direct solve per
block, the normalization chain, and mAP from one GEMM of cosines. The
property checks hold for the method itself, whatever the implementation:
GMP's constant-match identity, unit-norm truncated vectors, an orthonormal
rotation led by the principal directions, and a codebook that is a Lloyd
fixed point of its training set.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import mkfile
from workloads import METHODS, Workload, image_ids

# Method constants the benchmark passes to the CLI.
GAMMA = 0.3
N_ITER = 10
LAMBDA = 1.0
ALPHA = 0.5

# Outputs are float32 files; the references run in float64. An output value
# passes when |out - ref| <= RTOL*|ref| + ATOL*max|ref|: RTOL covers the
# float32 rounding (2^-24), ATOL the solver tolerance and summation order.
RTOL = 1e-6
ATOL = 1e-6
AP_TOL = 1e-6  # APs are printed with six decimals
GMP_TOL = 1e-5  # relative residual of the GMP identity per block
ORTHO_TOL = 1e-5
LEAD_GAP = 1e-6  # eigen-gaps, relative to the largest, below which a direction is not unique
LEAD_TOL = 1e-4
CENTROID_TOL = 1e-6

_CHUNK = 256


# ---------------------------------------------------------------- references

def assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by the direct squared distance; ties go to the lowest index."""
    out = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), _CHUNK):
        diff = points[start : start + _CHUNK, None, :] - centroids[None, :, :]
        out[start : start + _CHUNK] = np.argmin((diff * diff).sum(axis=2), axis=1)
    return out


def unit_residuals(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Descriptor minus its centroid, scaled to unit length; a zero residual stays zero."""
    res = points - centroids[assignment]
    norms = np.linalg.norm(res, axis=1)
    res[norms > 0] /= norms[norms > 0, None]
    return res


def blocks(residuals: np.ndarray, assignment: np.ndarray, c: int):
    """(cell, indices, Gram block) per nonempty centroid cell: K_k = R_k R_k^T."""
    out = []
    for k in range(c):
        idx = np.flatnonzero(assignment == k)
        if idx.size:
            out.append((k, idx, residuals[idx] @ residuals[idx].T))
    return out


def sinkhorn(kern: np.ndarray, gamma: float = GAMMA, n_iter: int = N_ITER) -> np.ndarray:
    """Clip negatives, then n_iter damped steps a_i /= sigma_i^gamma with sigma = a * (K a)."""
    kern = np.maximum(kern, 0.0)
    alpha = np.ones(len(kern))
    active = np.abs(kern).sum(axis=1) > 0
    for _ in range(n_iter):
        sigma = alpha * (kern @ alpha)
        alpha[active] /= sigma[active] ** gamma
    return alpha


def gmp(kern: np.ndarray, lam: float = LAMBDA) -> np.ndarray:
    return np.linalg.solve(kern + lam * np.eye(len(kern)), np.ones(len(kern)))


def weights(method: str, kern: np.ndarray) -> np.ndarray:
    if method == "sum":
        return np.ones(len(kern))
    return sinkhorn(kern) if method == "democratic" else gmp(kern)


def reference_aggregates(points: np.ndarray, centroids: np.ndarray) -> dict[str, np.ndarray]:
    """The sum, democratic and GMP aggregates of one image: xi_k = w_k^T R_k per block."""
    c, d = centroids.shape
    assignment = assign(points, centroids)
    res = unit_residuals(points, centroids, assignment)
    out = {m: np.zeros(c * d) for m in METHODS}
    for k, idx, kern in blocks(res, assignment, c):
        for m in METHODS:
            out[m][k * d : (k + 1) * d] = weights(m, kern) @ res[idx]
    return out


def normalize(x: np.ndarray, rotation: np.ndarray | None, truncate: int | None, alpha: float = ALPHA):
    """Rotation, signed power law, truncation, l2."""
    if rotation is not None:
        x = rotation @ x
    x = np.sign(x) * np.abs(x) ** alpha
    if truncate is not None:
        x = x[:truncate]
    return x / np.linalg.norm(x)


def average_precision(ranked: list[str], relevant: set[str], junk: set[str], exclude: str | None) -> float:
    relevant = relevant - {exclude}
    hits, total = 0, 0.0
    pos = 0
    for item in ranked:
        if item in junk or item == exclude:
            continue
        pos += 1
        if item in relevant:
            hits += 1
            total += hits / pos
    return total / len(relevant)


def reference_aps(ids: list[str], vectors: np.ndarray, truth) -> dict[str, float]:
    """AP of every id as a query against all ids, self excluded.

    Scores are one GEMM of cosines; a ranking orders by score, then by id.
    """
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    scores = unit @ unit.T
    id_rank = np.argsort(np.argsort(np.array(ids)))
    relevant, junk = truth
    aps = {}
    for q, qid in enumerate(ids):
        order = np.lexsort((id_rank, -scores[q]))
        ranked = [ids[j] for j in order]
        aps[qid] = average_precision(ranked, relevant.get(qid, set()), junk.get(qid, set()), qid)
    return aps


# ---------------------------------------------------------------- comparisons

def compare(what: str, out: np.ndarray, ref: np.ndarray) -> list[str]:
    if out.shape != ref.shape:
        return [f"{what}: shape {out.shape}, reference {ref.shape}"]
    bound = RTOL * np.abs(ref) + ATOL * np.max(np.abs(ref))
    err = np.abs(out - ref)
    if np.all(err <= bound):
        return []
    i = int(np.argmax(err - bound))
    return [f"{what}: element {i} is {out[i]:.9g}, reference {ref[i]:.9g}"]


def check_gmp_identity(what: str, xi: np.ndarray, residuals, assignment, c: int, lam: float = LAMBDA):
    """GMP property: with alpha_i := (1 - phi_i . xi) / lam, xi = sum_i alpha_i phi_i.

    This is phi_i . xi = 1 - lam * alpha_i for the weights that build xi,
    checked per block against the scale of Phi_k 1 / lam.
    """
    d = residuals.shape[1]
    for k in range(c):
        idx = np.flatnonzero(assignment == k)
        if idx.size == 0:
            continue
        r = residuals[idx]
        xi_k = xi[k * d : (k + 1) * d]
        alpha = (1.0 - r @ xi_k) / lam
        scale = np.linalg.norm(r.sum(axis=0)) / lam
        gap = np.linalg.norm(alpha @ r - xi_k)
        if gap > GMP_TOL * scale:
            return [f"{what}: block {k} misses phi.xi = 1 - lambda*alpha by {gap:.3e} (scale {scale:.3e})"]
    return []


def check_normalized(what: str, v: np.ndarray, length: int) -> list[str]:
    if v.shape != (length,):
        return [f"{what}: length {v.size}, expected {length}"]
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-6:
        return [f"{what}: norm {norm:.9f}, expected 1"]
    return []


def check_rotation(what: str, rotation: np.ndarray, training: np.ndarray, n_lead: int) -> list[str]:
    """Orthonormal, and the leading rows are the principal directions up to sign.

    The reference directions come from an eigendecomposition of the
    covariance; a row is compared only where its eigenvalue is separated from
    its neighbours, since elsewhere the direction is not unique.
    """
    dim = training.shape[1]
    if rotation.shape != (dim, dim):
        return [f"{what}: shape {rotation.shape}, expected {(dim, dim)}"]
    dev = np.max(np.abs(rotation.T @ rotation - np.eye(dim)))
    if dev > ORTHO_TOL:
        return [f"{what}: not orthonormal, |R^T R - I| reaches {dev:.3e}"]
    centered = training - training.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    n_lead = min(n_lead, len(training) - 1, dim)
    for j in range(n_lead):
        neighbours = [evals[j - 1] - evals[j]] if j else []
        neighbours.append(evals[j] - evals[j + 1])
        if min(neighbours) <= LEAD_GAP * evals[0]:
            continue
        match = abs(float(rotation[j] @ evecs[:, j]))
        if match < 1.0 - LEAD_TOL:
            return [f"{what}: row {j} is not principal direction {j} (|cos| = {match:.6f})"]
    return []


def check_codebook(what: str, centroids: np.ndarray, training: np.ndarray, c: int) -> list[str]:
    """c distinct finite centroids, and a Lloyd step on the training set moves none."""
    if centroids.shape != (c, training.shape[1]):
        return [f"{what}: shape {centroids.shape}, expected {(c, training.shape[1])}"]
    if not np.all(np.isfinite(centroids)):
        return [f"{what}: non-finite centroid"]
    if len(np.unique(centroids, axis=0)) != c:
        return [f"{what}: duplicated centroids"]
    assignment = assign(training, centroids)
    counts = np.bincount(assignment, minlength=c)
    if np.any(counts == 0):
        return [f"{what}: centroid {int(np.argmin(counts))} owns no training point"]
    means = np.zeros_like(centroids)
    np.add.at(means, assignment, training)
    means /= counts[:, None]
    moved = np.max(np.abs(means - centroids), axis=1)
    worst = int(np.argmax(moved))
    if moved[worst] > CENTROID_TOL * np.max(np.abs(centroids)):
        return [f"{what}: a Lloyd step moves centroid {worst} by {moved[worst]:.3e}"]
    return []


def parse_eval(stdout: str) -> tuple[dict[str, float], float | None]:
    aps, mean = {}, None
    for line in stdout.splitlines():
        key, _, value = line.partition("\t")
        if key == "mAP":
            mean = float(value)
        elif value:
            aps[key] = float(value)
    return aps, mean


def read_truth(path: Path):
    relevant: dict[str, set[str]] = {}
    junk: dict[str, set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, tag, item = line.split("\t")
        (relevant if tag == "rel" else junk).setdefault(qid, set()).add(item)
    return relevant, junk


def check_eval(what: str, stdout: str, ref: dict[str, float]) -> list[str]:
    aps, mean = parse_eval(stdout)
    if set(aps) != set(ref):
        return [f"{what}: printed APs for {len(aps)} queries, expected {len(ref)}"]
    for qid, ap in ref.items():
        if abs(aps[qid] - ap) > AP_TOL:
            return [f"{what}: AP of {qid} is {aps[qid]:.6f}, reference {ap:.6f}"]
    ref_map = float(np.mean(list(ref.values())))
    if mean is None or abs(mean - ref_map) > AP_TOL:
        return [f"{what}: mAP is {mean}, reference {ref_map:.6f}"]
    return []


# ---------------------------------------------------------------- whole run

def verify(w: Workload, work: Path, eval_stdout: dict[str, str]) -> list[str]:
    """Check every output file of a pass and every printed AP and mAP."""
    failures: list[str] = []
    training = mkfile.read(work / "train.mkds", b"MKDS")
    centroids = mkfile.read(work / "codebook.mkcb", b"MKCB")
    failures += check_codebook("codebook", centroids, training, w.c)
    if failures:
        return failures

    ids = image_ids(w)
    raw = {m: np.zeros((len(ids), w.c * w.d)) for m in METHODS}
    for n, image in enumerate(ids):
        points = mkfile.read(work / "img" / f"{image}.mkds", b"MKDS")
        ref = reference_aggregates(points, centroids)
        for m in METHODS:
            raw[m][n] = mkfile.read_vector(work / "agg" / m / f"{image}.mkvc")
            failures += compare(f"aggregate {m} {image}", raw[m][n], ref[m])
        assignment = assign(points, centroids)
        failures += check_gmp_identity(
            f"aggregate gmp {image}", raw["gmp"][n],
            unit_residuals(points, centroids, assignment), assignment, w.c,
        )

    truth = read_truth(work / "truth.tsv")
    length = w.truncate or w.c * w.d
    for m in METHODS:
        rotation = None
        if w.uses_rotation:
            rotation = mkfile.read(work / f"rotation_{m}.mkrt", b"MKRT")
            failures += check_rotation(f"rotation {m}", rotation, raw[m], w.truncate)
        normed = np.zeros((len(ids), length))
        for n, image in enumerate(ids):
            normed[n] = mkfile.read_vector(work / "norm" / m / f"{image}.mkvc")
            what = f"normalize {m} {image}"
            failures += check_normalized(what, normed[n], length)
            failures += compare(what, normed[n], normalize(raw[m][n], rotation, w.truncate))
        failures += check_eval(f"eval {m}", eval_stdout[m], reference_aps(ids, normed, truth))
    return failures
