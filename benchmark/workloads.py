"""Workloads of the pipeline benchmark and their seeded input generator.

The generator is the benchmark's own: the program under test only ever sees
the files written here, and the same seed always writes the same files.
Run as a script to write one workload's inputs into a directory:

    python3 benchmark/workloads.py --workload spread --seed 1 --out DIR

Every image is a mixture of four kinds of descriptor, all built around
"visual words" (nonnegative unit vectors drawn per seed):

  * views of its group's object: fixed keypoints near the words, seen with a
    little noise; images of one group share them, which defines relevance;
  * bursts: hundreds to thousands of near-duplicates of one point that is
    offset from a word, as repeated texture produces in real images. The
    image at position j of every group carries the same bursts, in cells no
    other position uses: a texture shared by unrelated images, which sum
    pooling mistakes for a match;
  * a shared burst: the same offset point in every image of the workload;
  * background: loose noise around uniformly chosen words.

Sizes, shares and the number of descriptors per image are fixed per
workload and do not depend on the seed, so the work per run is the same for
every seed; only the positions of the points change.
"""

from __future__ import annotations

import argparse
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mkfile

METHODS = ("sum", "democratic", "gmp")

# Distances, as expected noise norms; the words are unit vectors whose
# pairwise distances are about 1.1 at d=128.
TRAIN_NOISE = 0.01  # tight, so k-means finds the words in a few Lloyd steps
BACKGROUND_NOISE = 0.35
KEYPOINT_OFFSET = 0.35
VIEW_NOISE = 0.08
BURST_OFFSET = 0.3
BURST_JITTER = 0.02
VISIBLE = 0.75  # share of its object's keypoints a core view sees
JUNK_VISIBLE = 0.25  # a junk member is a partial view: a third of a core view


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    c: int
    n_images: int
    group_size: int  # core images, relevant to each other
    junk_per_group: int  # extra partial views, junk for the core queries
    desc_range: tuple[int, int]  # descriptors per image, spread over this range
    train_per_word: int  # codebook training descriptors per word
    object_share: float
    burst_shares: tuple[float, ...]  # bursts per image, each in its own cell
    shared_burst_share: float
    truncate: int | None = None  # set: rn-fit a rotation, normalize with --rn
    # Rounds of normalize and eval per pass. Where those stages take a few
    # milliseconds, one round gives too few samples to time them steadily.
    rounds: int = 1

    @property
    def uses_rotation(self) -> bool:
        return self.truncate is not None


WORKLOADS = {
    w.name: w
    for w in (
        # Embedding-bound: many small blocks, a dense phi of 8192 x 2000 per image.
        Workload(
            name="spread",
            d=128, c=64, n_images=4, group_size=2, junk_per_group=0,
            desc_range=(2000, 2000), train_per_word=48,
            object_share=0.1, burst_shares=(), shared_burst_share=0.0, rounds=6,
        ),
        # Kernel- and solver-bound: three bursts of 1000-1600 near-duplicates per image.
        Workload(
            name="bursty",
            d=128, c=16, n_images=4, group_size=2, junk_per_group=0,
            desc_range=(5000, 5000), train_per_word=200,
            object_share=0.2, burst_shares=(0.32, 0.26, 0.2), shared_burst_share=0.0,
            rounds=6,
        ),
        # Normalization-, ranking- and I/O-bound: many small files at D=512.
        Workload(
            name="retrieval",
            d=64, c=8, n_images=120, group_size=3, junk_per_group=1,
            desc_range=(100, 200), train_per_word=200,
            object_share=0.65, burst_shares=(), shared_burst_share=0.25,
            truncate=128,
        ),
    )
}


def _noise(rng: np.random.Generator, shape: tuple[int, int], norm: float) -> np.ndarray:
    return rng.normal(scale=norm / math.sqrt(shape[1]), size=shape)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _offset_points(rng, words: np.ndarray, cells) -> np.ndarray:
    return words[cells] + BURST_OFFSET * _unit(rng.normal(size=(len(cells), words.shape[1])))


def image_ids(w: Workload) -> list[str]:
    return [f"img{i:04d}" for i in range(w.n_images)]


def descriptor_count(w: Workload, i: int) -> int:
    lo, hi = w.desc_range
    return lo + (37 * i) % (hi - lo + 1)


def groups(w: Workload) -> list[tuple[list[int], list[int]]]:
    """(core, junk) image indices of each group; a short last group is allowed."""
    size = w.group_size + w.junk_per_group
    out = []
    for start in range(0, w.n_images, size):
        members = list(range(start, min(start + size, w.n_images)))
        out.append((members[: w.group_size], members[w.group_size :]))
    return out


def generate(w: Workload, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    out.mkdir(parents=True, exist_ok=True)
    (out / "img").mkdir(exist_ok=True)
    for sub in ("agg", "norm"):
        for method in METHODS:
            (out / sub / method).mkdir(parents=True, exist_ok=True)

    words = _unit(rng.gamma(0.5, size=(w.c, w.d)))
    train = np.repeat(words, w.train_per_word, axis=0)
    train += _noise(rng, train.shape, TRAIN_NOISE)
    mkfile.write(out / "train.mkds", b"MKDS", train[rng.permutation(len(train))])

    ids = image_ids(w)
    max_view = max(descriptor_count(w, i) for i in range(w.n_images)) * w.object_share
    n_keypoints = math.ceil(max_view / VISIBLE)
    positions = w.group_size + w.junk_per_group
    n_bursts = len(w.burst_shares)
    cells = rng.permutation(w.c)
    if positions * n_bursts + 1 > w.c:
        raise ValueError(f"{w.name}: {positions}x{n_bursts} bursts do not fit in {w.c} cells")
    shared_center = _offset_points(rng, words, cells[-1:])[0]
    burst_centers = [
        _offset_points(rng, words, cells[j * n_bursts : (j + 1) * n_bursts]) for j in range(positions)
    ]
    truth_lines = []
    for core, junk in groups(w):
        keypoints = words[rng.integers(w.c, size=n_keypoints)]
        keypoints = keypoints + _noise(rng, keypoints.shape, KEYPOINT_OFFSET)
        for position, i in enumerate(core + junk):
            n = descriptor_count(w, i)
            visible = VISIBLE if i in core else JUNK_VISIBLE
            n_view = round(n * w.object_share * visible / VISIBLE)
            view = keypoints[rng.choice(n_keypoints, size=n_view, replace=False)]
            parts = [view + _noise(rng, view.shape, VIEW_NOISE)]
            parts += [
                center + _noise(rng, (round(n * share), w.d), BURST_JITTER)
                for center, share in zip(burst_centers[position], w.burst_shares)
            ]
            n_shared = round(n * w.shared_burst_share)
            parts.append(shared_center + _noise(rng, (n_shared, w.d), BURST_JITTER))
            n_background = n - sum(len(p) for p in parts)
            background = words[rng.integers(w.c, size=n_background)]
            parts.append(background + _noise(rng, background.shape, BACKGROUND_NOISE))
            desc = np.vstack(parts)
            mkfile.write(out / "img" / f"{ids[i]}.mkds", b"MKDS", desc[rng.permutation(n)])

            relevant = core if i in junk else [j for j in core if j != i]
            truth_lines += [f"{ids[i]}\trel\t{ids[j]}\n" for j in relevant]
            if i in core:
                truth_lines += [f"{ids[i]}\tjunk\t{ids[j]}\n" for j in junk]

    (out / "truth.tsv").write_text("".join(truth_lines), encoding="utf-8")
    root = out.resolve()
    for method in METHODS:
        for sub in ("agg", "norm"):
            lines = [f"{i}\t{root / sub / method / i}.mkvc\n" for i in ids]
            (out / f"{sub}_{method}.tsv").write_text("".join(lines), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
