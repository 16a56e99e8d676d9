"""Ranking and mean-average-precision evaluation.

Ground truth distinguishes relevant items from junk items; junk ids are
deleted from a ranking before average precision is computed, and a flag
optionally removes the query itself from its own ranking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .normalize import similarity
from .types import AggregateVector, DataFormatError, EmbeddedSet, WeightVector


@dataclass(frozen=True)
class GroundTruth:
    """Per-query relevant and junk id sets."""

    relevant: Mapping[str, frozenset[str]]
    junk: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        relevant = {q: frozenset(ids) for q, ids in self.relevant.items()}
        junk = {q: frozenset(ids) for q, ids in self.junk.items()}
        for q, rel in relevant.items():
            overlap = rel & junk.get(q, frozenset())
            if overlap:
                raise ValueError(f"query {q!r}: ids {sorted(overlap)} are both relevant and junk")
        object.__setattr__(self, "relevant", relevant)
        object.__setattr__(self, "junk", junk)


def rank(
    query: AggregateVector, index: Sequence[tuple[str, AggregateVector]]
) -> list[tuple[str, float]]:
    """Score the index against the query, best first; ties break by ascending id."""
    scored = [(item_id, similarity(query, vec)) for item_id, vec in index]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def average_precision(
    ranked_ids: Sequence[str],
    relevant: frozenset[str] | set[str],
    junk: frozenset[str] | set[str] = frozenset(),
    exclude_id: str | None = None,
) -> float:
    """AP of one ranking: precision at each relevant hit, averaged over all
    relevant items (missing relevant items count against the score)."""
    effective = set(relevant)
    if exclude_id is not None:
        effective.discard(exclude_id)
    if not effective:
        raise ValueError("query has no relevant items")

    filtered = [i for i in ranked_ids if i not in junk and i != exclude_id]
    seen = set(filtered)
    missing = effective - seen
    if missing:
        warnings.warn(f"{len(missing)} relevant id(s) missing from the ranking", stacklevel=2)

    hits = 0
    total = 0.0
    for pos, item in enumerate(filtered, start=1):
        if item in effective:
            hits += 1
            total += hits / pos
    return total / len(effective)


def query_average_precisions(
    rankings: Iterable[tuple[str, Sequence[str]]], truth: GroundTruth, exclude_self: bool = False
) -> list[float]:
    """AP of each (query id, ranked ids) pair, in order: junk removed, and the
    query's own id too with ``exclude_self``. ``rankings`` may be a generator,
    so each ranking is made only when its AP is taken."""
    aps = [
        average_precision(
            ranked,
            truth.relevant.get(qid, frozenset()),
            truth.junk.get(qid, frozenset()),
            exclude_id=qid if exclude_self else None,
        )
        for qid, ranked in rankings
    ]
    if not aps:
        raise ValueError("no queries to evaluate")
    return aps


def mean_average_precision(
    rankings: Mapping[str, Sequence[str]], truth: GroundTruth, exclude_self: bool = False
) -> float:
    """Mean of the per-query APs of ``query_average_precisions``."""
    return float(np.mean(query_average_precisions(rankings.items(), truth, exclude_self)))


def export_weights(embedded: EmbeddedSet, weights: WeightVector) -> str:
    """Per-descriptor TSV: index, weight, and contribution a_i * (K a)_i, read
    as a_i times the match phi_i . xi to the aggregate xi, so K is never built.
    """
    contributions = weights.alpha * embedded.matches(embedded.pool(weights.alpha))
    lines = ["idx\tweight\tcontribution"]
    for i in range(embedded.n):
        lines.append(f"{i}\t{weights.alpha[i]:.12g}\t{contributions[i]:.12g}")
    return "\n".join(lines) + "\n"


def _tsv_lines(path: str | Path, fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each nonblank line, which must have ``fields`` tab-separated fields."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise DataFormatError(f"{path}:{lineno}: expected {fields} tab-separated fields")
            yield lineno, parts


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Parse `query_id<TAB>rel|junk<TAB>item_id` lines."""
    relevant: dict[str, set[str]] = {}
    junk: dict[str, set[str]] = {}
    for lineno, (qid, tag, item) in _tsv_lines(path, 3):
        if tag == "rel":
            relevant.setdefault(qid, set()).add(item)
        elif tag == "junk":
            junk.setdefault(qid, set()).add(item)
        else:
            raise DataFormatError(f"{path}:{lineno}: tag must be 'rel' or 'junk', got {tag!r}")
    return GroundTruth(relevant=relevant, junk=junk)


def read_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Parse an `id<TAB>vector_file_path` manifest of unique ids, keeping file order."""
    entries: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    for lineno, (item_id, vector_path) in _tsv_lines(path, 2):
        if item_id in seen:
            raise DataFormatError(f"{path}:{lineno}: id {item_id!r} repeats line {seen[item_id]}")
        seen[item_id] = lineno
        entries.append((item_id, vector_path))
    return entries
