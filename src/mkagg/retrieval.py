"""Ranking and mean-average-precision evaluation.

Ground truth distinguishes relevant items from junk items; junk ids are
deleted from a ranking before average precision is computed, and a flag
optionally removes the query itself from its own ranking.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .matio import write_text_file
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


def export_weights(
    embedded: EmbeddedSet,
    weights: WeightVector,
    positions: Sequence[tuple[float, float]] | None = None,
) -> str:
    """Per-descriptor TSV: index, weight, and contribution a_i * (K a)_i, read
    as a_i times the match phi_i . xi to the aggregate xi, so K is never built.
    ``positions`` optionally appends x/y columns for plotting weights.
    """
    n = embedded.n
    if positions is not None and len(positions) != n:
        raise ValueError(f"got {len(positions)} positions for {n} descriptors")

    contributions = weights.alpha * embedded.matches(embedded.pool(weights.alpha))
    lines = ["idx\tweight\tcontribution" + ("\tx\ty" if positions is not None else "")]
    for i in range(n):
        row = f"{i}\t{weights.alpha[i]:.12g}\t{contributions[i]:.12g}"
        if positions is not None:
            row += f"\t{positions[i][0]:.12g}\t{positions[i][1]:.12g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def read_ground_truth(path: str | Path) -> GroundTruth:
    """Parse `query_id<TAB>rel|junk<TAB>item_id` lines."""
    relevant: dict[str, set[str]] = {}
    junk: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            qid, tag, item = parts
            if tag == "rel":
                relevant.setdefault(qid, set()).add(item)
            elif tag == "junk":
                junk.setdefault(qid, set()).add(item)
            else:
                raise DataFormatError(f"{path}:{lineno}: tag must be 'rel' or 'junk', got {tag!r}")
    return GroundTruth(
        relevant={q: frozenset(s) for q, s in relevant.items()},
        junk={q: frozenset(s) for q, s in junk.items()},
    )


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    lines = [
        f"{qid}\t{tag}\t{item}\n"
        for tag, table in (("rel", truth.relevant), ("junk", truth.junk))
        for qid in sorted(table)
        for item in sorted(table[qid])
    ]
    write_text_file(path, "".join(lines))


def read_manifest(path: str | Path) -> list[tuple[str, str]]:
    """Parse an `id<TAB>vector_file_path` manifest of unique ids, keeping file order."""
    entries: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 2 tab-separated fields")
            if parts[0] in seen:
                raise DataFormatError(f"{path}:{lineno}: id {parts[0]!r} repeats line {seen[parts[0]]}")
            seen[parts[0]] = lineno
            entries.append((parts[0], parts[1]))
    return entries
