"""Minimization-sense Pareto dominance and exact non-dominated filtering.

Score vectors are plain float sequences; +inf is a legal sentinel meaning
"worst possible" (for example, a skill the candidate does not offer). NaN is
rejected. The front filter sorts the points lexicographically (Kung, Luccio &
Preparata, "On finding the maxima of a set of vectors", JACM 1975), then
sweeps them by forward elimination (as in LESS: Godfrey, Shipley & Gryz,
"Maximal Vector Computation in Large Data Sets", VLDB 2005): the rows of the
next block that no row of that block dominates are on the front, and every
later row one of them dominates is dropped before the next block is taken.
Memory stays at a few block x (surviving rows) boolean matrices.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

Key = TypeVar("Key")

_BLOCK = 48


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff `a` is no worse than `b` everywhere and strictly better somewhere."""
    if len(a) != len(b):
        raise ValueError(f"score vectors differ in length: {len(a)} vs {len(b)}")
    strictly_better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


def pareto_front(items: Iterable[tuple[Key, Sequence[float]]]) -> list[Key]:
    """Keys of the non-dominated items, in input order.

    Items carrying identical vectors never dominate each other, so duplicates
    are all retained.
    """
    entries = list(items)
    if not entries:
        raise ValueError("cannot take the Pareto front of an empty population")
    length = len(entries[0][1])
    for key, vector in entries:
        if len(vector) != length:
            raise ValueError(f"score vector for {key!r} has length {len(vector)}, expected {length}")
    if length == 0:
        return [key for key, _ in entries]
    points = np.array([vector for _, vector in entries], dtype=float)
    nan_rows = np.flatnonzero(np.isnan(points).any(axis=1))
    if nan_rows.size:
        raise ValueError(f"score vector for {entries[nan_rows[0]][0]!r} contains NaN")

    return [entries[i][0] for i in _front_rows(points).tolist()]


def _dominated(rivals: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each column of `rows`, whether some column of `rivals` dominates it.

    Both hold one point per column. One (rivals x rows) comparison per
    coordinate: reducing over a short trailing coordinate axis is several
    times slower.
    """
    no_worse = np.ones((rivals.shape[1], rows.shape[1]), dtype=bool)
    better = np.zeros_like(no_worse)
    for theirs, mine in zip(rivals[:, :, None], rows):
        no_worse &= theirs <= mine
        better |= theirs < mine
    return (no_worse & better).any(axis=0)


def _front_rows(points: np.ndarray) -> np.ndarray:
    """Ascending row indices of the non-dominated rows of a NaN-free 2-D array.

    The sweep behind `pareto_front`, for callers that already hold the scores
    as one matrix; it checks nothing. The rows are sorted lexicographically,
    then taken `_BLOCK` survivors at a time: the block's rows that no other
    row of the block dominates are on the front, and every later row that
    one of them dominates is dropped.
    """
    # A dominating point is lexicographically smaller, so it sorts earlier;
    # by transitivity a dominated point is also dominated by a front point,
    # which sits in an earlier block (and dropped it) or in its own block.
    # Equal rows never dominate each other, so duplicates all survive.
    order = np.lexsort(points.T[::-1])
    columns = points[order].T
    kept = [np.empty(0, dtype=np.intp)]
    while order.size:
        block = columns[:, :_BLOCK]
        winners = ~_dominated(block, block)
        kept.append(order[:_BLOCK][winners])
        if order.size <= _BLOCK:
            break
        alive = ~_dominated(block[:, winners], columns[:, _BLOCK:])
        order = order[_BLOCK:][alive]
        columns = columns[:, _BLOCK:][:, alive]
    return np.sort(np.concatenate(kept))
