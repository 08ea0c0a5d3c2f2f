"""Minimization-sense Pareto dominance and exact non-dominated filtering.

Score vectors are plain float sequences; +inf is a legal sentinel meaning
"worst possible" (for example, a skill the candidate does not offer). NaN is
rejected. The front filter sorts the points lexicographically and sweeps them
in blocks (Kung, Luccio & Preparata, "On finding the maxima of a set of
vectors", JACM 1975): a point can only be dominated by a lexicographically
smaller one, so each block is tested against the front found so far plus
itself. Memory stays at a few (front + block) x block boolean matrices.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

Key = TypeVar("Key")

_BLOCK = 128


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

    # A dominating point is lexicographically smaller, so it sorts earlier;
    # by transitivity a dominated point is also dominated by a front point.
    order = np.lexsort(points.T[::-1])
    columns = points[order].T
    front = np.empty(0, dtype=np.intp)
    for start in range(0, len(order), _BLOCK):
        block = columns[:, start : start + _BLOCK]
        rivals = np.concatenate((columns[:, front], block), axis=1)
        # one (rivals x block) comparison per coordinate: reducing over a
        # short trailing coordinate axis is several times slower
        no_worse = np.ones((rivals.shape[1], block.shape[1]), dtype=bool)
        better = np.zeros_like(no_worse)
        for theirs, mine in zip(rivals[:, :, None], block):
            no_worse &= theirs <= mine
            better |= theirs < mine
        dominated = (no_worse & better).any(axis=0)
        front = np.concatenate((front, start + np.flatnonzero(~dominated)))
    return [entries[i][0] for i in np.sort(order[front]).tolist()]
