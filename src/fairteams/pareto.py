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


def _dominated(
    rivals: np.ndarray, rows: np.ndarray, rival_runs: np.ndarray, row_runs: np.ndarray
) -> np.ndarray:
    """For each column of `rows`, whether some column of `rivals` dominates it.

    Both hold one point per column, and each point's run: equal points, and
    only they, share a run. A rival no worse than a row everywhere dominates
    it unless the two are equal. One (rivals x rows) comparison per
    coordinate: reducing over a short trailing coordinate axis is several
    times slower.
    """
    no_worse = rivals[0][:, None] <= rows[0]
    for theirs, mine in zip(rivals[1:, :, None], rows[1:]):
        no_worse &= theirs <= mine
    return (no_worse & (rival_runs[:, None] != row_runs)).any(axis=0)


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
    # Equal rows sort next to each other, into one run, and never dominate
    # each other, so duplicates all survive.
    order = np.lexsort(points.T[::-1])
    columns = points[order].T
    runs = np.cumsum(np.concatenate(([0], (columns[:, 1:] != columns[:, :-1]).any(axis=0))))
    kept = [np.empty(0, dtype=np.intp)]
    while order.size:
        block, block_runs = columns[:, :_BLOCK], runs[:_BLOCK]
        winners = ~_dominated(block, block, block_runs, block_runs)
        kept.append(order[:_BLOCK][winners])
        if order.size <= _BLOCK:
            break
        later = columns[:, _BLOCK:]
        alive = ~_dominated(block[:, winners], later, block_runs[winners], runs[_BLOCK:])
        order, columns, runs = order[_BLOCK:][alive], later[:, alive], runs[_BLOCK:][alive]
    return np.sort(np.concatenate(kept))


def _support_front_rows(costs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """`_front_rows` of a matrix whose entries are finite or +inf, split by
    each row's `support`, its count of finite columns, as skylines over
    incomplete data are bucketed (Khalefa, Mokbel & Levandoski, ICDE 2008).

    A row that dominates another is finite wherever the other is. So a row
    finite only in column j is dominated exactly by a lower value in column
    j, or by an equal one in a row finite elsewhere too: it stays when it
    holds column j's minimum and no row of wider support ties it there.
    Rows of wider support can be dominated only by each other, and only
    they are swept. A row with no finite entry loses to any one-column row.
    """
    single = support == 1
    if not single.any():
        return _front_rows(costs)
    wide = np.flatnonzero(support > 1)
    rest = costs[wide]
    lows = costs.min(axis=0)
    # no one-column row stays at a minimum that a wider row ties, or at an
    # infinite one, which they all hold
    lows[(rest == lows).any(axis=0) | (lows == np.inf)] = np.nan
    on = single & (costs == lows).any(axis=1)
    on[wide[_front_rows(rest)]] = True
    return np.flatnonzero(on)
