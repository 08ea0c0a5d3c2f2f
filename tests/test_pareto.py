"""Dominance and front filtering, checked against a vectorized oracle and by
algebraic properties."""

from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairteams import dominates, pareto, pareto_front
from fairteams.pareto import _front_rows, _support_front_rows

INF = math.inf


def test_dominates_strictly_better_in_one():
    assert dominates((1.0, 2.0), (2.0, 2.0))


def test_dominates_incomparable_pair():
    assert not dominates((1.0, 3.0), (3.0, 1.0))
    assert not dominates((3.0, 1.0), (1.0, 3.0))


def test_dominates_identical_vectors():
    assert not dominates((0.5, INF), (0.5, INF))


def test_dominates_all_inf_loses_to_any_finite_entry():
    assert dominates((1.0, INF), (INF, INF))
    assert not dominates((INF, INF), (1.0, INF))


def test_dominates_requires_equal_lengths():
    with pytest.raises(ValueError):
        dominates((1.0,), (1.0, 2.0))


def test_front_basic_example():
    items = [("a", (1.0, 2.0)), ("b", (2.0, 1.0)), ("c", (2.0, 2.0))]
    assert pareto_front(items) == ["a", "b"]


def test_front_retains_all_duplicates():
    items = [(i, (1.0, 1.0)) for i in range(5)]
    assert pareto_front(items) == [0, 1, 2, 3, 4]
    assert pareto_front([(i, ()) for i in range(3)]) == [0, 1, 2]


def test_front_preserves_input_order():
    items = [("z", (2.0, 1.0)), ("a", (1.0, 2.0))]
    assert pareto_front(items) == ["z", "a"]


def test_front_rejects_empty_and_ragged_and_nan():
    with pytest.raises(ValueError):
        pareto_front([])
    with pytest.raises(ValueError):
        pareto_front([("a", (1.0,)), ("b", (1.0, 2.0))])
    with pytest.raises(ValueError):
        pareto_front([("a", (math.nan, 1.0))])


def oracle_front_indices(vectors) -> set[int]:
    """Independent all-pairs scan via numpy broadcasting."""
    arr = np.asarray(vectors, dtype=float)
    no_worse = (arr[:, None, :] <= arr[None, :, :]).all(axis=2)
    better = (arr[:, None, :] < arr[None, :, :]).any(axis=2)
    dominated_by = no_worse & better
    np.fill_diagonal(dominated_by, False)
    return {int(i) for i in np.flatnonzero(~dominated_by.any(axis=0))}


def _random_vectors(rng: np.random.Generator, count: int, dim: int) -> list[tuple[float, ...]]:
    vectors: list[tuple[float, ...]] = []
    for _ in range(count):
        if vectors and rng.random() < 0.25:
            vectors.append(vectors[int(rng.integers(len(vectors)))])
            continue
        values = rng.integers(0, 6, size=dim).astype(float)
        values[rng.random(dim) < 0.2] = INF
        vectors.append(tuple(float(v) for v in values))
    return vectors


def test_front_matches_oracle_on_random_instances():
    rng = np.random.default_rng(404)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        count = int(rng.integers(1, 60))
        vectors = _random_vectors(rng, count, dim)
        got = set(pareto_front(list(enumerate(vectors))))
        assert got == oracle_front_indices(vectors)


ANY_COORDINATE = st.one_of(
    st.integers(min_value=0, max_value=4).map(float),
    st.floats(min_value=0.0, max_value=100.0),
    st.just(INF),
)
# a power-of-two factor rounds subnormals and normals near the bottom of the
# range (5e-324 * 0.25 == 0.0), so the scaling test stays well above it
EXACTLY_SCALABLE_COORDINATE = st.one_of(
    st.integers(min_value=0, max_value=4).map(float),
    st.floats(min_value=1e-300, max_value=100.0),
    st.just(INF),
)


@st.composite
def vector_populations(draw, coordinate=ANY_COORDINATE):
    dim = draw(st.integers(min_value=1, max_value=5))
    return draw(
        st.lists(st.tuples(*([coordinate] * dim)), min_size=1, max_size=30)
    )


@settings(deadline=None)
@given(vector_populations())
def test_front_is_an_antichain(vectors):
    front = pareto_front(list(enumerate(vectors)))
    for i in front:
        for j in front:
            if i != j:
                assert not dominates(vectors[i], vectors[j])


@settings(deadline=None)
@given(vector_populations())
def test_every_excluded_item_is_dominated(vectors):
    front = set(pareto_front(list(enumerate(vectors))))
    for i, vector in enumerate(vectors):
        if i not in front:
            assert any(dominates(vectors[j], vector) for j in front)


@settings(deadline=None)
@given(vector_populations())
def test_front_is_idempotent(vectors):
    front = pareto_front(list(enumerate(vectors)))
    again = pareto_front([(i, vectors[i]) for i in front])
    assert again == front


@settings(deadline=None)
@given(vector_populations(), st.randoms(use_true_random=False))
def test_front_id_set_ignores_input_order(vectors, shuffler):
    items = list(enumerate(vectors))
    baseline = set(pareto_front(items))
    shuffler.shuffle(items)
    assert set(pareto_front(items)) == baseline


@settings(deadline=None)
@given(
    vector_populations(EXACTLY_SCALABLE_COORDINATE),
    st.sampled_from([0.25, 0.5, 2.0, 4.0]),
    st.integers(min_value=0, max_value=4),
)
def test_front_unchanged_by_scaling_one_coordinate(vectors, factor, axis_pick):
    # power-of-two factors keep the scaling exact on these coordinates
    axis = axis_pick % len(vectors[0])
    baseline = set(pareto_front(list(enumerate(vectors))))
    scaled = [
        tuple(v * factor if k == axis else v for k, v in enumerate(vector))
        for vector in vectors
    ]
    assert set(pareto_front(list(enumerate(scaled)))) == baseline


def all_pairs_front(vectors) -> list[int]:
    """Scalar reference: every index that no other vector dominates, in order."""
    return [
        i
        for i, mine in enumerate(vectors)
        if not any(dominates(other, mine) for other in vectors)
    ]


# small integers give ties and duplicates; the sizes cross several of the
# sweep's blocks
PALETTE_COORDINATE = st.one_of(
    st.integers(min_value=-2, max_value=3).map(float),
    st.just(INF),
    st.just(-INF),
    st.floats(allow_nan=False),
)


@st.composite
def large_populations(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    size = draw(st.integers(min_value=1, max_value=300))
    palette = draw(st.lists(PALETTE_COORDINATE, min_size=1, max_size=10))
    cells = draw(st.binary(min_size=size * dim, max_size=size * dim))
    return [
        tuple(palette[b % len(palette)] for b in cells[row * dim : (row + 1) * dim])
        for row in range(size)
    ]


@settings(deadline=None, max_examples=60)
@given(large_populations(), st.data())
def test_front_matches_all_pairs_reference_in_input_order(vectors, data):
    keys = data.draw(st.permutations(range(len(vectors))))
    front = pareto_front(list(zip(keys, vectors)))
    assert front == [keys[i] for i in all_pairs_front(vectors)]


@settings(deadline=None, max_examples=30)
@given(large_populations(), st.data())
def test_front_rejects_nan_and_ragged_anywhere(vectors, data):
    position = data.draw(st.integers(min_value=0, max_value=len(vectors) - 1))
    row = list(vectors[position])
    row[data.draw(st.integers(min_value=0, max_value=len(row) - 1))] = math.nan
    with_nan = vectors[:position] + [tuple(row)] + vectors[position + 1 :]
    with pytest.raises(ValueError, match="NaN"):
        pareto_front(list(enumerate(with_nan)))
    ragged = vectors + [vectors[position] + (0.0,)]
    with pytest.raises(ValueError, match="length"):
        pareto_front(list(enumerate(ragged)))


@settings(deadline=None, max_examples=60)
@given(large_populations())
def test_front_rows_match_all_pairs_reference_at_every_block_size(vectors):
    points = np.array(vectors, dtype=float)
    want = all_pairs_front(vectors)
    # the block size bounds memory and changes nothing else
    for block in (1, 2, 5, pareto._BLOCK):
        with patch.object(pareto, "_BLOCK", block):
            got = _front_rows(points)
        assert got.dtype == np.intp
        assert got.tolist() == want


def test_front_rows_of_no_rows_is_an_empty_index_array():
    got = _front_rows(np.empty((0, 3)))
    assert got.dtype == np.intp and got.shape == (0,)


def test_front_rows_of_one_row_is_that_row():
    assert _front_rows(np.array([[INF, -1.0]])).tolist() == [0]


def test_front_rows_keep_duplicates_across_block_boundaries():
    # each run of equal rows spans a block boundary; a winner drops no row
    # equal to it, only the row its copies dominate
    size = pareto._BLOCK + 3
    points = np.array([(1.0, 0.0)] * size + [(0.0, 1.0)] * size + [(1.0, 1.0)])
    for block in (1, 2, 5, pareto._BLOCK):
        with patch.object(pareto, "_BLOCK", block):
            assert _front_rows(points).tolist() == list(range(2 * size))


def test_front_rows_keep_an_antichain_spanning_several_blocks():
    size = 3 * pareto._BLOCK + 1
    x = np.arange(size, dtype=float)
    points = np.column_stack((x, x[::-1]))[np.random.default_rng(7).permutation(size)]
    assert _front_rows(points).tolist() == list(range(size))


def test_front_rows_find_a_dominating_row_placed_last():
    rng = np.random.default_rng(11)
    points = np.vstack((rng.integers(1, 4, size=(3 * pareto._BLOCK, 4)), [(0, 0, 0, 1)]))
    assert _front_rows(points.astype(float)).tolist() == [len(points) - 1]


def test_front_rows_drop_a_row_only_a_later_winner_dominates():
    # the block [(0, 2), (1, 0)] has two winners; only the second drops (2, 1)
    points = np.array([(2.0, 1.0), (1.0, 0.0), (0.0, 2.0)])
    for block in (2, pareto._BLOCK):
        with patch.object(pareto, "_BLOCK", block):
            assert _front_rows(points).tolist() == [1, 2]


# -- the candidate front split by requirement support -------------------------


@st.composite
def cost_matrices(draw):
    """Matrices shaped like a project's cost matrix: 1-5 columns, half or
    more of the entries +inf and the rest one of a few costs, so one-column
    rows, ties at a column's minimum between one-column and wider rows,
    equal minimums and rows with no finite entry are all common."""
    width = draw(st.integers(min_value=1, max_value=5))
    size = draw(st.integers(min_value=0, max_value=120))
    palette = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=1, max_size=3))
    finite_share = draw(st.sampled_from([0.15, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    costs = rng.choice(palette, size=(size, width))
    costs[rng.random((size, width)) >= finite_share] = INF
    return costs


@settings(deadline=None, max_examples=300)
@given(cost_matrices())
# a wider row ties the one-column row's minimum, and dominates it
@example(np.array([[1.0, INF], [1.0, 2.0]]))
# only a wider row holds column 0's minimum
@example(np.array([[2.0, INF], [1.0, 5.0], [INF, 3.0]]))
# equal one-column minimums all stay
@example(np.array([[1.0, INF], [1.0, INF], [INF, 3.0], [2.0, INF]]))
def test_support_split_matches_all_pairs_reference(costs):
    want = all_pairs_front([tuple(row) for row in costs.tolist()])
    # the block size sweeps the wider rows in one block or in many
    for block in (2, pareto._BLOCK):
        with patch.object(pareto, "_BLOCK", block):
            got = _support_front_rows(costs, np.isfinite(costs).sum(axis=1))
        assert got.dtype == np.intp
        assert got.tolist() == want
