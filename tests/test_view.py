"""The per-project view against the scalar references it replaces.

`project_view` serves every project from one skill index per pool, so these
tests run many projects over one pool, over an equal copy of it, and over the
same list after in-place edits, and compare each view bit for bit with the
per-candidate scan, `matched_cost`, a per-skill mask loop and
`pareto_candidates`.
"""

from __future__ import annotations

import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairteams import (
    AttributeClass,
    Candidate,
    InfeasibleProjectError,
    Project,
    assemble_all_selections,
    assemble_fair_allocation,
    assemble_incremental,
    candidate_scores,
    filter_candidates,
    pareto_candidates,
    run_benchmark,
)
from fairteams import assembly
from fairteams.assembly import project_view
from fairteams.objectives import matched_cost
from fairteams.pareto import _front_rows
from test_assembly import _reference_greedy

# "x" is offered but never required; "z" is required but never offered
_OFFERED = tuple(f"s{i:02d}" for i in range(12)) + ("x",)
_REQUIRED = tuple(f"s{i:02d}" for i in range(12)) + ("z",)
# Sums of these depend on the order of the additions in the last bit, and
# numpy's pairwise `sum` regroups rows of eight or more.
_COSTS = (0.1, 0.2, 0.3, 0.7, 1.1, 3.3, 1e-3)


def _reference(pool, project):
    """(matching, costs, loads, masks, candidate front) from the scalar code."""
    try:
        matching = filter_candidates(pool, project)
    except ValueError:  # an empty pool, or InfeasibleProjectError
        matching = []
    masks = []
    for candidate in matching:
        mask = 0
        for j, skill in enumerate(project.sorted_requirements):
            if skill in candidate.cost_profile:
                mask |= 1 << j
        masks.append(mask)
    return (
        matching,
        [list(candidate_scores(c, project)) for c in matching],
        [matched_cost(c, project) for c in matching],
        masks,
        pareto_candidates(matching, project) if matching else [],
    )


def _assert_view_matches(pool, project):
    view = project_view(pool, project)
    matching, costs, loads, masks, front = _reference(pool, project)
    assert [id(c) for c in view.matching] == [id(c) for c in matching]
    assert view.costs.shape == (len(matching), len(project.requirements))
    assert not view.costs.flags.writeable
    assert view.costs.tolist() == costs
    # each array derived from `costs` once, here recomputed from it
    finite = np.isfinite(view.costs)
    assert view.offers.dtype == bool and np.array_equal(view.offers, finite)
    assert np.array_equal(view.support, finite.sum(axis=1))
    assert np.array_equal(view.finite_costs, np.where(finite, view.costs, 0.0))
    for name in ("offers", "support", "finite_costs"):
        assert not getattr(view, name).flags.writeable
    assert view.loads.dtype == np.float64 and not view.loads.flags.writeable
    assert view.loads.tolist() == loads
    assert view.load_list == loads
    assert all(type(load) is float for load in view.load_list)
    assert view.masks == masks
    assert all(type(mask) is int for mask in view.masks)
    if matching:
        rows = _front_rows(view.costs).tolist()
        assert [id(view.matching[i]) for i in rows] == [id(c) for c in front]
    return view


@st.composite
def _candidates(draw, cid):
    skills = draw(st.lists(st.sampled_from(_OFFERED), min_size=1, max_size=10, unique=True))
    return Candidate(
        cid,
        draw(st.sampled_from(AttributeClass)),
        {skill: draw(st.sampled_from(_COSTS)) for skill in skills},
    )


@st.composite
def _instances(draw):
    """A pool of 0-16 distinct ids, plus projects of 1-12 requirements, so
    rows of eight or more requirements are common."""
    pool = [draw(_candidates(f"m{i:02d}")) for i in range(draw(st.integers(0, 16)))]
    projects = [
        Project(f"p{k}", frozenset(requirements))
        for k, requirements in enumerate(
            draw(
                st.lists(
                    st.sets(st.sampled_from(_REQUIRED), min_size=1, max_size=12),
                    min_size=1,
                    max_size=5,
                )
            )
        )
    ]
    return pool, projects, draw(_candidates("newcomer")), draw(st.integers(0, 15))


@settings(deadline=None, max_examples=300)
@given(_instances())
def test_view_equals_the_scalar_references_as_the_pool_changes(instance):
    pool, projects, newcomer, position = instance
    for project in projects:
        _assert_view_matches(pool, project)

    copy = [Candidate(c.id, c.attribute, dict(c.cost_profile)) for c in pool]
    for project in projects:
        assert _assert_view_matches(copy, project) == project_view(pool, project)

    # in-place edits of a pool already indexed: each must be seen at once
    everything = Candidate("all", AttributeClass.ONE, {skill: 0.3 for skill in _OFFERED})
    pool.append(everything)
    for project in projects:
        _assert_view_matches(pool, project)
    pool[position % len(pool)] = newcomer
    for project in projects:
        _assert_view_matches(pool, project)
    del pool[position % len(pool)]
    for project in projects:
        _assert_view_matches(pool, project)


def test_an_equal_pool_takes_over_the_index_without_a_rebuild():
    pool = [
        Candidate(f"m{i}", AttributeClass(i % 2), {"a": 0.1 * (i + 1), "b": 0.2})
        for i in range(5)
    ]
    copy = [Candidate(c.id, c.attribute, dict(c.cost_profile)) for c in pool]
    project = Project("p", frozenset({"a", "b"}))
    project_view([], project)  # index some other pool first
    builds = []
    real_build = assembly._build_index
    with patch.object(assembly, "_build_index", lambda p: builds.append(p) or real_build(p)):
        project_view(pool, project)
        project_view(copy, project)
        project_view(copy, project)
    assert builds == [tuple(pool)]
    # the copy is the snapshot now, so later calls compare by pointer
    assert all(a is b for a, b in zip(assembly._POOL_INDEX[0], copy))


def test_a_repeated_id_is_rejected_by_every_entry_point_before_sampling():
    # the twin offers every requirement cheaply, so it would reach both fronts
    pool = [
        Candidate(f"c{i}", AttributeClass(i % 2), {"a": 0.1 * (i + 1), f"s{i % 4}": 0.3})
        for i in range(12)
    ]
    pool.append(Candidate("c0", AttributeClass.ONE, {"a": 0.05, "s1": 0.05, "s2": 0.05}))
    project = Project("p", frozenset({"a", "s1", "s2"}))
    message = "candidate id 'c0' repeats at pool positions 0 and 12"
    entry_points = (
        lambda seed: project_view(pool, project),
        lambda seed: assemble_incremental(pool, project),
        lambda seed: assemble_fair_allocation(pool, project),
        lambda seed: assemble_all_selections(pool, project, team_size=3, num_teams=50, seed=seed),
        lambda seed: run_benchmark(pool, [project], team_size=3, num_teams=50, seed=seed),
    )
    project_view([], project)  # index some other pool first
    before = assembly._POOL_INDEX
    with patch.object(assembly, "_sample_rows", side_effect=AssertionError("drew rows")):
        for seed in range(12):
            for call in entry_points:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(seed)
                assert assembly._POOL_INDEX is before

    pool[12] = Candidate("c12", AttributeClass.ONE, {"a": 0.05, "s1": 0.05, "s2": 0.05})
    _assert_view_matches(pool, project)
    for seed in range(3):
        outcomes = [call(seed) for call in entry_points[1:4]]
        assert outcomes[0].formed and outcomes[1].formed
        assert all(outcome.formed for outcome in outcomes[2].values())


def test_the_cost_palette_tells_summation_orders_apart():
    row = np.array([0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.3])
    total = 0.0
    for cost in row.tolist():
        total += cost
    assert row.sum() != total


def test_an_empty_pool_or_an_infeasible_project_gives_an_empty_view():
    project = Project("p", frozenset({"a", "b", "z"}))
    with pytest.raises(InfeasibleProjectError):
        filter_candidates([Candidate("m", AttributeClass.ZERO, {"x": 1.0})], project)
    for pool in ([], [Candidate("m", AttributeClass.ZERO, {"x": 1.0})]):
        view = _assert_view_matches(pool, project)
        assert view.matching == [] and view.loads.shape == (0,) and view.masks == []
        assert view.costs.shape == (0, 3)


def test_views_differing_only_in_costs_are_unequal():
    # one candidate, two projects: the same match, load and mask, but the
    # costs sit in swapped columns
    pool = [Candidate("m", AttributeClass.ZERO, {"a": 1.0, "b": 2.0, "c": 1.0})]
    first = project_view(pool, Project("p", frozenset({"a", "b"})))
    second = project_view(pool, Project("q", frozenset({"b", "c"})))
    assert (first.matching, first.loads.tolist(), first.masks) == (
        second.matching,
        second.loads.tolist(),
        second.masks,
    )
    assert first != second
    assert first == project_view(list(pool), Project("r", frozenset({"a", "b"})))
    assert first != (first.matching, first.costs, first.loads, first.masks)


def test_seventy_requirements_keep_every_mask_bit():
    skills = [f"k{j:02d}" for j in range(70)]
    rng = np.random.default_rng(70)
    pool = []
    for i in range(40):
        owned = rng.choice(70, size=int(rng.integers(3, 12)), replace=False)
        pool.append(
            Candidate(
                f"c{i:02d}",
                AttributeClass(i % 2),
                {skills[j]: float(rng.choice(_COSTS)) for j in owned},
            )
        )
    # a specialist per requirement keeps the project feasible
    for j in range(70):
        pool.append(Candidate(f"s{j:02d}", AttributeClass(j % 2), {skills[j]: 3.3}))
    project = Project("wide", frozenset(skills))

    view = _assert_view_matches(pool, project)
    assert max(view.masks).bit_length() == 70
    for assemble, balance_classes in (
        (assemble_incremental, False),
        (assemble_fair_allocation, True),
    ):
        expected = _reference_greedy(pool, project, balance_classes)
        assert expected.formed
        assert assemble(pool, project) == expected
        assert assemble(pool, project, view=view) == expected


def test_an_indexed_profile_cannot_be_edited_behind_the_view():
    pool = [Candidate("m", AttributeClass.ZERO, {"a": 1.0})]
    project = Project("p", frozenset({"a", "b"}))
    _assert_view_matches(pool, project)
    with pytest.raises(TypeError):
        pool[0].cost_profile["b"] = 2.0
    view = _assert_view_matches(pool, project)
    assert view.costs.tolist() == [[1.0, float("inf")]]
    assert view.loads.tolist() == [1.0]
