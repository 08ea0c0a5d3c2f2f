"""Objective functions: frozen worked-example values, closed forms, an
independent naive oracle, algebraic properties, and the row kernel against
the scalar vector."""

from __future__ import annotations

import math
import statistics
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_team_instance
from fairteams import (
    AttributeClass,
    Candidate,
    Project,
    Team,
    cost_difference,
    expertise_unevenness,
    objective_vector,
    representation_parity,
    team_cost,
    workload_unevenness,
)
from fairteams import objectives
from fairteams.assembly import ProjectView, project_view
from fairteams.objectives import (
    _spread,
    cost_for_class,
    matched_cost,
    requirement_costs,
    row_objectives,
)

# frozen targets for the three-member fixture, computed by hand:
# loads 0.035 / 0.122 / 0.171; per-requirement totals 0.100 / 0.035 / 0.090 / 0.103;
# class costs 0.035 vs 0.293
DEMO_COST = 0.328
DEMO_WORKLOAD = 0.0562396
DEMO_EXPERTISE = 0.0275590
DEMO_REPRESENTATION = 1.0 / 3.0
DEMO_COST_DIFFERENCE = 0.258 / 0.328


def test_demo_team_cost(demo_team, demo_project):
    assert team_cost(demo_team, demo_project) == pytest.approx(DEMO_COST, abs=1e-6)


def test_demo_member_loads(demo_team, demo_project):
    loads = {member.id: matched_cost(member, demo_project) for member in demo_team.members}
    assert loads == pytest.approx(
        {"member-1": 0.035, "member-2": 0.122, "member-3": 0.171}, abs=1e-9
    )


def test_demo_workload(demo_team, demo_project):
    assert workload_unevenness(demo_team, demo_project) == pytest.approx(
        DEMO_WORKLOAD, abs=1e-6
    )


def test_demo_requirement_costs(demo_team, demo_project):
    assert requirement_costs(demo_team, demo_project) == pytest.approx(
        [0.100, 0.035, 0.090, 0.103], abs=1e-9
    )


def test_demo_expertise(demo_team, demo_project):
    assert expertise_unevenness(demo_team, demo_project) == pytest.approx(
        DEMO_EXPERTISE, abs=1e-6
    )


def test_demo_representation(demo_team):
    assert representation_parity(demo_team) == pytest.approx(DEMO_REPRESENTATION, abs=1e-6)


def test_demo_class_costs(demo_team, demo_project):
    assert cost_for_class(demo_team, demo_project, AttributeClass.ZERO) == pytest.approx(
        0.035, abs=1e-9
    )
    assert cost_for_class(demo_team, demo_project, AttributeClass.ONE) == pytest.approx(
        0.293, abs=1e-9
    )


def test_demo_cost_difference(demo_team, demo_project):
    assert cost_difference(demo_team, demo_project) == pytest.approx(
        DEMO_COST_DIFFERENCE, abs=1e-6
    )


def test_demo_vector_matches_components(demo_team, demo_project):
    vec = objective_vector(demo_team, demo_project)
    assert vec.cost == team_cost(demo_team, demo_project)
    assert vec.workload == workload_unevenness(demo_team, demo_project)
    assert vec.expertise == expertise_unevenness(demo_team, demo_project)
    assert vec.representation == representation_parity(demo_team)
    assert vec.cost_difference == cost_difference(demo_team, demo_project)


def test_matched_cost_ignores_unrequired_skills():
    candidate = Candidate("c", AttributeClass.ZERO, {"a": 0.3, "z": 9.0})
    project = Project("p", frozenset({"a", "b"}))
    assert matched_cost(candidate, project) == 0.3


def test_member_matching_two_requirements_pays_twice():
    candidate = Candidate("c", AttributeClass.ZERO, {"a": 0.25, "b": 0.25})
    project = Project("p", frozenset({"a", "b"}))
    team = Team([candidate])
    assert team_cost(team, project) == pytest.approx(0.5)


def test_zero_coverage_team_costs_nothing():
    team = Team([Candidate("c", AttributeClass.ZERO, {"z": 1.0})])
    project = Project("p", frozenset({"a"}))
    assert team_cost(team, project) == 0.0


def test_workload_two_point_closed_form():
    # loads {0, x}: population std is x/2
    matched = Candidate("m", AttributeClass.ZERO, {"a": 0.8})
    idle = Candidate("n", AttributeClass.ONE, {"z": 1.0})
    project = Project("p", frozenset({"a"}))
    assert workload_unevenness(Team([matched, idle]), project) == pytest.approx(0.4)


def test_workload_zero_when_loads_equal():
    members = [
        Candidate(f"c{i}", AttributeClass(i % 2), {"a": 0.5}) for i in range(3)
    ]
    project = Project("p", frozenset({"a"}))
    assert workload_unevenness(Team(members), project) == 0.0


def test_expertise_two_point_closed_form():
    # requirement totals {x, 0}: population std is x/2
    team = Team([Candidate("c", AttributeClass.ZERO, {"a": 0.6})])
    project = Project("p", frozenset({"a", "b"}))
    assert expertise_unevenness(team, project) == pytest.approx(0.3)
    assert requirement_costs(team, project) == [0.6, 0.0]


def test_expertise_zero_when_totals_equal():
    team = Team([Candidate("c", AttributeClass.ZERO, {"a": 0.4, "b": 0.4})])
    project = Project("p", frozenset({"a", "b"}))
    assert expertise_unevenness(team, project) == 0.0


def test_representation_extremes():
    same = Team([Candidate(f"c{i}", AttributeClass.ONE, {"a": 1.0}) for i in range(4)])
    assert representation_parity(same) == 1.0
    balanced = Team([Candidate(f"c{i}", AttributeClass(i % 2), {"a": 1.0}) for i in range(4)])
    assert representation_parity(balanced) == 0.0


def test_cost_difference_extremes():
    project = Project("p", frozenset({"a", "b"}))
    split = Team(
        [
            Candidate("c0", AttributeClass.ZERO, {"a": 0.5}),
            Candidate("c1", AttributeClass.ONE, {"b": 0.5}),
        ]
    )
    assert cost_difference(split, project) == 0.0
    solo = Team([Candidate("c0", AttributeClass.ZERO, {"a": 0.5, "b": 0.5})])
    assert cost_difference(solo, project) == 1.0


def test_cost_difference_undefined_without_matched_cost():
    team = Team([Candidate("c", AttributeClass.ZERO, {"z": 1.0})])
    project = Project("p", frozenset({"a"}))
    with pytest.raises(ValueError):
        cost_difference(team, project)


def _naive_vector(team, project):
    """Straight-from-definition re-implementation used as an oracle."""
    reqs = sorted(project.requirements)
    loads = [
        sum(cost for skill, cost in m.cost_profile.items() if skill in project.requirements)
        for m in team.members
    ]
    total = sum(loads)
    per_requirement = [
        sum(m.cost_profile.get(skill, 0.0) for m in team.members) for skill in reqs
    ]
    class_zero = sum(
        load
        for load, m in zip(loads, team.members)
        if m.attribute is AttributeClass.ZERO
    )
    class_one = total - class_zero
    zeros = sum(1 for m in team.members if m.attribute is AttributeClass.ZERO)
    return (
        total,
        statistics.pstdev(loads) if len(loads) > 1 else 0.0,
        statistics.pstdev(per_requirement) if len(per_requirement) > 1 else 0.0,
        abs(2 * zeros - len(team.members)) / len(team.members),
        abs(class_zero - class_one) / total,
    )


def test_vector_matches_naive_oracle_on_random_teams():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        team, project = random_team_instance(rng)
        got = objective_vector(team, project).as_tuple()
        want = _naive_vector(team, project)
        assert got == pytest.approx(want, abs=1e-9)


def test_vector_equals_individual_functions_bit_for_bit():
    rng = np.random.default_rng(4242)
    for _ in range(2000):
        team, project = random_team_instance(rng)
        assert objective_vector(team, project).as_tuple() == (
            team_cost(team, project),
            workload_unevenness(team, project),
            expertise_unevenness(team, project),
            representation_parity(team),
            cost_difference(team, project),
        )


def test_vector_rejects_a_team_with_zero_matched_cost():
    team = Team([Candidate("c", AttributeClass.ZERO, {"z": 1.0})])
    with pytest.raises(ValueError, match="zero matched cost"):
        objective_vector(team, Project("p", frozenset({"a"})))


def test_kernel_rejects_a_team_with_zero_matched_cost():
    # the team above as a view row: load 0.0, requirement not offered; a
    # view built from a pool never holds such a row, so this one is built by hand
    member = Candidate("c", AttributeClass.ZERO, {"z": 1.0})
    view = ProjectView(
        [member],
        costs=np.full((1, 1), np.inf),
        offers=np.zeros((1, 1), dtype=bool),
        support=np.zeros(1, dtype=np.intp),
        finite_costs=np.zeros((1, 1)),
        loads=np.zeros(1),
        masks=[0],
        id_ranks=np.zeros(1, dtype=np.intp),
        class_one=np.zeros(1, dtype=bool),
    )
    with pytest.raises(ValueError, match="zero matched cost"):
        row_objectives(np.array([[0]]), view)


@st.composite
def team_instances(draw):
    skills = [f"s{i}" for i in range(8)]
    requirements = draw(st.sets(st.sampled_from(skills), min_size=1, max_size=5))
    size = draw(st.integers(min_value=1, max_value=6))
    cost = st.floats(min_value=0.01, max_value=10.0)
    members = []
    for k in range(size):
        owned = draw(st.sets(st.sampled_from(skills), min_size=1, max_size=5))
        profile = {skill: draw(cost) for skill in owned}
        members.append(
            Candidate(f"m{k}", draw(st.sampled_from(list(AttributeClass))), profile)
        )
    # the cost-difference denominator needs at least one matched requirement
    if not any(s in m.cost_profile for m in members for s in requirements):
        members[0] = Candidate(
            "m0", members[0].attribute, dict(members[0].cost_profile) | {min(requirements): 1.0}
        )
    return Team(members), Project("p", frozenset(requirements))


def _scaled(team: Team, factor: float) -> Team:
    return Team(
        Candidate(m.id, m.attribute, {s: c * factor for s, c in m.cost_profile.items()})
        for m in team.members
    )


def _swapped(team: Team) -> Team:
    return Team(
        Candidate(m.id, m.attribute.other(), m.cost_profile) for m in team.members
    )


@settings(deadline=None)
@given(team_instances(), st.floats(min_value=0.1, max_value=8.0))
def test_scale_equivariance(instance, factor):
    team, project = instance
    base = objective_vector(team, project)
    scaled = objective_vector(_scaled(team, factor), project)
    assert scaled.cost == pytest.approx(factor * base.cost, rel=1e-9, abs=1e-9)
    assert scaled.workload == pytest.approx(factor * base.workload, rel=1e-9, abs=1e-9)
    assert scaled.expertise == pytest.approx(factor * base.expertise, rel=1e-9, abs=1e-9)
    assert scaled.representation == base.representation
    assert scaled.cost_difference == pytest.approx(base.cost_difference, abs=1e-9)


@settings(deadline=None)
@given(team_instances())
def test_class_swap_symmetry(instance):
    team, project = instance
    base = objective_vector(team, project)
    flipped = objective_vector(_swapped(team), project)
    assert flipped.representation == base.representation
    assert flipped.cost_difference == base.cost_difference
    assert flipped.cost == base.cost


@settings(deadline=None)
@given(team_instances())
def test_class_cost_additivity_is_exact(instance):
    team, project = instance
    zero = cost_for_class(team, project, AttributeClass.ZERO)
    one = cost_for_class(team, project, AttributeClass.ONE)
    assert zero + one == team_cost(team, project)


@settings(deadline=None)
@given(team_instances())
def test_bounds(instance):
    team, project = instance
    vec = objective_vector(team, project)
    assert 0.0 <= vec.representation <= 1.0
    assert 0.0 <= vec.cost_difference <= 1.0
    max_load = max(matched_cost(member, project) for member in team.members)
    assert vec.workload <= max_load + 1e-9
    assert vec.expertise <= max(requirement_costs(team, project)) + 1e-9


def test_evaluation_is_bit_reproducible():
    rng = np.random.default_rng(7)
    team, project = random_team_instance(rng)
    first = objective_vector(team, project)
    second = objective_vector(team, project)
    assert first.as_tuple() == second.as_tuple()
    assert math.isfinite(first.cost)


def test_spread_adds_its_squares_left_to_right():
    # 1e16 first absorbs each later 1.0, so one left-to-right pass, the order
    # `row_objectives` adds in, keeps 1e16; a compensated sum (Python 3.12's
    # `sum` of floats) would give 1e16 + 1000
    assert _spread([1e8] + [1.0] * 1000, 0.0) == math.sqrt(1e16 / 1001)


# -- the row kernel against the scalar vector ----------------------------------


@st.composite
def row_instances(draw):
    """A pool in a drawn order, often not id order, over 1-70 requirements, where
    candidates lack some requirements and may all share one class, plus 1-8
    rows of 1-12 members. From 8 summands on, `np.sum` rounds differently
    from a left-to-right sum, so half the rows and most requirement sets are
    that wide."""
    width = draw(st.sampled_from([1, 3, 7, 8, 9, 16, 63, 70]))
    skills = [f"k{j:02d}" for j in range(width)]
    team_size = draw(st.sampled_from([1, 2, 4, 8, 9, 12]))
    size = team_size + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(size)))
    one_class = draw(st.sampled_from([None, *AttributeClass]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for position in range(size):
        missing = draw(st.sets(st.integers(0, width - 1), max_size=min(width - 1, 8)))
        attribute = draw(st.sampled_from(AttributeClass)) if one_class is None else one_class
        profile = {
            skill: float(rng.uniform(1e-3, 10.0))
            for j, skill in enumerate(skills)
            if j not in missing
        }
        pool.append(Candidate(f"c{ids[position]:02d}", attribute, profile))
    subsets = st.sets(st.integers(0, size - 1), min_size=team_size, max_size=team_size)
    rows = draw(st.lists(subsets.map(sorted), min_size=1, max_size=8))
    return pool, Project("p", frozenset(skills)), np.array(rows)


@settings(deadline=None, max_examples=300)
@given(row_instances())
def test_row_kernel_equals_objective_vector_bit_for_bit(instance):
    pool, project, rows = instance
    view = project_view(pool, project)
    scores = row_objectives(rows, view)
    want = [
        objective_vector(Team(view.matching[i] for i in row), project).as_tuple()
        for row in rows.tolist()
    ]
    assert [tuple(score) for score in scores.tolist()] == want
    assert np.array_equal(scores.view(np.uint64), np.array(want).view(np.uint64))
    # the block size bounds memory and changes nothing else
    for block in (1, 3):
        with patch.object(objectives, "_SCORE_ROWS", block):
            again = row_objectives(rows, view)
        assert np.array_equal(again.view(np.uint64), scores.view(np.uint64))


def test_row_kernel_adds_in_id_order_where_it_runs_against_pool_order():
    # pool positions 0, 1, 2 hold ids c, b, a: summed by position the loads
    # give 0.3 + 0.2 + 0.1 = 0.6, by id 0.1 + 0.2 + 0.3 = 0.6000000000000001
    pool = [
        Candidate(cid, attribute, {"s": cost, "t": cost})
        for cid, attribute, cost in (
            ("c", AttributeClass.ZERO, 0.3),
            ("b", AttributeClass.ONE, 0.2),
            ("a", AttributeClass.ZERO, 0.1),
        )
    ]
    project = Project("p", frozenset({"s"}))
    view = project_view(pool, project)
    assert view.id_ranks.tolist() == [2, 1, 0]
    for row in ([0, 1, 2], [2, 0, 1], [0, 2]):
        scores = row_objectives(np.array([row]), view)
        want = objective_vector(Team(pool[i] for i in row), project).as_tuple()
        assert np.array_equal(scores.view(np.uint64), np.array([want]).view(np.uint64))
    assert row_objectives(np.array([[0, 1, 2]]), view)[0, 0] == 0.1 + 0.2 + 0.3
