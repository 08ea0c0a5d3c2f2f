"""Objective functions: frozen worked-example values, closed forms, an
independent naive oracle, and algebraic properties."""

from __future__ import annotations

import math
import statistics

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
    cost_for_class,
    expertise_unevenness,
    matched_cost,
    objective_vector,
    representation_parity,
    requirement_costs,
    team_cost,
    workload_unevenness,
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
