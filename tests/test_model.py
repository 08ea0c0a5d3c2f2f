"""Domain type validation and normalization."""

from __future__ import annotations

import math

import pytest

from fairteams import AttributeClass, Candidate, ObjectiveVector, Project, Team, coverage


def test_attribute_class_other():
    assert AttributeClass.ZERO.other() is AttributeClass.ONE
    assert AttributeClass.ONE.other() is AttributeClass.ZERO


def test_candidate_profile_normalized_to_sorted_keys():
    candidate = Candidate("c1", AttributeClass.ZERO, {"b": 2.0, "a": 1.0})
    assert list(candidate.cost_profile) == ["a", "b"]
    assert "a" in candidate.cost_profile
    assert "z" not in candidate.cost_profile


def test_candidate_coerces_costs_to_float():
    candidate = Candidate("c1", AttributeClass.ONE, {"a": 1})
    assert candidate.cost_profile["a"] == 1.0
    assert isinstance(candidate.cost_profile["a"], float)


@pytest.mark.parametrize(
    "profile",
    [
        {},
        {"a": 0.0},
        {"a": -1.0},
        {"a": math.inf},
        {"a": math.nan},
        {"": 1.0},
    ],
)
def test_candidate_rejects_bad_profiles(profile):
    with pytest.raises(ValueError):
        Candidate("c1", AttributeClass.ZERO, profile)


def test_candidate_rejects_empty_id_and_raw_attribute():
    with pytest.raises(ValueError):
        Candidate("", AttributeClass.ZERO, {"a": 1.0})
    with pytest.raises(ValueError):
        Candidate("c1", 0, {"a": 1.0})


def test_team_sorts_members_by_id():
    b = Candidate("b", AttributeClass.ZERO, {"x": 1.0})
    a = Candidate("a", AttributeClass.ONE, {"y": 1.0})
    team = Team([b, a])
    assert team.member_ids() == ("a", "b")
    assert len(team) == 2
    assert list(team) == [a, b]


def test_team_rejects_duplicates_and_emptiness():
    a = Candidate("a", AttributeClass.ZERO, {"x": 1.0})
    with pytest.raises(ValueError):
        Team([a, a])
    with pytest.raises(ValueError):
        Team([])


def test_project_sorts_requirements():
    project = Project("p", frozenset({"b", "a", "c"}))
    assert project.sorted_requirements == ("a", "b", "c")


def test_project_accepts_any_iterable_of_skills():
    project = Project("p", ["b", "a", "a"])
    assert project.requirements == frozenset({"a", "b"})


def test_project_rejects_empty_inputs():
    with pytest.raises(ValueError):
        Project("p", frozenset())
    with pytest.raises(ValueError):
        Project("", frozenset({"a"}))
    with pytest.raises(ValueError):
        Project("p", frozenset({""}))


def test_objective_vector_round_trips_as_tuple():
    vec = ObjectiveVector(1.5, 0.2, 0.1, 0.5, 0.25)
    assert vec.as_tuple() == (1.5, 0.2, 0.1, 0.5, 0.25)


@pytest.mark.parametrize(
    "values",
    [
        (-1.0, 0.0, 0.0, 0.0, 0.0),
        (1.0, math.inf, 0.0, 0.0, 0.0),
        (1.0, 0.0, math.nan, 0.0, 0.0),
        (1.0, 0.0, 0.0, 1.5, 0.0),
        (1.0, 0.0, 0.0, 0.0, 1.0001),
    ],
)
def test_objective_vector_rejects_out_of_range(values):
    with pytest.raises(ValueError):
        ObjectiveVector(*values)


def test_coverage_counts_requirements_held_by_anyone(demo_team, demo_project):
    assert coverage(demo_team, demo_project) == 4


def test_coverage_ignores_unrequired_skills():
    team = Team([Candidate("c1", AttributeClass.ZERO, {"a": 1.0, "z": 1.0})])
    project = Project("p", frozenset({"a", "b"}))
    assert coverage(team, project) == 1
