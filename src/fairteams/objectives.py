"""The five minimized team objectives and their shared cost building blocks.

All sums run in a fixed order (members by id, skills by sorted token) so that
repeated evaluations are bit-identical. Spread measures are population
standard deviations (divide by the count, not count - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import AttributeClass, Candidate, ObjectiveVector, Project, Team


@dataclass(frozen=True)
class MemberLoad:
    """One member's share of the team cost: the sum of their matched-skill costs."""

    candidate_id: str
    load: float


def matched_cost(candidate: Candidate, project: Project) -> float:
    """Sum of the candidate's costs over the requirements they possess."""
    total = 0.0
    for skill in project.sorted_requirements:
        cost = candidate.cost_profile.get(skill)
        if cost is not None:
            total += cost
    return total


def member_loads(team: Team, project: Project) -> list[MemberLoad]:
    return [MemberLoad(member.id, matched_cost(member, project)) for member in team.members]


def _class_costs(team: Team, project: Project) -> tuple[list[float], dict[AttributeClass, float]]:
    """Each member's load, and the loads summed per class in member order."""
    loads = [matched_cost(member, project) for member in team.members]
    costs = {AttributeClass.ZERO: 0.0, AttributeClass.ONE: 0.0}
    for member, load in zip(team.members, loads):
        costs[member.attribute] += load
    return loads, costs


def cost_for_class(team: Team, project: Project, attribute: AttributeClass) -> float:
    """Team cost restricted to members of one protected-attribute class."""
    return _class_costs(team, project)[1][attribute]


def team_cost(team: Team, project: Project) -> float:
    """Total hiring cost: every member pays once per requirement they match.

    Computed as the two per-class costs added together, so the class split is
    additive without rounding slack.
    """
    costs = _class_costs(team, project)[1]
    return costs[AttributeClass.ZERO] + costs[AttributeClass.ONE]


def _spread(values: list[float], total: float) -> float:
    """Population standard deviation of `values` around the mean `total / len(values)`."""
    mean = total / len(values)
    return math.sqrt(sum((value - mean) ** 2 for value in values) / len(values))


def workload_unevenness(team: Team, project: Project) -> float:
    """Population standard deviation of the members' matched-cost loads."""
    loads = [entry.load for entry in member_loads(team, project)]
    return _spread(loads, team_cost(team, project))


def requirement_costs(team: Team, project: Project) -> list[float]:
    """Per-requirement totals over the team, in sorted requirement order.

    A requirement nobody possesses contributes 0.0 but still occupies a slot.
    """
    totals = []
    for skill in project.sorted_requirements:
        total = 0.0
        for member in team.members:
            cost = member.cost_profile.get(skill)
            if cost is not None:
                total += cost
        totals.append(total)
    return totals


def expertise_unevenness(team: Team, project: Project) -> float:
    """Population standard deviation of the per-requirement cost totals."""
    return _spread(requirement_costs(team, project), team_cost(team, project))


def representation_parity(team: Team) -> float:
    """Absolute class-count difference over team size; 0 balanced, 1 single-class."""
    zeros = sum(1 for member in team.members if member.attribute is AttributeClass.ZERO)
    ones = len(team) - zeros
    return abs(zeros - ones) / len(team)


def _normalized_gap(costs: dict[AttributeClass, float]) -> float:
    total = costs[AttributeClass.ZERO] + costs[AttributeClass.ONE]
    if total == 0.0:
        raise ValueError("cost difference is undefined for a team with zero matched cost")
    return abs(costs[AttributeClass.ZERO] - costs[AttributeClass.ONE]) / total


def cost_difference(team: Team, project: Project) -> float:
    """Absolute difference of the two per-class costs, normalized by team cost."""
    return _normalized_gap(_class_costs(team, project)[1])


def objective_vector(team: Team, project: Project) -> ObjectiveVector:
    """Bundle all five objectives; components match the individual functions.

    The member loads and class costs are computed once and shared by the
    components, in the same summation order the individual functions use.
    """
    loads, costs = _class_costs(team, project)
    total = costs[AttributeClass.ZERO] + costs[AttributeClass.ONE]
    return ObjectiveVector(
        cost=total,
        workload=_spread(loads, total),
        expertise=_spread(requirement_costs(team, project), total),
        representation=representation_parity(team),
        cost_difference=_normalized_gap(costs),
    )
