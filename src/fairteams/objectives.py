"""The five minimized team objectives and their shared cost building blocks.

All sums run in a fixed order (members by id, skills by sorted token) so that
repeated evaluations are bit-identical. Spread measures are population
standard deviations (divide by the count, not count - 1).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import AttributeClass, Candidate, ObjectiveVector, Project, Team

if TYPE_CHECKING:
    from .assembly import ProjectView


def matched_cost(candidate: Candidate, project: Project) -> float:
    """Sum of the candidate's costs over the requirements they possess."""
    total = 0.0
    for skill in project.sorted_requirements:
        cost = candidate.cost_profile.get(skill)
        if cost is not None:
            total += cost
    return total


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


def _spread(values: Sequence[float], total: float) -> float:
    """Population standard deviation of `values` around the mean `total / len(values)`.

    Each deviation is squared as `d * d`, an exact IEEE product; `d ** 2`
    goes through libm `pow`, which can differ in the last bit. The squares
    are added left to right by hand: from Python 3.12 on, `sum` of floats
    compensates its rounding, which `row_objectives` does not.
    """
    mean = total / len(values)
    squares = 0.0
    for value in values:
        deviation = value - mean
        squares += deviation * deviation
    return math.sqrt(squares / len(values))


def workload_unevenness(team: Team, project: Project) -> float:
    """Population standard deviation of the members' matched-cost loads."""
    loads, costs = _class_costs(team, project)
    return _spread(loads, costs[AttributeClass.ZERO] + costs[AttributeClass.ONE])


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


_ZERO_COST = "cost difference is undefined for a team with zero matched cost"


def _normalized_gap(costs: dict[AttributeClass, float]) -> float:
    total = costs[AttributeClass.ZERO] + costs[AttributeClass.ONE]
    if total == 0.0:
        raise ValueError(_ZERO_COST)
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


_SCORE_ROWS = 1024
"""Teams per block in `row_objectives`; bounds its working memory to
`_SCORE_ROWS` x max(k, r) doubles for teams of k over r requirements."""


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right as the scalar loops do.

    `np.sum` adds eight running partial sums from eight items on, which
    rounds differently from one left-to-right pass.
    """
    return values.cumsum(axis=-1)[..., -1]


def row_objectives(rows: np.ndarray, view: ProjectView) -> np.ndarray:
    """The objective vectors of many teams at once, one row of five per team.

    Row i of the n x k integer matrix `rows` lists a team's members as rows
    of the project view: positions into `view.loads` (each member's
    `matched_cost`), `view.class_one`, `view.finite_costs` (the member's cost
    per sorted requirement, 0.0 where not offered) and `view.id_ranks`, which
    follows member-id order. Each row is first put in that order, the order
    of `Team`, and every sum then runs left to right along it, so row i
    equals `objective_vector` of that team bit for bit. Rows are scored
    `_SCORE_ROWS` at a time; the result does not depend on the block size,
    and zero rows give a 0 x 5 result.

    Raises the `ValueError` that `objective_vector` raises for the first row
    with a zero cost or an objective that is not finite, whether or not that
    row would reach the team front.
    """
    loads, class_one, member_costs = view.loads, view.class_one, view.finite_costs
    # id ranks are distinct, so sorting (rank, position) pairs packed in one
    # integer puts each row in id order
    ordered = np.sort(view.id_ranks[rows] * len(loads) + rows, axis=1) % len(loads)
    count, size = rows.shape
    width = member_costs.shape[1]
    scores = np.empty((count, 5))
    # an overflow gives inf, as Python's float arithmetic does, and a zero
    # total gives 0/0 = nan; the check after the loop reports either one
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, count, _SCORE_ROWS):
            part = ordered[start : start + _SCORE_ROWS]
            team_loads, is_one = loads[part], class_one[part]
            # each class's loads in member order, the other class's as 0.0
            cost_zero, cost_one = _row_sums(np.where((~is_one, is_one), team_loads, 0.0))
            total = cost_zero + cost_one
            spread = team_loads - (total / size)[:, None]
            # per-requirement totals, member by member, without an n x k x r gather
            totals = member_costs[part[:, 0]]
            for j in range(1, size):
                totals += member_costs[part[:, j]]
            gaps = totals - (total / width)[:, None]
            out = scores[start : start + _SCORE_ROWS]
            out[:, 0] = total
            out[:, 1] = np.sqrt(_row_sums(spread * spread) / size)
            out[:, 2] = np.sqrt(_row_sums(gaps * gaps) / width)
            out[:, 3] = np.abs(size - 2 * is_one.sum(axis=1)) / size
            out[:, 4] = np.abs(cost_zero - cost_one) / total
    if not np.isfinite(scores).all():
        first = scores[np.flatnonzero(~np.isfinite(scores).all(axis=1))[0]].tolist()
        if first[0] == 0.0:  # 0/0 left nan in its cost difference
            raise ValueError(_ZERO_COST)
        ObjectiveVector(*first)  # raises naming the objective that is not finite
    return scores
