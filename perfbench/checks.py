"""Output checks run on every measured project, and the traced run's oracle.

Each function returns a list of problems, empty when the project is sound,
so the harness can count a project with any problem as one failed operation
and still say what went wrong.
"""

from __future__ import annotations

from typing import Sequence

from fairteams import (
    Candidate,
    InfeasibleProjectError,
    OutcomeRecord,
    Project,
    coverage,
    filter_candidates,
    form_random_teams,
    objective_vector,
    pareto_candidates,
    pareto_front,
    project_rng,
)

TOP_AXES = {
    "top-cost": 0,
    "top-workload": 1,
    "top-expertise": 2,
    "top-representation": 3,
    "top-costdiff": 4,
}


def record_problems(record: OutcomeRecord, project: Project, team_size: int) -> list[str]:
    """Check one formed outcome: full coverage, team size, exact objective vector."""
    outcome = record.outcome
    if not outcome.formed:
        return []
    where = f"{record.project_id} {record.target.label}"
    problems = []
    if coverage(outcome.team, project) != len(project.requirements):
        problems.append(f"{where}: team misses a requirement")
    if (
        record.target.method == "multi"
        and not outcome.diagnostics.used_fallback_team
        and len(outcome.team) != team_size
    ):
        problems.append(f"{where}: team has {len(outcome.team)} members, expected {team_size}")
    if outcome.objectives.as_tuple() != objective_vector(outcome.team, project).as_tuple():
        problems.append(f"{where}: reported objectives differ from objective_vector")
    return problems


def project_problems(
    records: Sequence[OutcomeRecord], project: Project, team_size: int
) -> list[str]:
    return [p for record in records for p in record_problems(record, project, team_size)]


def oracle_problems(
    records: Sequence[OutcomeRecord],
    pool: Sequence[Candidate],
    project: Project,
    *,
    team_size: int,
    num_teams: int,
    seed: int,
) -> list[str]:
    """Replay the multi pipeline stage by stage and compare with the outcomes.

    Every multi outcome must report the replayed stage counts, and every
    top-<objective> pick must attain that objective's minimum over the
    covered teams.
    """
    rng = project_rng(seed, project.id)
    try:
        matching = filter_candidates(pool, project)
    except InfeasibleProjectError:
        matching = []
    front = pareto_candidates(matching, project) if matching else []
    teams = form_random_teams(front, num_teams, team_size, rng) if front else []
    wanted = len(project.requirements)
    covered = [team for team in teams if coverage(team, project) == wanted]
    vectors = [objective_vector(team, project).as_tuple() for team in covered]
    kept = pareto_front(list(enumerate(vectors))) if vectors else []
    expected = {
        "pool_size": len(pool),
        "filtered_size": len(matching),
        "pareto_candidate_count": len(front),
        "teams_sampled": len(teams),
        "full_coverage_count": len(covered),
        "pareto_team_count": len(kept),
        "used_fallback_team": bool(matching) and len(front) < team_size,
    }

    problems = []
    for record in records:
        if record.target.method != "multi":
            continue
        where = f"{record.project_id} {record.target.label}"
        outcome = record.outcome
        for field, value in expected.items():
            reported = getattr(outcome.diagnostics, field)
            if reported != value:
                problems.append(f"{where}: {field} is {reported}, replay gives {value}")
        if outcome.formed != bool(kept):
            problems.append(f"{where}: formed is {outcome.formed}, replay front has {len(kept)}")
        axis = TOP_AXES.get(record.target.selection.value)
        if axis is not None and outcome.formed:
            best = min(vector[axis] for vector in vectors)
            if outcome.objectives.as_tuple()[axis] != best:
                problems.append(f"{where}: pick misses the covered minimum {best!r}")
    return problems
