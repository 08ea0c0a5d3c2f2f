"""Team assemblers: the two-stage multi-objective method and two greedy baselines.

The multi-objective pipeline filters candidates to those matching at least one
requirement, keeps the Pareto-best of them by per-requirement cost, samples N
random fixed-size teams from that subset, keeps the fully covering teams,
takes the Pareto front over their five objective values, and finally picks one
front team according to the configured selection mode.

Randomness is a PCG64 stream derived from (seed, project id), so assembling
distinct projects in parallel cannot perturb each other's draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .model import AttributeClass, Candidate, ObjectiveVector, Project, Team, coverage
from .objectives import matched_cost, objective_vector
from .pareto import pareto_front


class InfeasibleProjectError(ValueError):
    """No candidate in the pool offers any skill the project requires."""


class SelectionMode(Enum):
    """How the final team is picked from the team-level Pareto front."""

    RANDOM = "random"
    TOP_COST = "top-cost"
    TOP_WORKLOAD = "top-workload"
    TOP_EXPERTISE = "top-expertise"
    TOP_REPRESENTATION = "top-representation"
    TOP_COST_DIFFERENCE = "top-costdiff"
    TOP_SUM = "top-sum"


_OBJECTIVE_AXIS = {
    SelectionMode.TOP_COST: 0,
    SelectionMode.TOP_WORKLOAD: 1,
    SelectionMode.TOP_EXPERTISE: 2,
    SelectionMode.TOP_REPRESENTATION: 3,
    SelectionMode.TOP_COST_DIFFERENCE: 4,
}

_MAX_SEED = 2**64


@dataclass(frozen=True)
class AssemblyDiagnostics:
    """Counts and reduction fractions observed along the pipeline.

    Reduction fractions are 1 - front/input; when the input side is empty the
    fraction is reported as 0.0. The greedy baselines fill only the candidate
    counts and leave the sampling fields at zero.
    """

    pool_size: int
    filtered_size: int
    pareto_candidate_count: int
    teams_sampled: int
    full_coverage_count: int
    pareto_team_count: int
    candidate_reduction: float
    team_reduction: float
    used_fallback_team: bool = False


@dataclass(frozen=True)
class AssemblyOutcome:
    """Result of one assembly attempt: the team (if any) plus diagnostics."""

    method: str
    selection: SelectionMode | None
    team: Team | None
    objectives: ObjectiveVector | None
    diagnostics: AssemblyDiagnostics

    @property
    def formed(self) -> bool:
        return self.team is not None


def project_rng(seed: int, project_id: str) -> np.random.Generator:
    """Deterministic per-project PCG64 stream derived from (seed, project id)."""
    digest = hashlib.sha256(project_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def filter_candidates(pool: Sequence[Candidate], project: Project) -> list[Candidate]:
    """Candidates offering at least one required skill, in pool order."""
    if not pool:
        raise ValueError("candidate pool is empty")
    kept = [c for c in pool if not project.requirements.isdisjoint(c.cost_profile)]
    if not kept:
        raise InfeasibleProjectError(
            f"no candidate offers any skill required by project {project.id!r}"
        )
    return kept


@dataclass(frozen=True)
class ProjectView:
    """One project's view of the pool, shared by every assembler.

    `matching` holds the candidates offering at least one requirement, in pool
    order, and is empty when none does. `loads[i]` is `matched_cost` of
    `matching[i]`; bit j of `masks[i]` is set when it offers
    `project.sorted_requirements[j]`.
    """

    matching: list[Candidate]
    loads: list[float]
    masks: list[int]


def project_view(pool: Sequence[Candidate], project: Project) -> ProjectView:
    """Filter the pool once for `project`; an empty pool gives an empty view.

    The assemblers report an empty pool themselves, each in its own order.
    """
    matching: list[Candidate] = []
    if pool:
        try:
            matching = filter_candidates(pool, project)
        except InfeasibleProjectError:
            pass
    bits = [(1 << j, skill) for j, skill in enumerate(project.sorted_requirements)]
    masks = []
    for candidate in matching:
        profile = candidate.cost_profile
        mask = 0
        for bit, skill in bits:
            if skill in profile:
                mask |= bit
        masks.append(mask)
    return ProjectView(matching, [matched_cost(c, project) for c in matching], masks)


def candidate_scores(candidate: Candidate, project: Project) -> tuple[float, ...]:
    """Per-requirement cost vector; +inf marks a requirement not offered."""
    return tuple(
        candidate.cost_profile.get(skill, np.inf) for skill in project.sorted_requirements
    )


def pareto_candidates(candidates: Sequence[Candidate], project: Project) -> list[Candidate]:
    """Non-dominated subset of already-filtered candidates, in input order."""
    scored = [(i, candidate_scores(c, project)) for i, c in enumerate(candidates)]
    return [candidates[i] for i in pareto_front(scored)]


def form_random_teams(
    candidates: Sequence[Candidate],
    num_teams: int,
    team_size: int,
    rng: int | np.random.Generator,
) -> list[Team]:
    """Sample `num_teams` teams of `team_size` distinct members, uniformly.

    Repeated teams across draws are allowed. If fewer candidates than
    `team_size` are available, degrades to the single team holding everyone.
    """
    if num_teams < 1:
        raise ValueError(f"num_teams must be at least 1, got {num_teams}")
    if team_size < 1:
        raise ValueError(f"team_size must be at least 1, got {team_size}")
    generator = np.random.default_rng(rng)
    if len(candidates) < team_size:
        return [Team(candidates)]
    teams = []
    for _ in range(num_teams):
        picked = generator.choice(len(candidates), size=team_size, replace=False)
        teams.append(Team(candidates[i] for i in picked))
    return teams


def _run_pipeline(
    pool: Sequence[Candidate],
    project: Project,
    team_size: int,
    num_teams: int,
    rng: np.random.Generator,
    view: ProjectView | None,
) -> tuple[AssemblyDiagnostics, list[Team], list[ObjectiveVector], list[int]]:
    """Sample teams and take their front: the diagnostics, the covering teams,
    their objective vectors and the front's indices among them."""
    if view is None:
        view = project_view(pool, project)
    front_candidates: list[Candidate] = []
    teams: list[Team] = []
    covered: list[Team] = []
    vectors: list[ObjectiveVector] = []
    front_indices: list[int] = []
    if view.matching:
        front_candidates = pareto_candidates(view.matching, project)
        teams = form_random_teams(front_candidates, num_teams, team_size, rng)
        wanted = len(project.requirements)
        covered = [team for team in teams if coverage(team, project) == wanted]
    if covered:
        # Copies of a team share their objectives and never dominate each other,
        # so each distinct member set is scored once and the front over the
        # distinct vectors is expanded back to every covered copy.
        ids = [team.member_ids() for team in covered]
        distinct = {
            key: objective_vector(team, project)
            for key, team in dict(zip(ids, covered)).items()
        }
        vectors = [distinct[key] for key in ids]
        front = set(pareto_front([(key, vec.as_tuple()) for key, vec in distinct.items()]))
        front_indices = [i for i, key in enumerate(ids) if key in front]
    filtered = len(view.matching)
    diagnostics = AssemblyDiagnostics(
        pool_size=len(pool),
        filtered_size=filtered,
        pareto_candidate_count=len(front_candidates),
        teams_sampled=len(teams),
        full_coverage_count=len(covered),
        pareto_team_count=len(front_indices),
        candidate_reduction=1.0 - len(front_candidates) / filtered if filtered else 0.0,
        team_reduction=1.0 - len(front_indices) / len(covered) if covered else 0.0,
        used_fallback_team=0 < len(front_candidates) < team_size,
    )
    return diagnostics, covered, vectors, front_indices


def _normalized_sums(vectors: Sequence[ObjectiveVector]) -> list[float]:
    """Sum of min-max normalized objectives per vector; constant axes count 0."""
    columns = list(zip(*(vec.as_tuple() for vec in vectors)))
    sums = [0.0] * len(vectors)
    for column in columns:
        low, high = min(column), max(column)
        if high == low:
            continue
        span = high - low
        for i, value in enumerate(column):
            sums[i] += (value - low) / span
    return sums


def _select_index(
    covered: Sequence[Team],
    vectors: Sequence[ObjectiveVector],
    front: Sequence[int],
    selection: SelectionMode,
    rng: np.random.Generator,
) -> int:
    if selection is SelectionMode.RANDOM:
        return front[int(rng.integers(len(front)))]
    front_vectors = [vectors[i] for i in front]
    sums = _normalized_sums(front_vectors)
    if selection is SelectionMode.TOP_SUM:
        best = min(
            range(len(front)), key=lambda k: (sums[k], covered[front[k]].member_ids())
        )
        return front[best]
    axis = _OBJECTIVE_AXIS[selection]
    best_value = min(vec.as_tuple()[axis] for vec in front_vectors)
    tied = [k for k in range(len(front)) if front_vectors[k].as_tuple()[axis] == best_value]
    best = min(tied, key=lambda k: (sums[k], covered[front[k]].member_ids()))
    return front[best]


def assemble_all_selections(
    pool: Sequence[Candidate],
    project: Project,
    *,
    team_size: int,
    num_teams: int,
    seed: int,
    selections: Iterable[SelectionMode] = tuple(SelectionMode),
    view: ProjectView | None = None,
) -> dict[SelectionMode, AssemblyOutcome]:
    """Run the two-stage pipeline once; one outcome per distinct selection mode.

    Raises `ValueError`, before any sampling, unless `team_size` is at least
    3 and smaller than the pool, `num_teams` is at least 1, `seed` fits in
    64 unsigned bits and `selections` names at least one `SelectionMode` and
    nothing else. An outcome has no team when no sampled team covers every
    requirement; its diagnostics are populated either way.

    The modes share the sampling draws, and only `random` reads the generator
    after sampling, once, so each mode picks what it would pick alone,
    however the modes are ordered. `view`, if given, must be
    `project_view(pool, project)`; it is built when absent.
    """
    modes = list(dict.fromkeys(selections))
    if team_size < 3:
        raise ValueError(f"team_size must be at least 3, got {team_size}")
    if num_teams < 1:
        raise ValueError(f"num_teams must be at least 1, got {num_teams}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")
    if not modes:
        raise ValueError("selections must name at least one SelectionMode")
    if not all(isinstance(mode, SelectionMode) for mode in modes):
        raise ValueError("selection must be a SelectionMode")
    if team_size >= len(pool):
        raise ValueError(
            f"team_size {team_size} must be smaller than the pool ({len(pool)} candidates)"
        )
    rng = project_rng(seed, project.id)
    diagnostics, covered, vectors, front = _run_pipeline(
        pool, project, team_size, num_teams, rng, view
    )
    outcomes: dict[SelectionMode, AssemblyOutcome] = {}
    for mode in modes:
        team = vector = None
        if front:
            index = _select_index(covered, vectors, front, mode, rng)
            team, vector = covered[index], vectors[index]
        outcomes[mode] = AssemblyOutcome("multi", mode, team, vector, diagnostics)
    return outcomes


def _baseline_diagnostics(pool_size: int, filtered_size: int) -> AssemblyDiagnostics:
    return AssemblyDiagnostics(
        pool_size=pool_size,
        filtered_size=filtered_size,
        pareto_candidate_count=0,
        teams_sampled=0,
        full_coverage_count=0,
        pareto_team_count=0,
        candidate_reduction=0.0,
        team_reduction=0.0,
    )


def _best_addition(
    view: ProjectView,
    uncovered: int,
    chosen_ids: set[str],
    attribute: AttributeClass | None,
) -> int | None:
    """Index of the cheapest-per-new-requirement candidate; ties by lower cost, then id.

    `uncovered` is the mask of requirements no chosen member offers yet, so a
    chosen member adds nothing; `chosen_ids` also bars another pool entry
    sharing a chosen id.
    """
    best: int | None = None
    best_key: tuple[float, float, str] | None = None
    for i, mask in enumerate(view.masks):
        newly_covered = (mask & uncovered).bit_count()
        if not newly_covered:
            continue
        candidate = view.matching[i]
        if attribute is not None and candidate.attribute is not attribute:
            continue
        if candidate.id in chosen_ids:
            continue
        load = view.loads[i]
        key = (load / newly_covered, load, candidate.id)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def _preferred_class(
    counts: dict[AttributeClass, int], costs: dict[AttributeClass, float]
) -> AttributeClass:
    zero, one = AttributeClass.ZERO, AttributeClass.ONE
    if counts[zero] != counts[one]:
        return zero if counts[zero] < counts[one] else one
    if costs[zero] != costs[one]:
        return zero if costs[zero] < costs[one] else one
    return zero


def _greedy_assemble(
    pool: Sequence[Candidate],
    project: Project,
    method: str,
    balance_classes: bool,
    view: ProjectView | None,
) -> AssemblyOutcome:
    if not pool:
        raise ValueError("candidate pool is empty")
    if view is None:
        view = project_view(pool, project)
    diagnostics = _baseline_diagnostics(len(pool), len(view.matching))

    chosen: list[Candidate] = []
    chosen_ids: set[str] = set()
    uncovered = (1 << len(project.sorted_requirements)) - 1
    counts = {AttributeClass.ZERO: 0, AttributeClass.ONE: 0}
    costs = {AttributeClass.ZERO: 0.0, AttributeClass.ONE: 0.0}
    while uncovered:
        if balance_classes:
            preferred = _preferred_class(counts, costs)
            pick = _best_addition(view, uncovered, chosen_ids, preferred)
            if pick is None:
                pick = _best_addition(view, uncovered, chosen_ids, preferred.other())
        else:
            pick = _best_addition(view, uncovered, chosen_ids, None)
        if pick is None:
            return AssemblyOutcome(method, None, None, None, diagnostics)
        candidate = view.matching[pick]
        chosen.append(candidate)
        chosen_ids.add(candidate.id)
        uncovered &= ~view.masks[pick]
        counts[candidate.attribute] += 1
        costs[candidate.attribute] += view.loads[pick]

    team = Team(chosen)
    return AssemblyOutcome(method, None, team, objective_vector(team, project), diagnostics)


def assemble_incremental(
    pool: Sequence[Candidate], project: Project, *, view: ProjectView | None = None
) -> AssemblyOutcome:
    """Greedy set-cover baseline: repeatedly add the most cost-effective candidate.

    Cost-effectiveness is added matched cost divided by newly covered
    requirements. Stops at full coverage; team size is whatever that takes.
    `view`, if given, must be `project_view(pool, project)`.
    """
    return _greedy_assemble(pool, project, "incremental", balance_classes=False, view=view)


def assemble_fair_allocation(
    pool: Sequence[Candidate], project: Project, *, view: ProjectView | None = None
) -> AssemblyOutcome:
    """Greedy baseline that prefers the currently underrepresented class.

    Each step restricts the pick to the attribute class with fewer members so
    far (ties: lower accumulated class cost, then class zero) and falls back
    to the other class when no preferred-class candidate adds coverage.
    `view`, if given, must be `project_view(pool, project)`.
    """
    return _greedy_assemble(pool, project, "fair-alloc", balance_classes=True, view=view)
