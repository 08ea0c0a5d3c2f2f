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
from .objectives import objective_vector
from .pareto import _front_rows, pareto_front


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
    fraction is reported as 0.0. The greedy baselines fill only the pool and
    filtered sizes and leave the sampling fields at their zero defaults.
    """

    pool_size: int
    filtered_size: int
    pareto_candidate_count: int = 0
    teams_sampled: int = 0
    full_coverage_count: int = 0
    pareto_team_count: int = 0
    candidate_reduction: float = 0.0
    team_reduction: float = 0.0
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


@dataclass(frozen=True, eq=False)
class ProjectView:
    """One project's view of the pool, shared by every assembler.

    `matching` holds the candidates offering at least one requirement, in pool
    order, and is empty when none does. Row i of the read-only `costs` matrix
    is `candidate_scores(matching[i], project)`. `loads[i]` is `matched_cost`
    of `matching[i]`; bit j of `masks[i]` is set when it offers
    `project.sorted_requirements[j]`.
    """

    matching: list[Candidate]
    costs: np.ndarray
    loads: list[float]
    masks: list[int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectView):
            return NotImplemented
        return (self.matching, self.loads, self.masks) == (
            other.matching,
            other.loads,
            other.masks,
        ) and np.array_equal(self.costs, other.costs)


_SkillIndex = dict[str, tuple[np.ndarray, np.ndarray]]
"""Skill -> (ascending pool positions offering it, their costs for it)."""

# (pool snapshot, its index); a rebuild rebinds it and never mutates the pair
_POOL_INDEX: tuple[tuple[Candidate, ...], _SkillIndex] | None = None


def _skill_index(snapshot: tuple[Candidate, ...]) -> _SkillIndex:
    """The postings index of the pool `snapshot`, reused while the pool equals it.

    The comparison is tuple equality, which passes identical candidates
    without calling `__eq__`. An equal pool keeps the index but becomes the
    snapshot, so a pool reused across projects costs one pointer check per
    candidate, while an altered pool gets a fresh index.
    """
    global _POOL_INDEX
    cached = _POOL_INDEX
    if cached is not None and cached[0] == snapshot:
        index = cached[1]
    else:
        index = _build_index(snapshot)
    _POOL_INDEX = (snapshot, index)
    return index


def _build_index(pool: Sequence[Candidate]) -> _SkillIndex:
    positions: dict[str, list[int]] = {}
    costs: dict[str, list[float]] = {}
    for position, candidate in enumerate(pool):
        for skill, cost in candidate.cost_profile.items():
            if skill not in positions:
                positions[skill], costs[skill] = [], []
            positions[skill].append(position)
            costs[skill].append(cost)
    return {
        skill: (np.array(positions[skill], dtype=np.intp), np.array(costs[skill], dtype=float))
        for skill in positions
    }


def project_view(pool: Sequence[Candidate], project: Project) -> ProjectView:
    """Match the pool against `project` through the pool's skill index; an
    empty pool gives an empty view.

    The assemblers report an empty pool themselves, each in its own order.
    """
    snapshot = tuple(pool)
    requirements = project.sorted_requirements
    index = _skill_index(snapshot)
    offered = [(j, *index[skill]) for j, skill in enumerate(requirements) if skill in index]
    hit = np.zeros(len(snapshot), dtype=bool)
    for _, positions, _ in offered:
        hit[positions] = True
    rows = np.flatnonzero(hit)
    row_of = np.cumsum(hit) - 1
    costs = np.full((len(rows), len(requirements)), np.inf)
    for j, positions, column in offered:
        costs[row_of[positions], j] = column
    costs.flags.writeable = False
    offers = np.isfinite(costs)
    # column by column in requirement order, the order `matched_cost` adds in
    loads = np.zeros(len(rows))
    for column in np.where(offers, costs, 0.0).T:
        loads += column
    matching = [snapshot[i] for i in rows.tolist()]
    return ProjectView(matching, costs, loads.tolist(), _bitmasks(offers))


_MASK_CHUNK = 62
"""Columns per int64 product: 62 bits sum to less than 2**62, so none overflows."""


def _bitmasks(offers: np.ndarray) -> list[int]:
    """Bit j of item i is `offers[i, j]`, as Python ints of any width."""
    masks: list[int] = []
    for low in range(0, offers.shape[1], _MASK_CHUNK):
        chunk = offers[:, low : low + _MASK_CHUNK]
        bits = (chunk @ (1 << np.arange(chunk.shape[1], dtype=np.int64))).tolist()
        masks = [mask | high << low for mask, high in zip(masks, bits)] if low else bits
    return masks


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
) -> tuple[AssemblyDiagnostics, list[tuple[Team, ObjectiveVector]]]:
    """Sample teams and take their front: the diagnostics and the covering
    copies on the team front as (team, vector) pairs, in sampling order."""
    if view is None:
        view = project_view(pool, project)
    front_candidates: list[Candidate] = []
    teams: list[Team] = []
    covered: list[Team] = []
    front: list[tuple[Team, ObjectiveVector]] = []
    if view.matching:
        front_candidates = [view.matching[i] for i in _front_rows(view.costs).tolist()]
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
        kept = set(pareto_front([(key, vec.as_tuple()) for key, vec in distinct.items()]))
        front = [(team, distinct[key]) for key, team in zip(ids, covered) if key in kept]
    filtered = len(view.matching)
    diagnostics = AssemblyDiagnostics(
        pool_size=len(pool),
        filtered_size=filtered,
        pareto_candidate_count=len(front_candidates),
        teams_sampled=len(teams),
        full_coverage_count=len(covered),
        pareto_team_count=len(front),
        candidate_reduction=1.0 - len(front_candidates) / filtered if filtered else 0.0,
        team_reduction=1.0 - len(front) / len(covered) if covered else 0.0,
        used_fallback_team=0 < len(front_candidates) < team_size,
    )
    return diagnostics, front


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
    front: Sequence[tuple[Team, ObjectiveVector]],
    sums: Sequence[float],
    selection: SelectionMode,
    rng: np.random.Generator,
) -> int:
    """Index of the pick in `front`; `sums` are the front's normalized sums.

    `random` draws one copy. Every other mode takes the least (value on its
    axis, normalized sum, member ids); `top-sum` has no axis and reads 0.0.
    """
    if selection is SelectionMode.RANDOM:
        return int(rng.integers(len(front)))
    axis = _OBJECTIVE_AXIS.get(selection)
    return min(
        range(len(front)),
        key=lambda k: (
            0.0 if axis is None else front[k][1].as_tuple()[axis],
            sums[k],
            front[k][0].member_ids(),
        ),
    )


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
    diagnostics, front = _run_pipeline(pool, project, team_size, num_teams, rng, view)
    sums = _normalized_sums([vector for _, vector in front])
    outcomes: dict[SelectionMode, AssemblyOutcome] = {}
    for mode in modes:
        team = vector = None
        if front:
            team, vector = front[_select_index(front, sums, mode, rng)]
        outcomes[mode] = AssemblyOutcome("multi", mode, team, vector, diagnostics)
    return outcomes


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
    diagnostics = AssemblyDiagnostics(len(pool), len(view.matching))

    chosen: list[Candidate] = []
    chosen_ids: set[str] = set()
    uncovered = (1 << len(project.sorted_requirements)) - 1
    counts = {AttributeClass.ZERO: 0, AttributeClass.ONE: 0}
    costs = {AttributeClass.ZERO: 0.0, AttributeClass.ONE: 0.0}
    while uncovered:
        if balance_classes:
            preferred = min(AttributeClass, key=lambda c: (counts[c], costs[c], c.value))
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
