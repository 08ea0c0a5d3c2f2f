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
import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import AttributeClass, Candidate, ObjectiveVector, Project, Team
from .model import coverage  # noqa: F401  the scalar reference; tracers wrap it under this name
from .objectives import objective_vector, row_objectives
from .pareto import _front_rows, _support_front_rows, pareto_front


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
    __hash__ = object.__hash__  # as `AttributeClass`'s


_OBJECTIVE_AXIS = {
    SelectionMode.TOP_COST: 0,
    SelectionMode.TOP_WORKLOAD: 1,
    SelectionMode.TOP_EXPERTISE: 2,
    SelectionMode.TOP_REPRESENTATION: 3,
    SelectionMode.TOP_COST_DIFFERENCE: 4,
}

_MAX_SEED = 2**64


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AssemblyOutcome:
    """Result of one assembly attempt: the team (if any) plus diagnostics."""

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
    order, and is empty when none does; `pool_size` counts the whole pool.
    Row i of `costs` is `candidate_scores(matching[i], project)`; `offers`
    marks its finite entries, `support` counts them per row and
    `finite_costs` is `costs` with 0.0 for +inf. Entry i of the float64
    `loads` is `matched_cost` of `matching[i]`. These five arrays are
    read-only, derived once for every stage to read. Bit j of `masks[i]` is set when it offers
    `project.sorted_requirements[j]`. `id_ranks[i]` orders `matching[i]` by
    id within the pool, and `class_one[i]` is whether its class is `ONE`.
    """

    matching: list[Candidate]
    pool_size: int
    costs: np.ndarray
    offers: np.ndarray
    support: np.ndarray
    finite_costs: np.ndarray
    loads: np.ndarray
    masks: list[int]
    id_ranks: np.ndarray
    class_one: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectView):
            return NotImplemented
        arrays = ("costs", "loads", "id_ranks", "class_one")
        plain = (self.matching, self.pool_size, self.masks)
        return plain == (other.matching, other.pool_size, other.masks) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays
        )

    @cached_property
    def load_list(self) -> list[float]:
        """`loads` as Python floats, for the greedy methods' scalar keys."""
        return self.loads.tolist()

    @cached_property
    def greedy_diagnostics(self) -> AssemblyDiagnostics:
        """The diagnostics both greedy baselines report: the pool and filtered sizes."""
        return AssemblyDiagnostics(self.pool_size, len(self.matching))

    @cached_property
    def greedy_order(self) -> dict[AttributeClass | None, list[int]]:
        """Rows ascending by their greedy key with nothing covered yet, (load /
        requirements offered, load, id): all rows under `None`, and each
        class's own under that class.

        The greedy methods share these lists and never change them.
        """
        ratios = self.loads / self.support
        order = np.lexsort((self.id_ranks, self.loads, ratios))
        one = self.class_one[order]
        return {
            None: order.tolist(),
            AttributeClass.ZERO: order[~one].tolist(),
            AttributeClass.ONE: order[one].tolist(),
        }


_PoolIndex = tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]
"""Skill -> (ascending pool positions offering it, their costs for it); each
position's rank in id order; whether each position's class is `ONE`."""

# (pool snapshot, its index); a rebuild rebinds it and never mutates the pair
_POOL_INDEX: tuple[tuple[Candidate, ...], _PoolIndex] | None = None


def _skill_index(snapshot: tuple[Candidate, ...]) -> _PoolIndex:
    """The index of the pool `snapshot`, reused while the pool equals it.

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


def _build_index(pool: Sequence[Candidate]) -> _PoolIndex:
    positions: dict[str, list[int]] = {}
    costs: dict[str, list[float]] = {}
    first_at: dict[str, int] = {}
    for position, candidate in enumerate(pool):
        first = first_at.setdefault(candidate.id, position)
        if first != position:
            raise ValueError(
                f"candidate id {candidate.id!r} repeats at pool positions {first} and {position}"
            )
        for skill, cost in candidate.cost_profile.items():
            if skill not in positions:
                positions[skill], costs[skill] = [], []
            positions[skill].append(position)
            costs[skill].append(cost)
    postings = {
        skill: (np.array(positions[skill], dtype=np.intp), np.array(costs[skill], dtype=float))
        for skill in positions
    }
    # ids are distinct, so rank order is id order
    id_ranks = np.empty(len(pool), dtype=np.intp)
    id_ranks[[first_at[cid] for cid in sorted(first_at)]] = np.arange(len(pool))
    class_one = np.array([c.attribute is AttributeClass.ONE for c in pool], dtype=bool)
    return postings, id_ranks, class_one


def project_view(pool: Sequence[Candidate], project: Project) -> ProjectView:
    """Match the pool against `project` through the pool's skill index; an
    empty pool gives an empty view, and a pool with a repeated id raises
    `ValueError` when it is indexed.

    The assemblers report an empty pool themselves, each in its own order.
    """
    snapshot = tuple(pool)
    requirements = project.sorted_requirements
    postings, id_ranks, class_one = _skill_index(snapshot)
    offered = [(j, *postings[skill]) for j, skill in enumerate(requirements) if skill in postings]
    hit = np.zeros(len(snapshot), dtype=bool)
    for _, positions, _ in offered:
        hit[positions] = True
    rows = np.flatnonzero(hit)
    row_of = np.cumsum(hit) - 1
    # column-major: its reductions run along the long axis, not over a few requirements
    costs = np.full((len(rows), len(requirements)), np.inf, order="F")
    for j, positions, column in offered:
        costs[row_of[positions], j] = column
    offers = np.isfinite(costs)
    finite_costs = np.where(offers, costs, 0.0)
    # column by column in requirement order, the order `matched_cost` adds in
    loads = np.zeros(len(rows))
    for column in finite_costs.T:
        loads += column
    arrays = (costs, offers, offers.sum(axis=1), finite_costs, loads)
    for array in arrays:
        array.flags.writeable = False
    matching = [snapshot[i] for i in rows.tolist()]
    masks = _bitmasks(offers)
    return ProjectView(matching, len(snapshot), *arrays, masks, id_ranks[rows], class_one[rows])


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


_KEY_ROWS = 1024
"""Draws per block of the sampling key matrix; bounds its memory to
`_KEY_ROWS` x front-size doubles and leaves the drawn stream unchanged."""


def _sample_rows(size: int, num_teams: int, team_size: int, rng: np.random.Generator) -> np.ndarray:
    """`num_teams` uniform `team_size`-subsets of `range(size)`, one ascending row each.

    Each draw takes the `team_size` least of `size` uniform keys. The keys
    come in blocks of `_KEY_ROWS` rows, read in order from one stream, so the
    rows do not depend on the block size. When `size < team_size` nothing
    is drawn: the one row is all of `range(size)`, and there is none for 0.
    """
    if 0 < size < team_size:
        return np.arange(size, dtype=np.intp)[None]
    rows = np.empty((num_teams if size else 0, team_size), dtype=np.intp)
    for start in range(0, len(rows), _KEY_ROWS):
        keys = rng.random((min(_KEY_ROWS, len(rows) - start), size))
        picked = np.argpartition(keys, team_size - 1, axis=1)[:, :team_size]
        rows[start : start + len(keys)] = np.sort(picked, axis=1)
    return rows


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a C-contiguous matrix, and each row's index among them."""
    # one opaque byte string per row: np.unique sorts these several times
    # faster than rows compared column by column, and the order is not used
    width = rows.shape[1]
    distinct, draws = np.unique(rows.view((np.void, rows.itemsize * width)), return_inverse=True)
    return distinct.view(rows.dtype).reshape(-1, width), draws.reshape(-1)


def _covering(rows: np.ndarray, offers: np.ndarray) -> np.ndarray:
    """Whether each row's members, as rows of `offers` OR-ed, fill every column."""
    union = offers[rows[:, 0]]
    for column in rows.T[1:]:
        union |= offers[column]
    return union.all(axis=1)


def form_random_teams(
    candidates: Sequence[Candidate],
    num_teams: int,
    team_size: int,
    rng: int | np.random.Generator,
) -> list[Team]:
    """Sample `num_teams` teams of `team_size` distinct members, uniformly.

    Repeated teams across draws are allowed. Fewer candidates than
    `team_size` give the single team of everyone, and none give no team;
    neither draws. The draws are those of the multi-objective pipeline.
    """
    if num_teams < 1:
        raise ValueError(f"num_teams must be at least 1, got {num_teams}")
    if team_size < 1:
        raise ValueError(f"team_size must be at least 1, got {team_size}")
    rows = _sample_rows(len(candidates), num_teams, team_size, np.random.default_rng(rng))
    return [Team(candidates[i] for i in row) for row in rows.tolist()]


def _run_pipeline(
    pool: Sequence[Candidate],
    team_size: int,
    num_teams: int,
    rng: np.random.Generator,
    view: ProjectView,
) -> tuple[AssemblyDiagnostics, np.ndarray, np.ndarray, np.ndarray]:
    """Sample teams and take their front.

    Returns the diagnostics; the distinct teams on the team front, as rows of
    positions into `view`, and their n x 5 scores; and for each covering draw
    on the front, in draw order, the index of its team's row.

    The six stages, `_support_front_rows`, `_sample_rows`, `_distinct_rows`,
    `_covering`, `row_objectives` and `_front_rows`, are read from this
    module's globals at each call, so a tracer can replace each there. Each
    maps zero rows to zero rows, so an empty front needs no branch.
    """
    # the candidate front; every sampled row holds positions in it
    front_rows = _support_front_rows(view.costs, view.support)
    rows = _sample_rows(len(front_rows), num_teams, team_size, rng)
    distinct, draws = _distinct_rows(rows)
    # rows of positions into the candidate front, as positions into the view
    on_view = front_rows[distinct]
    covers = _covering(on_view, view.offers)
    # Copies of a team share their objectives and never dominate each other,
    # so the front is taken over the distinct covering teams; `place` holds
    # each distinct row's index on it, or -1.
    covering = on_view[covers]
    scores = row_objectives(covering, view)
    kept = _front_rows(scores)
    place = np.full(len(distinct), -1)
    place[np.flatnonzero(covers)[kept]] = np.arange(len(kept))
    copies = place[draws]
    copies = copies[copies >= 0]
    covered = int(np.count_nonzero(covers[draws]))
    filtered, candidates = len(view.matching), len(front_rows)
    diagnostics = AssemblyDiagnostics(
        pool_size=len(pool),
        filtered_size=filtered,
        pareto_candidate_count=candidates,
        teams_sampled=len(rows),
        full_coverage_count=covered,
        pareto_team_count=len(copies),
        candidate_reduction=1.0 - candidates / filtered if filtered else 0.0,
        team_reduction=1.0 - len(copies) / covered if covered else 0.0,
        used_fallback_team=0 < candidates < team_size,
    )
    return diagnostics, covering[kept], scores[kept], copies


def _normalized_sums(values: Sequence[Sequence[float]]) -> list[float]:
    """Sum of min-max normalized objectives per row; constant axes count 0."""
    sums = [0.0] * len(values)
    for column in zip(*values):
        low, high = min(column), max(column)
        if high != low:
            for i, value in enumerate(column):
                sums[i] += (value - low) / (high - low)
    return sums


def _picks(
    values: list[list[float]], ranks: list[list[int]], rng: np.random.Generator, copies: np.ndarray
) -> dict[SelectionMode, int]:
    """Each mode's pick, as an index into the front's rows `values`.

    `random` draws one copy: an entry of `copies`, which maps each sampled
    copy to its row. Every other mode takes the least (value on its axis,
    normalized sum, member ids); `top-sum` has no axis. `ranks[i]` holds row
    i's member id ranks, ascending. Ranks follow id order and all rows have
    one width, so comparing rank rows compares member-id tuples.
    """
    sums = _normalized_sums(values)
    # ascending by (normalized sum, member ids); `min` keeps the first of equal
    # values, so on this order it gives an axis's least (value, sum, ids)
    order = sorted(range(len(values)), key=lambda i: (sums[i], ranks[i]))
    picks = {
        mode: min(order, key=lambda i: values[i][axis]) for mode, axis in _OBJECTIVE_AXIS.items()
    }
    picks[SelectionMode.TOP_SUM] = order[0]
    picks[SelectionMode.RANDOM] = int(copies[rng.integers(len(copies))])
    return picks


def assemble_all_selections(
    pool: Sequence[Candidate],
    project: Project,
    *,
    team_size: int,
    num_teams: int,
    seed: int,
    view: ProjectView | None = None,
) -> dict[SelectionMode, AssemblyOutcome]:
    """Run the two-stage pipeline once; one outcome per selection mode.

    Raises `ValueError`, before any sampling, unless `team_size` is at least
    3 and smaller than the pool, `num_teams` is at least 1, `seed` fits in
    64 unsigned bits and the pool's ids are distinct. An outcome has no team
    when no sampled team covers every requirement; its diagnostics are
    populated either way. Modes that pick the same team share one outcome.

    The modes share the sampling draws, and only `random` reads the generator
    after sampling, once. `view`, if given, must be
    `project_view(pool, project)`; it is built when absent.
    """
    if team_size < 3:
        raise ValueError(f"team_size must be at least 3, got {team_size}")
    if num_teams < 1:
        raise ValueError(f"num_teams must be at least 1, got {num_teams}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in 64 unsigned bits")
    if team_size >= len(pool):
        raise ValueError(
            f"team_size {team_size} must be smaller than the pool ({len(pool)} candidates)"
        )
    if view is None:
        view = project_view(pool, project)
    rng = project_rng(seed, project.id)
    diagnostics, rows, scores, copies = _run_pipeline(pool, team_size, num_teams, rng, view)
    if not len(rows):
        return dict.fromkeys(SelectionMode, AssemblyOutcome(None, None, diagnostics))
    values = scores.tolist()
    # the bounds `ObjectiveVector` checks, on every front row, picked or not
    if not (np.isfinite(scores).all() and scores.min() >= 0.0 and scores[:, 3:].max() <= 1.0):
        for row in values:
            ObjectiveVector(*row)  # raises for the first row outside them
    picks = _picks(values, np.sort(view.id_ranks[rows], axis=1).tolist(), rng, copies)
    built: dict[int, AssemblyOutcome] = {}
    for index in dict.fromkeys(picks.values()):
        team = Team(view.matching[i] for i in rows[index].tolist())
        built[index] = AssemblyOutcome(team, ObjectiveVector(*values[index]), diagnostics)
    return {mode: built[picks[mode]] for mode in SelectionMode}


class _LazyQueue:
    """Rows of one group of candidates, keyed lazily (Minoux, 1978).

    A key is (load / newly covered, load, id). Costs are positive, so a key
    only rises as coverage grows, and a key seen earlier is a lower bound.
    `pop` refreshes the least key seen, unread in `greedy_order` or on the
    heap: if it has not risen, its row is the pick; if it has, it goes back
    on the heap; a row that covers nothing new is dropped for good.
    """

    def __init__(self, view: ProjectView, rows: list[int]) -> None:
        loads, masks, matching = view.load_list, view.masks, view.matching
        self.unread = (
            (loads[row] / masks[row].bit_count(), loads[row], matching[row].id, row) for row in rows
        )
        self.head = next(self.unread, None)
        self.heap: list[tuple[float, float, str, int]] = []

    def pop(self, masks: list[int], uncovered: int) -> int | None:
        """Row of the least key given the `uncovered` mask; None if no row covers any of it."""
        heap = self.heap
        while True:
            if self.head is not None and (not heap or self.head < heap[0]):
                key, self.head = self.head, next(self.unread, None)
            elif heap:
                key = heapq.heappop(heap)
            else:
                return None
            ratio, load, cid, row = key
            newly_covered = (masks[row] & uncovered).bit_count()
            if newly_covered and load / newly_covered == ratio:
                return row
            if newly_covered:
                heapq.heappush(heap, (load / newly_covered, load, cid, row))


def _greedy_assemble(
    pool: Sequence[Candidate],
    project: Project,
    balance_classes: bool,
    view: ProjectView | None,
) -> AssemblyOutcome:
    if not pool:
        raise ValueError("candidate pool is empty")
    if view is None:
        view = project_view(pool, project)
    diagnostics = view.greedy_diagnostics

    queues = {group: _LazyQueue(view, rows) for group, rows in view.greedy_order.items()}
    chosen: list[Candidate] = []
    uncovered = (1 << len(project.sorted_requirements)) - 1
    counts = {AttributeClass.ZERO: 0, AttributeClass.ONE: 0}
    costs = {AttributeClass.ZERO: 0.0, AttributeClass.ONE: 0.0}
    while uncovered:
        if balance_classes:
            preferred = min(AttributeClass, key=lambda c: (counts[c], costs[c], c.value))
            pick = queues[preferred].pop(view.masks, uncovered)
            if pick is None:
                pick = queues[preferred.other()].pop(view.masks, uncovered)
        else:
            pick = queues[None].pop(view.masks, uncovered)
        if pick is None:
            return AssemblyOutcome(None, None, diagnostics)
        candidate = view.matching[pick]
        chosen.append(candidate)
        uncovered &= ~view.masks[pick]
        counts[candidate.attribute] += 1
        costs[candidate.attribute] += view.load_list[pick]

    team = Team(chosen)
    return AssemblyOutcome(team, objective_vector(team, project), diagnostics)


def assemble_incremental(
    pool: Sequence[Candidate], project: Project, *, view: ProjectView | None = None
) -> AssemblyOutcome:
    """Greedy set-cover baseline: repeatedly add the most cost-effective candidate.

    Cost-effectiveness is added matched cost divided by newly covered
    requirements. Stops at full coverage; team size is whatever that takes.
    `view`, if given, must be `project_view(pool, project)`.
    """
    return _greedy_assemble(pool, project, balance_classes=False, view=view)


def assemble_fair_allocation(
    pool: Sequence[Candidate], project: Project, *, view: ProjectView | None = None
) -> AssemblyOutcome:
    """Greedy baseline that prefers the currently underrepresented class.

    Each step restricts the pick to the attribute class with fewer members so
    far (ties: lower accumulated class cost, then class zero) and falls back
    to the other class when no preferred-class candidate adds coverage.
    `view`, if given, must be `project_view(pool, project)`.
    """
    return _greedy_assemble(pool, project, balance_classes=True, view=view)
