"""The two-stage assembler, its selection modes, and the greedy baselines."""

from __future__ import annotations

import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairteams import (
    AssemblyDiagnostics,
    AssemblyOutcome,
    AttributeClass,
    Candidate,
    InfeasibleProjectError,
    ObjectiveVector,
    Project,
    RunTarget,
    SelectionMode,
    SynthesisSpec,
    Team,
    assemble_all_selections,
    assemble_fair_allocation,
    assemble_incremental,
    candidate_scores,
    coverage,
    dominates,
    filter_candidates,
    form_random_teams,
    objective_vector,
    pareto_candidates,
    pareto_front,
    project_rng,
    run_benchmark,
    synthesize_pool,
    synthesize_projects,
)
from fairteams.assembly import _normalized_sums, _picks, project_view
from fairteams.data_io import skill_universe
from fairteams.objectives import matched_cost
from test_pareto import oracle_front_indices

INF = math.inf

ALL_MODES = tuple(SelectionMode)
TOP_AXES = {
    SelectionMode.TOP_COST: 0,
    SelectionMode.TOP_WORKLOAD: 1,
    SelectionMode.TOP_EXPERTISE: 2,
    SelectionMode.TOP_REPRESENTATION: 3,
    SelectionMode.TOP_COST_DIFFERENCE: 4,
}


def _candidate(cid, attribute, profile):
    return Candidate(cid, attribute, profile)


def _sampled_covered_teams(pool, project, team_size, num_teams, seed):
    """Replay the sampling stage exactly as the pipeline runs it."""
    matching = filter_candidates(pool, project)
    front = pareto_candidates(matching, project)
    rng = project_rng(seed, project.id)
    teams = form_random_teams(front, num_teams, team_size, rng)
    wanted = len(project.requirements)
    return [team for team in teams if coverage(team, project) == wanted]


# -- candidate filtering and scoring ----------------------------------------


def test_filter_keeps_demo_members(demo_members, demo_project):
    assert filter_candidates(demo_members, demo_project) == demo_members


def test_filter_drops_candidates_with_no_required_skill(demo_members, demo_project):
    outsider = _candidate("outsider", AttributeClass.ZERO, {"unrelated": 1.0})
    assert filter_candidates(demo_members + [outsider], demo_project) == demo_members


def test_filter_raises_when_nobody_matches(demo_project):
    outsider = _candidate("outsider", AttributeClass.ZERO, {"unrelated": 1.0})
    with pytest.raises(InfeasibleProjectError):
        filter_candidates([outsider], demo_project)


def test_filter_rejects_empty_pool(demo_project):
    with pytest.raises(ValueError):
        filter_candidates([], demo_project)


def test_candidate_scores_use_inf_for_missing_skills(demo_members, demo_project):
    scores = candidate_scores(demo_members[1], demo_project)
    assert scores == (0.100, INF, INF, 0.022)


def test_candidate_scores_uniform_profile():
    candidate = _candidate("c", AttributeClass.ZERO, {"a": 0.3, "b": 0.3})
    project = Project("p", frozenset({"a", "b"}))
    assert candidate_scores(candidate, project) == (0.3, 0.3)


def test_cheaper_everywhere_candidate_dominates():
    project = Project("p", frozenset({"a", "b"}))
    cheap = candidate_scores(_candidate("x", AttributeClass.ZERO, {"a": 0.1, "b": 0.1}), project)
    pricey = candidate_scores(_candidate("y", AttributeClass.ZERO, {"a": 0.2, "b": 0.2}), project)
    assert dominates(cheap, pricey)


def test_pareto_candidates_drop_strictly_worse_duplicates():
    project = Project("p", frozenset({"a"}))
    cheap = _candidate("cheap", AttributeClass.ZERO, {"a": 0.1})
    pricey = _candidate("pricey", AttributeClass.ONE, {"a": 0.5})
    assert pareto_candidates([pricey, cheap], project) == [cheap]


def test_pareto_candidates_keep_disjoint_specialists():
    project = Project("p", frozenset({"a", "b"}))
    left = _candidate("left", AttributeClass.ZERO, {"a": 0.9})
    right = _candidate("right", AttributeClass.ONE, {"b": 0.1})
    assert pareto_candidates([left, right], project) == [left, right]


def test_pareto_candidates_match_oracle_on_random_pool():
    rng = np.random.default_rng(58)
    skills = skill_universe(6)
    pool = []
    for i in range(50):
        owned = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
        cost = float(rng.uniform(0.05, 1.0))
        pool.append(
            _candidate(f"c{i:02d}", AttributeClass(int(rng.integers(2))), {skills[j]: cost for j in owned})
        )
    project = Project("p", frozenset(skills[:4]))
    matching = filter_candidates(pool, project)
    kept = pareto_candidates(matching, project)
    vectors = [candidate_scores(c, project) for c in matching]
    want = oracle_front_indices(vectors)
    assert [matching.index(c) for c in kept] == sorted(want)


# -- random team formation ---------------------------------------------------


def test_form_single_full_team():
    pool = [_candidate(f"c{i}", AttributeClass.ZERO, {"s": 1.0}) for i in range(4)]
    teams = form_random_teams(pool, 1, 4, rng=0)
    assert len(teams) == 1
    assert teams[0].member_ids() == ("c0", "c1", "c2", "c3")


def test_form_random_teams_is_deterministic():
    pool = [_candidate(f"c{i}", AttributeClass.ZERO, {"s": 1.0}) for i in range(8)]
    first = [t.member_ids() for t in form_random_teams(pool, 20, 3, rng=99)]
    second = [t.member_ids() for t in form_random_teams(pool, 20, 3, rng=99)]
    assert first == second


def test_form_random_teams_samples_uniformly():
    pool = [_candidate(f"c{i}", AttributeClass(i % 2), {"s": 1.0}) for i in range(6)]
    teams = form_random_teams(pool, 10_000, 3, rng=123)
    counts = Counter(team.member_ids() for team in teams)
    assert len(counts) == 20
    for count in counts.values():
        assert 0.04 <= count / 10_000 <= 0.06


def test_form_random_teams_degrades_below_team_size():
    pool = [_candidate(f"c{i}", AttributeClass.ZERO, {"s": 1.0}) for i in range(2)]
    teams = form_random_teams(pool, 50, 3, rng=1)
    assert len(teams) == 1
    assert teams[0].member_ids() == ("c0", "c1")


def test_form_random_teams_of_no_candidates_is_no_teams():
    rng = np.random.default_rng(4)
    assert form_random_teams([], 50, 3, rng) == []
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state


def test_form_random_teams_validates_counts():
    pool = [_candidate("c", AttributeClass.ZERO, {"s": 1.0})]
    with pytest.raises(ValueError):
        form_random_teams(pool, 0, 1, rng=0)
    with pytest.raises(ValueError):
        form_random_teams(pool, 1, 0, rng=0)


def test_project_rng_streams_are_stable_and_distinct():
    a1 = project_rng(7, "p1").integers(0, 1 << 32, size=4)
    a2 = project_rng(7, "p1").integers(0, 1 << 32, size=4)
    b = project_rng(7, "p2").integers(0, 1 << 32, size=4)
    assert list(a1) == list(a2)
    assert list(a1) != list(b)


# -- multi-objective pipeline ------------------------------------------------


@pytest.fixture
def small_pool():
    spec = SynthesisSpec(
        pool_size=20,
        skill_universe_size=8,
        min_skills=1,
        max_skills=4,
        cost_low=0.05,
        cost_high=1.0,
        class_zero_share=0.5,
        seed=3,
    )
    return synthesize_pool(spec)


@pytest.fixture
def small_project():
    return Project("proj-small", frozenset(skill_universe(8)[:4]))


def _one_mode(pool, project, mode, *, team_size, num_teams, seed):
    outcomes = assemble_all_selections(
        pool, project, team_size=team_size, num_teams=num_teams, seed=seed
    )
    assert list(outcomes) == list(ALL_MODES)
    return outcomes[mode]


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param({"team_size": 2}, "team_size must be at least 3, got 2", id="team-size"),
        pytest.param({"num_teams": 0}, "num_teams must be at least 1, got 0", id="num-teams"),
        pytest.param({"seed": -1}, "seed must fit in 64 unsigned bits", id="seed"),
    ],
)
def test_assemble_all_selections_validates_before_sampling(
    small_pool, small_project, monkeypatch, override, message
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("teams were sampled before the arguments were validated")

    monkeypatch.setattr("fairteams.assembly._sample_rows", no_sampling)
    knobs = {"team_size": 4, "num_teams": 50, "seed": 0, **override}
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble_all_selections(small_pool, small_project, **knobs)


def test_multi_objective_forms_covering_team(small_pool, small_project):
    outcome = _one_mode(
        small_pool, small_project, SelectionMode.TOP_SUM, team_size=4, num_teams=300, seed=11
    )
    assert outcome.formed
    assert len(outcome.team) == 4
    assert coverage(outcome.team, small_project) == len(small_project.requirements)
    assert outcome.objectives == objective_vector(outcome.team, small_project)
    diag = outcome.diagnostics
    assert diag.pareto_candidate_count <= diag.filtered_size <= diag.pool_size
    assert diag.pareto_team_count <= diag.full_coverage_count <= diag.teams_sampled
    assert 0.0 <= diag.candidate_reduction <= 1.0
    assert 0.0 <= diag.team_reduction <= 1.0


def test_multi_objective_is_deterministic(small_pool, small_project):
    first = _one_mode(
        small_pool, small_project, SelectionMode.RANDOM, team_size=4, num_teams=200, seed=21
    )
    second = _one_mode(
        small_pool, small_project, SelectionMode.RANDOM, team_size=4, num_teams=200, seed=21
    )
    assert first.team.member_ids() == second.team.member_ids()


def test_multi_objective_unformed_when_nobody_matches(small_pool):
    project = Project("misfit", frozenset({"zz-unknown"}))
    outcome = _one_mode(
        small_pool, project, SelectionMode.TOP_COST, team_size=4, num_teams=50, seed=0
    )
    assert not outcome.formed
    assert outcome.objectives is None
    assert outcome.diagnostics.filtered_size == 0
    assert outcome.diagnostics.teams_sampled == 0


def test_multi_objective_unformed_when_coverage_unreachable(small_pool):
    # one requirement exists in the pool, the other in nobody's profile
    known = skill_universe(8)[0]
    project = Project("half", frozenset({known, "zz-unknown"}))
    outcome = _one_mode(
        small_pool, project, SelectionMode.TOP_COST, team_size=4, num_teams=100, seed=0
    )
    assert not outcome.formed
    assert outcome.diagnostics.filtered_size > 0
    assert outcome.diagnostics.full_coverage_count == 0


def test_multi_objective_fallback_team_when_front_is_small():
    pool = [
        _candidate("a-only", AttributeClass.ZERO, {"a": 0.2}),
        _candidate("b-only", AttributeClass.ONE, {"b": 0.3}),
        _candidate("idle-1", AttributeClass.ZERO, {"x": 1.0}),
        _candidate("idle-2", AttributeClass.ONE, {"y": 1.0}),
    ]
    project = Project("narrow", frozenset({"a", "b"}))
    outcome = _one_mode(pool, project, SelectionMode.TOP_SUM, team_size=3, num_teams=50, seed=5)
    assert outcome.formed
    assert outcome.diagnostics.used_fallback_team
    assert outcome.team.member_ids() == ("a-only", "b-only")


def test_multi_objective_rejects_degenerate_sizes(demo_members, demo_project):
    with pytest.raises(ValueError):
        _one_mode(
            demo_members, demo_project, SelectionMode.TOP_SUM, team_size=3, num_teams=10, seed=0
        )
    with pytest.raises(ValueError):
        _one_mode([], demo_project, SelectionMode.TOP_SUM, team_size=3, num_teams=10, seed=1)


_HUGE = 2.0**664
"""About 1.9e200: sums of it stay exact and finite, but the square of a
deviation of that size overflows."""


def test_overflowing_objectives_raise_the_scalar_error():
    # every member's load is 2 * _HUGE, so the workload spread is 0.0, while
    # three pairs over four requirements leave uneven requirement totals
    pairs = ["ab", "cd", "ac", "bd", "ad", "bc"]
    pool = [
        _candidate(f"c{i}", AttributeClass(i % 2), dict.fromkeys(pair, _HUGE))
        for i, pair in enumerate(pairs)
    ]
    project = Project("huge", frozenset("abcd"))
    with pytest.raises(ValueError, match="objective expertise must be finite"):
        objective_vector(Team(pool[:3]), project)
    with pytest.raises(ValueError, match="objective expertise must be finite"):
        assemble_all_selections(pool, project, team_size=3, num_teams=50, seed=0)


@pytest.mark.parametrize("rows", [[[0, 1, 2]], [[1, 2, 3], [0, 1, 2]]], ids=["front", "dominated"])
def test_an_overflowing_team_raises_on_or_off_the_team_front(rows):
    """The team holding `huge` has an infinite workload. Alone it is the
    front; beside the team without it, which is better on every objective,
    it is dominated. The scalar path raises either way, and so must the
    pipeline."""
    pool = [
        _candidate("huge", AttributeClass.ZERO, {"a": _HUGE, "b": 0.5}),
        _candidate("even", AttributeClass.ZERO, {"a": 1.0, "b": 1.0}),
        _candidate("left", AttributeClass.ZERO, {"a": 1.25, "b": 0.75}),
        _candidate("right", AttributeClass.ZERO, {"a": 0.75, "b": 1.25}),
    ]
    project = Project("overflow", frozenset("ab"))
    with pytest.raises(ValueError, match="objective workload must be finite"):
        objective_vector(Team(pool[:3]), project)
    with (
        patch("fairteams.assembly._sample_rows", lambda *args: np.array(rows)),
        pytest.raises(ValueError, match="objective workload must be finite"),
    ):
        assemble_all_selections(pool, project, team_size=3, num_teams=len(rows), seed=0)


def test_all_configs_agree_when_one_team_dominates():
    # frozen instance: every team-level front entry is the same member set,
    # so each selection mode, the random pick included, must return it
    spec = SynthesisSpec(
        pool_size=8,
        skill_universe_size=5,
        min_skills=1,
        max_skills=3,
        cost_low=0.05,
        cost_high=1.0,
        class_zero_share=0.5,
        seed=27,
    )
    pool = synthesize_pool(spec)
    project = Project("demo", frozenset(skill_universe(5)[:3]))
    outcomes = assemble_all_selections(pool, project, team_size=3, num_teams=200, seed=27)
    picked = {mode: outcome.team.member_ids() for mode, outcome in outcomes.items()}
    assert set(picked.values()) == {("c0003", "c0004", "c0007")}
    sample = outcomes[SelectionMode.TOP_SUM].diagnostics
    assert sample.full_coverage_count >= 5


def _benchmark_outcomes(pool, project, modes, *, team_size, num_teams, seed):
    """The multi outcomes of a benchmark run that asks for `modes` only."""
    targets = [RunTarget("multi", mode) for mode in modes]
    _, records = run_benchmark(
        pool, [project], targets, team_size=team_size, num_teams=num_teams, seed=seed
    )
    assert [record.target for record in records] == targets
    return [record.outcome for record in records]


def test_all_selections_equal_individual_runs(small_pool, small_project):
    shared = assemble_all_selections(
        small_pool, small_project, team_size=4, num_teams=150, seed=31
    )
    for mode in ALL_MODES:
        (single,) = _benchmark_outcomes(
            small_pool, small_project, [mode], team_size=4, num_teams=150, seed=31
        )
        assert shared[mode].formed and single.formed
        assert shared[mode].team.member_ids() == single.team.member_ids()
        assert shared[mode].diagnostics == single.diagnostics


def test_random_pick_ignores_the_other_requested_modes(small_pool, small_project):
    # only `random` reads the generator after sampling, and reads it once
    def random_pick(modes):
        outcomes = _benchmark_outcomes(
            small_pool, small_project, modes, team_size=4, num_teams=150, seed=31
        )
        (picked,) = [
            outcome for mode, outcome in zip(modes, outcomes) if mode is SelectionMode.RANDOM
        ]
        assert picked.diagnostics.pareto_team_count > 1
        return picked.team.member_ids()

    alone = random_pick([SelectionMode.RANDOM])
    assert random_pick(list(reversed(ALL_MODES))) == alone
    assert random_pick(list(ALL_MODES)) == alone


def test_top_modes_reach_the_sampled_minimum(small_pool, small_project):
    seed, num_teams = 17, 300
    covered = _sampled_covered_teams(small_pool, small_project, 4, num_teams, seed)
    assert covered
    vectors = [objective_vector(team, small_project).as_tuple() for team in covered]
    outcomes = assemble_all_selections(
        small_pool, small_project, team_size=4, num_teams=num_teams, seed=seed
    )
    for mode, axis in TOP_AXES.items():
        best = min(vector[axis] for vector in vectors)
        got = outcomes[mode].objectives.as_tuple()[axis]
        assert got == best


def test_every_selection_comes_from_the_team_front(small_pool, small_project):
    seed, num_teams = 29, 300
    covered = _sampled_covered_teams(small_pool, small_project, 4, num_teams, seed)
    vectors = [objective_vector(team, small_project).as_tuple() for team in covered]
    front = set(pareto_front(list(enumerate(vectors))))
    front_ids = {covered[i].member_ids() for i in front}
    outcomes = assemble_all_selections(
        small_pool, small_project, team_size=4, num_teams=num_teams, seed=seed
    )
    for outcome in outcomes.values():
        assert outcome.team.member_ids() in front_ids


def test_top_sum_pick_survives_global_rescaling(small_pool, small_project):
    # a power-of-two factor keeps every intermediate value exactly scaled
    factor = 4.0
    scaled_pool = [
        _candidate(c.id, c.attribute, {s: cost * factor for s, cost in c.cost_profile.items()})
        for c in small_pool
    ]
    base = _one_mode(
        small_pool, small_project, SelectionMode.TOP_SUM, team_size=4, num_teams=250, seed=13
    )
    scaled = _one_mode(
        scaled_pool, small_project, SelectionMode.TOP_SUM, team_size=4, num_teams=250, seed=13
    )
    assert base.team.member_ids() == scaled.team.member_ids()


# -- the pick rule against a reference ----------------------------------------


def _reference_normalized_sums(vectors):
    columns = list(zip(*(vec.as_tuple() for vec in vectors)))
    sums = [0.0] * len(vectors)
    for column in columns:
        low, high = min(column), max(column)
        if high == low:
            continue
        for i, value in enumerate(column):
            sums[i] += (value - low) / (high - low)
    return sums


def _reference_select_index(covered, vectors, front, selection, rng):
    """The pick rule on its own: `random` draws one front copy; any other mode
    keeps the front copies at its axis minimum (all of them for `top-sum`) and
    takes the least (normalized sum, member ids). Returns an index into
    `covered`; `front` holds the front's indices among `covered`."""
    if selection is SelectionMode.RANDOM:
        return front[int(rng.integers(len(front)))]
    front_vectors = [vectors[i] for i in front]
    sums = _reference_normalized_sums(front_vectors)
    tied = range(len(front))
    if selection is not SelectionMode.TOP_SUM:
        axis = TOP_AXES[selection]
        best_value = min(vec.as_tuple()[axis] for vec in front_vectors)
        tied = [k for k in tied if front_vectors[k].as_tuple()[axis] == best_value]
    best = min(tied, key=lambda k: (sums[k], covered[front[k]].member_ids()))
    return front[best]


_SHUFFLED = [_candidate(cid, AttributeClass.ZERO, {"s": 1.0}) for cid in "dbfeac"]
"""A pool whose order is not id order."""


@st.composite
def _front_rows_and_vectors(draw):
    """1-12 distinct 3-member rows of positions in `_SHUFFLED`, with vectors
    from a small palette, so that axis ties, equal sums and both at once
    are common."""
    triples = st.sets(st.integers(0, 5), min_size=3, max_size=3).map(sorted)
    rows = draw(st.lists(triples, min_size=1, max_size=12, unique_by=tuple))
    palette = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    vectors = [ObjectiveVector(*draw(st.lists(palette, min_size=5, max_size=5))) for _ in rows]
    return rows, vectors


@settings(deadline=None, max_examples=300)
@given(front=_front_rows_and_vectors(), seed=st.integers(0, 2**32 - 1))
def test_picks_equal_the_reference_rule(front, seed):
    """Picks made on plain rows, with id ranks for member ids, equal the
    reference rule applied to teams and vectors, and draw as it does."""
    rows, vectors = front
    by_id = sorted(c.id for c in _SHUFFLED)
    ranks = [sorted(by_id.index(_SHUFFLED[i].id) for i in row) for row in rows]
    teams = [Team(_SHUFFLED[i] for i in row) for row in rows]
    values = [list(vector.as_tuple()) for vector in vectors]
    assert _normalized_sums(values) == _reference_normalized_sums(vectors)
    rng = np.random.default_rng(seed)
    picks = _picks(values, ranks, rng, np.arange(len(rows)))
    reference_rng = np.random.default_rng(seed)
    for mode in ALL_MODES:
        # only `random` reads the generator
        want = _reference_select_index(teams, vectors, list(range(len(rows))), mode, reference_rng)
        assert picks[mode] == want, mode
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@st.composite
def _row_vector_pairs(draw):
    """1-12 (row, vector) pairs: rows are 3-subsets of five candidates and
    vectors come from a small palette, so axis ties, equal sums and repeated
    member sets are common."""
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        row = sorted(draw(st.sets(st.integers(0, 4), min_size=3, max_size=3)))
        values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=5, max_size=5))
        pairs.append((row, ObjectiveVector(*values)))
    return pairs


@settings(deadline=None, max_examples=300)
@given(sampled=_row_vector_pairs(), seed=st.integers(0, 2**32 - 1))
def test_every_mode_picks_from_the_front_alone(sampled, seed):
    """Drawn rows go through the real pipeline in place of the sampler's; every
    mode must pick what the reference picks over the Pareto front of those
    teams alone."""
    # pool order differs from id order, so row order and member-id order differ
    pool = [_candidate(cid, AttributeClass.ZERO, {"s": 1.0}) for cid in "dbeac"]
    project = Project("drawn", frozenset({"s"}))
    rows = np.array([row for row, _ in sampled])
    teams = [Team(pool[i] for i in row) for row in rows.tolist()]
    vector_of = {}
    for team, (_, vector) in zip(teams, sampled):
        vector_of.setdefault(team.member_ids(), vector)  # copies share a vector
    vectors = [vector_of[team.member_ids()] for team in teams]
    front = sorted(oracle_front_indices([vector.as_tuple() for vector in vectors]))

    def injected(positions, view):
        keys = [tuple(sorted(view.matching[j].id for j in row)) for row in positions.tolist()]
        return np.array([vector_of[key].as_tuple() for key in keys])

    with (
        patch("fairteams.assembly._sample_rows", lambda *args: rows),
        patch("fairteams.assembly.row_objectives", injected),
    ):
        outcomes = assemble_all_selections(
            pool, project, team_size=3, num_teams=len(teams), seed=seed
        )
    for mode, outcome in outcomes.items():
        want = _reference_select_index(teams, vectors, front, mode, project_rng(seed, project.id))
        assert outcome.team == teams[want]
        assert outcome.objectives == vectors[want]


@pytest.mark.parametrize("axis, name", [(3, "representation"), (4, "cost_difference")])
def test_a_front_row_outside_the_bounds_raises_when_no_mode_picks_it(axis, name):
    """Three incomparable front teams: the middle one is least on no axis and
    has the greatest normalized sum, and the `random` draw lands on the first
    team's copies, so no mode picks it. A value above 1 on its `axis` must
    still raise `ObjectiveVector`'s error."""
    pool = [_candidate(cid, AttributeClass.ZERO, {"s": 1.0}) for cid in "dbeac"]
    project = Project("bounds", frozenset({"s"}))
    rows = np.array([[0, 1, 2]] * 8 + [[1, 2, 3], [2, 3, 4]])
    middle = ("a", "b", "e")

    def run(value):
        vectors = {
            ("b", "d", "e"): (0.0, 1.0, 0.5, 0.0, 0.5),
            middle: tuple(value if k == axis else 0.5 for k in range(5)),
            ("a", "c", "e"): (1.0, 0.0, 0.5, 0.0, 0.5),
        }

        def injected(positions, view):
            keys = [tuple(sorted(view.matching[j].id for j in row)) for row in positions]
            return np.array([vectors[key] for key in keys])

        with (
            patch("fairteams.assembly._sample_rows", lambda *args: rows),
            patch("fairteams.assembly.row_objectives", injected),
        ):
            return assemble_all_selections(pool, project, team_size=3, num_teams=10, seed=1)

    picked = {outcome.team.member_ids() for outcome in run(1.0).values()}
    assert middle not in picked and len(picked) == 2
    with pytest.raises(ValueError, match=f"{name} must lie in"):
        run(1.25)


# -- de-duplicated pipeline against the per-copy pipeline ----------------------


def _per_copy_reference(pool, project, team_size, num_teams, seed):
    """The pipeline without de-duplication: every sampled copy is scored and
    enters the team front. Returns the diagnostics and, per mode, the picked
    (team, vector), using the reference pick rule."""
    rng = project_rng(seed, project.id)
    try:
        matching = filter_candidates(pool, project)
    except InfeasibleProjectError:
        matching = []
    front = pareto_candidates(matching, project) if matching else []
    teams = form_random_teams(front, num_teams, team_size, rng) if front else []
    wanted = len(project.requirements)
    covered = [team for team in teams if coverage(team, project) == wanted]
    vectors = [objective_vector(team, project) for team in covered]
    kept = pareto_front([(i, v.as_tuple()) for i, v in enumerate(vectors)]) if covered else []
    diagnostics = AssemblyDiagnostics(
        pool_size=len(pool),
        filtered_size=len(matching),
        pareto_candidate_count=len(front),
        teams_sampled=len(teams),
        full_coverage_count=len(covered),
        pareto_team_count=len(kept),
        candidate_reduction=1.0 - len(front) / len(matching) if matching else 0.0,
        team_reduction=1.0 - len(kept) / len(covered) if covered else 0.0,
        used_fallback_team=bool(matching) and len(front) < team_size,
    )
    picks = {}
    for mode in ALL_MODES:
        index = _reference_select_index(covered, vectors, kept, mode, rng) if kept else None
        picks[mode] = (None, None) if index is None else (covered[index], vectors[index])
    return diagnostics, picks


def _ring_instance(rng):
    """Four incomparable two-skill candidates around four requirements, plus a
    dominated copy and an idle candidate: the candidate front holds
    team_size + 1 = 4 people, so only C(4, 3) = 4 distinct teams exist, and
    each covers the project."""
    reqs = ["r0", "r1", "r2", "r3"]
    pool = [
        _candidate(
            f"ring-{k}",
            AttributeClass(int(rng.integers(2))),
            {reqs[k]: float(rng.uniform(0.1, 1.0)), reqs[(k + 1) % 4]: float(rng.uniform(0.1, 1.0))},
        )
        for k in range(4)
    ]
    costly = {skill: cost * 2.0 for skill, cost in pool[0].cost_profile.items()}
    pool += [
        _candidate("costly-copy", AttributeClass.ZERO, costly),
        _candidate("idle", AttributeClass.ONE, {"x": 0.5}),
    ]
    return pool, Project("ring", frozenset(reqs)), 3


def _fallback_instance(rng):
    pool = [
        _candidate("a-only", AttributeClass.ZERO, {"a": float(rng.uniform(0.1, 1.0))}),
        _candidate("b-only", AttributeClass.ONE, {"b": float(rng.uniform(0.1, 1.0))}),
        _candidate("idle-1", AttributeClass.ZERO, {"x": 1.0}),
        _candidate("idle-2", AttributeClass.ONE, {"y": 1.0}),
    ]
    return pool, Project("narrow", frozenset({"a", "b"})), 3


def _uncoverable_instance(rng):
    """Five single-skill specialists and teams of three: the candidate front is
    large enough to sample from, but no team covers all five requirements."""
    reqs = [f"r{k}" for k in range(5)]
    pool = [
        _candidate(f"only-{skill}", AttributeClass(k % 2), {skill: float(rng.uniform(0.1, 1.0))})
        for k, skill in enumerate(reqs)
    ]
    pool.append(_candidate("idle", AttributeClass.ONE, {"x": 0.5}))
    return pool, Project("spread", frozenset(reqs)), 3


def _infeasible_instance(rng):
    pool = synthesize_pool(SynthesisSpec(pool_size=20, skill_universe_size=8, seed=int(rng.integers(99))))
    return pool, Project("misfit", frozenset({"zz-unknown"})), 4


def _synthetic_instance(rng):
    spec = SynthesisSpec(
        pool_size=int(rng.integers(8, 40)),
        skill_universe_size=8,
        min_skills=1,
        max_skills=4,
        class_zero_share=0.5,
        seed=int(rng.integers(10_000)),
    )
    picked = rng.choice(8, size=int(rng.integers(2, 6)), replace=False)
    project = Project("synth", frozenset(skill_universe(8)[i] for i in picked))
    return synthesize_pool(spec), project, int(rng.integers(3, 6))


@pytest.mark.parametrize(
    "build",
    [_ring_instance, _fallback_instance, _uncoverable_instance, _infeasible_instance, _synthetic_instance],
)
def test_dedup_pipeline_equals_per_copy_pipeline(build):
    rng = np.random.default_rng(61)
    for trial in range(12):
        pool, project, team_size = build(rng)
        num_teams = int(rng.choice([1, 7, 60, 250]))
        seed = int(rng.integers(2**32))
        want_diagnostics, picks = _per_copy_reference(pool, project, team_size, num_teams, seed)
        outcomes = assemble_all_selections(
            pool, project, team_size=team_size, num_teams=num_teams, seed=seed
        )
        for mode, outcome in outcomes.items():
            want_team, want_vector = picks[mode]
            assert outcome.diagnostics == want_diagnostics
            assert outcome.team == want_team
            if want_vector is None:
                assert outcome.objectives is None
            else:
                assert outcome.objectives.as_tuple() == want_vector.as_tuple()


def test_ring_instance_front_counts_every_copy():
    pool, project, team_size = _ring_instance(np.random.default_rng(3))
    outcome = assemble_all_selections(
        pool, project, team_size=team_size, num_teams=200, seed=8
    )[SelectionMode.TOP_SUM]
    diagnostics = outcome.diagnostics
    assert diagnostics.pareto_candidate_count == team_size + 1
    assert diagnostics.full_coverage_count == 200
    # at most four distinct teams, yet every sampled copy of a front team counts
    assert diagnostics.pareto_team_count > 4


# -- greedy baselines ---------------------------------------------------------


def test_incremental_forced_single_pick():
    solo = _candidate("solo", AttributeClass.ZERO, {"a": 0.2, "b": 0.2, "c": 0.2})
    decoy = _candidate("decoy", AttributeClass.ONE, {"a": 0.9})
    project = Project("p", frozenset({"a", "b", "c"}))
    outcome = assemble_incremental([decoy, solo], project)
    assert outcome.team.member_ids() == ("solo",)
    assert outcome.objectives.cost == pytest.approx(0.6)


def test_incremental_prefers_better_cost_effectiveness():
    # ratio 1.0/2 = 0.5 beats 0.9/1, despite the higher absolute cost
    wide = _candidate("wide", AttributeClass.ZERO, {"a": 0.5, "b": 0.5})
    narrow = _candidate("narrow", AttributeClass.ONE, {"a": 0.9})
    project = Project("p", frozenset({"a", "b"}))
    outcome = assemble_incremental([narrow, wide], project)
    assert outcome.team.member_ids() == ("wide",)


def test_incremental_ratio_tie_prefers_lower_cost():
    # equal 0.6 ratios; the single-skill candidate adds less absolute cost
    big = _candidate("big", AttributeClass.ZERO, {"a": 0.6, "b": 0.6})
    small = _candidate("small", AttributeClass.ONE, {"a": 0.6})
    other = _candidate("other", AttributeClass.ZERO, {"b": 0.6})
    project = Project("p", frozenset({"a", "b"}))
    outcome = assemble_incremental([big, small, other], project)
    assert outcome.team.member_ids() == ("other", "small")


def test_incremental_full_tie_prefers_lower_id():
    first = _candidate("m1", AttributeClass.ZERO, {"a": 0.3})
    second = _candidate("m2", AttributeClass.ONE, {"a": 0.3})
    project = Project("p", frozenset({"a"}))
    outcome = assemble_incremental([second, first], project)
    assert outcome.team.member_ids() == ("m1",)


def test_incremental_failure_outcome_when_uncoverable():
    candidate = _candidate("c", AttributeClass.ZERO, {"a": 0.3})
    project = Project("p", frozenset({"a", "b"}))
    outcome = assemble_incremental([candidate], project)
    assert not outcome.formed
    assert outcome.diagnostics.teams_sampled == 0


def test_fair_allocation_single_class_equals_incremental():
    pool = [
        _candidate(f"c{i}", AttributeClass.ONE, {skill: 0.1 * (i + 1)})
        for i, skill in enumerate(["a", "b", "c"])
    ]
    project = Project("p", frozenset({"a", "b", "c"}))
    fair = assemble_fair_allocation(pool, project)
    plain = assemble_incremental(pool, project)
    assert fair == plain


def test_fair_allocation_alternates_classes():
    pool = [
        _candidate("za", AttributeClass.ZERO, {"a": 0.1}),
        _candidate("ob", AttributeClass.ONE, {"b": 0.2}),
        _candidate("zc", AttributeClass.ZERO, {"c": 0.3}),
        _candidate("od", AttributeClass.ONE, {"d": 0.4}),
    ]
    project = Project("p", frozenset({"a", "b", "c", "d"}))
    outcome = assemble_fair_allocation(pool, project)
    assert outcome.team.member_ids() == ("ob", "od", "za", "zc")
    assert outcome.objectives.representation == 0.0


def test_fair_allocation_class_preference_beats_cost():
    pool = [
        _candidate("o-cheap-a", AttributeClass.ONE, {"a": 0.1}),
        _candidate("o-cheap-b", AttributeClass.ONE, {"b": 0.1}),
        _candidate("z-pricey", AttributeClass.ZERO, {"a": 9.9}),
    ]
    project = Project("p", frozenset({"a", "b"}))
    outcome = assemble_fair_allocation(pool, project)
    assert outcome.team.member_ids() == ("o-cheap-b", "z-pricey")


def test_fair_allocation_falls_back_to_other_class():
    pool = [
        _candidate("z1", AttributeClass.ZERO, {"a": 0.1}),
        _candidate("z2", AttributeClass.ZERO, {"b": 0.3}),
        _candidate("o1", AttributeClass.ONE, {"a": 0.2}),
    ]
    project = Project("p", frozenset({"a", "b"}))
    outcome = assemble_fair_allocation(pool, project)
    # step two prefers class one, but o1 adds no new coverage
    assert outcome.team.member_ids() == ("z1", "z2")


def test_fair_allocation_balances_where_incremental_does_not():
    pool = [
        _candidate("oa", AttributeClass.ONE, {"a": 0.1}),
        _candidate("ob", AttributeClass.ONE, {"b": 0.1}),
        _candidate("za", AttributeClass.ZERO, {"a": 1.0}),
        _candidate("zb", AttributeClass.ZERO, {"b": 1.0}),
    ]
    project = Project("p", frozenset({"a", "b"}))
    fair = assemble_fair_allocation(pool, project)
    plain = assemble_incremental(pool, project)
    assert plain.objectives.representation == 1.0
    assert fair.objectives.representation == 0.0


# -- greedy baselines against the scalar reference ------------------------------


def _reference_best_addition(candidates, covered, project, attribute):
    """The per-step scan over skill sets and `matched_cost` calls."""
    best = None
    best_key = None
    for candidate in candidates:
        if attribute is not None and candidate.attribute is not attribute:
            continue
        newly_covered = sum(
            1
            for skill in project.sorted_requirements
            if skill not in covered and skill in candidate.cost_profile
        )
        if newly_covered == 0:
            continue
        load = matched_cost(candidate, project)
        key = (load / newly_covered, load, candidate.id)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def _reference_preferred_class(counts, costs):
    zero, one = AttributeClass.ZERO, AttributeClass.ONE
    if counts[zero] != counts[one]:
        return zero if counts[zero] < counts[one] else one
    if costs[zero] != costs[one]:
        return zero if costs[zero] < costs[one] else one
    return zero


def _reference_greedy(pool, project, balance_classes):
    """Both greedy baselines as scalar loops over the filtered pool."""
    if not pool:
        raise ValueError("candidate pool is empty")
    matching = [c for c in pool if not project.requirements.isdisjoint(c.cost_profile)]
    diagnostics = AssemblyDiagnostics(
        pool_size=len(pool),
        filtered_size=len(matching),
        pareto_candidate_count=0,
        teams_sampled=0,
        full_coverage_count=0,
        pareto_team_count=0,
        candidate_reduction=0.0,
        team_reduction=0.0,
    )
    chosen = []
    covered = set()
    counts = {AttributeClass.ZERO: 0, AttributeClass.ONE: 0}
    costs = {AttributeClass.ZERO: 0.0, AttributeClass.ONE: 0.0}
    while covered != project.requirements:
        if balance_classes:
            preferred = _reference_preferred_class(counts, costs)
            pick = _reference_best_addition(matching, covered, project, preferred)
            if pick is None:
                pick = _reference_best_addition(matching, covered, project, preferred.other())
        else:
            pick = _reference_best_addition(matching, covered, project, None)
        if pick is None:
            return AssemblyOutcome(None, None, diagnostics)
        chosen.append(pick)
        covered.update(skill for skill in pick.cost_profile if skill in project.requirements)
        counts[pick.attribute] += 1
        costs[pick.attribute] += matched_cost(pick, project)
    team = Team(chosen)
    return AssemblyOutcome(team, objective_vector(team, project), diagnostics)


def _assert_greedy_equals_the_reference(pool, project):
    """Both baselines equal `_reference_greedy` without a view, with a fresh
    view, and on one shared view in both call orders, so neither can change
    what the other reads from it."""
    baselines = ((assemble_incremental, False), (assemble_fair_allocation, True))
    expected = {
        assemble: _reference_greedy(pool, project, balance_classes)
        for assemble, balance_classes in baselines
    }
    for assemble, want in expected.items():
        assert assemble(pool, project) == want
        assert assemble(pool, project, view=project_view(pool, project)) == want
    for order in (baselines, baselines[::-1]):
        shared = project_view(pool, project)
        for assemble, _ in order:
            assert assemble(pool, project, view=shared) == expected[assemble]


# "x" is offered but never required; "z" is required but never offered
_GREEDY_OFFERED = ("a", "b", "c", "d", "e", "x")
_GREEDY_REQUIRED = ("a", "b", "c", "d", "e", "z")


@st.composite
def greedy_instances(draw):
    """Small pools with costs from a four-value palette, so cost-effectiveness
    and cost ties are common and the id decides; ids are distinct but drawn
    out of pool order. A third of the pools hold one class only."""
    single_class = draw(st.sampled_from([None, AttributeClass.ZERO, AttributeClass.ONE]))
    ids = draw(st.permutations([f"m{i}" for i in range(10)]))
    pool = []
    for cid in ids[: draw(st.integers(1, 10))]:
        skills = draw(st.lists(st.sampled_from(_GREEDY_OFFERED), min_size=1, max_size=3, unique=True))
        if single_class is None:
            attribute = draw(st.sampled_from(AttributeClass))
        else:
            attribute = single_class
        pool.append(
            _candidate(
                cid,
                attribute,
                {skill: draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])) for skill in skills},
            )
        )
    requirements = draw(st.sets(st.sampled_from(_GREEDY_REQUIRED), min_size=1, max_size=4))
    return pool, Project("p", frozenset(requirements))


@settings(deadline=None, max_examples=300)
@given(greedy_instances())
def test_greedy_baselines_equal_the_scalar_reference(instance):
    _assert_greedy_equals_the_reference(*instance)


_WIDE_SKILLS = tuple(f"k{j:02d}" for j in range(70))


@st.composite
def wide_greedy_instances(draw):
    """Pools of up to 40 candidates with ids out of pool order. Half the
    instances are wide: 10-40 skills per candidate and 63-70 of the offered
    skills required, so masks span more than one 64-bit word. Costs come from
    a four-value palette, often one per candidate, so ties in (cost per newly
    covered requirement, cost) are common and the id decides. One project in
    ten also requires "z", which nobody offers."""
    wide = draw(st.booleans())
    single_class = draw(st.sampled_from([None, AttributeClass.ZERO, AttributeClass.ONE]))
    ids = draw(st.permutations([f"m{i:02d}" for i in range(40)]))
    palette = st.sampled_from([0.5, 1.0, 1.5, 3.0])
    pool = []
    for cid in ids[: draw(st.integers(10 if wide else 1, 40))]:
        skills = draw(
            st.lists(
                st.sampled_from(_WIDE_SKILLS + ("x",)),
                min_size=10 if wide else 1,
                max_size=40 if wide else 6,
                unique=True,
            )
        )
        attribute = single_class or draw(st.sampled_from(AttributeClass))
        if draw(st.booleans()):
            profile = dict.fromkeys(skills, draw(palette))
        else:
            profile = {skill: draw(palette) for skill in skills}
        pool.append(_candidate(cid, attribute, profile))
    offered = sorted({skill for c in pool for skill in c.cost_profile} - {"x"})
    count = draw(st.integers(63, 70) if wide else st.integers(1, 8))
    required = draw(st.permutations(offered))[:count]
    if not required or draw(st.sampled_from((False,) * 9 + (True,))):
        required.append("z")
    return pool, Project("wide", frozenset(required))


@settings(deadline=None, max_examples=150)
@given(wide_greedy_instances())
def test_greedy_baselines_equal_the_reference_on_wide_projects(instance):
    _assert_greedy_equals_the_reference(*instance)


def test_a_pick_raises_the_runner_up_above_a_third_candidate():
    # first = 0.5 per requirement; runner-up 0.6 until `first` covers "b",
    # then 1.2; third 0.9 throughout
    pool = [
        _candidate("runner-up", AttributeClass.ZERO, {"b": 0.6, "c": 0.6}),
        _candidate("third", AttributeClass.ZERO, {"c": 0.9}),
        _candidate("first", AttributeClass.ZERO, {"a": 0.5, "b": 0.5}),
    ]
    project = Project("p", frozenset({"a", "b", "c"}))
    for assemble in (assemble_incremental, assemble_fair_allocation):
        assert assemble(pool, project).team.member_ids() == ("first", "third")
    _assert_greedy_equals_the_reference(pool, project)


def test_greedy_baselines_equal_the_reference_on_a_broad_pool():
    # broad-pool's shape: 1000 candidates over 60 skills, 3-12 skills each,
    # projects of 6-10 requirements; reversed, so ids run against pool order
    spec = SynthesisSpec(pool_size=1000, skill_universe_size=60, min_skills=3, max_skills=12, seed=15)
    pool = synthesize_pool(spec)[::-1]
    for project in synthesize_projects(20, 60, 6, 10, seed=15):
        _assert_greedy_equals_the_reference(pool, project)


def test_all_assemblers_reach_full_coverage(small_pool, small_project):
    wanted = len(small_project.requirements)
    for outcome in (
        _one_mode(
            small_pool, small_project, SelectionMode.RANDOM, team_size=4, num_teams=200, seed=41
        ),
        assemble_incremental(small_pool, small_project),
        assemble_fair_allocation(small_pool, small_project),
    ):
        assert outcome.formed
        assert coverage(outcome.team, small_project) == wanted
