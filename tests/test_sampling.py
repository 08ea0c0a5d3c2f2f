"""The batched team sampler and the index-row pipeline against the scalar references.

`_run_pipeline` samples each project's teams as one matrix of index rows into
the candidate front, tests coverage with the requirement masks, scores each
distinct covering row once, in one `row_objectives` pass, and returns the team
front as rows of positions into the project view, with their scores. These
tests check the draws themselves, and check the pipeline against
`form_random_teams`, `coverage`, `objective_vector` and `pareto_front` applied
to every sampled copy.
"""

from __future__ import annotations

from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairteams import (
    AttributeClass,
    Candidate,
    Project,
    Team,
    assemble_all_selections,
    coverage,
    form_random_teams,
    objective_vector,
    pareto_front,
    project_rng,
)
from fairteams import assembly
from fairteams.assembly import (
    _covering,
    _distinct_rows,
    _run_pipeline,
    _sample_rows,
    project_view,
)
from fairteams.objectives import row_objectives
from fairteams.pareto import _front_rows, _support_front_rows
from test_assembly import (
    _fallback_instance,
    _per_copy_reference,
    _ring_instance,
    _synthetic_instance,
)

# the 0.999 quantile of the chi-square distribution with 19 degrees of freedom
_CHI2_19_AT_0_999 = 43.82


def test_sampler_draws_every_subset_uniformly():
    draws = 20_000
    rows = _sample_rows(6, draws, 3, np.random.default_rng(2024))
    counts = Counter(map(tuple, rows.tolist()))
    assert len(counts) == 20
    assert all(list(row) == sorted(set(row)) for row in counts)
    expected = draws / 20
    statistic = sum((count - expected) ** 2 / expected for count in counts.values())
    assert statistic < _CHI2_19_AT_0_999


@pytest.mark.parametrize("size, team_size", [(4, 4), (9, 3), (40, 6)])
def test_key_blocks_leave_the_rows_and_the_stream_unchanged(size, team_size):
    num_teams = 2 * assembly._KEY_ROWS + 5
    results = []
    for block in (1, 7, assembly._KEY_ROWS, num_teams):
        rng = np.random.default_rng(99)
        with patch.object(assembly, "_KEY_ROWS", block):
            rows = _sample_rows(size, num_teams, team_size, rng)
        results.append((rows.tolist(), rng.bit_generator.state))
    assert all(result == results[0] for result in results[1:])
    assert np.array_equal(np.sort(rows, axis=1), rows)


@pytest.mark.parametrize("block", [1, 1024])
@pytest.mark.parametrize("build", [_ring_instance, _fallback_instance, _synthetic_instance])
def test_pipeline_counts_equal_the_per_copy_reference_across_key_blocks(build, block):
    rng = np.random.default_rng(17)
    for _ in range(4):
        pool, project, team_size = build(rng)
        num_teams = int(rng.choice([1, 60, 1500]))
        seed = int(rng.integers(2**32))
        want, _ = _per_copy_reference(pool, project, team_size, num_teams, seed)
        view = project_view(pool, project)
        with patch.object(assembly, "_KEY_ROWS", block):
            got, rows, scores, copies = _run_pipeline(
                pool, team_size, num_teams, project_rng(seed, project.id), view
            )
        assert got == want
        assert len(copies) == want.pareto_team_count
        assert len({tuple(row) for row in rows.tolist()}) == len(rows) == len(scores)


def test_a_fallback_front_draws_nothing():
    pool, project, team_size = _fallback_instance(np.random.default_rng(5))
    rng = project_rng(3, project.id)
    view = project_view(pool, project)
    diagnostics, rows, _, copies = _run_pipeline(pool, team_size, 500, rng, view)
    assert diagnostics.used_fallback_team and diagnostics.teams_sampled == 1
    assert [[view.matching[i].id for i in row] for row in rows.tolist()] == [["a-only", "b-only"]]
    assert copies.tolist() == [0]
    assert rng.bit_generator.state == project_rng(3, project.id).bit_generator.state


def test_invalid_arguments_draw_no_rows():
    pool, project, team_size = _ring_instance(np.random.default_rng(1))
    overrides = ({"team_size": 2}, {"team_size": 6}, {"num_teams": 0}, {"seed": -1})
    with patch.object(assembly, "_sample_rows", side_effect=AssertionError("drew rows")):
        for override in overrides:
            knobs = {"team_size": team_size, "num_teams": 50, "seed": 0, **override}
            with pytest.raises(ValueError):
                assemble_all_selections(pool, project, **knobs)


# -- the pipeline's six named stages --------------------------------------------

_STAGES = (
    "_support_front_rows",
    "_sample_rows",
    "_distinct_rows",
    "_covering",
    "row_objectives",
    "_front_rows",
)


@pytest.mark.parametrize("name", _STAGES)
@pytest.mark.parametrize("build", [_ring_instance, _synthetic_instance])
def test_a_stage_replaced_in_the_assembly_module_is_the_one_the_pipeline_calls(build, name):
    # a tracer wraps each stage through this module attribute, so the pipeline
    # must look it up there on every call
    pool, project, team_size = build(np.random.default_rng(23))
    knobs = {"team_size": team_size, "num_teams": 200, "seed": 9}
    want = assemble_all_selections(pool, project, **knobs)
    assert all(outcome.formed for outcome in want.values())
    stage = getattr(assembly, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return stage(*args)

    with patch.object(assembly, name, recorded):
        got = assemble_all_selections(pool, project, **knobs)
    assert len(calls) == 1
    assert got == want


@settings(deadline=None, max_examples=100)
@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=12))
@example([[2, 3], [0, 1], [2, 3]])
def test_distinct_rows_map_each_row_to_its_one_copy(rows):
    rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
    distinct, draws = _distinct_rows(rows)
    assert len({tuple(row) for row in distinct.tolist()}) == len(distinct)
    assert np.array_equal(distinct[draws], rows)


def test_each_stage_takes_zero_rows_to_zero_rows():
    pool, project, team_size = _ring_instance(np.random.default_rng(3))
    empty = project_view(pool, Project("unmet", frozenset({"nobody-offers-this"})))
    assert len(empty.matching) == 0
    front = _support_front_rows(empty.costs, empty.support)
    assert front.shape == (0,) and front.dtype == np.intp
    rng = np.random.default_rng(8)
    rows = _sample_rows(0, 50, team_size, rng)
    assert rows.shape == (0, team_size) and rows.dtype == np.intp
    assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state
    distinct, draws = _distinct_rows(rows)
    assert distinct.shape == (0, team_size) and distinct.dtype == np.intp
    assert draws.shape == (0,) and draws.dtype == np.intp
    for view in (empty, project_view(pool, project)):
        covers = _covering(rows, view.offers)
        assert covers.shape == (0,) and covers.dtype == bool
        scores = row_objectives(rows, view)
        assert scores.shape == (0, 5) and scores.dtype == np.float64
        kept = _front_rows(scores)
        assert kept.shape == (0,) and kept.dtype == np.intp


# -- coverage by masks and de-duplication against the scalar references --------

_COSTS = (0.1, 0.2, 0.3, 0.7, 1.1, 3.3, 1e-3)


@st.composite
def _instances(draw):
    """A pool of distinct ids in a drawn order, often not id order, over 2-70
    requirements, so masks past bit 62 are common, where each candidate
    lacks a few of them."""
    width = draw(st.sampled_from([2, 3, 5, 63, 70]))
    skills = [f"k{j:02d}" for j in range(width)]
    pool = []
    for i in draw(st.permutations(range(draw(st.integers(1, 9))))):
        missing = draw(st.sets(st.integers(0, width - 1), max_size=min(width - 1, 6)))
        palette = draw(st.lists(st.sampled_from(_COSTS), min_size=1, max_size=3))
        profile = {
            skill: palette[j % len(palette)] for j, skill in enumerate(skills) if j not in missing
        }
        pool.append(Candidate(f"m{i}", draw(st.sampled_from(AttributeClass)), profile))
    return pool, Project("wide", frozenset(skills)), draw(st.integers(1, 4))


@settings(deadline=None, max_examples=300)
@given(instance=_instances(), data=st.data())
def test_mask_coverage_and_dedup_equal_the_scalar_references(instance, data):
    pool, project, team_size = instance
    view = project_view(pool, project)
    members = [view.matching[i] for i in _front_rows(view.costs).tolist()]
    rows = np.arange(len(members))[None]  # the fallback team when too few members
    if len(members) >= team_size:
        subsets = st.sets(st.integers(0, len(members) - 1), min_size=team_size, max_size=team_size)
        distinct = data.draw(st.lists(subsets.map(sorted), min_size=1, max_size=6))
        rows = np.array(data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=24)))

    def sampler(size, num_teams, k, rng):
        assert (size, num_teams, k) == (len(members), len(rows), team_size)
        return rows

    scored = Counter()

    def counted_kernel(positions, on_view):
        ids = [tuple(sorted(on_view.matching[j].id for j in row)) for row in positions.tolist()]
        scored.update(ids)
        return row_objectives(positions, on_view)

    with patch.object(assembly, "_sample_rows", sampler):
        teams = form_random_teams(members, len(rows), team_size, 0)
        with patch.object(assembly, "row_objectives", counted_kernel):
            diagnostics, front_rows, scores, copies = _run_pipeline(
                pool, team_size, len(rows), None, view
            )
    front = [Team(view.matching[i] for i in row) for row in front_rows.tolist()]

    wanted = len(project.requirements)
    covered = [team for team in teams if coverage(team, project) == wanted]
    vectors = [objective_vector(team, project).as_tuple() for team in covered]
    kept = pareto_front(list(enumerate(vectors))) if covered else []
    assert diagnostics.teams_sampled == len(teams)
    assert diagnostics.full_coverage_count == len(covered)
    assert diagnostics.pareto_team_count == len(kept) == len(copies)
    assert [front[k] for k in copies] == [covered[i] for i in kept]
    assert [tuple(scores.tolist()[k]) for k in copies] == [vectors[i] for i in kept]
    # the kernel scores each distinct covering row once
    assert scored == Counter({team.member_ids(): 1 for team in covered})
    assert sorted(team.member_ids() for team in front) == sorted(
        {covered[i].member_ids() for i in kept}
    )
