"""Acceptance gate: seven release criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; without -s
pytest still enforces every criterion, it only hides the prints for passes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_team_instance
from fairteams import (
    AttributeClass,
    Candidate,
    Project,
    SynthesisSpec,
    Team,
    assemble_all_selections,
    coverage,
    emit_outcome_log,
    emit_report,
    filter_candidates,
    form_random_teams,
    objective_vector,
    pareto_candidates,
    pareto_front,
    project_rng,
    run_benchmark,
    synthesize_pool,
    synthesize_projects,
    team_cost,
)
from fairteams.assembly import SelectionMode
from fairteams.data_io import reassign_attributes
from fairteams.objectives import cost_for_class, matched_cost, requirement_costs


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL {title}")
        raise
    print(f"\n[criterion {number}] PASS {title}")


# -- criterion 1: worked-example fidelity -------------------------------------


def test_criterion_1_worked_example(demo_team, demo_project):
    with criterion(1, "worked-example objective values within 1e-6"):
        vec = objective_vector(demo_team, demo_project)
        targets = (0.328, 0.0562396, 0.0275590, 0.3333333, 0.7865854)
        for got, want in zip(vec.as_tuple(), targets):
            assert abs(got - want) <= 1e-6


# -- criterion 2: front filter equals an independent oracle -------------------


def _oracle_front(vectors: list[tuple[float, ...]]) -> set[int]:
    """Independently coded all-pairs scan (vectorized, no shared code paths)."""
    arr = np.asarray(vectors, dtype=float)
    keep: set[int] = set()
    for i in range(len(arr)):
        others = np.delete(np.arange(len(arr)), i)
        no_worse = (arr[others] <= arr[i]).all(axis=1)
        better = (arr[others] < arr[i]).any(axis=1)
        if not (no_worse & better).any():
            keep.add(i)
    return keep


def test_criterion_2_pareto_oracle_equivalence():
    with criterion(2, "front filter matches the oracle on 1000 random instances"):
        rng = np.random.default_rng(1812)
        for _ in range(1000):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, 201))
            vectors: list[tuple[float, ...]] = []
            for _ in range(count):
                if vectors and rng.random() < 0.2:
                    vectors.append(vectors[int(rng.integers(len(vectors)))])
                    continue
                row = rng.integers(0, 8, size=dim).astype(float)
                row[rng.random(dim) < 0.15] = np.inf
                vectors.append(tuple(float(v) for v in row))
            got = set(pareto_front(list(enumerate(vectors))))
            assert got == _oracle_front(vectors)


# -- criterion 3: objective properties on 1000 random teams -------------------


def _rescaled(team: Team, factor: float) -> Team:
    return Team(
        Candidate(m.id, m.attribute, {s: c * factor for s, c in m.cost_profile.items()})
        for m in team.members
    )


def _class_swapped(team: Team) -> Team:
    return Team(Candidate(m.id, m.attribute.other(), m.cost_profile) for m in team.members)


def test_criterion_3_objective_property_suite():
    with criterion(3, "objective properties hold on 1000 random teams (1e-9)"):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            team, project = random_team_instance(rng)
            vec = objective_vector(team, project)

            factor = float(rng.uniform(0.25, 4.0))
            scaled = objective_vector(_rescaled(team, factor), project)
            assert abs(scaled.cost - factor * vec.cost) <= 1e-9
            assert abs(scaled.workload - factor * vec.workload) <= 1e-9
            assert abs(scaled.expertise - factor * vec.expertise) <= 1e-9
            assert scaled.representation == vec.representation
            assert abs(scaled.cost_difference - vec.cost_difference) <= 1e-9

            swapped = objective_vector(_class_swapped(team), project)
            assert swapped.representation == vec.representation
            assert swapped.cost_difference == vec.cost_difference

            zero = cost_for_class(team, project, AttributeClass.ZERO)
            one = cost_for_class(team, project, AttributeClass.ONE)
            assert zero + one == team_cost(team, project)

            assert 0.0 <= vec.representation <= 1.0
            assert 0.0 <= vec.cost_difference <= 1.0
            assert vec.workload <= max(matched_cost(m, project) for m in team.members) + 1e-9
            assert vec.expertise <= max(requirement_costs(team, project)) + 1e-9


# -- criterion 4: selected teams reach the sampled minimum --------------------

TOP_AXES = {
    SelectionMode.TOP_COST: 0,
    SelectionMode.TOP_WORKLOAD: 1,
    SelectionMode.TOP_EXPERTISE: 2,
    SelectionMode.TOP_REPRESENTATION: 3,
    SelectionMode.TOP_COST_DIFFERENCE: 4,
}


def _replay_covered_teams(pool, project, team_size, num_teams, seed):
    matching = filter_candidates(pool, project)
    front = pareto_candidates(matching, project)
    teams = form_random_teams(front, num_teams, team_size, project_rng(seed, project.id))
    wanted = len(project.requirements)
    return [team for team in teams if coverage(team, project) == wanted]


def test_criterion_4_selection_optimality():
    with criterion(4, "top-X picks attain the sampled minimum on 100 instances"):
        for i in range(100):
            pool = synthesize_pool(
                SynthesisSpec(
                    pool_size=24,
                    skill_universe_size=10,
                    min_skills=2,
                    max_skills=5,
                    cost_low=0.05,
                    cost_high=1.0,
                    class_zero_share=0.5,
                    seed=9000 + i,
                )
            )
            project = synthesize_projects(
                1, 10, min_requirements=3, max_requirements=5, seed=500 + i
            )[0]
            outcomes = assemble_all_selections(
                pool, project, team_size=4, num_teams=500, seed=i
            )
            covered = _replay_covered_teams(pool, project, 4, 500, i)
            assert covered
            vectors = [objective_vector(team, project).as_tuple() for team in covered]
            for mode, axis in TOP_AXES.items():
                outcome = outcomes[mode]
                assert outcome.formed
                assert outcome.objectives.as_tuple()[axis] == min(v[axis] for v in vectors)


# -- criteria 5 and 6: directional corpus behavior and diagnostics ------------

AXES = {"cost": 0, "workload": 1, "expertise": 2, "representation": 3, "cost_difference": 4}
TOP_LABELS = {
    "cost": "multi/top-cost",
    "workload": "multi/top-workload",
    "expertise": "multi/top-expertise",
    "representation": "multi/top-representation",
    "cost_difference": "multi/top-costdiff",
}


@pytest.fixture(scope="module")
def directional_runs():
    pool_base = synthesize_pool(
        SynthesisSpec(
            pool_size=300,
            skill_universe_size=40,
            min_skills=1,
            max_skills=5,
            cost_low=0.01,
            cost_high=1.0,
            class_zero_share=0.5,
            seed=2026,
        )
    )
    projects = synthesize_projects(50, 40, min_requirements=2, max_requirements=5, seed=77)
    start = time.perf_counter()
    blocks = {}
    for share in (0.5, 0.1):
        pool = reassign_attributes(pool_base, share, seed=11)
        blocks[share] = run_benchmark(
            pool, projects, team_size=4, num_teams=300, seed=5, jobs=1
        )
    elapsed = time.perf_counter() - start
    return blocks, elapsed


def test_criterion_5_directional_corpus_orderings(directional_runs):
    blocks, elapsed = directional_runs
    with criterion(5, "directional orderings hold on both corpus blocks"):
        assert elapsed < 60.0
        for share, (report, _) in blocks.items():
            rows = {row.label: row for row in report.rows}
            random_row = rows["multi/random"]
            assert random_row.formed > 0

            # (a) each dedicated configuration wins its own objective vs random
            for name, axis in AXES.items():
                assert rows[TOP_LABELS[name]].means[axis] <= random_row.means[axis], (
                    share,
                    name,
                )

            # (b) the greedy baseline stays the cheapest way to cover
            assert rows["incremental"].means[0] <= random_row.means[0], share

            # (c) class-aware greedy is at least as balanced as class-blind greedy
            fair = rows["fair-alloc"].means[3]
            assert fair <= rows["incremental"].means[3], share

            # (d) the combined pick is never the worst on either fairness axis
            others = [
                row
                for label, row in rows.items()
                if label.startswith("multi/") and label != "multi/top-sum"
            ]
            for axis in (3, 4):
                worst = max(row.means[axis] for row in others)
                assert rows["multi/top-sum"].means[axis] <= worst, (share, axis)


def test_criterion_6_reduction_diagnostics(directional_runs):
    blocks, _ = directional_runs
    with criterion(6, "diagnostic count chains hold on every corpus record"):
        candidate_reductions = []
        team_reductions = []
        for report, records in blocks.values():
            for record in records:
                diag = record.outcome.diagnostics
                assert diag.pareto_candidate_count <= diag.filtered_size <= diag.pool_size
                assert diag.pareto_team_count <= diag.full_coverage_count <= diag.teams_sampled
                assert 0.0 <= diag.candidate_reduction <= 1.0
                assert 0.0 <= diag.team_reduction <= 1.0
                if record.target.method == "multi" and record.outcome.formed:
                    candidate_reductions.append(diag.candidate_reduction)
                    team_reductions.append(diag.team_reduction)
        # reported, not asserted: corpus-dependent reduction strength
        cand = 100.0 * sum(candidate_reductions) / len(candidate_reductions)
        team = 100.0 * sum(team_reductions) / len(team_reductions)
        print(
            f"\n[criterion 6] observed mean reductions: candidates {cand:.1f}%, teams {team:.1f}%"
        )


# -- criterion 7: byte-identical reports --------------------------------------


def test_criterion_7_determinism_across_runs_and_workers():
    with criterion(7, "reports are byte-identical across runs and worker counts"):
        pool = synthesize_pool(
            SynthesisSpec(pool_size=40, skill_universe_size=10, min_skills=1, max_skills=4, seed=14)
        )
        projects = synthesize_projects(6, 10, min_requirements=2, max_requirements=4, seed=15)

        outputs = []
        for jobs in (1, 1, 3):
            report, records = run_benchmark(
                pool, projects, team_size=3, num_teams=100, seed=9, jobs=jobs
            )
            outputs.append(
                (
                    emit_report(report, "csv").encode(),
                    emit_report(report, "table").encode(),
                    emit_outcome_log(records).encode(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
