"""Benchmark workloads: what each corpus stresses, and how a seed generates it.

A corpus is generated only through the package's public synthesis functions
and written to disk; the measured program then loads it from those files, so
it sees nothing but the generated inputs.

Requirement counts are stratified: each corpus holds the same number of
projects for every count in [min_req, max_req], interleaved round-robin. A
uniform draw leaves the share of expensive counts to chance, and on
repeat-front that share alone moved throughput by a fifth between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairteams import (
    Project,
    SynthesisSpec,
    save_pool,
    save_projects,
    synthesize_pool,
    synthesize_projects,
)

TAIL_BEYOND = 10
"""Samples that must lie beyond the reported tail percentile."""


def min_samples(percentile: int) -> int:
    """Fewest samples that leave TAIL_BEYOND of them above `percentile`.

    Past this count the number beyond, floor(n * (100 - q) / 100), never
    drops below TAIL_BEYOND again, since it cannot fall as n grows.
    """
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {percentile}")
    return -(-TAIL_BEYOND * 100 // (100 - percentile))


@dataclass(frozen=True)
class Workload:
    """One corpus shape plus the assembly knobs the benchmark runs it with."""

    name: str
    why: str
    pool_size: int
    skills: int
    min_skills: int
    max_skills: int
    min_req: int
    max_req: int
    team_size: int
    num_teams: int
    projects: int
    """Corpus size; one measured pass evaluates every project once."""
    trace_projects: int
    """Leading projects of the corpus that the traced run evaluates."""
    tail_percentile: int
    attr_proportion: float | None = None
    """Class-zero share reassigned at load time, as `bench --attr-proportion`."""

    def __post_init__(self) -> None:
        if self.projects % len(self.requirement_counts):
            raise ValueError(f"{self.name}: projects must split evenly over requirement counts")
        if self.projects < min_samples(self.tail_percentile):
            raise ValueError(f"{self.name}: one pass is too short for p{self.tail_percentile}")
        if not 0 < self.trace_projects <= self.projects:
            raise ValueError(f"{self.name}: trace_projects must lie in [1, projects]")

    @property
    def requirement_counts(self) -> range:
        return range(self.min_req, self.max_req + 1)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The ROADMAP S corpus. Candidate fronts are small, so most sampled
        # teams repeat and every copy enters the O(n^2) team-level front.
        Workload(
            name="repeat-front",
            why=(
                "S corpus, pool 300, 40 skills, 1-5 per candidate, 2-5 reqs, team 4, 500 teams:"
                " few distinct teams, O(n^2) team front dominates; tail p97 of >=480"
            ),
            pool_size=300,
            skills=40,
            min_skills=1,
            max_skills=5,
            min_req=2,
            max_req=5,
            team_size=4,
            num_teams=500,
            projects=480,
            trace_projects=160,
            tail_percentile=97,
        ),
        # Skill-rich candidates and long requirement lists: large candidate
        # fronts, nearly all sampled teams distinct, candidate round dominates.
        Workload(
            name="broad-pool",
            why=(
                "pool 1000, 60 skills, 3-12 per candidate, 6-10 reqs, team 6, 500 teams:"
                " teams nearly all distinct, candidate front dominates; tail p95 of >=200"
            ),
            pool_size=1000,
            skills=60,
            min_skills=3,
            max_skills=12,
            min_req=6,
            max_req=10,
            team_size=6,
            num_teams=500,
            projects=200,
            trace_projects=60,
            tail_percentile=95,
        ),
        # Large sparse pool, few teams: per-project fixed costs (filter,
        # candidate front, greedy baselines) and loading dominate.
        Workload(
            name="wide-pool",
            why=(
                "pool 3000, 200 skills, 1-5 per candidate, 2-5 reqs, team 4, 100 teams, class-0"
                " share 0.1: per-project fixed costs and loading dominate; tail p95 of >=1800"
            ),
            pool_size=3000,
            skills=200,
            min_skills=1,
            max_skills=5,
            min_req=2,
            max_req=5,
            team_size=4,
            num_teams=100,
            projects=1800,
            trace_projects=600,
            tail_percentile=95,
            attr_proportion=0.1,
        ),
    )
}


def write_corpus(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Generate the workload's pool and projects from `seed` as CSV files."""
    counts = workload.requirement_counts
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(1 + len(counts))]
    pool = synthesize_pool(
        SynthesisSpec(
            pool_size=workload.pool_size,
            skill_universe_size=workload.skills,
            min_skills=workload.min_skills,
            max_skills=workload.max_skills,
            seed=seeds[0],
        )
    )
    per_count = workload.projects // len(counts)
    blocks = [
        synthesize_projects(per_count, workload.skills, count, count, seed=block_seed)
        for count, block_seed in zip(counts, seeds[1:])
    ]
    width = len(str(workload.projects - 1))
    interleaved = [project for row in zip(*blocks) for project in row]
    projects = [Project(f"p{i:0{width}d}", p.requirements) for i, p in enumerate(interleaved)]

    directory.mkdir(parents=True, exist_ok=True)
    pool_path, projects_path = directory / "pool.csv", directory / "projects.csv"
    save_pool(pool, pool_path)
    save_projects(projects, projects_path)
    return pool_path, projects_path
