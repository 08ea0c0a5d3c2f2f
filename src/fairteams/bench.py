"""Corpus benchmark: run every assembler over every project, aggregate, render.

Projects are independent, so they may be evaluated in parallel; each project
draws from its own (seed, project id) random stream and aggregation is an
ordered reduction over project ids, which keeps reports byte-identical across
runs and worker counts.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

from .assembly import (
    AssemblyOutcome,
    SelectionMode,
    assemble_all_selections,
    assemble_fair_allocation,
    assemble_incremental,
    project_view,
)
from .model import OBJECTIVE_NAMES, Candidate, Project
from .objectives import _spread

METHODS = ("multi", "incremental", "fair-alloc")


@dataclass(frozen=True)
class RunTarget:
    """One report row: a method, plus the selection mode for the multi method."""

    method: str
    selection: SelectionMode | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "multi" and self.selection is None:
            raise ValueError("the multi method needs a selection mode")
        if self.method != "multi" and self.selection is not None:
            raise ValueError(f"method {self.method!r} takes no selection mode")

    @property
    def label(self) -> str:
        if self.selection is None:
            return self.method
        return f"multi/{self.selection.value}"


DEFAULT_TARGETS: tuple[RunTarget, ...] = (
    RunTarget("incremental"),
    RunTarget("fair-alloc"),
    *(RunTarget("multi", mode) for mode in SelectionMode),
)


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    """One (project, target) evaluation, kept raw for the audit log."""

    project_id: str
    target: RunTarget
    outcome: AssemblyOutcome


@dataclass(frozen=True)
class RowAggregate:
    """Aggregate statistics of one target over the whole corpus."""

    label: str
    formed: int
    means: tuple[float, float, float, float, float] | None
    stds: tuple[float, float, float, float, float] | None
    mean_candidate_reduction: float | None
    mean_team_reduction: float | None


@dataclass(frozen=True)
class RunReport:
    project_count: int
    rows: tuple[RowAggregate, ...]


def _evaluate_project(
    pool: Sequence[Candidate],
    project: Project,
    targets: Sequence[RunTarget],
    team_size: int,
    num_teams: int,
    seed: int,
) -> list[OutcomeRecord]:
    view = project_view(pool, project)
    multi = (
        assemble_all_selections(
            pool,
            project,
            team_size=team_size,
            num_teams=num_teams,
            seed=seed,
            view=view,
        )
        if any(t.method == "multi" for t in targets)
        else {}
    )
    records = []
    for target in targets:
        if target.method == "incremental":
            outcome = assemble_incremental(pool, project, view=view)
        elif target.method == "fair-alloc":
            outcome = assemble_fair_allocation(pool, project, view=view)
        else:
            outcome = multi[target.selection]
        records.append(OutcomeRecord(project.id, target, outcome))
    return records


_WORKER_ARGS: tuple | None = None


def _init_worker(pool, targets, team_size, num_teams, seed) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = (pool, targets, team_size, num_teams, seed)


def _run_one(project: Project) -> list[OutcomeRecord]:
    pool, targets, team_size, num_teams, seed = _WORKER_ARGS
    return _evaluate_project(pool, project, targets, team_size, num_teams, seed)


def _by_target(records: Sequence[OutcomeRecord]) -> dict[tuple, list[OutcomeRecord]]:
    """Records grouped on their target's fields (a frozen dataclass hashes through
    a Python function), each group sorted stably by project id."""
    groups: dict[tuple, list[OutcomeRecord]] = {}
    for record in records:
        groups.setdefault((record.target.method, record.target.selection), []).append(record)
    for group in groups.values():
        group.sort(key=lambda r: r.project_id)
    return groups


def aggregate_records(
    records: Sequence[OutcomeRecord], targets: Sequence[RunTarget], project_count: int
) -> RunReport:
    """Ordered reduction: per target, stats over outcomes sorted by project id."""
    groups = _by_target(records)
    rows = []
    for target in targets:
        mine = groups.get((target.method, target.selection), ())
        formed = [r.outcome.objectives.as_tuple() for r in mine if r.outcome.formed]
        means = stds = None
        if formed:
            columns = [(column, sum(column)) for column in zip(*formed)]
            means = tuple([total / len(formed) for _, total in columns])
            stds = tuple([_spread(column, total) for column, total in columns])
        if target.method == "multi" and mine:
            cand_mean = sum([r.outcome.diagnostics.candidate_reduction for r in mine]) / len(mine)
            team_mean = sum([r.outcome.diagnostics.team_reduction for r in mine]) / len(mine)
        else:
            cand_mean = team_mean = None
        rows.append(RowAggregate(target.label, len(formed), means, stds, cand_mean, team_mean))
    return RunReport(project_count=project_count, rows=tuple(rows))


def run_benchmark(
    pool: Sequence[Candidate],
    projects: Sequence[Project],
    targets: Sequence[RunTarget] = DEFAULT_TARGETS,
    *,
    team_size: int,
    num_teams: int,
    seed: int,
    jobs: int = 1,
) -> tuple[RunReport, list[OutcomeRecord]]:
    """Evaluate every target on every project; infeasible projects count as failures.

    Returns the aggregate report plus the raw per-project records backing it.
    `jobs` is capped at the project count and, when that leaves more than one,
    at `os.cpu_count()`; a cap of 1 runs in-process.
    """
    if not projects:
        raise ValueError("project corpus is empty")
    if not targets:
        raise ValueError("no targets selected")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    workers = min(jobs, len(projects))
    workers = min(workers, os.cpu_count() or 1) if workers > 1 else workers
    if workers == 1:
        batches = [
            _evaluate_project(pool, project, targets, team_size, num_teams, seed)
            for project in projects
        ]
    else:
        # imported here: `multiprocessing` costs a serial run ~2 MB of RSS
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(list(pool), list(targets), team_size, num_teams, seed),
        ) as executor:
            batches = list(executor.map(_run_one, projects, chunksize=4))
    records = [record for batch in batches for record in batch]
    report = aggregate_records(records, targets, len(projects))
    return report, records


def _cell(mean: float, std: float) -> str:
    return f"{mean:.3f} ({std:.3f})"


def emit_report(report: RunReport, fmt: str) -> str:
    """Render the aggregate table as 'csv' or an aligned 'table'.

    Objective cells read "mean (std)" with three decimals. The plain-text
    table appends '*' to the best (lowest-mean) formed value per objective.
    """
    if not report.rows:
        raise ValueError("report has no rows")
    if fmt not in ("csv", "table"):
        raise ValueError(f"unknown report format {fmt!r}, expected csv or table")

    header = ["algorithm", *OBJECTIVE_NAMES, "teams", "candidate_reduction", "team_reduction"]
    formed = [row.means for row in report.rows if row.means is not None]
    best = [min(column) for column in zip(*formed)]

    table: list[list[str]] = []
    for row in report.rows:
        cells = [row.label]
        for k in range(len(OBJECTIVE_NAMES)):
            if row.means is None:
                cells.append("-")
            else:
                text = _cell(row.means[k], row.stds[k])
                if fmt == "table" and row.means[k] == best[k]:
                    text += "*"
                cells.append(text)
        cells.append(str(row.formed))
        for value in (row.mean_candidate_reduction, row.mean_team_reduction):
            cells.append("-" if value is None else f"{value:.3f}")
        table.append(cells)

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)
        return out.getvalue()

    widths = [max(len(header[i]), *(len(r[i]) for r in table)) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for cells in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


_LOG_HEADER = [
    "project_id",
    "method",
    "selection",
    "formed",
    *OBJECTIVE_NAMES,
    "team_size",
    "member_ids",
    "pool_size",
    "filtered_size",
    "pareto_candidates",
    "teams_sampled",
    "full_coverage",
    "pareto_teams",
    "candidate_reduction",
    "team_reduction",
    "fallback",
]


def emit_outcome_log(records: Sequence[OutcomeRecord]) -> str:
    """Raw audit log, one row per (project, target), full float precision.

    Rows are sorted by target label, then project id. Each target's cells,
    each project id and each outcome's cells are formatted once per call;
    the log is one join of those shared pieces. `csv.writer` quotes field
    by field, so the rows are those it writes one record at a time.
    """
    # `writerow` returns what its file's `write` returns: here the row's text
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    groups = sorted(_by_target(records).values(), key=lambda group: group[0].target.label)
    ids: dict[str, str] = {}
    tails: dict[int, str] = {}
    parts = [line(_LOG_HEADER)]
    for mine in groups:
        target = mine[0].target
        target_cells = f",{line([target.method, getattr(target.selection, 'value', '')])[:-1]},"
        for record in mine:
            pid, outcome = record.project_id, record.outcome
            if pid not in ids:
                # `csv` writes a row of one empty field as `""`, a cell among others as nothing
                ids[pid] = line([pid])[:-1] if pid else ""
            # an outcome is frozen and alive until the call returns, so its id stays its own
            if id(outcome) not in tails:
                diag = outcome.diagnostics
                if outcome.formed:
                    objective_cells = [repr(v) for v in outcome.objectives.as_tuple()]
                    size = len(outcome.team)
                    members = ";".join(outcome.team.member_ids())
                else:
                    objective_cells = [""] * len(OBJECTIVE_NAMES)
                    size = 0
                    members = ""
                tails[id(outcome)] = line(
                    [int(outcome.formed), *objective_cells, size, members]
                    + [diag.pool_size, diag.filtered_size, diag.pareto_candidate_count]
                    + [diag.teams_sampled, diag.full_coverage_count, diag.pareto_team_count]
                    + [repr(diag.candidate_reduction), repr(diag.team_reduction)]
                    + [int(diag.used_fallback_team)]
                )
            parts += (ids[pid], target_cells, tails[id(outcome)])
    return "".join(parts)
