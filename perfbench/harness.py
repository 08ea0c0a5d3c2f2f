"""Measurement loops: the untraced end-to-end run and the traced per-layer run.

One operation is one project evaluated under every default target through
`run_benchmark(pool, [project], ...)` with one job. A pass evaluates the
whole corpus in file order and then renders the pass's records into the
report and log that `fairteams bench` would write for those projects.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Sequence

import fairteams.bench as bench
import fairteams.data_io as data_io
from fairteams import DEFAULT_TARGETS, Candidate, OutcomeRecord, Project

from .checks import oracle_problems, project_problems
from .tracing import Tracer, layer_metrics, layer_table, write_spans
from .workloads import Workload, min_samples, write_corpus

SETUP_REPEATS = 9
REPORT_FORMAT = "table"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail_value(values: Sequence[float], percentile: int) -> float:
    """Nearest-rank percentile: the smallest value with `percentile`% at or below it."""
    ordered = sorted(values)
    if len(ordered) < min_samples(percentile):
        raise ValueError(f"{len(ordered)} samples leave too few beyond p{percentile}")
    rank = -(-percentile * len(ordered) // 100)
    return ordered[rank - 1]


def render(records: Sequence[OutcomeRecord], project_count: int) -> tuple[str, str]:
    """Aggregate and render records as `fairteams bench` does: (report, log)."""
    report = bench.aggregate_records(records, DEFAULT_TARGETS, project_count)
    return bench.emit_report(report, REPORT_FORMAT), bench.emit_outcome_log(records)


@dataclass
class Run:
    """Everything one measurement loop produced, kept for the checks after it."""

    latencies: list[float] = field(default_factory=list)
    results: list[list[OutcomeRecord] | None] = field(default_factory=list)
    """Per evaluation, in order: its records, or None if it raised."""
    texts: list[tuple[int, str, str]] = field(default_factory=list)
    """Per pass: projects it evaluated, report, log."""
    wall: float = 0.0
    first_pass_rss_mb: float = 0.0
    """Peak resident memory once the first pass was rendered. Later passes
    add records the harness keeps for its checks, and their number depends
    on speed, so the peak is read before them."""


class Harness:
    """One workload's corpus, loaded, plus the knobs every evaluation uses."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.stem = f"{workload.name}-seed{seed}"
        self.pool_path, self.projects_path = write_corpus(
            workload, seed, out_dir / f"{self.stem}-corpus"
        )
        self.pool: list[Candidate] = []
        self.projects: list[Project] = []

    def load(self) -> float:
        """Load both files; return the seconds that took.

        Garbage left by earlier loads is collected first, so that no load
        pays for another's collection.
        """
        gc.collect()
        start = perf_counter()
        self.pool = data_io.load_pool(
            self.pool_path, self.workload.attr_proportion, self.seed
        )
        self.projects = data_io.load_projects(self.projects_path)
        return perf_counter() - start

    def evaluate(self, project: Project) -> list[OutcomeRecord]:
        _, records = bench.run_benchmark(
            self.pool,
            [project],
            DEFAULT_TARGETS,
            team_size=self.workload.team_size,
            num_teams=self.workload.num_teams,
            seed=self.seed,
            jobs=1,
        )
        return records

    def run(self, projects: Sequence[Project], seconds: float, tracer: Tracer | None = None) -> Run:
        """Passes over `projects` until `seconds` have gone and one pass is complete."""
        run = Run()
        start = perf_counter()
        deadline = start + seconds
        while True:
            records: list[OutcomeRecord] = []
            done = 0
            for project in projects:
                if tracer is not None:
                    tracer.project = project.id
                begin = perf_counter()
                try:
                    result = self.evaluate(project)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                run.latencies.append(perf_counter() - begin)
                run.results.append(result)
                records.extend(result or ())
                done += 1
                if tracer is not None:
                    tracer.project = ""
                    tracer.digest()
                if run.texts and perf_counter() >= deadline:
                    break
            run.texts.append((done, *render(records, done)))
            if len(run.texts) == 1:
                run.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if perf_counter() >= deadline:
                break
        run.wall = perf_counter() - start
        if tracer is not None:
            tracer.digest()
        return run

    def failures(self, run: Run, projects: Sequence[Project]) -> tuple[int, list[str]]:
        """Failed operations and what failed, checked outside the timed loop.

        The first pass is checked outright. A later evaluation fails when its
        records differ from the first pass's, and each later pass's report
        and log must hash like those rendered from the first pass's records.
        """
        count = len(projects)
        first = run.results[:count]
        problems: list[str] = []
        failed = 0
        for index, result in enumerate(run.results):
            project = projects[index % count]
            if result is None:
                found = [f"{project.id}: evaluation raised"]
            elif index < count:
                found = project_problems(result, project, self.workload.team_size)
            elif result != first[index % count]:
                found = [f"{project.id}: records differ from the first pass"]
            else:
                found = []
            failed += bool(found)
            problems.extend(found)

        for number, (done, report, log) in enumerate(run.texts):
            if done == count and number > 0:
                expected = run.texts[0][1:]
            else:
                expected = render([r for res in first[:done] for r in res or ()], done)
            if (sha256(report), sha256(log)) != tuple(map(sha256, expected)):
                problems.append(f"pass {number + 1}: report or log differs from the first pass")
        return failed, problems

    def save_first_pass(self, run: Run) -> tuple[str, str]:
        _, report, log = run.texts[0]
        (self.out_dir / f"{self.stem}.report.txt").write_text(report, encoding="utf-8")
        (self.out_dir / f"{self.stem}.log.csv").write_text(log, encoding="utf-8")
        return sha256(report), sha256(log)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_hashes(name: str, run: Run, report_sha: str, log_sha: str) -> None:
    full = sum(1 for done, _, _ in run.texts if done == run.texts[0][0])
    print(
        f"{name}: {full} full pass(es) of {run.texts[0][0]} projects,"
        f" {len(run.latencies)} evaluations; report sha256 {report_sha}; log sha256 {log_sha}"
    )


def measure(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced run: the end-to-end metrics."""
    harness = Harness(workload, seed, out_dir)
    setup = statistics.median(harness.load() for _ in range(SETUP_REPEATS))
    harness.evaluate(harness.projects[0])  # warm-up, untimed

    run = harness.run(harness.projects, seconds)
    failed, problems = harness.failures(run, harness.projects)
    _print_hashes(workload.name, run, *harness.save_first_pass(run))
    for problem in problems:
        print(f"FAILED {problem}")
    return {
        "correct": not problems,
        "attempted": len(run.latencies),
        "failed": failed,
        "metrics": {
            "projects_per_s": _metric(len(run.latencies) / run.wall, "1/s"),
            "project_p50_ms": _metric(statistics.median(run.latencies) * 1e3, "ms"),
            "project_tail_ms": _metric(
                tail_value(run.latencies, workload.tail_percentile) * 1e3, "ms"
            ),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(run.first_pass_rss_mb, "MB"),
        },
    }


PER_LAYER_UNITS = {
    "pareto.team_front_s": "s",
    "pareto.team_front_input": "count",
    "pareto.team_front_pairs": "count",
    "pareto.team_front_kept_ratio": "ratio",
    "objectives.distinct_ratio": "ratio",
    "assembly.candidate_front_s": "s",
    "assembly.candidate_front_kept_ratio": "ratio",
    "assembly.sample_s": "s",
    "assembly.sample_distinct_ratio": "ratio",
    "model.coverage_s": "s",
    "model.covered_ratio": "ratio",
    "objectives.vector_s": "s",
    "objectives.vector_calls": "count",
    "assembly.filter_s": "s",
    "assembly.incremental_s": "s",
    "assembly.fair_alloc_s": "s",
    "assembly.multi_self_s": "s",
    "data_io.load_pool_s": "s",
    "data_io.load_projects_s": "s",
    "bench.aggregate_s": "s",
    "bench.emit_s": "s",
    "bench.log_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def measure_traced(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Traced run over the corpus's leading projects: the per-layer metrics.

    The same projects are first evaluated untraced, one pass each, which
    gives the throughput the tracing overhead is measured against. The
    untraced pass gets the output checks; each traced evaluation must match
    it and pass the oracle, which replays the project stage by stage.
    """
    harness = Harness(workload, seed, out_dir)
    harness.load()
    projects = harness.projects[: workload.trace_projects]
    harness.evaluate(projects[0])  # warm-up, untimed

    plain = harness.run(projects, 0.0)
    tracer = Tracer()
    with tracer.installed():
        for _ in range(SETUP_REPEATS):
            harness.load()
        traced = harness.run(projects, 0.0, tracer)

    failed, problems = harness.failures(plain, projects)
    for project, mine, reference in zip(projects, traced.results, plain.results):
        if mine is None or mine != reference:
            found = [f"{project.id}: traced evaluation raised or differs from the untraced one"]
        else:
            found = oracle_problems(
                mine,
                harness.pool,
                project,
                team_size=workload.team_size,
                num_teams=workload.num_teams,
                seed=seed,
            )
        failed += bool(found)
        problems.extend(found)
    if traced.texts[0][1:] != plain.texts[0][1:]:
        problems.append("traced report or log differs from the untraced one")

    _print_hashes(workload.name, traced, *harness.save_first_pass(traced))
    for problem in problems:
        print(f"FAILED {problem}")
    write_spans(tracer.spans, out_dir / f"{harness.stem}.spans.csv")
    (out_dir / f"{harness.stem}.layers.json").write_text(
        json.dumps(layer_table(tracer.spans), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = plain.wall / traced.wall
    return {
        "correct": not problems,
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": failed,
        "metrics": {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()},
    }
