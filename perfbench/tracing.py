"""Spans around the package's layer boundaries, recorded from outside the package.

`Tracer.installed()` replaces the module-level names the pipeline looks up at
call time with wrappers that open a span, and restores them on exit. Spans
stay in memory until `write_spans`. Counts that need the wrapped call's
arguments or result are taken in `digest`, which the harness calls between
projects, outside every span, so counting is charged to no layer.
"""

from __future__ import annotations

import csv
import functools
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator, Sequence

import fairteams.assembly
import fairteams.bench
import fairteams.data_io

# (module whose global the pipeline reads, attribute, span name). The span
# name is the module that defines the function; `bench` imports the
# assemblers, so they are wrapped where `bench` looks them up.
WRAPPED = (
    (fairteams.assembly, "filter_candidates", "assembly.filter_candidates"),
    (fairteams.assembly, "pareto_candidates", "assembly.pareto_candidates"),
    (fairteams.assembly, "form_random_teams", "assembly.form_random_teams"),
    (fairteams.assembly, "coverage", "model.coverage"),
    (fairteams.assembly, "objective_vector", "objectives.objective_vector"),
    (fairteams.assembly, "pareto_front", "pareto.pareto_front"),
    (fairteams.bench, "assemble_all_selections", "assembly.assemble_all_selections"),
    (fairteams.bench, "assemble_incremental", "assembly.assemble_incremental"),
    (fairteams.bench, "assemble_fair_allocation", "assembly.assemble_fair_allocation"),
    (fairteams.bench, "run_benchmark", "bench.run_benchmark"),
    (fairteams.bench, "aggregate_records", "bench.aggregate_records"),
    (fairteams.bench, "emit_report", "bench.emit_report"),
    (fairteams.bench, "emit_outcome_log", "bench.emit_outcome_log"),
    (fairteams.data_io, "load_pool", "data_io.load_pool"),
    (fairteams.data_io, "load_projects", "data_io.load_projects"),
)

NO_PARENT = -1


class Span:
    __slots__ = ("id", "parent", "name", "project", "start", "end", "data")

    def __init__(self, id: int, parent: int, name: str, project: str, start: int, end: int = 0):
        self.id = id
        self.parent = parent
        self.name = name
        self.project = project
        self.start = start
        self.end = end
        self.data = None


class Tracer:
    """Collects spans and per-layer counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.project = ""
        self._open: list[Span] = []
        self._digested = 0

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1].id if open_spans else NO_PARENT
            span = Span(len(spans), parent, name, self.project, perf_counter_ns())
            spans.append(span)
            open_spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                open_spans.pop()
            span.data = (args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for (module, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def parent_name(self, span: Span) -> str:
        return self.spans[span.parent].name if span.parent != NO_PARENT else ""

    def digest(self) -> None:
        """Turn the arguments and results held by new spans into counts, then drop them."""
        counts = self.counts
        distinct_covered: dict[int, set[tuple[str, ...]]] = defaultdict(set)
        for span in self.spans[self._digested :]:
            if span.data is None:
                continue
            args, result = span.data
            span.data = None
            if span.name == "pareto.pareto_front":
                if self.parent_name(span) == "assembly.pareto_candidates":
                    continue
                size = len(args[0])
                counts["team_front_input"] += size
                counts["team_front_pairs"] += size * size
                counts["team_front_kept"] += len(result)
            elif span.name == "assembly.pareto_candidates":
                counts["candidate_front_input"] += len(args[0])
                counts["candidate_front_kept"] += len(result)
            elif span.name == "assembly.form_random_teams":
                counts["sampled"] += len(result)
                counts["sampled_distinct"] += len({team.member_ids() for team in result})
            elif span.name == "model.coverage":
                counts["coverage_calls"] += 1
                counts["covered"] += result == len(args[1].requirements)
            elif span.name == "objectives.objective_vector":
                if self.parent_name(span) == "assembly.assemble_all_selections":
                    counts["multi_vectors"] += 1
                    distinct_covered[span.parent].add(args[0].member_ids())
            elif span.name == "bench.emit_outcome_log":
                counts["log_bytes"] += len(result.encode("utf-8"))
        counts["multi_vectors_distinct"] += sum(len(s) for s in distinct_covered.values())
        self._digested = len(self.spans)


def covered_length(intervals: Sequence[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> list[int]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent != NO_PARENT:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    ]


def layer_table(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Self time in seconds and call count per span name."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["self_s"] += own / 1e9
        row["calls"] += 1
    return dict(table)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's per-layer metrics from a digested tracer.

    Times are self times summed over the run, except the loads, which report
    the median duration of one call. `pareto_front` called by
    `pareto_candidates` belongs to the candidate front, not the team front.
    """
    spans = tracer.spans
    own = self_times(spans)
    seconds: Counter[str] = Counter()
    for span, ns in zip(spans, own):
        name = span.name
        if name == "pareto.pareto_front":
            if tracer.parent_name(span) == "assembly.pareto_candidates":
                name = "assembly.pareto_candidates"
        seconds[name] += ns / 1e9
    counts = tracer.counts

    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    def median_load(name: str) -> float:
        return statistics.median(
            (s.end - s.start) / 1e9 for s in spans if s.name == name
        )

    return {
        "pareto.team_front_s": seconds["pareto.pareto_front"],
        "pareto.team_front_input": counts["team_front_input"],
        "pareto.team_front_pairs": counts["team_front_pairs"],
        "pareto.team_front_kept_ratio": ratio("team_front_kept", "team_front_input"),
        "objectives.distinct_ratio": ratio("multi_vectors_distinct", "multi_vectors"),
        "assembly.candidate_front_s": seconds["assembly.pareto_candidates"],
        "assembly.candidate_front_kept_ratio": ratio("candidate_front_kept", "candidate_front_input"),
        "assembly.sample_s": seconds["assembly.form_random_teams"],
        "assembly.sample_distinct_ratio": ratio("sampled_distinct", "sampled"),
        "model.coverage_s": seconds["model.coverage"],
        "model.covered_ratio": ratio("covered", "coverage_calls"),
        "objectives.vector_s": seconds["objectives.objective_vector"],
        "objectives.vector_calls": sum(1 for s in spans if s.name == "objectives.objective_vector"),
        "assembly.filter_s": seconds["assembly.filter_candidates"],
        "assembly.incremental_s": seconds["assembly.assemble_incremental"],
        "assembly.fair_alloc_s": seconds["assembly.assemble_fair_allocation"],
        "assembly.multi_self_s": seconds["assembly.assemble_all_selections"],
        "data_io.load_pool_s": median_load("data_io.load_pool"),
        "data_io.load_projects_s": median_load("data_io.load_projects"),
        "bench.aggregate_s": seconds["bench.aggregate_records"],
        "bench.emit_s": seconds["bench.emit_report"] + seconds["bench.emit_outcome_log"],
        "bench.log_bytes": counts["log_bytes"],
    }


def write_spans(spans: Sequence[Span], path: Path) -> None:
    """One CSV row per span; times in nanoseconds from the first span's start."""
    origin = spans[0].start if spans else 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "parent", "name", "project", "start_ns", "end_ns"])
        for s in spans:
            writer.writerow([s.id, s.parent, s.name, s.project, s.start - origin, s.end - origin])
