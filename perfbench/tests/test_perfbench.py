"""Tests of the benchmark's own code: names, corpora, checks, tail rank, self time."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fairteams.bench
from fairteams import DEFAULT_TARGETS, ObjectiveVector, Team, emit_outcome_log, emit_report
from perfbench.checks import oracle_problems, project_problems
from perfbench.harness import (
    PER_LAYER_UNITS,
    Harness,
    Run,
    measure,
    measure_traced,
    render,
    tail_value,
)
from perfbench.tracing import WRAPPED, Span, Tracer, self_times
from perfbench.workloads import TAIL_BEYOND, WORKLOADS, Workload, min_samples, write_corpus

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")

TINY = Workload(
    name="tiny",
    why="small enough for unit tests",
    pool_size=40,
    skills=10,
    min_skills=1,
    max_skills=4,
    min_req=2,
    max_req=4,
    team_size=3,
    num_teams=60,
    projects=102,
    trace_projects=12,
    tail_percentile=90,
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    harness = Harness(TINY, 5, tmp_path_factory.mktemp("tiny"))
    harness.load()
    return harness


def test_metric_and_workload_names_match_the_pattern():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS) + list(PER_LAYER_UNITS)
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_spec_lists_the_workloads_and_metrics_the_harness_prints(tmp_path):
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    end_to_end = measure(TINY, 1, 0.01, tmp_path)
    per_layer = measure_traced(TINY, 1, tmp_path)
    assert set(end_to_end["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(per_layer["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result, listed in ((end_to_end, SPEC["end_to_end"]), (per_layer, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_corpus_files(tmp_path, name):
    first = write_corpus(WORKLOADS[name], 7, tmp_path / "a")
    again = write_corpus(WORKLOADS[name], 7, tmp_path / "b")
    other = write_corpus(WORKLOADS[name], 8, tmp_path / "c")
    for path, same, different in zip(first, again, other):
        assert path.read_bytes() == same.read_bytes()
        assert path.read_bytes() != different.read_bytes()


def _formed_multi_index(records):
    """Index of a formed multi outcome of full team size, or None."""
    return next(
        (
            i
            for i, r in enumerate(records)
            if r.target.method == "multi"
            and r.outcome.formed
            and not r.outcome.diagnostics.used_fallback_team
        ),
        None,
    )


def _corrupt(records, index, **changes):
    record = records[index]
    outcome = dataclasses.replace(record.outcome, **changes)
    return [*records[:index], dataclasses.replace(record, outcome=outcome), *records[index + 1 :]]


def _first_pass(results, count):
    run = Run(results=results)
    run.texts = [(count, *render([r for res in results[:count] for r in res or ()], count))]
    return run


def test_corrupted_outcome_is_counted_as_failed(tiny):
    projects = tiny.projects[:8]
    results = [tiny.evaluate(p) for p in projects]
    hit = next(k for k, records in enumerate(results) if _formed_multi_index(records) is not None)
    records = results[hit]
    index = _formed_multi_index(records)
    outcome = records[index].outcome
    assert project_problems(records, projects[hit], TINY.team_size) == []

    dropped = _corrupt(records, index, team=Team(outcome.team.members[1:]))
    values = list(outcome.objectives.as_tuple())
    values[2] = math.nextafter(values[2], math.inf)
    nudged = _corrupt(records, index, objectives=ObjectiveVector(*values))
    for corrupted in (dropped, nudged):
        assert project_problems(corrupted, projects[hit], TINY.team_size)
        run = _first_pass([*results[:hit], corrupted, *results[hit + 1 :]], len(projects))
        failed, problems = tiny.failures(run, projects)
        assert failed == 1 and problems


def test_raised_or_changed_repeat_is_counted_as_failed(tiny):
    projects = tiny.projects[:3]
    results = [tiny.evaluate(p) for p in projects]
    assert tiny.failures(_first_pass(results * 2, 3), projects) == (0, [])
    # The second pass raises on the first project and returns the first
    # project's records for the second.
    failed, problems = tiny.failures(_first_pass([*results, None, results[0]], 3), projects)
    assert failed == 2 and len(problems) == 2


def test_report_and_log_match_one_bench_run_over_the_corpus(tiny):
    projects = tiny.projects[:10]
    records = [r for p in projects for r in tiny.evaluate(p)]
    report, whole = fairteams.bench.run_benchmark(
        tiny.pool, projects, DEFAULT_TARGETS,
        team_size=TINY.team_size, num_teams=TINY.num_teams, seed=tiny.seed,
    )
    assert render(records, len(projects)) == (emit_report(report, "table"), emit_outcome_log(whole))


def test_oracle_accepts_real_outcomes_and_flags_wrong_counts(tiny):
    knobs = dict(team_size=TINY.team_size, num_teams=TINY.num_teams, seed=tiny.seed)
    for project in tiny.projects[:10]:
        records = tiny.evaluate(project)
        assert oracle_problems(records, tiny.pool, project, **knobs) == []
    index = _formed_multi_index(records)
    diagnostics = records[index].outcome.diagnostics
    wrong = dataclasses.replace(
        diagnostics, full_coverage_count=diagnostics.full_coverage_count + 1
    )
    assert oracle_problems(_corrupt(records, index, diagnostics=wrong), tiny.pool, project, **knobs)


@pytest.mark.parametrize(
    "percentile", sorted({w.tail_percentile for w in WORKLOADS.values()} | {50, 90, 95, 99})
)
def test_tail_percentile_always_has_ten_samples_beyond(percentile):
    for n in range(min_samples(percentile), min_samples(percentile) + 3000):
        rank = -(-percentile * n // 100)
        assert n - rank >= TAIL_BEYOND
    values = list(range(min_samples(percentile), 0, -1))
    tail = tail_value(values, percentile)
    assert sum(v > tail for v in values) >= TAIL_BEYOND
    assert sum(v <= tail for v in values) * 100 >= percentile * len(values)
    with pytest.raises(ValueError):
        tail_value(values[1:], percentile)


def test_self_time_is_duration_minus_time_covered_by_children():
    rng = np.random.default_rng(3)
    for _ in range(200):
        spans = [Span(0, -1, "root", "", 0, 100)]
        for i in range(1, int(rng.integers(1, 8))):
            start = int(rng.integers(-20, 110))
            spans.append(Span(i, int(rng.integers(0, i)), "child", "", start, start + int(rng.integers(0, 40))))
        own = self_times(spans)
        for span, value in zip(spans, own):
            children = [c for c in spans if c.parent == span.id]
            busy = sum(
                1 for t in range(span.start, span.end) if any(c.start <= t < c.end for c in children)
            )
            assert value == span.end - span.start - busy


def test_tracer_nests_spans_and_restores_the_wrapped_names(tiny):
    originals = [getattr(module, attr) for module, attr, _ in WRAPPED]
    tracer = Tracer()
    with tracer.installed():
        tracer.project = tiny.projects[0].id
        tiny.evaluate(tiny.projects[0])
        tracer.digest()
    assert [getattr(module, attr) for module, attr, _ in WRAPPED] == originals
    root = tracer.spans[0]
    assert root.name == "bench.run_benchmark" and root.parent == -1
    assert all(s.parent >= 0 and s.project == root.project for s in tracer.spans[1:])
    assert all(s.data is None for s in tracer.spans)
    assert tracer.counts["coverage_calls"] == tracer.counts["sampled"]
