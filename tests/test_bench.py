"""Benchmark harness: aggregation, rendering, determinism, and the audit log."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import pickle
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairteams
from fairteams import (
    DEFAULT_TARGETS,
    AssemblyDiagnostics,
    AssemblyOutcome,
    AttributeClass,
    Candidate,
    ObjectiveVector,
    OutcomeRecord,
    Project,
    RunTarget,
    SelectionMode,
    SynthesisSpec,
    Team,
    aggregate_records,
    assemble_all_selections,
    assemble_fair_allocation,
    assemble_incremental,
    emit_outcome_log,
    emit_report,
    load_pool,
    load_projects,
    run_benchmark,
    synthesize_pool,
    synthesize_projects,
)
from fairteams.bench import _LOG_HEADER, RowAggregate, RunReport
from fairteams.model import OBJECTIVE_NAMES
from fairteams.objectives import _spread


@pytest.fixture(scope="module")
def corpus():
    pool = synthesize_pool(
        SynthesisSpec(pool_size=30, skill_universe_size=10, min_skills=1, max_skills=4, seed=14)
    )
    projects = synthesize_projects(6, 10, min_requirements=2, max_requirements=4, seed=15)
    return pool, projects


def _run(corpus, jobs=1, targets=DEFAULT_TARGETS):
    pool, projects = corpus
    return run_benchmark(
        pool, projects, targets, team_size=3, num_teams=80, seed=9, jobs=jobs
    )


def test_run_target_validation_and_labels():
    assert RunTarget("incremental").label == "incremental"
    assert RunTarget("multi", SelectionMode.TOP_COST).label == "multi/top-cost"
    with pytest.raises(ValueError):
        RunTarget("multi")
    with pytest.raises(ValueError):
        RunTarget("incremental", SelectionMode.TOP_COST)
    with pytest.raises(ValueError):
        RunTarget("unknown")


def test_default_targets_cover_every_method_and_mode():
    assert len(DEFAULT_TARGETS) == 2 + len(SelectionMode)
    assert [t.label for t in DEFAULT_TARGETS[:2]] == ["incremental", "fair-alloc"]


def test_single_project_has_zero_stds(corpus):
    pool, projects = corpus
    report, _ = run_benchmark(
        pool, projects[:1], [RunTarget("incremental")], team_size=3, num_teams=50, seed=1
    )
    row = report.rows[0]
    assert row.formed == 1
    assert row.stds == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert "(0.000)" in emit_report(report, "csv")


def test_report_row_shape(corpus):
    report, records = _run(corpus)
    assert report.project_count == 6
    assert [row.label for row in report.rows] == [t.label for t in DEFAULT_TARGETS]
    for row in report.rows:
        assert row.formed <= report.project_count
        if row.label.startswith("multi/"):
            assert row.mean_candidate_reduction is not None
            assert 0.0 <= row.mean_candidate_reduction <= 1.0
        else:
            assert row.mean_candidate_reduction is None
    assert len(records) == 6 * len(DEFAULT_TARGETS)


def test_benchmark_is_deterministic(corpus):
    first_report, first_records = _run(corpus)
    second_report, second_records = _run(corpus)
    assert emit_report(first_report, "csv") == emit_report(second_report, "csv")
    assert emit_outcome_log(first_records) == emit_outcome_log(second_records)


def test_parallel_run_matches_serial(corpus):
    serial_report, serial_records = _run(corpus, jobs=1)
    parallel_report, parallel_records = _run(corpus, jobs=3)
    assert emit_report(serial_report, "csv") == emit_report(parallel_report, "csv")
    assert emit_outcome_log(serial_records) == emit_outcome_log(parallel_records)


def test_report_means_match_log_reaggregation(corpus):
    report, records = _run(corpus)
    rows = list(csv.DictReader(io.StringIO(emit_outcome_log(records))))
    for aggregate in report.rows:
        method, _, selection = aggregate.label.partition("/")
        mine = [
            row
            for row in rows
            if row["method"] == method and row["selection"] == selection and row["formed"] == "1"
        ]
        assert len(mine) == aggregate.formed
        if not mine:
            continue
        for column, mean in zip(
            ("cost", "workload", "expertise", "representation", "cost_difference"),
            aggregate.means,
        ):
            recomputed = sum(float(row[column]) for row in mine) / len(mine)
            assert recomputed == pytest.approx(mean, abs=1e-12)


def test_log_lists_every_project_target_pair(corpus):
    _, records = _run(corpus)
    rows = list(csv.DictReader(io.StringIO(emit_outcome_log(records))))
    assert len(rows) == 6 * len(DEFAULT_TARGETS)
    keys = {(row["project_id"], row["method"], row["selection"]) for row in rows}
    assert len(keys) == len(rows)


def test_infeasible_projects_count_as_failures(corpus):
    pool, projects = corpus
    alien = Project("alien", frozenset({"zz-nowhere"}))
    report, records = run_benchmark(
        pool,
        [projects[0], alien],
        [RunTarget("incremental"), RunTarget("multi", SelectionMode.TOP_SUM)],
        team_size=3,
        num_teams=50,
        seed=2,
    )
    for row in report.rows:
        assert row.formed == 1
    alien_rows = [r for r in records if r.project_id == "alien"]
    assert alien_rows and all(not r.outcome.formed for r in alien_rows)


def test_shared_view_equals_separate_assembler_calls():
    # a class-zero share of 0.1 sends fair-alloc to its fallback class
    pool = synthesize_pool(
        SynthesisSpec(
            pool_size=40, skill_universe_size=10, max_skills=3, class_zero_share=0.1, seed=21
        )
    )
    projects = [
        *synthesize_projects(8, 10, min_requirements=2, max_requirements=5, seed=22),
        Project("alien", frozenset({"zz-nowhere"})),
    ]
    _, records = run_benchmark(pool, projects, team_size=3, num_teams=60, seed=5)
    expected = []
    for project in projects:
        multi = assemble_all_selections(pool, project, team_size=3, num_teams=60, seed=5)
        separate = {
            "incremental": assemble_incremental(pool, project),
            "fair-alloc": assemble_fair_allocation(pool, project),
        }
        for target in DEFAULT_TARGETS:
            outcome = multi[target.selection] if target.method == "multi" else separate[target.method]
            expected.append(OutcomeRecord(project.id, target, outcome))
    assert records == expected
    assert not any(r.outcome.formed for r in records if r.project_id == "alien")


def test_restricted_targets_leave_each_record_unchanged():
    # a class-zero share of 0.1 sends fair-alloc to its fallback class
    pool = synthesize_pool(
        SynthesisSpec(
            pool_size=40, skill_universe_size=10, max_skills=3, class_zero_share=0.1, seed=21
        )
    )
    projects = synthesize_projects(8, 10, min_requirements=2, max_requirements=5, seed=22)
    _, everything = run_benchmark(pool, projects, team_size=3, num_teams=60, seed=5)
    for labels in (["multi/random", "multi/top-cost"], ["incremental"]):
        targets = [target for target in DEFAULT_TARGETS if target.label in labels]
        _, records = run_benchmark(pool, projects, targets, team_size=3, num_teams=60, seed=5)
        assert [record.target.label for record in records] == labels * len(projects)
        assert records == [record for record in everything if record.target in targets]
    # the random pick has more than one front copy to choose from
    assert any(
        record.outcome.diagnostics.pareto_team_count > 1
        for record in everything
        if record.target.selection is SelectionMode.RANDOM
    )


@pytest.mark.parametrize(
    "pool_size, targets, team_size, message",
    [
        (0, DEFAULT_TARGETS, 3, "team_size 3 must be smaller than the pool (0 candidates)"),
        (0, DEFAULT_TARGETS, 2, "team_size must be at least 3, got 2"),
        (0, [RunTarget("fair-alloc"), RunTarget("incremental")], 3, "candidate pool is empty"),
        (3, DEFAULT_TARGETS, 3, "team_size 3 must be smaller than the pool (3 candidates)"),
        (3, [RunTarget("incremental"), RunTarget("fair-alloc")], 3, None),
    ],
    ids=["empty", "size-checked-first", "greedy-only-empty", "pool-too-small", "greedy-only-small"],
)
def test_pool_errors_keep_their_messages_and_order(corpus, pool_size, targets, team_size, message):
    pool, projects = corpus

    def run():
        return run_benchmark(
            pool[:pool_size], projects, targets, team_size=team_size, num_teams=10, seed=0
        )

    if message is None:
        assert run()[0].project_count == len(projects)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run()


# sha256 of the outputs on tests/data/pinned_*.csv; a change that alters
# these bytes updates the constants and says why in CHANGES.md
PINNED_SHA256 = {
    "table": "61fc1564efc733db41535fb2c8909f0a527f76ee329e289d2f141a29999d5ba6",
    "csv": "3822c2c5e9b9ab571ead18ebfd252d4df11c86b719a77325c70cc29cfb03513e",
    "log": "6c030bd89d31c17ee9212a74f0be3e776301b4b86c0184968f10aac846f8b6e9",
}


def test_report_and_log_bytes_are_pinned():
    data = Path(__file__).parent / "data"
    pool = load_pool(data / "pinned_pool.csv", 0.1, 7)
    projects = load_projects(data / "pinned_projects.csv")
    assert (len(pool), len(projects)) == (60, 12)
    report, records = run_benchmark(
        pool, projects, DEFAULT_TARGETS, team_size=4, num_teams=200, seed=7
    )
    outputs = {
        "table": emit_report(report, "table"),
        "csv": emit_report(report, "csv"),
        "log": emit_outcome_log(records),
    }
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in outputs.items()
    }
    assert digests == PINNED_SHA256


def test_aggregate_matches_run_benchmark(corpus):
    report, records = _run(corpus)
    again = aggregate_records(records, DEFAULT_TARGETS, report.project_count)
    assert again == report


def test_cell_formatting_matches_reference_style():
    row = RowAggregate(
        label="incremental",
        formed=3,
        means=(23.3114, 1.0, 1.0, 1.0, 1.0),
        stds=(15.5482, 0.0, 0.0, 0.0, 0.0),
        mean_candidate_reduction=None,
        mean_team_reduction=None,
    )
    text = emit_report(RunReport(project_count=3, rows=(row,)), "csv")
    assert "23.311 (15.548)" in text


def test_table_marks_best_mean_per_objective():
    cheap = RowAggregate("a", 2, (1.0, 2.0, 3.0, 0.5, 0.5), (0.0,) * 5, None, None)
    fair = RowAggregate("b", 2, (2.0, 1.0, 4.0, 0.6, 0.6), (0.0,) * 5, None, None)
    text = emit_report(RunReport(project_count=2, rows=(cheap, fair)), "table")
    lines = text.splitlines()
    assert lines[2].startswith("a")
    assert lines[3].startswith("b")
    assert lines[2].count("*") == 4
    assert lines[3].count("*") == 1
    assert "1.000 (0.000)*" in lines[2]
    assert "1.000 (0.000)*" in lines[3]


def test_unformed_rows_render_dashes():
    empty = RowAggregate("multi/top-sum", 0, None, None, 0.5, 0.5)
    text = emit_report(RunReport(project_count=1, rows=(empty,)), "csv")
    assert "multi/top-sum,-,-,-,-,-,0," in text


def test_targets_without_records_get_empty_rows():
    targets = [RunTarget("multi", SelectionMode.TOP_SUM), RunTarget("incremental")]
    report = aggregate_records([], targets, 0)
    for row, target in zip(report.rows, targets):
        assert row == RowAggregate(target.label, 0, None, None, None, None)
    assert emit_report(report, "csv").splitlines()[1] == "multi/top-sum,-,-,-,-,-,0,-,-"


def test_emit_report_rejects_bad_inputs():
    with pytest.raises(ValueError):
        emit_report(RunReport(project_count=0, rows=()), "csv")
    row = RowAggregate("incremental", 1, (1.0,) * 5, (0.0,) * 5, None, None)
    with pytest.raises(ValueError):
        emit_report(RunReport(project_count=1, rows=(row,)), "yaml")


def test_run_benchmark_validates_inputs(corpus):
    pool, projects = corpus
    with pytest.raises(ValueError):
        run_benchmark(pool, [], team_size=3, num_teams=10, seed=0)
    with pytest.raises(ValueError):
        run_benchmark(pool, projects, [], team_size=3, num_teams=10, seed=0)
    with pytest.raises(ValueError):
        run_benchmark(pool, projects, team_size=3, num_teams=10, seed=0, jobs=0)


class _InProcessExecutor:
    """Stands in for ProcessPoolExecutor: runs the worker initializer and map in-process."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_jobs_capped_to_one_project_runs_serially(corpus, monkeypatch):
    def no_processes(*args, **kwargs):
        raise AssertionError("a single project must not start worker processes")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_processes)
    pool, projects = corpus
    capped = run_benchmark(
        pool, projects[:1], team_size=3, num_teams=80, seed=9, jobs=10**9
    )
    assert capped == run_benchmark(pool, projects[:1], team_size=3, num_teams=80, seed=9)


@pytest.mark.parametrize(
    "jobs, cpus, workers", [(10**9, 2, 2), (10**9, None, None), (3, 64, 3), (10**9, 64, 6)]
)
def test_jobs_capped_to_projects_and_cpus(corpus, monkeypatch, jobs, cpus, workers):
    started = []

    def executor(**kwargs):
        started.append(kwargs["max_workers"])
        return _InProcessExecutor(**kwargs)

    monkeypatch.setattr("fairteams.bench._WORKER_ARGS", None)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", executor)
    monkeypatch.setattr("fairteams.bench.os.cpu_count", lambda: cpus)
    assert _run(corpus, jobs=jobs) == _run(corpus)
    assert started == ([workers] if workers else [])


def test_one_job_never_asks_for_the_cpu_count(corpus, monkeypatch):
    def no_count():
        raise AssertionError("one worker needs no CPU count")

    monkeypatch.setattr("fairteams.bench.os.cpu_count", no_count)
    pool, projects = corpus
    run_benchmark(pool, projects, team_size=3, num_teams=80, seed=9, jobs=1)
    run_benchmark(pool, projects[:1], team_size=3, num_teams=80, seed=9, jobs=4)


# -- what a run keeps alive ---------------------------------------------------


def test_kept_result_types_have_no_instance_dict_and_pickle_back_equal(corpus):
    pool, projects = corpus
    _, records = run_benchmark(pool, projects[:1], team_size=3, num_teams=80, seed=9)
    outcome = next(record.outcome for record in records if record.outcome.formed)
    kept = [records[0], outcome, outcome.diagnostics, outcome.team, outcome.objectives]
    kinds = [OutcomeRecord, AssemblyOutcome, AssemblyDiagnostics, Team, ObjectiveVector]
    assert [type(value) for value in kept] == kinds
    assert [type(value).__name__ for value in kept if hasattr(value, "__dict__")] == []
    assert pickle.loads(pickle.dumps(records)) == records


def test_importing_the_cli_loads_no_worker_process_modules():
    src = Path(fairteams.__file__).resolve().parent.parent
    code = (
        "import sys, fairteams.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


# -- the log and the aggregate against per-record references ------------------


def _reference_outcome_log(records):
    """The log as one `csv.writer` writes it, one record at a time."""
    ordered = sorted(records, key=lambda r: (r.target.label, r.project_id))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_LOG_HEADER)
    for record in ordered:
        outcome = record.outcome
        diag = outcome.diagnostics
        if outcome.formed:
            objective_cells = [repr(v) for v in outcome.objectives.as_tuple()]
            size = len(outcome.team)
            members = ";".join(outcome.team.member_ids())
        else:
            objective_cells = [""] * len(OBJECTIVE_NAMES)
            size = 0
            members = ""
        writer.writerow(
            [
                record.project_id,
                record.target.method,
                record.target.selection.value if record.target.selection else "",
                int(outcome.formed),
                *objective_cells,
                size,
                members,
                diag.pool_size,
                diag.filtered_size,
                diag.pareto_candidate_count,
                diag.teams_sampled,
                diag.full_coverage_count,
                diag.pareto_team_count,
                repr(diag.candidate_reduction),
                repr(diag.team_reduction),
                int(diag.used_fallback_team),
            ]
        )
    return out.getvalue()


def _reference_aggregate(records, targets, project_count):
    """Per target, over its records sorted by project id: column sums with
    `sum` and spreads with `_spread`, one objective at a time."""
    groups = defaultdict(list)
    for record in records:
        groups[record.target].append(record)
    rows = []
    for target in targets:
        mine = sorted(groups[target], key=lambda r: r.project_id)
        formed = [r.outcome for r in mine if r.outcome.formed]
        means = stds = None
        if formed:
            columns = list(zip(*(o.objectives.as_tuple() for o in formed)))
            means = tuple(sum(col) / len(col) for col in columns)
            stds = tuple(_spread(col, sum(col)) for col in columns)
        cand_mean = team_mean = None
        if target.method == "multi" and mine:
            cand_mean = sum(r.outcome.diagnostics.candidate_reduction for r in mine) / len(mine)
            team_mean = sum(r.outcome.diagnostics.team_reduction for r in mine) / len(mine)
        rows.append(RowAggregate(target.label, len(formed), means, stds, cand_mean, team_mean))
    return RunReport(project_count, tuple(rows))


_TRICKY_IDS = ["", "p1", "a,b", 'say "hi"', "two\nlines", "cr\rid", " padded ", '"', ",", "\u00fc"]
_VALUES = [0.0, 0.1, 1 / 3, 1e-300, 0.7, 12345.678, 1e16]
_FRACTIONS = [0.0, 0.1, 1 / 3, 0.5, 1.0]


@st.composite
def _log_records(draw, targets=DEFAULT_TARGETS):
    """Records under ids that need quoting, one of them empty, whose outcomes
    share teams, objectives and diagnostics in every combination, unformed
    outcomes included, under `targets` or equal copies of them."""
    ids = draw(st.lists(st.sampled_from(_TRICKY_IDS[1:]), min_size=3, max_size=6, unique=True))
    members = [Candidate(cid, AttributeClass.ZERO, {"s": 1.0}) for cid in ids]
    positions = st.sets(st.integers(0, len(ids) - 1), min_size=1, max_size=3)
    teams = [Team(members[i] for i in draw(positions)) for _ in range(draw(st.integers(1, 3)))]
    vector = st.tuples(*[st.sampled_from(_VALUES)] * 3, *[st.sampled_from(_FRACTIONS)] * 2)
    vectors = [ObjectiveVector(*draw(vector)) for _ in range(draw(st.integers(1, 6)))]
    counts = st.lists(st.integers(0, 9), min_size=6, max_size=6)
    diagnostics = [
        AssemblyDiagnostics(
            *draw(counts),
            draw(st.sampled_from(_FRACTIONS)),
            draw(st.sampled_from(_FRACTIONS)),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]

    def outcome():
        diag = draw(st.sampled_from(diagnostics))
        if draw(st.booleans()):
            return AssemblyOutcome(None, None, diag)
        return AssemblyOutcome(draw(st.sampled_from(teams)), draw(st.sampled_from(vectors)), diag)

    shared = [outcome() for _ in range(draw(st.integers(1, 4)))]
    either = st.sampled_from([*targets, *(RunTarget(t.method, t.selection) for t in targets)])
    return [
        OutcomeRecord(
            draw(st.sampled_from(_TRICKY_IDS)),
            draw(either),
            draw(st.sampled_from(shared)) if draw(st.booleans()) else outcome(),
        )
        for _ in range(draw(st.integers(0, 40)))
    ]


def test_ids_that_need_quoting_log_as_the_reference_with_one_worker_and_two():
    """Picks shared by several modes and picks of one mode alone, under ids
    with commas, quotes and line breaks; a worker returns one project's
    records at a time, so the shared outcome objects differ between runs."""
    data = Path(__file__).parent / "data"
    pool = load_pool(data / "quoted_pool.csv")
    projects = load_projects(data / "quoted_projects.csv")
    logs = []
    for jobs in (1, 2):
        _, records = run_benchmark(pool, projects, team_size=3, num_teams=200, seed=3, jobs=jobs)
        logs.append(emit_outcome_log(records))
        assert logs[-1] == _reference_outcome_log(records)
    assert logs[0] == logs[1]
    rows = list(csv.DictReader(io.StringIO(logs[0])))
    assert {row["project_id"] for row in rows} == {project.id for project in projects}
    picks = {(row["project_id"], row["member_ids"]) for row in rows if row["method"] == "multi"}
    assert len(projects) < len(picks) < len(projects) * len(SelectionMode)


@settings(deadline=None, max_examples=300)
@given(records=_log_records())
def test_outcome_log_equals_the_per_record_writer(records):
    assert emit_outcome_log(records) == _reference_outcome_log(records)


def test_aggregate_adds_each_target_in_project_id_order():
    """Costs whose spread differs in the last bit when its squares are added
    in another order, given in reverse project-id order."""
    team = Team([Candidate("m", AttributeClass.ZERO, {"s": 1.0})])
    target = RunTarget("incremental")
    records = [
        OutcomeRecord(pid, target, AssemblyOutcome(team, ObjectiveVector(cost, 0, 0, 0, 0), None))
        for pid, cost in [("c", 12345.678), ("b", 12345.678), ("a", 0.001)]
    ]
    (row,) = aggregate_records(records, [target], 3).rows
    in_order = [0.001, 12345.678, 12345.678]
    assert row.stds[0] == _spread(in_order, sum(in_order)) != _spread(in_order[::-1], sum(in_order))


_TWO_TARGETS = (RunTarget("fair-alloc"), RunTarget("multi", SelectionMode.TOP_SUM))


@settings(deadline=None, max_examples=300)
@given(records=_log_records(_TWO_TARGETS))
def test_aggregate_equals_the_per_objective_reference(records):
    """Two targets, so that each adds up many vectors in project-id order."""
    count = len({record.project_id for record in records})
    targets = [*_TWO_TARGETS, RunTarget("incremental")]
    assert aggregate_records(records, targets, count) == _reference_aggregate(
        records, targets, count
    )
