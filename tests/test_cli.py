"""End-to-end command line flows and exit codes."""

from __future__ import annotations

import csv
import json
import re

import pytest

from fairteams import load_pool, load_projects
from fairteams.cli import main

POOL = """id,cost,attribute,skills
u1,0.10,0,java;sql
u2,0.20,1,python
u3,0.15,1,java
u4,0.25,0,sql;python
u5,0.30,1,java;python
"""

PROJECTS = """id,skills
p1,java;sql
p2,python;java
"""


@pytest.fixture
def data(tmp_path):
    pool = tmp_path / "pool.csv"
    pool.write_text(POOL, encoding="utf-8")
    projects = tmp_path / "projects.csv"
    projects.write_text(PROJECTS, encoding="utf-8")
    return pool, projects


def test_synth_then_bench_then_assemble(tmp_path, capsys):
    pool = tmp_path / "pool.csv"
    projects = tmp_path / "projects.csv"
    report = tmp_path / "report.csv"
    log = tmp_path / "run.log.csv"

    assert main([
        "synth", "--out-pool", str(pool), "--out-projects", str(projects),
        "--pool-size", "40", "--skills", "10", "--num-projects", "5", "--seed", "3",
    ]) == 0
    assert len(load_pool(pool)) == 40
    assert len(load_projects(projects)) == 5

    assert main([
        "bench", "--pool", str(pool), "--projects", str(projects),
        "--team-size", "3", "--num-teams", "60", "--seed", "4",
        "--format", "csv", "--out", str(report), "--log", str(log),
    ]) == 0
    rows = list(csv.DictReader(report.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 9
    assert {row["algorithm"] for row in rows} >= {"incremental", "fair-alloc", "multi/top-sum"}
    assert log.exists()

    capsys.readouterr()
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(projects),
        "--method", "multi", "--config", "top-cost",
        "--team-size", "3", "--num-teams", "60", "--seed", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "team (" in out
    assert "cost " in out


def test_assemble_baseline_and_project_pick(data, capsys):
    pool, projects = data
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(projects),
        "--method", "incremental", "--project-id", "p2",
    ]) == 0
    out = capsys.readouterr().out
    assert "project p2" in out
    assert "method incremental" in out


def test_bench_table_to_stdout_writes_default_log(data, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pool, projects = data
    assert main([
        "bench", "--pool", str(pool), "--projects", str(projects),
        "--team-size", "3", "--num-teams", "50", "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "algorithm" in out
    assert (tmp_path / "bench.log.csv").exists()


def test_bench_respects_method_and_config_filters(data, tmp_path):
    pool, projects = data
    report = tmp_path / "r.csv"
    assert main([
        "bench", "--pool", str(pool), "--projects", str(projects),
        "--method", "multi", "--config", "top-sum", "--config", "random",
        "--team-size", "3", "--num-teams", "50", "--seed", "1",
        "--format", "csv", "--out", str(report), "--log", str(tmp_path / "r.log"),
    ]) == 0
    rows = csv.DictReader(report.read_text(encoding="utf-8").splitlines())
    labels = [row["algorithm"] for row in rows]
    assert labels == ["multi/random", "multi/top-sum"]


@pytest.mark.parametrize(
    "method_args, method, selection",
    [
        (["--method", "incremental"], "incremental", ""),
        (["--method", "fair-alloc"], "fair-alloc", ""),
        (["--method", "multi", "--config", "top-sum"], "multi", "top-sum"),
        (["--method", "multi", "--config", "random"], "multi", "random"),
    ],
    ids=["incremental", "fair-alloc", "multi-top-sum", "multi-random"],
)
def test_assemble_prints_the_bench_log_row(tmp_path, capsys, method_args, method, selection):
    pool, projects, log = tmp_path / "pool.csv", tmp_path / "projects.csv", tmp_path / "r.log"
    assert main([
        "synth", "--out-pool", str(pool), "--out-projects", str(projects),
        "--pool-size", "40", "--skills", "10", "--num-projects", "6", "--seed", "5",
    ]) == 0
    with projects.open("a", encoding="utf-8") as out:
        out.write("px,quantum-basket-weaving\n")
    files = ["--pool", str(pool), "--projects", str(projects)]
    knobs = ["--attr-proportion", "0.3", "--seed", "9", "--team-size", "3", "--num-teams", "80"]
    assert main([
        "bench", *files, *knobs, *method_args, "--out", str(tmp_path / "r.csv"), "--log", str(log),
    ]) == 0
    rows = list(csv.DictReader(log.read_text(encoding="utf-8").splitlines()))
    assert [(row["method"], row["selection"]) for row in rows] == [(method, selection)] * 7
    assert {row["formed"] for row in rows} == {"0", "1"}
    capsys.readouterr()
    for row in rows:
        status = main(["assemble", *files, *knobs, *method_args, "--project-id", row["project_id"]])
        members = re.findall(r"(\S+) \(class [01]\)", capsys.readouterr().out)
        assert status == (0 if row["formed"] == "1" else 3)
        assert ";".join(members) == row["member_ids"]


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["assemble", "--pool", str(tmp_path / "x.csv")]) == 1
    assert main(["bench"]) == 1
    assert main(["synth"]) == 1
    assert main(["assemble", "--pool", "a", "--projects", "b", "--method", "bogus"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_bad_flag_values_exit_1(data, capsys):
    pool, projects = data
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(projects),
        "--attr-proportion", "1.5",
    ]) == 1
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(projects),
        "--team-size", "2",
    ]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_data_errors_exit_2(data, tmp_path, capsys):
    pool, projects = data
    assert main(["bench", "--pool", str(tmp_path / "missing.csv"), "--projects", str(projects)]) == 2
    broken = tmp_path / "broken.csv"
    broken.write_text("id,cost,attribute,skills\nu1,-1,0,java\n", encoding="utf-8")
    assert main(["bench", "--pool", str(broken), "--projects", str(projects)]) == 2
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(projects), "--project-id", "nope",
    ]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.mark.parametrize("name, where", [("huge.csv", "line 2"), ("huge.json", "record 1")])
@pytest.mark.parametrize("command", ["bench", "assemble"])
def test_overflowing_pool_is_a_data_error(data, tmp_path, capsys, name, where, command):
    # five candidates at 1e308: every team cost overflows to inf
    _, projects = data
    pool = tmp_path / name
    records = [
        {"id": f"u{i}", "cost": 1e308, "attribute": str(i % 2), "skills": ["java", "sql"]}
        for i in range(1, 6)
    ]
    if name.endswith(".json"):
        pool.write_text(json.dumps(records), encoding="utf-8")
    else:
        lines = [f"{r['id']},{r['cost']!r},{r['attribute']},java;sql" for r in records]
        pool.write_text("id,cost,attribute,skills\n" + "\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--pool", str(pool), "--projects", str(projects), "--team-size", "3"]
    if command == "bench":
        argv += ["--out", str(tmp_path / "r.csv"), "--log", str(tmp_path / "r.log")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {pool}: {where}: ")
    assert "could overflow" in err


def test_infeasible_outcomes_exit_3(data, tmp_path, capsys):
    pool, _ = data
    alien = tmp_path / "alien.csv"
    alien.write_text("id,skills\npx,quantum-basket-weaving\n", encoding="utf-8")
    assert main([
        "assemble", "--pool", str(pool), "--projects", str(alien), "--team-size", "3",
    ]) == 3
    assert main([
        "bench", "--pool", str(pool), "--projects", str(alien),
        "--team-size", "3", "--num-teams", "20", "--seed", "1",
        "--out", str(tmp_path / "r.csv"), "--log", str(tmp_path / "r.log"),
    ]) == 3
    capsys.readouterr()


def test_synth_proportion_flows_into_pool(tmp_path):
    pool = tmp_path / "pool.csv"
    assert main([
        "synth", "--out-pool", str(pool), "--pool-size", "10",
        "--skills", "6", "--attr-proportion", "0.1", "--seed", "2",
    ]) == 0
    candidates = load_pool(pool)
    zeros = sum(c.attribute.value == 0 for c in candidates)
    assert zeros == 1
