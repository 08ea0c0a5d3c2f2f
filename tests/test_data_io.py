"""Pool and project files, attribute reassignment, and synthetic data."""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairteams import (
    AttributeClass,
    Candidate,
    DataFormatError,
    Project,
    SynthesisSpec,
    assemble_all_selections,
    assemble_fair_allocation,
    assemble_incremental,
    load_pool,
    load_projects,
    save_pool,
    save_projects,
    synthesize_pool,
    synthesize_projects,
)
from fairteams.cli import main
from fairteams.data_io import _MAX_POOL_TOTAL, reassign_attributes, skill_universe

POOL_CSV = """id,cost,attribute,skills
u7,0.05,1,java;sql
u8,0.20,0,python
"""

PROJECT_CSV = """id,skills
p1,java;java;sql
p2,python
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _write_projects(tmp_path, suffix, records):
    """Write (id, skills) records by hand in the format named by `suffix`."""
    if suffix == ".json":
        text = json.dumps([{"id": pid, "skills": skills} for pid, skills in records])
    else:
        text = "id,skills\n" + "".join(f"{pid},{';'.join(skills)}\n" for pid, skills in records)
    return _write(tmp_path, f"projects{suffix}", text)


# -- loading ------------------------------------------------------------------


def test_load_pool_maps_declared_cost_to_every_skill(tmp_path):
    pool = load_pool(_write(tmp_path, "pool.csv", POOL_CSV))
    assert [c.id for c in pool] == ["u7", "u8"]
    u7 = pool[0]
    assert u7.cost_profile == {"java": 0.05, "sql": 0.05}
    assert u7.attribute is AttributeClass.ONE
    assert pool[1].attribute is AttributeClass.ZERO


def test_load_pool_json_equivalent(tmp_path):
    records = [
        {"id": "u7", "cost": 0.05, "attribute": "1", "skills": ["java", "sql"]},
        {"id": "u8", "cost": 0.20, "attribute": "0", "skills": ["python"]},
    ]
    path = _write(tmp_path, "pool.json", json.dumps(records))
    assert load_pool(path) == load_pool(_write(tmp_path, "pool.csv", POOL_CSV))


def test_load_pool_errors_name_the_line(tmp_path):
    bad = "id,cost,attribute,skills\nu1,0.5,0,java\nu1,0.5,1,sql\n"
    with pytest.raises(DataFormatError, match="line 3"):
        load_pool(_write(tmp_path, "dup.csv", bad))
    bad = "id,cost,attribute,skills\nu1,-2,0,java\n"
    with pytest.raises(DataFormatError, match="line 2"):
        load_pool(_write(tmp_path, "cost.csv", bad))
    bad = "id,cost,attribute,skills\nu1,0.5,female,java\n"
    with pytest.raises(DataFormatError, match="attribute"):
        load_pool(_write(tmp_path, "attr.csv", bad))
    bad = "id,cost,attribute,skills\nu1,abc,0,java\n"
    with pytest.raises(DataFormatError, match="not a number"):
        load_pool(_write(tmp_path, "nan.csv", bad))
    bad = "id,cost,attribute,skills\nu1,0.5,0,\n"
    with pytest.raises(DataFormatError, match="skill"):
        load_pool(_write(tmp_path, "skills.csv", bad))
    bad = "id,cost,attribute,skills\nu1,0.5,0,java\nu;2,0.5,1,sql\n"
    with pytest.raises(DataFormatError, match="line 3: ';'"):
        load_pool(_write(tmp_path, "semicolon.csv", bad))


def test_load_pool_json_errors_name_the_record(tmp_path):
    records = [
        {"id": "u1", "cost": 0.5, "attribute": "0", "skills": ["java"]},
        {"id": "u2", "cost": 0.5, "attribute": "2", "skills": ["sql"]},
    ]
    path = _write(tmp_path, "pool.json", json.dumps(records))
    with pytest.raises(DataFormatError, match="record 2"):
        load_pool(path)
    records[1] = {"id": "u;2", "cost": 0.5, "attribute": "1", "skills": ["sql"]}
    path = _write(tmp_path, "id.json", json.dumps(records))
    with pytest.raises(DataFormatError, match="record 2: ';'"):
        load_pool(path)
    records[1] = {"id": "u2", "cost": 0.5, "attribute": "1", "skills": ["sql;java"]}
    path = _write(tmp_path, "skill.json", json.dumps(records))
    with pytest.raises(DataFormatError, match="record 2: ';'"):
        load_pool(path)


def _assert_data_error(tmp_path, capsys, path, where):
    """`load_pool` raises a `DataFormatError` that starts with the path and
    `where`, and `fairteams bench` on the file exits 2 naming it."""
    with pytest.raises(DataFormatError, match=f"^{re.escape(f'{path}: {where}: ')}"):
        load_pool(path)
    projects = _write(tmp_path, "projects.csv", PROJECT_CSV)
    outputs = ["--out", str(tmp_path / "report.txt"), "--log", str(tmp_path / "log.csv")]
    assert main(["bench", "--pool", str(path), "--projects", str(projects), *outputs]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: {where}: ")


@pytest.mark.parametrize("name", ["pool.csv", "pool.json"])
def test_invalid_utf8_is_a_data_error(tmp_path, capsys, name):
    text = POOL_CSV if name.endswith(".csv") else json.dumps(
        [{"id": "u7", "cost": 0.05, "attribute": "1", "skills": ["java"]}]
    )
    path = tmp_path / name
    path.write_bytes(text.replace("java", "ja\udcffva").encode("utf-8", "surrogateescape"))
    _assert_data_error(tmp_path, capsys, path, "file")


def test_an_oversized_csv_field_is_a_data_error_naming_its_line(tmp_path, capsys):
    # the csv module refuses fields over 131,072 characters
    path = _write(tmp_path, "pool.csv", POOL_CSV + "u9,0.5,1," + "x" * 140_000 + "\n")
    _assert_data_error(tmp_path, capsys, path, "line 4")


def test_deeply_nested_json_is_a_data_error(tmp_path, capsys):
    path = _write(tmp_path, "pool.json", "[" * 100_000 + "]" * 100_000)
    _assert_data_error(tmp_path, capsys, path, "file")


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("id", {"x": 1}, "an object"),
        ("cost", [0.5], "an array"),
        ("attribute", None, "null"),
        ("attribute", True, "a boolean"),
        ("skills", ["sql", {"x": 1}], "an object"),
        ("skills", [["sql"]], "an array"),
        ("skills", [None], "null"),
        ("skills", [False], "a boolean"),
    ],
)
def test_json_tokens_must_be_strings_or_numbers(tmp_path, capsys, field, value, kind):
    records = [
        {"id": "u1", "cost": 0.5, "attribute": "0", "skills": ["java"]},
        {"id": "u2", "cost": 0.5, "attribute": "1", "skills": ["sql"]},
    ]
    records[1][field] = value
    path = _write(tmp_path, "pool.json", json.dumps(records))
    with pytest.raises(DataFormatError, match=f"record 2: .* must be a string or a number, not {kind}$"):
        load_pool(path)
    _assert_data_error(tmp_path, capsys, path, "record 2")
    project = {"id": "p1", "skills": ["sql"], field: value}
    projects = _write(tmp_path, "projects.json", json.dumps([project]))
    if field in ("id", "skills"):
        with pytest.raises(DataFormatError, match=f"record 1: .* not {kind}$"):
            load_projects(projects)


def test_json_numbers_stay_tokens(tmp_path):
    records = [{"id": 7, "cost": 0.5, "attribute": 1, "skills": [12, "sql", 1.5]}]
    (candidate,) = load_pool(_write(tmp_path, "pool.json", json.dumps(records)))
    assert candidate == Candidate("7", AttributeClass.ONE, dict.fromkeys(["12", "1.5", "sql"], 0.5))
    (project,) = load_projects(_write(tmp_path, "p.json", json.dumps([{"id": 3, "skills": [12]}])))
    assert project == Project("3", frozenset({"12"}))


def test_a_nul_byte_is_a_data_error_on_python_3_10_only(tmp_path, capsys):
    # Python 3.10's csv module raises "line contains NUL"; from 3.11 on it
    # reads the NUL into the field like any other character
    path = _write(tmp_path, "pool.csv", POOL_CSV + "u9,0.5,1,s\x00ql\n")
    if sys.version_info < (3, 11):
        _assert_data_error(tmp_path, capsys, path, "line 4")
    else:
        assert load_pool(path)[-1].cost_profile == {"s\x00ql": 0.5}


def test_load_pool_bound_keeps_objectives_finite(tmp_path):
    # cost x skill count sums to 2**511, just under sqrt(max float / 2); one
    # heavy member against cheap ones puts each spread's squares near 2**1022
    rows = [f"heavy,{2.0**510!r},0,a;b"] + [f"cheap{i},1.0,{i % 2},{'ab'[i % 2]}" for i in range(3)]
    text = "id,cost,attribute,skills\n" + "\n".join(rows) + "\n"
    pool = load_pool(_write(tmp_path, "edge.csv", text))
    project = Project("p", frozenset({"a", "b"}))
    outcomes = [
        assemble_incremental(pool, project),
        assemble_fair_allocation(pool, project),
        *assemble_all_selections(pool, project, team_size=3, num_teams=20, seed=1).values(),
    ]
    assert all(o.formed and all(map(math.isfinite, o.objectives.as_tuple())) for o in outcomes)
    assert max(o.objectives.workload for o in outcomes) > 2.0**509
    text += "over,3e153,1,a\n"
    with pytest.raises(DataFormatError, match="line 6: .*could overflow"):
        load_pool(_write(tmp_path, "over.csv", text))


def test_load_pool_rejects_wrong_header_and_empty_file(tmp_path):
    with pytest.raises(DataFormatError, match="header"):
        load_pool(_write(tmp_path, "h.csv", "identifier,cost,attribute,skills\n"))
    with pytest.raises(DataFormatError):
        load_pool(_write(tmp_path, "empty.csv", ""))
    with pytest.raises(DataFormatError, match="no candidate records"):
        load_pool(_write(tmp_path, "headeronly.csv", "id,cost,attribute,skills\n"))


def test_load_pool_skips_blank_lines(tmp_path):
    text = "id,cost,attribute,skills\nu1,0.5,0,java\n\nu2,0.5,1,sql\n"
    pool = load_pool(_write(tmp_path, "blank.csv", text))
    assert [c.id for c in pool] == ["u1", "u2"]


def test_load_projects_deduplicates_and_preserves_order(tmp_path):
    projects = load_projects(_write(tmp_path, "projects.csv", PROJECT_CSV))
    assert [p.id for p in projects] == ["p1", "p2"]
    assert projects[0].requirements == frozenset({"java", "sql"})


@pytest.mark.parametrize(
    "suffix, second", [(".csv", "line 3"), (".json", "record 2")], ids=["csv", "json"]
)
def test_load_projects_errors(tmp_path, suffix, second):
    def load(records):
        return load_projects(_write_projects(tmp_path, suffix, records))

    with pytest.raises(DataFormatError, match=f"{second}: duplicate"):
        load([("p1", ["java"]), ("p1", ["sql"])])
    with pytest.raises(DataFormatError, match=f"{second}: ';'"):
        load([("p1", ["java"]), ("p;2", ["sql"])])
    if suffix == ".json":  # a delimited record splits skills on ';' instead
        with pytest.raises(DataFormatError, match="record 2: ';'"):
            load([("p1", ["java"]), ("p2", ["java;sql"])])
    with pytest.raises(DataFormatError, match="requirement"):
        load([("p1", [])])
    with pytest.raises(DataFormatError, match="no project records"):
        load([])


def test_load_projects_json(tmp_path):
    payload = [{"id": "p1", "skills": ["java", "java", "sql"]}]
    projects = load_projects(_write(tmp_path, "projects.json", json.dumps(payload)))
    assert projects[0].requirements == frozenset({"java", "sql"})


def _the(token, tokens):
    """The one string in `tokens` equal to `token`."""
    (found,) = [t for t in tokens if t == token]
    return found


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_a_loaded_file_keeps_one_string_per_skill_token(tmp_path, suffix):
    if suffix == ".json":
        records = [
            {"id": "u1", "cost": 0.5, "attribute": "0", "skills": ["java", "sql"]},
            {"id": "u2", "cost": 0.25, "attribute": "1", "skills": ["sql", "rust"]},
        ]
        text = json.dumps(records)
    else:
        text = "id,cost,attribute,skills\nu1,0.5,0,java;sql\nu2,0.25,1, sql ;rust\n"
    first, second = load_pool(_write(tmp_path, f"pool{suffix}", text))
    assert first.cost_profile == {"java": 0.5, "sql": 0.5}
    assert second.cost_profile == {"rust": 0.25, "sql": 0.25}
    assert _the("sql", first.cost_profile) is _the("sql", second.cost_profile)

    path = _write_projects(tmp_path, suffix, [("p1", ["java", "sql"]), ("p2", ["sql", "sql"])])
    one, two = load_projects(path)
    assert (one.requirements, two.requirements) == ({"java", "sql"}, {"sql"})
    assert _the("sql", one.requirements) is _the("sql", two.requirements)
    assert _the("sql", one.sorted_requirements) is _the("sql", two.requirements)


# -- attribute reassignment ----------------------------------------------------


def _flat_pool(n):
    spec = SynthesisSpec(pool_size=n, skill_universe_size=6, seed=1)
    return synthesize_pool(spec)


def test_reassignment_hits_exact_share():
    pool = _flat_pool(10)
    half = reassign_attributes(pool, 0.5, seed=4)
    assert sum(c.attribute is AttributeClass.ZERO for c in half) == 5
    tenth = reassign_attributes(pool, 0.1, seed=4)
    assert sum(c.attribute is AttributeClass.ZERO for c in tenth) == 1


def test_reassignment_is_a_pure_function_of_inputs():
    pool = _flat_pool(30)
    first = [c.attribute for c in reassign_attributes(pool, 0.3, seed=9)]
    second = [c.attribute for c in reassign_attributes(pool, 0.3, seed=9)]
    third = [c.attribute for c in reassign_attributes(pool, 0.3, seed=10)]
    assert first == second
    assert first != third


def test_reassignment_keeps_everything_but_the_attribute():
    pool = _flat_pool(12)
    moved = reassign_attributes(pool, 0.25, seed=2)
    for before, after in zip(pool, moved):
        assert before.id == after.id
        assert before.cost_profile == after.cost_profile


def test_reassignment_rejects_degenerate_shares():
    pool = _flat_pool(4)
    for share in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            reassign_attributes(pool, share, seed=0)


def test_load_pool_override_applies_reassignment(tmp_path):
    lines = ["id,cost,attribute,skills"]
    lines += [f"u{i},0.5,1,java" for i in range(10)]
    path = _write(tmp_path, "pool.csv", "\n".join(lines) + "\n")
    pool = load_pool(path, class_zero_share=0.5, seed=3)
    assert sum(c.attribute is AttributeClass.ZERO for c in pool) == 5


@pytest.mark.parametrize("name", ["pool.csv", "pool.json"])
@pytest.mark.parametrize("share, seed", [(0.1, 0), (0.5, 3), (0.73, 11)])
def test_load_pool_share_equals_reassigning_the_loaded_pool(tmp_path, name, share, seed):
    path = tmp_path / name
    save_pool(_flat_pool(40), path)
    loaded = load_pool(path, class_zero_share=share, seed=seed)
    assert loaded == reassign_attributes(load_pool(path), share, seed)


def test_load_pool_reports_a_bad_file_before_a_bad_share(tmp_path):
    path = _write(tmp_path, "pool.csv", "id,cost,attribute,skills\nu1,free,1,java\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_pool(path, class_zero_share=1.5)
    empty = _write(tmp_path, "empty.csv", "id,cost,attribute,skills\n")
    with pytest.raises(DataFormatError, match="no candidate records"):
        load_pool(empty, class_zero_share=1.5)
    with pytest.raises(ValueError, match="class_zero_share"):
        load_pool(_write(tmp_path, "ok.csv", POOL_CSV), class_zero_share=1.5)


# -- serialization ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["roundtrip.csv", "roundtrip.json"])
def test_pool_round_trip(tmp_path, name):
    pool = _flat_pool(25)
    path = tmp_path / name
    save_pool(pool, path)
    assert load_pool(path) == pool


@pytest.mark.parametrize("name", ["pool.csv", "pool.json"])
def test_save_pool_rejects_per_skill_costs(tmp_path, name):
    pool = [
        Candidate("flat", AttributeClass.ZERO, {"x": 0.5, "y": 0.5}),
        Candidate("mixed", AttributeClass.ONE, {"x": 0.1, "y": 0.9}),
    ]
    path = tmp_path / name
    with pytest.raises(ValueError, match="'mixed'"):
        save_pool(pool, path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["projects.csv", "projects.json"])
def test_project_round_trip(tmp_path, name):
    projects = synthesize_projects(12, 10, seed=6)
    path = tmp_path / name
    save_projects(projects, path)
    assert load_projects(path) == projects


@pytest.mark.parametrize("name", ["pool.csv", "pool.json"])
@pytest.mark.parametrize(
    "cid, skill",
    [
        ("a;b", "x"),  # the log joins member ids with ';'
        ("c1", "a;b"),  # a delimited record would reload two skills
        (" c1", "x"),  # stripped on load, in both formats
        ("c1 ", "x"),
        ("c1", " a "),
        ("c\r1", "x"),  # `csv` writes a lone carriage return unquoted
        ("c1", "a\x00"),  # Python 3.10's `csv` refuses a NUL
    ],
)
def test_save_pool_refuses_what_loading_would_change(tmp_path, name, cid, skill):
    pool = [
        Candidate("ok", AttributeClass.ZERO, {"x": 0.5}),
        Candidate(cid, AttributeClass.ONE, {skill: 0.5}),
    ]
    path = tmp_path / name
    with pytest.raises(ValueError, match=f"^record {re.escape(repr(cid))}: "):
        save_pool(pool, path)
    assert not path.exists()


@pytest.mark.parametrize("name", ["projects.csv", "projects.json"])
@pytest.mark.parametrize("pid, skill", [("p;1", "x"), ("p1", "a;b"), ("p1\t", "x"), ("p1", "\na")])
def test_save_projects_refuses_what_loading_would_change(tmp_path, name, pid, skill):
    path = tmp_path / name
    with pytest.raises(ValueError, match=f"^record {re.escape(repr(pid))}: "):
        save_projects([Project("ok", frozenset({"x"})), Project(pid, frozenset({skill}))], path)
    assert not path.exists()


# Any character UTF-8 can encode, with the ones the formats treat specially
# drawn often; half the examples drop what saving refuses, so most of those
# are saved. Pools and corpora may repeat an id; the empty pool and the empty
# corpus are explicit examples, so every drawn one has a record to save.
_ANY_TOKENS = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(';,"\'\r\n\x00 \t[{'),
    min_size=1,
    max_size=6,
)
_REFUSED = {ord(char): None for char in ";\r\x00"}
_SAVED_TOKENS = _ANY_TOKENS.map(lambda token: token.translate(_REFUSED).strip() or "t")
# half the pools may draw costs past the bound, the other half stay far below it
_COSTS = [st.floats(min_value=0.0, max_value=high, exclude_min=True) for high in (1e100, 1e160)]


def _loads_back(token):
    return token == token.strip() and not set(token) & set(";\r\x00")


def _skills(item):
    return item.cost_profile if isinstance(item, Candidate) else item.requirements


def _refused(items):
    """Whether loading would refuse or change `items` once saved."""
    ids = [item.id for item in items]
    tokens = [token for item in items for token in (item.id, *_skills(item))]
    total = 0.0
    for item in items:
        if isinstance(item, Candidate):
            total += max(item.cost_profile.values()) * len(item.cost_profile)
    repeated = len(set(ids)) < len(ids)
    return not items or repeated or total > _MAX_POOL_TOTAL or not all(map(_loads_back, tokens))


@st.composite
def _pools(draw):
    tokens = draw(st.sampled_from([_ANY_TOKENS, _SAVED_TOKENS]))
    costs = draw(st.sampled_from(_COSTS))
    return [
        Candidate(cid, draw(st.sampled_from(AttributeClass)), dict.fromkeys(skills, draw(costs)))
        for cid in draw(st.lists(tokens, min_size=1, max_size=5))
        for skills in [draw(st.lists(tokens, min_size=1, max_size=4))]
    ]


@st.composite
def _projects(draw):
    tokens = draw(st.sampled_from([_ANY_TOKENS, _SAVED_TOKENS]))
    ids = draw(st.lists(tokens, min_size=1, max_size=4))
    return [Project(pid, draw(st.frozensets(tokens, min_size=1, max_size=4))) for pid in ids]


_POOL = [Candidate("c", AttributeClass.ZERO, {"x": 1.0})]
_PROJECTS = [Project("p", frozenset({"x"}))]


@settings(deadline=None, max_examples=200)
@given(pool=_pools(), projects=_projects(), suffix=st.sampled_from([".csv", ".json"]))
@example(
    pool=[Candidate('q,"u\no', AttributeClass.ONE, {"é x": 5e-324, "a\nb": 5e-324})],
    projects=[Project("p 1", frozenset({"[x]", "{y}"}))],
    suffix=".csv",
)
@example(
    pool=[Candidate(" c ", AttributeClass.ZERO, {"x": 1.0})],
    projects=[Project("p", frozenset({"a\rb"}))],
    suffix=".csv",
)
@example(pool=[], projects=_PROJECTS, suffix=".csv")
@example(pool=_POOL, projects=[], suffix=".json")
@example(
    pool=_POOL + [Candidate("c", AttributeClass.ONE, {"y": 1.0})], projects=_PROJECTS, suffix=".csv"
)
@example(pool=_POOL, projects=_PROJECTS + [Project("p", frozenset({"y"}))], suffix=".json")
# past the bound on S, about 9.5e153: one cost, a cost times two skills, two costs
@example(
    pool=[Candidate("c", AttributeClass.ZERO, {"x": 1e160})], projects=_PROJECTS, suffix=".csv"
)
@example(
    pool=[Candidate("c", AttributeClass.ZERO, dict.fromkeys("xy", 5e153))],
    projects=_PROJECTS,
    suffix=".json",
)
@example(
    pool=[Candidate(cid, AttributeClass.ZERO, {"x": 5e153}) for cid in "cd"],
    projects=_PROJECTS,
    suffix=".csv",
)
def test_whatever_saving_accepts_loads_back_equal(pool, projects, suffix):
    records = ((save_pool, load_pool, pool), (save_projects, load_projects, projects))
    with tempfile.TemporaryDirectory() as directory:
        for save, load, items in records:
            path = Path(directory) / f"records{suffix}"
            try:
                save(items, path)
            except ValueError as exc:
                assert str(exc).startswith("record ") or not items
                assert not path.exists()
                assert _refused(items)
                continue
            assert not _refused(items)
            assert load(path) == items
            path.unlink()


# -- synthesis --------------------------------------------------------------------


def test_synthesis_is_deterministic(tmp_path):
    spec = SynthesisSpec(pool_size=40, skill_universe_size=12, seed=42)
    first, second = synthesize_pool(spec), synthesize_pool(spec)
    assert first == second
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_pool(first, a)
    save_pool(second, b)
    assert a.read_bytes() == b.read_bytes()


def test_synthesis_respects_spec_ranges():
    spec = SynthesisSpec(
        pool_size=200,
        skill_universe_size=15,
        min_skills=2,
        max_skills=6,
        cost_low=0.1,
        cost_high=0.9,
        class_zero_share=0.5,
        seed=8,
    )
    pool = synthesize_pool(spec)
    universe = set(skill_universe(15))
    zeros = 0
    for candidate in pool:
        assert 2 <= len(candidate.cost_profile) <= 6
        assert set(candidate.cost_profile) <= universe
        cost = next(iter(candidate.cost_profile.values()))
        assert 0.1 <= cost <= 0.9
        assert set(candidate.cost_profile.values()) == {cost}
        zeros += candidate.attribute is AttributeClass.ZERO
    assert zeros == 100
    assert len({c.id for c in pool}) == 200


def test_synthesis_share_rounding_stays_within_one():
    spec = SynthesisSpec(pool_size=33, skill_universe_size=8, class_zero_share=0.5, seed=5)
    pool = synthesize_pool(spec)
    zeros = sum(c.attribute is AttributeClass.ZERO for c in pool)
    assert abs(zeros - (33 - zeros)) <= 1


def test_synthesis_spec_validation():
    with pytest.raises(ValueError):
        SynthesisSpec(pool_size=0, skill_universe_size=5)
    with pytest.raises(ValueError):
        SynthesisSpec(pool_size=5, skill_universe_size=3, max_skills=4)
    with pytest.raises(ValueError):
        SynthesisSpec(pool_size=5, skill_universe_size=5, cost_low=0.0)
    with pytest.raises(ValueError):
        SynthesisSpec(pool_size=5, skill_universe_size=5, class_zero_share=1.0)


def test_synthesize_projects_shape_and_determinism():
    first = synthesize_projects(20, 10, min_requirements=2, max_requirements=4, seed=3)
    second = synthesize_projects(20, 10, min_requirements=2, max_requirements=4, seed=3)
    assert first == second
    universe = set(skill_universe(10))
    assert len({p.id for p in first}) == 20
    for project in first:
        assert 2 <= len(project.requirements) <= 4
        assert project.requirements <= universe
    with pytest.raises(ValueError):
        synthesize_projects(5, 3, min_requirements=1, max_requirements=4)


def test_skill_universe_tokens_sort_numerically():
    tokens = skill_universe(40)
    assert tokens[0] == "s000"
    assert tokens[-1] == "s039"
    assert tokens == sorted(tokens)
    wide = skill_universe(2000)
    assert wide[-1] == "s1999"
