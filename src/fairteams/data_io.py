"""Pool and project corpus files, plus synthetic pool/project generation.

Two interchangeable on-disk formats, picked by extension:

* delimiter-separated values (any extension but ``.json``): UTF-8, one record
  per line, header row required, skills semicolon-joined inside one field.
  Pool columns are ``id,cost,attribute,skills``; project columns ``id,skills``.
  Attribute tokens are ``0``/``1``; decimal costs use ``.``.
* JSON (``.json``): an array of objects carrying the same fields, with
  ``skills`` as a list of tokens. Ids, costs, attributes and skill tokens
  must be JSON strings or numbers.

A candidate record declares one cost; the loaded cost profile maps every
listed skill to that declared cost. Ids and skill tokens may not contain
``;``. Saving refuses, before it opens the file, what loading would refuse
or change: no records, a repeated id, a pool past the bound below, or a
token a reader would split, refuse or strip. The pool's total S, the sum
of cost x skill count over its records, bounds every objective term of
every team, and each spread's sum of squares is at most about S**2. A pool
whose S exceeds sqrt(max float / 2) is rejected, so that 2 S**2 stays finite.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .model import AttributeClass, Candidate, Project

_ATTRIBUTE_TOKENS = {"0": AttributeClass.ZERO, "1": AttributeClass.ONE}
_POOL_COLUMNS = ("id", "cost", "attribute", "skills")
_PROJECT_COLUMNS = ("id", "skills")
_MAX_POOL_TOTAL = math.sqrt(sys.float_info.max / 2)
# the JSON values an id, cost, attribute or skill token may not be
_JSON_KINDS = {dict: "an object", list: "an array", type(None): "null", bool: "a boolean"}


class DataFormatError(ValueError):
    """A pool or project file failed to parse or validate."""


def _fail(path: str | Path, where: str | tuple[str, int], message: str) -> NoReturn:
    """Raise the error naming `path` and `where`: `file`, or a (unit, number)
    pair formatted here as `line N` or `record N`, so that records that load
    cleanly never pay for the text."""
    if isinstance(where, tuple):
        where = "%s %d" % where
    raise DataFormatError(f"{path}: {where}: {message}")


def _is_json(path: str | Path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _read_records(path: str | Path, columns: Sequence[str]) -> tuple[str, list[tuple[int, list]]]:
    """Return the unit, `line` or `record`, and (number, fields) per record;
    `columns` run from id to skills.

    Each record carries its line or record number; error messages name it as
    `line N` or `record N`. Fields are strings in `columns` order: the id
    stripped, the skills a list of non-empty stripped tokens, the rest as
    read. The records share one string per distinct skill token; the map
    that shares them is local to the call, so no token outlives the records
    that name it, as one passed to `sys.intern` would. Blank lines are
    skipped. A `;` inside an id or a skill token is rejected: `;` joins the
    skills of a delimited record and the member ids in the outcome log.
    Bytes that are not UTF-8, a record the `csv` module cannot read and JSON
    nested too deeply to parse are data errors too.
    """
    shared: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            if _is_json(path):
                unit = "record"
                try:
                    data = json.load(handle)
                except json.JSONDecodeError as exc:
                    _fail(path, "file", f"invalid JSON: {exc}")
                except RecursionError:
                    _fail(path, "file", "JSON nested too deeply to read")
                if not isinstance(data, list):
                    _fail(path, "file", "expected a JSON array of records")
                rows = []
                for index, record in enumerate(data, start=1):
                    where = (unit, index)
                    if not isinstance(record, dict):
                        _fail(path, where, "expected an object")
                    missing = set(columns) - record.keys()
                    if missing:
                        _fail(path, where, f"missing fields: {', '.join(sorted(missing))}")
                    if not isinstance(record["skills"], list):
                        _fail(path, where, "skills must be a list of tokens")
                    named = [(c, record[c]) for c in columns[:-1]]
                    for name, value in named + [("skill token", t) for t in record["skills"]]:
                        if type(value) in _JSON_KINDS:
                            kind = _JSON_KINDS[type(value)]
                            _fail(path, where, f"{name} must be a string or a number, not {kind}")
                    tokens = [str(token) for token in record["skills"]]
                    if any(";" in token for token in tokens):
                        _fail(path, where, "';' is not allowed inside a skill token")
                    rows.append((index, [str(value) for _, value in named] + [";".join(tokens)]))
            else:
                unit = "line"
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    _fail(path, "file", "empty file, expected a header row")
                if [column.strip() for column in header] != list(columns):
                    _fail(path, "line 1", f"expected header {','.join(columns)}")
                rows = (
                    (line, row)
                    for line, row in enumerate(reader, start=2)
                    if row and (len(row) > 1 or row[0].strip())
                )
            records = []
            for number, row in rows:
                if len(row) != len(columns):
                    _fail(path, (unit, number), f"expected {len(columns)} fields, got {len(row)}")
                row[0] = row[0].strip()
                if ";" in row[0]:
                    _fail(path, (unit, number), "';' is not allowed inside an id")
                row[-1] = [
                    shared.setdefault(token, token)
                    for token in map(str.strip, row[-1].split(";"))
                    if token
                ]
                records.append((number, row))
    except UnicodeDecodeError as exc:
        _fail(path, "file", f"not valid UTF-8 ({exc.reason})")
    except csv.Error as exc:
        _fail(path, f"line {reader.line_num}", f"unreadable CSV record: {exc}")
    return unit, records


def load_pool(
    path: str | Path,
    class_zero_share: float | None = None,
    seed: int = 0,
) -> list[Candidate]:
    """Load candidates; optionally reassign attribute classes to a target share.

    With `class_zero_share` set, the file's attribute column is ignored and
    exactly round(share * n) candidates, picked by seeded shuffle, get class
    zero.
    """
    unit, records = _read_records(path, _POOL_COLUMNS)
    # the positions need only the record count; for a bad share they are None,
    # and the share is reported after the file's own errors
    zeros = None
    if class_zero_share is not None:
        zeros = _class_zero_positions(len(records), class_zero_share, seed)
    candidates: list[Candidate] = []
    seen: set[str] = set()
    total = 0.0
    for i, (number, (cid, raw_cost, attr_token, skills)) in enumerate(records):
        attr_token = attr_token.strip()
        if not cid:
            _fail(path, (unit, number), "candidate id must be non-empty")
        if cid in seen:
            _fail(path, (unit, number), f"duplicate candidate id {cid!r}")
        try:
            cost = float(raw_cost)
        except ValueError:
            _fail(path, (unit, number), f"cost {raw_cost!r} is not a number")
        if not math.isfinite(cost) or cost <= 0.0:
            _fail(path, (unit, number), f"cost must be a finite positive number, got {cost!r}")
        if attr_token not in _ATTRIBUTE_TOKENS:
            _fail(path, (unit, number), f"unknown attribute token {attr_token!r}, expected 0 or 1")
        if not skills:
            _fail(path, (unit, number), "skill list must be non-empty")
        total += cost * len(skills)
        if total > _MAX_POOL_TOTAL:
            _fail(
                path,
                (unit, number),
                f"cost x skill count summed over the pool so far is {total!r}, above"
                f" {_MAX_POOL_TOTAL:.4g}; team objectives could overflow",
            )
        seen.add(cid)
        attribute = _ATTRIBUTE_TOKENS[attr_token]
        if zeros is not None:
            attribute = AttributeClass.ZERO if i in zeros else AttributeClass.ONE
        candidates.append(Candidate(cid, attribute, dict.fromkeys(skills, cost)))
    if not candidates:
        _fail(path, "file", "no candidate records")
    if class_zero_share is not None and zeros is None:
        raise _bad_share(class_zero_share)
    return candidates


def _class_zero_positions(
    count: int, class_zero_share: float, rng: int | np.random.Generator
) -> set[int] | None:
    """Positions of the round(share * count) class-zero members, by a shuffle
    drawn from `rng` (a generator, or a seed for a fresh one), or None if the
    share does not lie strictly between 0 and 1."""
    if not 0.0 < class_zero_share < 1.0:
        return None
    zero_count = _round_half_up(class_zero_share * count)
    return set(int(i) for i in np.random.default_rng(rng).permutation(count)[:zero_count])


def _bad_share(class_zero_share: float) -> ValueError:
    return ValueError(f"class_zero_share must lie strictly between 0 and 1, got {class_zero_share}")


def reassign_attributes(
    candidates: Sequence[Candidate], class_zero_share: float, seed: int
) -> list[Candidate]:
    """Return a copy with exactly round(share * n) class-zero members, seeded."""
    zeros = _class_zero_positions(len(candidates), class_zero_share, seed)
    if zeros is None:
        raise _bad_share(class_zero_share)
    return [
        Candidate(
            c.id,
            AttributeClass.ZERO if i in zeros else AttributeClass.ONE,
            c.cost_profile,
        )
        for i, c in enumerate(candidates)
    ]


def load_projects(path: str | Path) -> list[Project]:
    """Load projects in file order; duplicate skills within a record collapse."""
    projects: list[Project] = []
    seen: set[str] = set()
    unit, records = _read_records(path, _PROJECT_COLUMNS)
    for number, (pid, skills) in records:
        if not pid:
            _fail(path, (unit, number), "project id must be non-empty")
        if pid in seen:
            _fail(path, (unit, number), f"duplicate project id {pid!r}")
        if not skills:
            _fail(path, (unit, number), "requirement list must be non-empty")
        seen.add(pid)
        projects.append(Project(pid, frozenset(skills)))
    if not projects:
        _fail(path, "file", "no project records")
    return projects


def _write_records(path: str | Path, columns: Sequence[str], rows: Sequence[tuple]) -> None:
    """Write rows in `columns` order; the last field is the list of skills.

    Before opening the file, raises `ValueError` for no rows, or naming the
    record of a repeated id or of an id or skill token the readers would not
    load back as saved: one holding `;`, a carriage return (which `csv`
    leaves unquoted) or NUL (which Python 3.10's `csv` refuses), or with
    surrounding whitespace.
    """
    if not rows:
        raise ValueError("no records to save; loading refuses an empty file")
    seen: set[str] = set()
    for cid, *_, skills in rows:
        if cid in seen:
            raise ValueError(f"record {cid!r}: repeated id")
        seen.add(cid)
        for token in (cid, *skills):
            if any(char in token for char in ";\r\0") or token != token.strip():
                raise ValueError(f"record {cid!r}: {token!r} would not load back as saved")
    if _is_json(path):
        payload = [dict(zip(columns, row)) for row in rows]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([*fields, ";".join(skills)] for *fields, skills in rows)


def save_pool(candidates: Sequence[Candidate], path: str | Path) -> None:
    """Write candidates in the format matching the path's extension.

    The file formats hold one declared cost per candidate, so a profile with
    more than one distinct cost raises `ValueError` instead of losing costs.
    So does a pool whose cost total loading would refuse.
    """
    rows = []
    total = 0.0
    for c in candidates:
        costs = set(c.cost_profile.values())
        if len(costs) > 1:
            raise ValueError(
                f"candidate {c.id!r} has per-skill costs; pool files hold one cost per candidate"
            )
        cost = costs.pop()
        total += cost * len(c.cost_profile)
        if total > _MAX_POOL_TOTAL:
            raise ValueError(f"record {c.id!r}: the pool's cost total passes {_MAX_POOL_TOTAL:.4g}")
        rows.append((c.id, cost, c.attribute.value, sorted(c.cost_profile)))
    _write_records(path, _POOL_COLUMNS, rows)


def save_projects(projects: Sequence[Project], path: str | Path) -> None:
    _write_records(path, _PROJECT_COLUMNS, [(p.id, list(p.sorted_requirements)) for p in projects])


def skill_universe(size: int) -> list[str]:
    """Skill tokens s000..s(size-1), zero-padded so lexical order is numeric."""
    if size < 1:
        raise ValueError("skill universe size must be at least 1")
    width = max(3, len(str(size - 1)))
    return [f"s{i:0{width}d}" for i in range(size)]


@dataclass(frozen=True)
class SynthesisSpec:
    """Parameters of a synthetic candidate pool.

    Costs are log-uniform over [cost_low, cost_high]; skill counts are uniform
    over [min_skills, max_skills]. These distributions are test fixtures, not
    claims about any real marketplace.
    """

    pool_size: int
    skill_universe_size: int
    min_skills: int = 1
    max_skills: int = 5
    cost_low: float = 0.01
    cost_high: float = 1.0
    class_zero_share: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if not 1 <= self.min_skills <= self.max_skills:
            raise ValueError("need 1 <= min_skills <= max_skills")
        if self.max_skills > self.skill_universe_size:
            raise ValueError(
                f"max_skills {self.max_skills} exceeds the skill universe ({self.skill_universe_size})"
            )
        if not 0.0 < self.cost_low <= self.cost_high:
            raise ValueError("need 0 < cost_low <= cost_high")
        if not 0.0 < self.class_zero_share < 1.0:
            raise ValueError("class_zero_share must lie strictly between 0 and 1")


def synthesize_pool(spec: SynthesisSpec) -> list[Candidate]:
    """Deterministic synthetic pool; attribute share exact to rounding."""
    rng = np.random.default_rng(spec.seed)
    skills = skill_universe(spec.skill_universe_size)
    width = max(4, len(str(spec.pool_size - 1)))
    log_low, log_high = math.log(spec.cost_low), math.log(spec.cost_high)

    drafts = []
    for i in range(spec.pool_size):
        count = int(rng.integers(spec.min_skills, spec.max_skills + 1))
        picked = rng.choice(spec.skill_universe_size, size=count, replace=False)
        cost = float(np.exp(rng.uniform(log_low, log_high)))
        drafts.append((f"c{i:0{width}d}", cost, [skills[j] for j in sorted(picked)]))

    zero_positions = _class_zero_positions(spec.pool_size, spec.class_zero_share, rng)
    return [
        Candidate(
            cid,
            AttributeClass.ZERO if i in zero_positions else AttributeClass.ONE,
            {skill: cost for skill in chosen},
        )
        for i, (cid, cost, chosen) in enumerate(drafts)
    ]


def synthesize_projects(
    num_projects: int,
    skill_universe_size: int,
    min_requirements: int = 2,
    max_requirements: int = 5,
    seed: int = 0,
) -> list[Project]:
    """Deterministic synthetic project corpus over the same skill tokens."""
    if num_projects < 1:
        raise ValueError("num_projects must be at least 1")
    if not 1 <= min_requirements <= max_requirements:
        raise ValueError("need 1 <= min_requirements <= max_requirements")
    if max_requirements > skill_universe_size:
        raise ValueError(
            f"max_requirements {max_requirements} exceeds the skill universe ({skill_universe_size})"
        )
    rng = np.random.default_rng(seed)
    skills = skill_universe(skill_universe_size)
    width = max(3, len(str(num_projects - 1)))
    projects = []
    for i in range(num_projects):
        count = int(rng.integers(min_requirements, max_requirements + 1))
        picked = rng.choice(skill_universe_size, size=count, replace=False)
        projects.append(Project(f"p{i:0{width}d}", frozenset(skills[j] for j in picked)))
    return projects
