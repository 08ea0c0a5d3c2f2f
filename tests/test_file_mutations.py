"""Mutated copies of the pinned pool and project files, in CSV and JSON.

Loading a mutated file must return its records or raise a `DataFormatError`
whose message starts with the file's path: no other exception may escape a
reader. The mutations are the ones that break readers: flipped bits, a cut,
an inserted NUL, quote, newline, `[` or `{`, a 200,000-character field and
deep nesting. A few of them also go through `fairteams bench`, which must
exit 2, the data-error status.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairteams import DataFormatError, load_pool, load_projects, save_pool, save_projects
from fairteams.cli import main

DATA = Path(__file__).parent / "data"
_LOADERS = {"pool": load_pool, "projects": load_projects}
# Python 3.10's `csv` raises "line contains NUL" on a NUL byte, a data error;
# from 3.11 on it reads the NUL into the field as data. Either passes here.
_INSERTS = (b"\0", b'"', b"\n", b"[", b"{")


def _valid_files() -> dict[tuple[str, str], bytes]:
    """(kind, suffix) -> the bytes of a valid file of that kind and format."""
    pool = load_pool(DATA / "pinned_pool.csv")
    projects = load_projects(DATA / "pinned_projects.csv")
    files = {}
    with tempfile.TemporaryDirectory() as directory:
        for suffix in (".csv", ".json"):
            for kind, save, records in (("pool", save_pool, pool), ("projects", save_projects, projects)):
                path = Path(directory) / f"{kind}{suffix}"
                save(records, path)
                files[kind, suffix] = path.read_bytes()
    return files


_VALID = _valid_files()


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "cut", "insert", "field", "nest"]))
        if kind == "flip" and data:
            flipped = bytearray(data)
            flipped[min(at, len(data) - 1)] ^= 1 << draw(st.integers(0, 7))
            data = bytes(flipped)
        elif kind == "cut":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(_INSERTS)) + data[at:]
        elif kind == "field":
            data = data[:at] + b"x" * 200_000 + data[at:]
        elif kind == "nest":
            depth = draw(st.sampled_from([2, 1_000, 100_000]))
            data = data[:at] + b"[" * depth + b"]" * draw(st.sampled_from([0, depth])) + data[at:]
    return data


@settings(deadline=None, max_examples=1000)
@given(source=st.sampled_from(sorted(_VALID)), data=st.data())
def test_a_mutated_file_loads_or_is_a_data_error_naming_it(source, data):
    kind, suffix = source
    mutated = data.draw(_mutated(_VALID[source]))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"{kind}{suffix}"
        path.write_bytes(mutated)
        try:
            records = _LOADERS[kind](path)
        except DataFormatError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert records


@pytest.mark.parametrize(
    "kind, suffix, mutate",
    [
        ("pool", ".json", lambda data: data[: len(data) // 2]),
        ("pool", ".json", lambda data: b"[" * 100_000 + data),
        ("pool", ".csv", lambda data: data[:40] + b"\xff" + data[40:]),
        ("pool", ".csv", lambda data: data.replace(b"s002", b"x" * 200_000, 1)),
        ("projects", ".csv", lambda data: data.replace(b"\np0", b'\n"p0', 1)),
        ("projects", ".json", lambda data: data.replace(b'"id"', b'{"id"', 1)),
    ],
)
def test_bench_exits_2_on_a_mutated_file(tmp_path, capsys, kind, suffix, mutate):
    paths = {}
    for name in _LOADERS:
        paths[name] = tmp_path / f"{name}{suffix}"
        paths[name].write_bytes(_VALID[name, suffix])
    paths[kind].write_bytes(mutate(_VALID[kind, suffix]))
    argv = ["bench", "--pool", str(paths["pool"]), "--projects", str(paths["projects"])]
    outputs = ["--out", str(tmp_path / "report.txt"), "--log", str(tmp_path / "log.csv")]
    assert main([*argv, *outputs]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {paths[kind]}: ")
