"""Apply each kept mutant to a copy of the sources and require its tests to fail.

    python tools/mutants.py            # every mutant in tools/mutants.json
    python tools/mutants.py NAME ...   # only the named ones

Each mutant in `tools/mutants.json` names a file of the checkout, an `old`
text that must occur in it exactly once, the `new` text that replaces it and
the ids of the tests that must fail once it is applied. For each mutant,
`src/`, `tests/` and `pyproject.toml` are copied to a new temporary
directory without `.hypothesis/` or `__pycache__/`, so no saved example does
the killing. The replacement is made in the copy, and pytest runs the named
tests there with `-x -p no:cacheprovider` and a fixed `--hypothesis-seed`.
A mutant is killed when pytest reports a failed test (exit status 1); a
collection error or an old text that does not occur exactly once is a fault
in the list, not a kill. First, every named test must pass on an unmutated
copy. Prints each mutant's time and exits 1 unless every mutant is killed.
Run it from any directory; it reads the checkout it lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


def _copy(into: Path) -> None:
    ignored = shutil.ignore_patterns(".hypothesis", "__pycache__", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=ignored)
        else:
            shutil.copy2(ROOT / name, into / name)


def _run(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    # the copy's sources only: a PYTHONPATH or an editable install pointing at
    # the checkout comes after this entry
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, *args]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def _apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise ValueError(f"{mutant['name']}: old text occurs {count} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def _pytest(tests: list[str], mutant: dict | None = None) -> subprocess.CompletedProcess:
    """Run `tests` in a fresh copy of the checkout, with `mutant` applied if
    given. Raises `ValueError` if the copy imports `fairteams` from elsewhere."""
    with tempfile.TemporaryDirectory() as directory:
        tree = Path(directory)
        _copy(tree)
        where = _run(tree, ["-c", "import fairteams; print(fairteams.__file__)"]).stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            raise ValueError(f"the copy imports fairteams from {where!r}, not from its own src/")
        if mutant is not None:
            _apply(tree, mutant)
        return _run(tree, ["-m", "pytest", *PYTEST, *tests])


def _kill(mutant: dict) -> str:
    """'killed', 'survived' or 'fault: ...'."""
    try:
        result = _pytest(mutant["tests"], mutant)
    except ValueError as exc:
        return f"fault: {exc}"
    if result.returncode == 1:
        return "killed"
    if result.returncode == 0:
        return "survived"
    return f"fault: pytest exit status {result.returncode}\n{result.stdout[-2000:]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    unknown = set(args.names) - {mutant["name"] for mutant in mutants}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    if args.names:
        mutants = [mutant for mutant in mutants if mutant["name"] in args.names]

    start = time.perf_counter()
    baseline = _pytest(sorted({test for mutant in mutants for test in mutant["tests"]}))
    if baseline.returncode != 0:
        print(f"the unmutated tests fail:\n{baseline.stdout[-3000:]}{baseline.stderr[-2000:]}")
        return 1
    print(f"baseline: every named test passes unmutated ({time.perf_counter() - start:.1f} s)")
    failed = 0
    for mutant in mutants:
        begin = time.perf_counter()
        verdict = _kill(mutant)
        seconds = time.perf_counter() - begin
        failed += verdict != "killed"
        print(f"{verdict.split(':')[0]:<9} {seconds:6.1f} s  {mutant['name']}", flush=True)
        if verdict.startswith("fault"):
            print(verdict)
    total = time.perf_counter() - start
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
