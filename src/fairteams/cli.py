"""Command line interface: one-shot assembly, corpus benchmarks, synthetic data.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no project feasible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .assembly import SelectionMode
from .bench import (
    DEFAULT_TARGETS,
    METHODS,
    OutcomeRecord,
    RunTarget,
    emit_outcome_log,
    emit_report,
    run_benchmark,
)
from .data_io import (
    DataFormatError,
    SynthesisSpec,
    load_pool,
    load_projects,
    save_pool,
    save_projects,
    synthesize_pool,
    synthesize_projects,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

_CONFIG_TOKENS = tuple(mode.value for mode in SelectionMode)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairteams", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_projects=True):
        p.add_argument("--pool", required=True, help="candidate pool file (csv or json)")
        if needs_projects:
            p.add_argument("--projects", required=True, help="project corpus file (csv or json)")
        p.add_argument(
            "--attr-proportion",
            type=float,
            default=None,
            metavar="P",
            help="reassign attribute classes so a share P of candidates is class 0",
        )
        p.add_argument("--seed", type=int, default=0, help="global random seed (default 0)")

    def add_assembly_knobs(p):
        p.add_argument("--team-size", type=int, default=4, help="members per sampled team (>= 3)")
        p.add_argument("--num-teams", type=int, default=500, help="random teams to sample")

    one = sub.add_parser("assemble", help="form one team for one project and print it")
    add_io(one)
    one.add_argument("--project-id", default=None, help="project to assemble (default: first)")
    one.add_argument("--method", choices=METHODS, default="multi")
    one.add_argument("--config", choices=_CONFIG_TOKENS, default="top-sum")
    add_assembly_knobs(one)

    bench = sub.add_parser("bench", help="run methods over a project corpus and aggregate")
    add_io(bench)
    bench.add_argument(
        "--method",
        choices=METHODS,
        action="append",
        default=None,
        help="restrict to a method (repeatable; default: all)",
    )
    bench.add_argument(
        "--config",
        choices=_CONFIG_TOKENS,
        action="append",
        default=None,
        help="restrict multi to a selection mode (repeatable; default: all)",
    )
    add_assembly_knobs(bench)
    bench.add_argument("--format", choices=("csv", "table"), default="table")
    bench.add_argument("--out", default=None, help="write the report here instead of stdout")
    bench.add_argument("--log", default=None, help="per-project outcome log path")
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers over projects, capped at the project and CPU counts",
    )

    synth = sub.add_parser("synth", help="generate a synthetic pool and/or project corpus")
    synth.add_argument("--out-pool", default=None, help="write a candidate pool here")
    synth.add_argument("--out-projects", default=None, help="write a project corpus here")
    synth.add_argument("--pool-size", type=int, default=300)
    synth.add_argument("--skills", type=int, default=40, help="size of the skill universe")
    synth.add_argument("--min-skills", type=int, default=1)
    synth.add_argument("--max-skills", type=int, default=5)
    synth.add_argument("--cost-low", type=float, default=0.01)
    synth.add_argument("--cost-high", type=float, default=1.0)
    synth.add_argument("--attr-proportion", type=float, default=0.5)
    synth.add_argument("--num-projects", type=int, default=50)
    synth.add_argument("--min-req", type=int, default=2)
    synth.add_argument("--max-req", type=int, default=5)
    synth.add_argument("--seed", type=int, default=0)
    return parser


def _print_outcome(project, record: OutcomeRecord) -> None:
    outcome = record.outcome
    diag = outcome.diagnostics
    print(
        f"project {project.id} ({len(project.requirements)} requirements),"
        f" method {record.target.label}"
    )
    if not outcome.formed:
        print("no team formed: no sampled or buildable team covers every requirement")
    else:
        members = ", ".join(
            f"{m.id} (class {m.attribute.value})" for m in outcome.team.members
        )
        print(f"team ({len(outcome.team)} members): {members}")
        o = outcome.objectives
        print(
            f"cost {o.cost:.3f} | workload {o.workload:.3f} | expertise {o.expertise:.3f}"
            f" | representation {o.representation:.3f} | cost-difference {o.cost_difference:.3f}"
        )
    print(
        f"candidates: {diag.pool_size} in pool, {diag.filtered_size} with matching skills,"
        f" {diag.pareto_candidate_count} kept ({diag.candidate_reduction:.1%} reduction)"
    )
    if record.target.method == "multi":
        print(
            f"teams: {diag.teams_sampled} sampled, {diag.full_coverage_count} full coverage,"
            f" {diag.pareto_team_count} kept ({diag.team_reduction:.1%} reduction)"
            + (" [fallback: pool smaller than team size]" if diag.used_fallback_team else "")
        )


def _cmd_assemble(args) -> int:
    pool = load_pool(args.pool, args.attr_proportion, args.seed)
    projects = load_projects(args.projects)
    if args.project_id is None:
        project = projects[0]
    else:
        matches = [p for p in projects if p.id == args.project_id]
        if not matches:
            print(f"project {args.project_id!r} not found in {args.projects}", file=sys.stderr)
            return EXIT_DATA
        project = matches[0]

    selection = SelectionMode(args.config) if args.method == "multi" else None
    _, (record,) = run_benchmark(
        pool,
        [project],
        [RunTarget(args.method, selection)],
        team_size=args.team_size,
        num_teams=args.num_teams,
        seed=args.seed,
    )
    _print_outcome(project, record)
    return EXIT_OK if record.outcome.formed else EXIT_INFEASIBLE


def _bench_targets(args) -> list[RunTarget]:
    methods = args.method or METHODS
    configs = [SelectionMode(token) for token in (args.config or _CONFIG_TOKENS)]
    targets = []
    for target in DEFAULT_TARGETS:
        if target.method not in methods:
            continue
        if target.method == "multi" and target.selection not in configs:
            continue
        targets.append(target)
    return targets


def _cmd_bench(args) -> int:
    pool = load_pool(args.pool, args.attr_proportion, args.seed)
    projects = load_projects(args.projects)
    targets = _bench_targets(args)
    if not targets:
        raise _UsageError("the method/config selection leaves nothing to run")
    report, records = run_benchmark(
        pool,
        projects,
        targets,
        team_size=args.team_size,
        num_teams=args.num_teams,
        seed=args.seed,
        jobs=args.jobs,
    )
    text = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    log_path = args.log or (f"{args.out}.log.csv" if args.out else "bench.log.csv")
    Path(log_path).write_text(emit_outcome_log(records), encoding="utf-8")
    if all(row.formed == 0 for row in report.rows):
        print("no project could be assembled by any selected method", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_synth(args) -> int:
    if not args.out_pool and not args.out_projects:
        raise _UsageError("synth needs --out-pool and/or --out-projects")
    if args.out_pool:
        spec = SynthesisSpec(
            pool_size=args.pool_size,
            skill_universe_size=args.skills,
            min_skills=args.min_skills,
            max_skills=args.max_skills,
            cost_low=args.cost_low,
            cost_high=args.cost_high,
            class_zero_share=args.attr_proportion,
            seed=args.seed,
        )
        save_pool(synthesize_pool(spec), args.out_pool)
        print(f"wrote {args.pool_size} candidates to {args.out_pool}")
    if args.out_projects:
        projects = synthesize_projects(
            args.num_projects, args.skills, args.min_req, args.max_req, seed=args.seed + 1
        )
        save_projects(projects, args.out_projects)
        print(f"wrote {args.num_projects} projects to {args.out_projects}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "assemble":
            return _cmd_assemble(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_synth(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # bad knob values (team size, proportions, formats) are usage errors;
        # file problems are data errors
        if isinstance(exc, DataFormatError):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
