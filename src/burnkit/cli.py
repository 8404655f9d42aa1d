"""Command-line interface: one subcommand per toolkit operation.

Reports are line-oriented ``key value`` text on stdout, deterministic
byte-for-byte across runs (timing goes to stderr so golden files stay
stable).  Exit status: 0 success, 1 invalid certificate, 2 usage or
parse error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .approx import approx_schedule, lower_bound
from .burning import (
    Schedule,
    ScheduleError,
    parse_schedule,
    serialize_schedule,
    simulate,
)
from .exact import (
    SchedulingInstance,
    UndeterminedError,
    exact_burning_number,
    schedule_sources,
)
from .graph import Graph, GraphFormatError, parse_graph, serialize_graph
from .paths import optimal_path_schedule, path_burning_number
from .reductions import (
    ReductionError,
    build_sat_instance,
    build_vc_instance,
    load_sat_instance,
    load_vc_instance,
    parse_dimacs_cnf,
    sat_instance_meta,
    schedule_to_assignment,
    schedule_to_vc,
    assignment_to_schedule,
    vc_instance_meta,
    vc_to_schedule,
)


class _CliError(Exception):
    def __init__(self, code: int, reason: str):
        super().__init__(reason)
        self.code = code


def _fail_parse(reason: str) -> _CliError:
    return _CliError(2, reason)


def _emit(key: str, *values) -> None:
    if values:
        print(f"{key} " + " ".join(map(str, values)))
    else:
        print(key)


def _read_graph(path: str) -> Graph:
    try:
        return parse_graph(Path(path).read_text())
    except (OSError, GraphFormatError) as e:
        raise _fail_parse(f"graph {path}: {e}") from e


def _read_schedule(path: str) -> Schedule:
    try:
        return parse_schedule(Path(path).read_text())
    except (OSError, ScheduleError) as e:
        raise _fail_parse(f"schedule {path}: {e}") from e


def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise _fail_parse(f"metadata {path}: {e}") from e


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise _fail_parse(f"bad {what} list: {text!r}") from None


def _parse_ordering(text: str) -> dict[int, int]:
    """``vertex@round`` tokens, comma- or space-separated, each vertex at most once."""
    ordering: dict[int, int] = {}
    for tok in text.replace(",", " ").split():
        v, _, r = tok.partition("@")
        try:
            v, r = int(v), int(r)
        except ValueError:
            raise _fail_parse(f"ordering tokens are vertex@round, got {tok!r}") from None
        if v in ordering:
            raise _fail_parse(f"ordering names vertex {v} twice")
        ordering[v] = r
    return ordering


def _emit_schedule(s: Schedule) -> None:
    _emit("k", s.k)
    _emit("rounds", len(s.rounds))
    for i, batch in enumerate(s.rounds, start=1):
        _emit("schedule_round", i, *batch)


def _maybe_write_schedule(path: str | None, s: Schedule) -> None:
    if path:
        Path(path).write_text(serialize_schedule(s))
        _emit("schedule_file", path)


def _cmd_simulate(args) -> int:
    g = _read_graph(args.graph)
    s = _read_schedule(args.schedule)
    try:
        report = simulate(g, s)
    except ScheduleError as e:
        raise _fail_parse(f"schedule: {e}") from e
    _emit("command", "simulate")
    _emit("graph", args.graph)
    _emit("schedule", args.schedule)
    _emit("n", g.n)
    _emit("m", g.m)
    _emit("k", s.k)
    _emit("valid", "true" if report.valid else "false")
    _emit("completion_round", report.completion_round)
    # each distinct round formatted once, then one join, as _emit would print it
    names = {r: "-" if r is None else str(r) for r in set(report.burn_round)}
    print(" ".join(["burn_round", *map(names.__getitem__, report.burn_round)]))
    for v in report.violations:
        _emit("violation", v.round, v.vertex, v.reason)
    if not report.valid:
        raise _CliError(1, report.violations[0].reason)
    return 0


def _cmd_lower_bound(args) -> int:
    g = _read_graph(args.graph)
    j = lower_bound(g, args.k, verify_linear=args.verify_linear)
    _emit("command", "lower-bound")
    _emit("graph", args.graph)
    _emit("n", g.n)
    _emit("m", g.m)
    _emit("k", args.k)
    _emit("verify_linear", "true" if args.verify_linear else "false")
    _emit("lower_bound", j)
    return 0


def _cmd_approx(args) -> int:
    g = _read_graph(args.graph)
    result = approx_schedule(g, args.k)
    _emit("command", "approx")
    _emit("graph", args.graph)
    _emit("n", g.n)
    _emit("m", g.m)
    _emit("k", args.k)
    _emit("lower_bound", result.lower_bound)
    _emit("completion_round", result.completion)
    _emit("ratio_bound", 3 * result.lower_bound)
    _emit_schedule(result.schedule)
    _maybe_write_schedule(args.schedule_out, result.schedule)
    return 0


def _cmd_exact(args) -> int:
    g = _read_graph(args.graph)
    try:
        b, witness = exact_burning_number(
            g, args.k, max_rounds=args.max_rounds, time_budget=args.time_budget
        )
    except UndeterminedError as e:
        raise _CliError(3, str(e)) from e
    _emit("command", "exact")
    _emit("graph", args.graph)
    _emit("n", g.n)
    _emit("m", g.m)
    _emit("k", args.k)
    _emit("burning_number", b)
    _emit_schedule(witness)
    _maybe_write_schedule(args.schedule_out, witness)
    return 0


def _cmd_schedule(args) -> int:
    g = _read_graph(args.graph)
    sources = _parse_ints(args.sources, "source")
    inst = SchedulingInstance(g, tuple(sources), args.k)
    try:
        assignment = schedule_sources(
            inst, rounds=args.max_rounds, time_budget=args.time_budget
        )
    except UndeterminedError as e:
        raise _CliError(3, str(e)) from e
    rounds = args.max_rounds if args.max_rounds else -(-len(inst.sources) // args.k)
    _emit("command", "schedule")
    _emit("graph", args.graph)
    _emit("k", args.k)
    _emit("sources", *inst.sources)
    _emit("round_budget", rounds)
    if assignment is None:
        _emit("feasible", "false")
    else:
        _emit("feasible", "true")
        for v, r in assignment.items():
            _emit("ignite", v, r)
    return 0


def _cmd_gen_vc(args) -> int:
    g = _read_graph(args.graph)
    inst = build_vc_instance(g, args.k, args.q, connected=args.connected)
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    Path(graph_path).write_text(serialize_graph(inst.gprime))
    Path(meta_path).write_text(json.dumps(vc_instance_meta(inst)) + "\n")
    _emit("command", "gen-vc")
    _emit("graph", args.graph)
    _emit("k", args.k)
    _emit("q", args.q)
    _emit("connected", "true" if args.connected else "false")
    _emit("gadget_n", inst.gprime.n)
    _emit("gadget_m", inst.gprime.m)
    _emit("round_bound", inst.round_bound)
    _emit("graph_file", graph_path)
    _emit("meta_file", meta_path)
    return 0


def _cmd_gen_sat(args) -> int:
    try:
        cnf = parse_dimacs_cnf(Path(args.cnf).read_text())
        si = build_sat_instance(cnf)
    except (OSError, ReductionError) as e:
        raise _fail_parse(f"cnf {args.cnf}: {e}") from e
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    Path(graph_path).write_text(serialize_graph(si.inst.graph))
    Path(meta_path).write_text(json.dumps(sat_instance_meta(si)) + "\n")
    _emit("command", "gen-sat")
    _emit("cnf", args.cnf)
    _emit("variables", cnf.n_vars)
    _emit("clauses", len(cnf.clauses))
    _emit("gadget_n", si.inst.graph.n)
    _emit("gadget_m", si.inst.graph.m)
    _emit("round_budget", 2 * cnf.n_vars)
    _emit("graph_file", graph_path)
    _emit("meta_file", meta_path)
    return 0


def _cmd_map_vc(args) -> int:
    g = _read_graph(args.graph)
    inst = load_vc_instance(g, _read_json(args.meta))
    if (args.cover is None) == (args.schedule is None):
        raise _fail_parse("map-vc needs exactly one of --cover or --schedule")
    if args.cover is not None:
        cover = _parse_ints(args.cover, "cover")
    _emit("command", "map-vc")
    _emit("graph", args.graph)
    _emit("meta", args.meta)
    if args.cover is not None:
        try:
            sched = vc_to_schedule(inst, cover)
        except ReductionError as e:
            raise _CliError(1, str(e)) from e
        _emit("direction", "cover-to-schedule")
        _emit("cover", *sorted(set(cover)))
        report = simulate(inst.gprime, sched)
        _emit("completion_round", report.completion_round)
        _emit_schedule(sched)
        _maybe_write_schedule(args.schedule_out, sched)
    else:
        sched = _read_schedule(args.schedule)
        try:
            cover = schedule_to_vc(inst, sched)
        except ReductionError as e:
            raise _CliError(1, str(e)) from e
        _emit("direction", "schedule-to-cover")
        _emit("cover_size", len(cover))
        _emit("cover", *cover)
    return 0


def _cmd_map_sat(args) -> int:
    g = _read_graph(args.graph)
    si = load_sat_instance(g, _read_json(args.meta))
    if (args.assignment is None) == (args.ordering is None):
        raise _fail_parse("map-sat needs exactly one of --assignment or --ordering")
    if args.assignment is not None:
        lits = _parse_ints(args.assignment, "assignment")
        if sorted(map(abs, lits)) != list(range(1, si.cnf.n_vars + 1)):
            raise _fail_parse("assignment must mention each variable exactly once")
        assignment = {abs(l): l > 0 for l in lits}
    else:
        ordering = _parse_ordering(args.ordering)
    _emit("command", "map-sat")
    _emit("graph", args.graph)
    _emit("meta", args.meta)
    if args.assignment is not None:
        try:
            ordering = assignment_to_schedule(si, assignment)
        except ReductionError as e:
            raise _CliError(1, str(e)) from e
        _emit("direction", "assignment-to-ordering")
        for v, r in sorted(ordering.items()):
            _emit("ignite", v, r)
    else:
        try:
            assignment = schedule_to_assignment(si, ordering)
        except ReductionError as e:
            raise _CliError(1, str(e)) from e
        _emit("direction", "ordering-to-assignment")
        _emit("assignment", *((j if val else -j) for j, val in sorted(assignment.items())))
    return 0


def _cmd_path_number(args) -> int:
    _emit("command", "path-number")
    _emit("n", args.n)
    _emit("k", args.k)
    _emit("burning_number", path_burning_number(args.n, args.k))
    return 0


def _cmd_path_schedule(args) -> int:
    sched = optimal_path_schedule(args.n, args.k)
    b = path_burning_number(args.n, args.k)
    _emit("command", "path-schedule")
    _emit("n", args.n)
    _emit("k", args.k)
    _emit("burning_number", b)
    _emit_schedule(sched)
    _maybe_write_schedule(args.schedule_out, sched)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnkit",
        description="Graph burning toolkit: simulate, bound, solve, and generate hardness instances.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run a schedule and judge its validity")
    p.add_argument("--graph", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("lower-bound", help="certified lower bound on the burning number")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--verify-linear", action="store_true",
                   help="re-check the bound predicate at every smaller index")
    p.set_defaults(fn=_cmd_lower_bound)

    p = sub.add_parser("approx", help="schedule within 3x of the burning number")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--schedule-out")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("exact", help="exact burning number with witness (desk scale)")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--time-budget", type=float, help="seconds before giving up")
    p.add_argument("--schedule-out")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("schedule", help="order a fixed source set within a round budget")
    p.add_argument("--graph", required=True)
    p.add_argument("--sources", required=True, help="comma- or space-separated vertex ids")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-rounds", type=int, help="round budget (default ceil(#sources/k))")
    p.add_argument("--time-budget", type=float, help="seconds before giving up")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("gen-vc", help="build the vertex-cover burning gadget")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--out", required=True, help="output prefix for .graph.txt/.meta.json")
    p.set_defaults(fn=_cmd_gen_vc)

    p = sub.add_parser("gen-sat", help="build the 3-SAT scheduling gadget")
    p.add_argument("--cnf", required=True, help="DIMACS CNF file with 3-literal clauses")
    p.add_argument("--out", required=True, help="output prefix for .graph.txt/.meta.json")
    p.set_defaults(fn=_cmd_gen_sat)

    p = sub.add_parser("map-vc", help="map a cover to a schedule, or back")
    p.add_argument("--graph", required=True, help="gadget graph file")
    p.add_argument("--meta", required=True, help="gadget metadata file")
    p.add_argument("--cover", help="cover vertices (forward direction)")
    p.add_argument("--schedule", help="schedule file (reverse direction)")
    p.add_argument("--schedule-out")
    p.set_defaults(fn=_cmd_map_vc)

    p = sub.add_parser("map-sat", help="map an assignment to an ignition order, or back")
    p.add_argument("--graph", required=True, help="gadget graph file")
    p.add_argument("--meta", required=True, help="gadget metadata file")
    p.add_argument("--assignment", help="signed literals, e.g. '1,-2,3' (forward direction)")
    p.add_argument("--ordering", help="tokens vertex@round (reverse direction)")
    p.set_defaults(fn=_cmd_map_sat)

    p = sub.add_parser("path-number", help="closed-form burning number of a path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(fn=_cmd_path_number)

    p = sub.add_parser("path-schedule", help="optimal burning schedule of a path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--schedule-out")
    p.set_defaults(fn=_cmd_path_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except _CliError as e:
        label = {1: "invalid", 2: "parse", 3: "limit"}[e.code]
        print(f"error {label} {e}", file=sys.stderr)
        return e.code
    except (GraphFormatError, ScheduleError, ReductionError, ValueError) as e:
        print(f"error parse {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # failed internal certification (e.g. a monotonicity check)
        print(f"error invalid {e}", file=sys.stderr)
        return 1
    finally:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        print(f"elapsed_ms {elapsed_ms:.2f}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
