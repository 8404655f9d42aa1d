"""Command-line interface: one subcommand per toolkit operation.

Reports are line-oriented ``key value`` text on stdout, deterministic
byte-for-byte across runs (timing goes to stderr so golden files stay
stable).  Subcommands return nothing or raise; ``main`` alone turns an
exception into the exit status and one ``error <label> <reason>`` line
on stderr, before the ``elapsed_ms`` line every run ends with:

- 0: success;
- 1 ``invalid``: a ``RuntimeError``, i.e. an invalid ``simulate``
  schedule, a failed ``map-*`` mapping or a failed internal certification;
- 2 ``parse``: a ``ValueError``, i.e. a usage error, any unreadable or
  malformed input (gadget sidecars included, and a sidecar that describes
  a gadget other than the graph beside it), an output file that cannot
  be written, a ``--max-rounds`` below 1 or a negative or NaN
  ``--time-budget`` (argparse's errors exit 2 too);
- 3 ``limit``: an ``UndeterminedError``, i.e. ``--max-rounds`` or
  ``--time-budget`` ran out, or a ``MemoryError`` in any phase (``error
  limit out of memory``), e.g. a graph header claiming more vertices than
  the process may allocate.
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
from .graph import parse_graph, serialize_graph
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
    _vc_to_schedule,
)


def _read(what: str, path: str, parse):
    """``parse`` of the file's text; a failure to read or parse it names the file."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValueError(f"{what} {path}: {e}") from e


def _write(what: str, path: str, text: str) -> None:
    """Write ``text`` to the file; a failure to write it names the file, as ``_read`` does."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ValueError(f"{what} {path}: {e}") from e


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad {what} list: {text!r}") from None


def _parse_ordering(text: str) -> dict[int, int]:
    """``vertex@round`` tokens, comma- or space-separated, each vertex at most once."""
    ordering: dict[int, int] = {}
    for tok in text.replace(",", " ").split():
        v, _, r = tok.partition("@")
        try:
            v, r = int(v), int(r)
        except ValueError:
            raise ValueError(f"ordering tokens are vertex@round, got {tok!r}") from None
        if v in ordering:
            raise ValueError(f"ordering names vertex {v} twice")
        ordering[v] = r
    return ordering


def _write_schedule(s: Schedule, out: str | None) -> None:
    """Write the schedule to ``out`` when that is given.

    Commands call this before their first stdout line, so that an
    unwritable file leaves stdout empty, as an unreadable input does.
    """
    if out:
        _write("schedule", out, serialize_schedule(s))


def _report_schedule(s: Schedule, out: str | None) -> None:
    """Print the schedule, and the file ``_write_schedule`` wrote it to."""
    print("k", s.k)
    print("rounds", len(s.rounds))
    for i, batch in enumerate(s.rounds, start=1):
        print("schedule_round", i, *batch)
    if out:
        print("schedule_file", out)


def _cmd_simulate(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    s = _read("schedule", args.schedule, parse_schedule)
    try:
        report = simulate(g, s)
    except ScheduleError as e:
        raise ValueError(f"schedule: {e}") from e
    print("command", "simulate")
    print("graph", args.graph)
    print("schedule", args.schedule)
    print("n", g.n)
    print("m", g.m)
    print("k", s.k)
    print("valid", "true" if report.valid else "false")
    print("completion_round", report.completion_round)
    # each distinct round formatted once, then one join
    names = {r: "-" if r is None else str(r) for r in set(report.burn_round)}
    print(" ".join(["burn_round", *map(names.__getitem__, report.burn_round)]))
    for v in report.violations:
        print("violation", v.round, v.vertex, v.reason)
    if not report.valid:
        raise RuntimeError(report.violations[0].reason)


def _cmd_lower_bound(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    j = lower_bound(g, args.k, verify_linear=args.verify_linear)
    print("command", "lower-bound")
    print("graph", args.graph)
    print("n", g.n)
    print("m", g.m)
    print("k", args.k)
    print("verify_linear", "true" if args.verify_linear else "false")
    print("lower_bound", j)


def _cmd_approx(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    result = approx_schedule(g, args.k)
    _write_schedule(result.schedule, args.schedule_out)
    print("command", "approx")
    print("graph", args.graph)
    print("n", g.n)
    print("m", g.m)
    print("k", args.k)
    print("lower_bound", result.lower_bound)
    print("completion_round", result.completion)
    print("ratio_bound", 3 * result.lower_bound)
    _report_schedule(result.schedule, args.schedule_out)


def _cmd_exact(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    b, witness = exact_burning_number(
        g, args.k, max_rounds=args.max_rounds, time_budget=args.time_budget
    )
    _write_schedule(witness, args.schedule_out)
    print("command", "exact")
    print("graph", args.graph)
    print("n", g.n)
    print("m", g.m)
    print("k", args.k)
    print("burning_number", b)
    _report_schedule(witness, args.schedule_out)


def _cmd_schedule(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    sources = _parse_ints(args.sources, "source")
    inst = SchedulingInstance(g, tuple(sources), args.k)
    # the budget printed is the one solved: ceil(#sources / k) by default
    rounds = -(-len(inst.sources) // args.k) if args.max_rounds is None else args.max_rounds
    assignment = schedule_sources(inst, rounds=rounds, time_budget=args.time_budget)
    print("command", "schedule")
    print("graph", args.graph)
    print("k", args.k)
    print("sources", *inst.sources)
    print("round_budget", rounds)
    if assignment is None:
        print("feasible", "false")
    else:
        print("feasible", "true")
        for v, r in assignment.items():
            print("ignite", v, r)


def _cmd_gen_vc(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    inst = build_vc_instance(g, args.k, args.q, connected=args.connected)
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    _write("graph", graph_path, serialize_graph(inst.gprime))
    _write("metadata", meta_path, json.dumps(vc_instance_meta(inst)) + "\n")
    print("command", "gen-vc")
    print("graph", args.graph)
    print("k", args.k)
    print("q", args.q)
    print("connected", "true" if args.connected else "false")
    print("gadget_n", inst.gprime.n)
    print("gadget_m", inst.gprime.m)
    print("round_bound", inst.round_bound)
    print("graph_file", graph_path)
    print("meta_file", meta_path)


def _cmd_gen_sat(args) -> None:
    si = _read("cnf", args.cnf, lambda text: build_sat_instance(parse_dimacs_cnf(text)))
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    _write("graph", graph_path, serialize_graph(si.inst.graph))
    _write("metadata", meta_path, json.dumps(sat_instance_meta(si)) + "\n")
    print("command", "gen-sat")
    print("cnf", args.cnf)
    print("variables", si.cnf.n_vars)
    print("clauses", len(si.cnf.clauses))
    print("gadget_n", si.inst.graph.n)
    print("gadget_m", si.inst.graph.m)
    print("round_budget", 2 * si.cnf.n_vars)
    print("graph_file", graph_path)
    print("meta_file", meta_path)


def _mapped(fn, *args):
    """``fn(*args)``, a failed mapping (ReductionError) made an invalid certificate."""
    try:
        return fn(*args)
    except ReductionError as e:
        raise RuntimeError(str(e)) from e


def _cmd_map_vc(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    inst = load_vc_instance(g, _read("metadata", args.meta, json.loads))
    if (args.cover is None) == (args.schedule is None):
        raise ValueError("map-vc needs exactly one of --cover or --schedule")
    # read, map and write before the first stdout line, so a failure prints nothing
    if args.cover is not None:
        cover = _parse_ints(args.cover, "cover")
        sched, completion = _mapped(_vc_to_schedule, inst, cover)
        _write_schedule(sched, args.schedule_out)
    else:
        sched = _read("schedule", args.schedule, parse_schedule)
        cover = _mapped(schedule_to_vc, inst, sched)
    print("command", "map-vc")
    print("graph", args.graph)
    print("meta", args.meta)
    if args.cover is not None:
        print("direction", "cover-to-schedule")
        print("cover", *sorted(set(cover)))
        print("completion_round", completion)
        _report_schedule(sched, args.schedule_out)
    else:
        print("direction", "schedule-to-cover")
        print("cover_size", len(cover))
        print("cover", *cover)


def _cmd_map_sat(args) -> None:
    g = _read("graph", args.graph, parse_graph)
    si = load_sat_instance(g, _read("metadata", args.meta, json.loads))
    if (args.assignment is None) == (args.ordering is None):
        raise ValueError("map-sat needs exactly one of --assignment or --ordering")
    # parse and map before the first stdout line, as map-vc does
    if args.assignment is not None:
        lits = _parse_ints(args.assignment, "assignment")
        if sorted(map(abs, lits)) != list(range(1, si.cnf.n_vars + 1)):
            raise ValueError("assignment must mention each variable exactly once")
        ordering = _mapped(assignment_to_schedule, si, {abs(l): l > 0 for l in lits})
    else:
        assignment = _mapped(schedule_to_assignment, si, _parse_ordering(args.ordering))
    print("command", "map-sat")
    print("graph", args.graph)
    print("meta", args.meta)
    if args.assignment is not None:
        print("direction", "assignment-to-ordering")
        for v, r in sorted(ordering.items()):
            print("ignite", v, r)
    else:
        print("direction", "ordering-to-assignment")
        print("assignment", *((j if val else -j) for j, val in sorted(assignment.items())))


def _cmd_path_number(args) -> None:
    b = path_burning_number(args.n, args.k)
    print("command", "path-number")
    print("n", args.n)
    print("k", args.k)
    print("burning_number", b)


def _cmd_path_schedule(args) -> None:
    sched = optimal_path_schedule(args.n, args.k)
    b = path_burning_number(args.n, args.k)
    _write_schedule(sched, args.schedule_out)
    print("command", "path-schedule")
    print("n", args.n)
    print("k", args.k)
    print("burning_number", b)
    _report_schedule(sched, args.schedule_out)


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
    p.add_argument("--max-rounds", type=int,
                   help="give up (exit 3) rather than try more rounds than this")
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
        args.fn(args)
    except UndeterminedError as e:  # a RuntimeError, so it is caught first
        print(f"error limit {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error limit out of memory", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error parse {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # an invalid certificate, or a failed internal certification
        print(f"error invalid {e}", file=sys.stderr)
        return 1
    finally:
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        print(f"elapsed_ms {elapsed_ms:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
