"""Command-line interface: one subcommand per toolkit operation.

Reports are line-oriented ``key value`` text on stdout, deterministic
byte-for-byte across runs (timing goes to stderr so golden files stay
stable).  Subcommands print nothing: each returns its report as a list of
lines, or raises.  ``main`` alone writes stdout, and only after the
subcommand has returned, so a failed run leaves stdout empty; the one
failure with a report is an invalid ``simulate`` schedule, whose error
carries the report for ``main`` to write.  ``main`` turns an exception
into the exit status and one ``error <label> <reason>`` line on stderr,
before the ``elapsed_ms`` line every run ends with:

- 0: success;
- 1 ``invalid``: a ``RuntimeError``, i.e. an invalid ``simulate``
  schedule, a failed ``map-*`` mapping or a failed internal certification;
- 2 ``parse``: a ``ValueError``, i.e. a usage error, any unreadable or
  malformed input (gadget sidecars included, and a sidecar that describes
  a gadget other than the graph beside it), an output file that cannot
  be written, a stdout that cannot be written (e.g. a closed pipe), a
  ``--max-rounds`` below 1 or a negative or NaN ``--time-budget``
  (argparse's errors exit 2 too);
- 3 ``limit``: an ``UndeterminedError``, i.e. ``--max-rounds`` or
  ``--time-budget`` ran out, or a ``MemoryError`` in any phase (``error
  limit out of memory``), e.g. a graph header claiming more vertices than
  the process may allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

from .approx import approx_schedule, lower_bound
from .burning import (
    Schedule,
    parse_schedule,
    serialize_schedule,
    simulate,
    validate_schedule,
)
from .exact import (
    SchedulingInstance,
    UndeterminedError,
    exact_burning_number,
    schedule_sources,
)
from .graph import Graph, parse_graph, serialize_graph
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


class _InvalidReport(RuntimeError):
    """An invalid certificate that still has a report to print."""

    def __init__(self, reason: str, report: list[str]):
        super().__init__(reason)
        self.report = report


def _read(what: str, path: str, parse):
    """``parse`` of the file's text; a failure to read or parse it names the file."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValueError(f"{what} {path}: {e}") from e


def _read_schedule(path: str, g: Graph) -> Schedule:
    """The schedule in the file, checked against ``g``, so a bad vertex id names the file too."""
    def parse(text: str) -> Schedule:
        s = parse_schedule(text)
        validate_schedule(g, s)
        return s
    return _read("schedule", path, parse)


def _write(what: str, path: str, text: str) -> None:
    """Write ``text`` to the file; a failure to write it names the file, as ``_read`` does."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ValueError(f"{what} {path}: {e}") from e


def _join(key: str, values) -> str:
    """One report line: the key, then the values, space-separated."""
    return " ".join([key, *map(str, values)])


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


def _schedule_report(s: Schedule, out: str | None) -> list[str]:
    """Write the schedule to ``out`` when that is given; return its report lines."""
    if out:
        _write("schedule", out, serialize_schedule(s))
    lines = [f"k {s.k}", f"rounds {len(s.rounds)}"]
    lines += [_join(f"schedule_round {i}", batch) for i, batch in enumerate(s.rounds, start=1)]
    return [*lines, f"schedule_file {out}"] if out else lines


def _cmd_simulate(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    s = _read_schedule(args.schedule, g)
    report = simulate(g, s)
    # each distinct round formatted once, then one join
    names = {r: "-" if r is None else str(r) for r in set(report.burn_round)}
    lines = [
        "command simulate", f"graph {args.graph}", f"schedule {args.schedule}",
        f"n {g.n}", f"m {g.m}", f"k {s.k}",
        f"valid {'true' if report.valid else 'false'}",
        f"completion_round {report.completion_round}",
        " ".join(["burn_round", *map(names.__getitem__, report.burn_round)]),
        *(f"violation {v.round} {v.vertex} {v.reason}" for v in report.violations),
    ]
    if not report.valid:
        raise _InvalidReport(report.violations[0].reason, lines)
    return lines


def _cmd_lower_bound(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    j = lower_bound(g, args.k, verify_linear=args.verify_linear)
    return [
        "command lower-bound", f"graph {args.graph}", f"n {g.n}", f"m {g.m}", f"k {args.k}",
        f"verify_linear {'true' if args.verify_linear else 'false'}",
        f"lower_bound {j}",
    ]


def _cmd_approx(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    result = approx_schedule(g, args.k)
    return [
        "command approx", f"graph {args.graph}", f"n {g.n}", f"m {g.m}", f"k {args.k}",
        f"lower_bound {result.lower_bound}", f"completion_round {result.completion}",
        f"ratio_bound {3 * result.lower_bound}",
        *_schedule_report(result.schedule, args.schedule_out),
    ]


def _cmd_exact(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    b, witness = exact_burning_number(
        g, args.k, max_rounds=args.max_rounds, time_budget=args.time_budget
    )
    return [
        "command exact", f"graph {args.graph}", f"n {g.n}", f"m {g.m}", f"k {args.k}",
        f"burning_number {b}",
        *_schedule_report(witness, args.schedule_out),
    ]


def _cmd_schedule(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    sources = _parse_ints(args.sources, "source")
    inst = SchedulingInstance(g, tuple(sources), args.k)
    # the budget printed is the one solved: ceil(#sources / k) by default
    rounds = -(-len(inst.sources) // args.k) if args.max_rounds is None else args.max_rounds
    assignment = schedule_sources(inst, rounds=rounds, time_budget=args.time_budget)
    lines = ["command schedule", f"graph {args.graph}", f"k {args.k}",
             _join("sources", inst.sources), f"round_budget {rounds}"]
    if assignment is None:
        return lines + ["feasible false"]
    return lines + ["feasible true", *(f"ignite {v} {r}" for v, r in assignment.items())]


def _cmd_gen_vc(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    inst = build_vc_instance(g, args.k, args.q, connected=args.connected)
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    _write("graph", graph_path, serialize_graph(inst.gprime))
    _write("metadata", meta_path, json.dumps(vc_instance_meta(inst)) + "\n")
    return [
        "command gen-vc", f"graph {args.graph}", f"k {args.k}", f"q {args.q}",
        f"connected {'true' if args.connected else 'false'}",
        f"gadget_n {inst.gprime.n}", f"gadget_m {inst.gprime.m}",
        f"round_bound {inst.round_bound}",
        f"graph_file {graph_path}", f"meta_file {meta_path}",
    ]


def _cmd_gen_sat(args) -> list[str]:
    si = _read("cnf", args.cnf, lambda text: build_sat_instance(parse_dimacs_cnf(text)))
    graph_path = f"{args.out}.graph.txt"
    meta_path = f"{args.out}.meta.json"
    _write("graph", graph_path, serialize_graph(si.inst.graph))
    _write("metadata", meta_path, json.dumps(sat_instance_meta(si)) + "\n")
    return [
        "command gen-sat", f"cnf {args.cnf}",
        f"variables {si.cnf.n_vars}", f"clauses {len(si.cnf.clauses)}",
        f"gadget_n {si.inst.graph.n}", f"gadget_m {si.inst.graph.m}",
        f"round_budget {2 * si.cnf.n_vars}",
        f"graph_file {graph_path}", f"meta_file {meta_path}",
    ]


def _mapped(fn, *args):
    """``fn(*args)``, a failed mapping (ReductionError) made an invalid certificate."""
    try:
        return fn(*args)
    except ReductionError as e:
        raise RuntimeError(str(e)) from e


def _cmd_map_vc(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    inst = load_vc_instance(g, _read("metadata", args.meta, json.loads))
    lines = ["command map-vc", f"graph {args.graph}", f"meta {args.meta}"]
    if args.cover is not None:
        cover = _parse_ints(args.cover, "cover")
        sched, completion = _mapped(_vc_to_schedule, inst, cover)
        return lines + [
            "direction cover-to-schedule",
            _join("cover", sorted(set(cover))),
            f"completion_round {completion}",
            *_schedule_report(sched, args.schedule_out),
        ]
    cover = _mapped(schedule_to_vc, inst, _read_schedule(args.schedule, g))
    return lines + ["direction schedule-to-cover", f"cover_size {len(cover)}",
                    _join("cover", cover)]


def _cmd_map_sat(args) -> list[str]:
    g = _read("graph", args.graph, parse_graph)
    si = load_sat_instance(g, _read("metadata", args.meta, json.loads))
    lines = ["command map-sat", f"graph {args.graph}", f"meta {args.meta}"]
    if args.assignment is not None:
        lits = _parse_ints(args.assignment, "assignment")
        if sorted(map(abs, lits)) != list(range(1, si.cnf.n_vars + 1)):
            raise ValueError("assignment must mention each variable exactly once")
        ordering = _mapped(assignment_to_schedule, si, {abs(l): l > 0 for l in lits})
        return lines + ["direction assignment-to-ordering",
                        *(f"ignite {v} {r}" for v, r in sorted(ordering.items()))]
    assignment = _mapped(schedule_to_assignment, si, _parse_ordering(args.ordering))
    literals = ((j if val else -j) for j, val in sorted(assignment.items()))
    return lines + ["direction ordering-to-assignment", _join("assignment", literals)]


def _cmd_path_number(args) -> list[str]:
    b = path_burning_number(args.n, args.k)
    return ["command path-number", f"n {args.n}", f"k {args.k}", f"burning_number {b}"]


def _cmd_path_schedule(args) -> list[str]:
    sched = optimal_path_schedule(args.n, args.k)
    b = path_burning_number(args.n, args.k)
    return ["command path-schedule", f"n {args.n}", f"k {args.k}", f"burning_number {b}",
            *_schedule_report(sched, args.schedule_out)]


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
    way = p.add_mutually_exclusive_group(required=True)
    way.add_argument("--cover", help="cover vertices (forward direction)")
    way.add_argument("--schedule", help="schedule file (reverse direction)")
    p.add_argument("--schedule-out")
    p.set_defaults(fn=_cmd_map_vc)

    p = sub.add_parser("map-sat", help="map an assignment to an ignition order, or back")
    p.add_argument("--graph", required=True, help="gadget graph file")
    p.add_argument("--meta", required=True, help="gadget metadata file")
    way = p.add_mutually_exclusive_group(required=True)
    way.add_argument("--assignment", help="signed literals, e.g. '1,-2,3' (forward direction)")
    way.add_argument("--ordering", help="tokens vertex@round (reverse direction)")
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
    code, error, report = 0, "", []
    try:
        report = args.fn(args)
    except UndeterminedError as e:  # a RuntimeError, so it is caught first
        code, error = 3, f"limit {e}"
    except MemoryError:
        code, error = 3, "limit out of memory"
    except ValueError as e:
        code, error = 2, f"parse {e}"
    except RuntimeError as e:
        # an invalid certificate, or a failed internal certification
        code, error = 1, f"invalid {e}"
        report = getattr(e, "report", [])
    try:
        out = sys.stdout
        for line in report:
            out.write(line)
            out.write("\n")
        out.flush()
    except OSError as e:  # e.g. a closed pipe
        # what is left in the buffer goes to devnull, so the flush at exit cannot fail
        # again; a stdout with no file descriptor has nothing to flush at exit
        with contextlib.suppress(OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        code, error = 2, f"parse stdout: {e}"
    if code:
        print(f"error {error}", file=sys.stderr)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    print(f"elapsed_ms {elapsed_ms:.2f}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
