#!/usr/bin/env python3
"""Per-layer tracing from outside the library, and the traced run itself.

Every public function of the modules ``graph``, ``approx``, ``burning``,
``exact``, ``reductions``, ``paths`` and ``cli`` is replaced, under every
name a burnkit module imports it by, with a wrapper that records a span:
name, start, end and parent.  A span's self time is its duration minus
the time of the calls it made to other wrapped functions.  Functions that
run hundreds of thousands of times (``bfs_distances``,
``ordering_feasible``) are recorded as a call count and a total time per
parent span instead of one span per call.  Nothing under ``src/`` changes.

Run as a program it makes one traced run of a workload in this process:

    python3 perfbench/tracing.py --workload approx-grid --seed 1 --out trace.json

Phases, each a root span: ``op`` (the timed operation, through
``burnkit.cli.main`` with stdout captured, or the desk solving pass),
``setup`` (the inputs generated again), ``probe`` (approx-grid only: a
standalone ``lower_bound`` and ``mis_power`` on the same graph, because
the lower-bound search inside ``approx_schedule`` is private) and
``check``.  The op runs first, in a fresh process, like the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("graph", "approx", "burning", "exact", "reductions", "paths", "cli")
COUNTED = {"graph.bfs_distances", "exact.ordering_feasible"}
RENAMED = {"graph.graph_from_edges": "graph.build"}
PHASE = "phase."


class Tracer:
    """Spans and counters kept in memory until the run writes them out."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counted: dict[tuple[str, int | None], list] = {}
        self._stack: list[list] = []  # [name, counted, start, child_time, span_id]

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[4] is not None:
                return frame[4]
        return None

    def _push(self, name: str, counted: bool) -> list:
        span_id = None
        if not counted:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name, "parent": self._parent_span()})
        frame = [name, counted, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        name, counted, start, child, span_id = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][3] += duration
        if counted:
            row = self.counted.setdefault((name, self._parent_span()), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
        else:
            self.spans[span_id].update(
                start=start - self.t0, end=end - self.t0, self=duration - child
            )

    def wrap(self, fn, name: str, counted: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(name, counted)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(frame)
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A root span around one phase of the traced run."""
        frame = self._push(PHASE + name, False)
        try:
            yield
        finally:
            self._pop(frame)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counted": [
                {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in self.counted.items()
            ],
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of every layer under all their import names."""
    import burnkit

    modules = [importlib.import_module(f"burnkit.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped[obj] = (tracer.wrap(obj, name, name in COUNTED), name)
    for mod in (burnkit, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj][0])
    return sorted(name for _, name in wrapped.values())


def summarize(trace: dict) -> dict:
    """Per-function inclusive time, self time and calls, overall and per phase."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def phase_of(span_id):
        while span_id is not None:
            s = by_id[span_id]
            if s["name"].startswith(PHASE):
                return s["name"][len(PHASE):]
            span_id = s["parent"]
        return None

    def outermost(s):
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    rows: dict[str, dict] = {}

    def add(name, phase, calls, self_s, inclusive_s):
        for key in (name, f"{phase}:{name}"):
            r = rows.setdefault(key, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            r["calls"] += calls
            r["self_s"] += self_s
            r["inclusive_s"] += inclusive_s

    for s in spans:
        if not s["name"].startswith(PHASE):
            inclusive = s["end"] - s["start"] if outermost(s) else 0.0
            add(s["name"], phase_of(s["id"]), 1, s["self"], inclusive)
    for c in trace["counted"]:
        add(c["name"], phase_of(c["parent"]), c["calls"], c["self_s"], c["total_s"])
    phases = {s["name"][len(PHASE):]: s for s in spans if s["name"].startswith(PHASE)}
    return {
        "functions": rows,
        "phases": {p: {"seconds": s["end"] - s["start"], "bench_self_s": s["self"]}
                   for p, s in phases.items()},
    }


def layer_table(summary: dict) -> list[str]:
    """Self time, calls and share of the traced total, by layer and function."""
    total = sum(p["seconds"] for p in summary["phases"].values())
    funcs = {k: v for k, v in summary["functions"].items() if ":" not in k}
    layers: dict[str, list] = {}
    for name, r in funcs.items():
        layers.setdefault(name.split(".")[0], []).append((name, r))
    bench_self = sum(p["bench_self_s"] for p in summary["phases"].values())
    lines = [f"{'layer / function':<34} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for layer in sorted(layers, key=lambda l: -sum(r["self_s"] for _, r in layers[l])):
        items = sorted(layers[layer], key=lambda it: -it[1]["self_s"])
        self_s = sum(r["self_s"] for _, r in items)
        calls = sum(r["calls"] for _, r in items)
        lines.append(f"{layer:<34} {calls:>9} {self_s:>9.3f} {self_s / total:>7.1%}")
        for name, r in items:
            lines.append(f"  {name:<32} {r['calls']:>9} {r['self_s']:>9.3f} "
                         f"{r['self_s'] / total:>7.1%}")
    lines.append(f"{'(benchmark code)':<34} {'':>9} {bench_self:>9.3f} {bench_self / total:>7.1%}")
    lines.append(f"{'traced total':<34} {'':>9} {total:>9.3f} "
                 + " ".join(f"{p}={v['seconds']:.3f}s" for p, v in summary["phases"].items()))
    return lines


# The phases each per-layer metric reads.  Most read the timed operation
# alone.  The functions that make inputs also read the set-up, and the two
# that only the desk gates call also read the checks.  The benchmark's own
# checks and the approx-grid probe call simulate, approx_schedule and
# parse_schedule as well; those calls are kept out of the metrics.
OP = ("op",)
OP_SETUP = ("op", "setup")
OP_CHECK = ("op", "check")
# approx_schedule searches for the lower bound privately, so the standalone
# probe is where approx-grid's search shows; desk-solve's exact solver calls
# lower_bound inside the operation
OP_PROBE = ("op", "probe")


def layer_metrics(trace: dict, summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced run.

    ``trace.overhead_s`` is what the wrappers add to the traced operation:
    its wrapped calls times the cost of one wrapped empty call, calibrated
    in the traced process (see ``wrapper_cost``).
    """
    funcs = summary["functions"]

    def get(name, field, phases):
        return sum(funcs.get(f"{phase}:{name}", {}).get(field, 0) for phase in phases)

    probe = trace.get("probe", {})
    span_cost, counted_cost = trace["wrapper_cost_s"]
    overhead = sum(
        r["calls"] * (counted_cost if key[3:] in COUNTED else span_cost)
        for key, r in funcs.items() if key.startswith("op:")
    )
    return {
        "graph.parse_graph.s": get("graph.parse_graph", "inclusive_s", OP),
        "graph.build.s": get("graph.build", "inclusive_s", OP_SETUP),
        "graph.bfs_distances.calls": get("graph.bfs_distances", "calls", OP),
        "approx.lower_bound.s": get("approx.lower_bound", "inclusive_s", OP_PROBE),
        "approx.approx_schedule.s": get("approx.approx_schedule", "inclusive_s", OP),
        "approx.approx_schedule.self_s": get("approx.approx_schedule", "self_s", OP),
        "approx.lower_bound.j": probe.get("lower_bound", 0),
        "approx.members": probe.get("members", 0),
        "burning.simulate.s": get("burning.simulate", "inclusive_s", OP),
        "burning.simulate.calls": get("burning.simulate", "calls", OP),
        "burning.parse_schedule.s": get("burning.parse_schedule", "inclusive_s", OP),
        "burning.pad_schedule.s": get("burning.pad_schedule", "inclusive_s", OP_SETUP),
        "paths.optimal_path_schedule.s": get("paths.optimal_path_schedule", "inclusive_s",
                                             OP_SETUP),
        "burning.completion_closed_form.s": get("burning.completion_closed_form", "inclusive_s",
                                                OP_CHECK),
        "exact.schedule_sources.s": get("exact.schedule_sources", "inclusive_s", OP),
        "exact.ordering_feasible.s": get("exact.ordering_feasible", "inclusive_s", OP),
        "exact.ordering_feasible.calls": get("exact.ordering_feasible", "calls", OP),
        "exact.exact_burning_number.s": get("exact.exact_burning_number", "inclusive_s", OP),
        "exact.exact_burning_number.self_s": get("exact.exact_burning_number", "self_s", OP),
        "exact.depths_tried": trace["check_stats"].get("depths_tried", 0),
        "reductions.build_sat_instance.s": get("reductions.build_sat_instance", "inclusive_s",
                                               OP_SETUP),
        "reductions.schedule_to_assignment.s": get("reductions.schedule_to_assignment",
                                                   "inclusive_s", OP_CHECK),
        "cli.main.s": get("cli.main", "inclusive_s", OP),
        "cli.main.self_s": get("cli.main", "self_s", OP),
        "cli.stdout_bytes": trace["stdout_bytes"],
        "trace.overhead_s": overhead,
    }


def wrapper_cost(calls: int = 20_000, batches: int = 5) -> tuple[float, float]:
    """Seconds one wrapped call adds to a bare call: (span, counted).

    Each is the median over ``batches`` of the time of ``calls`` wrapped
    calls of an empty function minus as many bare calls, per call.  The
    calls are made inside a phase, as the operation's are.
    """
    def empty():
        return None

    costs = []
    for counted in (False, True):
        per_call = []
        for _ in range(batches):
            tracer = Tracer()
            wrapped = tracer.wrap(empty, "empty", counted)
            with tracer.phase("calibrate"):
                t0 = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                t1 = time.perf_counter()
                for _ in range(calls):
                    empty()
                t2 = time.perf_counter()
            per_call.append(((t1 - t0) - (t2 - t1)) / calls)
        costs.append(statistics.median(per_call))
    return costs[0], costs[1]


def traced_run(workload_name: str, seed: int, scale: str, work: Path) -> dict:
    """One traced run of a workload in this process; returns the trace record.

    ``startup_s`` is the time spent importing burnkit and installing the
    wrappers, which the untraced child also spends before its operation
    (apart from starting the interpreter itself).
    """
    t0 = time.perf_counter()
    from common import sha256
    from workloads import WORKLOADS, Inputs

    tracer = Tracer()
    wrapped = install(tracer)
    wl = WORKLOADS[workload_name]
    record: dict = {"workload": workload_name, "seed": seed, "scale": scale, "wrapped": wrapped,
                    "startup_s": time.perf_counter() - t0}
    with tracer.phase("op"):
        out = wl.in_process(Inputs(work, seed, scale, {}))
    with tracer.phase("setup"):
        inputs = wl.setup(work, seed, scale)
    if workload_name == "approx-grid":
        import burnkit

        g = inputs.data["graph"]
        with tracer.phase("probe"):
            j = burnkit.approx.lower_bound(g, 1)
            members = len(burnkit.approx.mis_power(g, j).members)
        record["probe"] = {"lower_bound": j, "members": members}
    with tracer.phase("check"):
        fails, stats = wl.check(inputs, out)
    attempted, failed = wl.counts(inputs, out)
    record.update(
        code=out.code,
        attempted=attempted,
        failed=failed,
        stdout_bytes=len(out.stdout),
        stdout_sha256=sha256(out.stdout),
        check_failures=fails,
        check_stats=stats,
        wrapper_cost_s=wrapper_cost(),
        **tracer.to_json(),
    )
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    from common import use_source_tree, work_dir

    use_source_tree()
    record = traced_run(args.workload, args.seed, args.scale, work_dir(args.workload, args.scale))
    Path(args.out).write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
