#!/usr/bin/env python3
"""The burnkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload approx-grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run repeats a round of set-up (regenerating the
inputs) and one timed operation in a fresh child process, closed loop with
one client, until ``--seconds`` would be exceeded (at least three rounds),
checking every output.  ``setup_s`` and ``wall_s`` are medians over the
rounds, so both sample the same stretch of time on a machine whose speed
drifts.  It prints the end-to-end metrics of BENCHMARK.json.

With ``--trace 1`` it sets up once, runs the operation once untraced and
once in a traced child (see tracing.py), and prints the per-layer metrics
plus a per-layer table; the spans go to
``.bench_work/<workload>/trace-seed<seed>.json``.

The last line of stdout is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every check passed.  Every run also writes
its record (machine, load average at start and end, inputs, samples,
failures) to ``.bench_work/<workload>/run-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from common import (
    ROOT,
    MissingSource,
    environment,
    load_average,
    run_child,
    sha256,
    use_source_tree,
    work_dir,
)

# each round sets up at least once and until SETUP_SLICE_S of set-up has
# been timed, so desk-solve's fifth-of-a-second set-up gets several
# samples per round
SETUP_SLICE_S = 0.5
MIN_OPS = 3  # a median that outvotes one slow operation; approx-grid needs this many
RUN_LIMIT_S = 175  # a child that hangs is killed so the run still ends by then


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def instance_medians(samples: list[list[float]]) -> list[float]:
    """Each instance's median time over the operations of the run.

    Every operation solves the same instances in the same order (one for
    a CLI call, the whole corpus for a desk pass), so this keeps one time
    per instance while a burst of machine noise in one pass is voted down.
    """
    return [statistics.median(times) for times in zip(*samples)]


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def time_left(deadline: float) -> int:
    return max(1, int(deadline - time.monotonic()))


def run_op(wl, inputs, stem: str, deadline: float):
    """One timed operation in a child process, then its checks (not timed)."""
    child = run_child(wl.argv(inputs), inputs.work, stem, time_left(deadline))
    out = wl.outcome(inputs, child.code, child.stdout())
    attempted, failed = wl.counts(inputs, out)
    fails: list[str] = []
    stats: dict = {}
    if child.code == 0:
        fails, stats = wl.check(inputs, out)
    else:
        print(f"op exited {child.code}{' (timed out)' if child.timed_out else ''}: "
              f"{child.stderr()[-500:]}", file=sys.stderr)
    return child, out, attempted, failed, fails, stats


def untraced(wl, args, record: dict, deadline: float) -> tuple[bool, int, int, dict]:
    setup_times: list[float] = []
    ops, samples, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_setup = 0.0
        while round_setup < SETUP_SLICE_S:
            inputs = None  # let the previous inputs go before building the next ones
            t0 = time.perf_counter()
            inputs = wl.setup(record["work"], args.seed, args.scale)
            setup_times.append(time.perf_counter() - t0)
            round_setup += setup_times[-1]
        record["inputs"] = inputs.describe
        child, out, a, f, fails, stats = run_op(wl, inputs, "op", deadline)
        attempted += a
        failed += f
        failures += fails
        record.setdefault("ops", []).append(
            {"code": child.code, "seconds": child.seconds, "rss_mb": child.rss_mb,
             "stdout_sha256": sha256(out.stdout), "check": stats})
        if child.code == 0:
            ops.append(child)
            samples.append(wl.instance_times(out, child.seconds))
        elapsed = time.perf_counter() - start
        if len(record["ops"]) >= MIN_OPS and elapsed + elapsed / len(record["ops"]) > args.seconds:
            break
    record.update(setup_seconds=setup_times, failures=failures)
    if not ops:
        return False, attempted, failed, {}
    per_instance = instance_medians(samples)
    wall = statistics.median(c.seconds for c in ops)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(c.rss_mb for c in ops),
        "ok_frac": (attempted - failed) / attempted,
        "instance_p50_ms": 1000.0 * percentile(per_instance, 0.5),
        "instance_p90_ms": 1000.0 * percentile(per_instance, 0.9),
        "instances_per_s": len(per_instance) / wall,
    }
    record["instances_timed"] = len(per_instance)
    return not failures, attempted, failed, metrics


def traced(wl, args, record: dict, deadline: float) -> tuple[bool, int, int, dict]:
    from tracing import layer_metrics, layer_table, summarize

    work = record["work"]
    t0 = time.perf_counter()
    inputs = wl.setup(work, args.seed, args.scale)
    record.update(inputs=inputs.describe, setup_seconds=[time.perf_counter() - t0])
    child, out, attempted, failed, failures, stats = run_op(wl, inputs, "op", deadline)
    record["ops"] = [{"code": child.code, "seconds": child.seconds, "rss_mb": child.rss_mb,
                      "stdout_sha256": sha256(out.stdout), "check": stats}]
    inputs = out = None  # the traced child needs the memory more
    trace_path = work / f"trace-seed{args.seed}.json"
    trace_path.unlink(missing_ok=True)
    tchild = run_child(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--workload", wl.name,
         "--seed", str(args.seed), "--scale", args.scale, "--out", str(trace_path)],
        work, "traced", time_left(deadline),
    )
    if tchild.code != 0 or not trace_path.is_file():
        failures.append(f"traced run exited {tchild.code}: {tchild.stderr()[-500:]}")
        record["failures"] = failures
        return False, attempted, failed, {}
    trace = json.loads(trace_path.read_text())
    attempted += trace["attempted"]
    failed += trace["failed"]
    failures += [f"traced: {f}" for f in trace["check_failures"]]
    if trace["stdout_sha256"] != record["ops"][0]["stdout_sha256"]:
        failures.append("traced stdout differs from untraced stdout")
    record["failures"] = failures
    if child.code != 0 or trace["code"] != 0:
        return False, attempted, failed, {}
    summary = summarize(trace)
    record["trace_summary"] = summary
    for line in layer_table(summary):
        print(line)
    metrics = layer_metrics(trace, summary)
    traced_s = trace["startup_s"] + summary["phases"]["op"]["seconds"]
    record["trace_overhead"] = {"wrapper_cost_s": trace["wrapper_cost_s"],
                                "traced_op_s": traced_s, "untraced_op_s": child.seconds}
    # the difference of two single samples from different processes is
    # printed for reference only: machine drift alone can swing it by seconds
    print(f"trace.overhead_s {metrics['trace.overhead_s']:.3f} (wrapped calls times the "
          f"calibrated cost of one; one traced op {traced_s:.3f}s with imports minus one "
          f"untraced {child.seconds:.3f}s = {traced_s - child.seconds:.3f}s)")
    return not failures, attempted, failed, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        use_source_tree()
    except MissingSource as e:
        print(f"error: {e}; run from a checkout of the burnkit repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    work = work_dir(wl.name, args.scale)
    work.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "scale": args.scale, "trace": args.trace,
              "seconds": args.seconds, "env": environment(), "work": work}
    record["env"]["loadavg_start"] = load_average()
    run = traced if args.trace else untraced
    correct, attempted, failed, values = run(wl, args, record, deadline)
    record["env"]["loadavg_end"] = load_average()

    end_to_end, per_layer = metric_units()
    units = per_layer if args.trace else end_to_end
    if correct and set(values) != set(units):
        record["failures"].append(f"metric names {sorted(values)} differ from BENCHMARK.json")
        correct = False
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    record.update(work=str(work.relative_to(ROOT)), correct=correct, metrics=metrics)
    (work / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(record["env"]))
    print("inputs " + json.dumps(record.get("inputs", {})))
    print(f"setup_s {record.get('setup_seconds')}")
    for i, op in enumerate(record.get("ops", [])):
        print(f"op {i}: code {op['code']} {op['seconds']:.3f}s rss {op['rss_mb']:.1f}MB "
              f"stdout {op['stdout_sha256'][:16]}")
    for f in record.get("failures", []):
        print(f"FAIL {f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
