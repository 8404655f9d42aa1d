#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes; takes a few seconds.

    python3 perfbench/smoke.py

Checks that every workload runs traced and untraced and prints exactly the
metrics BENCHMARK.json names, that a second seed runs unchanged, that each
correctness gate rejects a wrong output, that the trace is written with
spans covering the layers each workload uses, and that the benchmark
refuses to run without the burnkit sources.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

from common import ROOT, WORK, sha256, use_source_tree, work_dir

SCALE = "toy"
LAYERS_USED = {
    "approx-grid": {"graph", "approx", "burning", "cli"},
    "certify-path": {"graph", "burning", "paths", "cli"},
    "desk-solve": {"graph", "approx", "burning", "exact", "reductions"},
}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(workload: str, seed: int, trace: int, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) else None


def check_runs(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in ((0, end_to_end), (1, per_layer)):
            code, lines = run_bench(name, 1, trace)
            result = result_of(lines)
            expect(code == 0 and result is not None and result["correct"],
                   f"{name} trace={trace} runs correct")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(set(result["metrics"]) == names, f"{name} trace={trace} metric names")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} trace={trace} attempted/failed")
        trace_file = work_dir(name, SCALE) / "trace-seed1.json"
        trace = json.loads(trace_file.read_text()) if trace_file.is_file() else {"spans": []}
        spans = trace["spans"]
        expect(bool(spans) and all({"name", "parent", "start", "end", "self"} <= set(s)
                                   for s in spans), f"{name} trace spans written")
        seen = {s["name"].split(".")[0] for s in spans}
        seen |= {c["name"].split(".")[0] for c in trace.get("counted", [])}
        expect(LAYERS_USED[name] <= seen,
               f"{name} trace covers {sorted(LAYERS_USED[name])} (saw {sorted(seen)})")
    code, lines = run_bench("desk-solve", 2, 0)
    expect(code == 0 and (result_of(lines) or {}).get("correct") is True,
           "desk-solve runs unchanged on a second seed")


def rejects(wl, inputs, out, what: str) -> None:
    fails, _ = wl.check(inputs, out)
    expect(bool(fails), f"{wl.name} gate rejects {what}")


def check_gates() -> None:
    import workloads
    from workloads import WORKLOADS

    for name in ("approx-grid", "certify-path"):
        wl = WORKLOADS[name]
        work = work_dir(name, SCALE)
        work.mkdir(parents=True, exist_ok=True)
        inputs = wl.setup(work, 1, SCALE)
        good = wl.in_process(inputs)
        fails, _ = wl.check(inputs, good)
        expect(not fails, f"{name} gate accepts the real output {fails}")
        pinned = workloads.PINNED_STDOUT[(name, SCALE)]
        expect(pinned == sha256(good.stdout), f"{name} toy stdout matches its pinned digest")
        rejects(wl, inputs, replace(good, stdout=good.stdout + b"\n"), "a changed stdout digest")
        saved = dict(workloads.PINNED_STDOUT)
        workloads.PINNED_STDOUT.clear()  # the gates below must fail on their own
        try:
            lines = good.stdout.decode().splitlines()

            def edit(key, value):
                text = "\n".join(f"{key} {value}" if l.split(" ", 1)[0] == key else l
                                 for l in lines) + "\n"
                return replace(good, stdout=text.encode())

            if name == "approx-grid":
                lb = int(next(l.split()[1] for l in lines if l.startswith("lower_bound ")))
                rejects(wl, inputs, edit("completion_round", 3 * lb + 1), "completion > 3*bound")
                rejects(wl, inputs, edit("completion_round", lb - 1), "completion < bound")
                sched = work / "schedule.txt"
                text = sched.read_text()
                head, rest = text.split("\n", 1)
                sched.write_text(head + "\n" + "\n" * rest.count("\n"))
                rejects(wl, inputs, good, "a schedule-out file that does not burn the grid")
                sched.write_text(text)
            else:
                rejects(wl, inputs, edit("valid", "false"), "valid false")
                done = int(next(l.split()[1] for l in lines if l.startswith("completion_round ")))
                rejects(wl, inputs, edit("completion_round", done + 1), "a wrong completion")
                rejects(wl, inputs, edit("burn_round", "1 2 3"), "a short burn_round line")
        finally:
            workloads.PINNED_STDOUT.update(saved)

    import desk

    wl = WORKLOADS["desk-solve"]
    work = work_dir("desk-solve", SCALE)
    work.mkdir(parents=True, exist_ok=True)
    inputs = wl.setup(work, 1, SCALE)
    good = wl.in_process(inputs)
    fails, stats = wl.check(inputs, good)
    expect(not fails and stats["depths_tried"] > 0, f"desk-solve gate accepts the real output {fails}")
    expect(desk.PINNED_VERDICTS.get((SCALE, 1)) == stats["verdict_digest"],
           "desk-solve toy verdicts match their pinned digest")
    rows = good.results["instances"]
    n_formulas = len(inputs.data["corpus"]["formulas"])

    def mutated(index, **changes):
        copy = json.loads(json.dumps(good.results))
        copy["instances"][index].update(changes)
        return replace(good, results=copy)

    sat = next(i for i, f in enumerate(inputs.data["corpus"]["formulas"]) if f["satisfiable"])
    unsat = next(i for i, f in enumerate(inputs.data["corpus"]["formulas"]) if not f["satisfiable"])
    rejects(wl, inputs, mutated(sat, ordering=None), "a satisfiable formula called unsatisfiable")
    rejects(wl, inputs, mutated(unsat, ordering=rows[sat]["ordering"]),
            "an unsatisfiable formula called satisfiable")
    swapped = [[v, 1 + (r % len(rows[sat]["ordering"]))] for v, r in rows[sat]["ordering"]]
    rejects(wl, inputs, mutated(sat, ordering=swapped), "an ordering that maps back to nothing")
    g = n_formulas
    rejects(wl, inputs, mutated(g, b=rows[g]["b"] + 1), "a burning number off by one")
    rejects(wl, inputs, mutated(g, witness=rows[g]["witness"][:-1]), "a truncated witness")
    saved = dict(desk.PINNED_VERDICTS)
    desk.PINNED_VERDICTS[(SCALE, 1)] = "0" * 64
    try:
        rejects(wl, inputs, good, "a changed verdict digest")
    finally:
        desk.PINNED_VERDICTS.clear()
        desk.PINNED_VERDICTS.update(saved)


def check_bare_directory() -> None:
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    code, lines = run_bench("approx-grid", 1, 0, cwd=bare)
    expect(code != 0 and result_of(lines) is None,
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    use_source_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_gates()
    check_bare_directory()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
