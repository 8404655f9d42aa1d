#!/usr/bin/env python3
"""Doubling ladder for the factor-3 schedule construction (a report, not gated).

    python3 perfbench/ladder.py [--sizes 100000,200000,400000,1000000] [--repeats 1]

Times ``approx_schedule`` on paths and near-square grids across a size
ladder; graph construction is timed on its own and excluded.  Prints the
per-step growth and the normalised per-doubling rate, which acceptance
criterion 7 bounds at 2.4x (and under 60 s at a million vertices), and
writes the rows with the machine record to ``.bench_work/ladder.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from common import WORK, environment, load_average, use_source_tree


def measure(build, sizes: list[int], k: int, repeats: int) -> list[dict]:
    from burnkit import approx_schedule

    rows = []
    for n in sizes:
        t0 = time.perf_counter()
        g = build(n)
        build_s = time.perf_counter() - t0
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = approx_schedule(g, k)
            best = min(best, time.perf_counter() - t0)
        rows.append({"n": g.n, "build_s": build_s, "approx_s": best,
                     "lower_bound": result.lower_bound, "completion": result.completion})
        del g
    return rows


def per_doubling(rows: list[dict]) -> float:
    first, last = rows[0], rows[-1]
    return (last["approx_s"] / first["approx_s"]) ** (1.0 / math.log2(last["n"] / first["n"]))


def print_table(name: str, rows: list[dict]) -> None:
    print(f"\n{name}")
    print(f"{'n':>9}  {'build_s':>8}  {'approx_s':>8}  {'bound':>6}  {'rounds':>6}  {'step':>11}")
    prev = None
    for r in rows:
        step = ""
        if prev is not None:
            step = f"{r['approx_s'] / prev['approx_s']:.2f}x/{math.log2(r['n'] / prev['n']):.2f}dbl"
        print(f"{r['n']:>9}  {r['build_s']:>8.2f}  {r['approx_s']:>8.2f}  {r['lower_bound']:>6}  "
              f"{r['completion']:>6}  {step:>11}")
        prev = r
    print(f"overall: {per_doubling(rows):.2f}x per doubling")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="100000,200000,400000,1000000",
                    help="comma-separated vertex counts")
    ap.add_argument("--k", type=int, default=1, help="spread factor")
    ap.add_argument("--repeats", type=int, default=1, help="take the best of N runs")
    args = ap.parse_args()
    use_source_tree()
    from burnkit import approx_schedule, grid_graph, path_graph

    sizes = [int(tok) for tok in args.sizes.split(",")]
    record = {"env": environment(), "sizes": sizes, "k": args.k, "repeats": args.repeats}
    record["env"]["loadavg_start"] = load_average()
    approx_schedule(path_graph(10_000), args.k)  # warm the interpreter for the first rung
    families = {
        "path": path_graph,
        "grid": lambda n: grid_graph(math.isqrt(n), math.isqrt(n)),
    }
    for name, build in families.items():
        rows = measure(build, sizes, args.k, args.repeats)
        print_table(name, rows)
        record[name] = {"rows": rows, "per_doubling": per_doubling(rows)}
    record["env"]["loadavg_end"] = load_average()
    print("\ncriterion 7 budget: 2.4x per doubling; measured "
          + ", ".join(f"{name} {record[name]['per_doubling']:.2f}x" for name in families))
    WORK.mkdir(exist_ok=True)
    (WORK / "ladder.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
