"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import random
import time
from itertools import combinations_with_replacement, product

from burnkit import (
    Cnf3,
    approx_schedule,
    assignment_to_schedule,
    build_sat_instance,
    build_vc_instance,
    complete_graph,
    cycle_graph,
    exact_burning_number,
    graph_from_edges,
    grid_graph,
    lower_bound,
    optimal_path_schedule,
    path_burning_number,
    path_graph,
    satisfies,
    schedule_sources,
    schedule_to_assignment,
    schedule_to_vc,
    simulate,
    star_graph,
    vc_to_schedule,
)

from .strategies import brute_force_min_cover, naive_oracle, random_connected_graph, random_graph


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS  [{detail}]")


def connected_corpus():
    """Deterministic corpus: >= 200 random connected graphs plus the named families."""
    rng = random.Random(0xC0FFEE)
    graphs = []
    for _ in range(210):
        n = rng.randint(1, 7)
        graphs.append(random_connected_graph(rng, n))
    for n in range(1, 8):
        graphs.append(complete_graph(n))
        graphs.append(path_graph(n))
        if n >= 3:
            graphs.append(cycle_graph(n))
        if n >= 2:
            graphs.append(star_graph(n))
    return graphs


def test_criterion_1_path_formula_vs_exact():
    start = time.perf_counter()
    checks = 0
    for n in range(1, 21):
        for k in (1, 2, 3):
            b, witness = exact_burning_number(path_graph(n), k)
            want = path_burning_number(n, k)
            assert b == want, (n, k, b, want)
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(1, "path formula", f"{checks} (n,k) pairs, {elapsed:.1f}s")


def test_criterion_2_path_construction():
    start = time.perf_counter()
    checks = 0
    for n in range(1, 401):
        g = path_graph(n)
        for k in range(1, 7):
            sched = optimal_path_schedule(n, k)
            rep = simulate(g, sched, strict=True)
            assert rep.valid, (n, k)
            assert rep.completion_round == path_burning_number(n, k), (n, k)
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _report(2, "path construction", f"{checks} schedules, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    checks = 0
    for g in connected_corpus():
        for k in (1, 2):
            b, _ = exact_burning_number(g, k)
            threshold = next(L for L in range(1, g.n + 1) if naive_oracle(g, k, L))
            assert b == threshold, (list(g.edges()), k, b, threshold)
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(3, "oracle equivalence", f"{checks} checks, {elapsed:.1f}s")


def test_criterion_4_approximation_certificate():
    start = time.perf_counter()
    rng = random.Random(0xAB4)
    violations = 0
    checks = 0
    for _ in range(205):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3, 0.6]))
        for k in (1, 2):
            j = lower_bound(g, k, verify_linear=True)  # raises on any contradiction
            res = approx_schedule(g, k)
            b, _ = exact_burning_number(g, k)
            if not (j == res.lower_bound and j <= b <= res.completion <= 3 * j):
                violations += 1
            checks += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 900
    _report(4, "approximation certificate", f"{checks} checks, {elapsed:.1f}s")


def test_criterion_5_cover_round_trip():
    start = time.perf_counter()
    prism = graph_from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    )
    petersen_edges = []
    for i in range(5):
        petersen_edges.append((i, (i + 1) % 5))
        petersen_edges.append((i, i + 5))
        petersen_edges.append((5 + i, 5 + (i + 2) % 5))
    petersen = graph_from_edges(10, sorted((min(u, v), max(u, v)) for u, v in petersen_edges))

    biggest = 0
    for g in (complete_graph(3), complete_graph(4), prism, petersen):
        cover = brute_force_min_cover(g)
        q = len(cover)
        for k in (1, 2):
            inst = build_vc_instance(g, k, q)
            biggest = max(biggest, inst.gprime.n)
            sched = vc_to_schedule(inst, cover)
            assert len(sched.rounds) == q + 2 * g.n * k + 3, (g.n, k)
            rep = simulate(inst.gprime, sched, strict=True)
            assert rep.valid, (g.n, k)
            recovered = schedule_to_vc(inst, sched)
            assert len(recovered) <= q
            covered = set(recovered)
            assert all(u in covered or v in covered for u, v in g.edges())
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(5, "cover round trip", f"largest instance {biggest} vertices, {elapsed:.1f}s")


def test_criterion_6_sat_equivalence():
    start = time.perf_counter()
    checks = 0
    for n_vars in (1, 2, 3):
        lits = sorted(
            [i for i in range(1, n_vars + 1)] + [-i for i in range(1, n_vars + 1)]
        )
        clause_space = list(combinations_with_replacement(lits, 3))
        assignments = [
            dict(zip(range(1, n_vars + 1), bits))
            for bits in product([False, True], repeat=n_vars)
        ]
        for m in (1, 2, 3):
            for clauses in combinations_with_replacement(clause_space, m):
                cnf = Cnf3(n_vars, tuple(clauses))
                si = build_sat_instance(cnf)
                truth_table_sat = any(satisfies(cnf, a) for a in assignments)
                ordering = schedule_sources(si.inst, 2 * n_vars)
                assert truth_table_sat == (ordering is not None), clauses
                if ordering is not None:
                    extracted = schedule_to_assignment(si, ordering)
                    assert satisfies(cnf, extracted)
                    witness = next(a for a in assignments if satisfies(cnf, a))
                    back = assignment_to_schedule(si, witness)
                    assert sorted(back.values()) == list(range(1, 2 * n_vars + 1))
                checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(6, "sat equivalence", f"{checks} formulas, {elapsed:.1f}s")


def test_criterion_7_complexity_scaling():
    sizes = [100_000, 200_000, 400_000, 1_000_000]
    budget_per_doubling = 2.4

    def measure(build):
        times = []
        actual = []
        for n in sizes:
            g = build(n)
            t0 = time.perf_counter()
            res = approx_schedule(g, 1)
            dt = time.perf_counter() - t0
            assert res.completion <= 3 * res.lower_bound
            times.append(dt)
            actual.append(g.n)
            del g
        return actual, times

    # warm the interpreter so the smallest measurement is not inflated
    approx_schedule(path_graph(10_000), 1)

    results = {}
    for name, build in (
        ("path", path_graph),
        ("grid", lambda n: grid_graph(math.isqrt(n), math.isqrt(n))),
    ):
        actual, times = measure(build)
        doublings = math.log2(actual[-1] / actual[0])
        rate = (times[-1] / times[0]) ** (1.0 / doublings)
        steps = [
            (times[i + 1] / times[i], math.log2(actual[i + 1] / actual[i]))
            for i in range(len(times) - 1)
        ]
        detail = " ".join(
            f"n={n} {t:.2f}s" for n, t in zip(actual, times)
        ) + " | per-step " + " ".join(f"{r:.2f}x/{d:.2f}dbl" for r, d in steps)
        print(f"  scaling {name}: {detail}; rate {rate:.2f}x per doubling")
        assert times[-1] < 60.0, f"{name} at n~1e6 took {times[-1]:.1f}s"
        assert rate <= budget_per_doubling, f"{name} grows {rate:.2f}x per doubling"
        results[name] = rate

    _report(
        7,
        "complexity scaling",
        "; ".join(f"{k} {v:.2f}x per doubling" for k, v in results.items()),
    )


def test_criterion_8_background_bound():
    start = time.perf_counter()
    violations = 0
    checks = 0
    for g in connected_corpus():
        b, _ = exact_burning_number(g, 1)
        # ceil(2*sqrt(n) - 1) in exact integer arithmetic
        root = math.isqrt(4 * g.n)
        bound = root - 1 if root * root == 4 * g.n else root
        if b > bound:
            violations += 1
        checks += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    _report(8, "background bound", f"{checks} connected graphs, {elapsed:.1f}s")
