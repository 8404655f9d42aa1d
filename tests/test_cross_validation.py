"""Independent re-implementations pitted against the production code paths."""

import random
from collections import Counter
from contextlib import suppress
from itertools import chain, combinations, islice, product
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    Cnf3,
    GraphFormatError,
    ReductionError,
    Schedule,
    ScheduleError,
    SchedulingInstance,
    bfs_distances,
    build_sat_instance,
    build_vc_instance,
    exact_burning_number,
    grid_graph,
    lower_bound,
    ordering_feasible,
    pad_schedule,
    parse_graph,
    path_graph,
    schedule_sources,
    schedule_to_vc,
    simulate,
    star_graph,
    vc_to_schedule,
)

from burnkit.approx import _greedy_scatter, _search_lower_bound
from burnkit import graph as graph_module
from burnkit.burning import _run_rounds
from burnkit.graph import _BadEdge, _build

from .strategies import (
    brute_force_min_cover,
    graphs,
    random_connected_graph,
    random_graph,
    random_strict_schedule,
    reference_vc_roles,
)


def rescan_simulate(g, s):
    """Burn rounds by whole-graph rescan each round; no frontier tricks."""
    burn: dict[int, int] = {}
    t = 0
    listed = len(s.rounds)
    while len(burn) < g.n or t < listed:
        t += 1
        newly = [
            v
            for v in range(g.n)
            if v not in burn and any(u in burn and burn[u] < t for u in g.adj[v])
        ]
        for v in newly:
            burn[v] = t
        progressed = bool(newly)
        if t <= listed:
            for v in s.rounds[t - 1]:
                if v not in burn:
                    burn[v] = t
                    progressed = True
        if t >= listed and not progressed:
            break
    return [burn.get(v) for v in range(g.n)]


@settings(max_examples=80)
@given(graphs(max_n=10), st.data())
def test_simulate_matches_rescan_reference(g, data):
    k = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    strict = random_strict_schedule(g, k, rng)
    # also exercise mangled variants: truncated batches and dropped rounds
    variants = [strict]
    if strict.rounds:
        variants.append(Schedule(k, [b[:1] for b in strict.rounds]))
        variants.append(Schedule(k, strict.rounds[:-1]))
    for s in variants:
        assert simulate(g, s, strict=False).burn_round == rescan_simulate(g, s)


def brute_force_schedule(inst, rounds):
    """Lexicographically least feasible assignment by total enumeration,
    judging feasibility through lenient simulation instead of distance
    formulas."""
    srcs = inst.sources
    for combo in product(range(1, rounds + 1), repeat=len(srcs)):
        if any(combo.count(r) > inst.k for r in set(combo)):
            continue
        batches = [[] for _ in range(rounds)]
        for v, r in zip(srcs, combo):
            batches[r - 1].append(v)
        rep = simulate(inst.graph, Schedule(inst.k, batches), strict=False)
        if rep.valid and rep.completion_round <= rounds:
            return dict(zip(srcs, combo))
    return None


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7), st.data())
def test_schedule_sources_matches_brute_force(g, data):
    sources = data.draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, max_size=min(4, g.n), unique=True)
    )
    k = data.draw(st.integers(1, 2))
    rounds = data.draw(st.integers(1, 5))
    inst = SchedulingInstance(g, tuple(sources), k)
    assert schedule_sources(inst, rounds) == brute_force_schedule(inst, rounds)


def reference_schedule_sources(inst, rounds=None):
    """The fixed-source search with its completion bound computed the slow
    way: at every node, each vertex's earliest arrival is a min over every
    source, the unassigned ones placed at the earliest round with spare
    capacity."""
    srcs = list(inst.sources)
    if rounds is None:
        rounds = -(-len(srcs) // inst.k)
    tables = {s: bfs_distances(inst.graph, [s]).dist for s in srcs}
    n = inst.graph.n
    k = inst.k
    for v in range(n):
        if all(tables[s][v] is None for s in srcs):
            return None

    capacity = [0] * (rounds + 1)
    assigned: dict[int, int] = {}

    def earliest_free_round() -> int:
        for r in range(1, rounds + 1):
            if capacity[r] < k:
                return r
        return rounds + 1

    def optimistic_ok() -> bool:
        free = earliest_free_round()
        for v in range(n):
            best = None
            for s in srcs:
                d = tables[s][v]
                if d is None:
                    continue
                r = assigned.get(s, free)
                if r > rounds:
                    continue
                t = r + d
                if best is None or t < best:
                    best = t
            if best is None or best > rounds:
                return False
        return True

    def place(i: int) -> bool:
        if i == len(srcs):
            ok, _ = ordering_feasible(inst, dict(assigned), rounds)
            return ok
        s = srcs[i]
        for r in range(1, rounds + 1):
            if capacity[r] >= k:
                continue
            conflict = False
            for sp, rp in assigned.items():
                d = tables[sp][s]  # hop distances are symmetric
                early, late = min(rp, r), max(rp, r)
                if early != late and d is not None and early + d <= late:
                    conflict = True
                    break
            if conflict:
                continue
            assigned[s] = r
            capacity[r] += 1
            if optimistic_ok() and place(i + 1):
                return True
            capacity[r] -= 1
            del assigned[s]
        return False

    if place(0):
        return dict(sorted(assigned.items()))
    return None


def test_schedule_sources_matches_reference_on_sat_gadgets():
    rng = random.Random(61)
    verdicts = set()
    for n_vars in (3, 4, 5):
        for _ in range(20):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
                for _ in range(round(4.26 * n_vars))
            )
            inst = build_sat_instance(Cnf3(n_vars, clauses)).inst
            got = schedule_sources(inst, 2 * n_vars)
            assert got == reference_schedule_sources(inst, 2 * n_vars), clauses
            verdicts.add(got is None)
    assert verdicts == {True, False}


def test_schedule_sources_matches_reference_on_random_graphs():
    rng = random.Random(62)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(8, 14)
        if rng.random() < 0.25:  # possibly disconnected: unreachable vertices
            g = random_graph(rng, n, 0.2)
        else:
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 2))
        sources = tuple(rng.sample(range(n), rng.randint(1, 8)))
        k = rng.choice([1, 2])
        inst = SchedulingInstance(g, sources, k)
        rounds = rng.choice([None, rng.randint(1, 8)])
        got = schedule_sources(inst, rounds)
        assert got == reference_schedule_sources(inst, rounds), (g.adj, sources, k, rounds)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_schedule_sources_matches_reference_on_wider_instances():
    # 6- and 7-variable gadgets, as at the desk corpus' p90, and k = 3, where
    # a source placed at the earliest round with room may leave room there:
    # each case of the search's bound and of its stop at the first round
    # the bound rules out
    rng = random.Random(63)
    verdicts = Counter()
    for n_vars in (6, 7):
        for _ in range(10):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
                for _ in range(round(4.26 * n_vars))
            )
            inst = build_sat_instance(Cnf3(n_vars, clauses)).inst
            got = schedule_sources(inst, 2 * n_vars)
            assert got == reference_schedule_sources(inst, 2 * n_vars), clauses
            verdicts[n_vars, got is None] += 1
    for _ in range(80):
        n = rng.randint(8, 14)
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 2))
        sources = tuple(rng.sample(range(n), rng.randint(3, n)))
        inst = SchedulingInstance(g, sources, 3)
        rounds = rng.choice([None, rng.randint(1, 5)])
        got = schedule_sources(inst, rounds)
        assert got == reference_schedule_sources(inst, rounds), (g.adj, sources, rounds)
        verdicts[3, got is None] += 1
    assert all(verdicts[group, verdict] for group in (6, 7, 3) for verdict in (True, False))


@pytest.mark.parametrize("bit_vertices", [10**9, 0], ids=["bit-table", "bfs-lists"])
def test_schedule_sources_reads_the_pairs_within_rounds_minus_one_hops(monkeypatch, bit_vertices):
    # a node reads only the earlier sources within rounds - 1 hops: on these
    # paths a pair exactly rounds - 1 hops apart binds the least witness, and
    # one exactly rounds hops apart, which no two rounds in 1..rounds span,
    # is left out; the search dropping the first pair would return an
    # ordering the certifying pass rejects
    monkeypatch.setattr("burnkit.exact._BIT_VERTICES", bit_vertices)
    cases = [
        # rounds 4: 4-7 is 3 hops (binds), 0-4 is 4 hops (does not)
        (8, (0, 2, 4, 7), 1, 4, {0: 4, 2: 3, 4: 2, 7: 1}),
        # rounds 3: 1-3 and 4-6 are 2 hops (bind), 0-3, 1-4 and 3-6 are 3
        (8, (0, 1, 3, 4, 6), 2, 3, {0: 3, 1: 3, 3: 2, 4: 2, 6: 1}),
        # rounds 2: 0-1 and 1-2 are 1 hop (bind), 0-2 is 2 hops (does not)
        (3, (0, 1, 2), 2, 2, None),
    ]
    for n, sources, k, rounds, want in cases:
        inst = SchedulingInstance(path_graph(n), sources, k)
        assert reference_schedule_sources(inst, rounds) == want
        assert schedule_sources(inst, rounds) == want, (sources, k, rounds)


def reference_ordering_feasible(inst, ordering, rounds):
    """The ordering judge by distance formulas instead of simulation: a
    source at round r is burnt at ignition when an earlier source at rp sits
    within r - rp hops, and a vertex burns at min over sources of r + d."""
    tables = {s: bfs_distances(inst.graph, [s]).dist for s in inst.sources}
    if sorted(ordering) != list(inst.sources):
        return False, "ordering must assign exactly the instance sources"
    per_round: dict[int, int] = {}
    for s, r in ordering.items():
        if not (1 <= r <= rounds):
            return False, f"source {s} assigned round {r} outside 1..{rounds}"
        per_round[r] = per_round.get(r, 0) + 1
        if per_round[r] > inst.k:
            return False, f"round {r} ignites more than k={inst.k} sources"
    items = sorted(ordering.items(), key=lambda it: it[1])
    for i, (s, r) in enumerate(items):
        for sp, rp in items[:i]:
            if rp == r:
                continue
            d = tables[sp][s]
            if d is not None and rp + d <= r:
                return False, f"source {s} is already burnt at round {r} (via {sp}@{rp})"
    for v in range(inst.graph.n):
        best = None
        for s, r in ordering.items():
            d = tables[s][v]
            if d is not None and (best is None or r + d < best):
                best = r + d
        if best is None or best > rounds:
            return False, f"vertex {v} does not burn by round {rounds}"
    return True, ""


def random_orderings(rng, inst, rounds):
    """Orderings of every kind: the search's witness, in-range rounds,
    rounds one past either end, and a source dropped or a stranger added;
    keys are inserted in random order, which decides ties within a round."""
    srcs = list(inst.sources)
    witness = schedule_sources(inst, rounds)
    if witness is not None:
        yield witness
    for _ in range(6):
        lo, hi = (0, rounds + 1) if rng.random() < 0.2 else (1, rounds)
        pairs = [(s, rng.randint(lo, hi)) for s in srcs]
        if rng.random() < 0.05:
            pairs.pop(rng.randrange(len(pairs)))
        elif rng.random() < 0.05:
            pairs.append((rng.choice([v for v in range(inst.graph.n + 1) if v not in srcs]), 1))
        rng.shuffle(pairs)
        yield dict(pairs)


ORDERING_REASONS = ("exactly the instance sources", "outside 1..", "more than k=", "already burnt")


def test_ordering_feasible_matches_distance_formulas():
    rng = random.Random(63)
    kinds = set()
    for _ in range(150):
        n = rng.randint(2, 12)
        if rng.random() < 0.3:  # possibly disconnected: unreachable vertices
            g = random_graph(rng, n, 0.25)
        else:
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 2))
        inst = SchedulingInstance(g, tuple(rng.sample(range(n), rng.randint(1, min(n, 6)))),
                                  rng.choice([1, 2, 3]))
        rounds = rng.randint(1, 6)
        for ordering in random_orderings(rng, inst, rounds):
            got = ordering_feasible(inst, ordering, rounds)
            ok, why = reference_ordering_feasible(inst, ordering, rounds)
            assert got == (ok, why.split(" (via ")[0]), (g.adj, inst.sources, inst.k, ordering)
            if ok:
                adjacent = any(ordering.get(v) == r for u, r in ordering.items() for v in g.adj[u])
                kinds.add("same-round neighbours" if adjacent else "feasible")
            elif why.startswith("vertex"):
                reach = bfs_distances(g, list(ordering)).dist[int(why.split()[1])]
                kinds.add("unreachable vertex" if reach is None else "late vertex")
            else:
                kinds.add(next(key for key in ORDERING_REASONS if key in why))
    assert kinds == {"feasible", "same-round neighbours", "unreachable vertex", "late vertex",
                     *ORDERING_REASONS}


# (n, m, (b, witness rounds) at k = 1, the same at k = 2), drawn in order
# from random.Random(2020) by random_connected_graph
PINNED_EXACT = [
    (16, 26, (3, [[0], [1], [10]]), (3, [[0, 1], [7, 10]])),
    (13, 22, (3, [[0], [5]]), (3, [[0, 1], [2, 6]])),
    (15, 14, (4, [[0], [5], [1]]), (3, [[0, 1], [5, 6], [10]])),
    (12, 21, (3, [[1], [2], [11]]), (2, [[1, 10], [8, 9]])),
    (15, 28, (3, [[0], [1]]), (3, [[0, 1], [2, 4]])),
    (14, 19, (3, [[0], [10], [9]]), (3, [[0, 1], [2, 10]])),
    (16, 19, (4, [[0], [1], [9]]), (3, [[0, 1], [3, 5], [10, 15]])),
    (15, 19, (3, [[4], [1], [13]]), (3, [[0, 1], [3, 5]])),
    (14, 23, (3, [[1], [10], [12]]), (3, [[0, 1], [3, 7]])),
    (15, 21, (4, [[0], [1], [9]]), (3, [[0, 1], [5, 8]])),
]


def test_exact_witnesses_are_pinned():
    rng = random.Random(2020)
    for n, m, *by_k in PINNED_EXACT:
        g = random_connected_graph(rng, rng.randint(12, 16))
        assert (g.n, g.m) == (n, m)
        for k, (b, rounds) in enumerate(by_k, start=1):
            got_b, witness = exact_burning_number(g, k)
            assert (got_b, witness.rounds) == (b, rounds), (n, m, k)


def reference_exact_burning_number(g, k):
    """The exact solver as it was before its batch enumeration pruned by
    prefix: every child batch of a node is built in full from
    ``combinations`` and judged on its own, and each ball row comes from
    a full distance table per vertex."""
    n = g.n
    full = (1 << n) - 1
    start_l = lower_bound(g, k)
    top = 3 * start_l
    ball = []
    for v in range(n):
        dist = bfs_distances(g, [v]).dist
        ball.append([sum(1 << u for u, d in enumerate(dist) if d is not None and d <= r)
                     for r in range(top + 1)])
    maxball = [max(ball[v][d].bit_count() for v in range(n)) for d in range(top + 1)]

    def try_depth(limit):
        cap = [0] * (limit + 2)
        for r in range(limit, 0, -1):
            cap[r] = cap[r + 1] + k * maxball[limit - r]

        def dfs(r, covered, acc):
            uncovered = full & ~covered
            radius = limit - r
            cands = [v for v in range(n) if ball[v][radius] & uncovered]
            need = n - cap[r + 1]
            for batch in combinations(cands, min(k, len(cands))):
                cov = covered
                for v in batch:
                    cov |= ball[v][radius]
                if cov == full:
                    return acc + [list(batch)]
                if cov.bit_count() < need:
                    continue
                found = dfs(r + 1, cov, acc + [list(batch)])
                if found is not None:
                    return found
            return None

        return dfs(1, 0, []) if n <= cap[1] else None

    depth = start_l
    while (batches := try_depth(depth)) is None:
        depth += 1
    return depth, Schedule(k, _run_rounds(g, k, batches, "pad")[3])


def test_exact_matches_reference_search():
    rng = random.Random(64)
    ks = set()
    for _ in range(60):
        n = rng.randint(8, 14)
        if rng.random() < 0.25:  # possibly disconnected
            g = random_graph(rng, n, 0.25)
        else:
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 2))
        k = rng.choice([1, 2, 3])  # k = 3 takes the prefix bound to depth 2
        b, witness = exact_burning_number(g, k)
        ref_b, ref_witness = reference_exact_burning_number(g, k)
        assert (b, witness.rounds) == (ref_b, ref_witness.rounds), (g.adj, k)
        ks.add(k)
    assert ks == {1, 2, 3}


def test_exact_matches_reference_search_where_the_packing_bound_cuts():
    # sparse graphs of 25-40 vertices with b >= 4, k = 1 and 2 in turn: the
    # packing bound, which the reference search lacks, cuts nodes in each
    rng = random.Random(7)
    checked = 0
    while checked < 12:
        n = rng.randint(25, 40)
        k = 1 + checked % 2
        g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 4))
        b, witness = exact_burning_number(g, k)
        if b < 4:
            continue
        ref_b, ref_witness = reference_exact_burning_number(g, k)
        assert (b, witness.rounds) == (ref_b, ref_witness.rounds), (g.adj, k)
        checked += 1


def reference_search_lower_bound(g, k):
    """The lower-bound search as it was before probes returned truncated
    orders: a gallop of early-exit probes that record nothing when they
    fail, closed by bisection with a power-law fit of the exact sizes
    (refinement probes run to 4kj picks to record them) and a midpoint
    after two model guesses in a row."""
    n = g.n
    sizes = {}
    orders = {}

    def probe(j, cap):
        order = _greedy_scatter(g, j, limit=cap)
        if cap is not None and len(order) > cap:
            return False
        sizes[j] = len(order)
        orders[j] = order
        return len(order) <= k * j

    if probe(1, k):
        return 1, orders[1]
    lo = 1
    hi = 2
    while hi < n and not probe(hi, k * hi):
        lo = hi
        hi *= 2
    hi = min(hi, n)
    if hi not in sizes:
        ok = probe(hi, None)
        assert ok

    streak = 0
    while lo + 1 < hi:
        guess = None
        if streak < 2:
            a = max((j for j in sizes if j <= lo), default=None)
            b = min((j for j in sizes if j >= hi), default=None)
            if a is None or b is None or a == b:
                pts = sorted(sizes)
                if len(pts) >= 2:
                    a, b = pts[-2], pts[-1]
            if a is not None and b is not None and a != b and sizes[a] > sizes[b] > 0:
                d = log(sizes[a] / sizes[b]) / log(b / a)
                if 0.1 < d < 16.0:
                    c = sizes[a] * (a ** d)
                    jh = round((c / k) ** (1.0 / (d + 1.0)))
                    guess = min(max(jh, lo + 1), hi - 1)
        if guess is None:
            mid = (lo + hi) // 2
            streak = 0
        else:
            mid = guess
            streak += 1
        if probe(mid, 4 * k * mid):
            hi = mid
        else:
            lo = mid
    return hi, orders[hi]


def test_lower_bound_search_matches_reference_search():
    rng = random.Random(707)
    corpus = []
    for _ in range(60):
        n = rng.randint(1, 400)
        if rng.random() < 0.25:  # possibly disconnected
            corpus.append(random_graph(rng, n, rng.uniform(0.5, 3.0) / n))
        else:
            corpus.append(random_connected_graph(rng, n))
    corpus += [random_connected_graph(rng, rng.randint(1, 3000), extra_edges=0)
               for _ in range(20)]  # trees
    corpus += [path_graph(n) for n in (1, 2, 3, 9, 50, 257, 1000, 4099)]
    corpus += [star_graph(n) for n in (1, 2, 5, 300)]
    corpus += [grid_graph(r, c) for r, c in ((1, 1), (2, 7), (10, 10), (17, 40), (60, 60))]
    for g in corpus:
        for k in (1, 2, 3):
            assert _search_lower_bound(g, k) == reference_search_lower_bound(g, k), (g.n, g.m, k)


@pytest.mark.parametrize("k", [1, 2])
def test_vc_round_trip_random_graphs(k):
    rng = random.Random(k * 1000 + 7)
    for _ in range(8):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        if g.m == 0:
            continue
        cover = brute_force_min_cover(g)
        q = len(cover)
        inst = build_vc_instance(g, k, q)
        sched = vc_to_schedule(inst, cover)
        assert len(sched.rounds) == q + 2 * n * k + 3
        rep = simulate(inst.gprime, sched)
        assert rep.valid
        recovered = set(schedule_to_vc(inst, sched))
        assert len(recovered) <= q
        assert all(u in recovered or v in recovered for u, v in g.edges())


def test_vc_connected_round_trip_random_graphs():
    rng = random.Random(404)
    for _ in range(5):
        n = rng.randint(2, 5)
        g = random_connected_graph(rng, n)
        if g.m == 0:
            continue
        cover = brute_force_min_cover(g)
        inst = build_vc_instance(g, 1, len(cover), connected=True)
        sched = vc_to_schedule(inst, cover)
        rep = simulate(inst.gprime, sched)
        assert rep.valid and len(sched.rounds) == inst.round_bound
        recovered = set(schedule_to_vc(inst, sched))
        assert len(recovered) <= len(cover)
        assert all(u in recovered or v in recovered for u, v in g.edges())


def reference_schedule_to_vc(inst, s):
    """The member-set extraction schedule_to_vc replaced: per base edge, the
    gadget and both endpoints' (nk+1)-hop balls gathered into one set, and
    each source tested for membership in it."""
    report = simulate(inst.gprime, s, strict=True)
    if not report.valid:
        why = report.violations[0].reason if report.violations else "incomplete burn"
        raise ReductionError(f"schedule is not strict-valid: {why}")
    if len(s.rounds) > inst.round_bound or report.completion_round > inst.round_bound:
        raise ReductionError(f"schedule exceeds {inst.round_bound} rounds")
    radius = inst.n * inst.k + 1
    parts = {}
    for vid, role in enumerate(reference_vc_roles(inst)):
        if role[0] == "e":
            key = (min(role[1], role[2]), max(role[1], role[2]))
        elif role[0] in ("d", "tail"):
            key = (role[1], role[2])
        else:
            continue
        parts.setdefault(key, set()).add(vid)
    sources = [v for batch in s.rounds for v in batch]
    big = inst.gprime.n + 1
    cover = set()
    for b, c in inst.base_edges:
        db = bfs_distances(inst.gprime, [b]).dist
        dc = bfs_distances(inst.gprime, [c]).dist
        members = set(parts[(b, c)])
        members.update(x for x in range(inst.gprime.n) if db[x] is not None and db[x] <= radius)
        members.update(x for x in range(inst.gprime.n) if dc[x] is not None and dc[x] <= radius)
        for src in sources:
            if src not in members:
                continue
            a = db[src] if db[src] is not None else big
            bb = dc[src] if dc[src] is not None else big
            if a < bb or (a == bb and b < c):
                cover.add(b)
            else:
                cover.add(c)
    for b, c in inst.base_edges:
        if b not in cover and c not in cover:
            raise ReductionError(f"extracted set misses edge ({b},{c}); invalid instance/schedule pair")
    if len(cover) > inst.q:
        raise ReductionError(f"extracted set has {len(cover)} vertices, budget is {inst.q}")
    if inst.connected:
        cover = {x for x in cover if x < inst.original_n}
        if len(cover) > inst.original_q:
            raise ReductionError(
                f"stripped cover has {len(cover)} vertices, budget is {inst.original_q}"
            )
    return sorted(cover)


def extraction_outcome(extract, inst, sched):
    try:
        return extract(inst, sched)
    except ReductionError as e:
        return str(e)


def vc_round_trip_cases(spare=0):
    """(instance, schedule) pairs drawn as the plain and connected VC round
    trips above draw them, from the same seeds but more graphs.  The budget
    is ``spare`` above the minimum cover, which the schedule burns."""
    for k, seed, tries, connected in ((1, 1007, 40, False), (2, 2007, 40, False), (1, 404, 20, True)):
        rng = random.Random(seed)
        for _ in range(tries):
            g = random_connected_graph(rng, rng.randint(2, 5 if connected else 6))
            cover = brute_force_min_cover(g)
            if g.m and len(cover) + spare <= g.n:
                inst = build_vc_instance(g, k, len(cover) + spare, connected=connected)
                yield inst, vc_to_schedule(inst, cover)


def same_extraction(inst, sched):
    """Whether both extractions agree on sched, padded; None if it cannot be padded."""
    try:
        sched = pad_schedule(inst.gprime, sched)
    except ScheduleError:
        return None  # a source burns before its round
    got = extraction_outcome(schedule_to_vc, inst, sched)
    assert got == extraction_outcome(reference_schedule_to_vc, inst, sched)
    return isinstance(got, list)


def test_schedule_to_vc_matches_the_member_set_extraction():
    # the round trips, then each with one source moved a hop into an e or d
    # vertex of its gadget: sources the round trips never place there
    moved = 0
    for inst, sched in vc_round_trip_cases():
        assert same_extraction(inst, sched)
        roles = reference_vc_roles(inst)
        for i, batch in enumerate(sched.rounds):
            for p, v in enumerate(batch):
                for u in inst.gprime.adj[v]:
                    if roles[u][0] in ("e", "d"):
                        rounds = [list(b) for b in sched.rounds]
                        rounds[i][p] = u
                        moved += bool(same_extraction(inst, Schedule(sched.k, rounds)))
    assert moved >= 250, moved


def test_schedule_to_vc_matches_it_on_a_source_anywhere_in_a_gadget():
    # a budget one above the minimum cover leaves a round for one more
    # source: put it on each vertex of every id region in turn.  A tail
    # vertex lies more than nk + 1 hops from both endpoints, so only its
    # gadget makes it count
    accepted, compared = Counter(), Counter()
    for inst, sched in islice(vc_round_trip_cases(spare=1), 0, None, 4):
        for x, role in enumerate(reference_vc_roles(inst)):
            same = same_extraction(inst, Schedule(sched.k, [[x]] + sched.rounds))
            accepted[role[0]] += bool(same)
            compared[role[0]] += same is not None
    assert min(accepted[role] for role in ("e", "d", "tail")) >= 20, accepted
    assert min(compared[role] for role in ("v", "iso", "backbone")) >= 10, compared


def reference_parse_graph(text):
    """The whole-text parser that slice-wise conversion replaced: split into lines, count, convert."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphFormatError(1, "missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(1, f"expected 'n m', got {lines[0].strip()!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(1, f"expected two integers, got {lines[0].strip()!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(1, "n and m must be non-negative")

    out_of_range = "vertex id out of range in ({u},{v})"
    ids = None
    counts = Counter(map(len, map(str.split, islice(lines, 1, None))))
    if counts.keys() <= {0, 2} and counts[2] == m:
        vid = None
        if n <= 2 * m and text.find("-", len(lines[0])) < 0:
            vid = list(range(n))
        tokens = map(int, chain.from_iterable(map(str.split, islice(lines, 1, None))))
        with suppress(ValueError, IndexError):
            ids = list(tokens if vid is None else map(vid.__getitem__, tokens))
        if ids is not None:
            try:
                return _build(n, ids, out_of_range, vid)
            except _BadEdge:
                pass
    ids, where, error = [], [], None
    for idx, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(where) == m:
            error = GraphFormatError(idx, f"more than {m} edge lines")
        elif len(parts) != 2:
            error = GraphFormatError(idx, f"expected 'u v', got {raw.strip()!r}")
        else:
            try:
                ids += (int(parts[0]), int(parts[1]))
                where.append(idx)
                continue
            except ValueError:
                error = GraphFormatError(idx, f"expected two integers, got {raw.strip()!r}")
        break
    try:
        _build(n, ids, out_of_range)
    except _BadEdge as e:
        raise GraphFormatError(where[e.args[1]], e.args[0]) from None
    raise error or GraphFormatError(len(lines) + 1, f"expected {m} edges, found {len(where)}")


# spellings of an id other than its canonical digits, and tokens that are no id
ID_SPELLINGS = [
    lambda v: f"00{v}", lambda v: f"+{v}", lambda v: f"-{v}" if v == 0 else str(v),
    lambda v: "_".join(str(v)) if v >= 10 else str(v),
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
]
BAD_TOKENS = ["-1", "x", "1_", "", "1 2", "--0", "０"]


def random_edge_document(rng):
    """An edge-list document: canonical, or with one to three of its layouts or edges changed."""
    n = rng.randrange(1, 14)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [list(map(str, p if rng.random() < 0.5 else p[::-1]))
            for p in rng.sample(pairs, rng.randrange(min(len(pairs), 9) + 1))]
    m, eol, final = len(rows), "\n", True
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        kind = rng.randrange(9)
        row = rng.choice([r for r in rows if len(r) == 2] or [None])
        if kind == 0:
            eol = rng.choice(["\r\n", "\r", "\n\n", " \n", "\t\n"])
        elif kind == 1:
            final = False
        elif kind == 2:
            m += rng.choice([-1, 1])
        elif kind == 3 and row:
            row[rng.randrange(2)] = rng.choice(["-1", str(n), row[0]])  # out of range or loop
        elif kind == 4 and row:  # a duplicate, counted in the header or not
            rows.insert(rng.randrange(len(rows) + 1), rng.choice([list(row), row[::-1]]))
            m += rng.random() < 0.5
        elif kind == 5 and row and row[0].isdecimal():
            row[0] = rng.choice(ID_SPELLINGS)(int(row[0]))
        elif kind == 6 and row:
            row[rng.randrange(2)] = rng.choice(BAD_TOKENS)
        elif kind == 7:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice([[], [""], ["\t"], ["7"]]))
        elif row:
            row.insert(1, rng.choice(["", "\t", "  "]))  # joined with the separator below
    sep = rng.choice([" ", " ", " ", "\t"])
    lines = [f"{n} {m}"] + [sep.join(r) for r in rows]
    return eol.join(lines) + (eol if final else "")


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except GraphFormatError as e:
        return ("error", str(e), e.line)
    return ("graph", g.n, g.adj)


@pytest.mark.parametrize("slice_chars", [1, 5, 23, graph_module._SLICE])
def test_parse_graph_matches_reference_parser(monkeypatch, slice_chars):
    monkeypatch.setattr(graph_module, "_SLICE", slice_chars)
    rng = random.Random(8)
    kinds = Counter()
    for _ in range(3000):
        text = random_edge_document(rng)
        outcome = parse_outcome(parse_graph, text)
        assert outcome == parse_outcome(reference_parse_graph, text), text
        kinds[outcome[0]] += 1
    assert min(kinds.values()) > 600  # both outcomes well represented
