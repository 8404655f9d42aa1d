"""Shared hypothesis strategies and small test oracles."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from burnkit import Graph, Schedule, graph_from_edges, original_edges


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 16, connected: bool = False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    else:
        edges = set()
    if connected and n > 1:
        seed = draw(st.integers(0, 2**32 - 1))
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u, v = order[rng.randrange(i)], order[i]
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, sorted(edges))


@st.composite
def graph_and_strict_schedule(draw, max_n: int = 12, max_k: int = 3):
    """A graph together with a random strict-valid schedule for it."""
    g = draw(graphs(max_n=max_n))
    k = draw(st.integers(1, max_k))
    seed = draw(st.integers(0, 2**32 - 1))
    return g, random_strict_schedule(g, k, random.Random(seed))


@st.composite
def graph_and_schedule(draw, max_n: int = 10, max_k: int = 3):
    """A graph with a structurally sound schedule, strict-valid or not.

    Half are random strict schedules, some with a batch cut short or a
    round appended; the rest are random batches of distinct vertices.
    """
    g = draw(graphs(min_n=0, max_n=max_n))
    k = draw(st.integers(1, max_k))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if g.n and draw(st.booleans()):
        s = random_strict_schedule(g, k, rng)
        if s.rounds and draw(st.booleans()):
            batch = rng.choice(s.rounds)
            if batch and rng.random() < 0.5:
                batch.pop()
            else:
                s.rounds.append([])
        return g, s
    order = list(range(g.n))
    rng.shuffle(order)
    rounds = []
    while order and rng.random() < 0.8:
        rounds.append(sorted(order.pop() for _ in range(min(len(order), rng.randint(0, k)))))
    return g, Schedule(k, rounds)


def random_strict_schedule(g: Graph, k: int, rng: random.Random) -> Schedule:
    """Sample a strict-valid schedule by running the process with random batches."""
    n = g.n
    burn = [False] * n
    frontier: list[int] = []
    rounds: list[list[int]] = []
    unburnt = n
    while unburnt:
        new = []
        for x in frontier:
            for u in g.adj[x]:
                if not burn[u]:
                    burn[u] = True
                    new.append(u)
        unburnt -= len(new)
        if not unburnt:
            break
        avail = [v for v in range(n) if not burn[v]]
        batch = sorted(rng.sample(avail, min(k, len(avail))))
        for v in batch:
            burn[v] = True
        unburnt -= len(batch)
        rounds.append(batch)
        frontier = new + batch
    return Schedule(k, rounds)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra_edges: int | None = None) -> Graph:
    edges: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    for _ in range(extra_edges):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return graph_from_edges(n, sorted(edges))


def floyd_warshall(g: Graph) -> list[list[float]]:
    """All-pairs hop distances by the cubic recurrence; the BFS yardstick."""
    inf = float("inf")
    d = [[inf] * g.n for _ in range(g.n)]
    for v in range(g.n):
        d[v][v] = 0
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for w in range(g.n):
        dw = d[w]
        for u in range(g.n):
            duw = d[u][w]
            if duw == inf:
                continue
            du = d[u]
            for v in range(g.n):
                alt = duw + dw[v]
                if alt < du[v]:
                    du[v] = alt
    return d


def reference_vc_gadget(g: Graph, k: int, q: int, connected: bool = False):
    """The role-tagging cover gadget builder that id arithmetic replaced: the
    gadget graph and a role tag per vertex, allocated one id at a time.

    Role tags:
      ("v", x)          copy of base-graph vertex x
      ("e", a, b)       edge endpoint vertex on a's side of base edge {a, b}
      ("d", u, v, i)    i-th division vertex of base edge (u, v), u < v, i >= 1
      ("tail", u, v, i) i-th tail vertex of base edge (u, v)
      ("iso", i)        i-th isolated vertex (backbone anchor in the connected variant)
      ("backbone", i)   i-th non-anchor backbone path vertex (connected variant only)
    """
    if connected:
        w, z = g.n, g.n + 1
        base_n = g.n + 2
        base_edges = sorted(list(g.edges()) + [(0, w), (w, z)])
        budget = q + 1
    else:
        base_n = g.n
        base_edges = sorted(g.edges())
        budget = q

    d_count = 2 * base_n * k
    roles: list[tuple] = []

    def alloc(role: tuple) -> int:
        roles.append(role)
        return len(roles) - 1

    for x in range(base_n):
        alloc(("v", x))

    edges_out: list[tuple[int, int]] = []
    for u, v in base_edges:
        uv = alloc(("e", u, v))
        vu = alloc(("e", v, u))
        d_ids = [alloc(("d", u, v, i)) for i in range(1, d_count + 1)]
        t_ids = [alloc(("tail", u, v, i)) for i in range(1, base_n + 1)]
        path = [u, uv, *d_ids, vu, v]
        edges_out.extend(zip(path, path[1:]))
        # tail hangs off the lower median division vertex d_{nk}
        path = [d_ids[base_n * k - 1], *t_ids]
        edges_out.extend(zip(path, path[1:]))

    if not connected:
        for i in range(1, (k - 1) * budget + k * (2 * base_n * k + 3) + 1):
            alloc(("iso", i))
    else:
        # backbone off w: a run of q + 2n + 2 spacer vertices, then 2n + 3
        # blocks of 2n + 2 spacers each ending in an anchor
        prev = w
        bb = 0
        for _ in range(budget + 2 * base_n + 2):
            bb += 1
            cur = alloc(("backbone", bb))
            edges_out.append((prev, cur))
            prev = cur
        for j in range(1, 2 * base_n + 3 + 1):
            for _ in range(2 * base_n + 2):
                bb += 1
                cur = alloc(("backbone", bb))
                edges_out.append((prev, cur))
                prev = cur
            cur = alloc(("iso", j))
            edges_out.append((prev, cur))
            prev = cur

    return graph_from_edges(len(roles), edges_out), roles


def reference_vc_roles(inst) -> list[tuple]:
    """The reference builder's role tags for a VcInstance's gadget."""
    g = graph_from_edges(inst.original_n, original_edges(inst))
    return reference_vc_gadget(g, inst.k, inst.original_q, inst.connected)[1]


def brute_force_min_cover(g: Graph) -> list[int]:
    """Smallest vertex cover by subset enumeration (test-size graphs only)."""
    edges = list(g.edges())
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in edges):
                return sorted(chosen)
    raise AssertionError("unreachable")


def naive_oracle(g: Graph, k: int, rounds: int) -> bool:
    """Brute force: does any strict schedule finish within ``rounds`` rounds?

    Enumerates every batch choice of size min(k, available) round by round
    through the real simulation state.  Batch order within a round does not
    affect burning, so unordered combinations lose nothing.  Enforced to
    n <= 9; this is the independent yardstick the exact solver is measured
    against.
    """
    if g.n > 9:
        raise ValueError("naive oracle is restricted to n <= 9")
    if g.n == 0:
        return True
    if k < 1 or rounds < 1:
        raise ValueError("k and rounds must be positive")
    n = g.n
    full = (1 << n) - 1
    neighbor_mask = [0] * n
    for v in range(n):
        for u in g.adj[v]:
            neighbor_mask[v] |= 1 << u
    memo: dict[tuple[int, int], bool] = {}

    def step(mask: int, t: int) -> bool:
        if mask == full:
            return True
        if t > rounds:
            return False
        key = (mask, t)
        got = memo.get(key)
        if got is not None:
            return got
        spread = mask
        probe = mask
        while probe:
            v = (probe & -probe).bit_length() - 1
            spread |= neighbor_mask[v]
            probe &= probe - 1
        avail = [v for v in range(n) if not (spread >> v) & 1]
        take = min(k, len(avail))
        ok = False
        if not avail:
            ok = spread == full
        else:
            for batch in combinations(avail, take):
                nxt = spread
                for v in batch:
                    nxt |= 1 << v
                if step(nxt, t + 1):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return step(0, 1)
