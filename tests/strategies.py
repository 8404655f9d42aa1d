"""Shared hypothesis strategies and small test oracles."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from burnkit import Graph, Schedule, graph_from_edges


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
