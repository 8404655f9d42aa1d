"""Certified lower bound and factor-3 burning schedules via graph powers.

The lower bound comes from greedy maximal independent sets of even powers
of the graph: a set whose members are pairwise more than 2r hops apart
lower-bounds every dominating set of the r-th power, and any k-burning
process finishing in t rounds leaves a dominating set of size <= k*t in
the t-th power.  The smallest index j with |M(j)| <= k*j therefore bounds
the burning number from below, and igniting M(j) burns everything within
3j rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import log

from .burning import Schedule, _run_rounds, simulate
from .graph import Graph


class UndeterminedError(RuntimeError):
    """Search gave up before settling on a value (round or time bound hit)."""


@dataclass
class MisResult:
    """Greedy maximal independent set of the 2r-th power of a graph.

    Members are pairwise more than 2r hops apart and every vertex lies
    within 2r hops of some member.  ``order`` is the greedy pick order
    (ascending ids), which doubles as the ignition priority.
    """

    radius: int
    members: frozenset[int]
    order: tuple[int, ...]


@dataclass
class ApproxResult:
    lower_bound: int
    schedule: Schedule
    completion: int


def _greedy_scatter(g: Graph, r: int, limit: int | None = None) -> list[int] | None:
    """Greedy pick order for mis_power; truncated BFS marks 2r-hop balls.

    When ``limit`` is given, returns None as soon as the pick count exceeds
    it (used as an early-exit size predicate).  A vertex visited at depth d
    is never re-expanded from depth >= d: the earlier visit had at least as
    much remaining budget, so nothing new is reachable.
    """
    n = g.n
    adj = g.adj
    budget = 2 * r
    sentinel = budget + 1
    depth = [sentinel] * n
    order: list[int] = []
    for v in range(n):
        if depth[v] <= budget:
            continue
        order.append(v)
        if limit is not None and len(order) > limit:
            return None
        depth[v] = 0
        frontier = [v]
        d = 0
        while frontier and d < budget:
            d += 1
            nxt: list[int] = []
            for x in frontier:
                for u in adj[x]:
                    if depth[u] > d:
                        depth[u] = d
                        nxt.append(u)
            frontier = nxt
    return order


def mis_power(g: Graph, r: int) -> MisResult:
    """Greedy maximal independent set of the 2r-th power.

    Repeatedly takes the smallest remaining vertex id and discards every
    vertex within 2r hops of it.  Runs in time proportional to the edges
    touched by the truncated searches.
    """
    if r < 1:
        raise ValueError("radius must be positive")
    order = _greedy_scatter(g, r)
    assert order is not None
    return MisResult(r, frozenset(order), tuple(order))


def _search_lower_bound(
    g: Graph, k: int, deadline: float | None = None
) -> tuple[int, list[int]]:
    """Smallest j with |M(j)| <= k*j, plus the pick order at j.

    Every j the search settles on is a successful probe, so its order
    is always recorded.  With a ``deadline`` (``time.monotonic()``
    seconds) UndeterminedError is raised before any probe that would
    start after it.

    Galloping brackets the answer with cheap early-exit probes; the
    bracket is then closed by bisection steps whose probe points come from
    a power-law fit of the exact set sizes seen so far (every refinement
    probe runs far enough to record its size).  Model guesses are capped
    at two in a row before a plain midpoint, so the probe count never
    exceeds a constant factor of the binary-search one; the result is
    identical under the size-monotonicity assumption either way.
    """
    n = g.n
    sizes: dict[int, int] = {}
    orders: dict[int, list[int]] = {}

    def probe(j: int, cap: int | None) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise UndeterminedError("time budget exhausted")
        order = _greedy_scatter(g, j, limit=cap)
        if order is None:
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
        # gallop was clamped at n, where the predicate always holds
        # (one member per connected component)
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


def lower_bound(g: Graph, k: int, verify_linear: bool = False) -> int:
    """Smallest index j with |M(j)| <= k*j; a certified floor on b_k.

    The search assumes the greedy set sizes shrink as the radius grows
    (the predicate is always true at j = n, where the members are one per
    component).  With ``verify_linear`` the predicate is re-evaluated at
    every j' < j and a violation of the monotonicity assumption raises
    instead of returning a bad bound.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("spread factor must be positive")
    j, _ = _search_lower_bound(g, k)
    if verify_linear:
        for jp in range(1, j):
            if _greedy_scatter(g, jp, limit=k * jp) is not None:
                raise RuntimeError(
                    f"greedy set size is not monotone in the radius: |M({jp})| <= {k * jp} "
                    f"although the search settled on j={j}"
                )
    return j


def approx_schedule(g: Graph, k: int) -> ApproxResult:
    """Burning schedule of length at most 3x the certified lower bound.

    Ignites the members of M(j) in pick order, k per round, then pads to
    strict semantics.  Every vertex is within 2j hops of a member ignited
    by round j, so completion <= 3j; the simulation double-checks that.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("spread factor must be positive")
    j, order = _search_lower_bound(g, k)
    batches = [order[i:i + k] for i in range(0, len(order), k)]
    # members are pairwise > 2j apart while batches span <= j rounds, so no
    # ignition can be preempted by propagation; the pad policy only tops up
    sched = Schedule(k, _run_rounds(g, k, batches, "pad")[3])
    report = simulate(g, sched, strict=True)
    if not report.valid:
        raise RuntimeError("padded ignition schedule failed strict validation")
    if report.completion_round > 3 * j:
        raise RuntimeError(
            f"completion {report.completion_round} exceeds 3*{j}; round semantics bug"
        )
    return ApproxResult(j, sched, report.completion_round)
