"""Certified lower bound and factor-3 burning schedules via graph powers.

The lower bound comes from greedy maximal independent sets of even powers
of the graph: a set whose members are pairwise more than 2r hops apart
lower-bounds every dominating set of the r-th power, and any k-burning
process finishing in t rounds leaves a dominating set of size <= k*t in
the t-th power.  The smallest index j with |M(j)| <= k*j therefore bounds
the burning number from below, and igniting M(j) burns everything within
3j rounds.

Each probe of the search for j is a greedy scan that stops at the
(kj+1)-th pick and returns the truncated pick order.  Once a failed scan
has passed 1/16 of the ids, that share turns its pick count into a trusted
estimate of |M(j)|.  A power law through two sizes guesses j, and a guess
that holds is confirmed by a failing probe just below it, so on large
graphs only the two probes that bound j scan nearly all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Callable

from .burning import Schedule, _pad_certified
from .graph import Graph, _positive


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


def _greedy_scatter(
    g: Graph, r: int, limit: int | None = None, tick: Callable[[], None] | None = None
) -> list[int]:
    """Greedy pick order for mis_power; truncated BFS marks 2r-hop balls.

    When ``limit`` is given, the scan stops at the pick that exceeds it
    and returns the truncated order of ``limit + 1`` picks; its last id
    shows how far the scan got.  ``tick`` is called once per pick, so a
    caller's time budget can stop the scan there.  A vertex visited at
    depth d is never re-expanded from depth >= d: the earlier visit had
    at least as much remaining budget, so nothing new is reachable.
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
        if tick is not None:
            tick()
        order.append(v)
        if limit is not None and len(order) > limit:
            return order
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
    touched by the truncated searches.  ValueError unless r is a positive int.
    """
    _positive(r, "radius")
    order = _greedy_scatter(g, r)
    return MisResult(r, frozenset(order), tuple(order))


# a failed probe's size estimate counts once its scan has passed 1/_TRUST
# of the ids; short scans extrapolate a few rows of a grid to the whole
_TRUST = 16


def _search_lower_bound(
    g: Graph, k: int, tick: Callable[[], None] | None = None
) -> tuple[int, list[int]]:
    """Smallest j with |M(j)| <= k*j, plus the pick order at j.

    The probe at j stops once it holds k*j + 1 picks.  One that holds
    fewer has found all of M(j), and its size is exact.  A failed probe
    returns its truncated order; when its last pick has id x - 1 with
    x >= n/16, picks * n / x is a trusted estimate of |M(j)|.

    The search gallops through radii 1, 2, 4, ... until it holds two
    sizes.  A power law |M(j)| = c * j**-d through the two sizes next to
    the bracket (else the two widest radii) predicts where |M(j)| meets
    k*j.  That guess is probed as soon as it falls below the next
    doubling, or inside the bracket once a probe has held.  When a guess
    g holds, the next probe is g - 1, which settles j = g if it fails.
    After two guesses in a row the search takes a plain doubling or
    midpoint, so the probe count stays within a constant factor of a
    binary search.  Every j it settles on is a successful probe with a
    failed one at j - 1 (or j = 1), whose k(j-1) + 1 picks, pairwise
    more than 2(j-1) apart, certify b >= j: a source of a (j-1)-round
    schedule covers radius <= j - 2, so at most one pick.  If the sizes
    shrink as the radius grows, j is also the least index that holds, as
    any bisection's.  Every probe calls ``tick`` once per pick, so a
    caller's time budget can stop the search there.  An empty graph or a
    k not a positive int raises ValueError, for every solver that starts here.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    _positive(k, "spread factor")
    n = g.n
    sizes: dict[int, float] = {}
    found: dict[int, list[int]] = {}

    def probe(j: int) -> bool:
        order = _greedy_scatter(g, j, k * j, tick)
        if len(order) <= k * j:
            sizes[j] = len(order)
            found[j] = order
            return True
        scanned = order[-1] + 1
        if scanned * _TRUST >= n:
            sizes[j] = len(order) * n / scanned
        return False

    def model(lo: int, hi: int | None) -> int | None:
        # fit the two sizes next to the bracket, else the two widest radii
        a = max((j for j in sizes if j <= lo), default=None)
        b = hi  # a probe that held has an exact size
        if a is None or b is None:
            pts = sorted(sizes)
            if len(pts) < 2:
                return None
            a, b = pts[-2], pts[-1]
        if not sizes[a] > sizes[b] > 0:
            return None
        d = log(sizes[a] / sizes[b]) / log(b / a)
        if not 0.1 < d < 16.0:
            return None
        c = sizes[a] * (a ** d)
        guess = max(round((c / k) ** (1.0 / (d + 1.0))), lo + 1)
        return guess if hi is None else min(guess, hi - 1)

    if probe(1):
        return 1, found[1]
    lo, hi = 1, None
    guesses = 0  # model guesses in a row
    while hi is None or lo + 1 < hi:
        top = min(2 * lo, n) if hi is None else hi
        guess = model(lo, hi) if guesses < 2 else None
        if guess is not None and guess < top:
            guesses += 1
            mid = guess
        else:
            guess, guesses = None, 0
            mid = top if hi is None else (lo + hi) // 2
        if not probe(mid):
            lo = mid
            continue
        hi = mid
        if mid == guess and mid - 1 > lo:
            # confirm a guess that held by a probe just below it
            if probe(mid - 1):
                hi = mid - 1
            else:
                lo = mid - 1
    return hi, found[hi]


def lower_bound(g: Graph, k: int, verify_linear: bool = False) -> int:
    """An index j with |M(j)| <= k*j and |M(j-1)| > k*(j-1); a floor on b_k.

    The search extrapolates the greedy set sizes, exact ones and those
    that failed probes estimate from their truncated pick orders, and
    settles on j only with a failed probe at j - 1, whose picks make
    b_k >= j sound with no assumption on the sizes.  That j is also the
    least index that holds if the sizes shrink as the radius grows (at
    j = n the members are one per component).  With ``verify_linear``
    every j' < j is probed again, each stopping at k*j' + 1 picks, and a
    j' that holds raises: the bound stays sound but is not the least.  An
    empty graph or a k that is not a positive int is a ValueError.
    """
    j, _ = _search_lower_bound(g, k)
    if verify_linear:
        for jp in range(1, j):
            if len(_greedy_scatter(g, jp, limit=k * jp)) <= k * jp:
                raise RuntimeError(
                    f"greedy set size is not monotone in the radius: |M({jp})| <= {k * jp} "
                    f"although the search settled on j={j}"
                )
    return j


def approx_schedule(g: Graph, k: int) -> ApproxResult:
    """Burning schedule of length at most 3x the certified lower bound.

    Ignites the members of M(j) in pick order, k per round, then pads to
    strict semantics.  Every vertex is within 2j hops of a member ignited
    by round j, so completion <= 3j: RuntimeError is raised should the
    certified pad pass (``burning._pad_certified``) reject it or end later.
    An empty graph or a k that is not a positive int is a ValueError.
    """
    j, order = _search_lower_bound(g, k)
    # members are > 2j apart and batches span <= j rounds: padding only tops up
    sched, completion = _pad_certified(g, k, [order[i:i + k] for i in range(0, len(order), k)])
    if completion > 3 * j:
        raise RuntimeError(f"completion {completion} exceeds 3*{j}; round semantics bug")
    return ApproxResult(j, sched, completion)
