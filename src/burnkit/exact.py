"""Exact burning numbers and fixed-source scheduling at desk scale.

The exact solver searches covering families: burning completes by round L
iff there are batches S_1..S_L (at most k vertices each) whose radius
L-r balls cover every vertex.  A family found that way is massaged into a
strict-valid witness schedule, which cannot change the optimum because
extra or replaced ignitions only add fire.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .approx import lower_bound
from .burning import Schedule, _run_rounds, simulate
from .graph import Graph, bfs_distances


class UndeterminedError(RuntimeError):
    """Search gave up before settling on a value (round or time bound hit)."""


@dataclass
class SchedulingInstance:
    """A graph with a fixed source set: only the ignition order is free."""

    graph: Graph
    sources: tuple[int, ...]
    k: int

    def __post_init__(self):
        srcs = sorted(set(self.sources))
        if len(srcs) != len(self.sources):
            raise ValueError("sources must be distinct")
        if not srcs:
            raise ValueError("need at least one source")
        for s in srcs:
            if not (0 <= s < self.graph.n):
                raise ValueError(f"invalid source id {s}")
        if self.k < 1:
            raise ValueError("spread factor must be positive")
        self.sources = tuple(srcs)


def _ball_masks(g: Graph, max_radius: int, deadline: float | None) -> list[list[int]]:
    """ball[v][d] = bitmask of vertices within d hops of v, d = 0..max_radius."""
    masks: list[list[int]] = []
    for v in range(g.n):
        if deadline is not None and time.monotonic() > deadline:
            raise UndeterminedError("time budget exhausted")
        dist = bfs_distances(g, [v]).dist
        row = [0] * (max_radius + 1)
        acc = 0
        by_d: list[list[int]] = [[] for _ in range(max_radius + 1)]
        for u, d in enumerate(dist):
            if d is not None and d <= max_radius:
                by_d[d].append(u)
        for d in range(max_radius + 1):
            for u in by_d[d]:
                acc |= 1 << u
            row[d] = acc
        masks.append(row)
    return masks


def exact_burning_number(
    g: Graph,
    k: int,
    max_rounds: int | None = None,
    time_budget: float | None = None,
) -> tuple[int, Schedule]:
    """Optimal round count plus a strict-valid witness schedule.

    Iterative deepening on the round budget L, anchored at the certified
    lower bound j.  Each depth runs a DFS over per-round batches in
    ascending-id order (so the witness is canonical): candidates are
    restricted to vertices whose radius-(L-r) ball still covers something
    new.  A child batch is judged in its parent's loop before any call is
    made: a batch that covers everything ends the search, and one whose
    uncovered count exceeds what the remaining rounds could possibly
    cover (k times the largest ball, summed over those rounds) is skipped.
    Balls are bitmasks precomputed up to radius 3j, since the
    approximation burns everything within 3j rounds.  At desk scale that
    settles k = 1 on 50 vertices and k = 2 on 40 well under a second.

    Raises UndeterminedError when ``max_rounds`` or ``time_budget`` is
    exhausted first, the precomputation included; never returns a wrong
    number.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if k < 1:
        raise ValueError("spread factor must be positive")
    n = g.n
    full = (1 << n) - 1
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    start_l = lower_bound(g, k)
    top = 3 * start_l  # b <= 3j: the approximation completes within 3j rounds
    ball = _ball_masks(g, top, deadline)
    maxball = [max(ball[v][d].bit_count() for v in range(n)) for d in range(top + 1)]

    def try_depth(limit: int) -> list[list[int]] | None:
        # cap[r] = most vertices rounds r..limit could still cover
        cap = [0] * (limit + 2)
        for r in range(limit, 0, -1):
            cap[r] = cap[r + 1] + k * maxball[limit - r]

        def dfs(r: int, covered: int, acc: list[list[int]]) -> list[list[int]] | None:
            # only children that are neither complete nor over capacity get here
            if deadline is not None and time.monotonic() > deadline:
                raise UndeterminedError("time budget exhausted")
            uncovered = full & ~covered
            radius = limit - r
            cands = [v for v in range(n) if ball[v][radius] & uncovered]
            take = min(k, len(cands))
            need = n - cap[r + 1]  # a child covering fewer cannot finish in time
            for batch in combinations(cands, take):
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
    while True:
        if max_rounds is not None and depth > max_rounds:
            raise UndeterminedError(f"not determined within {max_rounds} rounds")
        if depth > top:
            raise RuntimeError(f"burning number exceeds 3 * lower bound = {top}")
        batches = try_depth(depth)
        if batches is not None:
            break
        depth += 1
    witness = Schedule(k, _run_rounds(g, k, batches, "pad")[3])
    report = simulate(g, witness, strict=True)
    assert report.valid and report.completion_round == depth
    return depth, witness


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


def ordering_feasible(
    inst: SchedulingInstance, ordering: dict[int, int], rounds: int
) -> tuple[bool, str]:
    """Check a full round assignment: capacity, ignition order, coverage.

    Every source must get a round in 1..rounds with at most k per round.
    The ordering is then run as a lenient schedule by ``simulate``, the
    package's one round loop: every source must still be unburnt when
    ignited, and every vertex must burn by the deadline.  The reason
    names the first source found burnt at its ignition (earliest round,
    then the ordering's order within a round), else the smallest vertex
    that burns late or never.
    """
    if sorted(ordering) != list(inst.sources):
        return False, "ordering must assign exactly the instance sources"
    per_round: dict[int, int] = {}
    for s, r in ordering.items():
        if not (1 <= r <= rounds):
            return False, f"source {s} assigned round {r} outside 1..{rounds}"
        per_round[r] = per_round.get(r, 0) + 1
        if per_round[r] > inst.k:
            return False, f"round {r} ignites more than k={inst.k} sources"
    batches: list[list[int]] = [[] for _ in range(rounds)]
    for s, r in ordering.items():
        batches[r - 1].append(s)
    report = simulate(inst.graph, Schedule(inst.k, batches), strict=False)
    for v in report.violations:
        if v.reason == "already burnt at ignition":
            return False, f"source {v.vertex} is already burnt at round {v.round}"
    for v, t in enumerate(report.burn_round):
        if t is None or t > rounds:
            return False, f"vertex {v} does not burn by round {rounds}"
    return True, ""


def schedule_sources(
    inst: SchedulingInstance,
    rounds: int | None = None,
    time_budget: float | None = None,
) -> dict[int, int] | None:
    """Assign each source a round so everything burns in time, or report infeasible.

    Searches round assignments source-by-source in ascending id with
    rounds tried smallest first, so the witness is the lexicographically
    least feasible assignment vector.  Pruning: per-round capacity,
    pairwise still-unburnt-at-ignition constraints among assigned sources,
    and an optimistic completion bound that places every unassigned source
    at the earliest round with spare capacity.

    The bound is one bitmask comparison per node.  ``ball(i, d)`` is the
    set of vertices within d hops of the i-th source and ``suffix(i, d)``
    the union of those balls over sources i onwards, each built the first
    time the search asks for it.  The search carries ``covered``, the
    union of ``ball(i, rounds - r)`` over the assigned (source, round)
    pairs.  After placing source i, with ``free`` the earliest round with
    spare capacity, the branch lives only if ``covered | suffix(i + 1,
    rounds - free)`` is every vertex (the suffix term counts only while
    ``free <= rounds``).  The same test on ``suffix(0, rounds - 1)``
    rejects up front any vertex that no source reaches in time.  The
    per-source BFS tables behind the balls and the pairwise test serve
    the pruning only: each leaf is judged by ``ordering_feasible``, which
    runs the round loop, so every witness obeys the rules ``simulate``
    checks.

    Raises UndeterminedError when ``time_budget`` (seconds) runs out
    before the search settles.
    """
    srcs = list(inst.sources)
    if len(srcs) > 24:
        raise ValueError("schedule_sources is restricted to at most 24 sources")
    if rounds is None:
        rounds = -(-len(srcs) // inst.k)
    if rounds < 1:
        raise ValueError("round budget must be positive")
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    tables = {s: bfs_distances(inst.graph, [s]).dist for s in srcs}
    n = inst.graph.n
    k = inst.k
    full = (1 << n) - 1

    # the vertices each source reaches, nearest first, with their distances
    order: list[list[int]] = []
    hops: list[list[int]] = []
    for s in srcs:
        dist = tables[s]
        near = sorted((v for v in range(n) if dist[v] is not None), key=dist.__getitem__)
        order.append(near)
        hops.append([dist[v] for v in near])

    # masks are built on first use: a table of every radius would take
    # |S|*rounds*n bits up front, while a search builds only those it asks for
    @cache
    def ball(i: int, d: int) -> int:
        # set bits in a byte buffer: OR-ing one-bit ints in one by one
        # would copy the whole mask per vertex
        buf = bytearray((n + 7) // 8)
        for v in order[i][: bisect_right(hops[i], d)]:
            buf[v >> 3] |= 1 << (v & 7)
        return int.from_bytes(buf, "little")

    @cache
    def suffix(i: int, d: int) -> int:
        return ball(i, d) | suffix(i + 1, d) if i < len(srcs) else 0

    if suffix(0, rounds - 1) != full:
        return None

    capacity = [0] * (rounds + 1)
    assigned: dict[int, int] = {}

    def earliest_free_round() -> int:
        for r in range(1, rounds + 1):
            if capacity[r] < k:
                return r
        return rounds + 1

    def place(i: int, covered: int) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise UndeterminedError("time budget exhausted")
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
                # the later of two sources burns before its round if the
                # earlier one is within the gap between their rounds
                if rp != r and d is not None and d <= abs(r - rp):
                    conflict = True
                    break
            if conflict:
                continue
            assigned[s] = r
            capacity[r] += 1
            now = covered | ball(i, rounds - r)
            free = earliest_free_round()
            later = suffix(i + 1, rounds - free) if free <= rounds else 0
            if now | later == full and place(i + 1, now):
                return True
            capacity[r] -= 1
            del assigned[s]
        return False

    if place(0, 0):
        return dict(sorted(assigned.items()))
    return None
