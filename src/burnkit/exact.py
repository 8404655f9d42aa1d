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
from itertools import accumulate, compress
from typing import Callable

from .approx import _search_lower_bound
from .burning import Schedule, _pad_certified, _run_rounds
from .graph import Graph, _bfs, _fits, _positive


@dataclass
class SchedulingInstance:
    """A graph with a fixed source set: only the ignition order is free."""

    graph: Graph
    sources: tuple[int, ...]
    k: int

    def __post_init__(self):
        for s in self.sources:  # before sorting, which a str next to an int breaks
            if not _fits(s, 0, self.graph.n - 1):
                raise ValueError(f"invalid source id {s!r}")
        srcs = sorted(set(self.sources))
        if len(srcs) != len(self.sources):
            raise ValueError("sources must be distinct")
        if not srcs:
            raise ValueError("need at least one source")
        _positive(self.k, "spread factor")
        self.sources = tuple(srcs)


_BIT_VERTICES = 1600
"""``schedule_sources`` builds its ball table by a bit-parallel BFS only on
graphs of at most this many vertices.  Each vertex a search reaches and
each level cost it a few big-int operations of n bits, and its neighbour
masks take up to about n**2 / 8 bytes, so its cost per vertex grows with
n where that of the ``_bfs`` lists does not.  The bound is the grids'
measured crossover of whole calls against the lists (see CHANGES.md):
a 40x40 grid ran about as fast either way, a 45x45 one 11% slower by the
bit table; random connected graphs crossed near 6000 vertices."""

_TABLE_BYTES_PER_VISIT = 16
"""Bytes the ``_bfs`` lists take per vertex a search reaches, an 8-byte slot
for its id and one for its hop count: ``_ball_table``'s give-up rule weighs
the masks it holds past the |S| + 1 the lists path keeps against this."""


class UndeterminedError(RuntimeError):
    """Search gave up before settling on a value (round or time bound hit)."""


def _ticker(time_budget: float | None) -> Callable[[], None] | None:
    """None for no budget, else the ``tick`` every budgeted loop calls: it
    raises UndeterminedError once ``time_budget`` seconds have passed.  A
    budget not an int or float (a bool is not one), negative or NaN is a ValueError."""
    if time_budget is None:
        return None
    if (type(time_budget) is bool or not isinstance(time_budget, (int, float))
            or not time_budget >= 0):  # NaN fails every comparison
        raise ValueError(f"time budget must be a non-negative number of seconds, got {time_budget!r}")
    deadline = time.monotonic() + time_budget

    def tick() -> None:
        if time.monotonic() > deadline:
            raise UndeterminedError("time budget exhausted")

    return tick


def _grow_balls(g: Graph, ball: list[list[int]], tick: Callable[[], None] | None) -> None:
    """Extend every row by one radius: ball[v][d + 1] joins v's radius-d ball
    with those of its neighbours.  ``tick`` is called at each vertex."""
    adj = g.adj
    d = len(ball[0]) - 1 if ball else -1
    for v in range(g.n):
        if tick is not None:
            tick()
        if d < 0:  # the first call makes the radius-0 rows, each vertex alone
            ball.append([1 << v])
            continue
        acc = ball[v][d]
        for u in adj[v]:
            acc |= ball[u][d]
        ball[v].append(acc)


def exact_burning_number(
    g: Graph,
    k: int,
    max_rounds: int | None = None,
    time_budget: float | None = None,
) -> tuple[int, Schedule]:
    """Optimal round count plus a strict-valid witness schedule.

    Iterative deepening on the round budget L, anchored at the certified
    lower bound j.  Each depth runs a DFS over per-round batches, taken in
    ``combinations`` order over ascending ids (so the witness is
    canonical) among vertices whose radius-(L-r) ball still covers
    something new.  A batch that covers everything ends the search; one
    must otherwise cover ``need`` vertices, all but what the later rounds
    could (k times the largest ball each).  The enumeration carries the
    union of each batch prefix and skips every extension of a prefix whose
    count plus (slots left) times the largest ball is below ``need``.
    Before listing candidates, a node at round r with R = L - r and
    2R <= L - 1 applies the paper's packing bound: it takes its lowest-id
    uncovered vertex, clears that vertex's radius-2R ball, repeats, and
    gives up once more than k(L - r + 1) are taken.  Those are pairwise more than 2R apart, and
    each of the at most k(L - r + 1) sources left has radius <= R, so its
    ball holds at most one: a cut drops no covering family, and the
    search reaches the same first one.  Balls are bitmasks grown one
    radius at a time, each vertex's as the union of its neighbours' balls
    one radius smaller, and only up to radius L - 1 of the depth tried.
    The approximation burns everything within 3j rounds, so a depth past
    3j raises RuntimeError, as does a witness that ``_pad_certified`` (the
    certified pad pass) rejects or finds not to end at L.

    Raises UndeterminedError when ``max_rounds`` or ``time_budget`` runs out
    first, the lower-bound probes and every ball row (radius 0 included)
    under the clock; never returns a wrong number.  A ``k`` or
    ``max_rounds`` not a positive int (a bool is not one) and a negative,
    NaN or bool ``time_budget`` are ValueErrors, raised before any work; an
    infinite budget sets no limit.
    """
    _positive(k, "spread factor")
    if max_rounds is not None:
        _positive(max_rounds, "round budget")
    tick = _ticker(time_budget)
    n = g.n
    full = (1 << n) - 1
    start_l = _search_lower_bound(g, k, tick)[0]
    top = 3 * start_l  # b <= 3j: the approximation completes within 3j rounds
    # ball[v][d] = bitmask of the vertices within d hops of v, grown one
    # radius at a time (radius 0 first) up to the largest a depth reads;
    # maxball[d] = the most any radius-d ball holds
    ball: list[list[int]] = []
    maxball: list[int] = []

    def try_depth(limit: int) -> list[list[int]] | None:
        # cap[r] = most vertices rounds r..limit could still cover
        cap = [0] * (limit + 2)
        for r in range(limit, 0, -1):
            cap[r] = cap[r + 1] + k * maxball[limit - r]

        def dfs(r: int, covered: int, acc: list[list[int]]) -> list[list[int]] | None:
            # only batches that are neither complete nor short of need get here
            if tick is not None:
                tick()
            uncovered = full & ~covered
            radius = limit - r
            if 2 * radius < limit:  # the packing bound reads only grown radii
                rest, room = uncovered, k * (limit - r + 1)
                while rest:
                    room -= 1
                    if room < 0:
                        return None
                    rest &= ~ball[(rest & -rest).bit_length() - 1][2 * radius]
            cands = [v for v in range(n) if ball[v][radius] & uncovered]
            masks = [ball[v][radius] for v in cands]
            take = min(k, len(cands))
            need = n - cap[r + 1]  # a batch covering fewer cannot finish in time
            big = maxball[radius]

            def extend(start: int, batch: list[int], cov: int) -> list[list[int]] | None:
                # cov is the union of the prefix batch, with take - len(batch) slots left
                left = take - len(batch)
                floor = need - (left - 1) * big
                for i in range(start, len(cands) - left + 1):
                    grown = cov | masks[i]
                    if grown.bit_count() < floor:
                        continue
                    if left > 1:
                        found = extend(i + 1, batch + [cands[i]], grown)
                    elif grown == full:
                        return acc + [batch + [cands[i]]]
                    else:
                        found = dfs(r + 1, grown, acc + [batch + [cands[i]]])
                    if found is not None:
                        return found
                return None

            return extend(0, [], covered)

        return dfs(1, 0, []) if n <= cap[1] else None

    depth = start_l
    while True:
        if max_rounds is not None and depth > max_rounds:
            raise UndeterminedError(f"not determined within {max_rounds} rounds")
        if depth > top:
            raise RuntimeError(f"burning number exceeds 3 * lower bound = {top}")
        while len(maxball) < depth:  # depth L reads radii up to L - 1
            _grow_balls(g, ball, tick)
            maxball.append(max(row[-1].bit_count() for row in ball))
        batches = try_depth(depth)
        if batches is not None:
            break
        depth += 1
    try:
        witness, completion = _pad_certified(g, k, batches)
    except RuntimeError:
        completion = None
    if completion != depth:
        raise RuntimeError(f"search returned a witness the round engine rejects at depth {depth}")
    return depth, witness


def ordering_feasible(
    inst: SchedulingInstance, ordering: dict[int, int], rounds: int,
    tick: Callable[[], None] | None = None,
) -> tuple[bool, str]:
    """Check a full round assignment: capacity, ignition order, coverage.

    ``rounds`` must be a positive int, else ValueError before any work; every
    int source must get an int round in 1..rounds, at most k per round.
    That makes it a well-formed schedule, run as it is through the
    package's one round loop in its check mode, which reads only ignition
    violations and burn rounds here: every source must still be unburnt
    when ignited, and every vertex must burn by the deadline.
    The reason names the first source found burnt at its ignition
    (earliest round, then the ordering's order within a round), else the
    smallest vertex that burns late or never.  ``tick`` is called as each
    round of the loop starts, so a caller's time budget can stop it there.
    """
    _positive(rounds, "round budget")
    if not all(_fits(s, 0) for s in ordering) or sorted(ordering) != list(inst.sources):
        return False, "ordering must assign exactly the instance sources"
    # rounds past the last one assigned would add only batch-size violations
    top = max((r for r in ordering.values() if _fits(r, 1, rounds)), default=0)
    batches: list[list[int]] = [[] for _ in range(top)]
    for s, r in ordering.items():
        if not _fits(r, 1, rounds):
            return False, f"source {s} assigned round {r} outside 1..{rounds}"
        batches[r - 1].append(s)
        if len(batches[r - 1]) > inst.k:
            return False, f"round {r} ignites more than k={inst.k} sources"
    burn, _, violations, _ = _run_rounds(inst.graph, inst.k, batches, "check", tick)
    for v in violations:
        if v.reason == "already burnt at ignition":
            return False, f"source {v.vertex} is already burnt at round {v.round}"
    for v, t in enumerate(burn):
        if not 0 < t <= rounds:
            return False, f"vertex {v} does not burn by round {rounds}"
    return True, ""


def _ball_table(
    g: Graph, srcs: list[int], rounds: int, near: list[list[tuple[int, int]]], slot: bytearray,
    tick: Callable[[], None] | None,
) -> list[list[int]] | None:
    """The masks of every radius of every source, by one bit-parallel BFS per
    source cut at rounds - 1 hops: masks[d] holds the vertices within d hops,
    and the last one is the whole ball.  Each level ORs in the neighbour
    masks of the frontier's bits, its mask is the next entry, and each
    later source j among its new bits, d hops from the i-th, gets
    (i, d - 1) in ``near[j]`` through ``slot``.  A vertex's neighbour mask
    is built when a search first reaches it, so the work follows the
    vertices reached, not n.  ``tick`` is called at each level.

    Returns None once a search runs deeper than |S| hops and the masks it
    holds past the |S| + 1 that the lists path keeps take more than
    ``_TABLE_BYTES_PER_VISIT`` bytes per vertex it has reached.
    """
    n = g.n
    size = (n + 7) // 8
    adj = g.adj
    nbr: list[int | None] = [None] * n  # nbr[v] = the mask of v's neighbours, once built
    s = len(srcs)
    at_source = sum(map((1).__lshift__, srcs))
    table = []
    for i, src in enumerate(srcs):
        later = at_source >> src + 1 << src + 1  # the sources after src: srcs ascend
        reached = frontier = 1 << src
        masks = [reached]
        for d in range(1, rounds):
            if tick is not None:
                tick()
            grown = reached
            while frontier:  # take the frontier's bits highest first
                v = frontier.bit_length() - 1
                mask = nbr[v]
                if mask is None:
                    mask = 0
                    for u in adj[v]:
                        mask |= 1 << u
                    nbr[v] = mask
                grown |= mask
                frontier ^= 1 << v
            frontier = grown ^ reached
            if not frontier:
                break
            reached = grown
            masks.append(reached)
            if d > s and (d - s) * size > _TABLE_BYTES_PER_VISIT * reached.bit_count():
                return None
            hit = frontier & later  # the later sources d hops away
            while hit:
                v = hit.bit_length() - 1
                near[slot[v] - 1].append((i, d - 1))
                hit ^= 1 << v
        table.append(masks)
    return table


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
    at the earliest round with spare capacity.  Rounds past |S| are never
    tried: deleting a round no source uses, moving every later source one
    round earlier, keeps each load, moves no two rounds apart and only
    grows balls, so the least witness uses only rounds 1..|S|.

    One breadth-first search per source, cut at rounds - 1 hops, lists the
    later sources it reaches with their distances, and gives the source's
    eccentricity, past which its ball grows no more.  ``ball(i, d)`` (the
    vertices within d hops of the i-th source) and ``suffix(i, d)`` (the
    union of those balls over sources i onwards) are bitmasks, their
    radius clamped to that eccentricity (for ``suffix``, the largest among
    the sources it unions), so a round budget far past every eccentricity
    adds no mask.
    The masks are built one of two ways, into one table that ``ball``
    reads.  On graphs of at most ``_BIT_VERTICES`` vertices they are built
    by ``_ball_table``, a bit-parallel search whose levels are the masks of
    every radius, with no list per vertex.  A search deeper than |S| hops
    whose masks past the |S| + 1 the lists path keeps take more than
    ``_TABLE_BYTES_PER_VISIT`` bytes per vertex it reached (a long path or
    ladder: many thin levels) gives the table up.  Then, and on
    larger graphs, each source's search is the package's shared
    ``graph._bfs``, which lists the vertices it reaches in visit order with
    their hop counts.  Right after it, this lists path fills one byte
    buffer level by level, keeps the mask of each radius from
    rounds - |S| - 1 (or the eccentricity, if smaller) up, and drops the
    lists.  No smaller radius is read: the search places sources in rounds
    up to |S|, and its bound looks one round further.
    The search carries ``covered``, the union of ``ball(i, rounds - r)``
    over the assigned (source, round) pairs.  After placing source i, with
    ``free`` the earliest round with spare capacity, the branch lives only
    if ``covered | suffix(i + 1, rounds - free)`` is every vertex (the
    suffix term counts only while ``free <= rounds``).  Each node is
    handed ``first``, its earliest round with room, and tries no round
    before it: the root's is 1, and a child's is its parent's ``free``,
    so no node rescans the rounds' loads.  Every placement but one that
    fills ``first`` leaves ``free == first``, so that suffix term is
    computed once per node; and as the ball only shrinks while the round
    grows, the first such placement the bound rules out ends the node's
    loop.  A node bounds its rounds only by the earlier sources that the
    searches reached, those within rounds - 1 hops: two rounds in
    1..rounds differ by at most rounds - 1, so a pair rounds or more hops
    apart bounds none, and on the SAT gadgets most pairs are that far.
    At a leaf these tests are exact: fire starts only at sources, so with every
    ignition valid each vertex burns at the least round plus distance over
    the sources.  The returned witness is certified once by
    ``ordering_feasible``, which runs the round loop, and RuntimeError is
    raised should it disagree: no witness is returned unchecked.

    Raises UndeterminedError when ``time_budget`` (seconds) runs out, with
    the clock read at every search node, at each level of a ball search, at
    each radius the lists path makes and at each round of the certifying
    pass; ValueError before any work if it is < 0, NaN or a bool, or if
    ``rounds`` is not a positive int.
    """
    srcs = list(inst.sources)
    if len(srcs) > 24:
        raise ValueError("schedule_sources is restricted to at most 24 sources")
    if rounds is None:
        rounds = -(-len(srcs) // inst.k)
    _positive(rounds, "round budget")
    tick = _ticker(time_budget)
    g = inst.graph
    n = g.n
    k = inst.k
    full = (1 << n) - 1

    # near[j] = (i, d - 1) for each earlier source i within d <= rounds - 1
    # hops of the j-th, the pairs that bound its rounds (two rounds in
    # 1..rounds never differ by rounds), filled through slot[v] = 1 + the
    # index of source v, 0 for any other vertex; table[i][d - low] = the
    # vertices within d hops of the i-th source, from radius low up to where
    # its ball, cut at rounds - 1 hops, grows no more
    near: list[list[tuple[int, int]]] = [[] for _ in srcs]
    slot = bytearray(n)
    for j, s in enumerate(srcs):
        slot[s] = j + 1
    table = _ball_table(g, srcs, rounds, near, slot, tick) if n <= _BIT_VERTICES else None

    low = 0  # the bit table holds every radius
    if table is None:
        # each source's one _bfs lists the vertices it reaches nearest first
        # with their hop counts, the last its eccentricity; its masks of the
        # radii the search reads are snapshots of one byte buffer filled
        # level by level, and the lists go once they are made.  near is
        # filled afresh, as a given-up table may have filled part of it
        low = max(rounds - len(srcs) - 1, 0)  # the search reads no smaller radius
        near = [[] for _ in srcs]
        table = []
        for i, s in enumerate(srcs):
            at, hop = _bfs(g, [s], rounds - 1, tick=tick)
            for v, d in compress(zip(at, hop), map(slot.__getitem__, at)):
                if slot[v] > i + 1:  # a later source
                    near[slot[v] - 1].append((i, d - 1))
            buf = bytearray((n + 7) // 8)  # OR-ing one-bit ints would copy the mask per vertex
            masks = []
            cut = 0
            for d in range(min(low, hop[-1]), hop[-1] + 1):  # a ball whole below low is kept once
                if tick is not None:
                    tick()
                end = bisect_right(hop, d, cut)
                for v in at[cut:end]:
                    buf[v >> 3] |= 1 << (v & 7)
                cut = end
                masks.append(int.from_bytes(buf, "little"))
            table.append(masks)
            del at, hop  # before the next source's search
    # ecc[i] = a radius past which the i-th source's ball grows no more, the
    # last its row holds: never below low, so suffix reads no smaller radius
    ecc = [low + len(masks) - 1 for masks in table]

    def ball(i: int, d: int) -> int:
        masks = table[i]
        d -= low
        return masks[d] if d < len(masks) else masks[-1]

    # reach[i] = the largest eccentricity among sources i onwards
    reach = [*accumulate(reversed(ecc), max)][::-1] + [0]

    @cache
    def suffix(i: int, d: int) -> int:
        # the search asks for suffix(i, rounds - f) only with f <= |S| + 1, so
        # it caches few radii past reach[i], and those share the mask at reach[i]
        if d > reach[i]:
            return suffix(i, reach[i])
        return ball(i, d) | suffix(i + 1, d) if i < len(srcs) else 0

    if suffix(0, rounds - 1) != full:
        return None

    capacity = [0] * (len(srcs) + 2)  # sources per round: first <= |S|, free <= |S| + 1
    when: list[int] = []  # when[j] = round of source j, for the sources placed so far
    top = min(rounds, len(srcs))  # the last round tried: none past |S| is needed

    def place(i: int, covered: int, first: int) -> bool:
        # first = the earliest round with room: every round before it is full
        if tick is not None:
            tick()
        if i == len(srcs):
            return True  # covered == full, or the bound would have cut this branch
        if first > rounds:
            return False
        # the later of two sources d hops apart burns before its round
        # unless their rounds differ by less than d
        lo, hi = first, top
        for j, span in near[i]:
            rp = when[j]
            if rp - span > lo:
                lo = rp - span
            if rp + span < hi:
                hi = rp + span
        # a placement that leaves room at first keeps the bound's suffix term
        later = suffix(i + 1, rounds - first)
        for r in range(lo, hi + 1):
            used = capacity[r]
            if used >= k:
                continue
            now = covered | ball(i, rounds - r)
            free = first
            if r == first and used == k - 1:
                free = r + 1  # placing here fills first: the bound moves on
                while capacity[free] >= k:
                    free += 1
                if now | (suffix(i + 1, rounds - free) if free <= rounds else 0) != full:
                    continue
            elif now | later != full:
                break  # the ball only shrinks as r grows, and later stays put
            when.append(r)
            capacity[r] = used + 1
            if place(i + 1, now, free):
                return True
            capacity[r] = used
            when.pop()
        return False

    if not place(0, 0, 1):
        return None
    witness = dict(zip(srcs, when))
    ok, why = ordering_feasible(inst, witness, rounds, tick)
    if not ok:
        raise RuntimeError(f"search returned an ordering the round engine rejects: {why}")
    return witness
