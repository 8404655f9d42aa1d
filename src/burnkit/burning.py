"""Round semantics of the k-burning process: simulation, validation, padding.

The round order is propagate-then-ignite.  At round t >= 1:

1. every unburnt neighbor of a vertex burnt at some round < t burns, then
2. the batch listed for round t is ignited.

Strict validity demands that every batch vertex is still unburnt when its
turn comes and that every round (listed or not) ignites exactly
``min(k, unburnt-after-propagation)`` new sources; rounds past the last
listed batch are implicitly empty and are only in order once propagation
alone finishes the job that round.  A consequence of the round order:
sources ignited at rounds r < r' must sit at hop distance >= r' - r + 1,
otherwise the later one is already burning when ignited.

One round loop, ``_run_rounds``, has two modes.  "check" runs a schedule
as listed and records every violation, for ``simulate`` and
``exact.ordering_feasible``; "pad" tops each batch up to strict size.
Every schedule the package builds comes from ``_pad_certified``: one pad
pass whose own burn rounds ``check_labels`` certifies.  That checker and
``completion_closed_form`` share no code with the round loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from math import inf
from operator import add
from typing import Callable, NamedTuple, Sequence

from .graph import Graph, _fits


class ScheduleError(ValueError):
    """Structurally bad schedule: bad ids, oversized batches, reused vertices."""


class Violation(NamedTuple):
    round: int
    vertex: int  # -1 for batch-level violations with no single culprit
    reason: str


@dataclass
class Schedule:
    """Ordered ignition batches plus the spread factor k.

    ``rounds[t-1]`` is the batch ignited at round t.  Batches may be empty;
    a vertex may appear at most once across the whole schedule.
    """

    k: int
    rounds: list[list[int]]


@dataclass
class BurnReport:
    """Outcome of simulating a schedule.

    ``burn_round[v]`` is the round vertex v burnt, or None if it never did.
    ``completion_round`` is the largest burn round reached (0 when nothing
    burnt).  ``valid`` holds exactly when every vertex burnt and no
    violation was recorded.
    """

    burn_round: list[int | None]
    completion_round: int
    valid: bool
    violations: list[Violation]


def validate_schedule(g: Graph, s: Schedule) -> None:
    """Reject structurally bad schedules (raises ScheduleError).  k and every
    vertex id must be ints; a bool is not one."""
    if not _fits(s.k, 1):
        raise ScheduleError(f"spread factor must be a positive integer, got {s.k!r}")
    seen: set[int] = set()
    for r, batch in enumerate(s.rounds, start=1):
        if len(batch) > s.k:
            raise ScheduleError(f"round {r}: batch of {len(batch)} exceeds k={s.k}")
        for v in batch:
            if not _fits(v, 0, g.n - 1):
                raise ScheduleError(f"round {r}: invalid vertex id {v!r}")
            if v in seen:
                raise ScheduleError(f"round {r}: vertex {v} ignited twice")
            seen.add(v)


def ignition_list(s: Schedule) -> list[tuple[int, int]]:
    """Flatten a schedule into (vertex, round) pairs."""
    return [(v, r) for r, batch in enumerate(s.rounds, start=1) for v in batch]


def _run_rounds(g: Graph, k: int, rounds: list[list[int]], mode: str,
                tick: Callable[[], None] | None = None,
                ) -> tuple[list[int], int, list[Violation], list[list[int]]]:
    """The one propagate-then-ignite loop, in ``"check"`` or ``"pad"`` mode.

    ``"check"`` ignites the listed batch, records every violation
    ``simulate`` documents, runs through every listed round and stops at
    unburnable residue.  ``"pad"`` drops already-burnt members, tops the
    batch up to ``min(k, unburnt)`` with the smallest unburnt ids not
    listed later (those only when nothing else is left) and stops once
    everything burns.  Returns the burn rounds (0 = never), the completion
    round, the violations and the batches.  ``tick`` is called as each
    round starts, so a caller's time budget can stop the loop there.
    """
    n, adj = g.n, g.adj
    pad = mode == "pad"
    listed = 0 if pad else len(rounds)
    if pad:
        later = [0] * n  # the round each vertex is listed at
        for r, batch in enumerate(rounds, start=1):
            for v in batch:
                later[v] = r
        cursor = 0
    burn = [0] * n  # 0 = unburnt, else the burn round
    unburnt, completion, t = n, 0, 0
    violations: list[Violation] = []
    batches: list[list[int]] = []
    frontier: list[int] = []
    # checking keeps going past completion while batches are still listed:
    # igniting into a fully burnt graph is a violation worth reporting
    while unburnt or t < listed:
        if tick is not None:
            tick()
        t += 1
        new: list[int] = []
        for x in frontier:
            for u in adj[x]:
                if not burn[u]:
                    burn[u] = t
                    new.append(u)
        unburnt -= len(new)
        if new:
            completion = t
        if not unburnt and t > listed:
            break
        batch = rounds[t - 1] if t <= len(rounds) else ()
        ignited = [v for v in batch if not burn[v]]
        required = min(k, unburnt)
        if not pad:
            violations.extend(Violation(t, v, "already burnt at ignition") for v in batch if burn[v])
            if len(batch) != required:
                violations.append(Violation(t, -1, f"batch size {len(batch)}, expected {required}"))
        for v in ignited:  # before the top-up, so its scans pass over these
            burn[v] = t
        if pad:
            while len(ignited) < required:
                try:
                    cursor = burn.index(0, cursor)  # the next unburnt id, found in C
                except ValueError:
                    cursor = n
                    break
                if later[cursor] <= t:
                    burn[cursor] = t
                    ignited.append(cursor)
                cursor += 1
            # only vertices listed for later rounds are left: take the smallest
            for v in islice((u for u in range(n) if not burn[u]), required - len(ignited)):
                burn[v] = t
                ignited.append(v)
        unburnt -= len(ignited)
        if ignited:
            completion = t
        batches.append(ignited)
        frontier = new + ignited
        if t >= listed and not frontier and unburnt:
            reason = f"unburnable residue: {unburnt} vertices unreachable from any source"
            violations.append(Violation(t, burn.index(0), reason))
            break
    return burn, completion, violations, batches


def simulate(g: Graph, s: Schedule, strict: bool = True) -> BurnReport:
    """Run the k-burning process for a schedule and judge its validity.

    Violations recorded: a batch vertex already burnt at ignition time; in
    strict mode, any round whose batch size differs from ``min(k,
    unburnt-after-propagation)`` (vertex -1); and unburnable residue
    (vertices no listed source can ever reach).  Simulation always runs to
    the end: burnt state is reported even for invalid schedules.
    """
    validate_schedule(g, s)
    burn, completion, violations, _ = _run_rounds(g, s.k, s.rounds, "check")
    violations = [v for v in violations if strict or v.vertex >= 0]
    return BurnReport(
        burn_round=[r if r else None for r in burn],
        completion_round=completion,
        # a vertex left unburnt always comes with a residue violation
        valid=not violations,
        violations=violations,
    )


def check_labels(g: Graph, s: Schedule, labels: Sequence[int]) -> int:
    """Certify ``s`` strictly from its claimed burn rounds; return its completion.

    ``labels[v]`` claims the round vertex v burns.  The check reads each
    adjacency list once, in vertex-id order, and shares no code with the
    round loop but the structural ``validate_schedule``.  With m(v) the
    least label among v's neighbours (infinite when it has none), it
    raises RuntimeError unless every label is an int and:

    - a vertex ignited at round r has label r and m(v) >= r;
    - any other vertex has label m(v) + 1;
    - every round t in 1..max(completion, listed rounds) ignites exactly
      min(k, #{labels > t} + |batch t|) vertices.

    The least label then belongs to an ignited vertex (any other is one
    above a neighbour's), so every label is at least 1.  Before the
    completion round #{labels > t} >= 1, so the batch-size condition asks
    for exactly k there; from the completion round on it asks only what
    the labels already imply, so that is what the code checks.

    The labels are exactly the burn rounds, by induction on t.  Suppose
    the vertices labelled below t are those burnt before round t.
    Propagation at round t reaches an unburnt v iff a neighbour is
    labelled below t, that is iff m(v) < t.  A vertex labelled t that is
    not ignited has m(v) = t - 1, so propagation burns it now.  One
    ignited at round t has m(v) >= t, so it is still unburnt and its
    ignition is legal.  A vertex labelled above t has m(v) >= t and is not
    in batch t, so it stays unburnt.  Hence the vertices labelled t are
    those burnt at round t, every vertex burns (labels are finite), and
    the unburnt count after propagation at round t is #{labels > t} +
    |batch t|: the batch-size condition is strict validity itself.
    """
    validate_schedule(g, s)
    n, rounds = g.n, s.rounds
    labels = list(labels)
    if len(labels) != n:
        raise RuntimeError(f"{len(labels)} labels for {n} vertices")
    if not set(map(type, labels)) <= {int}:
        raise RuntimeError("labels must be integers")
    # want[v] = m(v) + 1, the least of the neighbours' labels plus one; an
    # isolated vertex reads the sentinel at index n
    plus1 = [*map(add, labels, repeat(1)), inf]
    adj = g.adj if all(g.adj) else [a or [n] for a in g.adj]
    want = list(map(min, map(map, repeat(plus1.__getitem__), adj)))
    for r, batch in enumerate(rounds, start=1):
        for v in batch:
            if labels[v] != r:
                raise RuntimeError(f"vertex {v}: ignited at round {r} but labelled {labels[v]}")
            if want[v] <= r:
                raise RuntimeError(f"vertex {v}: ignited at round {r}, "
                                   f"but propagation reaches it at round {want[v]}")
            want[v] = r
    if want != labels:
        v = next(v for v in range(n) if want[v] != labels[v])
        if want[v] == inf:
            raise RuntimeError(f"vertex {v}: never burns, yet labelled {labels[v]}")
        raise RuntimeError(f"vertex {v}: labelled {labels[v]}, "
                           f"but propagation reaches it at round {want[v]}")
    completion = max(labels, default=0)
    for t in range(1, completion):
        size = len(rounds[t - 1]) if t <= len(rounds) else 0
        if size != s.k:
            raise RuntimeError(f"round {t}: batch size {size}, expected {s.k}")
    return completion


def completion_closed_form(g: Graph, ignitions: list[tuple[int, int]]) -> int:
    """Completion round by the covering formula, independent of simulation.

    A source ignited at round r reaches radius t - r by round t, so the
    process ends at ``max_v min_(s,r) (r + dist(s, v))``: one breadth-first
    search whose sources join when its level reaches their round.  Raises
    ValueError for an ignition vertex not an int in 0..n-1 or a round not a
    positive int, or if some vertex is unreachable from every ignition vertex.
    """
    for v, r in ignitions:
        if not _fits(v, 0, g.n - 1):
            raise ValueError(f"invalid ignition vertex {v!r}")
        if not _fits(r, 1):
            raise ValueError(f"ignition round must be a positive int, got {r!r}")
    if g.n == 0:
        return 0
    if not ignitions:
        raise ValueError("no ignitions given")
    starts = sorted((r, v) for v, r in ignitions)
    arrival: list[int | None] = [None] * g.n
    level: list[int] = []
    i = t = 0
    while level or i < len(starts):
        t = t + 1 if level else starts[i][0]  # idle rounds are skipped
        reached = [u for x in level for u in g.adj[x]]
        while i < len(starts) and starts[i][0] == t:
            reached.append(starts[i][1])
            i += 1
        level = []
        for u in reached:
            if arrival[u] is None:
                arrival[u] = t
                level.append(u)
    if None in arrival:
        raise ValueError(f"vertex {arrival.index(None)} unreachable from all ignition vertices")
    return max(arrival)  # type: ignore[type-var]


def _pad_certified(g: Graph, k: int, batches: list[list[int]]) -> tuple[Schedule, int]:
    """One pad pass whose own burn rounds ``check_labels`` certifies: (schedule, completion)."""
    burn, _, _, padded = _run_rounds(g, k, batches, "pad")
    sched = Schedule(k, padded)
    return sched, check_labels(g, sched, burn)


def pad_schedule(g: Graph, s: Schedule) -> Schedule:
    """Extend a schedule to strict batch sizes without delaying completion.

    The input must simulate without "already burnt at ignition" violations
    (undersized batches and missing trailing rounds are what padding is
    for).  Free choices go to the smallest unburnt vertex id, so the result
    is deterministic; the padded schedule, certified by ``_pad_certified``,
    is strict-valid and completes no later than the input.
    """
    if any(v.reason == "already burnt at ignition" for v in simulate(g, s, strict=False).violations):
        raise ScheduleError("input schedule has ignition violations; cannot pad")
    return _pad_certified(g, s.k, s.rounds)[0]


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule document: line 1 ``k R``, then R batch lines."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ScheduleError("missing 'k R' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ScheduleError(f"expected 'k R' header, got {lines[0].strip()!r}")
    try:
        k, r = int(head[0]), int(head[1])
    except ValueError:
        raise ScheduleError(f"expected two integers, got {lines[0].strip()!r}") from None
    if k < 1 or r < 0:
        raise ScheduleError("k must be positive and R non-negative")
    if len(lines) < 1 + r:
        raise ScheduleError(f"expected {r} batch lines, found {len(lines) - 1}")
    for extra in lines[1 + r:]:
        if extra.strip():
            raise ScheduleError(f"unexpected content after {r} batch lines: {extra.strip()!r}")
    batches: list[list[int]] = []
    for i, raw in enumerate(lines[1:1 + r], start=2):
        try:
            batches.append([int(tok) for tok in raw.split()])
        except ValueError:
            raise ScheduleError(f"line {i}: batches must be space-separated integers") from None
    return Schedule(k, batches)


def serialize_schedule(s: Schedule) -> str:
    out = [f"{s.k} {len(s.rounds)}"]
    out.extend(" ".join(str(v) for v in batch) for batch in s.rounds)
    return "\n".join(out) + "\n"
