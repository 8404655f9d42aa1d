"""Closed-form k-burning number of paths and a matching optimal schedule."""

from __future__ import annotations

from math import inf, isqrt

from .burning import Schedule, _pad_certified
from .graph import _check_vertex_count, _fits, path_graph


def path_burning_number(n: int, k: int) -> int:
    """Smallest b with k*b*b >= n, in exact integer arithmetic.

    Equals ceil(sqrt(n/k)); the integer predicate avoids floating point at
    boundary values like n = k*b*b.  ValueError unless n and k are positive ints.
    """
    if not (_fits(n, -inf) and _fits(k, -inf)):
        raise ValueError(f"n and k must be ints, got {n!r} and {k!r}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    c = -(-n // k)  # ceil(n/k)
    b = isqrt(c)
    if b * b < c:
        b += 1
    return b


def segment_sources(length: int, rounds: int, base: int = 0) -> list[tuple[int, int]]:
    """Ignition plan burning a path of ``length`` vertices in ``rounds`` rounds.

    Splits the path left-to-right into segments of 2(rounds-r)+1 vertices
    for r = 1, 2, ...; the source of each segment goes at its center (the
    last segment may be shorter, in which case the source shifts to the
    smallest offset that still covers it in time).  Returns (vertex, round)
    pairs with vertex ids offset by ``base``.  Raises ValueError for a non-int
    argument, a negative ``length`` or ``base``, or a path that cannot burn in time.
    """
    if not (_fits(length, 0) and _fits(rounds, -inf) and _fits(base, 0)):
        raise ValueError(f"bad path plan: length {length!r}, rounds {rounds!r}, base {base!r}")
    out: list[tuple[int, int]] = []
    offset = 0
    r = 1
    while offset < length:
        radius = rounds - r
        if radius < 0:
            raise ValueError(f"path of {length} vertices does not burn in {rounds} rounds")
        seg = min(2 * radius + 1, length - offset)
        center = max(0, seg - 1 - radius)
        out.append((base + offset + center, r))
        offset += seg
        r += 1
    return out


def optimal_path_schedule(n: int, k: int) -> Schedule:
    """Strict schedule burning the n-vertex path in exactly the optimal rounds.

    The path is split into k near-equal contiguous subpaths (each at most
    ceil(n/k) vertices, so each burns within b rounds); their segment
    sources run in parallel, one ignition per subpath per round.  The
    result is padded and certified, and RuntimeError is raised off round b.
    ValueError unless n and k are positive ints, before any batch if n > MAX_VERTICES.
    """
    b = path_burning_number(n, k)
    _check_vertex_count(n)  # before b batches are made for a path too large to build
    size, rem = divmod(n, k)
    batches: list[list[int]] = [[] for _ in range(b)]
    start = 0
    for i in range(min(k, n)):  # subpaths past the n-th are empty
        length = size + (1 if i < rem else 0)
        for v, r in segment_sources(length, b, base=start):
            batches[r - 1].append(v)
        start += length
    sched, completion = _pad_certified(path_graph(n), k, batches)
    if completion != b:
        raise RuntimeError(f"path schedule completes at round {completion}, not {b}")
    return sched
