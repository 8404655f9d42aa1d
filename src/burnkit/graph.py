"""Shared graph primitives: parsing, serialization, distances, components.

Vertex ids are dense integers 0..n-1.  Graphs are simple and undirected,
may be disconnected, and are treated as immutable once built: every
algorithm in this package reads adjacency lists without mutating them,
so sharing a graph across threads is safe.

Every plain distance query in the package (``bfs_distances``, components,
the fixed-source scheduler's balls on its lists path) runs on the one
search ``_bfs``.  On graphs of at most ``exact._BIT_VERTICES``
vertices the scheduler first runs a bit-parallel search of its own, whose
levels are its ball masks, and turns to ``_bfs`` once a search deeper than
|S| hops (S the sources) holds more bytes of masks past the |S| + 1 radii
the lists path keeps than its ``_bfs`` lists would take.
"""

from __future__ import annotations

import gc
import json
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress, islice
from math import inf
from operator import eq, gt, lt
from typing import Callable, Iterable, Iterator


MAX_VERTICES = 10**8
"""Largest vertex count a graph may have.  Each vertex costs about 104 bytes
before any edge (its id in the table and its empty adjacency list), so the
bound is about 10 GB; builders and the parser check it before allocating
anything of size n."""


def _fits(x, lo: float, hi: float = inf) -> bool:
    """Whether x is an int (a bool is not one) in lo..hi: the package's one int test."""
    return type(x) is int and lo <= x <= hi


def _positive(x, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless x is a positive int (a bool is not one)."""
    if not _fits(x, -inf):
        raise error(f"{what} must be an int, got {x!r}")
    if x < 1:
        raise error(f"{what} must be positive")


_SLICE = 1 << 16
"""Characters of whole lines that parse_graph converts at a time."""

_COMMAS = bytes.maketrans(b" \n", b",,")


class GraphFormatError(ValueError):
    """Malformed edge-list document; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Graph:
    """Simple undirected graph in adjacency-list form.

    ``adj[v]`` lists the neighbors of ``v`` in ascending order and is
    symmetric (u lists v iff v lists u).  No self-loops, no duplicate
    edges.  In a graph from this module's builders every entry naming
    vertex v is one shared int object, so the lists hold n ints, not 2m.

    The builders pause the process-global cyclic garbage collector while
    they allocate the n lists (which hold no cycles) and then restore its
    prior state.  A thread that turns the collector off while another
    thread is building a graph may therefore find it back on.
    """

    n: int
    adj: list[list[int]]

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


class _BadEdge(ValueError):
    """The first bad edge of a build; ``args`` are its message and input index."""


def _build(n: int, ids: list[int], out_of_range: str, vid: list[int] | None = None) -> Graph:
    """Graph from a flat id list ``[u0, v0, u1, v1, ...]``: the one edge checker.

    Pairs (u, v) with u < v in strictly ascending order, as serialize_graph
    and the generators write them, hold no self-loop and no duplicate, and
    append every list in sorted order; that order is tested first, through
    strided ``islice`` views rather than copies, and the test stops at the
    first pair out of order.  Ids in any other order are range-checked and
    loop-checked in bulk, then sorted, and duplicates found as repeated
    neighbors.  Only if a check fails are the edges walked in input order,
    to raise _BadEdge for the first bad one; ``out_of_range`` formats an
    id's range error.  When duplicates are the only fault, their keys are
    read off the sorted lists first, so the walk's seen set holds those
    few keys, not one per edge.  Nothing of size n is allocated before the
    range and self-loop checks pass.  Then the ids are swapped in place for
    the entries of ``vid``, the table ``list(range(n))``, unless the caller
    already read them through it (and so already bounded them to 0..n-1).
    The appends stay a Python loop: on CPython 3.11 its specialized
    ``list.append`` beats ``map(list.append, ...)`` at every size measured.
    """
    def halves(start: int = 0) -> tuple[Iterator[int], Iterator[int]]:
        # views of ids[start::2] and ids[start + 1::2]
        return islice(ids, start, None, 2), islice(ids, start + 1, None, 2)

    ordered = all(map(lt, zip(*halves()), zip(*halves(2)))) and all(map(lt, *halves()))
    dups = None  # the duplicated keys, once known
    in_range = vid is not None or not ids or (min(ids) >= 0 and max(ids) < n)
    if in_range and (ordered or not any(map(eq, *halves()))):
        enabled = gc.isenabled()
        gc.disable()  # the n lists would set off full collections, and hold no cycles
        try:
            if vid is None:
                vid = list(range(n))
                ids[:] = map(vid.__getitem__, ids)
            adj: list[list[int]] = [[] for _ in vid]
            it = iter(ids)
            for u, v in zip(it, it):
                adj[u].append(v)
                adj[v].append(u)
            if ordered:
                return Graph(n, adj)
            for a in adj:
                a.sort()
            lens = [*map(len, map(set, adj))]  # the distinct neighbours of each vertex
            if sum(lens) == len(ids):
                return Graph(n, adj)
            # a duplicate is a repeated neighbour in its smaller end's sorted list
            short = compress(vid, map(gt, map(len, adj), lens))
            dups = {(u, v) for u in short
                    for v, w in zip(adj[u], islice(adj[u], 1, None)) if v == w and u < v}
        finally:
            if enabled:
                gc.enable()
    seen: set[tuple[int, int]] = set()
    it = iter(ids)
    for i, (u, v) in enumerate(zip(it, it)):
        if not (0 <= u < n and 0 <= v < n):
            raise _BadEdge(out_of_range.format(u=u, v=v, n=n), i)
        if u == v:
            raise _BadEdge(f"self-loop at vertex {u}", i)
        key = (u, v) if u < v else (v, u)
        if dups is not None and key not in dups:
            continue  # only the duplicated keys need a seen set
        if key in seen:
            raise _BadEdge(f"duplicate edge ({key[0]},{key[1]})", i)
        seen.add(key)
    raise AssertionError("no bad edge found")


_EDGE_OUT_OF_RANGE = "edge ({u},{v}) out of range for n={n}"


def _check_vertex_count(n: int) -> None:
    """Raise ValueError unless n is an int (a bool is not one) in 0..MAX_VERTICES."""
    if not _fits(n, 0, MAX_VERTICES):
        raise ValueError(f"vertex count {n} exceeds the vertex bound {MAX_VERTICES}" if _fits(n, 0)
                         else f"vertex count must be a non-negative int, got {n!r}")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable, rejecting loops and duplicates.

    Raises ValueError if n is not an int in 0..MAX_VERTICES, before the
    edges are read, or if an endpoint is not an int.
    """
    _check_vertex_count(n)
    ids = [x for u, v in edges for x in (u, v)]
    if not set(map(type, ids)) <= {int}:  # one bulk test, not a call per id
        raise ValueError("edge endpoints must be ints")
    return _graph_from_ids(n, ids)


def _graph_from_ids(n: int, ids: list[int]) -> Graph:
    """graph_from_edges for a flat id list ``[u0, v0, u1, v1, ...]``, which
    _build checks: ValueError for the first bad edge.  The caller has
    already bounded n, as graph_from_edges does before it reads an edge."""
    try:
        return _build(n, ids, _EDGE_OUT_OF_RANGE)
    except _BadEdge as e:
        raise ValueError(e.args[0]) from None


def _slices(text: str, start: int) -> Iterator[str]:
    """``text[start:]`` as slices of whole lines, each _SLICE characters or a line more."""
    while start < len(text):
        end = text.find("\n", start + _SLICE) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_ids(chunk: str, vid: list[int] | None) -> tuple[list[int], int]:
    """The one converter: a slice's ids, through ``vid`` if given, and its line count.

    A canonical slice (ASCII, every line ``digits SP digits LF``) is
    shape-tested in C and read as one JSON array by the C scanner, unless
    the scanner rejects it (a leading zero such as ``007``, an empty digit
    run); other slices have their tokens counted line by line and go
    through ``int``.  Raises ValueError for a line of neither zero nor two
    tokens or a token that is no integer, and, through ``vid``, IndexError
    for an id not below n.
    """
    tokens = None
    if chunk.isascii():
        raw = chunk.encode()
        lines = raw.count(b"\n")
        if raw.endswith(b"\n") and raw.translate(None, b"0123456789") == b" \n" * lines:
            with suppress(ValueError):
                tokens = json.loads(b"[" + raw.translate(_COMMAS)[:-1] + b"]")
    if tokens is None:
        rows = chunk.splitlines()
        if not set(map(len, map(str.split, rows))) <= {0, 2}:
            raise ValueError("a line holds neither zero nor two tokens")
        tokens = list(map(int, chunk.split()))
        lines = len(rows)
    if vid is not None:
        tokens = list(map(vid.__getitem__, tokens))
    return tokens, lines


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: first line ``n m``, then m lines ``u v``.

    Raises GraphFormatError with the 1-based line number on any of:
    malformed line, id out of range, self-loop, duplicate edge, an edge
    count that does not match the header, or n above MAX_VERTICES.

    The body is read in one walk over slices of about _SLICE characters
    of whole lines, so the text is never split into one string per line.
    Each slice converts as it comes: a canonical one (ASCII, every line
    ``digits SP digits LF``, as serialize_graph writes it) through a shape
    test and the JSON scanner in C, any other layout (CRLF, tabs, blank
    lines, signs, ``1_0``, no final LF) line by line through ``int``.  The
    first slice that fails is read line by line to its first malformed
    line and the walk stops there.  The ids go through _build once; only
    if it finds a bad edge is the body walked again to find that edge's
    line.
    """
    first = text[: text.find("\n") + 1 or len(text)].splitlines()
    if not first or not first[0].strip():
        raise GraphFormatError(1, "missing 'n m' header")
    header = first[0]
    head = header.split()
    if len(head) != 2:
        raise GraphFormatError(1, f"expected 'n m', got {header.strip()!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(1, f"expected two integers, got {header.strip()!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(1, "n and m must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(1, f"n = {n} exceeds the vertex bound {MAX_VERTICES}")
    start = len(header) + (2 if text.startswith("\r\n", len(header)) else 1)

    # The ids fill 2m slots made once (grown slice by slice instead, the list
    # left about 30 MB of outgrown buffers resident on the 1000x1000 grid),
    # read straight through the builder's table of vertex ids, so 2m ints are
    # never made.  Only when the body has m LFs, so that a header alone
    # allocates nothing of size m or n; the table also not when it would
    # outnumber the ids, nor when the body holds a "-": it would wrap a
    # negative id.
    size = 2 * m if text.count("\n", start) >= m else 0
    vid = None
    if size and n <= size and text.find("-", start) < 0:
        vid = list(range(n))
    ids = [0] * size
    end, line, error = 0, 2, None  # the ids read, the line the next slice starts at
    for chunk in _slices(text, start):
        try:
            tokens, lines = _read_ids(chunk, vid)
        except (ValueError, IndexError):
            tokens = None
        if tokens is None or end + len(tokens) > 2 * m:
            break
        ids[end:end + len(tokens)] = tokens
        end += len(tokens)
        line += lines
    else:
        chunk = ""
    del ids[end:]
    out_of_range = "vertex id out of range in ({u},{v})"
    # read the slice that failed up to its first malformed line; a bad edge before it comes first
    for idx, raw in enumerate(chunk.splitlines(), start=line):
        parts = raw.split()
        if not parts:
            continue
        if len(ids) == 2 * m:
            error = GraphFormatError(idx, f"more than {m} edge lines")
        elif len(parts) != 2:
            error = GraphFormatError(idx, f"expected 'u v', got {raw.strip()!r}")
        else:
            try:
                ids += _read_ids(raw, vid)[0]
                continue
            except ValueError:
                error = GraphFormatError(idx, f"expected two integers, got {raw.strip()!r}")
            except IndexError:  # through vid, an id >= n: every edge before it is in range
                u, v = map(int, parts)
                error = GraphFormatError(idx, out_of_range.format(u=u, v=v))
        break
    if error is None and len(ids) < 2 * m:
        error = GraphFormatError(line, f"expected {m} edges, found {len(ids) // 2}")
    try:
        g = _build(n, ids, out_of_range, vid)
    except _BadEdge as e:
        body = chain.from_iterable(map(str.splitlines, _slices(text, start)))
        edge_lines = (idx for idx, raw in enumerate(body, start=2) if raw.split())
        raise GraphFormatError(next(islice(edge_lines, e.args[1], None)), e.args[0]) from None
    if error:
        raise error
    return g


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list form: header, then edges ``u v`` with u < v, ascending."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, a in enumerate(g.adj) for v in a if u < v)
    return "\n".join(out) + "\n"


@dataclass
class DistanceTable:
    """Hop distances from the nearest vertex of a source set.

    ``dist[v]`` is None when v is unreachable from every source; an
    explicit sentinel so downstream round arithmetic can never silently
    treat an unreachable vertex as a far one.
    """

    sources: tuple[int, ...]
    dist: list[int | None]


def _bfs(g: Graph, sources: Iterable[int], max_depth: int | None = None,
         seen: list[bool] | None = None,
         tick: Callable[[], None] | None = None) -> tuple[list[int], list[int]]:
    """The one breadth-first search: the vertices within ``max_depth`` hops
    of the sources (every reachable one when None) in visit order, sources
    first at hop 0, with their hop counts.  ``seen`` is updated in place,
    and a vertex already marked in it is neither listed nor crossed.
    ``tick`` is called before each hop level is expanded, so a caller's
    time budget can stop the search there."""
    if seen is None:
        seen = [False] * g.n
    adj = g.adj
    order = []
    for s in sources:
        if not seen[s]:
            seen[s] = True
            order.append(s)
    hops = [0] * len(order)
    level = 0  # the hop count of the next level to expand
    for x, d in zip(order, hops):  # both lists grow while the loop reads them
        if d == level:  # x is the first vertex of its level
            if d == max_depth:
                break
            if tick is not None:
                tick()
            level += 1
        d += 1
        for u in adj[x]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
                hops.append(d)
    return order, hops


def bfs_distances(g: Graph, sources: Iterable[int]) -> DistanceTable:
    """Exact unweighted hop counts from the nearest source, by multi-source BFS;
    ValueError for no source, or for one that is not an int in 0..n-1."""
    srcs = list(sources)
    for s in srcs:  # before the set, which would merge True into 1
        if not _fits(s, 0, g.n - 1):
            raise ValueError(f"invalid source id {s!r}")
    srcs = sorted(set(srcs))
    if not srcs:
        raise ValueError("empty source set")
    dist: list[int | None] = [None] * g.n
    for v, d in zip(*_bfs(g, srcs)):
        dist[v] = d
    return DistanceTable(tuple(srcs), dist)


def connected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into maximal connected sets.

    Each component is sorted ascending; components are ordered by their
    smallest member.
    """
    seen = [False] * g.n
    return [sorted(_bfs(g, [s], seen=seen)[0]) for s in range(g.n) if not seen[s]]


# Builders for the standard families used throughout the test-suite and
# the scaling experiments.  The path, the cycle and the grid cut their flat
# id list from slices of the table ``list(range(n))`` and hand both to
# _build, so no int is made per edge; their pairs come in the ascending
# order that _build's order test accepts.

def path_graph(n: int) -> Graph:
    """Path 0 - 1 - ... - n-1; ValueError if n is not an int in 0..MAX_VERTICES."""
    _check_vertex_count(n)
    vid = list(range(n))
    return _build(n, list(chain.from_iterable(zip(vid, islice(vid, 1, None)))),
                  _EDGE_OUT_OF_RANGE, vid)


def cycle_graph(n: int) -> Graph:
    """Cycle on n vertices; ValueError, before any edge, unless n is an int in 3..MAX_VERTICES."""
    _check_vertex_count(n)
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    vid = list(range(n))
    # the closing pair (0, n - 1) second, so the pairs stay ascending
    return _build(n, [vid[0], vid[1], vid[0], vid[-1],
                      *chain.from_iterable(zip(islice(vid, 1, None), islice(vid, 2, None)))],
                  _EDGE_OUT_OF_RANGE, vid)


def complete_graph(n: int) -> Graph:
    """Complete graph on n vertices; ValueError unless n is an int in 0..MAX_VERTICES."""
    _check_vertex_count(n)  # before range(n) is made
    return graph_from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def star_graph(n: int) -> Graph:
    """Star: center 0 joined to 1..n-1; ValueError unless n is an int in 0..MAX_VERTICES."""
    _check_vertex_count(n)  # before range(1, n) is made
    return graph_from_edges(n, ((0, v) for v in range(1, n)))


def grid_graph(rows: int, cols: int) -> Graph:
    """Rows x cols grid, vertices row-major.

    Raises ValueError for a dimension not a non-negative int, or a grid of
    more than MAX_VERTICES vertices; a dimension of 0 gives the empty graph.
    """
    if not (_fits(rows, -inf) and _fits(cols, -inf)):
        raise ValueError(f"grid dimensions must be ints, got {rows!r}x{cols!r}")
    if rows < 0 or cols < 0:
        raise ValueError(f"grid dimensions must be non-negative, got {rows}x{cols}")
    n = rows * cols
    _check_vertex_count(n)
    vid = list(range(n))
    # 2m ids, m = rows(cols - 1) + (rows - 1)cols; [0] * a negative size is
    # [] when a dimension is 0.  Made once: grown row by row, the list left
    # about 12 MB of outgrown buffers resident on the 1000x1000 grid.
    ids = [0] * (2 * (2 * n - rows - cols))
    at = 0
    for start in range(0, n, cols or 1):  # cols is 0 only when n is
        row, below = vid[start:start + cols], vid[start + cols:start + 2 * cols]
        # (v, v + 1) then (v, v + cols) for each v but the last, then the
        # last column's vertical pair; the last row has no row below
        if below:
            pairs = [*chain.from_iterable(zip(row, row[1:], row, below)), row[-1], below[-1]]
        else:
            pairs = [*chain.from_iterable(zip(row, row[1:]))]
        ids[at:at + len(pairs)] = pairs
        at += len(pairs)
    return _build(n, ids, _EDGE_OUT_OF_RANGE, vid)
