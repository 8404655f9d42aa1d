import gc
import tracemalloc
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    bfs_distances,
    complete_graph,
    connected_components,
    cycle_graph,
    graph_from_edges,
    grid_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    star_graph,
)

from .strategies import floyd_warshall, graphs


def test_parse_p4():
    g = parse_graph("4 3\n0 1\n1 2\n2 3")
    assert g.n == 4 and g.m == 3
    assert g.adj == [[1], [0, 2], [1, 3], [2]]


def test_parse_single_isolated_vertex():
    g = parse_graph("1 0")
    assert g.n == 1 and g.m == 0


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 3\n0 1\n1 2\n0 1")
    assert exc.value.line == 4
    assert "duplicate" in str(exc.value)


def test_parse_reversed_duplicate_rejected():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("3 2\n0 1\n1 0")
    assert exc.value.line == 3


PARSE_ERRORS = [
    ("", 1, "missing 'n m' header"),
    ("4", 1, "expected 'n m', got '4'"),
    ("x y", 1, "expected two integers, got 'x y'"),
    ("2 1\n0", 2, "expected 'u v', got '0'"),
    ("2 1\n0 2", 2, "vertex id out of range in (0,2)"),
    ("2 1\n1 1", 2, "self-loop at vertex 1"),
    ("2 2\n0 1", 3, "expected 2 edges, found 1"),  # fewer edges than declared
    ("2 0\n0 1", 2, "more than 0 edge lines"),  # more edges than declared
    # the earlier of two bad edges is reported, whatever its kind
    ("3 3\n0 1\n1 0\n0 5", 3, "duplicate edge (0,1)"),
    # blank lines count towards line numbers but not towards edges
    ("3 2\n\n0 1\n\n  \n1 1\n", 6, "self-loop at vertex 1"),
    # a bad edge is reported before a malformed line after it
    ("3 2\n1 1\n\nx y", 2, "self-loop at vertex 1"),
    # ids -1 and n, read without and through the id table
    ("3 2\n0 1\n-1 2", 3, "vertex id out of range in (-1,2)"),
    ("3 2\n0 1\n-1 0", 3, "vertex id out of range in (-1,0)"),  # would wrap to a valid edge
    ("3 2\n0 1\n1 3", 3, "vertex id out of range in (1,3)"),
    ("9 1\n\n0 9", 3, "vertex id out of range in (0,9)"),
]


@pytest.mark.parametrize(
    "text,line,message",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in PARSE_ERRORS],
)
def test_parse_errors(text, line, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


def test_parse_negative_zero_is_zero():
    assert parse_graph("2 1\n-0 1").adj == parse_graph("2 1\n0 1").adj == [[1], [0]]


def _grid_text(rows: int, cols: int, first: str = "0") -> str:
    body = serialize_graph(grid_graph(rows, cols)).split("\n", 2)
    return "\n".join([body[0], body[1].replace("0", first, 1), body[2]])


@pytest.mark.parametrize("build", [
    lambda: parse_graph(_grid_text(40, 40)),
    lambda: parse_graph(_grid_text(40, 40, first="-0")),  # ids not read through the table
    lambda: parse_graph("2000 2\n300 1999\n1999 1000\n"),  # n > 2m: table made by the builder
    lambda: graph_from_edges(1600, [(v, v + 1) for v in range(1599)] + [(0, 1599)]),
    lambda: grid_graph(40, 40),
    lambda: path_graph(1000),
], ids=["parse", "parse-negative-zero", "parse-sparse", "from-edges", "grid", "path"])
def test_adjacency_shares_one_int_per_vertex(build):
    g = build()
    assert g.n > 256  # ids up to 256 are cached by the interpreter anyway
    entries = [u for a in g.adj for u in a]
    assert len({id(u) for u in entries}) == len(set(entries)) <= g.n


BUILDS = [
    lambda: parse_graph("3 2\n0 1\n1 2"),
    lambda: parse_graph("3 2\n0 1\n1 3"),
    lambda: parse_graph("3 2\n0 1\n-1 2"),
    lambda: parse_graph("3 2\n0 1\n1 1"),
    lambda: parse_graph("3 2\n0 1\n1 0"),
    lambda: parse_graph("3 2\n0 1\nx y"),
    lambda: parse_graph("3 2\n0 1"),
    lambda: graph_from_edges(3, [(0, 1), (1, 2)]),
    lambda: graph_from_edges(3, [(0, 3)]),
    lambda: graph_from_edges(3, [(1, 1)]),
    lambda: graph_from_edges(3, [(0, 1), (1, 0)]),
]


@pytest.mark.parametrize("enabled", [True, False])
def test_builders_restore_collector_state(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for build in BUILDS:
            with suppress(ValueError):
                build()
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_builder_runs_no_collection():
    edges = [(v, v + 1) for v in range(19999)]
    was = gc.isenabled()
    try:
        gc.enable()
        gc.collect()
        before = gc.get_stats()
        g = graph_from_edges(20000, edges)
        after = gc.get_stats()  # before anything else allocates and collects the young lists
    finally:
        (gc.enable if was else gc.disable)()
    assert g.m == 19999
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


@pytest.mark.parametrize("build", [lambda: path_graph(20000), lambda: grid_graph(141, 142)],
                         ids=["path", "grid"])
def test_generators_run_no_collection(build):
    was = gc.isenabled()
    try:
        gc.enable()
        gc.collect()
        before = gc.get_stats()
        g = build()
        after = gc.get_stats()
    finally:
        (gc.enable if was else gc.disable)()
    assert g.n >= 20000
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


@pytest.mark.parametrize("build,message", [
    (lambda: parse_graph("2000000 1\n0 2000000\n"), "line 2: vertex id out of range in (0,2000000)"),
    (lambda: parse_graph("2000000 1\n5 5\n"), "line 2: self-loop at vertex 5"),
    (lambda: graph_from_edges(2_000_000, [(0, 2_000_000)]), "edge (0,2000000) out of range for n=2000000"),
    (lambda: parse_graph(f"{MAX_VERTICES + 1} 0\n"),
     f"line 1: n = {MAX_VERTICES + 1} exceeds the vertex bound {MAX_VERTICES}"),
    (lambda: graph_from_edges(MAX_VERTICES + 1, []),
     f"vertex count {MAX_VERTICES + 1} exceeds the vertex bound {MAX_VERTICES}"),
    (lambda: path_graph(MAX_VERTICES + 1),
     f"vertex count {MAX_VERTICES + 1} exceeds the vertex bound {MAX_VERTICES}"),
    (lambda: grid_graph(10**4 + 1, 10**4),
     f"vertex count {10**8 + 10**4} exceeds the vertex bound {MAX_VERTICES}"),
], ids=["parse-range", "parse-self-loop", "from-edges-range", "parse-bound", "from-edges-bound",
        "path-bound", "grid-bound"])
def test_rejected_huge_header_allocates_nothing_of_size_n(build, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1 << 20  # 2e6 empty lists alone would take 112 MB


def test_cycle_above_the_vertex_bound_makes_no_edge(monkeypatch):
    # n edge tuples would take about 13 MB before the bound was read
    monkeypatch.setattr("burnkit.graph.MAX_VERTICES", 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count 100001 exceeds the vertex bound 100000"):
            cycle_graph(10**5 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cycle_is_the_graph_of_its_edges():
    # the ascending pairs (0,1), (0,n-1), (1,2), ... give the same lists
    for n in range(3, 13):
        edges = [(i, (i + 1) % n) for i in range(n)]
        assert cycle_graph(n).adj == graph_from_edges(n, edges).adj, n


@pytest.mark.parametrize("build,allowance", [
    # the whole-text parser peaked 7.1 MB above this graph, in its list of lines
    (lambda: serialize_graph(grid_graph(300, 300)), 4 << 20),
    (lambda: serialize_graph(grid_graph(300, 300)).replace("\n", "\r\n"), 4 << 20),
    # here the id list and the id table (4.8 MB) set the peak, as they did before
    (lambda: serialize_graph(path_graph(200_000)), 5 << 20),
], ids=["grid-300x300", "grid-300x300-crlf", "path-200000"])
def test_parse_peaks_little_above_its_graph(build, allowance):
    text = build()
    tracemalloc.start()
    try:
        g = parse_graph(text)
        graph, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == int(text.split(maxsplit=2)[1])
    assert peak - graph <= allowance


def _traced_parse(text: str) -> tuple[Graph | GraphFormatError, int]:
    """parse_graph's graph or error, and its traced peak in bytes."""
    tracemalloc.start()
    try:
        try:
            result = parse_graph(text)
        except GraphFormatError as e:
            result = e
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_error_on_the_last_line_peaks_no_higher_than_the_clean_parse():
    # the error path once split the whole text into lines and read it again
    text = serialize_graph(grid_graph(300, 300))
    bad = text[:text.rindex("\n", 0, -1) + 1] + "x 1\n"
    g, clean_peak = _traced_parse(text)
    error, peak = _traced_parse(bad)
    assert g.m == 179400
    assert str(error) == "line 179401: expected two integers, got 'x 1'"
    assert peak <= clean_peak + (1 << 20)


def test_duplicate_edge_peaks_little_above_the_clean_parse():
    # a duplicate edge once sent every pair into a seen set of tuples, which
    # peaked at 2.4 times the clean parse here; the builder now reads the
    # duplicated keys off its sorted lists and tracks only those
    text = serialize_graph(grid_graph(300, 300))
    dup = text.replace("90000 179400\n", "90000 179401\n", 1) + text[text.rindex("\n", 0, -1) + 1:]
    g, clean_peak = _traced_parse(text)
    error, peak = _traced_parse(dup)
    assert g.m == 179400
    assert str(error) == "line 179402: duplicate edge (89998,89999)"
    assert peak <= 1.5 * clean_peak, (peak, clean_peak)


def test_serialize_canonical():
    g = parse_graph("4 3\n2 3\n1 0\n1 2")
    assert serialize_graph(g) == "4 3\n0 1\n1 2\n2 3\n"


@settings(max_examples=60)
@given(graphs(max_n=20))
def test_serialize_parse_round_trip(g):
    again = parse_graph(serialize_graph(g))
    assert again.n == g.n and again.adj == g.adj


def test_bfs_examples():
    p4 = path_graph(4)
    assert bfs_distances(p4, [0]).dist == [0, 1, 2, 3]
    assert bfs_distances(p4, [0, 3]).dist == [0, 1, 1, 0]
    two_comp = graph_from_edges(3, [(0, 1)])
    assert bfs_distances(two_comp, [0]).dist == [0, 1, None]


def test_bfs_rejects_bad_sources():
    g = path_graph(3)
    with pytest.raises(ValueError):
        bfs_distances(g, [])
    with pytest.raises(ValueError):
        bfs_distances(g, [7])


@settings(max_examples=60)
@given(graphs(max_n=24), st.data())
def test_bfs_triangle_property(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    table = bfs_distances(g, sources)
    assert all(table.dist[s] == 0 for s in table.sources)
    assert all(v in table.sources for v in range(g.n) if table.dist[v] == 0)
    for u, v in g.edges():
        du, dv = table.dist[u], table.dist[v]
        if du is not None and dv is not None:
            assert abs(du - dv) <= 1
        else:
            assert du is None and dv is None


@settings(max_examples=40)
@given(graphs(max_n=32))
def test_bfs_matches_floyd_warshall(g):
    fw = floyd_warshall(g)
    for s in range(g.n):
        dist = bfs_distances(g, [s]).dist
        for v in range(g.n):
            expect = fw[s][v]
            assert dist[v] == (None if expect == float("inf") else expect)


def test_bfs_matches_floyd_warshall_n64():
    import random

    rng = random.Random(64)
    edges = [(u, v) for u in range(64) for v in range(u + 1, 64) if rng.random() < 0.05]
    g = graph_from_edges(64, edges)
    fw = floyd_warshall(g)
    for s in range(0, 64, 7):
        dist = bfs_distances(g, [s]).dist
        assert dist == [None if fw[s][v] == float("inf") else fw[s][v] for v in range(64)]


def test_components_examples():
    assert connected_components(path_graph(4)) == [[0, 1, 2, 3]]
    assert connected_components(graph_from_edges(3, [(0, 1)])) == [[0, 1], [2]]
    assert connected_components(graph_from_edges(0, [])) == []


@settings(max_examples=50)
@given(graphs(max_n=20))
def test_components_partition(g):
    comps = connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(g.n))
    mins = [comp[0] for comp in comps]
    assert mins == sorted(mins)
    for comp in comps:
        assert comp == sorted(comp)


def test_builders():
    assert path_graph(1).m == 0
    assert path_graph(5).m == 4
    assert cycle_graph(5).m == 5
    assert complete_graph(5).m == 10
    assert star_graph(5).m == 4
    g = grid_graph(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4
    with pytest.raises(ValueError):
        cycle_graph(2)


def _path_edges(n):
    """The path's edges, one tuple each: the reference for path_graph's id list."""
    return ((i, i + 1) for i in range(n - 1))


def _grid_edges(rows, cols):
    """The grid's edges, one tuple each: the reference for grid_graph's id list."""
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                yield (v, v + 1)
            if r + 1 < rows:
                yield (v, v + cols)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 1000])
def test_path_graph_matches_its_edge_generator(n):
    assert path_graph(n).adj == graph_from_edges(n, _path_edges(n)).adj


@pytest.mark.parametrize("rows,cols", [
    (0, 0), (0, 3), (3, 0), (1, 1), (1, 2), (2, 1), (1, 5), (5, 1), (2, 2), (2, 6), (6, 2),
    (40, 37),
])
def test_grid_graph_matches_its_edge_generator(rows, cols):
    g = grid_graph(rows, cols)
    assert g.n == rows * cols
    assert g.adj == graph_from_edges(rows * cols, _grid_edges(rows, cols)).adj


@pytest.mark.parametrize("rows,cols", [(-2, -3), (-1, 4), (4, -1), (-1, 0), (0, -1)])
def test_grid_graph_rejects_negative_dimensions(rows, cols):
    with pytest.raises(ValueError) as exc:
        grid_graph(rows, cols)
    assert str(exc.value) == f"grid dimensions must be non-negative, got {rows}x{cols}"


@settings(max_examples=60)
@given(graphs(max_n=20), st.randoms(use_true_random=False))
def test_build_ignores_edge_order(g, rnd):
    # ascending pairs (u, v) with u < v are built without a sort or a
    # duplicate check; any other order is sorted and checked
    edges = list(g.edges())
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in rnd.sample(edges, len(edges))]
    assert graph_from_edges(g.n, edges).adj == graph_from_edges(g.n, shuffled).adj


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 3)], "edge (1,3) out of range for n=3"),
    ([(-1, 0), (0, 1)], "edge (-1,0) out of range for n=3"),
    ([(0, 1), (0, 1)], "duplicate edge (0,1)"),
    ([(0, 1), (1, 1)], "self-loop at vertex 1"),
    ([(0, 1), (1, 2), (0, 2), (1, 0)], "duplicate edge (0,1)"),
])
def test_build_checks_edges_in_any_order(edges, message):
    with pytest.raises(ValueError) as exc:
        graph_from_edges(3, edges)
    assert str(exc.value) == message


def test_from_edges_validation():
    with pytest.raises(ValueError) as exc:
        graph_from_edges(2, [(0, 0)])
    assert str(exc.value) == "self-loop at vertex 0"
    with pytest.raises(ValueError) as exc:
        graph_from_edges(2, [(0, 1), (1, 0)])
    assert str(exc.value) == "duplicate edge (0,1)"
    with pytest.raises(ValueError) as exc:
        graph_from_edges(2, [(0, 5)])
    assert str(exc.value) == "edge (0,5) out of range for n=2"
