import random
import tracemalloc
from collections import Counter

import pytest

from burnkit import (
    Cnf3,
    ReductionError,
    Schedule,
    assignment_to_schedule,
    bfs_distances,
    build_sat_instance,
    build_vc_instance,
    complete_graph,
    exact_burning_number,
    graph_from_edges,
    parse_dimacs_cnf,
    parse_graph,
    path_graph,
    satisfies,
    schedule_sources,
    schedule_to_assignment,
    schedule_to_vc,
    serialize_graph,
    simulate,
    star_graph,
    vc_to_schedule,
)
from burnkit.reductions import (
    load_sat_instance,
    load_vc_instance,
    original_edges,
    sat_instance_meta,
    vc_instance_meta,
)

from .strategies import (
    brute_force_min_cover,
    random_connected_graph,
    random_graph,
    reference_vc_gadget,
    reference_vc_roles,
)


def prism_graph():
    return graph_from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    )


def petersen_graph():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return graph_from_edges(10, sorted((min(u, v), max(u, v)) for u, v in edges))


# --- vertex-cover gadget ---------------------------------------------------


def test_vc_counts_k1():
    inst = build_vc_instance(complete_graph(4), 1, 3)
    tags = Counter(role[0] for role in reference_vc_roles(inst))
    assert inst.gprime.n == 99
    assert tags == {"v": 4, "e": 12, "d": 48, "tail": 24, "iso": 11}


def test_vc_counts_k2_isolated_formula():
    inst = build_vc_instance(complete_graph(4), 2, 3)
    tags = Counter(role[0] for role in reference_vc_roles(inst))
    assert tags["iso"] == (2 - 1) * 3 + 2 * (2 * 4 * 2 + 3) == 41
    assert tags["d"] == 6 * 2 * 4 * 2


def test_vc_endpoint_distance_is_corridor_length():
    for k in (1, 2):
        inst = build_vc_instance(complete_graph(4), k, 2)
        expect = 2 * inst.n * inst.k + 3
        for u, v in original_edges(inst):
            assert bfs_distances(inst.gprime, [u]).dist[v] == expect


def test_vc_tail_attaches_at_lower_median():
    inst = build_vc_instance(complete_graph(3), 1, 2)
    role_of = reference_vc_roles(inst)
    for vid, role in enumerate(role_of):
        if role[0] == "tail" and role[3] == 1:
            anchors = [
                role_of[u] for u in inst.gprime.adj[vid] if role_of[u][0] == "d"
            ]
            assert anchors == [("d", role[1], role[2], inst.n * inst.k)]


def test_vc_gadget_matches_the_role_tagging_builder():
    # 60 seeded graphs for each of k = 1, 2, 3 and the connected variant; one
    # with a vertex on no edge is refused, naming the smallest such vertex
    rng = random.Random(27)
    compared = Counter()
    for case in range(240):
        k, connected = (case % 4 or 1, case % 4 == 0)
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        q = rng.randint(1, g.n)
        lone = [x for x in range(g.n) if not g.adj[x]]
        if lone:
            with pytest.raises(ReductionError, match=f"^input vertex {lone[0]} lies on no edge$"):
                build_vc_instance(g, k, q, connected=connected)
            continue
        inst = build_vc_instance(g, k, q, connected=connected)
        want = reference_vc_gadget(g, k, q, connected)[0]
        assert inst.gprime.adj == want.adj, (g.adj, k, q, connected)
        compared[case % 4] += 1
    assert min(compared[variant] for variant in range(4)) >= 25, compared


@pytest.mark.parametrize("connected", [False, True])
def test_vc_gadget_refuses_a_vertex_on_no_edge(connected):
    # the 3-vertex path plus vertex 3: vertex 3 would need a round of its
    # own, so at q = 1 = tau the gadget would burn in 13 rounds, one past
    # its round bound of 12
    g = graph_from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(ReductionError, match="^input vertex 3 lies on no edge$"):
        build_vc_instance(g, 1, 1, connected=connected)
    meta = {"kind": "vc-burning-instance", "n": 4, "edges": [[0, 1], [1, 2]], "k": 1, "q": 1,
            "connected": connected}
    with pytest.raises(ReductionError, match="^input vertex 3 lies on no edge$"):
        load_vc_instance(path_graph(4), meta)


@pytest.mark.parametrize("g", [path_graph(2), path_graph(3), star_graph(4)],
                         ids=["edge", "path-3", "star-4"])
def test_vc_bound_is_attained_at_k1(g):
    # at k = 1 the gadget is the same for every q, so one exact call decides
    # b <= round_bound for each q, and the bound tau + 2n + 3 is tight
    tau = len(brute_force_min_cover(g))
    gprime = build_vc_instance(g, 1, 1).gprime
    b = exact_burning_number(gprime, 1)[0]
    assert b == tau + 2 * g.n + 3
    for q in range(1, g.n + 1):
        inst = build_vc_instance(g, 1, q)
        assert inst.gprime.adj == gprime.adj
        assert (b <= inst.round_bound) == (tau <= q)


def test_vc_gadget_build_memory():
    rng = random.Random(100)
    pairs = rng.sample([(u, v) for u in range(100) for v in range(u + 1, 100)], 300)
    g = graph_from_edges(100, sorted(pairs + [(0, 85)]))  # the draw leaves 85 on no edge
    tracemalloc.start()
    try:
        inst = build_vc_instance(g, 1, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.gprime.n == 91205
    assert peak <= 20_000_000, peak


def test_schedule_to_vc_memory():
    # the 100-vertex path plus 101 chords: a 60,703-vertex gadget whose
    # cover is read off the sources' ids, with no search beyond simulate's
    rng = random.Random(5)
    chords = rng.sample([(u, v) for u in range(100) for v in range(u + 2, 100)], 101)
    g = graph_from_edges(100, sorted([(u, u + 1) for u in range(99)] + chords))
    cover: set[int] = set()
    for u, v in g.edges():  # greedy: an uncovered edge takes its larger end
        if u not in cover and v not in cover:
            cover.add(v)
    inst = build_vc_instance(g, 1, len(cover))
    sched = vc_to_schedule(inst, cover)
    assert inst.gprime.n == 60703
    tracemalloc.start()
    try:
        assert schedule_to_vc(inst, sched) == sorted(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000, peak


def test_vc_parameter_validation():
    g = complete_graph(4)
    with pytest.raises(ReductionError):
        build_vc_instance(g, 0, 2)
    with pytest.raises(ReductionError):
        build_vc_instance(g, 1, 0)
    with pytest.raises(ReductionError):
        build_vc_instance(g, 1, 5)
    with pytest.raises(ReductionError):
        build_vc_instance(g, 2, 2, connected=True)


def test_vc_gadget_above_the_vertex_bound_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ReductionError) as exc:
            build_vc_instance(path_graph(3), 100000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "gadget of 60001600012 vertices exceeds the vertex bound 100000000"
    assert peak < 1 << 20


@pytest.mark.parametrize("k,q,connected", [(1, 2, False), (3, 1, False), (1, 2, True)])
def test_vc_gadget_size_is_checked_exactly(monkeypatch, k, q, connected):
    g = complete_graph(4)
    n = build_vc_instance(g, k, q, connected=connected).gprime.n
    monkeypatch.setattr("burnkit.reductions.MAX_VERTICES", n)
    assert build_vc_instance(g, k, q, connected=connected).gprime.n == n
    monkeypatch.setattr("burnkit.reductions.MAX_VERTICES", n - 1)
    with pytest.raises(ReductionError, match=f"gadget of {n} vertices exceeds"):
        build_vc_instance(g, k, q, connected=connected)


@pytest.mark.parametrize("cnf", [Cnf3(3, ((1, -2, 3),)), Cnf3(5, ((1, 2, 3), (-4, 5, -1)))])
def test_sat_gadget_size_is_checked_exactly(monkeypatch, cnf):
    # 2n literal vertices, 4n(n - 1) path vertices, one per clause
    n = 2 * cnf.n_vars + 4 * cnf.n_vars * (cnf.n_vars - 1) + len(cnf.clauses)
    monkeypatch.setattr("burnkit.reductions.MAX_VERTICES", n)
    assert build_sat_instance(cnf).inst.graph.n == n
    monkeypatch.setattr("burnkit.reductions.MAX_VERTICES", n - 1)
    message = f"^gadget of {n} vertices exceeds the vertex bound {n - 1}$"
    with pytest.raises(ReductionError, match=message):
        build_sat_instance(cnf)


def test_vc_forward_schedule_k4():
    inst = build_vc_instance(complete_graph(4), 1, 3)
    sched = vc_to_schedule(inst, [1, 2, 3])
    assert len(sched.rounds) == 3 + 2 * 4 + 3 == 14
    rep = simulate(inst.gprime, sched)
    assert rep.valid and rep.completion_round == 14


def test_vc_forward_schedule_triangle():
    inst = build_vc_instance(complete_graph(3), 1, 2)
    sched = vc_to_schedule(inst, [0, 1])
    assert len(sched.rounds) == 2 + 2 * 3 + 3 == 11
    assert simulate(inst.gprime, sched).valid


def test_vc_forward_rejects_non_cover():
    inst = build_vc_instance(complete_graph(4), 1, 3)
    with pytest.raises(ReductionError):
        vc_to_schedule(inst, [0])
    with pytest.raises(ReductionError):
        vc_to_schedule(inst, [0, 1, 2, 3])  # over budget


def test_vc_reverse_recovers_cover():
    inst = build_vc_instance(complete_graph(4), 1, 3)
    sched = vc_to_schedule(inst, [1, 2, 3])
    assert schedule_to_vc(inst, sched) == [1, 2, 3]
    tri = build_vc_instance(complete_graph(3), 1, 2)
    assert schedule_to_vc(tri, vc_to_schedule(tri, [0, 1])) == [0, 1]


def test_vc_round_trip_non_minimal_cover():
    # any cover within the budget round-trips, not only minimum ones
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = build_vc_instance(g, 1, 3)
    sched = vc_to_schedule(inst, [0, 1, 2])
    assert simulate(inst.gprime, sched).valid
    recovered = schedule_to_vc(inst, sched)
    assert recovered == [0, 1, 2]


def test_vc_reverse_rejects_isolated_only_schedule():
    inst = build_vc_instance(complete_graph(3), 1, 2)
    iso = [vid for vid, role in enumerate(reference_vc_roles(inst)) if role[0] == "iso"]
    rounds = [[v] for v in iso]
    with pytest.raises(ReductionError):
        schedule_to_vc(inst, Schedule(1, rounds))


def test_vc_reverse_rejects_overlong_schedule():
    inst = build_vc_instance(complete_graph(3), 1, 2)
    sched = vc_to_schedule(inst, [0, 1])
    # delay everything by one empty round: length exceeds the budget and
    # the leading empty batch breaks strictness too
    padded = Schedule(1, [[]] + sched.rounds)
    with pytest.raises(ReductionError):
        schedule_to_vc(inst, padded)


def test_vc_forward_with_k2():
    inst = build_vc_instance(complete_graph(4), 2, 3)
    sched = vc_to_schedule(inst, [1, 2, 3])
    assert len(sched.rounds) == 3 + 2 * 4 * 2 + 3 == 22
    rep = simulate(inst.gprime, sched)
    assert rep.valid
    cover = schedule_to_vc(inst, sched)
    assert cover == [1, 2, 3]


def test_vc_structural_invariants_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        k = rng.randint(1, 3)
        q = rng.randint(1, n)
        inst = build_vc_instance(g, k, q)
        tags = Counter(role[0] for role in reference_vc_roles(inst))
        m = g.m
        assert tags["v"] == n
        assert tags["e"] == 2 * m
        assert tags["d"] == m * 2 * n * k
        assert tags["tail"] == m * n
        assert tags["iso"] == (k - 1) * q + k * (2 * n * k + 3)
        assert original_edges(inst) == sorted(g.edges())


# --- connected variant ------------------------------------------------------


def test_vc_connected_structure():
    g = complete_graph(3)
    inst = build_vc_instance(g, 1, 2, connected=True)
    assert inst.connected
    assert inst.n == g.n + 2 and inst.q == 3
    assert len(list(inst.gprime.edges())) == inst.gprime.m
    # single component by construction
    from burnkit import connected_components

    assert len(connected_components(inst.gprime)) == 1
    # the stretch after the w-run holds exactly (2n+3)^2 vertices
    tags = Counter(role[0] for role in reference_vc_roles(inst))
    q_run = inst.q + 2 * inst.n + 2
    blocks = 2 * inst.n + 3
    assert tags["backbone"] == q_run + blocks * (2 * inst.n + 2)
    assert tags["iso"] == blocks
    assert blocks * (2 * inst.n + 2) + blocks == (2 * inst.n + 3) ** 2


def test_vc_connected_round_trip():
    g = complete_graph(3)
    inst = build_vc_instance(g, 1, 2, connected=True)
    sched = vc_to_schedule(inst, [0, 1])
    assert len(sched.rounds) == inst.round_bound
    rep = simulate(inst.gprime, sched)
    assert rep.valid
    # w ignites first
    w = inst.n - 2
    assert sched.rounds[0] == [w]
    cover = schedule_to_vc(inst, sched)
    assert cover == [0, 1]
    assert max(cover) < g.n


def test_vc_connected_k4():
    g = complete_graph(4)
    inst = build_vc_instance(g, 1, 3, connected=True)
    sched = vc_to_schedule(inst, [0, 1, 2])
    rep = simulate(inst.gprime, sched)
    assert rep.valid and len(sched.rounds) == inst.round_bound
    assert schedule_to_vc(inst, sched) == [0, 1, 2]


# --- vc instance files -------------------------------------------------------


def test_vc_meta_round_trip():
    inst = build_vc_instance(prism_graph(), 2, 4)
    meta = vc_instance_meta(inst)
    again = load_vc_instance(parse_graph(serialize_graph(inst.gprime)), meta)
    assert again.gprime.adj == inst.gprime.adj
    assert (again.n, again.k, again.q, again.connected) == (inst.n, inst.k, inst.q, False)
    assert again.base_edges == inst.base_edges


# --- 3-SAT scheduling gadget -------------------------------------------------


def test_sat_vertex_count_n2():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1),)))
    assert si.inst.graph.n == 13  # 4 literal + 4 top + 4 bottom + 1 clause
    assert si.inst.sources == (0, 1, 2, 3)
    assert si.inst.k == 1


def test_sat_vertex_count_n1():
    si = build_sat_instance(Cnf3(1, ((1, 1, -1),)))
    assert si.inst.graph.n == 3
    assert si.inst.sources == (0, 1)


def test_sat_clause_attaches_to_top_path_ends():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1),)))
    cid = si.clause_vertex[0]
    nbrs = set(si.inst.graph.adj[cid])
    assert nbrs == {si.top_end[1], si.top_end[2], si.top_end[-1]}
    # the i-th literal's top path keeps the clause 2(n-i)+1 hops away
    dist = bfs_distances(si.inst.graph, [si.literal_vertex[1]]).dist
    assert dist[cid] == 2 * (2 - 1) + 1
    dist = bfs_distances(si.inst.graph, [si.literal_vertex[2]]).dist
    assert dist[cid] == 1


def test_sat_path_lengths():
    n = 3
    si = build_sat_instance(Cnf3(n, ((1, 2, 3),)))
    g = si.inst.graph
    for i in range(1, n + 1):
        for lit in (i, -i):
            v = si.literal_vertex[lit]
            hang = [u for u in g.adj[v] if u not in si.clause_vertex]
            # top and bottom path stubs (absent when i = n)
            assert len(hang) == (2 if i < n else 0)


def test_sat_build_rejects_empty_formula():
    with pytest.raises(ReductionError):
        build_sat_instance(Cnf3(1, ()))


def test_sat_assignment_to_schedule_example():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1),)))
    ordering = assignment_to_schedule(si, {1: True, 2: True})
    lv = si.literal_vertex
    assert ordering == {lv[1]: 1, lv[-1]: 2, lv[2]: 3, lv[-2]: 4}
    batches = [[] for _ in range(4)]
    for v, r in ordering.items():
        batches[r - 1].append(v)
    rep = simulate(si.inst.graph, Schedule(1, batches), strict=False)
    assert rep.valid and rep.completion_round <= 4


def test_sat_assignment_to_schedule_n1():
    si = build_sat_instance(Cnf3(1, ((1, 1, -1),)))
    ordering = assignment_to_schedule(si, {1: True})
    assert ordering == {si.literal_vertex[1]: 1, si.literal_vertex[-1]: 2}


def test_sat_unsatisfying_assignment_rejected():
    si = build_sat_instance(Cnf3(1, ((1, 1, 1),)))
    with pytest.raises(ReductionError):
        assignment_to_schedule(si, {1: False})


def test_sat_schedule_to_assignment_examples():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1),)))
    lv = si.literal_vertex
    got = schedule_to_assignment(si, {lv[-1]: 1, lv[1]: 2, lv[2]: 3, lv[-2]: 4})
    assert got == {1: False, 2: True}
    si1 = build_sat_instance(Cnf3(1, ((1, 1, -1),)))
    assert schedule_to_assignment(
        si1, {si1.literal_vertex[1]: 1, si1.literal_vertex[-1]: 2}
    ) == {1: True}


def test_sat_out_of_order_ignition_rejected():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1),)))
    lv = si.literal_vertex
    # placing the second variable's literal in round 1 starves pair one
    with pytest.raises(ReductionError):
        schedule_to_assignment(si, {lv[2]: 1, lv[1]: 2, lv[-1]: 3, lv[-2]: 4})


def test_sat_feasibility_tracks_satisfiability():
    forced_true = build_sat_instance(Cnf3(1, ((1, 1, 1),)))
    ordering = schedule_sources(forced_true.inst, 2)
    assert ordering == {0: 1, 1: 2}
    assert schedule_to_assignment(forced_true, ordering) == {1: True}
    contradiction = build_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
    assert schedule_sources(contradiction.inst, 2) is None


def test_sat_meta_round_trip():
    si = build_sat_instance(Cnf3(2, ((1, 2, -1), (-2, -2, 1))))
    meta = sat_instance_meta(si)
    again = load_sat_instance(parse_graph(serialize_graph(si.inst.graph)), meta)
    assert again.literal_vertex == si.literal_vertex
    assert again.clause_vertex == si.clause_vertex
    assert again.cnf == si.cnf
    assert again.top_end == si.top_end


@pytest.mark.parametrize("load, meta", [
    (load_sat_instance, {"kind": "sat-scheduling-instance", "n_vars": 5000, "clauses": [[1, 2, 3]]}),
    (load_vc_instance, {"kind": "vc-burning-instance", "n": 3, "edges": [[0, 1], [1, 2]],
                        "k": 100000, "q": 1, "connected": False}),
])
def test_a_sidecar_for_a_larger_gadget_is_refused_before_it_is_built(load, meta):
    # the counts differ (about 10**8 and 6 * 10**10 vertices against 4), so
    # nothing of gadget size is made
    tracemalloc.start()
    try:
        with pytest.raises(ReductionError, match=r"^sidecar describes a gadget of \d+ vertices, "
                                                 r"the graph has 4$"):
            load(path_graph(4), meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sat_structural_invariants_random():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        lits = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        clauses = tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(m))
        si = build_sat_instance(Cnf3(n, clauses))
        g = si.inst.graph
        # 2n literal vertices, four 2(n-i)-vertex paths per variable, m clauses
        assert g.n == 2 * n + 4 * n * (n - 1) + m
        assert si.inst.sources == tuple(range(2 * n))
        for idx, clause in enumerate(clauses):
            cid = si.clause_vertex[idx]
            assert set(g.adj[cid]) == {si.top_end[lit] for lit in clause}



def reference_sat_edges(n, clauses):
    """The gadget's edges as the construction reads: each literal's top path,
    then its bottom path, then every clause joined to its literals' top ends."""
    next_id, edges, top_end = 2 * n, [], {}
    for kind in ("top", "bottom"):
        for i in range(1, n + 1):
            for lit in (i, -i):
                prev = 2 * (i - 1) + (lit < 0)
                for _ in range(2 * (n - i)):
                    edges.append((prev, next_id))
                    prev, next_id = next_id, next_id + 1
                if kind == "top":
                    top_end[lit] = prev
    for clause in clauses:
        edges += [(top_end[lit], next_id) for lit in set(clause)]
        next_id += 1
    return next_id, edges


def test_sat_gadget_hands_the_builder_ascending_pairs(monkeypatch):
    # pairs (u, v) with u < v in ascending order take the builder's ordered
    # path, which sorts no adjacency list; the graph is the construction's
    import burnkit.graph as graph_module

    handed = []
    build = graph_module._build

    def spy(n, ids, *args):
        handed.append(list(ids))
        return build(n, ids, *args)

    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 6)
        lits = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
        clauses = tuple(tuple(rng.choice(lits) for _ in range(3)) for _ in range(rng.randint(1, 4 * n)))
        handed.clear()
        monkeypatch.setattr(graph_module, "_build", spy)
        g = build_sat_instance(Cnf3(n, clauses)).inst.graph
        monkeypatch.undo()
        [ids] = handed
        pairs = list(zip(ids[::2], ids[1::2]))
        assert all(u < v for u, v in pairs), clauses
        assert pairs == sorted(set(pairs)), clauses
        assert g.adj == graph_from_edges(*reference_sat_edges(n, clauses)).adj, clauses


# --- DIMACS parsing ----------------------------------------------------------


def test_dimacs_parse():
    cnf = parse_dimacs_cnf("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 2 0\n")
    assert cnf.n_vars == 3
    assert cnf.clauses == ((1, -2, 3), (-1, 2, 2))


def test_dimacs_multiline_clause():
    cnf = parse_dimacs_cnf("p cnf 2 1\n1\n-2 1 0\n")
    assert cnf.clauses == ((1, -2, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3 0\n",  # missing header
        "p cnf 2 1\n1 2 0\n",  # clause with 2 literals
        "p cnf 2 1\n1 2 -1 3 0\n",  # clause with 4 literals / var out of range
        "p cnf 2 2\n1 1 1 0\n",  # clause count mismatch
        "p cnf 2 1\n1 2 -1\n",  # unterminated clause
        "p cnf x 1\n1 2 -1 0\n",  # a count that is no integer
        "p cnf 3 1\np cnf 4 1\n1 2 4 0\n",  # a second problem line
    ],
)
def test_dimacs_errors(text):
    with pytest.raises(ReductionError):
        parse_dimacs_cnf(text)


def test_cnf_validation():
    with pytest.raises(ReductionError):
        Cnf3(2, ((1, 2),))
    with pytest.raises(ReductionError):
        Cnf3(2, ((1, 2, 0),))
    with pytest.raises(ReductionError):
        Cnf3(2, ((1, 2, 3),))
    with pytest.raises(ReductionError, match="^bad clause 5$"):
        Cnf3(3, (5,))  # a clause that is not a list or tuple
    assert satisfies(Cnf3(2, ((1, -2, 1),)), {1: False, 2: False})
