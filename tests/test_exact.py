import random
import re
import time
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    Cnf3,
    SchedulingInstance,
    UndeterminedError,
    approx,
    bfs_distances,
    build_sat_instance,
    build_vc_instance,
    complete_graph,
    completion_closed_form,
    cycle_graph,
    exact,
    exact_burning_number,
    graph_from_edges,
    grid_graph,
    lower_bound,
    mis_power,
    optimal_path_schedule,
    ordering_feasible,
    path_burning_number,
    path_graph,
    schedule_sources,
    segment_sources,
    simulate,
    star_graph,
    vc_to_schedule,
)

from .strategies import graphs, naive_oracle, random_connected_graph, random_graph


def naive_threshold(g, k):
    return next(L for L in range(1, g.n + 1) if naive_oracle(g, k, L))


def test_exact_examples():
    b, witness = exact_burning_number(path_graph(4), 1)
    assert b == 2
    assert witness.rounds == [[1], [3]]
    assert exact_burning_number(path_graph(1), 3)[0] == 1
    assert exact_burning_number(path_graph(9), 1)[0] == 3


def test_naive_oracle_examples():
    assert not naive_oracle(path_graph(4), 1, 1)
    assert naive_oracle(path_graph(4), 1, 2)
    assert naive_oracle(complete_graph(4), 4, 1)


def test_naive_oracle_size_guard():
    with pytest.raises(ValueError):
        naive_oracle(path_graph(10), 1, 3)


def test_exact_matches_naive_threshold():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6]))
        for k in (1, 2):
            assert exact_burning_number(g, k)[0] == naive_threshold(g, k)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=8), st.integers(1, 2))
def test_witness_is_strict_valid_with_claimed_completion(g, k):
    b, witness = exact_burning_number(g, k)
    rep = simulate(g, witness)
    assert rep.valid
    assert rep.completion_round == b


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=9), st.integers(1, 3))
def test_burning_number_bounds(g, k):
    b, _ = exact_burning_number(g, k)
    assert b <= -(-g.n // k)  # igniting everything directly always works
    assert (b == 1) == (g.n <= k)
    b_next, _ = exact_burning_number(g, k + 1)
    assert b_next <= b


def test_exact_respects_max_rounds():
    with pytest.raises(UndeterminedError):
        exact_burning_number(path_graph(9), 1, max_rounds=2)


def test_exact_respects_time_budget():
    g = path_graph(18)
    with pytest.raises(UndeterminedError):
        exact_burning_number(g, 1, time_budget=0.0)


def test_exact_budget_covers_precomputation():
    # the ball rows grown before each depth check the budget, as the search does
    t0 = time.monotonic()
    with pytest.raises(UndeterminedError):
        exact_burning_number(grid_graph(50, 40), 1, time_budget=0.2)
    assert time.monotonic() - t0 < 1.5


def test_exact_budget_covers_lower_bound_probes(monkeypatch):
    # the lower-bound probes check the deadline at every pick, so a spent
    # budget stops the search inside its first probe, not after a whole search
    probes = []
    scatter = approx._greedy_scatter

    def counted(*args, **kwargs):
        probes.append(args[1])
        return scatter(*args, **kwargs)

    monkeypatch.setattr(approx, "_greedy_scatter", counted)
    with pytest.raises(UndeterminedError):
        exact_burning_number(path_graph(300_000), 1, time_budget=0.0)
    assert len(probes) <= 1


def test_exact_budget_expires_inside_a_lower_bound_probe(monkeypatch):
    # a patched clock stands still until the first long probe of the path
    # (radius >= 256, a scan of most of the ids) starts, then ticks once per
    # read; the budget runs out after 20 reads, far short of that probe's end
    clock = {"now": 0.0, "ticking": False, "reads": 0}
    probes = []
    scatter = approx._greedy_scatter

    def monotonic():
        if clock["ticking"]:
            clock["now"] += 1.0
            clock["reads"] += 1
        return clock["now"]

    def watched(g, r, *args, **kwargs):
        clock["ticking"] = clock["ticking"] or r >= 256
        probes.append([r, False])
        order = scatter(g, r, *args, **kwargs)
        probes[-1][1] = True
        return order

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(approx, "_greedy_scatter", watched)
    with pytest.raises(UndeterminedError):
        exact_burning_number(path_graph(200_000), 1, time_budget=20.0)
    long_probes = [finished for r, finished in probes if r >= 256]
    assert long_probes == [False]  # raised inside the probe, not after it
    assert clock["reads"] == 21  # on the first pick past the deadline


def test_exact_budget_expires_while_growing_balls(monkeypatch):
    # a patched clock stands still until the ball rows first grow, then
    # ticks once per read; growth checks it per vertex, so the budget runs
    # out on the eleventh vertex of the first growth
    clock = {"now": 0.0, "ticking": False}
    growths = []
    grow = exact._grow_balls

    def monotonic():
        if clock["ticking"]:
            clock["now"] += 1.0
        return clock["now"]

    def watched(*args):
        clock["ticking"] = True
        growths.append(False)
        grow(*args)
        growths[-1] = True

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(exact, "_grow_balls", watched)
    with pytest.raises(UndeterminedError):
        exact_burning_number(path_graph(50), 1, time_budget=10.0)
    assert growths == [False]
    assert clock["now"] == 11.0


def test_exact_budget_covers_the_radius_0_rows(monkeypatch):
    # a patched clock stands still until the lower bound is found, then ticks
    # once per read; the radius-0 rows (n masks of up to n bits) are made one
    # vertex at a time under the clock, so the budget runs out on the
    # eleventh row, long before all of them hold 28.7 MB on this path
    clock = {"now": 0.0, "ticking": False}
    search = exact._search_lower_bound

    def monotonic():
        if clock["ticking"]:
            clock["now"] += 1.0
        return clock["now"]

    def watched(*args):
        found = search(*args)
        clock["ticking"] = True
        return found

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(exact, "_search_lower_bound", watched)
    g = path_graph(20_000)
    tracemalloc.start()
    try:
        with pytest.raises(UndeterminedError):
            exact_burning_number(g, 1, time_budget=10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_schedule_sources_budget_expires_inside_the_first_bfs(monkeypatch):
    # a patched clock stands still until the first source's BFS starts, then
    # ticks once per read; the BFS reads it once per hop level, so the budget
    # runs out on the eleventh level of the first search, of 50
    clock = {"now": 0.0, "ticking": False}
    searches = []
    bfs = exact._bfs

    def monotonic():
        if clock["ticking"]:
            clock["now"] += 1.0
        return clock["now"]

    def watched(*args, **kwargs):
        clock["ticking"] = True
        searches.append(False)
        found = bfs(*args, **kwargs)
        searches[-1] = True
        return found

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(exact, "_bfs", watched)
    monkeypatch.setattr(exact, "_BIT_VERTICES", 0)  # the path of the BFS lists
    with pytest.raises(UndeterminedError):
        schedule_sources(SchedulingInstance(path_graph(51), (0, 50), 1), 60, time_budget=10.0)
    assert searches == [False]
    assert clock["now"] == 11.0


def test_schedule_sources_budget_expires_inside_the_first_bit_parallel_bfs(monkeypatch):
    # a patched clock ticks once per read from the start: the deadline is
    # read at 1, then the bit-parallel BFS reads it once per hop level, so
    # the budget runs out on the eleventh level of the first source, of 50
    clock = {"now": 0.0}
    searches = []

    def monotonic():
        clock["now"] += 1.0
        return clock["now"]

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(exact, "_bfs", lambda *args, **kwargs: searches.append(args))
    with pytest.raises(UndeterminedError):
        schedule_sources(SchedulingInstance(path_graph(51), (0, 50), 1), 60, time_budget=10.0)
    assert searches == []  # the lists' BFS never ran
    assert clock["now"] == 12.0


def test_schedule_sources_budget_expires_inside_the_certifying_pass(monkeypatch):
    # a patched clock stands still until the witness is certified, then
    # ticks once per read; the round loop reads it as each of its three
    # rounds starts, so the budget runs out on the second round
    clock = {"now": 0.0, "ticking": False}
    passes = []
    certify = exact.ordering_feasible

    def monotonic():
        if clock["ticking"]:
            clock["now"] += 1.0
        return clock["now"]

    def watched(*args):
        clock["ticking"] = True
        passes.append(False)
        verdict = certify(*args)
        passes[-1] = True
        return verdict

    monkeypatch.setattr(exact.time, "monotonic", monotonic)
    monkeypatch.setattr(exact, "ordering_feasible", watched)
    inst = SchedulingInstance(path_graph(5), (0, 4), 1)
    with pytest.raises(UndeterminedError):
        schedule_sources(inst, 3, time_budget=1.0)
    assert passes == [False]
    assert clock["now"] == 2.0


def test_schedule_sources_respects_time_budget():
    cnf = Cnf3(5, ((1, 2, 3), (-1, 4, 5), (-2, -3, -4), (1, -5, 3), (2, -4, 5)))
    inst = build_sat_instance(cnf).inst
    assert schedule_sources(inst, 10) is not None
    with pytest.raises(UndeterminedError):
        schedule_sources(inst, 10, time_budget=0.0)


def test_scheduling_instance_validation():
    g = path_graph(5)
    with pytest.raises(ValueError):
        SchedulingInstance(g, (), 1)
    with pytest.raises(ValueError):
        SchedulingInstance(g, (0, 0), 1)
    with pytest.raises(ValueError):
        SchedulingInstance(g, (9,), 1)
    with pytest.raises(ValueError):
        SchedulingInstance(g, (0,), 0)


def test_scheduling_instance_rejects_a_non_integer_source():
    # ordering_feasible feeds the sources to the round loop as list indices
    with pytest.raises(ValueError, match="invalid source id 4.0"):
        SchedulingInstance(path_graph(5), (0, 4.0), 1)


P3 = path_graph(3)
P5 = path_graph(5)
P9 = path_graph(9)
P5_ENDS = SchedulingInstance(P5, (0, 4), 1)


@pytest.mark.parametrize("call, outcome", [
    (lambda: SchedulingInstance(P5, (0, True), 1), "invalid source id True"),
    (lambda: SchedulingInstance(P5, (0, "4"), 1), "invalid source id '4'"),
    (lambda: SchedulingInstance(P5, (0, 4), True), "spread factor must be an int, got True"),
    (lambda: ordering_feasible(P5_ENDS, {0: 1.0, 4: 2}, 2),
     (False, "source 0 assigned round 1.0 outside 1..2")),
    (lambda: ordering_feasible(P5_ENDS, {0: 2, 4: True}, 2),
     (False, "source 4 assigned round True outside 1..2")),
    (lambda: ordering_feasible(SchedulingInstance(P5, (0, 1), 1), {0: 1, True: 2}, 2),
     (False, "ordering must assign exactly the instance sources")),
    (lambda: ordering_feasible(P5_ENDS, {0: 1, "4": 2}, 2),
     (False, "ordering must assign exactly the instance sources")),
    (lambda: schedule_sources(P5_ENDS, 2.5), "round budget must be an int, got 2.5"),
    (lambda: schedule_sources(P5_ENDS, True), "round budget must be an int, got True"),
    (lambda: exact_burning_number(P5, 1, max_rounds=True), "round budget must be an int, got True"),
    (lambda: exact_burning_number(P5, True), "spread factor must be an int, got True"),
    (lambda: schedule_sources(P5_ENDS, 3, time_budget=True),
     "time budget must be a non-negative number of seconds, got True"),
    (lambda: exact_burning_number(P5, 1, time_budget=True),
     "time budget must be a non-negative number of seconds, got True"),
    (lambda: ordering_feasible(P5_ENDS, {0: 1, 4: 2}, 2.5), "round budget must be an int, got 2.5"),
    (lambda: ordering_feasible(P5_ENDS, {0: 1, 4: 2}, True),
     "round budget must be an int, got True"),
    (lambda: ordering_feasible(P5_ENDS, {0: 1, 4: 2}, 0), "round budget must be positive"),
    (lambda: lower_bound(P9, 1.5), "spread factor must be an int, got 1.5"),
    (lambda: approx.approx_schedule(P9, True), "spread factor must be an int, got True"),
    (lambda: mis_power(P9, True), "radius must be an int, got True"),
    (lambda: path_graph(True), "vertex count must be a non-negative int, got True"),
    (lambda: cycle_graph(4.0), "vertex count must be a non-negative int, got 4.0"),
    (lambda: complete_graph(2.5), "vertex count must be a non-negative int, got 2.5"),
    (lambda: star_graph(2.5), "vertex count must be a non-negative int, got 2.5"),
    (lambda: grid_graph(2.5, 2), "grid dimensions must be ints, got 2.5x2"),
    (lambda: graph_from_edges(3, [(0, True)]), "edge endpoints must be ints"),
    (lambda: bfs_distances(P3, [True]), "invalid source id True"),
    (lambda: completion_closed_form(P3, [(1, True)]),
     "ignition round must be a positive int, got True"),
    (lambda: completion_closed_form(P3, [(1.0, 1)]), "invalid ignition vertex 1.0"),
    (lambda: path_burning_number(2.5, 1), "n and k must be ints, got 2.5 and 1"),
    (lambda: optimal_path_schedule(9, True), "n and k must be ints, got 9 and True"),
    (lambda: segment_sources(9, 2.5), "bad path plan: length 9, rounds 2.5, base 0"),
    (lambda: build_vc_instance(P3, True, 1), "spread factor must be an int, got True"),
    (lambda: build_vc_instance(P3, 1, True), "q must be in 1..3, got True"),
    (lambda: vc_to_schedule(build_vc_instance(P3, 1, 1), [True]),
     "cover vertex True is not an input-graph vertex"),
    (lambda: Cnf3(True, ((1, 1, 1),)), "variable count must be an int, got True"),
    (lambda: Cnf3(3, ((1, 2, 3.0),)), "literal 3.0 out of range for 3 variables"),
], ids=["source", "source-str", "k", "round-float", "round-bool", "key-bool", "key-str",
        "schedule-rounds-float", "schedule-rounds-bool", "exact-max-rounds-bool", "exact-k-bool",
        "schedule-budget-bool", "exact-budget-bool", "feasible-rounds-float",
        "feasible-rounds-bool", "feasible-rounds-zero", "lower-bound-k-float", "approx-k-bool",
        "mis-radius-bool", "path-n-bool", "cycle-n-float", "complete-n-float", "star-n-float",
        "grid-float", "edge-endpoint-bool", "bfs-source-bool", "closed-form-round-bool",
        "closed-form-vertex-float", "path-number-n-float", "path-schedule-k-bool",
        "segment-rounds-float", "vc-k-bool", "vc-q-bool", "vc-cover-bool", "cnf-n-vars-bool",
        "cnf-literal-float"])
def test_scheduler_and_exact_inputs_must_be_ints_not_bools(monkeypatch, call, outcome):
    # the package's one int rule: a bool is not an int, nor is a float or a
    # str.  Each case is rejected before any work, or judged infeasible by
    # ordering_feasible
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(exact, "_ball_table", no_work)
    monkeypatch.setattr(exact, "_bfs", no_work)
    monkeypatch.setattr(exact, "_search_lower_bound", no_work)
    if isinstance(outcome, tuple):
        assert call() == outcome
    else:
        with pytest.raises(ValueError, match=re.escape(outcome)):
            call()


def test_schedule_sources_examples():
    inst = SchedulingInstance(path_graph(5), (0, 4), 1)
    assert schedule_sources(inst, 3) == {0: 1, 4: 2}
    assert schedule_sources(inst, 2) is None
    g = complete_graph(4)
    everything = SchedulingInstance(g, tuple(range(4)), 4)
    assert schedule_sources(everything, 1) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_schedule_sources_default_budget():
    # default budget is ceil(#sources / k)
    inst = SchedulingInstance(path_graph(5), (0, 4), 1)
    assert schedule_sources(inst) is None  # 2 rounds are not enough for P5
    inst2 = SchedulingInstance(complete_graph(2), (0, 1), 2)
    assert schedule_sources(inst2) == {0: 1, 1: 1}  # 1 round suffices


def test_schedule_sources_respects_ignition_order():
    # the second source must still be unburnt when its round comes, so two
    # adjacent sources can never take different rounds
    inst = SchedulingInstance(path_graph(3), (0, 1), 1)
    ok, why = ordering_feasible(inst, {0: 1, 1: 2}, 2)
    assert not ok and "already burnt" in why
    assert schedule_sources(inst, 2) is None
    assert schedule_sources(inst, 3) is None
    # with k=2 both go in round one and the path still burns in time
    inst2 = SchedulingInstance(path_graph(3), (0, 1), 2)
    assert schedule_sources(inst2, 2) == {0: 1, 1: 1}


def test_schedule_sources_source_cap():
    g = graph_from_edges(30, [])
    with pytest.raises(ValueError):
        schedule_sources(SchedulingInstance(g, tuple(range(25)), 1))


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8), st.data())
def test_schedule_sources_witness_is_feasible(g, data):
    sources = data.draw(
        st.lists(st.integers(0, g.n - 1), min_size=1, max_size=min(5, g.n), unique=True)
    )
    k = data.draw(st.integers(1, 2))
    inst = SchedulingInstance(g, tuple(sources), k)
    rounds = data.draw(st.integers(1, g.n + 2))
    result = schedule_sources(inst, rounds)
    if result is not None:
        ok, why = ordering_feasible(inst, result, rounds)
        assert ok, why


def test_schedule_sources_certifies_its_witness(monkeypatch):
    # the search trusts its own leaf tests; the round engine has the last word
    cnf = Cnf3(3, ((1, 2, 3), (-1, 2, -3)))
    inst = build_sat_instance(cnf).inst
    assert schedule_sources(inst, 6) is not None
    monkeypatch.setattr(exact, "ordering_feasible", lambda *args: (False, "rejected"))
    with pytest.raises(RuntimeError, match="rejected"):
        schedule_sources(inst, 6)


def test_schedule_sources_memory_on_a_long_path():
    # keeping only the radii the search reads, from rounds - |S| - 1 up,
    # peaks near 0.6 MB on this path (1.7 MB when each source's BFS lists
    # were kept to the end); growing every source's masks radius by radius
    # peaks near 19 MB, a cost that grows with the square of the path length
    inst = SchedulingInstance(path_graph(8000), (0, 4000, 7999), 1)
    tracemalloc.start()
    try:
        assert schedule_sources(inst, 8000) == {0: 1, 4000: 2, 7999: 3}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6e6, peak


def test_schedule_sources_memory_on_a_grid_past_the_bit_table():
    # each source's masks are made right after its BFS, and its lists are
    # dropped before the next search: this peaks near 4.4 MB, where keeping
    # every source's BFS lists until the search ends peaked near 14.7 MB
    inst = SchedulingInstance(grid_graph(300, 300), (0, 299, 89700, 89999), 1)
    tracemalloc.start()
    try:
        assert schedule_sources(inst, 600) == {0: 1, 299: 2, 89700: 3, 89999: 4}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6, peak


def test_schedule_sources_memory_with_rounds_past_every_eccentricity():
    # every ball on the 7-cycle is whole at radius 3, so a round budget of
    # 10^5 adds no mask and no entry per round tried; keeping one per round
    # peaked at 18.7 MB.  The search tries no round past the number of
    # sources, so it answers infeasible at once even at 10^12 rounds, well
    # inside a budget that trying every round would exhaust
    inst = SchedulingInstance(cycle_graph(7), (0, 1), 1)
    tracemalloc.start()
    try:
        assert schedule_sources(inst, 10**5) is None
        assert schedule_sources(inst, 10**12, time_budget=5) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


def test_schedule_sources_mask_paths_agree(monkeypatch):
    # the masks are built by a bit-parallel BFS on graphs within a vertex
    # bound, else from BFS lists (the only path that bisects them), each
    # keeping only the radii from rounds - |S| - 1 up; forcing each side gives
    # the same witnesses, round budgets past the eccentricities, a budget
    # of one round, disconnected graphs and sources that cannot reach each
    # other included
    bisects = []

    def counted(*args):
        bisects.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(exact, "bisect_right", counted)
    rng = random.Random(71)
    cases = []
    for n_vars in (3, 4, 5):
        for _ in range(8):
            clauses = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
                for _ in range(round(4.26 * n_vars))
            )
            cases.append((build_sat_instance(Cnf3(n_vars, clauses)).inst, 2 * n_vars))
    for _ in range(60):
        n = rng.randint(6, 14)
        if rng.random() < 0.25:
            g = random_graph(rng, n, 0.2)
        else:
            g = random_connected_graph(rng, n, extra_edges=rng.randint(0, n // 2))
        sources = tuple(rng.sample(range(n), rng.randint(1, 6)))
        cases.append((SchedulingInstance(g, sources, rng.choice([1, 2])), rng.randint(1, 2 * n)))
    # two paths and an isolated vertex, one source in each part: no source
    # reaches another, so any two may take adjacent rounds
    apart = graph_from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    for sources, k, rounds in [((1, 4, 7), 1, 3), ((1, 4, 7), 1, 4), ((0, 3, 7), 2, 4),
                               ((1, 4, 7), 3, 2), ((0, 3, 6, 7), 1, 5)]:
        cases.append((SchedulingInstance(apart, sources, k), rounds))
    for g, sources, k in [(complete_graph(4), (0, 1, 2, 3), 4), (complete_graph(4), (0,), 1),
                          (graph_from_edges(3, []), (0, 1, 2), 3), (path_graph(3), (0, 2), 2),
                          (apart, (0, 1, 2, 3, 4, 5, 6, 7), 8)]:
        cases.append((SchedulingInstance(g, sources, k), 1))
    # rounds - |S| - 1 > 0: each row has a source whose eccentricity (its
    # BFS cut at rounds - 1 hops) is below that radius, kept as one whole
    # ball, and one whose eccentricity is above it; two rows are feasible
    # and two, with adjacent sources, are not
    for n, sources, k, rounds in [(12, (0, 5), 1, 10), (14, (0, 7, 13), 2, 12),
                                  (8, (0, 1, 2), 1, 10), (8, (0, 1, 2), 2, 10)]:
        cases.append((SchedulingInstance(path_graph(n), sources, k), rounds))
    # the corners of a 40x40 grid, searched 39 hops deep by 4 sources
    cases.append((SchedulingInstance(grid_graph(40, 40), (0, 39, 1560, 1599), 1), 40))
    verdicts = set()
    for inst, rounds in cases:
        got = {}
        for side, bound in (("eager", 10**9), ("lazy", 0)):
            monkeypatch.setattr(exact, "_BIT_VERTICES", bound)
            bisects.clear()
            got[side] = schedule_sources(inst, rounds)
            assert bool(bisects) == (side == "lazy")
        assert got["eager"] == got["lazy"], (inst.graph.adj, inst.sources, inst.k, rounds)
        verdicts.add(got["eager"] is None)
    assert verdicts == {True, False}
    # sources in different parts take adjacent rounds, as no gap binds them
    assert schedule_sources(SchedulingInstance(apart, (1, 4, 7), 1), 3) == {1: 2, 4: 1, 7: 3}


def test_schedule_sources_picks_one_builder_by_n_and_keeps_few_masks(monkeypatch):
    # the bit table builds every row on graphs of at most 1600 vertices and
    # the BFS lists every row on larger ones, whatever the depth: a SAT
    # gadget at two rounds per variable, a long path, a ladder, a 32x32
    # grid 2 and 31 hops deep, the corners of a 40x40 grid and a
    # 2000-vertex path.  Either way a source keeps at most |S| + 1 masks,
    # the radii from rounds - |S| - 1 up
    rows, searches = {}, []
    table, lists, bfs = exact._ball_table, exact._ball_lists, exact._bfs

    def watched(name, builder):
        def run(*args):
            rows[name] = builder(*args)
            return rows[name]
        return run

    def watched_bfs(*args, **kwargs):
        searches.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(exact, "_ball_table", watched("table", table))
    monkeypatch.setattr(exact, "_ball_lists", watched("lists", lists))
    monkeypatch.setattr(exact, "_bfs", watched_bfs)
    # a 12-variable gadget: 24 sources, the first of which reaches about
    # 50 of its 603 vertices in 23 hops, as thin as a path
    rng = random.Random(12)
    clauses = tuple(tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 13), 3))
                    for _ in range(51))
    cases = [
        (build_sat_instance(Cnf3(12, clauses)).inst, 24),
        (SchedulingInstance(path_graph(1024), (100, 500, 900), 1), 256),
        (SchedulingInstance(grid_graph(2, 512), (100, 500, 900), 1), 256),
        (SchedulingInstance(grid_graph(32, 32), (5, 500, 900), 1), 3),
        (SchedulingInstance(grid_graph(32, 32), (5, 500, 900), 1), 32),
        (SchedulingInstance(grid_graph(40, 40), (0, 39, 1560, 1599), 1), 40),
        (SchedulingInstance(path_graph(2000), (100, 1000, 1900), 1), 256),
    ]
    for inst, rounds in cases:
        rows.clear()
        searches.clear()
        schedule_sources(inst, rounds)
        builder = "table" if inst.graph.n <= 1600 else "lists"
        assert list(rows) == [builder]
        assert len(rows[builder]) == len(inst.sources)
        assert len(searches) == (builder == "lists") * len(inst.sources)
        assert max(map(len, rows[builder])) <= len(inst.sources) + 1


def test_exact_raises_on_a_witness_the_round_engine_rejects(monkeypatch):
    # the witness check is a raise, not an assert that python -O strips
    def rejected(g, s, labels):
        raise RuntimeError("vertex 0: labelled 1, but propagation reaches it at round 3")

    monkeypatch.setattr("burnkit.burning.check_labels", rejected)
    with pytest.raises(RuntimeError, match="round engine rejects") as exc:
        exact_burning_number(path_graph(4), 1)
    assert not isinstance(exc.value, UndeterminedError)


def test_exact_raises_on_a_witness_completing_off_its_depth(monkeypatch):
    monkeypatch.setattr("burnkit.burning.check_labels", lambda g, s, labels: 3)
    with pytest.raises(RuntimeError, match="round engine rejects at depth 2"):
        exact_burning_number(path_graph(4), 1)


def test_exact_matches_the_path_formula_at_depths_the_packing_bound_reads():
    # b = ceil(sqrt(n / k)) is 4 to 8 here.  On a path the volume test
    # settles every node, so the packing bound reads nodes without cutting
    # them; one that allowed a round fewer would cut the optimum
    for n in range(21, 61):
        for k in (1, 2):
            assert exact_burning_number(path_graph(n), k)[0] == path_burning_number(n, k), (n, k)


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -float("inf"), "1"])
def test_a_nan_or_negative_budget_is_rejected_before_any_work(monkeypatch, budget):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(exact, "_search_lower_bound", no_work)
    monkeypatch.setattr(exact, "_bfs", no_work)
    with pytest.raises(ValueError, match="time budget must be a non-negative number"):
        exact_burning_number(path_graph(9), 1, time_budget=budget)
    with pytest.raises(ValueError, match="time budget must be a non-negative number"):
        schedule_sources(SchedulingInstance(path_graph(5), (0, 4), 1), 3, time_budget=budget)


@pytest.mark.parametrize("budget", [5, 5.0, float("inf")])
def test_an_int_float_or_infinite_budget_is_seconds(budget):
    # of the numbers, only a bool (and a negative or NaN one) is refused
    assert schedule_sources(P5_ENDS, 3, time_budget=budget) == {0: 1, 4: 2}
    assert exact_burning_number(P9, 1, time_budget=budget)[0] == 3


def test_exact_on_disconnected_components():
    # two components force at least one source each
    g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    b, witness = exact_burning_number(g, 1)
    # the later component's source gets one less round of propagation
    assert b == naive_threshold(g, 1) == 3
    rep = simulate(g, witness)
    assert rep.valid and rep.completion_round == 3


def test_exact_k_large_direct_ignition():
    g = random_connected_graph(random.Random(1), 9)
    b, witness = exact_burning_number(g, 9)
    assert b == 1
    assert simulate(g, witness).valid
