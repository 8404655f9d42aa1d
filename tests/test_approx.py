import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit import (
    Graph,
    approx,
    approx_schedule,
    bfs_distances,
    complete_graph,
    exact_burning_number,
    grid_graph,
    lower_bound,
    mis_power,
    path_graph,
    simulate,
)

from .strategies import graphs, random_graph


def check_scatter_invariants(g, r, result):
    # pairwise hop distance strictly above 2r, and 2r-hop domination
    members = sorted(result.members)
    assert list(result.order) == members  # greedy picks ascend by id
    assert set(result.order) == result.members
    for i, u in enumerate(members):
        dist = bfs_distances(g, [u]).dist
        for v in members[i + 1:]:
            assert dist[v] is None or dist[v] > 2 * r
    if members:
        table = bfs_distances(g, members)
        assert all(d is not None and d <= 2 * r for d in table.dist)


def test_mis_examples():
    assert mis_power(path_graph(9), 1).order == (0, 3, 6)
    assert mis_power(path_graph(1), 5).order == (0,)
    assert mis_power(complete_graph(4), 1).order == (0,)


@settings(max_examples=60)
@given(graphs(max_n=24), st.integers(1, 5))
def test_mis_invariants(g, r):
    check_scatter_invariants(g, r, mis_power(g, r))


def test_mis_invariants_larger_graphs():
    rng = random.Random(256)
    for n, p in [(256, 0.01), (256, 0.05), (128, 0.1)]:
        g = random_graph(rng, n, p)
        for r in (1, 2, 3):
            check_scatter_invariants(g, r, mis_power(g, r))
    g = grid_graph(16, 16)
    for r in (1, 2, 4):
        check_scatter_invariants(g, r, mis_power(g, r))


def test_mis_rejects_bad_radius():
    with pytest.raises(ValueError):
        mis_power(path_graph(3), 0)


def test_lower_bound_examples():
    assert lower_bound(path_graph(9), 1, verify_linear=True) == 2
    assert lower_bound(path_graph(1), 7) == 1
    assert lower_bound(complete_graph(4), 1, verify_linear=True) == 1


def test_lower_bound_matches_linear_scan():
    from burnkit.approx import _greedy_scatter

    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.choice([0.05, 0.2, 0.5]))
        for k in (1, 2):
            j = lower_bound(g, k, verify_linear=True)
            smallest = next(
                jj for jj in range(1, n + 1) if len(_greedy_scatter(g, jj)) <= k * jj
            )
            assert j == smallest


def test_lower_bound_is_certified_by_the_failed_probe_below_it():
    # b >= j needs no monotonicity: the probe at j - 1 failed, so its
    # k(j-1) + 1 picks are pairwise more than 2(j-1) apart, and each source
    # of a (j-1)-round schedule (radius <= j - 2) covers at most one of them
    rng = random.Random(913)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 160)
        g = random_graph(rng, n, rng.uniform(0.5, 3.0) / n)
        for k in (1, 2):
            j = lower_bound(g, k)
            if j == 1:
                continue
            picks = approx._greedy_scatter(g, j - 1, limit=k * (j - 1))
            assert len(picks) == k * (j - 1) + 1, (n, k, j)
            for i, u in enumerate(picks):
                dist = bfs_distances(g, [u]).dist
                assert all(dist[v] is None or dist[v] > 2 * (j - 1) for v in picks[i + 1:])
            checked += 1
    assert checked >= 100, checked


@pytest.mark.parametrize("make, k, most", [
    (lambda: grid_graph(300, 300), 1, 5),
    (lambda: grid_graph(300, 300), 2, 4),
    (lambda: path_graph(90_000), 1, 3),
    (lambda: path_graph(90_000), 2, 3),
], ids=["grid-k1", "grid-k2", "path-k1", "path-k2"])
def test_lower_bound_search_probes_few_radii_near_the_answer(monkeypatch, make, k, most):
    # probes past j/2 scan most of the graph; a gallop closed by bisection
    # makes 7, 5, 5 and 5 of them on these graphs
    radii = []
    scatter = approx._greedy_scatter

    def counted(g, r, *args, **kwargs):
        radii.append(r)
        return scatter(g, r, *args, **kwargs)

    monkeypatch.setattr(approx, "_greedy_scatter", counted)
    j, _ = approx._search_lower_bound(make(), k)
    assert sum(r > j / 2 for r in radii) <= most, radii


def test_approx_examples():
    res = approx_schedule(path_graph(9), 1)
    assert res.lower_bound == 2
    assert res.schedule.rounds == [[0], [5], [3], [8]]
    assert res.completion == 4 <= 3 * res.lower_bound

    res = approx_schedule(path_graph(1), 1)
    assert res.lower_bound == 1 and res.completion == 1

    res = approx_schedule(complete_graph(4), 1)
    assert res.lower_bound == 1 and res.completion == 2


@pytest.mark.parametrize("k", [1, 2])
def test_approx_runs_the_round_loop_once_and_never_simulates(monkeypatch, k):
    import burnkit.burning

    calls = {"rounds": 0, "simulate": 0}
    run_rounds, simulate_ = burnkit.burning._run_rounds, burnkit.burning.simulate

    def counted_rounds(*args):
        calls["rounds"] += 1
        return run_rounds(*args)

    def counted_simulate(*args, **kwargs):
        calls["simulate"] += 1
        return simulate_(*args, **kwargs)

    monkeypatch.setattr(burnkit.burning, "_run_rounds", counted_rounds)
    monkeypatch.setattr(burnkit.burning, "simulate", counted_simulate)
    assert not hasattr(approx, "simulate")  # so no call can bypass the counter
    g = grid_graph(7, 9)
    res = approx_schedule(g, k)
    assert calls == {"rounds": 1, "simulate": 0}
    monkeypatch.undo()
    rep = simulate(g, res.schedule)
    assert rep.valid and rep.completion_round == res.completion <= 3 * res.lower_bound


def test_approx_deterministic():
    rng = random.Random(5)
    g = random_graph(rng, 30, 0.1)
    first = approx_schedule(g, 2)
    second = approx_schedule(g, 2)
    assert first.schedule.rounds == second.schedule.rounds
    assert first.lower_bound == second.lower_bound
    assert mis_power(g, 3).order == mis_power(g, 3).order


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=10), st.integers(1, 2))
def test_approx_sandwich_against_exact(g, k):
    res = approx_schedule(g, k)
    rep = simulate(g, res.schedule)
    assert rep.valid and rep.completion_round == res.completion
    b, _ = exact_burning_number(g, k)
    assert res.lower_bound <= b <= res.completion <= 3 * res.lower_bound


def test_approx_disconnected_graph():
    # isolated vertices are first-class: each must be its own source
    from burnkit import graph_from_edges

    g = graph_from_edges(6, [(0, 1)])
    res = approx_schedule(g, 1)
    rep = simulate(g, res.schedule)
    assert rep.valid
    res2 = approx_schedule(g, 3)
    assert res2.completion <= res.completion


def test_approx_rejects_empty_graph():
    # the same contract as lower_bound and exact_burning_number
    with pytest.raises(ValueError) as exc:
        approx_schedule(Graph(0, []), 1)
    assert str(exc.value) == "graph must have at least one vertex"
