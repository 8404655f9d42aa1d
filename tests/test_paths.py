import time
import tracemalloc

import pytest

from burnkit import (
    exact_burning_number,
    optimal_path_schedule,
    path_burning_number,
    path_graph,
    segment_sources,
    simulate,
)


def test_formula_examples():
    assert path_burning_number(9, 1) == 3
    assert path_burning_number(1, 7) == 1
    assert path_burning_number(9, 2) == 3
    assert path_burning_number(16, 4) == 2


def test_formula_is_minimal_integer_root():
    for n in range(1, 200):
        for k in range(1, 5):
            b = path_burning_number(n, k)
            assert k * b * b >= n
            assert b == 1 or k * (b - 1) * (b - 1) < n


def test_formula_rejects_bad_args():
    with pytest.raises(ValueError):
        path_burning_number(0, 1)
    with pytest.raises(ValueError):
        path_burning_number(5, 0)


def test_formula_matches_exact_solver():
    for n in range(1, 13):
        for k in (1, 2, 3):
            assert path_burning_number(n, k) == exact_burning_number(path_graph(n), k)[0]


def test_schedule_examples():
    s = optimal_path_schedule(9, 1)
    assert s.rounds == [[2], [6], [8]]
    assert simulate(path_graph(9), s).completion_round == 3

    s = optimal_path_schedule(1, 1)
    assert s.rounds == [[0]]

    s = optimal_path_schedule(8, 2)
    rep = simulate(path_graph(8), s)
    assert rep.valid and rep.completion_round == 2 == path_burning_number(8, 2)


def test_schedule_small_sweep():
    for n in range(1, 60):
        for k in (1, 2, 3, 5):
            sched = optimal_path_schedule(n, k)
            rep = simulate(path_graph(n), sched)
            assert rep.valid, (n, k)
            assert rep.completion_round == path_burning_number(n, k), (n, k)


def test_more_subpaths_than_vertices():
    # n < k: everything ignites in round one
    sched = optimal_path_schedule(3, 5)
    rep = simulate(path_graph(3), sched)
    assert rep.valid and rep.completion_round == 1
    assert sched.rounds == [[1, 0, 2]] or sched.rounds == [[0, 1, 2]]


def test_segment_sources_layout():
    # segments of 5, 3, 1 vertices, sources at their centers
    assert segment_sources(9, 3) == [(2, 1), (6, 2), (8, 3)]
    # truncated final segment shifts its source left just enough
    assert segment_sources(7, 3) == [(2, 1), (5, 2)]
    with pytest.raises(ValueError):
        segment_sources(10, 3)


def test_path_schedule_with_k_past_n_builds_only_the_nonempty_subpaths():
    # subpaths past the n-th are empty, so k = 10**12 costs what k = n does
    huge = optimal_path_schedule(5, 10**12)
    assert huge.rounds == optimal_path_schedule(5, 5).rounds == [[0, 1, 2, 3, 4]]


def test_path_schedule_rejects_a_huge_n_before_any_batch():
    # 10^12 vertices would take 10^6 batches of segment sources first
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="exceeds the vertex bound"):
            optimal_path_schedule(10**12, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 100_000, peak
