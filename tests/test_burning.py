import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burnkit.burning
from burnkit import (
    Schedule,
    ScheduleError,
    approx_schedule,
    build_vc_instance,
    check_labels,
    completion_closed_form,
    exact_burning_number,
    graph_from_edges,
    ignition_list,
    optimal_path_schedule,
    pad_schedule,
    parse_schedule,
    path_graph,
    serialize_schedule,
    simulate,
    vc_to_schedule,
)

from .strategies import (
    graph_and_schedule,
    graph_and_strict_schedule,
    graphs,
    random_strict_schedule,
)


def all_strict_schedules(g, k, rounds):
    """Every strict schedule of exactly `rounds` listed rounds (tiny graphs)."""
    out = []

    def extend(burn, frontier, acc, t):
        new = []
        burn = set(burn)
        for x in frontier:
            for u in g.adj[x]:
                if u not in burn:
                    burn.add(u)
                    new.append(u)
        if t > rounds:
            if len(burn) == g.n:
                out.append(Schedule(k, [list(b) for b in acc]))
            return
        avail = [v for v in range(g.n) if v not in burn]
        size = min(k, len(avail))
        for batch in combinations(avail, size):
            extend(burn | set(batch), new + list(batch), acc + [batch], t + 1)

    extend(set(), [], [], 1)
    return out


def test_simulate_p4_optimal():
    g = path_graph(4)
    rep = simulate(g, Schedule(1, [[1], [3]]))
    assert rep.valid
    assert rep.burn_round == [2, 1, 2, 2]
    assert rep.completion_round == 2
    # independent check over all strict 2-round schedules on P4: the fastest
    # valid ones finish at round 2 and [[1],[3]] is among them
    outcomes = [
        (s.rounds, simulate(g, s)) for s in all_strict_schedules(g, 1, 2)
    ]
    valid = [(rounds, r.completion_round) for rounds, r in outcomes if r.valid]
    assert ([[1], [3]], 2) in valid
    assert min(completion for _, completion in valid) == 2
    assert not any(simulate(g, s).valid for s in all_strict_schedules(g, 1, 1))


def test_simulate_propagation_round():
    rep = simulate(path_graph(2), Schedule(1, [[0]]))
    assert rep.valid
    assert rep.completion_round == 2
    assert rep.burn_round == [1, 2]


def test_simulate_already_burnt_violation():
    rep = simulate(path_graph(4), Schedule(1, [[0], [1]]))
    assert not rep.valid
    assert (2, 1, "already burnt at ignition") in [tuple(v) for v in rep.violations]


def test_simulate_batch_size_violation():
    # round 2 must ignite one source but none is listed
    rep = simulate(path_graph(5), Schedule(1, [[0]]))
    assert not rep.valid
    assert any(v.vertex == -1 and "batch size 0" in v.reason for v in rep.violations)


def test_simulate_unburnable_residue():
    g = graph_from_edges(3, [(0, 1)])
    rep = simulate(g, Schedule(1, [[0], []]))
    assert not rep.valid
    assert any("unburnable residue" in v.reason for v in rep.violations)
    assert rep.burn_round[2] is None


def test_simulate_lenient_mode():
    # undersized batches pass leniently but not strictly
    g = path_graph(5)
    s = Schedule(2, [[0], [4]])
    assert not simulate(g, s, strict=True).valid
    rep = simulate(g, s, strict=False)
    assert rep.valid
    assert rep.completion_round == 3


def test_simulate_flags_batches_after_completion():
    rep = simulate(path_graph(2), Schedule(1, [[0], [], [1]]))
    assert not rep.valid
    kinds = [tuple(v) for v in rep.violations]
    assert (3, 1, "already burnt at ignition") in kinds
    assert any(v.round == 3 and "expected 0" in v.reason for v in rep.violations)


def test_simulate_empty_graph():
    rep = simulate(graph_from_edges(0, []), Schedule(1, []))
    assert rep.valid and rep.completion_round == 0 and rep.burn_round == []


def test_structural_rejections():
    g = path_graph(4)
    with pytest.raises(ScheduleError):
        simulate(g, Schedule(1, [[0, 1]]))  # oversized batch
    with pytest.raises(ScheduleError):
        simulate(g, Schedule(1, [[0], [0]]))  # reused vertex
    with pytest.raises(ScheduleError):
        simulate(g, Schedule(1, [[9]]))  # bad id
    with pytest.raises(ScheduleError):
        simulate(g, Schedule(0, [[0]]))  # bad spread factor


def test_a_schedule_of_bools_is_rejected():
    # a bool is not an int, the rule the sidecar loaders apply: True would
    # otherwise read as k = 1 and as vertex 1
    g = path_graph(3)
    with pytest.raises(ScheduleError, match="spread factor must be a positive integer, got True"):
        simulate(g, Schedule(True, [[True], [False]]))
    with pytest.raises(ScheduleError, match="round 1: invalid vertex id True"):
        simulate(g, Schedule(1, [[True], [2]]))
    with pytest.raises(ScheduleError, match="round 2: invalid vertex id False"):
        simulate(g, Schedule(1, [[1], [False]]))


def test_check_labels_accepts_burn_rounds():
    assert check_labels(path_graph(4), Schedule(1, [[1], [3]]), [2, 1, 2, 2]) == 2
    assert check_labels(graph_from_edges(0, []), Schedule(1, [[]]), []) == 0
    # an isolated vertex burns only as a source; trailing empty rounds are fine
    assert check_labels(graph_from_edges(2, []), Schedule(2, [[0, 1], []]), [1, 1]) == 1


def test_check_labels_rejects_a_label_one_off():
    g, s, labels = path_graph(4), Schedule(1, [[1], [3]]), [2, 1, 2, 2]
    for v in range(g.n):
        for delta in (-1, 1):
            wrong = list(labels)
            wrong[v] += delta
            with pytest.raises(RuntimeError):
                check_labels(g, s, wrong)


def test_check_labels_rejects_a_dropped_source():
    g = path_graph(4)
    with pytest.raises(RuntimeError, match="vertex 3: labelled 2"):
        check_labels(g, Schedule(1, [[1], []]), [2, 1, 2, 2])
    # with the burn rounds of the shortened schedule, round 2 is a batch short
    with pytest.raises(RuntimeError, match="round 2: batch size 0, expected 1"):
        check_labels(g, Schedule(1, [[1], []]), [2, 1, 2, 3])


def test_check_labels_rejects_an_ignition_propagation_reached_first():
    with pytest.raises(RuntimeError, match="vertex 1: ignited at round 2, but propagation"):
        check_labels(path_graph(4), Schedule(1, [[0], [1]]), [1, 2, 3, 4])


def test_check_labels_rejects_one_short_batch():
    g = path_graph(6)
    assert check_labels(g, Schedule(2, [[0, 3], [5]]), [1, 2, 2, 1, 2, 2]) == 2
    with pytest.raises(RuntimeError, match="round 1: batch size 1, expected 2"):
        check_labels(g, Schedule(2, [[0], [3, 5]]), [1, 2, 3, 2, 3, 2])


def test_check_labels_rejects_malformed_labels():
    g, s = path_graph(2), Schedule(1, [[0]])
    for labels in ([1], [1, 2.0], [1, True], [1, "2"]):
        with pytest.raises(RuntimeError):
            check_labels(g, s, labels)
    with pytest.raises(RuntimeError, match="vertex 1: never burns"):
        check_labels(graph_from_edges(2, []), Schedule(1, [[0]]), [1, 2])


@settings(max_examples=200)
@given(graph_and_schedule())
def test_lenient_simulation_is_the_strict_run_less_batch_size_violations(gs):
    g, s = gs
    strict, lenient = simulate(g, s), simulate(g, s, strict=False)
    assert lenient.burn_round == strict.burn_round
    assert lenient.completion_round == strict.completion_round
    assert lenient.violations == [v for v in strict.violations if v.vertex >= 0]
    assert lenient.valid == (not lenient.violations)


def test_every_builder_certifies_through_check_labels(monkeypatch):
    inst = build_vc_instance(path_graph(3), 1, 1)

    def rejected(g, s, labels):
        raise RuntimeError("rejected")

    monkeypatch.setattr(burnkit.burning, "check_labels", rejected)
    for build in (lambda: approx_schedule(path_graph(9), 1),
                  lambda: exact_burning_number(path_graph(4), 1),
                  lambda: optimal_path_schedule(9, 2),
                  lambda: vc_to_schedule(inst, [1]),
                  lambda: pad_schedule(path_graph(4), Schedule(2, [[1]]))):
        with pytest.raises(RuntimeError):
            build()


@settings(max_examples=300)
@given(graph_and_schedule())
def test_check_labels_agrees_with_simulate(gs):
    g, s = gs
    rep = simulate(g, s, strict=True)
    labels = [r or 0 for r in rep.burn_round]
    if not rep.valid:
        with pytest.raises(RuntimeError):
            check_labels(g, s, labels)
        return
    assert check_labels(g, s, labels) == rep.completion_round
    for v in range(g.n):
        for delta in (-1, 1):
            wrong = list(labels)
            wrong[v] += delta
            with pytest.raises(RuntimeError):
                check_labels(g, s, wrong)


def test_closed_form_examples():
    p4 = path_graph(4)
    assert completion_closed_form(p4, [(1, 1), (3, 2)]) == 2
    assert completion_closed_form(p4, [(v, 1) for v in range(4)]) == 1
    p9 = path_graph(9)
    assert completion_closed_form(p9, [(0, 1), (5, 2)]) == 5
    # a vertex listed twice counts from its earlier round
    assert completion_closed_form(p4, [(1, 3), (1, 1)]) == 3
    # an ignition at a vertex another source reaches first changes nothing
    assert completion_closed_form(p9, [(0, 1), (2, 5)]) == 9
    # matches the simulated completion of the same ignition list
    assert simulate(p9, Schedule(1, [[0], [5]])).completion_round == 5


def test_closed_form_errors():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        completion_closed_form(g, [(0, 1)])  # vertex 2 unreachable
    with pytest.raises(ValueError):
        completion_closed_form(g, [(0, 0)])  # round must be positive
    with pytest.raises(ValueError):
        completion_closed_form(g, [])
    with pytest.raises(ValueError, match="invalid ignition vertex 0"):
        completion_closed_form(graph_from_edges(0, []), [(0, 1)])  # the empty graph has none


def test_pad_extends_batch():
    padded = pad_schedule(path_graph(4), Schedule(2, [[1]]))
    assert padded.rounds == [[1, 0], [3]]
    rep = simulate(path_graph(4), padded)
    assert rep.valid and rep.completion_round == 2


def test_pad_appends_rounds_and_speeds_up():
    g = path_graph(9)
    before = simulate(g, Schedule(1, [[0], [5]]), strict=False).completion_round
    padded = pad_schedule(g, Schedule(1, [[0], [5]]))
    assert padded.rounds == [[0], [5], [3], [8]]
    rep = simulate(g, padded)
    assert rep.valid
    assert rep.completion_round == 4 <= before


def test_pad_idempotent_on_strict_input():
    g = path_graph(4)
    s = Schedule(1, [[1], [3]])
    assert pad_schedule(g, s).rounds == s.rounds
    g2 = path_graph(2)
    assert pad_schedule(g2, Schedule(1, [[0]])).rounds == [[0]]


def test_pad_rejects_ignition_violations():
    with pytest.raises(ScheduleError):
        pad_schedule(path_graph(4), Schedule(1, [[0], [1]]))


def test_pad_drops_an_ignition_its_own_padding_burns():
    # the input has no ignition violation, so the check pass lets it
    # through; fire from the padded vertex 0 reaches 1 before round 3, and
    # the pad pass drops 1.  So a violation the pad pass meets is not one
    # of the input's: pad_schedule cannot read them from its own pass
    g = path_graph(4)
    s = Schedule(1, [[], [], [1]])
    assert simulate(g, s, strict=False).violations == []
    padded = pad_schedule(g, s)
    assert padded.rounds == [[0], [2]]
    assert simulate(g, padded).valid


def test_pad_steals_later_scheduled_when_forced():
    # four isolated vertices, everything scheduled late: strictness pulls
    # the later batches forward
    g = graph_from_edges(4, [])
    padded = pad_schedule(g, Schedule(2, [[], [0, 1], [2, 3]]))
    assert padded.rounds == [[0, 1], [2, 3]]
    assert simulate(g, padded).valid


@settings(max_examples=80)
@given(graph_and_strict_schedule())
def test_valid_schedule_matches_closed_form(gs):
    g, s = gs
    rep = simulate(g, s)
    assert rep.valid
    assert rep.completion_round == completion_closed_form(g, ignition_list(s))
    # per-vertex burn rounds follow the same covering formula
    dist = {}
    from burnkit import bfs_distances

    for v, r in ignition_list(s):
        dist[v] = (bfs_distances(g, [v]).dist, r)
    for u in range(g.n):
        expect = min(r + d[u] for d, r in dist.values() if d[u] is not None)
        assert rep.burn_round[u] == expect


@settings(max_examples=80)
@given(graphs(max_n=12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_pad_never_increases_completion(g, k, seed):
    rng = random.Random(seed)
    # random (possibly undersized) ignition prefix without reignitions
    s = random_strict_schedule(g, k, rng)
    prefix = Schedule(k, [batch[: rng.randint(0, len(batch))] for batch in s.rounds])
    before = simulate(g, prefix, strict=False)
    if any(v.reason == "already burnt at ignition" for v in before.violations):
        return
    padded = pad_schedule(g, prefix)
    rep = simulate(g, padded)
    assert rep.valid
    if before.valid:
        assert rep.completion_round <= before.completion_round


@settings(max_examples=60)
@given(graph_and_strict_schedule(max_k=2))
def test_valid_schedule_repads_for_larger_k(gs):
    g, s = gs
    base = simulate(g, s)
    assert base.valid
    repadded = pad_schedule(g, Schedule(s.k + 1, [list(b) for b in s.rounds]))
    rep = simulate(g, repadded)
    assert rep.valid
    assert rep.completion_round <= base.completion_round


def test_schedule_file_round_trip():
    s = Schedule(2, [[1, 0], [], [3]])
    text = serialize_schedule(s)
    assert text == "2 3\n1 0\n\n3\n"
    again = parse_schedule(text)
    assert again.k == s.k and again.rounds == s.rounds


def test_schedule_parse_errors():
    with pytest.raises(ScheduleError):
        parse_schedule("")
    with pytest.raises(ScheduleError):
        parse_schedule("1\n0")
    with pytest.raises(ScheduleError):
        parse_schedule("1 2\n0")
    with pytest.raises(ScheduleError):
        parse_schedule("1 1\n0\n1")
    with pytest.raises(ScheduleError):
        parse_schedule("1 1\nzero")
