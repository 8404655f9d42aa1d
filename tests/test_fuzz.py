"""Seeded fuzz over every subcommand: the CLI's exit contract holds on any input.

Each random trial mutates at most one of the valid input files
(truncation, a byte flip, an integer token swapped for an out-of-range
one, or a JSON value swapped for one of another type or range) and draws
flag values that argparse accepts, nan and inf included.  A sweep then
swaps each top-level sidecar field in turn.  The trials' graphs stay at a
few dozen vertices and every value stays small, so every trial is cheap
and nothing allocates near ``MAX_VERTICES``.  Last, each numeric flag is
set to 10**12 on the same small inputs, the scheduler's round budget also
on a 2000-vertex path (past ``exact._BIT_VERTICES``, so its BFS lists
path runs) and on a 1600-vertex one (``schedule-max-rounds-bits``: at
``exact._BIT_VERTICES``, so the bit table runs to the path's end), an
11-byte graph claims 3 * 10**7 vertices, and ``gen-sat-huge-cnf``
reads a one-clause formula over 5001 variables, whose gadget of 100,030,003
vertices must be refused (exit 2) before any vertex id is made; each runs in
a child process under a cap on its address space.
"""

import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import burnkit
from burnkit.cli import main

SEED = 20260
TRIALS = 400
INTS = ["-1", "0", "1", "2", "3", "5"]
BUDGETS = ["nan", "inf", "-inf", "-1", "0", "0.01", "2"]
# JSON replacements of another type (or range), kept small
SWAPS = [None, True, False, "1", 1.5, [], {}, [1], -1, 0, 2, 99]


@pytest.fixture
def inputs(tmp_path, capsys):
    """Valid input files for every subcommand: name -> path."""
    files = {"graph": "7 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n0 6\n",
             "p3": "3 2\n0 1\n1 2\n",
             "schedule": "1 3\n0\n4\n2\n",
             "cnf": "p cnf 2 2\n1 2 -1 0\n-2 1 2 0\n",
             "huge-header": "30000000 0\n",
             "huge-cnf": "p cnf 5001 1\n1 2 3 0\n",
             "long-path": "2000 1999\n" + "".join(f"{v} {v + 1}\n" for v in range(1999)),
             "bit-path": "1600 1599\n" + "".join(f"{v} {v + 1}\n" for v in range(1599))}
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    for argv in (["gen-vc", "--graph", paths["p3"], "--q", "1", "--out", tmp_path / "vc"],
                 ["gen-vc", "--graph", paths["p3"], "--q", "1", "--connected",
                  "--out", tmp_path / "cvc"],
                 ["gen-sat", "--cnf", paths["cnf"], "--out", tmp_path / "sat"],
                 ["map-vc", "--graph", tmp_path / "vc.graph.txt",
                  "--meta", tmp_path / "vc.meta.json", "--cover", "1",
                  "--schedule-out", tmp_path / "vc.s.txt"]):
        assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    for prefix in ("vc", "cvc", "sat"):
        paths[f"{prefix}.graph"] = tmp_path / f"{prefix}.graph.txt"
        paths[f"{prefix}.meta"] = tmp_path / f"{prefix}.meta.json"
    paths["vc.schedule"] = tmp_path / "vc.s.txt"
    return paths


def _json_slots(obj, path=()):
    """Every (path) to a value inside a JSON document, containers included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _json_slots(value, (*path, key))


def _mutate(rng: random.Random, text: str) -> str:
    kind = rng.random()
    if kind < 0.15:
        return text[:rng.randrange(len(text) + 1)]
    if kind < 0.3:
        i = rng.randrange(len(text))
        return text[:i] + rng.choice([chr(rng.randrange(32, 127)), str(rng.randrange(10))]) \
            + text[i + 1:]
    if not text.startswith("{"):
        # one integer token, never the graph header's vertex count, out of range
        spans = [m.span() for m in re.finditer(r"-?\d+", text)][1:]
        if not spans:
            return text
        a, b = rng.choice(spans)
        return text[:a] + rng.choice(["-1", "0", "7", "99"]) + text[b:]
    doc = json.loads(text)
    # mostly a top-level field, else any value (most of those are edge endpoints)
    path = rng.choice([(key,) for key in doc] if rng.random() < 0.8 else list(_json_slots(doc))[1:])
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    old = slot[path[-1]]
    if type(old) in (bool, int) and rng.random() < 0.5:  # same type, other value
        slot[path[-1]] = (not old) if type(old) is bool else rng.choice([-1, 0, 1, 2, 3, 7, 99])
    else:
        slot[path[-1]] = rng.choice(SWAPS)
    return json.dumps(doc)


def _ids(rng: random.Random) -> str:
    """An id list, perhaps with a junk token."""
    tokens = [rng.choice("-1 0 1 2 3 6 9 x".split()) for _ in range(rng.randrange(4))]
    return rng.choice([",", " "]).join(tokens)


# the gadget subcommands hold the most input checks, so they are drawn more often
COMMANDS = ["simulate", "lower-bound", "approx", "exact", "schedule", "gen-vc", "gen-sat",
            "map-vc", "map-vc", "map-vc", "map-sat", "map-sat", "path-number", "path-schedule"]


def _argv(rng: random.Random, paths: dict, scratch) -> list[str]:
    """One subcommand with valid files, or one of them mutated, and accepted flag values."""
    cmd = rng.choice(COMMANDS)
    prefix = rng.choice(["vc", "cvc"])
    reverse = rng.random() < 0.5  # map-*: certificate to witness
    files = {"simulate": ["graph", "schedule"], "lower-bound": ["graph"], "approx": ["graph"],
             "exact": ["graph"], "schedule": ["graph"], "gen-vc": ["p3"], "gen-sat": ["cnf"],
             "map-vc": [f"{prefix}.graph", f"{prefix}.meta", *(["vc.schedule"] if reverse else [])],
             "map-sat": ["sat.graph", "sat.meta"]}.get(cmd, [])
    victim = rng.choice([*files, None])

    def path(name: str):
        if name != victim:
            return paths[name]
        target = scratch / f"mutated-{name}"
        target.write_text(_mutate(rng, paths[name].read_text()))
        return target

    def maybe(flag, value=None):
        # as --flag=value, so argparse takes "-inf" or "-1,2" as a value
        if rng.random() < 0.5:
            return []
        return [flag if value is None else f"{flag}={value}"]

    k = [f"--k={rng.choice(INTS)}"]
    budget = maybe("--time-budget", rng.choice(BUDGETS))
    rounds = maybe("--max-rounds", rng.choice(INTS))
    out = maybe("--schedule-out", scratch / "out.txt")
    if cmd == "simulate":
        return [cmd, "--graph", path("graph"), "--schedule", path("schedule")]
    if cmd == "lower-bound":
        return [cmd, "--graph", path("graph"), *k, *maybe("--verify-linear")]
    if cmd == "approx":
        return [cmd, "--graph", path("graph"), *k, *out]
    if cmd == "exact":
        return [cmd, "--graph", path("graph"), *k, *rounds, *budget, *out]
    if cmd == "schedule":
        return [cmd, "--graph", path("graph"), f"--sources={_ids(rng)}", *k, *rounds, *budget]
    if cmd == "gen-vc":
        return [cmd, "--graph", path("p3"), f"--k={rng.choice(['1', '2'])}",
                f"--q={rng.choice(INTS)}", *maybe("--connected"), "--out", scratch / "gen"]
    if cmd == "gen-sat":
        return [cmd, "--cnf", path("cnf"), "--out", scratch / "gen"]
    if cmd == "map-vc":
        cover = rng.choice(["1", _ids(rng)])  # {1} covers the 3-vertex path
        direction = ["--schedule", path("vc.schedule")] if reverse else [f"--cover={cover}"]
        return [cmd, "--graph", path(f"{prefix}.graph"), "--meta", path(f"{prefix}.meta"),
                *direction, *out]
    if cmd == "map-sat":
        if reverse:
            ordering = [f"{rng.randrange(-1, 14)}@{rng.randrange(-1, 6)}"
                        for _ in range(rng.randrange(6))]
            direction = f"--ordering={rng.choice(['1@1,0@2,2@3,3@4', ','.join(ordering)])}"
        else:
            lits = [rng.choice(["1", "-1", "2", "-2", "3", "0"]) for _ in range(rng.randrange(4))]
            direction = f"--assignment={rng.choice(['1,-2', ','.join(lits)])}"
        return [cmd, "--graph", path("sat.graph"), "--meta", path("sat.meta"), direction]
    return [cmd, f"--n={rng.choice(INTS)}", *k, *(out if cmd == "path-schedule" else [])]


def _check_contract(argv: list, code: int, out: str, err: str) -> None:
    """Exit 0-3, empty stdout on any failure but an invalid ``simulate`` schedule's,
    elapsed_ms last (so no traceback after it)."""
    assert code in (0, 1, 2, 3), (argv, err)
    if code in (2, 3) or (code == 1 and argv[0] != "simulate"):
        assert out == "", (argv, err)
    assert err.splitlines()[-1].startswith("elapsed_ms "), (argv, err)


def _holds_the_contract(capsys, argv: list) -> None:
    """The exit contract, with no exception escaping ``main``."""
    argv = [str(a) for a in argv]
    try:
        code = main(argv)
    except (Exception, SystemExit) as e:
        pytest.fail(f"{argv} raised {type(e).__name__}: {e}")
    out, err = capsys.readouterr()
    _check_contract(argv, code, out, err)


def test_fuzz_keeps_the_exit_contract(inputs, tmp_path, capsys):
    rng = random.Random(SEED)
    scratch = tmp_path / "fuzz"
    scratch.mkdir()
    for _ in range(TRIALS):
        _holds_the_contract(capsys, _argv(rng, inputs, scratch))


@pytest.mark.parametrize("cmd, sidecar", [("map-vc", "vc"), ("map-vc", "cvc"), ("map-sat", "sat")])
def test_every_sidecar_field_swap_keeps_the_exit_contract(inputs, tmp_path, capsys, cmd, sidecar):
    # one field at a time, so a value another field contradicts is not
    # masked by a rejection elsewhere: each top-level field gets its
    # neighbouring and far-off values (a flipped bool) and other JSON types
    meta = json.loads(inputs[f"{sidecar}.meta"].read_text())
    if cmd == "map-sat":
        directions = [["--assignment=1,-2"], ["--ordering=1@1,0@2,2@3,3@4"]]
    else:
        directions = [["--cover=1"], ["--cover="], ["--schedule", inputs["vc.schedule"]]]
    mutated = tmp_path / "mutated.meta.json"
    for field, old in meta.items():
        if type(old) is bool:
            values = [not old]
        elif type(old) is int:
            values = [old + 1, 100 * old, -1]
        else:
            values = []
        for value in [*values, None, "1", []]:
            mutated.write_text(json.dumps({**meta, field: value}))
            for direction in directions:
                _holds_the_contract(capsys, [cmd, "--graph", inputs[f"{sidecar}.graph"],
                                             "--meta", mutated, *direction])


HUGE = 10**12
# every flag that could size something, at HUGE, once per subcommand that takes it
HUGE_FLAGS = {
    "lower-bound-k": ["lower-bound", "--graph", "{graph}", "--k={huge}"],
    "approx-k": ["approx", "--graph", "{graph}", "--k={huge}"],
    "exact-k": ["exact", "--graph", "{graph}", "--k={huge}"],
    "exact-max-rounds": ["exact", "--graph", "{graph}", "--max-rounds={huge}"],
    "schedule-k": ["schedule", "--graph", "{graph}", "--sources=0,3", "--k={huge}"],
    "schedule-max-rounds": ["schedule", "--graph", "{graph}", "--sources=0,3", "--max-rounds={huge}"],
    "schedule-max-rounds-p3": ["schedule", "--graph", "{p3}", "--sources=1", "--max-rounds={huge}"],
    "schedule-max-rounds-adjacent": ["schedule", "--graph", "{graph}", "--sources=0,1",
                                     "--max-rounds={huge}"],
    "schedule-max-rounds-lists": ["schedule", "--graph", "{long_path}", "--sources=0,1999",
                                  "--max-rounds={huge}"],
    "schedule-max-rounds-bits": ["schedule", "--graph", "{bit_path}", "--sources=0,1599",
                                 "--max-rounds={huge}"],
    "gen-vc-k": ["gen-vc", "--graph", "{p3}", "--q=1", "--k={huge}", "--out", "{out}"],
    "gen-vc-q": ["gen-vc", "--graph", "{p3}", "--q={huge}", "--out", "{out}"],
    "path-number-n": ["path-number", "--n={huge}"],
    "path-number-k": ["path-number", "--n=5", "--k={huge}"],
    "path-schedule-n": ["path-schedule", "--n={huge}"],
    "path-schedule-k": ["path-schedule", "--n=5", "--k={huge}"],
    # no flag: a formula whose gadget would outgrow MAX_VERTICES
    "gen-sat-huge-cnf": ["gen-sat", "--cnf", "{huge_cnf}", "--out", "{out}"],
    # no flag, but a header within MAX_VERTICES whose graph outgrows the cap:
    # out of memory is a limit (exit 3), not a traceback
    "lower-bound-huge-header": ["lower-bound", "--graph", "{huge_header}"],
    "approx-huge-header": ["approx", "--graph", "{huge_header}"],
}
# The child's address space: every flag above holds at 10**6 under it, the
# largest (path-schedule --n) peaking at 205 MB, while a structure sized by
# 10**12, or by the header's 3 * 10**7 vertices, fails at once instead of
# paging the machine.
CHILD_BYTES = 1 << 30


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES))


@pytest.mark.parametrize("argv", HUGE_FLAGS.values(), ids=HUGE_FLAGS.keys())
def test_huge_flags_keep_the_exit_contract(inputs, tmp_path, argv):
    # always in a capped child process: in process, a flag that does size
    # something by 10**12 would take the test run's memory with it
    argv = [a.format(graph=inputs["graph"], p3=inputs["p3"], huge_header=inputs["huge-header"],
                     long_path=inputs["long-path"], bit_path=inputs["bit-path"],
                     huge_cnf=inputs["huge-cnf"], out=tmp_path / "gen", huge=HUGE)
            for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(burnkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "burnkit", *argv], capture_output=True,
                          text=True, timeout=120, env=env, preexec_fn=_cap_address_space)
    _check_contract(argv, proc.returncode, proc.stdout, proc.stderr)
    if argv[0] == "gen-sat":  # refused by the size check, not stopped by the cap
        assert proc.returncode == 2, proc.stderr
        assert "gadget of 100030003 vertices exceeds the vertex bound 100000000" in proc.stderr
