"""The three benchmark workloads: set-up, timed operation and output checks.

Each workload regenerates its inputs from the seed with burnkit's own
generators (the set-up), runs one user-facing operation per child process
(the timed operation), and checks every output against facts that do not
come from the code under test where such facts exist.  Inputs live in
``.bench_work/<workload>/`` and the operation runs there, so the relative
paths echoed on stdout, and hence the pinned stdout digests, are fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import desk
from common import ROOT, burnkit_argv, cli_value, sha256

# sha256 of the operation's stdout, per (workload, scale).  A change in
# any byte of the CLI report fails the run: stdout is meant to stay
# byte-identical across performance work.
PINNED_STDOUT = {
    ("approx-grid", "full"): "fdfff05b901bf02c378fad59790fb9be88dc1dd2f82d7be378000385156f3898",
    ("approx-grid", "toy"): "d21c4fa63b06442274e5482d64d3f847d169dc8fde17f1b0e04815e888517ad1",
    ("certify-path", "full"): "1a678cf50b645d9e38510343b8b2a728dce14f74b1c95eb805663ded6852d258",
    ("certify-path", "toy"): "957e59bee2790ddb28e59df3fba5bff3485256f442b4a51fd189fb51a14a8fee",
}

SIZES = {
    # grid side, path length, path spread factor
    "full": {"grid": 1000, "path": 1_000_000, "path_k": 4},
    "toy": {"grid": 30, "path": 2_000, "path_k": 4},
}


@dataclass
class Inputs:
    """What set-up produced: files in ``work`` plus objects the checks use."""

    work: Path
    seed: int
    scale: str
    describe: dict
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Output of one operation, as the checks see it."""

    code: int
    stdout: bytes = b""
    results: dict | None = None


@contextlib.contextmanager
def _in_dir(work: Path):
    old = os.getcwd()
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(old)


def cli_in_process(work: Path, args: list[str]) -> Outcome:
    """Run ``burnkit.cli.main(args)`` in this process with stdout captured."""
    import burnkit.cli

    out, err = io.StringIO(), io.StringIO()
    with _in_dir(work), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = burnkit.cli.main(args)
    return Outcome(code, out.getvalue().encode())


def _check_digest(name: str, scale: str, stdout: bytes) -> list[str]:
    want = PINNED_STDOUT.get((name, scale))
    got = sha256(stdout)
    if want and got != want:
        return [f"stdout digest {got} differs from pinned {want}"]
    return []


def _int_value(stdout: bytes, key: str) -> int | None:
    raw = cli_value(stdout, key)
    try:
        return int(raw) if raw is not None else None
    except ValueError:
        return None


class CliWorkload:
    """A workload whose operation is one burnkit command with fixed arguments."""

    name: str
    args: list[str]

    def argv(self, inputs: Inputs) -> list[str]:
        return burnkit_argv(*self.args)

    def in_process(self, inputs: Inputs) -> Outcome:
        return cli_in_process(inputs.work, self.args)

    def outcome(self, inputs: Inputs, code: int, stdout: bytes) -> Outcome:
        return Outcome(code, stdout)

    def counts(self, inputs: Inputs, out: Outcome) -> tuple[int, int]:
        """(attempted, failed) instances: the command is the one instance."""
        return 1, int(out.code != 0)

    def instance_times(self, out: Outcome, seconds: float) -> list[float]:
        return [seconds]


class ApproxGrid(CliWorkload):
    name = "approx-grid"
    args = ["approx", "--graph", "grid.txt", "--k", "1", "--schedule-out", "schedule.txt"]

    def setup(self, work: Path, seed: int, scale: str) -> Inputs:
        from burnkit import grid_graph, serialize_graph

        side = SIZES[scale]["grid"]
        g = grid_graph(side, side)
        (work / "grid.txt").write_text(serialize_graph(g))
        return Inputs(work, seed, scale, {"graph": f"grid {side}x{side}", "n": g.n, "m": g.m,
                                          "k": 1}, {"graph": g})

    def check(self, inputs: Inputs, out: Outcome) -> tuple[list[str], dict]:
        from burnkit.burning import ScheduleError, parse_schedule, simulate

        g = inputs.data["graph"]
        fails = _check_digest(self.name, inputs.scale, out.stdout)
        lb = _int_value(out.stdout, "lower_bound")
        done = _int_value(out.stdout, "completion_round")
        if lb is None or done is None:
            return fails + ["stdout lacks lower_bound or completion_round"], {}
        if (_int_value(out.stdout, "n"), _int_value(out.stdout, "m")) != (g.n, g.m):
            fails.append("reported n, m differ from the generated grid")
        if not lb <= done <= 3 * lb:
            fails.append(f"completion {done} outside [{lb}, {3 * lb}]")
        try:
            sched = parse_schedule((inputs.work / "schedule.txt").read_text())
            report = simulate(g, sched, strict=True)
        except (OSError, ScheduleError) as e:
            return fails + [f"schedule-out unreadable: {e}"], {}
        if not report.valid:
            fails.append("schedule-out does not re-simulate strict-valid")
        if report.completion_round != done:
            fails.append(f"schedule-out completes at {report.completion_round}, stdout says {done}")
        return fails, {"lower_bound": lb, "completion_round": done}


class CertifyPath(CliWorkload):
    name = "certify-path"
    args = ["simulate", "--graph", "path.txt", "--schedule", "s.txt"]

    def setup(self, work: Path, seed: int, scale: str) -> Inputs:
        """The path file, then the schedule from the ``path-schedule`` command."""
        from burnkit import path_graph, serialize_graph

        n, k = SIZES[scale]["path"], SIZES[scale]["path_k"]
        g = path_graph(n)
        (work / "path.txt").write_text(serialize_graph(g))
        m = g.m
        del g
        args = ["path-schedule", "--n", str(n), "--k", str(k), "--schedule-out", "s.txt"]
        code = cli_in_process(work, args).code
        if code != 0:
            raise RuntimeError(f"path-schedule exited {code}")
        return Inputs(work, seed, scale, {"graph": f"path {n}", "n": n, "m": m, "k": k})

    def check(self, inputs: Inputs, out: Outcome) -> tuple[list[str], dict]:
        from burnkit.paths import path_burning_number

        n, k = inputs.describe["n"], inputs.describe["k"]
        fails = _check_digest(self.name, inputs.scale, out.stdout)
        if cli_value(out.stdout, "valid") != "true":
            fails.append("schedule judged invalid")
        done = _int_value(out.stdout, "completion_round")
        want = path_burning_number(n, k)
        if done != want:
            fails.append(f"completion_round {done}, closed form says {want}")
        rounds = cli_value(out.stdout, "burn_round")
        if rounds is None or len(rounds.split()) != n:
            fails.append(f"burn_round does not list {n} vertices")
        return fails, {"completion_round": done}


class DeskSolve:
    """The desk corpus, solved in one child process (see desk.py)."""

    name = "desk-solve"

    def setup(self, work: Path, seed: int, scale: str) -> Inputs:
        corpus = desk.make_corpus(seed, scale)
        built = desk.build(corpus)
        (work / "corpus.json").write_text(json.dumps(corpus, separators=(",", ":")) + "\n")
        return Inputs(work, seed, scale, desk.describe(corpus), {"corpus": corpus, "built": built})

    def argv(self, inputs: Inputs) -> list[str]:
        return [sys.executable, str(ROOT / "perfbench" / "desk.py"), "corpus.json", "results.json"]

    def in_process(self, inputs: Inputs) -> Outcome:
        results = desk.solve_file(inputs.work / "corpus.json", inputs.work / "results.json")
        return Outcome(0, results=results)

    def outcome(self, inputs: Inputs, code: int, stdout: bytes) -> Outcome:
        results = None
        if code == 0:
            results = json.loads((inputs.work / "results.json").read_text())
        return Outcome(code, stdout, results)

    def counts(self, inputs: Inputs, out: Outcome) -> tuple[int, int]:
        """(attempted, failed) instances of one pass.

        A pass attempts every corpus instance; a pass that exits non-zero
        fails all of them, and an instance that ran out of budget fails alone.
        """
        if out.results is None:
            n = inputs.describe["instances"]
            return n, n
        rows = out.results["instances"]
        return len(rows), sum(r["status"] != "ok" for r in rows)

    def instance_times(self, out: Outcome, seconds: float) -> list[float]:
        """Each corpus instance's solve time; one out of budget counts the time it used."""
        return [r["seconds"] for r in out.results["instances"]]

    def check(self, inputs: Inputs, out: Outcome) -> tuple[list[str], dict]:
        return desk.check(inputs.data["corpus"], inputs.data["built"], out.results)


WORKLOADS = {w.name: w for w in (ApproxGrid(), CertifyPath(), DeskSolve())}
