"""Hardness-reduction instance generators and their certificate mappings.

Two constructions live here.

Vertex-cover gadget: given a graph on n vertices and a cover budget q,
every edge (u, v) grows a corridor u - uv - d_1 .. d_{2nk} - vu - v plus
an n-vertex tail hanging off the lower median division vertex, and the
instance is completed with (k-1)q + k(2nk+3) isolated vertices.  Covers
of size q and strict burning schedules of q + 2nk + 3 rounds translate
into each other.  The connected variant (k = 1 only) first attaches a
pendant path v0 - w - z to the input graph, builds the gadget for that
enlarged graph with its enlarged budget, and strings the would-be
isolated vertices on a backbone path hanging off w instead.

The gadget's ids follow from arithmetic, which both mappings rely on.
With B = 2 + 2nk + n and T = n + mB for the m encoded edges: the base
vertices are 0..n-1; the i-th base edge (u, v), in ascending order, owns
ids n + iB .. n + (i+1)B - 1, in the order uv, vu, d_1 .. d_{2nk},
tail_1 .. tail_n; the ids from T up are the isolated vertices, which in
the connected variant form one path from w through them in id order.
Every input vertex lies on an edge.  ``schedule_to_vc`` reads a cover off
source ids: base vertices add themselves, block offsets 1 and nk + 2 ..
2nk + 1 add v, the rest u, and backbone ids T .. T + nk add w.

3-SAT scheduling gadget: literal vertices are the fixed burning sources;
the i-th positive and negative literals each carry a top and a bottom
path of 2(n-i) vertices, and each clause vertex attaches to the far ends
of its literals' top paths.  An ignition order finishing within 2n
rounds exists exactly when the formula is satisfiable, with true
literals burning at odd rounds.

Its ids follow from arithmetic too.  Literal +i is vertex 2i - 2 and -i
is 2i - 1; the top paths follow in vertex order from id 2n, so top(+i) =
2n + 2(i - 1)(2n - i); each bottom path starts 2n(n - 1) past its top
path; and clause c, counting from 0, is 2n(2n - 1) + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

from .burning import Schedule, _pad_certified, simulate
from .exact import SchedulingInstance, ordering_feasible
from .graph import MAX_VERTICES, Graph, _fits, _graph_from_ids, _positive, graph_from_edges
from .paths import segment_sources


class ReductionError(ValueError):
    """Invalid reduction input, or a certificate mapping whose assertions failed."""


@dataclass
class VcInstance:
    """Burning instance produced from a vertex-cover question.

    ``n`` and ``q`` describe the graph the gadget encodes: the input graph
    itself, or — in the connected variant — the input graph plus the
    pendant vertices w and z, with the budget enlarged by one for w.
    ``base_edges`` are that graph's edges, each (u, v) with u < v, in
    ascending order: the i-th owns the i-th block of gadget ids.
    """

    gprime: Graph
    base_edges: list[tuple[int, int]]
    n: int
    k: int
    q: int
    connected: bool

    @property
    def original_n(self) -> int:
        return self.n - 2 if self.connected else self.n

    @property
    def original_q(self) -> int:
        return self.q - 1 if self.connected else self.q

    @property
    def round_bound(self) -> int:
        return self.q + 2 * self.n * self.k + 3


def _vc_layout(n: int, m: int, k: int) -> tuple[int, int]:
    """(B, T) for the gadget of n base vertices, m base edges and spread k:
    each base edge's block of B ids, and T, the first id past the blocks."""
    block = 2 + 2 * n * k + n
    return block, n + m * block


def _vc_gadget_size(g: Graph, k: int, q: int, connected: bool) -> int:
    """The cover gadget's vertex count for (g, k, q), after ReductionError for a
    bad parameter or a vertex of g on no edge: what build_vc_instance bounds
    before it allocates, and what load_vc_instance compares before it rebuilds."""
    if g.n < 1:
        raise ReductionError("input graph must have at least one vertex")
    if not all(g.adj):
        raise ReductionError(f"input vertex {g.adj.index([])} lies on no edge")
    _positive(k, "spread factor", ReductionError)
    if connected and k != 1:
        raise ReductionError("connected variant requires k=1")
    if not _fits(q, 1, g.n):
        raise ReductionError(f"q must be in 1..{g.n}, got {q!r}")
    n, m = g.n, g.m
    if connected:  # the pendant path v0 - w - z, with w in the budget
        n, m, q = n + 2, m + 2, q + 1
        rest = q + 2 * n + 2 + (2 * n + 3) ** 2  # the backbone
    else:
        rest = (k - 1) * q + k * (2 * n * k + 3)  # the isolated vertices
    return _vc_layout(n, m, k)[1] + rest


def _path_ids(first: int, last: int) -> chain[int]:
    """The path first - first + 1 - .. - last as a flat id list of its edges."""
    return chain.from_iterable(zip(range(first, last), range(first + 1, last + 1)))


def build_vc_instance(g: Graph, k: int, q: int, connected: bool = False) -> VcInstance:
    """Materialize the cover-to-burning gadget for (g, k, q).

    Raises ReductionError on bad parameters (k and q must be ints), or when
    the gadget would have more than MAX_VERTICES vertices; its size is
    computed before anything of that size is allocated.
    """
    size = _vc_gadget_size(g, k, q, connected)
    if not _fits(size, 0, MAX_VERTICES):
        raise ReductionError(f"gadget of {size} vertices exceeds the vertex bound {MAX_VERTICES}")
    w = g.n  # the connected variant's pendant path is v0 - w - z
    n = w + 2 if connected else w
    edges = sorted([*g.edges(), (0, w), (w, w + 1)] if connected else g.edges())
    block, top = _vc_layout(n, len(edges), k)
    half = n * k  # d_{nk}, the lower median, is d_1 + nk - 1
    ids: list[int] = []
    for (u, v), uv in zip(edges, range(n, top, block)):
        vu, d, t = uv + 1, uv + 2, uv + 2 + 2 * half  # d is d_1, t is tail_1
        # u - uv - d_1, d_{2nk} - vu - v and d_{nk} - tail_1, then the paths
        # d_1 .. d_{2nk} and tail_1 .. tail_n
        ids += (u, uv, uv, d, t - 1, vu, vu, v, d + half - 1, t)
        ids += _path_ids(d, t - 1)
        ids += _path_ids(t, t + n - 1)
    if connected:  # the backbone: w - T - T + 1 - .. - the last id
        ids += (w, top)
        ids += _path_ids(top, size - 1)
    gprime = _graph_from_ids(size, ids)
    return VcInstance(gprime, edges, n, k, q + 1 if connected else q, connected)


def original_edges(inst: VcInstance) -> list[tuple[int, int]]:
    """Edges of the user's input graph: the base edges less the pendant ones."""
    # pairs are (min, max): bounding the larger endpoint bounds both
    return [(u, v) for u, v in inst.base_edges if v < inst.original_n]


def vc_to_schedule(inst: VcInstance, cover) -> Schedule:
    """Turn a vertex cover of the input graph into a strict burning schedule.

    Cover vertices are ignited first (alongside k-1 isolated vertices per
    round when k > 1), the remaining isolated vertices follow k per round;
    the connected variant ignites w before the cover and then burns the
    backbone suffix like a standalone path.  The result is padded and
    certified, completes by round q + 2nk + 3, and a cover vertex not an int
    in 0..n-1 raises ReductionError.
    """
    return _vc_to_schedule(inst, cover)[0]


def _vc_to_schedule(inst: VcInstance, cover) -> tuple[Schedule, int]:
    """vc_to_schedule's schedule, with the completion round its certificate gave."""
    cov = list(cover)
    for c in cov:  # before the set, which would merge True into 1
        if not _fits(c, 0, inst.original_n - 1):
            raise ReductionError(f"cover vertex {c!r} is not an input-graph vertex")
    cov = sorted(set(cov))
    if len(cov) > inst.original_q:
        raise ReductionError(f"cover of {len(cov)} exceeds budget {inst.original_q}")
    covered = set(cov)
    for u, v in original_edges(inst):
        if u not in covered and v not in covered:
            raise ReductionError(f"not a vertex cover: edge ({u},{v}) untouched")

    k = inst.k
    top = _vc_layout(inst.n, len(inst.base_edges), k)[1]
    if not inst.connected:
        iso_ids = range(top, inst.gprime.n)
        extra = (k - 1) * len(cov)  # isolated vertices ignited beside the cover
        batches = [[c, *iso_ids[i * (k - 1):(i + 1) * (k - 1)]] for i, c in enumerate(cov)]
        batches += [iso_ids[i:i + k] for i in range(extra, len(iso_ids), k)]
    else:
        batches = [[] for _ in range(inst.round_bound)]
        batches[:len(cov) + 1] = [[inst.n - 2]] + [[c] for c in cov]  # w, then the cover
        suffix_start = top + inst.q + 2 * inst.n + 2  # the last (2n + 3)^2 backbone ids
        suffix = inst.gprime.n - suffix_start
        for vtx, r in segment_sources(suffix, 2 * inst.n + 3, base=suffix_start):
            batches[inst.q + r - 1] = [vtx]

    sched, completion = _pad_certified(inst.gprime, k, batches)
    if completion > inst.round_bound:
        raise ReductionError("constructed schedule failed validation")  # pragma: no cover
    return sched, completion


def schedule_to_vc(inst: VcInstance, s: Schedule):
    """Extract a vertex cover from a short strict burning schedule.

    A source adds the nearer end of each base edge whose block holds it or
    whose ends lie within nk + 1 hops, which its id alone names: a base
    vertex adds itself; at offset o of edge (u, v)'s block, o = 1 and
    nk + 2 <= o < 2nk + 2 add v, the rest u; the connected variant's
    backbone id T + j adds w when j <= nk; no other id adds anything.  No
    vertex is equidistant from the ends of the 2nk + 3 hop corridor; tail_j
    hangs off d_{nk}, nearer u; other base vertices lie a corridor away; and
    every input vertex lies on an edge.  The union must cover every edge
    within the budget; the connected variant then strips its pendant vertices.
    """
    report = simulate(inst.gprime, s, strict=True)
    if not report.valid:
        why = report.violations[0].reason if report.violations else "incomplete burn"
        raise ReductionError(f"schedule is not strict-valid: {why}")
    if len(s.rounds) > inst.round_bound or report.completion_round > inst.round_bound:
        raise ReductionError(f"schedule exceeds {inst.round_bound} rounds")

    n, nk, edges = inst.n, inst.n * inst.k, inst.base_edges  # each (b, c) with b < c
    block, top = _vc_layout(n, len(edges), inst.k)
    cover: set[int] = set()
    for src in (v for batch in s.rounds for v in batch):
        if src < n:
            cover.add(src)
        elif src < top:
            i, o = divmod(src - n, block)
            u, v = edges[i]
            cover.add(v if o == 1 or nk + 2 <= o < 2 * nk + 2 else u)
        elif inst.connected and src - top <= nk:
            cover.add(n - 2)  # w

    for b, c in edges:
        if b not in cover and c not in cover:
            raise ReductionError(f"extracted set misses edge ({b},{c}); invalid instance/schedule pair")
    if len(cover) > inst.q:
        raise ReductionError(f"extracted set has {len(cover)} vertices, budget is {inst.q}")
    if inst.connected:  # w or z covers (w, z), so the rest fits the original q
        cover = {x for x in cover if x < inst.original_n}
    return sorted(cover)


# --- 3-SAT scheduling gadget ---------------------------------------------


@dataclass
class Cnf3:
    """3-CNF formula: triples (tuples or lists) of nonzero int literals in
    -n_vars..n_vars, else ReductionError; the clauses are kept as tuples."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _positive(self.n_vars, "variable count", ReductionError)
        clean = []
        for clause in self.clauses:
            if not isinstance(clause, (tuple, list)):
                raise ReductionError(f"bad clause {clause!r}")
            clause = tuple(clause)
            if len(clause) != 3:
                raise ReductionError(f"clause {clause} does not have exactly 3 literals")
            for lit in clause:
                if not (_fits(lit, -self.n_vars, self.n_vars) and lit):
                    raise ReductionError(f"literal {lit} out of range for {self.n_vars} variables")
            clean.append(clause)
        self.clauses = tuple(clean)


def satisfies(cnf: Cnf3, assignment: dict[int, bool]) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause)
        for clause in cnf.clauses
    )


@dataclass
class SatInstance:
    """Scheduling instance for a 3-CNF formula of n variables.

    Sources are exactly the 2n literal vertices, +i at 2i - 2 and -i at
    2i - 1.  Their top paths follow in vertex order from id 2n, L_i = 2(n - i)
    vertices each, so top(+i) = 2n + 2(i - 1)(2n - i) and top(-i) = top(+i) + L_i;
    each bottom path starts 2n(n - 1) past its top path, and clause c (from 0)
    is 2n(2n - 1) + c, joined to the last vertex of its literals' top paths
    (to the literal vertex itself when i = n).
    """

    inst: SchedulingInstance
    cnf: Cnf3


def _sat_gadget_size(cnf: Cnf3) -> int:
    """The 3-SAT gadget's vertex count, for a formula with a clause: 2n literal
    vertices, four paths of 2(n - i) vertices for each variable i, and one
    vertex per clause."""
    if not cnf.clauses:
        raise ReductionError("formula must have at least one clause")
    n = cnf.n_vars
    return 2 * n + 4 * n * (n - 1) + len(cnf.clauses)


def _literal(lit: int) -> int:
    """The vertex of literal +i (2i - 2) or -i (2i - 1)."""
    return 2 * abs(lit) - 2 + (lit < 0)


def build_sat_instance(cnf: Cnf3) -> SatInstance:
    """The 3-SAT scheduling gadget; ReductionError for no clause, or before any id is
    made for a gadget of more than MAX_VERTICES vertices (``_sat_gadget_size``)."""
    size = _sat_gadget_size(cnf)
    if not _fits(size, 0, MAX_VERTICES):
        raise ReductionError(f"gadget of {size} vertices exceeds the vertex bound {MAX_VERTICES}")
    n = cnf.n_vars
    paths = 2 * n - 2  # literal vertices 0 .. 2n - 3 have paths; variable n's have none
    # literal u's top path is top[u] .. top[u + 1] - 1, its bottom path drop ids further on
    top = list(accumulate((2 * (n - 1 - u // 2) for u in range(paths)), initial=2 * n))
    drop = 2 * n * (n - 1)
    attached: list[list[int]] = [[] for _ in range(2 * n)]  # clause vertices, by literal vertex
    for cid, clause in enumerate(cnf.clauses, 2 * n * (2 * n - 1)):
        for lit in set(clause):
            attached[_literal(lit)].append(cid)
    # pairs (u, v) with u < v in ascending order, so the builder takes its
    # ordered path, as one flat id list: each literal vertex to its two
    # paths' first vertices (or to its clauses when it has none), then each
    # top path with its last vertex to its clauses, then each bottom path
    ids: list[int] = []
    for u in range(paths):
        ids += (u, top[u], u, top[u] + drop)
    for u in range(paths, 2 * n):
        for cid in attached[u]:
            ids += (u, cid)
    for u in range(paths):
        ids += _path_ids(top[u], top[u + 1] - 1)
        for cid in attached[u]:
            ids += (top[u + 1] - 1, cid)
    for u in range(paths):
        ids += _path_ids(top[u] + drop, top[u + 1] - 1 + drop)
    inst = SchedulingInstance(_graph_from_ids(size, ids), tuple(range(2 * n)), k=1)
    return SatInstance(inst, cnf)


def schedule_to_assignment(si: SatInstance, ordering: dict[int, int]) -> dict[int, bool]:
    """Read a truth assignment off a feasible ignition ordering.

    The ordering must burn everything within 2n rounds; the two literals
    of variable j are then forced into rounds 2j-1 and 2j, and the one at
    the odd round is the true one.  Violations of either fact raise.
    """
    n = si.cnf.n_vars
    rounds = 2 * n
    ok, why = ordering_feasible(si.inst, ordering, rounds)
    if not ok:
        raise ReductionError(f"ordering infeasible: {why}")
    assignment: dict[int, bool] = {}
    for j in range(1, n + 1):
        rp, rn = ordering[_literal(j)], ordering[_literal(-j)]
        if {rp, rn} != {2 * j - 1, 2 * j}:
            raise ReductionError(
                f"variable {j}: literal vertices ignite at rounds {rp} and {rn}, "
                f"expected {2 * j - 1} and {2 * j}"
            )
        assignment[j] = rp % 2 == 1
    if not satisfies(si.cnf, assignment):
        raise ReductionError("extracted assignment does not satisfy the formula")
    return assignment


def assignment_to_schedule(si: SatInstance, assignment: dict[int, bool]) -> dict[int, int]:
    """Turn a satisfying assignment into a feasible 2n-round ignition ordering.

    The true literal of variable j ignites at round 2j-1, the false one at
    2j.  The ordering is judged by ``ordering_feasible`` before being
    returned and must burn the whole instance within 2n rounds.
    """
    n = si.cnf.n_vars
    if sorted(assignment) != list(range(1, n + 1)):
        raise ReductionError("assignment must cover variables 1..n")
    if not satisfies(si.cnf, assignment):
        raise ReductionError("assignment does not satisfy the formula")
    ordering: dict[int, int] = {}
    for j in range(1, n + 1):
        pos, neg = _literal(j), _literal(-j)
        first, second = (pos, neg) if assignment[j] else (neg, pos)
        ordering[first] = 2 * j - 1
        ordering[second] = 2 * j
    if not ordering_feasible(si.inst, ordering, 2 * n)[0]:
        raise ReductionError("constructed ordering failed validation")  # pragma: no cover
    return ordering


# --- file formats ----------------------------------------------------------


def parse_dimacs_cnf(text: str) -> Cnf3:
    """Parse DIMACS-style CNF text; every clause must have exactly 3 literals.

    The ``p cnf n m`` line comes before any clause, and a ``%`` line (SATLIB's
    end-of-formula marker) ends the formula: nothing after it is read."""
    n_vars = None
    declared = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if n_vars is not None or len(parts) != 4 or parts[1] != "cnf":
                raise ReductionError(f"bad problem line: {line!r}")
            try:
                n_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ReductionError(f"bad problem line: {line!r}") from None
            continue
        if n_vars is None:
            raise ReductionError(f"clause line before the 'p cnf n m' line: {line!r}")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise ReductionError(f"bad clause line: {line!r}") from None
    if n_vars is None:
        raise ReductionError("missing 'p cnf n m' line")
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if len(current) != 3:
                raise ReductionError(f"clause {tuple(current)} does not have exactly 3 literals")
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(tok)
    if current:
        raise ReductionError("last clause is not terminated by 0")
    if len(clauses) != declared:
        raise ReductionError(f"header declares {declared} clauses, found {len(clauses)}")
    return Cnf3(n_vars, tuple(clauses))


def vc_instance_meta(inst: VcInstance) -> dict:
    """The cover gadget's sidecar: the graph, k, budget and variant it was built from."""
    return {
        "kind": "vc-burning-instance",
        "n": inst.original_n,
        "edges": [list(edge) for edge in original_edges(inst)],
        "k": inst.k,
        "q": inst.original_q,
        "connected": inst.connected,
    }


def _list(meta: dict, key: str) -> list:
    xs = meta[key]
    if not isinstance(xs, list):
        raise ReductionError(f"bad {key} {xs!r}")
    return xs


# A sidecar holds only a gadget's inputs.  Its loader checks them, compares
# the vertex count they give with the graph's before anything of gadget
# size is made, rebuilds the gadget, and returns it if it is the graph.
_OTHER_SIZE = "sidecar describes a gadget of {} vertices, the graph has {}"
_OTHER_GADGET = "graph is not the gadget its sidecar describes"


def load_vc_instance(gprime: Graph, meta) -> VcInstance:
    """The cover gadget a ``vc_instance_meta`` sidecar describes, if it is ``gprime``."""
    if not isinstance(meta, dict) or meta.get("kind") != "vc-burning-instance":
        raise ReductionError("metadata is not a vc-burning instance")
    try:
        n, edges = meta["n"], _list(meta, "edges")
        k, q, connected = meta["k"], meta["q"], meta["connected"]
    except KeyError as e:
        raise ReductionError(f"metadata has no {e} field") from None
    if not _fits(n, 1, gprime.n):  # the gadget holds a copy of each base vertex
        raise ReductionError(f"bad n {n!r}")
    if type(connected) is not bool:
        raise ReductionError(f"bad connected {connected!r}")
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ReductionError(f"bad edge {edge!r}")
    try:
        g = graph_from_edges(n, edges)
    except ValueError as e:
        raise ReductionError(f"bad edges: {e}") from None
    size = _vc_gadget_size(g, k, q, connected)  # checks k and q
    if size != gprime.n:
        raise ReductionError(_OTHER_SIZE.format(size, gprime.n))
    inst = build_vc_instance(g, k, q, connected)
    if inst.gprime.adj != gprime.adj:
        raise ReductionError(_OTHER_GADGET)
    return inst


def sat_instance_meta(si: SatInstance) -> dict:
    """The 3-SAT gadget's sidecar: the formula it was built from."""
    return {
        "kind": "sat-scheduling-instance",
        "n_vars": si.cnf.n_vars,
        "clauses": [list(c) for c in si.cnf.clauses],
    }


def load_sat_instance(graph: Graph, meta) -> SatInstance:
    """The 3-SAT gadget a ``sat_instance_meta`` sidecar describes, if it is ``graph``."""
    if not isinstance(meta, dict) or meta.get("kind") != "sat-scheduling-instance":
        raise ReductionError("metadata is not a sat-scheduling instance")
    try:
        cnf = Cnf3(meta["n_vars"], tuple(_list(meta, "clauses")))
    except KeyError as e:
        raise ReductionError(f"metadata has no {e} field") from None
    size = _sat_gadget_size(cnf)
    if size != graph.n:
        raise ReductionError(_OTHER_SIZE.format(size, graph.n))
    si = build_sat_instance(cnf)
    if si.inst.graph.adj != graph.adj:
        raise ReductionError(_OTHER_GADGET)
    return si
