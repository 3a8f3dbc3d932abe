"""Single-fault error enumeration, the unique-syndrome fault-tolerance check,
and the search for CNOT schedules that satisfy it."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import islice, permutations

from .circuits import EcCircuit, build_ec_circuit, memoized_on_circuit
from .codes import CssCode, independent_rows
from .frames import compute_signatures, detector_rows
from .gf2 import RowSpace, syndrome_bits
from .scheduling import (
    CnotSchedule,
    Coloring,
    SchedulingGraph,
    build_check_graph,
    build_interleaved_graph,
    dsatur_color,
    parse_schedule,
    properness_rule,
    schedule_from_colorings,
    schedule_from_interleaved_coloring,
    shuffled_priority,
    verify_properness,  # noqa: F401  (benchmarks/run.py wraps it here to trace it)
)


@memoized_on_circuit
def enumerate_single_fault_errors(circuit: EcCircuit, kind: str) -> tuple[int, ...]:
    """The distinct residual ``kind``-type data errors that single faults
    leave in the one-round EC circuit ``circuit``, in the order the circuit's
    (location, value) atoms first give them.

    Each fault (all 15 Paulis per CNOT, the prep/measurement flips, X/Y/Z per
    idle) is read from the circuit's memoized signatures
    (``frames.compute_signatures``). The residual is reduced modulo the check
    whose measurement hosted the fault, so every entry has weight at most 2
    for weight-5 checks. Memoized per kind on the circuit, so the tables, the
    unique-syndrome check and condition 1 share one enumeration per kind.
    """
    checks = circuit.code.checks(kind)
    signatures = compute_signatures(circuit)
    residuals: dict[int, None] = {}
    for loc_index, loc in enumerate(circuit.locations):
        owner = circuit.owner_check(loc)
        reducer = checks.rows[owner[1]] if owner is not None and owner[0] == kind else 0
        for sig in signatures.of_location(loc_index):
            residual = sig.x_res if kind == "X" else sig.z_res
            if (residual ^ reducer).bit_count() < residual.bit_count():
                residual ^= reducer
            residuals[residual] = None
    return tuple(residuals)


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of the unique-syndrome check, with colliding error pairs."""

    collisions: dict[str, list[tuple[int, int, int]]]  # kind -> (syndrome, err_a, err_b)

    @property
    def ok(self) -> bool:
        return not any(self.collisions.values())


def _collisions(code: CssCode, kind: str, residuals: set[int], det) -> list[tuple[int, int, int]]:
    stabilizer = RowSpace.of_matrix(code.checks(kind))
    by_syndrome: dict[int, list[int]] = {}
    for r in residuals:
        if r:
            by_syndrome.setdefault(syndrome_bits(det, r), []).append(r)
    bad = []
    for s, group in by_syndrome.items():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if not stabilizer.contains(a ^ b):
                    bad.append((s, a, b))
    return bad


@memoized_on_circuit
def verify_unique_syndromes(circuit: EcCircuit) -> UniquenessReport:
    """Check that the single-fault residual errors of the one-round circuit
    ``circuit`` are distinguishable: any two with the same syndrome must be
    equal or differ by a stabilizer element (this covers weight-2 against
    weight-1 residuals as well). Memoized on the circuit, so the tables and
    ``verify()`` share one run."""
    collisions = {}
    for kind in ("X", "Z"):
        residuals = set(enumerate_single_fault_errors(circuit, kind))
        collisions[kind] = _collisions(circuit.code, kind, residuals, detector_rows(circuit, kind))
    return UniquenessReport(collisions)


# --- schedule search -------------------------------------------------------


def _order_residual_classes(row_support: list[int], row_mask: int) -> set[int]:
    """Residual classes a single fault can leave behind for one check, given
    the order its qubits are visited: every suffix of the visit order, and
    every suffix extended by its own gate's data qubit, reduced mod the check."""
    out = set()
    w = len(row_support)
    for j in range(w + 1):
        suffix = 0
        for q in row_support[j:]:
            suffix |= 1 << q
        candidates = [suffix]
        if j >= 1:
            candidates.append(suffix | (1 << row_support[j - 1]))
        for e in candidates:
            if (e ^ row_mask).bit_count() < e.bit_count():
                e ^= row_mask
            if e:
                out.add(e)
    return out


def _side_residuals(code: CssCode, kind: str, measured: list[int], orders) -> set[int]:
    """All residual classes of ``kind`` for a candidate coloring, closed form.

    ``orders`` maps a measured row index to its qubit visit order. Weight-1
    errors on every qubit are always reachable (data faults), so they are
    included regardless of the schedule.
    """
    residuals = {1 << q for q in range(code.n)}
    checks = code.checks(kind)
    for row_idx in measured:
        residuals |= _order_residual_classes(orders[row_idx], checks.rows[row_idx])
    return residuals


def _orders_from_coloring(coloring: Coloring) -> dict[int, list[int]]:
    per_check: dict[int, list[tuple[int, int]]] = {}
    for (q, _kind, row), color in zip(coloring.graph.vertices, coloring.colors):
        per_check.setdefault(row, []).append((color, q))
    return {row: [q for _, q in sorted(v)] for row, v in per_check.items()}


class ScheduleSearchError(RuntimeError):
    pass


# Search budgets. Separate mode: at most SEPARATE_CANDIDATES candidates per
# check type, the first SEPARATE_RELABELINGS of each coloring. Interleaved
# mode: INTERLEAVED_COLORINGS colorings, INTERLEAVED_RELABELINGS of each.
SEPARATE_CANDIDATES = 1000
SEPARATE_RELABELINGS = 24
INTERLEAVED_COLORINGS = 200
INTERLEAVED_RELABELINGS = 120
# Complete assignments the backtracking search tests before it gives up.
DFS_BUDGET = 200_000


def _search_colorings(graph, colorings: int, relabelings: int, cap: int, keep, accept):
    """The one candidate loop of both searches. Attempt a colors ``graph`` by
    DSATUR under the a-th shuffled priority. A coloring fixes the time order
    only up to a permutation of the steps, so one that ``keep`` passes gives
    its first ``relabelings`` slot relabelings as candidates. Returns the
    first truthy ``accept(candidate)`` (None once ``colorings`` attempts or
    ``cap`` candidates are spent) and the number of colorings made."""
    tried = 0
    for attempt in range(colorings):
        coloring = dsatur_color(graph, shuffled_priority(len(graph.vertices), attempt))
        if not keep(coloring):
            continue
        for perm in islice(permutations(range(coloring.num_colors)), relabelings):
            found = accept(Coloring(graph, tuple(perm[c] for c in coloring.colors)))
            tried += 1
            if found or tried >= cap:
                return found or None, attempt + 1
    return None, colorings


def _dfs_orders(graph: SchedulingGraph, supports: list[list[int]], steps: int, unique):
    """Deterministic backtracking over ``steps``-step assignments of the
    checks with these qubit ``supports``, rows in order and each row's steps
    in ``permutations`` order. Returns the first of the first ``DFS_BUDGET``
    whose visit orders pass ``unique``, as a coloring of ``graph``, or None.

    Used when greedy colorings exist but none of them (under any permutation
    of the time slots) satisfies the uniqueness condition.
    """

    def assignments(row: int, busy: frozenset):
        if row == len(supports):
            yield ()
            return
        for perm in permutations(range(steps), len(supports[row])):
            cells = {(s, q) for q, s in zip(supports[row], perm)}
            if busy.isdisjoint(cells):
                for rest in assignments(row + 1, busy | cells):
                    yield (perm, *rest)

    for assignment in islice(assignments(0, frozenset()), DFS_BUDGET):
        orders = [[q for _, q in sorted(zip(a, sup))] for a, sup in zip(assignment, supports)]
        if unique(orders):
            steps_of = (assignment[row][supports[row].index(q)] for q, _, row in graph.vertices)
            return Coloring(graph, tuple(steps_of))
    return None


@dataclass
class ScheduleSearchResult:
    schedule: CnotSchedule
    colors_x: int
    colors_z: int
    attempts: int
    method: dict[str, str] | None = None  # per kind: 'dsatur' or 'backtracking'


def find_fault_tolerant_schedule(code: CssCode) -> ScheduleSearchResult:
    """Search sequential schedules: per check type, minimum DSATUR colorings
    and their slot relabelings until one's fault-derived errors all have
    distinguishable syndromes, else exact backtracking."""
    measured = {"X": independent_rows(code.hx), "Z": independent_rows(code.hz)}
    colorings: dict[str, Coloring] = {}
    method: dict[str, str] = {}
    attempts_used = 0
    for kind in ("X", "Z"):
        graph = build_check_graph(code, kind)
        target = max(r.bit_count() for r in code.checks(kind).rows)
        other = "Z" if kind == "X" else "X"
        det = tuple(code.checks(other).rows[j] for j in measured[other])

        def unique(orders) -> bool:
            residuals = _side_residuals(code, kind, measured[kind], orders)
            return not _collisions(code, kind, residuals, det)

        found, attempts = _search_colorings(
            graph, SEPARATE_CANDIDATES, SEPARATE_RELABELINGS, SEPARATE_CANDIDATES,
            lambda coloring: coloring.num_colors <= target,
            lambda candidate: unique(_orders_from_coloring(candidate)) and candidate,
        )
        attempts_used += attempts
        method[kind] = "dsatur"
        if found is None:
            # Greedy colorings can be structurally biased away from the
            # uniqueness condition; fall back to exact backtracking.
            supports = [[q for q in range(code.n) if r >> q & 1] for r in code.checks(kind).rows]
            found = _dfs_orders(graph, supports, target, unique)
            method[kind] = "backtracking"
        if found is None:
            raise ScheduleSearchError(f"no fault-tolerant {kind} coloring within the budgets")
        colorings[kind] = found
    schedule = schedule_from_colorings(code, colorings["X"], colorings["Z"])
    if not verify_unique_syndromes(build_ec_circuit(code, schedule, rounds=1)).ok:
        raise ScheduleSearchError(
            "circuit-level uniqueness check disagrees with the order-level search"
        )
    return ScheduleSearchResult(
        schedule=schedule,
        colors_x=colorings["X"].num_colors,
        colors_z=colorings["Z"].num_colors,
        attempts=attempts_used,
        method=method,
    )


@dataclass
class InterleavedSearchResult:
    schedule: CnotSchedule | None
    best_colors: int | None
    attempts: int
    proper: bool


def find_interleaved_schedule(code: CssCode) -> InterleavedSearchResult:
    """Best-effort search for an interleaved schedule that is valid, proper and
    passes the uniqueness check. Properness is decided on each candidate
    coloring; only a proper one is built into a schedule and checked for
    unique syndromes. May legitimately fail for some codes."""
    graph = build_interleaved_graph(code)
    rule = properness_rule(code)
    sizes: list[int] = []  # colors of each coloring made
    proper = False

    def keep(coloring: Coloring) -> bool:
        sizes.append(coloring.num_colors)
        return True

    def passing(candidate: Coloring) -> CnotSchedule | None:
        nonlocal proper
        if not rule.is_proper(candidate.colors):
            return None
        proper = True
        schedule = schedule_from_interleaved_coloring(code, candidate)
        circuit = build_ec_circuit(code, schedule, rounds=1)
        return schedule if verify_unique_syndromes(circuit).ok else None

    schedule, attempts = _search_colorings(
        graph, INTERLEAVED_COLORINGS, INTERLEAVED_RELABELINGS,
        INTERLEAVED_COLORINGS * INTERLEAVED_RELABELINGS, keep, passing,
    )
    best_colors = schedule.steps if schedule else min(sizes, default=None)
    return InterleavedSearchResult(schedule, best_colors, attempts, proper)


def builtin_schedule(name: str) -> CnotSchedule:
    """Load a shipped, verified schedule ('ssd' or 'surface17')."""
    data = resources.files("starqec.schedules").joinpath(f"{name}.sched").read_text()
    return parse_schedule(data)
