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
    build_check_graph,
    build_interleaved_graph,
    dsatur_color,
    parse_schedule,
    schedule_from_colorings,
    schedule_from_interleaved_coloring,
    shuffled_priority,
    verify_properness,
)


@dataclass(frozen=True, slots=True)
class FaultResidual:
    """Data error left by one fault, reduced modulo the check being measured."""

    kind: str  # error type, 'X' or 'Z'
    residual: int
    syndrome: int  # ideal syndrome of the residual
    loc_index: int
    value: int

    @property
    def weight(self) -> int:
        return self.residual.bit_count()


@memoized_on_circuit
def enumerate_single_fault_errors(circuit: EcCircuit, kind: str) -> tuple[FaultResidual, ...]:
    """Residual ``kind``-type data errors of every single fault in the
    one-round EC circuit ``circuit``.

    Each fault (all 15 Paulis per CNOT, the prep/measurement flips, X/Y/Z per
    idle) is read, location by location and value by value, from the
    circuit's memoized signatures (``frames.compute_signatures``). The
    residual is reduced modulo the check whose measurement hosted the fault,
    so every entry has weight at most 2 for weight-5 checks. Memoized per
    kind on the circuit, so the tables, the unique-syndrome check and
    condition 1 share one enumeration per kind.
    """
    det = detector_rows(circuit, kind)
    checks = circuit.code.checks(kind)
    signatures = compute_signatures(circuit)
    syndromes: dict[int, int] = {}  # residual -> ideal syndrome
    out = []
    for loc_index, loc in enumerate(circuit.locations):
        owner = circuit.owner_check(loc)
        reducer = checks.rows[owner[1]] if owner is not None and owner[0] == kind else None
        for value, sig in enumerate(signatures.of_location(loc_index)):
            residual = sig.x_res if kind == "X" else sig.z_res
            if reducer is not None and (residual ^ reducer).bit_count() < residual.bit_count():
                residual ^= reducer
            if residual not in syndromes:
                syndromes[residual] = syndrome_bits(det, residual)
            out.append(
                FaultResidual(
                    kind=kind,
                    residual=residual,
                    syndrome=syndromes[residual],
                    loc_index=loc_index,
                    value=value,
                )
            )
    return tuple(out)


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
        residuals = {fr.residual for fr in enumerate_single_fault_errors(circuit, kind)}
        det = detector_rows(circuit, kind)
        collisions[kind] = _collisions(circuit.code, kind, residuals, det)
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


def _permuted(coloring: Coloring, perm: tuple[int, ...]) -> Coloring:
    """Relabel color classes; a coloring fixes the time order only up to a
    permutation of the steps, which gives extra schedule candidates."""
    return Coloring(coloring.graph, tuple(perm[c] for c in coloring.colors))


class ScheduleSearchError(RuntimeError):
    pass


# Complete assignments the backtracking search tests before it gives up.
DFS_BUDGET = 200_000


def _dfs_orders(
    code: CssCode,
    kind: str,
    measured: list[int],
    det: tuple[int, ...],
    steps: int,
) -> Coloring | None:
    """Deterministic backtracking over minimum-step assignments, returning the
    first one whose fault-derived errors pass the uniqueness check.

    Used when greedy colorings exist but none of them (under any permutation
    of the time slots) satisfies the uniqueness condition.
    """
    checks = code.checks(kind)
    supports = [
        [q for q in range(code.n) if (row >> q) & 1] for row in checks.rows
    ]
    rows = list(range(len(supports)))
    graph = build_check_graph(code, kind)
    assignment: list[tuple[int, ...] | None] = [None] * len(rows)
    busy: set[tuple[int, int]] = set()
    tested = 0

    def candidates(row: int):
        return permutations(range(steps), len(supports[row]))

    def place(row: int, perm) -> bool:
        placed = []
        for q, s in zip(supports[row], perm):
            if (s, q) in busy:
                for key in placed:
                    busy.discard(key)
                return False
            busy.add((s, q))
            placed.append((s, q))
        assignment[row] = perm
        return True

    def unplace(row: int):
        for q, s in zip(supports[row], assignment[row]):
            busy.discard((s, q))
        assignment[row] = None

    def solve(idx: int):
        nonlocal tested
        if idx == len(rows):
            tested += 1
            orders = {}
            for row in measured:
                pairs = sorted(zip(assignment[row], supports[row]))
                orders[row] = [q for _, q in pairs]
            residuals = _side_residuals(code, kind, measured, orders)
            if not _collisions(code, kind, residuals, det):
                return True
            return None if tested < DFS_BUDGET else False
        for perm in candidates(rows[idx]):
            if place(rows[idx], perm):
                result = solve(idx + 1)
                if result:
                    return True  # keep the winning placement intact
                unplace(rows[idx])
                if result is False:
                    return False
        return None

    if not solve(0):
        return None
    colors = []
    for q, _kind, row in graph.vertices:
        step = assignment[row][supports[row].index(q)]
        colors.append(step)
    return Coloring(graph, tuple(colors))


@dataclass
class ScheduleSearchResult:
    schedule: CnotSchedule
    colors_x: int
    colors_z: int
    attempts: int
    uniqueness: UniquenessReport
    method: dict[str, str] | None = None  # per kind: 'dsatur' or 'backtracking'


def find_fault_tolerant_schedule(code: CssCode, retries: int = 1000) -> ScheduleSearchResult:
    """Search sequential schedules: DSATUR with reshuffled vertex orderings until
    both check types admit a minimum coloring whose fault-derived errors all
    have distinguishable syndromes."""
    measured = {"X": independent_rows(code.hx), "Z": independent_rows(code.hz)}
    colorings: dict[str, Coloring] = {}
    method: dict[str, str] = {}
    attempts_used = 0
    for kind in ("X", "Z"):
        graph = build_check_graph(code, kind)
        target = max(r.bit_count() for r in code.checks(kind).rows)
        det = tuple(
            code.checks("Z" if kind == "X" else "X").rows[j]
            for j in measured["Z" if kind == "X" else "X"]
        )
        found = None
        candidates = 0
        for attempt in range(retries):
            if candidates >= retries:
                break
            coloring = dsatur_color(graph, shuffled_priority(len(graph.vertices), attempt))
            attempts_used += 1
            if coloring.num_colors > target:
                continue
            # A coloring fixes the schedule only up to a permutation of the
            # time slots; try a bounded number of slot relabelings.
            for perm in islice(permutations(range(coloring.num_colors)), 24):
                candidate = _permuted(coloring, perm)
                orders = _orders_from_coloring(candidate)
                residuals = _side_residuals(code, kind, measured[kind], orders)
                candidates += 1
                if not _collisions(code, kind, residuals, det):
                    found = candidate
                    break
                if candidates >= retries:
                    break
            if found is not None:
                break
        method[kind] = "dsatur"
        if found is None:
            # Greedy colorings can be structurally biased away from the
            # uniqueness condition; fall back to exact backtracking.
            found = _dfs_orders(code, kind, measured[kind], det, target)
            method[kind] = "backtracking"
        if found is None:
            raise ScheduleSearchError(
                f"no fault-tolerant {kind} coloring within {retries} attempts"
            )
        colorings[kind] = found
    schedule = schedule_from_colorings(code, colorings["X"], colorings["Z"])
    properness = verify_properness(code, schedule)
    if not properness.ok:
        raise ScheduleSearchError(f"sequential schedule unexpectedly improper: {properness}")
    uniqueness = verify_unique_syndromes(build_ec_circuit(code, schedule, rounds=1))
    if not uniqueness.ok:
        raise ScheduleSearchError(
            "circuit-level uniqueness check disagrees with the order-level search"
        )
    return ScheduleSearchResult(
        schedule=schedule,
        colors_x=colorings["X"].num_colors,
        colors_z=colorings["Z"].num_colors,
        attempts=attempts_used,
        uniqueness=uniqueness,
        method=method,
    )


@dataclass
class InterleavedSearchResult:
    schedule: CnotSchedule | None
    best_colors: int | None
    attempts: int
    proper: bool
    unique: bool


def find_interleaved_schedule(
    code: CssCode, retries: int = 200, perms_per_coloring: int = 120
) -> InterleavedSearchResult:
    """Best-effort search for an interleaved schedule that is valid, proper and
    passes the uniqueness check. May legitimately fail for some codes."""
    graph = build_interleaved_graph(code)
    best_colors = None
    attempts = 0
    best_proper = False
    best_unique = False
    for attempt in range(retries):
        coloring = dsatur_color(graph, shuffled_priority(len(graph.vertices), attempt))
        attempts += 1
        if best_colors is None or coloring.num_colors < best_colors:
            best_colors = coloring.num_colors
        for perm in islice(permutations(range(coloring.num_colors)), perms_per_coloring):
            schedule = schedule_from_interleaved_coloring(code, _permuted(coloring, perm))
            if not verify_properness(code, schedule).ok:
                continue
            best_proper = True
            if not verify_unique_syndromes(build_ec_circuit(code, schedule, rounds=1)).ok:
                continue
            best_unique = True
            return InterleavedSearchResult(schedule, coloring.num_colors, attempts, True, True)
    return InterleavedSearchResult(None, best_colors, attempts, best_proper, best_unique)


def builtin_schedule(name: str) -> CnotSchedule:
    """Load a shipped, verified schedule ('ssd' or 'surface17')."""
    data = resources.files("starqec.schedules").joinpath(f"{name}.sched").read_text()
    return parse_schedule(data)
