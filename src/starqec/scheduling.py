"""CNOT scheduling for parity-check measurement.

Collision-free schedules correspond to vertex colorings of a scheduling
graph: one vertex per (qubit, check) incidence, a clique per qubit (its
CNOTs cannot be simultaneous) and a clique per check (its ancilla serves
one CNOT per step).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .codes import CssCode


@dataclass(frozen=True)
class SchedulingGraph:
    """Graph whose proper colorings are collision-free CNOT step assignments.

    Vertices are (qubit, kind, check_row) incidence triples; kind is 'X' or
    'Z' ('X'/'Z' only mixes in the interleaved variant).
    """

    vertices: tuple[tuple[int, str, int], ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)


def _incidences(code: CssCode, kinds: tuple[str, ...]) -> Iterable[tuple[int, str, int]]:
    """(qubit, kind, check_row) of every check of the given types and every
    qubit in its support, in (kind, row, qubit) order."""
    for kind in kinds:
        for row_idx, row in enumerate(code.checks(kind).rows):
            for q in range(code.n):
                if (row >> q) & 1:
                    yield q, kind, row_idx


def _incidence_graph(code: CssCode, kinds: tuple[str, ...]) -> SchedulingGraph:
    """Scheduling graph of the incidences of the given check types: a clique
    per qubit and a clique per check."""
    vertices = tuple(_incidences(code, kinds))
    cliques: dict[tuple, list[int]] = {}
    for idx, (q, kind, row) in enumerate(vertices):
        cliques.setdefault(("qubit", q), []).append(idx)
        cliques.setdefault((kind, row), []).append(idx)
    adj: list[set[int]] = [set() for _ in vertices]
    for clique in cliques.values():
        for i, a in enumerate(clique):
            for b in clique[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return SchedulingGraph(vertices, tuple(frozenset(a) for a in adj))


def build_check_graph(code: CssCode, kind: str) -> SchedulingGraph:
    """Scheduling graph for one check type measured on its own."""
    return _incidence_graph(code, (kind,))


def build_interleaved_graph(code: CssCode) -> SchedulingGraph:
    """Scheduling graph with X- and Z-check CNOTs sharing one pool of steps."""
    return _incidence_graph(code, ("X", "Z"))


@dataclass(frozen=True)
class Coloring:
    graph: SchedulingGraph
    colors: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0


def dsatur_color(g: SchedulingGraph, priority: Sequence[int] | None = None) -> Coloring:
    """Greedy saturation coloring.

    Vertex selection: highest saturation, then highest degree, then lowest
    priority value (vertex index by default). Always valid, and uses at
    most max_degree + 1 colors.
    """
    n = len(g.vertices)
    if priority is None:
        priority = range(n)
    colors = [-1] * n
    saturation: list[set[int]] = [set() for _ in range(n)]
    degree = [len(a) for a in g.adjacency]
    for _ in range(n):
        best = -1
        best_key = None
        for v in range(n):
            if colors[v] != -1:
                continue
            key = (len(saturation[v]), degree[v], -priority[v])
            if best_key is None or key > best_key:
                best, best_key = v, key
        c = 0
        while c in saturation[best]:
            c += 1
        colors[best] = c
        for u in g.adjacency[best]:
            saturation[u].add(c)
    return Coloring(g, tuple(colors))


def shuffled_priority(n: int, attempt: int) -> list[int]:
    """Deterministically reordered priority ranks for retry ``attempt``.

    Attempt 0 is the natural order; later attempts use seeded shuffles,
    which explore far more colorings than plain rotations on small graphs.
    """
    if attempt == 0:
        return list(range(n))
    import numpy as np

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(attempt)))
    return rng.permutation(n).tolist()


class ScheduleError(ValueError):
    pass


def _first_conflict(steps: int, cnots) -> tuple[int, str] | None:
    """The index of the first (step, kind, row, qubit) CNOT that leaves [1,
    steps], or repeats an incidence, or a qubit or a check within one step,
    with the reason; None if there is none."""
    seen = set()
    for i, (step, kind, row, qubit) in enumerate(cnots):
        if not 1 <= step <= steps:
            return i, f"step {step} outside [1, {steps}]"
        for key, reason in (((kind, row, qubit), "incidence ({1}{2}, q{3}) scheduled twice"),
                            ((step, qubit), "qubit {3} busy twice in step {0}"),
                            ((step, kind, row), "check {1}{2} busy twice in step {0}")):
            if key in seen:
                return i, reason.format(step, kind, row, qubit)
            seen.add(key)
    return None


@dataclass(frozen=True)
class CnotSchedule:
    """Timestep assignment of every (check, qubit) CNOT.

    Steps are 1-based; preparation occupies step 0 and measurement step
    m + 1, so a round takes T = m + 2 timesteps.
    """

    mode: str  # "separate" or "interleaved"
    steps: int
    cnots: tuple[tuple[int, str, int, int], ...]  # (step, kind, check_row, qubit)

    def __post_init__(self):
        if self.mode not in ("separate", "interleaved"):
            raise ScheduleError(f"unknown mode {self.mode!r}")
        conflict = _first_conflict(self.steps, self.cnots)
        if conflict:
            raise ScheduleError(conflict[1])

    @property
    def total_timesteps(self) -> int:
        return self.steps + 2

    def step_of(self, kind: str, row: int, qubit: int) -> int:
        return self._steps[(kind, row, qubit)]

    @cached_property
    def _steps(self) -> dict[tuple[str, int, int], int]:
        return {(k, r, q): s for s, k, r, q in self.cnots}

    def by_step(self) -> dict[int, list[tuple[str, int, int]]]:
        out: dict[int, list[tuple[str, int, int]]] = {s: [] for s in range(1, self.steps + 1)}
        for s, k, r, q in self.cnots:
            out[s].append((k, r, q))
        return out

    def validate_against(self, code: CssCode) -> None:
        """Every (check, qubit) incidence of the code appears exactly once."""
        want = {(k, r, q) for q, k, r in _incidences(code, ("X", "Z"))}
        have = {(k, r, q) for _, k, r, q in self.cnots}
        if want != have:
            missing = sorted(want - have)[:5]
            extra = sorted(have - want)[:5]
            raise ScheduleError(
                f"schedule does not match code incidences (missing {missing}, extra {extra})"
            )


def _schedule(code: CssCode, mode: str, colorings) -> CnotSchedule:
    """Schedule whose CNOTs sit at their colors' steps, each coloring of
    ``colorings`` taking the steps after the previous one's. A coloring that
    puts two CNOTs of one qubit or one check on one step raises
    ScheduleError naming the busy qubit or check."""
    cnots = []
    steps = 0
    for coloring in colorings:
        for (q, kind, row), color in zip(coloring.graph.vertices, coloring.colors):
            cnots.append((steps + color + 1, kind, row, q))
        steps += coloring.num_colors
    schedule = CnotSchedule(mode=mode, steps=steps, cnots=tuple(sorted(cnots)))
    schedule.validate_against(code)
    return schedule


def schedule_from_colorings(
    code: CssCode, coloring_x: Coloring, coloring_z: Coloring
) -> CnotSchedule:
    """Sequential schedule: all X-check CNOT steps first, then all Z-check steps."""
    return _schedule(code, "separate", (coloring_x, coloring_z))


def schedule_from_interleaved_coloring(code: CssCode, coloring: Coloring) -> CnotSchedule:
    return _schedule(code, "interleaved", (coloring,))


@dataclass
class PropernessReport:
    improper_pairs: list[tuple[int, int, tuple[int, ...]]]  # (x_row, z_row, shared qubits)

    @property
    def ok(self) -> bool:
        return not self.improper_pairs


@dataclass(frozen=True)
class PropernessRule:
    """Every X/Z check pair that shares qubits, read once from the code.

    ``pairs`` holds each such pair as (x_row, z_row, shared qubits, links),
    where a link is the (X incidence, Z incidence) index pair of one shared
    qubit in ``incidences``, the interleaved graph's vertex order. The
    overlap is even: ``CssCode`` refuses a pair with an odd one.
    """

    incidences: tuple[tuple[int, str, int], ...]
    pairs: tuple[tuple[int, int, tuple[int, ...], tuple[tuple[int, int], ...]], ...]

    def improper_pairs(self, times: Sequence[int]) -> Iterable[tuple[int, int, tuple[int, ...]]]:
        """The pairs whose shared qubits do not all meet the X check first or
        all meet the Z check first, given a time per incidence."""
        for xi, zj, qubits, links in self.pairs:
            if len({times[a] < times[b] for a, b in links}) != 1:
                yield xi, zj, qubits

    def is_proper(self, times: Sequence[int]) -> bool:
        return next(self.improper_pairs(times), None) is None


def properness_rule(code: CssCode) -> PropernessRule:
    incidences = tuple(_incidences(code, ("X", "Z")))
    index = {(kind, row, q): i for i, (q, kind, row) in enumerate(incidences)}
    pairs = []
    for xi, rx in enumerate(code.hx.rows):
        for zj, rz in enumerate(code.hz.rows):
            if rx & rz:
                qubits = tuple(q for q in range(code.n) if (rx & rz) >> q & 1)
                links = tuple((index["X", xi, q], index["Z", zj, q]) for q in qubits)
                pairs.append((xi, zj, qubits, links))
    return PropernessRule(incidences, tuple(pairs))


def verify_properness(code: CssCode, schedule: CnotSchedule) -> PropernessReport:
    """Check that every X/Z check pair interacts with shared qubits in a
    consistent order (all X-first or all Z-first), so no measurement outcome
    is randomized."""
    rule = properness_rule(code)
    times = [schedule.step_of(kind, row, q) for q, kind, row in rule.incidences]
    return PropernessReport(list(rule.improper_pairs(times)))


def format_schedule(schedule: CnotSchedule) -> str:
    lines = [f"mode {schedule.mode}", f"steps {schedule.steps}"]
    for step, kind, row, qubit in schedule.cnots:
        lines.append(f"cnot {step} {kind} {row} {qubit}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> CnotSchedule:
    """Parse the schedule file format; a malformed line raises ScheduleError
    naming it. ``steps`` may not pass the last CNOT step, so a file cannot
    make the EC circuit idle for steps that no CNOT uses."""
    mode = steps = None
    cnots, cnot_lines = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        if directive == "mode":
            if args not in (["separate"], ["interleaved"]):
                raise ScheduleError(f"line {line_no}: expected 'mode separate|interleaved'")
            mode = args[0]
        elif directive == "steps":
            if len(args) != 1:
                raise ScheduleError(f"line {line_no}: expected 'steps m'")
            steps, steps_line = _integers(line_no, args)[0], line_no
        elif directive == "cnot":
            if len(args) != 4:
                raise ScheduleError(f"line {line_no}: expected 'cnot t kind row qubit'")
            step, row, qubit = _integers(line_no, [args[0], *args[2:]])
            if args[1] not in ("X", "Z"):
                raise ScheduleError(f"line {line_no}: kind must be X or Z")
            cnots.append((step, args[1], row, qubit))
            cnot_lines.append(line_no)
        else:
            raise ScheduleError(f"line {line_no}: unknown directive {directive!r}")
    if mode is None or steps is None:
        raise ScheduleError("schedule file needs 'mode' and 'steps' headers")
    conflict = _first_conflict(steps, cnots)
    if conflict:
        raise ScheduleError(f"line {cnot_lines[conflict[0]]}: {conflict[1]}")
    last = max((cnot[0] for cnot in cnots), default=0)
    if steps > last:
        raise ScheduleError(f"line {steps_line}: steps {steps} is past the last CNOT step {last}")
    return CnotSchedule(mode=mode, steps=steps, cnots=tuple(sorted(cnots)))


def _integers(line_no: int, fields: list[str]) -> list[int]:
    """The fields as non-negative integers; any other field raises ScheduleError."""
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ScheduleError(f"line {line_no}: expected non-negative integers, got {fields}")
    return [int(f) for f in fields]


def load_schedule(path: str | Path) -> CnotSchedule:
    return parse_schedule(Path(path).read_text())


def save_schedule(schedule: CnotSchedule, path: str | Path) -> None:
    Path(path).write_text(format_schedule(schedule))
