"""Timestep-gridded error-correction circuits with enumerable fault locations,
and the circuit-level depolarizing noise model."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, wraps

import numpy as np

from .codes import CssCode, independent_rows
from .scheduling import CnotSchedule, ScheduleError

# Location kinds.
PREP_PLUS = "prep+"
PREP_ZERO = "prep0"
CNOT = "cnot"
MEAS_X = "measx"
MEAS_Z = "measz"
IDLE = "idle"

# Noise categories share a failure probability per kind of location.
CATEGORIES = ("cnot", "prep", "meas", "idle")
CATEGORY_OF = {
    PREP_PLUS: "prep",
    PREP_ZERO: "prep",
    CNOT: "cnot",
    MEAS_X: "meas",
    MEAS_Z: "meas",
    IDLE: "idle",
}

# Single-qubit Pauli encoding: (has X component, has Z component).
_PAULI_XZ = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}  # I, X, Y, Z


def cnot_fault_components(value: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Decode CNOT fault value 0..14 into ((x_c, z_c), (x_t, z_t)).

    Values enumerate the 15 nontrivial two-qubit Paulis in base-4 order
    (IX, IY, IZ, XI, XX, ...).
    """
    if not 0 <= value < 15:
        raise ValueError("CNOT fault value must be in [0, 15)")
    a, b = divmod(value + 1, 4)
    return _PAULI_XZ[a], _PAULI_XZ[b]


def idle_fault_components(value: int) -> tuple[int, int]:
    """Decode idle fault value 0..2 (X, Y, Z) into (x, z) components."""
    if not 0 <= value < 3:
        raise ValueError("idle fault value must be in [0, 3)")
    return _PAULI_XZ[value + 1]


@dataclass(frozen=True)
class NoiseModel:
    """Circuit-level depolarizing noise.

    With probability p a CNOT is followed by one of the 15 nontrivial
    two-qubit Paulis (p/15 each); preparations produce the orthogonal state
    with probability 2p/3; measurement outcomes flip with probability 2p/3;
    idle qubits suffer X, Y or Z with probability p/10 total (p/30 each).
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    @property
    def cnot_prob(self) -> float:
        return self.p

    @property
    def prep_prob(self) -> float:
        return 2.0 * self.p / 3.0

    @property
    def meas_prob(self) -> float:
        return 2.0 * self.p / 3.0

    @property
    def idle_prob(self) -> float:
        return self.p / 10.0

    def category_prob(self, category: str) -> float:
        return {
            "cnot": self.cnot_prob,
            "prep": self.prep_prob,
            "meas": self.meas_prob,
            "idle": self.idle_prob,
        }[category]


def category_value_count(category: str) -> int:
    """Number of distinct fault values a failing location of this category draws from."""
    return {"cnot": 15, "prep": 1, "meas": 1, "idle": 3}[category]


@dataclass(frozen=True)
class Location:
    """One cell of the circuit grid: a gate, prep, measurement or idle."""

    t: int
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind == CNOT:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("CNOT needs two distinct qubits")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")


@dataclass(frozen=True)
class EcCircuit:
    """A gridded syndrome-measurement circuit: ``rounds`` repetitions of
    prep / scheduled CNOTs / measurement, with idle fillers so that every
    qubit has exactly one location in every timestep.

    Ancillas exist for a maximal independent subset of each check type
    (the dependent generators are not measured). X-ancillas start in |+>
    and act as CNOT controls; Z-ancillas start in |0> and act as targets.
    """

    code: CssCode
    schedule: CnotSchedule
    rounds: int
    measured_x_rows: tuple[int, ...]
    measured_z_rows: tuple[int, ...]
    locations: tuple[Location, ...]

    # --- derived sizes ---

    @property
    def n_data(self) -> int:
        return self.code.n

    @property
    def n_ancilla(self) -> int:
        return len(self.measured_x_rows) + len(self.measured_z_rows)

    @property
    def n_qubits(self) -> int:
        return self.n_data + self.n_ancilla

    @property
    def data_mask(self) -> int:
        return (1 << self.n_data) - 1

    @property
    def timesteps_per_round(self) -> int:
        return self.schedule.steps + 2

    @property
    def total_timesteps(self) -> int:
        return self.rounds * self.timesteps_per_round

    def ancilla_check(self, qubit: int) -> tuple[str, int] | None:
        """(kind, row) of the check an ancilla qubit measures, or None for data."""
        if qubit < self.n_data:
            return None
        pos = qubit - self.n_data
        if pos < len(self.measured_x_rows):
            return ("X", self.measured_x_rows[pos])
        return ("Z", self.measured_z_rows[pos - len(self.measured_x_rows)])

    def owner_check(self, loc: Location) -> tuple[str, int] | None:
        """The check whose measurement a location belongs to (via its ancilla)."""
        for q in loc.qubits:
            owner = self.ancilla_check(q)
            if owner is not None:
                return owner
        return None

    def meas_round_and_pos(self, loc: Location) -> tuple[int, int]:
        """(round, bit position) of a measurement location's syndrome bit."""
        assert loc.kind in (MEAS_X, MEAS_Z)
        rnd = loc.t // self.timesteps_per_round
        pos = loc.qubits[0] - self.n_data
        if loc.kind == MEAS_Z:
            pos -= len(self.measured_x_rows)
        return rnd, pos

    def locations_of_category(self, category: str) -> tuple[int, ...]:
        return self._category_locations[category]

    @cached_property
    def _category_locations(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, list[int]] = {c: [] for c in CATEGORIES}
        for i, loc in enumerate(self.locations):
            out[CATEGORY_OF[loc.kind]].append(i)
        return {c: tuple(v) for c, v in out.items()}

    @property
    def first_round(self) -> "EcCircuit":
        """The one-round circuit this circuit repeats, its locations at the same
        indices (the circuit itself if it has one round). Memoized, so that
        what is cached on it is shared."""
        return self if self.rounds == 1 else self._first_round

    @cached_property
    def _first_round(self) -> "EcCircuit":
        per_round = len(self.locations) // self.rounds
        return replace(self, rounds=1, locations=self.locations[:per_round])

    def cnot_count(self) -> int:
        return sum(1 for loc in self.locations if loc.kind == CNOT)


def memoized_on_circuit(fn):
    """Keep ``fn(circuit, *args)`` in the circuit's ``__dict__``, one entry
    per ``args``, so that it is computed once per circuit and freed with it.
    What is kept must not refer back to the circuit: a cycle would keep both
    alive until the garbage collector runs."""
    name = f"_memo_{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(circuit: EcCircuit, *args):
        memo = circuit.__dict__.setdefault(name, {})
        if args not in memo:
            memo[args] = fn(circuit, *args)
        return memo[args]

    return memoized


def build_ec_circuit(code: CssCode, schedule: CnotSchedule, rounds: int) -> EcCircuit:
    """Assemble the gridded circuit for ``rounds`` syndrome-measurement rounds."""
    schedule.validate_against(code)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    mx_rows = tuple(independent_rows(code.hx))
    mz_rows = tuple(independent_rows(code.hz))
    n = code.n
    x_anc = {row: n + i for i, row in enumerate(mx_rows)}
    z_anc = {row: n + len(mx_rows) + i for i, row in enumerate(mz_rows)}
    n_qubits = n + len(mx_rows) + len(mz_rows)
    steps = schedule.steps
    span = steps + 2
    by_step = schedule.by_step()

    locations: list[Location] = []
    for rnd in range(rounds):
        base = rnd * span
        # Preparation step: all ancillas prepped, data idles.
        cells: list[Location] = [Location(base, IDLE, (q,)) for q in range(n)]
        cells += [Location(base, PREP_PLUS, (x_anc[r],)) for r in mx_rows]
        cells += [Location(base, PREP_ZERO, (z_anc[r],)) for r in mz_rows]
        locations += sorted(cells, key=lambda c: min(c.qubits))
        # CNOT steps.
        for step in range(1, steps + 1):
            t = base + step
            busy: set[int] = set()
            cells = []
            for kind, row, qubit in by_step[step]:
                anc_map = x_anc if kind == "X" else z_anc
                if row not in anc_map:
                    continue  # dependent generator: not measured
                anc = anc_map[row]
                pair = (anc, qubit) if kind == "X" else (qubit, anc)
                cells.append(Location(t, CNOT, pair))
                busy.update(pair)
            cells += [Location(t, IDLE, (q,)) for q in range(n_qubits) if q not in busy]
            locations += sorted(cells, key=lambda c: min(c.qubits))
        # Measurement step.
        t = base + steps + 1
        cells = [Location(t, IDLE, (q,)) for q in range(n)]
        cells += [Location(t, MEAS_X, (x_anc[r],)) for r in mx_rows]
        cells += [Location(t, MEAS_Z, (z_anc[r],)) for r in mz_rows]
        locations += sorted(cells, key=lambda c: min(c.qubits))

    circuit = EcCircuit(
        code=code,
        schedule=schedule,
        rounds=rounds,
        measured_x_rows=mx_rows,
        measured_z_rows=mz_rows,
        locations=tuple(locations),
    )
    _check_grid(circuit, n_qubits)
    return circuit


def _check_grid(circuit: EcCircuit, n_qubits: int) -> None:
    per_t: dict[int, set[int]] = {}
    for loc in circuit.locations:
        acted = per_t.setdefault(loc.t, set())
        for q in loc.qubits:
            if q in acted:
                raise ScheduleError(f"qubit {q} has two locations at timestep {loc.t}")
            acted.add(q)
    for t in range(circuit.total_timesteps):
        if per_t.get(t, set()) != set(range(n_qubits)):
            raise ScheduleError(f"timestep {t} does not cover every qubit")


def fault_stream(seed: int, *stream: int) -> np.random.Generator:
    """Independent, reproducible random stream for a (seed, stream-index) pair."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.Philox(ss))
