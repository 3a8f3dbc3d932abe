"""Pauli-frame propagation through EC circuits.

A frame tracks accumulated X and Z components as bitmasks over all data and
ancilla qubits. CNOTs copy X from control to target and Z from target to
control; preparations reset a qubit's frame; an X-basis (Z-basis)
measurement outcome is flipped by the ancilla's Z (X) component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    CNOT,
    IDLE,
    MEAS_X,
    MEAS_Z,
    PREP_PLUS,
    PREP_ZERO,
    EcCircuit,
    Location,
    cnot_fault_components,
    idle_fault_components,
)


@dataclass
class PauliFrame:
    """Accumulated error components; bit q of ``x``/``z`` is an X/Z on qubit q."""

    x: int = 0
    z: int = 0

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.x, self.z)


@dataclass(frozen=True)
class FaultSig:
    """Effect of a single fault propagated to the end of the circuit:
    residual data error components plus per-round syndrome-bit flips."""

    x_res: int
    z_res: int
    x_syn: tuple[int, ...]  # flips of the X-error syndromes (Z-check outcomes)
    z_syn: tuple[int, ...]  # flips of the Z-error syndromes (X-check outcomes)

    @property
    def is_trivial(self) -> bool:
        return not (self.x_res or self.z_res or any(self.x_syn) or any(self.z_syn))


@dataclass(frozen=True)
class PropagationResult:
    frame: PauliFrame
    x_syndromes: tuple[int, ...]  # per round, from MeasZ outcomes
    z_syndromes: tuple[int, ...]  # per round, from MeasX outcomes


def _timestep_slices(circuit: EcCircuit) -> list[tuple[int, int]]:
    cache = circuit.__dict__.get("_slices_cache")
    if cache is None:
        cache = []
        start = 0
        locs = circuit.locations
        for i in range(1, len(locs) + 1):
            if i == len(locs) or locs[i].t != locs[start].t:
                cache.append((start, i))
                start = i
        object.__setattr__(circuit, "_slices_cache", cache)
    return cache


def _active_ops(circuit: EcCircuit):
    """Non-idle operations as flat tuples, plus the first-op index per timestep.

    Op tuples: (t, 'c', control, target), (t, 'p', qubit, 0),
    (t, 'mx'|'mz', qubit, (round, pos)).
    """
    cache = circuit.__dict__.get("_active_cache")
    if cache is None:
        ops = []
        for loc in circuit.locations:
            if loc.kind == CNOT:
                ops.append((loc.t, "c", loc.qubits[0], loc.qubits[1]))
            elif loc.kind in (PREP_PLUS, PREP_ZERO):
                ops.append((loc.t, "p", loc.qubits[0], 0))
            elif loc.kind == MEAS_X:
                ops.append((loc.t, "mx", loc.qubits[0], circuit.meas_round_and_pos(loc)))
            elif loc.kind == MEAS_Z:
                ops.append((loc.t, "mz", loc.qubits[0], circuit.meas_round_and_pos(loc)))
        # first_after[t] = index of the first op strictly after timestep t
        total = circuit.total_timesteps
        first_after = [len(ops)] * (total + 1)
        idx = len(ops)
        for t in range(total - 1, -1, -1):
            while idx > 0 and ops[idx - 1][0] > t:
                idx -= 1
            first_after[t] = idx
        cache = (ops, first_after)
        object.__setattr__(circuit, "_active_cache", cache)
    return cache


def fault_injection(loc: Location, value: int) -> tuple[int, int]:
    """(x_mask, z_mask) a fault injects right after its location."""
    if loc.kind == CNOT:
        (xc, zc), (xt, zt) = cnot_fault_components(value)
        c, t = loc.qubits
        return (xc << c) | (xt << t), (zc << c) | (zt << t)
    if loc.kind == PREP_PLUS:
        return 0, 1 << loc.qubits[0]
    if loc.kind == PREP_ZERO:
        return 1 << loc.qubits[0], 0
    if loc.kind == IDLE:
        x, z = idle_fault_components(value)
        q = loc.qubits[0]
        return x << q, z << q
    raise ValueError(f"{loc.kind} faults act on the outcome, not the frame")


def propagate(
    circuit: EcCircuit,
    faults: list[tuple[int, int]] | dict[int, int] | None = None,
    frame: PauliFrame | None = None,
) -> PropagationResult:
    """Run the full circuit over a Pauli frame, injecting faults after their
    locations, and collect the per-round syndromes of both types."""
    fault_map = dict(faults) if faults else {}
    if frame is None:
        frame = PauliFrame()
    else:
        frame = frame.copy()
    x, z = frame.x, frame.z
    rounds = circuit.rounds
    x_syn = [0] * rounds
    z_syn = [0] * rounds
    locs = circuit.locations
    for start, end in _timestep_slices(circuit):
        # Gates first.
        for i in range(start, end):
            loc = locs[i]
            kind = loc.kind
            if kind == CNOT:
                c, t = loc.qubits
                if (x >> c) & 1:
                    x ^= 1 << t
                if (z >> t) & 1:
                    z ^= 1 << c
            elif kind == IDLE:
                pass
            elif kind in (PREP_PLUS, PREP_ZERO):
                q = loc.qubits[0]
                mask = ~(1 << q)
                x &= mask
                z &= mask
            elif kind == MEAS_X:
                rnd, pos = circuit.meas_round_and_pos(loc)
                bit = (z >> loc.qubits[0]) & 1
                if i in fault_map:
                    bit ^= 1
                z_syn[rnd] ^= bit << pos
            elif kind == MEAS_Z:
                rnd, pos = circuit.meas_round_and_pos(loc)
                bit = (x >> loc.qubits[0]) & 1
                if i in fault_map:
                    bit ^= 1
                x_syn[rnd] ^= bit << pos
        # Then this timestep's faults.
        for i in range(start, end):
            if i in fault_map and locs[i].kind not in (MEAS_X, MEAS_Z):
                fx, fz = fault_injection(locs[i], fault_map[i])
                x ^= fx
                z ^= fz
    return PropagationResult(PauliFrame(x, z), tuple(x_syn), tuple(z_syn))


def signature_of(circuit: EcCircuit, loc_index: int, value: int) -> FaultSig:
    """Propagate a single fault from its location to the end of the circuit."""
    loc = circuit.locations[loc_index]
    rounds = circuit.rounds
    x_syn = [0] * rounds
    z_syn = [0] * rounds
    if loc.kind in (MEAS_X, MEAS_Z):
        rnd, pos = circuit.meas_round_and_pos(loc)
        if loc.kind == MEAS_X:
            z_syn[rnd] ^= 1 << pos
        else:
            x_syn[rnd] ^= 1 << pos
        return FaultSig(0, 0, tuple(x_syn), tuple(z_syn))
    x, z = fault_injection(loc, value)
    ops, first_after = _active_ops(circuit)
    for op in ops[first_after[loc.t] :]:
        kind = op[1]
        if kind == "c":
            c, t = op[2], op[3]
            if (x >> c) & 1:
                x ^= 1 << t
            if (z >> t) & 1:
                z ^= 1 << c
        elif kind == "p":
            mask = ~(1 << op[2])
            x &= mask
            z &= mask
        elif kind == "mx":
            rnd, pos = op[3]
            z_syn[rnd] ^= ((z >> op[2]) & 1) << pos
        else:  # mz
            rnd, pos = op[3]
            x_syn[rnd] ^= ((x >> op[2]) & 1) << pos
    data = circuit.data_mask
    return FaultSig(x & data, z & data, tuple(x_syn), tuple(z_syn))


@dataclass(frozen=True)
class SignatureSet:
    """Signatures of every (location, fault value) pair of a circuit, grouped
    by noise category for fast sampling-driven lookup."""

    circuit: EcCircuit
    by_category: dict[str, tuple[tuple[int, ...], tuple[tuple[FaultSig, ...], ...]]]
    position: dict[int, tuple[str, int]]  # location index -> (category, row)

    def signature(self, loc_index: int, value: int) -> FaultSig:
        cat, row = self.position[loc_index]
        return self.by_category[cat][1][row][value]

    def iter_all(self):
        for cat, (locs, sigs) in self.by_category.items():
            for i, loc_index in enumerate(locs):
                for value, sig in enumerate(sigs[i]):
                    yield loc_index, value, sig


def compute_signatures(circuit: EcCircuit) -> SignatureSet:
    from .circuits import category_value_count

    by_category = {}
    for cat in ("cnot", "prep", "meas", "idle"):
        locs = circuit.locations_of_category(cat)
        n_values = category_value_count(cat)
        sigs = tuple(
            tuple(signature_of(circuit, li, v) for v in range(n_values)) for li in locs
        )
        by_category[cat] = (locs, sigs)
    position = {
        li: (cat, row) for cat, (locs, _s) in by_category.items() for row, li in enumerate(locs)
    }
    return SignatureSet(circuit, by_category, position)
