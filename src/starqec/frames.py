"""Pauli-frame propagation through EC circuits.

A frame tracks accumulated X and Z components as bitmasks over all data and
ancilla qubits. CNOTs copy X from control to target and Z from target to
control; preparations reset a qubit's frame; an X-basis (Z-basis)
measurement outcome is flipped by the ancilla's Z (X) component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .circuits import (
    CATEGORIES,
    CNOT,
    IDLE,
    MEAS_X,
    MEAS_Z,
    PREP_PLUS,
    PREP_ZERO,
    EcCircuit,
    Location,
    category_value_count,
    cnot_fault_components,
    idle_fault_components,
    memoized_on_circuit,
)
from .gf2 import syndrome_bits


def detector_rows(circuit: EcCircuit, kind: str) -> tuple[int, ...]:
    """Check-row masks whose measurements in ``circuit`` detect ``kind``-type errors."""
    if kind == "X":
        return tuple(circuit.code.hz.rows[j] for j in circuit.measured_z_rows)
    return tuple(circuit.code.hx.rows[j] for j in circuit.measured_x_rows)


@dataclass
class PauliFrame:
    """Accumulated error components; bit q of ``x``/``z`` is an X/Z on qubit q."""

    x: int = 0
    z: int = 0


@dataclass(frozen=True, slots=True)  # slots: a Simulator keeps about 11k of these
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


@memoized_on_circuit
def _active_ops(circuit: EcCircuit):
    """Non-idle operations as flat tuples, plus the first-op index per timestep.

    Op tuples: (t, 'c', control, target), (t, 'p', qubit, 0),
    (t, 'mx'|'mz', qubit, (round, pos)).
    """
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
    return ops, first_after


def _walk(ops, x: int, z: int, x_syn: list[int], z_syn: list[int]) -> tuple[int, int]:
    """Run the frame (x, z) through ``_active_ops`` tuples, XORing measurement
    flips into the per-round syndromes; returns the frame after the last op."""
    for _t, kind, a, b in ops:
        if kind == "c":
            if (x >> a) & 1:
                x ^= 1 << b
            if (z >> b) & 1:
                z ^= 1 << a
        elif kind == "p":
            mask = ~(1 << a)
            x &= mask
            z &= mask
        elif kind == "mx":
            z_syn[b[0]] ^= ((z >> a) & 1) << b[1]
        else:  # mz
            x_syn[b[0]] ^= ((x >> a) & 1) << b[1]
    return x, z


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


def _inject(circuit: EcCircuit, loc: Location, value: int, x_syn, z_syn) -> tuple[int, int]:
    """``fault_injection``, except that a measurement fault flips its outcome
    in the syndromes and injects nothing."""
    if loc.kind not in (MEAS_X, MEAS_Z):
        return fault_injection(loc, value)
    rnd, pos = circuit.meas_round_and_pos(loc)
    (z_syn if loc.kind == MEAS_X else x_syn)[rnd] ^= 1 << pos
    return 0, 0


def propagate(
    circuit: EcCircuit,
    faults: list[tuple[int, int]] | dict[int, int] | None = None,
    frame: PauliFrame | None = None,
) -> PropagationResult:
    """Run the full circuit over a Pauli frame from its first timestep,
    injecting each fault after its timestep's gates, and collect the
    per-round syndromes of both types."""
    ops, first_after = _active_ops(circuit)
    x, z = (frame.x, frame.z) if frame is not None else (0, 0)
    x_syn = [0] * circuit.rounds
    z_syn = [0] * circuit.rounds
    done = 0
    for loc_index, value in sorted(dict(faults or {}).items()):
        loc = circuit.locations[loc_index]
        x, z = _walk(ops[done : first_after[loc.t]], x, z, x_syn, z_syn)
        done = first_after[loc.t]
        fx, fz = _inject(circuit, loc, value, x_syn, z_syn)
        x ^= fx
        z ^= fz
    x, z = _walk(ops[done:], x, z, x_syn, z_syn)
    return PropagationResult(PauliFrame(x, z), tuple(x_syn), tuple(z_syn))


def signature_of(circuit: EcCircuit, loc_index: int, value: int) -> FaultSig:
    """Propagate a single fault from its location to the end of the circuit."""
    loc = circuit.locations[loc_index]
    ops, first_after = _active_ops(circuit)
    x_syn = [0] * circuit.rounds
    z_syn = [0] * circuit.rounds
    x, z = _inject(circuit, loc, value, x_syn, z_syn)
    x, z = _walk(ops[first_after[loc.t] :], x, z, x_syn, z_syn)
    data = circuit.data_mask
    return FaultSig(x & data, z & data, tuple(x_syn), tuple(z_syn))


@dataclass(frozen=True)
class SignatureSet:
    """Signatures of every (location, fault value) pair of a circuit, grouped
    by noise category for fast sampling-driven lookup."""

    by_category: dict[str, tuple[tuple[int, ...], tuple[tuple[FaultSig, ...], ...]]]
    position: dict[int, tuple[str, int]]  # location index -> (category, row)

    def of_location(self, loc_index: int) -> tuple[FaultSig, ...]:
        """The signatures of a location's fault values, in value order."""
        cat, row = self.position[loc_index]
        return self.by_category[cat][1][row]

    def signature(self, loc_index: int, value: int) -> FaultSig:
        return self.of_location(loc_index)[value]

    def iter_all(self):
        for cat, (locs, sigs) in self.by_category.items():
            for i, loc_index in enumerate(locs):
                for value, sig in enumerate(sigs[i]):
                    yield loc_index, value, sig


@memoized_on_circuit
def compute_signatures(circuit: EcCircuit) -> SignatureSet:
    """Signatures of every (location, value) atom of ``circuit``, memoized on
    the circuit. Only ``circuit.first_round`` is walked, each of its atoms
    once. An atom of a later round r is its first-round twin with the twin's
    syndrome in slot r and its data residual's ideal syndrome in every later
    slot: ancillas are re-prepared every round, and CSS extraction does not
    spread data errors."""
    first = circuit.first_round
    if first is circuit:
        atom = partial(signature_of, circuit)
    else:
        one, per_round, rounds = compute_signatures(first), len(first.locations), circuit.rounds
        det_x, det_z = (detector_rows(circuit, kind) for kind in "XZ")
        sigs = [sig for _loc, _value, sig in one.iter_all()]
        # ideal syndromes, once per distinct residual
        ideal_x = {res: syndrome_bits(det_x, res) for res in {sig.x_res for sig in sigs}}
        ideal_z = {res: syndrome_bits(det_z, res) for res in {sig.z_res for sig in sigs}}

        def atom(loc_index: int, value: int) -> FaultSig:
            r, base = divmod(loc_index, per_round)
            sig, pad, later = one.signature(base, value), (0,) * r, rounds - r - 1
            return FaultSig(
                sig.x_res, sig.z_res,
                pad + sig.x_syn + (ideal_x[sig.x_res],) * later,
                pad + sig.z_syn + (ideal_z[sig.z_res],) * later,
            )

    by_category = {}
    for cat in CATEGORIES:
        locs = circuit.locations_of_category(cat)
        values = range(category_value_count(cat))
        by_category[cat] = (locs, tuple(tuple(atom(li, v) for v in values) for li in locs))
    position = {
        li: (cat, row) for cat, (locs, _s) in by_category.items() for row, li in enumerate(locs)
    }
    return SignatureSet(by_category, position)
