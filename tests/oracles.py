"""Naive unpacked reference implementations used as independent oracles."""

from dataclasses import dataclass

import numpy as np

from starqec.circuits import (
    CATEGORIES,
    CATEGORY_OF,
    CNOT,
    MEAS_X,
    MEAS_Z,
    PREP_PLUS,
    PREP_ZERO,
    EcCircuit,
    NoiseModel,
    category_value_count,
    fault_stream,
)
from starqec.codes import CssCode
from starqec.complexes import ICOSAHEDRON_NEIGHBORS, CellComplex2D
from starqec.decoder import EcDecision, LookupTable, ec_decision
from starqec.engine import Condition1Report, ExRecSweepReport, TrialResult
from starqec.exact import malignant_cross, malignant_same_unit
from starqec.faulttol import enumerate_single_fault_errors, syndrome_bits
from starqec.frames import FaultSig, fault_injection, signature_of
from starqec.gf2 import BitMatrix, BitVector, RowSpace
from starqec.kernel import _grid_blocks
from starqec.scheduling import CnotSchedule, Coloring


def naive_rank(dense: np.ndarray) -> int:
    a = (np.array(dense, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


def naive_kernel(dense: np.ndarray) -> list[np.ndarray]:
    a = (np.array(dense, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        for i, pc in enumerate(pivots):
            if a[i, free]:
                v[pc] = 1
        basis.append(v)
    return basis


# --- readers and builders the library does not need ---


def from_rows(rows, cols: int | None = None) -> BitMatrix:
    """A matrix from rows of 0/1 entries; ``cols`` is needed only when there are no rows."""
    packed = []
    width = cols
    for row in rows:
        vals = list(row)
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ValueError("ragged rows")
        packed.append(sum((v & 1) << i for i, v in enumerate(vals)))
    if width is None:
        raise ValueError("cols required for an empty matrix")
    return BitMatrix(tuple(packed), width)


def identity(n: int) -> BitMatrix:
    return BitMatrix(tuple(1 << i for i in range(n)), n)


def to_dense(m: BitMatrix) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.rows]


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : M v = 0}, in canonical (pivot-ordered) form.

    Basis vectors are indexed by the free columns of the reduced row
    echelon form, in increasing column order, so the output is
    deterministic for a given matrix.
    """
    pivots = RowSpace.of_matrix(m)._pivots
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        bits = 1 << free
        for col, row in pivots.items():
            if (row >> free) & 1:
                bits |= 1 << col
        basis.append(BitVector(m.cols, bits))
    return basis


def gray_kernel_by_weight(checks: BitMatrix, weight_cap: int) -> list[int]:
    """Nonzero elements of the kernel of ``checks`` with weight <= weight_cap,
    sorted by (weight, value): all 2^dim elements walked by Gray code over a
    kernel basis, then sorted."""
    basis = [v.bits for v in kernel_basis(checks)]
    out = []
    value = 0
    for g in range(1, 1 << len(basis)):
        value ^= basis[(g & -g).bit_length() - 1]
        if value.bit_count() <= weight_cap:
            out.append(value)
    return sorted(out, key=lambda v: (v.bit_count(), v))


def format_circuit(circuit: EcCircuit) -> str:
    """Debug/diff dump: one line per location, canonical order."""
    lines = []
    for loc in circuit.locations:
        lines.append(f"{loc.t} {loc.kind} " + " ".join(str(q) for q in loc.qubits))
    return "\n".join(lines) + "\n"


def format_complex(c: CellComplex2D) -> str:
    lines = []
    if c.name:
        lines.append(f"# {c.name}")
    lines.append(f"vertices {c.vertex_count}")
    for u, v in c.edges:
        lines.append(f"edge {u} {v}")
    for face in c.faces:
        lines.append("face " + " ".join(str(e) for e in face))
    return "\n".join(lines) + "\n"


def check_order(schedule: CnotSchedule, kind: str, row: int) -> list[tuple[int, int]]:
    """(step, qubit) pairs of one check, in time order."""
    return sorted((s, q) for s, k, r, q in schedule.cnots if k == kind and r == row)


def is_valid_coloring(coloring: Coloring) -> bool:
    """No two adjacent vertices of the coloring's graph share a color."""
    colors = coloring.colors
    return all(
        colors[u] != colors[v] for v, nbrs in enumerate(coloring.graph.adjacency) for u in nbrs
    )


def single_fault_atoms(circuit: EcCircuit, kind: str) -> list[tuple[int, int, int]]:
    """(location index, value, residual) of every single fault of the
    one-round circuit, location by location and value by value. Each fault is
    propagated on its own (``frames.signature_of``); its ``kind``-type data
    residual is reduced modulo the check whose measurement hosted the fault."""
    checks = circuit.code.checks(kind)
    atoms = []
    for loc_index, loc in enumerate(circuit.locations):
        owner = circuit.owner_check(loc)
        reducer = checks.rows[owner[1]] if owner is not None and owner[0] == kind else 0
        for value in range(category_value_count(CATEGORY_OF[loc.kind])):
            sig = signature_of(circuit, loc_index, value)
            residual = sig.x_res if kind == "X" else sig.z_res
            if (residual ^ reducer).bit_count() < residual.bit_count():
                residual ^= reducer
            atoms.append((loc_index, value, residual))
    return atoms


def icosahedron_triangles() -> list[tuple[int, int, int]]:
    """All 20 triangles of the icosahedron, as sorted vertex triples."""
    tris = set()
    for u, nbrs in ICOSAHEDRON_NEIGHBORS.items():
        for v in nbrs:
            for w in nbrs:
                if v < w and w in ICOSAHEDRON_NEIGHBORS[v]:
                    tris.add(tuple(sorted((u, v, w))))
    return sorted(tris)


def ssd_triangle_logicals(code: CssCode, around_vertex: int | None = None) -> list[BitVector]:
    """Triangular logical Z operators of the SSD code.

    Every icosahedron triangle is a logical Z; with ``around_vertex`` set,
    only the five triangles containing that vertex are returned (their
    product equals that vertex's Z-check).
    """
    c = code.complex
    tris = [t for t in icosahedron_triangles() if around_vertex in (None, *t)]
    return [BitVector.from_support(code.n, [c.edge_index(a, b), c.edge_index(a, d),
                                            c.edge_index(b, d)]) for a, b, d in tris]


def unpack(kernel, lanes: np.ndarray) -> list[tuple[int, int]]:
    """(x, z) data residuals of the given kernel lanes, whose syndrome bits
    must be zero: each type's words read as one integer."""
    return [tuple(int.from_bytes(row[words].tobytes(), "little") for words in kernel.type_words)
            for row in lanes.astype("<u8")]


# --- full-circuit Pauli-frame propagation ---


@dataclass
class PauliFrame:
    """Accumulated error components; bit q of ``x``/``z`` is an X/Z on qubit q."""

    x: int = 0
    z: int = 0


@dataclass(frozen=True)
class PropagationResult:
    frame: PauliFrame
    x_syndromes: tuple[int, ...]  # per round, from MeasZ outcomes
    z_syndromes: tuple[int, ...]  # per round, from MeasX outcomes


def propagate(
    circuit: EcCircuit,
    faults: list[tuple[int, int]] | dict[int, int] | None = None,
    frame: PauliFrame | None = None,
) -> PropagationResult:
    """Run the full circuit over a Pauli frame, one timestep at a time: every
    gate of ``circuit.locations`` at that step, then the faults at its
    locations; collect the per-round syndromes of both types. Its own loop,
    not ``frames._walk``, so that a walker bug shared by the signatures
    cannot hide."""
    faults = dict(faults or {})
    x, z = (frame.x, frame.z) if frame is not None else (0, 0)
    syn = {MEAS_Z: [0] * circuit.rounds, MEAS_X: [0] * circuit.rounds}
    steps: dict[int, list[int]] = {}
    for i, loc in enumerate(circuit.locations):
        steps.setdefault(loc.t, []).append(i)
    for t in sorted(steps):
        for loc in (circuit.locations[i] for i in steps[t]):
            q = loc.qubits[0]
            if loc.kind == CNOT:
                target = loc.qubits[1]
                x ^= ((x >> q) & 1) << target
                z ^= ((z >> target) & 1) << q
            elif loc.kind in (PREP_PLUS, PREP_ZERO):
                x &= ~(1 << q)
                z &= ~(1 << q)
            elif loc.kind in syn:
                rnd, pos = circuit.meas_round_and_pos(loc)
                syn[loc.kind][rnd] ^= (((z if loc.kind == MEAS_X else x) >> q) & 1) << pos
        for i in (i for i in steps[t] if i in faults):
            loc = circuit.locations[i]
            if loc.kind in syn:  # a measurement fault flips its outcome
                rnd, pos = circuit.meas_round_and_pos(loc)
                syn[loc.kind][rnd] ^= 1 << pos
            else:
                fx, fz = fault_injection(loc, faults[i])
                x, z = x ^ fx, z ^ fz
    return PropagationResult(PauliFrame(x, z), tuple(syn[MEAS_Z]), tuple(syn[MEAS_X]))


# --- scalar EC unit, ideal decoder, trials and fault sampler ---


@dataclass(frozen=True)
class EcUnitOutcome:
    frame: PauliFrame  # residual over data qubits, corrections applied
    decision_x: EcDecision
    decision_z: EcDecision
    correction_x: int
    correction_z: int
    x_syndromes: tuple[int, ...]
    z_syndromes: tuple[int, ...]


def run_ec_unit(
    circuit: EcCircuit,
    tables: dict[str, LookupTable],
    faults: list[tuple[int, int]] | None,
    incoming: PauliFrame | None = None,
) -> EcUnitOutcome:
    """Reference EC unit: full-circuit propagation, then the decision rule per
    error type, with corrections applied as Pauli-frame updates."""
    if circuit.rounds != 3:
        raise ValueError("an EC unit is a 3-round circuit")
    prop = propagate(circuit, faults, incoming)
    dx = ec_decision(*prop.x_syndromes)
    dz = ec_decision(*prop.z_syndromes)
    cx = tables["X"].correction(dx.syndrome)
    cz = tables["Z"].correction(dz.syndrome)
    data = circuit.data_mask
    return EcUnitOutcome(
        frame=PauliFrame((prop.frame.x & data) ^ cx, (prop.frame.z & data) ^ cz),
        decision_x=dx,
        decision_z=dz,
        correction_x=cx,
        correction_z=cz,
        x_syndromes=prop.x_syndromes,
        z_syndromes=prop.z_syndromes,
    )


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of ideal decoding: the corrected residual and afflicted logicals."""

    failed: bool
    afflicted: tuple[int, ...]
    corrected: int


def ideal_decode(code: CssCode, table: LookupTable, residual: int) -> DecodeOutcome:
    """Noiselessly measure, correct from the table, and report which logical
    qubits the corrected residual still acts on."""
    corrected = residual ^ table.correction(table.syndrome_of(residual))
    paired = code.logical_x if table.kind == "Z" else code.logical_z
    afflicted = tuple(
        i for i, op in enumerate(paired) if (corrected & op.bits).bit_count() & 1
    )
    return DecodeOutcome(failed=bool(afflicted), afflicted=afflicted, corrected=corrected)


def sample_faults(
    circuit: EcCircuit, noise: NoiseModel, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Draw one fault assignment: a sorted list of (location index, value).

    Each location fails independently with its category's probability; a
    failing CNOT draws one of 15 two-qubit Paulis, a failing idle one of
    X/Y/Z, and prep/measurement failures have a single outcome.
    """
    out: list[tuple[int, int]] = []
    for category in CATEGORIES:
        locs = circuit.locations_of_category(category)
        if not locs:
            continue
        q = noise.category_prob(category)
        hits = np.flatnonzero(rng.random(len(locs)) < q)
        n_values = category_value_count(category)
        values = rng.integers(0, n_values, size=len(hits)) if n_values > 1 else None
        for j, h in enumerate(hits):
            out.append((locs[h], int(values[j]) if values is not None else 0))
    out.sort()
    return out


def faults_to_sigs(sim, faults: list[tuple[int, int]]) -> list[FaultSig]:
    return [sim.signatures.signature(loc, val) for loc, val in faults]


def scalar_unit(sim, sigs, xin: int, zin: int) -> tuple[int, int]:
    """Outcome of one EC unit given fault signatures and an incoming error."""
    tx, tz = sim.tables["X"], sim.tables["Z"]
    sxi = syndrome_bits(tx.detect_rows, xin) if xin else 0
    szi = syndrome_bits(tz.detect_rows, zin) if zin else 0
    sx0 = sx1 = sx2 = sxi
    sz0 = sz1 = sz2 = szi
    xr, zr = xin, zin
    for sig in sigs:
        xr ^= sig.x_res
        zr ^= sig.z_res
        xs = sig.x_syn
        zs = sig.z_syn
        sx0 ^= xs[0]
        sx1 ^= xs[1]
        sx2 ^= xs[2]
        sz0 ^= zs[0]
        sz1 ^= zs[1]
        sz2 ^= zs[2]
    dx = ec_decision(sx0, sx1, sx2)
    dz = ec_decision(sz0, sz1, sz2)
    return xr ^ tx.corrections[dx.syndrome], zr ^ tz.corrections[dz.syndrome]


def scalar_decode(sim, x: int, z: int, rounds: int | None = None) -> TrialResult:
    """Ideal decode of a residual pair; reports afflicted logical qubits."""
    tx, tz = sim.tables["X"], sim.tables["Z"]
    cx = x ^ tx.corrections[syndrome_bits(tx.detect_rows, x)] if x else 0
    cz = z ^ tz.corrections[syndrome_bits(tz.detect_rows, z)] if z else 0
    ax = tuple(i for i, op in enumerate(sim.code.logical_z) if (cx & op.bits).bit_count() & 1)
    az = tuple(i for i, op in enumerate(sim.code.logical_x) if (cz & op.bits).bit_count() & 1)
    return TrialResult(bool(ax or az), ax, az, rounds)


def union_afflicted(res: TrialResult) -> tuple[int, ...]:
    """The logical qubits a trial leaves with an X-type or a Z-type fault."""
    return tuple(sorted(set(res.afflicted_x) | set(res.afflicted_z)))


def per_lane_sample(kernel, rng: np.random.Generator, noise: NoiseModel, lanes: int):
    """``EcKernel.sample``'s faults drawn lane by lane, on another stream: per
    category, a binomial count per lane, that many distinct locations (a
    draw repeating one in its lane is redrawn), then uniform fault values."""
    out = []
    for cat, (_rows, (n_loc, n_val), _w) in zip(CATEGORIES, kernel.atom_tables):
        counts = rng.binomial(n_loc, noise.category_prob(cat), size=lanes)
        lane = np.repeat(np.arange(lanes), counts)
        loc = rng.integers(0, n_loc, size=lane.size) if lane.size else lane
        multi = np.flatnonzero(counts[lane] > 1)
        while multi.size:
            key = lane[multi] * n_loc + loc[multi]
            order = np.argsort(key, kind="stable")
            repeat = order[1:][np.diff(key[order]) == 0]
            if not repeat.size:
                break
            loc[multi[repeat]] = rng.integers(0, n_loc, size=repeat.size)
        if n_val > 1:
            loc = loc * n_val + rng.integers(0, n_val, size=lane.size)
        out.append((lane, loc))
    return out


def all_lanes_batch(sim, noise, units, seed, point_idx, batch_idx, n_trials, sample=None) -> int:
    """``Simulator._exrec_batch`` with every lane run through every unit,
    each unit's faults drawn just before it runs, by ``sample(kernel, rng,
    noise, lanes)`` (by default ``EcKernel.sample``)."""
    kernel, rng = sim.kernel, fault_stream(seed, point_idx, units, batch_idx)
    sample = sample or type(kernel).sample
    res = kernel.zeros(n_trials)
    for _ in range(units):
        res = kernel.unit(res, sample(kernel, rng, noise, n_trials))
    return int(kernel.fails(res).sum())


def run_exrec_trial(sim, noise: NoiseModel, seed: int) -> TrialResult:
    """One exRec: two consecutive EC units with independently sampled
    faults, then ideal decoding of the final residual."""
    rng = fault_stream(seed)
    sigs1 = faults_to_sigs(sim, sample_faults(sim.circuit, noise, rng))
    sigs2 = faults_to_sigs(sim, sample_faults(sim.circuit, noise, rng))
    x1, z1 = scalar_unit(sim, sigs1, 0, 0)
    x2, z2 = scalar_unit(sim, sigs2, x1, z1)
    return scalar_decode(sim, x2, z2)


def run_lifetime(sim, noise: NoiseModel, seed: int, max_rounds: int) -> TrialResult:
    """One memory trajectory: EC units repeat, residuals carry over, and a
    non-destructive ideal-decode probe detects the first logical fault.
    Survival is censored at max_rounds."""
    if max_rounds < 3:
        raise ValueError("max_rounds must be >= 3")
    rng = fault_stream(seed)
    xf = zf = 0
    units = max_rounds // 3
    for u in range(units):
        sigs = faults_to_sigs(sim, sample_faults(sim.circuit, noise, rng))
        xf, zf = scalar_unit(sim, sigs, xf, zf)
        if xf or zf:
            probe = scalar_decode(sim, xf, zf)
            if probe.failed:
                return TrialResult(True, probe.afflicted_x, probe.afflicted_z, 3 * (u + 1))
    return TrialResult(False, (), (), 3 * units)


# --- case-at-a-time sweeps and pair rules through scalar_unit ---


def _distinct_fault_sigs(sim):
    seen = {}
    for _loc, _val, sig in sim.signatures.iter_all():
        key = (sig.x_res, sig.z_res, sig.x_syn, sig.z_syn)
        if key not in seen and not sig.is_trivial:
            seen[key] = sig
    return list(seen.values())


def scalar_condition1(sim):
    """``Simulator.verify_condition1`` one case at a time."""
    violations = []
    n = sim.code.n
    input_cases = 0
    for q in range(n):
        for kind in ("X", "Z"):
            xin = (1 << q) if kind == "X" else 0
            zin = (1 << q) if kind == "Z" else 0
            input_cases += 1
            # TrialResults compare by afflicted logicals (rounds are None)
            before = scalar_decode(sim, xin, zin)
            if before != scalar_decode(sim, *scalar_unit(sim, (), xin, zin)):
                violations.append(f"input {kind} error on qubit {q} changes logical state")
    distinct = _distinct_fault_sigs(sim)
    fault_cases = 0
    for sig in distinct:
        xo, zo = scalar_unit(sim, (sig,), 0, 0)
        fault_cases += 1
        res = scalar_decode(sim, xo, zo)
        if res.failed:
            violations.append(
                f"single fault with residual (x={sig.x_res:#x}, z={sig.z_res:#x}) "
                f"causes logical fault {union_afflicted(res)}"
            )
    full_hx = sim.code.hx.rows
    full_hz = sim.code.hz.rows
    inputs = set()
    for kind in ("X", "Z"):
        for r in enumerate_single_fault_errors(sim.unit_circuit, kind):
            if r and r.bit_count() <= 2:
                inputs.add((r, 0) if kind == "X" else (0, r))
    correctability_cases = 0
    tx, tz = sim.tables["X"], sim.tables["Z"]
    for xin, zin in sorted(inputs):
        for sig in distinct:
            xo, zo = scalar_unit(sim, (sig,), xin, zin)
            correctability_cases += 1
            cx = xo ^ tx.corrections[syndrome_bits(tx.detect_rows, xo)]
            cz = zo ^ tz.corrections[syndrome_bits(tz.detect_rows, zo)]
            if syndrome_bits(full_hz, cx) or syndrome_bits(full_hx, cz):
                violations.append(
                    f"output for input (x={xin:#x}, z={zin:#x}) not returned to codespace"
                )
    return Condition1Report(input_cases, fault_cases, correctability_cases, violations)


def scalar_exrec_sweep(sim):
    """``Simulator.verify_exrec_single_faults`` one case at a time."""
    violations = []
    cases = 0
    for sig in _distinct_fault_sigs(sim):
        for unit_index in (0, 1):
            if unit_index == 0:
                x1, z1 = scalar_unit(sim, (sig,), 0, 0)
                x2, z2 = scalar_unit(sim, (), x1, z1)
            else:
                x2, z2 = scalar_unit(sim, (sig,), 0, 0)
            cases += 1
            res = scalar_decode(sim, x2, z2)
            if res.failed:
                violations.append(
                    f"single fault in unit {unit_index + 1} fails: {union_afflicted(res)}"
                )
    return ExRecSweepReport(cases, violations)


def _both_in_unit1(sim, a, b):
    return scalar_decode(sim, *scalar_unit(sim, (), *scalar_unit(sim, (a, b), 0, 0))).failed


def _both_in_unit2(sim, a, b):
    return scalar_decode(sim, *scalar_unit(sim, (a, b), 0, 0)).failed


def _one_in_each(sim, a, b):
    return scalar_decode(sim, *scalar_unit(sim, (b,), *scalar_unit(sim, (a,), 0, 0))).failed


def scalar_malignant(sim, a, b):
    """The exact-c pair rules for signatures a and b: does the exRec fail
    with both in unit 1, with both in unit 2, and with a in unit 1 and b in
    unit 2?"""
    return _both_in_unit1(sim, a, b), _both_in_unit2(sim, a, b), _one_in_each(sim, a, b)


def scalar_exact_c(sim):
    """``exact_quadratic_coefficient`` one signature pair at a time."""
    cats = ("cnot", "prep", "meas", "idle")
    per_val = {cat: NoiseModel(1.0).category_prob(cat) / category_value_count(cat) for cat in cats}
    groups, sig_list, w_list = {}, [], []
    for cat in cats:
        for sigs in sim.signatures.by_category[cat][1]:
            for sig in sigs:
                idx = groups.setdefault(sig, len(sig_list))
                if idx == len(sig_list):
                    sig_list.append(sig)
                    w_list.append(per_val[cat])
                else:
                    w_list[idx] += per_val[cat]

    n = len(sig_list)
    total = 0.0
    for mal in (_both_in_unit1, _both_in_unit2):
        s_all = 0.0
        for i in range(n):
            for j in range(i, n):
                if mal(sim, sig_list[i], sig_list[j]):
                    w = w_list[i] * w_list[j]
                    s_all += w if i == j else 2 * w
        # impossible pairs: two atoms at the same location
        s_same = 0.0
        for cat in cats:
            w = per_val[cat] * per_val[cat]
            for sigs in sim.signatures.by_category[cat][1]:
                for a_i, a in enumerate(sigs):
                    for b in sigs[a_i:]:
                        if mal(sim, a, b):
                            s_same += w if b is a else 2 * w
        total += 0.5 * (s_all - s_same)
    for i in range(n):
        for j in range(n):
            if _one_in_each(sim, sig_list[i], sig_list[j]):
                total += w_list[i] * w_list[j]
    return total


def _upper_blocks(n: int, lanes: int = 1 << 12):
    """Row and column indices of the cells on or above the diagonal of an
    n x n grid, a block of whole rows of about ``lanes`` cells at a time."""
    top = 0
    while top < n:
        stop = min(n, top + max(1, lanes // (n - top)))
        i, j = np.triu_indices(stop - top, k=top, m=n)
        yield i + top, j
        top = stop


def lane_exact_c(sim):
    """``exact_quadratic_coefficient`` with each pair of distinct signatures
    a kernel lane: unordered pairs within one unit under both rules, less
    the pairs of atoms at one location, and ordered pairs across units."""
    kernel = sim.kernel
    distinct, weights = sim.distinct_signatures()
    sigs = kernel.pack(distinct)
    both = np.zeros(2)
    for i, j in _upper_blocks(len(distinct)):
        w = weights[i] * weights[j] * np.where(i == j, 1.0, 2.0)
        for rule, mal in enumerate(malignant_same_unit(kernel, sigs[i] ^ sigs[j])):
            both[rule] += w[mal].sum()
    for atoms, (n_loc, n_val), weight in kernel.atom_tables:
        a, b = np.triu_indices(n_val)
        w = weight ** 2 * np.where(a == b, 1.0, 2.0)
        for loc, k in _grid_blocks(n_loc, a.size):
            frames = atoms[loc * n_val + a[k]] ^ atoms[loc * n_val + b[k]]
            for rule, mal in enumerate(malignant_same_unit(kernel, frames)):
                both[rule] -= w[k][mal].sum()
    total = 0.5 * both.sum()
    after = kernel.incoming(kernel.decide(sigs))
    for i, j in _grid_blocks(len(distinct), len(distinct)):
        mal = malignant_cross(kernel, after[i], sigs[j])
        total += weights[i[mal]] @ weights[j[mal]]
    return float(total)
