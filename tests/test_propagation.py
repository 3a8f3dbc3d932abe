import numpy as np
import pytest

from starqec import frames
from starqec.circuits import (
    CATEGORY_OF,
    CNOT,
    build_ec_circuit,
    category_value_count,
)
from starqec.engine import Simulator
from starqec.faulttol import builtin_schedule
from starqec.frames import compute_signatures, signature_of

from oracles import PauliFrame, check_order, propagate

# CNOT fault value for X on the control only: (v+1) = 4*1+0
X_ON_CONTROL = 3
# Z on the target only: (v+1) = 3
Z_ON_TARGET = 2


@pytest.fixture(scope="module")
def ssd_round(ssd_code):
    return build_ec_circuit(ssd_code, builtin_schedule("ssd"), rounds=1)


def cnot_location_of(circuit, kind, row, ordinal):
    """Index of the ordinal-th CNOT (by step) of one check's measurement."""
    hits = []
    for i, loc in enumerate(circuit.locations):
        if loc.kind == CNOT and circuit.owner_check(loc) == (kind, row):
            hits.append((loc.t, i))
    hits.sort()
    return hits[ordinal][1]


def test_no_faults_trivial(ssd_round):
    res = propagate(ssd_round, [])
    assert res.frame.x == res.frame.z == 0
    assert all(s == 0 for s in res.x_syndromes + res.z_syndromes)


def test_ancilla_x_fault_after_third_cnot_hits_last_two_qubits(ssd_round, ssd_code):
    # weight-5 X-check: an X on the ancilla after CNOT 3 propagates to the
    # two data qubits still to come
    row = 0
    order = check_order(builtin_schedule("ssd"), "X", row)
    loc_idx = cnot_location_of(ssd_round, "X", row, 2)
    res = propagate(ssd_round, [(loc_idx, X_ON_CONTROL)])
    expected = (1 << order[3][1]) | (1 << order[4][1])
    assert res.frame.x & ssd_round.data_mask == expected


def test_fault_after_last_cnot_leaves_weight_leq_one(ssd_round):
    row = 0
    loc_idx = cnot_location_of(ssd_round, "X", row, 4)
    res = propagate(ssd_round, [(loc_idx, X_ON_CONTROL)])
    assert (res.frame.x & ssd_round.data_mask).bit_count() == 0
    res = propagate(ssd_round, [(loc_idx, 4)])  # XX: also hits the last target
    assert (res.frame.x & ssd_round.data_mask).bit_count() == 1


def test_data_z_error_flips_x_check_outcome(ssd_round, ssd_code):
    # Z on a data qubit present from the prep step flips every X-check
    # measurement containing it (via Z copied onto the control ancilla)
    qubit = 0
    prep_idle = next(
        i for i, loc in enumerate(ssd_round.locations) if loc.t == 0 and loc.qubits == (qubit,)
    )
    res = propagate(ssd_round, [(prep_idle, 2)])  # idle value 2 = Z
    syn = res.z_syndromes[0]
    expected_rows = [
        pos for pos, row in enumerate(ssd_round.measured_x_rows)
        if (ssd_code.hx.rows[row] >> qubit) & 1
    ]
    assert syn == sum(1 << pos for pos in expected_rows)
    assert res.x_syndromes[0] == 0  # a pure Z error never flips Z-checks


def test_incoming_frame_produces_ideal_syndrome_every_round(ssd_code):
    circuit = build_ec_circuit(ssd_code, builtin_schedule("ssd"), rounds=3)
    qubit = 4
    res = propagate(circuit, [], PauliFrame(x=0, z=1 << qubit))
    expected = 0
    for pos, row in enumerate(circuit.measured_x_rows):
        if (ssd_code.hx.rows[row] >> qubit) & 1:
            expected |= 1 << pos
    assert res.z_syndromes == (expected, expected, expected)


def test_propagation_linearity_on_fault_pairs(ssd_round):
    rng = np.random.default_rng(3)
    n_locs = len(ssd_round.locations)
    checked = 0
    while checked < 100:
        i, j = rng.integers(0, n_locs, size=2)
        if i == j:
            continue
        loc_i, loc_j = ssd_round.locations[int(i)], ssd_round.locations[int(j)]
        from starqec.circuits import CATEGORY_OF

        vi = int(rng.integers(0, category_value_count(CATEGORY_OF[loc_i.kind])))
        vj = int(rng.integers(0, category_value_count(CATEGORY_OF[loc_j.kind])))
        both = propagate(ssd_round, [(int(i), vi), (int(j), vj)])
        a = propagate(ssd_round, [(int(i), vi)])
        b = propagate(ssd_round, [(int(j), vj)])
        assert both.frame.x == a.frame.x ^ b.frame.x
        assert both.frame.z == a.frame.z ^ b.frame.z
        for r in range(1):
            assert both.x_syndromes[r] == a.x_syndromes[r] ^ b.x_syndromes[r]
            assert both.z_syndromes[r] == a.z_syndromes[r] ^ b.z_syndromes[r]
        checked += 1


def test_signature_matches_full_propagation(ssd_round):
    rng = np.random.default_rng(5)
    from starqec.circuits import CATEGORY_OF

    for _ in range(300):
        i = int(rng.integers(0, len(ssd_round.locations)))
        loc = ssd_round.locations[i]
        v = int(rng.integers(0, category_value_count(CATEGORY_OF[loc.kind])))
        sig = signature_of(ssd_round, i, v)
        res = propagate(ssd_round, [(i, v)])
        assert sig.x_res == res.frame.x & ssd_round.data_mask
        assert sig.z_res == res.frame.z & ssd_round.data_mask
        assert sig.x_syn == res.x_syndromes
        assert sig.z_syn == res.z_syndromes


def test_oracle_is_independent_of_the_walker(ssd_round, monkeypatch):
    # propagate runs its own gate loop: a walker that drops the CNOT's Z
    # back-propagation (target to control) changes signature_of, not the oracle
    def walk_without_z_back(ops, x, z, x_syn, z_syn):
        for _t, kind, a, b in ops:
            if kind == "c":
                x ^= ((x >> a) & 1) << b
            elif kind == "p":
                x &= ~(1 << a)
                z &= ~(1 << a)
            else:
                syn, bits = (z_syn, z) if kind == "mx" else (x_syn, x)
                syn[b[0]] ^= ((bits >> a) & 1) << b[1]
        return x, z

    data = ssd_round.data_mask
    atoms = [(i, Z_ON_TARGET) for i, loc in enumerate(ssd_round.locations) if loc.kind == CNOT]

    def oracle():
        results = (propagate(ssd_round, [atom]) for atom in atoms)
        return [(r.frame.x & data, r.frame.z & data, r.x_syndromes, r.z_syndromes)
                for r in results]

    def signatures():
        sigs = (signature_of(ssd_round, i, v) for i, v in atoms)
        return [(s.x_res, s.z_res, s.x_syn, s.z_syn) for s in sigs]

    want = oracle()
    assert signatures() == want
    monkeypatch.setattr(frames, "_walk", walk_without_z_back)
    assert sum(got != w for got, w in zip(signatures(), want)) > len(atoms) // 4
    assert oracle() == want


def test_pure_x_faults_never_touch_z_parts(ssd_round):
    # X and Z frames mix only through Y components; a pure X fault leaves
    # all Z components and X-check outcomes untouched
    count = 0
    for i, loc in enumerate(ssd_round.locations):
        if loc.kind == CNOT:
            res = propagate(ssd_round, [(i, X_ON_CONTROL)])
            assert res.frame.z == 0
            assert all(s == 0 for s in res.z_syndromes)
            count += 1
            if count >= 20:
                break


def test_signature_set_covers_all_locations(s17_sim):
    sigs = s17_sim.signatures
    total = sum(len(locs) for locs, _ in sigs.by_category.values())
    assert total == len(s17_sim.circuit.locations)


def test_prep_fault_flips_that_rounds_outcome(ssd_round):
    # a |0> ancilla prepared as |1> flips its own Z-check outcome, once
    loc_idx = next(
        i for i, loc in enumerate(ssd_round.locations) if loc.kind == "prep0"
    )
    anc = ssd_round.locations[loc_idx].qubits[0]
    _kind, row = ssd_round.ancilla_check(anc)
    pos = ssd_round.measured_z_rows.index(row)
    res = propagate(ssd_round, [(loc_idx, 0)])
    assert res.x_syndromes[0] == 1 << pos
    assert res.frame.x & ssd_round.data_mask == 0


@pytest.mark.parametrize("sim_name", ["ssd_sim", "s17_sim"])
def test_derived_signatures_equal_full_propagation(request, sim_name):
    # every atom of the 3-round circuit: derived from its one-round twin,
    # against a walk through all three rounds
    sim = request.getfixturevalue(sim_name)
    circuit = sim.circuit
    atoms = list(sim.signatures.iter_all())
    assert len(atoms) == sum(
        category_value_count(CATEGORY_OF[loc.kind]) for loc in circuit.locations
    )
    mismatched = [
        (loc, value) for loc, value, sig in atoms if sig != signature_of(circuit, loc, value)
    ]
    assert mismatched == []


@pytest.mark.parametrize("name, one_round_atoms", [("ssd", 2774), ("surface17", 766)])
def test_simulator_walks_each_one_round_atom_once(monkeypatch, name, one_round_atoms):
    walks = []
    walk = frames._walk

    def counted(*args):
        walks.append(None)
        return walk(*args)

    monkeypatch.setattr(frames, "_walk", counted)
    sim = Simulator.for_builtin(name)
    assert len(walks) == one_round_atoms
    assert sum(1 for _ in compute_signatures(sim.unit_circuit).iter_all()) == one_round_atoms
    assert sum(1 for _ in sim.signatures.iter_all()) == 3 * one_round_atoms
    assert sim.verify().ok
    assert len(walks) == one_round_atoms
