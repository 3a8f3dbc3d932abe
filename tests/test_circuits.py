import numpy as np
import pytest

from starqec.circuits import (
    CNOT,
    IDLE,
    MEAS_X,
    MEAS_Z,
    PREP_PLUS,
    PREP_ZERO,
    NoiseModel,
    build_ec_circuit,
    cnot_fault_components,
    fault_stream,
)
from starqec.codes import CssCode
from starqec.faulttol import builtin_schedule
from starqec.gf2 import BitMatrix
from starqec.scheduling import CnotSchedule

from oracles import format_circuit, sample_faults


@pytest.fixture(scope="module")
def ssd_circuit(ssd_code):
    return build_ec_circuit(ssd_code, builtin_schedule("ssd"), rounds=3)


@pytest.fixture(scope="module")
def s17_circuit(s17_code):
    return build_ec_circuit(s17_code, builtin_schedule("surface17"), rounds=3)


class TestBuild:
    def test_ssd_counts(self, ssd_circuit):
        assert ssd_circuit.cnot_count() == 330
        assert ssd_circuit.n_ancilla == 22
        kinds = {}
        for loc in ssd_circuit.locations:
            kinds[loc.kind] = kinds.get(loc.kind, 0) + 1
        assert kinds[CNOT] == 330
        assert kinds[PREP_PLUS] == kinds[PREP_ZERO] == 33
        assert kinds[MEAS_X] == kinds[MEAS_Z] == 33
        assert ssd_circuit.total_timesteps == 36

    def test_surface17_counts(self, s17_circuit):
        assert s17_circuit.cnot_count() == 96
        assert s17_circuit.n_ancilla == 8
        assert s17_circuit.n_qubits == 17
        assert s17_circuit.timesteps_per_round == 10

    def test_surface17_single_round(self, s17_code):
        circuit = build_ec_circuit(s17_code, builtin_schedule("surface17"), rounds=1)
        assert circuit.cnot_count() == 32

    def test_grid_totality(self, ssd_circuit):
        per_t = {}
        for loc in ssd_circuit.locations:
            acted = per_t.setdefault(loc.t, set())
            for q in loc.qubits:
                assert q not in acted
                acted.add(q)
        for t in range(ssd_circuit.total_timesteps):
            assert per_t[t] == set(range(ssd_circuit.n_qubits))

    def test_cnot_direction_convention(self, ssd_circuit):
        # X-ancillas control; Z-ancillas are targets
        for loc in ssd_circuit.locations:
            if loc.kind != CNOT:
                continue
            control, target = loc.qubits
            on_control = ssd_circuit.ancilla_check(control)
            on_target = ssd_circuit.ancilla_check(target)
            assert (on_control is None) != (on_target is None)
            if on_control is not None:
                assert on_control[0] == "X"
            else:
                assert on_target[0] == "Z"

    def test_single_check_one_round(self):
        code = CssCode(
            n=5,
            hx=BitMatrix.from_rows([[1] * 5]),
            hz=BitMatrix(rows=(), cols=5),
            logical_x=(),
            logical_z=(),
        )
        sched = CnotSchedule("separate", 5, tuple((i + 1, "X", 0, i) for i in range(5)))
        circuit = build_ec_circuit(code, sched, rounds=1)
        assert circuit.cnot_count() == 5
        assert circuit.total_timesteps == 7  # prep + 5 CNOT steps + measurement

    def test_canonical_ordering(self, s17_circuit):
        locs = s17_circuit.locations
        keys = [(loc.t, min(loc.qubits)) for loc in locs]
        assert keys == sorted(keys)

    def test_dump_deterministic(self, s17_code):
        a = build_ec_circuit(s17_code, builtin_schedule("surface17"), 3)
        b = build_ec_circuit(s17_code, builtin_schedule("surface17"), 3)
        assert format_circuit(a) == format_circuit(b)
        line = format_circuit(a).splitlines()[0].split()
        assert line[0] == "0" and line[1] in (IDLE, PREP_PLUS, PREP_ZERO)


class TestNoise:
    def test_model_probabilities(self):
        nm = NoiseModel(0.01)
        assert nm.cnot_prob == 0.01
        assert nm.prep_prob == pytest.approx(0.02 / 3)
        assert nm.meas_prob == pytest.approx(0.02 / 3)
        assert nm.idle_prob == pytest.approx(0.001)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(1.5)

    def test_cnot_fault_values_cover_15_paulis(self):
        seen = set()
        for v in range(15):
            seen.add(cnot_fault_components(v))
        assert len(seen) == 15
        assert ((0, 0), (0, 0)) not in seen

    def test_zero_noise_samples_nothing(self, s17_circuit):
        rng = fault_stream(1)
        assert sample_faults(s17_circuit, NoiseModel(0.0), rng) == []

    def test_sampling_reproducible(self, s17_circuit):
        nm = NoiseModel(0.01)
        a = sample_faults(s17_circuit, nm, fault_stream(99, 5))
        b = sample_faults(s17_circuit, nm, fault_stream(99, 5))
        c = sample_faults(s17_circuit, nm, fault_stream(99, 6))
        assert a == b
        assert a != c

    def test_fault_distribution_smoke(self, s17_circuit):
        # 5-sigma category frequencies at p = 1e-2 (the full-size run is in
        # the acceptance suite)
        nm = NoiseModel(1e-2)
        rng = fault_stream(7)
        counts = {"cnot": np.zeros(15, dtype=int), "idle": np.zeros(3, dtype=int)}
        totals = {"cnot": 0, "idle": 0, "prep": 0, "meas": 0}
        draws = 400
        for _ in range(draws):
            for loc_idx, value in sample_faults(s17_circuit, nm, rng):
                loc = s17_circuit.locations[loc_idx]
                if loc.kind == CNOT:
                    counts["cnot"][value] += 1
                    totals["cnot"] += 1
                elif loc.kind == IDLE:
                    counts["idle"][value] += 1
                    totals["idle"] += 1
                elif loc.kind in (PREP_PLUS, PREP_ZERO):
                    totals["prep"] += 1
                else:
                    totals["meas"] += 1
        n_cnot = draws * len(s17_circuit.locations_of_category("cnot"))
        expect = n_cnot * nm.cnot_prob
        assert abs(totals["cnot"] - expect) < 5 * np.sqrt(expect)
        n_idle = draws * len(s17_circuit.locations_of_category("idle"))
        expect_idle = n_idle * nm.idle_prob
        assert abs(totals["idle"] - expect_idle) < 5 * np.sqrt(expect_idle)
