import copy
import dataclasses
import gc
import hashlib
import math
import weakref
from functools import reduce
from itertools import combinations
from operator import xor
from types import SimpleNamespace

import numpy as np
import pytest

from starqec.circuits import (
    CATEGORY_OF,
    NoiseModel,
    build_ec_circuit,
    category_value_count,
    fault_stream,
)
from starqec import engine
from starqec.codes import CssCode, code_from_complex
from starqec.complexes import parse_complex
from starqec.engine import Simulator, count_cnot_pairs
from starqec.exact import (
    exact_c_parts,
    exact_quadratic_coefficient,
    malignant_cross,
    malignant_same_unit,
)
from starqec.faulttol import enumerate_single_fault_errors, find_fault_tolerant_schedule
from starqec.frames import FaultSig
from starqec.gf2 import BitMatrix, RowSpace
from starqec.kernel import _CATEGORIES, EcKernel
from starqec.results import (
    FitError,
    PointEstimate,
    ResultRow,
    fit_quadratic,
    m_copy_failure,
    read_results_csv,
    wilson_interval,
    write_results_csv,
)
from starqec.scheduling import CnotSchedule

from conftest import toric_cplx
from oracles import (
    PauliFrame,
    all_lanes_batch,
    faults_to_sigs,
    from_rows,
    lane_exact_c,
    run_ec_unit,
    run_exrec_trial,
    run_lifetime,
    sample_faults,
    scalar_condition1,
    scalar_decode,
    scalar_exact_c,
    scalar_exrec_sweep,
    scalar_malignant,
    scalar_unit,
    unpack,
)


class TestEcUnit:
    def test_no_faults_identity(self, s17_sim):
        out = run_ec_unit(s17_sim.circuit, s17_sim.tables, [])
        assert out.frame.x == out.frame.z == 0
        assert out.decision_x.source == "none"
        assert out.decision_z.source == "none"

    def test_incoming_single_error_corrected(self, ssd_sim):
        for q in (0, 7, 29):
            incoming = PauliFrame(x=0, z=1 << q)
            out = run_ec_unit(ssd_sim.circuit, ssd_sim.tables, [], incoming)
            # all three rounds report s(E), the repeated rule fires, E is removed
            assert out.decision_z.source == "repeated"
            assert out.z_syndromes[0] == out.z_syndromes[1] == out.z_syndromes[2] != 0
            assert out.frame.z == 0 and out.frame.x == 0

    def test_third_round_fault_leaves_correctable_error(self, ssd_sim):
        # a fault in round 3 leaves the first two syndromes trivial: no
        # correction is applied and the residual must be ideally correctable
        circuit = ssd_sim.circuit
        span = circuit.timesteps_per_round
        third_round_cnots = [
            i
            for i, loc in enumerate(circuit.locations)
            if loc.kind == "cnot" and loc.t >= 2 * span
        ]
        checked = 0
        for i in third_round_cnots[:40]:
            for value in (3, 11):
                out = run_ec_unit(circuit, ssd_sim.tables, [(i, value)])
                assert out.z_syndromes[0] == 0 and out.z_syndromes[1] == 0
                assert out.x_syndromes[0] == 0 and out.x_syndromes[1] == 0
                res = scalar_decode(ssd_sim, out.frame.x, out.frame.z)
                assert not res.failed
                checked += 1
        assert checked

    def test_fast_combination_matches_reference(self, ssd_sim):
        # signature XOR + decision must agree with full propagation for
        # arbitrary sampled fault sets
        noise = NoiseModel(0.02)
        for trial in range(40):
            faults = sample_faults(ssd_sim.circuit, noise, fault_stream(1000 + trial))
            ref = run_ec_unit(ssd_sim.circuit, ssd_sim.tables, faults)
            sigs = faults_to_sigs(ssd_sim, faults)
            x, z = scalar_unit(ssd_sim, sigs, 0, 0)
            assert (x, z) == (ref.frame.x, ref.frame.z)

    def test_fast_combination_with_incoming(self, s17_sim):
        noise = NoiseModel(0.05)
        rng = np.random.default_rng(9)
        for trial in range(40):
            faults = sample_faults(s17_sim.circuit, noise, fault_stream(trial))
            xin = int(rng.integers(0, 1 << 9))
            zin = int(rng.integers(0, 1 << 9))
            ref = run_ec_unit(
                s17_sim.circuit, s17_sim.tables, faults, PauliFrame(x=xin, z=zin)
            )
            x, z = scalar_unit(s17_sim, faults_to_sigs(s17_sim, faults), xin, zin)
            assert (x, z) == (ref.frame.x, ref.frame.z)


def kernel_atoms(sim, fault_sets):
    """Kernel atoms (per category: lane and atom row of each fault) of the
    given per-lane fault lists of (location index, value)."""
    lanes = {cat: ([], []) for cat in _CATEGORIES}
    for lane, faults in enumerate(fault_sets):
        for loc, value in faults:
            cat, row = sim.signatures.position[loc]
            lanes[cat][0].append(lane)
            lanes[cat][1].append(row * category_value_count(cat) + value)
    return [
        (np.array(lanes[cat][0], dtype=np.int64), np.array(lanes[cat][1], dtype=np.int64))
        for cat in _CATEGORIES
    ]


class TestKernel:
    @pytest.mark.parametrize("code", ["surface17", "ssd"])
    def test_unit_and_probe_match_scalar(self, code, ssd_sim, s17_sim):
        # the packed kernel must reproduce the scalar unit and ideal decode,
        # afflicted logicals included, exactly on random fault sets with
        # random incoming residuals
        sim = ssd_sim if code == "ssd" else s17_sim
        n = sim.code.n
        rng = np.random.default_rng(31)

        def residual() -> int:
            # zero, or a sparse error: the AND of two random n-bit words
            if rng.random() < 0.4:
                return 0
            return int(rng.integers(0, 1 << n)) & int(rng.integers(0, 1 << n))

        lanes = 10_000
        fault_sets, incoming = [], []
        for i in range(lanes):
            noise = NoiseModel((1e-3, 5e-3, 2e-2)[i % 3])
            fault_sets.append(sample_faults(sim.circuit, noise, fault_stream(41, i)))
            incoming.append((residual(), residual()))
        kernel = sim.kernel
        res = kernel.pack([FaultSig(x, z, (0,) * 3, (0,) * 3) for x, z in incoming])
        out = kernel.unit(res, kernel_atoms(sim, fault_sets))
        got = unpack(kernel, out)
        want = [
            scalar_unit(sim, faults_to_sigs(sim, f), x, z) for f, (x, z) in zip(fault_sets, incoming)
        ]
        assert sum(g != w for g, w in zip(got, want)) == 0
        for lanes_in, pairs in ((out, want), (res, incoming)):
            probe = kernel.fails(lanes_in)
            decoded = [scalar_decode(sim, x, z) for x, z in pairs]
            assert sum(bool(f) != d.failed for f, d in zip(probe, decoded)) == 0
            assert kernel.afflicted(lanes_in) == [(d.afflicted_x, d.afflicted_z) for d in decoded]
            # the lifetime step's probe: the same verdict, the zero-syndrome
            # test, and the next unit's incoming frame from one lookup
            fails, clean, frame = kernel.probe(lanes_in)
            assert np.array_equal(fails, probe)
            zero = [not (sim.tables["X"].syndrome_of(x) or sim.tables["Z"].syndrome_of(z))
                    for x, z in pairs]
            assert clean.tolist() == zero
            assert np.array_equal(frame, kernel.incoming(lanes_in))
        assert 0 < kernel.fails(out).sum() < lanes  # both outcomes exercised

    @pytest.mark.parametrize("width, words", [(62, 4), (70, 4), (130, 6)])
    def test_multiword_layout_matches_scalar(self, s17_sim, width, words):
        # Surface-17 declared with extra idle data qubits, so that fields
        # span several words: at width 62 the first round syndrome no longer
        # fits word 0, at 70 and 130 the residual itself takes two and three
        # words. The scalar rule ignores bits that no check or logical
        # touches, so high residual bits must pass through unchanged.
        wide = copy.copy(s17_sim)
        code = s17_sim.code
        wide.code = SimpleNamespace(n=width, logical_x=code.logical_x, logical_z=code.logical_z)
        kernel = EcKernel(wide)
        assert kernel.words == words
        rng = np.random.default_rng(width)

        def residual() -> int:
            return int.from_bytes(rng.bytes(17), "little") % (1 << width)

        lanes = 2000
        faults = [sample_faults(s17_sim.circuit, NoiseModel(2e-2), fault_stream(43, i))
                  for i in range(lanes)]
        incoming = [(residual(), residual()) for _ in range(lanes)]
        res = kernel.pack([FaultSig(x, z, (0,) * 3, (0,) * 3) for x, z in incoming])
        assert unpack(kernel, res) == incoming
        out = kernel.unit(res, kernel_atoms(s17_sim, faults))
        want = [scalar_unit(s17_sim, faults_to_sigs(s17_sim, f), x, z)
                for f, (x, z) in zip(faults, incoming)]
        assert unpack(kernel, out) == want
        probe = kernel.fails(out)
        assert [bool(f) for f in probe] == [scalar_decode(s17_sim, x, z).failed for x, z in want]

    def test_sampler_frequencies_and_exclusion(self, ssd_sim):
        # the sampler both estimators run: 5-sigma per-(category, value)
        # frequencies over >= 1e6 location draws per kind, 5-sigma failure
        # frequency at every location, and no location twice in one lane.
        # p = 0.05 makes repeated locations (and so redraws) common.
        noise = NoiseModel(0.05)
        kernel = ssd_sim.kernel
        sizes = {c: len(ssd_sim.signatures.by_category[c][0]) for c in _CATEGORIES}
        lanes = math.ceil(1_000_000 / min(sizes.values()))
        atoms = kernel.sample(fault_stream(2026, 5), noise, lanes)
        for cat, (lane, row) in zip(_CATEGORIES, atoms):
            n_loc, n_val = sizes[cat], category_value_count(cat)
            loc, value = row // n_val, row % n_val
            assert lanes * n_loc >= 1_000_000
            assert np.all((0 <= loc) & (loc < n_loc))
            assert np.unique(lane * n_loc + loc).size == lane.size
            q = noise.category_prob(cat)
            per_value = np.bincount(value, minlength=n_val)
            n, qv = lanes * n_loc, q / n_val
            assert np.all(np.abs(per_value - n * qv) <= 5 * math.sqrt(n * qv * (1 - qv)))
            per_loc = np.bincount(loc, minlength=n_loc)
            assert np.all(np.abs(per_loc - lanes * q) <= 5 * math.sqrt(lanes * q * (1 - q)))

    def test_sampler_dense_noise(self, s17_sim):
        # at p = 0.5 about half of all locations fail in every lane, so
        # repeats are the rule; the draw must still finish, stay
        # repeat-free, give every location its probability and keep
        # locations independent: neighbouring rows (where a shift-to-the-
        # next-free-row redraw would pile up) both fail at rate q^2
        noise = NoiseModel(0.5)
        lanes = 4000
        atoms = s17_sim.kernel.sample(fault_stream(2026, 6), noise, lanes)
        for cat, (lane, row) in zip(_CATEGORIES, atoms):
            n_loc = len(s17_sim.signatures.by_category[cat][0])
            loc = row // category_value_count(cat)
            assert np.unique(lane * n_loc + loc).size == lane.size
            q = noise.category_prob(cat)
            per_loc = np.bincount(loc, minlength=n_loc)
            assert np.all(np.abs(per_loc - lanes * q) <= 5 * math.sqrt(lanes * q * (1 - q)))
            hit = np.zeros((lanes, n_loc), dtype=bool)
            hit[lane, loc] = True
            pairs = (hit & np.roll(hit, -1, axis=1)).sum(axis=1)
            se = pairs.std(ddof=1) / math.sqrt(lanes)
            assert abs(pairs.mean() - n_loc * q * q) <= 5 * se

    @pytest.mark.parametrize("code", ["surface17", "ssd"])
    def test_renewal_premise(self, code, ssd_sim, s17_sim):
        # what estimate_lifetime's renewal cycles rest on, checked exactly:
        # a stabilizer residual s evolves as residual 0 does,
        # unit(s, A) == s ^ unit(0, A) with the same probe verdict, and a
        # fault-free unit leaves zero syndrome on any residual
        sim = ssd_sim if code == "ssd" else s17_sim
        kernel, n, lanes = sim.kernel, sim.code.n, 10_000
        rng = np.random.default_rng(17)

        def span(rows) -> list[int]:
            picks = rng.integers(0, 2, size=(lanes, len(rows)))
            return [reduce(xor, (r for r, b in zip(rows, pick) if b), 0) for pick in picks]

        stab = list(zip(span(sim.code.hx.rows), span(sim.code.hz.rows)))
        assert sum(x != 0 and z != 0 for x, z in stab) > lanes // 2
        atoms = kernel.sample(fault_stream(2026, 7), NoiseModel(5e-3), lanes)
        assert np.unique(np.concatenate([lane for lane, _ in atoms])).size > lanes // 2
        stab = kernel.pack_residuals(stab)
        from_zero = kernel.unit(kernel.zeros(lanes), atoms)
        from_stab = kernel.unit(stab, atoms)
        assert np.array_equal(from_stab, stab ^ from_zero)
        assert np.array_equal(kernel.fails(from_stab), kernel.fails(from_zero))
        assert kernel.fails(from_zero).any()
        residuals = [(int(x), int(z)) for x, z in rng.integers(0, 1 << n, size=(lanes, 2))]
        out = unpack(kernel, kernel.unit(kernel.pack_residuals(residuals), []))
        assert all(sim.tables["X"].syndrome_of(x) == 0 == sim.tables["Z"].syndrome_of(z)
                   for x, z in out)

    def test_lockstep_lifetime_matches_scalar_oracle(self, s17_sim):
        noise = NoiseModel(5e-3)
        oracle = [run_lifetime(s17_sim, noise, 1000 + i, 3000).rounds_survived for i in range(2000)]
        mean = sum(oracle) / len(oracle)
        sd = math.sqrt(sum((r - mean) ** 2 for r in oracle) / (len(oracle) - 1))
        summary = s17_sim.estimate_lifetime(noise, 20_000, seed=5, max_rounds=3000)
        assert summary.censored == 0
        se = sd * math.sqrt(1 / len(oracle) + 1 / summary.trajectories)
        assert abs(summary.mean_rounds - mean) <= 5 * se

    def test_signature_position_lookup(self, s17_sim):
        sigs = s17_sim.signatures
        assert sorted(sigs.position) == list(range(len(s17_sim.circuit.locations)))
        for loc, value, sig in sigs.iter_all():
            cat = CATEGORY_OF[s17_sim.circuit.locations[loc].kind]
            assert sigs.position[loc][0] == cat
            assert sigs.signature(loc, value) is sig


class TestVerification:
    def test_condition1_both_codes(self, ssd_sim, s17_sim):
        for sim in (s17_sim, ssd_sim):
            report = sim.verify_condition1()
            assert report.ok, report.violations[:5]
            assert report.input_cases == 2 * sim.code.n
            assert report.fault_cases > 0
            assert report.correctability_cases > 0

    def test_exrec_single_fault_sweep(self, ssd_sim, s17_sim):
        for sim in (s17_sim, ssd_sim):
            report = sim.verify_exrec_single_faults()
            assert report.ok, report.violations[:5]

    def test_corrupted_table_detected(self, ssd_sim, ssd_code):
        import dataclasses
        from itertools import combinations

        from starqec.faulttol import enumerate_single_fault_errors
        from starqec.gf2 import RowSpace

        # replace a fault-derived weight-2 entry with an inequivalent
        # weight-2 error of the same syndrome; the exhaustive sweep must
        # report the broken case
        table = ssd_sim.tables["Z"]
        stab = RowSpace.of_matrix(ssd_code.hz)
        target = replacement = None
        for fr in enumerate_single_fault_errors(ssd_sim.unit_circuit, "Z"):
            if fr.weight != 2:
                continue
            for a, b in combinations(range(30), 2):
                e = (1 << a) | (1 << b)
                if table.syndrome_of(e) == fr.syndrome and not stab.contains(
                    e ^ fr.residual
                ):
                    target, replacement = fr, e
                    break
            if target:
                break
        assert target is not None
        corr = list(table.corrections)
        corr[target.syndrome] = replacement
        bad_table = dataclasses.replace(table, corrections=tuple(corr))
        sim2 = object.__new__(Simulator)
        sim2.__dict__.update(ssd_sim.__dict__)
        sim2.tables = {"X": ssd_sim.tables["X"], "Z": bad_table}
        sim2.kernel = EcKernel(sim2)
        report = sim2.verify_condition1()
        assert not report.ok

    def test_corrupted_x_table_detected(self, ssd_sim, ssd_code):
        report = corrupted_sim(ssd_sim, ssd_code, "X").verify_condition1()
        assert not report.ok

    @pytest.mark.parametrize(
        "case", ["surface17", "ssd", "ssd-bad-x", "ssd-bad-z", "surface17-bad-syndrome"]
    )
    def test_reports_match_scalar_oracle(self, case, ssd_sim, s17_sim, ssd_code):
        # the kernel-backed sweeps must give the scalar loops' case counts
        # and violation lists, message for message, also on broken tables;
        # a correction with the wrong syndrome leaves outputs off the codespace
        sim = case_sim(case, ssd_sim, s17_sim, ssd_code)
        c1, sweep = sim.verify_condition1(), sim.verify_exrec_single_faults()
        assert c1 == scalar_condition1(sim)
        assert sweep == scalar_exrec_sweep(sim)
        assert c1.ok == (case in ("surface17", "ssd"))
        if case == "surface17-bad-syndrome":
            assert any("not returned to codespace" in v for v in c1.violations)

    def test_simulator_freed_by_reference_counting(self):
        # what is memoized on a circuit, schedule or simulator must not refer
        # back to it: a cycle would keep the whole set-up alive until the
        # garbage collector runs
        gc.collect()
        gc.disable()
        try:
            sim = Simulator.for_builtin("surface17")
            assert sim.verify().ok
            sim.distinct_signatures()
            kept = (sim.circuit, sim.unit_circuit, sim.kernel, sim.schedule)
            refs = [weakref.ref(obj) for obj in kept]
            del sim, kept
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


def with_table_entry(sim, kind, syndrome, error):
    """A copy of ``sim`` whose ``kind`` table corrects ``syndrome`` with ``error``."""
    table = sim.tables[kind]
    corr = list(table.corrections)
    corr[syndrome] = error
    bad = dataclasses.replace(table, corrections=tuple(corr))
    broken = object.__new__(Simulator)
    broken.__dict__.update(sim.__dict__)
    broken.tables = {**sim.tables, kind: bad}
    broken.kernel = EcKernel(broken)
    return broken


def case_sim(case, ssd_sim, s17_sim, ssd_code):
    """The simulator a test case names: a built-in code, Surface-17 with
    ``bad_syndrome_sim``'s table, SSD with a ``corrupted_sim`` X or Z table,
    or a built-in code whose X table corrects syndrome 0 with X on qubit 0
    ("-x0") or with an X stabilizer ("-stab0")."""
    sim = ssd_sim if case.startswith("ssd") else s17_sim
    if case.startswith("ssd-bad"):
        return corrupted_sim(ssd_sim, ssd_code, case[-1].upper())
    if case == "surface17-bad-syndrome":
        return bad_syndrome_sim(s17_sim)
    if case.endswith("-x0"):
        return with_table_entry(sim, "X", 0, 1)
    if case.endswith("-stab0"):
        return with_table_entry(sim, "X", 0, sim.code.hx.rows[0])
    return sim


def bad_syndrome_sim(s17_sim):
    """Surface-17 with X on qubit 4 as the correction for qubit 0's X
    syndrome: a correction off its syndrome, so a clean unit after a fault
    is no longer the ideal decode, and the pair rules for unit 1 and unit 2
    disagree."""
    return with_table_entry(s17_sim, "X", s17_sim.tables["X"].syndrome_of(1), 1 << 4)


def corrupted_sim(sim, code, kind):
    """A copy of ``sim`` whose ``kind`` table has one fault-derived weight-2
    entry replaced by an inequivalent weight-2 error of the same syndrome."""
    table = sim.tables[kind]
    stab = RowSpace.of_matrix(code.checks(kind))
    for fr in enumerate_single_fault_errors(sim.unit_circuit, kind):
        if fr.weight != 2:
            continue
        for a, b in combinations(range(code.n), 2):
            e = (1 << a) | (1 << b)
            if table.syndrome_of(e) == fr.syndrome and not stab.contains(e ^ fr.residual):
                return with_table_entry(sim, kind, fr.syndrome, e)
    raise AssertionError(f"no {kind} table entry to corrupt")


class TestExactC:
    def test_surface17(self, s17_sim):
        assert exact_quadratic_coefficient(s17_sim) == pytest.approx(4525.008888890047, rel=1e-9)

    def test_ssd(self, ssd_sim):
        # the value the one-pair-at-a-time enumeration gives (59 s on one core)
        assert exact_quadratic_coefficient(ssd_sim) == pytest.approx(58301.41444357131, rel=1e-9)

    def test_broken_table_matches_scalar(self, s17_sim):
        # on a table that breaks fault tolerance, single faults, same-location
        # pairs and the unit-1/unit-2 distinction all count
        sim = bad_syndrome_sim(s17_sim)
        want = scalar_exact_c(sim)
        assert want > 1.1 * exact_quadratic_coefficient(s17_sim)
        assert exact_quadratic_coefficient(sim) == pytest.approx(want, rel=1e-9)

    def test_distinct_signatures_computed_once_on_first_use(self, s17_sim):
        assert "_distinct" not in vars(Simulator.for_builtin("surface17"))
        distinct = s17_sim.distinct_signatures()
        assert s17_sim.distinct_signatures() is distinct
        assert not distinct[1].flags.writeable

    @pytest.mark.parametrize("code", ["surface17", "ssd", "surface17-bad-syndrome"])
    def test_pair_rules_match_scalar(self, code, ssd_sim, s17_sim, ssd_code):
        # kernel malignancy of random signature pairs, the trivial signature
        # included, against the scalar rules
        sim = case_sim(code, ssd_sim, s17_sim, ssd_code)
        kernel = sim.kernel
        distinct, weights = sim.distinct_signatures()
        assert len(weights) == len(distinct) == len(set(distinct))
        sigs = kernel.pack(distinct)
        rng = np.random.default_rng(17)
        i, j = rng.integers(0, len(distinct), size=(2, 10_000))
        same1, same2 = malignant_same_unit(kernel, sigs[i] ^ sigs[j])
        cross = malignant_cross(kernel, kernel.incoming(kernel.decide(sigs))[i], sigs[j])
        got = np.stack([same1, same2, cross], axis=1).tolist()
        want = [list(scalar_malignant(sim, distinct[a], distinct[b])) for a, b in zip(i, j)]
        assert got == want
        assert all(0 < m.sum() < len(i) for m in (same1, same2, cross))

    @pytest.mark.parametrize(
        "case", ["surface17", "ssd", "surface17-bad-syndrome", "ssd-bad-x", "ssd-bad-z"]
    )
    def test_matches_lane_enumeration(self, case, ssd_sim, s17_sim, ssd_code):
        # per-type key grids joined by one weight matrix against every
        # signature pair as a lane, also on broken tables
        sim = case_sim(case, ssd_sim, s17_sim, ssd_code)
        parts = exact_c_parts(sim)
        assert parts.c == pytest.approx(lane_exact_c(sim), rel=1e-12, abs=0)
        assert parts.c == exact_quadratic_coefficient(sim)
        assert 0 < parts.c_xz < min(parts.c_x, parts.c_z)

    @pytest.mark.parametrize("code", ["surface17", "ssd", "surface17-bad-syndrome"])
    def test_pair_rules_split_by_error_type(self, code, ssd_sim, s17_sim, ssd_code):
        # the premise of the key grids: on random ordered signature pairs,
        # each rule fails on the full frames exactly when it fails on the
        # frames' X words alone or on their Z words alone
        sim = case_sim(code, ssd_sim, s17_sim, ssd_code)
        kernel = sim.kernel
        distinct, _weights = sim.distinct_signatures()
        sigs = kernel.pack(distinct)
        x_words, z_words = kernel.type_words
        x_only, z_only = sigs.copy(), sigs.copy()
        x_only[:, z_words] = 0
        z_only[:, x_words] = 0
        rng = np.random.default_rng(23)
        i, j = rng.integers(0, len(distinct), size=(2, 10_000))

        def rules(rows):
            after = kernel.incoming(kernel.decide(rows))[i]
            return np.stack([*malignant_same_unit(kernel, rows[i] ^ rows[j]),
                             malignant_cross(kernel, after, rows[j])])

        full, x, z = rules(sigs), rules(x_only), rules(z_only)
        assert np.array_equal(full, x | z)
        # both types fail on some pairs, and each alone on others
        assert all((x & z).any(axis=1)) and all((x & ~z).any(axis=1))
        assert all((z & ~x).any(axis=1))


class TestTrials:
    def test_zero_noise_never_fails(self, s17_sim):
        noise = NoiseModel(0.0)
        for seed in range(5):
            assert not run_exrec_trial(s17_sim, noise, seed).failed
        pts = s17_sim.estimate_pl([1e-9], 1000, seed=3)
        assert pts[0].failures == 0

    def test_trial_reproducible(self, s17_sim):
        noise = NoiseModel(0.02)
        a = run_exrec_trial(s17_sim, noise, 99)
        b = run_exrec_trial(s17_sim, noise, 99)
        assert a == b

    def test_estimate_reproducible_and_thread_invariant(self, s17_sim):
        a = s17_sim.estimate_pl([2e-3], 30000, seed=5, threads=1, batch_size=4096)
        b = s17_sim.estimate_pl([2e-3], 30000, seed=5, threads=2, batch_size=4096)
        assert a[0].failures == b[0].failures

    def test_pool_has_at_most_one_worker_per_batch(self, s17_sim, monkeypatch):
        # a fake fork context records the pool size and runs the batches in
        # this process, so no worker is started
        sizes = []

        class FakePool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return list(map(fn, tasks))

        monkeypatch.setattr(engine, "_WORKER_STATE", None)
        monkeypatch.setattr(
            engine.multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=FakePool)
        )
        args = ([2e-3], 3 * 4096, 5)
        capped = s17_sim.estimate_pl(*args, threads=5000, batch_size=4096)
        assert sizes == [3]
        assert capped == s17_sim.estimate_pl(*args, threads=1, batch_size=4096)
        for threads in (0, -2):
            with pytest.raises(ValueError):
                s17_sim.estimate_pl(*args, threads=threads)
        assert sizes == [3]

    def test_cross_seed_agreement(self, s17_sim):
        # estimates from disjoint seeds agree within 3 combined standard errors
        n = 150_000
        a = s17_sim.estimate_pl([1e-3], n, seed=11)[0]
        b = s17_sim.estimate_pl([1e-3], n, seed=12)[0]
        se = math.sqrt(a.p_l * (1 - a.p_l) / n + b.p_l * (1 - b.p_l) / n)
        assert abs(a.p_l - b.p_l) <= 3 * se

    def test_single_unit_mode_less_noisy(self, s17_sim):
        # a single EC unit has fewer fault pairs than the exRec
        ex = s17_sim.estimate_pl([3e-3], 150_000, seed=6, mode="exrec")[0]
        single = s17_sim.estimate_pl([3e-3], 150_000, seed=6, mode="single")[0]
        assert single.failures < ex.failures

    def test_disjoint_grids_agree_in_quadratic_regime(self, s17_sim):
        # c fitted from separate single-point grids must agree within the
        # fit confidence intervals
        a = fit_quadratic(s17_sim.estimate_pl([3e-4], 400_000, seed=21))
        b = fit_quadratic(s17_sim.estimate_pl([1e-3], 400_000, seed=22))
        assert a.c_ci[0] <= b.c_ci[1] and b.c_ci[0] <= a.c_ci[1]


# estimate_pl([3e-4, 1e-3, 3e-3], 50_000, seed=7, mode=...) failure counts
# with every lane run through every unit
PINNED_COUNTS = {
    ("surface17", "exrec"): [19, 208, 1654],
    ("surface17", "single"): [10, 84, 733],
    ("ssd", "exrec"): [262, 2413, 15670],
    ("ssd", "single"): [95, 1128, 7335],
}
# (seed, p, batch index, trials) of the batches compared with the oracle
ORACLE_BATCHES = [(1, 3e-4, 0, 8192), (2, 1e-3, 3, 5000), (3, 3e-3, 1, 777),
                  (4, 2e-2, 0, 300), (5, 1e-7, 2, 64)]


def unit_lane_counts(monkeypatch, sim) -> list[int]:
    """The lanes of each ``unit`` that ``sim``'s kernel runs from now on."""
    seen, unit = [], sim.kernel.unit

    def counting(res, atoms):
        seen.append(len(res))
        return unit(res, atoms)

    monkeypatch.setattr(sim.kernel, "unit", counting)
    return seen


class TestLaneElision:
    @pytest.mark.parametrize("code, mode", list(PINNED_COUNTS))
    def test_pinned_counts_thread_invariant(self, code, mode, ssd_sim, s17_sim):
        sim = ssd_sim if code == "ssd" else s17_sim
        for threads in (1, 2):
            points = sim.estimate_pl([3e-4, 1e-3, 3e-3], 50_000, 7, mode=mode, threads=threads)
            assert [pt.failures for pt in points] == PINNED_COUNTS[code, mode]

    @pytest.mark.parametrize("case", [
        "surface17", "ssd", "surface17-bad-syndrome", "ssd-bad-x", "ssd-bad-z",
        "surface17-x0", "ssd-x0", "surface17-stab0",
    ])
    def test_batches_match_all_lanes_oracle(self, case, ssd_sim, s17_sim, ssd_code):
        sim = case_sim(case, ssd_sim, s17_sim, ssd_code)
        assert sim._few_faults_pass() == (case in ("surface17", "ssd"))
        failures = 0
        for units in (1, 2):
            for seed, p, batch_idx, n in ORACLE_BATCHES:
                args = (NoiseModel(p), units, seed, 0, batch_idx, n)
                got = sim._exrec_batch(*args)
                assert got == all_lanes_batch(sim, *args), (units, seed, p)
                failures += got
        assert failures > 0

    @pytest.mark.parametrize("case", ["surface17-bad-syndrome", "ssd-bad-z", "ssd-x0",
                                      "surface17-stab0"])
    def test_closed_gate_runs_every_lane(self, case, ssd_sim, s17_sim, ssd_code, monkeypatch):
        sim = case_sim(case, ssd_sim, s17_sim, ssd_code)
        assert not sim._few_faults_pass()
        if case.endswith("stab0"):  # closed by the fault-free unit alone
            assert sim.verify_exrec_single_faults().ok
        lanes = unit_lane_counts(monkeypatch, sim)
        sim.estimate_pl([1e-3], 3000, 9, batch_size=2048)
        assert lanes == [2048, 2048, 952, 952]

    @pytest.mark.parametrize("units", [1, 2])
    def test_open_gate_runs_lanes_with_two_faults(self, units, ssd_sim, monkeypatch):
        noise, args = NoiseModel(1e-3), (units, 4, 0, 0, 8192)
        rng = fault_stream(4, 0, units, 0)
        draws = [ssd_sim.kernel.sample(rng, noise, 8192) for _ in range(units)]
        faults = np.bincount(np.concatenate([lane for a in draws for lane, _ in a]),
                             minlength=8192)
        lanes = unit_lane_counts(monkeypatch, ssd_sim)
        ssd_sim._exrec_batch(noise, *args)
        assert lanes == [int((faults >= 2).sum())] * units
        assert 0 < lanes[0] < 8192 // 2

    def test_gate_computed_lazily_once_per_kernel(self, monkeypatch):
        sim = Simulator.for_builtin("surface17")
        assert "_few_faults_memo" not in vars(sim)
        sweeps = []
        sweep = Simulator.verify_exrec_single_faults
        monkeypatch.setattr(Simulator, "verify_exrec_single_faults",
                            lambda self: sweeps.append(self) or sweep(self))
        forked = engine._parallel_failures

        def parallel(sim, *args):
            # computed before the pool forks, so every worker inherits it
            assert "_few_faults_memo" in vars(sim)
            return forked(sim, *args)

        monkeypatch.setattr(engine, "_parallel_failures", parallel)
        sim.estimate_pl([1e-3], 2 * 4096, 3, threads=2, batch_size=4096)
        sim.estimate_pl([1e-3, 3e-3], 4096, 3, mode="single")
        assert sweeps == [sim]
        # a copy with its own tables and kernel computes its own gate,
        # though it copies the parent's memoized one
        broken = bad_syndrome_sim(sim)
        assert "_few_faults_memo" in vars(broken)
        assert not broken._few_faults_pass() and sim._few_faults_pass()
        assert sweeps == [sim, broken]
        args = (NoiseModel(3e-3), 2, 3, 0, 0, 4096)
        assert broken._exrec_batch(*args) == all_lanes_batch(broken, *args)


class TestToricPipeline:
    def test_three_by_three_torus(self):
        # the [[18,2,3]] toric code from its complex file: schedule search,
        # exhaustive verification, exact c and the elided Monte Carlo
        code = code_from_complex(parse_complex(toric_cplx(3, 3)))
        assert (code.n, len(code.logical_x)) == (18, 2)
        sim = Simulator(code, find_fault_tolerant_schedule(code).schedule)
        report = sim.verify()
        assert report.ok
        assert report.exrec_sweep.cases == 3016
        assert exact_c_parts(sim).c == pytest.approx(lane_exact_c(sim), rel=1e-12, abs=0)
        assert sim._few_faults_pass()
        for units, mode in ((2, "exrec"), (1, "single")):
            points = sim.estimate_pl([1e-3, 3e-3], 3 * 4096, 5, mode=mode, batch_size=4096)
            for point_idx, pt in enumerate(points):
                noise = NoiseModel(pt.p)
                want = sum(all_lanes_batch(sim, noise, units, 5, point_idx, b, 4096)
                           for b in range(3))
                assert pt.failures == want > 0


class TestLifetime:
    def test_zero_noise_survives_to_censor(self, s17_sim):
        res = run_lifetime(s17_sim, NoiseModel(0.0), seed=1, max_rounds=30)
        assert not res.failed
        assert res.rounds_survived == 30

    def test_rounds_multiple_of_three(self, s17_sim):
        res = s17_sim.run_lifetime_fast(NoiseModel(5e-3), seed=2, trajectory=0, max_rounds=3000)
        assert res.rounds_survived is not None
        assert res.rounds_survived % 3 == 0

    @pytest.mark.parametrize("code, p, digest", [
        ("surface17", 2e-2, "cf1d3d9618b64c383ba46cab9b10a0b1d9c1ab3d23c40bf2f97e7facf7ae2d1f"),
        ("ssd", 5e-3, "fd27d82d1442db03b77b87dcef60746172cb94bcc6e0708ea06b6a8cce7a3ebd"),
    ])
    def test_fast_trajectories_match_recorded(self, code, p, digest, ssd_sim, s17_sim):
        # SHA-256 of the repr of 100 trajectories' TrialResults as the scalar
        # ideal decode reported them: rounds, and afflicted logicals per type
        # (SSD has trajectories with several logicals, and with both types)
        sim = ssd_sim if code == "ssd" else s17_sim
        results = [sim.run_lifetime_fast(NoiseModel(p), 3, t, 3000) for t in range(100)]
        assert hashlib.sha256(repr(results).encode()).hexdigest() == digest

    def test_summary_counts(self, s17_sim):
        summary = s17_sim.estimate_lifetime(NoiseModel(5e-3), 50, seed=3, max_rounds=6000)
        assert summary.trajectories == 50
        assert summary.failures + summary.censored == 50
        assert summary.mean_rounds > 0

    def test_zero_noise_censors_every_trajectory(self, s17_sim):
        summary = s17_sim.estimate_lifetime(NoiseModel(0.0), 7, seed=1, max_rounds=31)
        assert (summary.failures, summary.censored) == (0, 7)
        assert summary.total_rounds == 7 * 30

    def test_censoring_matches_scalar_oracle(self, s17_sim):
        # the cap branch of the renewal-cycle join: at a 10-unit cap about
        # half the trajectories are censored; the censored share and the
        # mean rounds must agree with the scalar oracle within 5 sigma
        noise, max_rounds = NoiseModel(5e-3), 30
        oracle = [run_lifetime(s17_sim, noise, 3000 + i, max_rounds) for i in range(2000)]
        summary = s17_sim.estimate_lifetime(noise, 20_000, seed=6, max_rounds=max_rounds)
        share = sum(not r.failed for r in oracle) / len(oracle)
        weights = 1 / len(oracle) + 1 / summary.trajectories
        assert 0.1 < share < 0.9
        se = math.sqrt(share * (1 - share) * weights)
        assert abs(summary.censored / summary.trajectories - share) <= 5 * se
        rounds = [r.rounds_survived for r in oracle]
        mean = sum(rounds) / len(rounds)
        sd = math.sqrt(sum((r - mean) ** 2 for r in rounds) / (len(rounds) - 1))
        assert abs(summary.mean_rounds - mean) <= 5 * sd * math.sqrt(weights)

    def test_join_cycles_by_hand(self):
        # cap 5; cycles (units, failed): a failure at the cap counts, a
        # clean cycle reaching it censors, a cycle passing it censors and is
        # dropped, and units carry over into the next call
        lengths = np.array([2, 1, 1, 3, 2, 3, 4, 2, 6, 1, 1, 3])
        failed = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0], dtype=bool)
        join = engine._join_cycles
        assert join(lengths, failed, 5, 0, 10) == ([2, 5, 2], 3, 3)
        assert join(lengths, failed, 5, 0, 2) == ([2, 5], 0, 0)
        assert join(np.array([2]), np.array([True]), 5, 3, 10) == ([5], 0, 0)
        assert join(np.array([3]), np.array([True]), 5, 3, 10) == ([], 1, 0)
        assert join(np.array([], int), np.array([], bool), 5, 3, 10) == ([], 0, 3)

    def test_cycles_end_past_the_cap(self, s17_sim, monkeypatch):
        # a cycle open after cap units passes the cap whatever precedes it,
        # so its lane ends it: with a probe that ends no cycle, every
        # trajectory is censored after cap + 1 steps
        kernel, steps = s17_sim.kernel, []

        def probe(res):
            steps.append(len(res))
            assert len(steps) <= 4
            never = np.zeros(len(res), dtype=bool)
            return never, never, kernel.incoming(res)

        monkeypatch.setattr(kernel, "probe", probe)
        summary = s17_sim.estimate_lifetime(NoiseModel(1e-3), 5, seed=1, max_rounds=9)
        assert (summary.censored, summary.total_rounds, len(steps)) == (5, 45, 4)

    def test_too_few_rounds_is_an_error(self, s17_sim):
        with pytest.raises(ValueError):
            s17_sim.estimate_lifetime(NoiseModel(5e-3), 10, seed=1, max_rounds=2)
        with pytest.raises(ValueError):
            s17_sim.run_lifetime_fast(NoiseModel(5e-3), seed=1, trajectory=0, max_rounds=2)

    def test_censoring_and_reproducibility(self, s17_sim):
        noise = NoiseModel(5e-3)
        short = s17_sim.estimate_lifetime(noise, 300, seed=8, max_rounds=30)
        assert short.censored > 0 and short.failures > 0
        assert short.total_rounds <= 300 * 30
        assert short == s17_sim.estimate_lifetime(noise, 300, seed=8, max_rounds=30)
        with pytest.raises(ValueError):
            s17_sim.estimate_lifetime(noise, 0, seed=8, max_rounds=30)


class TestFitsAndCounts:
    def test_count_cnot_pairs(self, ssd_sim, s17_sim):
        assert count_cnot_pairs(ssd_sim.circuit) == 54285
        assert count_cnot_pairs(s17_sim.circuit) == 4560

    def test_two_cnots_one_pair(self):
        code = CssCode(
            n=2,
            hx=from_rows([[1, 1]]),
            hz=BitMatrix(rows=(), cols=2),
            logical_x=(),
            logical_z=(),
        )
        sched = CnotSchedule("separate", 2, ((1, "X", 0, 0), (2, "X", 0, 1)))
        circuit = build_ec_circuit(code, sched, rounds=1)
        assert count_cnot_pairs(circuit) == 1

    def test_m_copy_failure(self):
        assert m_copy_failure(0.0, 5) == 0.0
        assert m_copy_failure(0.25, 1) == 0.25
        assert m_copy_failure(0.5, 2) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            m_copy_failure(1.5, 2)
        with pytest.raises(ValueError):
            m_copy_failure(0.5, 0)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(10, 1000)
        assert lo < 0.01 < hi
        assert 0.0 <= lo and hi <= 1.0
        lo0, hi0 = wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 > 0.0

    def test_fit_recovers_synthetic_quadratic(self):
        pts = []
        for p in (1e-4, 3e-4, 1e-3):
            n = 4_000_000
            pts.append(PointEstimate(p, n, round(3000 * p * p * n)))
        fit = fit_quadratic(pts)
        assert fit.c == pytest.approx(3000, rel=0.02)
        assert fit.pstar == pytest.approx(1 / (10 * 3000), rel=0.02)
        assert fit.crossing_pstar == pytest.approx(fit.pstar, rel=1e-6)

    def test_fit_requires_failures(self):
        with pytest.raises(FitError):
            fit_quadratic([PointEstimate(1e-3, 100, 1)])

    def test_fit_skips_saturated_points(self):
        pts = [
            PointEstimate(3e-4, 1_000_000, round(50_000 * 9e-8 * 1_000_000)),
            PointEstimate(3e-3, 1_000_000, 300_000),  # deep saturation
        ]
        fit = fit_quadratic(pts)
        assert fit.points_used == (3e-4,)
        assert fit.c == pytest.approx(50_000, rel=0.05)
        assert fit.dropped == ((3e-3, "saturated"),)

    def test_fit_lists_dropped_points(self):
        pts = [
            PointEstimate(1e-4, 1000, 3),  # too few failures
            PointEstimate(1e-3, 100_000, 400),
            PointEstimate(5e-3, 100_000, 9000),  # beyond p_max
        ]
        fit = fit_quadratic(pts)
        assert fit.points_used == (1e-3,)
        assert fit.dropped == ((1e-4, "too few failures"), (5e-3, "p > p_max"))
        assert fit.as_dict()["dropped"] == [
            {"p": 1e-4, "reason": "too few failures"},
            {"p": 5e-3, "reason": "p > p_max"},
        ]

    def test_fit_falls_back_to_saturated_points_and_says_so(self):
        pts = [PointEstimate(1e-3, 1000, 100), PointEstimate(2e-3, 1000, 5)]
        fit = fit_quadratic(pts)
        assert fit.points_used == (1e-3,)
        assert fit.dropped == ((1e-3, "used as fallback"), (2e-3, "too few failures"))

    def test_csv_roundtrip(self, tmp_path):
        rows = [
            ResultRow("ssd", "exrec", 1e-3, 1000, 51, 0.051, 0.039, 0.066, 7),
            ResultRow("ssd", "exrec", 3e-3, 1000, 310, 0.31, 0.28, 0.34, 7),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(path, rows)
        again = read_results_csv(path)
        assert again == rows
