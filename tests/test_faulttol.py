import hashlib
import time

import pytest

from starqec import faulttol
from starqec.circuits import build_ec_circuit
from starqec.codes import code_from_complex, get_builtin_code, independent_rows
from starqec.complexes import parse_complex
from starqec.engine import Simulator
from starqec.faulttol import (
    builtin_schedule,
    enumerate_single_fault_errors,
    find_fault_tolerant_schedule,
    find_interleaved_schedule,
    verify_unique_syndromes,
    _side_residuals,
)
from starqec.gf2 import RowSpace
from starqec.scheduling import CnotSchedule, format_schedule, verify_properness

from conftest import toric_cplx
from oracles import check_order, single_fault_atoms


def reordered_ssd_schedule():
    """A valid SSD schedule whose Z-check-0 CNOT order creates two weight-2
    errors with the same syndrome that are not logically equivalent."""
    good = builtin_schedule("ssd")
    perm = (0, 1, 3, 2, 4)
    entries = sorted(
        (i for i, e in enumerate(good.cnots) if e[1] == "Z" and e[2] == 0),
        key=lambda i: good.cnots[i][0],
    )
    steps = [good.cnots[i][0] for i in entries]
    qubits = [good.cnots[i][3] for i in entries]
    cand = list(good.cnots)
    for i, s, k in zip(entries, steps, perm):
        cand[i] = (s, "Z", 0, qubits[k])
    return CnotSchedule("separate", good.steps, tuple(sorted(cand)))


class TestEnumeration:
    def test_all_residuals_weight_at_most_two(self, ssd_code, s17_code):
        for code, name in ((ssd_code, "ssd"), (s17_code, "surface17")):
            circuit = build_ec_circuit(code, builtin_schedule(name), rounds=1)
            for kind in ("X", "Z"):
                residuals = enumerate_single_fault_errors(circuit, kind)
                assert max(r.bit_count() for r in residuals) <= 2

    @pytest.mark.parametrize("name", ["ssd", "surface17", 3, 4])
    def test_table_is_distinct_atom_residuals(self, name):
        # the table holds each atom's residual once, in the order the
        # (location, value) atoms first give it; the l x l tori are built
        # from their complex files with a searched schedule
        if isinstance(name, int):
            code = code_from_complex(parse_complex(toric_cplx(name, name)))
            schedule = find_fault_tolerant_schedule(code).schedule
        else:
            code, schedule = get_builtin_code(name), builtin_schedule(name)
        circuit = build_ec_circuit(code, schedule, rounds=1)
        for kind in ("X", "Z"):
            atoms = single_fault_atoms(circuit, kind)
            want = tuple(dict.fromkeys(r for _loc, _value, r in atoms))
            assert enumerate_single_fault_errors(circuit, kind) == want

    @pytest.mark.parametrize("name", ["ssd", "surface17"])
    def test_build_and_verify_enumerate_each_kind_once(self, monkeypatch, name):
        # the enumeration is memoized per (circuit, kind), and an uncached
        # pass reads the circuit's signatures once: the tables, the
        # unique-syndrome check and condition 1 share one pass per kind;
        # the unique-syndrome check is memoized on the circuit, so its
        # grouping of the residuals runs once per kind
        passes, groupings = [], []
        signatures, collisions = faulttol.compute_signatures, faulttol._collisions

        def counted(circuit):
            passes.append(circuit)
            return signatures(circuit)

        def counted_collisions(code, kind, *args):
            groupings.append(kind)
            return collisions(code, kind, *args)

        monkeypatch.setattr(faulttol, "compute_signatures", counted)
        monkeypatch.setattr(faulttol, "_collisions", counted_collisions)
        sim = Simulator.for_builtin(name)
        assert sim.verify().ok
        assert len(passes) == 2
        assert all(circuit is sim.unit_circuit for circuit in passes)
        assert sorted(groupings) == ["X", "Z"]

    def test_circuit_enumeration_matches_closed_form(self, ssd_code):
        # the per-check suffix classes predict exactly the nonzero residuals
        # that circuit-level propagation produces
        sched = builtin_schedule("ssd")
        measured = independent_rows(ssd_code.hz)
        orders = {r: [q for _s, q in check_order(sched, "Z", r)] for r in range(12)}
        predicted = _side_residuals(ssd_code, "Z", measured, orders)
        enumerated = set(enumerate_single_fault_errors(build_ec_circuit(ssd_code, sched, 1), "Z"))
        assert enumerated - {0} == predicted


class TestUniqueness:
    def test_shipped_schedules_pass(self, ssd_code, s17_code):
        ssd = build_ec_circuit(ssd_code, builtin_schedule("ssd"), rounds=1)
        s17 = build_ec_circuit(s17_code, builtin_schedule("surface17"), rounds=1)
        assert verify_unique_syndromes(ssd).ok
        assert verify_unique_syndromes(s17).ok

    def test_reordered_schedule_fails_with_witness(self, ssd_code):
        bad = reordered_ssd_schedule()
        bad.validate_against(ssd_code)  # still a valid schedule
        report = verify_unique_syndromes(build_ec_circuit(ssd_code, bad, rounds=1))
        assert not report.ok
        syndrome, err_a, err_b = report.collisions["Z"][0]
        # the colliding pair really shares a syndrome and is not equivalent
        det = tuple(ssd_code.hx.rows[j] for j in independent_rows(ssd_code.hx))

        def syn(e):
            return sum(
                1 << i for i, row in enumerate(det) if (row & e).bit_count() & 1
            )

        assert syn(err_a) == syn(err_b) == syndrome
        assert not RowSpace.of_matrix(ssd_code.hz).contains(err_a ^ err_b)
        assert err_a.bit_count() <= 2 and err_b.bit_count() <= 2


class TestSearch:
    def test_ssd_search_within_budget(self, ssd_code):
        start = time.time()
        res = find_fault_tolerant_schedule(ssd_code)
        assert time.time() - start < 10.0
        assert res.colors_x == res.colors_z == 5
        assert res.method == {"X": "dsatur", "Z": "dsatur"}
        assert res.schedule.steps == 10
        assert verify_unique_syndromes(build_ec_circuit(ssd_code, res.schedule, 1)).ok
        assert verify_properness(ssd_code, res.schedule).ok
        # the search reproduces the shipped schedule on its third coloring
        assert res.schedule == builtin_schedule("ssd")
        assert res.attempts == 3

    def test_surface17_search(self, s17_code):
        res = find_fault_tolerant_schedule(s17_code)
        assert res.schedule.steps == 8
        assert verify_unique_syndromes(build_ec_circuit(s17_code, res.schedule, 1)).ok
        # pinned: the backtracking fallback finds this schedule after 84 colorings
        digest = hashlib.sha256(format_schedule(res.schedule).encode()).hexdigest()
        assert digest.startswith("50383921610dcc5f")
        assert res.attempts == 84

    def test_search_is_deterministic(self, s17_code):
        a = find_fault_tolerant_schedule(s17_code)
        b = find_fault_tolerant_schedule(s17_code)
        assert a.schedule == b.schedule
        assert a.attempts == b.attempts

    @pytest.mark.parametrize("name,best", [("ssd", 5), ("surface17", 8), (3, 4), (4, 4)])
    def test_interleaved_search_finds_nothing_at_default_budget(self, name, best):
        # the l x l tori are built from their complex files
        if isinstance(name, int):
            code = code_from_complex(parse_complex(toric_cplx(name, name)))
        else:
            code = get_builtin_code(name)
        start = time.perf_counter()
        res = find_interleaved_schedule(code)
        assert time.perf_counter() - start < 10.0
        assert (res.schedule, res.best_colors, res.attempts) == (None, best, 200)
        assert not res.proper

    def test_interleaved_search_finds_square_patch_schedule(self):
        # one weight-4 Z check over four weight-2 X checks: the 43rd coloring
        # has a proper relabeling with unique syndromes
        text = "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2 3\n"
        code = code_from_complex(parse_complex(text))
        res = find_interleaved_schedule(code)
        assert (res.best_colors, res.attempts, res.proper) == (4, 43, True)
        digest = hashlib.sha256(format_schedule(res.schedule).encode()).hexdigest()
        assert digest.startswith("85070a5714895bb1")
        assert verify_properness(code, res.schedule).ok
        assert verify_unique_syndromes(build_ec_circuit(code, res.schedule, 1)).ok

    def test_interleaved_search_smoke(self, s17_code):
        res = find_interleaved_schedule(s17_code)
        assert res.attempts >= 1
        if res.schedule is not None:
            assert verify_properness(s17_code, res.schedule).ok
            assert verify_unique_syndromes(build_ec_circuit(s17_code, res.schedule, 1)).ok


def test_builtin_schedules_validate(ssd_code, s17_code):
    builtin_schedule("ssd").validate_against(ssd_code)
    builtin_schedule("surface17").validate_against(s17_code)
