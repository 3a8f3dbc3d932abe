import hashlib
from itertools import combinations, product

import numpy as np
import pytest

from starqec.circuits import build_ec_circuit
from starqec.codes import code_from_complex
from starqec.complexes import build_complex
from starqec.decoder import (
    MAX_TABLE_ENTRIES,
    DecoderBuildError,
    build_lookup_table,
    build_tables,
    ec_decision,
    ec_decisions,
    format_table,
)
from starqec.faulttol import (
    builtin_schedule,
    enumerate_single_fault_errors,
    verify_unique_syndromes,
)
from starqec.gf2 import RowSpace
from starqec.scheduling import build_check_graph, dsatur_color, schedule_from_colorings

from oracles import ideal_decode
from test_faulttol import reordered_ssd_schedule


def grid_complex(rows: int, cols: int):
    """A planar patch of rows x cols square faces: rows * cols independent
    Z checks, so a full X-error table needs 2^(rows * cols) entries."""
    v = lambda r, c: r * (cols + 1) + c
    edges = [(v(r, c), v(r, c + 1)) for r in range(rows + 1) for c in range(cols)]
    edges += [(v(r, c), v(r + 1, c)) for r in range(rows) for c in range(cols + 1)]
    faces = [
        [(v(r, c), v(r, c + 1)), (v(r + 1, c), v(r + 1, c + 1)),
         (v(r, c), v(r + 1, c)), (v(r, c + 1), v(r + 1, c + 1))]
        for r in range(rows) for c in range(cols)
    ]
    return build_complex((rows + 1) * (cols + 1), edges, faces_by_pairs=faces,
                         name=f"grid-{rows}x{cols}")


def colored_schedule(code):
    """A valid sequential schedule from one DSATUR coloring per check type."""
    return schedule_from_colorings(
        code, dsatur_color(build_check_graph(code, "X")), dsatur_color(build_check_graph(code, "Z"))
    )


@pytest.fixture(scope="module")
def ssd_tables(ssd_code):
    return build_tables(build_ec_circuit(ssd_code, builtin_schedule("ssd"), rounds=1))


@pytest.fixture(scope="module")
def s17_tables(s17_code):
    return build_tables(build_ec_circuit(s17_code, builtin_schedule("surface17"), rounds=1))


class TestTableConstruction:
    def test_sizes(self, ssd_tables, s17_tables):
        assert ssd_tables["Z"].syndrome_count == 2048
        assert ssd_tables["X"].syndrome_count == 2048
        assert s17_tables["Z"].syndrome_count == 16
        assert s17_tables["X"].syndrome_count == 16

    def test_trivial_syndrome_identity_correction(self, ssd_tables):
        assert ssd_tables["Z"].correction(0) == 0
        assert ssd_tables["X"].correction(0) == 0

    def test_consistency_every_entry(self, ssd_tables, s17_tables):
        for tables in (ssd_tables, s17_tables):
            for table in tables.values():
                for s in range(table.syndrome_count):
                    assert table.syndrome_of(table.correction(s)) == s

    def test_minimality_at_low_weight(self, s17_tables, s17_code):
        # no error of weight <= 2 may beat its syndrome's table entry
        for table in s17_tables.values():
            best = {}
            for w in (1, 2):
                for support in combinations(range(s17_code.n), w):
                    e = 0
                    for q in support:
                        e |= 1 << q
                    s = table.syndrome_of(e)
                    best[s] = min(best.get(s, 99), w)
            for s, w in best.items():
                assert table.correction(s).bit_count() <= w

    def test_fault_derived_entries_logically_equivalent(
        self, ssd_code, ssd_tables, s17_code, s17_tables
    ):
        for code, tables, name in (
            (ssd_code, ssd_tables, "ssd"),
            (s17_code, s17_tables, "surface17"),
        ):
            circuit = build_ec_circuit(code, builtin_schedule(name), rounds=1)
            for kind in ("X", "Z"):
                stab = RowSpace.of_matrix(code.checks(kind))
                table = tables[kind]
                for r in enumerate_single_fault_errors(circuit, kind):
                    if r and r.bit_count() <= 2:
                        assert stab.contains(table.correction(table.syndrome_of(r)) ^ r)

    def test_requires_unique_syndromes(self, ssd_code):
        # inputs: a fresh circuit, and a circuit whose failing report is
        # already memoized; its collisions are all Z-type, yet the X table
        # is refused too
        fresh = build_ec_circuit(ssd_code, reordered_ssd_schedule(), rounds=1)
        checked = build_ec_circuit(ssd_code, reordered_ssd_schedule(), rounds=1)
        report = verify_unique_syndromes(checked)
        assert report.collisions["Z"] and not report.collisions["X"]
        for circuit, kind in ((fresh, "Z"), (checked, "Z"), (checked, "X")):
            with pytest.raises(DecoderBuildError):
                build_lookup_table(circuit, kind)
        assert verify_unique_syndromes(checked) is report

    def test_table_size_bounded(self, monkeypatch):
        # 25 measured Z checks: 2^25 X-error syndromes, past the 2^20 bound;
        # refused before the unique-syndrome check and any table allocation
        code = code_from_complex(grid_complex(5, 5))
        schedule = colored_schedule(code)

        def not_reached(*args, **kwargs):
            raise AssertionError("unique-syndrome check ran before the size check")

        monkeypatch.setattr("starqec.decoder.verify_unique_syndromes", not_reached)
        assert MAX_TABLE_ENTRIES == 1 << 20
        with pytest.raises(DecoderBuildError, match=r"2\^25 entries"):
            build_lookup_table(build_ec_circuit(code, schedule, rounds=1), "X")

    def test_dump_format_stable(self, s17_code):
        sched = builtin_schedule("surface17")
        a = format_table(build_lookup_table(build_ec_circuit(s17_code, sched, 1), "Z"))
        b = format_table(build_lookup_table(build_ec_circuit(s17_code, sched, 1), "Z"))
        assert a == b
        lines = a.splitlines()
        assert lines[0] == "# kind Z"
        assert len([l for l in lines if not l.startswith("#")]) == 16
        syndrome, correction = lines[4].split()
        assert int(syndrome, 16) == 0 and int(correction, 16) == 0


class TestDecision:
    def test_two_trivial_no_correction(self):
        assert ec_decision(0, 0, 5).source == "none"
        assert ec_decision(0, 5, 0).source == "none"
        assert ec_decision(5, 0, 0).source == "none"
        assert ec_decision(0, 0, 0).source == "none"

    def test_repeated_syndrome_wins(self):
        d = ec_decision(5, 5, 7)
        assert (d.source, d.syndrome) == ("repeated", 5)
        d = ec_decision(3, 5, 5)
        assert (d.source, d.syndrome) == ("repeated", 5)
        d = ec_decision(5, 3, 5)
        assert (d.source, d.syndrome) == ("repeated", 5)
        d = ec_decision(0, 5, 5)
        assert (d.source, d.syndrome) == ("repeated", 5)

    def test_all_distinct_uses_last(self):
        d = ec_decision(1, 2, 3)
        assert (d.source, d.syndrome) == ("last", 3)
        d = ec_decision(0, 2, 3)
        assert (d.source, d.syndrome) == ("last", 3)

    def test_array_rule_matches_scalar_on_every_triple(self):
        triples = np.array(list(product(range(5), repeat=3)), dtype=np.uint64)
        got = ec_decisions(*triples.T)
        want = [ec_decision(*map(int, t)).syndrome for t in triples]
        assert got.tolist() == want


class TestIdealDecode:
    def test_identity_passes(self, ssd_code, ssd_tables):
        out = ideal_decode(ssd_code, ssd_tables["Z"], 0)
        assert not out.failed and out.afflicted == ()

    def test_stabilizer_rows_pass(self, ssd_code, ssd_tables):
        for row in ssd_code.hz.rows:
            out = ideal_decode(ssd_code, ssd_tables["Z"], row)
            assert not out.failed
        for row in ssd_code.hx.rows:
            out = ideal_decode(ssd_code, ssd_tables["X"], row)
            assert not out.failed

    def test_logical_z1_hits_logical_qubit_one(self, ssd_code, ssd_tables):
        out = ideal_decode(ssd_code, ssd_tables["Z"], ssd_code.logical_z[0].bits)
        assert out.failed
        assert out.afflicted == (0,)

    def test_single_qubit_errors_corrected(self, ssd_code, ssd_tables):
        for q in range(ssd_code.n):
            out = ideal_decode(ssd_code, ssd_tables["Z"], 1 << q)
            assert not out.failed


# SHA-256 of format_table for the built-in codes: a change in the order the
# fault-derived residuals override entries cannot silently change a table.
GOLDEN_TABLES = {
    ("ssd_sim", "X"): "a6217a36a433f39269f7bed482f89a60b6a30a760ff320da0991ff0af2aac305",
    ("ssd_sim", "Z"): "adebcb6ef06ad25f6449d81b4b88c80d268ed046f1eb5b78f82f0d8a17fb8c70",
    ("s17_sim", "X"): "3d94044995f5fa83bf9c3d9fbd136c21d05407dcb81dd54bee445df25ab5030d",
    ("s17_sim", "Z"): "b1c4bb2d5e84e4543344ba55ea9c57d8b3d4ada8f414f5d70258c97b4c47eb6b",
}


@pytest.mark.parametrize("sim_name, kind", sorted(GOLDEN_TABLES))
def test_builtin_tables_match_golden_digests(request, sim_name, kind):
    table = request.getfixturevalue(sim_name).tables[kind]
    digest = hashlib.sha256(format_table(table).encode()).hexdigest()
    assert digest == GOLDEN_TABLES[sim_name, kind]
