import pytest

from starqec.codes import (
    CssCode,
    CssConstructionError,
    code_from_complex,
    distance_upto,
    independent_rows,
    verify_logical_basis,
)
from starqec.complexes import parse_complex, small_stellated_dodecahedron_complex
from starqec.gf2 import BitVector, RowSpace, mat_vec, rank

from oracles import from_rows, ssd_triangle_logicals

SQUARE_PATCH = "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2 3\n"


class TestSsd:
    def test_parameters(self, ssd_code):
        assert ssd_code.n == 30
        assert ssd_code.k == 8
        assert len(ssd_code.hx.rows) == len(ssd_code.hz.rows) == 12
        assert set(ssd_code.x_check_weights()) == {5}
        assert set(ssd_code.z_check_weights()) == {5}
        assert rank(ssd_code.hx) == rank(ssd_code.hz) == 11

    def test_qubit_degrees(self, ssd_code):
        for q in range(30):
            bit = 1 << q
            assert sum(1 for r in ssd_code.hx.rows if r & bit) == 2
            assert sum(1 for r in ssd_code.hz.rows if r & bit) == 2

    def test_product_of_all_x_checks_is_identity(self, ssd_code):
        acc = 0
        for r in ssd_code.hx.rows:
            acc ^= r
        assert acc == 0

    def test_logical_z1_has_zero_syndrome(self, ssd_code):
        assert mat_vec(ssd_code.hx, ssd_code.logical_z[0]).bits == 0

    def test_logical_basis_report(self, ssd_code):
        report = verify_logical_basis(ssd_code)
        assert report.all_ok, report.failures

    def test_five_triangles_product_is_z_check_11(self, ssd_code):
        tris = ssd_triangle_logicals(ssd_code, around_vertex=11)
        assert len(tris) == 5
        acc = 0
        for t in tris:
            acc ^= t.bits
        assert acc == ssd_code.hz.rows[11]

    def test_triangles_are_nontrivial_logicals(self, ssd_code):
        stab = RowSpace.of_matrix(ssd_code.hz)
        for t in ssd_triangle_logicals(ssd_code):
            assert mat_vec(ssd_code.hx, t).bits == 0
            assert not stab.contains(t.bits)

    def test_triangle_overlap_with_z_checks_at_most_one(self, ssd_code):
        for t in ssd_triangle_logicals(ssd_code):
            for r in ssd_code.hz.rows:
                assert (t.bits & r).bit_count() <= 1

    def test_distance_three(self, ssd_code):
        assert distance_upto(ssd_code, 4) == (3, 3)

    def test_no_weight_two_z_error_has_zero_syndrome(self, ssd_code):
        from itertools import combinations

        for a, b in combinations(range(30), 2):
            bits = (1 << a) | (1 << b)
            assert any((bits & r).bit_count() & 1 for r in ssd_code.hx.rows)


class TestSurface17:
    def test_parameters(self, s17_code):
        assert s17_code.n == 9
        assert s17_code.k == 1
        assert len(s17_code.hx.rows) == len(s17_code.hz.rows) == 4
        assert rank(s17_code.hx) == rank(s17_code.hz) == 4
        # every ancilla does 4 CNOTs per round: all generators weight 4
        assert set(s17_code.x_check_weights()) == {4}
        assert set(s17_code.z_check_weights()) == {4}

    def test_css_condition(self, s17_code):
        for rx in s17_code.hx.rows:
            for rz in s17_code.hz.rows:
                assert (rx & rz).bit_count() % 2 == 0

    def test_distance(self, s17_code):
        assert distance_upto(s17_code, 5) == (3, 3)

    def test_logical_basis(self, s17_code):
        assert verify_logical_basis(s17_code).all_ok

    def test_boundary_weight_two_elements_are_stabilizers(self, s17_code):
        # the standard rotated-code weight-2 boundary checks are products of
        # our weight-4 generators (same stabilizer group)
        x_space = RowSpace.of_matrix(s17_code.hx)
        assert x_space.contains(0b000000110)  # {1,2}
        assert x_space.contains(0b011000000)  # {6,7}
        z_space = RowSpace.of_matrix(s17_code.hz)
        assert z_space.contains(0b000001001)  # {0,3}
        assert z_space.contains(0b100100000)  # {5,8}


class TestCodeFromComplex:
    def test_ssd_row_spaces_match_builtin(self, ssd_code):
        generic = code_from_complex(small_stellated_dodecahedron_complex())
        assert generic.n == 30 and generic.k == 8
        assert RowSpace.of_matrix(generic.hx)._pivots == RowSpace.of_matrix(ssd_code.hx)._pivots
        assert RowSpace.of_matrix(generic.hz)._pivots == RowSpace.of_matrix(ssd_code.hz)._pivots
        assert verify_logical_basis(generic).all_ok
        assert set(generic.x_check_weights()) == {5}

    def test_square_patch_has_no_logical_qubits(self):
        code = code_from_complex(parse_complex(SQUARE_PATCH))
        assert code.n == 4
        assert code.k == 0
        assert code.logical_x == () and code.logical_z == ()

    def test_weight_cap_too_small(self):
        with pytest.raises(CssConstructionError):
            code_from_complex(small_stellated_dodecahedron_complex(), weight_cap=2)


class TestVerifyLogicalBasis:
    def test_stabilizer_replacing_logical_fails_independence(self, ssd_code):
        mutated = CssCode(
            n=30,
            hx=ssd_code.hx,
            hz=ssd_code.hz,
            logical_x=ssd_code.logical_x,
            logical_z=(BitVector(30, ssd_code.hz.rows[0]),) + ssd_code.logical_z[1:],
            name="mutated",
        )
        report = verify_logical_basis(mutated)
        assert not report.all_ok
        assert not report.z_independent_ok or not report.pairing_ok

    def test_swapped_pairing_fails(self, ssd_code):
        lz = list(ssd_code.logical_z)
        lz[0], lz[1] = lz[1], lz[0]
        mutated = CssCode(
            n=30,
            hx=ssd_code.hx,
            hz=ssd_code.hz,
            logical_x=ssd_code.logical_x,
            logical_z=tuple(lz),
            name="mutated",
        )
        report = verify_logical_basis(mutated)
        assert not report.pairing_ok


def test_non_commuting_checks_rejected():
    with pytest.raises(CssConstructionError) as err:
        CssCode(
            n=3,
            hx=from_rows([[1, 1, 0]]),
            hz=from_rows([[1, 0, 1]]),
            logical_x=(),
            logical_z=(),
        )
    assert "X-check 0" in str(err.value)


def test_independent_rows_drops_dependent(ssd_code):
    kept = independent_rows(ssd_code.hx)
    assert len(kept) == 11
    assert kept == list(range(11))  # the final check is the dependent one


def test_distance_exceeds_cap():
    # the square patch has no logical operators at all: no distance witness
    code = code_from_complex(parse_complex(SQUARE_PATCH))
    assert distance_upto(code, 3) == (None, None)
