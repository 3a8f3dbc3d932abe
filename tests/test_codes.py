import random
from pathlib import Path

import pytest

from starqec.codes import (
    CssCode,
    CssConstructionError,
    _check_matrices,
    _low_weight_kernel,
    code_from_complex,
    distance_upto,
    independent_rows,
    verify_logical_basis,
)
from starqec.complexes import build_complex, parse_complex, small_stellated_dodecahedron_complex
from starqec.gf2 import BitVector, RowSpace, mat_vec, rank

from conftest import toric_cplx
from oracles import from_rows, gray_kernel_by_weight, kernel_basis, ssd_triangle_logicals

SQUARE_PATCH = "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\nface 0 1 2 3\n"
SSD_CPLX = Path(__file__).resolve().parent.parent / "benchmarks/inputs/ssd.cplx"


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


def random_complex(rng: random.Random):
    """A random graph on 5-8 vertices whose faces are random nonzero sums of
    its cycle-space basis, so that every face is closed."""
    vertices = rng.randint(5, 8)
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    edges = rng.sample(pairs, rng.randint(vertices, min(len(pairs), 14)))
    graph = build_complex(vertices, edges)
    cycles = [v.bits for v in kernel_basis(_check_matrices(graph)[0])]
    faces = []
    for _ in range(rng.randint(0, len(cycles))):
        face = 0
        while not face:
            for c in cycles:
                face ^= rng.choice((0, c))
        faces.append([e for e in range(len(graph.edges)) if face >> e & 1])
    return build_complex(vertices, list(graph.edges), faces_by_index=faces)


class TestLowWeightKernel:
    """The weight-ordered walk against the Gray-code walk over a kernel basis
    that it replaced: the same elements in the same order, so the logical
    search picks the same representatives."""

    @pytest.mark.parametrize("text, cap", [
        (SSD_CPLX.read_text(), 5),
        (toric_cplx(3, 3), 6),
        (toric_cplx(4, 4), 5),
    ], ids=["ssd", "torus-3x3", "torus-4x4"])
    def test_matches_gray_walk(self, text, cap):
        for checks in _check_matrices(parse_complex(text)):
            walk = list(_low_weight_kernel(checks, cap))
            assert walk and walk == gray_kernel_by_weight(checks, cap)

    def test_matches_gray_walk_on_random_complexes(self):
        rng = random.Random(1717)
        for _ in range(40):
            cx = random_complex(rng)
            for checks in _check_matrices(cx):
                cap = rng.randint(1, cx.edge_count)
                walk = list(_low_weight_kernel(checks, cap))
                assert walk == gray_kernel_by_weight(checks, cap)

    def test_refuses_logicals_past_the_search_bound(self):
        # the 5x5 torus needs weight-5 logicals: 2,369,935 supports on 50 qubits
        with pytest.raises(CssConstructionError, match=r"up to weight 5 on 50 qubits.*\(2\^20\)"):
            code_from_complex(parse_complex(toric_cplx(5, 5)))

    def test_torus_4x4(self):
        code = code_from_complex(parse_complex(toric_cplx(4, 4)))
        assert (code.n, code.k) == (32, 2)
        assert verify_logical_basis(code).all_ok
        assert distance_upto(code, 5) == (4, 4)
        assert distance_upto(code, 3) == (None, None)


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
        pairing, dependent = report.failures
        assert pairing.startswith("pairing <X[0], Z[0]>") and "Z is dependent" in dependent

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
        assert report.failures and all(f.startswith("pairing") for f in report.failures)


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
