import numpy as np
import pytest

from starqec.gf2 import BitVector, RowSpace, kernel_basis, mat_vec, rank, symplectic_product

from oracles import from_rows, identity, naive_kernel, naive_rank, to_dense


def test_rank_identity():
    assert rank(identity(30)) == 30


def test_rank_duplicate_rows():
    m = from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert rank(m) == 2


def test_rank_ssd_hx(ssd_code):
    assert rank(ssd_code.hx) == 11


def test_kernel_identity_empty():
    assert kernel_basis(identity(5)) == []


def test_kernel_zero_matrix():
    m = from_rows([[0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 3


def test_kernel_ssd(ssd_code):
    basis = kernel_basis(ssd_code.hx)
    assert len(basis) == 30 - naive_rank(to_dense(ssd_code.hx))
    for v in basis:
        assert mat_vec(ssd_code.hx, v).bits == 0


def test_rank_kernel_vs_naive_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        rows = rng.integers(2, 24)
        cols = rng.integers(2, 24)
        dense = rng.integers(0, 2, size=(rows, cols))
        m = from_rows(dense.tolist())
        assert rank(m) == naive_rank(dense)
        basis = kernel_basis(m)
        oracle = naive_kernel(dense)
        assert len(basis) == len(oracle) == cols - naive_rank(dense)
        for v, ov in zip(basis, oracle):
            assert list(v) == ov.tolist()
        # rank-nullity and membership
        for v in basis:
            assert mat_vec(m, v).bits == 0


def test_mat_vec_zero(ssd_code):
    zero = BitVector(30)
    assert mat_vec(ssd_code.hx, zero).bits == 0


def test_mat_vec_dimension_mismatch():
    m = identity(4)
    with pytest.raises(ValueError):
        mat_vec(m, BitVector(5))


def test_single_z_error_flags_edge_endpoints(ssd_code):
    # a Z error on edge (0,6) is seen exactly by the X-checks at vertices 0 and 6
    q = ssd_code.complex.edge_index(0, 6)
    syn = mat_vec(ssd_code.hx, BitVector.from_support(30, [q]))
    assert syn.support() == [0, 6]


def test_logical_x_commutes_with_hz(ssd_code):
    for lx in ssd_code.logical_x:
        assert mat_vec(ssd_code.hz, lx).bits == 0


def test_symplectic_product_basic():
    a = BitVector.from_support(6, [0, 2])
    b = BitVector.from_support(6, [3, 4])
    assert symplectic_product(a, b) == 0
    c = BitVector.from_support(6, [2, 3])
    assert symplectic_product(a, c) == 1
    with pytest.raises(ValueError):
        symplectic_product(a, BitVector(5))


def test_symplectic_symmetric_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        u = BitVector(n, int(rng.integers(0, 1 << n)))
        v = BitVector(n, int(rng.integers(0, 1 << n)))
        w = BitVector(n, int(rng.integers(0, 1 << n)))
        assert symplectic_product(u, v) == symplectic_product(v, u)
        assert (
            symplectic_product(u ^ v, w)
            == symplectic_product(u, w) ^ symplectic_product(v, w)
        )


def test_table2_pairing(ssd_code):
    for i, lx in enumerate(ssd_code.logical_x):
        for j, lz in enumerate(ssd_code.logical_z):
            assert symplectic_product(lx, lz) == (1 if i == j else 0)


def test_rowspace_membership():
    m = from_rows([[1, 1, 0, 0], [0, 1, 1, 0]])
    space = RowSpace.of_matrix(m)
    assert space.rank == 2
    assert space.contains(0b0011)  # row0 ^ row1 = qubits {0,2}
    assert not space.contains(0b1000)


def test_bitvector_xor_and_weight():
    a = BitVector.from_support(8, [1, 3])
    b = BitVector.from_support(8, [3, 5])
    assert (a ^ b).support() == [1, 5]
    assert a.weight() == 2
    with pytest.raises(ValueError):
        a ^ BitVector(7)
