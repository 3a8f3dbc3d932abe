"""CSS code construction: generic homological codes from 2-complexes plus the
built-in small stellated dodecahedron [[30,8,3]] and Surface-17 [[9,1,3]] codes."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import comb
from typing import Iterator

from .complexes import CellComplex2D, small_stellated_dodecahedron_complex
from .gf2 import BitMatrix, BitVector, RowSpace, mat_vec, rank, symplectic_product


# Supports a kernel search may visit, in the logical search and in
# distance_upto: SSD's 30 qubits up to weight 6 are 768,211.
MAX_SEARCH_SUPPORTS = 1 << 20


class CssConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class CssCode:
    """A CSS code: X/Z parity-check matrices plus paired logical operator bases."""

    n: int
    hx: BitMatrix
    hz: BitMatrix
    logical_x: tuple[BitVector, ...]
    logical_z: tuple[BitVector, ...]
    name: str = ""
    complex: CellComplex2D | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.hx.cols != self.n or self.hz.cols != self.n:
            raise CssConstructionError("check matrix width does not match qubit count")
        for i, rx in enumerate(self.hx.rows):
            for j, rz in enumerate(self.hz.rows):
                if (rx & rz).bit_count() & 1:
                    raise CssConstructionError(
                        f"X-check {i} anticommutes with Z-check {j}"
                    )

    @property
    def k(self) -> int:
        return self.n - rank(self.hx) - rank(self.hz)

    def x_check_weights(self) -> list[int]:
        return [r.bit_count() for r in self.hx.rows]

    def z_check_weights(self) -> list[int]:
        return [r.bit_count() for r in self.hz.rows]

    def checks(self, kind: str) -> BitMatrix:
        if kind == "X":
            return self.hx
        if kind == "Z":
            return self.hz
        raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")


def independent_rows(m: BitMatrix) -> list[int]:
    """Indices of a maximal independent subset of rows (greedy, first-come)."""
    space = RowSpace()
    kept = []
    for i, row in enumerate(m.rows):
        if space.add(row):
            kept.append(i)
    return kept


def _low_weight_kernel(checks: BitMatrix, w_max: int) -> Iterator[int]:
    """The nonzero elements of the kernel of ``checks`` (packed ints with even
    overlap with every row) of weight <= w_max, in (weight, value) order.
    Gosper's step walks each weight's supports in increasing value; each
    weight is checked against ``MAX_SEARCH_SUPPORTS`` before it starts, so a
    caller that stops early never pays for the weights beyond."""
    rows, n = checks.rows, checks.cols
    supports = 0
    for w in range(1, min(w_max, n) + 1):
        supports += comb(n, w)
        if supports > MAX_SEARCH_SUPPORTS:
            raise CssConstructionError(
                f"a kernel search up to weight {w} on {n} qubits visits {supports} supports; "
                f"the bound is {MAX_SEARCH_SUPPORTS} (2^20)"
            )
        v = (1 << w) - 1
        while not v >> n:
            if not any((v & r).bit_count() & 1 for r in rows):
                yield v
            low = v & -v
            ripple = v + low
            v = (((ripple ^ v) >> 2) // low) | ripple


def _coset_representatives(
    checks: BitMatrix, stabilizers: BitMatrix, k: int, weight_cap: int
) -> list[int]:
    """Pick k minimum-weight elements of the kernel of ``checks`` that are
    independent modulo the stabilizer rows: the first k that enlarge their span."""
    space = RowSpace.of_matrix(stabilizers)
    picked = list(islice(filter(space.add, _low_weight_kernel(checks, weight_cap)), k))
    if len(picked) < k:
        raise CssConstructionError(
            f"found only {len(picked)} of {k} logical representatives with weight <= {weight_cap}; "
            "raise the weight cap"
        )
    return picked


def _pair_symplectically(xs: list[int], zs: list[int]) -> tuple[list[int], list[int]]:
    """Transform two logical bases so that <x_i, z_j> = delta_ij."""
    k = len(xs)
    for i in range(k):
        found = None
        for a in range(i, k):
            for b in range(i, k):
                if (xs[a] & zs[b]).bit_count() & 1:
                    found = (a, b)
                    break
            if found:
                break
        if found is None:
            raise CssConstructionError("logical bases are not symplectically complete")
        a, b = found
        xs[i], xs[a] = xs[a], xs[i]
        zs[i], zs[b] = zs[b], zs[i]
        for c in range(k):
            if c != i and (xs[c] & zs[i]).bit_count() & 1:
                xs[c] ^= xs[i]
            if c != i and (xs[i] & zs[c]).bit_count() & 1:
                zs[c] ^= zs[i]
    return xs, zs


def _check_matrices(c: CellComplex2D) -> tuple[BitMatrix, BitMatrix]:
    """(hx, hz) of a complex: one X-check per vertex (its incident edges) and
    one Z-check per face (its edge set)."""
    hx = BitMatrix.from_supports([c.vertex_star(v) for v in range(c.vertex_count)], c.edge_count)
    return hx, BitMatrix.from_supports(c.faces, c.edge_count)


def code_from_complex(c: CellComplex2D, weight_cap: int = 8) -> CssCode:
    """Homological CSS code of a 2-complex.

    Qubits on edges; one Z-check per face (its edge set); one X-check per
    vertex (its incident edges). Logical operators are minimum-weight coset
    representatives found by searching the check kernels up to ``weight_cap``.
    """
    n = c.edge_count
    hx, hz = _check_matrices(c)
    k = n - rank(hx) - rank(hz)
    logical_x, logical_z = _pair_symplectically(
        _coset_representatives(hz, hx, k, weight_cap), _coset_representatives(hx, hz, k, weight_cap)
    )
    return CssCode(
        n=n,
        hx=hx,
        hz=hz,
        logical_x=tuple(BitVector(n, v) for v in logical_x),
        logical_z=tuple(BitVector(n, v) for v in logical_z),
        name=c.name or "complex-code",
        complex=c,
    )


# Logical operator bases for the small stellated dodecahedron, by edge label.
SSD_LOGICAL_Z_EDGES = (
    ((0, 6), (0, 8), (6, 8)),
    ((0, 7), (0, 9), (7, 9)),
    ((0, 8), (0, 10), (8, 10)),
    ((1, 7), (1, 10), (7, 10)),
    ((2, 5), (2, 6), (5, 6)),
    ((3, 7), (3, 9), (7, 9)),
    ((5, 6), (5, 9), (6, 9)),
    ((0, 8), (0, 9), (6, 8), (6, 9)),
)
SSD_LOGICAL_X_EDGES = (
    ((0, 6), (2, 4), (3, 5)),
    ((0, 7), (1, 4), (3, 5)),
    ((0, 10), (1, 3), (2, 4)),
    ((1, 7), (4, 8), (5, 11)),
    ((2, 6), (3, 11), (4, 10)),
    ((2, 4), (3, 5), (3, 7), (4, 10)),
    ((1, 11), (2, 8), (5, 9)),
    ((0, 6), (0, 10), (1, 3), (1, 11), (3, 5), (5, 11), (6, 8), (8, 10)),
)


def builtin_ssd() -> CssCode:
    """The small stellated dodecahedron code [[30,8,3]].

    Qubits on the 30 icosahedron edges; a weight-5 X-check at each of the 12
    vertices; a weight-5 Z-check on each pentagrammic face (the induced cycle
    on a vertex's neighborhood). Ships the standard logical bases.
    """
    c = small_stellated_dodecahedron_complex()
    n = c.edge_count
    hx, hz = _check_matrices(c)

    def op(edge_list):
        return BitVector.from_support(n, [c.edge_index(u, v) for u, v in edge_list])

    return CssCode(
        n=n,
        hx=hx,
        hz=hz,
        logical_x=tuple(op(e) for e in SSD_LOGICAL_X_EDGES),
        logical_z=tuple(op(e) for e in SSD_LOGICAL_Z_EDGES),
        name="ssd",
        complex=c,
    )


# Surface-17 (rotated distance-3 surface code) on a 3x3 data-qubit grid,
# presented with eight weight-4 stabilizer generators. The two weight-2
# boundary checks of each type are folded into neighboring plaquettes
# (same stabilizer group), so every ancilla performs 4 CNOTs per round.
SURFACE17_HX = ((0, 1, 3, 4), (4, 5, 7, 8), (0, 2, 3, 4), (4, 5, 6, 8))
SURFACE17_HZ = ((1, 2, 4, 5), (3, 4, 6, 7), (0, 4, 6, 7), (1, 2, 4, 8))


def builtin_surface17() -> CssCode:
    """The Surface-17 code [[9,1,3]]: 9 data qubits, 4+4 weight-4 checks."""
    n = 9
    return CssCode(
        n=n,
        hx=BitMatrix.from_supports(SURFACE17_HX, n),
        hz=BitMatrix.from_supports(SURFACE17_HZ, n),
        logical_x=(BitVector.from_support(n, [0, 3, 6]),),
        logical_z=(BitVector.from_support(n, [0, 1, 2]),),
        name="surface17",
    )


def distance_upto(code: CssCode, w_max: int) -> tuple[int | None, int | None]:
    """(d_Z, d_X) by a weight-ordered search of errors with weight <= w_max.

    d_Z is the minimum weight of a Z-type error with zero X-check syndrome
    and odd overlap with some logical X (symmetrically for d_X). ``None``
    means no such error exists up to w_max. The walk is refused at the first
    weight whose supports would pass ``MAX_SEARCH_SUPPORTS``, so a cap past
    the bound costs nothing when a witness comes first.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")

    def first_weight(checks: BitMatrix, logicals: tuple[BitVector, ...]) -> int | None:
        for v in _low_weight_kernel(checks, w_max):
            if any((v & lg.bits).bit_count() & 1 for lg in logicals):
                return v.bit_count()
        return None

    return first_weight(code.hx, code.logical_x), first_weight(code.hz, code.logical_z)


@dataclass
class LogicalBasisReport:
    """The failed conditions of a code's logical operator basis, one message each."""

    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def verify_logical_basis(code: CssCode) -> LogicalBasisReport:
    """Check counts, commutation with all checks, delta_ij pairing, and
    independence modulo the stabilizer rows."""
    failures = []
    k = code.k
    if len(code.logical_x) != k or len(code.logical_z) != k:
        failures.append(
            f"expected {k} logical pairs, got {len(code.logical_x)} X / {len(code.logical_z)} Z"
        )
    for i, lz in enumerate(code.logical_z):
        if mat_vec(code.hx, lz).bits:
            failures.append(f"logical Z[{i}] anticommutes with an X-check")
    for i, lx in enumerate(code.logical_x):
        if mat_vec(code.hz, lx).bits:
            failures.append(f"logical X[{i}] anticommutes with a Z-check")
    for i, lx in enumerate(code.logical_x):
        for j, lz in enumerate(code.logical_z):
            expected = 1 if i == j else 0
            if symplectic_product(lx, lz) != expected:
                failures.append(f"pairing <X[{i}], Z[{j}]> = {1 - expected}, want {expected}")
    z_space = RowSpace.of_matrix(code.hz)
    if not all(z_space.add(lz.bits) for lz in code.logical_z):
        failures.append("a logical Z is dependent on the Z-stabilizers and earlier logicals")
    x_space = RowSpace.of_matrix(code.hx)
    if not all(x_space.add(lx.bits) for lx in code.logical_x):
        failures.append("a logical X is dependent on the X-stabilizers and earlier logicals")
    return LogicalBasisReport(failures)


def get_builtin_code(selector: str) -> CssCode:
    if selector == "ssd":
        return builtin_ssd()
    if selector == "surface17":
        return builtin_surface17()
    raise ValueError(f"unknown built-in code {selector!r}")
