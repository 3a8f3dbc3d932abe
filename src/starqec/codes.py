"""CSS code construction: generic homological codes from 2-complexes plus the
built-in small stellated dodecahedron [[30,8,3]] and Surface-17 [[9,1,3]] codes."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .complexes import CellComplex2D, small_stellated_dodecahedron_complex
from .gf2 import BitMatrix, BitVector, RowSpace, kernel_basis, mat_vec, rank, symplectic_product


# Supports distance_upto may enumerate: SSD's 30 qubits up to weight 6 are 768,211.
MAX_DISTANCE_SUPPORTS = 1 << 20


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


def _enumerate_by_weight(basis: list[int], n: int, weight_cap: int) -> list[int]:
    """Nonzero elements of span(basis) with weight <= weight_cap, sorted by
    (weight, payload) for determinism. Enumerates the subspace via Gray code."""
    dim = len(basis)
    if dim == 0:
        return []
    if dim > 24:
        raise CssConstructionError(
            f"kernel dimension {dim} too large for exhaustive coset search; "
            "supply logical operators explicitly"
        )
    out = []
    value = 0
    for g in range(1, 1 << dim):
        value ^= basis[(g & -g).bit_length() - 1]
        if value.bit_count() <= weight_cap:
            out.append(value)
    out.sort(key=lambda v: (v.bit_count(), v))
    return out


def _coset_representatives(
    kernel: list[int], stabilizers: BitMatrix, k: int, n: int, weight_cap: int
) -> list[int]:
    """Pick k minimum-weight kernel elements independent modulo the stabilizer rows."""
    space = RowSpace.of_matrix(stabilizers)
    picked: list[int] = []
    for v in _enumerate_by_weight(kernel, n, weight_cap):
        if space.add(v):
            picked.append(v)
            if len(picked) == k:
                return picked
    raise CssConstructionError(
        f"found only {len(picked)} of {k} logical representatives with weight <= {weight_cap}; "
        "raise the weight cap"
    )


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


def code_from_complex(c: CellComplex2D, weight_cap: int = 8) -> CssCode:
    """Homological CSS code of a 2-complex.

    Qubits on edges; one Z-check per face (its edge set); one X-check per
    vertex (its incident edges). Logical operators are minimum-weight coset
    representatives found by searching the check kernels up to ``weight_cap``.
    """
    n = c.edge_count
    hx = BitMatrix.from_supports([c.vertex_star(v) for v in range(c.vertex_count)], n)
    hz = BitMatrix.from_supports(c.faces, n)
    for i, rx in enumerate(hx.rows):
        for j, rz in enumerate(hz.rows):
            if (rx & rz).bit_count() & 1:
                raise CssConstructionError(
                    f"X-check at vertex {i} anticommutes with Z-check of face {j}"
                )
    k = n - rank(hx) - rank(hz)
    if k == 0:
        logical_x: list[int] = []
        logical_z: list[int] = []
    else:
        ker_hx = [v.bits for v in kernel_basis(hx)]
        ker_hz = [v.bits for v in kernel_basis(hz)]
        logical_z = _coset_representatives(ker_hx, hz, k, n, weight_cap)
        logical_x = _coset_representatives(ker_hz, hx, k, n, weight_cap)
        logical_x, logical_z = _pair_symplectically(logical_x, logical_z)
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
    hx = BitMatrix.from_supports([c.vertex_star(v) for v in range(12)], n)
    hz = BitMatrix.from_supports(c.faces, n)

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
    """(d_Z, d_X) by exhaustive enumeration of errors with weight <= w_max.

    d_Z is the minimum weight of a Z-type error with zero X-check syndrome
    and odd overlap with some logical X (symmetrically for d_X). ``None``
    means no such error exists up to w_max. A search over more than
    ``MAX_DISTANCE_SUPPORTS`` supports is refused before it starts.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    supports = sum(comb(code.n, w) for w in range(1, w_max + 1))
    if supports > MAX_DISTANCE_SUPPORTS:
        raise ValueError(
            f"a distance search up to weight {w_max} on {code.n} qubits enumerates "
            f"{supports} supports; the bound is {MAX_DISTANCE_SUPPORTS} (2^20)"
        )
    d_z: int | None = None
    d_x: int | None = None
    for w in range(1, w_max + 1):
        for support in combinations(range(code.n), w):
            bits = 0
            for q in support:
                bits |= 1 << q
            if d_z is None and all((bits & r).bit_count() % 2 == 0 for r in code.hx.rows):
                if any((bits & lx.bits).bit_count() & 1 for lx in code.logical_x):
                    d_z = w
            if d_x is None and all((bits & r).bit_count() % 2 == 0 for r in code.hz.rows):
                if any((bits & lz.bits).bit_count() & 1 for lz in code.logical_z):
                    d_x = w
        if d_z is not None and d_x is not None:
            break
    return d_z, d_x


@dataclass
class LogicalBasisReport:
    """Per-condition results of checking a code's logical operator basis."""

    counts_ok: bool
    z_commute_ok: bool
    x_commute_ok: bool
    pairing_ok: bool
    z_independent_ok: bool
    x_independent_ok: bool
    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def verify_logical_basis(code: CssCode) -> LogicalBasisReport:
    """Check counts, commutation with all checks, delta_ij pairing, and
    independence modulo the stabilizer rows."""
    failures = []
    k = code.k
    counts_ok = len(code.logical_x) == k and len(code.logical_z) == k
    if not counts_ok:
        failures.append(
            f"expected {k} logical pairs, got {len(code.logical_x)} X / {len(code.logical_z)} Z"
        )

    z_commute_ok = True
    for i, lz in enumerate(code.logical_z):
        if mat_vec(code.hx, lz).bits:
            z_commute_ok = False
            failures.append(f"logical Z[{i}] anticommutes with an X-check")
    x_commute_ok = True
    for i, lx in enumerate(code.logical_x):
        if mat_vec(code.hz, lx).bits:
            x_commute_ok = False
            failures.append(f"logical X[{i}] anticommutes with a Z-check")

    pairing_ok = True
    for i, lx in enumerate(code.logical_x):
        for j, lz in enumerate(code.logical_z):
            expected = 1 if i == j else 0
            if symplectic_product(lx, lz) != expected:
                pairing_ok = False
                failures.append(f"pairing <X[{i}], Z[{j}]> = {1 - expected}, want {expected}")

    z_space = RowSpace.of_matrix(code.hz)
    z_independent_ok = all(z_space.add(lz.bits) for lz in code.logical_z)
    if not z_independent_ok:
        failures.append("a logical Z is dependent on the Z-stabilizers and earlier logicals")
    x_space = RowSpace.of_matrix(code.hx)
    x_independent_ok = all(x_space.add(lx.bits) for lx in code.logical_x)
    if not x_independent_ok:
        failures.append("a logical X is dependent on the X-stabilizers and earlier logicals")

    return LogicalBasisReport(
        counts_ok=counts_ok,
        z_commute_ok=z_commute_ok,
        x_commute_ok=x_commute_ok,
        pairing_ok=pairing_ok,
        z_independent_ok=z_independent_ok,
        x_independent_ok=x_independent_ok,
        failures=failures,
    )


def get_builtin_code(selector: str) -> CssCode:
    if selector == "ssd":
        return builtin_ssd()
    if selector == "surface17":
        return builtin_surface17()
    raise ValueError(f"unknown built-in code {selector!r}")
