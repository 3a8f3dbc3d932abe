"""Dense GF(2) linear algebra on bit-packed vectors and matrices.

Vectors and matrices are backed by arbitrary-precision Python integers
(bit i of the payload is coordinate i), so results are independent of any
machine word size. All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BitVector:
    """A fixed-length vector over GF(2), packed into an int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("payload has bits outside [0, length)")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"index {i} outside [0, {length})")
            bits |= 1 << i
        return cls(length, bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} != {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.length))

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        return [i for i in range(self.length) if (self.bits >> i) & 1]

    def __str__(self) -> str:
        return "".join(str(b) for b in self)


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2), one packed int per row."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits outside [0, cols)")

    @classmethod
    def from_supports(cls, supports: Iterable[Iterable[int]], cols: int) -> "BitMatrix":
        return cls(tuple(BitVector.from_support(cols, s).bits for s in supports), cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)


def syndrome_bits(rows: tuple[int, ...] | list[int], error: int) -> int:
    """Syndrome of an error against a list of check-row masks, packed into an int."""
    s = 0
    for i, row in enumerate(rows):
        if (row & error).bit_count() & 1:
            s |= 1 << i
    return s


def rank(m: BitMatrix) -> int:
    """GF(2) row rank."""
    return RowSpace.of_matrix(m).rank


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : M v = 0}, in canonical (pivot-ordered) form.

    Basis vectors are indexed by the free columns of the reduced row
    echelon form, in increasing column order, so the output is
    deterministic for a given matrix.
    """
    pivots = RowSpace.of_matrix(m)._pivots
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        bits = 1 << free
        for col, row in pivots.items():
            if (row >> free) & 1:
                bits |= 1 << col
        basis.append(BitVector(m.cols, bits))
    return basis


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """GF(2) matrix-vector product; row i of the result is <row_i, v>."""
    if v.length != m.cols:
        raise ValueError(f"dimension mismatch: {m.cols} cols vs length {v.length}")
    return BitVector(len(m.rows), syndrome_bits(m.rows, v.bits))


def symplectic_product(x_support: BitVector, z_support: BitVector) -> int:
    """Parity of the overlap of two supports; 1 means the operators anticommute."""
    if x_support.length != z_support.length:
        raise ValueError("length mismatch")
    return (x_support.bits & z_support.bits).bit_count() & 1


class RowSpace:
    """Incremental GF(2) row space, for membership and rank queries, and the
    one Gaussian elimination here. Each stored row's pivot is its lowest set
    bit, and every other stored row is zero there, so the rows are the unique
    reduced row echelon form of the space."""

    def __init__(self, rows: Iterable[int] = ()):
        self._pivots: dict[int, int] = {}  # pivot column -> reduced row
        for r in rows:
            self.add(r)

    @classmethod
    def of_matrix(cls, m: BitMatrix) -> "RowSpace":
        return cls(m.rows)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, bits: int) -> int:
        for col, row in self._pivots.items():
            if (bits >> col) & 1:
                bits ^= row
        return bits

    def contains(self, bits: int) -> bool:
        return self.reduce(bits) == 0

    def add(self, bits: int) -> bool:
        """Add a row; returns True if it enlarged the space."""
        bits = self.reduce(bits)
        if bits == 0:
            return False
        pivot = (bits & -bits).bit_length() - 1
        # Keep stored rows reduced against the new pivot.
        for col in list(self._pivots):
            if (self._pivots[col] >> pivot) & 1:
                self._pivots[col] ^= bits
        self._pivots[pivot] = bits
        return True
