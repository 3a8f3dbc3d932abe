"""The exact leading coefficient c of the exRec failure rate, p_L = c p^2
+ O(p^3), from every pair of faults, split by error type."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import FaultSig
from .kernel import EcKernel, _grid_blocks


def malignant_same_unit(kernel: EcKernel, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For unit frames holding both faults of a pair: does the exRec fail when
    that unit is its first (a clean unit follows), and when it is its second?"""
    out = kernel.decide(frames)
    return kernel.fails(kernel.unit(out, [])), kernel.fails(out)


def malignant_cross(kernel: EcKernel, after: np.ndarray, sigs: np.ndarray) -> np.ndarray:
    """One fault in each unit: does the exRec fail? ``after`` is unit 2's
    incoming frame, ``kernel.incoming`` of unit 1's output on its fault, and
    ``sigs`` the packed signature of the fault in unit 2."""
    return kernel.fails(kernel.decide(after ^ sigs))


@dataclass(frozen=True)
class ExactParts:
    """The exact c split by error type: the weight of the malignant pairs
    whose X outcome fails (``c_x``), whose Z outcome fails (``c_z``) and
    whose both fail (``c_xz``), and the number of distinct X and Z keys."""

    c_x: float
    c_z: float
    c_xz: float
    keys: dict[str, int]

    @property
    def c(self) -> float:
        return self.c_x + self.c_z - self.c_xz


def _type_keys(kernel: EcKernel, sigs: list[FaultSig]):
    """Per error type, the distinct parts in that type's words of the packed
    ``sigs`` and then of the kernel's atoms, as frames whose other type's
    words are zero, and the key index of each signature, then of each atom."""
    rows = np.vstack([kernel.pack(sigs), *(atoms for atoms, _size, _w in kernel.atom_tables)])
    for cols in kernel.type_words:
        parts, index = np.unique(rows[:, cols], axis=0, return_inverse=True)
        keys = kernel.zeros(len(parts))
        keys[:, cols] = parts
        yield keys, index.reshape(-1)


def _key_grids(kernel: EcKernel, keys: np.ndarray) -> np.ndarray:
    """The three pair rules on every ordered pair of keys: both faults in
    the exRec's first unit, both in its second (the rules read the keys'
    XOR), and the first key's fault in unit 1 with the second's in unit 2."""
    n = len(keys)
    grids = np.zeros((3, n, n), bool)
    after = kernel.incoming(kernel.decide(keys))
    for i, j in _grid_blocks(n, n):
        grids[0, i, j], grids[1, i, j] = malignant_same_unit(kernel, keys[i] ^ keys[j])
        grids[2, i, j] = malignant_cross(kernel, after[i], keys[j])
    return grids


def _join(w: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sums over ordered signature pairs of their weight product, with ``w``
    the weight of each (X key, Z key): over the pairs whose X keys are
    malignant in ``f``, whose Z keys are in ``g``, and both. One grid is
    float at a time, and einsum's own loops run the products, not BLAS."""
    wx, wz = w.sum(axis=1), w.sum(axis=0)
    grid = f.astype(float)
    sx = np.einsum("a,ab,b->", wx, grid, wx)
    fw = np.einsum("ab,bd->ad", grid, w)
    grid = g.astype(float)
    sz = np.einsum("c,cd,d->", wz, grid, wz)
    return np.array([sx, sz, (w * np.einsum("ad,cd->ac", fw, grid)).sum()])


def exact_c_parts(sim: "Simulator") -> ExactParts:
    """The leading p^2 coefficient of the exRec failure rate by exact
    enumeration of all two-fault combinations, split by error type.

    Every location-value atom carries its probability weight (linear in p);
    c is the probability-weighted count of malignant pairs, divided by p^2.
    X and Z are decoded apart, each from its own words, so a pair fails if
    its X part fails or its Z part does, and the rules run on per-type keys
    (``_key_grids``). The pair sums then follow from one weight matrix over
    (X key, Z key) (``_join``); pairs of atoms at one location, which cannot
    both occur, are read off the same grids and taken out.
    """
    kernel = sim.kernel
    distinct, weights = sim.distinct_signatures()
    (xkeys, kx), (zkeys, kz) = _type_keys(kernel, distinct)
    f, g = _key_grids(kernel, xkeys), _key_grids(kernel, zkeys)
    w = np.zeros((len(xkeys), len(zkeys)))
    np.add.at(w, (kx[: len(distinct)], kz[: len(distinct)]), weights)
    # per part (x, z, xz), over both same-unit rules: pairs of atoms at one location
    same_location = np.zeros(3)
    start = len(distinct)
    for atoms, (n_loc, n_val), weight in kernel.atom_tables:
        a, b = np.triu_indices(n_val)
        pair_w = weight ** 2 * np.where(a == b, 1.0, 2.0)
        first = start + n_val * np.arange(n_loc)[:, None]
        fx = f[:2, kx[first + a], kx[first + b]]
        gz = g[:2, kz[first + a], kz[first + b]]
        for part, mal in enumerate((fx, gz, fx & gz)):
            same_location[part] += (mal * pair_w).sum()
        start += len(atoms)
    first_unit, second_unit, cross = (_join(w, f[rule], g[rule]) for rule in range(3))
    c_x, c_z, c_xz = 0.5 * (first_unit + second_unit - same_location) + cross
    return ExactParts(float(c_x), float(c_z), float(c_xz), {"X": len(xkeys), "Z": len(zkeys)})


def exact_quadratic_coefficient(sim: "Simulator") -> float:
    """Leading p^2 coefficient c of the exRec failure rate, exact: see
    ``exact_c_parts``."""
    return exact_c_parts(sim).c
