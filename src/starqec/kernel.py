"""The packed EC-unit kernel: the lane layout, and one EC unit, ideal
decode probe and fault sampler over many lanes at once. Every estimator
and exhaustive sweep runs on it."""

from __future__ import annotations

from operator import attrgetter, itemgetter

import numpy as np

from .circuits import CATEGORIES as _CATEGORIES, NoiseModel, category_value_count
from .decoder import ec_decisions
from .frames import FaultSig

_U64 = np.dtype("<u8")  # little-endian: byte j of a lane row holds bits 8j..8j+7
_PAIR_LANES = 1 << 12  # lanes per block of the exhaustive sweeps; bounds their memory
_Atoms = list[tuple[np.ndarray, np.ndarray]]  # per category: (lane, atom row) per fault


def _pack(rows: int, words: int, fields) -> np.ndarray:
    """Rows of uint64 words from (bit offset, width, per-row ints) fields. A
    field's ints are read once, unless it is wider than 64 bits: then they
    must be a sequence, and the field must start on a word boundary."""
    out = np.zeros((rows, words), dtype=_U64)
    for offset, width, values in fields:
        word, shift = divmod(offset, 64)
        for chunk in range(-(-width // 64)):
            part = values if width <= 64 else [(v >> 64 * chunk) & (2**64 - 1) for v in values]
            out[:, word + chunk] |= np.fromiter(part, _U64, rows) << shift
    return out


def _byte_luts(columns: np.ndarray) -> np.ndarray:
    """Per byte of a residual, the XOR of the given per-qubit rows over the
    byte's set bits, for each of its 256 values (rows are linear in qubits)."""
    columns = np.vstack([columns, np.zeros(((-len(columns)) % 8, columns.shape[1]), _U64)])
    luts = np.zeros((len(columns) // 8, 256, columns.shape[1]), dtype=_U64)
    for q, column in enumerate(columns):
        j, bit = divmod(q, 8)
        luts[j, 1 << bit : 2 << bit] = luts[j, : 1 << bit] ^ column
    return luts


def _field(lanes: np.ndarray, offset: int, width: int) -> np.ndarray:
    """Bits [offset, offset + width) of every lane; a field sits in one word."""
    return (lanes[:, offset // 64] >> (offset % 64)) & ((1 << width) - 1)


class EcKernel:
    """The EC unit and the ideal-decode probe over many lanes at once. A lane
    is one trial's Pauli frame in ``words`` uint64 words: X part, then Z part,
    each the data residual (bit q for data qubit q) and the three round
    syndromes, no field crossing a word. Fault atoms, (location, value)
    pairs, are their signatures packed alike, so a unit's frame is the
    incoming residual with its syndrome in every round, XOR the unit's atoms.
    Residual syndromes and logical parities come from per-byte tables."""

    def __init__(self, sim: "Simulator"):
        n = self._n = sim.code.n
        self._types = []  # (residual offset, round-syndrome offsets, width) for X, Z
        base = 0
        tables = (sim.tables["X"], sim.tables["Z"])
        for t in tables:
            r, pos, offsets = len(t.detect_rows), n, []
            for _ in range(3):
                pos = pos if pos % 64 + r <= 64 else -(-pos // 64) * 64
                offsets.append(base + pos)
                pos += r
            self._types.append((base, offsets, r))
            base += -(-pos // 64) * 64
        self.words = w = base // 64
        self._res_mask = self.pack_residuals([((1 << n) - 1, (1 << n) - 1)])[0]
        # Per category: (locations, values) and atom rows, row loc * values + value.
        self._sizes, self._atoms = [], []
        for cat in _CATEGORIES:
            _locs, rows = sim.signatures.by_category[cat]
            self._sizes.append((len(rows), category_value_count(cat)))
            self._atoms.append(self.pack([sig for row in rows for sig in row]))
        self._corr = [_pack(t.syndrome_count, w, [(b, n, t.corrections)])
                      for (b, _o, _r), t in zip(self._types, tables)]
        # Per residual byte: its syndrome in all three rounds, and its logical parities.
        self._cols, syn3 = [], []
        for (b, offsets, r), t in zip(self._types, tables):
            self._cols += range(b // 8, b // 8 + -(-n // 8))
            syn = [t.syndrome_of(1 << q) for q in range(n)]
            syn3.append(_byte_luts(_pack(n, w, [(off, r, syn) for off in offsets])))
        self._syn3 = np.concatenate(syn3)
        self._parity = self.parity_table([op.bits for op in sim.code.logical_z],
                                         [op.bits for op in sim.code.logical_x])

    def parity_table(self, x_rows, z_rows) -> np.ndarray:
        """Per residual byte, the parities of the X part with each of ``x_rows``
        (words [0, kw)) and of the Z part with each of ``z_rows`` (words after),
        for ``parities``."""
        n, kw = self._n, max(1, -(-max(len(x_rows), len(z_rows)) // 64))
        luts = []
        for t, rows in enumerate((x_rows, z_rows)):
            par = [sum(((m >> q) & 1) << i for i, m in enumerate(rows)) for q in range(n)]
            luts.append(_byte_luts(_pack(n, 2 * kw, [(64 * kw * t, len(rows), par)])))
        return np.concatenate(luts)

    @property
    def type_words(self) -> tuple[slice, slice]:
        """The words of a lane that hold its X part, and those that hold its Z part."""
        split = self._types[1][0] // 64
        return slice(0, split), slice(split, self.words)

    @property
    def atom_tables(self) -> list[tuple[np.ndarray, tuple[int, int], float]]:
        """Per category: its atom rows, read-only (row ``location * values +
        value``), its (locations, values), and each atom's weight per unit p."""
        unit_noise, out = NoiseModel(1.0), []
        for cat, rows, (n_loc, n_val) in zip(_CATEGORIES, self._atoms, self._sizes):
            rows = rows.view()
            rows.flags.writeable = False
            out.append((rows, (n_loc, n_val), unit_noise.category_prob(cat) / n_val))
        return out

    def zeros(self, lanes: int) -> np.ndarray:
        return np.zeros((lanes, self.words), dtype=_U64)

    def pack(self, sigs: list[FaultSig]) -> np.ndarray:
        """One row per signature; a residual is a signature with zero syndromes."""
        return _pack(len(sigs), self.words, self._fields(sigs))

    def _fields(self, sigs: list[FaultSig]):
        # A generator, so that each field's column is built only when packed.
        for (b, offsets, r), res, syn in zip(self._types, ("x_res", "z_res"), ("x_syn", "z_syn")):
            yield b, self._n, list(map(attrgetter(res), sigs))
            rounds = list(map(attrgetter(syn), sigs))
            for i, off in enumerate(offsets):
                yield off, r, map(itemgetter(i), rounds)

    def pack_residuals(self, residuals: list[tuple[int, int]]) -> np.ndarray:
        """One row per (x, z) data residual."""
        return self.pack([FaultSig(x, z, (0,) * 3, (0,) * 3) for x, z in residuals])

    def sample(self, rng: np.random.Generator, noise: NoiseModel, lanes: int) -> _Atoms:
        """One EC unit's faults per lane: per category, lane and atom row of
        each fault, in (lane, location) order. Every location of every lane
        fails independently with its category's probability q, which is a
        Binomial(lanes * locations, q) count of failed (lane, location)
        slots, a uniform set of that many distinct slots, then uniform
        fault values. The work follows the faults, not the lanes."""
        out = []
        for cat, (n_loc, n_val) in zip(_CATEGORIES, self._sizes):
            slots = lanes * n_loc
            failed = rng.binomial(slots, noise.category_prob(cat))
            lane, loc = np.divmod(_distinct(rng, slots, failed), n_loc)
            if n_val > 1:
                loc = loc * n_val + rng.integers(0, n_val, size=lane.size)
            out.append((lane, loc))
        return out

    def _lookup(self, lanes: np.ndarray, luts: np.ndarray) -> np.ndarray:
        """XOR over the residual bytes of each lane of that byte's table entry."""
        b = np.ascontiguousarray(lanes).view(np.uint8)
        out = np.zeros((len(lanes), luts.shape[2]), dtype=_U64)
        for col, lut in zip(self._cols, luts):
            out ^= np.take(lut, b[:, col], axis=0)
        return out

    def incoming(self, res: np.ndarray) -> np.ndarray:
        """A unit's frame before its faults: each residual with its syndrome
        in all three rounds."""
        return res ^ self._lookup(res, self._syn3)

    def unit(self, res: np.ndarray, atoms: _Atoms) -> np.ndarray:
        """One EC unit on every lane: the incoming residuals combined with the
        atoms, then ``decide``."""
        return self.unit_on(self.incoming(res), atoms)

    def unit_on(self, frame: np.ndarray, atoms: _Atoms) -> np.ndarray:
        """One EC unit on every lane from its ``incoming`` frame, which the
        atoms are XOR-ed into in place."""
        for table, (lane, row) in zip(self._atoms, atoms):
            np.bitwise_xor.at(frame, lane, table[row])
        return self.decide(frame)

    def decide(self, frame: np.ndarray) -> np.ndarray:
        """The data residual of each unit frame, corrected per error type by
        the three-round decision rule."""
        out = frame & self._res_mask
        for (_b, offsets, r), corr in zip(self._types, self._corr):
            out ^= corr[ec_decisions(*(_field(frame, off, r) for off in offsets))]
        return out

    def parities(self, res: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
        """Ideal decode of each residual, then its parities from a
        ``parity_table`` (by default, with the logical operators)."""
        table = self._parity if table is None else table
        return self._decoded_parities(res, self._lookup(res, self._syn3), table)

    def _decoded_parities(self, res: np.ndarray, syn: np.ndarray, table: np.ndarray) -> np.ndarray:
        """``parities`` with each residual's syndrome ``syn`` (as ``incoming``
        adds it) already looked up."""
        for (_b, offsets, r), corr in zip(self._types, self._corr):
            res = res ^ corr[_field(syn, offsets[0], r)]
        return self._lookup(res, table)

    def fails(self, res: np.ndarray) -> np.ndarray:
        """Ideal-decode probe: does a lane's corrected residual flip a logical?"""
        return self.parities(res).any(axis=1)

    def probe(self, res: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per lane: ``fails``, whether the residual's syndrome is zero, and
        the ``incoming`` frame of the next unit, all from one syndrome lookup."""
        syn = self._lookup(res, self._syn3)
        fails = self._decoded_parities(res, syn, self._parity).any(axis=1)
        return fails, ~syn.any(axis=1), res ^ syn

    def afflicted(self, res: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per lane, the logical qubits its ideal decode leaves with an X-type
        and with a Z-type logical fault: the logical ``parities``, unpacked."""
        bits = np.unpackbits(self.parities(res).view(np.uint8), axis=1, bitorder="little")
        half = bits.shape[1] // 2
        return [(tuple(np.flatnonzero(row[:half]).tolist()),
                 tuple(np.flatnonzero(row[half:]).tolist())) for row in bits]


def _distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``k`` distinct ints of [0, n), uniformly, sorted. It draws the fewer of
    the chosen and the left-out ints, sorts them and redraws the repeats until
    none is left (a rule alike for every int, so the set is uniform), and so
    never draws more than n / 2 ints, whatever ``k`` is."""
    m = min(k, n - k)
    drawn = np.sort(rng.integers(0, n, size=m))
    while (repeat := np.flatnonzero(drawn[1:] == drawn[:-1])).size:
        drawn[repeat + 1] = rng.integers(0, n, size=repeat.size)
        drawn.sort()
    if m == k:
        return drawn
    chosen = np.ones(n, dtype=bool)
    chosen[drawn] = False
    return np.flatnonzero(chosen)


def _grid_blocks(rows: int, cols: int):
    """Row and column indices of the cells of a rows x cols grid, in row-major
    order, a block of whole rows at a time of at most ``_PAIR_LANES`` cells
    (one row if a row is longer). The whole grid's indices are never formed."""
    step = max(1, _PAIR_LANES // cols)
    for top in range(0, rows, step):
        i = np.repeat(np.arange(top, min(rows, top + step)), cols)
        yield i, np.tile(np.arange(cols), len(i) // cols)
