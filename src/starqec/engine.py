"""Fault-tolerance verification and Monte Carlo estimation.

The EC unit is three noisy syndrome rounds followed by the three-syndrome
decision rule; an exRec is two consecutive EC units. Both exhaustive
single-fault verification and Monte Carlo trials run on precomputed
single-fault signatures (Pauli-frame propagation is linear, so a fault
set's effect is the XOR of its members' signatures).
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .circuits import (
    CATEGORIES as _CATEGORIES,
    EcCircuit,
    NoiseModel,
    build_ec_circuit,
    category_value_count,
    fault_stream,
)
from .codes import CssCode, get_builtin_code
from .decoder import build_tables, ec_decisions
from .faulttol import (
    builtin_schedule,
    enumerate_single_fault_errors,
    verify_properness,
    verify_unique_syndromes,
)
from .frames import FaultSig, compute_signatures
from .scheduling import CnotSchedule


@dataclass(frozen=True)
class TrialResult:
    failed: bool
    afflicted_x: tuple[int, ...]  # logical qubits with an X-type logical fault
    afflicted_z: tuple[int, ...]
    rounds_survived: int | None = None


def _afflicted(ax, az) -> tuple[int, ...]:
    """The logical qubits with an X-type or a Z-type logical fault, in order."""
    return tuple(sorted({*ax, *az}))


def count_cnot_pairs(circuit: EcCircuit) -> int:
    """Number of CNOT-location pairs in the circuit (one EC unit)."""
    return math.comb(circuit.cnot_count(), 2)


def m_copy_failure(p_l: float, m: int) -> float:
    """Total failure probability of m independent copies: 1 - (1 - p_l)^m."""
    if not 0.0 <= p_l <= 1.0:
        raise ValueError("p_l must be in [0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1.0 - (1.0 - p_l) ** m


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class PointEstimate:
    p: float
    trials: int
    failures: int

    @property
    def p_l(self) -> float:
        return self.failures / self.trials

    @property
    def ci(self) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials)


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares fit of p_L = c p^2 and the derived
    pseudo-threshold p* against the idle-failure curve p/10."""

    c: float
    c_ci: tuple[float, float]
    pstar: float
    pstar_ci: tuple[float, float]
    points_used: tuple[float, ...]
    crossing_pstar: float
    # (p, reason) per point the filter rejected: 'too few failures', 'p > p_max',
    # 'saturated', or 'used as fallback' (saturated, fitted as none was below the cap)
    dropped: tuple[tuple[float, str], ...] = ()

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "c_ci": list(self.c_ci),
            "pstar": self.pstar,
            "pstar_ci": list(self.pstar_ci),
            "points_used": list(self.points_used),
            "crossing_pstar": self.crossing_pstar,
            "dropped": [{"p": p, "reason": reason} for p, reason in self.dropped],
        }


def _bisect_crossing(c: float) -> float:
    """Numeric intersection of c p^2 with p/10, as a cross-check on 1/(10c)."""
    f = lambda p: c * p * p - p / 10.0
    lo, hi = 1e-15, 1.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def fit_quadratic(
    points: list[PointEstimate],
    min_failures: int = 20,
    p_max: float = 3e-3,
    saturation_cap: float = 0.04,
) -> FitResult:
    """Fit c from points in the quadratic regime: p <= p_max and an observed
    failure rate below ``saturation_cap`` (c p^2 must be small for the
    quadratic model to hold), carrying at least ``min_failures`` failures.
    If every such point is saturated, the saturated ones are fitted instead."""
    reasons = [
        "too few failures" if pt.failures < min_failures else "p > p_max" if pt.p > p_max
        else "saturated" if pt.p_l > saturation_cap else None
        for pt in points
    ]
    if None not in reasons:
        reasons = ["used as fallback" if r == "saturated" else r for r in reasons]
    usable = [pt for pt, r in zip(points, reasons) if r in (None, "used as fallback")]
    if not usable:
        raise FitError(
            "no point has enough failures for a fit; increase trials or use larger p"
        )
    swxy = 0.0
    swxx = 0.0
    for pt in usable:
        y = pt.p_l
        var = max(y * (1 - y) / pt.trials, 1e-300)
        x = pt.p * pt.p
        swxy += x * y / var
        swxx += x * x / var
    c = swxy / swxx
    se = 1.0 / math.sqrt(swxx)
    c_lo, c_hi = c - 1.96 * se, c + 1.96 * se
    pstar = 1.0 / (10.0 * c)
    pstar_ci = (1.0 / (10.0 * c_hi), 1.0 / (10.0 * max(c_lo, 1e-300)))
    return FitResult(
        c=c,
        c_ci=(c_lo, c_hi),
        pstar=pstar,
        pstar_ci=pstar_ci,
        points_used=tuple(pt.p for pt in usable),
        crossing_pstar=_bisect_crossing(c),
        dropped=tuple((pt.p, r) for pt, r in zip(points, reasons) if r),
    )


# --- results CSV ------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    code: str
    mode: str
    p: float
    trials: int
    failures: int
    p_l: float
    ci_low: float
    ci_high: float
    seed: int


CSV_COLUMNS = ["code", "mode", "p", "trials", "failures", "p_l", "ci_low", "ci_high", "seed"]


def write_results_csv(path: str | Path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [r.code, r.mode, repr(r.p), r.trials, r.failures,
                 repr(r.p_l), repr(r.ci_low), repr(r.ci_high), r.seed]
            )


def write_lifetime_csv(
    path: str | Path, code: str, seed: int, summaries: list[tuple[float, "LifetimeSummary"]]
) -> None:
    """One row per (p, lifetime summary)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "p", "trajectories", "failures", "censored", "mean_rounds",
                         "max_rounds", "seed"])
        for p, s in summaries:
            writer.writerow([code, repr(p), s.trajectories, s.failures, s.censored,
                             repr(s.mean_rounds), s.max_rounds, seed])


def read_results_csv(path: str | Path) -> list[ResultRow]:
    """The rows of a results CSV; a missing column or a field of the wrong
    type raises ValueError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing column(s): {', '.join(missing)}")
        for rec in reader:
            try:
                rows.append(
                    ResultRow(
                        code=rec["code"],
                        mode=rec["mode"],
                        p=float(rec["p"]),
                        trials=int(rec["trials"]),
                        failures=int(rec["failures"]),
                        p_l=float(rec["p_l"]),
                        ci_low=float(rec["ci_low"]),
                        ci_high=float(rec["ci_high"]),
                        seed=int(rec["seed"]),
                    )
                )
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows


# --- verification reports ---------------------------------------------------


@dataclass
class Condition1Report:
    input_cases: int
    fault_cases: int
    correctability_cases: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ExRecSweepReport:
    cases: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class VerificationReport:
    properness_ok: bool
    uniqueness_ok: bool
    condition1: Condition1Report
    exrec_sweep: ExRecSweepReport

    @property
    def ok(self) -> bool:
        return (
            self.properness_ok
            and self.uniqueness_ok
            and self.condition1.ok
            and self.exrec_sweep.ok
        )


@dataclass(frozen=True)
class LifetimeSummary:
    trajectories: int
    failures: int
    censored: int
    total_rounds: int
    max_rounds: int

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.trajectories


# --- packed EC-unit kernel ---------------------------------------------------

_U64 = np.dtype("<u8")  # little-endian: byte j of a lane row holds bits 8j..8j+7
_CYCLE_LANES = 4096  # lanes of open lifetime cycles; bounds lifetime memory
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
        each fault. Every location fails independently with its category's
        probability: a binomial count per lane, that many distinct locations
        (a draw repeating one in its lane is redrawn; as this treats all
        locations alike, the set is uniform), then uniform fault values."""
        out = []
        for cat, (n_loc, n_val) in zip(_CATEGORIES, self._sizes):
            counts = rng.binomial(n_loc, noise.category_prob(cat), size=lanes)
            lane = np.repeat(np.arange(lanes), counts)
            loc = rng.integers(0, n_loc, size=lane.size) if lane.size else lane
            multi = np.flatnonzero(counts[lane] > 1)
            while multi.size:
                key = lane[multi] * n_loc + loc[multi]
                order = np.argsort(key, kind="stable")
                repeat = order[1:][np.diff(key[order]) == 0]
                if not repeat.size:
                    break
                loc[multi[repeat]] = rng.integers(0, n_loc, size=repeat.size)
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


class Simulator:
    """Bundles a code with its verified schedule, lookup tables, 3-round EC
    circuit and single-fault signatures, and runs the simulations."""

    def __init__(self, code: CssCode, schedule: CnotSchedule):
        self.code = code
        self.schedule = schedule
        self.circuit = build_ec_circuit(code, schedule, rounds=3)
        self.unit_circuit = self.circuit.first_round
        # One walk of the unit circuit's atoms, memoized on it: the 3-round
        # signatures derive from it, and the tables and verify() read it.
        self.signatures = compute_signatures(self.circuit)
        self.tables = build_tables(self.unit_circuit)
        self.kernel = EcKernel(self)  # the EC unit both Monte Carlo estimators run

    @classmethod
    def for_builtin(cls, name: str) -> "Simulator":
        return cls(get_builtin_code(name), builtin_schedule(name))

    # -- exhaustive verification --

    def distinct_signatures(self) -> tuple[tuple[FaultSig, ...], np.ndarray]:
        """Every distinct single-fault signature, the trivial one included, in
        the order atoms first show it, with its weight per unit p: the summed
        probabilities of its (location, value) atoms at p = 1. Malignancy
        depends only on the signature, so the sweeps run over these. Computed
        on first use and kept; it reads only ``signatures``."""
        return self._distinct

    @cached_property
    def _distinct(self) -> tuple[tuple[FaultSig, ...], np.ndarray]:
        unit_noise = NoiseModel(1.0)
        index: dict[FaultSig, int] = {}
        weights: list[float] = []
        for cat in _CATEGORIES:
            w = unit_noise.category_prob(cat) / category_value_count(cat)
            for row in self.signatures.by_category[cat][1]:
                for sig in row:
                    i = index.setdefault(sig, len(weights))
                    if i == len(weights):
                        weights.append(w)
                    else:
                        weights[i] += w
        table = np.array(weights)
        table.flags.writeable = False
        return tuple(index), table

    def verify_condition1(self) -> Condition1Report:
        """Exhaustive distance-3 fault-tolerance check of the EC unit.

        (i) every single-qubit input error with a fault-free unit, and
        (ii) every single circuit fault on a clean input, must ideally decode
        to the same logical state as the input; (iii) with any fault-derived
        weight<=2 input error and any single fault, the output must return to
        the codespace under ideal decoding. Every case is a kernel lane.
        """
        kernel, n = self.kernel, self.code.n
        violations = []
        # (i) r = 1, s = 0
        singles = [(1 << q, 0) if kind == "X" else (0, 1 << q) for q in range(n) for kind in "XZ"]
        res = kernel.pack_residuals(singles)
        changed = kernel.parities(res) != kernel.parities(kernel.unit(res, []))
        for case in np.flatnonzero(changed.any(axis=1)):
            q, kind = divmod(int(case), 2)
            violations.append(f"input {'XZ'[kind]} error on qubit {q} changes logical state")
        # (ii) r = 0, s = 1
        distinct = [sig for sig in self.distinct_signatures()[0] if not sig.is_trivial]
        sigs = kernel.pack(distinct)
        out = kernel.decide(sigs)
        failed = np.flatnonzero(kernel.fails(out))
        for case, (ax, az) in zip(failed, kernel.afflicted(out[failed])):
            sig = distinct[case]
            violations.append(
                f"single fault with residual (x={sig.x_res:#x}, z={sig.z_res:#x}) "
                f"causes logical fault {_afflicted(ax, az)}"
            )
        # (iii) modified second criterion
        inputs = sorted({
            (fr.residual, 0) if kind == "X" else (0, fr.residual)
            for kind in "XZ"
            for fr in enumerate_single_fault_errors(self.unit_circuit, kind)
            if fr.residual and fr.weight <= 2
        })
        frames = kernel.incoming(kernel.pack_residuals(inputs))
        checks = kernel.parity_table(self.code.hz.rows, self.code.hx.rows)
        for i, j in _grid_blocks(len(inputs), len(distinct)):
            out = kernel.decide(frames[i] ^ sigs[j])
            for case in np.flatnonzero(kernel.parities(out, checks).any(axis=1)):
                xin, zin = inputs[i[case]]
                violations.append(
                    f"output for input (x={xin:#x}, z={zin:#x}) not returned to codespace"
                )
        cases = len(inputs) * len(distinct)
        return Condition1Report(len(singles), len(distinct), cases, violations)

    def verify_exrec_single_faults(self) -> ExRecSweepReport:
        """No single fault anywhere in the two-unit exRec may cause a logical
        fault. A fault in unit 1 is followed by a clean unit 2."""
        kernel = self.kernel
        distinct = [sig for sig in self.distinct_signatures()[0] if not sig.is_trivial]
        out = kernel.decide(kernel.pack(distinct))
        # lane 2 * case + u holds the exRec's output for the fault in unit u + 1
        ends = np.stack([kernel.unit(out, []), out], axis=1).reshape(-1, kernel.words)
        failed = np.flatnonzero(kernel.fails(ends))
        violations = [
            f"single fault in unit {lane % 2 + 1} fails: {_afflicted(ax, az)}"
            for lane, (ax, az) in zip(failed, kernel.afflicted(ends[failed]))
        ]
        return ExRecSweepReport(2 * len(distinct), violations)

    def verify(self) -> VerificationReport:
        properness = verify_properness(self.code, self.schedule)
        uniqueness = verify_unique_syndromes(self.unit_circuit)
        return VerificationReport(
            properness_ok=properness.ok,
            uniqueness_ok=uniqueness.ok,
            condition1=self.verify_condition1(),
            exrec_sweep=self.verify_exrec_single_faults(),
        )

    # -- Monte Carlo --

    def estimate_pl(
        self,
        ps: list[float],
        trials: int,
        seed: int,
        mode: str = "exrec",
        threads: int | None = 1,
        batch_size: int = 8192,
    ) -> list[PointEstimate]:
        """Binomial failure estimates at each physical error rate.

        mode 'exrec' runs two consecutive EC units per trial, 'single' one.
        Trials are partitioned into fixed-size batches, each with its own
        counter-based random stream, so results are reproducible bit-exactly
        for a given seed and trial count, independent of thread count.
        Trials with at most one fault are drawn but not run while
        ``_few_faults_pass`` proves that they pass, so counts are unchanged.
        """
        if mode not in ("exrec", "single"):
            raise ValueError("mode must be 'exrec' or 'single'")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        units = 2 if mode == "exrec" else 1
        if threads is None:
            threads = os.cpu_count() or 1
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self._few_faults_pass()  # before any fork, so that workers inherit it
        out = []
        for point_idx, p in enumerate(ps):
            noise = NoiseModel(p)
            tasks = [(b, min(batch_size, trials - b * batch_size))
                     for b in range(-(-trials // batch_size))]
            if threads > 1 and len(tasks) > 1:
                failures = _parallel_failures(self, noise, units, seed, point_idx, tasks, threads)
            else:
                failures = sum(
                    self._exrec_batch(noise, units, seed, point_idx, b, nb) for b, nb in tasks
                )
            out.append(PointEstimate(p=p, trials=trials, failures=failures))
        return out

    def estimate_lifetime(
        self, noise: NoiseModel, trajectories: int, seed: int, max_rounds: int
    ) -> LifetimeSummary:
        """Memory lifetimes, censored at ``max_rounds // 3`` units, built from
        renewal cycles on one stream per seed.

        After a unit a residual fails its probe, or is clean (zero syndrome,
        probe passes: a stabilizer, which evolves exactly as residual 0 does),
        or carries a nonzero syndrome; a fault-free unit leaves none. So a
        trajectory is a run of independent, identically distributed cycles,
        each started from residual 0 and ended by the first failed or clean
        unit, up to its first failed cycle (see ``_join_cycles``). Each of
        ``_CYCLE_LANES`` lanes runs one open cycle; cycles are numbered in
        (step, lane) order as they start, and joined in that order.
        """
        if trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if max_rounds < 3:
            raise ValueError("max_rounds must be >= 3")
        kernel, cap, lanes = self.kernel, max_rounds // 3, _CYCLE_LANES
        rng = fault_stream(seed)
        frame, cycle, units = kernel.zeros(lanes), np.arange(lanes), np.zeros(lanes, np.int64)
        # (units, failed) of cycles first .. first + len - 1; 0 units: still open
        first, lengths, failed = 0, np.zeros(lanes, np.int64), np.zeros(lanes, bool)
        failures, censored, total_units, carried = 0, 0, 0, 0
        while failures + censored < trajectories:
            res = kernel.unit_on(frame, kernel.sample(rng, noise, lanes))
            fails, clean, frame = kernel.probe(res)
            units += 1
            # a cycle longer than the cap passes it whatever units precede it
            ended = np.flatnonzero(fails | clean | (units > cap))
            lengths[cycle[ended] - first] = units[ended]
            failed[cycle[ended] - first] = fails[ended]
            frame[ended], units[ended] = 0, 0
            cycle[ended] = first + len(lengths) + np.arange(ended.size)
            done = int(cycle.min()) - first  # every cycle before the oldest open one ended
            fail_units, cut, carried = _join_cycles(
                lengths[:done], failed[:done], cap, carried, trajectories - failures - censored
            )
            failures += len(fail_units)
            censored += cut
            total_units += sum(fail_units) + cut * cap
            first += done
            lengths = np.concatenate([lengths[done:], np.zeros(ended.size, np.int64)])
            failed = np.concatenate([failed[done:], np.zeros(ended.size, bool)])
        return LifetimeSummary(trajectories, failures, censored, 3 * total_units, max_rounds)

    def run_lifetime_fast(
        self, noise: NoiseModel, seed: int, trajectory: int, max_rounds: int
    ) -> TrialResult:
        """One lifetime trajectory on the packed kernel, one unit at a time
        on its own (seed, trajectory) stream, until its probe fails or it
        reaches ``max_rounds // 3`` units."""
        if max_rounds < 3:
            raise ValueError("max_rounds must be >= 3")
        kernel, units = self.kernel, max_rounds // 3
        rng = fault_stream(seed, trajectory)
        res = kernel.zeros(1)
        for u in range(units):
            res = kernel.unit(res, kernel.sample(rng, noise, 1))
            if kernel.fails(res)[0]:
                (ax, az), = kernel.afflicted(res)
                return TrialResult(True, ax, az, 3 * (u + 1))
        return TrialResult(False, (), (), 3 * units)

    def _exrec_batch(self, noise, units, seed, point_idx, batch_idx, n_trials) -> int:
        """Failures in one batch of exRec (or single-EC) trials, on its own stream.
        All units' faults are drawn first (``unit`` reads no random numbers); while
        ``_few_faults_pass``, only the lanes with two or more faults then run."""
        rng = fault_stream(seed, point_idx, units, batch_idx)
        draws = [self.kernel.sample(rng, noise, n_trials) for _ in range(units)]
        if self._few_faults_pass():
            lanes = np.concatenate([lane for atoms in draws for lane, _row in atoms])
            keep = np.bincount(lanes, minlength=n_trials) >= 2
            kept = np.cumsum(keep) - 1
            draws = [[(kept[lane[k]], row[k]) for lane, row in atoms for k in [keep[lane]]]
                     for atoms in draws]
            n_trials = int(keep.sum())
        res = self.kernel.zeros(n_trials)
        for atoms in draws:
            res = self.kernel.unit(res, atoms)
        return int(self.kernel.fails(res).sum())

    def _few_faults_pass(self) -> bool:
        """No trial with at most one fault fails: a fault-free unit leaves residual 0,
        and no single fault fails the exRec sweep, whose unit-2 lanes are the one-fault
        single-unit trials. Kept with its kernel: a copy with its own kernel recomputes."""
        kernel, memo = self.kernel, self.__dict__.get("_few_faults_memo")
        if memo is None or memo[0] is not kernel:
            ok = not kernel.decide(kernel.zeros(1)).any() and self.verify_exrec_single_faults().ok
            memo = self._few_faults_memo = (kernel, ok)
        return memo[1]


def _join_cycles(lengths: np.ndarray, failed: np.ndarray, cap: int, carried: int, wanted: int):
    """Trajectories from ended cycles, (``lengths`` units, ``failed``) in
    start order, the first cycle continuing a trajectory that has run
    ``carried`` units. A trajectory ends at its first failed cycle, unless
    its units pass ``cap`` first: it is then censored at ``cap`` units, and
    the cycle that passes the cap is dropped. Stops after ``wanted``
    trajectories. Returns the units of each failed trajectory, the number
    censored, and the units run by the trajectory left unfinished."""
    ends = np.cumsum(lengths).tolist()
    fail_at = np.flatnonzero(failed).tolist()
    fail_units, censored, pos, start = [], 0, 0, -carried
    while len(fail_units) + censored < wanted:
        # cycle i ends ends[i] - start units into the current trajectory
        k = bisect_left(fail_at, pos)
        f = fail_at[k] if k < len(fail_at) else len(ends)
        g = bisect_left(ends, start + cap, pos)  # the first cycle reaching the cap
        if f <= g and f < len(ends) and ends[f] - start <= cap:
            fail_units.append(ends[f] - start)
            pos = f + 1
        elif g < len(ends):
            censored += 1
            pos = g + 1
        else:
            return fail_units, censored, (ends[-1] if ends else 0) - start
        start = ends[pos - 1]
    return fail_units, censored, 0


def _grid_blocks(rows: int, cols: int):
    """Row and column indices of the cells of a rows x cols grid, in row-major
    order, a block of whole rows at a time of at most ``_PAIR_LANES`` cells
    (one row if a row is longer). The whole grid's indices are never formed."""
    step = max(1, _PAIR_LANES // cols)
    for top in range(0, rows, step):
        i = np.repeat(np.arange(top, min(rows, top + step)), cols)
        yield i, np.tile(np.arange(cols), len(i) // cols)


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
    rows = np.vstack([kernel.pack(sigs), *kernel._atoms])
    split = kernel._types[1][0] // 64
    for cols in (slice(0, split), slice(split, kernel.words)):
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
    unit_noise = NoiseModel(1.0)
    start = len(distinct)
    for cat, atoms, (n_loc, n_val) in zip(_CATEGORIES, kernel._atoms, kernel._sizes):
        a, b = np.triu_indices(n_val)
        pair_w = (unit_noise.category_prob(cat) / n_val) ** 2 * np.where(a == b, 1.0, 2.0)
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


# --- multiprocessing support -------------------------------------------------

_WORKER_STATE: tuple | None = None


def _init_worker(*state):
    global _WORKER_STATE
    _WORKER_STATE = state  # (sim, noise, units, seed, point_idx)


def _run_task(task) -> int:
    sim, *args = _WORKER_STATE
    return sim._exrec_batch(*args, *task)


def _parallel_failures(sim, noise, units, seed, point_idx, tasks, threads) -> int:
    """Failures over ``tasks`` on a fork pool of at most one worker per task."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(
        processes=min(threads, len(tasks)), initializer=_init_worker,
        initargs=(sim, noise, units, seed, point_idx),
    ) as pool:
        return sum(pool.map(_run_task, tasks))
