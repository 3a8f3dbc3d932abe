"""Fault-tolerance verification and Monte Carlo estimation.

The EC unit is three noisy syndrome rounds followed by the three-syndrome
decision rule; an exRec is two consecutive EC units. Both exhaustive
single-fault verification and Monte Carlo trials run on precomputed
single-fault signatures (Pauli-frame propagation is linear, so a fault
set's effect is the XOR of its members' signatures), packed into the lanes
of ``kernel.EcKernel``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import CATEGORIES as _CATEGORIES, EcCircuit, NoiseModel, build_ec_circuit, fault_stream
from .codes import CssCode, get_builtin_code
from .decoder import build_tables
from .exact import exact_quadratic_coefficient  # noqa: F401  benchmarks/workloads.py reads it here
from .faulttol import (
    builtin_schedule,
    enumerate_single_fault_errors,
    verify_properness,
    verify_unique_syndromes,
)
from .frames import FaultSig, compute_signatures
from .kernel import EcKernel, _grid_blocks
from .results import LifetimeSummary, PointEstimate
from .results import fit_quadratic  # noqa: F401  benchmarks/workloads.py reads it here
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


_CYCLE_LANES = 4096  # lanes of open lifetime cycles; bounds lifetime memory


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
        on first use and kept; it reads only ``signatures`` and the kernel's
        atom weights, which no table changes."""
        return self._distinct

    @cached_property
    def _distinct(self) -> tuple[tuple[FaultSig, ...], np.ndarray]:
        index: dict[FaultSig, int] = {}
        weights: list[float] = []
        for cat, (_rows, _size, w) in zip(_CATEGORIES, self.kernel.atom_tables):
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
