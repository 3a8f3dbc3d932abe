"""The benchmark's workloads and the checks on their outputs.

Every workload follows the same shape. Set-up gets each code and schedule
the way the CLI does and builds one ``Simulator`` per code. A pass then
does the workload's work on those simulators. A workload whose work is too
long for one pass splits it into pass kinds, run in turn; one pass of each
kind is one job. A pass draws every library seed from the workload seed, so
one seed fixes every input. The harness in ``run.py`` repeats set-up and
passes and turns the records into metrics.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from starqec import codes, complexes, engine, faulttol
from starqec.circuits import NoiseModel, category_value_count

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SSD_COMPLEX_PATH = HERE / "inputs" / "ssd.cplx"

CODES = ("ssd", "surface17")
GRID = (3e-4, 1e-3, 3e-3)
PARALLEL_P = 1e-3
LIFETIME_P = 1e-3
# As in the acceptance suite: long enough that no trajectory is censored.
LIFETIME_MAX_ROUNDS = {"ssd": 6000, "surface17": 60000}
# Acceptance-suite bands for the fitted quadratic coefficient.
C_BANDS = {"ssd": (39000.0, 74000.0), "surface17": (2000.0, 4200.0)}
EXACT_C_RTOL = 1e-9
# Statistical checks fail beyond this many standard errors. At 6 a correct
# program fails one check in about 5e8, so a failure means a wrong result.
Z_MAX = 6.0
BATCH_SIZE = 8192  # Simulator.estimate_pl's default; every call uses it


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def sized(base: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(base * scale)))


class Checks:
    """Counts checked operations; a failed check or an exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{what}: {detail}")

    @contextmanager
    def operation(self, what: str):
        """Run one operation; an exception fails it and is not re-raised."""
        try:
            yield
        except Exception as exc:  # the benchmark keeps measuring and reports it
            self.attempted += 1
            self.failed += 1
            self.messages.append(f"{what}: {type(exc).__name__}: {exc}")


def z_score(failures: int, trials: int, ref_failures: int, ref_trials: int) -> float:
    """Standard errors between an observed failure rate and a reference rate,
    counting the binomial uncertainty of both."""
    ref = ref_failures / ref_trials
    var = ref * (1.0 - ref) * (1.0 / trials + 1.0 / ref_trials)
    if var <= 0.0:
        return 0.0 if failures == 0 else math.inf
    return abs(failures / trials - ref) / math.sqrt(var)


@dataclass
class PassRecord:
    """What one pass did: time in the workload's engine calls and the work
    items (trials, EC units or exhaustive cases) they completed, per code."""

    kind: str
    engine_s: dict[str, float] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    # One pass of each kind, in this order, makes up one job.
    pass_kinds = ("pass",)

    def __init__(self, seed: int, tracer, checks: Checks, reference: dict,
                 nproc: int, scale: float = 1.0):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.checks = checks
        self.reference = reference
        self.nproc = nproc
        self.scale = scale

    def size(self) -> dict:
        """Work per pass, for the provenance record."""
        return {}

    def next_seed(self) -> int:
        return self.rng.getrandbits(32)

    def inputs(self, code: str):
        """Code and schedule as ``starqec sim ... --code <code>`` gets them."""
        with self.tracer.span("codes.get_builtin_code", code=code):
            css = codes.get_builtin_code(code)
        with self.tracer.span("faulttol.builtin_schedule", code=code):
            schedule = faulttol.builtin_schedule(code)
        return css, schedule

    @contextmanager
    def engine_call(self, rec: PassRecord, name: str, code: str):
        t0 = time.perf_counter()
        with self.tracer.span(name, code=code):
            yield
        rec.engine_s[code] = rec.engine_s.get(code, 0.0) + time.perf_counter() - t0

    def run_pass(self, sims: dict, kind: str) -> PassRecord:
        raise NotImplementedError

    def finish(self, sims: dict) -> None:
        """Checks on what the whole run accumulated."""

    def details(self, records: list[PassRecord], sims: dict) -> dict:
        """Workload-specific figures for the report and the trace file."""
        return {}


def _faults_per_unit(sim, p: float) -> float:
    """Expected number of faults in one EC unit at physical error rate p."""
    noise = NoiseModel(p)
    return sum(
        len(locs) * noise.category_prob(cat)
        for cat, (locs, _sigs) in sim.signatures.by_category.items()
    )


class ExrecGrid(Workload):
    """exRec Monte Carlo over the p grid for both codes, one process."""

    name = "exrec-grid"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trials = sized(5 * BATCH_SIZE, self.scale, 1)
        self.totals = {c: {p: [0, 0] for p in GRID} for c in CODES}
        self.fitted: dict[str, float] = {}

    def size(self):
        return {"trials_per_point": self.trials, "grid": list(GRID), "threads": 1}

    def run_pass(self, sims, kind):
        rec = PassRecord(kind)
        for code in CODES:
            seed = self.next_seed()
            with self.engine_call(rec, "engine.estimate_pl", code):
                points = sims[code].estimate_pl(list(GRID), self.trials, seed, threads=1)
            rec.items[code] = self.trials * len(GRID)
            for pt in points:
                tot = self.totals[code][pt.p]
                tot[0] += pt.trials
                tot[1] += pt.failures
        return rec

    def finish(self, sims):
        ref = self.reference["exrec"]
        for code in CODES:
            points = []
            for p in GRID:
                trials, failures = self.totals[code][p]
                if not trials:
                    continue
                r = ref[code][repr(p)]
                z = z_score(failures, trials, r["failures"], r["trials"])
                self.checks.check(
                    f"{code} p_L at p={p:g}", z <= Z_MAX,
                    f"{failures}/{trials} is {z:.1f} standard errors from the reference "
                    f"{r['failures']}/{r['trials']}",
                )
                points.append(engine.PointEstimate(p, trials, failures))
            if not points:
                continue
            with self.checks.operation(f"{code} fit_quadratic"):
                with self.tracer.span("engine.fit_quadratic", code=code):
                    fit = engine.fit_quadratic(points)
                lo, hi = C_BANDS[code]
                self.checks.check(f"{code} fitted c", lo <= fit.c <= hi,
                                  f"c={fit.c:.0f} outside [{lo:.0f}, {hi:.0f}]")
                self.fitted[code] = fit.c

    def details(self, records, sims):
        out = {}
        for code in CODES:
            for p in GRID:
                out[f"engine.faults_per_trial.{code}.{p:g}"] = 2 * _faults_per_unit(sims[code], p)
            if code in self.fitted:
                out[f"fit.c.{code}"] = self.fitted[code]
        return out


class Lifetime(Workload):
    """Memory lifetime at p = 1e-3 for both codes, residuals carried forward."""

    name = "lifetime"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trajectories = {"ssd": sized(1000, self.scale, 1),
                             "surface17": sized(250, self.scale, 1)}
        self.totals = {c: [0, 0, 0] for c in CODES}  # trajectories, rounds, censored

    def size(self):
        return {"trajectories": self.trajectories, "p": LIFETIME_P,
                "max_rounds": LIFETIME_MAX_ROUNDS}

    def run_pass(self, sims, kind):
        rec = PassRecord(kind)
        noise = NoiseModel(LIFETIME_P)
        for code in CODES:
            seed = self.next_seed()
            with self.engine_call(rec, "engine.estimate_lifetime", code):
                summary = sims[code].estimate_lifetime(
                    noise, self.trajectories[code], seed, LIFETIME_MAX_ROUNDS[code]
                )
            # A trajectory that survives r rounds ran r / 3 EC units.
            rec.items[code] = summary.total_rounds // 3
            tot = self.totals[code]
            tot[0] += summary.trajectories
            tot[1] += summary.total_rounds
            tot[2] += summary.censored
        return rec

    def finish(self, sims):
        ref = self.reference["lifetime"]
        for code in CODES:
            trajectories, rounds, censored = self.totals[code]
            if not trajectories:
                continue
            self.checks.check(f"{code} lifetime censoring", censored == 0,
                              f"{censored} of {trajectories} trajectories censored")
            r = ref[code]
            mean = rounds / trajectories
            se = math.sqrt(r["sd_rounds"] ** 2 / trajectories
                           + r["sd_rounds"] ** 2 / r["trajectories"])
            z = abs(mean - r["mean_rounds"]) / se
            self.checks.check(
                f"{code} lifetime mean", z <= Z_MAX,
                f"mean {mean:.1f} rounds is {z:.1f} standard errors from the reference "
                f"{r['mean_rounds']:.1f}",
            )

    def details(self, records, sims):
        out = {}
        for code in CODES:
            trajectories, rounds, _ = self.totals[code]
            if trajectories:
                out[f"engine.lifetime_mean_rounds.{code}"] = rounds / trajectories
                out[f"engine.lifetime_units.{code}"] = rounds // 3
        return out


def exact_c_pair_count(sim) -> tuple[int, int]:
    """Distinct signatures and malignancy evaluations of the enumeration in
    ``exact_quadratic_coefficient``: unordered pairs of distinct signatures
    for each of the two same-unit rules, the same-location pairs it
    subtracts for each rule, and ordered cross-unit pairs. The count is the
    fixed size of the job, whatever algorithm later computes c."""
    distinct = {
        (s.x_res, s.z_res, s.x_syn, s.z_syn) for _loc, _val, s in sim.signatures.iter_all()
    }
    n = len(distinct)
    same_location = sum(
        len(locs) * category_value_count(cat) * (category_value_count(cat) + 1) // 2
        for cat, (locs, _sigs) in sim.signatures.by_category.items()
    )
    return n, 2 * (n * (n + 1) // 2 + same_location) + n * n


class ConstructVerify(Workload):
    """Complex to verified simulator, exhaustive verification and exact c."""

    name = "construct-verify"
    # The exact c alone takes most of a job, so it is a pass of its own.
    pass_kinds = ("verify", "exact_c")

    def size(self):
        return {"complex": SSD_COMPLEX_PATH.name, "exact_c": "surface17"}

    def _construct_ssd(self):
        text = SSD_COMPLEX_PATH.read_text()
        with self.tracer.span("complexes.parse_complex", code="ssd"):
            cx = complexes.parse_complex(text, name="ssd")
        with self.tracer.span("codes.code_from_complex", code="ssd"):
            css = codes.code_from_complex(cx)
        with self.tracer.span("faulttol.find_fault_tolerant_schedule", code="ssd"):
            search = faulttol.find_fault_tolerant_schedule(css)
        return css, search

    def inputs(self, code):
        if code != "ssd":
            return super().inputs(code)
        css, search = self._construct_ssd()
        return css, search.schedule

    def run_pass(self, sims, kind):
        rec = PassRecord(kind)
        if kind == "verify":
            self._verify_pass(sims, rec)
        else:
            self._exact_c_pass(sims, rec)
        return rec

    def _verify_pass(self, sims, rec):
        t0 = time.perf_counter()
        css, search = self._construct_ssd()
        rec.extra["construct_s"] = time.perf_counter() - t0
        rec.extra["schedule_attempts"] = search.attempts
        self.checks.check("ssd code from complex", (css.n, css.k) == (30, 8),
                          f"got [[{css.n},{css.k}]]")
        self.checks.check("ssd schedule search", search.schedule == sims["ssd"].schedule,
                          "search found a different schedule than in set-up")
        ref = self.reference["construct_verify"]
        for code in CODES:
            sim = sims[code]
            with self.engine_call(rec, "engine.verify", code):
                report = sim.verify()
            c1, sweep = report.condition1, report.exrec_sweep
            self.checks.check(f"{code} verify", report.ok,
                              f"{len(c1.violations)} + {len(sweep.violations)} violations")
            counts = {
                "input_cases": c1.input_cases,
                "fault_cases": c1.fault_cases,
                "correctability_cases": c1.correctability_cases,
                "exrec_sweep_cases": sweep.cases,
                "cnots": sim.circuit.cnot_count(),
            }
            self.checks.check(f"{code} case counts", counts == ref[code],
                              f"{counts} != {ref[code]}")
            rec.items[code] = (c1.input_cases + c1.fault_cases + c1.correctability_cases
                               + sweep.cases)

    def _exact_c_pass(self, sims, rec):
        s17 = sims["surface17"]
        with self.engine_call(rec, "engine.exact_quadratic_coefficient", "surface17"):
            c = engine.exact_quadratic_coefficient(s17)
        want = self.reference["construct_verify"]["exact_c_surface17"]
        self.checks.check("surface17 exact c", abs(c - want) <= EXACT_C_RTOL * abs(want),
                          f"c={c!r}, recorded {want!r}")
        rec.items["surface17"] = exact_c_pair_count(s17)[1]

    def details(self, records, sims):
        verify = [r for r in records if r.kind == "verify"]
        exact_s = median([r.engine_s["surface17"] for r in records if r.kind == "exact_c"])
        distinct, pairs = exact_c_pair_count(sims["surface17"])
        out = {
            "engine.exact_c_distinct_sigs": distinct,
            "engine.exact_c_pairs": pairs,
            "engine.exact_c_s": exact_s,
            "engine.exact_c_pairs_per_s": pairs / exact_s,
            "faulttol.schedule_attempts": median([r.extra["schedule_attempts"] for r in verify]),
            "construct_s": median([r.extra["construct_s"] for r in verify]),
        }
        for code in CODES:
            out[f"engine.verify_s.{code}"] = median([r.engine_s[code] for r in verify])
        return out


class ExrecParallel(Workload):
    """exRec at p = 1e-3 with one thread and with max(2, nproc) threads, same
    seed. At least two threads, so that the pool runs even on one core."""

    name = "exrec-parallel"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # At least two batches, so that estimate_pl hands work to the pool.
        self.trials = sized(8 * BATCH_SIZE, self.scale, 2 * BATCH_SIZE)
        self.threads = max(2, self.nproc)
        self.totals = {c: [0, 0] for c in CODES}

    def size(self):
        return {"trials_per_point": self.trials, "p": PARALLEL_P,
                "threads": [1, self.threads]}

    def run_pass(self, sims, kind):
        rec = PassRecord(kind)
        for code in CODES:
            sim = sims[code]
            seed = self.next_seed()
            t0 = time.perf_counter()
            with self.tracer.span("engine.estimate_pl", code=code, threads=1):
                serial = sim.estimate_pl([PARALLEL_P], self.trials, seed, threads=1)[0]
            rec.extra[f"serial_s.{code}"] = time.perf_counter() - t0
            with self.engine_call(rec, "engine.estimate_pl", code):
                parallel = sim.estimate_pl([PARALLEL_P], self.trials, seed,
                                           threads=self.threads)[0]
            rec.items[code] = self.trials
            self.checks.check(
                f"{code} thread invariance", serial.failures == parallel.failures,
                f"{serial.failures} failures with 1 thread, {parallel.failures} with "
                f"{self.threads}",
            )
            tot = self.totals[code]
            tot[0] += parallel.trials
            tot[1] += parallel.failures
        return rec

    def finish(self, sims):
        for code in CODES:
            trials, failures = self.totals[code]
            if not trials:
                continue
            r = self.reference["exrec"][code][repr(PARALLEL_P)]
            z = z_score(failures, trials, r["failures"], r["trials"])
            self.checks.check(f"{code} p_L at p={PARALLEL_P:g}", z <= Z_MAX,
                              f"{failures}/{trials} is {z:.1f} standard errors from "
                              f"the reference")

    def details(self, records, sims):
        out = {}
        batches = -(-self.trials // BATCH_SIZE)
        for code in CODES:
            serial = median([r.extra[f"serial_s.{code}"] for r in records])
            parallel = median([r.engine_s[code] for r in records])
            out[f"engine.batches.{code}"] = batches
            out[f"parallel_speedup.{code}"] = serial / parallel
            out[f"engine.pool_overhead_s.{code}"] = parallel - serial / self.threads
        return out


WORKLOADS = {w.name: w for w in (ExrecGrid, Lifetime, ConstructVerify, ExrecParallel)}
