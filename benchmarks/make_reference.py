"""Regenerate ``reference.json``, the recorded values the benchmark checks
its outputs against.

    python3 benchmarks/make_reference.py

The Monte Carlo references use far more trials than a benchmark run and a
seed of their own, so a run's checks compare two independent estimates.
The exhaustive counts and the exact coefficient are deterministic.
Uses every available core; takes a few minutes on two.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starqec import engine  # noqa: E402
from starqec.circuits import NoiseModel  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE_SEED = 171207666
EXREC_TRIALS = 2_000_000
LIFETIME_TRAJECTORIES = {"ssd": 40_000, "surface17": 10_000}


def exrec_reference(sims: dict) -> dict:
    out = {}
    for code in workloads.CODES:
        points = sims[code].estimate_pl(list(workloads.GRID), EXREC_TRIALS, REFERENCE_SEED,
                                        threads=len(os.sched_getaffinity(0)))
        out[code] = {repr(pt.p): {"trials": pt.trials, "failures": pt.failures}
                     for pt in points}
    return out


def lifetime_reference(sims: dict) -> dict:
    out = {}
    noise = NoiseModel(workloads.LIFETIME_P)
    for code in workloads.CODES:
        n = LIFETIME_TRAJECTORIES[code]
        max_rounds = workloads.LIFETIME_MAX_ROUNDS[code]
        # The per-trajectory path estimate_lifetime runs, kept per trajectory
        # so the spread of survival times is known.
        rounds = [
            sims[code].run_lifetime_fast(noise, REFERENCE_SEED + 1, t, max_rounds)
            for t in range(n)
        ]
        survived = [r.rounds_survived for r in rounds]
        mean = sum(survived) / n
        sd = math.sqrt(sum((s - mean) ** 2 for s in survived) / (n - 1))
        out[code] = {"trajectories": n, "mean_rounds": mean, "sd_rounds": sd,
                     "censored": sum(not r.failed for r in rounds)}
    return out


def construct_verify_reference() -> dict:
    wl = workloads.ConstructVerify(0, Tracer(False), workloads.Checks(), {}, 1)
    sims = {c: engine.Simulator(*wl.inputs(c)) for c in workloads.CODES}
    out = {}
    for code in workloads.CODES:
        report = sims[code].verify()
        if not report.ok:
            raise SystemExit(f"{code}: verify() fails; no reference recorded")
        c1, sweep = report.condition1, report.exrec_sweep
        out[code] = {
            "input_cases": c1.input_cases,
            "fault_cases": c1.fault_cases,
            "correctability_cases": c1.correctability_cases,
            "exrec_sweep_cases": sweep.cases,
            "cnots": sims[code].circuit.cnot_count(),
        }
    out["exact_c_surface17"] = engine.exact_quadratic_coefficient(sims["surface17"])
    return out


def main() -> None:
    t0 = time.time()
    sims = {c: engine.Simulator.for_builtin(c) for c in workloads.CODES}
    reference = {
        "seed": REFERENCE_SEED,
        "exrec": exrec_reference(sims),
        "lifetime": lifetime_reference(sims),
        "construct_verify": construct_verify_reference(),
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
