"""starqec benchmark: runs one workload and prints its metrics.

    python3 benchmarks/run.py --workload exrec-grid --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
A run repeats the workload's set-up, then its passes, until ``--seconds``
have passed, and reports medians. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run measures the workload once untraced and once traced,
each for half the time, reports per-layer metrics from the traced half and
writes the spans to ``benchmarks/out/``. Every output is checked; the exit
code is 1 if any check failed and 2 if the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPS = 7
CALIBRATION_ITERATIONS = 500_000

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput.ssd", "1/s"),
    ("throughput.surface17", "1/s"),
    ("peak_rss_mb", "MB"),
)
LAYERS = ("complexes", "codes", "scheduling", "faulttol", "circuits", "frames", "decoder",
          "engine")
# Per-code call metrics: span names timed, and the span they must sit under
# (None: anywhere). These are set-up calls, so they move setup_s.
CALL_METRICS = (
    ("codes.build_s", ("codes.get_builtin_code", "codes.code_from_complex"), None),
    ("faulttol.schedule_s",
     ("faulttol.builtin_schedule", "faulttol.find_fault_tolerant_schedule"), None),
    ("circuits.build_s", ("circuits.build_ec_circuit",), "engine.Simulator"),
    ("decoder.tables_s", ("decoder.build_tables",), None),
    ("faulttol.unique_syndromes_s", ("faulttol.verify_unique_syndromes",), "engine.Simulator"),
    ("frames.signatures_s", ("frames.compute_signatures",), None),
)


def per_layer_names(codes) -> list[tuple[str, str]]:
    names = [(f"{layer}.self_s", "s") for layer in LAYERS]
    for code in codes:
        names += [(f"{stem}.{code}", "s") for stem, _spans, _under in CALL_METRICS]
        names += [
            (f"frames.signature_count.{code}", "count"),
            (f"decoder.table_entries.{code}", "count"),
            (f"engine.run_s.{code}", "s"),
            (f"engine.items.{code}", "count"),
            (f"faulttol.syndrome_bits_per_s.{code}", "1/s"),
        ]
    names += [("decoder.ec_decision_per_s", "1/s"), ("trace.overhead_s", "s"),
              ("host.calib_s", "s")]
    return names


def traced_call_sites():
    """Library functions the library calls internally, wrapped where they
    are looked up, so that a traced phase sees inside set-up and verify()."""
    from starqec import codes, decoder, engine, faulttol

    sim = engine.Simulator
    return [
        (codes, "small_stellated_dodecahedron_complex",
         "complexes.small_stellated_dodecahedron_complex"),
        (faulttol, "parse_schedule", "scheduling.parse_schedule"),
        (faulttol, "dsatur_color", "scheduling.dsatur_color"),
        (faulttol, "schedule_from_colorings", "scheduling.schedule_from_colorings"),
        (faulttol, "verify_properness", "scheduling.verify_properness"),
        (faulttol, "verify_unique_syndromes", "faulttol.verify_unique_syndromes"),
        (faulttol, "enumerate_single_fault_errors", "faulttol.enumerate_single_fault_errors"),
        (faulttol, "build_ec_circuit", "circuits.build_ec_circuit"),
        (decoder, "build_lookup_table", "decoder.build_lookup_table"),
        (decoder, "verify_unique_syndromes", "faulttol.verify_unique_syndromes"),
        (decoder, "enumerate_single_fault_errors", "faulttol.enumerate_single_fault_errors"),
        (engine, "build_ec_circuit", "circuits.build_ec_circuit"),
        (engine, "build_tables", "decoder.build_tables"),
        (engine, "compute_signatures", "frames.compute_signatures"),
        (engine, "verify_properness", "scheduling.verify_properness"),
        (engine, "verify_unique_syndromes", "faulttol.verify_unique_syndromes"),
        (engine, "enumerate_single_fault_errors", "faulttol.enumerate_single_fault_errors"),
        (engine, "_parallel_failures", "engine._parallel_failures"),
        (sim, "verify_condition1", "engine.verify_condition1"),
        (sim, "verify_exrec_single_faults", "engine.verify_exrec_single_faults"),
        (sim, "_run_batch", "engine._run_batch", lambda _self, noise, *a, **k: {"p": noise.p}),
    ]


@dataclass
class Phase:
    sims: dict
    setups: list[float]  # Simulator construction, summed over codes, per repetition
    passes: dict[str, list[float]]  # wall time of each pass, by pass kind
    records: list
    details: dict
    size: dict

    def _records(self, code: str):
        """Per pass kind, the records of the passes that worked on ``code``."""
        for kind in self.passes:
            recs = [r for r in self.records if r.kind == kind and code in r.items]
            if recs:
                yield recs

    def job_total(self, code: str, field: str) -> float:
        """A per-code record field over one job: the sum over pass kinds of
        its median."""
        return sum(median(getattr(r, field)[code] for r in recs)
                   for recs in self._records(code))

    def throughput(self, code: str) -> float:
        """Work items per second of engine time over one job. Each pass kind
        contributes its median items at its median rate."""
        items = seconds = 0.0
        for recs in self._records(code):
            n = median(r.items[code] for r in recs)
            items += n
            seconds += n / median(r.items[code] / r.engine_s[code] for r in recs)
        return items / seconds

    def e2e(self) -> dict[str, float]:
        setup_s = median(self.setups)
        out = {"setup_s": setup_s,
               "wall_s": setup_s + sum(median(t) for t in self.passes.values())}
        for code in self.sims:
            out[f"throughput.{code}"] = self.throughput(code)
        return out


def run_phase(workload, tracer, seconds: float, setup_reps: int) -> Phase | None:
    """Alternate set-ups and passes, starting with a set-up, until
    ``setup_reps`` set-ups are done and the next pass would end more than
    ``seconds`` after the start; at least one pass of each kind. Pass kinds
    take turns. Interleaving spreads every kind of sample over the run, so a
    slow spell of the host hits all alike. Each timed set-up or pass starts
    from an emptied garbage collector, so that garbage left by the previous
    one does not land in its time. Returns None if a set-up failed or a
    pass kind has no pass."""
    from starqec.engine import Simulator

    import workloads

    checks = workload.checks
    deadline = time.perf_counter() + seconds
    kinds = workload.pass_kinds
    setups, passes, records = [], {kind: [] for kind in kinds}, []
    sims = {}

    def set_up() -> bool:
        tracer.run = f"setup-{len(setups)}"
        gc.collect()
        total = 0.0
        with checks.operation(f"set-up {len(setups)}"):
            for code in workloads.CODES:
                css, schedule = workload.inputs(code)
                t0 = time.perf_counter()
                with tracer.span("engine.Simulator", code=code):
                    sims[code] = Simulator(css, schedule)
                total += time.perf_counter() - t0
            setups.append(total)
            return True
        return False

    def one_pass(kind: str) -> bool:
        tracer.run = f"{kind}-{len(passes[kind])}"
        gc.collect()
        t0 = time.perf_counter()
        with checks.operation(f"{kind} {len(passes[kind])}"):
            records.append(workload.run_pass(sims, kind))
            passes[kind].append(time.perf_counter() - t0)
            return True
        return False

    if not set_up():
        return None
    while True:
        kind = kinds[len(records) % len(kinds)]
        done = passes[kind]
        fits = not done or time.perf_counter() + median(done) <= deadline
        if fits and not one_pass(kind):
            break
        if len(setups) < setup_reps:
            if not set_up():
                return None
        elif not fits:
            break
    if not all(passes.values()):
        return None
    tracer.run = "finish"
    with checks.operation("end-of-run checks"):
        workload.finish(sims)
    return Phase(sims, setups, passes, records, workload.details(records, sims),
                 workload.size())


def layer_metrics(tracer, phase: Phase) -> dict[str, float]:
    """Per-layer figures of one traced phase. A time is the median over the
    set-up repetitions plus, for each pass kind, the median over its passes
    (plus the end-of-run checks), so the layer times add up to that phase's
    wall_s."""
    from tracing import has_ancestor, self_times

    spans = tracer.spans
    jobs = sorted({sp.run for sp in spans})

    def per_job(selected) -> float:
        sums = dict.fromkeys(jobs, 0.0)
        for i, value in selected:
            sums[spans[i].run] += value
        kinds = {job.split("-")[0] for job in jobs}
        return sum(
            median([v for job, v in sums.items() if job.split("-")[0] == kind])
            for kind in kinds
        )

    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_job(
            (i, own[i]) for i, sp in enumerate(spans) if sp.layer == layer
        )
    for code, sim in phase.sims.items():
        for stem, names, under in CALL_METRICS:
            out[f"{stem}.{code}"] = per_job(
                (i, sp.duration) for i, sp in enumerate(spans)
                if sp.name in names and sp.code == code
                and (under is None or has_ancestor(spans, i, under))
            )
        out[f"frames.signature_count.{code}"] = sum(1 for _ in sim.signatures.iter_all())
        out[f"decoder.table_entries.{code}"] = sum(
            t.syndrome_count for t in sim.tables.values()
        )
        out[f"engine.run_s.{code}"] = phase.job_total(code, "engine_s")
        out[f"engine.items.{code}"] = phase.job_total(code, "items")
    return out


def call_rates(sims: dict, seed: int, checks, calls: int) -> dict[str, float]:
    """Calls per second of the two per-EC-unit primitives on generated inputs."""
    import numpy as np
    from starqec.decoder import ec_decision
    from starqec.faulttol import syndrome_bits

    rng = np.random.default_rng(seed)
    syndromes = rng.integers(1, 1 << 11, size=(calls, 3))
    # Most EC units see trivial or repeated syndromes.
    syndromes[rng.random((calls, 3)) < 0.5] = 0
    repeat = rng.random(calls) < 0.25
    syndromes[repeat, 1] = syndromes[repeat, 0]
    triples = syndromes.tolist()
    t0 = time.perf_counter()
    decisions = [ec_decision(a, b, c) for a, b, c in triples]
    out = {"decoder.ec_decision_per_s": calls / (time.perf_counter() - t0)}
    wrong = sum(d.syndrome != _decision_rule(*t) for d, t in zip(decisions, triples))
    checks.check("ec_decision", wrong == 0, f"{wrong} of {calls} decisions differ")

    for code, sim in sims.items():
        rows = sim.tables["X"].detect_rows
        n = sim.code.n
        pairs = rng.integers(0, n, size=(calls, 2)).tolist()
        errors = [(1 << a) | (1 << b) for a, b in pairs]
        t0 = time.perf_counter()
        got = [syndrome_bits(rows, e) for e in errors]
        out[f"faulttol.syndrome_bits_per_s.{code}"] = calls / (time.perf_counter() - t0)
        qubits = np.arange(n)
        h = (np.array(rows, dtype=np.int64)[:, None] >> qubits) & 1
        e = (np.array(errors, dtype=np.int64)[:, None] >> qubits) & 1
        bits = (e @ h.T) % 2
        want = bits @ (1 << np.arange(len(rows), dtype=np.int64))
        wrong = int(np.count_nonzero(np.array(got, dtype=np.int64) != want))
        checks.check(f"{code} syndrome_bits", wrong == 0, f"{wrong} of {calls} syndromes differ")
    return out


def _decision_rule(s1: int, s2: int, s3: int) -> int:
    """The three-round rule, restated: correct on nothing if two syndromes
    are trivial, else on a repeated syndrome, else on the last one."""
    if [s1, s2, s3].count(0) >= 2:
        return 0
    if s1 in (s2, s3):
        return s1
    return s2 if s2 == s3 else s3


def calibration_loop() -> float:
    """Time of a fixed pure-Python loop; tells a slow host from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc ^= i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "starqec").rglob("*")):
        if path.suffix in (".py", ".sched"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  scale: float = 1.0, setup_reps: int = SETUP_REPS,
                  rate_calls: int = 200_000) -> dict:
    """Run one workload; returns the result object, a report and the trace."""
    import numpy

    import workloads
    from tracing import Tracer

    reference = workloads.load_reference()
    checks = workloads.Checks()
    cls = workloads.WORKLOADS[name]
    cores = len(os.sched_getaffinity(0))
    calib = [calibration_loop() for _ in range(3)]

    def phase(tracer, phase_seconds):
        wl = cls(seed, tracer, checks, reference, cores, scale)
        return run_phase(wl, tracer, phase_seconds, setup_reps)

    metrics: dict[str, float] = {}
    trace_doc = None
    if not trace:
        measured = phase(Tracer(False), seconds)
        if measured is not None:
            metrics = measured.e2e()
    else:
        plain = phase(Tracer(False), seconds / 2)
        tracer = Tracer(True)
        with tracer.patched(traced_call_sites()):
            measured = phase(tracer, seconds / 2)
        if plain is not None and measured is not None:
            metrics = layer_metrics(tracer, measured)
            metrics.update(call_rates(measured.sims, seed, checks, rate_calls))
            metrics["trace.overhead_s"] = measured.e2e()["wall_s"] - plain.e2e()["wall_s"]
        trace_doc = {"skipped_call_sites": tracer.skipped, "spans": [
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "run": sp.run, "code": sp.code, **sp.attrs}
            for sp in tracer.spans
        ]}
    calib += [calibration_loop() for _ in range(3)]
    if not trace and measured is not None:
        metrics["peak_rss_mb"] = peak_rss_mb()
    if trace and metrics:
        metrics["host.calib_s"] = median(calib)

    units = dict(E2E_METRICS) if not trace else dict(per_layer_names(workloads.CODES))
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "host.calib_s": median(calib),
        "batch_size": workloads.BATCH_SIZE,
        "setup_reps": setup_reps,
        "passes": {k: len(v) for k, v in measured.passes.items()} if measured else {},
        "size": measured.size if measured else {},
    }
    details = measured.details if measured else {}
    if trace_doc is not None:
        trace_doc.update(provenance=provenance, metrics=metrics, details=details)
    return {
        "result": result,
        "provenance": provenance,
        "details": details,
        "messages": checks.messages,
        "trace": trace_doc,
    }


def print_report(run: dict) -> None:
    result = run["result"]
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']}")
    for key, value in run["details"].items():
        print(f"{key:40s} {value:14.6g}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':40s} {share:14.6g} ({result['failed']} of "
          f"{result['attempted']} checked operations)")
    for msg in run["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"provenance": run["provenance"]}))
    print(json.dumps(result))


def main(argv=None) -> int:
    if not (SRC / "starqec" / "__init__.py").is_file():
        print(f"starqec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import starqec

    if not Path(starqec.__file__).resolve().is_relative_to(SRC):
        print(f"starqec imported from {starqec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description="starqec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if run["trace"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(run["trace"]) + "\n")
        print(f"trace written to {path}")
    print_report(run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
