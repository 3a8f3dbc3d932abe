"""Run-to-run spread of the benchmark's metrics.

    python3 benchmarks/spread.py --seeds 10 [--workload exrec-grid ...] [--out FILE]

Runs ``run.py`` once per seed (seeds 1..N) on each workload, one run at a
time, and prints for every metric the median, the quartiles and the spread
(third minus first quartile, as a share of the median), next to the bound
from BENCHMARK.json. ``--out`` writes the same figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    provenance = json.loads(lines[-2])["provenance"]
    return {"result": json.loads(lines[-1]), "calib_s": provenance["host.calib_s"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {}
    for workload in names:
        runs = [run_once(workload, seed, bench["run_seconds"])
                for seed in range(1, args.seeds + 1)]
        metrics = {}
        for key in runs[0]["result"]["metrics"]:
            metrics[key] = summarize([r["result"]["metrics"][key]["value"] for r in runs])
        metrics["host.calib_s"] = summarize([r["calib_s"] for r in runs])
        report[workload] = metrics
        for key, s in metrics.items():
            bound = bounds.get(key)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {key:28s} median {s['median']:12.6g} "
                  f"spread {s['spread']:7.2%} bound {bound if bound is not None else '-'}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
