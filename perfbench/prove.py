"""Run the benchmark over several seeds and summarise how steady it is.

    python3 perfbench/prove.py --seeds 1-10 [--trace] [--baseline perfbench/baseline.json]

For each workload of BENCHMARK.json and each end-to-end metric this prints the median of the runs
and the spread: the distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median,
next to the metric's bound in BENCHMARK.json. ``--trace`` adds one traced
run per workload (first seed). ``--baseline`` writes the summary, the
medians of the per-operation figures, the environment, the inputs and the
per-layer metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, spec["run_seconds"], 0))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        metrics = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else None
            metrics[name] = {"median": statistics.median(values), "spread": s,
                             "bound": bounds[name], "values": values,
                             "unit": runs[0]["result"]["metrics"][name]["unit"]}
            flag = "" if s is None or s < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:22s} median {metrics[name]['median']:12.6g}  spread "
                  f"{s if s is not None else float('nan'):7.4f}  bound {bounds[name]}{flag}",
                  flush=True)
        # the per-operation figures each run prints beside its result line
        operations = {name: statistics.median(r["record"]["metrics"][name]["value"] for r in runs)
                      for name in runs[0]["record"]["metrics"] if name not in bounds}
        entry = {"seeds": args.seeds, "end_to_end": metrics, "operations_median": operations,
                 "all_correct": all(r["result"]["correct"] for r in runs),
                 "known_defects": runs[0]["record"]["probes"]["failures"],
                 "inputs_first_seed": runs[0]["record"]["inputs"],
                 "environment": runs[0]["record"]["environment"]}
        if args.trace:
            traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["trace_absent"] = traced["record"].get("absent", [])
        summary[workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
