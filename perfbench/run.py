"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-allpairs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run is a closed loop, one caller in one process: rounds of the
workload's operations run back to back, with BLAS pinned to one thread in
this process and in every process it starts. ``--seconds`` sets the number
of rounds: the seconds divided by the workload's nominal round time, so
every run of a workload does the same work.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every round
twice on identical inputs, untraced and traced, the order alternating from
round to round, and prints the per-layer metrics: the per-operation figures
of the untraced rounds, the module spans per traced round, and the tracing
overhead. ``--smoke`` runs one round at toy size, to check the
harness in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else,
including the spans of a traced run, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Set for this process (by re-executing it) and inherited by every child.
#: BLAS runs on one thread. The hash seed is fixed because the package's
#: output depends on string hashing (see the cli-dietary probe), and the
#: CLI checks compare bytes.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit. Every workload has them all.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Per-operation figures of the untraced rounds: name -> unit. Each is
#: measured on the workload that runs the operation and is 0 on the others.
OPERATIONS = {
    "betweenness_s": "s", "decompose_allpairs_s": "s", "rank_paths_s": "s",
    "query_p50_ms": "ms", "query_tail_ms": "ms", "fit_s": "s",
    "cli_p50_ms": "ms", "cli_tail_ms": "ms",
}

WEIGHT_FNS = ("weight", "partial_weight", "factorize", "normalized_weight",
              "weight_bounds", "edge_measures")

#: Per-layer metrics of the traced run: name -> unit. Span counts and times are
#: per traced round.
PER_LAYER = {
    **OPERATIONS,
    "import.total_ms": "ms", "import.scipy_ms": "ms", "import.numpy_ms": "ms",
    "import.bare_python_ms": "ms",
    "cli.main_ms": "ms", "cli.startup_ms": "ms",
    "modelio.load_model.calls": "count", "modelio.load_model.ms": "ms",
    "modelio.report_rows.ms": "ms", "modelio.format_report.ms": "ms",
    "model.build.calls": "count", "model.build_s": "s",
    "graphs.enumerate_paths.calls": "count", "graphs.enumerate_paths.s": "s",
    "graphs.paths": "count", "graphs.paths_per_s": "1/s",
    "symmetric.chol_det.calls": "count", "symmetric.chol_det.s": "s",
    "symmetric.SymMatrix.inverse.calls": "count", "symmetric.SymMatrix.inverse.s": "s",
    "symmetric.SymMatrix.schur_complement.calls": "count",
    "symmetric.SymMatrix.schur_complement.s": "s",
    "weights.paths_per_det": "ratio",
    "centrality.betweenness.s": "s", "centrality.betweenness.self_s": "s",
    "decomposition.decompose.calls": "count", "decomposition.decompose.s": "s",
    "decomposition.decompose.self_s": "s",
    "decomposition.rank_paths.s": "s", "decomposition.rank_paths.self_s": "s",
    **{f"weights.{fn}.{m}": u for fn in WEIGHT_FNS for m, u in (("calls", "count"), ("ms", "ms"))},
    "inflation.inflation_factor.calls": "count", "inflation.inflation_factor.ms": "ms",
    "inflation.inflation_factor_identities.ms": "ms", "inflation.global_collinearity.ms": "ms",
    "fit.ips_fit.s": "s", "fit.mtp2_sign_search.ms": "ms",
    "trace.overhead_frac": "ratio",
    "failed_ops_frac": "ratio",
}


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples beyond it.

    With fewer than 21 samples no percentile above the median has 10 samples
    beyond it, and the median is reported.
    """
    n = len(values)
    if n < 21:
        return 50.0, median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_seconds(args: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc


# -- set-up and start-up ----------------------------------------------------------------

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import pathweights; "
                "print(time.perf_counter() - t0)")


def measure_setup(workload, reps: int, env: dict) -> list[float]:
    """Each set-up: ``import pathweights`` in a fresh process plus model construction."""
    totals = []
    for _ in range(reps):
        _, proc = child_seconds(["-c", IMPORT_PROBE], env)
        t0 = time.perf_counter()
        workload.setup()
        totals.append(float(proc.stdout) + time.perf_counter() - t0)
    return totals


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of pathweights and of the numpy and scipy families.

    A family's time sums its outermost modules: those imported by no module
    of the family. ``-X importtime`` lists a module after everything
    it imports, so the lines are walked in reverse to meet importers first.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e3))
    def inside(family: str, name: str) -> bool:
        return name == family or name.startswith(family + ".")

    out = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, ms in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        stack.append((depth, name))
        if name == "pathweights":
            out["total"] += ms
        # numpy modules that scipy pulls in count for scipy, not numpy
        if inside("scipy", name) and not any(inside("scipy", a) for a in ancestors):
            out["scipy"] += ms
        if inside("numpy", name) and not any(
                inside("numpy", a) or inside("scipy", a) for a in ancestors):
            out["numpy"] += ms
    return out


def startup_breakdown(reps: int, env: dict) -> dict[str, float]:
    parts = [parse_importtime(child_seconds(["-X", "importtime", "-c", "import pathweights"],
                                            env)[1].stderr) for _ in range(reps)]
    bare = [child_seconds(["-c", "pass"], env)[0] for _ in range(reps)]
    return {"import.total_ms": median([p["total"] for p in parts]),
            "import.scipy_ms": median([p["scipy"] for p in parts]),
            "import.numpy_ms": median([p["numpy"] for p in parts]),
            "import.bare_python_ms": 1e3 * median(bare)}


# -- the run ---------------------------------------------------------------------------------

def run_rounds(workloads, workload, rounds: int, tracer=None):
    """Closed loop over ``rounds`` rounds, each also traced when a tracer is given.

    A traced round runs right after or right before its untraced twin,
    alternately, so a drift in the machine's speed favours neither.
    Returns the untraced stats and the traced stats (None when untraced).
    """
    plain = workloads.Stats()
    traced = workloads.Stats() if tracer else None

    def run_traced(r):
        tracer.active = True
        try:
            workloads.run_round(workload.round_ops(r, traced), traced, tracer)
        finally:
            tracer.active = False

    for r in range(rounds):
        if tracer and r % 2:
            run_traced(r)
        workloads.run_round(workload.round_ops(r, plain), plain)
        if tracer and not r % 2:
            run_traced(r)
    return plain, traced


def end_to_end_metrics(stats, setup: list[float]) -> tuple[dict, dict]:
    values = {"setup_s": median(setup), "wall_s": sum(stats.rounds),
              "peak_rss_mb": peak_rss_mb()}
    basis = {"setup_s": f"median of {len(setup)} set-ups",
             "wall_s": f"timed time of {len(stats.rounds)} rounds",
             "peak_rss_mb": "max of own and child peak RSS"}
    return values, basis


def operation_metrics(stats) -> tuple[dict, dict]:
    """Medians and tails per kind of operation; 0 for a kind the workload does not run."""
    values, basis = {}, {}

    def put(name, value, samples, what):
        values[name] = value
        basis[name] = f"{what} of {len(samples)}" if samples else "absent: not run on this workload"

    for name, kind in (("betweenness_s", "betweenness"),
                       ("decompose_allpairs_s", "decompose_allpairs"),
                       ("rank_paths_s", "rank_paths"), ("fit_s", "fit")):
        samples = stats.samples.get(kind, [])
        put(name, median(samples), samples, "median")
    for kind in ("query", "cli"):
        samples = stats.samples.get(kind, [])
        pct, value = tail(samples)
        put(f"{kind}_p50_ms", 1e3 * median(samples), samples, "median")
        put(f"{kind}_tail_ms", 1e3 * value, samples, f"p{pct:.1f}")
    return values, basis


def per_layer_metrics(tracer, plain, traced, startup: dict, failed_frac: float) -> dict:
    totals = tracer.totals()
    n = max(1, len(traced.rounds))

    def agg(target, field, scale=1.0):
        return totals[target][field] * scale / n if target in totals else 0.0

    enum_s = totals["graphs.enumerate_paths"]["s"] if "graphs.enumerate_paths" in totals else 0.0
    paths = totals["graphs.enumerate_paths"]["size"] if "graphs.enumerate_paths" in totals else 0
    dets = totals["symmetric.chol_det"]["calls"] if "symmetric.chol_det" in totals else 0
    inproc = [i for _, i in plain.cli_inproc]
    overhead = [t / u for t, u in zip(traced.inproc_rounds, plain.inproc_rounds) if u]
    values = dict(startup)
    values.update(operation_metrics(plain)[0])
    values.update({
        "cli.main_ms": 1e3 * median(inproc),
        "cli.startup_ms": 1e3 * median([w - i for w, i in plain.cli_inproc]),
        "modelio.load_model.calls": agg("modelio.load_model", "calls"),
        "modelio.load_model.ms": agg("modelio.load_model", "s", 1e3),
        "modelio.report_rows.ms": agg("modelio.report_rows", "s", 1e3),
        "modelio.format_report.ms": agg("modelio.format_report", "s", 1e3),
        "model.build.calls": agg("model.Model.__init__", "calls"),
        "model.build_s": agg("model.Model.__init__", "s"),
        "graphs.enumerate_paths.calls": agg("graphs.enumerate_paths", "calls"),
        "graphs.enumerate_paths.s": agg("graphs.enumerate_paths", "s"),
        "graphs.paths": paths / n,
        "graphs.paths_per_s": paths / enum_s if enum_s else 0.0,
        "weights.paths_per_det": totals["weights.paths_weighed"]["size"] / dets if dets else 0.0,
        "trace.overhead_frac": median(overhead) - 1.0 if overhead else 0.0,
        "failed_ops_frac": failed_frac,
    })
    for name in ("symmetric.chol_det", "symmetric.SymMatrix.inverse",
                 "symmetric.SymMatrix.schur_complement"):
        values[f"{name}.calls"] = agg(name, "calls")
        values[f"{name}.s"] = agg(name, "s")
    for name in ("centrality.betweenness", "decomposition.decompose", "decomposition.rank_paths"):
        values[f"{name}.s"] = agg(name, "s")
        values[f"{name}.self_s"] = agg(name, "self_s")
    values["decomposition.decompose.calls"] = agg("decomposition.decompose", "calls")
    for fn in WEIGHT_FNS:
        values[f"weights.{fn}.calls"] = agg(f"weights.{fn}", "calls")
        values[f"weights.{fn}.ms"] = agg(f"weights.{fn}", "s", 1e3)
    values["inflation.inflation_factor.calls"] = agg("inflation.inflation_factor", "calls")
    values["inflation.inflation_factor.ms"] = agg("inflation.inflation_factor", "s", 1e3)
    values["inflation.inflation_factor_identities.ms"] = agg(
        "inflation.inflation_factor_identities", "s", 1e3)
    values["inflation.global_collinearity.ms"] = agg("inflation.global_collinearity", "s", 1e3)
    values["fit.ips_fit.s"] = agg("fit.ips_fit", "s")
    values["fit.mtp2_sign_search.ms"] = agg("fit.mtp2_sign_search", "s", 1e3)
    return values


def environment(pw_version: str) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pathweights": pw_version,
            "pinned_env": PINNED_ENV, "git_sha": sha}


def pin_environment() -> None:
    """Re-execute this process with PINNED_ENV set, unless it already is."""
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, one set-up")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "pathweights"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import pathweights
    if Path(pathweights.__file__).resolve().parent != package.resolve():
        print(f"error: imported pathweights from {pathweights.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = workloads.child_env()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    setup = measure_setup(workload, 1 if args.smoke else 5, env)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    # --seconds fixes the work, not a deadline: every run of a workload does the
    # same rounds, so its sample counts and percentiles do not depend on speed
    rounds = 1 if args.smoke else max(1, round(args.seconds / workload.round_seconds))
    try:
        plain, traced = run_rounds(workloads, workload, rounds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    probe_stats = workloads.Stats()
    for op in workload.probes():
        workloads.run_op(op, probe_stats)

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(s.attempted for s in runs)
    failed = sum(s.failed for s in runs)
    failed_frac = (failed + probe_stats.failed) / (attempted + probe_stats.attempted)
    op_values, basis = operation_metrics(plain)
    basis["failed_ops_frac"] = (f"{failed + probe_stats.failed} of "
                                f"{attempted + probe_stats.attempted} operations, "
                                "known-defect probes included")
    if args.trace:
        startup = startup_breakdown(1 if args.smoke else 3, env)
        values = per_layer_metrics(tracer, plain, traced, startup, failed_frac)
        units = PER_LAYER
        basis["trace.overhead_frac"] = (f"median over {len(traced.rounds)} round pairs of "
                                        "traced / untraced in-process time, - 1"
                                        if any(plain.inproc_rounds) else
                                        "absent: no in-process operation on this workload")
        shown = units
    else:
        values, e2e_basis = end_to_end_metrics(plain, setup)
        basis.update(e2e_basis)
        units = END_TO_END
        # the per-operation figures are printed here too, outside the result line
        values = {**values, **op_values, "failed_ops_frac": failed_frac}
        shown = {**END_TO_END, **{k: u for k, u in OPERATIONS.items() if
                                  not basis[k].startswith("absent")}, "failed_ops_frac": "ratio"}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain.rounds)}  closed loop, 1 caller, BLAS threads 1")
    for name, unit in shown.items():
        print(f"  {name:44s} {values[name]:14.6g} {unit:6s} {basis.get(name, '')}")
    found = sum(o.reference is not None for o in workload.bulk_oracles)
    reference = {"found": found, "not_found": len(workload.bulk_oracles) - found,
                 "required": any(o.reference_required for o in workload.bulk_oracles)}
    if workload.bulk_oracles:
        print(f"reference.json: {found} of {len(workload.bulk_oracles)} all-pairs models found; "
              + ("a missing one fails its checks" if reference["required"] else
                 f"seed {args.seed} is outside the recorded seeds, so none is required"))
    for line in probe_stats.failures:
        print(f"known defect: {line}")
    for line in (s for st in runs for s in st.failures):
        print(f"FAILED {line}")
    for item in workload.inventory():
        print("input " + " ".join(f"{k}={v}" for k, v in item.items()))
    if tracer and tracer.absent:
        print("absent from the package: " + ", ".join(tracer.absent))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "rounds": len(plain.rounds),
        "metrics": {k: {"value": values[k], "unit": shown[k], "basis": basis.get(k)}
                    for k in shown},
        "failed_ops_frac": failed_frac, "failures": [f for st in runs for f in st.failures],
        "probes": {"attempted": probe_stats.attempted, "failed": probe_stats.failed,
                   "failures": probe_stats.failures},
        "setup_samples_s": setup, "samples_s": plain.samples, "rounds_s": plain.rounds,
        "inputs": workload.inventory(), "reference": reference,
        "environment": environment(pathweights.__version__),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        record["absent"], record["rebound"] = tracer.absent, tracer.rebound
        tracer.write(results / f"{stem}-spans.json")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
