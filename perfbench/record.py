"""Record the outputs the benchmark's checks compare against.

    python3 perfbench/record.py

Writes ``golden_cli.json`` (stdout of every cli-dietary command) and
``reference.json`` (per-pair path counts and raw betweenness of every
dense-allpairs model of the seeds in ``RECORDED_SEEDS``, full and smoke
size). Run it only at a commit whose outputs are trusted:
the files define what later commits must reproduce.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from run import pin_environment

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Seeds whose models are recorded; a run on one of them fails without its reference.
RECORDED_SEEDS = range(16)


def main() -> int:
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import pathweights as pw
    import workloads

    workdir = ROOT / ".perfbench" / "work" / "cli-dietary"
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.CliDietary(0, False, workdir)  # writes the sample CSV the fit command reads
    argvs = {}
    for name in workloads.DIETARY:
        for measure in ("cov", "cor", "inf"):
            for argv in workloads.dietary_commands(name, measure):
                argvs[" ".join(argv)] = argv
    fit = ["fit", workloads.FIT_SAMPLE, workloads.DIETARY_DATA.format("women"), workloads.FIT_OUTPUT]
    argvs[" ".join(fit)] = fit
    golden = {}
    for key, argv in sorted(argvs.items()):
        proc = subprocess.run([sys.executable, "-m", "pathweights.cli", *argv], cwd=ROOT,
                              env=workloads.child_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        golden[key] = proc.stdout
    (BENCH_DIR / "golden_cli.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    specs = []
    for seed in RECORDED_SEEDS:
        for smoke in (False, True):
            specs += workloads.dense_specs(seed, smoke)
    models = {}
    for spec in specs:
        m = spec.build()
        models[spec.fingerprint()] = {
            "betweenness": [r.betweenness for r in pw.betweenness(m).rows],
            "pair_paths": [len(pw.enumerate_paths(m.graph, x, y))
                           for x, y in combinations(spec.vertices, 2)],
        }
        print(f"{spec.name} {spec.fingerprint()}", flush=True)
    doc = {"seeds": list(RECORDED_SEEDS), "models": models}
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
