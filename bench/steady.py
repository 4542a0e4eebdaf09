"""Steadiness check: run each workload on several seeds and summarise spread.

    python3 bench/steady.py --runs 10 --first-seed 1 [--workloads counting,spectra]

Runs ``bench/run.py`` once per seed, one run at a time, with the run length
from BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and that spread as a share of the metric's bound,
plus the failed share of each run.  The raw results are written to
``bench/out/steady-seed<first>.json``; the README's figures come from here.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            results[workload].append(json.loads(done.stdout.splitlines()[-1]))
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        runs = results[workload]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"  correct {all(r['correct'] for r in runs)}; failed shares {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(
                f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {spread:6.3f} ({spread / bound:4.2f} of bound {bound})"
            )
    out = HERE / "out" / f"steady-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
