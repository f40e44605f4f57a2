"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload oracle --seeds 1-10 [--record baseline.json]

Runs ``run.py`` once per seed, then prints for each printed end-to-end
metric the median, the quartiles and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  ``--record``
adds the figures under the workload's name to a JSON file in this directory,
which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--record", default=None)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--trace", "0"],
                              capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        # every printed end-to-end figure, the declared ones included
        runs.append({line.split()[1]: float(line.split()[2])
                     for line in proc.stdout.splitlines() if line.startswith("  metric ")})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)

    summary = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / mid if mid else 0.0, "runs": len(values)}
        print(f"{name}: median {mid:.6g} quartiles {q1:.6g} {q3:.6g} "
              f"spread {summary[name]['spread']:.3f}")
    if args.record:
        path = HERE / args.record
        data = json.loads(path.read_text()) if path.exists() else {}
        data[args.workload] = {"seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "metrics": summary}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
