"""Benchmark of the pattern_entropy package: four workloads, one per cost shape.

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload oracle --seed 3 --seconds 20 --trace 1

The checkout is this directory's parent and must hold ``src/pattern_entropy``;
the package is imported from that source tree, never from an installed copy.
Each workload runs in fresh child processes: several only set up, one also
measures, repeating one fixed pass of the workload for the given seconds and
checking every pass's outputs.  Just before each child the set-up yardstick
runs: a fresh interpreter that imports the numpy and scipy modules the
package uses.  ``setup_raw_s`` is the median child set-up time; ``setup_s``
is the median of each set-up time over its yardstick time, in seconds on a
host where the yardstick takes ``SETUP_REF_S``.  ``run_s`` is the median
pass wall time.  Before each pass and after the last one the child times the
workload's yardstick, fixed work of the same kind that lives in this
directory (a pure-Python loop; for bounds-families, large-array numpy work);
``run_over_calibration`` is the median over passes of the pass time over the
mean of the two yardstick times around it.  A shared host's speed drifts by
tens of percent within seconds, which moves the yardstick and the passes
alike, so the ratio is steady where ``run_s`` is not.

Untraced, the last stdout line is a JSON object with every end-to-end metric
named in BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric
instead.  The lines before it print each metric by name and unit, including
``run_s``, the workload-specific throughputs and ``error_rate``, and in a
traced run every recorded layer figure.  The spans of the first traced pass
are written to ``.perfbench-out/spans-<workload>.jsonl``.

Workloads (the seed moves source parameters and samples, never the amount
of work).  Sizes keep one pass near 1-3 s, so a 20 s run holds enough passes
for a steady median on a shared machine:

- bounds-zipf: zipf k = 5e4, n = 1e6, eps = 0.4.  Every probability is its
  own group, so the per-group Python loops in the bound evaluators dominate.
- bounds-families: the paper's four example families at n = 1e5, 1e6, 1e7.
  One or two groups each, so grid construction dominates instead.
- code-roundtrip: zipf k = 200, n = 512, eps = 0.3, three streams through
  sample, pattern, bins, codelength, encode and decode.
- oracle: exact enumeration of 4^7 sequences, then 300 Monte Carlo samples
  of uniform k = 10, n = 30.  The only workload on patterns and oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUPS = 3  # fresh processes per run whose set-up is timed, the measuring one included
SETUP_LIMIT_S = 30.0
# Fixed set-up work of the same kind as a child's (interpreter start, numpy
# and scipy imports); no change to the package moves it.
SETUP_YARDSTICK = [sys.executable, "-c", "import numpy, scipy.special, scipy.stats"]
SETUP_REF_S = 1.4  # yardstick seconds on a 2-vCPU x86-64 VM, the scale of setup_s
MEASURE_SLACK_S = 90.0


def _spawn(args: list[str], limit: float):
    """Start a child; return (set-up seconds, rest of its stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"child {args[:4]} failed with exit code {code}")
    return setup, rest


def _setup_yardstick() -> float:
    t0 = perf_counter()
    subprocess.run(SETUP_YARDSTICK, cwd=ROOT, check=True, timeout=SETUP_LIMIT_S)
    return perf_counter() - t0


def run_workload(name: str, seed: int, size: str, seconds: float, trace: bool) -> dict:
    """Set up SETUPS - 1 throwaway children and one measuring child, each after a yardstick."""
    common = [name, str(seed), size]
    setups, yards = [], []
    for _ in range(SETUPS - 1):
        yards.append(_setup_yardstick())
        setups.append(_spawn([*common, "setup", "0", "0", str(OUT)], SETUP_LIMIT_S)[0])
    yards.append(_setup_yardstick())
    setup, rest = _spawn([*common, "measure", str(seconds), "1" if trace else "0", str(OUT)],
                         seconds + MEASURE_SLACK_S)
    setups.append(setup)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setups"] = setups
    result["setup_yardsticks"] = yards
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure of one workload: name -> (value, unit)."""
    run_s = median(result["walls"])
    cal = result["calibrations"]
    calibration_s = median(cal)
    over = median(w / ((a + b) / 2) for w, a, b in zip(result["walls"], cal, cal[1:]))
    setups, yards = result["setups"], result["setup_yardsticks"]
    m = {"setup_s": (SETUP_REF_S * median(s / y for s, y in zip(setups, yards)), "s"),
         "setup_raw_s": (median(setups), "s"),
         "setup_yardstick_s": (median(yards), "s"),
         "run_s": (run_s, "s"),
         "calibration_s": (calibration_s, "s"),
         "run_over_calibration": (over, "ratio")}
    for metric, unit, count, phase in result["work"]:
        # passes that raised record no phase times
        times = [run_s] if phase is None else [p[phase] for p in result["phases"] if phase in p]
        m[metric] = (count / median(times) if times else 0.0, unit)
    m["peak_rss_mib"] = (result["peak_rss_mib"], "MiB")
    m["error_rate"] = (result["failed"] / result["attempted"], "ratio")
    return m


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("coder.overhead_bits"):
        return "bits"
    if name == "coder.bits_per_symbol":
        return "bits/symbol"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures of the traced passes (median over passes)."""
    traced = result["traced"]
    names = sorted({k for t in traced for k in t})
    m = {k: median(t.get(k, 0) for t in traced) for k in names}
    m.update(result["coder"])
    m["trace.overhead_ratio"] = m["trace.wall_s"] / median(result["walls"])
    return {k: (v, _unit(k)) for k, v in m.items()}


def report(name: str, seed: int, result: dict, trace: bool, declared: dict) -> dict:
    """Print one workload's figures; return the declared metrics as JSON values."""
    print(f"workload {name} seed {seed}: {len(result['walls'])} untraced passes, "
          f"{len(result['traced'])} traced")
    print("  untraced pass walls (s): " + " ".join(f"{w:.4f}" for w in result["walls"]))
    for src in result["describe"]:
        print("  source " + " ".join(f"{k}={v}" for k, v in src.items()))
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    digests = json.dumps(result["digests"], indent=0, sort_keys=True)
    (OUT / f"digests-{name}-seed{seed}.json").write_text(digests + "\n")
    print(f"  sha256 of {len(result['digests'])} op outputs, listed in "
          f"{OUT.name}/digests-{name}-seed{seed}.json: {hashlib.sha256(digests.encode()).hexdigest()}")
    figures = end_to_end(result)
    if trace:
        layers = per_layer(result)
        for k, (v, unit) in sorted(layers.items()):
            print(f"  layer {k} {v:.6g} {unit}")
        sums = [(sum(t[f"{layer}.self_s"] for layer in LAYERS), t["trace.unattributed_s"],
                 t["trace.wall_s"]) for t in result["traced"]]
        gap = max(abs(selfs + rest - wall) for selfs, rest, wall in sums)
        selfs, rest, wall = sums[0]
        print(f"  accounting: layer self times + unattributed = traced wall in each of "
              f"{len(sums)} traced passes (largest gap {gap:.1e} s); first pass "
              f"{selfs:.6f} s + {rest:.6f} s = {wall:.6f} s")
        print(f"  tracing overhead: {layers['trace.wall_s'][0] - figures['run_s'][0]:+.6f} s "
              f"per pass (traced minus untraced run_s)")
        figures = layers
    else:
        for k, (v, unit) in figures.items():
            print(f"  metric {k} {v:.6g} {unit}")
    out = {}
    for spec in declared:
        value, unit = figures[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']}: unit {unit} but BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in bench["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pattern_entropy" / "__init__.py").is_file():
        print(f"error: no src/pattern_entropy under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    OUT.mkdir(exist_ok=True)

    names = workloads if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args.seed, args.size, seconds, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        figures = report(name, args.seed, result, bool(args.trace), declared)
        if len(names) == 1:
            metrics = figures
        else:
            metrics.update({f"{name}.{k}": v for k, v in figures.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
