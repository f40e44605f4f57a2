"""One workload in a fresh process: set up, then optionally measure.

    python3 perfbench/child.py WORKLOAD SEED SIZE MODE SECONDS TRACE OUTDIR

Prints ``ready`` once the package is imported and the inputs exist; the
parent times process start to that line as the set-up time.  In ``setup``
mode the process then exits.  In ``measure`` mode it runs timed passes for
SECONDS seconds (with TRACE=1, untraced and traced passes alternate), checks
every pass's outputs, and prints one JSON line with the raw results.
``run.py`` turns that into metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance against reference values: passes summation-order changes
# (about 1e-15 relative) and -0 becoming 0, fails any wrong formula.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def _import_package():
    sys.path.insert(0, str(SRC))
    import pattern_entropy

    if Path(pattern_entropy.__file__).resolve().parent != SRC / "pattern_entropy":
        raise SystemExit(f"pattern_entropy imported from {pattern_entropy.__file__}, not {SRC}")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def compare_reference(ops, reference: dict) -> None:
    """Mark ops whose numeric outputs leave the stored reference values."""
    for op in ops:
        want = reference.get(op.op_id)
        if op.reason is not None or want is None:
            continue
        if set(want) != set(op.values):
            op.reason = f"fields {sorted(op.values)} differ from reference {sorted(want)}"
            continue
        for key, ref in want.items():
            got = op.values[key]
            if not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                op.reason = f"{key} = {got!r}, reference {ref!r}"
                break


def calibrate(workload) -> float:
    """Wall time of the workload's yardstick: the host's current speed for its kind of work."""
    t0 = perf_counter()
    workload.yardstick()
    return perf_counter() - t0


class Tally:
    """Attempted and failed ops over all passes, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ops) -> None:
        self.attempted += len(ops)
        for op in ops:
            if op.reason is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{op.op_id}: {op.reason}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def coder_metrics(ops) -> dict:
    """Bits per symbol and the worst overhead over the codelength (coder ops only)."""
    streams = [op.values for op in ops if "emitted_bits" in op.values]
    if not streams:
        return {"coder.overhead_bits.max": 0.0, "coder.bits_per_symbol": 0.0}
    symbols = sum(len(op.payload["psi"]) for op in ops if "emitted_bits" in op.values)
    return {
        "coder.overhead_bits.max": max(s["emitted_bits"] - s["codelength_bits"] for s in streams),
        "coder.bits_per_symbol": sum(s["emitted_bits"] for s in streams) / symbols,
    }


def measure(workload, inputs, seconds: float, trace: bool, outdir: Path,
            reference: dict | None) -> dict:
    from spans import Recorder, instrument, pass_metrics, write_spans
    from workloads import Op

    tally = Tally()
    digests: dict[str, str] = {}
    walls: list[float] = []
    calibrations: list[float] = []
    phases: list[dict] = []
    traced: list[dict] = []
    last_ops = []

    def one_pass():
        nonlocal last_ops
        t0 = perf_counter()
        try:
            outputs, ph = workload.run(inputs)
            wall = perf_counter() - t0
            ops = workload.check(inputs, outputs)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            wall = perf_counter() - t0
            traceback.print_exc()
            ph = {}
            ops = [Op(op_id, {}, None, f"raised {exc!r}") for op_id in workload.op_ids(inputs)]
        if reference is not None:
            compare_reference(ops, reference)
        tally.add(ops)
        for op in ops:
            digests.setdefault(op.op_id, _digest(op.payload))
        last_ops = ops
        return wall, ph

    if trace:
        recorder = Recorder()
        install, remove = instrument(recorder)
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        calibrations.append(calibrate(workload))
        wall, ph = one_pass()
        walls.append(wall)
        phases.append(ph)
        if trace:  # alternate with untraced passes, so host drift hits both alike
            install()
            try:
                wall, _ = one_pass()
            finally:
                remove()
            traced.append(pass_metrics(recorder, wall))
            if len(traced) == 1:
                write_spans(outdir / f"spans-{workload.name}.jsonl", recorder.spans)
            recorder.reset()  # free the spans before the next untraced pass
    calibrations.append(calibrate(workload))  # so a yardstick brackets every pass

    return {
        "walls": walls,
        "calibrations": calibrations,
        "phases": phases,
        "traced": traced,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "digests": digests,
        "coder": coder_metrics(last_ops),
        "work": workload.work(inputs),
        "describe": workload.describe(inputs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    name, seed, size, mode, seconds, trace, outdir = argv
    _import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[name]
    outdir = Path(outdir)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=outdir))
    try:
        inputs = workload.make_inputs(int(seed), size, workdir)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        reference = None
        if int(seed) == DEFAULT_SEED and size == "full":
            reference = json.loads(REFERENCE.read_text())[name]
        result = measure(workload, inputs, float(seconds), trace == "1", outdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
