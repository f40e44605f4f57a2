"""Self-test of the benchmark at smoke size (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, traced and untraced; that a corrupted decode output, a raising
decode, a perturbed bound value and a value off its reference are each
counted as failed ops in ``error_rate``; and that the benchmark exits non-zero without a result when
the checkout holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
# End-to-end figures each workload prints, beyond the declared ones.
PRINTED = {
    "bounds-zipf": ("bound_rows_per_s", "error_rate"),
    "bounds-families": ("bound_rows_per_s", "error_rate"),
    "code-roundtrip": ("encode_symbols_per_s", "decode_symbols_per_s", "error_rate"),
    "oracle": ("exact_sequences_per_s", "mc_samples_per_s", "error_rate"),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_emitted(bench: dict) -> None:
    for name, extra in PRINTED.items():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "1",
                 "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines), f"{name} trace={trace}: exits 0")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct, {result['failed']} of "
                   f"{result['attempted']} ops failed")
            declared = bench["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in declared},
                   f"{name} trace={trace}: every declared metric with its unit")
            if not trace:
                printed = {line.split()[1]: line.split()[3] for line in lines
                           if line.startswith("  metric ")}
                expect(all(m in printed for m in ("run_s", *extra))
                       and printed["error_rate"] == "ratio",
                       f"{name}: prints run_s, {', '.join(extra)}")
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: end-to-end metrics are positive")


def check_fault_counting() -> None:
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        code = WORKLOADS["code-roundtrip"]
        inputs = code.make_inputs(1, "smoke", Path(tmp))
        outputs = code.run(inputs)[0]
        stream = outputs["stream0"]
        psi, beta = stream["decoded"]
        stream["decoded"] = ((psi[0],) + tuple(p + 1 for p in psi[1:]), beta)
        tally = child.Tally()
        tally.add(code.check(inputs, outputs))
        expect(tally.failed == 1 and tally.error_rate > 0,
               f"corrupted decode output counted: error_rate {tally.error_rate:.3g}")

        bounds = WORKLOADS["bounds-zipf"]
        inputs = bounds.make_inputs(1, "smoke", Path(tmp))
        outputs = bounds.run(inputs)[0]
        label = next(iter(outputs))
        rc, text = outputs[label]
        header, row, *rest = text.splitlines()
        cells = row.split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6))
        outputs[label] = (rc, "\n".join([header, ",".join(cells), *rest]))
        tally = child.Tally()
        tally.add(bounds.check(inputs, outputs))
        expect(tally.failed == 1 and tally.error_rate > 0,
               f"perturbed bound value counted: error_rate {tally.error_rate:.3g}")

        from pattern_entropy import coder

        def broken_decode(*args, **kwargs):
            raise RuntimeError("injected decode failure")

        original, coder.decode = coder.decode, broken_decode
        try:
            result = child.measure(code, code.make_inputs(1, "smoke", Path(tmp)), 0.0, False,
                                   Path(tmp), None)
        finally:
            coder.decode = original
        expect(result["failed"] == result["attempted"] > 0,
               f"raising decode counted: {result['failed']} of {result['attempted']} ops failed")

        ops = bounds.check(inputs, bounds.run(inputs)[0])
        reference = {op.op_id: dict(op.values) for op in ops}
        child.compare_reference(ops, reference)
        expect(all(op.reason is None for op in ops), "outputs match their own reference")
        first = next(iter(reference.values()))
        first["value"] *= 1 + 1e-7
        child.compare_reference(ops, reference)
        tally = child.Tally()
        tally.add(ops)
        expect(tally.failed == 1, "value off its reference counted")


def check_empty_checkout() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=tmp)
        expect(proc.returncode != 0 and "metrics" not in proc.stdout,
               f"benchmark alone exits {proc.returncode} without a result")


def main() -> int:
    child._import_package()
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fault_counting()
    check_empty_checkout()
    check_emitted(bench)
    print(f"{len(failures)} failures" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
