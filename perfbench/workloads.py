"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

A seed moves continuous source parameters and the sampled sequences; it never
changes the amount of work (group counts, n and stream counts stay fixed).
Each workload has a ``full`` size, which the benchmark measures, and a
``smoke`` size, which the self-test uses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import warnings
from dataclasses import dataclass
from time import perf_counter as _clock

import numpy as np

from pattern_entropy import cli, coder, distributions, grids, oracle, patterns
from pattern_entropy.verify import _EXAMPLE_PARAMS

DEFAULT_SEED = 0

# Rows of the default `bounds` suite, in CLI order.
DEFAULT_BOUND_ROWS = (
    "simple_lower", "simple_upper", "ub_theorem1", "lb_theorem2_a", "lb_theorem2_b",
    "ub_theorem3_ub3", "ub_theorem3_c1", "ub_theorem3_c21", "ub_theorem3_c2_loosened",
    "lb_theorem4_b1_b1",
)


@dataclass
class Op:
    """One checked operation: its numeric outputs, a digest payload, a verdict."""

    op_id: str
    values: dict
    payload: object
    reason: str | None = None


def _jitter(rng: random.Random, centre: float, half_width: float) -> float:
    return centre + rng.uniform(-half_width, half_width)


def _describe(spec: distributions.SourceSpec, n: int, eps: float) -> dict:
    theta = distributions.make_distribution(spec)
    return {"n": n, "k": theta.k, "groups": len(theta.values), "eps": eps}


def _spec(doc: dict) -> distributions.SourceSpec:
    src = doc["source"]
    return distributions.SourceSpec(src["family"], src["params"], doc["n"])


# Yardsticks: fixed work of the same kind as a workload's pass, written in the
# benchmark so no change to the package moves them.  On a shared host the
# speed of interpreted Python drifts by tens of percent between runs a minute
# apart; large-array numpy work drifts much less, so grid-bound passes get
# their own.  When a change moves a workload's cost between interpreted loops
# and numpy, re-choose its yardstick and re-measure its spread.

_Y_PROBES = np.geomspace(1e-8, 1e-3, 1000)


def _yard_python() -> float:
    """Interpreted float math and dict stores."""
    acc = 0.0
    last: dict[int, float] = {}
    for i in range(400_000):
        acc += math.log1p(-i * 1e-9)
        last[i & 1023] = acc
    return acc


def _yard_arrays() -> float:
    """Large array arithmetic, as in grid construction."""
    total = 0.0
    for _ in range(3):
        pts = np.arange(3_000_000, dtype=float) ** 2 / 9e12
        total += float(np.diff(pts).sum()) + int(np.searchsorted(pts, _Y_PROBES)[-1])
    return total


class BoundsWorkload:
    """The default `bounds` suite through ``cli.main``, one table per config."""

    def __init__(self, name: str, configs, yardstick):
        self.name = name
        self.yardstick = yardstick
        self._configs = configs  # (seed, size) -> [(label, config document)]

    def make_inputs(self, seed: int, size: str, workdir) -> dict:
        configs = []
        for label, doc in self._configs(seed, size):
            path = workdir / f"{self.name}-{label}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            configs.append((label, str(path), doc))
        return {"configs": configs}

    def run(self, inputs: dict) -> tuple[dict, dict]:
        out = {}
        for label, path, _ in inputs["configs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["bounds", "--config", path])
            out[label] = (rc, buf.getvalue())
        return out, {}

    def check(self, inputs: dict, outputs: dict) -> list[Op]:
        ops = []
        for label, _, _ in inputs["configs"]:
            rc, text = outputs[label]
            rows = {row["bound"]: row for row in csv.DictReader(io.StringIO(text))}
            for bound in DEFAULT_BOUND_ROWS:
                op_id = f"{label}:{bound}"
                row = rows.get(bound)
                if rc != 0 or row is None:
                    ops.append(Op(op_id, {}, None, f"exit code {rc}, row missing"))
                    continue
                ops.append(_check_bound_row(op_id, row))
        return ops

    def op_ids(self, inputs: dict) -> list[str]:
        return [f"{label}:{bound}" for label, _, _ in inputs["configs"]
                for bound in DEFAULT_BOUND_ROWS]

    def work(self, inputs: dict) -> list[tuple[str, str, float, str | None]]:
        rows = len(inputs["configs"]) * len(DEFAULT_BOUND_ROWS)
        return [("bound_rows_per_s", "rows/s", rows, None)]

    def describe(self, inputs: dict) -> list[dict]:
        return [{"label": label, **_describe(_spec(doc), doc["n"], doc["epsilon"])}
                for label, _, doc in inputs["configs"]]


def _check_bound_row(op_id: str, row: dict) -> Op:
    values = {}
    try:
        for key, cell in row.items():
            if key == "value" or key.startswith("term:"):
                if cell != "":
                    values[key] = float(cell)
    except ValueError as exc:
        return Op(op_id, values, row, f"unparsable cell: {exc}")
    terms = [v for k, v in values.items() if k.startswith("term:")]
    value = values.get("value")
    if row["error"]:
        reason = f"error column: {row['error']}"
    elif value is None or not math.isfinite(value):
        reason = f"non-finite value {row['value']!r}"
    elif not math.isclose(value, math.fsum(terms), rel_tol=1e-12, abs_tol=1e-9):
        reason = f"value {value!r} is not the sum of its terms {math.fsum(terms)!r}"
    else:
        reason = None
    return Op(op_id, values, row, reason)


def _zipf_configs(seed: int, size: str) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    k, n = (50_000, 10**6) if size == "full" else (2_000, 10**4)
    exponent = _jitter(rng, 1.1, 0.05)
    return [("zipf", {"source": {"family": "zipf", "params": {"k": k, "exponent": exponent}},
                      "n": n, "epsilon": 0.4})]


def _family_configs(seed: int, size: str) -> list[tuple[str, dict]]:
    rng = random.Random(seed)
    horizons = (10**5, 10**6, 10**7) if size == "full" else (10**4,)
    level1 = {"ex2": "below", "ex3": "above", "ex4": "unit"}
    out = []
    for ex, p in _EXAMPLE_PARAMS.items():
        if ex == "ex1":
            source = {"family": "uniform", "params": {"nu": _jitter(rng, p["nu"], 0.01)}}
        else:
            params = {"phi0": _jitter(rng, p["phi0"], 0.02), "mu": p["mu"], "level1": level1[ex]}
            if "nu" in p:
                params["nu"] = p["nu"]
            source = {"family": "two-level", "params": params}
        for n in horizons:
            out.append((f"{ex}-n{n}", {"source": source, "n": n, "epsilon": p["eps"]}))
    return out


class CodeWorkload:
    """Sample, pattern, bins, codelength, encode, decode: as ``cli.run_code`` does."""

    name = "code-roundtrip"
    yardstick = staticmethod(_yard_python)

    def make_inputs(self, seed: int, size: str, workdir) -> dict:
        rng = random.Random(seed)
        n, streams = (512, 3) if size == "full" else (64, 2)
        params = {"k": 200, "exponent": _jitter(rng, 1.3, 0.02)}
        return {"spec": distributions.SourceSpec("zipf", params), "n": n, "eps": 0.3,
                "seeds": [rng.randrange(2**32) for _ in range(streams)]}

    def run(self, inputs: dict) -> tuple[dict, dict]:
        n = inputs["n"]
        phases = {"encode_s": 0.0, "decode_s": 0.0}
        out = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            theta = distributions.make_distribution(inputs["spec"])
            grid = grids.build_grid("eta", n, inputs["eps"])
            model = coder.CoderModel.from_source(theta, grid, n)
            for i, seed in enumerate(inputs["seeds"]):
                x = distributions.sample_sequence(theta, n, seed)
                psi = patterns.extract_pattern(x)
                beta = patterns.bin_sequence(theta, grid, x)
                cl = coder.sequence_codelength(model, psi, beta)
                t0 = _clock()
                bits = coder.encode(model, psi, beta)
                t1 = _clock()
                decoded = coder.decode(model, bits, n)
                t2 = _clock()
                phases["encode_s"] += t1 - t0
                phases["decode_s"] += t2 - t1
                out[f"stream{i}"] = {"psi": psi.indices, "beta": beta, "codelength": cl,
                                     "bits": bits, "decoded": decoded}
        return out, phases

    def check(self, inputs: dict, outputs: dict) -> list[Op]:
        ops = []
        for op_id, s in outputs.items():
            bits, cl = s["bits"], s["codelength"]
            values = {"codelength_bits": cl, "emitted_bits": float(len(bits))}
            payload = {"psi": s["psi"], "beta": s["beta"], "bits": bits.data.hex(),
                       "nbits": len(bits)}
            if s["decoded"] != (s["psi"], s["beta"]):
                reason = "decode did not return the input"
            elif not cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9:
                reason = f"emitted {len(bits)} bits for codelength {cl!r}"
            else:
                reason = None
            ops.append(Op(op_id, values, payload, reason))
        return ops

    def op_ids(self, inputs: dict) -> list[str]:
        return [f"stream{i}" for i in range(len(inputs["seeds"]))]

    def work(self, inputs: dict) -> list[tuple[str, str, float, str | None]]:
        symbols = inputs["n"] * len(inputs["seeds"])
        return [("encode_symbols_per_s", "symbols/s", symbols, "encode_s"),
                ("decode_symbols_per_s", "symbols/s", symbols, "decode_s")]

    def describe(self, inputs: dict) -> list[dict]:
        return [{"label": "zipf", "streams": len(inputs["seeds"]),
                 **_describe(inputs["spec"], inputs["n"], inputs["eps"])}]


class OracleWorkload:
    """Exact enumeration on a small geometric source, then Monte Carlo on a uniform one."""

    name = "oracle"
    yardstick = staticmethod(_yard_python)

    def make_inputs(self, seed: int, size: str, workdir) -> dict:
        rng = random.Random(seed)
        full = size == "full"
        exact = distributions.SourceSpec(
            "geometric", {"k": 4 if full else 3, "decay": _jitter(rng, 0.6, 0.05)})
        mc = distributions.SourceSpec("uniform", {"k": 10})
        return {"exact_spec": exact, "exact_n": 7 if full else 5, "eps": 0.3,
                "mc_spec": mc, "mc_n": 30 if full else 10,
                "samples": 300 if full else 50, "mc_seed": rng.randrange(2**32)}

    def run(self, inputs: dict) -> tuple[dict, dict]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = _clock()
            theta = distributions.make_distribution(inputs["exact_spec"])
            grid = grids.build_grid("eta", inputs["exact_n"], inputs["eps"])
            ee = oracle.exact_entropies(theta, grid, inputs["exact_n"])
            t1 = _clock()
            uniform = distributions.make_distribution(inputs["mc_spec"])
            mc = oracle.mc_pattern_entropy(uniform, inputs["mc_n"], inputs["samples"],
                                           inputs["mc_seed"])
            t2 = _clock()
        return {"exact": ee, "mc": mc}, {"exact_s": t1 - t0, "mc_s": t2 - t1}

    def check(self, inputs: dict, outputs: dict) -> list[Op]:
        ee, mc = outputs["exact"], outputs["mc"]
        exact = {"h_x_block": ee.h_x_block, "h_pattern": ee.h_pattern,
                 "h_joint": ee.h_joint, "expected_codelength": ee.expected_codelength}
        slack = 1e-9 * max(1.0, ee.h_x_block)
        if not all(math.isfinite(v) for v in exact.values()):
            reason = "non-finite exact entropy"
        elif not ee.h_pattern <= ee.h_joint + slack <= ee.expected_codelength + 2 * slack:
            reason = "need h_pattern <= h_joint <= expected codelength"
        elif not ee.h_pattern <= ee.h_x_block + slack:
            reason = "need h_pattern <= h_x_block"
        else:
            reason = None
        ops = [Op("exact", exact, exact, reason)]
        est = {"mc_estimate": mc.estimate, "mc_stderr": mc.stderr}
        if not (math.isfinite(mc.estimate) and math.isfinite(mc.stderr)):
            reason = "non-finite Monte Carlo estimate"
        elif not mc.stderr > 0.0:
            reason = f"Monte Carlo stderr {mc.stderr!r} is not positive"
        elif mc.samples != inputs["samples"]:
            reason = f"{mc.samples} samples, asked for {inputs['samples']}"
        else:
            reason = None
        ops.append(Op("mc", est, est, reason))
        return ops

    def op_ids(self, inputs: dict) -> list[str]:
        return ["exact", "mc"]

    def work(self, inputs: dict) -> list[tuple[str, str, float, str | None]]:
        k = int(inputs["exact_spec"].params["k"])
        return [("exact_sequences_per_s", "sequences/s", k ** inputs["exact_n"], "exact_s"),
                ("mc_samples_per_s", "samples/s", inputs["samples"], "mc_s")]

    def describe(self, inputs: dict) -> list[dict]:
        return [{"label": "exact", **_describe(inputs["exact_spec"], inputs["exact_n"], inputs["eps"])},
                {"label": "mc", "samples": inputs["samples"],
                 **_describe(inputs["mc_spec"], inputs["mc_n"], inputs["eps"])}]


# Why each workload exists is recorded in BENCHMARK.json and run.py's docstring.
WORKLOADS = {w.name: w for w in (
    BoundsWorkload("bounds-zipf", _zipf_configs, _yard_python),
    BoundsWorkload("bounds-families", _family_configs, _yard_arrays),
    CodeWorkload(),
    OracleWorkload(),
)}
