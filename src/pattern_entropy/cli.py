"""Batch front end: bound suites, oracle runs, region sweeps, coder round trips.

Configuration is a single JSON document validated against the schema in
``docs/formats.md``.  Numeric CSV output uses 17 significant digits so files
are byte-stable and floats round-trip exactly.

Exit codes: 0 success, 1 validation error, 2 property failure, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._common import ResourceCapError
from .bounds import (
    UB3_VARIANTS,
    BoundReport,
    SourceAnalysis,
    contribution_limits,
    lb_theorem2,
    lb_theorem4,
    range_decreases,
    range_theorem5,
    simple_bounds,
    ub_theorem1,
    ub_theorem3_family,
)
from .coder import CoderModel, decode, encode, sequence_codelength
from .distributions import SourceSpec, make_distribution
from .grids import build_grid
from .oracle import exact_entropies, mc_pattern_entropy
from .patterns import bin_sequence, extract_pattern
from .verify import CHECKS, DEFAULT_SEED, run_suites

# config key -> names of the reports it gives; lb4's name carries its variants
BOUND_NAMES = {
    "simple": ("simple_lower", "simple_upper"), "ub1": ("ub_theorem1",),
    "ub1_tightened": ("ub_theorem1_tightened",), "lb2a": ("lb_theorem2_a",),
    "lb2b": ("lb_theorem2_b",), **{v: (f"ub_theorem3_{v}",) for v in UB3_VARIANTS},
    "lb4": ("lb_theorem4_{s1_variant}_{s2_variant}",),
    "contribution": ("contribution_limit_low01", "contribution_limit_bin0"),
    "range": ("range_lower", "range_upper_nonasymptotic"),
}
DEFAULT_BOUNDS = ("simple", "ub1", "lb2a", "lb2b", "ub3", "c1", "c21", "c2_loosened", "lb4")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by the subcommands."""

    source: SourceSpec | None
    n: int | None
    epsilon: float
    epsilon1: float | None
    bounds: tuple[str, ...]
    oracle: bool
    mc: dict | None
    out_format: str
    out_path: str | None
    region: dict | None
    code: dict | None
    verify: dict | None
    lb4: dict


def _fail(path: str, msg: str):
    raise ValueError(f"config{path}: {msg}")


def _expect_type(doc, path, types, what):
    if not isinstance(doc, types):
        _fail(path, f"expected {what}")
    return doc


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and normalize it."""
    _expect_type(doc, "", dict, "an object")
    known = {"source", "n", "epsilon", "epsilon1", "bounds", "oracle",
             "mc", "output", "region", "code", "verify", "lb4"}
    for key in doc:
        if key not in known:
            _fail("", f"unknown key {key!r}")

    source = None
    if "source" in doc:
        s = _expect_type(doc["source"], ".source", dict, "an object")
        if "probs" in s and "family" not in s:
            s = {"family": "explicit", "params": {"probs": s["probs"]}}
        fam = _expect_type(s.get("family"), ".source.family", str, "a family name")
        params = dict(s.get("params", {k: v for k, v in s.items() if k != "family"}))
        source = SourceSpec(family=fam, params=params, n=doc.get("n"))

    n = doc.get("n")
    if n is not None:
        _expect_type(n, ".n", (int, float), "a number")
        if isinstance(n, float):
            # huge horizons (1e50 sweeps) stay floats; modest ones normalize
            if n < 2**53 and n.is_integer():
                n = int(n)
        if n < 1:
            _fail(".n", "must be >= 1")
    epsilon = float(doc.get("epsilon", 0.25))
    epsilon1 = doc.get("epsilon1")
    if epsilon1 is None and "region" in doc and "n_pow_eps1" in doc["region"]:
        if n is None or n <= 1:
            _fail(".region.n_pow_eps1", "needs a horizon 'n' > 1")
        epsilon1 = math.log(float(doc["region"]["n_pow_eps1"])) / math.log(float(n))
    if epsilon1 is not None:
        epsilon1 = float(epsilon1)

    bounds = tuple(doc.get("bounds", DEFAULT_BOUNDS))
    for b in bounds:
        if b not in BOUND_NAMES:
            _fail(".bounds", f"unknown bound {b!r}; available: {tuple(BOUND_NAMES)}")

    mc = doc.get("mc")
    if mc is not None:
        _expect_type(mc, ".mc", dict, "an object")
        if "samples" not in mc:
            _fail(".mc", "needs 'samples'")
        mc = {"samples": int(mc["samples"]), "seed": int(mc.get("seed", 0))}

    output = doc.get("output", {})
    _expect_type(output, ".output", dict, "an object")
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        _fail(".output.format", "must be 'csv' or 'json'")

    region = doc.get("region")
    if region is not None:
        _expect_type(region, ".region", dict, "an object")
        if "k_values" not in region and "k_range" not in region:
            _fail(".region", "needs 'k_values' or 'k_range'")

    code = doc.get("code")
    if code is not None:
        _expect_type(code, ".code", dict, "an object")
        code = {"count": int(code.get("count", 100)), "seed": int(code.get("seed", 0))}

    verify_cfg = doc.get("verify")
    if verify_cfg is not None:
        _expect_type(verify_cfg, ".verify", dict, "an object")
        for s in verify_cfg.get("suites", []):
            if s not in CHECKS:
                _fail(".verify.suites", f"unknown suite {s!r}")

    lb4 = dict(_expect_type(doc.get("lb4", {}), ".lb4", dict, "an object"))
    lb4_keys = tuple(inspect.signature(lb_theorem4).parameters)[1:]
    for key in lb4.keys() - set(lb4_keys):
        _fail(".lb4", f"unknown key {key!r}; available: {lb4_keys}")
    return RunConfig(
        source=source, n=n, epsilon=epsilon, epsilon1=epsilon1,
        bounds=bounds, oracle=bool(doc.get("oracle", False)), mc=mc,
        out_format=out_format, out_path=output.get("path"),
        region=region, code=code, verify=verify_cfg, lb4=lb4,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _write_rows(rows: list[dict], out_format: str, stream) -> None:
    """Serialize rows with a stable column order (first-appearance)."""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    if out_format == "json":
        json.dump(rows, stream, indent=2, default=str)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])


def _report_row(rep: BoundReport, notes: tuple[str, ...]) -> dict:
    """One bound's row; ``notes`` (the analysis's own) follow the report's."""
    row = {
        "bound": rep.name,
        "value": rep.value,
        "valid": rep.valid,
        "residual_flags": ";".join(rep.residual_flags),
        "notes": ";".join(rep.notes + notes),
        "error": "",
    }
    for name, val in rep.terms:
        row[f"term:{name}"] = val
    return row


def _evaluate_bound(name: str, analysis: SourceAnalysis, cfg: RunConfig) -> list[BoundReport]:
    theta, n = analysis.theta, analysis.n
    if name == "simple":
        return list(simple_bounds(analysis))
    if name == "ub1":
        return [ub_theorem1(analysis)]
    if name == "ub1_tightened":
        return [ub_theorem1(analysis, tighten=True)]
    if name in ("lb2a", "lb2b"):
        a, b = lb_theorem2(analysis)
        return [a if name == "lb2a" else b]
    if name in UB3_VARIANTS:
        return [ub_theorem3_family(analysis, name)]
    if name == "lb4":
        return [lb_theorem4(analysis, **cfg.lb4)]
    if name == "contribution":
        return list(contribution_limits(analysis))
    if name == "range":
        if cfg.epsilon1 is None:
            raise ValueError("the range bound needs 'epsilon1' in the config")
        return list(range_theorem5(theta, n, cfg.epsilon, cfg.epsilon1))
    raise ValueError(f"unknown bound {name!r}")


def run_bounds(cfg: RunConfig) -> list[dict]:
    """One row per selected bound, with oracle columns when enabled."""
    if cfg.source is None or cfg.n is None:
        raise ValueError("the bounds command needs 'source' and 'n'")
    if not isinstance(cfg.n, int):
        raise ValueError("the bounds command needs an integer horizon n")
    theta = make_distribution(cfg.source)
    analysis = SourceAnalysis(theta, cfg.n, cfg.epsilon)
    oracle_cols: dict = {}
    skipped = []
    if cfg.oracle:
        try:
            ee = exact_entropies(theta, analysis.eta_grid, cfg.n)
            oracle_cols.update({
                "exact_h_x_block": ee.h_x_block,
                "exact_h_pattern": ee.h_pattern,
                "exact_h_joint": ee.h_joint,
                "exact_codelength": ee.expected_codelength,
            })
        except ResourceCapError as exc:
            skipped.append(f"oracle skipped: {exc}")
    if cfg.mc:
        try:
            mc = mc_pattern_entropy(theta, cfg.n, cfg.mc["samples"], cfg.mc["seed"])
            oracle_cols.update({"mc_estimate": mc.estimate, "mc_stderr": mc.stderr})
        except ResourceCapError as exc:
            skipped.append(f"mc skipped: {exc}")
    if skipped:
        oracle_cols["error"] = ";".join(skipped)
    rows = []
    for name in cfg.bounds:
        try:
            for rep in _evaluate_bound(name, analysis, cfg):
                row = _report_row(rep, analysis.notes)
                for key, val in oracle_cols.items():
                    if key == "error":
                        row["error"] = (row["error"] + ";" + val).strip(";")
                    else:
                        row[key] = val
                rows.append(row)
        except ResourceCapError as exc:
            variants = {"s1_variant": "b1", "s2_variant": "b1", **cfg.lb4}
            rows += [{"bound": report.format(**variants), "value": None, "valid": False,
                      "residual_flags": "", "notes": ";".join(analysis.notes), "error": str(exc)}
                     for report in BOUND_NAMES[name]]
    return rows


def run_region_sweep(cfg: RunConfig) -> list[dict]:
    """Decrease-region rows over a k sweep (no grids or enumeration involved)."""
    if cfg.region is None or cfg.n is None:
        raise ValueError("the region command needs 'region' and 'n'")
    if cfg.epsilon1 is None:
        raise ValueError("the region command needs 'epsilon1' (or region.n_pow_eps1)")
    region = cfg.region
    if "k_values" in region:
        ks = [int(k) for k in region["k_values"]]
    else:
        spec = region["k_range"]
        start, stop = float(spec["start"]), float(spec["stop"])
        num = int(spec.get("num", 50))
        if spec.get("log", True):
            ks = sorted({int(round(k)) for k in np.geomspace(start, stop, num)})
        else:
            ks = sorted({int(round(k)) for k in np.linspace(start, stop, num)})
    rows = []
    for k in ks:
        r = range_decreases(k, cfg.n, cfg.epsilon, cfg.epsilon1)
        rows.append({
            "k": k,
            "branch": "above" if r["upper_valid"] else "below",
            "threshold": r["threshold"],
            "lower_decrease_logkfact": r["lower_logkfact"],
            "lower_decrease_stirling": r["lower_stirling"],
            "upper_decrease_below_branch": 0.0,
            "upper_decrease_asym": r["upper_asym"],
            "upper_decrease_stirling": r["upper_stirling"],
            "upper_decrease_nonasym": r["upper_nonasym"],
            "gamma": r["gamma"],
            "gamma_residual": r["gamma_residual"],
            "beta_opt": r["beta_opt"],
            "beta_gamma": r["beta_gamma"],
            "error": "",
        })
    return rows


def run_code(cfg: RunConfig) -> tuple[list[dict], bool]:
    """Round-trip sampled sequences through the coder; returns (rows, all_ok)."""
    if cfg.source is None or cfg.n is None or cfg.code is None:
        raise ValueError("the code command needs 'source', 'n' and 'code'")
    theta = make_distribution(cfg.source)
    rng = np.random.default_rng(cfg.code["seed"])
    grid = build_grid("eta", cfg.n, cfg.epsilon)
    model = CoderModel.from_source(theta, grid, cfg.n)
    rows = []
    all_ok = True
    for trial in range(cfg.code["count"]):
        x = rng.choice(np.arange(1, theta.k + 1), size=cfg.n, p=theta.probs)
        psi = extract_pattern(x)
        beta = bin_sequence(theta, grid, x)
        cl = sequence_codelength(model, psi, beta)
        bits = encode(model, psi, beta)
        ok = decode(model, bits, cfg.n) == (psi.indices, beta)
        within = cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9
        all_ok = all_ok and ok and within
        rows.append({
            "trial": trial, "n": cfg.n, "k": theta.k,
            "codelength_bits": cl, "emitted_bits": len(bits),
            "roundtrip_ok": ok, "within_two_bits": within, "error": "",
        })
    return rows, all_ok


def run_oracle(cfg: RunConfig) -> list[dict]:
    if cfg.source is None or cfg.n is None:
        raise ValueError("the oracle command needs 'source' and 'n'")
    theta = make_distribution(cfg.source)
    grid = build_grid("eta", cfg.n, cfg.epsilon)
    ee = exact_entropies(theta, grid, cfg.n)
    row = {
        "n": cfg.n, "k": theta.k,
        "h_x_block": ee.h_x_block, "h_pattern": ee.h_pattern,
        "h_joint": ee.h_joint, "expected_codelength": ee.expected_codelength,
        "error": "",
    }
    if cfg.mc:
        mc = mc_pattern_entropy(theta, cfg.n, cfg.mc["samples"], cfg.mc["seed"])
        row.update({"mc_estimate": mc.estimate, "mc_stderr": mc.stderr})
    return [row]


def run_verify(cfg: RunConfig) -> tuple[list[dict], bool]:
    suites = None
    seed = DEFAULT_SEED
    if cfg.verify:
        suites = cfg.verify.get("suites")
        seed = int(cfg.verify.get("seed", seed))
    results = run_suites(suites, seed=seed)
    rows = [{
        "suite": r.name, "passed": r.passed, "checks": r.checks,
        "elapsed_s": round(r.elapsed, 3), "details": r.details, "error": "",
    } for r in results]
    return rows, all(r.passed for r in results)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pattern-entropy",
        description="Pattern-entropy bounds, oracles, region sweeps, and coder round trips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bounds", "evaluate the selected bound suite for one source"),
        ("region", "sweep the alphabet-size decrease region"),
        ("verify", "run the desk-scale verification suites"),
        ("code", "round-trip sampled sequences through the coder"),
        ("oracle", "exact (and optionally Monte Carlo) entropy computation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: config value or csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        cfg = parse_config(doc)
        if args.seed is not None:  # one seed for the mc, code and verify blocks
            seed = {"seed": args.seed}
            cfg = replace(cfg, mc=cfg.mc and {**cfg.mc, **seed}, code=cfg.code and {**cfg.code, **seed},
                          verify={**(cfg.verify or {}), **seed})
        failed = False
        if args.command == "bounds":
            rows = run_bounds(cfg)
        elif args.command == "region":
            rows = run_region_sweep(cfg)
        elif args.command == "code":
            rows, ok = run_code(cfg)
            failed = not ok
        elif args.command == "oracle":
            rows = run_oracle(cfg)
        else:
            rows, ok = run_verify(cfg)
            for row in rows:
                print(f"{'PASS' if row['passed'] else 'FAIL'}  {row['suite']:24s} "
                      f"{row['checks']:6d} checks  {row['elapsed_s']:7.2f}s",
                      file=sys.stderr)
            failed = not ok
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3

    out_format = args.format or cfg.out_format
    out_path = args.out or cfg.out_path
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(rows, out_format, fh)
    else:
        buf = io.StringIO()
        _write_rows(rows, out_format, buf)
        sys.stdout.write(buf.getvalue())
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
