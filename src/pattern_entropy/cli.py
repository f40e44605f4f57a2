"""Batch front end: bound suites, oracle runs, region sweeps, coder round trips.

Configuration is a single JSON document validated against the schema in
``docs/formats.md``.  Numeric CSV output uses 17 significant digits so files
are byte-stable and floats round-trip exactly.

One command per call (bounds, region, verify, code or oracle), with the four
options ``--config``, ``--seed``, ``--out`` and ``--format`` before or after it.

Exit codes: 0 success, 1 validation error, 2 property failure (or a malformed
command line), 3 resource cap.
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
from .coder import CoderModel, _check_cap, roundtrip
from .distributions import FAMILY_PARAMS, SourceSpec, make_distribution, sample_sequence
from .grids import build_grid
from .oracle import exact_entropies, mc_pattern_entropy
from .patterns import bin_sequence, extract_pattern
from .verify import CHECKS, DEFAULT_SEED, run_suites

# lb_theorem4's keyword defaults, which a config's lb4 block overrides
LB4_DEFAULTS = {name: p.default for name, p in inspect.signature(lb_theorem4).parameters.items()
                if p.default is not p.empty}

DEFAULT_BOUNDS = ("simple", "ub1", "lb2a", "lb2b", "ub3", "c1", "c21", "c2_loosened", "lb4")

# a region row costs about 14 us and a coded symbol 8-20 us (60 us at n = 16384)
# on a 2-vCPU host, so each cap keeps a run to a few seconds
REGION_K_CAP = 100_000  # alphabet sizes one region sweep visits
CODE_SYMBOLS_CAP = 250_000  # symbols, code.count * n, that one code run samples


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by the commands."""

    source: SourceSpec | None
    n: int | None
    epsilon: float
    epsilon1: float | None
    bounds: tuple[str, ...]
    oracle: bool
    mc: dict | None
    out_format: str
    out_path: str | None
    region_ks: tuple[int, ...] | None  # the alphabet sizes the region sweep visits
    code: dict | None
    verify: dict | None
    lb4: dict


def _range(analysis: SourceAnalysis, cfg: RunConfig) -> tuple[BoundReport, BoundReport]:
    if cfg.epsilon1 is None:
        raise ValueError("the range bound needs 'epsilon1' in the config")
    return range_theorem5(analysis, cfg.epsilon1)


# config key -> (names of the reports it gives, their evaluator); lb4's names
# carry its variants
BOUNDS = {
    "simple": (("simple_lower", "simple_upper"), lambda a, cfg: simple_bounds(a)),
    "ub1": (("ub_theorem1",), lambda a, cfg: [ub_theorem1(a)]),
    "ub1_tightened": (("ub_theorem1_tightened",), lambda a, cfg: [ub_theorem1(a, tighten=True)]),
    "lb2a": (("lb_theorem2_a",), lambda a, cfg: lb_theorem2(a)[:1]),
    "lb2b": (("lb_theorem2_b",), lambda a, cfg: lb_theorem2(a)[1:]),
    **{v: ((f"ub_theorem3_{v}",), lambda a, cfg, v=v: [ub_theorem3_family(a, v)])
       for v in UB3_VARIANTS},
    "lb4": (("lb_theorem4_{s1_variant}_{s2_variant}",), lambda a, cfg: [lb_theorem4(a, **cfg.lb4)]),
    "contribution": (("contribution_limit_low01", "contribution_limit_bin0"),
                     lambda a, cfg: contribution_limits(a)),
    "range": (("range_lower", "range_upper_nonasymptotic"), _range),
}


def _fail(path: str, msg: str):
    raise ValueError(f"config{path}: {msg}")


def _expect_type(doc, path, types, what):
    if not isinstance(doc, types):
        _fail(path, f"expected {what}")
    return doc


def _number(doc, path):
    """``doc`` as a float, or a config error naming ``path`` unless it is a finite JSON number."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        _fail(path, f"expected a number, got {doc!r}")
    try:
        value = float(doc)
    except OverflowError:
        _fail(path, f"{doc!r} is outside the float range")
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {doc!r}")
    return value


def _whole(doc, path, minimum):
    """``doc`` as an int >= ``minimum`` (integral floats count), else a config error."""
    if isinstance(doc, float) and doc.is_integer():
        doc = int(doc)
    if isinstance(doc, bool) or not isinstance(doc, int):
        _fail(path, f"expected an integer, got {doc!r}")
    if doc < minimum:
        _fail(path, f"must be >= {minimum}, got {doc!r}")
    _number(doc, path)  # an integer feeds float arithmetic, so it must fit a float
    return doc


def _block(doc, path, keys):
    """``doc``, or a config error unless it is an object whose keys are all in ``keys``."""
    for key in _expect_type(doc, path, dict, "an object"):
        if key not in keys:
            _fail(path, f"unknown key {key!r}; available: {tuple(keys)}")
    return doc


def _region_cap(count: int) -> int:
    """``count``, or ResourceCapError when a sweep would visit more alphabet sizes."""
    if count > REGION_K_CAP:
        raise ResourceCapError(f"a region sweep over {count} alphabet sizes exceeds "
                               f"REGION_K_CAP ({REGION_K_CAP})")
    return count


def _region_ks(region: dict) -> tuple[int, ...]:
    """The alphabet sizes a ``region`` block lists or spaces over a range."""
    _block(region, ".region", ("n_pow_eps1", "k_values", "k_range"))
    if "k_values" in region:
        values = region["k_values"]
        if not isinstance(values, list) or not values:
            _fail(".region.k_values", "expected a non-empty list of integers")
        _region_cap(len(values))
        return tuple(_whole(k, ".region.k_values", 1) for k in values)
    if "k_range" not in region:
        _fail(".region", "needs 'k_values' or 'k_range'")
    spec = _block(region["k_range"], ".region.k_range", ("start", "stop", "num", "log"))
    ends = []
    for key in ("start", "stop"):
        if key not in spec:
            _fail(".region.k_range", f"needs {key!r}")
        end = _number(spec[key], f".region.k_range.{key}")
        if not 0.0 < end < math.inf:
            _fail(f".region.k_range.{key}", f"must be a finite number > 0, got {end!r}")
        ends.append(end)
    num = _region_cap(_whole(spec.get("num", 50), ".region.k_range.num", 1))
    log = _expect_type(spec.get("log", True), ".region.k_range.log", bool, "true or false")
    ks = sorted({int(round(k)) for k in (np.geomspace if log else np.linspace)(*ends, num)})
    if ks[0] < 1:
        _fail(".region.k_range", f"spaces k down to {ks[0]}; every k must be >= 1")
    return tuple(ks)


def _names(doc, path, known, what):
    """``doc`` as a tuple, or a config error unless it lists names in ``known``."""
    for name in _expect_type(doc, path, (list, tuple), f"a list of {what} names"):
        if not isinstance(name, str) or name not in known:
            _fail(path, f"unknown {what} {name!r}; available: {tuple(known)}")
    return tuple(doc)


def _lb4(doc) -> dict:
    """``lb_theorem4``'s keywords: its defaults under an ``lb4`` block's checked overrides."""
    lb4 = {**LB4_DEFAULTS, **_block(doc, ".lb4", LB4_DEFAULTS)}
    for key in ("s1_variant", "s2_variant"):
        if lb4[key] not in ("b1", "b2"):
            _fail(f".lb4.{key}", f"must be 'b1' or 'b2', got {lb4[key]!r}")
    if not 0.0 < _number(lb4["vartheta_minus"], ".lb4.vartheta_minus") < 1.0:
        _fail(".lb4.vartheta_minus", f"must be in (0, 1), got {lb4['vartheta_minus']!r}")
    if not _number(lb4["vartheta_plus"], ".lb4.vartheta_plus") > 1.0:
        _fail(".lb4.vartheta_plus", f"must be > 1, got {lb4['vartheta_plus']!r}")
    _expect_type(lb4["s3_from_origin"], ".lb4.s3_from_origin", bool, "true or false")
    return lb4


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document and normalize it."""
    _block(doc, "", ("source", "n", "epsilon", "epsilon1", "bounds", "oracle",
                     "mc", "output", "region", "code", "verify", "lb4"))

    source = None
    if "source" in doc:
        s = _expect_type(doc["source"], ".source", dict, "an object")
        if "probs" in s and "family" not in s:
            s = {"family": "explicit", **s}
        fam = _expect_type(s.get("family"), ".source.family", str, "a family name")
        if fam not in FAMILY_PARAMS:
            _fail(".source.family", f"unknown family {fam!r}; available: {tuple(FAMILY_PARAMS)}")
        # the flat form lists the parameters beside the family
        where = ".source.params" if "params" in s else ".source"
        if "params" in s:
            _block(s, ".source", ("family", "params"))
        params = dict(_expect_type(s.get("params", {k: v for k, v in s.items() if k != "family"}),
                                   ".source.params", dict, "an object"))
        for name, value in params.items():
            path = f"{where}.{name}"
            if name not in FAMILY_PARAMS[fam]:
                _fail(path, f"not a {fam} parameter; available: {FAMILY_PARAMS[fam]}")
            if name == "probs":
                for i, p in enumerate(_expect_type(value, path, list, "a list of numbers")):
                    _number(p, f"{path}[{i}]")
            elif name != "level1":
                _number(value, path)
        if "k" in params:  # the uniform, geometric and zipf letter count
            _whole(params["k"], f"{where}.k", 1)
        source = SourceSpec(family=fam, params=params, n=doc.get("n"))

    n = doc.get("n")
    if n is not None:
        # horizons from 2**53 on (1e50 sweeps) are floats, which only the region
        # sweep takes; integral ones below that normalize to int
        n = _number(n, ".n")
        if n < 2**53 and n.is_integer():
            n = int(n)
        if n < 1:
            _fail(".n", "must be >= 1")
    epsilon = _number(doc.get("epsilon", 0.25), ".epsilon")
    try:  # eta's denominator n^(1 + 2 eps) is the largest power of n the commands take
        float(n or 1) ** (1.0 + 2.0 * abs(epsilon))
    except OverflowError:
        _fail(".epsilon", f"n^(1 + 2|epsilon|) is outside the float range at n = {n!r}")
    region = doc.get("region")
    region_ks = None if region is None else _region_ks(region)
    epsilon1 = doc.get("epsilon1")
    if epsilon1 is None and region is not None and "n_pow_eps1" in region:
        if n is None or n <= 1:
            _fail(".region.n_pow_eps1", "needs a horizon 'n' > 1")
        n_pow_eps1 = _number(region["n_pow_eps1"], ".region.n_pow_eps1")
        if not n_pow_eps1 > 0.0:
            _fail(".region.n_pow_eps1", f"must be > 0, got {n_pow_eps1!r}")
        epsilon1 = math.log(n_pow_eps1) / math.log(float(n))
    if epsilon1 is not None:
        epsilon1 = _number(epsilon1, ".epsilon1")

    bounds = _names(doc.get("bounds", DEFAULT_BOUNDS), ".bounds", BOUNDS, "bound")

    mc = doc.get("mc")
    if mc is not None:
        _block(mc, ".mc", ("samples", "seed"))
        if "samples" not in mc:
            _fail(".mc", "needs 'samples'")
        mc = {"samples": _whole(mc["samples"], ".mc.samples", 2),
              "seed": _whole(mc.get("seed", 0), ".mc.seed", 0)}

    output = _block(doc.get("output", {}), ".output", ("format", "path"))
    out_format = output.get("format", "csv")
    if out_format not in ("csv", "json"):
        _fail(".output.format", "must be 'csv' or 'json'")
    out_path = output.get("path")
    if out_path is not None:
        _expect_type(out_path, ".output.path", str, "a string")

    code = doc.get("code")
    if code is not None:
        _block(code, ".code", ("count", "seed"))
        code = {"count": _whole(code.get("count", 100), ".code.count", 0),
                "seed": _whole(code.get("seed", 0), ".code.seed", 0)}

    verify_cfg = doc.get("verify")
    if verify_cfg is not None:
        _block(verify_cfg, ".verify", ("suites", "seed"))
        _names(verify_cfg.get("suites", []), ".verify.suites", CHECKS, "suite")
        _whole(verify_cfg.get("seed", 0), ".verify.seed", 0)

    return RunConfig(
        source=source, n=n, epsilon=epsilon, epsilon1=epsilon1, bounds=bounds,
        oracle=_expect_type(doc.get("oracle", False), ".oracle", bool, "true or false"), mc=mc,
        out_format=out_format, out_path=out_path,
        region_ks=region_ks, code=code, verify=verify_cfg, lb4=_lb4(doc.get("lb4", {})),
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _write_rows(rows: list[dict], out_format: str, stream) -> None:
    """Serialize rows with a stable column order (first-appearance).

    A zero prints unsigned: -0.0 is written as 0.0, in CSV and JSON alike.
    """
    rows = [{key: 0.0 if isinstance(val, float) and val == 0.0 else val for key, val in row.items()}
            for row in rows]
    columns = list(dict.fromkeys(key for row in rows for key in row))
    if out_format == "json":
        json.dump(rows, stream, indent=2, default=str)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])


def _bound_row(name: str, rep: BoundReport | None, errors: list[str],
               notes: tuple[str, ...], oracle_cols: dict) -> dict:
    """One ``bounds`` row: ``rep``'s value and terms, or none when it hit a cap.

    Every row carries ``notes`` (the analysis's own) after the report's,
    ``errors`` (its cap message, then the run's skip messages) and the oracle
    columns.
    """
    row = {"bound": name, "value": None, "valid": False, "residual_flags": "",
           "notes": ";".join(notes), "error": ";".join(errors)}
    if rep is not None:
        row.update(value=rep.value, valid=rep.valid, residual_flags=";".join(rep.residual_flags),
                   notes=";".join(rep.notes + notes))
        row.update((f"term:{term}", val) for term, val in rep.terms)
    row.update(oracle_cols)
    return row


def _theta(cfg: RunConfig, command: str, *blocks: str):
    """The source of ``command``, which needs one, an integer horizon n and the config
    ``blocks``; an error building the source is a config error on ``source``."""
    needs = ("source", "n", *blocks)
    if any(getattr(cfg, key) is None for key in needs):
        *head, last = (f"'{key}'" for key in needs)
        raise ValueError(f"the {command} command needs {', '.join(head)} and {last}")
    if not isinstance(cfg.n, int):
        raise ValueError(f"the {command} command needs an integer horizon n")
    try:
        return make_distribution(cfg.source)
    except ValueError as exc:
        _fail(".source", str(exc))


def run_bounds(cfg: RunConfig) -> list[dict]:
    """One row per report of each selected bound, with oracle columns when enabled."""
    theta = _theta(cfg, "bounds")
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
    rows = []
    for key in cfg.bounds:
        names, evaluate = BOUNDS[key]
        try:
            reports = [(rep.name, rep, []) for rep in evaluate(analysis, cfg)]
        except ResourceCapError as exc:
            reports = [(name.format(**cfg.lb4), None, [str(exc)]) for name in names]
        rows += [_bound_row(name, rep, errors + skipped, analysis.notes, oracle_cols)
                 for name, rep, errors in reports]
    return rows


def run_region_sweep(cfg: RunConfig) -> list[dict]:
    """Decrease-region rows over a k sweep (no grids or enumeration involved)."""
    if cfg.region_ks is None or cfg.n is None:
        raise ValueError("the region command needs 'region' and 'n'")
    if cfg.epsilon1 is None:
        raise ValueError("the region command needs 'epsilon1' (or region.n_pow_eps1)")
    rows = []
    for k in cfg.region_ks:
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
    theta = _theta(cfg, "code", "code")
    _check_cap(cfg.n)  # both caps before the grid and the model are built
    if cfg.code["count"] * cfg.n > CODE_SYMBOLS_CAP:
        raise ResourceCapError(f"{cfg.code['count']} streams of {cfg.n} symbols exceed "
                               f"CODE_SYMBOLS_CAP ({CODE_SYMBOLS_CAP})")
    rng = np.random.default_rng(cfg.code["seed"])
    grid = build_grid("eta", cfg.n, cfg.epsilon)
    model = CoderModel.from_source(theta, grid, cfg.n)
    rows = []
    all_ok = True
    for trial in range(cfg.code["count"]):
        x = sample_sequence(theta, cfg.n, rng)
        cl, bits, ok, within = roundtrip(model, extract_pattern(x), bin_sequence(theta, grid, x))
        all_ok = all_ok and ok and within
        rows.append({
            "trial": trial, "n": cfg.n, "k": theta.k,
            "codelength_bits": cl, "emitted_bits": len(bits),
            "roundtrip_ok": ok, "within_two_bits": within, "error": "",
        })
    return rows, all_ok


def run_oracle(cfg: RunConfig) -> list[dict]:
    theta = _theta(cfg, "oracle")
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
    verify = cfg.verify or {}
    results = run_suites(verify.get("suites"), seed=int(verify.get("seed", DEFAULT_SEED)))
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


COMMANDS = {
    "bounds": "evaluate the selected bound suite for one source",
    "region": "sweep the alphabet-size decrease region",
    "verify": "run the desk-scale verification suites",
    "code": "round-trip sampled sequences through the coder",
    "oracle": "exact (and optionally Monte Carlo) entropy computation",
}

# one parser per process: every command takes the same four options, before or after it
PARSER = argparse.ArgumentParser(
    prog="pattern-entropy",
    description="Pattern-entropy bounds, oracles, region sweeps, and coder round trips.",
    epilog="commands:\n" + "".join(f"  {name:8s}  {text}\n" for name, text in COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
PARSER.add_argument("command", choices=COMMANDS, help="the command to run (listed below)")
PARSER.add_argument("--config", help="path to the JSON run configuration")
PARSER.add_argument("--seed", type=int, default=None, help="override the configured seed")
PARSER.add_argument("--out", default=None, help="output path (default: stdout)")
PARSER.add_argument("--format", choices=("csv", "json"), default=None,
                    help="output format (default: config value or csv)")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
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
