import csv
import io
import json
import math
import time
import tracemalloc
from collections import Counter

import pytest

from pattern_entropy import bounds, cli
from pattern_entropy.coder import CODER_N_CAP
from pattern_entropy.grids import build_grid
from pattern_entropy.oracle import ExactEntropies
from pattern_entropy.verify import _EXAMPLE_PARAMS, DEFAULT_SEED, CheckResult


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SINGLETON_ALPHABET = {
    "source": {"family": "uniform", "params": {"k": 1}},
    "n": 4, "epsilon": 0.3,
    "bounds": ["simple", "ub1", "lb2b", "ub3", "c1", "c21", "c2_loosened"],
}


class TestBoundsCommand:
    def test_simple_with_oracle(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 2}},
            "n": 2, "epsilon": 0.3, "bounds": ["simple"], "oracle": True,
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        by_name = {r["bound"]: r for r in rows}
        assert float(by_name["simple_lower"]["value"]) == 1.0
        assert float(by_name["simple_upper"]["value"]) == 2.0
        assert float(by_name["simple_lower"]["exact_h_pattern"]) == 1.0

    def test_singleton_alphabet_all_zero(self, tmp_path):
        cfg = write_config(tmp_path, SINGLETON_ALPHABET)
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        for row in read_csv(out):
            assert float(row["value"]) == 0.0, row["bound"]

    def test_zero_terms_print_without_sign(self, tmp_path):
        # -(1 - eps) * 0.0 and n * -xlog2x(1) are negative zeros before BoundReport
        cfg = write_config(tmp_path, SINGLETON_ALPHABET)
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        cells = [cell for row in read_csv(out) for cell in row.values()]
        assert "0" in cells and "-0" not in cells

    def test_terms_reconstruct_value(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [0.1, 0.2, 0.7]}},
            "n": 8, "epsilon": 0.3,
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        for row in read_csv(out):
            terms = [float(v) for k, v in row.items() if k.startswith("term:") and v]
            assert abs(math.fsum(terms) - float(row["value"])) <= 1e-12

    def test_example2_family_ordering(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "two-level",
                       "params": {"phi0": 0.5, "mu": 0.4, "nu": 0.3, "level1": "below"}},
            "n": 10**6, "epsilon": 0.4,
            "bounds": ["ub3", "c1", "c21", "c2_loosened"],
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        vals = {r["bound"]: float(r["value"]) for r in read_csv(out)}
        assert vals["ub_theorem3_c1"] > max(
            vals["ub_theorem3_ub3"], vals["ub_theorem3_c21"], vals["ub_theorem3_c2_loosened"])

    def test_validation_error_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [0.4, 0.5]}},
            "n": 3, "bounds": ["simple"],
        })
        assert cli.main(["bounds", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_bound_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 2}},
            "n": 2, "bounds": ["nope"],
        })
        assert cli.main(["bounds", "--config", cfg]) == 1

    def test_unknown_key_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"sources": {}})
        assert cli.main(["bounds", "--config", cfg]) == 1

    def test_removed_delta_key_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 2}},
            "n": 2, "bounds": ["simple"], "delta": 0.0,
        })
        assert cli.main(["bounds", "--config", cfg]) == 1

    @pytest.mark.parametrize("doc, where", [
        ({"region": {"n_pow_eps1": 20, "k_values": [10]}}, "region.n_pow_eps1"),
        ({"n": 1, "region": {"n_pow_eps1": 20, "k_values": [10]}}, "region.n_pow_eps1"),
        ({"source": {"family": "geometric", "params": {"k": 5}}, "n": 10}, "'decay'"),
        ({"source": {"family": "geometric", "params": {"decay": 0.5}}, "n": 10}, "'k'"),
        ({"source": {"family": "zipf", "params": {"k": 5}}, "n": 10}, "'exponent'"),
        ({"source": {"family": "two-level", "params": {"mu": 0.4, "nu": 0.3}}, "n": 100}, "'phi0'"),
        ({"source": {"family": "two-level", "params": {"phi0": 0.5, "nu": 0.3}}, "n": 100}, "'mu'"),
        ({"source": {"family": "two-level", "params": {"phi0": 0.5, "mu": 0.4}}, "n": 100}, "'nu'"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "lb4": {"bogus": 1}}, "'bogus'"),
        ({"source": {"family": "zipf", "params": 5}, "n": 10}, "config.source.params:"),
        ({"n": 100, "region": {"n_pow_eps1": 0, "k_values": [10]}},
         "config.region.n_pow_eps1: must be > 0"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "bounds": 5}, "config.bounds:"),
        ({"verify": {"suites": 3}}, "config.verify.suites:"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": None}}, "config.mc.samples:"),
        ({"source": {"family": "zipf", "params": {"k": None, "exponent": 1.1}}, "n": 10},
         "config.source.params.k: expected a number, got None"),
        ({"source": {"family": "geometric", "params": {"k": 4, "decay": [0.5]}}, "n": 10},
         "config.source.params.decay: expected a number, got [0.5]"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "bounds": ["simple"], "output": {"path": 7}},
         "config.output.path: expected a string"),
    ], ids=["n_pow_eps1_without_n", "n_pow_eps1_with_n1", "geometric_decay", "geometric_k",
            "zipf_exponent", "two_level_phi0", "two_level_mu", "two_level_nu", "lb4_unknown_key",
            "source_params_not_object", "n_pow_eps1_zero", "bounds_not_list",
            "verify_suites_not_list", "mc_samples_null", "family_param_null",
            "family_param_not_number", "output_path_not_string"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, doc, where):
        assert cli.main(["bounds", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err and "Traceback" not in err

    @pytest.mark.parametrize("eps, noted", [(0.3, True), (0.4, False)])
    def test_epsilon_floor_note_on_every_row(self, tmp_path, monkeypatch, eps, noted):
        # n = 8: (ln ln n)/(ln n) = 0.3521; the cap row of c2_exact carries the note too
        monkeypatch.setattr(bounds, "PMF_CAP", 0)
        cfg = write_config(tmp_path, {
            "source": {"probs": [0.1, 0.2, 0.7]}, "n": 8, "epsilon": eps,
            "bounds": [*cli.DEFAULT_BOUNDS, "c2_exact"],
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[-1]["bound"] == "ub_theorem3_c2_exact" and "PMF_CAP" in rows[-1]["error"]
        note = f"epsilon {eps} below (ln ln n)/(ln n) = 0.3521: bound guarantees degrade"
        assert len(rows) == 11
        assert [note in r["notes"].split(";") for r in rows] == [noted] * len(rows)

    def test_seed_flag_sets_the_mc_seed(self, tmp_path):
        doc = {"source": {"probs": [0.1, 0.2, 0.7]}, "n": 10, "epsilon": 0.4,
               "bounds": ["simple"], "mc": {"samples": 200}}

        def mc_columns(doc, *flags):
            out = str(tmp_path / "out.csv")
            assert cli.main(["bounds", "--config", write_config(tmp_path, doc), "--out", out,
                             *flags]) == 0
            return [(r["mc_estimate"], r["mc_stderr"]) for r in read_csv(out)]

        flagged = mc_columns(doc, "--seed", "3")
        assert flagged == mc_columns({**doc, "mc": {"samples": 200, "seed": 3}})
        assert flagged != mc_columns(doc)

    def test_each_grid_built_at_most_once(self, tmp_path, monkeypatch):
        built = Counter()

        def counting_build_grid(kind, *args, **kwargs):
            built[kind] += 1
            return build_grid(kind, *args, **kwargs)

        monkeypatch.setattr(bounds, "build_grid", counting_build_grid)
        source = {"family": "zipf", "params": {"k": 300, "exponent": 1.1}}
        cfg = write_config(tmp_path, {"source": source, "n": 10**4, "epsilon": 0.4})
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        assert built == Counter(eta=1, xi=1, tau=1)

        built.clear()
        cfg = write_config(tmp_path, {
            "source": source, "n": 10**4, "epsilon": 0.4,
            "bounds": ["c21", "c2_loosened", "lb4", "contribution"],
        })
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert built == Counter(xi=1, tau=1)

    def test_per_row_cap_reported_run_continues(self, tmp_path):
        # the oracle breaches its cap; bounds still evaluate and exit is 0
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 3}},
            "n": 30, "epsilon": 0.3, "bounds": ["simple"], "oracle": True,
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows and all("oracle skipped" in r["error"] for r in rows)
        assert float(rows[0]["value"]) > 0

    def test_mc_underflow_reported_run_continues(self, tmp_path):
        # uniform k=10 at n=400: every pattern probability underflows float64,
        # but the log-space profile DP reports the estimate
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 10}},
            "n": 400, "epsilon": 0.3, "bounds": ["simple"], "mc": {"samples": 10},
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert [r["bound"] for r in rows] == ["simple_lower", "simple_upper"]
        want = 400 * math.log2(10) - math.log2(math.factorial(10))
        for r in rows:
            assert r["error"] == ""
            assert abs(float(r["mc_estimate"]) - want) <= 1e-12 * want
            assert float(r["mc_stderr"]) == 0.0
        assert all(float(r["value"]) > 0 for r in rows)

    def test_oracle_and_mc_caps_both_reported(self, tmp_path):
        # zipf k=200 at n=400: 200^400 sequences to enumerate, and a sampled
        # profile's DP over 200 groups exceeds PROFILE_DP_CAP
        cfg = write_config(tmp_path, {
            "source": {"family": "zipf", "params": {"k": 200, "exponent": 1.3}},
            "n": 400, "epsilon": 0.3, "bounds": ["simple"], "oracle": True,
            "mc": {"samples": 10},
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 2
        for r in rows:
            oracle_msg, mc_msg = r["error"].split(";")
            assert oracle_msg.startswith("oracle skipped:") and "enumeration cap" in oracle_msg
            assert mc_msg.startswith("mc skipped:") and "PROFILE_DP_CAP" in mc_msg

    def test_cap_error_row_carries_the_report_name(self, tmp_path):
        # one tau bin of 10^6 letters breaches PMF_CAP; the row keeps its report name
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 10**6}},
            "n": 10**6, "epsilon": 0.4, "bounds": ["c2_exact", "simple"],
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        names = [r["bound"] for r in rows]
        assert names == ["ub_theorem3_c2_exact", "simple_lower", "simple_upper"]
        assert rows[0]["value"] == "" and "PMF_CAP" in rows[0]["error"]

    def test_bound_names_are_the_report_names(self):
        cfg = cli.parse_config({
            "source": {"probs": [0.1, 0.2, 0.7]}, "n": 8, "epsilon": 0.3, "epsilon1": 0.2,
            "bounds": list(cli.BOUND_NAMES), "lb4": {"s2_variant": "b2"},
        })
        want = [report.format(s1_variant="b1", s2_variant="b2")
                for reports in cli.BOUND_NAMES.values() for report in reports]
        assert [row["bound"] for row in cli.run_bounds(cfg)] == want

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "zipf", "params": {"k": 5, "exponent": 1.2}},
            "n": 6, "epsilon": 0.3, "oracle": True,
            "mc": {"samples": 500, "seed": 3},
        })
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", a]) == 0
        assert cli.main(["bounds", "--config", cfg, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 2}},
            "n": 2, "bounds": ["simple"],
        })
        out = str(tmp_path / "out.json")
        assert cli.main(["bounds", "--config", cfg, "--out", out, "--format", "json"]) == 0
        rows = json.loads(open(out).read())
        assert rows[0]["bound"] == "simple_lower"

    @pytest.mark.parametrize("params,n,eps", [
        ({"phi0": 0.5, "mu": 0.4, "nu": 0.3}, 10**9, 0.5),
        ({k: _EXAMPLE_PARAMS["ex3"][k] for k in ("phi0", "mu", "nu")}, 10**7,
         _EXAMPLE_PARAMS["ex3"]["eps"]),
    ], ids=["above_n1e9", "ex3_n1e7"])
    def test_paper_scale_default_table(self, params, n, eps):
        # eta has about 10^9 bins at n = 10^9; no grid is materialised, so
        # every row gets a value and the table fits in a few MiB
        cfg = cli.parse_config({
            "source": {"family": "two-level", "params": {**params, "level1": "above"}},
            "n": n, "epsilon": eps,
        })
        tracemalloc.start()
        try:
            rows = cli.run_bounds(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 10
        assert all(r["error"] == "" and math.isfinite(r["value"]) for r in rows)
        assert peak < 5 * 2**20


class TestRegionCommand:
    def test_branch_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 10**6, "epsilon": 0.2,
            "region": {"n_pow_eps1": 20, "k_values": [100, 1585, 50000]},
        })
        out = str(tmp_path / "r.csv")
        assert cli.main(["region", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0]["branch"] == "below"
        assert float(rows[0]["upper_decrease_nonasym"]) == 0.0
        assert rows[2]["branch"] == "above"
        assert float(rows[2]["upper_decrease_nonasym"]) > 0.0
        assert float(rows[2]["gamma_residual"]) < 1e-9
        assert all(float(r["upper_decrease_below_branch"]) == 0.0 for r in rows)

    def test_k_range_spec(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 10**6, "epsilon": 0.2, "epsilon1": 0.22,
            "region": {"k_range": {"start": 100, "stop": 10**6, "num": 12, "log": True}},
        })
        out = str(tmp_path / "r.csv")
        assert cli.main(["region", "--config", cfg, "--out", out]) == 0
        assert len(read_csv(out)) >= 10

    def test_missing_epsilon1(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 100, "region": {"k_values": [10]}})
        assert cli.main(["region", "--config", cfg]) == 1


class TestCodeCommand:
    def test_roundtrips_clean(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [0.2, 0.3, 0.5]}},
            "n": 20, "epsilon": 0.3, "code": {"count": 10, "seed": 4},
        })
        out = str(tmp_path / "c.csv")
        assert cli.main(["code", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 10
        assert all(r["roundtrip_ok"] == "True" for r in rows)
        assert all(r["within_two_bits"] == "True" for r in rows)

    def test_seed_flag_sets_the_code_seed(self, tmp_path):
        doc = {"source": {"probs": [0.2, 0.3, 0.5]}, "n": 20, "epsilon": 0.3,
               "code": {"count": 5}}

        def rows(doc, *flags):
            out = str(tmp_path / "c.csv")
            assert cli.main(["code", "--config", write_config(tmp_path, doc), "--out", out,
                             *flags]) == 0
            return read_csv(out)

        flagged = rows(doc, "--seed", "9")
        assert flagged == rows({**doc, "code": {"count": 5, "seed": 9}})
        assert flagged != rows(doc)

    def test_seed_fixes_the_stream(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "zipf", "params": {"k": 50, "exponent": 1.2}},
            "n": 64, "epsilon": 0.3, "code": {"count": 5, "seed": 11},
        })
        out = str(tmp_path / "c.csv")
        assert cli.main(["code", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert [float(r["codelength_bits"]) for r in rows] == [
            217.91604897404008, 191.57910067998003, 194.01473202798437,
            199.80667564229577, 211.29093146886464]
        assert [int(r["emitted_bits"]) for r in rows] == [219, 193, 196, 201, 213]

    def test_cap_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [0.5, 0.5]}},
            "n": CODER_N_CAP + 1, "epsilon": 0.3, "code": {"count": 1, "seed": 0},
        })
        assert cli.main(["code", "--config", cfg]) == 3
        assert "resource cap:" in capsys.readouterr().err

    def test_paper_scale_n_exits_3_before_allocating(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [0.5, 0.5]}},
            "n": 10**9, "epsilon": 0.3, "code": {"count": 1, "seed": 0},
        })
        t0 = time.perf_counter()
        assert cli.main(["code", "--config", cfg]) == 3
        assert time.perf_counter() - t0 < 10.0
        assert "CODER_N_CAP" in capsys.readouterr().err


class TestOracleCommand:
    def test_exact_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 2}},
            "n": 3, "epsilon": 0.3, "mc": {"samples": 2000, "seed": 1},
        })
        out = str(tmp_path / "o.csv")
        assert cli.main(["oracle", "--config", cfg, "--out", out]) == 0
        row = read_csv(out)[0]
        assert float(row["h_x_block"]) == 3.0
        assert float(row["h_pattern"]) <= 3.0
        assert abs(float(row["mc_estimate"]) - float(row["h_pattern"])) \
            <= 4 * float(row["mc_stderr"]) + 1e-9

    def test_cap_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 3}},
            "n": 30, "epsilon": 0.3,
        })
        assert cli.main(["oracle", "--config", cfg]) == 3


    def test_mc_underflow_exit_3(self, tmp_path, monkeypatch, capsys):
        # 10^400 sequences exceed the enumeration cap, so stand in for the exact
        # part to reach the Monte Carlo one.  Uniform k=10 at n=400 no longer
        # underflows; a profile DP past its cap still exits 3
        monkeypatch.setattr(cli, "exact_entropies", lambda theta, grid, n: ExactEntropies(
            h_x_block=0.0, h_pattern=0.0, h_joint=0.0, expected_codelength=0.0))
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 10}},
            "n": 400, "epsilon": 0.3, "mc": {"samples": 10},
        })
        out = str(tmp_path / "o.csv")
        assert cli.main(["oracle", "--config", cfg, "--out", out]) == 0
        want = 400 * math.log2(10) - math.log2(math.factorial(10))
        assert abs(float(read_csv(out)[0]["mc_estimate"]) - want) <= 1e-12 * want
        cfg = write_config(tmp_path, {
            "source": {"family": "zipf", "params": {"k": 200, "exponent": 1.3}},
            "n": 400, "epsilon": 0.3, "mc": {"samples": 10},
        })
        assert cli.main(["oracle", "--config", cfg]) == 3
        assert "PROFILE_DP_CAP" in capsys.readouterr().err


class TestVerifyCommand:
    def test_selected_suites_pass(self, tmp_path):
        cfg = write_config(tmp_path, {
            "verify": {"suites": ["permutation_count", "stirling"], "seed": 5},
        })
        out = str(tmp_path / "v.json")
        assert cli.main(["verify", "--config", cfg, "--out", out, "--format", "json"]) == 0
        rows = json.loads(open(out).read())
        assert {r["suite"] for r in rows} == {"permutation_count", "stirling"}
        assert all(r["passed"] for r in rows)

    def test_failure_exits_2(self, tmp_path, monkeypatch):
        def always_fails():
            return CheckResult(name="broken", passed=False, checks=1, details="boom")
        monkeypatch.setitem(cli.CHECKS, "broken", always_fails)
        cfg = write_config(tmp_path, {"verify": {"suites": ["broken"]}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 2

    def test_unknown_suite_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, {"verify": {"suites": ["nonsense"]}})
        assert cli.main(["verify", "--config", cfg]) == 1

    def test_default_seed_is_the_suites_default(self, tmp_path, monkeypatch):
        seeds = []

        def probe(seed):
            seeds.append(seed)
            return CheckResult(name="probe", passed=True, checks=1, details="")
        monkeypatch.setitem(cli.CHECKS, "probe", probe)
        cfg = write_config(tmp_path, {"verify": {"suites": ["probe"]}})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        assert seeds == [DEFAULT_SEED]

    def test_seed_flag_reaches_the_seeded_suites(self, tmp_path, monkeypatch):
        seeds = []

        def probe(seed):
            seeds.append(seed)
            return CheckResult(name="probe", passed=True, checks=1, details="")
        monkeypatch.setitem(cli.CHECKS, "probe", probe)
        cfg = write_config(tmp_path, {"verify": {"suites": ["probe"], "seed": 1}})
        out = str(tmp_path / "v.csv")
        assert cli.main(["verify", "--config", cfg, "--out", out, "--seed", "5"]) == 0
        assert seeds == [5]
