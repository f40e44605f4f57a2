import csv
import io
import json
import math
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pattern_entropy import bounds, cli, oracle
from pattern_entropy.coder import CODER_N_CAP
from pattern_entropy.distributions import MATERIALIZE_CAP
from pattern_entropy.grids import build_grid
from pattern_entropy.oracle import ExactEntropies
from pattern_entropy.verify import _EXAMPLE_PARAMS, DEFAULT_SEED, CheckResult


def write_config(tmp_path, doc, name="cfg.json"):
    """Write ``doc`` as JSON, or as it stands when it is a string."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# a valid bounds config that the malformed cases below spoil one key of
UNIFORM2 = {"source": {"family": "uniform", "params": {"k": 2}}, "n": 8, "bounds": ["ub1"]}

# the commands that read each top-level config key
READERS = {
    "source": ("bounds", "code", "oracle"),
    "n": ("bounds", "code", "oracle", "region"),
    "epsilon": ("bounds", "code", "oracle", "region"),
    "epsilon1": ("bounds", "region"),
    "bounds": ("bounds",), "oracle": ("bounds",), "lb4": ("bounds",),
    "mc": ("bounds", "oracle"),
    "region": ("region",), "code": ("code",), "verify": ("verify",),
    "output": tuple(cli.COMMANDS),
}
# the commands that fail with each message that names no config key
MESSAGE_READERS = {
    "config is not valid JSON": tuple(cli.COMMANDS),
    "the code command": ("code",),
    "the range bound": ("bounds",),
}
# what a command needs beyond a source and n, added where a config lacks it
NEEDS = {"code": {"code": {"count": 1}}}


def _readers(where):
    """The commands that fail with the message ``where``."""
    key = re.match(r"config\.(\w+)", where)
    if key:
        return READERS[key.group(1)]
    return next(commands for start, commands in MESSAGE_READERS.items() if where.startswith(start))


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
        ({"region": {"n_pow_eps1": 20, "k_values": [10]}}, "config.region.n_pow_eps1"),
        ({"n": 1, "region": {"n_pow_eps1": 20, "k_values": [10]}}, "config.region.n_pow_eps1"),
        ({"source": {"family": "geometric", "params": {"k": 5}}, "n": 10},
         "config.source: geometric family requires 'decay'"),
        ({"source": {"family": "geometric", "params": {"decay": 0.5}}, "n": 10},
         "config.source: geometric family requires 'k'"),
        ({"source": {"family": "zipf", "params": {"k": 5}}, "n": 10},
         "config.source: zipf family requires 'exponent'"),
        ({"source": {"family": "two-level", "params": {"mu": 0.4, "nu": 0.3}}, "n": 100},
         "config.source: two-level family requires 'phi0'"),
        ({"source": {"family": "two-level", "params": {"phi0": 0.5, "nu": 0.3}}, "n": 100},
         "config.source: two-level family requires 'mu'"),
        ({"source": {"family": "two-level", "params": {"phi0": 0.5, "mu": 0.4}}, "n": 100},
         "config.source: two-level family requires 'nu'"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "lb4": {"bogus": 1}},
         "config.lb4: unknown key 'bogus'"),
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
        ({"region": {"k_range": 5}}, "config.region.k_range: expected an object"),
        ({"region": {"k_range": {"start": 10}}}, "config.region.k_range: needs 'stop'"),
        ({"region": {"k_range": {"start": 0, "stop": 10}}},
         "config.region.k_range.start: must be a finite number > 0"),
        ({"region": {"k_range": {"start": 0.2, "stop": 3, "num": 3, "log": False}}},
         "config.region.k_range: spaces k down to 0"),
        ({"region": {"k_range": {"start": 10, "stop": 100, "num": 0}}},
         "config.region.k_range.num: must be >= 1, got 0"),
        ({"region": {"k_range": {"start": 10, "stop": 100, "log": "false"}}},
         "config.region.k_range.log: expected true or false"),
        ({"region": {"k_range": {"start": 10, "stop": 100, "nmu": 5}}},
         "config.region.k_range: unknown key 'nmu'"),
        ({"region": {"k_values": 7}}, "config.region.k_values: expected a non-empty list"),
        ({"region": {"k_values": [None]}}, "config.region.k_values: expected an integer, got None"),
        ({"region": {"k_values": [1.5, 2]}},
         "config.region.k_values: expected an integer, got 1.5"),
        ({"region": {"k_values": [0]}}, "config.region.k_values: must be >= 1, got 0"),
        ({"region": {"k_values": "abc"}}, "config.region.k_values: expected a non-empty list"),
        ({"region": {"k_values": []}}, "config.region.k_values: expected a non-empty list"),
        ({"region": {"k_value": [10]}}, "config.region: unknown key 'k_value'"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "oracle": "false"},
         "config.oracle: expected true or false"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": 100, "sed": 3}},
         "config.mc: unknown key 'sed'"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": 2.5}},
         "config.mc.samples: expected an integer, got 2.5"),
        ({"code": {"seed": -1}}, "config.code.seed: must be >= 0, got -1"),
        ({"epsilon": True}, "config.epsilon: expected a number, got True"),
        ({"epsilon": 10**400}, "config.epsilon: 1000"),
        ({"source": {"family": "zipf", "params": {"k": 5, "exponent": "1.1"}}, "n": 10},
         "config.source.params.exponent: expected a number, got '1.1'"),
        ({"code": {"count": 5, "sede": 3}}, "config.code: unknown key 'sede'"),
        ({"verify": {"suite": ["stirling"]}}, "config.verify: unknown key 'suite'"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "output": {"fromat": "json"}},
         "config.output: unknown key 'fromat'"),
        ({**UNIFORM2, "epsilon": math.inf}, "config.epsilon: expected a finite number, got inf"),
        ({**UNIFORM2, "epsilon": math.nan}, "config.epsilon: expected a finite number, got nan"),
        ({**UNIFORM2, "epsilon1": -math.inf, "bounds": ["range"]},
         "config.epsilon1: expected a finite number, got -inf"),
        ({"n": 100, "region": {"n_pow_eps1": math.inf, "k_values": [10]}},
         "config.region.n_pow_eps1: expected a finite number, got inf"),
        ({"source": {"family": "geometric", "params": {"k": 4, "decay": math.nan}}, "n": 8},
         "config.source.params.decay: expected a finite number, got nan"),
        ({**UNIFORM2, "n": True}, "config.n: expected a number, got True"),
        ({**UNIFORM2, "n": math.nan}, "config.n: expected a finite number, got nan"),
        ({**UNIFORM2, "n": math.inf}, "config.n: expected a finite number, got inf"),
        ({"source": {"family": "zipf", "params": {"k": 2.7, "exponent": 1.1}}, "n": 8},
         "config.source.params.k: expected an integer, got 2.7"),
        ({"source": {"family": "uniform", "params": {"k": 2.5}}, "n": 8},
         "config.source.params.k: expected an integer, got 2.5"),
        ({"source": {"family": "geometric", "params": {"k": math.inf, "decay": 0.5}}, "n": 8},
         "config.source.params.k: expected a finite number, got inf"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": 0}},
         "config.mc.samples: must be >= 2, got 0"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": 1}},
         "config.mc.samples: must be >= 2, got 1"),
        ({"source": {"probs": [0.5, "a"]}, "n": 4},
         "config.source.probs[1]: expected a number, got 'a'"),
        ({"source": {"family": "zipf", "params": {"k": 10, "exponent": 1.1, "exponant": 2}},
          "n": 8}, "config.source.params.exponant: not a zipf parameter"),
        ({"source": {"family": "zipf", "k": 10, "exponent": 1.1, "exponant": 2}, "n": 8},
         "config.source.exponant: not a zipf parameter"),
        ({"source": {"family": "zipf", "params": {"k": 10, "exponent": 1.1}, "k": 3}, "n": 8},
         "config.source: unknown key 'k'"),
        ({"source": {"family": "zipff", "params": {"k": 10}}, "n": 8},
         "config.source.family: unknown family 'zipff'"),
        ({"source": {"family": "zipf", "k": 2.7, "exponent": 1.1}, "n": 8},
         "config.source.k: expected an integer, got 2.7"),
        ({**UNIFORM2, "lb4": {"vartheta_minus": "x"}},
         "config.lb4.vartheta_minus: expected a number, got 'x'"),
        ({**UNIFORM2, "lb4": {"vartheta_minus": 1.0}},
         "config.lb4.vartheta_minus: must be in (0, 1), got 1.0"),
        ({**UNIFORM2, "lb4": {"vartheta_plus": 1}}, "config.lb4.vartheta_plus: must be > 1, got 1"),
        ({**UNIFORM2, "lb4": {"vartheta_plus": math.nan}},
         "config.lb4.vartheta_plus: expected a finite number, got nan"),
        ({**UNIFORM2, "lb4": {"s3_from_origin": "yes"}},
         "config.lb4.s3_from_origin: expected true or false"),
        ({**UNIFORM2, "lb4": {"s2_variant": "b3"}},
         "config.lb4.s2_variant: must be 'b1' or 'b2', got 'b3'"),
        ({**UNIFORM2, "epsilon": 1e300},
         "config.epsilon: n^(1 + 2|epsilon|) is outside the float range at n = 8"),
        ({**UNIFORM2, "epsilon": -1e300},
         "config.epsilon: n^(1 + 2|epsilon|) is outside the float range at n = 8"),
        ({"source": {"family": "two-level", "params": {"phi0": 0.5, "mu": 1e300, "nu": 0.3}},
          "n": 100}, "config.source: two-level mu = 1e+300 puts n^"),
        ({"source": {"family": "two-level",
                     "params": {"phi0": 0.5, "mu": 0.4, "nu": 1e300, "level1": "above"}},
          "n": 100}, "config.source: two-level nu = 1e+300 puts n^"),
        ({"source": {"family": "uniform", "params": {"nu": -1e300}}, "n": 100},
         "config.source: uniform nu = -1e+300 puts n^"),
        ({"source": {"family": "uniform", "params": {"k": 10**30}}, "n": 8},
         "config.source: multiplicities must be below 2**63, got 10000"),
        ({"region": {"k_values": [10, 10**400]}}, "config.region.k_values: 10000"),
        ({"code": {"count": 10**400}}, "config.code.count: 10000"),
        ('{"n": 8', "config is not valid JSON"),
        ({"n": 8}, "the code command needs 'source', 'n' and 'code'"),
        ({**UNIFORM2, "bounds": ["range"]}, "the range bound needs 'epsilon1' in the config"),
        # the integral float 10.0 passes as 10, so the seed is the first error
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"samples": 10.0, "seed": "x"}},
         "config.mc.seed: expected an integer, got 'x'"),
        ({"n": 100, "region": {"n_pow_eps1": 20}}, "config.region: needs 'k_values' or 'k_range'"),
        ({**UNIFORM2, "n": 0}, "config.n: must be >= 1"),
        ({"source": {"probs": [0.5, 0.5]}, "n": 4, "mc": {"seed": 3}}, "config.mc: needs 'samples'"),
        ({"output": {"format": "xml"}}, "config.output.format: must be 'csv' or 'json'"),
    ], ids=["n_pow_eps1_without_n", "n_pow_eps1_with_n1", "geometric_decay", "geometric_k",
            "zipf_exponent", "two_level_phi0", "two_level_mu", "two_level_nu", "lb4_unknown_key",
            "source_params_not_object", "n_pow_eps1_zero", "bounds_not_list",
            "verify_suites_not_list", "mc_samples_null", "family_param_null",
            "family_param_not_number", "output_path_not_string",
            "k_range_not_object", "k_range_without_stop", "k_range_start_zero",
            "k_range_rounds_to_zero", "k_range_num_zero", "k_range_log_not_bool",
            "k_range_unknown_key", "k_values_not_list", "k_values_null", "k_values_fraction",
            "k_values_zero", "k_values_string", "k_values_empty", "region_unknown_key",
            "oracle_not_bool", "mc_unknown_key", "mc_samples_fraction", "code_seed_negative",
            "epsilon_bool", "epsilon_overflow", "family_param_string", "code_unknown_key",
            "verify_unknown_key", "output_unknown_key", "epsilon_inf", "epsilon_nan",
            "epsilon1_inf", "n_pow_eps1_inf", "family_param_nan", "n_bool", "n_nan", "n_inf",
            "zipf_k_fraction", "uniform_k_fraction", "geometric_k_inf", "mc_samples_zero",
            "mc_samples_one", "probs_entry_string", "family_param_unknown",
            "flat_family_param_unknown", "params_beside_flat_key", "family_unknown",
            "flat_k_fraction", "lb4_vartheta_minus_string", "lb4_vartheta_minus_one",
            "lb4_vartheta_plus_one", "lb4_vartheta_plus_nan", "lb4_s3_from_origin_string",
            "lb4_variant_unknown", "epsilon_power_overflow", "epsilon_negative_power_overflow",
            "two_level_mu_overflow", "two_level_nu_underflow", "uniform_nu_overflow",
            "uniform_k_past_int64", "k_values_past_float", "code_count_past_float",
            "invalid_json", "code_without_source", "range_without_epsilon1",
            "mc_samples_integral_float", "region_without_k", "n_zero", "mc_without_samples",
            "output_format_unknown"])
    def test_malformed_config_exit_1(self, tmp_path, capsys, doc, where):
        # every command that reads the spoiled key fails on it, given what else it needs
        for command in _readers(where):
            cfg = write_config(tmp_path, doc if isinstance(doc, str)
                               else {**NEEDS.get(command, {}), **doc})
            assert cli.main([command, "--config", cfg]) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error:") and where in err and "Traceback" not in err, command

    @pytest.mark.parametrize("n", [4.5, 10**30])
    @pytest.mark.parametrize("command", ["bounds", "code", "oracle"])
    def test_fractional_or_float_horizon_exit_1(self, tmp_path, capsys, command, n):
        cfg = write_config(tmp_path, {**UNIFORM2, **NEEDS.get(command, {}), "n": n})
        assert cli.main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: the {command} command needs an integer horizon n\n"

    @pytest.mark.parametrize("doc, commands, cap", [
        ({"source": {"family": "geometric", "params": {"k": MATERIALIZE_CAP + 1, "decay": 0.5}},
          "n": 8}, ("bounds", "code", "oracle"), "MATERIALIZE_CAP"),
        ({"source": {"family": "zipf", "params": {"k": MATERIALIZE_CAP + 1, "exponent": 1.1}},
          "n": 8}, ("bounds", "code", "oracle"), "MATERIALIZE_CAP"),
        ({"n": 100, "epsilon1": 0.2,
          "region": {"k_range": {"start": 1, "stop": 10, "num": cli.REGION_K_CAP + 1}}},
         ("region",), "REGION_K_CAP"),
        ({"n": 100, "epsilon1": 0.2, "region": {"k_values": [7] * (cli.REGION_K_CAP + 1)}},
         ("region",), "REGION_K_CAP"),
        ({**UNIFORM2, "n": 64, "code": {"count": cli.CODE_SYMBOLS_CAP // 64 + 1}},
         ("code",), "CODE_SYMBOLS_CAP"),
    ], ids=["geometric_k", "zipf_k", "k_range_num", "k_values_length", "code_symbols"])
    def test_cap_exit_3_before_allocating(self, tmp_path, capsys, monkeypatch, doc, commands, cap):
        # a letter array, a sweep's k points or a sampled stream past the cap is never built
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the cap")
        for name in ("arange", "geomspace", "linspace"):
            monkeypatch.setattr(np, name, refuse)
        # nor the code run's grid and coder model
        for owner, name in ((cli, "sample_sequence"), (cli, "build_grid"),
                            (cli.CoderModel, "from_source")):
            monkeypatch.setattr(owner, name, refuse)
        for command in commands:
            cfg = write_config(tmp_path, {**NEEDS.get(command, {}), **doc})
            assert cli.main([command, "--config", cfg]) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("resource cap:") and cap in err and "Traceback" not in err

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
        # uniform k = 3 at n = 30 (3^30 sequences) now computes: one group in
        # one bin, so H(pattern, bins) = H(pattern)
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 3}},
            "n": 30, "epsilon": 0.3, "bounds": ["simple"], "oracle": True,
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        row = read_csv(out)[0]
        h_pattern, h_joint = float(row["exact_h_pattern"]), float(row["exact_h_joint"])
        assert row["error"] == "" and abs(h_joint - h_pattern) <= 1e-13 * h_pattern
        assert float(row["exact_codelength"]) >= h_joint
        # four groups at n = 2000 pass the enumeration cap; bounds still
        # evaluate and exit is 0
        cfg = write_config(tmp_path, {
            "source": {"probs": [0.1, 0.2, 0.3, 0.4]},
            "n": 2000, "epsilon": 0.3, "bounds": ["simple"], "oracle": True,
        })
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows and all("oracle skipped" in r["error"] and "ENUMERATION_CAP" in r["error"]
                            for r in rows)
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

    def test_oracle_and_mc_caps_both_reported(self, tmp_path, monkeypatch):
        # zipf k=200 at n=400: 200^400 sequences to enumerate, and a sampled
        # profile's DP over 200 groups exceeds PROFILE_DP_CAP; with PMF_CAP at 0
        # the c2_exact row hits its own cap and carries both messages after it
        monkeypatch.setattr(bounds, "PMF_CAP", 0)
        cfg = write_config(tmp_path, {
            "source": {"family": "zipf", "params": {"k": 200, "exponent": 1.3}},
            "n": 400, "epsilon": 0.3, "bounds": ["simple", "c2_exact"], "oracle": True,
            "mc": {"samples": 10},
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert [r["bound"] for r in rows] == [
            "simple_lower", "simple_upper", "ub_theorem3_c2_exact"]
        skipped = rows[0]["error"]
        oracle_msg, mc_msg = skipped.split(";")
        assert oracle_msg.startswith("oracle skipped:") and "enumeration cap" in oracle_msg
        assert mc_msg.startswith("mc skipped:") and "PROFILE_DP_CAP" in mc_msg
        assert rows[1]["error"] == skipped
        own, *rest = rows[2]["error"].split(";")
        assert rest == [oracle_msg, mc_msg]
        assert own.startswith("bin ") and "PMF_CAP" in own and rows[2]["value"] == ""

    def test_cap_error_row_carries_the_oracle_columns(self, tmp_path, monkeypatch):
        # a cap row gets the exact and mc columns a value row gets, and comes
        # first here, so those columns precede the term columns
        monkeypatch.setattr(bounds, "PMF_CAP", 0)
        cfg = write_config(tmp_path, {
            "source": {"probs": [0.1, 0.2, 0.7]}, "n": 6, "epsilon": 0.3,
            "bounds": ["c2_exact", "simple"], "oracle": True, "mc": {"samples": 50},
        })
        out = str(tmp_path / "out.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        oracle_cols = ["exact_h_x_block", "exact_h_pattern", "exact_h_joint",
                       "exact_codelength", "mc_estimate", "mc_stderr"]
        assert list(rows[0])[6:12] == oracle_cols
        assert rows[0]["bound"] == "ub_theorem3_c2_exact" and "PMF_CAP" in rows[0]["error"]
        assert [[r[c] for c in oracle_cols] for r in rows] == [
            [rows[1][c] for c in oracle_cols]] * 3

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
            "bounds": list(cli.BOUNDS), "lb4": {"s2_variant": "b2"},
        })
        want = [report.format(s1_variant="b1", s2_variant="b2")
                for reports, _ in cli.BOUNDS.values() for report in reports]
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
            217.91604897404011, 191.57910067998009, 194.01473202798439,
            199.80667564229583, 211.29093146886467]
        assert [int(r["emitted_bits"]) for r in rows] == [219, 193, 196, 201, 213]

    @pytest.mark.parametrize("command, extra", [
        ("code", {}), ("oracle", {}), ("bounds", {"oracle": True})])
    def test_rare_letter_source_runs(self, tmp_path, capsys, command, extra):
        # a letter of 1e-17 leaves its coder bin a rate numerator that is
        # rounding noise; the model takes phi_b / k_b there and every command runs
        cfg = write_config(tmp_path, {"source": {"probs": [1e-17, 0.5, 0.5]}, "n": 10,
                                      "epsilon": 0.3, "code": {"count": 2}, **extra})
        assert cli.main([command, "--config", cfg]) == 0
        assert capsys.readouterr().err == ""

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

    def test_cap_exit_3(self, tmp_path, capsys):
        # uniform k = 3 at n = 30 (3^30 sequences) now computes
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 3}},
            "n": 30, "epsilon": 0.3,
        })
        out = str(tmp_path / "o.csv")
        assert cli.main(["oracle", "--config", cfg, "--out", out]) == 0
        row = read_csv(out)[0]
        h_pattern, h_joint = float(row["h_pattern"]), float(row["h_joint"])
        assert abs(h_joint - h_pattern) <= 1e-13 * h_pattern
        assert float(row["expected_codelength"]) >= h_joint
        # the two-level source at n = 44 passes the shared profile DP budget
        cfg = write_config(tmp_path, {
            "source": {"family": "explicit", "params": {"probs": [1e-4] * 5000 + [1e-2] * 50}},
            "n": 44, "epsilon": 0.3,
        })
        assert cli.main(["oracle", "--config", cfg]) == 3
        assert "PROFILE_DP_CAP" in capsys.readouterr().err

    def test_mc_cell_cap(self, tmp_path, monkeypatch, capsys):
        # 10 samples of length 4 pass a cap of 39 cells: bounds rows say so,
        # and the oracle command exits 3
        monkeypatch.setattr(oracle, "MC_CELLS_CAP", 39)
        cfg = write_config(tmp_path, {
            "source": {"probs": [0.5, 0.5]}, "n": 4, "bounds": ["simple"], "mc": {"samples": 10},
        })
        out = str(tmp_path / "o.csv")
        assert cli.main(["bounds", "--config", cfg, "--out", out]) == 0
        errors = [r["error"] for r in read_csv(out)]
        assert len(errors) == 2
        assert all(e.startswith("mc skipped:") and "MC_CELLS_CAP" in e for e in errors)
        assert cli.main(["oracle", "--config", cfg]) == 3
        assert "MC_CELLS_CAP" in capsys.readouterr().err


    def test_mc_underflow_exit_3(self, tmp_path, monkeypatch, capsys):
        # uniform k=10 at n=400 no longer underflows, and its exact part
        # computes; a profile DP past its cap still exits 3
        cfg = write_config(tmp_path, {
            "source": {"family": "uniform", "params": {"k": 10}},
            "n": 400, "epsilon": 0.3, "mc": {"samples": 10},
        })
        out = str(tmp_path / "o.csv")
        assert cli.main(["oracle", "--config", cfg, "--out", out]) == 0
        want = 400 * math.log2(10) - math.log2(math.factorial(10))
        row = read_csv(out)[0]
        assert abs(float(row["mc_estimate"]) - want) <= 1e-12 * want
        assert abs(float(row["h_pattern"]) - want) <= 1e-12 * want
        # zipf k = 200 at n = 400 passes the enumeration cap, so stand in for
        # the exact part to reach the Monte Carlo one
        monkeypatch.setattr(cli, "exact_entropies", lambda theta, grid, n: ExactEntropies(
            h_x_block=0.0, h_pattern=0.0, h_joint=0.0, expected_codelength=0.0))
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


class TestArgv:
    FULL = ["--config", "c.json", "--seed", "3", "--out", "o.json", "--format", "json"]

    @pytest.mark.parametrize("command", ["bounds", "region", "verify", "code", "oracle"])
    def test_every_command_takes_the_four_options(self, command):
        want = {"command": command, "config": "c.json", "seed": 3, "out": "o.json",
                "format": "json"}
        assert vars(cli.PARSER.parse_args([command, *self.FULL])) == want
        # the options may also come before the command
        assert vars(cli.PARSER.parse_args([*self.FULL, command])) == want
        assert vars(cli.PARSER.parse_args([command])) == {
            "command": command, "config": None, "seed": None, "out": None, "format": None}

    @pytest.mark.parametrize("argv", [[], ["nope"], ["bounds", "--format", "xml"]],
                             ids=["missing", "unknown", "format-xml"])
    def test_bad_argv_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2 and "usage: pattern-entropy" in capsys.readouterr().err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        assert exc.value.code == 0
        for name, text in cli.COMMANDS.items():
            assert f"  {name:8s}  {text}" in lines
        assert list(cli.COMMANDS) == ["bounds", "region", "verify", "code", "oracle"]


def _negative_zero(cell: str) -> bool:
    try:
        value = float(cell)
    except ValueError:
        return False
    return value == 0.0 and math.copysign(1.0, value) < 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, block", [
    ("bounds", {"bounds": list(cli.BOUNDS), "epsilon1": 0.2, "oracle": True,
                "mc": {"samples": 20}}),
    ("oracle", {"mc": {"samples": 20}}),
    ("code", {"code": {"count": 3}}),
    ("region", {"epsilon1": 0.2, "region": {"k_values": [1, 2]}}),
], ids=["bounds", "oracle", "code", "region"])
def test_one_letter_source_writes_no_negative_zero(tmp_path, command, block, fmt):
    # one letter of probability 1: entropies, terms and codelengths are all zero,
    # and several come out of their formulas as -0.0
    cfg = write_config(tmp_path, {"source": {"probs": [1.0]}, "n": 5, "epsilon": 0.3, **block})
    out = str(tmp_path / f"out.{fmt}")
    assert cli.main([command, "--config", cfg, "--out", out, "--format", fmt]) == 0
    if fmt == "csv":
        cells = [cell for row in read_csv(out) for cell in row.values()]
    else:
        cells = [json.dumps(val) for row in json.loads(open(out).read()) for val in row.values()]
    assert "0" in cells or "0.0" in cells
    assert [cell for cell in cells if _negative_zero(cell)] == []


@pytest.mark.parametrize("doc", [
    {"n": 100, "epsilon": 0.2, "epsilon1": 0.22},
    {"epsilon": 0.2, "epsilon1": 0.22, "region": {"k_values": [10]}},
], ids=["no_region", "no_n"])
def test_region_sweep_validation_raises(doc):
    with pytest.raises(ValueError, match="the region command needs 'region' and 'n'"):
        cli.run_region_sweep(cli.parse_config(doc))
