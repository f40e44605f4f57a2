"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance through the verification suites
in :mod:`pattern_entropy.verify`; stated runtime budgets are asserted too.
"""

import inspect

import pytest

from pattern_entropy import verify


def _run(criterion_no, label, fn, time_budget=None, **kwargs):
    result = fn(**kwargs)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] criterion {criterion_no}: {label} "
          f"({result.checks} checks, {result.elapsed:.2f}s) {result.details}")
    assert result.passed, f"criterion {criterion_no} failed: {result.details}"
    if time_budget is not None:
        assert result.elapsed < time_budget, (
            f"criterion {criterion_no} took {result.elapsed:.1f}s, budget {time_budget}s")
    return result


def test_criterion_1_sandwich():
    _run(1, "block-entropy sandwich on the 200-instance matrix",
         verify.check_sandwich, time_budget=10.0)


def test_criterion_2_coder_dominance():
    _run(2, "codelength dominates joint and pattern entropies; two routes agree",
         verify.check_coder_dominance, time_budget=60.0)


def test_criterion_3_permutation_count():
    _run(3, "brute-force permutation count equals product of bin factorials",
         verify.check_permutation_count)


def test_criterion_4_occurrence_formulas():
    _run(4, "occurrence formulas bracket exact values, 3/5 branch included",
         verify.check_occurrence_formulas)


def test_criterion_5_grid_laws():
    _run(5, "grid spacing laws and closed-form sizes",
         verify.check_grid_laws)


def test_criterion_6_mc_estimator():
    _run(6, "Monte Carlo estimator brackets the 59049-sequence enumeration",
         verify.check_mc_estimator, time_budget=30.0)


def test_criterion_7_stirling():
    _run(7, "factorial bracket for m = 1..10^4 against log-gamma",
         verify.check_stirling)


def test_criterion_8_degenerate_collapse():
    _run(8, "no-low-letter collapse of the general bounds",
         verify.check_degenerate_collapse)


def test_criterion_9_example_reproduction():
    _run(9, "family bounds reproduce displayed leading expressions at n=1e6",
         verify.check_example_reproduction, time_budget=5.0)


def test_criterion_10_region_sweep():
    _run(10, "decrease-region clamping, monotonicity, frontier agreement",
         verify.check_region_sweep)


def test_criterion_11_coder_roundtrip():
    _run(11, "1000-sequence coder round trip within the two-bit budget",
         verify.check_coder_roundtrip)


@pytest.mark.parametrize("suite", ["coder_normalization", "theorem12_bracket",
                                   "pattern_properties"])
def test_supporting_invariants(suite):
    result = verify.CHECKS[suite]()
    print(f"\n[{'PASS' if result.passed else 'FAIL'}] supporting suite {suite}: "
          f"{result.checks} checks, {result.elapsed:.2f}s")
    assert result.passed, result.details


def _takes_seed(fn):
    return "seed" in inspect.signature(fn).parameters


def test_seeded_suites_are_those_taking_a_seed():
    # a suite that drops its seed parameter would silently stop following --seed
    takes_seed = {name: inspect.signature(fn).parameters["seed"].default
                  for name, fn in verify.CHECKS.items() if _takes_seed(fn)}
    assert takes_seed == dict.fromkeys(
        ["sandwich", "coder_dominance", "permutation_count", "occurrence_formulas",
         "mc_estimator", "coder_roundtrip", "coder_normalization", "theorem12_bracket",
         "pattern_properties"], verify.DEFAULT_SEED)


def test_run_suites_passes_the_seed_to_seeded_suites_only(monkeypatch):
    calls = {}

    def recorder(name, seeded):
        if seeded:
            return lambda seed=verify.DEFAULT_SEED: calls.setdefault(name, {"seed": seed})
        return lambda: calls.setdefault(name, {})

    seeded = {name for name, fn in verify.CHECKS.items() if _takes_seed(fn)}
    for name in list(verify.CHECKS):
        monkeypatch.setitem(verify.CHECKS, name, recorder(name, name in seeded))
    verify.run_suites(seed=7)
    assert calls == {name: {"seed": 7} if name in seeded else {} for name in verify.CHECKS}
