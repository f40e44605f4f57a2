"""Desk-scale verification suites: one callable per acceptance property.

Each check returns a :class:`CheckResult` rather than raising, so the CLI can
aggregate them into a machine-readable summary; the pytest acceptance module
asserts on the same results.  Checks are deterministic given their seed.
"""

from __future__ import annotations

import inspect
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._common import LOG2E, log2_factorial
from ._reference import (
    _injection_sum_probability,
    brute_force_permutation_count,
    expected_codelength_stepwise,
)
from .bounds import (
    SourceAnalysis,
    epsilon_n,
    lb_theorem2,
    lb_theorem4,
    range_decreases,
    stirling_bounds,
    ub_theorem1,
    ub_theorem3_family,
)
from .coder import CoderModel, CoderState, decode, encode, next_symbol_prob, sequence_codelength
from .distributions import ParamVector, SourceSpec, binary_entropy, iid_entropy, make_distribution
from .grids import (
    bin_index,
    build_grid,
    closed_form_A,
    closed_form_B,
    occurrence_stats,
)
from .oracle import exact_entropies, exact_pattern_entropy, mc_pattern_entropy
from .patterns import (
    bin_sequence,
    enumerate_patterns,
    extract_pattern,
    pattern_probability,
)

DEFAULT_SEED = 20240801


@dataclass
class CheckResult:
    name: str
    passed: bool
    checks: int
    details: str
    elapsed: float = 0.0
    data: dict = field(default_factory=dict)


class _Collector:
    """Counts assertions and keeps the first few failure messages."""

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, cond: bool, msg: str) -> None:
        self.checks += 1
        if not cond and len(self.failures) < 8:
            self.failures.append(msg)

    def result(self, name: str, t0: float, extra: str = "", data: dict | None = None) -> CheckResult:
        ok = not self.failures
        details = extra if ok else "; ".join(self.failures) + (f" | {extra}" if extra else "")
        return CheckResult(name=name, passed=ok, checks=self.checks,
                           details=details, elapsed=time.time() - t0, data=data or {})


def _dirichlet_source(rng: np.random.Generator, k: int, floor: float) -> ParamVector:
    """k letters drawn from the flat Dirichlet, redrawn until no probability is
    below ``floor``; the one-letter source, with no draw, when k = 1."""
    if k == 1:
        return ParamVector.from_probs([1.0])
    probs = rng.dirichlet(np.ones(k))
    while probs.min() < floor:
        probs = rng.dirichlet(np.ones(k))
    return ParamVector.from_probs(probs)


def instance_matrix(seed: int = DEFAULT_SEED) -> list[tuple[int, int, ParamVector]]:
    """The fixed desk-scale matrix used by several criteria: 200 (n, k, theta)
    instances cycling through n in 2..7 and k in 1..4."""
    rng = np.random.default_rng(seed)
    combos = itertools.cycle([(n, k) for n in range(2, 8) for k in range(1, 5)])
    return [(n, k, _dirichlet_source(rng, k, 1e-4)) for n, k in itertools.islice(combos, 200)]


def check_sandwich(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 1: block-entropy sandwich on the 200-instance matrix."""
    t0 = time.time()
    col = _Collector()
    tol = 1e-9
    for n, k, theta in instance_matrix(seed):
        h_block = n * iid_entropy(theta)
        deduct = log2_factorial(k) - log2_factorial(max(0, k - n))
        h_pat = exact_pattern_entropy(theta, n)
        col.expect(h_block - deduct - tol <= h_pat,
                   f"lower violated at n={n} k={k}: {h_block - deduct} > {h_pat}")
        col.expect(h_pat <= h_block + tol,
                   f"upper violated at n={n} k={k}: {h_pat} > {h_block}")
    return col.result("sandwich", t0, extra="200 instances, n in 2..7, k in 1..4")


def check_coder_dominance(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 2: E[-log Q] >= H(joint) >= H(pattern), two codelength routes agree."""
    t0 = time.time()
    col = _Collector()
    tol = 1e-9
    epsilon = 0.3
    count = 0
    for n, k, theta in instance_matrix(seed):
        if n > 6:
            continue
        count += 1
        grid = build_grid("eta", n, epsilon)
        model = CoderModel.from_source(theta, grid, n)
        ee = exact_entropies(theta, grid, n, model=model)
        col.expect(ee.expected_codelength >= ee.h_joint - tol,
                   f"E[-logQ] < H(joint) at n={n} k={k}")
        col.expect(ee.h_joint >= ee.h_pattern - tol,
                   f"H(joint) < H(pattern) at n={n} k={k}")
        other = expected_codelength_stepwise(theta, grid, n, model=model)
        col.expect(abs(other - ee.expected_codelength) <= tol,
                   f"codelength routes disagree at n={n} k={k}: "
                   f"{other} vs {ee.expected_codelength}")
    return col.result("coder_dominance", t0, extra=f"{count} instances, n <= 6")


def check_permutation_count(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 3: brute-force in-bin permutation count equals prod(count_b!)."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        bins = rng.integers(0, 4, size=k).tolist()
        got = brute_force_permutation_count(bins)
        want = 1
        for b in set(bins):
            want *= math.factorial(bins.count(b))
        col.expect(got == want, f"bins={bins}: {got} != {want}")
    return col.result("permutation_count", t0, extra="100 random assignments, k <= 7")


def check_occurrence_formulas(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 4: occurrence/re-occurrence quantities sit inside their bounds."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    tol = 1e-12
    trials = 10_000
    for _ in range(trials):
        theta = float(np.exp(rng.uniform(np.log(1e-7), 0.0)))
        theta = min(theta, 1.0)
        n = int(rng.integers(1, 10_000))
        st = occurrence_stats(theta, n)
        col.expect(st.p_absent_lo - tol <= st.p_absent <= st.p_absent_hi + tol,
                   f"absent bracket fails at theta={theta}, n={n}")
        col.expect(st.p_present_lo - tol <= st.p_present <= st.p_present_hi + tol,
                   f"present bracket fails at theta={theta}, n={n}")
        col.expect(st.mean_reoccur_lo - tol <= st.mean_reoccur <= st.mean_reoccur_hi + tol,
                   f"re-occurrence bracket fails at theta={theta}, n={n}")
        col.expect(abs(st.mean_reoccur - (n * theta - 1.0 + st.p_absent)) <= 1e-12,
                   f"re-occurrence identity fails at theta={theta}, n={n}")
        if theta <= 1.0 / n:
            rel = 1e-9 * max(1.0, abs(st.mean_reoccur_hi_refined))
            col.expect(
                st.mean_reoccur_lo_refined - rel <= st.mean_reoccur <= st.mean_reoccur_hi_refined + rel,
                f"refined re-occurrence bracket fails at theta={theta}, n={n}")
            col.expect(
                st.p_present_lo_refined - rel <= st.p_present <= st.p_present_hi_refined + rel,
                f"refined present bracket fails at theta={theta}, n={n}")
    for theta in (0.61, 0.99):
        st = occurrence_stats(theta, 5)
        col.expect(st.p_absent_lo == 0.0, f"absent lower must be 0 at theta={theta}")
        col.expect(st.p_present_hi == 1.0, f"present upper must be 1 at theta={theta}")
        col.expect(st.mean_reoccur_lo == 5 * theta - 1.0,
                   f"re-occurrence lower must drop the exponential at theta={theta}")
        col.expect(st.p_absent <= st.p_absent_hi, f"absent upper fails at theta={theta}")
    return col.result("occurrence_formulas", t0, extra=f"{trials} random (theta, n) pairs")


def check_grid_laws() -> CheckResult:
    """Criterion 5: spacing identity/inequalities, closed-form sizes, and the
    closed-form bin lookup against searchsorted over every point."""
    t0 = time.time()
    col = _Collector()
    for n in (10**2, 10**4, 10**6):
        for eps in (0.1, 0.25):
            tau = build_grid("tau", n, eps)
            xi = build_grid("xi", n, eps)
            eta = build_grid("eta", n, eps)
            pts, epts, xpts = (g.point(np.arange(g.num_bins + 1)) for g in (tau, eta, xi))
            # tau spacing identity and its sqrt bound
            for b in range(1, tau.B):
                gap = pts[b + 1] - pts[b]
                ident = (2 * b + 1) / float(n) ** (1.0 + eps)
                col.expect(abs(gap - ident) <= 1e-9 * ident,
                           f"tau spacing identity fails at n={n} eps={eps} b={b}")
                col.expect(gap <= 3.0 * math.sqrt(pts[b]) / float(n) ** ((1.0 + eps) / 2.0) + 1e-18,
                           f"tau sqrt spacing fails at n={n} eps={eps} b={b}")
            # eta spacing inequality for b >= 2 (theta at the left edge is worst)
            for b in range(2, eta.B):
                gap = epts[b + 1] - epts[b]
                col.expect(
                    gap <= 3.0 * math.sqrt(epts[b]) / float(n) ** ((1.0 + 2.0 * eps) / 2.0) + 1e-18,
                    f"eta spacing fails at n={n} eps={eps} b={b}")
            # xi spacing lower bound
            for b in range(1, xi.B):
                gap = xpts[b + 1] - xpts[b]
                col.expect(
                    gap >= 2.0 * math.sqrt(xpts[b]) / float(n) ** ((1.0 - eps) / 2.0) - 1e-18,
                    f"xi spacing fails at n={n} eps={eps} b={b}")
            for g, gpts in ((tau, pts), (xi, xpts), (eta, epts)):
                # closed forms (fallback forms where the construction degenerated)
                fb = "eta_fallback" in g.flags
                col.expect(g.B == closed_form_B(g.kind, n, eps, fb), f"B_{g.kind} mismatch n={n} eps={eps}")
                col.expect(g.A == closed_form_A(g.kind, n, eps, fb), f"A_{g.kind} mismatch n={n} eps={eps}")
                # bin_index against searchsorted at every point and both its float neighbours
                probes = np.concatenate([gpts, np.nextafter(gpts, 0.0), np.nextafter(gpts, 2.0)])
                probes = probes[(probes > 0.0) & (probes <= 1.0)]
                bad = np.count_nonzero(bin_index(g, probes) != np.searchsorted(gpts, probes) - 1)
                col.expect(bad == 0, f"{g.kind} bin_index differs from searchsorted on {bad} of "
                                     f"{probes.size} probes at n={n} eps={eps}")
    return col.result("grid_laws", t0, extra="n in {1e2,1e4,1e6} x eps in {0.1,0.25}")


def check_mc_estimator(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 6: the Monte Carlo estimate brackets the enumerated value."""
    t0 = time.time()
    col = _Collector()
    theta = ParamVector.from_probs([1.0 / 3.0] * 3)
    n = 10
    exact = exact_pattern_entropy(theta, n)
    mc = mc_pattern_entropy(theta, n, samples=100_000, seed=seed)
    col.expect(abs(mc.estimate - exact) <= 3.0 * mc.stderr,
               f"|{mc.estimate} - {exact}| > 3*{mc.stderr}")
    return col.result("mc_estimator", t0,
                      extra=f"exact={exact:.6f}, mc={mc.estimate:.6f} +- {mc.stderr:.6f}",
                      data={"exact": exact, "mc": mc.estimate, "stderr": mc.stderr})


def check_stirling() -> CheckResult:
    """Criterion 7: the factorial bracket holds for m = 1..10^4 against log-gamma.

    The upper side of the bracket is tight to within log2(e)/(12m(12m+1)) bits,
    which drops below float64 resolution of the ~1e5-bit log factorials at
    large m; comparisons therefore carry a magnitude-scaled slop (1e-13
    relative) that stays three orders of magnitude below the bracket width.
    """
    t0 = time.time()
    col = _Collector()
    for m in range(1, 10_001):
        lo, hi = stirling_bounds(m)
        lf = log2_factorial(m)
        slop = 1e-13 * max(1.0, lf)
        col.expect(lo <= lf + slop, f"Stirling lower fails at m={m}")
        col.expect(lf <= hi + slop, f"Stirling upper fails at m={m}")
        col.expect(abs((hi - lo) - LOG2E / (12.0 * m)) <= 4.0 * math.ulp(lo),
                   f"bracket width mismatch at m={m}")
    return col.result("stirling", t0, extra="m in 1..10^4 vs log-gamma")


def check_degenerate_collapse() -> CheckResult:
    """Criterion 8: with no low letters, ub3 collapses to the bounded-away
    upper bound per-term."""
    t0 = time.time()
    col = _Collector()
    cases = [
        (50, 0.2, [0.2, 0.3, 0.5]),
        (30, 0.15, [0.18, 0.22, 0.27, 0.33]),
        (100, 0.25, [0.45, 0.55]),
    ]
    for n, eps, probs in cases:
        theta = ParamVector.from_probs(probs)
        thr2 = float(n) ** -(1.0 - eps)
        col.expect(min(probs) > thr2, f"case n={n} is not degenerate")
        analysis = SourceAnalysis(theta, n, eps)
        ub3 = ub_theorem3_family(analysis, "ub3")
        ub1 = ub_theorem1(analysis)
        col.expect(abs(ub3.terms[0][1] - ub1.terms[0][1]) <= 1e-12,
                   f"entropy terms differ at n={n}")
        col.expect(abs(ub3.terms[1][1] - ub1.terms[1][1]) <= 1e-12,
                   f"permutation terms differ at n={n}")
        col.expect(all(t == 0.0 for _, t in ub3.terms[2:]),
                   f"packing terms non-zero at n={n}")
        lb4 = lb_theorem4(analysis)
        col.expect(lb4.term("low_reoccurrence_gain_S2") == 0.0, f"S2 != 0 at n={n}")
        col.expect(lb4.term("low_first_occurrence_gain_S3") == 0.0, f"S3 != 0 at n={n}")
        col.expect(lb4.term("boundary_separation_S4") == 0.0, f"S4 != 0 at n={n}")
        lb2a, _ = lb_theorem2(analysis)
        col.expect(abs(lb4.value - lb2a.value) <= 1e-9,
                   f"lb4 does not reduce to lb2 variant A at n={n}")
    return col.result("degenerate_collapse", t0, extra=f"{len(cases)} bounded-away sources")


_EXAMPLE_PARAMS = {
    "ex1": {"eps": 0.25, "nu": 0.2},
    "ex2": {"eps": 0.4, "mu": 0.4, "nu": 0.3, "phi0": 0.5},
    "ex3": {"eps": 0.5, "mu": 0.5, "nu": 0.45, "phi0": 0.5},
    "ex4": {"eps": 0.4, "mu": 0.5, "phi0": 0.5},
}


def check_example_reproduction() -> CheckResult:
    """Criterion 9: family bounds reproduce the displayed leading expressions.

    Formula-level only: grouped sources, no enumeration.  Each family's
    computed bounds at n = 10^6 must match its leading expression within 5 %
    and the tightest/loosest ordering among variants must come out right.
    """
    t0 = time.time()
    col = _Collector()
    n, rel_tol = 10**6, 0.05
    nf = float(n)
    log2n = math.log2(nf)
    e = math.e

    def family_bounds(theta, eps):
        analysis = SourceAnalysis(theta, n, eps)
        return {v: ub_theorem3_family(analysis, v).value
                for v in ("ub3", "c1", "c21", "c2_loosened")}

    # uniform k = n^(1-nu) letters
    p = _EXAMPLE_PARAMS["ex1"]
    nu, eps = p["nu"], p["eps"]
    theta = make_distribution(SourceSpec("uniform", {"nu": nu}, n))
    b = family_bounds(theta, eps)
    lead = nf * math.log2(nf ** (1 - nu))
    disp = {
        "ub3": lead - nf ** (1 - nu) * math.log2(nf ** (1 - 2 * nu) / e),
        "c1": lead - nf ** (1 - nu) * math.log2(nf ** (1 - 2 * nu) / e),
        "c21": lead,
        "c2_loosened": lead - nf ** (1 - nu) * math.log2(nf ** (1 - nu) / e),
    }
    for v, want in disp.items():
        col.expect(abs(b[v] - want) <= rel_tol * abs(want),
                   f"ex1 {v}: {b[v]:.5g} vs displayed {want:.5g}")
    col.expect(b["c2_loosened"] < min(b["ub3"], b["c1"], b["c21"]),
               "ex1: the loosened occurrence-credit bound must be tightest")

    # two levels: low mass at 1/n^(1+mu), second level at 1/n^(1-nu)
    p = _EXAMPLE_PARAMS["ex2"]
    eps, mu, nu, phi0 = p["eps"], p["mu"], p["nu"], p["phi0"]
    phi1 = 1.0 - phi0
    theta = make_distribution(
        SourceSpec("two-level", {"phi0": phi0, "mu": mu, "nu": nu, "level1": "below"}, n))
    b = family_bounds(theta, eps)
    d_main = (1 - nu) * n * phi1 * log2n - n * phi0 * math.log2(phi0)
    d_c1 = n * phi1 * log2n + n * binary_entropy(phi0)
    for v, want in (("ub3", d_main), ("c21", d_main), ("c2_loosened", d_main), ("c1", d_c1)):
        col.expect(abs(b[v] - want) <= rel_tol * abs(want),
                   f"ex2 {v}: {b[v]:.5g} vs displayed {want:.5g}")
    col.expect(b["c1"] > max(b["ub3"], b["c21"], b["c2_loosened"]),
               "ex2: the merged-pack bound must be loosest")

    # two levels, both small: second level at 1/n^(1+nu)
    p = _EXAMPLE_PARAMS["ex3"]
    eps, mu, nu, phi0 = p["eps"], p["mu"], p["nu"], p["phi0"]
    theta = make_distribution(
        SourceSpec("two-level", {"phi0": phi0, "mu": mu, "nu": nu, "level1": "above"}, n))
    b = family_bounds(theta, eps)
    want = n * binary_entropy(phi0)
    col.expect(abs(b["ub3"] - want) <= rel_tol * want,
               f"ex3 ub3: {b['ub3']:.5g} vs displayed {want:.5g}")
    col.expect(b["c1"] < min(b["ub3"], b["c21"], b["c2_loosened"]),
               "ex3: the merged-pack bound must be much tighter")
    col.expect(b["c21"] > max(b["ub3"], b["c1"], b["c2_loosened"]),
               "ex3: the pack-bin0-only bound must be loosest")
    col.expect(b["c2_loosened"] < b["c21"],
               "ex3: the occurrence-credit bound must beat pack-bin0-only")

    # two levels with the second at exactly 1/n
    p = _EXAMPLE_PARAMS["ex4"]
    eps, mu, phi0 = p["eps"], p["mu"], p["phi0"]
    phi1 = 1.0 - phi0
    theta = make_distribution(
        SourceSpec("two-level", {"phi0": phi0, "mu": mu, "level1": "unit"}, n))
    b = family_bounds(theta, eps)
    lead = n * phi1 / e * log2n
    disp = {
        "ub3": lead + n * (binary_entropy(phi0) + phi1 * binary_entropy(1 / e)
                           + phi1 / e * math.log2(phi1)),
        "c1": lead + n * binary_entropy(phi1 / e),
        "c21": n * phi1 * log2n - n * phi0 * math.log2(phi0),
        "c2_loosened": lead + n * (binary_entropy(phi0)
                                   + phi1 / e * math.log2(phi1 * (1 - 1 / e) / e)
                                   + phi1 * math.log2(e / (1 - 1 / e))),
    }
    for v, want in disp.items():
        col.expect(abs(b[v] - want) <= rel_tol * abs(want),
                   f"ex4 {v}: {b[v]:.5g} vs displayed {want:.5g}")
    col.expect(b["c1"] < min(b["ub3"], b["c21"], b["c2_loosened"]),
               "ex4: the merged-pack bound must be tightest")
    col.expect(b["ub3"] < min(b["c21"], b["c2_loosened"]),
               "ex4: the split-pack bound must be second")
    return col.result("example_reproduction", t0, extra=f"four families at n={n}")


def check_region_sweep() -> CheckResult:
    """Criterion 10: threshold clamping, monotonicity, and frontier agreement."""
    t0 = time.time()
    col = _Collector()
    n, eps = 10**6, 0.2
    eps1 = math.log(20.0) / math.log(n)
    thr = float(n) ** (1.0 / 3.0 + eps)
    ks = np.unique(np.geomspace(10, 10**8, 120).astype(int))
    rows = [range_decreases(int(k), n, eps, eps1) for k in ks]
    for r in rows:
        if r["k"] < thr:
            col.expect(r["upper_nonasym"] == 0.0, f"non-zero decrease below threshold at k={r['k']}")
        if r["gamma"] is not None:
            col.expect(abs(r["gamma_residual"]) < 1e-9,
                       f"gamma residual {r['gamma_residual']} at k={r['k']}")
    above = [r["upper_nonasym"] for r in rows if r["k"] >= thr]
    first_pos = next((i for i, v in enumerate(above) if v > 0.0), None)
    col.expect(first_pos is not None, "no positive decrease above the threshold")
    if first_pos is not None:
        col.expect(all(b > a for a, b in zip(above[first_pos:], above[first_pos + 1:])),
                   "decrease not increasing in k above the threshold")
        col.expect(all(r["upper_nonasym"] > 0.0 for r in rows if r["k"] >= 4 * thr),
                   "decrease not positive for k >= 4x threshold")

    n2, eps2 = 1e50, 0.1
    eps1b = math.log(1000.0) / math.log(n2)
    thr2 = n2 ** (1.0 / 3.0 + eps2)
    worst = 0.0
    for kk in np.geomspace(10 * thr2, n2 ** 1.4, 60):
        r = range_decreases(int(kk), n2, eps2, eps1b)
        col.expect(r["gamma"] is not None and abs(r["gamma_residual"]) < 1e-9,
                   f"gamma residual too large at k={kk:.3g}")
        rel = abs(r["upper_stirling"] - r["upper_nonasym"]) / r["upper_stirling"]
        worst = max(worst, rel)
        col.expect(rel <= 0.01, f"frontier disagreement {rel:.4g} at k={kk:.3g}")
    return col.result("region_sweep", t0,
                      extra=f"left panel n=1e6, right panel n=1e50; worst agreement {worst:.3g}")


def check_coder_roundtrip(seed: int = DEFAULT_SEED) -> CheckResult:
    """Criterion 11: decode inverts encode; emitted bits within [-log2 Q, -log2 Q + 2]."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    eps = 0.3
    trials = 1000
    for _ in range(trials):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(2, 65))
        theta = _dirichlet_source(rng, k, 1e-6)
        grid = build_grid("eta", n, eps)
        model = CoderModel.from_source(theta, grid, n)
        x = rng.choice(np.arange(1, k + 1), size=n, p=theta.probs)
        psi = extract_pattern(x)
        beta = bin_sequence(theta, grid, x)
        cl = sequence_codelength(model, psi, beta)
        bits = encode(model, psi, beta)
        back = decode(model, bits, n)
        col.expect(back == (psi.indices, beta), f"round trip failed at n={n} k={k}")
        col.expect(cl - 1e-9 <= len(bits) <= cl + 2.0 + 1e-9,
                   f"length {len(bits)} outside [{cl}, {cl}+2] at n={n} k={k}")
    return col.result("coder_roundtrip", t0, extra=f"{trials} sampled sequences, n <= 64, k <= 8")


def check_coder_normalization(seed: int = DEFAULT_SEED) -> CheckResult:
    """Per-state conditional masses sum to at most 1, exactly 1 while every bin
    still has unseen letters."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(2, 30))
        theta = _dirichlet_source(rng, k, 1e-6)
        grid = build_grid("eta", n, 0.3)
        model = CoderModel.from_source(theta, grid, n)
        x = rng.choice(np.arange(1, k + 1), size=n, p=theta.probs)
        psi = extract_pattern(x)
        beta = bin_sequence(theta, grid, x)
        state = CoderState()
        for p, b in zip(psi, beta):
            total = math.fsum(
                next_symbol_prob(model, state, idx, state.index_to_bin[idx])
                for idx in range(1, state.max_index + 1)
            )
            bins_total = []
            all_unseen = True
            for bb in range(model.num_bins):
                if model.phi[bb] <= 0.0:
                    continue
                seen = state.seen_per_bin.get(bb, 0)
                if seen >= model.kbins[bb]:
                    all_unseen = False
                    continue
                bins_total.append(next_symbol_prob(model, state, state.max_index + 1, bb))
            total += math.fsum(bins_total)
            col.expect(total <= 1.0 + 1e-12, f"conditional mass {total} > 1")
            if all_unseen:
                col.expect(abs(total - 1.0) <= 1e-9,
                           f"conditional mass {total} != 1 with unseen letters everywhere")
            state.update(p, b)
    return col.result("coder_normalization", t0, extra="60 random sources")


def check_theorem12_bracket(seed: int = DEFAULT_SEED) -> CheckResult:
    """The bounded-away main terms (ub_theorem1 / lb_theorem2) bracket the exact
    pattern entropy within the documented desk-scale slack budgets; observed
    slack is reported."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    epsilon = 0.1
    worst_ub = worst_lb = 0.0
    tested = 0
    for n in range(2, 7):
        thr = float(n) ** -(1.0 - epsilon)
        for k in range(1, 5):
            if k * thr >= 0.9:
                continue
            for _ in range(5):
                if k == 1:
                    theta = ParamVector.from_probs([1.0])
                else:
                    d = rng.dirichlet(np.ones(k))
                    theta = ParamVector.from_probs(thr + d * (1.0 - k * thr))
                tested += 1
                h_pat = exact_pattern_entropy(theta, n)
                analysis = SourceAnalysis(theta, n, epsilon)
                ub = ub_theorem1(analysis)
                lb_a, lb_b = lb_theorem2(analysis)
                en = epsilon_n(n, epsilon)
                # o(k) budget: the typical-set divergence plus atypical mass cost
                budget_ub = (6.0 * k / float(n) ** (epsilon / 2.0)) * LOG2E \
                    + en * (n * math.log2(max(k, 2)) + log2_factorial(k))
                budget_lb = en * (log2_factorial(k) + n * math.log2(max(k, 2))) + 1.0
                slack_ub = max(0.0, h_pat - ub.value)
                slack_lb = max(0.0, max(lb_a.value, lb_b.value) - h_pat)
                worst_ub = max(worst_ub, slack_ub)
                worst_lb = max(worst_lb, slack_lb)
                col.expect(slack_ub <= budget_ub,
                           f"UB slack {slack_ub} over budget {budget_ub} at n={n} k={k}")
                col.expect(slack_lb <= budget_lb,
                           f"LB slack {slack_lb} over budget {budget_lb} at n={n} k={k}")
    return col.result(
        "theorem12_bracket", t0,
        extra=f"{tested} bounded-away instances; worst UB slack {worst_ub:.4g} bits, "
              f"worst LB slack {worst_lb:.4g} bits (budgets are the documented "
              f"desk-scale o(k)/o(1) allowances)")


# Sources with tied probabilities, so that groups with count > 1 are exercised.
_TIED_SOURCES = {
    2: [ParamVector.from_groups([0.5], [2])],
    3: [ParamVector.from_groups([1.0 / 3.0], [3]), ParamVector.from_groups([0.2, 0.6], [2, 1])],
    4: [ParamVector.from_groups([0.25], [4]), ParamVector.from_groups([0.1, 0.4], [2, 2])],
}


def check_pattern_properties(seed: int = DEFAULT_SEED) -> CheckResult:
    """Pattern laws: total probability 1, agreement with the injection sum,
    idempotence, prefix consistency."""
    t0 = time.time()
    col = _Collector()
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        for k in range(1, 5):
            for theta in [_dirichlet_source(rng, k, 1e-6), *_TIED_SOURCES.get(k, [])]:
                masses = []
                for psi in enumerate_patterns(n, min(k, n)):
                    got = pattern_probability(theta, psi)
                    want = _injection_sum_probability(theta, psi)
                    col.expect(abs(got - want) <= 1e-12 * want,
                               f"P({psi}) = {got} but the injection sum gives {want} "
                               f"at n={n} k={k}")
                    masses.append(got)
                total = math.fsum(masses)
                col.expect(abs(total - 1.0) <= 1e-10,
                           f"pattern law fails at n={n} k={k}: {total}")
    for _ in range(50):
        n = int(rng.integers(1, 20))
        x = rng.integers(0, 6, size=n)
        psi = extract_pattern(x)
        col.expect(extract_pattern(psi.indices).indices == psi.indices, "not idempotent")
        j = int(rng.integers(1, n + 1))
        col.expect(extract_pattern(x[:j]).indices == psi.indices[:j], "prefix inconsistency")
        relabel = rng.permutation(6)
        col.expect(extract_pattern([int(relabel[v]) for v in x]).indices == psi.indices,
                   "not relabeling-invariant")
    return col.result("pattern_properties", t0,
                      extra="total-mass law and injection-sum agreement n<=8 k<=4 "
                            "(random, uniform and two-level sources) plus structure laws")


CHECKS = {
    "sandwich": check_sandwich,
    "coder_dominance": check_coder_dominance,
    "permutation_count": check_permutation_count,
    "occurrence_formulas": check_occurrence_formulas,
    "grid_laws": check_grid_laws,
    "mc_estimator": check_mc_estimator,
    "stirling": check_stirling,
    "degenerate_collapse": check_degenerate_collapse,
    "example_reproduction": check_example_reproduction,
    "region_sweep": check_region_sweep,
    "coder_roundtrip": check_coder_roundtrip,
    "coder_normalization": check_coder_normalization,
    "theorem12_bracket": check_theorem12_bracket,
    "pattern_properties": check_pattern_properties,
}


def run_suites(selection=None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named suites (all when selection is None), passing ``seed`` to
    every suite whose signature takes one; the others are fully fixed."""
    names = list(CHECKS) if not selection else list(selection)
    results = []
    for name in names:
        fn = CHECKS.get(name)
        if fn is None:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(CHECKS)}")
        results.append(fn(seed=seed) if "seed" in inspect.signature(fn).parameters else fn())
    return results
