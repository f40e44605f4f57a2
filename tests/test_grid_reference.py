"""Closed-form grids against the materialised construction they replaced.

The reference below builds every point of a grid into one array, merges float
ties among eta's low points with an explicit loop, and finds bins by
``searchsorted``.  ``pattern_entropy.grids`` computes any point, and the bin of
any probability, from (n, eps) alone; it must give the same float for every
point, the same B, A and flags, and the same bin for every probe tried here.
"""

import math

import numpy as np
import pytest

from pattern_entropy import grids
from pattern_entropy.grids import bin_index, build_grid, closed_form_B


def _reference(kind, n, epsilon):
    """The materialised grid: (points, B, A, flags)."""
    nf = float(n)
    flags = []
    if kind in ("tau", "xi"):
        denom = nf ** (1.0 + epsilon) if kind == "tau" else nf ** (1.0 - epsilon)
        B = math.floor(nf ** (((1.0 + epsilon) if kind == "tau" else (1.0 - epsilon)) / 2.0))
        pts = np.arange(B + 1, dtype=float) ** 2 / denom
    else:
        shift = math.floor(nf ** (1.5 * epsilon))
        eta1, eta2 = grids.low_thresholds(n, epsilon)
        denom = nf ** (1.0 + 2.0 * epsilon)
        B = math.floor(nf ** ((1.0 + 2.0 * epsilon) / 2.0))
        if shift < 2:
            flags.append("eta_fallback")
            pts = np.arange(B + 1, dtype=float) ** 2 / denom
        else:
            B = B - shift + 2
            idx = np.arange(3, B + 1, dtype=float) + (shift - 2)
            pts = np.concatenate([[0.0, eta1, eta2], idx ** 2 / denom])
            if np.any(np.diff(pts) <= 0.0):
                flags.append("eta_collision_merged")
                keep = [0]
                for i in range(1, len(pts)):
                    if pts[i] > pts[keep[-1]]:
                        keep.append(i)
                pts = pts[keep]
                B = len(pts) - 1
    if pts[-1] < 1.0:
        pts = np.append(pts, 1.0)
    A = int(np.searchsorted(pts, 0.5, side="right") - 1)
    return pts, B, A, tuple(flags)


def _matrix(max_points=2_000_000):
    """(kind, n, eps) over all three kinds and both eta paths, n = 2 .. 10^7."""
    out = []
    for n in (2, 3, 5, 10, 37, 100, 1000, 12_345, 10**5, 10**6, 10**7):
        for eps in (0.0, 0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0, 1.5):
            for kind in ("tau", "xi", "eta"):
                if (kind == "eta" and eps == 0.0) or (kind == "xi" and eps >= 1.0):
                    continue
                exponent = {"tau": 1 + eps, "xi": 1 - eps, "eta": 1 + 2 * eps}[kind]
                if float(n) ** (exponent / 2) <= max_points:
                    out.append((kind, n, eps))
    return out


def _build(kind, n, eps):
    return build_grid(kind, n, eps), _reference(kind, n, eps)


def _assert_matches(grid, ref):
    pts, B, A, flags = ref
    assert len(grid.points) == grid.num_bins + 1 == len(pts)
    assert np.array_equal(grid.point(np.arange(grid.num_bins + 1)), pts)
    assert (grid.B, grid.A, grid.flags) == (B, A, flags)
    # probes: every point, both float neighbours, random values, all in (0, 1]
    rng = np.random.default_rng(grid.n)
    probes = np.concatenate([pts, np.nextafter(pts, 0.0), np.nextafter(pts, 2.0),
                             rng.random(500), 10.0 ** rng.uniform(-30, 0, 500), [1.0]])
    probes = probes[(probes > 0.0) & (probes <= 1.0)]
    expected = np.searchsorted(pts, probes, side="left") - 1
    assert np.array_equal(bin_index(grid, probes), expected)


@pytest.mark.parametrize("kind,n,eps", _matrix())
def test_points_bins_and_indices_match_the_materialised_grid(kind, n, eps):
    grid, ref = _build(kind, n, eps)
    _assert_matches(grid, ref)


def test_matrix_covers_every_construction_path():
    paths = set()
    for kind, n, eps in _matrix():
        grid, _ = _build(kind, n, eps)
        paths.add((kind, grid.flags, grid.num_bins > grid.B))
    # with and without the appended terminal point, on every construction path
    assert {("tau", (), True), ("tau", (), False), ("xi", (), True), ("eta", (), True),
            ("eta", (), False), ("eta", ("eta_fallback",), True)} <= paths
    # eps >= 1 (in the matrix) leaves eta with its low points only, below B = 3
    assert build_grid("eta", 100, 1.5).B < 3


def test_scalar_lookups_match_array_lookups():
    grid = build_grid("eta", 10**7, 0.5)
    probes = [1e-12, grid.point(1), grid.point(2), 3e-6, grid.point(5000), 0.5, 1.0]
    assert [bin_index(grid, p) for p in probes] == bin_index(grid, np.array(probes)).tolist()
    assert isinstance(bin_index(grid, 0.25), int) and isinstance(grid.point(7), float)
    assert grid.points[-1] == grid.point(grid.num_bins) == 1.0
    assert list(grid.points[:3]) == [0.0, *grids.low_thresholds(10**7, 0.5)]


@pytest.mark.parametrize("n,eps", [(10_000, 0.25), (10**6, 0.3), (12_345, 0.5)])
def test_eta_tie_drops_the_tied_regular_point(monkeypatch, n, eps):
    real = grids.low_thresholds

    def tied(n_, eps_):
        # eta2 equal to the first regular point, (floor(n^(1.5 eps)) + 1)^2 / n^(1+2 eps)
        eta1, _ = real(n_, eps_)
        r = float(math.floor(float(n_) ** (1.5 * eps_)) + 1)
        return eta1, r * r / float(n_) ** (1.0 + 2.0 * eps_)

    monkeypatch.setattr(grids, "low_thresholds", tied)
    grid, ref = _build("eta", n, eps)
    assert ref[3] == ("eta_collision_merged",)
    assert grid.B == closed_form_B("eta", n, eps) - 1
    _assert_matches(grid, ref)
