"""Free-energy landscape: values, derivatives, stationary points."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pspin_glauber import (
    DomainError,
    LevelKernel,
    ModelParams,
    PointKind,
    beta_hat,
    drift_field,
    entropy,
    evaluate_potential,
    find_stationary_points,
    h_hat,
    local_maxima,
    mean_field_map,
)
from pspin_glauber.potential import curvature_roots, landscape_structure
from conftest import central_difference, curvature_root_pair, free_energy_slope, stationary_root

# frozen independent evaluations (40-digit arithmetic, rounded to double)
BETA_HAT_3 = 0.4330127018922193
H_HAT_3 = 0.22546624657018904
H_HAT_4 = 0.40996906622851137


def test_origin_values_quartic():
    pv = evaluate_potential(ModelParams(4, 1.0, 0.0), 0.0)
    assert pv.I == 0.0
    assert pv.H == 0.0
    assert pv.H1 == 0.0
    assert pv.H2 == -1.0
    assert pv.lam == 0.0


def test_cubic_degenerate_point_is_stationary():
    # at (beta_hat_3, h_hat_3) the maximizer sits at sqrt(1 - 2/3)
    pv = evaluate_potential(ModelParams(3, BETA_HAT_3, H_HAT_3),
                            math.sqrt(1.0 / 3.0))
    assert abs(pv.H1) < 1e-12


def test_mean_field_derivatives_match_finite_differences():
    rng = np.random.default_rng(101)
    step = 1e-5
    checked = 0
    while checked < 1000:
        p = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.05, 1.5))
        h = float(rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(-0.95, 0.95))
        if abs(x) < 0.05:
            continue
        params = ModelParams(p, beta, h)
        pv = evaluate_potential(params, x)
        if abs(pv.lam1) < 1e-2:  # relative error is meaningless at a flat spot
            continue
        fd1 = central_difference(lambda y: evaluate_potential(params, y).lam, x, step)
        fd2 = central_difference(lambda y: evaluate_potential(params, y).lam1, x, step)
        fd3 = central_difference(lambda y: evaluate_potential(params, y).lam2, x, step)
        assert abs(fd1 - pv.lam1) / abs(pv.lam1) < 1e-6
        assert abs(fd2 - pv.lam2) <= 1e-6 * max(1.0, abs(pv.lam2))
        assert abs(fd3 - pv.lam3) <= 1e-5 * max(1.0, abs(pv.lam3))
        checked += 1


def test_free_energy_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-5
    for _ in range(300):
        p = int(rng.integers(2, 8))
        params = ModelParams(p, float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-1, 1)))
        x = float(rng.uniform(-0.9, 0.9))
        pv = evaluate_potential(params, x)
        fd_h1 = central_difference(lambda y: evaluate_potential(params, y).H, x, step)
        fd_h2 = central_difference(lambda y: evaluate_potential(params, y).H1, x, step)
        fd_h3 = central_difference(lambda y: evaluate_potential(params, y).H2, x, step)
        assert abs(fd_h1 - pv.H1) <= 1e-6 * max(1.0, abs(pv.H1))
        assert abs(fd_h2 - pv.H2) <= 1e-5 * max(1.0, abs(pv.H2))
        assert abs(fd_h3 - pv.H3) <= 1e-4 * max(1.0, abs(pv.H3))


def test_potential_value_invariants():
    rng = np.random.default_rng(3)
    for _ in range(200):
        params = ModelParams(int(rng.integers(2, 8)),
                             float(rng.uniform(0.05, 1.5)),
                             float(rng.uniform(-1.5, 1.5)))
        x = float(rng.uniform(-0.999, 0.999))
        pv = evaluate_potential(params, x)
        assert pv.I >= 0.0
        assert (pv.I == 0.0) == (x == 0.0)
        assert -1.0 < pv.lam < 1.0
        expect_h1 = params.p * params.beta * x ** (params.p - 1) + params.h - math.atanh(x)
        assert pv.H1 == pytest.approx(expect_h1, abs=1e-14)
        assert all(math.isfinite(v) for v in
                   (pv.I, pv.H, pv.H1, pv.H2, pv.H3, pv.lam, pv.lam1, pv.lam2, pv.lam3))


def test_entropy_endpoints():
    assert entropy(0.0) == 0.0
    assert abs(entropy(1.0 - 1e-12) - math.log(2)) < 1e-6
    assert abs(entropy(-(1.0 - 1e-12)) - math.log(2)) < 1e-6


def test_domain_rejection():
    params = ModelParams(4, 0.5, 0.0)
    for x in (1.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            evaluate_potential(params, x)
    with pytest.raises(DomainError):
        ModelParams(1, 0.5, 0.0)
    with pytest.raises(DomainError):
        ModelParams(4, -0.1, 0.0)
    with pytest.raises(DomainError):
        ModelParams(4, 0.5, math.inf)


@given(
    p=st.sampled_from([4, 6, 8]),
    beta=st.floats(0.05, 1.5),
    h=st.floats(-1.5, 1.5),
    x=st.floats(-0.999, 0.999),
)
def test_even_order_field_reflection(p, beta, h, x):
    a = evaluate_potential(ModelParams(p, beta, h), x)
    b = evaluate_potential(ModelParams(p, beta, -h), -x)
    assert abs(a.H - b.H) <= 1e-14 * max(1.0, abs(a.H))


@given(p=st.integers(2, 12), beta=st.floats(0.05, 1.5), deep=st.booleans(),
       t=st.floats(0.0, 1.0))
def test_stationary_points_against_the_mpmath_roots(p, beta, deep, t):
    # fields |h| <= 1, and deep ones h = w - p*beta, w in [10, 40], that put
    # the top root near u = w, within 1e-34 of m = 1.  Every solved root has
    # its pattern kind and, where |m| < 1 (all of them at |h| <= 1), near-
    # tangent ones included, an exact residual |H'(m)| within a few eps of
    # the sum of H''s term magnitudes (plus the 2 ulp * |H''| a float root
    # can leave).  Where |G'| >= 1e-3 it lies within 2 ulp of the
    # 40-digit m = tanh(r), plus the 2 ulp(r) of the solved u and the
    # rounding band of G, 4 eps (p * p beta |m|^(p-1) + |h| + |r|) / |G'|,
    # carried to m by 1 - m^2; its H lies within 4 eps of the size of the
    # terms of H, and its H'' within 1e-13 of the size of the terms of H''
    h = 10.0 + 30.0 * t - p * beta if deep else 2.0 * t - 1.0
    struct = landscape_structure(p, beta)
    events = struct._pattern(*struct._nodes_for(h))
    points = struct.stationary_points(h)
    assert [s.kind for s in points] == [kind for kind, _, _ in events]
    eps = 2.0**-52
    for (kind, lo, hi), s in zip(events, points):
        if lo == hi:  # a tangency node is its own stationary point
            assert s.m == math.tanh(lo) and s.near_degenerate
            continue
        r, m, falls, g1_r, H, H2 = stationary_root(p, beta, h, lo, hi)
        assert falls is (kind is PointKind.LOCAL_MAX), (p, beta, h, s)
        if abs(s.m) < 1.0:
            scale = abs(p * beta * s.m ** (p - 1)) + abs(h) + abs(math.atanh(s.m))
            d1_m, d2_m = free_energy_slope(p, beta, h, s.m)
            assert abs(d1_m) <= 4 * eps * scale + 2 * math.ulp(s.m) * abs(d2_m), \
                (p, beta, h, s)
        if abs(g1_r) < 1e-3:
            continue
        one_m2, r = float(1 - m * m), float(r)
        band = 4 * eps * (p * p * beta * abs(s.m) ** (p - 1) + abs(h) + abs(r)) / abs(g1_r)
        assert abs(s.m - float(m)) <= 2 * math.ulp(s.m) + one_m2 * (2 * math.ulp(r) + band), \
            (p, beta, h, s)
        assert abs(s.H - H) <= 4 * eps * (beta + abs(h) + 1.0), (p, beta, h, s)
        assert abs(s.H2 - H2) <= 1e-13 * (p * (p - 1) * beta + abs(H2)), (p, beta, h, s)


def test_deep_well_curvature():
    # at (12, 1.1, 1) the maximizers sit at -1 + 5.1e-11 and 1 - 9.3e-13,
    # where 1 - m^2 taken from the rounded m is off by up to 5e-5; against
    # the 40-digit values of H''
    maxima = local_maxima(find_stationary_points(ModelParams(12, 1.1, 1.0)))
    for s, expected in zip(maxima, (-9879281363.1341, -539390501622.1464)):
        assert abs(s.H2 - expected) <= 1e-12 * abs(expected), (s, expected)


def test_stationary_points_regular_point():
    pts = find_stationary_points(ModelParams(4, 0.054, 0.5))
    assert len(pts) == 1
    assert pts[0].kind is PointKind.LOCAL_MAX
    assert pts[0].H2 < 0


def test_stationary_points_critical_point():
    pts = find_stationary_points(ModelParams(4, 0.51, 0.184))
    assert len(local_maxima(pts)) >= 2


def test_stationary_points_quadratic_high_temperature():
    pts = find_stationary_points(ModelParams(2, 0.25, 0.0))
    assert len(pts) == 1
    assert pts[0].kind is PointKind.LOCAL_MAX
    assert abs(pts[0].m) < 1e-12


def test_quadratic_curvature_roots_are_the_closed_form():
    # at p = 2, H''(x) = 2 beta - 1/(1 - x^2) vanishes at +-sqrt(1 - 1/(2 beta))
    # for beta > 1/2 and nowhere for beta <= 1/2
    for beta in (0.5 + 1e-12, 0.5 + 1e-6, 0.51, 0.75, 1.0, 1.5, 7.0):
        r = math.sqrt(1.0 - 1.0 / (2.0 * beta))
        assert landscape_structure(2, beta).curvature_roots == [-r, r], beta
    for beta in (0.05, 0.25, 0.5):
        assert landscape_structure(2, beta).curvature_roots == [], beta
    # from beta of about 2.5e14 on the roots lie within 1e-15 of -1 and 1,
    # past the ends of the brackets: the same error as at p >= 3
    with pytest.raises(DomainError, match="too large for root finding"):
        landscape_structure(2, 1e16)


def test_even_order_curvature_roots_mirror_exactly():
    for p in range(4, 13, 2):
        bh = beta_hat(p)
        for beta in (bh + 1e-12, bh + 1e-6, bh + 0.01, 0.75, 1.5, 100.0):
            roots = landscape_structure(p, beta).curvature_roots
            assert len(roots) == 4, (p, beta)
            assert roots[:2] == [-r for r in reversed(roots[2:])], (p, beta)
            assert 0.0 < roots[2] < math.sqrt(1.0 - 2.0 / p) < roots[3] < 1.0, (p, beta)


def test_curvature_root_past_the_brackets_raises():
    # the brackets end at x = 1e-15 and 1 - 1e-15; from beta of about
    # 5e14 / (p (p-1)) on, the upper root lies past 1 - 1e-15
    for p in (3, 4, 12):
        beta = 5e14 / (p * (p - 1))
        assert len(landscape_structure(p, beta / 2).curvature_roots) in (2, 4)
        with pytest.raises(DomainError, match="too large for root finding"):
            landscape_structure(p, 2 * beta)


def test_batched_curvature_roots_match_mpmath_over_the_domain():
    # one batched solve per p over betas from just above beta_hat to the
    # edge of the documented domain, p * beta = 350, against the mpmath
    # bisection of conftest: every root to 1e-12 relative, and every row
    # bit for bit the row that the beta gets solved alone (the
    # LandscapeStructure of that beta).  At p = 2 the closed form
    # sqrt(1 - 1/(2 beta)) also carries the rounding of 1 - 1/(2 beta),
    # up to an ulp of 1, relative 2^-52 / r^2 in r^2
    for p in range(2, 13):
        bh = beta_hat(p) if p > 2 else 0.5
        betas = np.concatenate([bh + np.array([1e-9, 1e-6, 1e-3]),
                                np.geomspace(bh * 1.01, 350.0 / p, 40)])
        rows = curvature_roots(p, betas)
        assert rows.shape == (len(betas), 4 if p % 2 == 0 and p > 2 else 2)
        for beta, row in zip(betas.tolist(), rows):
            a1, a2 = curvature_root_pair(p, beta)
            got = row[-2:] if p > 2 else row[-1:]
            want = (a1, a2) if p > 2 else (a2,)
            for g, w in zip(got.tolist(), want):
                tol = 1e-12 if p > 2 else 1e-12 + 2.0**-52 / w**2
                assert abs(g - w) <= tol * w, (p, beta, g, w)
            assert row.tolist() == curvature_roots(p, np.array([beta]))[0].tolist()
            assert row.tolist() == landscape_structure(p, beta).curvature_roots


def test_stationary_points_sorted_and_alternating():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-0.8, 0.8)))
        pts = find_stationary_points(params)
        ms = [s.m for s in pts]
        assert ms == sorted(ms)
        assert len(local_maxima(pts)) >= 1


def test_fixed_point_equivalence_and_curvature_link():
    rng = np.random.default_rng(23)
    for _ in range(150):
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-0.8, 0.8)))
        for s in find_stationary_points(params):
            pv = evaluate_potential(params, s.m)
            assert abs(pv.lam - s.m) < 10 * 1e-12
            if abs(pv.H2) > 1e-8:
                assert math.copysign(1, pv.lam1 - 1) == math.copysign(1, pv.H2)


def test_degenerate_point_calculus():
    # lam(c*) = c*, lam'(c*) = 1, lam''(c*) = 0 and the closed-form lam'''
    for p in range(3, 9):
        bh = beta_hat(p)
        hh = h_hat(p)
        c_star = math.sqrt(1.0 - 2.0 / p)
        pv = evaluate_potential(ModelParams(p, bh, hh), c_star)
        assert abs(pv.lam - c_star) < 1e-8
        assert abs(pv.lam1 - 1.0) < 1e-8
        assert abs(pv.lam2) < 1e-7
        closed = -2.0 * bh * p * (p - 1) * (p - 2) * (1.0 - 2.0 / p) ** ((p - 4) / 2.0)
        assert abs(pv.lam3 - closed) <= 1e-8 * abs(closed)


def test_drift_zero_field_origin():
    for p in (2, 3, 4, 5):
        assert drift_field(ModelParams(p, 0.7, 0.0), 100, 0.0) == 0.0


def test_drift_vanishes_at_degenerate_fixed_point():
    c_star = math.sqrt(0.5)
    params = ModelParams(4, 1.0 / 3.0, H_HAT_4)
    assert abs(mean_field_map(params, c_star) - c_star) < 1e-14
    assert abs(drift_field(params, 50, c_star)) < 1e-15


def test_drift_matches_kernel_difference():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        p = int(rng.integers(2, 7))
        params = ModelParams(p, float(rng.uniform(0.05, 1.5)),
                             float(rng.uniform(-1.5, 1.5)))
        N = int(rng.integers(5, 400))
        k = int(rng.integers(-N, N + 1))
        if (k + N) % 2:
            k += 1 if k < N else -1
        kernel, i = LevelKernel(params, N), (k + N) // 2
        lhs = (2.0 / N) * (kernel.up[i] - kernel.down[i])
        assert abs(lhs - drift_field(params, N, k / N)) < 1e-14


def test_drift_domain_checks():
    params = ModelParams(3, 0.5, 0.1)
    with pytest.raises(DomainError):
        drift_field(params, 0, 0.5)
    with pytest.raises(DomainError):
        drift_field(params, 10, 1.5)
