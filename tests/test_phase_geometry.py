"""Thresholds, boundary curves and region classification."""

import math
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from pspin_glauber import (
    CURVATURE_TOL,
    DomainError,
    GridSpec,
    ModelParams,
    PointKind,
    Region,
    beta_hat,
    boundary_curves,
    classify_point,
    entropy,
    free_energy_d1,
    scan_grid,
    thresholds,
)
from pspin_glauber.cli import main
from pspin_glauber.potential import landscape_structure
from pspin_glauber.phase_geometry import (BoundaryDetail, GridBudgetError, _symmetric_axis,
                                          scan_block, scan_column)

from conftest import (coexistence_band, concavity_threshold, curvature_root_pair,
                      threshold_minima)

# frozen independent evaluations (40-digit arithmetic, rounded to double)
BETA_HAT_3 = 0.4330127018922193
H_HAT_3 = 0.22546624657018904
H_HAT_4 = 0.40996906622851137
H_HAT_5 = 0.5475956161718532


def test_quartic_thresholds():
    thr = thresholds(4)
    assert thr.beta_hat == 1.0 / 3.0
    assert round(thr.h_hat, 2) == 0.41
    assert abs(thr.h_hat - H_HAT_4) < 1e-12


def test_cubic_thresholds_high_precision():
    thr = thresholds(3)
    assert abs(thr.beta_hat - BETA_HAT_3) < 1e-10
    assert abs(thr.beta_hat - math.sqrt(3) / 4) < 1e-15
    assert abs(thr.h_hat - H_HAT_3) < 1e-10


def test_threshold_minimizations_against_scipy():
    # independent 1-D minimization route for beta_tilde and beta_prime
    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        f_tilde = lambda x: entropy(x) / x**p
        f_prime = lambda x: np.arctanh(x) / (p * x ** (p - 1))
        r1 = minimize_scalar(f_tilde, bounds=(1e-6, 1 - 1e-9), method="bounded",
                             options={"xatol": 1e-12})
        r2 = minimize_scalar(f_prime, bounds=(1e-6, 1 - 1e-9), method="bounded",
                             options={"xatol": 1e-12})
        assert abs(thr.beta_tilde - r1.fun) < 1e-9
        assert abs(thr.beta_prime - r2.fun) < 1e-9


def test_thresholds_at_high_order():
    # from p = 10 on the minimizer of I(x)/x^p lies within 1e-5 of x = 1
    # (1.9e-6 at p = 10, 1.2e-7 at p = 12, about 1e-24 at p = 40)
    for p in (10, 12, 20, 40):
        thr = thresholds(p)
        beta_tilde, beta_prime = threshold_minima(p)
        assert abs(thr.beta_tilde - beta_tilde) <= 1e-12, p
        assert abs(thr.beta_prime - beta_prime) <= 1e-12, p
        assert thr.beta_hat < thr.beta_prime < thr.beta_tilde
        # beta_tilde -> log 2 from below with a gap of order 4^-p: far above
        # an ulp at p <= 20, but at p = 40 the correctly rounded value (and
        # the 50-digit oracle's) is log 2 itself
        if p == 40:
            assert thr.beta_tilde == math.log(2)
        else:
            assert thr.beta_tilde < math.log(2)


def test_thresholds_within_four_ulp_of_the_oracle():
    # the oracle's bracket end 1 - 1e-30 covers both minimizers up to p = 48
    for p in range(3, 49):
        thr = thresholds(p)
        beta_tilde, beta_prime = threshold_minima(p)
        assert abs(thr.beta_tilde - beta_tilde) <= 4 * math.ulp(beta_tilde), p
        assert abs(thr.beta_prime - beta_prime) <= 4 * math.ulp(beta_prime), p


def test_thresholds_at_very_high_order_warn_nothing():
    # x^p underflows far from the minimizers once p is large; the result
    # must come out of the stationarity equations without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (54, 100, 200, 500):
            thr = thresholds.__wrapped__(p)
            assert thr.beta_tilde == math.log(2), p
            assert thr.beta_hat < thr.beta_prime < thr.beta_tilde, p


@given(p=st.integers(3, 60), u=st.floats(1e-6, 60.0))
def test_thresholds_are_lower_bounds_of_their_objectives(p, u):
    # both objectives, in 30-digit mpmath at x = 1 - e^-u, lie above the
    # minima: a bisection that landed off the minimizer would fail this
    import mpmath

    thr = thresholds(p)
    with mpmath.workdps(30):
        y = mpmath.exp(-mpmath.mpf(u))
        x = 1 - y
        log_1px = mpmath.log(1 + x)
        entropy_x = ((1 + x) * log_1px + y * mpmath.log(y)) / 2
        atanh_x = (log_1px - mpmath.log(y)) / 2
        f_tilde = float(entropy_x / x**p)
        f_prime = float(atanh_x / (p * x ** (p - 1)))
    assert f_tilde >= thr.beta_tilde - 4 * math.ulp(thr.beta_tilde)
    assert f_prime >= thr.beta_prime - 4 * math.ulp(thr.beta_prime)


def test_threshold_ordering_even():
    for p in (4, 6, 8):
        thr = thresholds(p)
        assert thr.beta_hat < thr.beta_prime < thr.beta_tilde
        assert thr.beta_hat > 0 and math.isfinite(thr.beta_tilde)


def test_thresholds_reject_low_order():
    with pytest.raises(DomainError):
        thresholds(2)


def _inflection_pair(p, beta):
    """The two positive roots a1 < a2 of H'' at zero field."""
    return landscape_structure(p, beta).curvature_roots[-2:]


def test_inflection_pair_near_threshold():
    a1, a2 = _inflection_pair(4, beta_hat(4) + 1e-9)
    w = math.sqrt(0.5)
    assert abs(a1 - w) < 1e-3
    assert abs(a2 - w) < 1e-3
    assert a1 < w < a2


def test_inflection_pair_residuals():
    from pspin_glauber import free_energy_d2

    a1, a2 = _inflection_pair(4, 0.5)
    params0 = ModelParams(4, 0.5, 0.0)
    assert 0 < a1 < math.sqrt(0.5) < a2 < 1
    assert abs(free_energy_d2(params0, a1)) < 1e-10
    assert abs(free_energy_d2(params0, a2)) < 1e-10


def test_inflection_pair_strong_coupling_limit():
    a1, _ = _inflection_pair(4, 100.0)
    assert a1 < 0.1


def test_inflection_pair_matches_mpmath_roots():
    for p in range(3, 13):
        thr = thresholds(p)
        bh = thr.beta_hat
        for beta in (bh + 1e-9, bh + 1e-4, 0.5 * (bh + thr.beta_tilde), 100.0):
            got1, got2 = _inflection_pair(p, beta)
            a1, a2 = curvature_root_pair(p, beta)
            assert abs(got1 - a1) <= 1e-12 * a1, (p, beta)
            assert abs(got2 - a2) <= 1e-12 * a2, (p, beta)


def test_curves_vanishing_c_even():
    thr = thresholds(4)
    assert boundary_curves(4, thr.beta_tilde + 1e-9).C == 0.0
    assert boundary_curves(4, 0.9).C == 0.0


def test_curves_converge_at_threshold():
    for p, hh in ((4, H_HAT_4), (5, H_HAT_5)):
        thr = thresholds(p)
        cs = boundary_curves(p, thr.beta_hat + 1e-6)
        for v in (cs.U, cs.L, cs.C):
            assert abs(v - hh) < 1e-3


def test_lower_curve_vanishes_at_beta_prime():
    thr = thresholds(4)
    cs = boundary_curves(4, thr.beta_prime)
    assert abs(cs.L) < 1e-8


def test_curve_ordering_and_monotonicity_odd():
    thr = thresholds(5)
    betas = np.linspace(thr.beta_hat + 0.01, 1.2, 40)
    us, ls = [], []
    for b in betas:
        cs = boundary_curves(5, float(b))
        assert cs.L < cs.C < cs.U
        assert cs.U > 0
        us.append(cs.U)
        ls.append(cs.L)
    assert all(np.diff(us) < 0)
    assert all(np.diff(ls) < 0)


def test_upper_curve_u_shape_even():
    thr = thresholds(4)
    betas = np.linspace(thr.beta_hat + 0.005, 1.5, 120)
    us = np.array([boundary_curves(4, float(b), with_C=False).U
                   for b in betas])
    d = np.diff(us)
    sign_flips = int(np.count_nonzero(np.sign(d[:-1]) != np.sign(d[1:])))
    assert sign_flips == 1  # decreasing then increasing, single minimum
    beta0 = float(betas[int(np.argmin(us))])
    assert beta0 > thr.beta_prime
    assert us[-1] > us[0]  # U grows without bound at strong coupling


def test_curve_ordering_even():
    thr = thresholds(4)
    for b in np.linspace(thr.beta_hat + 0.01, thr.beta_tilde - 0.01, 25):
        cs = boundary_curves(4, float(b))
        assert cs.C < cs.U
        if cs.L is not None:
            assert cs.L < cs.C


def test_classify_reference_points():
    assert classify_point(4, 0.054, 0.5).region is Region.LOCALLY_REGULAR
    assert classify_point(4, 1.0 / 3.0, H_HAT_4).region is Region.SPECIAL
    assert classify_point(4, 0.51, 0.184).region is Region.LOCALLY_CRITICAL
    assert classify_point(3, BETA_HAT_3, H_HAT_3).region is Region.SPECIAL


def test_classify_boundary_points():
    cs = boundary_curves(4, 0.5)
    on_u = classify_point(4, 0.5, cs.U)
    assert on_u.region is Region.BOUNDARY
    assert on_u.boundary_detail is BoundaryDetail.ON_U
    on_l = classify_point(4, 0.5, cs.L)
    assert on_l.region is Region.BOUNDARY
    assert on_l.boundary_detail is BoundaryDetail.ON_L
    on_c = classify_point(4, 0.5, cs.C)
    assert on_c.region is Region.LOCALLY_CRITICAL
    assert on_c.boundary_detail is BoundaryDetail.ON_C_GLOBALS


def test_below_threshold_always_regular():
    rng = np.random.default_rng(2)
    for p in (3, 4, 5):
        bh = beta_hat(p)
        for _ in range(40):
            b = float(rng.uniform(0.01, bh - 1e-6))
            h = float(rng.uniform(-2, 2))
            assert classify_point(p, b, h).region is Region.LOCALLY_REGULAR


def _curve_region(p, thr, beta, h, tol=1e-4):
    """Coexistence-band region test straight from the curve geometry.

    Returns Region or None when (beta, h) is within tol of a deciding curve.
    """
    if beta <= thr.beta_hat - tol:
        return Region.LOCALLY_REGULAR
    if beta <= thr.beta_hat + tol:
        return None
    cs = boundary_curves(p, beta, with_C=False)
    href = abs(h) if p % 2 == 0 else h
    if p % 2 == 1:
        lo, hi = cs.L, cs.U
    elif beta <= thr.beta_prime - tol:
        lo, hi = cs.L, cs.U
    elif beta <= thr.beta_prime + tol:
        return None
    else:
        lo, hi = -tol * 2, cs.U  # band is (-U, U); href >= 0
    if lo + tol < href < hi - tol:
        return Region.LOCALLY_CRITICAL
    if href > hi + tol or href < lo - tol:
        return Region.LOCALLY_REGULAR
    return None


def test_classifier_consistency_with_curves():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(500):
        p = int(rng.choice([3, 4, 5]))
        thr = thresholds(p)
        beta = float(rng.uniform(0.02, 1.4))
        h = float(rng.uniform(-1.2, 1.2))
        expected = _curve_region(p, thr, beta, h)
        if expected is None:
            continue
        assert classify_point(p, beta, h).region is expected
        checked += 1
    assert checked > 350


# cells this close to U or L, and columns this close to beta_hat or (even p)
# beta_prime, are not compared: 100 times the curvature band, inside which
# a node value of H' counts as zero
BAND_SKIP = 1e-6


@lru_cache(maxsize=None)
def _independent_thresholds(p):
    return concavity_threshold(p), threshold_minima(p)[1]


@given(p=st.integers(3, 8), beta=st.floats(0.05, 1.5),
       gap=st.one_of(st.none(), st.floats(-6.0, -1.0)),
       hs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
       fracs=st.lists(st.floats(-0.5, 1.5), max_size=10), symmetric=st.booleans())
def test_region_codes_follow_the_independent_band(p, beta, gap, hs, fracs, symmetric):
    # scan_column's codes against conftest's mpmath band: critical (1)
    # strictly inside it, regular (0) outside it and below beta_hat.  A
    # drawn gap puts the column at beta_hat (1 + 10^gap), fracs place
    # fields across the band, and a symmetric axis takes the mirrored path
    # at even p.
    bh, bp = _independent_thresholds(p)
    if gap is not None:
        beta = bh * (1.0 + 10.0**gap)
    assume(abs(beta - bh) > BAND_SKIP and (p % 2 == 1 or abs(beta - bp) > BAND_SKIP))
    band = coexistence_band(p, beta) if beta > bh else None
    if band is not None:
        hs = hs + [band[0] + f * (band[1] - band[0]) for f in fracs]
    hs = np.array(sorted(set(hs + [-h for h in hs])) if symmetric else hs)
    codes, _ = scan_column(p, beta, hs)
    if band is None:
        assert codes.tolist() == [0] * len(hs)
        return
    lo, hi = band
    href = hs
    if p % 2 == 0:
        href = np.abs(hs)
        assert (lo > 0.0) == (beta < bp)
        if beta > bp:  # every |h| < U is critical
            lo = -math.inf
    for x, code in zip(href.tolist(), codes.tolist()):
        if lo + BAND_SKIP < x < hi - BAND_SKIP:
            assert code == 1, (x, lo, hi)
        elif x < lo - BAND_SKIP or x > hi + BAND_SKIP:
            assert code == 0, (x, lo, hi)


def test_quadratic_order_at_beta_one_half():
    # H''(0) = 2 beta - 1 vanishes, but for h > 0 the maximizer sits near
    # (3 h)^(1/3), where H'' = -m^2 lies outside the curvature band
    for h in (1e-9, 1e-11):
        report = classify_point(2, 0.5, h)
        assert report.region is Region.LOCALLY_REGULAR, h
        (point,) = report.stationary_points
        params = ModelParams(2, 0.5, h)
        m = point.m
        assert free_energy_d1(params, m * (1 - 1e-6)) > 0 > free_energy_d1(params, m * (1 + 1e-6))
        assert abs(m - (3 * h) ** (1 / 3)) <= 1e-3 * m, h
    at_zero = classify_point(2, 0.5, 0.0)
    assert at_zero.region is Region.SPECIAL
    assert [s.m for s in at_zero.stationary_points] == [0.0]


def test_trailing_flags_are_keyword_only():
    # a caller still passing thresholds or options by position gets a
    # TypeError instead of having them read as the flag
    spec = GridSpec(p=4, beta_min=0.5, beta_max=0.5, beta_step=1.0,
                    h_min=0.1, h_max=0.1, h_step=1.0)
    with pytest.raises(TypeError):
        boundary_curves(4, 0.5, thresholds(4))
    with pytest.raises(TypeError):
        classify_point(4, 0.5, 0.1, None)
    with pytest.raises(TypeError):
        scan_grid(spec, None)
    assert boundary_curves(4, 0.5, with_C=False).C is None
    assert classify_point(4, 0.5, 0.1, with_margin=True).margin is not None
    assert scan_grid(spec).cells.shape == (1, 1)


def test_scan_grid_single_cell():
    spec = GridSpec(p=4, beta_min=0.054, beta_max=0.054, beta_step=1.0,
                    h_min=0.5, h_max=0.5, h_step=1.0)
    grid = scan_grid(spec)
    assert grid.cells.shape == (1, 1)
    assert grid.cells[0, 0] == 0


def test_scan_grid_even_symmetry_oracle():
    spec = GridSpec(p=4, beta_min=0.3, beta_max=0.6, beta_step=0.06,
                    h_min=-0.4, h_max=0.4, h_step=0.08)
    grid = scan_grid(spec)
    for ib, b in enumerate(grid.beta_axis):
        for ih, h in enumerate(grid.h_axis):
            # independent re-classification of the reflected point
            got = classify_point(4, float(b), -float(h))
            assert got.region_code == grid.cells[ib, ih]


def test_scan_grid_budget():
    spec = GridSpec(p=4, beta_min=0.1, beta_max=1.0, beta_step=0.001,
                    h_min=-1.0, h_max=1.0, h_step=0.001, max_cells=1000)
    with pytest.raises(GridBudgetError, match="budget"):
        scan_grid(spec)


def test_csv_emission(tmp_path, capsys):
    prefix = str(tmp_path / "diagram")
    assert main(["phase-diagram", "--p", "4", "--beta-min", "0.3", "--beta-max", "0.5",
                 "--beta-step", "0.1", "--h-min", "0", "--h-max", "0.2",
                 "--h-step", "0.1", "--out-prefix", prefix]) == 0
    capsys.readouterr()
    gcsv = open(prefix + ".grid.csv").read()
    lines = gcsv.strip().split("\n")[1:]  # past the schema line
    assert lines[0] == "beta,h,region_code"
    assert len(lines) == 1 + 3 * 3
    codes = {int(l.split(",")[2]) for l in lines[1:]}
    assert codes <= {0, 1, 2, 3, 9}
    ccsv = open(prefix + ".curves.csv").read().split("\n", 1)[1]
    assert ccsv.startswith("beta,U,L,C\n")
    # beta = 0.3 is below beta_hat(4): all three fields empty there
    row = ccsv.strip().split("\n")[1]
    assert row.split(",")[1:] == ["", "", ""] or float(row.split(",")[0]) > 1 / 3


def test_c_curve_ties_the_maximizers():
    from pspin_glauber import find_stationary_points, local_maxima
    from conftest import equal_height_field

    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        top = 1.2 if p % 2 == 1 else thr.beta_tilde - 0.005  # C = 0 above beta_tilde
        for beta in np.linspace(thr.beta_hat + 0.005, top, 24):
            beta = float(beta)
            cs = boundary_curves(p, beta)
            if cs.L is None:
                lo = 0.0
                assert 0.0 <= cs.C < cs.U, (p, beta)
            else:
                lo = cs.L
                assert cs.L < cs.C < cs.U, (p, beta)
            maxima = local_maxima(find_stationary_points(ModelParams(p, beta, cs.C)))
            heights = [s.H for s in maxima]
            assert abs(heights[-1] - max(heights[:-1])) <= 1e-14, (p, beta)
            assert abs(cs.C - equal_height_field(p, beta, lo, cs.U)) <= 1e-10, (p, beta)


def test_height_gap_solves_the_maximizers_of_stationary_points():
    # _height_gaps solves, in one batch over all rows, the maximizers that
    # stationary_points reports one point at a time; its numpy gap agrees
    # with their math-scalar heights to 1e-15 and its envelope slope with
    # their m
    from pspin_glauber.phase_geometry import _height_gaps, _rows
    from pspin_glauber.potential import landscape_structure, local_maxima

    rng = np.random.default_rng(17)
    solved = 0
    for p in range(3, 13):
        thr = thresholds(p)
        betas, hs, wants = [], [], []
        for _ in range(30):
            beta = float(rng.uniform(thr.beta_hat + 1e-4, min(1.5, 14.0 / p)))
            band = boundary_curves(p, beta, with_C=False)
            lo = 0.0 if band.L is None else band.L
            h = float(lo + (band.U - lo) * rng.uniform(0.01, 0.99))
            if p * beta + abs(h) > 16:  # outside the documented domain
                continue
            maxima = local_maxima(landscape_structure(p, beta).stationary_points(h))
            assert len(maxima) >= 2, (p, beta, h)
            betas.append(beta)
            hs.append(h)
            wants.append((maxima[-1], max(maxima[:-1], key=lambda s: s.H)))
        betas = np.array(betas)
        _, nodes, a = _rows(p, betas)
        gaps, slopes, _ = _height_gaps(p, betas, nodes, a, np.array(hs))
        for beta, h, gap, slope, (top, other) in zip(betas, hs, gaps, slopes, wants):
            scale = max(1.0, abs(top.H), abs(other.H))
            assert abs(gap - (top.H - other.H)) <= 1e-15 * scale, (p, beta, h)
            assert abs(slope - (top.m - other.m)) <= 1e-12, (p, beta, h)
            solved += 1
    assert solved >= 250


def test_c_solver_guards_where_a_maximizer_merges():
    # within 1e-9 of L the top maximizer does not exist yet and within 1e-9
    # of U the other one no longer does, so the gap is only the side of C;
    # 1e-7 inside the band both are resolved.  A bracket that closes on such
    # an end is refused with its ends named
    from pspin_glauber.phase_geometry import _equal_height_fields, _height_gaps, _rows

    for p, beta in ((3, 0.8), (4, 0.5), (5, 0.5)):
        band = boundary_curves(p, beta, with_C=False)
        U, L = band.U, band.L
        hs = np.array([L + 1e-12, L + 1e-9, U - 1e-9, U - 1e-12, L + 1e-7, U - 1e-7])
        _, nodes, a = _rows(p, np.full(len(hs), beta))
        gaps, slopes, _ = _height_gaps(p, np.full(len(hs), beta), nodes, a, hs)
        for gap, slope, side in zip(gaps[:4], slopes, (-math.inf, -math.inf, math.inf, math.inf)):
            assert gap == side and math.isnan(slope), (p, beta, gaps)
        low, high = gaps[4:]
        assert math.isfinite(low) and math.isfinite(high), (p, beta)
        assert low < 0.0 < high, (p, beta)

    band = boundary_curves(3, 0.8, with_C=False)
    betas = np.array([0.8])
    _, nodes, a = _rows(3, betas)
    for lo, hi in ((band.U - 1e-10, band.U), (band.L, band.L + 1e-10)):
        with pytest.raises(DomainError, match="p=3, beta=0.8") as err:
            _equal_height_fields(3, betas, nodes, a, [lo], [hi])
        a_end, b_end = map(float, re.search(r"left in \[(\S+), (\S+)\]", str(err.value)).groups())
        assert lo <= a_end < b_end <= hi, (lo, hi, a_end, b_end)


def test_c_near_beta_hat_where_the_band_is_two_curvature_tols_wide():
    # about 1e-5 above beta_hat the band [L, U] is 2e-8 wide, and across the
    # tie a node value enters the curvature band, dropping the pair between
    # two adjacent floats while the resolved gap is still about -1e-14.  C is
    # that resolved end, its maxima tied to HEIGHT_TOL, a few 1e-12 below
    # the tie of conftest's float oracle
    from conftest import equal_height_field

    for p, beta in ((3, 0.43301601893166436), (3, 0.4330160214643461),
                    (4, 0.3333358864975279), (5, 0.2689592368954607),
                    (6, 0.22500172318743064), (8, 0.16931346600817823)):
        sample = boundary_curves(p, beta)
        assert sample.L <= sample.C <= sample.U, sample
        assert abs(sample.C - equal_height_field(p, beta, sample.L, sample.U)) <= 1e-11, sample


def test_batched_c_ties_the_maxima_over_whole_axes():
    # scan_block with an empty h axis solves C for a whole beta axis at
    # once; each C ties the maxima to 1e-12 in mpmath (conftest), on axes
    # that pass just above beta_hat and through beta_prime and beta_tilde,
    # where C drops to 0 at even p
    from conftest import maximizer_height_gap

    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        betas = list(np.linspace(thr.beta_hat + 1e-4, 1.2, 14))
        for b in (thr.beta_prime, thr.beta_tilde):
            betas += [b - 1e-6, b, b + 1e-6]
        betas = np.sort(betas)
        codes, curves = scan_block(p, betas, ())
        assert codes.shape == (len(betas), 0) and curves.shape == (3, len(betas))
        for beta, (U, L, C) in zip(betas.tolist(), curves.T.tolist()):
            if p % 2 == 0 and beta >= thr.beta_tilde:
                assert C == 0.0, (p, beta)
                continue
            lo = 0.0 if math.isnan(L) else L
            assert lo <= C <= U, (p, beta)
            assert abs(maximizer_height_gap(p, beta, C)) <= 1e-12, (p, beta)


def test_columns_scan_the_same_in_any_block(monkeypatch):
    # a column's codes and curves are the same bits whether it is scanned
    # alone (scan_column), inside a whole-axis scan (scan_grid), in one of
    # the blocks that phase-diagram --jobs 2 hands its workers, in a scan
    # split into blocks of a few betas (_BETA_BLOCK), without an h axis
    # (curves) or queried at one point (boundary_curves, and for U and L
    # classify --margins).  nan != nan, so arrays compare by their bytes
    import pspin_glauber.phase_geometry as pg

    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        spec = GridSpec(p=p, beta_min=0.01, beta_max=1.2, beta_step=0.0175,
                        h_min=-1.0, h_max=1.0, h_step=0.025)
        grid = scan_grid(spec)
        extra = [thr.beta_hat - 1e-9, thr.beta_hat + 1e-9, thr.beta_prime, thr.beta_tilde]
        betas = np.concatenate([grid.beta_axis, extra])
        blocks = [scan_block(p, block, grid.h_axis) for block in np.array_split(betas, 2)]
        codes = np.concatenate([c for c, _ in blocks])
        curves = np.concatenate([c for _, c in blocks], axis=1)
        assert codes[:len(grid.beta_axis)].tolist() == grid.cells.tolist(), p
        assert curves[:, :len(grid.beta_axis)].tobytes() == grid.curves.tobytes(), p
        with monkeypatch.context() as m:
            m.setattr(pg, "_BETA_BLOCK", 5)
            small_codes, small_curves = scan_block(p, betas, grid.h_axis)
            assert scan_block(p, betas, ())[1].tobytes() == small_curves.tobytes(), p
        assert small_codes.tolist() == codes.tolist(), p
        assert small_curves.tobytes() == curves.tobytes(), p
        for beta, row, column in zip(betas.tolist(), codes, curves.T):
            alone, alone_curves = scan_column(p, beta, grid.h_axis)
            assert alone.tolist() == row.tolist(), (p, beta)
            assert alone_curves.tobytes() == column.tobytes(), (p, beta)
            sample = boundary_curves(p, beta)
            assert [sample.U, sample.L, sample.C] == [
                None if v != v else v for v in column.tolist()], (p, beta)
            # a point query's band is `_band_values` of the one beta's row
            band = boundary_curves(p, beta, with_C=False)
            assert (band.U, band.L) == (sample.U, sample.L), (p, beta)


def test_cell_broadcast_runs_in_bounded_blocks():
    # G at the nodes for a column of 2^20 fields is broadcast in blocks of
    # _CELL_BLOCK cells: the scan's peak allocation stays near its 1 MiB of
    # codes, where one broadcast of the whole column would hold 16 MiB of
    # node values at p = 5 and as much again in its masks
    import tracemalloc

    from pspin_glauber.phase_geometry import _CELL_BLOCK

    hs = np.linspace(-1.0, 0.9, 2**20)
    scan_block(5, [0.5], hs[:10])  # thresholds and caches outside the trace
    tracemalloc.start()
    try:
        codes, _ = scan_block(5, [0.5], hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes[0].tolist() == scan_column(5, 0.5, hs)[0].tolist()
    assert peak <= codes.nbytes + 64 * _CELL_BLOCK * 2 + 2**20, peak


def test_tall_axes_run_in_bounded_beta_blocks():
    # scan_block solves an axis in blocks of _BETA_BLOCK betas: on 2^16
    # betas at p = 5, with and without an h axis, its temporaries beside
    # the returned arrays stay near one block's 3.5 MB, where the C solve of
    # the whole axis at once would hold about 55 MB (0.84 kB per beta).
    # What it returns holds the codes and 24 B per beta of U, L and C
    import tracemalloc

    betas = np.linspace(0.9 * thresholds(5).beta_hat, 1.5, 2**16)
    scan_block(5, betas[:10], [0.0])  # thresholds and caches outside the trace
    outs = []
    for h_axis in ((), [0.0]):
        tracemalloc.start()
        try:
            outs.append(scan_block(5, betas, h_axis))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 8 * 2**20, peak - held
        assert held <= 24 * len(betas) + outs[-1][0].nbytes + 2**16, held
    assert outs[0][1].tobytes() == outs[1][1].tobytes()


def test_c_curve_at_high_order():
    # at p = 20 from beta 0.54 on, the maximizer near the upper end of the
    # band lies past 1 - 1e-9
    from pspin_glauber import find_stationary_points, local_maxima
    from conftest import equal_height_field

    for beta in np.linspace(0.1, 0.55, 10):
        beta = float(beta)
        cs = boundary_curves(20, beta)
        lo = 0.0 if cs.L is None else cs.L
        assert lo < cs.C < cs.U, beta
        maxima = local_maxima(find_stationary_points(ModelParams(20, beta, cs.C)))
        heights = [s.H for s in maxima]
        assert abs(heights[-1] - max(heights[:-1])) <= 1e-14, beta
        assert abs(cs.C - equal_height_field(20, beta, lo, cs.U)) <= 1e-10, beta


def test_c_curve_ties_at_high_order():
    # every C ties the maxima to 1e-14 in mpmath.  At p = 13 from beta 1.4
    # on and p = 25 from 0.71 on the tie's top maximizer lies past 1 - 1e-15
    # (1 - 9.5e-16 and 1 - 7.9e-16 there), and at p = 50, beta = 1.49 past
    # 1 - 1e-60
    from conftest import maximizer_height_gap

    for p in (13, 20, 25, 30, 40, 50):
        betas = np.linspace(beta_hat(p) + 0.01, 1.49, 8).tolist()
        betas += {30: [0.44], 40: [0.4], 50: [0.3]}.get(p, [])
        for beta in betas:
            C = boundary_curves(p, beta).C
            assert abs(maximizer_height_gap(p, beta, C)) <= 1e-14, (p, beta, C)


def test_c_curve_just_above_beta_hat():
    # bands of width 1e-8..1e-5, where the maxima resolve only inside them
    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        for d in (3e-6, 1e-5, 1e-4, 3e-4):
            cs = boundary_curves(p, thr.beta_hat + d)
            assert cs.L <= cs.C <= cs.U


def test_scan_column_matches_per_cell_codes():
    from pspin_glauber.potential import landscape_structure

    def per_cell(p, beta, hs):
        return [classify_point(p, beta, float(h)).region_code for h in hs]

    near_node = 0
    for p in (3, 4, 5, 6):
        thr = thresholds(p)
        betas = [thr.beta_hat - 1e-9, thr.beta_hat + 1e-9]
        for b in (thr.beta_hat, thr.beta_prime, thr.beta_tilde):
            betas += [b - 1e-3, b - 1e-5, b, b + 1e-5, b + 1e-3]
        for beta in betas:
            hs = list(np.linspace(-1.1, 0.9, 201)) + [thr.h_hat, -thr.h_hat]
            cs = boundary_curves(p, beta, with_C=False)
            for v in (cs.U, cs.L):
                if v is not None:
                    hs += [s * v + d for s in (1, -1) for d in (-1e-7, -1e-9, 0.0, 1e-9, 1e-7)]
            hs = np.array(hs)
            struct = landscape_structure(p, beta)
            codes, _ = scan_column(p, beta, hs)
            assert codes.tolist() == per_cell(p, beta, hs), (p, beta)
            values = (struct._a + hs[:, None]) - struct.nodes
            near_node += int((np.abs(values) <= 100 * CURVATURE_TOL).any(axis=1).sum())
            if p % 2 == 0:  # a symmetric axis is classified once and mirrored
                sym = np.linspace(-1.0, 1.0, 201)
                mirrored, _ = scan_column(p, beta, sym)
                assert mirrored.tolist() == mirrored[::-1].tolist()
                assert mirrored[100:].tolist() == per_cell(p, beta, sym[100:])
    assert near_node > 0  # the near-node refinement was exercised


def test_scan_column_mirrors_only_a_symmetric_axis():
    # ends that cancel do not make an axis symmetric: every cell of these
    # axes is classified in its own right
    for hs in ([0.0, -0.25, 0.0], [-0.3, 0.5, 0.1, 0.3], [-0.5, 0.2, -0.2, 0.5]):
        for beta in (0.25, 0.5, 1.0):
            codes, _ = scan_column(4, beta, np.array(hs))
            assert codes.tolist() == [classify_point(4, beta, h).region_code for h in hs]


def test_symmetric_axis_decides_as_allclose():
    # the mirror test of scan_column against the np.allclose form it
    # replaced, whose float decision it makes on finite axes: symmetric
    # axes, axes with one end off by 2e-12 (beyond the 1e-12 tolerance) or
    # by 5e-13 (within it), and one-cell axes
    def allclose(hs):
        atol = 1e-12 * max(1.0, float(np.abs(hs).max()))
        return bool(np.allclose(hs, -hs[::-1], rtol=0.0, atol=atol))

    symmetric = [np.linspace(-1.0, 1.0, 201), np.arange(-300, 301) * 0.01,
                 np.linspace(-40.0, 40.0, 8), np.array([-0.5, 0.5])]
    cases = [(hs, True) for hs in symmetric]
    for hs in symmetric:
        for off, sym in ((2e-12, False), (5e-13, True)):
            shifted = hs.copy()
            shifted[-1] += off * max(1.0, float(np.abs(hs).max()))
            cases.append((shifted, sym))
    cases += [(np.array([0.0]), True), (np.array([0.3]), False), (np.array([-1e-13]), True)]
    for hs, sym in cases:
        assert _symmetric_axis(hs) == allclose(hs) == sym, hs


def test_scan_column_just_below_beta_hat_with_a_deep_well():
    # every cell of this column is refined, and at h = +-12 the maximizer
    # lies beyond 1 - 1e-9
    beta = thresholds(3).beta_hat - 1e-9
    hs = np.array([-12.0, 12.0])
    codes, _ = scan_column(3, beta, hs)
    assert codes.tolist() == [classify_point(3, beta, float(h)).region_code
                              for h in hs]
    assert classify_point(3, beta, 12.0).stationary_points[-1].m > 1 - 1e-9


# The documented domain: p in 2..50, beta >= 0.05 and p*beta + |h| <= 350,
# inside the |atanh(m)| of about 354 past which H'' = -cosh(atanh(m))^2
# overflows.
@given(p=st.integers(2, 50), p_beta=st.floats(0.1, 350.0), h=st.floats(-350.0, 350.0))
def test_classification_over_the_documented_domain(p, p_beta, h):
    beta = p_beta / p
    assume(beta >= 0.05 and p_beta + abs(h) <= 350)
    report = classify_point(p, beta, h)
    ms = [s.m for s in report.stationary_points]
    assert all(a < b for a, b in zip(ms, ms[1:]))
    assert all(math.isfinite(s.H) and math.isfinite(s.H2) for s in report.stationary_points)
    kinds = [s.kind for s in report.stationary_points
             if s.kind is not PointKind.INFLECTION]
    assert kinds[0] is kinds[-1] is PointKind.LOCAL_MAX
    assert all(a is not b for a, b in zip(kinds, kinds[1:]))
    codes, _ = scan_column(p, beta, np.array([h]))
    assert codes.tolist() == [report.region_code]
