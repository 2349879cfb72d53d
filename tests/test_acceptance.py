"""Acceptance gate: one test per criterion, each printing a verdict line.

Reference values are the model's own: the curves of 4a/4b are scaled by
the heat-bath time constants of the regular and the special point, 6a
compares its decay rate with the Arrhenius barrier of H, and 8a checks the
balance law the tanh rule actually has (exact against a cosh-tilted law at
p = 2, a Gibbs defect of relative O(1/N) at every p).  These constants are
closed forms in conftest, never library output.
"""

import math
import time

import numpy as np

from pspin_glauber import (
    ModelParams,
    Region,
    bottleneck,
    boundary_curves,
    classify_point,
    drift_field,
    evaluate_potential,
    LevelKernel,
    kernel_arrays,
    mean_field_map,
    mixing_time,
    restricted_mixing_time,
    scan_grid,
    stationary_mag,
    thresholds,
    tv_curve,
)
from pspin_glauber.dynamics import metastable_sample_sums, rng_stream
from pspin_glauber.phase_geometry import GridSpec
from pspin_glauber import MetastableSpec, find_stationary_points

from conftest import (
    balance_defects,
    cosh_tilted_log_level_law,
    dense_transition_matrix,
    enumerate_mag_law,
    exponent_fit,
    gibbs_full_law,
    mean_hamming_from_opposite_starts,
    metastable_barrier,
    regular_mixing_constant,
    special_time_scale,
)

# frozen independent evaluations (40-digit arithmetic, rounded to double)
BETA_HAT_3 = 0.4330127018922193
H_HAT_3 = 0.22546624657018904
H_HAT_4 = 0.40996906622851137


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {tag:>3}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_thresholds():
    thresholds.cache_clear()
    t0 = time.time()
    thr4 = thresholds(4)
    thr3 = thresholds(3)
    elapsed = time.time() - t0
    ok = (
        thr4.beta_hat == 1.0 / 3.0
        and round(thr4.h_hat, 2) == 0.41
        and abs(thr3.beta_hat - BETA_HAT_3) < 1e-10
        and abs(thr3.h_hat - H_HAT_3) < 1e-10
        and elapsed < 1.0
    )
    assert _verdict(
        "1", ok,
        f"beta_hat_4={thr4.beta_hat!r}, h_hat_4={thr4.h_hat:.4f}, "
        f"cubic deviations {abs(thr3.beta_hat - BETA_HAT_3):.1e}/"
        f"{abs(thr3.h_hat - H_HAT_3):.1e}, {elapsed*1e3:.0f} ms",
    )


def _curve_band(p, thr, beta, h, tol=1e-4):
    """Curve-based two-phase verdict; None within tol of a deciding line."""
    if beta <= thr.beta_hat - tol:
        return 0
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
        lo, hi = -2 * tol, cs.U
    if lo + tol < href < hi - tol:
        return 1
    if href > hi + tol or href < lo - tol:
        return 0
    return None


def test_criterion_02_phase_classification_and_grids():
    points_ok = (
        classify_point(4, 0.054, 0.5).region is Region.LOCALLY_REGULAR
        and classify_point(4, 1.0 / 3.0, H_HAT_4).region is Region.SPECIAL
        and classify_point(4, 0.51, 0.184).region is Region.LOCALLY_CRITICAL
    )
    agreements = {}
    runtimes = {}
    for p in (4, 5):
        t0 = time.time()
        spec = GridSpec(p=p, beta_min=0.01, beta_max=1.2, beta_step=0.005,
                        h_min=-1.0, h_max=1.0, h_step=0.005)
        grid = scan_grid(spec)
        runtimes[p] = time.time() - t0
        thr = thresholds(p)
        curves = {b: None for b in grid.beta_axis}
        agree = total = 0
        for ib, beta in enumerate(grid.beta_axis):
            beta = float(beta)
            for ih, h in enumerate(grid.h_axis):
                expected = _curve_band(p, thr, beta, float(h))
                if expected is None:
                    continue
                total += 1
                got = 1 if grid.cells[ib, ih] == 1 else 0
                agree += got == expected
        agreements[p] = agree / total
    ok = (points_ok and agreements[4] > 0.999 and agreements[5] > 0.999
          and max(runtimes.values()) < 300.0)
    assert _verdict(
        "2", ok,
        f"reference points {'ok' if points_ok else 'WRONG'}; curve-topology "
        f"agreement p4={agreements[4]:.4f} p5={agreements[5]:.4f}; grid "
        f"runtimes {runtimes[4]:.1f}s/{runtimes[5]:.1f}s (budget 300s)",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_enum = 0.0
    for _ in range(20):
        N = int(rng.integers(3, 15))
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-1.0, 1.0)))
        tv = 0.5 * np.abs(stationary_mag(params, N)
                          - enumerate_mag_law(params, N)).sum()
        worst_enum = max(worst_enum, float(tv))

    worst_dense = 0.0
    for (p, beta, h, N) in [(3, 0.6, 0.2, 8), (4, 0.51, 0.184, 10),
                            (2, 0.25, 0.0, 9), (4, 0.054, 0.5, 10)]:
        params = ModelParams(p, beta, h)
        P, _ = dense_transition_matrix(params, N)
        pi_full = gibbs_full_law(params, N)
        curve = tv_curve(params, N, N, t_max=25)
        mu = np.zeros(1 << N)
        mu[(1 << N) - 1] = 1.0
        for t in range(26):
            tv_full = 0.5 * np.abs(mu - pi_full).sum()
            worst_dense = max(worst_dense, abs(tv_full - curve.tv[t]))
            mu = mu @ P
    elapsed = time.time() - t0
    ok = worst_enum < 1e-12 and worst_dense < 1e-10 and elapsed < 120.0
    assert _verdict(
        "3", ok,
        f"enumeration TV worst {worst_enum:.2e}; dense-vs-projected worst "
        f"{worst_dense:.2e}; {elapsed:.1f}s (budget 120s)",
    )


REGULAR = ModelParams(4, 0.054, 0.5)
SPECIAL = ModelParams(4, 1.0 / 3.0, H_HAT_4)
CRITICAL = ModelParams(4, 0.51, 0.184)


def test_criterion_04a_regular_reference_curve():
    c_reg = regular_mixing_constant(REGULAR)
    ratios = {}
    for N in (80, 160, 320, 640, 800):
        rep = mixing_time(REGULAR, N, 0.35, cap=2_000_000)
        ratios[N] = rep.t_mix / (c_reg * N * math.log(N))
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    assert _verdict(
        "4a", ok,
        f"regular t_mix / (c_reg N log N) with c_reg = 1/(2(1-lam'(m*))) = "
        f"{c_reg:.4f}: {[round(r, 3) for r in ratios.values()]} "
        "(gate [0.5, 2])",
    )


def test_criterion_04b_special_reference_curve():
    tau = special_time_scale(SPECIAL.p)
    ratios = {}
    for N in (80, 160, 320, 640, 800):
        rep = mixing_time(SPECIAL, N, 0.35, cap=2_000_000)
        ratios[N] = rep.t_mix / (tau * N**1.5)
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    assert _verdict(
        "4b", ok,
        "special t_mix / (tau N^1.5) with tau = sqrt(6/(|lam3|(1-m*^2))) = "
        f"{tau:.4f}: {[round(r, 3) for r in ratios.values()]} "
        "(gate [0.5, 2])",
    )


def test_criterion_04c_critical_capped():
    capped = {}
    for N in (80, 100, 200, 400, 800):
        rep = mixing_time(CRITICAL, N, 0.35, cap=10_000)
        capped[N] = rep.capped
    ok = all(capped.values())
    assert _verdict(
        "4c", ok,
        f"critical point capped at 10000 for N in {sorted(capped)}: "
        f"{all(capped.values())}",
    )


def test_criterion_05_scaling_exponents():
    ns, ts = [], []
    for N in (80, 160, 320, 640):
        rep = mixing_time(SPECIAL, N, 0.35, cap=2_000_000)
        ns.append(N)
        ts.append(rep.t_mix)
    fit = exponent_fit(ns, ts)
    slope_ok = 1.35 <= fit.slope <= 1.65

    ratios = []
    for N in (80, 160, 320, 640):
        rep = mixing_time(REGULAR, N, 0.35, cap=2_000_000)
        ratios.append(rep.t_mix / (N * math.log(N)))
    spread = max(ratios) / min(ratios)
    ok = slope_ok and spread < 2.0
    assert _verdict(
        "5", ok,
        f"special-point log-log slope {fit.slope:.3f} (gate [1.35, 1.65]); "
        f"regular t_mix/(N log N) spread x{spread:.2f} (gate x2)",
    )


def test_criterion_06a_bottleneck_exponential_decay():
    # log phi* = -a N + O(log N) + const; the constant swamps log phi*/N at
    # these sizes, so the rate a is read from increments over doublings
    log_phi = {N: bottleneck(CRITICAL, N).log_phi_star
               for N in (50, 100, 200, 400)}
    incs = [(log_phi[2 * N] - log_phi[N]) / N for N in (50, 100, 200)]
    spread = max(incs) - min(incs)
    mean = sum(incs) / len(incs)
    barrier = metastable_barrier(CRITICAL)
    ok = (all(v < 0 for v in incs) and spread < 0.25 * abs(mean)
          and all(abs(v + barrier) <= 0.25 * barrier for v in incs))
    assert _verdict(
        "6a", ok,
        f"(log phi*(2N) - log phi*(N))/N = {[round(v, 4) for v in incs]}; "
        f"spread {spread / abs(mean):.0%} of |mean| (gate 25%); each within "
        f"25% of -dH, dH = H(max) - H(saddle) = {barrier:.5f}",
    )


def test_criterion_06b_bottleneck_polynomial_at_regular():
    worst = 0.0
    for N in (50, 100, 200, 400):
        rep = bottleneck(REGULAR, N)
        worst = max(worst, abs(rep.log_phi_star) / math.log(N))
    ok = worst < 2.0
    assert _verdict(
        "6b", ok,
        f"regular-point |log phi*| / log N <= {worst:.2f} (polynomial decay)",
    )


def test_criterion_07_restricted_dynamics():
    ratios = []
    for N in (100, 200, 400, 800):
        rep = restricted_mixing_time(CRITICAL, N, 0.35, cap=1_000_000)
        ratios.append(rep.t_mix / (N * math.log(N)))
    spread = max(ratios) / min(ratios)

    exact_match = True
    for N in (100, 400):
        a = restricted_mixing_time(REGULAR, N, 0.35, cap=100_000)
        b = mixing_time(REGULAR, N, 0.35, cap=100_000)
        exact_match &= (a.t_mix == b.t_mix and a.t_by_start == b.t_by_start)
    ok = spread < 2.0 and exact_match
    assert _verdict(
        "7", ok,
        f"restricted tau/(N log N) spread x{spread:.2f} (gate x2); "
        f"no-restriction bit-equality: {exact_match}",
    )


def _worst_defect(params, N, log_law):
    up, down, _ = kernel_arrays(params, N)
    return float(np.abs(balance_defects(log_law, up, down)).max())


def test_criterion_08a_detailed_balance():
    tilt_worst = 0.0
    halving = {}
    for (params, N) in [(REGULAR, 200), (CRITICAL, 100),
                        (ModelParams(2, 0.25, 0.0), 100)]:
        if params.p == 2:  # exact reversibility w.r.t. the cosh-tilted law
            tilt_worst = max(tilt_worst, _worst_defect(
                params, N, cosh_tilted_log_level_law(params, N)))
        gibbs = [_worst_defect(params, n, LevelKernel(params, n).log_gibbs)
                 for n in (N, 2 * N, 4 * N)]
        halving[(params.p, N)] = [round(gibbs[0] / gibbs[1], 3),
                                  round(gibbs[1] / gibbs[2], 3)]
    ok = (tilt_worst <= 1e-12
          and all(1.8 <= r <= 2.2 for rs in halving.values() for r in rs))
    assert _verdict(
        "8a", ok,
        f"p=2 balance vs the cosh-tilted Gibbs law: worst relative defect "
        f"{tilt_worst:.2e} (gate 1e-12); Gibbs-law defect ratios N->2N->4N "
        f"by (p, N): {halving} (gate [1.8, 2.2], relative O(1/N))",
    )


def test_criterion_08b_drift_identity():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 7))
        params = ModelParams(p, float(rng.uniform(0.05, 1.5)),
                             float(rng.uniform(-1.5, 1.5)))
        N = int(rng.integers(5, 400))
        k = int(rng.integers(-N, N + 1))
        if (k + N) % 2:
            k += 1 if k < N else -1
        kernel, i = LevelKernel(params, N), (k + N) // 2
        diff = abs((2.0 / N) * (kernel.up[i] - kernel.down[i])
                   - drift_field(params, N, k / N))
        worst = max(worst, diff)
    ok = worst < 1e-14
    assert _verdict("8b", ok, f"drift identity worst deviation {worst:.2e} "
                    "(gate 1e-14)")


def test_criterion_08c_contraction_bound():
    params = ModelParams(3, 0.05, 0.1)
    grid = np.linspace(-1, 1, 200_001)
    sup = float(np.max(np.abs(
        params.p * (params.p - 1) * params.beta * grid ** (params.p - 2)
        * (1 - mean_field_map(params, grid) ** 2))))
    delta = 1 - sup
    N = 100
    means = mean_hamming_from_opposite_starts(params, N, 10_000,
                                              (N, 2 * N, 4 * N), seed=31)
    margins = {t: m / (N * math.exp(-t * delta / N)) for t, m in means.items()}
    ok = sup < 1 and all(r <= 1.1 for r in margins.values())
    assert _verdict(
        "8c", ok,
        f"sup|lam'|={sup:.3f}; mean-Hamming/bound ratios "
        f"{ {t: round(r, 3) for t, r in margins.items()} } (gate 1.1)",
    )


def test_criterion_08d_untouched_sites():
    N, R = 100, 10_000
    rng = rng_stream(21, 0)
    sites = (rng.random((N, R)) * N).astype(np.int64)
    touched = np.zeros((R, N), dtype=bool)
    for t in range(N):
        touched[np.arange(R), sites[t]] = True
    L = N - touched.sum(axis=1)
    exact = N * (1 - 1 / N) ** N
    se = L.std(ddof=1) / math.sqrt(R)
    ok = abs(L.mean() - exact) <= 3 * se
    assert _verdict(
        "8d", ok,
        f"E L_N = {L.mean():.2f} vs N(1-1/N)^N = {exact:.2f} "
        f"({abs(L.mean()-exact)/se:.2f} standard errors)",
    )


def test_criterion_09_degenerate_point_calculus():
    worst = {"fix": 0.0, "lam1": 0.0, "lam2": 0.0, "lam3": 0.0}
    for p in range(3, 9):
        thr = thresholds(p)
        c_star = math.sqrt(1.0 - 2.0 / p)
        pv = evaluate_potential(ModelParams(p, thr.beta_hat, thr.h_hat), c_star)
        closed = (-2.0 * thr.beta_hat * p * (p - 1) * (p - 2)
                  * (1.0 - 2.0 / p) ** ((p - 4) / 2.0))
        worst["fix"] = max(worst["fix"], abs(pv.lam - c_star))
        worst["lam1"] = max(worst["lam1"], abs(pv.lam1 - 1.0))
        worst["lam2"] = max(worst["lam2"], abs(pv.lam2))
        worst["lam3"] = max(worst["lam3"], abs(pv.lam3 - closed) / abs(closed))
    ok = (worst["fix"] < 1e-8 and worst["lam1"] < 1e-8
          and worst["lam2"] < 1e-7 and worst["lam3"] < 1e-8)
    assert _verdict(
        "9", ok,
        "p in 3..8 worst deviations: fixed point "
        f"{worst['fix']:.1e}, lam' {worst['lam1']:.1e}, lam'' "
        f"{worst['lam2']:.1e}, lam''' rel {worst['lam3']:.1e}",
    )


def test_criterion_10_metastable_sampler():
    params = ModelParams(4, 0.9, 0.0)
    N = 200
    heights = [s.H for s in find_stationary_points(params)
               if s.kind.value == "LocalMax"]
    top_two = sorted(heights, reverse=True)[:2]
    assert top_two[0] - top_two[1] <= 1e-10  # two equal-height global maxima
    spec = MetastableSpec(params=params, N=N, seed=99)
    sums = metastable_sample_sums(spec, 10_000)
    pi = stationary_mag(params, N)
    hist = np.zeros_like(pi)
    vals, counts = np.unique(sums, return_counts=True)
    for v, ct in zip(vals.tolist(), counts.tolist()):
        hist[(v + N) // 2] = ct / len(sums)
    tv = 0.5 * float(np.abs(hist - pi).sum())
    ok = tv < 0.05
    assert _verdict("10", ok, f"sampler magnetization TV = {tv:.4f} "
                    "(gate 0.05; 1e4 samples at N=200)")
