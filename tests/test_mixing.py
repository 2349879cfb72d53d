"""Stationary law, TV evolution, mixing times, bottlenecks, fits."""

import math
import tracemalloc

import numpy as np
import pytest

from pspin_glauber import (
    MONTE_CARLO,
    DomainError,
    ModelParams,
    beta_hat,
    bottleneck,
    boundary_curves,
    evaluate_potential,
    find_stationary_points,
    h_hat,
    hitting_time,
    mixing_time,
    restricted_mixing_time,
    restricted_threshold,
    stationary_mag,
    tv_curve,
)
from pspin_glauber import dynamics
from pspin_glauber.dynamics import (
    _BLOCK,
    LevelKernel,
    _log_binomials,
    live_window,
    MetastableSpec,
    metastable_sample,
    metastable_sample_law,
    nearest_level,
    rng_stream,
    simulate_mag_replicas,
)
from conftest import (
    dense_transition_matrix,
    enumerate_mag_law,
    exponent_fit,
    gibbs_full_law,
    level_chain_power,
    log_binomials,
    longdouble_power,
    passage_means,
    replica_step,
)

H_HAT_4 = 0.40996906622851137


def test_stationary_mag_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(8):
        N = int(rng.integers(3, 15))
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-1, 1)))
        oracle = enumerate_mag_law(params, N)
        assert 0.5 * np.abs(stationary_mag(params, N) - oracle).sum() < 1e-12


def test_stationary_mag_weak_coupling_is_binomial():
    from scipy.stats import binom

    N = 40
    pi = stationary_mag(ModelParams(4, 1e-12, 0.0), N)
    ref = binom.pmf(np.arange(N + 1), N, 0.5)
    assert np.max(np.abs(pi - ref)) < 1e-13


def test_log_binomials_at_least_as_accurate_as_gammaln():
    # against 40-digit loggamma, the compensated sum's worst error is no
    # larger than that of lgamma(N + 1) - lgamma(j + 1) - lgamma(N - j + 1)
    from scipy.special import gammaln

    for N in (200, 3200, 12800):
        exact = log_binomials(N)
        j = np.arange(N + 1)
        ref = gammaln(N + 1) - gammaln(j + 1) - gammaln(N - j + 1)
        ours = _log_binomials(N)
        assert np.array_equal(ours, ours[::-1])
        assert np.abs(ours - exact).max() <= np.abs(ref - exact).max(), N
    for N in (1, 2, 3, 7):
        exact = [math.log(math.comb(N, j)) for j in range(N + 1)]
        assert np.abs(_log_binomials(N) - exact).max() <= 4e-15


def test_odd_p_coexistence_floor_does_not_decay():
    # on C at p = 3, and at p = 4 below beta_tilde, the TV between the
    # chain's own law and the Gibbs law stays near 0.175 and 0.18 and rises
    # with N: no eps below it is ever reached
    for point, (low, high) in (((3, 0.55, 0.11215788999510065), (0.17, 0.18)),
                               ((4, 0.4, 0.32016463411327806), (0.17, 0.19))):
        params = ModelParams(*point)
        floors = [0.5 * float(np.abs(np.exp(LevelKernel(params, N).log_pi)
                                     - stationary_mag(params, N)).sum())
                  for N in (400, 6400)]
        assert all(low <= f <= high for f in floors), (point, floors)
        assert floors[1] >= floors[0], (point, floors)


def test_stationary_mag_mode_tracks_maximizer():
    params = ModelParams(4, 0.054, 0.5)
    m_star = find_stationary_points(params)[0].m
    N = 400
    kernel = LevelKernel(params, N)
    k_mode = int(kernel.ks[np.argmax(kernel.gibbs)])
    assert abs(k_mode - N * m_star) <= 4  # within two levels


def test_conditioning():
    params = ModelParams(4, 0.51, 0.184)
    kernel = LevelKernel(params, 100, lo=40)
    assert kernel.ks[0] == 40 and len(kernel.gibbs) == len(kernel.ks)
    assert kernel.gibbs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(LevelKernel(params, 100, lo=-100).gibbs,
                          stationary_mag(params, 100))
    with pytest.raises(DomainError):
        LevelKernel(params, 100, lo=102).gibbs


def test_gibbs_law_on_a_two_sided_window():
    # the Gibbs law conditioned on [lo, hi], against the enumerated law
    # restricted to that window and renormalised
    params, N, lo, hi = ModelParams(4, 0.51, 0.184), 12, -4, 8
    kernel = LevelKernel(params, N, lo=lo, hi=hi)
    assert kernel.ks.tolist() == list(range(lo, hi + 1, 2))
    ref = enumerate_mag_law(params, N)[(lo + N) // 2:(hi + N) // 2 + 1]
    assert np.abs(kernel.gibbs - ref / ref.sum()).max() <= 1e-12
    assert np.abs(np.exp(kernel.log_gibbs) - ref / ref.sum()).max() <= 1e-12


def test_tv_curve_initial_value():
    params = ModelParams(3, 1e-9, 0.0)
    N = 12
    pi = stationary_mag(params, N)
    start = 2 * int(np.argmax(pi)) - N
    curve = tv_curve(params, N, start, t_max=0)
    assert curve.tv[0] == pytest.approx(1.0 - pi[(start + N) // 2], abs=1e-14)


def per_step_tv(params, N, start_k, t_max, eps_stop=0.0, k_min=None):
    """TV curve by one LevelKernel.push and one renormalisation per step."""
    k_min = -N if k_min is None else k_min
    kernel = LevelKernel(params, N, lo=k_min)
    pi = kernel.gibbs
    mu = np.zeros_like(pi)
    mu[(start_k - kernel.ks[0]) // 2] = 1.0
    tvs = []
    for t in range(t_max + 1):
        tvs.append(0.5 * float(np.abs(mu - pi).sum()))
        if tvs[-1] <= eps_stop:
            return np.array(tvs), False
        if t < t_max:
            mu = kernel.push(mu)
            mu /= mu.sum()
    return np.array(tvs), True


def assert_matches_per_step(params, N, start_k, t_max, eps_stop=0.0, k_min=None):
    ref, capped = per_step_tv(params, N, start_k, t_max, eps_stop, k_min)
    curve = tv_curve(params, N, start_k, t_max, eps_stop=eps_stop, k_min=k_min)
    assert len(curve.tv) == len(ref) and curve.capped == capped
    assert curve.ts.tolist() == list(range(len(ref)))
    assert np.max(np.abs(curve.tv - ref)) <= 1e-12
    return curve


def test_tv_curve_matches_per_step_reference():
    regular, special = ModelParams(4, 0.054, 0.5), ModelParams(4, 1 / 3, H_HAT_4)
    critical = ModelParams(4, 0.51, 0.184)
    for start in (400, -400):
        assert not assert_matches_per_step(regular, 400, start, 10**5, 0.35).capped
    assert not assert_matches_per_step(special, 200, 200, 10**5, 0.35).capped
    assert assert_matches_per_step(critical, 200, 200, 3000, 0.35).capped
    assert assert_matches_per_step(critical, 100, -100, 200).capped  # eps_stop 0
    floor = restricted_threshold(critical, 200)
    start = floor + (floor + 200) % 2
    assert not assert_matches_per_step(critical, 200, start, 10**5, 0.35, floor).capped
    assert not assert_matches_per_step(ModelParams(2, 0.6, 0.05), 150, -150, 10**5,
                                       0.1).capped
    for h in (3.0, -3.0):  # a strong field moves the law one level per step
        for start in (200, -200):
            assert_matches_per_step(ModelParams(2, 0.1, h), 200, start, 10**4, 0.05)
    for t_max, stop in ((0, 0.35), (0, 1.0), (1, 0.0)):
        assert_matches_per_step(regular, 400, 400, t_max, stop)


def test_tv_curve_crossing_on_a_block_edge():
    # a stop level between the TVs of steps s - 1 and s makes s the first
    # crossing, at the end, the start and just past one 32-step block
    params = ModelParams(4, 0.054, 0.5)
    ref, _ = per_step_tv(params, 100, 100, 40)
    assert np.all(np.diff(ref[29:]) < -1e-6)
    for s in (31, 32, 33):
        stop = 0.5 * (ref[s - 1] + ref[s])
        curve = assert_matches_per_step(params, 100, 100, 10**4, stop)
        assert int(curve.ts[-1]) == s and not curve.capped
        capped = assert_matches_per_step(params, 100, 100, s - 1, stop)
        assert capped.capped and len(capped.tv) == s


@pytest.mark.parametrize("burn", [None, 0, 1, 32, 33, 100])
def test_metastable_law_matches_per_step_reference(burn):
    # None is the default burn-in, 10 N log N; the short ones end before
    # the window law settles, on and next to a block edge
    params, N = ModelParams(4, 0.9, 0.0), 200
    spec = MetastableSpec(params=params, N=N, seed=1, burn_steps=burn)
    law = metastable_sample_law(spec)
    _, report = metastable_sample(spec)
    ref = np.zeros(N + 1)
    for (lo, hi), m, w in zip(report.windows, report.maximizers, report.weights):
        kernel = LevelKernel(params, N, lo, hi)
        mu = np.zeros(len(kernel.ks))
        mu[(nearest_level(N, m) - kernel.ks[0]) // 2] = 1.0
        for _ in range(report.burn_steps):
            mu = kernel.push(mu)
        ref[(kernel.ks + N) // 2] += w * mu / mu.sum()
    assert len(report.windows) == 2
    assert np.max(np.abs(law - ref / ref.sum())) <= 1e-12


def test_evolve_pushes_only_the_live_window():
    # from all-plus at N = 6400 the law is a bump: once TV has crossed 0.35
    # every block pushes fewer than half of the N + 1 levels
    params, N = ModelParams(4, 0.054, 0.5), 6400
    kernel = LevelKernel(params, N)
    pi = kernel.gibbs
    mu = np.zeros(N + 1)
    mu[-1] = 1.0
    widths = []
    for _, _, laws, tv in kernel.evolve(mu, 10**6, target=pi):
        assert np.max(np.abs(laws.sum(axis=1) - 1.0)) <= 1e-14
        if widths or tv[-1] <= 0.35:
            widths.append(laws.shape[1])
        if len(widths) == 20:
            break
    assert len(widths) == 20 and max(widths) < (N + 1) / 2


CRITICAL = ModelParams(4, 0.51, 0.184)


@pytest.fixture
def pushed_steps(monkeypatch):
    """Counts the steps exact mixing advances a block of at most 2 _BLOCK
    at a time: those LevelKernel.evolve pushes and those of each leap
    through `band` or `rung`, read from the steps done that each block
    yields.  The steps of a leap through a dense power are not counted."""
    count = [0]
    evolve = LevelKernel.evolve

    def counting(self, mu, steps, target=None, leap_above=None):
        done = 0
        for t, lo, laws, tv in evolve(self, mu, steps, target, leap_above):
            if t - done <= 2 * _BLOCK:
                count[0] += t - done
            done = t
            yield t, lo, laws, tv

    monkeypatch.setattr(LevelKernel, "evolve", counting)
    return count


def leap_kernel(kind):
    """(kernel, target, start level, eps) for test_evolve_leaps_match_pushed_laws."""
    if kind == "regular":
        params, N = ModelParams(4, 0.054, 0.5), 800
        kernel = LevelKernel(params, N)
        return kernel, kernel.gibbs, N, 0.35
    if kind == "critical floor":
        N = 200
        kernel = LevelKernel(CRITICAL, N, lo=restricted_threshold(CRITICAL, N))
        return kernel, kernel.gibbs, int(kernel.ks[0]), 0.35
    params, N = ModelParams(4, 0.9, 0.0), 400  # the sampler's upper window
    _, report = metastable_sample(MetastableSpec(params=params, N=N, burn_steps=0))
    kernel = LevelKernel(params, N, *report.windows[-1])
    return kernel, np.exp(kernel.log_pi), int(kernel.ks[0]), 0.05


@pytest.mark.parametrize("kind", ["regular", "critical floor", "sampler window"])
def test_evolve_leaps_match_pushed_laws(kind):
    # every row a leaping evolve yields is the per-step push's law at its
    # step; a leapt block is one row _BLOCK steps on, 2 _BLOCK once the
    # kernel has built its rung, or as many as a dense power it has built,
    # with every step's TV above the level; law_after, which leaps every
    # whole block, ends at the push's law too
    kernel, target, start, eps = leap_kernel(kind)
    n, steps = len(kernel.ks), 4000 + 5
    mu = np.zeros(n)
    mu[kernel.index(start)] = 1.0
    ref, ref_tv = {}, np.empty(steps + 1)
    for t, lo, laws, tv in kernel.evolve(mu, steps, target=target):
        ref_tv[t - len(laws) + 1:t + 1] = tv
        for s, row in enumerate(laws, t - len(laws) + 1):
            ref[s] = np.zeros(n)
            ref[s][lo:lo + len(row)] = row
    done, leapt, pushed = 0, 0, 0
    for t, lo, laws, tv in kernel.evolve(mu, steps, target=target, leap_above=eps):
        if tv is None:
            assert len(laws) == 1 and t - done in (_BLOCK, 2 * _BLOCK, *kernel._dense)
            assert t - done == _BLOCK or "rung" in vars(kernel)
            assert np.all(ref_tv[done + 1:t + 1] > eps)
            leapt += 1
        else:
            assert len(laws) == t - done
            pushed += 1
        for s, row in enumerate(laws, t - len(laws) + 1):
            law = np.zeros(n)
            law[lo:lo + len(row)] = row
            assert np.abs(law - ref[s]).sum() <= 1e-12
        done = t
    assert done == steps and leapt > 0 and pushed > 0, kind
    assert np.abs(kernel.law_after(mu, steps) - ref[steps]).sum() <= 1e-12


def test_rungs_cap_below_the_chain_gibbs_floor(pushed_steps):
    # the chain's own law lies 0.031 from the Gibbs law in TV, so eps = 0.01
    # is never reached; the dense rungs leap all but a few of the 1e7 steps
    params, N = ModelParams(4, 0.5, 0.31), 400
    floor = 0.5 * np.abs(np.exp(LevelKernel(params, N).log_pi)
                         - stationary_mag(params, N)).sum()
    assert floor > 0.03
    rep = mixing_time(params, N, 0.01, 10**7)
    assert rep.capped and rep.t_by_start == {400: None, -400: None}
    assert pushed_steps[0] < 200_000


def test_rungs_reach_a_near_tangent_crossing(pushed_steps):
    # three wells: from +60 the TV meets eps = 0.25 with a slope of about
    # 1e-8 a step, while lam3 = 1 - 2e-5 keeps a fast mode alive; the dense
    # rungs, shorter as the crossing nears, leap most of the way to it
    rep = mixing_time(ModelParams(4, 0.7146, -0.0238), 60, 0.25, 10**7, starts=(60,))
    assert rep.t_by_start == {60: 4_617_662}  # the per-step push's crossing
    assert pushed_steps[0] < 2_000_000  # of 4,617,662


def test_rungs_match_per_step_crossing(pushed_steps):
    # the dense rungs engage (far fewer steps are advanced by blocks than
    # reported) and the push lands on the step where the pushed TV curve
    # first reaches eps
    for N, start, cap, want in ((200, -200, 130_000, 121_905),
                                (100, 100, 50_000, 39_097)):
        pushed_steps[0] = 0
        rep = mixing_time(CRITICAL, N, 0.35, cap, starts=(start,))
        assert rep.t_by_start == {start: want} and pushed_steps[0] < want / 2
        curve = tv_curve(CRITICAL, N, start, cap, eps_stop=0.35)
        assert not curve.capped and int(curve.ts[-1]) == want


def test_finish_tried_before_the_slow_mode_dominates():
    # crossings reached while faster modes still move TV, where a closed
    # form along the slowest mode alone once had to stand back: every leap
    # on the way leaves the pushed crossing standing
    for params, N, eps in ((ModelParams(4, 1 / 3, H_HAT_4), 200, 0.35),
                           (ModelParams(3, 0.6, 0.2), 80, 0.1)):
        rep = mixing_time(params, N, eps, 100_000)
        for start, t in rep.t_by_start.items():
            curve = tv_curve(params, N, start, 100_000, eps_stop=eps)
            assert t == int(curve.ts[-1]), (params, start)


def test_rungs_cap_both_critical_starts(pushed_steps):
    rep = mixing_time(CRITICAL, 200, 0.35, 100_000)
    assert rep.capped and rep.t_mix is None
    assert rep.t_by_start == {200: None, -200: None}
    assert pushed_steps[0] < 25_000  # of the 200,000 a full push takes
    # past the cap: the crossings a 2e7-step push finds
    rep = mixing_time(CRITICAL, 200, 0.35, 10**8)
    assert rep.t_by_start == {200: 3_600_420, -200: 121_905}


def test_rungs_cap_symmetric_wells_at_zero_field(pushed_steps):
    # symmetric wells at h = 0, where 1 - lam2 lies below 1e-14: each start
    # stays in its well, TV about 1/2, and the dense rungs leap to the cap
    # rather than the 2e7 steps of leaps through band and rung
    rep = mixing_time(ModelParams(4, 0.9, 0.0), 200, 0.35, 10**7)
    assert rep.capped and rep.t_by_start == {200: None, -200: None}
    assert pushed_steps[0] < 100_000


def test_rungs_keep_a_crossing_that_does_not_last(kernels_made):
    # on C at p = 3 the TV to Gibbs from -300 dips to eps at 283,779 and
    # climbs back towards the floor TV(pi_chain, Gibbs) = 0.173: no rung
    # may leap over the dip, and the answer is the per-step push's step
    params, N = ModelParams(3, 0.55, 0.1121579), 300
    rep = mixing_time(params, N, 0.05, 10**7, starts=(-N,))
    assert rep.t_by_start == {-N: 283_779}
    kernel = kernels_made[-1]
    assert max(kernel.work.leaps) > 2 * _BLOCK, kernel.work  # dense rungs taken
    floor = 0.5 * np.abs(np.exp(kernel.log_pi) - kernel.gibbs).sum()
    assert 0.17 < floor < 0.18
    curve = tv_curve(params, N, -N, 300_000, eps_stop=0.05)
    assert not curve.capped and int(curve.ts[-1]) == 283_779


@pytest.mark.parametrize("point, N", [((4, 0.51, 0.184), 100), ((4, 0.9, 0.0), 60)])
def test_dense_powers_within_their_rounding_budget(point, N):
    # P^(2^20) from the kernel's table (from `rung` at 101 levels, from the
    # one-step matrix at 61) and the law after it from each end: within
    # the budget of LevelKernel._dense_power and evolve's dense leap of a
    # long-double product of the same one-step matrix
    kernel = LevelKernel(ModelParams(*point), N)
    n, M, eps = len(kernel.ks), 2**20, np.finfo(float).eps
    power = kernel._dense_power(M)
    want = longdouble_power(kernel.up, kernel.down, kernel.stay, M)
    resolved = want > 2.0**-500  # entries below 2**-510 are cut to 0
    assert np.all(np.abs(power - want)[resolved] <= (M - 1) * n * eps * want[resolved])
    for start in (0, n - 1):
        law = power[start] / power[start].sum()
        exact = want[start] / want[start].sum()
        assert float(np.abs(law - exact).sum()) <= 3 * n * M * eps


def leap_points(p):
    """(params, k_min) per point kind at order p: regular, special,
    coexistence (on C, or h = 0 for even p) and, where one is known, the
    critical point with its restricted floor (k_min "floor")."""
    points = [(ModelParams(p, 0.054, 0.5), None),
              (ModelParams(p, beta_hat(p), h_hat(p)), None),
              (ModelParams(p, 0.9, boundary_curves(p, 0.9).C), None)]
    critical = {3: ModelParams(3, 0.55, 0.10), 4: CRITICAL}
    if p in critical:
        points.append((critical[p], "floor"))
    return points


def test_leap_crossing_matches_per_step_crossing(monkeypatch):
    # every start's crossing is tv_curve's, leaps or not; over the grid most
    # blocks are leapt, and some fall back to the per-step push
    rng = np.random.default_rng(20261018)
    blocks = {"leapt": 0, "pushed": 0}  # whole blocks, leapt or certified not
    evolve = LevelKernel.evolve

    def counting(self, mu, steps, target=None, leap_above=None):
        for t, lo, laws, tv in evolve(self, mu, steps, target, leap_above):
            if leap_above is not None and tv is None:
                blocks["leapt"] += 1
            elif leap_above is not None and len(laws) == _BLOCK:
                blocks["pushed"] += 1
            yield t, lo, laws, tv

    monkeypatch.setattr(LevelKernel, "evolve", counting)
    cases = 0
    for p in (3, 4, 5):
        for params, floor in leap_points(p):
            for eps in (0.05, 0.2, 0.35, 0.45):
                N = 2 * int(rng.integers(20, 201))
                k_min = restricted_threshold(params, N) if floor else None
                rep = mixing_time(params, N, eps, 20_000, k_min=k_min)
                for start, t in rep.t_by_start.items():
                    curve = tv_curve(params, N, start, 20_000, eps_stop=eps,
                                     k_min=k_min)
                    want = None if curve.capped else int(curve.ts[-1])
                    assert t == want, (params, N, eps, start)
                    cases += 1
    assert cases == 2 * 4 * 11
    assert blocks["leapt"] > 10 * blocks["pushed"] > 0


@pytest.mark.parametrize("point, N, floored", [
    ((4, 0.054, 0.5), 20, False), ((4, 0.51, 0.184), 150, True),
    ((3, 0.6, 0.2), 1100, False), ((3, 0.55, 0.10), 1000, True),
    ((2, 0.1, 3.0), 90, False)])
def test_band_matches_level_chain_power(point, N, floored):
    # N = 20 holds fewer levels than a band row; the 1101 levels at N = 1100
    # span three build stretches of the band
    params = ModelParams(*point)
    k_min = restricted_threshold(params, N) if floored else None
    kernel = LevelKernel(params, N, lo=k_min)
    power = level_chain_power(params, N, _BLOCK, k_min)
    n = len(kernel.ks)
    assert kernel.band.shape == (n, 2 * _BLOCK + 1) == (len(power), 2 * _BLOCK + 1)
    want = np.zeros_like(kernel.band)
    for j in range(2 * _BLOCK + 1):  # want[k, j] = power[k - m + j, k]
        src = np.arange(n) - _BLOCK + j
        ok = (src >= 0) & (src < n)
        want[ok, j] = power[src[ok], np.flatnonzero(ok)]
    assert np.max(np.abs(kernel.band - want)) <= 1e-14
    # relative too: the farthest sources of a row carry products of 32 rates
    assert np.all(np.abs(kernel.band - want) <= 1e-11 * want)


@pytest.mark.parametrize("point, N, floored", [
    ((4, 0.054, 0.5), 6400, False), ((4, 0.51, 0.184), 3000, True)])
def test_band_invariants_beyond_the_dense_oracle(point, N, floored):
    # sizes no dense power reaches: 6401 levels span 13 build stretches.
    # Each source's column of P^32 sums to 1, and P^32 is reversible with
    # respect to the chain's own law wherever both sides are resolved
    params = ModelParams(*point)
    k_min = restricted_threshold(params, N) if floored else None
    kernel = LevelKernel(params, N, lo=k_min)
    band, n, m = kernel.band, len(kernel.ks), _BLOCK
    pi = np.exp(kernel.log_pi)
    column = np.zeros(n)
    for j in range(2 * m + 1):  # band[k, j] = P^32[i, k], i = k - m + j
        k = np.arange(max(0, m - j), min(n, n + m - j))
        i = k - m + j
        column += np.bincount(i, weights=band[k, j], minlength=n)
        forward, backward = pi[i] * band[k, j], pi[k] * band[i, 2 * m - j]
        both = (forward > 1e-250) & (backward > 1e-250)
        assert both.any() or j in (0, 2 * m)
        assert np.all(np.abs(forward - backward)[both]
                      <= 1e-10 * np.maximum(forward, backward)[both]), j
    assert np.max(np.abs(column - 1.0)) <= 1e-13


@pytest.fixture
def kernels_made(monkeypatch):
    """The LevelKernels built while the test runs, in order, to read their
    work counters."""
    made = []
    init = LevelKernel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(LevelKernel, "__init__", recording)
    return made


def test_leap_certificate_remembers_the_step_change(kernels_made):
    # a one-step change measured at an earlier step bounds every later one,
    # so a fresh push is needed only when the remembered one fails a check
    params, N = ModelParams(4, 0.054, 0.5), 1600
    rep = mixing_time(params, N, 0.35, 1_000_000)
    work = kernels_made[0].work
    leaps = sum(work.leaps.values()) + work.failed_leaps  # every leap made
    assert leaps > 0 and 10 * work.step_changes < leaps, work
    for start, t in rep.t_by_start.items():
        assert t == int(tv_curve(params, N, start, 1_000_000, eps_stop=0.35).ts[-1])


def test_leap_bound_spares_the_tv_of_most_leaps(kernels_made):
    # while TV(t) - m d/2 clears eps, a block is leapt with no TV computed
    # and the bound is carried on: the certificate computes fewer TVs than
    # it takes leaps
    params, N = ModelParams(4, 0.054, 0.5), 1600
    rep = mixing_time(params, N, 0.35, 1_000_000)
    assert rep.t_by_start == {1600: 6083, -1600: 7364}
    work = kernels_made[0].work
    assert 0 < work.tvs < sum(work.leaps.values()), work


def test_rung_built_by_the_cost_rule(kernels_made):
    # the special point leaps long enough to pay for P^64, the regular one
    # never does; either way every crossing is tv_curve's
    for point, N, built in (((4, 1 / 3, H_HAT_4), 1600, True),
                            ((4, 0.054, 0.5), 6400, False)):
        params = ModelParams(*point)
        rep = mixing_time(params, N, 0.35, 1_000_000)
        kernel = kernels_made[-1]
        work = kernel.work
        assert (work.rung_builds, "rung" in vars(kernel)) == (int(built), built)
        assert (work.leaps[2 * _BLOCK] > 0) == built, work
        assert work.leaps[_BLOCK] >= (dynamics._PAYBACK * (N + 1) if built else 1)
        assert 0.0 < work.dropped < work.pushed_blocks + sum(work.leaps.values())
        for start, t in rep.t_by_start.items():
            curve = tv_curve(params, N, start, 1_000_000, eps_stop=0.35)
            assert not curve.capped and t == int(curve.ts[-1]), (point, start)


def every_tv_evolve(kernel, mu, steps, target, level):
    """LevelKernel.evolve with leap_above=level, with the TV of every leapt
    law computed: each whole block is leapt when the mean bound of evolve's
    certificate certifies it, through the longest of the kernel's dense
    powers that it certifies with a fresh one-step change, else with a
    remembered one by 2 _BLOCK steps through the rung where the kernel has
    built it (tried first) or by _BLOCK, and pushed by a one-block evolve
    otherwise.  Run in step with an evolve on the same kernel, it sees the
    rung and each dense power from the block at which that evolve builds
    it.  Yields (t, lo, laws) copies."""
    n, m, eps, cut = len(kernel.ks), _BLOCK, np.finfo(float).eps, kernel.tail_cut
    below = np.concatenate(([0.0], np.cumsum(target)))
    above = np.concatenate((np.cumsum(target[::-1])[::-1], [0.0]))

    def tv_of(lo, law):
        hi = lo + len(law)
        return 0.5 * (float(np.abs(law - target[lo:hi]).sum()) + (below[lo] + above[hi]))

    a, held = live_window(0, mu, cut)
    tv, d, fresh, done = tv_of(a, held), math.inf, -1, 0  # fresh: the step d is from
    dense_steps = 0
    while done < steps:
        leapt = None
        dense = sorted((M for M in kernel._dense if M > 2 * m), reverse=True)
        rungs = [2 * m, m] if "rung" in vars(kernel) else [m]
        for M in dense + rungs if steps - done >= m else ():
            if M > steps - done:
                continue
            if M > 2 * m:
                if fresh != done:
                    d, fresh = kernel._step_change(a, held), done
                rest = (32 * (done + M) + (done + M) // m + 2 * n * (dense_steps + M + 1)) * eps
                if not 0.5 * (tv + 1.0) - 0.25 * M * d > level + rest:
                    continue
                lo, law = 0, held @ kernel._dense[M][a:a + len(held)]
                law /= law.sum()
                tv_end = tv_of(lo, law)
                if 0.5 * (tv + tv_end) - 0.25 * M * d > level + rest:
                    leapt, dense_steps = M, dense_steps + M
                    break
                continue
            rest = (M + 2) * (16 * (done + M) + n + (done + M) // m + 2 * n * dense_steps) * eps

            def clears(tv_end, d):
                return 0.5 * (tv + tv_end) - 0.25 * M * d > level + rest

            if not clears(1.0, d) and fresh != done:
                d, fresh = kernel._step_change(a, held), done
            if not clears(1.0, d):
                continue
            lo, law = kernel.leap(a, held, M)
            tv_end = tv_of(lo, law)
            if not clears(tv_end, d) and fresh != done:
                d, fresh = kernel._step_change(a, held), done
            if clears(1.0, d) and clears(tv_end, d):
                leapt = M
                break
        if leapt:
            tv, done, laws = tv_end, done + leapt, law[None]
        else:
            block = np.zeros(n)
            block[a:a + len(held)] = held
            (t, lo, laws, tvs), = kernel.evolve(block, min(m, steps - done), target=target)
            done, tv = done + t, float(tvs[-1])
        yield done, lo, laws.copy()
        a, held = live_window(lo, laws[-1], cut)


@pytest.mark.parametrize("point, N, start, steps", [
    ((4, 0.054, 0.5), 1600, 1600, 10_005), ((4, 1 / 3, H_HAT_4), 1600, -1600, 45_005),
    ((4, 0.51, 0.184), 200, -200, 60_005)])
def test_leap_bound_keeps_the_laws_of_every_tv_leaps(point, N, start, steps):
    # the bound-first certificate leaps the blocks that the mean bound with
    # every leapt TV computed leaps, rung by rung, so every law it yields is
    # bitwise that reference's: up to the crossing and past it (the regular
    # and special points cross at 6,083 and 41,357 steps), or all the way at
    # the critical point, which crosses at 121,905.  The special and
    # critical points build the rung on the way, the regular one does not,
    # and the critical point its dense powers too
    kernel = LevelKernel(ModelParams(*point), N)
    mu = np.zeros(len(kernel.ks))
    mu[kernel.index(start)] = 1.0
    want = every_tv_evolve(kernel, mu, steps, kernel.gibbs, 0.35)
    leapt = 0
    for (t, lo, laws, tv), (t_ref, lo_ref, laws_ref) in zip(
            kernel.evolve(mu, steps, target=kernel.gibbs, leap_above=0.35), want, strict=True):
        assert (t, lo) == (t_ref, lo_ref) and np.array_equal(laws, laws_ref), t
        leapt += tv is None
    rung = point != (4, 0.054, 0.5)  # the regular point leaps too little
    assert leapt > 100 and (kernel.work.leaps[2 * _BLOCK] > 0) == rung
    assert (max(kernel.work.leaps) > 2 * _BLOCK) == (point == (4, 0.51, 0.184))


# The exact crossings of `mixing_time` (eps 0.05 and 0.35, cap 2e5) at the
# regular, special and critical points, the critical point on its restricted
# floor and a point on U, per order p and size N: the step the per-step push
# reaches, whatever the engine leaps, skips or cuts on the way there
CROSSING_POINTS = {3: (3, 0.55, 0.10), 4: (4, 0.51, 0.184), 5: (5, 0.5, 0.3)}
PINNED_CROSSINGS = {
    (3, "regular", 60): ({60: 248, -60: 295}, {60: 112, -60: 165}),
    (3, "regular", 200): ({200: 960, -200: 1129}, {200: 505, -200: 689}),
    (3, "regular", 400): ({400: 2073, -400: 2424}, {400: 1166, -400: 1536}),
    (3, "regular", 1600): ({1600: 9534, -1600: 10989}, {1600: 5916, -1600: 7410}),
    (3, "special", 60): ({60: None, -60: 781}, {60: 378, -60: 336}),
    (3, "special", 200): ({200: None, -200: 4846}, {200: 2283, -200: 2006}),
    (3, "special", 400): ({400: None, -400: 13918}, {400: 6398, -400: 5627}),
    (3, "special", 1600): ({1600: None, -1600: 115249}, {1600: 50074, -1600: 44616}),
    (3, "critical", 60): ({60: None, -60: 1583}, {60: 1359, -60: 402}),
    (3, "critical", 200): ({200: None, -200: 25407}, {200: 50200, -200: 671}),
    (3, "critical", 400): ({400: None, -400: 3121}, {400: None, -400: 1302}),
    (3, "critical", 1600): ({1600: None, -1600: 11759}, {1600: None, -1600: 6566}),
    (3, "critical floor", 60): ({36: 295, 60: None}, {36: 114, 60: 136}),
    (3, "critical floor", 200): ({120: 2299, 200: None}, {120: 1062, 200: 654}),
    (3, "critical floor", 400): ({240: 6833, 400: 7716}, {240: 3532, 400: 1485}),
    (3, "critical floor", 1600): ({958: 38712, 1600: 19122}, {958: 24631, 1600: 8041}),
    (3, "U", 60): ({60: None, -60: 1219}, {60: 295, -60: 558}),
    (3, "U", 200): ({200: None, -200: 13261}, {200: 782, -200: 5404}),
    (3, "U", 400): ({400: 8695, -400: 40420}, {400: 1624, -400: 17123}),
    (3, "U", 1600): ({1600: 20471, -1600: None}, {1600: 8738, -1600: 119693}),
    (4, "regular", 60): ({60: 255, -60: 295}, {60: 117, -60: 166}),
    (4, "regular", 200): ({200: 981, -200: 1125}, {200: 525, -200: 687}),
    (4, "regular", 400): ({400: 2114, -400: 2410}, {400: 1207, -400: 1529}),
    (4, "regular", 1600): ({1600: 9687, -1600: 10915}, {1600: 6083, -1600: 7364}),
    (4, "special", 60): ({60: None, -60: 740}, {60: 337, -60: 380}),
    (4, "special", 200): ({200: None, -200: 4335}, {200: 2000, -200: 2046}),
    (4, "special", 400): ({400: None, -400: 12207}, {400: 5585, -400: 5511}),
    (4, "special", 1600): ({1600: None, -1600: 98923}, {1600: 43568, -1600: 41357}),
    (4, "critical", 60): ({60: None, -60: 3926}, {60: 5186, -60: 1363}),
    (4, "critical", 200): ({200: None, -200: None}, {200: None, -200: 121905}),
    (4, "critical", 400): ({400: None, -400: None}, {400: None, -400: 3977}),
    (4, "critical", 1600): ({1600: None, -1600: 20363}, {1600: None, -1600: 15676}),
    (4, "critical floor", 60): ({42: 313, 60: None}, {42: 156, 60: 52}),
    (4, "critical floor", 200): ({138: 1976, 200: None}, {138: 1154, 200: 265}),
    (4, "critical floor", 400): ({274: 4782, 400: 2785}, {274: 3048, 400: 679}),
    (4, "critical floor", 1600): ({1096: 23802, 1600: 10220}, {1096: 16812, 1600: 4158}),
    (4, "U", 60): ({60: None, -60: None}, {60: 41, -60: 1095}),
    (4, "U", 200): ({200: 1344, -200: 12846}, {200: 206, -200: 5561}),
    (4, "U", 400): ({400: 2147, -400: 27403}, {400: 565, -400: 13863}),
    (4, "U", 1600): ({1600: 8678, -1600: 164800}, {1600: 3553, -1600: 85685}),
    (5, "regular", 60): ({60: 257, -60: 287}, {60: 120, -60: 160}),
    (5, "regular", 200): ({200: 977, -200: 1090}, {200: 533, -200: 663}),
    (5, "regular", 400): ({400: 2101, -400: 2334}, {400: 1219, -400: 1476}),
    (5, "regular", 1600): ({1600: 9596, -1600: 10562}, {1600: 6097, -1600: 7109}),
    (5, "special", 60): ({60: None, -60: 634}, {60: 307, -60: 324}),
    (5, "special", 200): ({200: None, -200: 3762}, {200: 1806, -200: 1798}),
    (5, "special", 400): ({400: None, -400: 10629}, {400: 5030, -400: 4880}),
    (5, "special", 1600): ({1600: None, -1600: 86510}, {1600: 39148, -1600: 36881}),
    (5, "critical", 60): ({60: None, -60: None}, {60: 0, -60: 2058}),
    (5, "critical", 200): ({200: 830, -200: None}, {200: 95, -200: 143328}),
    (5, "critical", 400): ({400: 1505, -400: None}, {400: 276, -400: None}),
    (5, "critical", 1600): ({1600: 6321, -1600: None}, {1600: 2153, -1600: None}),
    (5, "critical floor", 60): ({42: 355, 60: None}, {42: 211, 60: 0}),
    (5, "critical floor", 200): ({136: 1754, 200: 830}, {136: 1161, 200: 95}),
    (5, "critical floor", 400): ({272: 3957, 400: 1505}, {272: 2741, 400: 276}),
    (5, "critical floor", 1600): ({1082: 19698, 1600: 6321}, {1082: 14479, 1600: 2153}),
    (5, "U", 60): ({60: None, -60: None}, {60: 0, -60: 817}),
    (5, "U", 200): ({200: 742, -200: 8587}, {200: 72, -200: 4262}),
    (5, "U", 400): ({400: 1355, -400: 21020}, {400: 215, -400: 10786}),
    (5, "U", 1600): ({1600: 5870, -1600: 132295}, {1600: 1930, -1600: 68016}),
}


def pinned_point(p, kind):
    """(params, floored) of a PINNED_CROSSINGS row."""
    if kind == "regular":
        return ModelParams(p, 0.054, 0.5), False
    if kind == "special":
        return ModelParams(p, beta_hat(p), h_hat(p)), False
    if kind == "U":
        return ModelParams(p, 0.5, boundary_curves(p, 0.5).U), False
    return ModelParams(*CROSSING_POINTS[p]), kind == "critical floor"


def test_exact_crossings_pinned():
    for (p, kind, N), wants in PINNED_CROSSINGS.items():
        params, floored = pinned_point(p, kind)
        k_min = restricted_threshold(params, N) if floored else None
        for eps, want in zip((0.05, 0.35), wants):
            rep = mixing_time(params, N, eps, 200_000, k_min=k_min)
            assert rep.t_by_start == want, (p, kind, N, eps)
            assert list(rep.t_by_start) == list(want)
            assert rep.capped == (None in want.values()), (p, kind, N, eps)


def test_benchmark_sweep_crossings_pinned():
    # both mix-sweeps of the benchmark's exact-mix workload (eps 0.35, cap 1e6)
    sweeps = {
        (4, 0.054, 0.5): {400: {400: 1207, -400: 1529}, 800: {800: 2728, -800: 3370},
                          1600: {1600: 6083, -1600: 7364},
                          3200: {3200: 13421, -3200: 15977},
                          6400: {6400: 29350, -6400: 34456}},
        (4, 1 / 3, H_HAT_4): {200: {200: 2000, -200: 2046}, 400: {400: 5585, -400: 5511},
                              800: {800: 15598, -800: 15023},
                              1600: {1600: 43568, -1600: 41357}},
    }
    for point, want in sweeps.items():
        got = {N: mixing_time(ModelParams(*point), N, 0.35, 1_000_000) for N in want}
        assert {N: rep.t_by_start for N, rep in got.items()} == want, point
        assert not any(rep.capped for rep in got.values())


def test_projected_tv_equals_dense_full_chain_tv():
    for (p, beta, h, N) in [(3, 0.6, 0.2, 8), (4, 0.51, 0.184, 10),
                            (2, 0.25, 0.0, 9)]:
        params = ModelParams(p, beta, h)
        P, _ = dense_transition_matrix(params, N)
        pi_full = gibbs_full_law(params, N)
        curve = tv_curve(params, N, N, t_max=25)
        mu = np.zeros(1 << N)
        mu[(1 << N) - 1] = 1.0  # all-plus configuration
        for t in range(26):
            tv_full = 0.5 * np.abs(mu - pi_full).sum()
            assert abs(tv_full - curve.tv[t]) < 1e-10
            mu = mu @ P


def test_tv_monotone_on_measured_curves():
    for (p, beta, h, N, stop) in [(4, 0.054, 0.5, 120, 0.05),
                                  (4, 1 / 3, H_HAT_4, 100, 0.2),
                                  (3, 0.6, 0.2, 80, 0.1)]:
        curve = tv_curve(ModelParams(p, beta, h), N, N, t_max=200_000,
                         eps_stop=stop)
        assert not curve.capped
        assert np.all(np.diff(curve.tv) <= 1e-12)


def test_mixing_time_worst_start_and_validation():
    params = ModelParams(4, 0.054, 0.5)
    rep = mixing_time(params, 100, 0.35, cap=10_000)
    assert rep.t_mix == max(v for v in rep.t_by_start.values())
    assert rep.starts == [100, -100]
    assert not rep.capped
    with pytest.raises(DomainError):
        mixing_time(params, 100, 0.6, cap=100)
    with pytest.raises(DomainError):
        mixing_time(params, 100, 0.35, cap=0)


def test_mixing_time_capped_marker():
    rep = mixing_time(ModelParams(4, 0.51, 0.184), 200, 0.35, cap=2_000)
    assert rep.capped and rep.t_mix is None
    assert any(v is None for v in rep.t_by_start.values())


def test_monte_carlo_error_belongs_to_the_slowest_start():
    # the 80 start sets t_mix; the -80 start is examined last
    rep = mixing_time(ModelParams(4, 0.054, -0.5), 80, 0.3, cap=5000,
                      mode=MONTE_CARLO, seed=9, replicas=2000)
    assert rep.starts == [80, -80]
    assert rep.t_by_start == {80: 260, -80: 180} and rep.t_mix == 260
    assert round(rep.stat_error, 6) == 0.010789


def test_monte_carlo_mixing_close_to_exact():
    params = ModelParams(4, 0.054, 0.5)
    exact = mixing_time(params, 150, 0.35, cap=20_000)
    mc = mixing_time(params, 150, 0.35, cap=20_000, mode=MONTE_CARLO,
                     seed=7, replicas=10_000)
    assert mc.method == MONTE_CARLO and mc.stat_error is not None
    # MC checks on a grid of times and its TV estimate is upward-biased
    assert abs(mc.t_mix - exact.t_mix) <= max(0.5 * exact.t_mix, 3 * (150 // 4))


@pytest.mark.parametrize("point, N, want", [
    ((4, 0.054, 0.5), 10, {10: 10, -10: 18}),
    ((4, 0.054, 0.5), 40, {40: 70, -40: 110}),
    ((4, 0.054, -0.5), 80, {80: 240, -80: 180}),
    ((3, 0.5, -0.6), 100, {100: 300, -100: 125}),
])
def test_monte_carlo_at_huge_replicas_is_the_exact_crossing(point, N, want):
    # 10**15 chains, stepped as counts, make the histogram the exact law up
    # to about 1e-7 in TV: the Monte-Carlo crossing is the exact one rounded
    # up to the next checkpoint (a multiple of N // 4), in under 1 MB
    params, every = ModelParams(*point), N // 4
    exact = mixing_time(params, N, 0.35, cap=100_000)
    tracemalloc.start()
    try:
        mc = mixing_time(params, N, 0.35, cap=100_000, mode=MONTE_CARLO,
                         replicas=10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc.t_by_start == want == {
        k: -(-t // every) * every for k, t in exact.t_by_start.items()}
    assert peak < 1 << 20


@pytest.mark.parametrize("replicas", [0, 2**63])
def test_monte_carlo_replica_count_out_of_range_is_a_domain_error(replicas):
    with pytest.raises(DomainError, match="replicas"):
        mixing_time(ModelParams(4, 0.054, 0.5), 10, 0.35, cap=100,
                    mode=MONTE_CARLO, replicas=replicas)


def test_restricted_equals_full_without_restriction():
    params = ModelParams(4, 0.054, 0.5)
    for N in (100, 400):
        assert restricted_threshold(params, N) == -N
        a = restricted_mixing_time(params, N, 0.35, cap=100_000)
        b = mixing_time(params, N, 0.35, cap=100_000)
        assert a.t_mix == b.t_mix
        assert a.t_by_start == b.t_by_start


def test_restricted_starts_are_listed_once():
    # at N <= 4 the floor of (4, 0.9, 0) rounds up to N: one start, N; at
    # N = 5 the floor level 3 lies below it
    params = ModelParams(4, 0.9, 0.0)
    for N in (2, 3, 4):
        assert restricted_threshold(params, N) > N - 2
        rep = restricted_mixing_time(params, N, 0.35, cap=1000)
        assert rep.starts == [N] and list(rep.t_by_start) == [N]
    assert restricted_mixing_time(params, 5, 0.35, cap=1000).starts == [3, 5]


def test_restricted_mixing_scales_like_n_log_n():
    params = ModelParams(4, 0.51, 0.184)
    ratios = []
    for N in (100, 200, 400, 800):
        rep = restricted_mixing_time(params, N, 0.35, cap=1_000_000)
        assert not rep.capped
        ratios.append(rep.t_mix / (N * math.log(N)))
    assert max(ratios) / min(ratios) < 2.0


def floor_climb(params, N):
    """(floor, start, target): from the restriction floor to sqrt(N) above
    the top maximizer."""
    m_plus = find_stationary_points(params)[-1].m
    thr = restricted_threshold(params, N)
    return thr, thr + (thr + N) % 2, math.ceil(N * m_plus + math.sqrt(N))


def test_hitting_time_growth_compatible_with_n_log_n():
    params = ModelParams(3, 0.55, 0.10)
    ratios = {}
    for N in (200, 400, 800):
        thr, start, target = floor_climb(params, N)
        rep = hitting_time(params, N, start, target, k_min=thr)
        ratios[N] = rep.mean_steps / (N * math.log(N))
    vals = list(ratios.values())
    assert max(vals) / min(vals) < 1.6


@pytest.mark.parametrize("point, floored", [
    ((3, 0.55, 0.10), True), ((4, 0.51, 0.184), True),
    ((2, 0.6, 0.0), False), ((4, 0.054, 0.5), False)])
def test_hitting_time_matches_tridiagonal_solve(point, floored):
    params = ModelParams(*point)
    for N in (20, 40):
        k_min = restricted_threshold(params, N) if floored else None
        m_plus = find_stationary_points(params)[-1].m
        for target in (nearest_level(N, m_plus), N - 2, N):
            means = passage_means(params, N, target, k_min)
            assert means
            for k, mean in means.items():
                rep = hitting_time(params, N, k, target, k_min=k_min)
                assert rep.target == target
                assert rep.mean_steps == pytest.approx(mean, rel=1e-9)


def test_hitting_time_is_zero_from_the_target():
    params = ModelParams(3, 0.55, 0.10)
    assert hitting_time(params, 40, 30, 20).mean_steps == 0.0
    assert hitting_time(params, 40, 20, 20).mean_steps == 0.0


def test_hitting_time_beyond_float_range_is_inf(recwarn):
    # across the barrier of the symmetric wells, exp(O(N)) steps
    params = ModelParams(4, 0.9, 0.0)
    assert hitting_time(params, 1000, -1000, 1000).mean_steps > 1e100
    assert hitting_time(params, 4000, -4000, 4000).mean_steps == math.inf
    assert len(recwarn) == 0


def test_hitting_time_agrees_with_replicas():
    params = ModelParams(3, 0.55, 0.10)
    N, R = 200, 200
    thr, start, target = floor_climb(params, N)
    rng = rng_stream(3, 4)
    ks = np.full(R, start, dtype=np.int64)
    hit_at = np.full(R, -1, dtype=np.int64)
    t = 0
    while (hit_at < 0).any():
        t += 1
        ks = replica_step(params, N, ks, rng.random(R), lo=thr)
        hit_at[(hit_at < 0) & (ks >= target)] = t
    se = hit_at.std(ddof=1) / math.sqrt(R)
    exact = hitting_time(params, N, start, target, k_min=thr).mean_steps
    assert abs(exact - hit_at.mean()) <= 4 * se


def test_hitting_time_rejects_levels_outside_the_chain():
    params = ModelParams(3, 0.55, 0.10)
    for start, target, k_min, message in (
            (42, 20, None, "start level 42 invalid"),   # beyond N
            (41, 20, None, "start level 41 invalid"),   # wrong parity
            (-2, 20, 0, "below the restriction floor"),
            (0, 42, None, "target level 42 outside"),
            (0, -42, None, "target level -42 outside")):
        with pytest.raises(DomainError, match=message):
            hitting_time(params, 40, start, target, k_min=k_min)


def test_bottleneck_against_dense_enumeration():
    # conductance over interval cuts computed from the full 2^N chain
    params = ModelParams(3, 0.3, 0.05)
    N = 10
    P, sums = dense_transition_matrix(params, N)
    pi = gibbs_full_law(params, N)
    best = math.inf
    for k in range(-N, N, 2):  # A = {sum <= k}
        in_A = sums <= k
        q = float(pi[in_A] @ P[np.ix_(in_A, ~in_A)].sum(axis=1))
        pa = float(pi[in_A].sum())
        if pa <= 0.5:
            best = min(best, q / pa)
    for k in range(-N + 2, N + 1, 2):  # A = {sum >= k}
        in_A = sums >= k
        q = float(pi[in_A] @ P[np.ix_(in_A, ~in_A)].sum(axis=1))
        pa = float(pi[in_A].sum())
        if pa <= 0.5:
            best = min(best, q / pa)
    rep = bottleneck(params, N)
    assert rep.phi_star == pytest.approx(best, abs=1e-12)


def test_bottleneck_flow_is_finite_where_a_rate_underflows():
    # at h = 400 the down rate 1/(1 + exp(2d)) underflows to 0 at every
    # level, yet every cut's log_Q = log pi(k) + log p_out(k) is finite and
    # agrees with mpmath at 40 digits: the Gibbs weights C(N, (N + k)/2)
    # exp(N (beta c^p + h c)) normalised there, and up(k) = (1 - c)/2 / (1 +
    # exp(-2d)), down(k) = (1 + c)/2 / (1 + exp(2d)), d = p beta c^(p-1) + h
    import mpmath

    p, beta, h, N = 4, 0.5, 400.0, 50
    rep = bottleneck(ModelParams(p, beta, h), N)
    assert len(rep.cuts) == 2 * N
    with mpmath.workdps(40):
        c = {k: mpmath.mpf(k) / N for k in range(-N, N + 1, 2)}
        log_w = {k: mpmath.log(mpmath.binomial(N, (N + k) // 2))
                 + N * (beta * c[k] ** p + h * c[k]) for k in c}
        log_z = mpmath.log(mpmath.fsum(mpmath.exp(w) for w in log_w.values()))
        for cut in rep.cuts:
            k = cut.k
            two_d = 2 * (p * beta * c[k] ** (p - 1) + h)
            if cut.side == "leq":
                log_move = mpmath.log((1 - c[k]) / 2) - mpmath.log1p(mpmath.exp(-two_d))
            else:
                log_move = mpmath.log((1 + c[k]) / 2) - mpmath.log1p(mpmath.exp(two_d))
            want = float(log_w[k] - log_z + log_move)
            assert math.isfinite(cut.log_Q) and math.isfinite(cut.log_ratio)
            assert abs(cut.log_Q - want) <= 1e-12 * abs(want), (cut.side, k)


def test_bottleneck_exponential_at_metastable_point():
    params = ModelParams(4, 0.51, 0.184)
    vals = [bottleneck(params, N).log_phi_star / N for N in (50, 100, 200, 400)]
    assert all(v < 0 for v in vals)
    # decay rate approaches the well's barrier height from below
    from pspin_glauber import free_energy

    pts = find_stationary_points(params)
    barrier = free_energy(params, pts[2].m) - free_energy(params, pts[1].m)
    assert vals[-1] < -barrier
    assert vals == sorted(vals)  # |rate| shrinking toward the barrier


def test_bottleneck_polynomial_at_regular_point():
    params = ModelParams(4, 0.054, 0.5)
    for N in (50, 100, 200, 400):
        rep = bottleneck(params, N)
        assert rep.log_phi_star < 0
        assert abs(rep.log_phi_star) / math.log(N) < 2.0


def test_conductance_lower_bound_on_mixing():
    eps = 0.35
    c_eps = 0.25 - eps / 2
    for (p, beta, h, N) in [(4, 0.51, 0.184, 50), (4, 0.054, 0.5, 60),
                            (3, 0.5, 0.2, 40)]:
        params = ModelParams(p, beta, h)
        rep = mixing_time(params, N, eps, cap=5_000_000)
        phi = bottleneck(params, N).phi_star
        assert rep.t_mix > c_eps / phi


def test_exponent_fit_exact_power():
    ns = [100, 200, 400, 800]
    fit = exponent_fit(ns, [n**1.5 for n in ns])
    assert abs(fit.slope - 1.5) < 1e-10
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_n_log_n_slope():
    ns = list(range(100, 801, 100))
    fit = exponent_fit(ns, [10 * n * math.log(n) for n in ns])
    assert 1.0 < fit.slope < 1.25


def test_exponent_fit_refuses_capped():
    with pytest.raises(ValueError, match="capped"):
        exponent_fit([100, 200, 400], [10.0, 20.0, 40.0],
                     capped=[False, True, False])
    with pytest.raises(ValueError):
        exponent_fit([100, 200], [10.0, 20.0])
    with pytest.raises(ValueError):
        exponent_fit([100, 200, 400], [10.0, float("nan"), 40.0])


def test_error_chain_cubic_contraction_at_degenerate_point():
    # one-step mean |error| shrinks by at least (c/N)|e|^3 near the
    # degenerate maximizer, with c from the third-derivative infimum
    params = ModelParams(4, 1 / 3, H_HAT_4)
    N = 200
    c_star = math.sqrt(0.5)
    xs = np.linspace(c_star, c_star + 0.21, 2001)
    lam3 = np.array([evaluate_potential(params, float(x)).lam3 for x in xs])
    assert np.all(lam3 < 0)
    c_coef = float(np.abs(lam3).min()) / 6.0
    for theta in (0.05, 0.10, 0.15, 0.20):
        k0 = nearest_level(N, c_star + theta)
        e0 = k0 / N - c_star
        rng = rng_stream(11, int(theta * 100))
        ks = simulate_mag_replicas(params, N, np.full(100_000, k0), 1, rng)
        e1 = np.abs(ks / N - c_star)
        se = float(e1.std(ddof=1) / math.sqrt(len(e1)))
        assert float(e1.mean()) <= e0 - (c_coef / N) * e0**3 + 3 * se


def test_boundary_curve_mixing_growth_probe():
    # on the upper boundary curve the measured growth exponent clears the
    # 4/3 lower-bound regime (exploratory scaling check)
    h_b = boundary_curves(4, 0.5).U
    ns, ts = [], []
    for N in (80, 160, 320, 640):
        rep = mixing_time(ModelParams(4, 0.5, h_b), N, 0.35, cap=3_000_000)
        assert not rep.capped
        ns.append(N)
        ts.append(rep.t_mix)
    fit = exponent_fit(ns, ts)
    assert fit.slope >= 1.3
