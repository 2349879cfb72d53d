"""Stationary law, TV evolution, mixing times, bottlenecks, fits."""

import math

import numpy as np
import pytest

from pspin_glauber import (
    MONTE_CARLO,
    DomainError,
    ModelParams,
    beta_hat,
    bottleneck,
    boundary_curves,
    chain_stationary,
    condition_at_least,
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
from pspin_glauber.dynamics import (
    _BLOCK,
    LevelKernel,
    MetastableSpec,
    metastable_sample,
    metastable_sample_law,
    nearest_level,
    rng_stream,
    simulate_mag_replicas,
)
from pspin_glauber.mixing_analysis import _log_binomials
from conftest import (
    dense_transition_matrix,
    enumerate_mag_law,
    exponent_fit,
    gibbs_full_law,
    level_chain_power,
    log_binomials,
    passage_means,
    slow_eigenvalues,
)

H_HAT_4 = 0.40996906622851137


def test_stationary_mag_matches_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(8):
        N = int(rng.integers(3, 15))
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 1.2)),
                             float(rng.uniform(-1, 1)))
        dist = stationary_mag(params, N)
        oracle = enumerate_mag_law(params, N)
        assert 0.5 * np.abs(dist.probs - oracle).sum() < 1e-12


def test_stationary_mag_weak_coupling_is_binomial():
    from scipy.stats import binom

    N = 40
    dist = stationary_mag(ModelParams(4, 1e-12, 0.0), N)
    ref = binom.pmf(np.arange(N + 1), N, 0.5)
    assert np.max(np.abs(dist.probs - ref)) < 1e-13


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
    # on C at p = 3 the TV between the chain's own law and the Gibbs law
    # stays near 0.175 and rises with N: no eps below it is ever reached
    params = ModelParams(3, 0.55, 0.11215788999510065)
    floors = [0.5 * float(np.abs(chain_stationary(params, N).probs
                                 - stationary_mag(params, N).probs).sum())
              for N in (400, 6400)]
    assert all(0.17 <= f <= 0.18 for f in floors), floors
    assert floors[1] >= floors[0], floors


def test_stationary_mag_mode_tracks_maximizer():
    params = ModelParams(4, 0.054, 0.5)
    m_star = find_stationary_points(params)[0].m
    N = 400
    dist = stationary_mag(params, N)
    k_mode = int(dist.ks[np.argmax(dist.probs)])
    assert abs(k_mode - N * m_star) <= 4  # within two levels


def test_conditioning():
    params = ModelParams(4, 0.51, 0.184)
    dist = stationary_mag(params, 100)
    mu = condition_at_least(dist, 40)
    assert mu.ks[0] == 40
    assert mu.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert condition_at_least(dist, -100) is dist
    with pytest.raises(DomainError):
        condition_at_least(dist, 102)


def test_tv_curve_initial_value():
    params = ModelParams(3, 1e-9, 0.0)
    N = 12
    dist = stationary_mag(params, N)
    start = int(dist.ks[np.argmax(dist.probs)])
    curve = tv_curve(params, N, start, t_max=0)
    assert curve.tv[0] == pytest.approx(1.0 - dist.probs[(start + N) // 2],
                                        abs=1e-14)


def per_step_tv(params, N, start_k, t_max, eps_stop=0.0, k_min=None):
    """TV curve by one LevelKernel.push and one renormalisation per step."""
    k_min = -N if k_min is None else k_min
    kernel = LevelKernel(params, N, lo=k_min)
    pi = condition_at_least(stationary_mag(params, N), k_min).probs
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
    pi = stationary_mag(params, N).probs
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
    """Counts the steps exact mixing advances: those LevelKernel.evolve
    pushes and the _BLOCK steps of each certified leap, read from the steps
    done that each block yields."""
    count = [0]
    evolve = LevelKernel.evolve

    def counting(self, mu, steps, target=None, leap_above=None):
        done = 0
        for t, lo, laws, tv in evolve(self, mu, steps, target, leap_above):
            count[0] += t - done
            done = t
            yield t, lo, laws, tv

    monkeypatch.setattr(LevelKernel, "evolve", counting)
    return count


def leap_kernel(kind):
    """(kernel, target, start level, eps) for test_evolve_leaps_match_pushed_laws."""
    if kind == "regular":
        params, N = ModelParams(4, 0.054, 0.5), 800
        return LevelKernel(params, N), stationary_mag(params, N).probs, N, 0.35
    if kind == "critical floor":
        N = 200
        floor = restricted_threshold(CRITICAL, N)
        target = condition_at_least(stationary_mag(CRITICAL, N), floor).probs
        kernel = LevelKernel(CRITICAL, N, lo=floor)
        return kernel, target, int(kernel.ks[0]), 0.35
    params, N = ModelParams(4, 0.9, 0.0), 400  # the sampler's upper window
    _, report = metastable_sample(MetastableSpec(params=params, N=N, burn_steps=0))
    kernel = LevelKernel(params, N, *report.windows[-1])
    return kernel, np.exp(kernel.log_pi), int(kernel.ks[0]), 0.05


@pytest.mark.parametrize("kind", ["regular", "critical floor", "sampler window"])
def test_evolve_leaps_match_pushed_laws(kind):
    # every row a leaping evolve yields is the per-step push's law at its
    # step; a leapt block is one row _BLOCK steps on, with every step's TV
    # above the level; law_after, which leaps every whole block, ends at the
    # push's law too
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
            assert t - done == _BLOCK and len(laws) == 1
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


def test_slow_spectrum_matches_sturm_oracle():
    spec = LevelKernel(CRITICAL, 200).spectrum
    lam2, lam3 = slow_eigenvalues(4, 0.51, 0.184, 200)
    assert 5.72e-7 < 1.0 - lam2 < 5.74e-7
    assert abs(spec.lam2 - lam2) <= spec.err <= 1e-14
    # lam3 is bounded from above, within 1/64 in log(1 - lam3)
    assert lam3 <= spec.lam3 == spec.rho < spec.lam2
    assert abs(math.log((1.0 - spec.lam3) / (1.0 - lam3))) <= 1 / 64
    assert abs(np.linalg.norm(spec.v2) - 1.0) <= 1e-15


def test_closed_form_finish_matches_per_step_crossing(pushed_steps):
    # the finish engages (far fewer steps are pushed than it reports) and
    # lands on the step where the pushed TV curve first reaches eps
    for N, start, cap, want in ((200, -200, 130_000, 121_905),
                                (100, 100, 50_000, 39_097)):
        pushed_steps[0] = 0
        rep = mixing_time(CRITICAL, N, 0.35, cap, starts=(start,))
        assert rep.t_by_start == {start: want} and pushed_steps[0] < want / 2
        curve = tv_curve(CRITICAL, N, start, cap, eps_stop=0.35)
        assert not curve.capped and int(curve.ts[-1]) == want


def test_finish_tried_before_the_slow_mode_dominates():
    # the first try comes while faster modes still move TV; the remainder
    # bound must keep the ray from answering, so the pushed crossing stands
    for params, N, eps in ((ModelParams(4, 1 / 3, H_HAT_4), 200, 0.35),
                           (ModelParams(3, 0.6, 0.2), 80, 0.1)):
        rep = mixing_time(params, N, eps, 100_000)
        for start, t in rep.t_by_start.items():
            curve = tv_curve(params, N, start, 100_000, eps_stop=eps)
            assert t == int(curve.ts[-1]), (params, start)


def test_closed_form_finish_caps_both_critical_starts(pushed_steps):
    rep = mixing_time(CRITICAL, 200, 0.35, 100_000)
    assert rep.capped and rep.t_mix is None
    assert rep.t_by_start == {200: None, -200: None}
    assert pushed_steps[0] < 25_000  # of the 200,000 a full push takes
    # past the cap: the crossings a 2e7-step push finds
    rep = mixing_time(CRITICAL, 200, 0.35, 10**8)
    assert rep.t_by_start == {200: 3_600_420, -200: 121_905}


def test_uncertified_finish_pushes_to_the_cap(pushed_steps):
    # symmetric wells at h = 0: 1 - lam2 is below the eigenvalue error, so
    # no certificate holds and every step up to the cap is pushed
    params = ModelParams(4, 0.9, 0.0)
    spec = LevelKernel(params, 100).spectrum
    assert spec.lam2 >= 1.0 - 2 * spec.err
    rep = mixing_time(params, 100, 0.35, 5_000)
    assert pushed_steps[0] == 10_000
    assert rep.capped and rep.t_by_start == {100: None, -100: None}


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


def test_leap_certificate_remembers_the_step_change(monkeypatch):
    # a one-step change measured at an earlier step bounds every later one,
    # so a fresh push is needed only when the remembered one fails a check
    calls = {"push": 0, "leap": 0}
    for name in calls:
        method = getattr(LevelKernel, name)

        def counted(self, *args, name=name, method=method):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(LevelKernel, name, counted)
    params, N = ModelParams(4, 0.054, 0.5), 1600
    rep = mixing_time(params, N, 0.35, 1_000_000)
    assert calls["leap"] > 0 and 10 * calls["push"] < calls["leap"], calls
    for start, t in rep.t_by_start.items():
        assert t == int(tv_curve(params, N, start, 1_000_000, eps_stop=0.35).ts[-1])


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
    assert rep.t_by_start == {80: 260, -80: 200} and rep.t_mix == 260
    assert round(rep.stat_error, 6) == 0.010793


def test_monte_carlo_mixing_close_to_exact():
    params = ModelParams(4, 0.054, 0.5)
    exact = mixing_time(params, 150, 0.35, cap=20_000)
    mc = mixing_time(params, 150, 0.35, cap=20_000, mode=MONTE_CARLO,
                     seed=7, replicas=10_000)
    assert mc.method == MONTE_CARLO and mc.stat_error is not None
    # MC checks on a grid of times and its TV estimate is upward-biased
    assert abs(mc.t_mix - exact.t_mix) <= max(0.5 * exact.t_mix, 3 * (150 // 4))


def test_restricted_equals_full_without_restriction():
    params = ModelParams(4, 0.054, 0.5)
    for N in (100, 400):
        assert restricted_threshold(params, N) == -N
        a = restricted_mixing_time(params, N, 0.35, cap=100_000)
        b = mixing_time(params, N, 0.35, cap=100_000)
        assert a.t_mix == b.t_mix
        assert a.t_by_start == b.t_by_start


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
        _, traj = simulate_mag_replicas(params, N, ks, 100, rng, lo=thr,
                                        record_every=1)
        for s in range(1, len(traj)):
            hit_at[(hit_at < 0) & (traj[s] >= target)] = t + s
        ks, t = traj[-1], t + 100
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
