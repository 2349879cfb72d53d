"""Chain steps, exact kernel, couplings, restricted dynamics, sampler."""

import math

import numpy as np
import pytest

from pspin_glauber import (
    CouplingSpec,
    DomainError,
    LevelKernel,
    MetastableSpec,
    ModelParams,
    RunSpec,
    SpinConfig,
    boundary_curves,
    chain_stationary,
    condition_at_least,
    find_stationary_points,
    hitting_time,
    kernel_arrays,
    mean_field_map,
    metastable_sample,
    mixing_time,
    restricted_threshold,
    rng_stream,
    run_chain,
    run_coupling,
    stationary_mag,
    tv_curve,
)
from pspin_glauber.dynamics import (
    _sigmoid,
    coupling_csv,
    flip_up_probability,
    metastable_sample_law,
    metastable_sample_sums,
    nearest_level,
    simulate_mag_replicas,
)

from conftest import balance_defects, cosh_tilted_log_level_law, flip_up_table


def test_kernel_row_boundaries():
    kernel = LevelKernel(ModelParams(4, 0.7, 0.3), 50)
    assert kernel.ks[-1] == 50 and kernel.up[-1] == 0.0
    assert kernel.ks[0] == -50 and kernel.down[0] == 0.0


def test_kernel_zero_field_symmetry_at_origin():
    for p in (2, 3, 4, 5):
        kernel = LevelKernel(ModelParams(p, 0.8, 0.0), 100)
        assert kernel.ks[50] == 0 and kernel.up[50] == kernel.down[50]


def test_kernel_rows_are_probability_vectors():
    rng = np.random.default_rng(5)
    for _ in range(30):
        params = ModelParams(int(rng.integers(2, 7)),
                             float(rng.uniform(0.05, 2.0)),
                             float(rng.uniform(-3.0, 3.0)))
        N = int(rng.integers(2, 200))
        up, down, stay = kernel_arrays(params, N)
        assert np.all(up >= 0) and np.all(down >= 0) and np.all(stay >= 0)
        assert np.max(np.abs(up + down + stay - 1.0)) <= 1e-15


def test_level_kernel_restriction_clamps_and_folds():
    params = ModelParams(4, 0.51, 0.184)
    N = 60
    full = LevelKernel(params, N)
    wide = LevelKernel(params, N, lo=-N - 7, hi=N + 9)
    assert (wide.lo, wide.hi) == (-N, N)
    for name in ("up", "down", "stay", "f_up", "p_minus", "ks"):
        assert np.array_equal(getattr(wide, name), getattr(full, name)), name
    assert full.down[0] == 0.0 and full.up[-1] == 0.0
    for table, name in zip(kernel_arrays(params, N), ("up", "down", "stay")):
        assert np.array_equal(table, getattr(full, name)), name

    window = LevelKernel(params, N, lo=-13, hi=21)
    assert list(window.ks) == list(range(-12, 21, 2))
    i0, i1 = (-12 + N) // 2, (20 + N) // 2
    assert window.down[0] == 0.0 and window.up[-1] == 0.0
    assert window.stay[0] == full.stay[i0] + full.down[i0]
    assert window.stay[-1] == full.stay[i1] + full.up[i1]
    assert np.array_equal(window.up[:-1], full.up[i0:i1])
    assert np.array_equal(window.down[1:], full.down[i0 + 1:i1 + 1])
    assert np.max(np.abs(window.up + window.down + window.stay - 1.0)) <= 1e-15
    mu = np.full(len(window.ks), 1.0 / len(window.ks))
    assert abs(window.push(mu).sum() - 1.0) <= 1e-15
    with pytest.raises(DomainError):
        LevelKernel(params, N, lo=3, hi=3)  # no level of N's parity
    with pytest.raises(DomainError):
        LevelKernel(params, N, lo=N + 1)


def test_level_kernel_index_of_a_restriction():
    window = LevelKernel(ModelParams(4, 0.51, 0.184), 60, lo=-13, hi=21)
    assert [window.index(int(k)) for k in window.ks] == list(range(len(window.ks)))
    for k, message in ((62, "start level 62 invalid for N=60"),
                       (7, "start level 7 invalid"),    # wrong parity
                       (-14, "below the restriction floor"),
                       (22, "above the restriction ceiling")):
        with pytest.raises(DomainError, match=message):
            window.index(k)


def test_level_kernel_table_matches_closed_form_rate():
    for (p, beta, h, N) in [(2, 0.25, 0.0, 9), (4, 0.51, 0.184, 200),
                            (5, 0.7, -0.3, 41), (7, 1.1, 0.05, 30)]:
        params = ModelParams(p, beta, h)
        f_up = LevelKernel(params, N).f_up
        assert np.max(np.abs(f_up - flip_up_table(params, N))) <= 1e-15


def _ulps(a, b):
    """Distance in units in the last place between non-negative doubles."""
    return np.abs(np.asarray(a, float).view(np.int64) - np.asarray(b, float).view(np.int64))


def test_kernel_tables_match_expit_within_4_ulp():
    from scipy.special import expit

    x = np.linspace(-800.0, 800.0, 160_001)
    ours, ref = _sigmoid(x), expit(x)
    # exp(-x) overflows below -log(DBL_MAX): the sigmoid is then exactly 0,
    # where expit still returns a subnormal or 0
    overflow = x < -np.log(np.finfo(float).max)
    assert np.all(ours[overflow] == 0.0) and np.all(ref[overflow] < np.finfo(float).tiny)
    assert _ulps(ours[~overflow], ref[~overflow]).max() <= 4
    for params in (ModelParams(4, 0.054, 0.5), ModelParams(4, 1.0 / 3.0, 0.40996906622851137),
                   ModelParams(4, 0.51, 0.184), ModelParams(4, 0.9, 0.0)):
        for N in (100, 400, 1600, 6400):
            kernel = LevelKernel(params, N)
            c = kernel.ks / N
            d = params.p * params.beta * c ** (params.p - 1) + params.h
            f_up = expit(2.0 * d)
            up, down = 0.5 * (1.0 - c) * f_up, 0.5 * (1.0 + c) * expit(-2.0 * d)
            for table, oracle in ((kernel.f_up, f_up), (kernel.up, up),
                                  (kernel.down, down)):
                assert np.array_equal(table == 0.0, oracle == 0.0), (params, N)
                assert _ulps(table, oracle).max() <= 4, (params, N)


def test_kernel_parity_rejection():
    # a start level of the wrong parity or out of range has no kernel row
    params = ModelParams(4, 0.5, 0.0)
    for k in (3, 12):
        with pytest.raises(DomainError):
            tv_curve(params, 10, k, 10)
        with pytest.raises(DomainError):
            mixing_time(params, 10, 0.35, 10, starts=(k,))


def test_detailed_balance_against_gibbs_law():
    """Detailed balance of the kernel against the Gibbs level law.

    The update rate tanh(p*beta*c^(p-1) + h) uses the full current
    magnetization, so the chain is not Gibbs-reversible.  At p = 2 it is
    exactly reversible w.r.t. the Gibbs law tilted by cosh(2*beta*c + h);
    at every p the defect against the Gibbs law itself is relative O(1/N)
    and halves with each doubling of N.  Restriction only rewires the
    diagonal, so the conditioned Gibbs law carries exactly the edge defects
    of the full one on the kept edges.
    """
    for (p, beta, h, N) in [(2, 0.25, 0.0, 100), (4, 0.054, 0.5, 200),
                            (4, 0.51, 0.184, 100), (3, 0.6, 0.2, 150)]:
        params = ModelParams(p, beta, h)
        up, down, _ = kernel_arrays(params, N)
        if p == 2:
            tilted = balance_defects(cosh_tilted_log_level_law(params, N),
                                     up, down)
            assert np.abs(tilted).max() <= 1e-12, (p, beta, h, N)
        worst = []
        for n in (N, 2 * N, 4 * N):
            up_n, down_n, _ = kernel_arrays(params, n)
            defects = balance_defects(stationary_mag(params, n).log_weights,
                                      up_n, down_n)
            worst.append(float(np.abs(defects).max()))
        ratios = [worst[0] / worst[1], worst[1] / worst[2]]
        assert all(1.8 <= r <= 2.2 for r in ratios), ((p, beta, h, N), worst)

        dist = stationary_mag(params, N)
        thr = restricted_threshold(params, N)
        mu = condition_at_least(dist, thr)
        i0 = (max(thr, -N) + N + 1) // 2
        full = balance_defects(np.log(dist.probs), up, down)
        kept = balance_defects(np.log(mu.probs), up[i0:], down[i0:])
        assert np.abs(kept - full[i0:]).max() <= 1e-12, (p, beta, h, N, thr)


def test_chain_stationary_is_exactly_reversible():
    """pi_chain(k) up(k) = pi_chain(k+2) down(k+2) on every edge.

    At the points of criterion 8a; at p = 2 the chain law is the cosh-tilted
    Gibbs law in closed form, and restricted it is the chain law conditioned
    on the floor.  Its TV to the Gibbs law at the critical point is the
    0.30 floor the README quotes.
    """
    for (p, beta, h, N) in [(4, 0.054, 0.5, 200), (4, 0.51, 0.184, 100),
                            (2, 0.25, 0.0, 100)]:
        params = ModelParams(p, beta, h)
        up, down, _ = kernel_arrays(params, N)
        chain = chain_stationary(params, N)
        assert np.abs(balance_defects(chain.log_weights, up, down)).max() <= 1e-12
        assert abs(chain.probs.sum() - 1.0) <= 1e-14
        if p == 2:
            tilted = cosh_tilted_log_level_law(params, N)
            assert np.abs(chain.log_weights - tilted).max() <= 1e-12
        thr = restricted_threshold(params, N)
        kept = LevelKernel(params, N, lo=thr)
        conditioned = condition_at_least(chain, thr)
        assert np.abs(np.exp(kept.log_pi) - conditioned.probs).max() <= 1e-15
    critical = ModelParams(4, 0.51, 0.184)
    floor = 0.5 * np.abs(chain_stationary(critical, 100).probs
                         - stationary_mag(critical, 100).probs).sum()
    assert round(floor, 2) == 0.30


def test_log_pi_where_the_rates_underflow():
    # where |2d| exceeds about 745, up or down underflows to 0 and the log of
    # their ratio would be -inf - -inf; the law comes from log-space rates
    # then, against the closed form of the chain law at p = 2
    for (p, beta, h, N) in [(2, 200, 0.0, 50), (2, 200, 0.5, 50), (2, 300, -1.0, 80)]:
        params = ModelParams(p, beta, h)
        kernel = LevelKernel(params, N)
        assert (kernel.up[:-1] == 0.0).any()
        tilted = cosh_tilted_log_level_law(params, N)
        assert np.all(np.abs(kernel.log_pi - tilted) <= 1e-11 * np.maximum(1.0, np.abs(tilted)))
    # deep symmetric wells: every rate near the ends underflows, and half the
    # mass sits at each of -N and N, up to the rounding of a log cumsum
    # whose partial sums reach -5.4e7
    params = ModelParams(4, 1e6, 0.0)
    kernel = LevelKernel(params, 50)
    assert np.isfinite(kernel.log_pi).all()
    probs = chain_stationary(params, 50).probs
    assert not np.isnan(probs).any()
    assert abs(probs[0] - 0.5) <= 1e-9 and abs(probs[-1] - 0.5) <= 1e-9
    mean = hitting_time(params, 50, -50, 0).mean_steps
    assert mean == math.inf or math.isfinite(mean)


def test_step_full_strong_field_pins_spins():
    params = ModelParams(3, 0.5, 50.0)
    kernel = LevelKernel(params, 64)
    spins, k = [1] * 64, 64
    for sites, us in kernel.draws(rng_stream(1, 0), 2000):
        k, _, _ = kernel.walk(spins, k, sites, us)
    assert k == 64 and spins == [1] * 64
    # the one-step flip probability itself is vanishing
    assert kernel.ks[-1] == 64 and kernel.down[-1] < 1e-20


def test_step_full_frequencies_match_kernel():
    # one-step transition frequencies from a fixed level, 1e6 trials
    params = ModelParams(4, 0.4, 0.2)
    N, k = 50, 10
    R = 1_000_000
    kernel = LevelKernel(params, N)
    spins = SpinConfig.from_magnetization(N, k).spins.tolist()
    sums = np.empty(R, dtype=np.int64)
    r = 0
    for sites, us in kernel.draws(rng_stream(9, 4), R):
        for t in range(len(us)):  # a one-step walk per trial, from (spins, k)
            sums[r], _, _ = kernel.walk(spins.copy(), k, sites[t:t + 1], us[t:t + 1])
            r += 1
    assert r == R
    at = (k + N) // 2
    for delta, prob in ((2, kernel.up[at]), (-2, kernel.down[at]), (0, kernel.stay[at])):
        freq = float(np.mean(sums == k + delta))
        se = math.sqrt(prob * (1 - prob) / R)
        assert abs(freq - prob) <= 3 * se + 1e-9


def test_chain_transitions_chi_square():
    # pooled transition counts of the full-spin chain at the five most
    # visited levels against the exact kernel rows, 1e6 steps
    from scipy.stats import chi2

    params = ModelParams(4, 0.054, 0.5)
    N, R, steps = 100, 100, 10_000
    f_up = flip_up_table(params, N)
    kernel = LevelKernel(params, N)
    spins = np.tile(SpinConfig.from_magnetization(N, 0).spins, (R, 1))
    sums = spins.sum(axis=1).astype(np.int64)
    rows = np.arange(R)
    rng = rng_stream(17, 0)
    counts: dict[int, list] = {}
    for _ in range(steps):
        u = rng.random((2, R))
        sites = (u[0] * N).astype(np.int64)
        up = u[1] <= f_up[(sums + N) >> 1]
        new = np.where(up, 1, -1).astype(np.int8)
        delta = (new - spins[rows, sites]).astype(np.int64)
        for lv in np.unique(sums):
            d = delta[sums == lv]
            c = counts.setdefault(int(lv), [0, 0, 0])
            c[0] += int((d == 2).sum())
            c[1] += int((d == -2).sum())
            c[2] += int((d == 0).sum())
        spins[rows, sites] = new
        sums += delta
    totals = {k: sum(v) for k, v in counts.items()}
    stat = 0.0
    dof = 0
    for lv in sorted(totals, key=totals.get, reverse=True)[:5]:
        i = (lv + N) // 2
        expected = np.array([kernel.up[i], kernel.down[i], kernel.stay[i]]) * totals[lv]
        observed = np.array(counts[lv], dtype=float)
        keep = expected > 5
        stat += float(((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        dof += int(keep.sum()) - 1
    p_value = 1.0 - chi2.cdf(stat, dof)
    assert p_value > 0.001


def test_run_chain_deterministic():
    spec = RunSpec(params=ModelParams(4, 0.5, 0.1), N=40, start="all_plus",
                   steps=500, seed=42, record_every=10)
    a = run_chain(spec)
    b = run_chain(spec)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.mag_sums, b.mag_sums)


def test_run_chain_matches_one_step_at_a_time_loop():
    # chunked draws and table lookups reproduce, bit for bit, a loop that
    # draws two uniforms and evaluates the rate at every step; 20000 steps
    # cross a draw-chunk boundary and the floor binds
    params = ModelParams(4, 0.51, 0.184)
    N, steps = 60, 20_000
    floor = restricted_threshold(params, N)
    for threshold in (None, floor):
        trace = run_chain(RunSpec(params=params, N=N, steps=steps, seed=5,
                                  threshold=threshold))
        rng = rng_stream(5, 0)
        spins, k, sums = [1] * N, N, [N]
        for _ in range(steps):
            u_site, u_spin = rng.random(2)
            i = int(u_site * N)
            new = 1 if u_spin <= flip_up_probability(params, k / N) else -1
            if threshold is None or k + new - spins[i] >= threshold:
                k += new - spins[i]
                spins[i] = new
            sums.append(k)
        assert trace.mag_sums.tolist() == sums
    assert min(sums) == floor


def test_step_restricted_rejects_at_floor():
    # strong negative field forces down-proposals; the floor rejects them
    params = ModelParams(2, 0.1, -50.0)
    N = 40
    kernel = LevelKernel(params, N, lo=0)
    spins, k = SpinConfig.from_magnetization(N, 0).spins.tolist(), 0
    rejected = 0
    for sites, us in kernel.draws(rng_stream(3, 1), 500):
        for t in range(len(us)):  # one step at a time, to check every state
            k, r, _ = kernel.walk(spins, k, sites[t:t + 1], us[t:t + 1])
            rejected += r
            assert k >= 0 and sum(spins) == k
    assert k == 0  # up-moves have probability ~e^-100
    assert rejected > 0


def test_step_restricted_validates_start():
    params = ModelParams(4, 0.5, 0.0)
    with pytest.raises(DomainError):
        run_chain(RunSpec(params=params, N=20, start=-10, steps=1, threshold=0))
    with pytest.raises(DomainError):  # a start of the wrong size
        run_chain(RunSpec(params=params, N=20, start=SpinConfig.all_plus(10),
                          steps=1))


def test_unrestricted_threshold_is_identity():
    params = ModelParams(4, 0.6, 0.1)
    N = 30
    a = run_chain(RunSpec(params=params, N=N, start="all_minus", steps=400,
                          seed=7, threshold=-N))
    b = run_chain(RunSpec(params=params, N=N, start="all_minus", steps=400,
                          seed=7, threshold=None))
    assert np.array_equal(a.mag_sums, b.mag_sums)


def test_restricted_threshold_values():
    params = ModelParams(4, 0.51, 0.184)
    pts = find_stationary_points(params)
    N = 100
    thr = restricted_threshold(params, N)
    sums = [s.m * N for s in pts]
    assert sums[0] < thr <= sums[-1]
    assert thr == math.ceil(N * pts[1].m)
    # single-well landscape: no restriction
    assert restricted_threshold(ModelParams(4, 0.054, 0.5), N) == -N


def test_restricted_long_run_matches_conditioned_law():
    # deep two-well landscape: the restricted chain's histogram against the
    # conditioned stationary level law over 1e7 pooled steps
    params = ModelParams(3, 1.2, 0.0)
    N = 300
    thr = restricted_threshold(params, N)
    mu = condition_at_least(stationary_mag(params, N), thr)
    R, steps, burn = 250, 44_000, 4_000
    rng = rng_stream(7, 2)
    k0 = thr + (thr + N) % 2
    _, traj = simulate_mag_replicas(params, N, np.full(R, k0), steps, rng,
                                    lo=thr, record_every=1)
    samples = traj[burn:].ravel()
    hist = np.zeros_like(mu.probs)
    vals, counts = np.unique(samples, return_counts=True)
    idx = {int(k): i for i, k in enumerate(mu.ks)}
    for v, ct in zip(vals.tolist(), counts.tolist()):
        hist[idx[v]] += ct
    hist /= hist.sum()
    tv = 0.5 * float(np.abs(hist - mu.probs).sum())
    assert tv < 0.02


def test_coupling_identical_starts_stay_identical():
    spec = CouplingSpec(params=ModelParams(4, 0.5, 0.1), N=30,
                        start_x="all_plus", start_y="all_plus", steps=300,
                        seed=11)
    trace = run_coupling(spec)
    assert trace.coalesced_at == 0
    assert np.all(trace.hamming == 0)
    assert np.all(np.diff(trace.untouched) <= 0)
    csv = coupling_csv(trace)
    assert csv.startswith("t,mag_sum,hamming,untouched\n")
    for bad in ({"steps": -1}, {"record_every": 0}):
        with pytest.raises(DomainError):
            CouplingSpec(params=spec.params, N=30, **bad)


def _coupled_loop(params, N, x, y, steps, seed):
    """Two chains one step at a time on shared draws, two uniforms a step:
    every step's (hamming, untouched, kx, ky), counted from the spins."""
    f = {}
    rng = rng_stream(seed, 0)
    x, y = x.copy(), y.copy()
    touched = set()
    rows = [(int(np.count_nonzero(x != y)), N, int(x.sum()), int(y.sum()))]
    for _ in range(steps):
        u_site, u_spin = rng.random(2)
        i = int(u_site * N)
        touched.add(i)
        for z in (x, y):
            k = int(z.sum())
            if k not in f:
                f[k] = flip_up_probability(params, k / N)
            z[i] = 1 if u_spin <= f[k] else -1
        rows.append((int(np.count_nonzero(x != y)), N - len(touched),
                     int(x.sum()), int(y.sum())))
    return np.array(rows)


def test_run_coupling_matches_two_chain_loop():
    # the chunked walk and its numpy bookkeeping against a per-step loop;
    # 20000 steps cross a draw-chunk boundary at 16384, the starts are not
    # constant, and the pairs meet in the first chunk and in the second
    N, steps = 60, 20_000
    rng = np.random.default_rng(3)
    mixed = [SpinConfig(spins=s, sum=int(s.sum())) for s in
             (np.where(rng.random(N) < q, 1, -1).astype(np.int8) for q in (0.8, 0.2))]
    cases = ((ModelParams(3, 0.05, 0.1), SpinConfig.from_magnetization(N, 10),
              SpinConfig.from_magnetization(N, -20)),
             (ModelParams(4, 0.9, 0.0), *mixed))
    met = []
    for params, x, y in cases:
        rows = _coupled_loop(params, N, x.spins, y.spins, steps, seed=6)
        hits = np.flatnonzero(rows[:, 0] == 0)
        met.append(int(hits[0]) if hits.size else None)
        for every in (1, 3, 7):
            trace = run_coupling(CouplingSpec(params=params, N=N, start_x=x, start_y=y,
                                              steps=steps, seed=6, record_every=every))
            want = rows[::every]
            assert trace.times.tolist() == list(range(0, steps + 1, every))
            assert trace.hamming.tolist() == want[:, 0].tolist()
            assert trace.untouched.tolist() == want[:, 1].tolist()
            assert trace.mags_x.tolist() == want[:, 2].tolist()
            assert trace.mags_y.tolist() == want[:, 3].tolist()
            assert trace.coalesced_at == met[-1]
    assert 0 < met[0] < 1 << 14 < met[1] < steps


def test_metastable_sample_matches_one_step_at_a_time_loop():
    # final sums and acceptance rates of a window that rejects moves, over
    # 20000 steps (two draw chunks), against a loop drawing two uniforms a step
    params, N, burn = ModelParams(4, 0.51, 0.184), 200, 20_000
    spec = MetastableSpec(params=params, N=N, burn_steps=burn, seed=2)
    _, report = metastable_sample(spec)
    f = {}
    for w, (m, (lo, hi)) in enumerate(zip(report.maximizers, report.windows)):
        k = nearest_level(N, m)
        spins = SpinConfig.from_magnetization(N, k).spins.tolist()
        rng, rejected = rng_stream(2, 1, w), 0
        for _ in range(burn):
            u_site, u_spin = rng.random(2)
            i = int(u_site * N)
            if k not in f:
                f[k] = flip_up_probability(params, k / N)
            new = 1 if u_spin <= f[k] else -1
            if lo <= k + new - spins[i] <= hi:
                k += new - spins[i]
                spins[i] = new
            else:
                rejected += 1
        assert report.final_sums[w] == k
        assert report.acceptance_rates[w] == 1.0 - rejected / burn
        assert rejected > 0


def test_untouched_sites_match_collector_formula():
    # E L_t = N (1 - 1/N)^t; check at t = N over 1e4 independent site streams
    N, R = 100, 10_000
    rng = rng_stream(21, 0)
    sites = (rng.random((N, R)) * N).astype(np.int64)
    touched = np.zeros((R, N), dtype=bool)
    for t in range(N):
        touched[np.arange(R), sites[t]] = True
    L = N - touched.sum(axis=1)
    exact = N * (1 - 1 / N) ** N
    se = L.std(ddof=1) / math.sqrt(R)
    assert abs(L.mean() - exact) <= 3 * se
    # and the coupling trace accounts untouched sites consistently
    trace = run_coupling(CouplingSpec(params=ModelParams(3, 0.3, 0.0), N=50,
                                      steps=50, seed=13))
    assert trace.untouched[-1] >= 50 - 50  # non-negative by construction
    assert trace.untouched[0] == 50


def test_coupling_contraction_bound():
    # mean Hamming distance from opposite starts obeys N e^{-t delta / N}
    # when sup |lam'| < 1; shared (site, uniform) draws across the pair
    from conftest import mean_hamming_from_opposite_starts

    params = ModelParams(3, 0.05, 0.1)
    grid = np.linspace(-1, 1, 200_001)
    lam1 = np.abs(params.p * (params.p - 1) * params.beta * grid ** (params.p - 2)
                  * (1 - mean_field_map(params, grid) ** 2))
    sup = float(lam1.max())
    assert sup < 1
    delta = 1 - sup
    N = 100
    checks = mean_hamming_from_opposite_starts(params, N, 10_000,
                                               (N, 2 * N, 4 * N), seed=31)
    for t, mean_ham in checks.items():
        assert mean_ham <= 1.1 * N * math.exp(-t * delta / N)


def test_burn_in_drift_toward_attractor():
    # between the attractor and the adjacent fixed point the chain loses
    # magnetization within ceil(k N) steps with overwhelming probability
    params = ModelParams(4, 0.51, 0.184)
    pts = find_stationary_points(params)
    c_star, c_bar = pts[0].m, pts[1].m
    delta, alpha = 0.05, 0.02
    lo, hi = c_star + delta, c_bar - delta
    grid = np.linspace(lo, hi, 20_001)
    gamma = float(np.min((grid - mean_field_map(params, grid)) / 2))
    assert gamma > 0
    k = math.ceil(5.0 / gamma)
    N = 500
    c0 = 0.5 * (lo + hi)
    assert lo <= c0 - 2 * alpha and c0 + alpha <= hi
    rng = rng_stream(123, 77)
    finals = simulate_mag_replicas(params, N, np.full(1000, nearest_level(N, c0)),
                                   k * N, rng)
    assert float(np.mean(finals / N < c0 - alpha)) > 0.99


def test_concentration_at_deep_well():
    # unique-attractor landscape: replicas reach the fixed point by 10 N and
    # stay within 0.05 of it through 100 N steps
    params = ModelParams(4, 0.054, 2.0)
    m_star = find_stationary_points(params)[0].m
    N = 1000
    rng = rng_stream(5, 1)
    ks = simulate_mag_replicas(params, N, np.full(1000, -N), 10 * N, rng)
    violated = ~(np.abs(ks / N - m_star) < 0.05)
    t = 10 * N
    while t < 100 * N:
        block = min(2000, 100 * N - t)
        _, traj = simulate_mag_replicas(params, N, ks, block, rng, record_every=1)
        violated |= (np.abs(traj[1:] / N - m_star) >= 0.05).any(axis=0)
        ks = traj[-1]
        t += block
    assert float(1 - violated.mean()) >= 0.99


def test_sampler_single_window_at_regular_point():
    spec = MetastableSpec(params=ModelParams(4, 0.054, 0.5), N=60, seed=4,
                          burn_steps=2000)
    config, report = metastable_sample(spec)
    assert report.weights == [1.0]
    assert len(report.windows) == 1
    config.validate()
    lo, hi = report.windows[0]
    assert lo <= config.sum <= hi


def test_sampler_symmetric_weights():
    spec = MetastableSpec(params=ModelParams(4, 0.9, 0.0), N=80, seed=4,
                          burn_steps=1000)
    _, report = metastable_sample(spec)
    assert len(report.weights) == 2
    assert report.weights[0] == pytest.approx(0.5, abs=1e-12)
    assert report.maximizers[0] == pytest.approx(-report.maximizers[1], abs=1e-12)


def test_sampler_asymmetric_weights_on_coexistence_curve():
    c_val = boundary_curves(4, 0.6).C
    spec = MetastableSpec(params=ModelParams(4, 0.6, c_val), N=80, seed=4,
                          burn_steps=1000)
    _, report = metastable_sample(spec)
    assert len(report.weights) == 2
    assert abs(report.weights[0] - report.weights[1]) > 0.01
    assert sum(report.weights) == pytest.approx(1.0, abs=1e-12)


def test_sampler_rejects_degenerate_maximizer():
    from pspin_glauber import h_hat

    spec = MetastableSpec(params=ModelParams(4, 1.0 / 3.0, h_hat(4)), N=50)
    with pytest.raises(DomainError, match="degenerate"):
        metastable_sample(spec)


def test_sampler_coexistence_requirement():
    spec = MetastableSpec(params=ModelParams(4, 0.054, 0.5), N=50,
                          require_coexistence=True)
    with pytest.raises(DomainError, match="coexistence"):
        metastable_sample(spec)


def test_sampler_magnetization_smoke():
    params = ModelParams(4, 0.9, 0.0)
    N = 100
    spec = MetastableSpec(params=params, N=N, seed=12)
    sums = metastable_sample_sums(spec, 2000)
    dist = stationary_mag(params, N)
    hist = np.zeros_like(dist.probs)
    vals, counts = np.unique(sums, return_counts=True)
    for v, ct in zip(vals.tolist(), counts.tolist()):
        hist[(v + N) // 2] = ct / len(sums)
    tv = 0.5 * float(np.abs(hist - dist.probs).sum())
    assert tv < 0.1


def test_sampler_exact_law_matches_replicas():
    # the pushed window law against a replica histogram from the same start
    # and window, within multinomial error; the window (56, 75) binds: the
    # unrestricted chain puts 42% of its mass outside it by step 300
    params = ModelParams(2, 0.6, 0.0)
    N, R = 100, 20_000
    spec = MetastableSpec(params=params, N=N, seed=8, burn_steps=300)
    law = metastable_sample_law(spec)
    _, report = metastable_sample(spec)
    lo, hi = report.windows[1]
    k0 = nearest_level(N, report.maximizers[1])
    ks = simulate_mag_replicas(params, N, np.full(R, k0), 300, rng_stream(8, 5),
                               lo=lo, hi=hi)
    assert abs(law.sum() - 1.0) <= 1e-12
    levels = np.arange(-N, N + 1, 2)
    inside = (levels >= lo) & (levels <= hi)
    exact = law[inside] / law[inside].sum()
    hist = np.array([np.mean(ks == k) for k in levels[inside]])
    se = np.sqrt(exact * (1 - exact) / R)
    assert np.all(np.abs(hist - exact) <= 4 * se + 1e-4)
    assert 0.5 * np.abs(hist - exact).sum() < 0.02
    assert abs(law[inside].sum() - report.weights[1]) <= 1e-12


def test_spin_config_validation():
    with pytest.raises(DomainError):
        SpinConfig.from_magnetization(10, 3)  # parity
    with pytest.raises(DomainError):
        SpinConfig.from_magnetization(10, 12)  # range
    cfg = SpinConfig.from_magnetization(10, 4)
    assert cfg.sum == 4 and cfg.spins.sum() == 4
    bad = SpinConfig(spins=cfg.spins, sum=2)
    with pytest.raises(DomainError):
        bad.validate()
