"""Chain steps, exact kernel, couplings, restricted dynamics, sampler."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pspin_glauber import (
    CouplingSpec,
    DomainError,
    LevelKernel,
    MetastableSpec,
    ModelParams,
    RunSpec,
    boundary_curves,
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
from pspin_glauber.cli import main
from pspin_glauber.dynamics import (
    _BLOCK,
    _CHUNK,
    _WINDOW,
    _metastable_setup,
    _sigmoid,
    flip_up_probability,
    live_window,
    metastable_sample_law,
    metastable_sample_sums,
    nearest_level,
    simulate_mag_replicas,
)

from conftest import (
    balance_defects,
    cosh_tilted_log_level_law,
    flip_up_table,
    replica_step,
)


def _level_spins(N, k):
    """The start at level k: the first (N + k)/2 sites +1, the rest -1."""
    return np.where(np.arange(N) < (N + k) // 2, 1, -1).astype(np.int8)


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
    for name in ("up", "down", "stay", "f_up", "ks"):
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


def test_replica_starts_must_be_levels_of_the_restriction():
    # -9 has the wrong parity at N = 10, -10 lies below the floor 0 and 4
    # above the ceiling 2: the replica engine rejects each, as the kernel's
    # index does, rather than moving -9 to -7 or leaving -10 in place; a 0-d
    # start, a 2-D one and a non-integer level are one DomainError each, not
    # an IndexError, a TypeError or a truncation of 10.5 to level 10
    params, rng = ModelParams(4, 0.51, 0.184), rng_stream(0)
    for starts, lo, hi, message in (([0, -9], None, None, "start level -9 invalid for N=10"),
                                    ([12], None, None, "start level 12 invalid"),
                                    ([0, -10], 0, None, "below the restriction floor"),
                                    ([0, 4], None, 2, "above the restriction ceiling"),
                                    (np.int64(10), None, None, "start_ks must be a 1-D"),
                                    ([[0, 2], [4, 6]], None, None, "start_ks must be a 1-D"),
                                    ([10.5], None, None, "start_ks must be a 1-D")):
        with pytest.raises(DomainError, match=message):
            simulate_mag_replicas(params, 10, starts, 5, rng, lo=lo, hi=hi)
    assert simulate_mag_replicas(params, 10, [0, 2], 5, rng, lo=0, hi=2).shape == (2,)


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
            defects = balance_defects(LevelKernel(params, n).log_gibbs,
                                      up_n, down_n)
            worst.append(float(np.abs(defects).max()))
        ratios = [worst[0] / worst[1], worst[1] / worst[2]]
        assert all(1.8 <= r <= 2.2 for r in ratios), ((p, beta, h, N), worst)

        thr = restricted_threshold(params, N)
        i0 = (max(thr, -N) + N + 1) // 2
        full = balance_defects(np.log(stationary_mag(params, N)), up, down)
        kept = balance_defects(np.log(LevelKernel(params, N, lo=thr).gibbs),
                               up[i0:], down[i0:])
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
        log_pi = LevelKernel(params, N).log_pi
        assert np.abs(balance_defects(log_pi, up, down)).max() <= 1e-12
        assert abs(np.exp(log_pi).sum() - 1.0) <= 1e-14
        if p == 2:
            tilted = cosh_tilted_log_level_law(params, N)
            assert np.abs(log_pi - tilted).max() <= 1e-12
        kept = LevelKernel(params, N, lo=restricted_threshold(params, N))
        tail = log_pi[len(log_pi) - len(kept.ks):]
        conditioned = np.exp(tail - tail.max())
        conditioned /= conditioned.sum()
        assert np.abs(np.exp(kept.log_pi) - conditioned).max() <= 1e-15
    critical = ModelParams(4, 0.51, 0.184)
    floor = 0.5 * np.abs(np.exp(LevelKernel(critical, 100).log_pi)
                         - stationary_mag(critical, 100)).sum()
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
    probs = np.exp(kernel.log_pi)
    assert not np.isnan(probs).any()
    assert abs(probs[0] - 0.5) <= 1e-9 and abs(probs[-1] - 0.5) <= 1e-9
    mean = hitting_time(params, 50, -50, 0).mean_steps
    assert mean == math.inf or math.isfinite(mean)


def test_log_pi_where_the_drift_overflows():
    # at h = 1e308, 2d overflows to inf and every level ratio is +inf; at
    # h = +-6e307 the ratios are finite but their sum overflows.  The law is
    # a point mass at the end the field points to, as at h = -1e308
    for h, top in ((1e308, -1), (-1e308, 0)):
        with np.errstate(all="raise"):
            log_pi = LevelKernel(ModelParams(4, 0.5, h), 10).log_pi
        assert not np.isnan(log_pi).any()
        assert log_pi[top] == 0.0 and np.exp(log_pi).sum() == 1.0
    for h, top in ((6e307, -1), (4e307, -1), (-6e307, 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_pi = LevelKernel(ModelParams(4, 0.5, h), 10).log_pi
        assert not np.isnan(log_pi).any()
        assert log_pi[top] == 0.0 and np.exp(log_pi).sum() == 1.0


@pytest.mark.parametrize("p", [2, 4])
def test_log_pi_mirror_symmetric_at_zero_field(p):
    # at h = 0 the chain is its own mirror: where its log rates mirror each
    # other exactly, so does its law, at every beta up to the float range.
    # Its partial sums reach 2d ~ 4 p beta: past beta of about 1e13 their
    # rounding exceeds the log-mass differences, and at N = 200 they
    # overflow; at 1e200 and 1e307, N = 10, the law once sat at +N alone.
    # (At p = 4, N = 200 numpy's c**3 is not odd to the last bit, so the
    # rates do not mirror exactly there.)
    for N in (10, 11, 64) + ((200,) if p == 2 else ()):
        for beta in np.logspace(-3, 307, 32).tolist() + [1e20, 1e200, 1e300, 1e307]:
            kernel = LevelKernel(ModelParams(p, beta, 0.0), N)
            log_up, log_down = kernel.log_rates
            assert np.array_equal(log_up, log_down[::-1]), (N, beta)
            log_pi = kernel.log_pi
            assert np.array_equal(log_pi, log_pi[::-1]), (p, N, beta)
            assert abs(np.exp(log_pi).sum() - 1.0) <= 1e-12, (p, N, beta)
            if beta >= 1e20:  # deep wells at the ends: half the mass at each
                assert log_pi[0] == log_pi[-1] == math.log(0.5), (p, N, beta)


def test_live_window_matches_flatnonzero():
    # the cut evolve trims with: under one eps over a block's n entries
    kernel = LevelKernel(ModelParams(4, 0.054, 0.5), 100)
    cut = kernel.tail_cut
    assert cut == np.finfo(float).eps / (101 + 2 * _BLOCK) and 101 * cut < np.finfo(float).eps

    def reference(lo, law):
        live = np.flatnonzero(law > cut)
        return lo + int(live[0]), law[live[0]:live[-1] + 1]

    laws = [np.array([0.0, 0.0, 0.25, 0.5, 0.0, 0.25, 0.0]),
            np.array([0.0, 1.0, 0.0]), np.array([1.0]), np.array([0.5, 0.5]),
            np.array([cut, 0.3, 0.4, 0.3, cut]),
            np.array([0.1, cut / 2, 0.8, 0.1]),
            np.array([0.0, 0.0, 0.0, 2.0 * cut])]
    for law in laws:
        a, held = live_window(7, law, cut)
        b, expected = reference(7, law)
        assert a == b and np.shares_memory(held, law)
        assert np.array_equal(held, expected)


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
    spins = _level_spins(N, k).tolist()
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
    spins = np.tile(_level_spins(N, 0), (R, 1))
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
    spins, k = _level_spins(N, 0).tolist(), 0
    rejected = 0
    for sites, us in kernel.draws(rng_stream(3, 1), 500):
        for t in range(len(us)):  # one step at a time, to check every state
            k, r, _ = kernel.walk(spins, k, sites[t:t + 1], us[t:t + 1])
            rejected += r
            assert k >= 0 and sum(spins) == k
    assert k == 0  # up-moves have probability ~e^-100
    assert rejected > 0


def _walk_oracle(kernel, spins, k, sites, us):
    """`LevelKernel.walk` one step at a time on kernel.f_up, the rejection
    by the kernel's lo and hi: (k, rejected, path), spins updated."""
    f, N = kernel.f_up.tolist(), kernel.N
    rejected, path = 0, []
    for i, u in zip(sites.tolist(), us.tolist()):
        new = 1 if u <= f[(k + N) // 2] else -1
        if new != spins[i]:
            if kernel.lo <= k + 2 * new <= kernel.hi:
                spins[i] = new
                k += 2 * new
            else:
                rejected += 1
        path.append(k)
    return k, rejected, path


def _top_well(params, N):
    """The sampler's last well kernel at size N, and its start."""
    _, kernels, starts, _, _ = _metastable_setup(MetastableSpec(params=params, N=N))
    return kernels[-1], starts[-1]


# name: (kernel and start, chunk lengths, what the numpy head must show)
WALK_CASES = {
    # in a well, where the head verifies whole chunks
    "run_chain well N=200": (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 200), 200),
                             [_CHUNK] * 3, "whole"),
    "sampler well N=2000": (lambda: _top_well(ModelParams(4, 0.9, 0.0), 2000),
                            [_CHUNK] * 3, "whole"),
    # the level moves too often for a window to verify in _ROUNDS rounds
    "round cap N=10": (lambda: (LevelKernel(ModelParams(4, 0.51, 0.184), 10), 0),
                       [_CHUNK] * 6, "capped"),
    "round cap N=200": (lambda: (LevelKernel(ModelParams(4, 0.51, 0.184), 200), 0),
                        [_CHUNK] * 6, "capped"),
    # a floor and a well's top that reject moves inside a window
    "floor 0 N=40": (lambda: (LevelKernel(ModelParams(2, 0.1, -50.0), 40, lo=0), 0),
                     [_CHUNK] * 6, "rejects"),
    "well [-60, 41] N=60": (lambda: _top_well(ModelParams(4, 0.51, 0.184), 60),
                            [_CHUNK] * 6, "rejects"),
    # a chunk shorter than a window (the loop alone), one ending in a window
    "short chunk": (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 200), 200),
                    [_WINDOW - 1], "none"),
    "chunk ending in a window": (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 200), 200),
                                 [2 * _WINDOW + 904], "whole"),
    # N > 2**16: intp sort keys, and start spins gathered site by site
    "N=70000": (lambda: (LevelKernel(ModelParams(3, 0.05, 0.1), 70_000), 0),
                [4096], "whole"),
}


@pytest.mark.parametrize("case", list(WALK_CASES))
def test_walk_matches_per_step_loop(case, monkeypatch):
    # walk's numpy head, its loop and the back-off between chunks against a
    # plain loop: the same sums, rejections, path and spins after each chunk
    make, lengths, shows = WALK_CASES[case]
    kernel, k0 = make()
    N = kernel.N
    heads = []
    verified_head = LevelKernel._verified_head

    def spy(self, *args):
        out = verified_head(self, *args)
        heads.append((out[0], len(args[3]), out[2]))
        return out

    monkeypatch.setattr(LevelKernel, "_verified_head", spy)
    rng = np.random.default_rng(len(case))
    spins = rng.permutation(_level_spins(N, k0)).tolist()
    want_spins, k, want_k = list(spins), k0, k0
    for n in lengths:
        draws = rng.random((n, 2))
        sites, us = (draws[:, 0] * N).astype(np.intp), draws[:, 1]
        k, rejected, path = kernel.walk(spins, k, sites, us, record=True)
        want_k, want_rejected, want_path = _walk_oracle(kernel, want_spins, want_k,
                                                        sites, us)
        assert (k, rejected) == (want_k, want_rejected)
        assert path.dtype == np.int64 and path.tolist() == want_path
        assert spins == want_spins
    if shows == "none":
        assert heads == []
    elif shows == "whole":
        assert heads and all(t == n for t, n, _ in heads)
    else:  # the loop took over, and a poor chunk made later ones skip the head
        assert any(t < n for t, n, _ in heads) and len(heads) < len(lengths)
        if shows == "rejects":
            assert any(r for _, _, r in heads)


def test_walk_in_a_well_runs_no_loop(monkeypatch):
    # at (4, 0.9, 0), N = 200, in its well, numpy verifies every chunk: the
    # step-at-a-time loop is never entered
    def loop(*args):
        raise AssertionError("walk fell back to its loop")

    monkeypatch.setattr(LevelKernel, "_loop", loop)
    trace = run_chain(RunSpec(params=ModelParams(4, 0.9, 0.0), N=200, steps=4 * _CHUNK,
                              seed=3, record_every=1000))
    assert trace.mag_sums.min() > 150


def test_step_restricted_validates_start():
    params = ModelParams(4, 0.5, 0.0)
    with pytest.raises(DomainError):
        run_chain(RunSpec(params=params, N=20, start=-10, steps=1, threshold=0))
    with pytest.raises(DomainError):  # a start of the wrong size
        run_chain(RunSpec(params=params, N=20, start=np.ones(10, dtype=np.int8),
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
    kernel = LevelKernel(params, N, lo=thr)
    R, steps, burn = 250, 44_000, 4_000
    rng = rng_stream(7, 2)
    k0 = thr + (thr + N) % 2
    ks = np.full(R, k0, dtype=np.int64)
    counts = np.zeros(len(kernel.ks), dtype=np.int64)  # levels from step burn on
    for t in range(1, steps + 1):
        ks = replica_step(params, N, ks, rng.random(R), lo=thr)
        if t >= burn:
            counts += np.bincount((ks - kernel.ks[0]) // 2, minlength=len(counts))
    hist = counts / counts.sum()
    tv = 0.5 * float(np.abs(hist - kernel.gibbs).sum())
    assert tv < 0.02


def test_coupling_identical_starts_stay_identical(capsys):
    spec = CouplingSpec(params=ModelParams(4, 0.5, 0.1), N=30,
                        start_x="all_plus", start_y="all_plus", steps=300,
                        seed=11)
    trace = run_coupling(spec)
    assert trace.coalesced_at == 0
    assert np.all(trace.hamming == 0)
    assert np.all(np.diff(trace.untouched) <= 0)
    # the CLI runs the same seed from all_plus and all_minus, and writes the
    # first chain's trace
    assert main(["coupling", "--p", "4", "--beta", "0.5", "--h", "0.1", "--n", "30",
                 "--steps", "300", "--seed", "11"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()[1:]
    assert header == "t,mag_sum,hamming,untouched"
    trace = run_coupling(dataclasses.replace(spec, start_y="all_minus"))
    assert [list(map(int, r.split(","))) for r in rows] == np.stack(
        [trace.times, trace.mags_x, trace.hamming, trace.untouched], axis=1).tolist()
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
    # constant, and the pairs meet in the first chunk and in the second.
    # The third pair differs on 4 of 5000 sites and meets in the first
    # chunk with sites still untouched, which the second chunk then counts
    steps = 20_000
    rng = np.random.default_rng(3)
    mixed = [np.where(rng.random(60) < q, 1, -1).astype(np.int8) for q in (0.8, 0.2)]
    near = _level_spins(5000, 10)
    apart = near.copy()
    apart[:4] = -apart[:4]
    cases = ((ModelParams(3, 0.05, 0.1), _level_spins(60, 10), _level_spins(60, -20)),
             (ModelParams(4, 0.9, 0.0), *mixed),
             (ModelParams(3, 0.05, 0.1), near, apart))
    met = []
    for params, x, y in cases:
        N = len(x)
        rows = _coupled_loop(params, N, x, y, steps, seed=6)
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
    assert 0 < met[2] < 1 << 14 and rows[1 << 14, 1] > 100 and rows[-1, 1] > 0


def test_metastable_sample_matches_one_step_at_a_time_loop():
    # final sums and acceptance rates of two wells, the upper one rejecting
    # moves below its cut at 0, over 20000 steps (two draw chunks), against
    # a loop drawing two uniforms a step
    params, N, burn = ModelParams(2, 0.6, 0.0), 100, 20_000
    spec = MetastableSpec(params=params, N=N, burn_steps=burn, seed=2)
    _, report = metastable_sample(spec)
    assert report.windows == [(-100, -1), (0, 100)]
    f, rejections = {}, []
    for w, (m, (lo, hi)) in enumerate(zip(report.maximizers, report.windows)):
        k = nearest_level(N, m)
        spins = _level_spins(N, k).tolist()
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
        rejections.append(rejected)
    assert rejections[1] > 0


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
    # and the coupling trace counts the sites its draws have not chosen:
    # the site of each step from the first of its two uniforms
    trace = run_coupling(CouplingSpec(params=ModelParams(3, 0.3, 0.0), N=50,
                                      steps=50, seed=13))
    rng, chosen, want = rng_stream(13, 0), set(), [50]
    for _ in range(50):
        chosen.add(int(rng.random(2)[0] * 50))
        want.append(50 - len(chosen))
    assert trace.untouched.tolist() == want
    assert 0 < want[-1] < 50


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
    for _ in range(90 * N):  # steps 10 N + 1 .. 100 N, one replica step each
        ks = replica_step(params, N, ks, rng.random(len(ks)))
        violated |= np.abs(ks / N - m_star) >= 0.05
    assert float(1 - violated.mean()) >= 0.99


def test_sampler_single_window_at_regular_point():
    spec = MetastableSpec(params=ModelParams(4, 0.054, 0.5), N=60, seed=4,
                          burn_steps=2000)
    config, report = metastable_sample(spec)
    assert report.weights == [1.0]
    assert len(report.windows) == 1
    assert config.dtype == np.int8 and np.isin(config, (-1, 1)).all()
    assert int(config.sum()) == report.final_sums[0]
    lo, hi = report.windows[0]
    assert lo <= report.final_sums[0] <= hi


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


def test_sampler_single_well_at_degenerate_maximizer():
    # the special point's one stationary point is a degenerate maximizer:
    # its well is the whole state space and holds all the Gibbs mass
    from pspin_glauber import h_hat

    N = 50
    spec = MetastableSpec(params=ModelParams(4, 1.0 / 3.0, h_hat(4)), N=N,
                          burn_steps=500, seed=3)
    config, report = metastable_sample(spec)
    assert report.windows == [(-N, N)] and report.weights == [1.0]
    assert int(config.sum()) == report.final_sums[0]


def test_sampler_clamps_start_into_narrow_well():
    # on C at beta = 0.34, N = 6, the upper maximizer 0.787 has its nearest
    # level 4 below its well [5, 6]: the chain starts at 6 instead.  The
    # sums of independent draws follow metastable_sample_law
    params, N = ModelParams(4, 0.34, boundary_curves(4, 0.34).C), 6
    spec = MetastableSpec(params=params, N=N)
    assert _metastable_setup(spec)[2] == [4, 6]
    law = metastable_sample_law(spec)
    counts = np.zeros(N + 1)
    R = 2000
    for seed in range(R):
        config, report = metastable_sample(MetastableSpec(params=params, N=N, seed=seed))
        assert report.windows == [(-6, 4), (5, 6)]
        for (lo, hi), k in zip(report.windows, report.final_sums):
            assert lo <= k <= hi
        counts[(int(config.sum()) + N) // 2] += 1
    se = np.sqrt(law * (1 - law) / R)
    assert np.all(np.abs(counts / R - law) <= 4 * se + 1e-3)


def test_sampler_drops_wells_that_hold_no_level():
    # at N = 1 the well of the maximizer 0 is [0, 0], which holds no level
    # of N's parity and so no Gibbs mass.  At the three-well point the two
    # outer wells are kept; at beta = 0.6, where 0 is the only global
    # maximizer, no well is left and the error says so
    spec = MetastableSpec(params=ModelParams(4, 0.6888013739487909, 0.0), N=1)
    config, report = metastable_sample(spec)
    assert report.windows == [(-1, -1), (1, 1)] and report.weights == [0.5, 0.5]
    assert int(config.sum()) == report.final_sums[report.chosen]
    assert np.array_equal(metastable_sample_law(spec), [0.5, 0.5])
    with pytest.raises(DomainError, match="no well of a global maximizer holds a level of N=1"):
        metastable_sample(MetastableSpec(params=ModelParams(4, 0.6, 0.0), N=1))


@pytest.mark.parametrize("seed, digest", [(0, "b12ed3cbcb2134ea"), (1, "ac3ae4f3ac4d09aa")])
def test_sampler_sums_pinned(seed, digest):
    # the first 16 hex digits of the sha256 of the benchmark's sampler draws
    # at (4, 0.9, 0), N = 200: two wells of 44 levels, burn-in 10,597 steps.
    # The digests hold with BLAS on one thread and on several
    import hashlib

    spec = MetastableSpec(params=ModelParams(4, 0.9, 0.0), N=200, seed=seed)
    sums = metastable_sample_sums(spec, 10_000)
    assert hashlib.sha256(sums.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("p, beta, N, bound",[(3, 0.55, 200, 0.06), (3, 0.55, 800, 0.03),
                                                (4, 0.4, 200, 0.06), (4, 0.4, 800, 0.03)])
def test_sampler_law_near_gibbs_on_coexistence_curve(p, beta, N, bound):
    # on C each well holds a share of the Gibbs mass that stays away from 0
    # and 1; the sampler's exact law, the wells weighted by their Gibbs
    # masses, lies within bound of the Gibbs level law
    params = ModelParams(p, beta, boundary_curves(p, beta).C)
    law = metastable_sample_law(MetastableSpec(params=params, N=N))
    assert 0.5 * np.abs(law - LevelKernel(params, N).gibbs).sum() <= bound


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
    pi = stationary_mag(params, N)
    hist = np.zeros_like(pi)
    vals, counts = np.unique(sums, return_counts=True)
    for v, ct in zip(vals.tolist(), counts.tolist()):
        hist[(v + N) // 2] = ct / len(sums)
    tv = 0.5 * float(np.abs(hist - pi).sum())
    assert tv < 0.1


def test_sampler_exact_law_matches_replicas():
    # the pushed window law against a replica histogram from the same start
    # and window, within multinomial error; the window [0, 40] binds: the
    # unrestricted chain puts 6.8% of its mass below 0 by step 300
    params = ModelParams(2, 0.6, 0.0)
    N, R = 40, 20_000
    spec = MetastableSpec(params=params, N=N, seed=8, burn_steps=300)
    law = metastable_sample_law(spec)
    _, report = metastable_sample(spec)
    lo, hi = report.windows[1]
    k0 = nearest_level(N, report.maximizers[1])
    assert (lo, hi) == (0, N)
    free = LevelKernel(params, N)
    mu = np.zeros(N + 1)
    mu[free.index(k0)] = 1.0
    assert free.law_after(mu, 300)[free.ks < lo].sum() > 0.05
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


def _sampler_kernel(params, N, well):
    """The kernel of a sampler well at (params, N) and its start level."""
    _, kernels, starts, _, _ = _metastable_setup(MetastableSpec(params=params, N=N))
    return kernels[well], starts[well]


@pytest.mark.parametrize("make, n, dense", [
    (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 20, 4, 4), 4), 1, True),
    (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 20, 4, 6), 4), 2, True),
    (lambda: (LevelKernel(ModelParams(4, 0.9, 0.0), 20, 4, 8), 8), 3, True),
    (lambda: _sampler_kernel(ModelParams(3, 0.55, boundary_curves(3, 0.55).C), 300, 1),
     65, True),
    (lambda: _sampler_kernel(ModelParams(4, 0.9, 0.0), 300, 0), 66, False),
], ids=["1-level", "2-level", "3-level", "65-level", "66-level"])
def test_law_after_matches_pushes_at_the_dense_boundary(make, n, dense):
    # a window of at most 2 * 32 + 1 levels is powered by squaring the
    # dense one-step matrix, a wider one leapt through the band: both
    # against one push a step, within law_after's stated bound (2 t n eps
    # in L1) plus the pushes' own rounding (a few eps a step)
    kernel, start = make()
    assert len(kernel.ks) == n
    burn = int(math.ceil(10.0 * kernel.N * math.log(kernel.N)))
    mu = np.zeros(n)
    mu[kernel.index(start)] = 1.0
    for steps in (0, 1, 31, 32, 33, burn):
        law = kernel.law_after(mu, steps)
        ref = mu.copy()
        for _ in range(steps):
            ref = kernel.push(ref)
        ref /= ref.sum()
        bound = 2 * (steps + 1) * (n + 4) * np.finfo(float).eps
        assert law.shape == (n,) and abs(law.sum() - 1.0) <= 1e-12
        assert float(np.abs(law - ref).sum()) <= bound
    assert ("band" in vars(kernel)) is not dense


def test_spin_config_validation():
    # a start is 'all_plus', 'all_minus', a level or a +-1 array of length N;
    # run_chain and run_coupling reject anything else with DomainError
    params, N = ModelParams(4, 0.5, 0.1), 10
    zero = _level_spins(N, 4)
    zero[3] = 0
    for start, message in ((3, "sum 3 unreachable for N=10"),      # parity
                           (12, "sum 12 unreachable for N=10"),    # range
                           (np.ones(8, dtype=np.int8), "start has 8 spins, expected 10"),
                           (zero, "spins must be"),
                           ("all_up", "unrecognized start 'all_up'")):
        with pytest.raises(DomainError, match=message):
            run_chain(RunSpec(params=params, N=N, start=start, steps=1))
        with pytest.raises(DomainError, match=message):
            run_coupling(CouplingSpec(params=params, N=N, start_x=start, steps=1))
        with pytest.raises(DomainError, match=message):
            run_coupling(CouplingSpec(params=params, N=N, start_y=start, steps=1))
    # a level is the array with its first (N + k)/2 sites +1
    for x, y, kx, ky in ((4, -6, 4, -6), ("all_plus", "all_minus", N, -N)):
        by_level = run_coupling(CouplingSpec(params=params, N=N, start_x=x, start_y=y,
                                             steps=500, seed=3))
        by_array = run_coupling(CouplingSpec(params=params, N=N,
                                             start_x=_level_spins(N, kx),
                                             start_y=_level_spins(N, ky), steps=500, seed=3))
        for field in ("times", "hamming", "untouched", "mags_x", "mags_y"):
            assert np.array_equal(getattr(by_level, field), getattr(by_array, field))
        assert by_level.coalesced_at == by_array.coalesced_at


def test_replica_runs_split_on_one_rng_match_one_run():
    # s steps and then t steps end where s + t steps do
    params, N, R = ModelParams(4, 0.51, 0.184), 60, 3000
    starts = np.resize(np.arange(-N, N + 1, 2), R)
    for lo, hi in ((None, None), (-20, 30)):
        if lo is not None:
            starts = np.clip(starts, lo, hi)
        whole = simulate_mag_replicas(params, N, starts, 1500, rng_stream(4, 2),
                                      lo=lo, hi=hi)
        for s in (1000, 1003):
            rng = rng_stream(4, 2)
            split = simulate_mag_replicas(params, N, starts, s, rng, lo=lo, hi=hi)
            split = simulate_mag_replicas(params, N, split, 1500 - s, rng, lo=lo, hi=hi)
            assert np.array_equal(split, whole)


@pytest.mark.parametrize("R, steps, lo, hi", [
    (1000, 200, None, None),     # unrestricted
    (1000, 200, 4, None),        # floor
    (1000, 200, -13, 21),        # two-sided window
    (0, 50, None, None),
    (1, 300, -13, 21),
    (500, 0, 4, None),
    (40_000, 3, -13, 21),
    (3000, 25, None, None),
])
def test_replica_engine_matches_reference_loop(R, steps, lo, hi):
    params, N = ModelParams(4, 0.51, 0.184), 60
    kernel = LevelKernel(params, N, lo, hi)
    starts = rng_stream(9, R).choice(kernel.ks, R) if R else np.zeros(0, np.int64)
    rng, ref_rng = rng_stream(3, R, steps), rng_stream(3, R, steps)
    got = simulate_mag_replicas(params, N, starts, steps, rng, lo=lo, hi=hi)
    want = starts.astype(np.int64)
    for _ in range(steps):
        want = replica_step(params, N, want, ref_rng.random(R), lo, hi)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert rng.random() == ref_rng.random()  # the same draws consumed
    for _ in range(min(steps, 20)):  # one step at a time, on the same stream
        got = simulate_mag_replicas(params, N, got, 1, rng, lo=lo, hi=hi)
        want = replica_step(params, N, want, ref_rng.random(R), lo, hi)
        assert np.array_equal(got, want)


def test_replica_engine_draws_in_bounded_memory():
    # 10,000 replicas for 50 steps: each step draws its R uniforms alone, so
    # the peak of traced allocations stays under 1 MB (one rng.random((50, 2,
    # R)) call would be 8 MB)
    params, N, R = ModelParams(4, 0.054, 0.5), 200, 10_000
    starts, rng = np.zeros(R, dtype=np.int64), rng_stream(1)
    tracemalloc.start()
    try:
        simulate_mag_replicas(params, N, starts, 50, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("point, N, lo, hi, start, steps", [
    ((4, 0.054, 0.5), 40, None, None, -40, 60),   # unrestricted
    ((4, 0.51, 0.184), 60, 4, None, 4, 80),       # a floor
    ((4, 0.9, 0.0), 40, -10, 20, 0, 80),          # a window
    ((2, 0.1, 60.0), 20, None, None, -20, 15),    # up = 1 at -N
])
def test_step_counts_follow_the_exact_law(point, N, lo, hi, start, steps):
    # 10**5 chains from a point mass, stepped as counts and as replicas,
    # each against the exact law after as many steps: Pearson's chi-square
    # over the levels whose expected count is at least 5, the rest pooled,
    # at p-value > 0.001
    from scipy.stats import chi2

    params = ModelParams(*point)
    kernel = LevelKernel(params, N, lo, hi)
    R = 100_000
    n = np.zeros(len(kernel.ks), dtype=np.int64)
    n[kernel.index(start)] = R
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel.step_counts(n, steps, rng_stream(21, N, steps))
        ks = simulate_mag_replicas(params, N, np.full(R, start), steps,
                                   rng_stream(22, N, steps), lo=lo, hi=hi)
    assert n.dtype == np.int64 and n.min() >= 0 and n.sum() == R
    binned = np.bincount((ks - kernel.ks[0]) // 2, minlength=len(kernel.ks))
    assert len(binned) == len(kernel.ks)  # no replica left [lo, hi]
    mu = np.zeros(len(kernel.ks))
    mu[kernel.index(start)] = 1.0
    law = R * kernel.law_after(mu, steps)
    big = law >= 5
    assert big.sum() >= 3
    for counts in (n, binned):
        observed = np.append(counts[big], counts[~big].sum())
        expected = np.append(law[big], law[~big].sum())
        if expected[-1] < 5:  # too little pooled mass for a bin of its own
            observed = np.append(observed[:-2], observed[-2:].sum())
            expected = np.append(expected[:-2], expected[-2:].sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert 1.0 - chi2.cdf(stat, len(observed) - 1) > 0.001
