"""Shared oracles for the test suite.

Everything here is deliberately independent of the library's own machinery:
the magnetization law comes from brute-force enumeration over all 2^N
configurations, and the dense chain is the full 2^N x 2^N one-step matrix
assembled directly from the update rule, as is the level chain's matrix
power; the replica step reads the level chain's rates from the same rule.
The reference level law, time scales, barrier and equal-height field at the
end are closed forms in ``math``/``lgamma``, the log-binomials, slow
eigenvalues, threshold constants, the roots of H' and the height gap of its
maximizers are mpmath at 40-50 digits, and none of them calls anything in
``pspin_glauber``; a ``params`` argument is read only for its ``p``,
``beta`` and ``h``.  The log-log growth fit the scaling tests read lives
here as well: the library itself never fits.
"""

import functools
import math
import os
from typing import NamedTuple

import numpy as np
from hypothesis import settings

from pspin_glauber import ModelParams

# Property tests draw 200 examples; HYPOTHESIS_PROFILE=ci draws 2000.
settings.register_profile("default", max_examples=200, deadline=None)
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def flip_up_table(params: ModelParams, N: int) -> np.ndarray:
    """Spin-up probability (1 + tanh(p*beta*c^(p-1) + h)) / 2 at every level
    c = k/N, k = -N, -N+2, ..., N: the README's update rule, in closed form."""
    p, beta, h = params.p, params.beta, params.h
    return np.array([0.5 * (1.0 + math.tanh(p * beta * (k / N) ** (p - 1) + h))
                     for k in range(-N, N + 1, 2)])


def passage_means(params: ModelParams, N: int, target_k: int,
                  k_min: int | None = None) -> dict:
    """Mean first time at a level >= target_k, from each level below it.

    Solves (I - Q) t = 1 over the levels k_min <= k < target_k, Q the
    one-step matrix of the sum among them, by a tridiagonal (Thomas) solve.
    The rates come from flip_up_table: up(k) = (N - k)/(2N) f(k) and
    down(k) = (N + k)/(2N) (1 - f(k)); a step below k_min is rejected, so
    the lowest level's down rate is folded into its stay.  Returns
    {k: mean steps}.
    """
    f = flip_up_table(params, N)
    floor = -N if k_min is None else k_min
    ks = [k for k in range(-N, N + 1, 2) if floor <= k < target_k]
    up = [(N - k) / (2 * N) * f[(k + N) // 2] for k in ks]
    down = [(N + k) / (2 * N) * (1 - f[(k + N) // 2]) for k in ks]
    stay = [1.0 - u - d for u, d in zip(up, down)]
    stay[0] += down[0]
    down[0] = 0.0
    # row i: (1 - stay_i) t_i - down_i t_(i-1) - up_i t_(i+1) = 1, and t = 0
    # at target_k; forward elimination, then back substitution
    sup, rhs = [], []
    for i in range(len(ks)):
        pivot = 1.0 - stay[i] - (down[i] * sup[-1] if sup else 0.0)
        sup.append(up[i] / pivot)
        rhs.append((1.0 + (down[i] * rhs[-1] if rhs else 0.0)) / pivot)
    t, out = 0.0, {}
    for i in reversed(range(len(ks))):
        t = rhs[i] + sup[i] * t
        out[ks[i]] = t
    return out


def level_chain_power(params: ModelParams, N: int, steps: int,
                      k_min: int | None = None) -> np.ndarray:
    """The `steps`-step transition matrix of the magnetization sum over the
    levels k_min <= k <= N, entry [i, k] from the i-th to the k-th level.

    The one-step rates come from flip_up_table: up(k) = (N - k)/(2N) f(k)
    and down(k) = (N + k)/(2N) (1 - f(k)); a step below k_min is rejected,
    so the lowest level's down rate is folded into its stay.  The power is
    taken one step at a time on the dense matrix, each row pushed by the
    three rates of the level it moves from.
    """
    f = flip_up_table(params, N)
    floor = -N if k_min is None else k_min
    ks = [k for k in range(-N, N + 1, 2) if k >= floor]
    up = np.array([(N - k) / (2 * N) * f[(k + N) // 2] for k in ks])
    down = np.array([(N + k) / (2 * N) * (1 - f[(k + N) // 2]) for k in ks])
    stay = 1.0 - up - down
    stay[0] += down[0]
    down[0] = 0.0
    power = np.eye(len(ks))
    for _ in range(steps):
        moved = power * stay
        moved[:, 1:] += power[:, :-1] * up[:-1]
        moved[:, :-1] += power[:, 1:] * down[1:]
        power = moved
    return power


@functools.lru_cache(maxsize=8)
def _folded_rates(params: ModelParams, N: int, lo: int | None,
                  hi: int | None) -> tuple[int, np.ndarray, np.ndarray]:
    """(k0, up, down) over the levels k0, k0 + 2, ... in [lo, hi] (default
    [-N, N]): up(k) = (N - k)/(2N) f(k) and down(k) = (N + k)/(2N) (1 -
    f(k)) from flip_up_table, a move out of [lo, hi] rejected, so down is 0
    at the lowest kept level and up at the highest."""
    f = flip_up_table(params, N)
    lo = -N if lo is None else lo
    hi = N if hi is None else hi
    ks = [k for k in range(-N, N + 1, 2) if lo <= k <= hi]
    up = np.array([(N - k) / (2 * N) * f[(k + N) // 2] for k in ks])
    down = np.array([(N + k) / (2 * N) * (1 - f[(k + N) // 2]) for k in ks])
    down[0] = up[-1] = 0.0
    return ks[0], up, down


def replica_step(params: ModelParams, N: int, ks: np.ndarray, u: np.ndarray,
                 lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """One step of magnetization chains at sums ks in [lo, hi], one uniform
    u each: up by 2 when u < up(k), down by 2 when u >= 1 - down(k), the
    folded rates of the chain's level.  Returns the new sums."""
    k0, up, down = _folded_rates(params, N, lo, hi)
    i = (ks - k0) // 2
    return ks + 2 * (u < up[i]) - 2 * (u >= 1.0 - down[i])


class FitReport(NamedTuple):
    slope: float
    intercept: float
    r2: float


def exponent_fit(ns, times, capped=None) -> FitReport:
    """Least-squares fit of log(time) against log(N).

    Capped or non-finite measurements poison growth estimates, so their
    presence refuses the fit outright.
    """
    ns = np.asarray(ns, dtype=float)
    times = np.asarray(times, dtype=float)
    if capped is not None and any(capped):
        raise ValueError("capped measurements present; exponent fit refused")
    if len(ns) < 3 or len(ns) != len(times):
        raise ValueError("need at least 3 paired (N, time) points")
    if not (np.isfinite(times).all() and (times > 0).all() and (ns > 0).all()):
        raise ValueError("times and ns must be positive and finite")
    x, y = np.log(ns), np.log(times)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return FitReport(slope=float(slope), intercept=float(intercept), r2=r2)


def enumerate_mag_law(params: ModelParams, N: int) -> np.ndarray:
    """Exact magnetization-level law by summing Gibbs weights over 2^N states."""
    assert N <= 20
    sums = np.array([2 * bin(x).count("1") - N for x in range(1 << N)])
    c = sums / N
    w = np.exp(N * (params.beta * c**params.p + params.h * c))
    probs = np.zeros(N + 1)
    np.add.at(probs, (sums + N) // 2, w)
    return probs / probs.sum()


def dense_transition_matrix(params: ModelParams, N: int):
    """Full 2^N-state one-step matrix of the single-site update rule.

    Returns (P, sums) with sums[x] the magnetization sum of state x (bit i
    set means spin +1 at site i).
    """
    assert N <= 12
    size = 1 << N
    sums = np.array([2 * bin(x).count("1") - N for x in range(size)])
    f_up = flip_up_table(params, N)
    P = np.zeros((size, size))
    for x in range(size):
        f = f_up[(sums[x] + N) >> 1]
        for i in range(N):
            P[x, x | (1 << i)] += f / N
            P[x, x & ~(1 << i)] += (1 - f) / N
    return P, sums


def gibbs_full_law(params: ModelParams, N: int) -> np.ndarray:
    """Exact Gibbs law over all 2^N configurations."""
    sums = np.array([2 * bin(x).count("1") - N for x in range(1 << N)])
    c = sums / N
    w = np.exp(N * (params.beta * c**params.p + params.h * c))
    return w / w.sum()


def central_difference(f, x: float, step: float) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def mean_hamming_from_opposite_starts(params: ModelParams, N: int, R: int,
                                      checkpoints, seed: int) -> dict:
    """Mean Hamming distance of R coupled pairs started all-plus/all-minus.

    Both chains share the (site, uniform) draw at every step, the grand
    coupling; returns {t: mean Hamming} at the requested checkpoints.
    """
    from pspin_glauber.dynamics import rng_stream

    f_up = flip_up_table(params, N)
    x = np.ones((R, N), dtype=np.int8)
    y = -x.copy()
    sx = x.sum(axis=1).astype(np.int64)
    sy = y.sum(axis=1).astype(np.int64)
    rows = np.arange(R)
    rng = rng_stream(seed, 0)
    out = {}
    horizon = max(checkpoints)
    for t in range(1, horizon + 1):
        u = rng.random((2, R))
        sites = (u[0] * N).astype(np.int64)
        nx = np.where(u[1] <= f_up[(sx + N) >> 1], 1, -1).astype(np.int8)
        ny = np.where(u[1] <= f_up[(sy + N) >> 1], 1, -1).astype(np.int8)
        sx += nx - x[rows, sites]
        sy += ny - y[rows, sites]
        x[rows, sites] = nx
        y[rows, sites] = ny
        if t in checkpoints:
            ham = np.abs(x.astype(np.int16) - y.astype(np.int16)).sum(axis=1) / 2
            out[t] = float(ham.mean())
    return out


def cosh_tilted_log_level_law(params, N: int) -> np.ndarray:
    """Log of the Gibbs level law tilted by cosh(p*beta*c^(p-1) + h).

    With d(c) = p*beta*c^(p-1) + h and c' = c + 2/N the tanh rule has
    p_up(c) / p_down(c') = [Gibbs ratio] * cosh d(c') / cosh d(c)
    * exp(d(c) + d(c') - N*beta*(c'^p - c^p) - 2h).  At p = 2 the
    exponential is exactly 1, so this is the chain's reversible law; at
    p >= 3 it is 1 + O(1/N^2) and the tilted law is not exact.
    """
    ks = range(-N, N + 1, 2)
    log_binom = np.array([math.lgamma(N + 1) - math.lgamma((N + k) // 2 + 1)
                          - math.lgamma((N - k) // 2 + 1) for k in ks])
    c = np.arange(-N, N + 1, 2) / N
    d = params.p * params.beta * c ** (params.p - 1) + params.h
    log_w = (log_binom + N * (params.beta * c**params.p + params.h * c)
             + np.log(np.cosh(d)))
    shift = log_w.max()
    return log_w - (shift + math.log(np.exp(log_w - shift).sum()))


def balance_defects(log_law: np.ndarray, up: np.ndarray,
                    down: np.ndarray) -> np.ndarray:
    """Signed relative detailed-balance defect on every edge k -> k+2.

    pi(k+2) p_down(k+2) / (pi(k) p_up(k)) - 1, formed in log space so that
    levels whose mass underflows a double still count; log_law may be
    unnormalized.
    """
    return np.expm1(log_law[1:] + np.log(down[1:])
                    - log_law[:-1] - np.log(up[:-1]))


def regular_mixing_constant(params) -> float:
    """c_reg = 1 / (2 (1 - lam'(m*))) at the attracting fixed point m*.

    lam'(m) = p(p-1) beta m^(p-2) (1 - m^2) at m* = tanh(p beta m*^(p-1) + h),
    found by iterating that contraction.  The worst-start mixing time of the
    heat-bath chain at a regular point sits at c_reg N log N: this is the
    cutoff location of Levin-Luczak-Peres 2010, whose mean-field Ising chain
    is the p = 2, h = 0 case with lam'(0) = 2 beta.
    """
    p, beta, h = params.p, params.beta, params.h
    m = 0.0
    for _ in range(10_000):
        m_next = math.tanh(p * beta * m ** (p - 1) + h)
        if m_next == m:
            break
        m = m_next
    lam1 = p * (p - 1) * beta * m ** (p - 2) * (1.0 - m * m)
    assert lam1 < 1.0, "fixed point is not attracting"
    return 1.0 / (2.0 * (1.0 - lam1))


def special_time_scale(p: int) -> float:
    """tau = sqrt(6 / (|lam3| (1 - m*^2))) at the special point of order p.

    There m* = sqrt(1 - 2/p), beta_hat = 1 / (2 (p-1) m*^(p-2)) solves
    lam'(m*) = 1, and lam3 = lam'''(m*) = -2 beta_hat p(p-1)(p-2)
    (1 - 2/p)^((p-4)/2).  Y = N^(1/4) (m - m*) follows
    dY = lam3/6 Y^3 ds + sqrt(2 (1 - m*^2)) dW in s = t / N^(3/2), whose
    natural unit of time is tau.
    """
    m2 = 1.0 - 2.0 / p
    beta_hat = 1.0 / (2.0 * (p - 1) * m2 ** ((p - 2) / 2.0))
    lam3 = -2.0 * beta_hat * p * (p - 1) * (p - 2) * m2 ** ((p - 4) / 2.0)
    return math.sqrt(6.0 / (abs(lam3) * (1.0 - m2)))


def metastable_barrier(params) -> float:
    """Arrhenius barrier of the shallower well: H(max) - H(saddle).

    H(x) = beta x^p + h x - I(x); its stationary points are the sign changes
    of H'(x) = p beta x^(p-1) + h - atanh(x) on a fine grid, each bisected.
    Requires exactly two local maxima around one minimum; the barrier is the
    lower maximum's height above the minimum (Bovier-den Hollander,
    Metastability, for mean-field models).
    """
    p, beta, h = params.p, params.beta, params.h

    def H(x):
        return (beta * x**p + h * x
                - 0.5 * ((1 + x) * math.log1p(x) + (1 - x) * math.log1p(-x)))

    def H1(x):
        return p * beta * x ** (p - 1) + h - math.atanh(x)

    grid = np.linspace(-1.0, 1.0, 20_001)[1:-1]
    g = p * beta * grid ** (p - 1) + h - np.arctanh(grid)
    roots = []
    for i in np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:])):
        lo, hi = float(grid[i]), float(grid[i + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (H1(mid) > 0) == (H1(lo) > 0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    assert len(roots) == 3, f"expected max, min, max; found {roots}"
    heights = [H(x) for x in roots]
    return min(heights[0], heights[2]) - heights[1]


def equal_height_field(p: int, beta: float, lo: float, hi: float) -> float:
    """The field h in [lo, hi] at which the rightmost local maximizer of
    H(x) = beta x^p + h x - I(x) ties in height with the highest other one.

    H'(x) = p beta x^(p-1) + h - atanh(x) is tabulated once at h = 0 on a
    grid x = tanh(u), dense near +-1; the maximizers at h are the + to -
    sign changes after adding h, each bisected with math to float
    resolution.  The height gap rises with h.  It is sampled across
    [lo, hi] (the band only brackets the search), and its first - to +
    change is bisected to float resolution.
    """
    grid = np.tanh(np.linspace(-12.0, 12.0, 48_001))
    g0 = p * beta * grid ** (p - 1) - np.arctanh(grid)

    def H(x, h):
        return (beta * x**p + h * x
                - 0.5 * ((1 + x) * math.log1p(x) + (1 - x) * math.log1p(-x)))

    def gap(h):
        g = g0 + h
        maxima = []
        for i in np.flatnonzero((g[:-1] > 0) & (g[1:] <= 0)):
            a, b = float(grid[i]), float(grid[i + 1])
            while a < 0.5 * (a + b) < b:
                mid = 0.5 * (a + b)
                if p * beta * mid ** (p - 1) + h - math.atanh(mid) > 0:
                    a = mid
                else:
                    b = mid
            maxima.append(a)
        if len(maxima) < 2:
            return None
        heights = [H(m, h) for m in maxima]
        return heights[-1] - max(heights[:-1])

    fracs = [0.0, 1e-9, 1e-6, 1e-3] + [j / 40 for j in range(1, 41)]
    samples = [(h, gap(h)) for h in (lo + (hi - lo) * t for t in fracs)]
    samples = [(h, g) for h, g in samples if g is not None]
    a, b = next((ha, hb) for (ha, ga), (hb, gb) in zip(samples, samples[1:])
                if ga < 0.0 <= gb)
    while a < 0.5 * (a + b) < b:
        mid = 0.5 * (a + b)
        if gap(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _mp_bisect(g, lo, hi):
    """Root of g on [lo, hi], g(lo) < 0 <= g(hi), bisected to the working
    precision."""
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return mid


def stationary_root(p: int, beta: float, h: float, lo: float, hi: float,
                    dps: int = 40):
    """The root r of G(u) = p beta tanh(u)^(p-1) + h - u, which is H'(x) at
    x = tanh(u), in the u-bracket [lo, hi], in mpmath at `dps` digits.

    G must change sign across the float bracket.  r is bisected until the
    bracket is 2^-100 of its size (or r is 0 exactly).  Returns r and
    m = tanh(r) as mpf, whether G falls across r, and as floats G'(r) =
    p(p-1) beta m^(p-2) / cosh(r)^2 - 1, H(m) = beta m^p + h m - m r +
    log cosh(r) (since I(tanh u) = u tanh u - log cosh u) and H''(m) =
    p(p-1) beta m^(p-2) - cosh(r)^2, none of them taken from 1 - m.
    """
    import mpmath

    with mpmath.workdps(dps):
        b, f = mpmath.mpf(beta), mpmath.mpf(h)

        def g(u):
            return p * b * mpmath.tanh(u) ** (p - 1) + f - u

        a, c = mpmath.mpf(lo), mpmath.mpf(hi)
        falls = g(a) > 0
        assert falls != (g(c) > 0), "G keeps its sign across the bracket"
        if a < 0 < c and g(mpmath.mpf(0)) == 0:
            a = c = mpmath.mpf(0)
        while c - a > mpmath.mpf(2) ** -100 * max(abs(a), abs(c)):
            mid = (a + c) / 2
            if (g(mid) > 0) == falls:
                a = mid
            else:
                c = mid
        r = (a + c) / 2
        m, cosh2 = mpmath.tanh(r), mpmath.cosh(r) ** 2
        curv = p * (p - 1) * b * m ** (p - 2)
        return (r, m, falls, float(curv / cosh2 - 1),
                float(b * m**p + f * m - m * r + mpmath.log(mpmath.cosh(r))),
                float(curv - cosh2))



def free_energy_slope(p: int, beta: float, h: float, x: float,
                      dps: int = 40) -> tuple[float, float]:
    """H'(x) and H''(x) at the float x, |x| < 1, in mpmath at `dps` digits."""
    import mpmath

    with mpmath.workdps(dps):
        b, y = mpmath.mpf(beta), mpmath.mpf(x)
        return (float(p * b * y ** (p - 1) + mpmath.mpf(h) - mpmath.atanh(y)),
                float(p * (p - 1) * b * y ** (p - 2) - 1 / (1 - y**2)))

def longdouble_power(up: np.ndarray, down: np.ndarray, stay: np.ndarray,
                     steps: int) -> np.ndarray:
    """P^steps in np.longdouble for the birth-death matrix P with the given
    rates (P[k, k+1] = up[k], P[k, k-1] = down[k], P[k, k] = stay[k]), by
    repeated squaring; steps a power of two.  Where long double is the x87
    80-bit format, its rounding is about 2000 times finer than float64's."""
    n = len(stay)
    power = np.zeros((n, n), dtype=np.longdouble)
    i = np.arange(n)
    power[i, i] = stay
    power[i[:-1], i[1:]] = up[:-1]
    power[i[1:], i[:-1]] = down[1:]
    while steps > 1:
        power = power @ power
        steps //= 2
    return power


def log_binomials(N: int, dps: int = 40) -> np.ndarray:
    """log C(N, j) for j = 0..N from mpmath's loggamma at `dps` digits,
    rounded to double once at the end (about 0.5 s at N = 12800)."""
    import mpmath

    with mpmath.workdps(dps):
        lg = [mpmath.loggamma(n + 1) for n in range(N + 1)]
        return np.array([float(lg[N] - lg[j] - lg[N - j]) for j in range(N + 1)])


def threshold_minima(p: int, dps: int = 50) -> tuple[float, float]:
    """(beta_tilde, beta_prime) = min over (0, 1) of I(x)/x^p and of
    atanh(x)/(p x^(p-1)), in mpmath.

    Their minimizers solve x atanh(x) = p I(x) and x/(1 - x^2) = (p - 1)
    atanh(x), each bisected at `dps` digits on (0.01, 1 - 10^-30), where
    the left side is below the right one at 0.01 and above it at the end.
    """
    import mpmath

    with mpmath.workdps(dps):
        def I(x):
            return ((1 + x) * mpmath.log1p(x) + (1 - x) * mpmath.log1p(-x)) / 2

        lo, hi = mpmath.mpf("0.01"), 1 - mpmath.mpf(10) ** -30
        xt = _mp_bisect(lambda x: x * mpmath.atanh(x) - p * I(x), lo, hi)
        xp = _mp_bisect(lambda x: x / (1 - x**2) - (p - 1) * mpmath.atanh(x), lo, hi)
        return float(I(xt) / xt**p), float(mpmath.atanh(xp) / (p * xp ** (p - 1)))


def curvature_root_pair(p: int, beta: float, dps: int = 50) -> tuple[float, float]:
    """The two positive roots a1 < a2 of H''(x) = p(p-1) beta x^(p-2) -
    1/(1 - x^2), in mpmath.

    They solve g(x) = p(p-1) beta x^(p-2) (1 - x^2) = 1.  g rises on
    (0, w) and falls on (w, 1), w = sqrt(1 - 2/p), so for beta above the
    threshold (g(w) > 1) each root is bisected at `dps` digits on its side
    of w.
    """
    import mpmath

    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)
        w = mpmath.sqrt(1 - mpmath.mpf(2) / p)

        def g(x):
            return p * (p - 1) * b * x ** (p - 2) * (1 - x**2)

        assert g(w) > 1, "beta is not above the threshold"
        a1 = _mp_bisect(lambda x: g(x) - 1, mpmath.mpf(0), w)
        a2 = _mp_bisect(lambda x: 1 - g(x), w, mpmath.mpf(1))
        return float(a1), float(a2)


def concavity_threshold(p: int) -> float:
    """beta_hat = 1 / max over (0, 1) of p(p-1) x^(p-2) (1 - x^2), the peak
    at w = sqrt(1 - 2/p): above it H'' has roots, below it H is concave."""
    w2 = 1.0 - 2.0 / p
    return 1.0 / (p * (p - 1) * w2 ** ((p - 2) / 2.0) * (1.0 - w2))


def coexistence_band(p: int, beta: float) -> tuple[float, float]:
    """(L, U) for beta above the threshold: H has two or more local
    maximizers exactly for L < h < U (odd p), or L < |h| < U (even p, where
    L bounds the band only while L > 0, i.e. below beta_prime).

    With a1 < a2 from curvature_root_pair, H'_0(x) = p beta x^(p-1) -
    atanh(x) has a local minimum g1 = H'_0(a1) and a local maximum g2 =
    H'_0(a2) on (0, 1), and the maximizers of H at field h are the + to -
    sign changes of H'_0 + h.  Odd p: H'_0 > 0 on (-1, 0), so two need
    h + g1 < 0 < h + g2.  Even p, h >= 0: H'_0 is odd, the pieces falling
    into -a2, across (-a1, a1) and out of a2 hold maximizers for h < g2,
    g1 < h < -g1 and h > -g2.
    """
    a1, a2 = curvature_root_pair(p, beta)

    def g(x):
        return p * beta * x ** (p - 1) - math.atanh(x)

    g1, g2 = g(a1), g(a2)
    return -g2, (-g1 if p % 2 == 1 else max(g2, -g1))


def maximizer_height_gap(p: int, beta: float, h: float, dps: int = 40):
    """H(rightmost local maximizer) - H(highest other one) at (p, beta, h),
    in mpmath at `dps` digits; None with fewer than two maximizers.

    In x = tanh(u), H'(x) = p beta tanh(u)^(p-1) + h - u and
    H(x) = beta x^p + h x - x u + log cosh(u), since I(tanh u) =
    u tanh u - log cosh u.  Every root of H' lies in |u - h| <= p beta, so
    the + to - sign changes of H' on a float grid of u over
    +-(p beta + |h| + 2), at step 1e-3, bracket the maximizers, each
    bisected in u at `dps` digits.
    """
    import mpmath

    reach = p * beta + abs(h) + 2.0
    u = np.linspace(-reach, reach, 2 * int(1000 * reach) + 1)
    g = p * beta * np.tanh(u) ** (p - 1) + h - u
    with mpmath.workdps(dps):
        b, f = mpmath.mpf(beta), mpmath.mpf(h)
        heights = []
        for i in np.flatnonzero((g[:-1] > 0) & (g[1:] <= 0)):
            lo, hi = mpmath.mpf(u[i]), mpmath.mpf(u[i + 1])
            for _ in range(4 * dps):
                mid = (lo + hi) / 2
                if p * b * mpmath.tanh(mid) ** (p - 1) + f - mid > 0:
                    lo = mid
                else:
                    hi = mid
            v = (lo + hi) / 2
            x = mpmath.tanh(v)
            heights.append(b * x**p + f * x - x * v + mpmath.log(mpmath.cosh(v)))
        if len(heights) < 2:
            return None
        return float(heights[-1] - max(heights[:-1]))
