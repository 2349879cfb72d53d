"""Exact mixing analysis on the magnetization chain.

The magnetization sum of the dynamics is a birth-death chain on the N+1
levels ``{-N, -N+2, ..., N}``.  From a constant (hence exchangeable) start
the conditional law of the full chain given the magnetization trajectory
is uniform on each level set, and the Gibbs measure is uniform on level
sets too, so the total-variation distance of the full chain to the Gibbs
measure equals the total-variation distance between the level laws.  This
module evolves level laws exactly (``LevelKernel.evolve``: the tridiagonal
push on the law's live window, a block of steps at a time) and derives
mixing times from them; conductance cuts and mean hitting times follow from
the stationary laws and the kernel's rates in log space.

Exact mixing times skip the blocks where TV provably stays above eps with
one leap of the banded block power (``evolve`` with ``leap_above=eps``), and
finish in closed form once only the slowest mode is left (``_slow_finish``):
the law is then pi_chain + lam2^u c2 x2 up to a remainder that a
certificate bounds, and the first crossing along that ray is found without
pushing the remaining steps.

Worst-start convention: mixing times maximize the TV crossing over the
all-plus and all-minus starts (the extreme levels), not over all 2^N
starts.  The dense oracle test (test_criterion_03_oracle_equivalence)
pushes the full 2^N-state chain from the all-plus start only, at N <= 10:
it checks the projection to levels, not that +-N are the worst starts.  At
even p the rule is monotone in the magnetization, so the grand coupling
keeps every configuration between the chains from +N and -N, and the chance
that those two have not met bounds d(t) for every start: a bound, not an
equality with the TV from +-N.  At odd p with lambda'(m*) < 0 a balanced
start can be slower: at (3, 0.5, -0.6), N = 800, the start k = 0 needs
3,093 steps against 2,893 from +N, the worst of +-N (TV to the chain's own
law, eps = 0.25).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LevelKernel,
    kernel_arrays,
    restricted_threshold,
    rng_stream,
    simulate_mag_replicas,
)
from .potential import DomainError, ModelParams

EXACT = "ExactProjected"
MONTE_CARLO = "MonteCarlo"


@dataclass
class MagDistribution:
    """A magnetization-level law, with its level weights in log space.

    stationary_mag gives the Gibbs law, the law every TV distance here is
    measured against; chain_stationary gives the tanh rule's own stationary
    law, which balances the Gibbs law only up to a relative O(1/N) defect.
    """

    N: int
    ks: np.ndarray          # magnetization sums, ascending
    log_weights: np.ndarray  # unnormalised log weights
    log_Z_shifted: float     # log sum of exp(log_weights - max shift)
    probs: np.ndarray


def _level_law(N: int, ks: np.ndarray, log_w: np.ndarray) -> MagDistribution:
    """Normalise log weights by max shift + log-sum-exp."""
    with np.errstate(over="ignore"):  # a shift beyond the range: weight 0
        w = np.exp(log_w - log_w.max())
    z = w.sum()
    return MagDistribution(N=N, ks=ks, log_weights=log_w,
                           log_Z_shifted=float(np.log(z)), probs=w / z)


def _log_binomials(N: int) -> np.ndarray:
    """log C(N, j) for j = 0..N, each within about an ulp.

    A running sum of log C(N, j+1) - log C(N, j) = log1p((N - 2j - 1)/(j + 1))
    up to j = N/2, mirrored about N/2.  The sum is compensated (Neumaier's
    variant of Kahan's: the rounding error of every partial sum is found
    exactly and summed apart), which a plain cumsum is not, and it avoids the
    cancellation of lgamma(N + 1) - lgamma(j + 1) - lgamma(N - j + 1).
    """
    j = np.arange(N // 2, dtype=float)
    terms = np.log1p((N - 2 * j - 1) / (j + 1))
    sums = np.cumsum(terms)
    prev = np.concatenate(([0.0], sums[:-1]))
    errors = np.where(np.abs(prev) >= np.abs(terms),
                      (prev - sums) + terms, (terms - sums) + prev)
    half = np.concatenate(([0.0], sums + np.cumsum(errors)))
    n_plus = np.arange(N + 1)
    return half[np.minimum(n_plus, N - n_plus)]


def stationary_mag(params: ModelParams, N: int) -> MagDistribution:
    """Push the Gibbs measure to magnetization levels, exactly in log space.

    log w(k) = log C(N, (N+k)/2) + N*(beta*(k/N)^p + h*(k/N)).  Raises
    DomainError when the field term overflows a double at some level: the
    law is then not representable.
    """
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    ks = np.arange(-N, N + 1, 2, dtype=np.int64)
    c = ks / N
    with np.errstate(over="ignore"):
        log_w = _log_binomials(N) + N * (params.beta * c**params.p + params.h * c)
    if not np.isfinite(log_w).all():
        raise DomainError(f"the level weights overflow at N={N}: "
                          "N*(beta*c^p + h*c) exceeds the double range")
    return _level_law(N, ks, log_w)


def chain_stationary(params: ModelParams, N: int) -> MagDistribution:
    """The chain's own stationary level law, from LevelKernel.log_pi.

    The tanh rule is exactly reversible with respect to this law; its TV
    distance to the Gibbs law is the floor no mixing time can go below.
    """
    kernel = LevelKernel(params, N)
    return _level_law(N, kernel.ks, kernel.log_pi)


def condition_at_least(dist: MagDistribution, k_min: int) -> MagDistribution:
    """The Gibbs level law conditioned on {sum >= k_min}.

    k_min <= -N is a no-op returning the same object (bit-identical law).
    """
    if k_min <= -dist.N:
        return dist
    keep = dist.ks >= k_min
    if not keep.any():
        raise DomainError(f"no levels at or above {k_min}")
    return _level_law(dist.N, dist.ks[keep], dist.log_weights[keep])


@dataclass
class TVCurve:
    start_k: int
    ts: np.ndarray
    tv: np.ndarray
    capped: bool


@dataclass
class MixingReport:
    eps: float
    t_mix: int | None      # None when capped
    capped: bool
    cap: int
    method: str
    starts: list[int]
    t_by_start: dict[int, int | None]
    stat_error: float | None = None


def tv_curve(params: ModelParams, N: int, start_k: int, t_max: int,
             eps_stop: float = 0.0, k_min: int | None = None) -> TVCurve:
    """Exact TV distance to the Gibbs level law from a point-mass start.

    Evolves the level law with LevelKernel.evolve, recording TV each step;
    stops at the first step with TV <= eps_stop.  With k_min the
    floor-restricted kernel and the conditioned Gibbs law are used instead.
    """
    if k_min is None:
        k_min = -N
    kernel = LevelKernel(params, N, lo=k_min)
    start = kernel.index(start_k)
    if t_max < 0:
        raise DomainError("t_max must be >= 0")
    pi = condition_at_least(stationary_mag(params, N), k_min).probs

    mu = np.zeros_like(pi)
    mu[start] = 1.0
    tvs = [0.5 * np.abs(mu - pi).sum(keepdims=True)]
    if not tvs[0][0] <= eps_stop:
        for *_, tv in kernel.evolve(mu, t_max, target=pi):
            hit = np.flatnonzero(tv <= eps_stop)
            if hit.size:
                tvs.append(tv[:hit[0] + 1])
                break
            tvs.append(tv)
    tv = np.concatenate(tvs)
    return TVCurve(start_k=start_k, ts=np.arange(len(tv)), tv=tv,
                   capped=not tv[-1] <= eps_stop)


# Exact mixing first tries the closed-form finish after this many sweeps (N
# steps each).  The modes of the level chain other than the slowest relax on
# the scale of a sweep, so no certificate holds much earlier; the kernel's
# spectrum, computed at the first try (2-3 ms at N = 200, 9 ms at
# N = 1600), is then not paid by the regular point, which mixes in about
# 0.6 N log N steps.  Later tries are scheduled from the spectrum.
_FIRST_FINISH = 8
_EPS = np.finfo(float).eps


def _exact_crossing(kernel: LevelKernel, target: np.ndarray, start_k: int,
                    eps: float, cap: int) -> int | None:
    """First step t <= cap with TV(law from start_k, target) <= eps, or None.

    One kernel.evolve with leap_above=eps: a leapt block provably holds no
    crossing, a pushed one gives its TVs step by step.  At checkpoints it
    tries _slow_finish, which ends the push once its certificate holds.
    """
    n = len(kernel.ks)
    mu = np.zeros(n)
    mu[kernel.index(start_k)] = 1.0
    if 0.5 * float(np.abs(mu - target).sum()) <= eps:
        return 0
    check = _FIRST_FINISH * kernel.N if n >= 3 else cap
    for t, lo, laws, tv in kernel.evolve(mu, cap, target=target, leap_above=eps):
        if tv is not None:
            hit = np.flatnonzero(tv <= eps)
            if hit.size:
                return t - len(tv) + int(hit[0]) + 1
        if check <= t < cap:
            law = np.zeros(n)
            law[lo:lo + laws.shape[1]] = laws[-1]
            u, wait = _slow_finish(kernel, law, target, eps, t, cap)
            if u is not None:
                return t + u if t + u <= cap else None
            check = cap if wait is None else t + wait
    return None


def _slow_finish(kernel: LevelKernel, mu: np.ndarray, target: np.ndarray,
                 eps: float, t: int, cap: int):
    """Closed-form end of the push of the law mu, reached at step t.

    Write d = mu - pi, with pi the chain's own law, as c2 x2 + r, where x2
    is the left eigenvector of lam2 (LevelKernel.spectrum).  u steps later
    the law is pi + lam2^u c2 x2 + r P^u, and a reversible kernel contracts
    r in the 1/pi-weighted L2 norm, so ||r P^u||_1 <= R = ||r / sqrt(pi)||_2
    for every u >= 0.  The TV to target along the ray pi + s c2 x2 is convex
    in s, so the first u with TV <= eps follows from a bisection over
    integers.  The result is certified when the ray's distance from eps,
    at the crossing and the step before it (or up to the cap), exceeds
    R / 2 plus the errors of lam2 and x2 and the rounding of pi and of the
    push that any reference computation of the same law would make.

    Returns (u, None) when certified: the first crossing is at t + u, or
    after the cap when u > cap - t.  Otherwise returns (None, wait): the
    steps until R, whose part outside the two slowest modes shrinks like
    rho^u (SlowSpectrum.rho), may be small enough for another try, or wait
    None when no later try can succeed.
    """
    spec = kernel.spectrum
    lam2, rho, err = spec.lam2, spec.rho, spec.err
    if not rho + 2 * err < lam2 < 1.0 - 2 * err:
        return None, None
    log_pi = kernel.log_pi
    pi = np.exp(log_pi)
    d = mu - pi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # d / sqrt(pi), formed in log space where pi underflows
        q = np.where(d == 0.0, 0.0,
                     np.sign(d) * np.exp(np.log(np.abs(d)) - 0.5 * log_pi))
        c2 = float(q @ spec.v2)
        R = float(np.linalg.norm(q - c2 * spec.v2))
    if not math.isfinite(R):  # mass where pi underflows: try again later
        return None, t
    w = c2 * spec.v2 * np.exp(0.5 * log_pi)
    horizon = cap - t

    def ray(u):  # TV along the ray u steps on, minus eps, and its slope in s
        gap = pi + lam2 ** u * w - target
        return 0.5 * float(np.abs(gap).sum()) - eps, float(w @ np.sign(gap))

    # The ray's TV falls, then rises (convex in s = lam2^u): find the first
    # u at which it is within eps or has stopped falling.
    lo, hi = 0, horizon + 1
    while lo < hi:
        mid = (lo + hi) // 2
        e, slope = ray(mid)
        if e <= 0.0 or slope <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    u, (e, _) = lo, ray(lo)
    if e <= 0.0 and u <= horizon:
        margin = min(-e, ray(u - 1)[0]) if u else 0.0
    else:  # the ray stays above eps up to the cap
        margin = min(ray(j)[0] for j in (u - 1, u) if 0 <= j <= horizon)
        u = horizon + 1
    span = min(u, horizon)
    # x2's error, orthogonal to the two top eigenvectors (Davis-Kahan)
    x2_err = err / (lam2 - rho - err)
    # rounding: pi's log cumsum (an eps per level and per unit of |log
    # ratio|) and under 4 eps of L1 per pushed step, here and in a reference
    rest = (abs(c2) * (x2_err + 0.5 * span * err)
            + _EPS * (2 * (len(pi) + np.abs(np.diff(log_pi)).sum()) + 4 * (t + span)))
    if margin > 0.5 * R + rest:
        return u, None
    if margin <= rest:
        return None, None
    shrink = math.log(2 * (margin - rest) / R) / math.log(max(rho, _EPS))
    return None, max(math.ceil(shrink), t // 2)


def _mc_tv_crossing(params, kernel, target, start_k, eps, cap, replicas, seed):
    """First checkpoint (every N // 4 steps) where the replica-histogram TV
    drops to eps."""
    N = kernel.N
    kernel.index(start_k)
    rng = rng_stream(seed, 3, (start_k + N) // 2)
    ks = np.full(replicas, start_k, dtype=np.int64)
    t = 0
    while t < cap:
        step = min(max(1, N // 4), cap - t)
        ks = simulate_mag_replicas(params, N, ks, step, rng, lo=kernel.lo)
        t += step
        hist = np.bincount((ks - kernel.ks[0]) // 2, minlength=len(target)) / replicas
        tv = 0.5 * float(np.abs(hist - target).sum())
        if tv <= eps:
            se = 0.5 * float(np.sqrt(np.sum(hist * (1 - hist)) / replicas))
            return t, se
    return None, None


def mixing_time(params: ModelParams, N: int, eps: float, cap: int,
                mode: str = EXACT, seed: int = 0, replicas: int = 10_000,
                k_min: int | None = None,
                starts: tuple | None = None) -> MixingReport:
    """Mixing time at level eps: worst TV crossing over the examined starts.

    ExactProjected evolves the level law exactly, leaping whole blocks
    where TV provably stays above eps (LevelKernel.evolve's leap_above),
    and, once only its slowest mode is left, finds the crossing in closed
    form (_slow_finish): the same step tv_curve's push reaches, or capped
    when that lies past the cap.  MonteCarlo estimates TV from replica
    histograms every N // 4 steps (upward-biased near the crossing,
    reported with a rough multinomial standard error).
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    if k_min is None:
        k_min = -N
    if starts is None:
        starts = (N, -N) if k_min <= -N else (k_min + (k_min + N) % 2, N)
    if mode not in (EXACT, MONTE_CARLO):
        raise DomainError(f"unknown mode {mode!r}")

    t_by_start: dict[int, int | None] = {}
    se_by_start: dict[int, float | None] = {}
    # the Gibbs law first: its errors (weights that overflow, no level at or
    # above k_min) are the ones raised, before any kernel table is built
    target = condition_at_least(stationary_mag(params, N), k_min).probs
    kernel = LevelKernel(params, N, lo=k_min)
    for start_k in starts:
        if mode == EXACT:
            t_by_start[start_k] = _exact_crossing(kernel, target, start_k, eps, cap)
        else:
            t_by_start[start_k], se_by_start[start_k] = _mc_tv_crossing(
                params, kernel, target, start_k, eps, cap, replicas, seed)
    capped = any(v is None for v in t_by_start.values())
    t_mix = None if capped else max(t_by_start.values())
    # the error belongs to the start that sets t_mix
    se = None if capped else se_by_start.get(max(t_by_start, key=t_by_start.get))
    return MixingReport(eps=eps, t_mix=t_mix, capped=capped, cap=cap,
                        method=mode, starts=list(starts),
                        t_by_start=t_by_start, stat_error=se)


def restricted_mixing_time(params: ModelParams, N: int, eps: float,
                           cap: int) -> MixingReport:
    """Mixing time of the floor-restricted dynamics to its conditioned law.

    The floor comes from restricted_threshold; with no restriction active
    the result is bit-identical to mixing_time (same kernel, same law).
    Worst start among {floor level, all-plus}.
    """
    k_min = restricted_threshold(params, N)
    return mixing_time(params, N, eps, cap, k_min=k_min)


@dataclass
class CutStat:
    k: int              # boundary level of the interval cut
    side: str           # "leq": A = {levels <= k}; "geq": A = {levels >= k}
    log_Q: float        # log pi(k) + log p_out(k) across the boundary
    log_pi_A: float
    log_ratio: float


@dataclass
class BottleneckReport:
    cuts: list[CutStat]
    phi_star: float
    log_phi_star: float
    argmin_k: int


def bottleneck(params: ModelParams, N: int) -> BottleneckReport:
    """Bottleneck (conductance) scan over interval magnetization cuts.

    For A = {levels <= k} only the top boundary level carries flow out, so
    Q(A, A^c) = pi(k) p_up(k); for A = {levels >= k} it is pi(k) p_down(k).
    Both families are scanned (whichever well is metastable, its interval
    cut is on one of the two sides); everything is computed in log space
    to survive exponentially small masses.  phi_star minimizes Q/pi(A)
    over cuts with pi(A) <= 1/2.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    dist = stationary_mag(params, N)
    up, down, _ = kernel_arrays(params, N)
    log_pi = dist.log_weights - (dist.log_weights.max() + dist.log_Z_shifted)
    log_cum_lo = np.logaddexp.accumulate(log_pi)
    log_cum_hi = np.logaddexp.accumulate(log_pi[::-1])[::-1]

    with np.errstate(divide="ignore"):
        log_up = np.log(up)
        log_down = np.log(down)
    ks = dist.ks.tolist()
    cuts = []
    # A = {<= k} is cut below the top level, A = {>= k} above the bottom one
    for side, part, log_move, log_cum in (("leq", slice(None, -1), log_up, log_cum_lo),
                                          ("geq", slice(1, None), log_down, log_cum_hi)):
        log_q = log_pi[part] + log_move[part]
        cuts += [CutStat(k, side, q, a, r) for k, q, a, r in zip(
            ks[part], log_q.tolist(), log_cum[part].tolist(),
            (log_q - log_cum[part]).tolist())]
    best = None
    for cut in cuts:
        if cut.log_pi_A <= math.log(0.5) and (best is None or cut.log_ratio < best.log_ratio):
            best = cut
    if best is None:
        raise DomainError("no interval cut with stationary mass <= 1/2")
    return BottleneckReport(cuts=cuts, phi_star=math.exp(best.log_ratio),
                            log_phi_star=best.log_ratio, argmin_k=best.k)


@dataclass
class HittingReport:
    target: int
    mean_steps: float


def hitting_time(params: ModelParams, N: int, start_k: int, target_k: int,
                 k_min: int | None = None) -> HittingReport:
    """Exact mean first time the (optionally floor-restricted) magnetization
    chain started at start_k is at a level >= target_k: 0 from such a level.

    The chain climbs one level at a time, so the mean is a sum of one-level
    passages, and the passage from kept level i to i + 1 takes
    pi[0..i] / (pi_i up_i) steps on average, pi the chain's own law
    (Levin-Peres-Wilmer, ch. 2).  Summed in log space; a mean beyond the
    float range reads inf.
    """
    kernel = LevelKernel(params, N, lo=k_min)
    start = kernel.index(start_k)
    if abs(target_k) > N:
        raise DomainError(f"target level {target_k} outside [-{N}, {N}]")
    end = int(np.searchsorted(kernel.ks, target_k))  # first kept level >= target
    log_pi = kernel.log_pi[:end]
    with np.errstate(divide="ignore", over="ignore"):
        log_steps = np.logaddexp.accumulate(log_pi) - log_pi - np.log(kernel.up[:end])
        mean = float(np.exp(log_steps[start:]).sum())
    return HittingReport(target=target_k, mean_steps=mean)
