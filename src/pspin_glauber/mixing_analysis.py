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
the stationary laws and the kernel's rates in log space.  Both laws are
read from the kernel of the restriction: ``LevelKernel.gibbs`` (or
``log_gibbs``), the target of every TV, and ``log_pi``, the chain's own.

Exact mixing times skip the blocks where TV provably stays above eps with
one leap of the banded block power, or of its square where the kernel has
leapt long enough to pay for it (``evolve`` with ``leap_above=eps``), and
finish in closed form once only the slowest mode is left (``_slow_finish``):
u steps on, the law is then pi_chain + lam2^u (mu - pi_chain) up to a
remainder that one more push bounds, and the first crossing along that ray
is found without pushing the remaining steps.

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
    kernel_arrays,  # noqa: F401  (perfbench/layers.py counts calls through it)
    restricted_threshold,
    rng_stream,
    simulate_mag_replicas,  # noqa: F401  (perfbench/layers.py patches this name)
)
from .potential import DomainError, ModelParams

EXACT = "ExactProjected"
MONTE_CARLO = "MonteCarlo"


def stationary_mag(params: ModelParams, N: int) -> np.ndarray:
    """The Gibbs law pushed to magnetization levels: LevelKernel(params,
    N).gibbs.  Raises DomainError when it is not representable."""
    return LevelKernel(params, N).gibbs


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
    floor-restricted kernel and its conditioned Gibbs law are used instead.
    """
    kernel = LevelKernel(params, N, lo=k_min)
    start = kernel.index(start_k)
    if t_max < 0:
        raise DomainError("t_max must be >= 0")
    pi = kernel.gibbs

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
# coarse spectrum, computed at the first try (23 Sturm counts, about 0.5 ms
# at N = 200 and 3.5 ms at N = 1600), is then not paid by the regular
# point, which mixes in about 0.6 N log N steps.  Later tries are scheduled
# from the spectrum.
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

    Let d = mu - pi, with pi the chain's own law, and ||v||_w = ||v /
    sqrt(pi)||_2, a norm that bounds L1 and in which P is self-adjoint.
    Write d = c2 x2 + r, with x2 P = lam2 x2 and r in the modes at or below
    lam3 (LevelKernel.spectrum).  As (P - lam2) x2 = 0 and lam2 - lam_i >=
    lam2 - lam3 for those modes, ||r||_w <= R = (||d P - lam2 d||_w + err
    ||d||_w) / (lam2 - err - lam3).  u steps later the law is pi + lam2^u
    c2 x2 + r P^u, so the ray pi + lam2^u d, the law itself at u = 0, is
    off by at most R + u err ||d||_w / 2 in TV, plus rounding.  The TV to
    target along the ray is convex in s = lam2^u, so the first u with TV <=
    eps follows from a bisection over integers.  The result is certified
    when the ray's distance from eps, at the crossing and the step before
    it (or up to the cap), exceeds that error and the rounding of pi and of
    the push that any reference computation of the same law would make.

    Until a try has refined lam2 (LevelKernel.spectrum, cached on the
    kernel and so shared by its starts), a try first reads the cheap
    LevelKernel.coarse_spectrum, which brackets lam2 in [top - width, top],
    and drops out, to try again t steps on, when R provably exceeds the
    ray's distance from eps, the margin.  R is at least (||d P - top d||_w
    - width ||d||_w) / (top - lam3).  The ray falls until the step the
    margin is read at, so the margin is at most the TV at u = 0 minus eps.
    And where the ray is within eps at s = top^(cap - t), at or above its
    value at the cap, the two steps of the ray around that point lie
    within ||d||_1 (1 - lam2) / 2 of eps, and so does the margin.  A factor
    2 on that bound covers the rounding of both sides.

    Returns (u, None) when certified: the first crossing is at t + u, or
    after the cap when u > cap - t.  Otherwise returns (None, wait): the
    steps until another try, from t / 2 to t, so that tries stay cheap
    beside the push, or wait None when the spectrum allows no certificate.
    """
    coarse = kernel.coarse_spectrum
    top, width = coarse.lam2, coarse.err
    # then the refined check below fails too: lam2 <= top, err >= 16 eps
    if not (coarse.rho < top and top - width < 1.0 - 32 * _EPS):
        return None, None
    log_pi = kernel.log_pi
    pi = np.exp(log_pi)
    d = mu - pi
    dP = kernel.push(d)

    def w_norm(v):  # ||v||_w, formed in log space where pi underflows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(np.linalg.norm(np.where(
                v == 0.0, 0.0, np.exp(np.log(np.abs(v)) - 0.5 * log_pi))))

    def ray(u, lam2):  # TV along the ray u steps on, minus eps, and its slope in s
        gap = pi + lam2 ** u * d - target
        return 0.5 * float(np.abs(gap).sum()) - eps, float(d @ np.sign(gap))

    D, horizon = w_norm(d), cap - t
    if "spectrum" not in vars(kernel):  # lam2 not yet refined (a cached_property)
        if ray(horizon, top)[0] <= 0.0:
            bound = 0.5 * float(np.abs(d).sum()) * (1.0 - (top - width))
        else:
            bound = ray(0, top)[0]
        low = (w_norm(dP - top * d) - width * D) / (top - coarse.lam3)
        if not low <= 2.0 * bound:  # or R is not finite
            return None, t

    lam2, lam3, rho, err = kernel.spectrum
    if not rho + 2 * err < lam2 < 1.0 - 2 * err:
        return None, None
    R = (w_norm(dP - lam2 * d) + err * D) / (lam2 - err - lam3)
    if not math.isfinite(R):  # mass where pi underflows: try again later
        return None, t

    # The ray's TV falls, then rises (convex in s = lam2^u): find the first
    # u at which it is within eps or has stopped falling.
    lo, hi = 0, horizon + 1
    while lo < hi:
        mid = (lo + hi) // 2
        e, slope = ray(mid, lam2)
        if e <= 0.0 or slope <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    u, (e, _) = lo, ray(lo, lam2)
    if e <= 0.0 and u <= horizon:
        margin = min(-e, ray(u - 1, lam2)[0]) if u else 0.0
    else:  # the ray stays above eps up to the cap
        margin = min(ray(j, lam2)[0] for j in (u - 1, u) if 0 <= j <= horizon)
        u = horizon + 1
    span = min(u, horizon)
    drift = 0.5 * span * err
    # rounding: pi's log cumsum (an eps per level and per unit of |log
    # ratio|) and under 4 eps of L1 per pushed step, here and in a reference
    rest = _EPS * (2 * (len(pi) + np.abs(np.diff(log_pi)).sum()) + 4 * (t + span))
    if margin > R + drift * D + rest:
        return u, None
    # the part of d along x2, at least ||d||_w - R, keeps its drift until
    # the crossing nears; R shrinks at least like rho^u, and faster while
    # fast modes die out
    floor = rest + drift * max(D - R, 0.0)
    if margin <= floor:
        return None, t
    shrink = math.log((margin - floor) / R) / math.log(max(rho, _EPS))
    return None, min(max(math.ceil(shrink), t // 2), t)


def _mc_tv_crossing(kernel, target, start_k, eps, cap, replicas, seed):
    """First checkpoint (every N // 4 steps) where the TV of the histogram
    of `replicas` chains from start_k drops to eps, with its rough
    multinomial standard error: (t, se), or (None, None) past the cap.

    The chains are held as counts over the kernel's levels and stepped as
    a whole (LevelKernel.step_counts), on the stream rng_stream(seed, 3,
    (start_k + N) // 2): each step costs one multinomial draw over the
    levels, whatever the number of chains.
    """
    N = kernel.N
    rng = rng_stream(seed, 3, (start_k + N) // 2)
    n = np.zeros(len(target), dtype=np.int64)
    n[kernel.index(start_k)] = replicas
    t = 0
    while t < cap:
        step = min(max(1, N // 4), cap - t)
        kernel.step_counts(n, step, rng)
        t += step
        hist = n / replicas
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
    when that lies past the cap.  MonteCarlo estimates TV from the
    histogram of `replicas` chains every N // 4 steps (_mc_tv_crossing:
    upward-biased near the crossing, reported with a rough multinomial
    standard error).  The chains are stepped as counts over the levels,
    one multinomial draw per step from the kernel's folded one-step law,
    so its cost does not grow with replicas, any number of them that an
    int64 holds.
    """
    if not 0.0 < eps < 0.5:
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    if mode == MONTE_CARLO and not 1 <= replicas < 2**63:  # an int64 count
        raise DomainError(f"replicas must lie in [1, 2**63 - 1], got {replicas}")
    if mode not in (EXACT, MONTE_CARLO):
        raise DomainError(f"unknown mode {mode!r}")
    kernel = LevelKernel(params, N, lo=k_min)
    if starts is None:
        starts = (N, -N) if kernel.lo == -N else (int(kernel.ks[0]), N)
        starts = tuple(dict.fromkeys(starts))  # a floor that rounds up to N: one start

    t_by_start: dict[int, int | None] = {}
    se_by_start: dict[int, float | None] = {}
    target = kernel.gibbs
    for start_k in starts:
        if mode == EXACT:
            t_by_start[start_k] = _exact_crossing(kernel, target, start_k, eps, cap)
        else:
            t_by_start[start_k], se_by_start[start_k] = _mc_tv_crossing(
                kernel, target, start_k, eps, cap, replicas, seed)
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
    to survive exponentially small masses, a rate that underflows to 0
    too (LevelKernel.log_rates), so every log_Q is finite.  phi_star
    minimizes Q/pi(A) over cuts with pi(A) <= 1/2.
    """
    if N < 2:
        raise DomainError("N must be >= 2")
    kernel = LevelKernel(params, N)
    log_pi = kernel.log_gibbs
    log_cum_lo = np.logaddexp.accumulate(log_pi)
    log_cum_hi = np.logaddexp.accumulate(log_pi[::-1])[::-1]

    log_up, log_down = kernel.log_rates
    with np.errstate(divide="ignore"):  # a rate that underflows: its log-space form
        log_up = np.where(kernel.up[:-1] > 0.0, np.log(kernel.up[:-1]), log_up)
        log_down = np.where(kernel.down[1:] > 0.0, np.log(kernel.down[1:]), log_down)
    ks = kernel.ks.tolist()
    cuts = []
    # A = {<= k} is cut below the top level, A = {>= k} above the bottom one
    for side, part, log_move, log_cum in (("leq", slice(None, -1), log_up, log_cum_lo),
                                          ("geq", slice(1, None), log_down, log_cum_hi)):
        log_q = log_pi[part] + log_move
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
