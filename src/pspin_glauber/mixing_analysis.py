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
one leap (``evolve`` with ``leap_above=eps``): of the banded block power, of
its square where the kernel has leapt long enough to pay for it, or of the
longest dense power P^(2^j) in the kernel's table that one certificate
clears, so that a crossing exp(Omega(N)) steps away costs about log2 of
that many squarings, each built once the shorter leaps have paid for it.
Every crossing is read from a pushed block's TVs: the step the per-step
push reaches.

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


def _exact_crossing(kernel: LevelKernel, target: np.ndarray, start_k: int,
                    eps: float, cap: int) -> int | None:
    """First step t <= cap with TV(law from start_k, target) <= eps, or None.

    One kernel.evolve with leap_above=eps: a leapt block provably holds no
    crossing, a pushed one gives its TVs step by step.
    """
    mu = np.zeros(len(kernel.ks))
    mu[kernel.index(start_k)] = 1.0
    if 0.5 * float(np.abs(mu - target).sum()) <= eps:
        return 0
    for t, _, _, tv in kernel.evolve(mu, cap, target=target, leap_above=eps):
        if tv is not None:
            hit = np.flatnonzero(tv <= eps)
            if hit.size:
                return t - len(tv) + int(hit[0]) + 1
    return None


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
    through the kernel's dense powers where TV stays above eps for long:
    the same step tv_curve's push reaches, or capped when that lies past
    the cap.  MonteCarlo estimates TV from the
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
