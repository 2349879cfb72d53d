"""Single-site heat-bath dynamics for the p-spin Curie-Weiss model.

A step picks a site uniformly at random and resamples its spin to +1 with
probability ``f(c) = (1 + tanh(p*beta*c^(p-1) + h)) / 2`` where ``c`` is
the current magnetization (including the chosen site).  The magnetization
sum is then itself a birth-death chain on ``{-N, -N+2, ..., N}``.

:class:`LevelKernel` is the one place this rule is tabulated.  It holds f and
the birth-death triple (up, down, stay) of a restriction ``[lo, hi]`` of the
sum, clamped to ``[-N, N]``, and offers the three engines everything else is
built from: an exact push of a level law (one step, `evolve` for many
steps on the law's live window, or `leap`, a whole block of steps through
the kernel's banded block power), a scalar walk of a spin configuration
over a chunk of draws and a replica step of many magnetization chains.  A
move that would leave ``[lo, hi]`` is rejected (the state is kept); the push
tables fold that rejection into ``stay``.  The floor of the restricted
dynamics and the sampler's windows are both such restrictions; the
unrestricted chain is the full interval.

Every scalar step consumes exactly two uniforms in fixed order (site, spin),
so two chains advanced with shared draws form the grand coupling and runs
are bitwise reproducible from the seed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
# numpy 2 imports numpy.random on first use; rng_stream needs it, and this
# import pays its cost with the module's own, not in the first draw
import numpy.random
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .potential import (
    CURVATURE_TOL,
    HEIGHT_TOL,
    DomainError,
    ModelParams,
    find_stationary_points,
    local_maxima,
)

_U64 = (1 << 64) - 1

# Steps per block of LevelKernel.evolve.  A block's renormalisation, TV rows
# and trim cost a fixed handful of numpy calls, which 32 steps share, while
# the window it pushes is only 2 * 32 levels wider than the law's live part
# (blocks of 16 or 64 ran the benchmark's mix-sweeps no faster).
_BLOCK = 32
# Tail cut of LevelKernel.evolve: after each block, entries <= eps**2
# (~4.9e-32) at the ends of the live window are dropped.  A Markov kernel
# never increases L1 distance, so the error this adds to every later law is
# at most twice the dropped mass, which is below (N + 1) * eps**2 per block:
# under 1e-23 over 10**6 steps at N = 6400, far below the rounding of a TV.
_TAIL = np.finfo(float).eps ** 2
_EPS = np.finfo(float).eps
# LevelKernel.band is built this many levels at a time, cut ends +-_BLOCK:
# the last squaring's padded copy and product of a stretch (608 and 576 rows
# of 65 floats, 0.6 MB) stay in cache.  Built unchunked, the full-size ones
# (6.6 MB at N = 6400) raised the benchmark's exact-mix peak RSS by 2.9 MB;
# 256 ran a fifth slower, 1024 no faster.
_BAND_ROWS = 512
# Scalar steps per chunk of LevelKernel.draws: one rng.random call each.
_CHUNK = 1 << 14


def live_window(lo: int, law: np.ndarray) -> tuple[int, np.ndarray]:
    """The law on ks[lo:lo + len(law)] without its tail cut: (a, held), held
    the view of law from its first to its last entry above _TAIL, at ks[a]."""
    live = law > _TAIL
    a, b = int(live.argmax()), len(law) - int(live[::-1].argmax())
    return lo + a, law[a:b]


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for (seed, key...): independent, reproducible streams."""
    ss = np.random.SeedSequence(entropy=int(seed) & _U64,
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class SpinConfig:
    """A spin configuration with cached magnetization sum."""

    spins: np.ndarray  # int8 array over {-1, +1}
    sum: int

    @classmethod
    def all_plus(cls, N: int) -> "SpinConfig":
        return cls(spins=np.ones(N, dtype=np.int8), sum=N)

    @classmethod
    def all_minus(cls, N: int) -> "SpinConfig":
        return cls(spins=-np.ones(N, dtype=np.int8), sum=-N)

    @classmethod
    def from_magnetization(cls, N: int, k: int) -> "SpinConfig":
        """Deterministic config at sum k: the first (N+k)/2 sites are +1.

        Site labels are exchangeable, so the choice is irrelevant for any
        magnetization-level observable.
        """
        if (N + k) % 2 != 0 or abs(k) > N:
            raise DomainError(f"sum {k} unreachable for N={N}")
        n_plus = (N + k) // 2
        spins = -np.ones(N, dtype=np.int8)
        spins[:n_plus] = 1
        return cls(spins=spins, sum=k)

    @property
    def N(self) -> int:
        return self.spins.shape[0]

    def copy(self) -> "SpinConfig":
        return SpinConfig(spins=self.spins.copy(), sum=self.sum)

    def validate(self) -> None:
        n = self.N
        if not np.all(np.abs(self.spins) == 1):
            raise DomainError("spins must be +-1")
        if self.sum != int(self.spins.sum()):
            raise DomainError("cached sum out of sync")
        if abs(self.sum) > n or (self.sum + n) % 2 != 0:
            raise DomainError("sum violates parity")


def nearest_level(N: int, m: float) -> int:
    """Closest reachable magnetization sum to N*m (parity of N)."""
    k = int(round(N * m))
    if (k + N) % 2 != 0:
        k += 1 if N * m >= k else -1
    return max(-N, min(N, k))


def _drift(params: ModelParams, c):
    """d(c) = p*beta*c^(p-1) + h: the update rule is f(c) = sigmoid(2*d(c))."""
    return params.p * params.beta * c ** (params.p - 1) + params.h


def _sigmoid(x):
    """1 / (1 + exp(-x)): exactly 0 where exp(-x) overflows (x < -709.78),
    and 1 where it underflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def flip_up_probability(params: ModelParams, c):
    """f(c) = (1 + tanh(p*beta*c^(p-1) + h)) / 2 = sigmoid(2*d(c))."""
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):  # a drift beyond 9e307: f is 0 or 1
        x = 2.0 * _drift(params, c)
    out = _sigmoid(x)
    return out if out.ndim else float(out)


class SlowSpectrum(NamedTuple):
    """The slow end of a LevelKernel's spectrum, below its top eigenvalue 1.

    Eigenvalues of the kernel symmetrised by its reversible law pi: the
    tridiagonal matrix S with diagonal ``stay`` and off-diagonal
    ``sqrt(up_i down_{i+1})``, whose top eigenvector is sqrt(pi).  lam2 >=
    lam3 follow the top one; v2 is a unit eigenvector of lam2 orthogonal to
    sqrt(pi), and x2 = v2 sqrt(pi) is the left eigenvector over the levels:
    x2 P = lam2 x2.  err is |S v2 - lam2 v2| plus the rounding of S and of
    that residual, so an eigenvalue lies within err of lam2, and Sturm
    counts have checked that it is the second one (else err is infinite).
    lam3 bounds every eigenvalue below lam2 from above, 1 - lam3 within a
    factor exp(1/64) of the exact value; rho >= |lam| for all of them (lam3
    unless some eigenvalue lies below -lam3, then 1).
    """

    lam2: float
    lam3: float
    rho: float
    v2: np.ndarray
    err: float


def _count_above(diag: list, off2: list, x: float) -> int:
    """Eigenvalues above x of the symmetric tridiagonal matrix with diagonal
    diag and squared off-diagonal off2 (off2[0] = 0): the positive pivots of
    the LDL^T factorisation of T - x (Sylvester's law of inertia)."""
    count, q = 0, 1.0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if -1e-300 < q < 1e-300:
            q = -1e-300
        count += q > 0.0
    return count


def _square_band(g: np.ndarray) -> np.ndarray:
    """The gather form of P^2b from that of P^b, rows g[k, j] = P^b[k - b + j,
    k] of shape (n, 2b + 1): one matmul of each row against a sheared view.

    The view M[k, jl, J] = g[k - b + jl, J - jl] reads a copy of g whose rows
    are shifted down by b and padded by b zero rows at each end and by 2b
    zero columns on the right, W = 4b + 1 wide: with element strides (W,
    W - 1, 1), a column J - jl below 0 or above 2b lands in the zero columns.
    """
    n, w = g.shape
    b, W = w // 2, 2 * w - 1
    pad = np.zeros((n + 2 * b, W))
    pad[b:b + n, :w] = g
    s = pad.itemsize
    sheared = as_strided(pad, shape=(n, w, W), strides=(W * s, (W - 1) * s, s),
                         writeable=False)
    return np.matmul(g[:, None, :], sheared)[:, 0]


class LevelKernel:
    """The heat-bath rule at size N, restricted to sums in [lo, hi].

    lo and hi default to -N and N and are clamped to [-N, N].  Tables:

    * ``f_up`` and ``p_minus`` over all N+1 levels, indexed by (k + N) // 2:
      the spin-up probability and the probability (N - k) / (2N) that the
      chosen site carries -1.  They drive the scalar walk and replica step.
    * ``up``, ``down``, ``stay`` over the kept levels ``ks`` (ascending):
      the one-step law of the restricted sum, with the rejection at lo and
      hi folded into ``stay``.  Unrestricted, the folds add exact zeros.

    up = p_minus * f_up and down = (1 - p_minus) * sigmoid(-2d) keep both
    factors stable for any field strength.

    A birth-death chain is reversible: ``log_pi`` is its stationary law and
    ``spectrum`` the slow end of its spectrum; ``band`` holds the block
    power P^_BLOCK for `leap`.  Each is computed on first use.
    """

    def __init__(self, params: ModelParams, N: int, lo: int | None = None,
                 hi: int | None = None):
        if N < 1:
            raise DomainError(f"N must be positive, got {N}")
        self.N = N
        self.lo = -N if lo is None else max(-N, int(lo))
        self.hi = N if hi is None else min(N, int(hi))
        i0, i1 = (self.lo + N + 1) // 2, (self.hi + N) // 2
        if i0 > i1:
            raise DomainError(f"no level of N={N} lies in [{self.lo}, {self.hi}]")
        ks = np.arange(-N, N + 1, 2)
        c = ks / N
        with np.errstate(over="ignore"):  # a drift beyond 9e307: f is 0 or 1
            x = 2.0 * _drift(params, c)
        self.f_up = _sigmoid(x)
        self.p_minus = 0.5 * (1.0 - c)
        up = self.p_minus * self.f_up
        down = 0.5 * (1.0 + c) * _sigmoid(-x)
        stay = 1.0 - up - down
        self.ks = ks[i0:i1 + 1]
        self._two_d = x[i0:i1 + 1]
        self.up, self.down, self.stay = up[i0:i1 + 1], down[i0:i1 + 1], stay[i0:i1 + 1]
        self.stay[0] += self.down[0]
        self.down[0] = 0.0
        self.stay[-1] += self.up[-1]
        self.up[-1] = 0.0
        self._f_up = self.f_up.tolist()

    def index(self, k: int) -> int:
        """Position of the level k in ks.

        Raises DomainError when k is no level of the chain or lies outside
        [lo, hi].
        """
        N = self.N
        if abs(k) > N or (k + N) % 2 != 0:
            raise DomainError(f"start level {k} invalid for N={N}")
        if k < self.lo:
            raise DomainError("start below the restriction floor")
        if k > self.hi:
            raise DomainError("start above the restriction ceiling")
        return (k - int(self.ks[0])) // 2

    @cached_property
    def log_pi(self) -> np.ndarray:
        """Log of the chain's own stationary law over ks, normalised.

        Detailed balance pi(k) up(k) = pi(k+2) down(k+2) fixes it level by
        level; the log-space cumsum keeps levels whose mass underflows.
        Where up or down itself underflows to 0, the ratio is taken from the
        log-space rates, log up = log p_minus - log(1 + exp(-2d)) and its
        mirror for down.  Restricted, it is the unrestricted law conditioned
        on [lo, hi].

        Where the drift nears the float range, a ratio is +inf (2d
        overflows) or the sum of ratios overflows: no level below the last
        +inf ratio holds mass, and an overflowing sum is taken at a
        power-of-two scale.
        """
        with np.errstate(divide="ignore"):
            ratios = np.log(self.up[:-1]) - np.log(self.down[1:])
        lost = (self.up[:-1] == 0.0) | (self.down[1:] == 0.0)
        if lost.any():
            x, c = self._two_d, self.ks / self.N
            log_up = np.log(0.5 * (1.0 - c[:-1])) - np.logaddexp(0.0, -x[:-1])
            log_down = np.log(0.5 * (1.0 + c[1:])) - np.logaddexp(0.0, x[1:])
            ratios = np.where(lost, log_up - log_down, ratios)
        rises = np.flatnonzero(ratios == np.inf)
        start = rises[-1] + 1 if rises.size else 0
        log_pi = np.full(len(self.ks), -np.inf)
        with np.errstate(over="ignore"):
            log_pi[start:] = np.concatenate(([0.0], np.cumsum(ratios[start:])))
            top = log_pi.max()
            if top == np.inf:
                scale = 2.0 ** math.ceil(math.log2(len(self.ks)))
                scaled = np.concatenate(([0.0], np.cumsum(ratios[start:] / scale)))
                log_pi[start:] = (scaled - scaled.max()) * scale
                top = 0.0
        return log_pi - (top + np.log(np.exp(log_pi - top).sum()))

    @cached_property
    def spectrum(self) -> SlowSpectrum:
        """lam2 and v2 by inverse iteration, checked by Sturm counts.

        For g with pi-mean zero, (I - P) f = g is solved by two cumsums: the
        flux pi_i up_i (f_i - f_{i+1}) across the edge above level i is the
        pi-weighted sum of g up to level i.  Iterated on vectors orthogonal
        to sqrt(pi), this solve converges to the eigenvector of lam2, a
        monotone function that the start, the magnetization, is never
        orthogonal to.  Sturm counts then place lam2 and bound lam3.
        Numpy alone does this in a few ms at N = 1600; scipy.linalg's
        tridiagonal solvers would add 6.5 MB to the resident set of every
        process that imports this module.
        """
        n = len(self.ks)
        if n < 3:
            raise DomainError(f"a chain of {n} levels has no lam3")
        pi = np.exp(self.log_pi)
        root = np.sqrt(pi)
        flow = pi[:-1] * self.up[:-1]
        off = np.sqrt(self.up[:-1] * self.down[1:])
        eps = np.finfo(float).eps

        def solve(v):  # (I - S)^-1 v, orthogonal to sqrt(pi), unit
            w = root * v  # pi g for g = v / sqrt(pi)
            # each flux sum is taken from the end that has gathered less
            low, high = np.cumsum(w)[:-1], -np.cumsum(w[::-1])[::-1][1:]
            gathered = np.cumsum(np.abs(w))
            use_low = gathered[:-1] <= gathered[-1] - gathered[:-1]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = np.where(flow > 0.0, -np.where(use_low, low, high) / flow, 0.0)
                out = root * np.concatenate(([0.0], np.cumsum(step)))
            out -= (out @ root) * root
            return out / np.linalg.norm(out)

        # the lowest-residual Ritz pair of up to 64 steps
        v, best, stalled = root * self.ks / self.N, (math.inf, 0.0, None), 0
        for _ in range(64):
            v = solve(v)
            s_v = self.stay * v
            s_v[:-1] += off * v[1:]
            s_v[1:] += off * v[:-1]
            lam = float(v @ s_v)
            # |S| has row sums <= 2 and S's entries are rounded to an ulp or
            # two, so forming S and the residual costs under 16 eps
            res = float(np.linalg.norm(s_v - lam * v)) + 16 * eps
            stalled = 0 if res < best[0] else stalled + 1
            best = min(best, (res, lam, v), key=lambda r: r[0])
            if best[0] <= 32 * eps or stalled == 8:
                break
        err, lam2, v2 = best
        diag, off2 = self.stay.tolist(), [0.0] + (off * off).tolist()

        def above(x):
            return _count_above(diag, off2, x)

        if (above(lam2 + err), above(lam2 - err)) != (1, 2):
            return SlowSpectrum(lam2, lam2, 1.0, v2, math.inf)
        # lam3: the lowest x with two eigenvalues above it, bisected on
        # log(1 - x) between lam2 - err and -1
        near, far = math.log1p(err - lam2), math.log(2.0)
        while far - near > 1 / 64:
            mid = 0.5 * (near + far)
            if above(-math.expm1(mid)) <= 2:
                near = mid
            else:
                far = mid
        lam3 = -math.expm1(near)
        rho = abs(lam3) if above(-abs(lam3)) == n else 1.0
        return SlowSpectrum(lam2, lam3, rho, v2, err)

    @cached_property
    def band(self) -> np.ndarray:
        """The block power P^m, m = _BLOCK, in gather form: G[k, j] =
        P^m[k - m + j, k], the chance of reaching level k from k - m + j in m
        steps (zero for sources outside ks).  Shape (len(ks), 2m + 1).

        Built by squaring, P -> P^2 -> ... -> P^m (m a power of two), in
        _BAND_ROWS destination levels at a time: a path of m steps into
        those levels never leaves the levels within m of them, so the rows
        come out of a chain cut to that stretch (wrong only within m - 1 of
        a cut end).  A squaring of the half-width-b band G_b is one batched
        matmul: G_2b[k, J] = sum_jl G_b[k, jl] G_b[k - b + jl, J - jl], a
        path through the level k - b + jl.  Every term is non-negative, so
        each entry carries a relative rounding of a few eps per squaring.
        """
        m, n = _BLOCK, len(self.ks)
        band = np.empty((n, 2 * m + 1))
        for r in range(0, n, _BAND_ROWS):
            e = min(n, r + _BAND_ROWS)
            a, b = max(0, r - m), min(n, e + m)
            g = np.zeros((b - a, 3))  # P: sources k - 1, k and k + 1
            g[1:, 0] = self.up[a:b - 1]
            g[:, 1] = self.stay[a:b]
            g[:-1, 2] = self.down[a + 1:b]
            while g.shape[1] < 2 * m + 1:
                g = _square_band(g)
            band[r:e] = g[r - a:e - a]
        return band

    def push(self, mu: np.ndarray, lo: int = 0) -> np.ndarray:
        """One step of a law over ks[lo:lo + len(mu)]: returns mu P there.

        The one-step reference for `evolve`, which does the same arithmetic
        on a window of levels.  Mass that would leave the window is lost,
        so a window that can hold the step has a zero at each end that is
        not an end of ks.
        """
        w = len(mu)
        out = mu * self.stay[lo:lo + w]
        out[1:] += mu[:-1] * self.up[lo:lo + w - 1]
        out[:-1] += mu[1:] * self.down[lo + 1:lo + w]
        return out

    def leap(self, a: int, held: np.ndarray) -> tuple[int, np.ndarray]:
        """_BLOCK steps of the law held on ks[a:a + len(held)], zero elsewhere.

        Returns (lo, law): the law after the block on ks[lo:lo + len(law)],
        renormalised, zero outside; it is the law `evolve` ends the block
        with, up to rounding.  One matmul of the band's rows against the
        windows of the zero-padded law.
        """
        m, n = _BLOCK, len(self.ks)
        b = a + len(held) - 1
        lo, hi = max(0, a - m), min(n - 1, b + m)
        pad, windows = self._padded_windows
        pad[lo:hi + 2 * m + 1] = 0.0
        pad[a + m:b + m + 1] = held
        law = np.matmul(self.band[lo:hi + 1, None, :],
                        windows[lo:hi + 1, :, None])[:, 0, 0]
        law /= law.sum()
        return lo, law

    @cached_property
    def _padded_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """`leap`'s scratch law, padded by _BLOCK zero levels at each end of
        ks (pad[i] is level i - _BLOCK), and the view whose row k is the
        pad around level k, the sources of band[k].  Made once per kernel:
        a new view per leap cost more than the leap's matmul."""
        pad = np.zeros(len(self.ks) + 2 * _BLOCK)
        return pad, sliding_window_view(pad, 2 * _BLOCK + 1)

    def evolve(self, mu: np.ndarray, steps: int, target: np.ndarray | None = None,
               leap_above: float | None = None):
        """Advance the law mu over ks `steps` times, a block of steps at a time.

        Yields one (t, lo, laws, tv) per block, t the steps done after it.
        Row j of laws is the law after the block's (j+1)-th step,
        renormalised, on the levels ks[lo:lo + laws.shape[1]]; it is zero
        outside them.  tv[j] is its total-variation distance to the law
        `target` over ks, or tv is None without a target.  A block pushes
        only the live window of the law (the levels it holds above the tail
        cut) widened by the block's steps, the farthest its mass can travel.
        laws is a view of a buffer that the next block overwrites.

        With leap_above, a whole block of _BLOCK steps whose TV to target
        provably stays above leap_above at every step (`_leap_certified`)
        is taken in one `leap`; it yields only its end law, as one row, with
        tv None.
        """
        n = len(self.ks)
        a, held = live_window(0, mu)
        buf = np.empty((_BLOCK + 1, n))
        tmp = np.empty(n)
        if target is not None:
            dist = np.empty((_BLOCK, n))
            # the target's mass below index i and at or above it, i = 0 .. n
            below = np.concatenate(([0.0], np.cumsum(target)))
            above = np.concatenate((np.cumsum(target[::-1])[::-1], [0.0]))

            def tv_of(lo, law):  # TV to target of a law on ks[lo:lo + len(law)]
                hi = lo + len(law)
                return 0.5 * (float(np.abs(law - target[lo:hi]).sum()) + (below[lo] + above[hi]))

            tv_now = tv_of(a, held)
        done, d_seen = 0, math.inf  # the one-step change last measured
        while done < steps:
            m = min(_BLOCK, steps - done)
            leapt = None
            if m == _BLOCK and leap_above is not None:
                leapt, d_seen = self._leap_certified(a, held, tv_now, tv_of, leap_above,
                                                     done, d_seen)
            if leapt:
                lo, law, tv_now = leapt
                laws, tv = law[None], None
            else:
                b = a + len(held) - 1
                lo, hi = max(0, a - m), min(n - 1, b + m)
                w = hi - lo + 1
                buf[0, :w] = 0.0
                buf[0, a - lo:b - lo + 1] = held
                stay, up, down = self.stay[lo:hi + 1], self.up[lo:hi], self.down[lo + 1:hi + 1]
                t = tmp[:w - 1]
                # row views made once per block: per-step 2-D indexing would
                # cost about as much as the arithmetic on a short window
                rows = list(buf[:m + 1, :w])
                heads = list(buf[:m + 1, :w - 1])  # levels that can step up
                tails = list(buf[:m + 1, 1:w])     # levels that can step down
                for src, dst, src_h, dst_h, src_t, dst_t in zip(
                        rows, rows[1:], heads, heads[1:], tails, tails[1:]):
                    np.multiply(src, stay, out=dst)
                    np.multiply(src_h, up, out=t)
                    np.add(dst_t, t, out=dst_t)
                    np.multiply(src_t, down, out=t)
                    np.add(dst_h, t, out=dst_h)
                laws = buf[1:m + 1, :w]
                np.divide(laws, laws.sum(axis=1)[:, None], out=laws)
                tv = None
                if target is not None:
                    d = dist[:m, :w]
                    np.subtract(laws, target[lo:hi + 1], out=d)
                    np.abs(d, out=d)
                    tv = 0.5 * (d.sum(axis=1) + (below[lo] + above[hi + 1]))
                    tv_now = float(tv[-1])
            a, held = live_window(lo, laws[-1])
            done += m
            yield done, lo, laws, tv

    def _leap_certified(self, a: int, held: np.ndarray, tv: float, tv_of,
                        level: float, t: int, d: float):
        """The block of _BLOCK = m steps after step t in one `leap`, when
        certified that the TV to the target stays above level at every step
        of it.

        held is the law at step t on ks[a:a + len(held)], tv its TV to the
        target, tv_of the TV of a windowed law and d the one-step change
        last measured (inf for none).  Returns (leap, d): leap is (lo, law,
        TV at t + m), the leap's result, or None when the certificate fails,
        and d the one-step change to remember.

        A Markov kernel never increases the L1 norm of a signed measure, so
        d_s = ||mu_{s+1} - mu_s||_1 never grows with s and TV moves by at
        most d_s/2 a step.  Hence, for t <= s <= t + m, TV(s) >= max(TV(t) -
        (s - t) d_t/2, TV(t + m) - (t + m - s) d_t/2) >= (TV(t) + TV(t + m))/2
        - m d_t/4, and any d_r measured at a step r <= t may stand for d_t.
        The remembered d is tried first; only when it fails one of the two
        checks is d_t measured, by one `push`, and the checks rerun with it,
        so in exact arithmetic every decision is that of a fresh d_t.

        The bound must clear the level by the rounding of the laws.  A push
        or a leap errs by under 32 eps of L1 per step (its products, its
        sums of non-negative terms and the renormalisation; the tail cut adds
        far less), here and in any reference push.  So TV(t), TV(t + m) and a
        reference TV inside the block are each off by under 16 eps (t + m)
        plus n eps for their own sums, and d by under twice the law's error
        plus (n + 4) eps: in all, under (m + 2) (16 (t + m) + n) eps.  The
        exact laws' d_s never grows, however the computed laws got to step
        r (leaps, pushed blocks, tail cuts, renormalisations), and a d
        measured at r <= t errs by no more than one measured at t, whose
        law's error is the larger: the same budget covers it.
        """
        m, n = _BLOCK, len(self.ks)
        rest = (m + 2) * (16 * (t + m) + n) * _EPS

        def clears(tv_end, d):
            return 0.5 * (tv + tv_end) - 0.25 * m * d > level + rest

        fresh = False
        if not clears(1.0, d):  # TV(t + m) <= 1
            d, fresh = self._step_change(a, held), True
            if not clears(1.0, d):
                return None, d
        lo, law = self.leap(a, held)
        tv_end = tv_of(lo, law)
        if not clears(tv_end, d):
            if fresh:
                return None, d
            d = self._step_change(a, held)
            if not (clears(1.0, d) and clears(tv_end, d)):
                return None, d
        return (lo, law, tv_end), d

    def _step_change(self, a: int, held: np.ndarray) -> float:
        """||mu P - mu||_1 for the law mu held on ks[a:a + len(held)]."""
        n = len(self.ks)
        b = a + len(held) - 1
        lo, hi = max(0, a - 1), min(n - 1, b + 1)
        mu = np.zeros(hi - lo + 1)
        mu[a - lo:b - lo + 1] = held
        return float(np.abs(self.push(mu, lo) - mu).sum())

    def law_after(self, mu: np.ndarray, steps: int) -> np.ndarray:
        """The law mu P^steps over ks, renormalised: one `leap` per whole
        block of steps, then `evolve` pushes the rest."""
        lo, law = 0, mu / mu.sum()
        for _ in range(steps // _BLOCK):
            lo, law = self.leap(*live_window(lo, law))
        out = np.zeros(len(self.ks))
        out[lo:lo + len(law)] = law
        for _, lo, laws, _ in self.evolve(out, steps % _BLOCK):
            out = np.zeros(len(self.ks))
            out[lo:lo + laws.shape[1]] = laws[-1]
        return out

    def draws(self, rng: np.random.Generator, steps: int):
        """The draws of `steps` scalar steps, a chunk (sites, us) at a time.

        Each chunk of up to 2**14 steps is one rng.random((n, 2)) call:
        sites int(u * N) from its first column, spin uniforms us from its
        second.  The same stream as drawing the two uniforms of each step
        one step at a time.
        """
        N = self.N
        for t in range(0, steps, _CHUNK):
            a = rng.random((min(_CHUNK, steps - t), 2))
            yield (a[:, 0] * N).astype(np.intp), a[:, 1]

    def walk(self, spins: list, k: int, sites: np.ndarray, us: np.ndarray,
             record: bool = False):
        """The heat-bath rule over one chunk of draws, a step per (site, u).

        spins is a list of +-1 with sum k in [lo, hi], updated in place:
        site i takes +1 when u <= f_up at the current sum, else -1, and a
        move that would leave [lo, hi] is rejected (the state is kept).
        Returns (k, rejected, path): the sum after the chunk, the rejected
        moves and, with record, the sum after every step as an array('q').
        """
        f, N = self._f_up, self.N
        j_lo, j_hi = (self.lo + N + 1) >> 1, (self.hi + N) >> 1
        j = (k + N) >> 1  # f's index of the sum k
        rejected, path = 0, array("q")
        append = path.append
        for i, u in zip(sites.tolist(), us.tolist()):
            new = 1 if u <= f[j] else -1
            if new != spins[i]:
                if j_lo <= j + new <= j_hi:
                    spins[i] = new
                    j += new
                    k += new + new
                else:
                    rejected += 1
            if record:
                append(k)
        return k, rejected, path

    def replica_step(self, ks: np.ndarray, u_site: np.ndarray,
                     u_spin: np.ndarray) -> np.ndarray:
        """One step of magnetization chains at sums ks (law-exact).

        The site draw only matters through whether the chosen site carries
        -1; the spin draw follows the scalar walk's comparison.
        """
        idx = (ks + self.N) >> 1
        is_minus = u_site < self.p_minus[idx]
        up = u_spin <= self.f_up[idx]
        nk = ks + (is_minus & up) * 2 - (~is_minus & ~up) * 2
        if self.lo > -self.N or self.hi < self.N:
            nk = np.where((nk < self.lo) | (nk > self.hi), ks, nk)
        return nk


def kernel_arrays(params: ModelParams, N: int):
    """(up, down, stay) over all levels k = -N, -N+2, ..., N."""
    kernel = LevelKernel(params, N)
    return kernel.up, kernel.down, kernel.stay


def _resolve_start(N: int, start) -> SpinConfig:
    """Accepts 'all_plus'/'all_minus', an integer sum, or a SpinConfig."""
    if isinstance(start, SpinConfig):
        out = start.copy()
        out.validate()
        if out.N != N:
            raise DomainError(f"start has {out.N} spins, expected {N}")
        return out
    if start == "all_plus":
        return SpinConfig.all_plus(N)
    if start == "all_minus":
        return SpinConfig.all_minus(N)
    if isinstance(start, (int, np.integer)):
        return SpinConfig.from_magnetization(N, int(start))
    raise DomainError(f"unrecognized start {start!r}")


def restricted_threshold(params: ModelParams, N: int) -> int:
    """Magnetization floor ceil(N*m_minus) for the restricted dynamics.

    m_plus is the largest local maximizer of H; m_minus the largest
    stationary point strictly below it.  With a single stationary point
    there is nothing to cut off and the floor collapses to -N.
    """
    points = find_stationary_points(params)
    maxima = local_maxima(points)
    m_plus = maxima[-1].m
    below = [s.m for s in points if s.m < m_plus]
    if not below:
        return -N
    return math.ceil(N * max(below))


@dataclass(frozen=True)
class RunSpec:
    params: ModelParams
    N: int
    start: object = "all_plus"
    steps: int = 0
    seed: int = 0
    record_every: int = 1
    threshold: int | None = None

    def __post_init__(self):
        if self.steps < 0 or self.record_every < 1:
            raise DomainError("steps must be >= 0 and record_every >= 1")
        if self.threshold is not None and abs(self.threshold) > self.N:
            raise DomainError("threshold outside [-N, N]")


@dataclass
class Trace:
    times: np.ndarray
    mag_sums: np.ndarray


def run_chain(spec: RunSpec) -> Trace:
    """Run one chain, recording the magnetization sum every record_every steps.

    A threshold restricts the chain to sums >= threshold.
    """
    kernel = LevelKernel(spec.params, spec.N, lo=spec.threshold)
    state = _resolve_start(spec.N, spec.start)
    kernel.index(state.sum)
    spins, k, every = state.spins.tolist(), state.sum, spec.record_every
    times = np.arange(0, spec.steps + 1, every)
    sums = np.empty(len(times), dtype=np.int64)
    sums[0], row, t = k, 1, 0
    for sites, us in kernel.draws(rng_stream(spec.seed, 0), spec.steps):
        k, _, path = kernel.walk(spins, k, sites, us, record=True)
        kept = path[(-t - 1) % every::every]  # path[s] is the sum at step t + s + 1
        sums[row:row + len(kept)] = kept
        row, t = row + len(kept), t + len(us)
    return Trace(times=times, mag_sums=sums)


@dataclass(frozen=True)
class CouplingSpec:
    params: ModelParams
    N: int
    start_x: object = "all_plus"
    start_y: object = "all_minus"
    steps: int = 0
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.steps < 0 or self.record_every < 1:
            raise DomainError("steps must be >= 0 and record_every >= 1")


@dataclass
class CouplingTrace:
    times: np.ndarray
    hamming: np.ndarray
    untouched: np.ndarray
    mags_x: np.ndarray
    mags_y: np.ndarray
    coalesced_at: int | None


def run_coupling(spec: CouplingSpec) -> CouplingTrace:
    """Advance two chains under shared (site, uniform) draws.

    Records the Hamming distance, the count of never-selected sites, and
    both magnetization sums.  Once the chains meet they stay together.

    Each chunk of draws walks both chains (one, once they have met); the
    counts follow from the paths with numpy.  The kernel is unrestricted,
    so after a step the chosen site holds the spin each chain drew: the
    chains differ there iff (u <= f_up[kx]) != (u <= f_up[ky]) at the sums
    before the step.  Before it they differed there as after the chunk's
    last earlier step at that site (a stable sort of the chunk's sites), or
    as at the chunk's start.
    """
    N, every = spec.N, spec.record_every
    kernel = LevelKernel(spec.params, N)
    x = _resolve_start(N, spec.start_x)
    y = _resolve_start(N, spec.start_y)
    xs, ys, kx, ky = x.spins.tolist(), y.spins.tolist(), x.sum, y.sum
    differs = x.spins != y.spins  # per site, at the start of the chunk
    never = np.ones(N, dtype=bool)  # sites no step has chosen yet
    hamming, untouched = int(np.count_nonzero(differs)), N
    coalesced_at = 0 if hamming == 0 else None

    times = np.arange(0, spec.steps + 1, every)
    cols = np.empty((4, len(times)), dtype=np.int64)  # hamming, untouched, kx, ky
    cols[:, 0] = hamming, untouched, kx, ky
    row, t = 1, 0
    for sites, us in kernel.draws(rng_stream(spec.seed, 0), spec.steps):
        x0, y0 = kx, ky
        kx, _, px = kernel.walk(xs, kx, sites, us, record=True)
        px = np.frombuffer(px, dtype=np.int64)
        if coalesced_at is None:
            ky, _, py = kernel.walk(ys, ky, sites, us, record=True)
            py = np.frombuffer(py, dtype=np.int64)
        else:  # met chains move together
            ky, py = kx, px
        drew_x = us <= kernel.f_up[(np.concatenate(([x0], px[:-1])) + N) >> 1]
        drew_y = us <= kernel.f_up[(np.concatenate(([y0], py[:-1])) + N) >> 1]
        now = drew_x != drew_y
        order = np.argsort(sites, kind="stable")
        again = sites[order[1:]] == sites[order[:-1]]
        later, earlier = order[1:][again], order[:-1][again]
        before, first = differs[sites], never[sites]
        before[later] = now[earlier]
        first[later] = False
        last = order[np.append(~again, True)]  # each site's last step here
        differs[sites[last]] = now[last]
        never[sites] = False
        ham = hamming + np.cumsum(now, dtype=np.int64) - np.cumsum(before, dtype=np.int64)
        unt = untouched - np.cumsum(first, dtype=np.int64)
        hamming, untouched = int(ham[-1]), int(unt[-1])
        if coalesced_at is None:
            met = np.flatnonzero(ham == 0)
            if met.size:
                coalesced_at = t + int(met[0]) + 1
        kept = slice((-t - 1) % every, None, every)  # index s is step t + s + 1
        rows = ham[kept], unt[kept], px[kept], py[kept]
        cols[:, row:row + len(rows[0])] = rows
        row, t = row + len(rows[0]), t + len(us)
    hams, unt, mx, my = cols
    return CouplingTrace(times=times, hamming=hams, untouched=unt, mags_x=mx,
                         mags_y=my, coalesced_at=coalesced_at)


def coupling_csv(trace: CouplingTrace) -> str:
    """CSV `t,mag_sum,hamming,untouched`; mag_sum is the first chain's."""
    cols = trace.times, trace.mags_x, trace.hamming, trace.untouched
    parts = ["t,mag_sum,hamming,untouched\n"]
    for a in range(0, len(trace.times), 4096):  # 4096 rows per format call
        rows = np.stack([c[a:a + 4096] for c in cols], axis=1)
        parts.append("%d,%d,%d,%d\n" * len(rows) % tuple(rows.ravel().tolist()))
    return "".join(parts)


# -- vectorized replica engine ----------------------------------------------


def simulate_mag_replicas(params: ModelParams, N: int, start_ks: np.ndarray,
                          steps: int, rng: np.random.Generator,
                          lo: int | None = None, hi: int | None = None,
                          record_every: int | None = None):
    """Advance R magnetization chains for `steps` LevelKernel replica steps.

    Optional lo/hi bounds give the floor- or window-restricted dynamics by
    rejection.  Returns the final sums, or (times, sums_matrix) when
    record_every is set.
    """
    ks = np.array(start_ks, dtype=np.int64)
    R = ks.shape[0]
    kernel = LevelKernel(params, N, lo, hi)
    recorded = None
    if record_every is not None:
        recorded = [(0, ks.copy())]
    chunk = max(1, min(steps, (1 << 22) // max(R, 1)))
    t = 0
    while t < steps:
        n_t = min(chunk, steps - t)
        u = rng.random((n_t, 2, R))
        for s in range(n_t):
            t += 1
            ks = kernel.replica_step(ks, u[s, 0], u[s, 1])
            if recorded is not None and t % record_every == 0:
                recorded.append((t, ks.copy()))
    if recorded is not None:
        times = np.array([r[0] for r in recorded])
        return times, np.stack([r[1] for r in recorded])
    return ks


# -- metastable sampler ------------------------------------------------------


@dataclass(frozen=True)
class MetastableSpec:
    params: ModelParams
    N: int
    epsilon: float | None = None  # window half-width; None = automatic
    burn_steps: int | None = None  # None = ceil(10 N log N)
    seed: int = 0
    require_coexistence: bool = False


@dataclass
class SamplerReport:
    maximizers: list[float]         # magnetization locations of the windows
    weights: list[float]            # window selection probabilities
    windows: list[tuple[int, int]]  # (lo_sum, hi_sum) per window, in [-N, N]
    burn_steps: int
    acceptance_rates: list[float]   # fraction of proposals not window-rejected
    final_sums: list[int]
    chosen: int


def _metastable_setup(spec: MetastableSpec):
    """Global maximizers, window kernels, window starts, selection weights
    and burn-in of the sampler."""
    params, N = spec.params, spec.N
    if spec.epsilon is not None and not spec.epsilon > 0:
        raise DomainError(f"window half-width must be positive, got {spec.epsilon}")
    if spec.burn_steps is not None and spec.burn_steps < 0:
        raise DomainError("burn_steps must be non-negative")
    points = find_stationary_points(params)
    maxima = local_maxima(points)
    top = max(s.H for s in maxima)
    globals_ = [s for s in maxima if top - s.H <= HEIGHT_TOL]
    if spec.require_coexistence and len(globals_) < 2:
        raise DomainError("not on the global-coexistence locus")
    for s in globals_:
        if abs(s.H2) <= CURVATURE_TOL:
            raise DomainError(
                "degenerate global maximizer: no Gaussian window weight exists"
            )

    eps = spec.epsilon
    if eps is None:
        eps = 0.1
        for s in globals_:
            others = [q.m for q in points if q.m != s.m]
            if others:
                eps = min(eps, 0.5 * min(abs(s.m - o) for o in others))
    windows = [(math.ceil(N * (s.m - eps)), math.floor(N * (s.m + eps))) for s in globals_]
    starts = [nearest_level(N, s.m) for s in globals_]
    for s, (lo, hi), k0 in zip(globals_, windows, starts):
        if not lo <= k0 <= hi:
            raise DomainError(
                f"window half-width epsilon={eps} is too narrow at N={N}: [{lo}, {hi}] "
                f"misses the start level {k0} of the maximizer m={s.m!r}")
    for (_, a_hi), (b_lo, _) in zip(windows, windows[1:]):
        if a_hi >= b_lo:
            raise DomainError("metastable windows overlap; reduce epsilon")
    kernels = [LevelKernel(params, N, lo, hi) for lo, hi in windows]

    # ((m^2 - 1) H''(m))^(-1/2) with the product multiplied out, so that it
    # is 1, not 0^(-1/2), where m rounds to +-1
    c = params.p * (params.p - 1) * params.beta
    raw = [(1.0 - c * s.m ** (params.p - 2) * (1.0 - s.m**2)) ** -0.5 for s in globals_]
    total = sum(raw)
    weights = [w / total for w in raw]
    burn = spec.burn_steps
    if burn is None:
        burn = int(math.ceil(10.0 * N * math.log(N)))
    return globals_, kernels, starts, weights, burn


def metastable_sample(spec: MetastableSpec) -> tuple[SpinConfig, SamplerReport]:
    """Draw an approximate sample by mixing window-restricted chains.

    One window-restricted chain per global maximizer runs for the burn-in
    horizon; a window index is then drawn with Gaussian-mass weights
    proportional to ((m^2 - 1) H''(m))^{-1/2} and that chain's final
    configuration is returned.  Windows are clamped to [-N, N].
    """
    globals_, kernels, starts, weights, burn = _metastable_setup(spec)

    finals = []
    acc_rates = []
    for i, (kernel, k) in enumerate(zip(kernels, starts)):
        spins = SpinConfig.from_magnetization(spec.N, k).spins.tolist()
        rejected = 0
        for sites, us in kernel.draws(rng_stream(spec.seed, 1, i), burn):
            k, r, _ = kernel.walk(spins, k, sites, us)
            rejected += r
        finals.append(SpinConfig(spins=np.array(spins, dtype=np.int8), sum=k))
        acc_rates.append(1.0 - rejected / burn if burn else 1.0)

    rng_v = rng_stream(spec.seed, 2)
    chosen = int(rng_v.choice(len(weights), p=weights))
    report = SamplerReport(
        maximizers=[s.m for s in globals_],
        weights=weights,
        windows=[(kernel.lo, kernel.hi) for kernel in kernels],
        burn_steps=burn,
        acceptance_rates=acc_rates,
        final_sums=[st.sum for st in finals],
        chosen=chosen,
    )
    return finals[chosen], report


def metastable_sample_law(spec: MetastableSpec) -> np.ndarray:
    """Exact magnetization law of one sampler draw over all N+1 levels.

    The Gaussian-weighted mixture over windows w of delta_{k0} P_w^burn,
    each term pushed exactly by its window's kernel.
    """
    N = spec.N
    _, kernels, starts, weights, burn = _metastable_setup(spec)
    law = np.zeros(N + 1)
    for kernel, k0, w in zip(kernels, starts, weights):
        mu = np.zeros(len(kernel.ks))
        mu[kernel.index(k0)] = 1.0
        law[(kernel.ks + N) // 2] += w * kernel.law_after(mu, burn)
    return law / law.sum()


def metastable_sample_sums(spec: MetastableSpec, n_samples: int) -> np.ndarray:
    """Final magnetization sums of n_samples independent sampler draws.

    Drawn from metastable_sample_law: the law of repeated metastable_sample
    calls restricted to the magnetization observable.
    """
    law = metastable_sample_law(spec)
    levels = np.arange(-spec.N, spec.N + 1, 2)
    return rng_stream(spec.seed, 2).choice(levels, size=n_samples, p=law)
