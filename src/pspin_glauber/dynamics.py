"""Single-site heat-bath dynamics for the p-spin Curie-Weiss model.

A step picks a site uniformly at random and resamples its spin to +1 with
probability ``f(c) = (1 + tanh(p*beta*c^(p-1) + h)) / 2`` where ``c`` is
the current magnetization (including the chosen site).  The magnetization
sum is then itself a birth-death chain on ``{-N, -N+2, ..., N}``.

:class:`LevelKernel` is the one place this rule is tabulated.  It holds f and
the birth-death triple (up, down, stay) of a restriction ``[lo, hi]`` of the
sum, clamped to ``[-N, N]``, and offers the engines everything else is
built from: an exact push of a level law (one step, `evolve` for many
steps on the law's live window, or `leap`, a whole block of steps through
the kernel's banded block power, or two blocks through its square, and
`evolve`'s longer leaps through its dense powers P^(2^j)), a scalar walk
of a spin configuration over a chunk of draws, and `step_counts`, which
steps the histogram of many magnetization chains over the levels as a
whole, one multinomial draw per step.  `simulate_mag_replicas` steps such chains one by one in a
plain loop on the same table, one uniform per chain and step.  A move
that would leave ``[lo, hi]`` is rejected (the state is kept); the tables
fold that rejection into ``stay``, so every level-space engine reads the
same one-step law.  The well of a maximizer of H, cut at
the stationary points next to it (`_well`), is such a restriction:
the floor of the restricted dynamics is the top well's lower end, and the
sampler runs one chain per well of a global maximizer.  The unrestricted
chain is the full interval.

A step's draw reads the path only through the level, so `walk` runs a
chunk as a fixed-point (Picard) iteration, checked by recomputing it, as
in Shih et al., "Parallel Sampling of Diffusion Models" (NeurIPS 2023):
guess the levels of a window of steps, draw every step's spin from its
guess at once, sum the moves into a new level path, and keep the steps
before the first level that changed, which are exact.  A plain loop over
the steps finishes a chunk shorter than a window, or one whose window
has not settled after a fixed number of rounds.

Every scalar step consumes exactly two uniforms in fixed order (site, spin),
so two chains advanced with shared draws form the grand coupling and runs
are bitwise reproducible from the seed.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy 2 imports numpy.random on first use; rng_stream needs it, and this
# import pays its cost with the module's own, not in the first draw
import numpy.random
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .potential import (
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
_EPS = float(np.finfo(float).eps)
# LevelKernel.band is built this many levels at a time, cut ends +-_BLOCK:
# the last squaring's padded copy and product of a stretch (608 rows of 66
# floats and 576 of 65, 0.6 MB) stay in cache.  Built unchunked, the
# full-size ones (6.6 MB at N = 6400) raised the benchmark's exact-mix peak
# RSS by 2.9 MB; 256 ran a fifth slower, 1024 no faster.  LevelKernel.rung
# is squared from the band in the same stretches.
_BAND_ROWS = 512
# Zero levels padding each end of the scratch law a leap reads: the reach
# of the longest leap, 2 * _BLOCK steps.
_PAD = 2 * _BLOCK
# LevelKernel.evolve builds the rung P^64 once the kernel has taken
# _PAYBACK * n leaps of 32 steps, n its levels.  The rung's squaring costs
# about 2 us a level, and a 64-step leap saves about 15 us against two of 32
# (one block's fixed numpy calls; one BLAS thread, 2-core Xeon VM), so by
# then those leaps, taken as 64-step ones, would have paid for the rung
# about twice over: a kernel that goes on leaping gets its price back, and
# one that stops soon after has paid little (the ski-rental rule).  It also
# keeps the rung, twice the band's memory, off kernels that leap little:
# the regular point takes 0.20-0.31 n leaps over both starts from N = 400
# to 6400 and never builds it; the special point takes 0.63-1.66 n (N =
# 200 to 1600) and does.
_PAYBACK = 0.5
# LevelKernel.evolve builds its next dense power once its leaps through the
# longest power held, P^M, weighed by their products' multiply-adds (n (2M
# + 1) through the rung, n^2 through a dense power), reach _SQUARE_PAYBACK
# of the n^3 of each squaring that power takes.  A squaring (0.34, 2.9, 8.6,
# 20 and 37 ms at n = 201, 401, 601, 801 and 1001) costs 0.18-1.2 n rung
# leaps or 0.08-0.2 n dense ones of a law spread over the n levels (a
# product, a push for d and a TV; one BLAS thread, 2-core Xeon VM), so by
# then the leaps have cost 0.6-1.7 times the squaring: the ski-rental rule
# again.  The special point takes 0.11-0.15 of the rung leaps its first
# dense power would need (N = 200 to 800; at 1600 none fits _DENSE_BYTES).
_SQUARE_PAYBACK = 1 / 8
# A kernel's dense powers take at most this many bytes, 8 n^2 each, so at
# n levels none past P^(2^(5 + _DENSE_BYTES // (8 n^2))): P^(2^31) at 401
# levels, P^65536 at 601, P^2048 at 801.  From 916 levels on that spans
# fewer than the n steps evolve asks of a dense leap, and there are none.
_DENSE_BYTES = 32 << 20
# Entries of a dense square below this are set to 0: a product of two
# entries above it is a normal float, and subnormal ones slowed a squaring
# of the 801 levels of (4, 0.51, 0.184), N = 800, from 19 to 73 ms.
_FLUSH = 2.0**-510
# Scalar steps per chunk of LevelKernel.draws: one rng.random call each.
_CHUNK = 1 << 14
# LevelKernel.walk verifies a chunk _WINDOW steps at a time, in at most
# _ROUNDS numpy rounds per window before its loop takes over.  A round costs
# about what the loop takes for 256 steps, so a window that needs more than
# _WINDOW / 256 rounds is cheaper looped.  A chunk's first window is an
# eighth of that, _PROBE steps, whose rounds cost little where the loop
# takes over in the first window anyway.  After a chunk of which numpy
# verified under half, the next _MIN_SKIP chunks skip speculation, twice
# as many after each such chunk in a row, up to _MAX_SKIP: a failed try
# costs under half a chunk's loop, so tries add at most a tenth to it.
_WINDOW = 1 << 11
_PROBE = _WINDOW // 8
_ROUNDS = 8
_MIN_SKIP, _MAX_SKIP = 4, 16
# walk's path without record: one shared empty array, read-only, since a
# new one per call cost a one-step walk a fifth of its time
_NO_PATH = np.empty(0, dtype=np.int64)
_NO_PATH.flags.writeable = False


def live_window(lo: int, law: np.ndarray, cut: float) -> tuple[int, np.ndarray]:
    """The law on ks[lo:lo + len(law)] without its tail cut: (a, held), held
    the view of law from its first to its last entry above cut, at ks[a]."""
    live = law > cut
    a, b = int(live.argmax()), len(law) - int(live[::-1].argmax())
    return lo + a, law[a:b]


class KernelWork:
    """Work counters of one LevelKernel's exact engine, for tests and
    profiles: what `evolve` leapt, pushed, measured and cut.  A plain
    class: a dataclass cost the module's import half a millisecond."""

    def __init__(self):
        # leaps taken, by steps (_BLOCK through band, 2 _BLOCK through rung,
        # more through a dense power)
        self.leaps = {_BLOCK: 0, 2 * _BLOCK: 0}
        self.failed_leaps = 0   # leaps made whose certificate then failed
        self.tvs = 0            # TVs of leapt laws the certificate computed
        self.step_changes = 0   # one-step changes d measured by a push
        self.pushed_blocks = 0
        self.rung_builds = 0
        self.dropped = 0.0      # at most this mass removed by the tail cut

    def __repr__(self):
        return f"KernelWork({vars(self)})"


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for (seed, key...): independent, reproducible streams."""
    ss = np.random.SeedSequence(entropy=int(seed) & _U64,
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def nearest_level(N: int, m: float) -> int:
    """Closest reachable magnetization sum to N*m (parity of N)."""
    k = int(round(N * m))
    if (k + N) % 2 != 0:
        k += 1 if N * m >= k else -1
    return max(-N, min(N, k))


def _site_runs(sites: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, again): the stable sort order of a chunk's sites, each below
    N, and whether each sorted site is also the next one.  For N <= 2**16
    the keys are 16-bit, which numpy radix-sorts, ten times faster than
    intp keys at 2**14 sites; a stable sort's order is the same."""
    keys = sites.astype(np.uint16) if N <= 1 << 16 else sites
    order = np.argsort(keys, kind="stable")
    by_site = keys[order]
    return order, by_site[1:] == by_site[:-1]


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


def _joined_cumsum(r: np.ndarray) -> np.ndarray:
    """The running sums 0, r[0], r[0] + r[1], ... of r, len(r) + 1 of them,
    summed from each end to the middle one and joined there: the sums to
    the right of it are the total minus the running sums from the right
    end, the total being the two halves' sums added.  For an antisymmetric
    r (r[i] = -r[-1 - i]) each half rounds as the negated mirror of the
    other, so the total is exactly 0 and the result exactly symmetric."""
    s = len(r) // 2
    head = np.concatenate(([0.0], np.cumsum(r[:s])))
    tail = np.concatenate((np.cumsum(r[s:][::-1])[::-1], [0.0]))  # sums of r[i:]
    return np.concatenate((head, (head[-1] + tail[0]) - tail[1:]))


def _square_band(g: np.ndarray, rows: slice = slice(None),
                 out: np.ndarray | None = None) -> np.ndarray:
    """The gather form of P^2b from that of P^b, rows g[k, j] = P^b[k - b + j,
    k] of shape (n, 2b + 1): one vecmat of each row against a sheared view.
    Only the given rows of the square are formed, into out if given.

    The view M[k, jl, J] = g[k - b + jl, J - jl], J < W = 4b + 1, reads a
    copy of g whose rows are shifted down by b and padded by b zero rows at
    each end and by 2b + 1 zero columns on the right, W + 1 wide: with
    element strides (W + 1, W, 1), a column J - jl below 0 or above 2b lands
    in the zero columns.  Each M[k] then has a row stride of W for its W
    columns, a layout BLAS takes, so numpy hands each product to BLAS (at a
    row stride of W - 1 it falls back to its own strided loop, twice as
    slow at N = 6400).  np.vecmat gives the same bits, as fast, as the
    batched matmul of the rows as 1 x (2b + 1) matrices.
    """
    n, w = g.shape
    b, W = w // 2, 2 * w - 1
    pad = np.zeros((n + 2 * b, W + 1))
    pad[b:b + n, :w] = g
    s = pad.itemsize
    sheared = as_strided(pad, shape=(n, w, W), strides=((W + 1) * s, W * s, s),
                         writeable=False)
    return np.vecmat(g[rows], sheared[rows], out=out)


class LevelKernel:
    """The heat-bath rule at size N, restricted to sums in [lo, hi].

    lo and hi default to -N and N and are clamped to [-N, N].  Tables:

    * ``f_up`` over all N+1 levels, indexed by (k + N) // 2: the spin-up
      probability.  It drives the scalar walk and `run_coupling`.
    * ``up``, ``down``, ``stay`` over the kept levels ``ks`` (ascending):
      the one-step law of the restricted sum, with the rejection at lo and
      hi folded into ``stay``.  Unrestricted, the folds add exact zeros.
      They drive the push, `leap`, `evolve`, `step_counts` and
      `simulate_mag_replicas`.

    up = p_minus * f_up and down = (1 - p_minus) * sigmoid(-2d), with
    p_minus = (N - k) / (2N) the chance that the chosen site carries -1,
    keep both factors stable for any field strength.

    A birth-death chain is reversible: ``log_pi`` is its stationary law;
    ``band`` holds the block power P^_BLOCK for `leap`, and ``rung``
    P^(2 _BLOCK), which `evolve` builds by its cost rule, as it does the
    dense powers P^(2^j) of the kernel's one table (`_dense_power`, which
    `law_after` reads too); ``gibbs`` and ``log_gibbs`` are the Gibbs law
    conditioned on [lo, hi], mixing's target.  Each is computed on first
    use.  ``tail_cut`` is the mass below which `evolve` drops a law's end
    levels, and ``work`` counts what its leaps and pushes did on this
    kernel (`KernelWork`).
    """

    def __init__(self, params: ModelParams, N: int, lo: int | None = None,
                 hi: int | None = None):
        if N < 1:
            raise DomainError(f"N must be positive, got {N}")
        self.params, self.N = params, N
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
        up = 0.5 * (1.0 - c) * self.f_up
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
        # f's indices of the lowest and highest kept level
        self._j_lo, self._j_hi = i0, i1
        # walk's back-off: chunks left to loop without speculation, and how
        # many the next poor chunk skips
        self._skip, self._wait = 0, _MIN_SKIP
        # evolve's tail cut: a block drops at most n entries of at most this
        # mass, under one eps in all
        self.tail_cut = _EPS / (len(self.ks) + 2 * _BLOCK)
        self.work = KernelWork()
        # the dense powers {2^j: P^(2^j)} built so far (`_dense_power`)
        self._dense = {}

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

    @property
    def log_rates(self) -> tuple[np.ndarray, np.ndarray]:
        """(log up over ks[:-1], log down over ks[1:]) in log space, log
        p_minus - log(1 + exp(-2d)) and its mirror: finite where up or down
        itself underflows to 0."""
        x, c = self._two_d, self.ks / self.N
        return (np.log(0.5 * (1.0 - c[:-1])) - np.logaddexp(0.0, -x[:-1]),
                np.log(0.5 * (1.0 + c[1:])) - np.logaddexp(0.0, x[1:]))

    @cached_property
    def log_pi(self) -> np.ndarray:
        """Log of the chain's own stationary law over ks, normalised.

        Detailed balance pi(k) up(k) = pi(k+2) down(k+2) fixes it level by
        level; the log-space cumsum keeps levels whose mass underflows.  The
        ratios come from `log_rates`, so they hold where up or down itself
        underflows to 0.  Restricted, it is the unrestricted law
        conditioned on [lo, hi].

        The running sum goes from each end to the middle level and the two
        halves are joined there: a sum of huge ratios (2d far beyond 1) is
        rounded by an ulp of its partial sums, which can exceed the O(1)
        log-mass differences that matter, but each half then rounds as its
        mirror does, so a mirror-symmetric chain (h = 0) gets a
        mirror-symmetric law exactly.

        Where the drift nears the float range, a ratio is +inf (2d
        overflows: down is 0 at the level above it) or -inf (up is 0 at
        the level below it), or the sum of ratios overflows: only the
        levels after the last +inf ratio and before the next -inf one hold
        mass, and an overflowing sum is taken at a power-of-two scale.
        """
        log_up, log_down = self.log_rates
        ratios = log_up - log_down
        n = len(self.ks)
        rises = np.flatnonzero(ratios == np.inf)
        start = rises[-1] + 1 if rises.size else 0
        falls = np.flatnonzero(ratios[start:] == -np.inf)
        stop = start + falls[0] + 1 if falls.size else n
        with np.errstate(over="ignore", invalid="ignore"):
            held = _joined_cumsum(ratios[start:stop - 1])
            if not np.isfinite(held).all():  # the sum overflows
                scale = 2.0 ** math.ceil(math.log2(n))
                held = _joined_cumsum(ratios[start:stop - 1] / scale)
                held = (held - held.max()) * scale
        log_pi = np.full(n, -np.inf)
        log_pi[start:stop] = held
        top = held.max()
        return log_pi - (top + np.log(np.exp(log_pi - top).sum()))

    @cached_property
    def _gibbs_laws(self) -> tuple[np.ndarray, np.ndarray]:
        """(gibbs, log_gibbs): log w(k) = log C(N, (N+k)/2) + N*(beta*(k/N)^p
        + h*(k/N)) in log space, kept on ks and normalised by max shift +
        log-sum-exp.  Raises DomainError when the field term overflows a
        double at some level of [-N, N]: the law is then not representable."""
        N, params = self.N, self.params
        c = np.arange(-N, N + 1, 2) / N
        with np.errstate(over="ignore"):
            log_w = _log_binomials(N) + N * (params.beta * c**params.p + params.h * c)
        if not np.isfinite(log_w).all():
            raise DomainError(f"the level weights overflow at N={N}: "
                              "N*(beta*c^p + h*c) exceeds the double range")
        i0 = (int(self.ks[0]) + N) // 2
        log_w = log_w[i0:i0 + len(self.ks)]
        top = log_w.max()
        with np.errstate(over="ignore"):  # a shift beyond the range: weight 0
            w = np.exp(log_w - top)
            z = w.sum()
            return w / z, log_w - (top + np.log(z))

    @property
    def gibbs(self) -> np.ndarray:
        """The Gibbs level law over ks, conditioned on [lo, hi]."""
        return self._gibbs_laws[0]

    @property
    def log_gibbs(self) -> np.ndarray:
        """Log of `gibbs`, normalised in log space where its mass underflows."""
        return self._gibbs_laws[1]

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
        product: G_2b[k, J] = sum_jl G_b[k, jl] G_b[k - b + jl, J - jl], a
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

    @cached_property
    def rung(self) -> np.ndarray:
        """The power P^2m, m = _BLOCK, in `band`'s gather form, shape
        (len(ks), 4m + 1): `band` squared once, _BAND_ROWS rows at a time
        from the band rows within m of them.  `evolve` builds it by its
        cost rule (_PAYBACK) and leaps 2m steps with it."""
        m, n = _BLOCK, len(self.ks)
        rung = np.empty((n, 4 * m + 1))
        for r in range(0, n, _BAND_ROWS):
            e = min(n, r + _BAND_ROWS)
            a, b = max(0, r - m), min(n, e + m)
            _square_band(self.band[a:b], slice(r - a, e - a), out=rung[r:e])
        self.work.rung_builds += 1
        return rung

    def _dense_power(self, steps: int) -> np.ndarray:
        """P^steps, steps a power of two, as a dense n x n matrix: D[j, k]
        is the chance of reaching ks[k] from ks[j].  The kernel's one table
        of these powers is squared on from the longest it holds (Knuth,
        TAOCP vol. 2 §4.6.3), from the one-step matrix P where n <= 2
        _BLOCK + 1, else from `rung` set out densely, and then it keeps only
        powers of n steps or more, the dense leaps of `evolve`.  A product
        of non-negative matrices adds a relative rounding of at most n eps
        to an entry and a squaring doubles the error it inherits, so P^M is
        within (M - 1) n eps of the exact power in every entry, the rung's
        error (about 450 eps, `evolve`) being under 63 n eps, except that a
        square of n > 2 _BLOCK + 1 levels is cut to 0 below _FLUSH, under n
        _FLUSH in a row.
        """
        table, n = self._dense, len(self.ks)
        if not table:
            if n <= 2 * _BLOCK + 1:
                table[1] = (np.diag(self.stay) + np.diag(self.up[:-1], 1)
                            + np.diag(self.down[1:], -1))
            else:  # rung[k, j] = P^(2 _BLOCK)[k - 2 _BLOCK + j, k]
                k = np.arange(n)[:, None]
                src = k + np.arange(-2 * _BLOCK, 2 * _BLOCK + 1)
                held = (src >= 0) & (src < n)
                power = np.zeros((n, n))
                power[src[held], np.broadcast_to(k, src.shape)[held]] = self.rung[held]
                table[2 * _BLOCK] = power
        top = max(table)
        while top < steps:
            power = table[2 * top] = table[top] @ table[top]
            if n > 2 * _BLOCK + 1:
                power[power < _FLUSH] = 0.0
                if top < n:  # no leap of `evolve` takes it
                    del table[top]
            top *= 2
        return table[steps]

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

    def leap(self, a: int, held: np.ndarray, steps: int = _BLOCK) -> tuple[int, np.ndarray]:
        """`steps` steps (_BLOCK, or 2 _BLOCK through `rung`) of the law held
        on ks[a:a + len(held)], zero elsewhere.

        Returns (lo, law): the law after them on ks[lo:lo + len(law)],
        renormalised, zero outside; it is the law the per-step push ends
        with, up to rounding, and bitwise the one `evolve` leaps to.  One
        vecdot of the power's rows against the windows of the zero-padded
        law.
        """
        n = len(self.ks)
        b = a + len(held) - 1
        lo, hi = max(0, a - steps), min(n - 1, b + steps)
        pad, windows = self._pad, self._windows[steps]
        pad[lo + _PAD - steps:hi + _PAD + steps + 1] = 0.0
        pad[a + _PAD:b + _PAD + 1] = held
        power = self.band if steps == _BLOCK else self.rung
        law = np.vecdot(power[lo:hi + 1], windows[lo:hi + 1])
        law /= np.add.reduce(law)
        return lo, law

    @cached_property
    def _pad(self) -> np.ndarray:
        """The scratch law of `leap` and `evolve`, padded by _PAD zero levels
        at each end of ks: pad[i] is level i - _PAD."""
        return np.zeros(len(self.ks) + 2 * _PAD)

    @cached_property
    def _windows(self) -> dict:
        """{steps: the view whose row k is `_pad` around level k, the sources
        of row k of the power P^steps (`band` or `rung`)}.  Made once per
        kernel: a new view per leap cost more than the leap's product."""
        n, pad = len(self.ks), self._pad
        return {s: sliding_window_view(pad, 2 * s + 1)[_PAD - s:_PAD - s + n]
                for s in (_BLOCK, 2 * _BLOCK)}

    def evolve(self, mu: np.ndarray, steps: int, target: np.ndarray | None = None,
               leap_above: float | None = None):
        """Advance the law mu over ks `steps` times, a block of steps at a time.

        Yields one (t, lo, laws, tv) per block, t the steps done after it.
        Row j of laws is the law after the block's (j+1)-th step,
        renormalised, on the levels ks[lo:lo + laws.shape[1]]; it is zero
        outside them.  tv[j] is its total-variation distance to the law
        `target` over ks, or tv is None without a target.  A block pushes
        _BLOCK steps (fewer at the end) on the live window of the law, the
        levels it holds above `tail_cut`, widened by the block's steps, the
        farthest its mass can travel.  laws may be a view of a buffer that
        a later block overwrites.

        With leap_above, a whole block whose TV to target provably stays
        above leap_above at every step is leapt: through the longest dense
        power P^M of the kernel's table (`_dense_power`; M a power of two of
        at least n and 4 _BLOCK) that the certificate clears, else M = 2
        _BLOCK steps through `rung` where the rung is built and the
        certificate clears them, else M = _BLOCK steps through `band`.  A
        leap yields only its end law, as one row, with tv None; a leap
        through band or rung is bitwise `leap`'s, and a dense one's law
        lies on all of ks.  The rung and each next dense power are built by
        a cost rule on this kernel's leaps (_PAYBACK, _SQUARE_PAYBACK),
        dense ones only within a memory budget (_DENSE_BYTES).

        The certificate.  A Markov kernel never increases the L1 norm of a
        signed measure, so d_s = ||mu_{s+1} - mu_s||_1 never grows with s
        and TV moves by at most d_s/2 a step.  Hence, for t <= s <= t + M,
        TV(s) >= max(TV(t) - (s - t) d_t/2, TV(t + M) - (t + M - s) d_t/2)
        >= (TV(t) + TV(t + M))/2 - M d_t/4, and any d_r measured at a step
        r <= t may stand for d_t.  The dense powers are tried first, longest
        first, each on the mean bound alone, with the TV at t computed and d
        measured there (below).  Then the rung, then the band, each as
        follows.  The first bound alone comes first, with the
        remembered d and the TV at t whether exact or a bound: when TV(t) -
        M (d + delta)/2 clears the level, the block is leapt with no TV
        computed, and that value is carried to step t + M as the bound on
        its TV.  Otherwise the TV at t is computed and the two checks of
        the mean bound run: the remembered d is tried first, and only when
        it fails one of them is d_t measured, by one `push`, and the checks
        rerun with it, so in exact arithmetic every decision is that of a
        fresh d_t.  Where the first bound clears, both checks would pass
        with the same d (the bound is below either mean), so the blocks
        leapt are those the checks alone leap, and the laws are bitwise
        theirs.

        The error budget.  The bound must clear the level by the rounding
        of the laws.  A push or a leap errs by under 32 eps of L1 per step
        (its products, its sums of non-negative terms and the
        renormalisation), here and in any reference push: `band`'s five
        squarings leave each entry within about 200 eps, relative, of P^32
        and a leap's 65-term sums add 65 eps, under 10 eps a step; the
        rung's squaring doubles that over twice the steps and its 129-term
        sums round as two 65-term ones, so a 64-step leap keeps the same
        rate.  The tail cut drops under one eps of mass per block (at most
        n entries of at most eps / (n + 2 _BLOCK)), so after B = (t + M) /
        _BLOCK blocks the law is off by under 2 B eps more in L1.  So TV(t),
        TV(t + M) and a reference TV inside the block are each off by under
        (16 (t + M) + B) eps plus n eps for their own sums, and d by under
        twice the law's error plus (n + 4) eps: in all, under rest = (M + 2)
        (16 (t + M) + n + B) eps.  The exact laws' d_s never grows, however
        the computed laws got to step r (leaps, pushed blocks, tail cuts,
        renormalisations), and a d measured at r <= t errs by no more than
        one measured at t, whose law's error is the larger: the same budget
        covers it.  A carried bound must stay below the TV that a fresh
        one would compute: the computed law at t moves from that at r by
        under (32 (t - r) + 2 B) eps, so its own d exceeds the remembered
        one by under (64 t + 4 B + n + 4) eps, and the leap and two TV sums
        add 16 M + 2n eps, all within M delta/2 with delta = (64 (t + M) +
        2n + 4 B) eps.

        The dense leaps.  A dense leap errs by under 3 n M eps of L1 (P^M's
        (M - 1) n eps per entry, the product's n-term sums and the
        renormalisation), so after T steps of dense leaps the budgets above
        count lost = 2 n T eps more in each TV and 4 lost more in delta.  A
        dense leap applies the mean bound to the exact evolution of the law
        nu held at t, with TV(nu) and d(nu) computed at t: the exact law at
        t + u lies within ||mu_t - nu||_1 of nu P^u, so the law's error
        counts once, not M times.  Its rest, for that error, a reference
        push's, the leap's own, d's sums and two TV sums, is under (32 (t +
        M) + B + 2 n (T + M + 1)) eps.  It passes 1/2, and no dense leap is
        certified, once T + M passes 1/(4 n eps), about 5.6e12 steps at 201
        levels; the band's and rung's budgets stop earlier, once 2 n T (M +
        2) eps passes 1/2 (T near 1.6e11 there), and the engine then pushes
        what it cannot leap.
        """
        n, m, cut, work = len(self.ks), _BLOCK, self.tail_cut, self.work
        a, held = live_window(0, mu, cut)
        mask = np.empty(n, dtype=bool)
        if target is not None:
            gap = np.empty(n)  # a leap's TV
            # the target's mass below index i and at or above it, i = 0 .. n
            below = np.concatenate(([0.0], np.cumsum(target))).tolist()
            above = np.concatenate((np.cumsum(target[::-1])[::-1], [0.0])).tolist()

            def tv_of(lo, law):  # TV to target of a law on ks[lo:lo + len(law)]
                hi = lo + len(law)
                g = gap[:len(law)]
                np.subtract(law, target[lo:hi], out=g)
                np.abs(g, out=g)
                return 0.5 * (float(np.add.reduce(g)) + (below[lo] + above[hi]))

            # the TV at the current step, or a lower bound on that of the
            # law tv_src after a leap on the first bound
            tv_now, tv_src = tv_of(a, held), None
        if leap_above is not None:
            level, pad, windows = leap_above, self._pad, self._windows
            powers = {m: self.band}
            if "rung" in vars(self):  # a cached_property, built
                powers[2 * m] = self.rung
            # the dense powers tried, longest first: those of at least n steps
            # (and 4 _BLOCK), for a dense leap of a law spread over the levels
            # costs about the rung's leaps over 0.4-0.8 n steps (23-367 us
            # against 9-30 us for 64 steps at n = 201 to 1001); and the
            # longest that _DENSE_BYTES lets the table hold
            shortest = max(4 * m, 1 << (n - 1).bit_length())
            dense = sorted((M for M in self._dense if M >= shortest), reverse=True)
            limit = (1 if n <= 2 * m + 1 else 2 * m) << max(_DENSE_BYTES // (8 * n * n) - 1, 0)
            outs, side = np.empty((2, n)), 0  # a leap writes the one held is not in
        # the one-step change last measured, the step it was measured at,
        # and the steps taken by dense leaps
        done, d, fresh, dense_steps = 0, math.inf, -1, 0
        while done < steps:
            leapt = 0
            if leap_above is not None and steps - done >= m:
                # the next power: the rung by _PAYBACK, a dense one by
                # _SQUARE_PAYBACK (a product through P^top costs n min(n, 2
                # top + 1) multiply-adds)
                top = dense[0] if dense else max(powers)
                grow = shortest if top == 2 * m else 2 * top
                if top == m:
                    need = _PAYBACK * n
                else:
                    need = (_SQUARE_PAYBACK * ((grow // top).bit_length() - 1)
                            * n * n / min(n, 2 * top + 1))
                if grow <= limit and work.leaps.get(top, 0) >= need:
                    if top == m:
                        powers[2 * m] = self.rung
                    else:
                        self._dense_power(grow)
                        dense.insert(0, grow)
                for M in dense + ([2 * m, m] if len(powers) == 2 else [m]):
                    if M > steps - done:
                        continue
                    t_end = done + M
                    blocks = t_end // m
                    if M > 2 * m:  # a dense leap: the mean bound at a fresh TV and d
                        if tv_src is not None:
                            tv_now, tv_src = tv_of(*tv_src), None
                            work.tvs += 1
                        if fresh != done:
                            d, fresh = self._step_change(a, held), done
                        rest = (32 * t_end + blocks + 2 * n * (dense_steps + M + 1)) * _EPS
                        if not 0.5 * (tv_now + 1.0) - 0.25 * M * d > level + rest:
                            continue
                        lo, law = 0, outs[side]
                        np.matmul(held, self._dense[M][a:a + len(held)], out=law)
                        np.divide(law, np.add.reduce(law), out=law)
                        tv_end = tv_of(0, law)
                        work.tvs += 1
                        if not 0.5 * (tv_now + tv_end) - 0.25 * M * d > level + rest:
                            work.failed_leaps += 1
                            continue
                        tv_now = tv_end
                        dense_steps += M
                        leapt = M
                        break
                    lost = 2 * n * dense_steps  # the dense leaps' share of a TV's error
                    rest = (M + 2) * (16 * t_end + n + blocks + lost) * _EPS
                    bound = tv_now - 0.5 * M * (
                        d + (64 * t_end + 2 * n + 4 * blocks + 4 * lost) * _EPS)
                    sure = bound > level + rest
                    if not sure:
                        if tv_src is not None:
                            tv_now, tv_src = tv_of(*tv_src), None
                            work.tvs += 1
                        if not 0.5 * (tv_now + 1.0) - 0.25 * M * d > level + rest:
                            if fresh == done:
                                continue
                            d, fresh = self._step_change(a, held), done
                            if not 0.5 * (tv_now + 1.0) - 0.25 * M * d > level + rest:
                                continue
                    b = a + len(held) - 1
                    lo, hi = max(0, a - M), min(n - 1, b + M)
                    pad[lo + _PAD - M:hi + _PAD + M + 1] = 0.0
                    pad[a + _PAD:b + _PAD + 1] = held
                    law = outs[side, :hi - lo + 1]
                    np.vecdot(powers[M][lo:hi + 1], windows[M][lo:hi + 1], out=law)
                    np.divide(law, np.add.reduce(law), out=law)
                    if sure:
                        tv_now, tv_src = bound, (lo, law)
                    else:
                        tv_end = tv_of(lo, law)
                        work.tvs += 1
                        ok = 0.5 * (tv_now + tv_end) - 0.25 * M * d > level + rest
                        if not ok and fresh != done:
                            d, fresh = self._step_change(a, held), done
                            ok = (0.5 * (tv_now + 1.0) - 0.25 * M * d > level + rest
                                  and 0.5 * (tv_now + tv_end) - 0.25 * M * d > level + rest)
                        if not ok:
                            work.failed_leaps += 1
                            continue
                        tv_now, tv_src = tv_end, None
                    leapt = M
                    break
            if leapt:
                side ^= 1
                done += leapt
                work.leaps[leapt] = work.leaps.get(leapt, 0) + 1
                laws, tv = law[None], None
            else:
                m_now = min(m, steps - done)
                b = a + len(held) - 1
                lo, hi = max(0, a - m_now), min(n - 1, b + m_now)
                w = hi - lo + 1
                # the block's laws, sized to its window: buffers of all n
                # levels, held through a sweep, raised the benchmark's
                # exact-mix peak memory, and the block's steps cost far more
                # than the allocation
                buf = np.zeros((m_now + 1, w))
                buf[0, a - lo:b - lo + 1] = held
                stay, up, down = self.stay[lo:hi + 1], self.up[lo:hi], self.down[lo + 1:hi + 1]
                t = np.empty(w - 1)
                # row views made once per block: per-step 2-D indexing would
                # cost about as much as the arithmetic on a short window
                rows = list(buf)
                heads = list(buf[:, :w - 1])  # levels that can step up
                tails = list(buf[:, 1:w])     # levels that can step down
                for src, dst, src_h, dst_h, src_t, dst_t in zip(
                        rows, rows[1:], heads, heads[1:], tails, tails[1:]):
                    np.multiply(src, stay, out=dst)
                    np.multiply(src_h, up, out=t)
                    np.add(dst_t, t, out=dst_t)
                    np.multiply(src_t, down, out=t)
                    np.add(dst_h, t, out=dst_h)
                laws = buf[1:]
                np.divide(laws, laws.sum(axis=1)[:, None], out=laws)
                tv = None
                if target is not None:
                    g = np.abs(laws - target[lo:hi + 1])
                    tv = 0.5 * (g.sum(axis=1) + (below[lo] + above[hi + 1]))
                    tv_now, tv_src = float(tv[-1]), None
                done += m_now
                work.pushed_blocks += 1
                law = laws[-1]
            # the tail cut: the live window of the block's last law
            w = len(law)
            live = mask[:w]
            np.greater(law, cut, out=live)
            i, j = int(live.argmax()), w - int(live[::-1].argmax())
            work.dropped += (w - j + i) * cut
            a, held = lo + i, law[i:j]
            yield done, lo, laws, tv

    def _step_change(self, a: int, held: np.ndarray) -> float:
        """||mu P - mu||_1 for the law mu held on ks[a:a + len(held)], by
        one `push`; counted in work.step_changes."""
        n = len(self.ks)
        b = a + len(held) - 1
        lo, hi = max(0, a - 1), min(n - 1, b + 1)
        mu = np.zeros(hi - lo + 1)
        mu[a - lo:b - lo + 1] = held
        self.work.step_changes += 1
        return float(np.abs(self.push(mu, lo) - mu).sum())

    def law_after(self, mu: np.ndarray, steps: int) -> np.ndarray:
        """The law mu P^steps over ks, renormalised.

        A window of n <= 2 _BLOCK + 1 levels is no wider than a row of
        `band`, which is then just the dense n x n matrix P^_BLOCK: there
        the law is taken by binary powering (Knuth, TAOCP vol. 2 §4.6.3),
        one law @ P^(2^j) for each set bit j of steps, read from the
        kernel's table of dense powers (`_dense_power`, squared on from the
        one-step matrix P), and `band` is never built.  P^(2^j) is within
        (2^j - 1) n eps of the exact power and the law, before its
        renormalisation, within steps * n eps of mu P^steps in every entry;
        the renormalisation at most doubles that in L1.  For n <= 65 that
        is about twice the 32 eps a step of `leap`.

        Wider windows take one `leap` per whole block of steps, and
        `evolve` pushes the rest.
        """
        law = mu / mu.sum()
        if len(self.ks) <= 2 * _BLOCK + 1:
            bits = int(steps).bit_length()
            if bits:
                self._dense_power(1 << (bits - 1))
            for j in range(bits):
                if steps >> j & 1:
                    law = law @ self._dense[1 << j]
            return law / law.sum()
        lo = 0
        for _ in range(steps // _BLOCK):
            lo, law = self.leap(*live_window(lo, law, self.tail_cut))
        out = np.zeros(len(self.ks))
        out[lo:lo + len(law)] = law
        for _, lo, laws, _ in self.evolve(out, steps % _BLOCK):
            out = np.zeros(len(self.ks))
            out[lo:lo + laws.shape[1]] = laws[-1]
        return out

    def step_counts(self, n: np.ndarray, steps: int, rng: np.random.Generator) -> None:
        """Advance independent chains held as counts n over ks (int64, in
        place) by `steps` steps each.

        The chains at one level split multinomially into those that step
        up, down or stay, by the one-step law (up, down, stay), the
        restriction's rejection already folded in: one rng.multinomial
        call over the levels per step, whatever the number of chains, and
        the counts' law is that of as many `simulate_mag_replicas` chains.
        """
        law = np.column_stack((self.up, self.down, self.stay))
        for _ in range(steps):
            ups, downs, n[:] = rng.multinomial(n, law).T
            n[1:] += ups[:-1]
            n[:-1] += downs[1:]

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
        moves and, with record, the sum after every step as an int64 array
        (empty without record).

        A step's draw reads the path only through the level before it, so
        the run is the fixed point of a map on guessed level paths: draw
        every step's spin from its guessed level and sum the moves; the
        steps before the first level the map changes are exact.
        `_verified_head` runs a chunk of at least _WINDOW steps that way in
        numpy, a window of guessed steps at a time (_PROBE steps, then
        _WINDOW; the argument in full is in its docstring).  `_loop`, one
        step at a time, finishes what it leaves: a chunk shorter than
        _WINDOW, or the rest of a chunk once a window has not verified in
        _ROUNDS rounds.  After a chunk of which the head verified under
        half, the next chunks skip it (_MIN_SKIP of them, twice as many
        after each such chunk in a row, up to _MAX_SKIP), so a regime where
        speculation fails costs about what the loop costs.  Both make the
        same decisions on the same draws, so the result does not depend on
        which of them ran a step.
        """
        n = len(us)
        t, rejected, head = 0, 0, None
        if n >= _WINDOW:
            if self._skip:
                self._skip -= 1
            else:
                t, k, rejected, head = self._verified_head(spins, k, sites, us)
                if 2 * t < n:
                    self._skip, self._wait = self._wait, min(2 * self._wait, _MAX_SKIP)
                else:
                    self._wait = _MIN_SKIP
        path = None
        if t < n:
            k, r, tail = self._loop(spins, k, sites[t:] if t else sites,
                                    us[t:] if t else us, record)
            rejected += r
            path = np.frombuffer(tail, dtype=np.int64) if record else None
        if not record:
            return k, rejected, _NO_PATH
        if t:
            head = 2 * head - self.N
            path = head if path is None else np.concatenate((head, path))
        return k, rejected, path

    def _loop(self, spins: list, k: int, sites: np.ndarray, us: np.ndarray,
              record: bool):
        """`walk` one step at a time: (k, rejected, path), path an array('q')
        of the sum after every step with record, else empty."""
        f, N = self._f_up, self.N
        j_lo, j_hi = self._j_lo, self._j_hi
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

    def _verified_head(self, spins: list, k: int, sites: np.ndarray, us: np.ndarray):
        """The first steps of `walk` over a chunk, verified a window at a time.

        Returns (t, k, rejected, levels): t steps are done, spins is updated
        for them, k is the sum after them and rejected counts their rejected
        moves; levels[s] is f's index after step s, s < t.

        A window's steps are guessed to stay at the exact level j they start
        from, then rounds refine the guess J (f's index before each step)
        until it holds.  A round draws each step's spin from J, new = u <=
        f_up[J]; reads the spin it replaces, old, as the site's spin after
        its last earlier step in the chunk (found by one stable sort of the
        chunk's sites) or at the chunk's start; and sums the moves new - old
        from j into a path J'.  The sequential run is the fixed point J' =
        J, and every step before the first s with J'[s] != J[s] is exact:
        by induction on the steps, each reads an exact level, and an exact
        old spin, since the earlier steps of the window read the same J.
        Those steps are kept; s and its exact level J'[s] start the next
        round, whose guess is J'.  An exact move that would leave [lo, hi]
        is a rejection: the steps before it are kept, it keeps its old spin,
        and the next round starts after it.
        """
        N, n = self.N, len(us)
        f, j_lo, j_hi = self.f_up, self._j_lo, self._j_hi
        restricted = j_lo > 0 or j_hi < N
        order, again = _site_runs(sites, N)
        # spin bits (True for +1): bits[s] is the spin at step s's site at
        # the chunk's start, bits[n + s] the one step s leaves there; step s
        # reads the spin it replaces at bits[ref[s]], left by the step
        # before it in the sort when that step has its site
        ref = np.empty(n, dtype=np.intp)
        ref[order[0]] = order[0]
        ref[order[1:]] = np.where(again, order[:-1] + n, order[1:])
        bits = np.empty(2 * n, dtype=bool)
        if N <= n:
            bits[:n] = (np.fromiter(spins, np.int8, N) > 0)[sites]
        else:
            bits[:n] = np.fromiter(map(spins.__getitem__, sites.tolist()), np.int8, n) > 0
        levels = np.empty(n + 1, dtype=np.int64)  # levels[s]: before step s
        j = (k + N) >> 1
        levels[0] = j
        a, rejected = 0, 0
        while a < n:  # levels[a] holds the exact level j
            b = min(a + (_WINDOW if a else _PROBE), n)
            levels[a + 1:b + 1] = j
            for _ in range(_ROUNDS):
                guess = levels[a:b]
                # a guess shifted past a rejection may step off [0, N]
                new = us[a:b] <= f.take(guess, mode="clip")
                bits[n + a:n + b] = new
                moves = new.view(np.int8) - bits[ref[a:b]].view(np.int8)
                after = np.cumsum(moves, dtype=np.int64)
                after += j
                miss = np.flatnonzero(after[:-1] != guess[1:])
                done = int(miss[0]) + 1 if miss.size else b - a
                off = ()  # verified moves off [lo, hi]: the first is rejected
                if restricted:
                    off = np.flatnonzero((after[:done] < j_lo) | (after[:done] > j_hi))
                if len(off):  # step a + r
                    r = int(off[0])
                    bits[n + a + r] = bits[ref[a + r]]
                    levels[a + 1:a + r + 1] = after[:r]
                    j = int(levels[a + r])
                    levels[a + r + 1:b + 1] = after[r:] - (after[r] - j)
                    rejected += 1
                    a += r + 1
                else:
                    levels[a + 1:b + 1] = after
                    a += done
                    j = int(levels[a])
                if a == b:
                    break
            if a < b:
                break
        # each site's last step of the head (whose next step at the site,
        # if any, is not in it), where it left the site changed
        nexts = np.append(np.where(again, order[1:], n), n)
        last = order[(order < a) & (nexts >= a)]
        for i in sites[last[bits[n + last] != bits[last]]].tolist():
            spins[i] = -spins[i]
        return a, 2 * j - N, rejected, levels[1:a + 1]


def kernel_arrays(params: ModelParams, N: int):
    """(up, down, stay) over all levels k = -N, -N+2, ..., N."""
    kernel = LevelKernel(params, N)
    return kernel.up, kernel.down, kernel.stay


def _resolve_start(N: int, start) -> tuple[list, int]:
    """(spins, sum) of a start: a list of +-1 and its sum.

    A start is 'all_plus', 'all_minus', a level k (the first (N + k)/2 sites
    are +1; site labels are exchangeable, so the choice is irrelevant for
    any magnetization-level observable) or a +-1 array of length N.
    """
    if isinstance(start, str):
        if start not in ("all_plus", "all_minus"):
            raise DomainError(f"unrecognized start {start!r}")
        start = N if start == "all_plus" else -N
    if isinstance(start, (int, np.integer)):
        k = int(start)
        if (N + k) % 2 != 0 or abs(k) > N:
            raise DomainError(f"sum {k} unreachable for N={N}")
        n_plus = (N + k) // 2
        return [1] * n_plus + [-1] * (N - n_plus), k
    spins = np.asarray(start)
    if spins.ndim != 1:
        raise DomainError(f"unrecognized start {start!r}")
    if len(spins) != N:
        raise DomainError(f"start has {len(spins)} spins, expected {N}")
    if not np.isin(spins, (-1, 1)).all():
        raise DomainError("spins must be +-1")
    spins = np.where(spins > 0, 1, -1)
    return spins.tolist(), int(spins.sum())


def _well(points, m: float, N: int) -> tuple[int, int]:
    """The well of the maximizer m as a restriction [lo, hi] of the sum.

    lo = ceil(N*a) and hi = ceil(N*b) - 1, with a and b the stationary
    points of H next to m below and above it (lo = -N or hi = N where there
    is none): the levels k with N*a <= k < N*b.  Wells of distinct
    maximizers are disjoint, and a level on a cut joins the well above it.
    """
    below = [s.m for s in points if s.m < m]
    above = [s.m for s in points if s.m > m]
    lo = math.ceil(N * max(below)) if below else -N
    hi = math.ceil(N * min(above)) - 1 if above else N
    return lo, hi


def restricted_threshold(params: ModelParams, N: int) -> int:
    """Magnetization floor of the restricted dynamics: the lower end of the
    well of the largest local maximizer of H, ceil(N*m_minus) with m_minus
    the largest stationary point below it, or -N where there is none."""
    points = find_stationary_points(params)
    return _well(points, local_maxima(points)[-1].m, N)[0]


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
    spins, k = _resolve_start(spec.N, spec.start)
    kernel.index(k)
    every = spec.record_every
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

    While the chains differ, each chunk of draws walks both, and the
    Hamming count follows from the paths with numpy.  The kernel is
    unrestricted, so after a step the chosen site holds the spin each chain
    drew: the chains differ there iff (u <= f_up[kx]) != (u <= f_up[ky]) at
    the sums before the step.  Before it they differed there as after the
    chunk's last earlier step at that site (found by `_site_runs`, the sort
    `walk` runs too), or as at the chunk's start.  Once they have met, a
    chunk walks the first chain alone: both sums are its path and the
    Hamming distance stays 0.  The untouched count takes the first visits
    from the same sort, and once every site has been chosen it stays 0 too:
    a chunk after that and the meeting is one walk.
    """
    N, every = spec.N, spec.record_every
    kernel = LevelKernel(spec.params, N)
    xs, kx = _resolve_start(N, spec.start_x)
    ys, ky = _resolve_start(N, spec.start_y)
    differs = np.array(xs) != np.array(ys)  # per site, at the start of the chunk
    never = np.ones(N, dtype=bool)  # sites no step has chosen yet
    hamming, untouched = int(np.count_nonzero(differs)), N
    coalesced_at = 0 if hamming == 0 else None

    times = np.arange(0, spec.steps + 1, every)
    # hamming, untouched, kx, ky; a count that has reached 0 stays 0 and is
    # not written again
    cols = np.zeros((4, len(times)), dtype=np.int64)
    cols[:, 0] = hamming, untouched, kx, ky
    row, t = 1, 0
    for sites, us in kernel.draws(rng_stream(spec.seed, 0), spec.steps):
        kept = slice((-t - 1) % every, None, every)  # index s is step t + s + 1
        x0, y0 = kx, ky
        kx, _, px = kernel.walk(xs, kx, sites, us, record=True)
        sums = px[kept]
        rows = slice(row, row + len(sums))
        cols[2, rows] = sums
        if hamming or untouched:
            order, again = _site_runs(sites, N)
            later = order[1:][again]
        if untouched:
            first = never[sites]
            first[later] = False
            never[sites] = False
            unt = untouched - np.cumsum(first, dtype=np.int64)
            untouched = int(unt[-1])
            cols[1, rows] = unt[kept]
        if hamming:
            ky, _, py = kernel.walk(ys, ky, sites, us, record=True)
            drew_x = us <= kernel.f_up[(np.concatenate(([x0], px[:-1])) + N) >> 1]
            drew_y = us <= kernel.f_up[(np.concatenate(([y0], py[:-1])) + N) >> 1]
            now = drew_x != drew_y
            before = differs[sites]
            before[later] = now[order[:-1][again]]
            last = order[np.append(~again, True)]  # each site's last step here
            differs[sites[last]] = now[last]
            ham = hamming + np.cumsum(now, dtype=np.int64) - np.cumsum(before, dtype=np.int64)
            hamming = int(ham[-1])
            if hamming == 0:
                coalesced_at = t + int(np.flatnonzero(ham == 0)[0]) + 1
            cols[0, rows] = ham[kept]
            cols[3, rows] = py[kept]
        else:  # met chains move together
            cols[3, rows] = sums
        row, t = rows.stop, t + len(us)
    hams, unt, mx, my = cols
    return CouplingTrace(times=times, hamming=hams, untouched=unt, mags_x=mx,
                         mags_y=my, coalesced_at=coalesced_at)


# -- vectorized replica engine ----------------------------------------------


def simulate_mag_replicas(params: ModelParams, N: int, start_ks: np.ndarray,
                          steps: int, rng: np.random.Generator,
                          lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """The sums of R magnetization chains after `steps` steps from start_ks.

    Optional lo/hi bounds give the floor- or window-restricted dynamics by
    rejection.  start_ks must be a 1-D sequence of integers, each a level in
    [lo, hi], else DomainError (the level checks are LevelKernel.index's).
    A step draws u = rng.random(R): the chain at position i in the kernel's
    ks moves up when u < up[i] and down when u >= 1 - down[i], the folded
    one-step law.  So s steps and then t steps on one rng end where s + t do.
    """
    ks = np.asarray(start_ks)
    if ks.ndim != 1 or (ks.size and ks.dtype.kind not in "iu"):
        raise DomainError("start_ks must be a 1-D sequence of integer levels, "
                          f"got shape {ks.shape} of {ks.dtype}")
    sums = ks.astype(np.int64)
    kernel = LevelKernel(params, N, lo, hi)
    if sums.size:  # the lowest, highest and first wrong-parity starts must be levels
        for k in (sums.min(), sums.max(), sums[np.argmax(sums & 1 != N & 1)]):
            kernel.index(int(k))
    k0 = int(kernel.ks[0])
    i = (sums - k0) >> 1  # the chains' positions in kernel.ks
    up, fall = kernel.up, 1.0 - kernel.down
    for _ in range(steps):
        u = rng.random(len(i))
        rise = u < up[i]  # both moves read the position before the step
        i -= u >= fall[i]
        i += rise
    return 2 * i + k0


# -- metastable sampler ------------------------------------------------------


@dataclass(frozen=True)
class MetastableSpec:
    params: ModelParams
    N: int
    burn_steps: int | None = None  # None = ceil(10 N log N)
    seed: int = 0
    require_coexistence: bool = False


@dataclass
class SamplerReport:
    """One `metastable_sample` draw: a window per global maximizer of H, its
    well (`_well`), weighted by the well's exact Gibbs mass."""

    maximizers: list[float]         # magnetization locations of the windows
    weights: list[float]            # window Gibbs masses, normalised to sum 1
    windows: list[tuple[int, int]]  # (lo_sum, hi_sum) per window, in [-N, N]
    burn_steps: int
    acceptance_rates: list[float]   # fraction of proposals not window-rejected
    final_sums: list[int]
    chosen: int


def _metastable_setup(spec: MetastableSpec):
    """Global maximizers, well kernels, starts, Gibbs-mass weights and
    burn-in of the sampler."""
    params, N = spec.params, spec.N
    if spec.burn_steps is not None and spec.burn_steps < 0:
        raise DomainError("burn_steps must be non-negative")
    points = find_stationary_points(params)
    maxima = local_maxima(points)
    top = max(s.H for s in maxima)
    globals_ = [s for s in maxima if top - s.H <= HEIGHT_TOL]
    if spec.require_coexistence and len(globals_) < 2:
        raise DomainError("not on the global-coexistence locus")
    # a well that holds no level of N's parity (at N = 1, [0, 0]) has no
    # Gibbs mass: it is dropped before its kernel is built
    wells = [(s, _well(points, s.m, N)) for s in globals_]
    wells = [(s, w) for s, w in wells if (w[0] + N + 1) // 2 <= (w[1] + N) // 2]
    if not wells:
        raise DomainError(f"no well of a global maximizer holds a level of N={N}")
    globals_ = [s for s, _ in wells]
    kernels = [LevelKernel(params, N, *w) for _, w in wells]
    starts = [min(max(nearest_level(N, s.m), int(kernel.ks[0])), int(kernel.ks[-1]))
              for s, kernel in zip(globals_, kernels)]

    # each window's Gibbs mass, a log-sum-exp summed by fsum: exactly
    # rounded, so mirror windows get the same mass whatever their order
    log_gibbs = LevelKernel(params, N).log_gibbs
    logs = [log_gibbs[(kernel.ks + N) // 2] for kernel in kernels]
    peak = max(float(lg.max()) for lg in logs)
    raw = [math.fsum(np.exp(lg - peak).tolist()) for lg in logs]
    total = math.fsum(raw)
    weights = [w / total for w in raw]
    burn = spec.burn_steps
    if burn is None:
        burn = int(math.ceil(10.0 * N * math.log(N)))
    return globals_, kernels, starts, weights, burn


def metastable_sample(spec: MetastableSpec) -> tuple[np.ndarray, SamplerReport]:
    """Draw an approximate sample by mixing well-restricted chains.

    One chain per global maximizer runs for the burn-in horizon, restricted
    to the maximizer's well (`_well`) and started at the well's level
    nearest N*m; a window index is then drawn with weights proportional to
    the wells' exact Gibbs masses and that chain's final configuration is
    returned, as an int8 array of +-1.
    """
    globals_, kernels, starts, weights, burn = _metastable_setup(spec)

    finals, final_sums, acc_rates = [], [], []
    for i, (kernel, k) in enumerate(zip(kernels, starts)):
        spins, k = _resolve_start(spec.N, k)
        rejected = 0
        for sites, us in kernel.draws(rng_stream(spec.seed, 1, i), burn):
            k, r, _ = kernel.walk(spins, k, sites, us)
            rejected += r
        finals.append(spins)
        final_sums.append(k)
        acc_rates.append(1.0 - rejected / burn if burn else 1.0)

    rng_v = rng_stream(spec.seed, 2)
    chosen = int(rng_v.choice(len(weights), p=weights))
    report = SamplerReport(
        maximizers=[s.m for s in globals_],
        weights=weights,
        windows=[(kernel.lo, kernel.hi) for kernel in kernels],
        burn_steps=burn,
        acceptance_rates=acc_rates,
        final_sums=final_sums,
        chosen=chosen,
    )
    return np.array(finals[chosen], dtype=np.int8), report


def metastable_sample_law(spec: MetastableSpec) -> np.ndarray:
    """Exact magnetization law of one sampler draw over all N+1 levels.

    The Gibbs-mass-weighted mixture over windows w of delta_{k0} P_w^burn,
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
