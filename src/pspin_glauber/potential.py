"""Free-energy landscape of the p-spin Curie-Weiss model.

Evaluates the scaled free energy ``H(x) = beta*x**p + h*x - I(x)`` (with
``I`` the binary entropy), its first three derivatives, the mean-field map
``lam(c) = tanh(p*beta*c**(p-1) + h)`` with derivatives, and locates and
classifies every stationary point of ``H`` on (-1, 1).

Stationary points of ``H`` coincide with fixed points of ``lam``, and the
sign of ``lam'(m) - 1`` matches the sign of ``H''(m)`` at any such point.
The root finder works in ``u = atanh(m)``, where ``H'(tanh u)`` is
``G(u) = p*beta*tanh(u)**(p-1) + h - u``, so that a maximizer exponentially
close to +-1 is still a well-separated float.  It exploits a structural
fact: the roots of ``H''`` (which do not depend on h) split the line into
at most five intervals on which ``G`` is strictly monotone.  Each interval
then carries at most one root, bracketed by the interval endpoint signs,
and tangential (double) roots can only sit exactly on a root of ``H''``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

CURVATURE_TOL = 1e-8
HEIGHT_TOL = 1e-10  # maximizers whose heights differ by at most this tie


class DomainError(ValueError):
    """Input outside the admissible open interval or parameter range."""


class DegenerateClusterError(RuntimeError):
    """Root structure could not be resolved inside a bracket."""

    def __init__(self, message, bracket):
        super().__init__(f"{message} (bracket {bracket[0]!r}..{bracket[1]!r})")
        self.bracket = bracket


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: tensor order p >= 2, inverse temperature, field."""

    p: int
    beta: float
    h: float

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2:
            raise DomainError(f"p must be an integer >= 2, got {self.p}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "h", float(self.h))
        if not (self.beta > 0) or not math.isfinite(self.beta):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.h):
            raise DomainError(f"h must be finite, got {self.h}")


@dataclass(frozen=True)
class PotentialValues:
    """H, I, lam and derivatives at a single interior point x."""

    x: float
    I: float
    H: float
    H1: float
    H2: float
    H3: float
    lam: float
    lam1: float
    lam2: float
    lam3: float


class PointKind(Enum):
    LOCAL_MAX = "LocalMax"
    LOCAL_MIN = "LocalMin"
    INFLECTION = "Inflection"


@dataclass(frozen=True)
class StationaryPoint:
    """A refined root of H' with curvature classification.

    ``near_degenerate`` marks roots whose |H''| falls inside the curvature
    tolerance band (degenerate extrema and stationary inflections).
    """

    m: float
    kind: PointKind
    H: float
    H2: float
    near_degenerate: bool = False


def entropy(x):
    """Binary entropy I(x) = ((1+x)log(1+x) + (1-x)log(1-x))/2, log1p-based."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * ((1.0 + x) * np.log1p(x) + (1.0 - x) * np.log1p(-x))
    return out if out.ndim else float(out)


def free_energy(params: ModelParams, x):
    """H(x) = beta*x^p + h*x - I(x) on [-1, 1]."""
    p, beta, h = params.p, params.beta, params.h
    x = np.asarray(x, dtype=float)
    out = beta * x**p + h * x - entropy(x)
    return out if out.ndim else float(out)


def free_energy_d1(params: ModelParams, x):
    """H'(x) = p*beta*x^(p-1) + h - atanh(x)."""
    p, beta, h = params.p, params.beta, params.h
    x = np.asarray(x, dtype=float)
    out = p * beta * x ** (p - 1) + h - np.arctanh(x)
    return out if out.ndim else float(out)


def free_energy_d2(params: ModelParams, x):
    """H''(x) = p*(p-1)*beta*x^(p-2) - 1/(1-x^2); independent of h."""
    p, beta = params.p, params.beta
    x = np.asarray(x, dtype=float)
    out = p * (p - 1) * beta * x ** (p - 2) - 1.0 / (1.0 - x * x)
    return out if out.ndim else float(out)


def mean_field_map(params: ModelParams, c):
    """lam(c) = tanh(p*beta*c^(p-1) + h); defined on all of [-1, 1]."""
    p, beta, h = params.p, params.beta, params.h
    c = np.asarray(c, dtype=float)
    out = np.tanh(p * beta * c ** (p - 1) + h)
    return out if out.ndim else float(out)


def _coef_pow(coef, x, n):
    # coef * x**n with the convention that a zero coefficient kills the
    # term even where x**n would be singular (x=0 with n<0 only arises when
    # the combinatorial coefficient vanishes, i.e. small p).
    return 0.0 if coef == 0 else coef * x**n


def evaluate_potential(params: ModelParams, x: float) -> PotentialValues:
    """Evaluate H, I, lam and their derivatives at an interior point.

    Raises DomainError unless |x| < 1; the derivatives of H blow up at the
    endpoints and every stationary point is interior.
    """
    x = float(x)
    if not abs(x) < 1.0:  # nan included
        raise DomainError(f"x must satisfy |x| < 1, got {x}")
    p, beta, h = params.p, params.beta, params.h

    I = entropy(x)
    H = beta * x**p + h * x - I
    H1 = p * beta * x ** (p - 1) + h - math.atanh(x)
    one_m_x2 = 1.0 - x * x
    H2 = _coef_pow(p * (p - 1) * beta, x, p - 2) - 1.0 / one_m_x2
    H3 = _coef_pow(p * (p - 1) * (p - 2) * beta, x, p - 3) - 2.0 * x / one_m_x2**2

    lam = math.tanh(p * beta * x ** (p - 1) + h)
    sech2 = 1.0 - lam * lam
    bp = beta * p * (p - 1)
    lam1 = _coef_pow(bp, x, p - 2) * sech2
    lam2 = _coef_pow(bp * (p - 2), x, p - 3) * sech2 - _coef_pow(2.0 * bp, x, p - 2) * lam * lam1
    lam3 = (
        _coef_pow(bp * (p - 2) * (p - 3), x, p - 4) * sech2
        - _coef_pow(4.0 * bp * (p - 2), x, p - 3) * lam * lam1
        - _coef_pow(2.0 * bp, x, p - 2) * (lam1 * lam1 + lam * lam2)
    )
    return PotentialValues(x=x, I=I, H=H, H1=H1, H2=H2, H3=H3,
                           lam=lam, lam1=lam1, lam2=lam2, lam3=lam3)


def drift_field(params: ModelParams, N: int, c: float) -> float:
    """One-step expected magnetization drift (lam(c) - c) / N."""
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    if not -1.0 <= c <= 1.0:
        raise DomainError(f"magnetization must lie in [-1, 1], got {c}")
    return (mean_field_map(params, c) - c) / N


def _slopes(p: int, beta: float, h: float):
    """u -> G(u) = p*beta*tanh(u)^(p-1) + h - u, which is H'(tanh u), and
    u -> G'(u) = (1 - m^2) H''(m) at m = tanh(u), in math scalars."""
    c, n = p * beta, p - 1

    def g(u):
        return c * math.tanh(u) ** n + h - u

    def g1(u):
        m = math.tanh(u)
        return c * n * m ** (n - 1) * (1.0 - m * m) - 1.0

    return g, g1


def _height(p: int, beta: float, h: float, u: float) -> tuple[float, float]:
    """(m, H(m)) at m = tanh(u), H in math scalars at the float m.

    tanh adds its own rounding to the error that the solve leaves in u, so
    where |m| < 1 one Newton step on H' in m follows, kept only while it
    moves m by less than 4 ulp: it takes m as close to the root as solving
    in m would, and is dropped at a near-tangent root, where H'' is too
    small for the step to be a rounding-size one.

    At a root of G, H is stationary, so the rounding dm of m moves H by
    about |H''| dm^2 / 2 = dm^2 / (2 (1 - m^2)): below dm/4 while
    1 - |m| >= dm, and about dm/2 where |m| rounds to 1, with
    (1 - |m|) log(1 - |m|) = 0 there.  Taking some terms of H at m and
    others at u would instead leave an error of |u| dm.
    """
    m = math.tanh(u)
    if abs(m) < 1.0:
        d1 = p * beta * m ** (p - 1) + h - math.atanh(m)
        d2 = p * (p - 1) * beta * m ** (p - 2) - 1.0 / (1.0 - m * m)
        if abs(d1) < 4.0 * math.ulp(m) * abs(d2):
            m -= d1 / d2
    am = abs(m)
    tail = (1.0 - am) * math.log1p(-am) if am < 1.0 else 0.0
    return m, beta * m**p + h * m - 0.5 * ((1.0 + am) * math.log1p(am) + tail)


def _bisect(f, a, b, fa, fb):
    """Bisection for sign-changing f on [a, b]; runs to float resolution."""
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if (fa > 0) == (fb > 0):
        raise DegenerateClusterError("no sign change in bracket", (a, b))
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return float(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return float(0.5 * (a + b))


def _solve_root(d1, d2, lo: float, hi: float, kind: PointKind) -> float:
    """The root of G in [lo, hi], with G = d1 and G' = d2 (`_slopes`); G has
    the sign of H' and G' that of H''.

    Across the root H' falls from + to - for a LOCAL_MAX and rises from - to
    + for a LOCAL_MIN.  Safeguarded Newton from the midpoint: a step that
    leaves the shrinking sign bracket, or an H'' of the wrong sign, is
    replaced by bisection.  Stops at a Newton step of at most one ulp, which
    may round onto the bracket's end, or at a bracket of two adjacent floats.
    """
    s = -1.0 if kind is PointKind.LOCAL_MAX else 1.0  # the sign H'' should have
    x = 0.5 * (lo + hi)
    for _ in range(200):
        g = s * d1(x)
        if g < 0.0:
            lo = x
        elif g > 0.0:
            hi = x
        else:
            return x
        slope = s * d2(x)
        x_next = x - g / slope if slope > 0.0 else math.nan
        if abs(x_next - x) <= math.ulp(x):
            return x_next
        if not lo < x_next < hi:  # nan included
            x_next = 0.5 * (lo + hi)
            if not lo < x_next < hi:
                return x
        x = x_next
    return x


# the ends of the H'' root brackets, in m
_ROOT_END = 1e-15


def _beta_hat(p: int) -> float:
    """beta_hat(p), the beta above which H'' has roots (1/2 at p = 2)."""
    if p == 2:
        return 0.5
    return 1.0 / (2.0 * (p - 1)) * (p / (p - 2.0)) ** ((p - 2.0) / 2.0)


class LandscapeStructure:
    """Monotonicity structure of H' for fixed (p, beta), shared across h.

    Roots are solved in u = atanh(m), where H'(tanh u) is
    G(u) = p*beta*tanh(u)^(p-1) + h - u and G'(u) = (1 - m^2) H''(m): G has
    the sign of H', G' that of H''.  Every root of G lies in
    |u - h| <= p*beta, so G > 0 below that interval and G < 0 above it.
    The nodes are the atanh of the roots of H'' (h-independent), with the
    h=0 terms of H'(m; h) = (p*beta*m^(p-1) + h) - atanh(m) precomputed
    there.  The node values for any h, or for a whole column of h at once
    (`node_values`), are then one addition and one subtraction, the same
    float operations as `free_energy_d1`.  The kinds of the stationary
    points at a given h come from the signs at the nodes alone; each root
    is then solved once, by `_solve_root` inside its sign-changing monotone
    interval.
    """

    def __init__(self, p: int, beta: float):
        self.p = int(p)
        self.beta = float(beta)
        bh = _beta_hat(self.p)
        # the maximum of G' = (1 - x^2) H''(x) = p(p-1) beta x^(p-2) (1 - x^2) - 1,
        # at x = w = sqrt(1 - 2/p); where H'' has no root, H'' = G'/(1 - x^2) <= G'
        self.d2_bound = self.beta / bh - 1.0
        self.curvature_roots = self._find_curvature_roots(bh) if self.beta > bh else []
        x = np.array(self.curvature_roots)
        self.nodes = np.arctanh(x)
        self._a = self.p * self.beta * x ** (self.p - 1)
        self._terms = list(zip(self.nodes.tolist(), self._a.tolist()))

    # -- H'' roots ---------------------------------------------------------

    def _find_curvature_roots(self, bh: float) -> list[float]:
        """The roots of H'' on (-1, 1), ascending, for beta > beta_hat.

        H'' = 0 is p(p-1) beta x^(p-2) (1 - x^2) = 1, at p = 2 the closed
        form x = +-sqrt(1 - 1/(2 beta)).  For p >= 3 the left side rises on
        (0, w) and falls on (w, 1), w = sqrt(1 - 2/p), to its peak
        beta/beta_hat.  With x = w (1 + s) the equation reads
        phi(s) = (p-2) log1p(s) + log1p(-(p-2)/2 s (2 + s)) = log(beta_hat/beta),
        and phi rises from -inf to its maximum 0 at s = 0, then falls back
        to -inf: one root on either side of s = 0, each bisected in math
        scalars.  The bracket ends are x = _ROOT_END and x = 1 - _ROOT_END,
        which hold both roots for beta up to about 5e14 / (p (p-1)); past
        that a root lies beyond an end (at p = 2, rounds to 1 - _ROOT_END or
        above) and DomainError is raised.  Odd p has
        no root below 0 (there H'' < 0); even p mirrors the two exactly.
        """
        p, beta = self.p, self.beta
        too_large = DomainError(
            f"H'' has a root within {_ROOT_END} of 0 or 1 at p={p}, "
            f"beta={beta}: beta is too large for root finding")
        if p == 2:
            r = math.sqrt(1.0 - 1.0 / (2.0 * beta))
            if not r < 1.0 - _ROOT_END:
                raise too_large
            return [-r, r]
        w, k = math.sqrt(1.0 - 2.0 / p), 0.5 * (p - 2)
        # log(beta_hat/beta), negative for every beta > beta_hat
        target = -math.log1p((beta - bh) / bh)

        def f(s):
            return (p - 2) * math.log1p(s) + math.log1p(-k * s * (2.0 + s)) - target

        s_lo, s_hi = _ROOT_END / w - 1.0, (1.0 - _ROOT_END) / w - 1.0
        f_lo, f_0, f_hi = f(s_lo), f(0.0), f(s_hi)
        if not (f_lo < 0.0 and f_hi < 0.0):
            raise too_large
        a1 = w * (1.0 + _bisect(f, s_lo, 0.0, f_lo, f_0))
        a2 = w * (1.0 + _bisect(f, 0.0, s_hi, f_0, f_hi))
        return [-a2, -a1, a1, a2] if p % 2 == 0 else [a1, a2]

    # -- node machinery ------------------------------------------------------

    def node_values(self, hs: np.ndarray) -> np.ndarray:
        """G at `self.nodes` for every field in hs: shape (len(hs), nodes)."""
        return (self._a[None, :] + hs[:, None]) - self.nodes[None, :]

    def _nodes_for(self, h: float):
        """The nodes inside the end brackets h -+ (p*beta + 1), between those
        ends, with G at each: +inf and -inf at the ends, the signs G has
        there."""
        reach = self.p * self.beta + 1.0
        lo, hi = h - reach, h + reach
        inside = [(u, (a + h) - u) for u, a in self._terms if lo < u < hi]
        return ([lo, *(u for u, _ in inside), hi],
                [math.inf, *(v for _, v in inside), -math.inf])

    def _pattern(self, nodes, values):
        """Stationary-point pattern: kinds plus bracketing intervals.

        Returns a list of events ``(kind, lo, hi)``; tangency events (roots
        of H'' with |H'| inside the curvature band) carry lo == hi.
        """
        n = len(nodes)
        is_zero = [False] + [abs(v) <= CURVATURE_TOL for v in values[1:-1]] + [False]

        def neighbour_sign(idx, step):
            j = idx + step
            while 0 <= j < n and is_zero[j]:
                j += step
            return 1.0 if values[j] > 0 else -1.0

        events = []
        for i in range(1, n - 1):
            if not is_zero[i]:
                continue
            sl, sr = neighbour_sign(i, -1), neighbour_sign(i, +1)
            if sl > 0 > sr:
                kind = PointKind.LOCAL_MAX
            elif sl < 0 < sr:
                kind = PointKind.LOCAL_MIN
            else:
                kind = PointKind.INFLECTION
            events.append((kind, nodes[i], nodes[i]))
        for i in range(n - 1):
            if is_zero[i] or is_zero[i + 1]:
                continue  # the monotone piece is pinned to zero at a node
            va, vb = values[i], values[i + 1]
            if va > 0 > vb:
                events.append((PointKind.LOCAL_MAX, nodes[i], nodes[i + 1]))
            elif va < 0 < vb:
                events.append((PointKind.LOCAL_MIN, nodes[i], nodes[i + 1]))
        events.sort(key=lambda e: e[1])
        return events

    def stationary_points(self, h: float) -> list[StationaryPoint]:
        p, beta = self.p, self.beta
        ModelParams(p, beta, h)  # h must be finite
        g, g1 = _slopes(p, beta, h)
        points = []
        for kind, lo, hi in self._pattern(*self._nodes_for(h)):
            u = lo if lo == hi else _solve_root(g, g1, lo, hi, kind)
            m, H = _height(p, beta, h, u)
            # 1/(1 - m^2) = cosh(u)^2 from e = exp(-2|u|), not from the rounded m
            e = math.exp(-2.0 * abs(u))
            cosh2 = (1.0 + e) ** 2 / (4.0 * e) if e > 0.0 else math.inf
            if cosh2 == math.inf:
                raise DomainError(
                    f"H'' overflows at the stationary point m = tanh({u!r}) at "
                    f"p={p}, beta={beta}, h={h}: p*beta or |h| is too large "
                    f"(|atanh(m)| must stay below about 354)")
            H2 = p * (p - 1) * beta * m ** (p - 2) - cosh2
            nd = lo == hi or abs(H2) <= CURVATURE_TOL
            points.append(StationaryPoint(m=m, kind=kind, H=H, H2=H2, near_degenerate=nd))
        return points


@lru_cache(maxsize=256)
def landscape_structure(p: int, beta: float) -> LandscapeStructure:
    """Cached monotonicity structure for fixed (p, beta)."""
    return LandscapeStructure(p, beta)


def find_stationary_points(params: ModelParams) -> list[StationaryPoint]:
    """Locate and classify all stationary points of H on (-1, 1).

    Returns the ascending list of roots of H'.  Simple roots are bracketed
    in u = atanh(m) between consecutive roots of H'' and solved by
    safeguarded Newton (`_solve_root`); a root of H'' where |H'| falls
    inside the curvature band is reported as a stationary inflection (or a
    degenerate extremum when H' changes sign across it).  The list always
    contains at least one local maximizer.
    """
    return landscape_structure(params.p, params.beta).stationary_points(params.h)


def local_maxima(points: list[StationaryPoint]) -> list[StationaryPoint]:
    return [s for s in points if s.kind is PointKind.LOCAL_MAX]
