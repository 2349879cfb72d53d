"""Phase geometry of the mixing transition in the (beta, h) plane.

Closed-form thresholds, the boundary curves U/L/C, classification of a
parameter point by the number and curvature of local maximizers of H, and
full diagram grid scans.  The functions return data; the command line
writes it out.

Region semantics (p >= 3):

* locally regular -- unique local maximizer, strictly negative curvature,
  no other stationary point; fast mixing.
* locally critical -- more than one local maximizer; metastability.
* special -- unique local maximizer with vanishing second derivative
  (the single point (beta_hat, h_hat), mirrored in h for even p).
* boundary -- one local maximizer plus a stationary inflection point; the
  one-dimensional curve separating regular from critical.

Axes and points.  A diagram or `curves` axis is solved in batches in numpy
(`scan_block`, `curve_samples`), one per block of _BETA_BLOCK betas: the
roots of H'' of its betas in one `curvature_roots` solve, the plain cells'
codes in one broadcast of G at the nodes, run in blocks of _CELL_BLOCK
cells, and C by a Newton solve on the height gap that steps every column
still open at once, the maximizers of all of them solved in one batched
Newton per step (`_solve_maxima`).  A column's codes and sample are the
same bits in any block it is scanned in.  Points keep math scalars:
`classify_point` and `LandscapeStructure.stationary_points` solve each root
with `_solve_root` and `_height`, and so do the near-tangent cells and the
near-flat columns of a scan, one point at a time.

Stopping rules.  An H'' root stops at a Newton step in s below 2^-30 of
its distance to the nearest of s = 0 and the end it approaches, or below
an ulp of 1 (`curvature_roots`).  A maximizer of a C solve stops at a
Newton step of at most one ulp or at a bracket of two adjacent floats
(`_solve_maxima`), as `_solve_root` does for a point.  C stops at a
height gap of at most _GAP_FLOOR, after one last Newton step, or at a
bracket of two adjacent floats whose gaps differ in sign or, just above
beta_hat, one of which ties the maxima to HEIGHT_TOL
(`_equal_height_fields`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .potential import (
    CURVATURE_TOL,
    HEIGHT_TOL,
    DomainError,
    PointKind,
    StationaryPoint,
    _beta_hat,
    _bisect,
    curvature_roots,
    free_energy_d1,  # noqa: F401  (perfbench/layers.py counts calls through it)
    free_energy_d2,  # noqa: F401  (perfbench/layers.py counts calls through it)
    landscape_structure,
    local_maxima,
    node_terms,
)


class Region(Enum):
    LOCALLY_REGULAR = "LocallyRegular"
    LOCALLY_CRITICAL = "LocallyCritical"
    SPECIAL = "Special"
    BOUNDARY = "Boundary"


class BoundaryDetail(Enum):
    ON_U = "OnU"
    ON_L = "OnL"
    ON_C_GLOBALS = "OnC_globals"


REGION_CODES = {
    Region.LOCALLY_REGULAR: 0,
    Region.LOCALLY_CRITICAL: 1,
    Region.SPECIAL: 2,
    Region.BOUNDARY: 3,
}


@dataclass(frozen=True)
class Thresholds:
    """Critical inverse temperatures for order p: see module docstring."""

    p: int
    beta_hat: float
    h_hat: float
    beta_tilde: float
    beta_prime: float


@dataclass(frozen=True)
class CurveSample:
    """U/L/C curve values at one beta; None where the curve is undefined."""

    beta: float
    U: float | None
    L: float | None
    C: float | None


@dataclass(frozen=True)
class PhaseReport:
    region: Region
    stationary_points: list[StationaryPoint]
    boundary_detail: BoundaryDetail | None = None
    margin: float | None = None
    uncertain: bool = False  # always False: a report key kept for schema "1"
    region_code: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "region_code", REGION_CODES[self.region])


def beta_hat(p: int) -> float:
    """Concavity threshold of H at zero field (closed form)."""
    if p < 3:
        raise DomainError(f"thresholds require p >= 3, got {p}")
    return _beta_hat(p)


def h_hat(p: int) -> float:
    """Field coordinate of the degenerate-maximizer point (closed form)."""
    bh = beta_hat(p)
    w = math.sqrt((p - 2.0) / p)
    return math.atanh(w) - bh * p * w ** (p - 1)


@lru_cache(maxsize=64)
def thresholds(p: int) -> Thresholds:
    """All four thresholds for order p >= 3.

    beta_hat/h_hat come from closed forms.  beta_tilde = min I(x)/x^p and
    beta_prime = min atanh(x)/(p x^(p-1)) over (0, 1) are read at the roots
    of their stationarity equations, x atanh(x) = p I(x) and
    x/(1 - x^2) = (p - 1) atanh(x), each bisected in u = -log(1 - x).
    """
    bh = beta_hat(p)
    hh = h_hat(p)

    # In u, 1 - x = exp(-u) is exact: the minimizer of I(x)/x^p has
    # 1 - x near 2^(1 - 2p) (1.9e-6 at p = 10), and from p = 28 on x itself
    # rounds to 1.  So x^p is taken as exp(p log(x)), log(x) =
    # log1p(-exp(-u)), which keeps the p (1 - x) that a power of the rounded
    # x drops.
    def parts(u):  # x, 1 - x, atanh(x), I(x), log(x)
        y = math.exp(-u)
        x = -math.expm1(-u)
        log_1px = math.log1p(x)
        return (x, y, 0.5 * (log_1px + u), 0.5 * ((1.0 + x) * log_1px - y * u),
                math.log1p(-y))

    def g_tilde(u):  # x atanh(x) - p I(x)
        x, _, atanh_x, entropy_x, _ = parts(u)
        return x * atanh_x - p * entropy_x

    def g_prime(u):  # x / (1 - x^2) - (p - 1) atanh(x)
        x, y, atanh_x, _, _ = parts(u)
        return x / (y * (1.0 + x)) - (p - 1) * atanh_x

    # At u = 1e-6 they are about (1 - p/2) x^2 < 0 and -(p - 2) x < 0.  At
    # u = 2p g_tilde exceeds p (1 - log 2) > 0 (its root is near
    # u = (2p - 1) log 2), and at u = 60 g_prime exceeds e^60/2 - 31 (p - 1).
    lo = 1e-6
    u_t = _bisect(g_tilde, lo, 2.0 * p, g_tilde(lo), g_tilde(2.0 * p))
    u_p = _bisect(g_prime, lo, 60.0, g_prime(lo), g_prime(60.0))
    _, _, _, entropy_x, log_x = parts(u_t)
    bt = entropy_x / math.exp(p * log_x)
    _, _, atanh_x, _, log_x = parts(u_p)
    bp = atanh_x / (p * math.exp((p - 1) * log_x))
    return Thresholds(p=p, beta_hat=bh, h_hat=hh, beta_tilde=bt, beta_prime=bp)


# |gap| at which the two heights tie to rounding (each is a sum of O(1)
# terms): the solve takes one last Newton step from there and stops
_GAP_FLOOR = 1e-15


def _solve_maxima(p: int, betas, hs, lo, hi, start=None) -> np.ndarray:
    """The local maximizer u of H (root of G, falling from + to -) in each
    bracket [lo, hi], at fields hs and inverse temperatures betas.

    The batched form of `_solve_root` for LOCAL_MAX, with the safeguards
    of `rtsafe` (Press et al., Numerical Recipes, 9.4): Newton on
    G(u) = p*beta*tanh(u)^(p-1) + h - u from `start` where it lies inside
    the bracket, else from the bracket's middle; a step that leaves the
    shrinking sign bracket, that is not at most half the step before the
    last one (a Newton cycle across an inflection of G), or where G' is not
    negative, is replaced by bisection.  A lane stops at a Newton step of
    at most one ulp, taken, or at a bracket of two adjacent floats.
    """
    pb, x = p * betas, 0.5 * (lo + hi)
    if start is not None:
        x = np.where((lo < start) & (start < hi), start, x)
    dx = dx_old = hi - lo
    out = np.empty(len(x))
    idx = np.arange(len(x))
    for _ in range(200):
        if not idx.size:
            return out
        m = np.tanh(x)
        g = x - (pb * m ** (p - 1) + hs)  # -G, rising across the root
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g > 0.0, x, hi)
        slope = 1.0 - pb * (p - 1) * m ** (p - 2) * (1.0 - m * m)  # -G'
        rises = slope > 0.0
        step = np.where(rises, g / np.where(rises, slope, 1.0), np.nan)
        newton = x - step
        last = np.abs(newton - x) <= np.spacing(np.abs(x))
        fast = (lo < newton) & (newton < hi) & (2.0 * np.abs(step) <= dx_old)
        dx_old, dx = dx, np.where(fast, np.abs(step), 0.5 * (hi - lo))
        x_next = np.where(fast, newton, 0.5 * (lo + hi))
        stuck = ~((lo < x_next) & (x_next < hi))
        out[idx] = np.where(last, newton, x)  # kept from the step where a lane stops
        keep = ~((g == 0.0) | last | stuck)
        x, lo, hi, dx, dx_old, pb, hs, idx = (
            v[keep] for v in (x_next, lo, hi, dx, dx_old, pb, hs, idx))
    raise RuntimeError(f"a maximizer of H at p={p} did not converge")


def _heights(p: int, betas, hs, u):
    """(m, H(m)) at m = tanh(u): the batched form of `_height`, with its
    Newton step on H' in m kept only while it moves m by under 4 ulp."""
    m = np.tanh(u)
    inner = np.abs(m) < 1.0
    mi = np.where(inner, m, 0.0)
    d1 = p * betas * mi ** (p - 1) + hs - np.arctanh(mi)
    d2 = p * (p - 1) * betas * mi ** (p - 2) - 1.0 / (1.0 - mi * mi)
    polish = inner & (np.abs(d1) < 4.0 * np.spacing(np.abs(mi)) * np.abs(d2))
    m = np.where(polish, m - d1 / np.where(polish, d2, 1.0), m)
    am = np.abs(m)
    below = am < 1.0
    tail = np.where(below, (1.0 - am) * np.log1p(-np.where(below, am, 0.0)), 0.0)
    return m, betas * m**p + hs * m - 0.5 * ((1.0 + am) * np.log1p(am) + tail)


def _height_gaps(p: int, betas, nodes, a, hs, starts=None):
    """(gap, slope, u) of H(top maximizer) - H(best other maximizer) at
    field hs[i] for the landscape of row i (nodes, a from `node_terms`); u
    holds the maximizers solved, by event slot (below), nan elsewhere, and
    `starts`, of the same shape, the Newton starts (an earlier call's u).

    The maximizers are read from the node signs as `_pattern` reads them:
    G is +inf at the lower end h - (p*beta + 1) and -inf at the upper one,
    monotone between nodes, and a node value within the curvature band is
    a tangency whose kind its nearest signed neighbours give.  The top
    maximizer lies at or above the last node.  All maximizers of all rows
    are solved at once (`_solve_maxima`, a tangency being its node), and
    the slope d(gap)/dh is m_top - m_other by the envelope theorem
    (dH(m(h); h)/dh = m at a maximizer).  Where the pair does not exist the
    gap is only the side of C that h lies on, +-inf with a nan slope: above
    if only the top maximizer exists, below if the top maximizer does not.
    """
    n, k = nodes.shape
    reach = p * betas + 1.0
    values = (a + hs[:, None]) - nodes
    ends = np.concatenate([(hs - reach)[:, None], nodes, (hs + reach)[:, None]], axis=1)
    signed = np.concatenate([np.ones((n, 1)), values, -np.ones((n, 1))], axis=1)
    zero = np.zeros((n, k + 2), dtype=bool)
    zero[:, 1:-1] = np.abs(values) <= CURVATURE_TOL
    # the events in ascending order: interval 0, node 1, interval 1, ...,
    # node k, interval k; a node's bracket is the node itself
    slots = np.zeros((n, 2 * k + 1), dtype=bool)
    lo = np.empty((n, 2 * k + 1))
    hi = np.empty((n, 2 * k + 1))
    lo[:, 0::2], hi[:, 0::2] = ends[:, :-1], ends[:, 1:]
    lo[:, 1::2] = hi[:, 1::2] = ends[:, 1:-1]
    slots[:, 0::2] = (~zero[:, :-1] & ~zero[:, 1:]
                      & (signed[:, :-1] > 0.0) & (signed[:, 1:] < 0.0))
    left, right = [None] * (k + 2), [None] * (k + 2)
    left[1], right[k] = signed[:, 0] > 0.0, signed[:, k + 1] > 0.0
    for i in range(1, k):  # the sign of the nearest node off the band
        left[i + 1] = np.where(zero[:, i], left[i], signed[:, i] > 0.0)
        right[k - i] = np.where(zero[:, k + 1 - i], right[k + 1 - i], signed[:, k + 1 - i] > 0.0)
    for i in range(1, k + 1):
        slots[:, 2 * i - 1] = zero[:, i] & left[i] & ~right[i]

    gap, slope = np.full(n, np.inf), np.full(n, np.nan)
    found = np.full(slots.shape, np.nan)
    top = 2 * k - np.argmax(slots[:, ::-1], axis=1)
    # the last maximizer lies at or above the last node
    has_top = slots.any(axis=1) & (top >= 2 * k - 1)
    gap[~has_top] = -np.inf
    pair = has_top & (slots.sum(axis=1) >= 2)
    rows = np.flatnonzero(pair)
    if not rows.size:
        return gap, slope, found
    events = slots[rows]
    lane, slot = np.nonzero(events)
    lane = rows[lane]
    e_lo, e_hi = lo[lane, slot], hi[lane, slot]
    u = e_lo.copy()
    solve = e_lo < e_hi
    u[solve] = _solve_maxima(p, betas[lane[solve]], hs[lane[solve]], e_lo[solve], e_hi[solve],
                             None if starts is None else starts[lane[solve], slot[solve]])
    found[lane, slot] = u
    m, H = _heights(p, betas[lane], hs[lane], u)
    heights = np.full(events.shape, -np.inf)
    ms = np.zeros(events.shape)
    heights[events], ms[events] = H, m
    r = np.arange(len(rows))
    top = top[rows]
    h_top, m_top = heights[r, top], ms[r, top]
    heights[r, top] = -np.inf
    other = np.argmax(heights, axis=1)  # the first of equal heights
    gap[rows] = h_top - heights[r, other]
    slope[rows] = m_top - ms[r, other]
    return gap, slope, found


def _equal_height_fields(p: int, betas, nodes, a, lo, hi) -> np.ndarray:
    """The field h at which the two relevant maximizers of H tie in height,
    one per row (nodes, a from `node_terms`), inside the band [lo, hi].

    The height gap rises with h (its slope m_top - m_other is positive), so
    the band brackets the tie.  Safeguarded Newton on the gap, with its
    envelope slope, from the middle of the band and inside the shrinking
    sign bracket: a field where the pair is not resolved (its gap is only
    the side of the tie), a step that leaves the bracket or a slope that is
    not positive is replaced by bisection.  Every row still open takes its
    step together, with its maximizers solved in one batch
    (`_height_gaps`), each from where the row's last step found it.  A row
    returns at a resolved |gap| <= _GAP_FLOOR, after one last Newton step,
    or at a bracket of two adjacent floats whose ends both have resolved
    gaps, the end of the smaller |gap|.  Within about 1e-5 of beta_hat the
    band [L, U] is only about 2 CURVATURE_TOL wide, and a node value in the
    curvature band can drop the pair across two adjacent floats before its
    gap changes sign; the row then returns at the resolved end if its
    |gap| <= HEIGHT_TOL, the tolerance within which maxima tie.
    DomainError where a bracket closes otherwise on an end where the pair
    does not exist, for the first such row.
    """
    a_end, b_end = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ga, gb = np.full(len(a_end), -np.inf), np.full(len(a_end), np.inf)
    x = 0.5 * (a_end + b_end)
    out = np.empty(len(x))
    idx = np.arange(len(x))
    failed = []
    starts = None
    for _ in range(200):
        if not idx.size:
            break
        g, slope, starts = _height_gaps(p, betas[idx], nodes[idx], a[idx], x, starts)
        rises = slope > 0.0
        newton = np.where(rises, x - g / np.where(rises, slope, 1.0), np.nan)
        tied = np.abs(g) <= _GAP_FLOOR
        out[idx[tied]] = np.where((a_end <= newton) & (newton <= b_end), newton, x)[tied]
        below = g < 0.0
        a_end, ga = np.where(below, x, a_end), np.where(below, g, ga)
        b_end, gb = np.where(below, b_end, x), np.where(below, gb, g)
        inside = (a_end < newton) & (newton < b_end)
        x = np.where(inside, newton, 0.5 * (a_end + b_end))
        closed = ~tied & ~((a_end < x) & (x < b_end))
        # both ends resolved, or one end's maxima already tie to HEIGHT_TOL
        # where the other end has lost the pair to the curvature band
        resolved = closed & ((np.isfinite(ga) & np.isfinite(gb))
                             | (np.minimum(-ga, gb) <= HEIGHT_TOL))
        out[idx[resolved]] = np.where(-ga <= gb, a_end, b_end)[resolved]
        failed += [(i, a_end[j], b_end[j]) for j, i in
                   zip(np.flatnonzero(closed & ~resolved), idx[closed & ~resolved])]
        keep = ~(tied | closed)
        idx, x, a_end, b_end, ga, gb, starts = (
            v[keep] for v in (idx, x, a_end, b_end, ga, gb, starts))
    failed += [(i, a_end[j], b_end[j]) for j, i in enumerate(idx)]
    if failed:
        i, a_end, b_end = min(failed)
        raise DomainError(
            f"the tie of the outer maxima of H at p={p}, beta={float(betas[i])} is left "
            f"in [{float(a_end)!r}, {float(b_end)!r}], where they do not both exist: a "
            f"maximizer merges with a saddle")
    return out


def _band_values(p: int, betas, nodes, a):
    """(U, L) arrays over rows of betas above beta_hat, nan where absent.

    Odd p:  U = -H'(a1), L = -H'(a2) at zero field, both on (beta_hat, inf).
    Even p: U = -min(H'(-a2), H'(a1)), L = -H'(a2) only on (beta_hat,
    beta_prime].  H' at the inflection pair a1 < a2 is the last two node
    values at h=0, and both curves are absent up to beta_hat + 1e-12.
    """
    thr = thresholds(p)
    g = (a[:, -2:] + 0.0) - nodes[:, -2:]
    g1, g2 = g[:, 0], g[:, 1]
    live = betas > thr.beta_hat + 1e-12
    if p % 2 == 1:
        U, L = -g1, -g2
    else:  # -min(H'(-a2), H'(a1)); H' is odd at h=0
        U, L = np.maximum(-g1, g2), np.where(betas <= thr.beta_prime, -g2, np.nan)
    return np.where(live, U, np.nan), np.where(live, L, np.nan)


def _curve_values(p: int, betas, nodes, a):
    """(U, L, C) arrays over rows of betas above beta_hat, nan where absent.

    U and L from `_band_values`.  C is the tie of the outer maximizers
    (`_equal_height_fields`) inside [L, U], [0, U] where L is absent, and
    vanishes identically above beta_tilde for even p.
    """
    thr = thresholds(p)
    U, L = _band_values(p, betas, nodes, a)
    live = ~np.isnan(U)
    C = np.full(len(betas), np.nan)
    if p % 2 == 0:
        flat = live & (betas >= thr.beta_tilde)
        C[flat] = 0.0
        live &= ~flat
    rows = np.flatnonzero(live)
    C[rows] = _equal_height_fields(p, betas[rows], nodes[rows], a[rows],
                                   np.nan_to_num(L[rows], nan=0.0), U[rows])
    return U, L, C


def _curve_samples(p: int, betas, above, nodes, a):
    """A CurveSample at every beta, from the rows (nodes, a) of the betas
    above beta_hat (the mask `above`); all three curves are None for p < 3."""
    values = np.full((3, len(betas)), np.nan)
    if p >= 3 and above.any():
        values[:, above] = _curve_values(p, betas[above], nodes, a)
    U, L, C = ([None if v != v else v for v in row] for row in values.tolist())
    return [CurveSample(beta=b, U=u, L=l, C=c) for b, u, l, c in zip(betas.tolist(), U, L, C)]


def boundary_curves(p: int, beta: float, *, with_C: bool = True) -> CurveSample:
    """Sample the curves U, L, C at one beta; absent values are None.

    `curve_samples` of the one beta.  Pass with_C=False to skip C (the
    costly part) when only the coexistence band U/L matters: U and L are
    then read from the cached landscape (`_band`).  All three are None for
    p < 3, where the thresholds are not defined.
    """
    if p < 3:
        return CurveSample(beta=beta, U=None, L=None, C=None)
    if not with_C:
        U, L = _band(p, beta)
        return CurveSample(beta=beta, U=U, L=L, C=None)
    return curve_samples(p, [float(beta)])[0]


@lru_cache(maxsize=1024)
def _band(p: int, beta: float):
    """(U, L) at one beta, None where absent: `_band_values` of the cached
    landscape's node terms."""
    if not beta > _beta_hat(p):
        return None, None
    struct = landscape_structure(p, beta)
    U, L = _band_values(p, np.array([beta]), struct.nodes[None], struct._a[None])
    return tuple(None if v != v else v for v in (float(U[0]), float(L[0])))


def _region_of(points: list[StationaryPoint]) -> Region:
    """Region of a stationary-point list: two or more local maximizers are
    critical, a stationary inflection beside a lone maximizer is boundary,
    a lone maximizer with |H''| inside the curvature band is special, and
    any other pattern is regular."""
    maxima = local_maxima(points)
    if len(maxima) >= 2:
        return Region.LOCALLY_CRITICAL
    if any(s.kind is PointKind.INFLECTION for s in points):
        return Region.BOUNDARY
    if maxima[0].near_degenerate:
        return Region.SPECIAL
    return Region.LOCALLY_REGULAR


# cells per block of the (columns x fields x nodes) broadcast of G at the
# nodes: the block's values, masks and reductions then take about 1 MB at
# four nodes, and on the README grids (2-core Xeon VM) blocks from 2^13 to
# 2^17 cells ran within a few percent of each other
_CELL_BLOCK = 1 << 15


def _cell_codes(p: int, betas, above, nodes, a, hs, codes) -> None:
    """Region codes of every (beta, h) cell, those of `classify_point`,
    written to codes, shape (len(betas), len(hs)); nodes and a are the rows
    (`node_terms`) of the betas above beta_hat.

    G is positive below the nodes and negative above them.  A field whose
    node values all lie outside the near-tangency band has no tangency, no
    inflection and no degenerate maximizer, so its maximizers are the + to
    - sign changes from the lower end across the nodes to the upper end:
    two or more is critical, one is regular.  G at the nodes is broadcast
    over blocks of _CELL_BLOCK cells.  Every other cell (a node value in
    the band, or a column just below beta_hat whose H is nearly flat) is
    solved (`stationary_points`) and goes to `_region_of`.
    """
    codes[...] = REGION_CODES[Region.LOCALLY_REGULAR]

    def solve(i, j):
        struct = landscape_structure(p, float(betas[i]))
        codes[i, j] = REGION_CODES[_region_of(struct.stationary_points(float(hs[j])))]

    rows, n_h = np.flatnonzero(above), len(hs)
    step, width = max(1, _CELL_BLOCK // max(n_h, 1)), max(1, min(n_h, _CELL_BLOCK))
    for i in range(0, len(rows), step):
        for j in range(0, n_h, width):
            values = ((a[i:i + step, None, :] + hs[None, j:j + width, None])
                      - nodes[i:i + step, None, :])
            positive = values > 0
            # G falls from + to - across the nodes, so every - to + change
            # between two nodes adds a maximizer to the one that the ends make
            critical = (~positive[:, :, :-1] & positive[:, :, 1:]).any(axis=2)
            codes[rows[i:i + step], j:j + width] = np.where(
                critical, REGION_CODES[Region.LOCALLY_CRITICAL],
                REGION_CODES[Region.LOCALLY_REGULAR])
            near = (np.abs(values) <= 100.0 * CURVATURE_TOL).any(axis=2)
            for r, c in zip(*np.nonzero(near)):
                solve(rows[i + r], j + c)
    # near-flat columns: the maximum of G' = (1 - x^2) H''(x), at x = sqrt(1 -
    # 2/p), is beta/beta_hat - 1, and where H'' has no root H'' <= G'
    for i in np.flatnonzero(~above & (betas / _beta_hat(p) - 1.0 > -1e-6)):
        for j in range(n_h):
            solve(i, j)


def classify_point(p: int, beta: float, h: float, *,
                   with_margin: bool = False) -> PhaseReport:
    """Classify (beta, h) by the stationary structure of H.

    The stationary points are solved once and `_region_of` reads the
    verdict from them: two or more local maximizers are locally critical; a
    lone maximizer with an extra stationary inflection sits on the boundary
    curve; a lone maximizer with |H''| inside the curvature band is
    special; otherwise regular.
    """
    points = landscape_structure(p, beta).stationary_points(h)
    region = _region_of(points)

    detail = None
    margin = None
    if with_margin or region is Region.BOUNDARY:
        # U, L are None at or below beta_hat and for p < 3
        sample = boundary_curves(p, beta, with_C=False)
        href = abs(h) if p % 2 == 0 else h
        dists = {}
        if sample.U is not None:
            dists[BoundaryDetail.ON_U] = abs(href - sample.U)
        if sample.L is not None:
            dists[BoundaryDetail.ON_L] = abs(href - sample.L)
        if dists:
            nearest = min(dists, key=dists.get)
            margin = min(dists.values())
            if region is Region.BOUNDARY:
                detail = nearest
    if region is Region.LOCALLY_CRITICAL:
        maxima = local_maxima(points)
        heights = sorted((s.H for s in maxima), reverse=True)
        if len(heights) >= 2 and heights[0] - heights[1] <= HEIGHT_TOL:
            detail = BoundaryDetail.ON_C_GLOBALS
    return PhaseReport(region=region, stationary_points=points,
                       boundary_detail=detail,
                       margin=margin if with_margin else None)


# the default budget of a grid's cells, and of the betas `curves` samples
MAX_CELLS = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    p: int
    beta_min: float
    beta_max: float
    beta_step: float
    h_min: float
    h_max: float
    h_step: float
    max_cells: int = MAX_CELLS


@dataclass
class PhaseDiagramGrid:
    spec: GridSpec
    beta_axis: np.ndarray
    h_axis: np.ndarray
    cells: np.ndarray  # int8 region codes, shape (len(beta_axis), len(h_axis))
    curves: list[CurveSample]  # the betas where some curve is defined


class GridBudgetError(ValueError):
    pass


def _axis_len(lo: float, hi: float, step: float) -> int:
    if step <= 0 or hi < lo or not math.isfinite((hi - lo) / step):
        raise DomainError(f"bad axis range [{lo}, {hi}] step {step}")
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(_axis_len(lo, hi, step))


def curve_betas(beta_min: float, beta_max: float, beta_step: float) -> np.ndarray:
    """The betas at which `curves` samples U/L/C; GridBudgetError past
    MAX_CELLS, raised before the axis is allocated."""
    n_beta = _axis_len(beta_min, beta_max, beta_step)
    if n_beta > MAX_CELLS:
        raise GridBudgetError(
            f"curves needs {n_beta} betas, budget is {MAX_CELLS};"
            f" narrow the beta range or widen --beta-step")
    return _axis(beta_min, beta_max, beta_step)


def grid_axes(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The beta and h axes of a grid; GridBudgetError past spec.max_cells,
    raised before either axis is allocated."""
    n_beta = _axis_len(spec.beta_min, spec.beta_max, spec.beta_step)
    n_h = _axis_len(spec.h_min, spec.h_max, spec.h_step)
    n_cells = n_beta * n_h
    if n_cells > spec.max_cells:
        raise GridBudgetError(
            f"grid needs {n_cells} cells, budget is {spec.max_cells};"
            f" raise max_cells (--max-cells) to at least {n_cells}"
        )
    return (_axis(spec.beta_min, spec.beta_max, spec.beta_step),
            _axis(spec.h_min, spec.h_max, spec.h_step))


def _symmetric_axis(h_axis: np.ndarray) -> bool:
    """Whether h_axis[i] = -h_axis[-1-i] to 1e-12 times max(1, max |h|).

    It makes the float decision of np.allclose(h_axis, -h_axis[::-1],
    rtol=0, atol) on a finite axis, at under a third of its cost."""
    atol = 1e-12 * max(1.0, float(np.abs(h_axis).max()))
    return float(np.abs(h_axis + h_axis[::-1]).max()) <= atol


# betas per block of a scan or `curves` axis: the C solve holds about 20
# (betas x (2k+1)) float arrays at once, 0.84 kB per beta at p = 5, so a
# block's temporaries stay near 3.5 MB (tracemalloc, `curve_samples` of
# 16,384 betas from 0.9 beta_hat to 1.5: 3.5 MB at 2^12, 13.4 MB in one
# block).  There 2^12 ran in 1.17 and 0.82 times one block's time at p = 4
# and 5, 2^10 in 1.40 and 1.01 (minimum of 3, 2-core Xeon VM); the README
# and benchmark axes fit in one block
_BETA_BLOCK = 1 << 12


def _rows(p: int, betas: np.ndarray):
    """(above, nodes, a): the mask of the betas above beta_hat and their
    rows of `node_terms`, from one batched `curvature_roots` solve."""
    above = betas > _beta_hat(p)
    return (above, *node_terms(p, betas[above], curvature_roots(p, betas[above])))


def _row_blocks(p: int, betas: np.ndarray):
    """(betas, above, nodes, a) of each block of _BETA_BLOCK betas, in axis
    order (`_rows`)."""
    for i in range(0, len(betas), _BETA_BLOCK):
        block = betas[i:i + _BETA_BLOCK]
        yield (block, *_rows(p, block))


def curve_samples(p: int, betas) -> list[CurveSample]:
    """A CurveSample at every beta of an axis, as a diagram scan samples
    them (`_curve_samples`): one batched solve per curve and block of
    betas."""
    betas = np.asarray(betas, dtype=float)
    return [s for rows in _row_blocks(p, betas) for s in _curve_samples(p, *rows)]


def scan_block(p: int, betas, h_axis: np.ndarray):
    """A block of diagram columns: region codes, shape (len(betas),
    len(h_axis)), and a CurveSample per beta.

    Per block of _BETA_BLOCK betas, the roots of H'' come from one batched
    solve (`curvature_roots`), the cells from one blocked broadcast
    (`_cell_codes`) and U/L/C from `_curve_samples`, whose C solve steps
    every column of the block at once.  Every column's codes and sample are
    the same whichever block it is scanned in.  For even p on an h-axis
    symmetric about zero (h_axis[i] = -h_axis[-1-i] to 1e-12) only its
    second half is classified, and each cell of the first half takes the
    code of its mirror image (the diagram is exactly symmetric in h).
    """
    betas = np.asarray(betas, dtype=float)
    h_axis = np.asarray(h_axis, dtype=float)
    n = len(h_axis)
    mirror = p % 2 == 0 and n > 1 and _symmetric_axis(h_axis)
    hs = h_axis[n // 2:] if mirror else h_axis
    codes = np.empty((len(betas), n), dtype=np.int8)
    samples = []
    for i, rows in zip(range(0, len(betas), _BETA_BLOCK), _row_blocks(p, betas)):
        _cell_codes(p, *rows, hs, codes[i:i + len(rows[0]), n - len(hs):])
        samples += _curve_samples(p, *rows)
    if mirror:
        codes[:, :n // 2] = codes[:, ::-1][:, :n // 2]
    return codes, samples


def scan_column(p: int, beta: float, h_axis: np.ndarray):
    """One diagram column: region codes over h_axis plus the curve sample,
    `scan_block` of the one beta."""
    codes, (sample,) = scan_block(p, [float(beta)], h_axis)
    return codes[0], sample


def scan_grid(spec: GridSpec, *, columns=None) -> PhaseDiagramGrid:
    """Classify every grid cell and sample the boundary curves.

    Cells are classified independently by the same pattern logic as
    classify_point, the whole beta axis in one `scan_block`.  `columns` may
    carry precomputed (codes, sample) pairs (one per beta, in axis order),
    such as a worker pool's blocks give.
    """
    beta_axis, h_axis = grid_axes(spec)
    if columns is None:
        cells, samples = scan_block(spec.p, beta_axis, h_axis)
    else:
        cells = np.empty((len(beta_axis), len(h_axis)), dtype=np.int8)
        samples = []
        for ib, (codes, sample) in enumerate(columns):
            cells[ib] = codes
            samples.append(sample)
    curves = [s for s in samples if (s.U, s.L, s.C) != (None, None, None)]
    return PhaseDiagramGrid(spec=spec, beta_axis=beta_axis, h_axis=h_axis,
                            cells=cells, curves=curves)
