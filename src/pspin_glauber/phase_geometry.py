"""Phase geometry of the mixing transition in the (beta, h) plane.

Closed-form thresholds, the inflection pair of H'' at zero field, the
boundary curves U/L/C, classification of a parameter point by the number
and curvature of local maximizers of H, and full diagram grid scans.

Region semantics (p >= 3):

* locally regular -- unique local maximizer, strictly negative curvature,
  no other stationary point; fast mixing.
* locally critical -- more than one local maximizer; metastability.
* special -- unique local maximizer with vanishing second derivative
  (the single point (beta_hat, h_hat), mirrored in h for even p).
* boundary -- one local maximizer plus a stationary inflection point; the
  one-dimensional curve separating regular from critical.
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
    LandscapeStructure,
    PointKind,
    StationaryPoint,
    _beta_hat,
    _bisect,
    _height,
    _slopes,
    _solve_root,
    free_energy_d1,  # noqa: F401  (perfbench/layers.py counts calls through it)
    free_energy_d2,  # noqa: F401  (perfbench/layers.py counts calls through it)
    landscape_structure,
    local_maxima,
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
class InflectionPair:
    """The two positive roots a1 < a2 of H'' at zero field."""

    a1: float
    a2: float


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


def inflection_pair(p: int, beta: float) -> InflectionPair:
    """The two positive roots of H'' at zero field, bracketing sqrt(1-2/p).

    They are the positive `curvature_roots` of `landscape_structure(p, beta)`.
    Requires beta > beta_hat(p); below the threshold H'' has no positive
    root and the landscape is strictly concave.
    """
    bh = beta_hat(p)
    if not beta > bh + 1e-12:
        raise DomainError(
            f"no inflection pair: beta={beta} is not above beta_hat={bh}"
        )
    a1, a2 = landscape_structure(p, beta).curvature_roots[-2:]
    return InflectionPair(a1=a1, a2=a2)


def _height_gap(struct: LandscapeStructure, h: float):
    """(gap, slope) of H(top maximizer) - H(best other maximizer) at h.

    The top maximizer lies above the last root of H''.  Only the maximizers
    are solved, each inside its bracket from the node signs by `_solve_root`,
    as in `stationary_points`.  The slope d(gap)/dh is m_top - m_other by
    the envelope theorem (dH(m(h); h)/dh = m at a maximizer).  Where the
    pair does not exist the gap is only the side of C that h lies on,
    +-inf with a nan slope: above if only the top maximizer exists, below
    if the top maximizer does not.
    """
    p, beta = struct.p, struct.beta
    brackets = [(lo, hi) for kind, lo, hi in struct._pattern(*struct._nodes_for(h))
                if kind is PointKind.LOCAL_MAX]
    if brackets[-1][0] < struct.nodes[-1]:
        return -math.inf, math.nan
    if len(brackets) < 2:
        return math.inf, math.nan
    g, g1 = _slopes(p, beta, h)
    maxima = []
    for lo, hi in brackets:  # a tangency node (lo == hi) is the maximizer
        u = lo if lo == hi else _solve_root(g, g1, lo, hi, PointKind.LOCAL_MAX)
        maxima.append(_height(p, beta, h, u))
    m_top, h_top = maxima[-1]
    m_other, h_other = max(maxima[:-1], key=lambda mh: mh[1])
    return h_top - h_other, m_top - m_other


# |gap| at which the two heights tie to rounding (each is a sum of O(1)
# terms): the solve takes one last Newton step from there and stops
_GAP_FLOOR = 1e-15


def _equal_height_field(p: int, beta: float, lo: float, hi: float) -> float:
    """The field h at which the two relevant maximizers of H tie in height.

    The height gap rises with h (its slope m_top - m_other is positive), so
    the band [lo, hi] brackets the tie.  Safeguarded Newton on the gap, with
    its envelope slope, from the middle of the band and inside the
    shrinking sign bracket: a field where the pair is not resolved (its gap
    is only the side of the tie), a step that leaves the bracket or a slope
    that is not positive is replaced by bisection.  Returns at a resolved
    |gap| <= _GAP_FLOOR, after one last Newton step, or at a bracket of two
    adjacent floats whose ends both have resolved gaps; DomainError where
    the bracket closes on an end where the pair does not exist.
    """
    struct = landscape_structure(p, beta)
    a, ga, b, gb = lo, -math.inf, hi, math.inf  # the band's ends are sides only
    x = 0.5 * (lo + hi)
    for _ in range(200):
        g, slope = _height_gap(struct, x)
        newton = x - g / slope if slope > 0.0 else math.nan
        if abs(g) <= _GAP_FLOOR:
            return newton if a <= newton <= b else x
        if g < 0.0:
            a, ga = x, g
        else:
            b, gb = x, g
        x = newton if a < newton < b else 0.5 * (a + b)  # nan: bisect
        if not a < x < b:  # the bracket is two adjacent floats
            if math.isfinite(ga) and math.isfinite(gb):
                return a if -ga <= gb else b
            break
    raise DomainError(
        f"the tie of the outer maxima of H at p={p}, beta={beta} is left in "
        f"[{a!r}, {b!r}], where they do not both exist: a maximizer merges "
        f"with a saddle")


def boundary_curves(p: int, beta: float, *, with_C: bool = True) -> CurveSample:
    """Sample the curves U, L, C at one beta; absent values are None.

    Odd p:  U = -H'(a1), L = -H'(a2) at zero field, both on (beta_hat, inf).
    Even p: U = -min(H'(-a2), H'(a1)), L = -H'(a2) only on (beta_hat,
    beta_prime]; C vanishes identically above beta_tilde.
    U and L are cached per (p, beta).  C is located by a Newton solve of the
    equal-height condition between the outer maximizers; pass with_C=False
    to skip that (the costly part) when only the coexistence band U/L matters.
    All three are None for p < 3, where the thresholds are not defined.
    """
    if p < 3:
        return CurveSample(beta=beta, U=None, L=None, C=None)
    U, L = _band(p, beta)
    if U is None or not with_C:
        C = None
    elif p % 2 == 1:
        C = _equal_height_field(p, beta, L, U)
    elif beta >= thresholds(p).beta_tilde:
        C = 0.0
    else:
        C = _equal_height_field(p, beta, L if L is not None else 0.0, U)
    return CurveSample(beta=beta, U=U, L=L, C=C)


@lru_cache(maxsize=1024)
def _band(p: int, beta: float):
    """(U, L) at one beta, (None, None) at or below beta_hat.  H' at the
    inflection pair a1 < a2 is the landscape's last two node values at h=0."""
    thr = thresholds(p)
    if beta <= thr.beta_hat + 1e-12:
        return None, None
    g1, g2 = landscape_structure(p, beta).node_values(np.zeros(1))[0, -2:].tolist()
    if p % 2 == 1:
        return -g1, -g2
    U = max(-g1, g2)  # -min(H'(-a2), H'(a1)); H' is odd at h=0
    return U, (-g2 if beta <= thr.beta_prime else None)


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


def _region_codes(struct: LandscapeStructure, hs: np.ndarray) -> np.ndarray:
    """Region codes for every field in hs, those of `classify_point`.

    One broadcast gives G at every node for every h; G is positive below
    the nodes and negative above them.  A field whose node values all lie
    outside the near-tangency band has no tangency, no inflection and no
    degenerate maximizer, so its maximizers are the + to - sign changes
    from the lower end across the nodes to the upper end: two or more is
    critical, one is regular.  Every other field is solved
    (`stationary_points`) and goes to `_region_of`.
    """
    values = struct.node_values(hs)
    plain = ~(np.abs(values) <= 100.0 * CURVATURE_TOL).any(axis=1)
    if values.shape[1] == 0 and struct.d2_bound > -1e-6:  # near_flat
        plain[:] = False
    positive = values > 0
    # G falls from + to - across the nodes, so every - to + change between
    # two nodes adds a maximizer to the one that the ends make
    n_max = 1 + (~positive[:, :-1] & positive[:, 1:]).sum(axis=1)
    codes = np.where(n_max >= 2, REGION_CODES[Region.LOCALLY_CRITICAL],
                     REGION_CODES[Region.LOCALLY_REGULAR]).astype(np.int8)
    for i in np.flatnonzero(~plain):
        codes[i] = REGION_CODES[_region_of(struct.stationary_points(float(hs[i])))]
    return codes


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


def scan_column(p: int, beta: float, h_axis: np.ndarray):
    """One diagram column: region codes over h_axis plus the curve sample.

    For even p on an h-axis symmetric about zero (h_axis[i] = -h_axis[-1-i]
    to 1e-12) only its second half is classified, and each cell of the first
    half takes the code of its mirror image (the diagram is exactly
    symmetric in h).
    """
    h_axis = np.asarray(h_axis, dtype=float)
    struct = landscape_structure(p, float(beta))
    n = len(h_axis)
    mirror = (
        p % 2 == 0
        and n > 1
        and np.allclose(h_axis, -h_axis[::-1], rtol=0.0,
                        atol=1e-12 * max(1.0, float(np.abs(h_axis).max())))
    )
    if mirror:
        codes = np.empty(n, dtype=np.int8)
        codes[n // 2:] = _region_codes(struct, h_axis[n // 2:])
        codes[:n // 2] = codes[::-1][:n // 2]
    else:
        codes = _region_codes(struct, h_axis)
    sample = boundary_curves(p, float(beta))
    return codes, sample


def scan_grid(spec: GridSpec, *, columns=None) -> PhaseDiagramGrid:
    """Classify every grid cell and sample the boundary curves.

    Cells are classified independently by the same pattern logic as
    classify_point.  `columns` may carry precomputed scan_column results
    (one per beta, in axis order) from a worker pool.
    """
    beta_axis, h_axis = grid_axes(spec)
    cells = np.empty((len(beta_axis), len(h_axis)), dtype=np.int8)
    curves = []
    if columns is None:
        columns = (scan_column(spec.p, float(b), h_axis) for b in beta_axis)

    for ib, (codes, sample) in enumerate(columns):
        cells[ib] = codes
        if (sample.U, sample.L, sample.C) != (None, None, None):
            curves.append(sample)

    return PhaseDiagramGrid(spec=spec, beta_axis=beta_axis, h_axis=h_axis,
                            cells=cells, curves=curves)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def curves_csv(samples: list[CurveSample]) -> str:
    """CSV `beta,U,L,C`; empty fields where a curve is undefined."""
    lines = ["beta,U,L,C"]
    for s in samples:
        cols = [_fmt(s.beta)] + ["" if v is None else _fmt(v) for v in (s.U, s.L, s.C)]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def grid_csv(grid: PhaseDiagramGrid) -> str:
    """CSV `beta,h,region_code`, ordered by beta then h."""
    lines = ["beta,h,region_code"]
    hs = [_fmt(h) for h in grid.h_axis]
    for beta, row in zip(grid.beta_axis, grid.cells.tolist()):
        b = _fmt(beta)
        lines.extend(f"{b},{h},{code}" for h, code in zip(hs, row))
    return "\n".join(lines) + "\n"
