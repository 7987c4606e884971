"""Rigorous lower bounds for the clipped-cone volume over an interval of center distances.

Fix a Margulis parameter eps and a ball radius R with 2*eps < R < 5*eps/2.
On the interval I = [R/2 - eps/4, eps] the composite

    Phi(D) = phi(R - D, eps/2, D)

is the volume guaranteed inside a radius-R ball for each neighboring Voronoi
cell.  This module bounds Phi from below on subintervals [D-, D+] of I using
endpoint substitutions only: every bound below is a finite formula in the
endpoint values, chosen so that monotonicity of cosh/sinh/cap_volume makes it
valid at every interior point.  A partition of I into "good" subintervals
whose bounds all exceed a target c is a machine-checkable certificate that
Phi > c on I.

One cell core evaluates a cell, and it is the only place the cell formulas
are written: phi_lower checks the cell once, computes cosh and sinh of
r = eps/2, d_lo, d_hi, R - d_lo and R - d_hi once each (and the tangent cone
omega, theta at the two endpoints from them), and applies each formula once:
the H bounds, the three goodness margins, and the sigma and psi enclosures.
h_bounds, goodness_margins, sigma_bounds and psi_bounds return fields of
phi_lower's cell; sigma_bounds and psi_bounds need a good cell.  Every
decision subtracts a slack that must be finite and positive.

The module also ships the fixed 47-cell reference partition establishing
c = 0.496 at eps = log 3, R = 2 log 3 + 0.15, an adaptive certifier for
arbitrary targets, and a radius optimizer that minimizes the resulting
valence bound floor((B(R) - b(eps/2)) / c).

A certificate is one description of its cells: the reference partition and
the JSON loader both hand breakpoints to _tile, which evaluates every cell
with phi_lower.  The loader reads only epsilon, R, slack and the breakpoints
from a file; every other stored field must equal what phi_lower gives.

There is one partition search, a best-first branch and bound: it keeps the
current tiling of I in a heap, always splits the weakest cell, and evaluates
each cell once.  certify_lower_bound runs it to a fixed target and
largest_certifiable_c to within c_tol of U - slack, with U the least Phi it
has sampled.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .density import DEFAULT_QUADRATURE, QuadratureConfig, b_ratio
from .hypgeo import (
    DomainError,
    _asin_clamped,
    _ball,
    _cap,
    _check_finite,
    _check_positive,
    _check_radius,
    acosh_clamped,
    ball_volume,
)

__all__ = [
    "CertificationError",
    "CertifyParams",
    "SubintervalCertificate",
    "PartitionCertificate",
    "CertificationResult",
    "RadiusGridEntry",
    "RadiusScan",
    "DEFAULT_SLACK",
    "DEFAULT_MAX_DEPTH",
    "REFERENCE_EPSILON",
    "REFERENCE_RADIUS",
    "REFERENCE_TARGET_C",
    "reference_params",
    "reference_breakpoints",
    "h_bounds",
    "goodness_margins",
    "sigma_bounds",
    "psi_bounds",
    "phi_lower",
    "verify_reference_partition",
    "certify_lower_bound",
    "largest_certifiable_c",
    "radius_grid",
    "optimize_radius",
    "certificate_to_json",
    "certificate_from_json",
    "certificate_to_csv",
    "CSV_HEADER",
]

# All goodness and target comparisons subtract this slack so that a
# certificate never leans on the last few bits of binary64 arithmetic.
DEFAULT_SLACK = 1e-9
DEFAULT_MAX_DEPTH = 40

REFERENCE_EPSILON = math.log(3.0)
REFERENCE_RADIUS = 2.0 * math.log(3.0) + 0.15
REFERENCE_TARGET_C = 0.496

# Gaps eps - D_i of the 47-cell reference partition, kept as decimal strings
# so the published breakpoints are reproduced bit-exactly.
_REFERENCE_DELTAS = (
    "0.17", "0.14", "0.12", "0.10", "0.09", "0.08", "0.07", "0.06", "0.05",
    "0.045", "0.040", "0.035", "0.030", "0.025", "0.022", "0.020", "0.018",
    "0.016", "0.014", "0.012", "0.010", "0.0084", "0.007", "0.006", "0.005",
    "0.0042", "0.0035", "0.0030", "0.0025", "0.0022", "0.0019", "0.0016",
    "0.0013", "0.0011", "0.0009", "0.00075", "0.0006", "0.0005", "0.0004",
    "0.0003", "0.00025", "0.00020", "0.00015", "0.00010", "0.00005", "0.00002",
)


class CertificationError(RuntimeError):
    """A certificate could not be produced or failed validation."""


@dataclass(frozen=True)
class CertifyParams:
    """Margulis parameter eps and valence-ball radius R, with 2 eps < R < 5 eps / 2.

    R <= hypgeo.MAX_RADIUS bounds the radii R - D, eps/2 and omega (all < R)
    that phi_lower hands to the unchecked volume kernels.
    """

    epsilon: float
    R: float

    def __post_init__(self) -> None:
        _check_positive(epsilon=self.epsilon)
        _check_radius(R=self.R)
        if not 2.0 * self.epsilon < self.R < 2.5 * self.epsilon:
            raise DomainError(
                f"radius must satisfy 2*eps < R < 5*eps/2, got eps={self.epsilon}, R={self.R}"
            )

    @property
    def half_eps(self) -> float:
        return 0.5 * self.epsilon

    @property
    def d_min(self) -> float:
        return 0.5 * self.R - 0.25 * self.epsilon

    @property
    def d_max(self) -> float:
        return self.epsilon

    @property
    def interval(self) -> tuple[float, float]:
        """The certified interval I of center distances."""
        return (self.d_min, self.d_max)


class SubintervalCertificate(NamedTuple):
    """Endpoint bounds for one cell [d_lo, d_hi] of the partition.

    margins holds the three goodness quantities (H- + 1,
    sinh^2(R - d_hi) - H+, sinh w(d_lo) - sinh w(d_hi) sin t(d_hi)); the cell
    is good when all exceed the decision slack.  On good cells phi_lo is a
    valid pointwise lower bound for Phi; on non-good cells the dependent
    bound fields are None.
    """

    d_lo: float
    d_hi: float
    h_lo: float
    h_hi: float
    margins: tuple[float, float, float]
    good: bool
    sigma_lo: Optional[float] = None
    sigma_hi: Optional[float] = None
    psi_lo: Optional[float] = None
    psi_hi: Optional[float] = None
    wlens_lo: Optional[float] = None
    wcone_lo: Optional[float] = None
    phi_lo: Optional[float] = None


@dataclass(frozen=True)
class PartitionCertificate:
    """An ordered tiling of I by good cells, certifying Phi > certified_c on I."""

    params: CertifyParams
    slack: float
    cells: tuple[SubintervalCertificate, ...]
    certified_c: float

    @property
    def cell_count(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of an adaptive certification run.

    On success, certificate holds the tiling; on failure, witness is the
    offending cell (with its margins) and message says why it could not be
    refined further.
    """

    success: bool
    certificate: Optional[PartitionCertificate]
    witness: Optional[SubintervalCertificate]
    message: str = ""


def _check_cell(params: CertifyParams, d_lo: float, d_hi: float) -> None:
    if not params.d_min <= d_lo < d_hi <= params.epsilon:
        raise DomainError(f"cell [{d_lo}, {d_hi}] must satisfy d_lo < d_hi and lie in "
                          f"the certified interval [{params.d_min}, {params.epsilon}]")


def h_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> tuple[float, float]:
    """Enclosure of H(D) = eta(R - D, eps/2, D) on [d_lo, d_hi]: phi_lower's h_lo and h_hi.

    Both bounds substitute endpoints so that every numerator term moves in
    the pessimal direction; together with H >= 0 on I this sandwiches H(D).
    """
    cell = phi_lower(params, d_lo, d_hi)
    return cell.h_lo, cell.h_hi


def goodness_margins(params: CertifyParams, d_lo: float, d_hi: float) -> tuple[float, float, float]:
    """The three positivity margins that make the endpoint bounds valid on a cell."""
    return phi_lower(params, d_lo, d_hi).margins


def _good_cell(params: CertifyParams, d_lo: float, d_hi: float, what: str) -> SubintervalCertificate:
    cell = phi_lower(params, d_lo, d_hi)
    if not cell.good:
        raise DomainError(f"cell [{d_lo}, {d_hi}] is not good (margins={cell.margins}); "
                          f"{what} bounds undefined")
    return cell


def sigma_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> tuple[float, float]:
    """Enclosure of Sigma(D) = sigma(R - D, eps/2, D): a good cell's sigma_lo and sigma_hi.

    Raises DomainError when the cell is not good.
    """
    cell = _good_cell(params, d_lo, d_hi, "sigma")
    return cell.sigma_lo, cell.sigma_hi


def psi_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> tuple[float, float]:
    """Enclosure of Psi(D) = psi(omega(eps/2, D), theta(eps/2, D)): a good cell's psi_lo and psi_hi.

    Raises DomainError when the cell is not good.
    """
    cell = _good_cell(params, d_lo, d_hi, "psi")
    return cell.psi_lo, cell.psi_hi


def phi_lower(
    params: CertifyParams,
    d_lo: float,
    d_hi: float,
    slack: float = DEFAULT_SLACK,
) -> SubintervalCertificate:
    """Evaluate one cell: margins, goodness, and (when good) all lower bounds.

    It checks the cell once.  Its body _cell is the cell core and the only
    place the cell formulas are written: it computes each endpoint value once
    and applies each formula once, the volumes through hypgeo's unchecked
    kernels _cap and _ball.  It never raises on a non-good cell; the
    certificate records good=False with the margins so callers can decide to
    split.  slack must be finite and positive, so on a good cell every margin
    is > 0, as the sigma and psi enclosures need.
    """
    if not 0.0 < slack < math.inf:
        raise DomainError(f"slack must be finite and positive, got {slack!r}")
    _check_cell(params, d_lo, d_hi)
    return _cell(params, d_lo, d_hi, slack)


def _cell(params: CertifyParams, d_lo: float, d_hi: float, slack: float) -> SubintervalCertificate:
    """phi_lower unchecked, also on the point cell [m, m], where a good cell's phi_lo is Phi(m)."""
    # With r = eps/2, cosh(R - d_lo) is the largest cosh(R - D) on the cell
    # and cosh(R - d_hi) the smallest.  omega and theta, the tangent cone's
    # generator and half-angle, are formed from the shared values rather than
    # through hypgeo.omega/theta, whose r < d checks hold here: CertifyParams
    # and the cell check give d >= R/2 - eps/4 > 3 eps/4 > eps/2 = r.
    r = params.half_eps
    R = params.R
    c_r, s_r = math.cosh(r), math.sinh(r)
    c_lo, c_hi = math.cosh(d_lo), math.cosh(d_hi)
    s_lo, s_hi = math.sinh(d_lo), math.sinh(d_hi)
    c_rlo, c_rhi = math.cosh(R - d_lo), math.cosh(R - d_hi)
    s_rhi = math.sinh(R - d_hi)
    om_lo, om_hi = acosh_clamped(c_lo / c_r), acosh_clamped(c_hi / c_r)
    th_lo, th_hi = _asin_clamped(s_r / s_lo), _asin_clamped(s_r / s_hi)
    sh_om_lo = math.sinh(om_lo)
    # sinh omega sin theta, the smallest on the cell at d_lo and the largest at d_hi
    g_lo, g_hi = sh_om_lo * math.sin(th_lo), math.sinh(om_hi) * math.sin(th_hi)
    num_lo = 2.0 * c_rhi * c_r * c_lo - (c_rlo * c_rlo + c_r * c_r + c_hi * c_hi) + 1.0
    num_hi = 2.0 * c_rlo * c_r * c_hi - (c_rhi * c_rhi + c_r * c_r + c_lo * c_lo) + 1.0
    h_lo, h_hi = num_lo / (s_hi * s_hi), num_hi / (s_lo * s_lo)
    margins = (h_lo + 1.0, s_rhi * s_rhi - h_hi, sh_om_lo - g_hi)
    if not (margins[0] > slack and margins[1] > slack and margins[2] > slack):
        return SubintervalCertificate(d_lo, d_hi, h_lo, h_hi, margins, False)
    sg_lo = acosh_clamped(c_rhi / math.sqrt(1.0 + h_hi))  # needs margins 1 and 2 > 0
    sg_hi = acosh_clamped(c_rlo / math.sqrt(1.0 + h_lo))
    p_lo = acosh_clamped(math.cosh(om_lo) / math.sqrt(1.0 + g_hi * g_hi))  # needs margin 3 > 0
    p_hi = acosh_clamped(math.cosh(om_hi) / math.sqrt(1.0 + g_lo * g_lo))
    wl = _cap(R - d_hi, sg_hi) + _cap(r, d_hi - sg_lo)
    wc = _ball(om_lo) / 2.0 * (1.0 - math.cos(th_lo)) - _cap(om_hi, p_lo)
    ph = wl + wc - _cap(r, d_lo - p_hi)
    return SubintervalCertificate(
        d_lo, d_hi, h_lo, h_hi, margins, True,
        sigma_lo=sg_lo, sigma_hi=sg_hi, psi_lo=p_lo, psi_hi=p_hi,
        wlens_lo=wl, wcone_lo=wc, phi_lo=ph,
    )


def _assemble(
    params: CertifyParams,
    cells: tuple[SubintervalCertificate, ...],
    slack: float,
) -> PartitionCertificate:
    """The certificate of cells that tile I in order; each must be good."""
    for i, cell in enumerate(cells):
        if not cell.good:
            raise CertificationError(
                f"cell {i} [{cell.d_lo}, {cell.d_hi}] is not good; margins={cell.margins}"
            )
    certified_c = min(c.phi_lo for c in cells)  # type: ignore[type-var]
    return PartitionCertificate(params=params, slack=slack, cells=cells, certified_c=certified_c)


def _tile(params: CertifyParams, breakpoints: Sequence[float], slack: float) -> PartitionCertificate:
    """The certificate whose cells phi_lower evaluates between consecutive breakpoints.

    The breakpoints must run from d_min to eps, or CertificationError is
    raised; phi_lower raises DomainError if they do not rise strictly.
    """
    lo, hi = params.interval
    if breakpoints[0] != lo or breakpoints[-1] != hi:
        raise CertificationError(
            f"breakpoints [{breakpoints[0]}, ..., {breakpoints[-1]}] do not span "
            f"the certified interval [{lo}, {hi}] exactly"
        )
    cells = tuple(phi_lower(params, a, b, slack) for a, b in zip(breakpoints, breakpoints[1:]))
    return _assemble(params, cells, slack)


def reference_params() -> CertifyParams:
    return CertifyParams(REFERENCE_EPSILON, REFERENCE_RADIUS)


def reference_breakpoints() -> list[float]:
    """The 48 breakpoints D_0 < ... < D_47 of the reference partition."""
    params = reference_params()
    eps = params.epsilon
    return [params.d_min] + [eps - float(d) for d in _REFERENCE_DELTAS] + [eps]


def verify_reference_partition(slack: float = DEFAULT_SLACK) -> PartitionCertificate:
    """Check the fixed 47-cell partition certifying Phi > 0.496 at the reference parameters.

    Raises CertificationError if any cell fails its goodness margins or if the
    certified constant does not exceed 0.496.
    """
    _check_positive(slack=slack)
    cert = _tile(reference_params(), reference_breakpoints(), slack)
    if not cert.certified_c - slack > REFERENCE_TARGET_C:
        raise CertificationError(
            f"reference partition certifies only {cert.certified_c}, not > {REFERENCE_TARGET_C}"
        )
    return cert


def _search(
    params: CertifyParams,
    target_c: float,
    max_depth: int,
    slack: float,
    c_tol: Optional[float] = None,
) -> tuple[list, str, float]:
    """The one partition search: split the weakest cell of I until it meets the target.

    The tiling of I is a heap of (phi_lo, d_lo, depth, cell), phi_lo -inf for
    a non-good cell, so the weakest cell (ties to the smaller d_lo) is on
    top.  The loop ends when it meets the target, phi_lo - slack > target,
    for then every cell does.  It also ends when the weakest cell is at
    max_depth or its midpoint rounds to an end; the message says which.
    Otherwise the weakest cell is bisected and phi_lower evaluates each half
    once.  U is the least Phi sampled by _phi_point: at D = eps and, with
    c_tol, at the midpoint of every split.

    Without c_tol the target is target_c.  When Phi(eps) - slack does not
    exceed it, no tiling can meet it, and the cells that end at eps count as
    weakest: the search dives there and fails in ~2 max_depth evaluations.
    With c_tol, target_c is the cap and the target is min(U - slack, cap) - c_tol.

    Returns the heap, the message ("" when the target was met) and U.
    """
    lo, hi = params.interval
    upper = _phi_point(params, hi, slack)
    cap = target_c
    if c_tol is not None:
        target_c = min(upper - slack, cap) - c_tol
    hopeless = c_tol is None and upper - slack <= target_c

    def entry(cell: SubintervalCertificate, depth: int) -> tuple:
        weak = not cell.good or hopeless and cell.d_hi == hi
        return -math.inf if weak else cell.phi_lo, cell.d_lo, depth, cell

    heap = [entry(phi_lower(params, lo, hi, slack), 0)]
    while True:
        strength, d_lo, depth, cell = heap[0]
        if strength - slack > target_c:
            return heap, "", upper
        d_hi = cell.d_hi
        if depth >= max_depth:
            return heap, (f"max depth {max_depth} exhausted on cell [{d_lo}, {d_hi}] "
                          f"(margins={cell.margins}, phi_lo={cell.phi_lo})"), upper
        mid = 0.5 * (d_lo + d_hi)
        if not d_lo < mid < d_hi:
            return heap, (f"cell [{d_lo}, {d_hi}] reached floating-point resolution "
                          "without certifying"), upper
        heapq.heapreplace(heap, entry(phi_lower(params, d_lo, mid, slack), depth + 1))
        heapq.heappush(heap, entry(phi_lower(params, mid, d_hi, slack), depth + 1))
        if c_tol is not None:
            upper = min(upper, _phi_point(params, mid, slack))
            target_c = min(upper - slack, cap) - c_tol


def _phi_point(params: CertifyParams, d: float, slack: float) -> float:
    """Phi(d), by the cell core on the point cell [d, d]; inf where that cell is not good."""
    point = _cell(params, d, d, slack)
    return point.phi_lo if point.good else math.inf  # type: ignore[return-value]


def _leaves(params: CertifyParams, heap: list, slack: float) -> PartitionCertificate:
    return _assemble(params, tuple(entry[3] for entry in sorted(heap, key=lambda e: e[1])), slack)


def _check_max_depth(max_depth: int) -> None:
    if max_depth < 1:
        raise DomainError(f"max_depth must be >= 1, got {max_depth}")


def certify_lower_bound(
    params: CertifyParams,
    target_c: float,
    max_depth: int = DEFAULT_MAX_DEPTH,
    slack: float = DEFAULT_SLACK,
) -> CertificationResult:
    """Adaptively partition I until every cell is good with phi_lo - slack > target_c.

    The weakest cell (least phi_lo, a non-good cell weakest of all) is split
    until it meets the target.  A cell is split exactly when it misses the
    target, so the certificate does not depend on the order.  The run fails
    when the weakest cell is at max_depth or floating-point resolution, and
    returns it as witness: a cell near where Phi is least.
    """
    _check_finite(target_c=target_c)
    _check_positive(slack=slack)
    _check_max_depth(max_depth)
    heap, message, _ = _search(params, target_c, max_depth, slack)
    if message:
        return CertificationResult(False, None, heap[0][3], message)
    return CertificationResult(True, _leaves(params, heap, slack), None, "")


class _Found(tuple):
    """largest_certifiable_c's (c, certificate) pair, with the gap min(U - slack, cap) - c as .gap."""

    gap: float

    def __new__(cls, c: float, certificate: PartitionCertificate, gap: float) -> "_Found":
        found = super().__new__(cls, (c, certificate))
        found.gap = gap
        return found


def largest_certifiable_c(
    params: CertifyParams,
    *,
    c_tol: float = 1e-5,
    max_depth: int = DEFAULT_MAX_DEPTH,
    slack: float = DEFAULT_SLACK,
) -> _Found:
    """The largest c, to within c_tol of the best this cell core can certify.

    c is capped at B(eps/2) - 10 slack, since the valence arithmetic needs
    B(eps/2) > c.  Any certified c is below phi_lo - slack <= Phi - slack on
    every cell, so below min(U - slack, cap).  The search stops when the
    weakest phi_lo - slack exceeds min(U - slack, cap) - c_tol, or, with no
    failure, when that cell reaches max_depth or floating-point resolution.
    c is then the cap or the float below the weakest phi_lo - slack, so that
    certify_lower_bound(params, c) succeeds.  The pair returned carries
    gap = min(U - slack, cap) - c, at most c_tol unless the search stopped early.
    c_tol must be positive and finite.  CertificationError is raised unless
    c > 0: when the cap is not, when the weakest cell is not good, or when
    c_tol is so large that the first good tiling gives c <= 0.
    """
    _check_positive(c_tol=c_tol, slack=slack)
    _check_max_depth(max_depth)
    where = f"at eps={params.epsilon}, R={params.R}"
    cap = ball_volume(params.half_eps) - 10.0 * slack
    if not cap > 0.0:
        raise CertificationError(f"no positive lower bound certifiable {where}: the cap "
                                 f"B(eps/2) - 10 slack = {cap!r} is not positive")
    heap, message, upper = _search(params, cap, max_depth, slack, c_tol)
    weakest = heap[0][0] - slack
    c = cap if weakest > cap else math.nextafter(weakest, -math.inf)
    best = min(upper - slack, cap)
    if not c > 0.0:
        raise CertificationError(f"no positive lower bound certifiable {where}: " + (
            message or f"c = {c!r}, c_tol={c_tol!r} below min(U - slack, cap) = {best!r}"))
    return _Found(c, _leaves(params, heap, slack), best - c)


@dataclass(frozen=True)
class RadiusGridEntry:
    R: float
    certified_c: float
    valence_bound: int
    gap: float


@dataclass(frozen=True)
class RadiusScan:
    epsilon: float
    b_half_eps: float
    entries: tuple[RadiusGridEntry, ...]
    skipped: tuple[tuple[float, str], ...]
    best: RadiusGridEntry


def radius_grid(epsilon: float, count: int) -> list[float]:
    """count radii evenly spaced strictly inside (2 eps, 5 eps / 2)."""
    _check_positive(epsilon=epsilon)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    step = 0.5 * epsilon / (count + 1)
    return [2.0 * epsilon + k * step for k in range(1, count + 1)]


def _valence(R: float, c: float, b_half: float, slack: float) -> tuple[float, int]:
    """(B(R) - b(eps/2)) / c and its floor, the valence bound; CertificationError when the
    quotient is within 10 slack of an integer (condition (c)), where the floor could be off."""
    quotient = (ball_volume(R) - b_half) / c
    if abs(quotient - round(quotient)) <= 10.0 * slack:
        raise CertificationError(
            f"condition (c) violated: quotient {quotient!r} is too close to an integer"
        )
    return quotient, math.floor(quotient)


def optimize_radius(
    epsilon: float,
    grid: Sequence[float],
    *,
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    c_tol: float = 1e-5,
    max_depth: int = DEFAULT_MAX_DEPTH,
    slack: float = DEFAULT_SLACK,
) -> RadiusScan:
    """Scan radii, certify the largest c at each, and pick the minimal valence bound.

    The valence bound at radius R is floor((B(R) - b(eps/2)) / c) with c the
    largest certified constant there.  Grid points where certification fails,
    or where the quotient is within 10 slack of an integer (condition (c)),
    are skipped, and each is recorded in skipped with its reason; when every
    one fails, the CertificationError names each.  Ties break toward smaller R.
    """
    _check_positive(epsilon=epsilon, slack=slack)
    if not grid:
        raise DomainError("radius grid is empty")
    b_half = b_ratio(0.5 * epsilon, quad_cfg)
    entries: list[RadiusGridEntry] = []
    skipped: list[tuple[float, str]] = []
    for R in grid:
        params = CertifyParams(epsilon, R)  # validates the (2 eps, 5 eps / 2) window
        try:
            found = largest_certifiable_c(params, c_tol=c_tol, max_depth=max_depth, slack=slack)
            _, valence = _valence(R, found[0], b_half, slack)
        except CertificationError as exc:
            skipped.append((R, str(exc)))
            continue
        entries.append(RadiusGridEntry(R=R, certified_c=found[0], valence_bound=valence, gap=found.gap))
    if not entries:
        raise CertificationError("certification failed at every grid point: "
                                 + "; ".join(f"R={R}: {reason}" for R, reason in skipped))
    best = min(entries, key=lambda e: (e.valence_bound, e.R))
    return RadiusScan(
        epsilon=epsilon,
        b_half_eps=b_half,
        entries=tuple(entries),
        skipped=tuple(skipped),
        best=best,
    )


# --- serialization -----------------------------------------------------------

# The cell schema, in CSV column order: (JSON key, SubintervalCertificate
# attribute).  margins is one JSON array of three numbers, and three CSV columns.
_CELL_FIELDS = (
    ("dLo", "d_lo"), ("dHi", "d_hi"), ("hLo", "h_lo"), ("hHi", "h_hi"),
    ("sigmaLo", "sigma_lo"), ("sigmaHi", "sigma_hi"), ("psiLo", "psi_lo"), ("psiHi", "psi_hi"),
    ("wlensLo", "wlens_lo"), ("wconeLo", "wcone_lo"), ("phiLo", "phi_lo"),
    ("good", "good"), ("margins", "margins"),
)

CSV_HEADER = ",".join(key for key, _ in _CELL_FIELDS[:-1]) + ",margin1,margin2,margin3"


def _fmt(x: Optional[float]) -> str:
    """17 significant digits, so the CSV and human outputs parse back to the exact binary64 values."""
    return "null" if x is None else format(x, ".17g")


def _certificate_obj(cert: PartitionCertificate) -> dict:
    cells = [{key: getattr(c, attr) for key, attr in _CELL_FIELDS} for c in cert.cells]
    return {"epsilon": cert.params.epsilon, "R": cert.params.R, "slack": cert.slack,
            "cells": cells, "certifiedC": cert.certified_c, "cellCount": cert.cell_count}


def certificate_to_json(cert: PartitionCertificate) -> str:
    return json.dumps(_certificate_obj(cert), allow_nan=False) + "\n"


def _real(where: str, obj: object, key: str) -> float:
    """obj[key], a JSON real: certificate_to_json writes every real with a point or an exponent."""
    if type(obj) is not dict:
        raise CertificationError(f"{where} is not a JSON object")
    value = obj.get(key)
    if type(value) is not float:
        raise CertificationError(f"{where}: {key!r} is missing or not a JSON real: {value!r}")
    return value


def _same(stored: object, value: object) -> bool:
    """stored, a parsed JSON value, is value with the same JSON type: 1 matches neither 1.0 nor true."""
    if type(value) is tuple:
        return type(stored) is list and len(stored) == len(value) and all(map(_same, stored, value))
    return type(stored) is type(value) and stored == value


_MISSING = object()


def certificate_from_json(text: str) -> PartitionCertificate:
    """Load a certificate by re-deriving it with phi_lower.

    Only epsilon, R, slack and the breakpoints (each cell's dLo and the last
    dHi) are read; the cells between the breakpoints are evaluated again.
    Every other stored field, certifiedC and cellCount must equal the
    re-derived value with the same JSON type, or CertificationError names the
    first cell and key that differ.  The stored numbers are compared, never
    used, so a loaded certificate is exactly what the cell core computes.
    """
    try:
        top = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past the int-to-str digit limit
        raise CertificationError(f"certificate is not readable JSON: {exc}") from exc
    epsilon, R, slack = (_real("certificate", top, key) for key in ("epsilon", "R", "slack"))
    params = CertifyParams(epsilon, R)
    _check_positive(slack=slack)
    cells = top.get("cells")
    if type(cells) is not list or not cells:
        raise CertificationError(f"certificate: 'cells' is not a non-empty JSON array: {cells!r}")
    breakpoints = [_real(f"certificate cells[{i}]", c, "dLo") for i, c in enumerate(cells)]
    breakpoints.append(_real(f"certificate cells[{len(cells) - 1}]", cells[-1], "dHi"))
    try:
        cert = _tile(params, breakpoints, slack)
    except DomainError as exc:
        raise CertificationError(f"certificate breakpoints do not tile the interval: {exc}") from exc
    for i, (obj, cell) in enumerate(zip(cells, cert.cells)):
        for key, attr in _CELL_FIELDS:
            value = getattr(cell, attr)
            if not _same(obj.get(key, _MISSING), value):
                raise CertificationError(f"certificate cells[{i}]: {key!r} is {obj.get(key, 'missing')!r}, "
                                         f"but phi_lower gives {value!r}")
    for key, value in (("certifiedC", cert.certified_c), ("cellCount", cert.cell_count)):
        if not _same(top.get(key, _MISSING), value):
            raise CertificationError(f"certificate: {key!r} is {top.get(key, 'missing')!r}, "
                                     f"but its cells give {value!r}")
    return cert


def certificate_to_csv(cert: PartitionCertificate) -> str:
    lines = [CSV_HEADER]
    for c in cert.cells:
        values = [getattr(c, attr) for _, attr in _CELL_FIELDS[:-1]] + list(c.margins)
        lines.append(",".join(str(v).lower() if type(v) is bool else _fmt(v) for v in values))
    return "\n".join(lines) + "\n"
