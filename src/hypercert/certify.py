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

The module also ships the fixed 47-cell reference partition establishing
c = 0.496 at eps = log 3, R = 2 log 3 + 0.15, an adaptive certifier for
arbitrary targets, and a radius optimizer that minimizes the resulting
valence bound floor((B(R) - b(eps/2)) / c).

The adaptive certifier bisects cells depth-first and, at each split,
refines the weaker half (the lower phi_lo; a non-good cell is weakest)
first.  Every search keeps a memo of the cells it has evaluated, keyed by
their endpoints: largest_certifiable_c shares one memo across all passes of
its bisection over c, so its failing passes, which all dive toward the
minimiser of Phi, reuse each other's cells.  The order changes neither which
targets succeed nor the certificates returned.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .density import DEFAULT_QUADRATURE, QuadratureConfig, b_ratio
from .hypgeo import (
    DomainError,
    _check_finite,
    _check_positive,
    acosh_clamped,
    ball_volume,
    cap_volume,
    omega,
    theta,
)

__all__ = [
    "CertificationError",
    "CertifyParams",
    "BoundPair",
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
    """Margulis parameter eps and valence-ball radius R, with 2 eps < R < 5 eps / 2."""

    epsilon: float
    R: float

    def __post_init__(self) -> None:
        _check_positive(epsilon=self.epsilon, R=self.R)
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


class BoundPair(NamedTuple):
    lo: float
    hi: float


@dataclass(frozen=True)
class SubintervalCertificate:
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
    _check_finite(d_lo=d_lo, d_hi=d_hi)
    if not d_lo < d_hi:
        raise DomainError(f"cell endpoints must satisfy d_lo < d_hi, got [{d_lo}, {d_hi}]")
    lo, hi = params.interval
    if d_lo < lo or d_hi > hi:
        raise DomainError(
            f"cell [{d_lo}, {d_hi}] is not contained in the certified interval [{lo}, {hi}]"
        )


def h_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> BoundPair:
    """Enclosure of H(D) = eta(R - D, eps/2, D) on [d_lo, d_hi].

    Both bounds substitute endpoints so that every numerator term moves in
    the pessimal direction; together with H >= 0 on I this sandwiches H(D).
    """
    _check_cell(params, d_lo, d_hi)
    r = params.half_eps
    R = params.R
    cr = math.cosh(r)
    c_rlo = math.cosh(R - d_lo)   # largest cosh(R - D) on the cell
    c_rhi = math.cosh(R - d_hi)   # smallest
    c_dlo = math.cosh(d_lo)
    c_dhi = math.cosh(d_hi)
    num_lo = 2.0 * c_rhi * cr * c_dlo - (c_rlo * c_rlo + cr * cr + c_dhi * c_dhi) + 1.0
    num_hi = 2.0 * c_rlo * cr * c_dhi - (c_rhi * c_rhi + cr * cr + c_dlo * c_dlo) + 1.0
    s_lo = math.sinh(d_lo)
    s_hi = math.sinh(d_hi)
    return BoundPair(num_lo / (s_hi * s_hi), num_hi / (s_lo * s_lo))


def goodness_margins(params: CertifyParams, d_lo: float, d_hi: float) -> tuple[float, float, float]:
    """The three positivity margins that make the endpoint bounds valid on a cell."""
    h_lo, h_hi = h_bounds(params, d_lo, d_hi)
    r = params.half_eps
    s = math.sinh(params.R - d_hi)
    m1 = h_lo + 1.0
    m2 = s * s - h_hi
    m3 = math.sinh(omega(r, d_lo)) - math.sinh(omega(r, d_hi)) * math.sin(theta(r, d_hi))
    return (m1, m2, m3)


def sigma_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> BoundPair:
    """Enclosure of Sigma(D) = sigma(R - D, eps/2, D); needs margins 1 and 2 > 0."""
    h_lo, h_hi = h_bounds(params, d_lo, d_hi)
    s = math.sinh(params.R - d_hi)
    if not (h_lo > -1.0 and h_hi < s * s):
        raise DomainError(
            f"cell [{d_lo}, {d_hi}] fails goodness conditions (1)-(2); sigma bounds undefined"
        )
    lo = acosh_clamped(math.cosh(params.R - d_hi) / math.sqrt(1.0 + h_hi))
    hi = acosh_clamped(math.cosh(params.R - d_lo) / math.sqrt(1.0 + h_lo))
    return BoundPair(lo, hi)


def psi_bounds(params: CertifyParams, d_lo: float, d_hi: float) -> BoundPair:
    """Enclosure of Psi(D) = psi(omega(eps/2, D), theta(eps/2, D)); needs margin 3 > 0."""
    _check_cell(params, d_lo, d_hi)
    r = params.half_eps
    om_lo, om_hi = omega(r, d_lo), omega(r, d_hi)
    th_lo, th_hi = theta(r, d_lo), theta(r, d_hi)
    if not math.sinh(om_lo) > math.sinh(om_hi) * math.sin(th_hi):
        raise DomainError(
            f"cell [{d_lo}, {d_hi}] fails goodness condition (3); psi bounds undefined"
        )
    g_hi = math.sinh(om_hi) * math.sin(th_hi)   # largest sinh(omega) sin(theta) on the cell
    g_lo = math.sinh(om_lo) * math.sin(th_lo)   # smallest
    lo = acosh_clamped(math.cosh(om_lo) / math.sqrt(1.0 + g_hi * g_hi))
    hi = acosh_clamped(math.cosh(om_hi) / math.sqrt(1.0 + g_lo * g_lo))
    return BoundPair(lo, hi)


def phi_lower(
    params: CertifyParams,
    d_lo: float,
    d_hi: float,
    slack: float = DEFAULT_SLACK,
) -> SubintervalCertificate:
    """Evaluate one cell: margins, goodness, and (when good) all lower bounds.

    Never raises on a non-good cell; the certificate records good=False with
    the margins so callers can decide to split.
    """
    h_lo, h_hi = h_bounds(params, d_lo, d_hi)
    margins = goodness_margins(params, d_lo, d_hi)
    good = all(m > slack for m in margins)
    if not good:
        return SubintervalCertificate(d_lo, d_hi, h_lo, h_hi, margins, False)
    s_lo, s_hi = sigma_bounds(params, d_lo, d_hi)
    p_lo, p_hi = psi_bounds(params, d_lo, d_hi)
    r = params.half_eps
    wl = cap_volume(params.R - d_hi, s_hi) + cap_volume(r, d_hi - s_lo)
    wc = ball_volume(omega(r, d_lo)) / 2.0 * (1.0 - math.cos(theta(r, d_lo))) - cap_volume(
        omega(r, d_hi), p_lo
    )
    ph = wl + wc - cap_volume(r, d_lo - p_hi)
    return SubintervalCertificate(
        d_lo, d_hi, h_lo, h_hi, margins, True,
        sigma_lo=s_lo, sigma_hi=s_hi, psi_lo=p_lo, psi_hi=p_hi,
        wlens_lo=wl, wcone_lo=wc, phi_lo=ph,
    )


def _assemble(
    params: CertifyParams,
    cells: tuple[SubintervalCertificate, ...],
    slack: float,
) -> PartitionCertificate:
    lo, hi = params.interval
    if not cells:
        raise CertificationError("empty cell list")
    if cells[0].d_lo != lo or cells[-1].d_hi != hi:
        raise CertificationError("cells do not span the certified interval exactly")
    for a, b in zip(cells, cells[1:]):
        if a.d_hi != b.d_lo:
            raise CertificationError(f"gap or overlap between cells at {a.d_hi} vs {b.d_lo}")
    bad = [c for c in cells if not c.good or c.phi_lo is None]
    if bad:
        raise CertificationError(f"non-good cell [{bad[0].d_lo}, {bad[0].d_hi}] in partition")
    certified_c = min(c.phi_lo for c in cells)  # type: ignore[type-var]
    return PartitionCertificate(params=params, slack=slack, cells=cells, certified_c=certified_c)


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
    params = reference_params()
    pts = reference_breakpoints()
    cells = tuple(phi_lower(params, a, b, slack) for a, b in zip(pts[:-1], pts[1:]))
    for i, cell in enumerate(cells, start=1):
        if not cell.good:
            raise CertificationError(
                f"reference cell {i} [{cell.d_lo}, {cell.d_hi}] is not good; margins={cell.margins}"
            )
    cert = _assemble(params, cells, slack)
    if not cert.certified_c - slack > REFERENCE_TARGET_C:
        raise CertificationError(
            f"reference partition certifies only {cert.certified_c}, not > {REFERENCE_TARGET_C}"
        )
    return cert


def _strength(cell: SubintervalCertificate) -> float:
    """phi_lo of a good cell, -inf for a non-good one: the weaker half is refined first."""
    return cell.phi_lo if cell.good and cell.phi_lo is not None else -math.inf


def _refine(
    params: CertifyParams,
    target_c: float,
    max_depth: int,
    slack: float,
    memo: dict[tuple[float, float], SubintervalCertificate],
) -> CertificationResult:
    """One pass at target_c: bisect I until every cell is good with phi_lo - slack > target_c.

    The search is depth-first.  Each split evaluates both halves and descends
    into the weaker one first, so a pass that cannot succeed usually fails on
    its first dive, toward the minimiser of Phi.  Cells are looked up in memo,
    keyed by (d_lo, d_hi), before phi_lower evaluates them; a cell's value
    does not depend on target_c, so one memo serves every pass of a search at
    fixed params and slack.

    Which cells become leaves does not depend on the order: a cell is a leaf
    exactly when it meets the target, and is split otherwise.  So success or
    failure, and the certificate (the leaves sorted by d_lo), are the same as
    for a plain left-to-right search.  Only the witness of a failing pass
    depends on the order: it is the cell on the weakest path that reached
    max_depth or floating-point resolution.
    """

    def evaluate(d_lo: float, d_hi: float) -> SubintervalCertificate:
        cell = memo.get((d_lo, d_hi))
        if cell is None:
            cell = memo[(d_lo, d_hi)] = phi_lower(params, d_lo, d_hi, slack)
        return cell

    lo, hi = params.interval
    stack: list[tuple[SubintervalCertificate, int]] = [(evaluate(lo, hi), 0)]
    leaves: list[SubintervalCertificate] = []
    while stack:
        cell, depth = stack.pop()
        if cell.good and cell.phi_lo is not None and cell.phi_lo - slack > target_c:
            leaves.append(cell)
            continue
        d_lo, d_hi = cell.d_lo, cell.d_hi
        if depth >= max_depth:
            return CertificationResult(
                False, None, cell,
                f"max depth {max_depth} exhausted on cell [{d_lo}, {d_hi}] "
                f"(margins={cell.margins}, phi_lo={cell.phi_lo})",
            )
        mid = 0.5 * (d_lo + d_hi)
        if not d_lo < mid < d_hi:
            return CertificationResult(
                False, None, cell,
                f"cell [{d_lo}, {d_hi}] reached floating-point resolution without certifying",
            )
        left, right = evaluate(d_lo, mid), evaluate(mid, d_hi)
        if _strength(right) < _strength(left):
            left, right = right, left
        stack.append((right, depth + 1))
        stack.append((left, depth + 1))
    leaves.sort(key=lambda c: c.d_lo)
    cert = _assemble(params, tuple(leaves), slack)
    return CertificationResult(True, cert, None, "")


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

    Cells that fail are bisected at their midpoint up to max_depth, the
    weaker half (lower phi_lo, a non-good cell weakest of all) first, and no
    cell is evaluated twice.  Depth exhaustion (or a cell narrower than
    floating-point resolution) fails the run and returns the offending cell as
    witness; with the weaker-half-first order that is a cell near where Phi is
    least.  The certificate does not depend on the order of the search.
    """
    _check_finite(target_c=target_c)
    _check_max_depth(max_depth)
    return _refine(params, target_c, max_depth, slack, {})


def largest_certifiable_c(
    params: CertifyParams,
    *,
    c_tol: float = 1e-5,
    max_depth: int = DEFAULT_MAX_DEPTH,
    slack: float = DEFAULT_SLACK,
) -> tuple[float, PartitionCertificate]:
    """Largest c (to absolute tolerance c_tol) for which certification succeeds.

    The search is capped at B(eps/2): the downstream valence arithmetic needs
    B(eps/2) > c, so nothing is gained by certifying past the cap.  c_tol must
    be positive and finite, or the bisection would never end.

    The cap pass, the c = 0 pass and every bisection pass share one memo of
    evaluated cells.  Each failing pass dives weaker half first toward the
    minimiser of Phi along the same chain of cells, so after the first few
    passes almost every cell is a lookup.  The passes succeed or fail exactly
    as independent certify_lower_bound calls would, so c and the certificate
    are the same.
    """
    _check_positive(c_tol=c_tol)
    _check_max_depth(max_depth)
    memo: dict[tuple[float, float], SubintervalCertificate] = {}
    cap = ball_volume(params.half_eps) - 10.0 * slack
    result = _refine(params, cap, max_depth, slack, memo)
    if result.success:
        assert result.certificate is not None
        return cap, result.certificate
    lo_c = 0.0
    best = _refine(params, lo_c, max_depth, slack, memo)
    if not best.success:
        raise CertificationError(
            f"no positive lower bound certifiable at eps={params.epsilon}, R={params.R}: "
            + best.message
        )
    hi_c = cap
    while hi_c - lo_c > c_tol:
        mid = 0.5 * (lo_c + hi_c)
        result = _refine(params, mid, max_depth, slack, memo)
        if result.success:
            lo_c, best = mid, result
        else:
            hi_c = mid
    assert best.certificate is not None
    return lo_c, best.certificate


@dataclass(frozen=True)
class RadiusGridEntry:
    R: float
    certified_c: float
    valence_bound: int


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
    largest certified constant there.  Grid points where certification fails
    are skipped with a warning.  Ties break toward smaller R.
    """
    _check_positive(epsilon=epsilon)
    if not grid:
        raise DomainError("radius grid is empty")
    b_half = b_ratio(0.5 * epsilon, quad_cfg)
    entries: list[RadiusGridEntry] = []
    skipped: list[tuple[float, str]] = []
    for R in grid:
        params = CertifyParams(epsilon, R)  # validates the (2 eps, 5 eps / 2) window
        try:
            c, _ = largest_certifiable_c(params, c_tol=c_tol, max_depth=max_depth, slack=slack)
        except CertificationError as exc:
            warnings.warn(f"skipping R={R}: {exc}", stacklevel=2)
            skipped.append((R, str(exc)))
            continue
        valence = math.floor((ball_volume(R) - b_half) / c)
        entries.append(RadiusGridEntry(R=R, certified_c=c, valence_bound=valence))
    if not entries:
        raise CertificationError("certification failed at every grid point")
    best = min(entries, key=lambda e: (e.valence_bound, e.R))
    return RadiusScan(
        epsilon=epsilon,
        b_half_eps=b_half,
        entries=tuple(entries),
        skipped=tuple(skipped),
        best=best,
    )


# --- serialization -----------------------------------------------------------
#
# JSON schema:
#   {epsilon, R, slack, cells: [{dLo, dHi, hLo, hHi, sigmaLo, sigmaHi, psiLo,
#    psiHi, wlensLo, wconeLo, phiLo, good, margins: [m1, m2, m3]}],
#    certifiedC, cellCount}
# All reals are rendered with 17 significant digits so parsing recovers the
# exact binary64 values.

CSV_HEADER = (
    "dLo,dHi,hLo,hHi,sigmaLo,sigmaHi,psiLo,psiHi,wlensLo,wconeLo,phiLo,good,"
    "margin1,margin2,margin3"
)


def _fmt(x: Optional[float]) -> str:
    return "null" if x is None else format(x, ".17g")


def _cell_to_obj(c: SubintervalCertificate) -> str:
    pairs = [
        ("dLo", _fmt(c.d_lo)),
        ("dHi", _fmt(c.d_hi)),
        ("hLo", _fmt(c.h_lo)),
        ("hHi", _fmt(c.h_hi)),
        ("sigmaLo", _fmt(c.sigma_lo)),
        ("sigmaHi", _fmt(c.sigma_hi)),
        ("psiLo", _fmt(c.psi_lo)),
        ("psiHi", _fmt(c.psi_hi)),
        ("wlensLo", _fmt(c.wlens_lo)),
        ("wconeLo", _fmt(c.wcone_lo)),
        ("phiLo", _fmt(c.phi_lo)),
        ("good", "true" if c.good else "false"),
        ("margins", "[" + ", ".join(_fmt(m) for m in c.margins) + "]"),
    ]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}"


def certificate_to_json(cert: PartitionCertificate) -> str:
    cells = ",\n    ".join(_cell_to_obj(c) for c in cert.cells)
    return (
        "{\n"
        f'  "epsilon": {_fmt(cert.params.epsilon)},\n'
        f'  "R": {_fmt(cert.params.R)},\n'
        f'  "slack": {_fmt(cert.slack)},\n'
        f'  "cells": [\n    {cells}\n  ],\n'
        f'  "certifiedC": {_fmt(cert.certified_c)},\n'
        f'  "cellCount": {cert.cell_count}\n'
        "}\n"
    )


def certificate_from_json(text: str) -> PartitionCertificate:
    obj = json.loads(text)
    params = CertifyParams(float(obj["epsilon"]), float(obj["R"]))
    cells = []
    for c in obj["cells"]:
        opt = lambda k: None if c[k] is None else float(c[k])
        cells.append(
            SubintervalCertificate(
                d_lo=float(c["dLo"]),
                d_hi=float(c["dHi"]),
                h_lo=float(c["hLo"]),
                h_hi=float(c["hHi"]),
                margins=(float(c["margins"][0]), float(c["margins"][1]), float(c["margins"][2])),
                good=bool(c["good"]),
                sigma_lo=opt("sigmaLo"),
                sigma_hi=opt("sigmaHi"),
                psi_lo=opt("psiLo"),
                psi_hi=opt("psiHi"),
                wlens_lo=opt("wlensLo"),
                wcone_lo=opt("wconeLo"),
                phi_lo=opt("phiLo"),
            )
        )
    cert = _assemble(params, tuple(cells), float(obj["slack"]))
    if cert.certified_c != float(obj["certifiedC"]) or cert.cell_count != int(obj["cellCount"]):
        raise CertificationError("certificate summary fields do not match its cells")
    return cert


def certificate_to_csv(cert: PartitionCertificate) -> str:
    lines = [CSV_HEADER]
    for c in cert.cells:
        m1, m2, m3 = c.margins
        lines.append(
            ",".join(
                [
                    _fmt(c.d_lo), _fmt(c.d_hi), _fmt(c.h_lo), _fmt(c.h_hi),
                    _fmt(c.sigma_lo), _fmt(c.sigma_hi), _fmt(c.psi_lo), _fmt(c.psi_hi),
                    _fmt(c.wlens_lo), _fmt(c.wcone_lo), _fmt(c.phi_lo),
                    "true" if c.good else "false",
                    _fmt(m1), _fmt(m2), _fmt(m3),
                ]
            )
        )
    return "\n".join(lines) + "\n"
