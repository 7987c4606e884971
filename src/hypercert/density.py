"""Simplex packing density in H^3 and the effective volume per packing ball.

For balls of radius r the local density of a packing is bounded by the
simplicial density

    packing_density(r) = (3*beta(r) - pi) * (sinh(2r) - 2r) / tau(r),

where beta(r) = arcsec(sech(2r) + 2) is the dihedral angle and tau(r) the
volume of the regular simplex with side 2r.  Dividing the ball volume by this
density gives b_ratio(r) = B(r) / d(r), the certified minimum volume of a
Voronoi cell around each ball of an r-packing, which is what the bound
arithmetic downstream consumes.  tau(r) has no closed form; simplex_volume_tau
evaluates it by globally adaptive Gauss-Legendre quadrature, in pure Python,
to QuadratureConfig.abs_tol.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .hypgeo import DomainError, _check_radius, acosh_clamped, ball_volume

__all__ = [
    "QuadratureError",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "dihedral_beta",
    "simplex_volume_tau",
    "packing_density",
    "b_ratio",
]

# arcsec(3) = arccos(1/3), the dihedral angle of the ideal regular simplex
# and the upper endpoint of the tau integral.
_ARCSEC3 = math.acos(1.0 / 3.0)

# The adaptive rule gives up rather than bisect past this many panels.
_MAX_PANELS = 200


class QuadratureError(RuntimeError):
    """Quadrature did not converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """How tightly to evaluate the simplex volume integral.

    abs_tol is the absolute tolerance on the returned value; the adaptive
    rule's error estimate must come in under it or the evaluation raises
    QuadratureError.
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


def _arcsec(x: float) -> float:
    if abs(x) < 1.0:
        raise DomainError(f"arcsec argument {x!r} has |x| < 1")
    return math.acos(1.0 / x)


def _arcsech(y: float) -> float:
    if y <= 0.0:
        raise DomainError(f"arcsech argument {y!r} must be positive")
    if y > 1.0 + 1e-12:
        raise DomainError(f"arcsech argument {y!r} exceeds 1")
    return acosh_clamped(1.0 / min(y, 1.0))


def dihedral_beta(r: float) -> float:
    """Dihedral angle arcsec(sech(2r) + 2) of the regular simplex with side 2r.

    Decreases from arcsec(3) at r -> 0 toward arcsec(2) = pi/3 as r -> inf.
    """
    _check_radius(r=r)
    return _arcsec(1.0 / math.cosh(2.0 * r) + 2.0)


def _tau_integrand(s: float) -> float:
    # Integrand of tau after substituting t = arcsec 3 - s^2.  The raw
    # integrand arcsech(sec t - 2) vanishes like sqrt(arcsec 3 - t) at the
    # upper endpoint; the substitution makes it analytic in s.
    t = _ARCSEC3 - s * s
    return _arcsech(1.0 / math.cos(t) - 2.0) * 2.0 * s


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Positive nodes and their weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Each node is a root of the Legendre polynomial P_n, found by Newton's
    method from the asymptotic guess cos(pi (i - 1/4) / (n + 1/2)); the
    weight is 2 / ((1 - x^2) P_n'(x)^2).  The rule is symmetric, so only the
    positive half is returned.
    """

    def legendre(x: float) -> tuple[float, float]:
        # P_n(x) and P_n'(x) by the three-term recurrence
        p_prev, p = 1.0, x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    nodes, weights = [], []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        _, dp = legendre(x)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _gauss_panel(f: Callable[[float], float], a: float, b: float, n: int) -> float:
    """The n-point Gauss-Legendre estimate of Integral_a^b f."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = _gauss_legendre(n)
    return half * math.fsum(w * (f(mid - half * x) + f(mid + half * x))
                            for x, w in zip(nodes, weights))


def _adaptive_gauss_legendre(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Integral_a^b f to an estimated absolute error of at most tol.

    Globally adaptive: each panel's value is its 32-point Gauss-Legendre sum
    and its error estimate is the distance to the 16-point sum.  The panel
    with the largest estimate is bisected until the estimates add up to at
    most tol.  Needing more than _MAX_PANELS panels raises QuadratureError.
    """

    def panel(lo: float, hi: float) -> tuple[float, float, float, float]:
        # (-error, lo, hi, value): heapq pops the smallest, so the worst panel
        value = _gauss_panel(f, lo, hi, 32)
        return (-abs(value - _gauss_panel(f, lo, hi, 16)), lo, hi, value)

    panels = [panel(a, b)]
    while True:
        err = -math.fsum(p[0] for p in panels)
        if err <= tol:
            return math.fsum(p[3] for p in panels)
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"quadrature error estimate {err:.3e} over {len(panels)} panels "
                f"exceeds tolerance {tol:.3e}"
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        heapq.heappush(panels, panel(lo, mid))
        heapq.heappush(panels, panel(mid, hi))


@functools.lru_cache(maxsize=64)
def simplex_volume_tau(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Volume of the regular hyperbolic 3-simplex with side length 2r.

    tau(r) = 3 * Integral_{beta(r)}^{arcsec 3} arcsech(sec t - 2) dt.  The
    integral is taken in s = sqrt(arcsec 3 - t) by adaptive Gauss-Legendre
    quadrature, the one quadrature in the package, so that the estimated
    error of tau is at most cfg.abs_tol.  When that cannot be reached the
    evaluation raises QuadratureError rather than returning a silently wrong
    value.

    Results are cached per (r, cfg), so the constants that all rest on
    b(eps/2) run the quadrature once; errors are not cached.
    """
    b = dihedral_beta(r)
    s_max = math.sqrt(_ARCSEC3 - b)
    return 3.0 * _adaptive_gauss_legendre(_tau_integrand, 0.0, s_max, cfg.abs_tol / 3.0)


def packing_density(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Simplicial packing density bound for balls of radius r; lies in (0, 1).

    Where tau underflows to 0 (below r ~ 1e-8) the density is nan, and raises
    QuadratureError as any value outside (0, 1) does.
    """
    tau = simplex_volume_tau(r, cfg)
    d = ((3.0 * dihedral_beta(r) - math.pi) * (math.sinh(2.0 * r) - 2.0 * r) / tau
         if tau > 0.0 else math.nan)
    if not 0.0 < d < 1.0:
        raise QuadratureError(f"packing density {d!r} (tau {tau!r}) escaped (0, 1); quadrature unreliable")
    return d


def b_ratio(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Effective volume per packing ball, B(r) / packing_density(r) > B(r)."""
    return ball_volume(r) / packing_density(r, cfg)
