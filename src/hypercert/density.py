"""Simplex packing density in H^3 and the effective volume per packing ball.

For balls of radius r the local density of a packing is bounded by the
simplicial density

    packing_density(r) = (3*beta(r) - pi) * (sinh(2r) - 2r) / tau(r),

where beta(r) = arcsec(sech(2r) + 2) is the dihedral angle and tau(r) the
volume of the regular simplex with side 2r.  Dividing the ball volume by this
density gives b_ratio(r) = B(r) / d(r), the certified minimum volume of a
Voronoi cell around each ball of an r-packing, which is what the bound
arithmetic downstream consumes.  tau(r) has no closed form; simplex_volume_tau
evaluates it by adaptive QUADPACK quadrature to QuadratureConfig.abs_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad

from .hypgeo import DomainError, _check_positive, acosh_clamped, ball_volume

__all__ = [
    "QuadratureError",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "dihedral_beta",
    "simplex_volume_tau",
    "packing_density",
    "b_ratio",
    "circumradius_h3",
]

# arcsec(3) = arccos(1/3), the dihedral angle of the ideal regular simplex
# and the upper endpoint of the tau integral.
_ARCSEC3 = math.acos(1.0 / 3.0)


class QuadratureError(RuntimeError):
    """Quadrature did not converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """How tightly to evaluate the simplex volume integral.

    abs_tol is the absolute tolerance on the returned value; QUADPACK's own
    error estimate must come in under it or the evaluation raises
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
    _check_positive(r=r)
    return _arcsec(1.0 / math.cosh(2.0 * r) + 2.0)


def _tau_integrand_substituted(t_upper: float) -> Callable[[float], float]:
    # Integrand of tau after substituting t = t_upper - s^2.  The raw
    # integrand arcsech(sec t - 2) vanishes like sqrt(t_upper - t) at the
    # upper endpoint; the substitution makes it analytic in s.
    def g(s: float) -> float:
        t = t_upper - s * s
        return _arcsech(1.0 / math.cos(t) - 2.0) * 2.0 * s

    return g


def simplex_volume_tau(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Volume of the regular hyperbolic 3-simplex with side length 2r.

    tau(r) = 3 * Integral_{beta(r)}^{arcsec 3} arcsech(sec t - 2) dt.  The
    integral is taken in s = sqrt(arcsec 3 - t) by adaptive QUADPACK
    (scipy.integrate.quad), the one quadrature in the package.  An error
    estimate above cfg.abs_tol raises QuadratureError rather than returning a
    silently wrong value.
    """
    b = dihedral_beta(r)
    s_max = math.sqrt(_ARCSEC3 - b)
    integral, abserr = quad(_tau_integrand_substituted(_ARCSEC3), 0.0, s_max,
                            epsabs=cfg.abs_tol / 3.0, epsrel=1e-13, limit=200)
    if not math.isfinite(integral) or abserr > cfg.abs_tol:
        raise QuadratureError(
            f"adaptive quadrature error estimate {abserr:.3e} exceeds tolerance {cfg.abs_tol:.3e}"
        )
    return 3.0 * integral


def packing_density(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Simplicial packing density bound for balls of radius r; lies in (0, 1)."""
    d = (3.0 * dihedral_beta(r) - math.pi) * (math.sinh(2.0 * r) - 2.0 * r) / simplex_volume_tau(r, cfg)
    if not 0.0 < d < 1.0:
        raise QuadratureError(f"packing density {d!r} escaped (0, 1); quadrature unreliable")
    return d


def b_ratio(r: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Effective volume per packing ball, B(r) / packing_density(r) > B(r)."""
    return ball_volume(r) / packing_density(r, cfg)


def circumradius_h3(r: float) -> float:
    """Barycenter-to-vertex distance of the regular 3-simplex with side 2r.

    Closed form arccosh( sqrt(1 + 3 cosh 2r) / 2 ); always <= 2r, with the
    Euclidean limit h3(r)/r -> sqrt(3/2) as r -> 0.
    """
    _check_positive(r=r)
    return acosh_clamped(math.sqrt(1.0 + 3.0 * math.cosh(2.0 * r)) / 2.0)
