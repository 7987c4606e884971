"""Pointwise oracles shared by the certification tests.

These compose the closed forms directly, independent of the endpoint-bound
formulas they are used to check: on the interval I the certified quantities
are H(D), Sigma(D), Psi(D), W_lens(D), W_cone(D) and Phi(D) below.  The
simplex circumradius is here too, since only the tests use it.
"""

import math

from hypercert import (
    CertifyParams,
    acosh_clamped,
    cone_volume,
    eta,
    lens_volume,
    omega,
    phi,
    psi,
    sigma,
    theta,
)
from hypercert.hypgeo import _check_radius


def circumradius_h3(r: float) -> float:
    """Barycenter-to-vertex distance of the regular 3-simplex with side 2r.

    Closed form arccosh( sqrt(1 + 3 cosh 2r) / 2 ); always <= 2r, with the
    Euclidean limit h3(r)/r -> sqrt(3/2) as r -> 0.
    """
    _check_radius(r=r)
    return acosh_clamped(math.sqrt(1.0 + 3.0 * math.cosh(2.0 * r)) / 2.0)


def h_at(params: CertifyParams, d: float) -> float:
    return eta(params.R - d, params.half_eps, d)


def sigma_at(params: CertifyParams, d: float) -> float:
    return sigma(params.R - d, params.half_eps, d)


def psi_at(params: CertifyParams, d: float) -> float:
    r = params.half_eps
    return psi(omega(r, d), theta(r, d))


def wlens_at(params: CertifyParams, d: float) -> float:
    return lens_volume(params.R - d, params.half_eps, d)


def wcone_at(params: CertifyParams, d: float) -> float:
    r = params.half_eps
    return cone_volume(omega(r, d), theta(r, d))


def phi_at(params: CertifyParams, d: float) -> float:
    return phi(params.R - d, params.half_eps, d)
