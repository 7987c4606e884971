"""Closed-form volumes of balls, caps, lenses, cones and clipped cones in H^3.

All lengths are hyperbolic (curvature -1), all angles are in radians.  Every
function is pure and validates its inputs, so concurrent use is safe.

The building blocks:

* ``ball_volume(r)``     -- volume of a ball of radius r,
* ``cap_volume(r, w)``   -- volume of the part of a radius-r ball beyond a
  plane at signed distance w from its center,
* ``lens_volume``        -- intersection of two overlapping balls,
* ``cone_volume``        -- right circular cone with generator a and angle b,
* ``phi``                -- the convex hull of a point and a ball ("ice-cream
  cone"), clipped to a ball about the apex.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "acosh_clamped",
    "ball_volume",
    "cap_volume",
    "eta",
    "in_lens_domain",
    "in_phi_domain",
    "sigma",
    "lens_volume",
    "omega",
    "theta",
    "psi",
    "cone_volume",
    "phi",
]

# arccosh/arcsin arguments, and the discriminant eta, may land a hair outside
# their domain from roundoff when a configuration is exactly degenerate (right
# angles, tangency); anything further out is a genuine domain violation.
ACOSH_SLOP = 1e-12


class DomainError(ValueError):
    """An input lies outside the geometric domain of a formula."""


def _check_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def _check_positive(**values: float) -> None:
    _check_finite(**values)
    for name, v in values.items():
        if v <= 0.0:
            raise DomainError(f"{name} must be positive, got {v!r}")


def acosh_clamped(x: float) -> float:
    """arccosh(x) with arguments in [1 - 1e-12, 1) snapped to exactly 1.

    The snap absorbs roundoff at degenerate configurations; arguments below
    the slop raise DomainError instead of silently extrapolating.
    """
    if x >= 1.0:
        return math.acosh(x)
    if x >= 1.0 - ACOSH_SLOP:
        return 0.0
    raise DomainError(f"arccosh argument {x!r} is below 1")


def _asin_clamped(x: float) -> float:
    if -1.0 <= x <= 1.0:
        return math.asin(x)
    if abs(x) <= 1.0 + ACOSH_SLOP:
        return math.copysign(math.pi / 2.0, x)
    raise DomainError(f"arcsin argument {x!r} is outside [-1, 1]")


def ball_volume(r: float) -> float:
    """Volume pi*(sinh(2r) - 2r) of a ball of radius r > 0."""
    _check_positive(r=r)
    return math.pi * (math.sinh(2.0 * r) - 2.0 * r)


def cap_volume(r: float, w: float) -> float:
    """Volume of a solid cap: ball of radius r cut by a plane at distance |w|.

    The sign convention: w > 0 puts the ball's center outside the retained
    half-space (a cap smaller than a half-ball), w < 0 inside, and w = 0
    gives exactly half the ball.  For w >= r the cap is empty, for w <= -r
    it is the whole ball.

    On |w| <= r this is the Fermi-coordinate integral
    pi * Integral_w^r (cosh^2(r) sech^2(u) - 1) du in closed form.
    """
    _check_positive(r=r)
    _check_finite(w=w)
    if w >= r:
        return 0.0
    if w <= -r:
        return ball_volume(r)
    c = math.cosh(r)
    return math.pi * (c * c * (math.tanh(r) - math.tanh(w)) - (r - w))


def eta(x: float, y: float, z: float) -> float:
    """Altitude discriminant of a triple of side lengths.

    For a triangle with side lengths |P1 E| = x, |P2 E| = y, |P1 P2| = z the
    squared sinh of the altitude from E onto line P1 P2 equals eta(x, y, z);
    the triple is realizable iff eta >= 0.  Always eta(x,y,z) <= sinh^2(x).
    """
    _check_positive(x=x, y=y, z=z)
    cx, cy, cz = math.cosh(x), math.cosh(y), math.cosh(z)
    num = 2.0 * cx * cy * cz - (cx * cx + cy * cy + cz * cz) + 1.0
    sz = math.sinh(z)
    return num / (sz * sz)


def in_lens_domain(x: float, y: float, z: float) -> bool:
    """True iff eta(x, y, z) >= 0, i.e. the lens/altitude formulas apply.

    The comparison is exact on the computed eta; there is no fuzz here by
    design (directional safety margins live in the certification layer).
    """
    return eta(x, y, z) >= 0.0


def in_phi_domain(rho: float, r: float, z: float) -> bool:
    """True iff (rho, r, z) is admissible for phi: eta >= 0 and r < z."""
    return r < z and in_lens_domain(rho, r, z)


def sigma(x: float, y: float, z: float) -> float:
    """Distance from P1 to the foot of the altitude plane of the (x,y,z) triangle.

    Defined as arccosh(cosh x / sqrt(1 + eta(x,y,z))); requires eta >= 0,
    where eta in [-ACOSH_SLOP, 0) counts as the roundoff of a tangent
    configuration (see phi) and is taken as 0.  Evaluated through the identity
    sinh^2(z) * (sinh^2(x) - eta) = (cosh x cosh z - cosh y)^2 as

        arcsinh( |cosh x cosh z - cosh y| / (sinh z * sqrt(1 + eta)) ),

    which is exact at the right-angle configurations where the arccosh form
    loses half its digits to the square-root singularity at 1.
    """
    e = eta(x, y, z)
    if e < -ACOSH_SLOP:
        raise DomainError(f"sigma undefined: eta({x}, {y}, {z}) = {e} < 0")
    e = max(e, 0.0)
    num = abs(math.cosh(x) * math.cosh(z) - math.cosh(y))
    return math.asinh(num / (math.sinh(z) * math.sqrt(1.0 + e)))


def lens_volume(x: float, y: float, z: float) -> float:
    """Volume of the intersection of two overlapping balls.

    Equals cap_volume(x, s) + cap_volume(y, z - s) with s = sigma(x, y, z):
    the lens splits into two caps glued along the disk where the bounding
    spheres meet.  When y < min(z, x), z < x + y and x < y + z this is the
    volume of ball(P1, x) n ball(P2, y) at center distance z.
    """
    s = sigma(x, y, z)
    return cap_volume(x, s) + cap_volume(y, z - s)


def omega(r: float, d: float) -> float:
    """Generator length arccosh(cosh d / cosh r) of the tangent cone to a ball.

    From a point at distance d > r from the center of a ball of radius r,
    the segments tangent to the ball all have this length.
    """
    _check_positive(r=r, d=d)
    if r >= d:
        raise DomainError(f"omega requires r < d, got r={r}, d={d}")
    return acosh_clamped(math.cosh(d) / math.cosh(r))


def theta(r: float, d: float) -> float:
    """Half-angle arcsin(sinh r / sinh d) subtended by a ball of radius r at distance d > r."""
    _check_positive(r=r, d=d)
    if r >= d:
        raise DomainError(f"theta requires r < d, got r={r}, d={d}")
    return _asin_clamped(math.sinh(r) / math.sinh(d))


def psi(a: float, beta: float) -> float:
    """Axis length of a right circular cone with generator a and angle beta.

    psi(a, beta) = arccosh( cosh a / sqrt(1 + sinh^2(a) sin^2(beta)) ).
    Satisfies cosh(psi) * cosh(l) = cosh(a) where sinh(l) = sin(beta) sinh(a)
    is the base radius (hyperbolic Pythagorean identity).  Since
    cosh^2(a) - (1 + sinh^2(a) sin^2(beta)) = sinh^2(a) cos^2(beta), the
    evaluation uses the equivalent

        arcsinh( sinh(a) |cos beta| / sqrt(1 + sinh^2(a) sin^2(beta)) ),

    which returns exactly a at beta = 0 and collapses cleanly to 0 at
    beta = pi/2 instead of amplifying roundoff through arccosh near 1.
    """
    _check_positive(a=a)
    _check_finite(beta=beta)
    sa = math.sinh(a)
    sb = math.sin(beta)
    return math.asinh(sa * abs(math.cos(beta)) / math.sqrt(1.0 + sa * sa * sb * sb))


def cone_volume(a: float, beta: float) -> float:
    """Volume of a right circular cone with generator length a and angle beta.

    Computed as the ball sector B(a)/2 * (1 - cos beta) minus the cap of the
    same ball beyond the cone's base plane, cap_volume(a, psi(a, beta)).
    Only beta in [0, pi/2] is accepted; wider cones are rejected rather than
    extrapolated.
    """
    _check_positive(a=a)
    _check_finite(beta=beta)
    if not 0.0 <= beta <= math.pi / 2.0:
        raise DomainError(f"cone angle must lie in [0, pi/2], got {beta!r}")
    return ball_volume(a) / 2.0 * (1.0 - math.cos(beta)) - cap_volume(a, psi(a, beta))


def phi(rho: float, r: float, d: float) -> float:
    """Volume of an ice-cream cone clipped to a ball about its apex.

    Let Z be the convex hull of an apex point U and a ball of radius r whose
    center Q is at distance d > r from U.  For r < d < rho < d + r,
    phi(rho, r, d) is the volume of Z n ball(U, rho):

        lens_volume(rho, r, d)                -- scoop n clipping ball
      + cone_volume(omega(r,d), theta(r,d))   -- tangent cone (inside the clip)
      - cap_volume(r, d - psi(omega, theta))  -- cone n scoop, counted twice

    The formula is defined (and continuous) on the whole domain
    {eta(rho, r, d) >= 0 and r < d}.  At its edge rho = d + r the scoop
    touches the clipping ball from inside, and eta is exactly 0, but its
    binary64 value can come out near -1e-15.  Phi(D) = phi(R - D, eps/2, D)
    meets this edge at the left end D = R/2 - eps/4 of its interval, for
    many radii R.  So phi (through sigma) accepts eta >= -ACOSH_SLOP and
    treats it as 0, the same roundoff allowance as acosh_clamped; anything
    more negative still raises DomainError.  in_phi_domain stays exact.
    """
    _check_positive(rho=rho, r=r, d=d)
    if r >= d:
        raise DomainError(f"phi requires r < d, got r={r}, d={d}")
    if eta(rho, r, d) < -ACOSH_SLOP:
        raise DomainError(
            f"phi undefined: eta({rho}, {r}, {d}) < 0 (balls do not overlap properly)"
        )
    om = omega(r, d)
    th = theta(r, d)
    return (
        lens_volume(rho, r, d)
        + cone_volume(om, th)
        - cap_volume(r, d - psi(om, th))
    )

