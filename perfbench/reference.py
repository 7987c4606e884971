"""Independent reference for the closed forms and constants that hypercert emits.

Every formula is written from the paper's closed forms in the arccosh /
arcsin shape the paper states them, evaluated in mpmath at 30 significant
digits, and shares no code with the package:

    B(r)        = pi (sinh 2r - 2r)
    cap(r, w)   = pi (cosh^2 r (tanh r - tanh w) - (r - w)),   |w| < r
    eta(x,y,z)  = (2 cx cy cz - cx^2 - cy^2 - cz^2 + 1) / sinh^2 z
    sigma       = arccosh(cosh x / sqrt(1 + eta))
    lens        = cap(x, sigma) + cap(y, z - sigma)
    psi(a, b)   = arccosh(cosh a / sqrt(1 + sinh^2 a sin^2 b))
    cone(a, b)  = B(a)/2 (1 - cos b) - cap(a, psi(a, b))
    phi         = lens(rho, r, d) + cone(om, th) - cap(r, d - psi(om, th)),
                  om = arccosh(cosh d / cosh r), th = arcsin(sinh r / sinh d)
    Phi(D)      = phi(R - D, eps/2, D)
    tau(r)      = 3 Integral_{beta(r)}^{arcsec 3} arcsech(sec t - 2) dt,
                  beta(r) = arcsec(sech 2r + 2)
    b(r)        = B(r) / d(r),  d(r) = (3 beta - pi)(sinh 2r - 2r) / tau(r)

and the constants downstream of them: the valence quotient
(B(R) - b(eps/2)) / c, lambda0 = (valence/2 - 1) / b(eps/2) and
lambda1, lambda1', lambda1'' = lambda0 + 1/1.22, 1/2.848, 1/3.77.

Inputs are binary64 numbers and convert to mpmath exactly, so a reference
value is the true value of the formula at the program's own input bits.
"""

from __future__ import annotations

import math

import mpmath

DPS = 30

# Census volume thresholds the coefficients are built from (the paper's
# inputs, not derived here): closed with dim H1 >= 4, non-compact with
# dim H1 >= 3, closed with dim H1(F_2) >= 11.
VOLUME_CLOSED_RANK4 = "1.22"
VOLUME_NONCOMPACT_RANK3 = "2.848"
VOLUME_CLOSED_MOD2_RANK11 = "3.77"

REFERENCE_TARGET = "0.496"


class Reference:
    """mpmath evaluations with memo tables; one instance per benchmark run."""

    def __init__(self, dps: int = DPS) -> None:
        self.ctx = mpmath.MPContext()
        self.ctx.dps = dps
        self._phi: dict[tuple[float, float, float], object] = {}
        self._b: dict[float, object] = {}

    # --- closed forms ---------------------------------------------------------

    def ball(self, r):
        m = self.ctx
        r = m.mpf(r)
        return m.pi * (m.sinh(2 * r) - 2 * r)

    def cap(self, r, w):
        m = self.ctx
        r, w = m.mpf(r), m.mpf(w)
        if w >= r:
            return m.mpf(0)
        if w <= -r:
            return self.ball(r)
        c = m.cosh(r)
        return m.pi * (c * c * (m.tanh(r) - m.tanh(w)) - (r - w))

    def eta(self, x, y, z):
        m = self.ctx
        cx, cy, cz = m.cosh(x), m.cosh(y), m.cosh(z)
        return (2 * cx * cy * cz - (cx * cx + cy * cy + cz * cz) + 1) / m.sinh(z) ** 2

    def lens(self, x, y, z):
        m = self.ctx
        x, y, z = m.mpf(x), m.mpf(y), m.mpf(z)
        s = m.acosh(m.cosh(x) / m.sqrt(1 + self.eta(x, y, z)))
        return self.cap(x, s) + self.cap(y, z - s)

    def psi(self, a, b):
        m = self.ctx
        return m.acosh(m.cosh(a) / m.sqrt(1 + m.sinh(a) ** 2 * m.sin(b) ** 2))

    def cone(self, a, b):
        m = self.ctx
        a, b = m.mpf(a), m.mpf(b)
        return self.ball(a) / 2 * (1 - m.cos(b)) - self.cap(a, self.psi(a, b))

    def icecream(self, r, d):
        """Convex hull of a point and a radius-r ball whose centre is at distance d."""
        m = self.ctx
        r, d = m.mpf(r), m.mpf(d)
        om = m.acosh(m.cosh(d) / m.cosh(r))
        th = m.asin(m.sinh(r) / m.sinh(d))
        return self.ball(r) + self.cone(om, th) - self.cap(r, d - self.psi(om, th))

    def phi(self, rho, r, d):
        m = self.ctx
        rho, r, d = m.mpf(rho), m.mpf(r), m.mpf(d)
        om = m.acosh(m.cosh(d) / m.cosh(r))
        th = m.asin(m.sinh(r) / m.sinh(d))
        return self.lens(rho, r, d) + self.cone(om, th) - self.cap(r, d - self.psi(om, th))

    def Phi(self, eps: float, R: float, D: float):
        """Phi(D) = phi(R - D, eps/2, D), memoized on the exact binary64 inputs."""
        key = (eps, R, D)
        v = self._phi.get(key)
        if v is None:
            m = self.ctx
            e, big_r, d = m.mpf(eps), m.mpf(R), m.mpf(D)
            v = self.phi(big_r - d, e / 2, d)
            self._phi[key] = v
        return v

    def interval(self, eps: float, R: float) -> tuple[float, float]:
        """I = [R/2 - eps/4, eps], each end rounded once to binary64."""
        m = self.ctx
        return float(m.mpf(R) / 2 - m.mpf(eps) / 4), eps

    def phi_grid_min(self, eps: float, R: float, points: int = 25) -> float:
        """min Phi over `points` evenly spaced D in I, ends included."""
        lo, hi = self.interval(eps, R)
        grid = [lo + (hi - lo) * k / (points - 1) for k in range(points)]
        grid[-1] = hi
        return float(min(self.Phi(eps, R, d) for d in grid))

    # --- density and constants --------------------------------------------------

    def b(self, r: float):
        """Effective volume per packing ball b(r) = B(r) / d(r)."""
        v = self._b.get(r)
        if v is None:
            m = self.ctx
            rr = m.mpf(r)
            beta = m.asec(m.sech(2 * rr) + 2)
            upper = m.asec(3)
            # arcsech(sec t - 2) -> 0 at the upper end, where rounding can push
            # the argument a hair above 1; the imaginary part is that noise.
            tau = 3 * m.re(m.quad(lambda t: m.asech(m.sec(t) - 2), [beta, upper]))
            density = (3 * beta - m.pi) * (m.sinh(2 * rr) - 2 * rr) / tau
            v = self.ball(rr) / density
            self._b[r] = v
        return v

    def valence_quotient(self, eps: float, R: float, c: float):
        return (self.ball(R) - self.b(eps / 2)) / self.ctx.mpf(c)

    def reference_constants(self, eps: float, R: float) -> dict[str, object]:
        """The paper's headline numbers at (eps, R, c = 0.496), as mpmath values."""
        m = self.ctx
        half = eps / 2
        b_half = self.b(half)
        quotient = (self.ball(R) - b_half) / m.mpf(REFERENCE_TARGET)
        valence = int(m.floor(quotient))
        lam0 = (m.mpf(valence) / 2 - 1) / b_half
        return {
            "BHalfEps": self.ball(half),
            "bHalfEps": b_half,
            "dHalfEps": self.ball(half) / b_half,
            "lambda0": lam0,
            "lambda1": lam0 + 1 / m.mpf(VOLUME_CLOSED_RANK4),
            "lambda1Noncompact": lam0 + 1 / m.mpf(VOLUME_NONCOMPACT_RANK3),
            "lambda1CompactP2": lam0 + 1 / m.mpf(VOLUME_CLOSED_MOD2_RANK11),
            "valenceQuotient": quotient,
            "valenceBound": valence,
        }

    def rank_bound(self, eps: float, R: float, c: float, volume: float):
        """1 + (V / b(eps/2)) (valence/2 - 1) with valence = floor of the quotient."""
        m = self.ctx
        valence = int(m.floor(self.valence_quotient(eps, R, c)))
        return 1 + m.mpf(volume) / self.b(eps / 2) * (m.mpf(valence) / 2 - 1)


def rel_close(value: float, ref, tol: float) -> bool:
    """|value - ref| <= tol |ref|, with value a binary64 and ref an mpmath number."""
    return math.isfinite(value) and abs(value - float(ref)) <= tol * abs(float(ref))
