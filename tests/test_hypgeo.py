import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from hypercert import (
    CertifyParams,
    DomainError,
    ball_volume,
    cap_volume,
    cone_volume,
    eta,
    in_lens_domain,
    in_phi_domain,
    lens_volume,
    omega,
    phi,
    psi,
    radius_grid,
    sigma,
    theta,
)

LOG3 = math.log(3.0)

radii = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
lengths = st.floats(min_value=0.1, max_value=2.5, allow_nan=False)


def cap_volume_quadrature(r, w):
    """Independent oracle: pi * Integral_w^r (cosh^2 r sech^2 u - 1) du."""
    if w >= r:
        return 0.0
    val, _ = quad(
        lambda u: math.cosh(r) ** 2 / math.cosh(u) ** 2 - 1.0, max(w, -r), r, epsabs=1e-13
    )
    return math.pi * val


class TestBallVolume:
    def test_exact_at_half_log3(self):
        # sinh(log 3) = 4/3 exactly, so B = pi*(4/3 - log 3)
        assert ball_volume(LOG3 / 2) == pytest.approx(math.pi * (4.0 / 3.0 - LOG3), rel=1e-15)
        assert 0.73 <= ball_volume(LOG3 / 2) < 0.74

    def test_reference_radius_value(self):
        assert ball_volume(2 * LOG3 + 0.15) == pytest.approx(156.98620045788832, rel=1e-13)

    def test_euclidean_limit(self):
        for r in (1e-2, 1e-3):
            ratio = ball_volume(r) / ((4.0 / 3.0) * math.pi * r**3)
            assert abs(ratio - 1.0) < 0.3 * r**2

    @given(radii, radii)
    def test_strictly_increasing(self, r1, r2):
        if r1 < r2:
            assert ball_volume(r1) < ball_volume(r2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(DomainError):
            ball_volume(bad)


class TestCapVolume:
    def test_half_ball_at_zero(self):
        for r in (0.3, 1.0, 2.4):
            assert cap_volume(r, 0.0) == pytest.approx(ball_volume(r) / 2, rel=1e-12)

    @given(radii, st.floats(min_value=0.01, max_value=0.99))
    def test_reflection_identity(self, r, frac):
        w = frac * r
        assert cap_volume(r, w) + cap_volume(r, -w) == pytest.approx(ball_volume(r), rel=1e-12)

    def test_empty_and_full(self):
        assert cap_volume(1.0, 1.0) == 0.0
        assert cap_volume(1.0, 1.5) == 0.0
        assert cap_volume(1.0, -1.0) == pytest.approx(ball_volume(1.0), rel=1e-12)
        assert cap_volume(1.0, -2.0) == ball_volume(1.0)

    @given(radii, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
    def test_monotone_decreasing_in_w(self, r, w1, w2):
        if w1 < w2:
            assert cap_volume(r, w1) >= cap_volume(r, w2)

    @given(radii, radii, st.floats(min_value=-2.0, max_value=2.0))
    def test_weakly_increasing_in_r(self, r1, r2, w):
        if r1 < r2:
            assert cap_volume(r1, w) <= cap_volume(r2, w) + 1e-12

    def test_quadrature_oracle(self):
        for r, w in [(1.0, 0.5), (0.7, -0.3), (2.0, 1.9), (0.5, 0.0), (1.3, -1.1)]:
            assert cap_volume(r, w) == pytest.approx(cap_volume_quadrature(r, w), abs=1e-10)

    def test_frozen_value(self):
        # derived from the quadrature oracle
        assert cap_volume(1.0, 0.5) == pytest.approx(0.6694232433005802, abs=1e-12)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            cap_volume(-1.0, 0.0)
        with pytest.raises(DomainError):
            cap_volume(1.0, math.nan)


class TestEta:
    def test_right_angle_factorization(self):
        # cosh x = cosh y cosh z makes the numerator (sinh y sinh z)^2
        for y, z in [(0.4, 0.9), (1.1, 0.3), (0.8, 0.8)]:
            x = math.acosh(math.cosh(y) * math.cosh(z))
            assert eta(x, y, z) == pytest.approx(math.sinh(y) ** 2, rel=1e-10)

    @given(lengths, lengths, lengths)
    def test_bounded_by_sinh_sq_x(self, x, y, z):
        assert eta(x, y, z) <= math.sinh(x) ** 2 + 1e-12

    def test_no_triangle_negative(self):
        # cosh(2.5) > cosh(0.6)^2 forces a negative numerator
        assert math.cosh(2.5) > math.cosh(0.6) ** 2
        assert eta(0.6, 0.6, 2.5) < 0.0
        assert not in_lens_domain(0.6, 0.6, 2.5)

    @given(lengths, lengths, lengths)
    def test_membership_matches_sign_exactly(self, x, y, z):
        assert in_lens_domain(x, y, z) == (eta(x, y, z) >= 0.0)


class TestSigma:
    def test_right_angle_at_p1(self):
        # cosh y = cosh x cosh z -> eta = sinh^2 x -> sigma = 0
        x, z = 0.7, 1.1
        y = math.acosh(math.cosh(x) * math.cosh(z))
        assert sigma(x, y, z) == 0.0

    def test_right_angle_at_p2(self):
        # cosh x = cosh y cosh z -> foot of the altitude is at P2, sigma = z
        y, z = 0.4, 0.9
        x = math.acosh(math.cosh(y) * math.cosh(z))
        assert sigma(x, y, z) == pytest.approx(z, abs=1e-10)

    @given(lengths, lengths, lengths)
    def test_nonnegative_on_domain(self, x, y, z):
        if in_lens_domain(x, y, z):
            assert sigma(x, y, z) >= 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sigma(0.6, 0.6, 2.5)


class TestLensVolume:
    def test_tangency_limit(self):
        r1, r2 = 1.2, 0.7
        for gap in (1e-4, 1e-6):
            assert lens_volume(r1, r2, r1 + r2 - gap) < 0.01

    @given(st.floats(min_value=0.3, max_value=0.8), st.floats(min_value=0.05, max_value=0.5),
           st.floats(min_value=0.05, max_value=0.95))
    def test_contained_in_each_ball(self, r2, dr, t):
        r1 = r2 + dr
        lo, hi = max(r2, r1 - r2), r1 + r2
        d = lo + t * (hi - lo)
        if d <= r2:
            return
        v = lens_volume(r1, r2, d)
        assert v <= min(ball_volume(r1), ball_volume(r2)) + 1e-12

    def test_domain_error_outside(self):
        with pytest.raises(DomainError):
            lens_volume(0.6, 0.6, 2.5)


class TestOmegaTheta:
    def test_exact_values_at_reference(self):
        # cosh(log 3) = 5/3 and cosh(log3 / 2) = 2/sqrt(3) exactly
        assert omega(LOG3 / 2, LOG3) == pytest.approx(math.acosh(5.0 / (2.0 * math.sqrt(3.0))), abs=1e-14)
        assert theta(LOG3 / 2, LOG3) == pytest.approx(math.asin(math.sqrt(3.0) / 4.0), abs=1e-14)

    @given(st.floats(min_value=0.1, max_value=1.5), st.floats(min_value=1e-3, max_value=1.5))
    def test_defining_identities(self, r, gap):
        d = r + gap
        om, th = omega(r, d), theta(r, d)
        assert om > 0.0
        assert 0.0 < th < math.pi / 2
        assert math.cosh(om) * math.cosh(r) == pytest.approx(math.cosh(d), rel=1e-12)
        assert math.sin(th) * math.sinh(d) == pytest.approx(math.sinh(r), rel=1e-12)

    def test_rejects_r_ge_d(self):
        with pytest.raises(DomainError):
            omega(1.0, 1.0)
        with pytest.raises(DomainError):
            theta(1.2, 1.0)


class TestPsi:
    def test_degenerate_angles(self):
        for a in (0.3, 1.0, 2.2):
            assert psi(a, 0.0) == pytest.approx(a, rel=1e-14)
            # float pi/2 is not an exact right angle, so only ~cos(pi/2) ~ 1e-16 survives
            assert psi(a, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_pythagorean_identity(self):
        a, beta = 1.0, 0.3
        ell = math.asinh(math.sin(beta) * math.sinh(a))
        assert math.cosh(psi(a, beta)) * math.cosh(ell) == pytest.approx(math.cosh(a), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_pythagorean_property(self, a, beta):
        ell = math.asinh(math.sin(beta) * math.sinh(a))
        assert math.cosh(psi(a, beta)) * math.cosh(ell) == pytest.approx(math.cosh(a), rel=1e-10)


class TestConeVolume:
    def test_degenerate_cones_vanish(self):
        for a in (0.4, 1.0, 1.7):
            assert cone_volume(a, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert cone_volume(a, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=0.2, max_value=2.0),
           st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
    def test_positive_inside(self, a, beta):
        assert cone_volume(a, beta) > 0.0

    def test_rejects_wide_angles(self):
        with pytest.raises(DomainError):
            cone_volume(1.0, -0.1)
        with pytest.raises(DomainError):
            cone_volume(1.0, math.pi / 2 + 0.1)


class TestPhi:
    def test_reference_value_exceeds_target(self):
        value = phi(LOG3 + 0.15, LOG3 / 2, LOG3)
        assert value == pytest.approx(0.4964077483862388, abs=1e-12)
        assert value > 0.496

    def test_containment_bounds(self):
        for rho, r, d in [(1.3, 0.55, 1.05), (1.0, 0.4, 0.8), (1.45, 0.5493, 0.95)]:
            v = phi(rho, r, d)
            om, th = omega(r, d), theta(r, d)
            assert v <= ball_volume(rho) + 1e-12
            assert v <= ball_volume(r) + cone_volume(om, th) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi(1.3, 1.05, 0.55)  # r >= d
        with pytest.raises(DomainError):
            phi(5.0, 0.3, 4.0)  # eta < 0: balls far apart

    def test_continuity_on_interval(self, ref_params):
        # max grid jump stays within a finite-difference Lipschitz estimate
        lo, hi = ref_params.interval
        n = 2000
        h = (hi - lo) / n
        vals = [phi(ref_params.R - (lo + i * h), ref_params.half_eps, lo + i * h) for i in range(n + 1)]
        jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        slope = max(jumps) / h
        assert max(jumps) <= 2.0 * slope * h
        assert slope < 10.0


def phi_tangent_mpmath(r, d):
    """Independent oracle, 40 digits: phi(d + r, r, d) from the closed forms.

    With rho = d + r the whole scoop lies in the clipping ball, so the lens
    term is the ball B(r).
    """
    with mpmath.workdps(40):
        r, d = mpmath.mpf(r), mpmath.mpf(d)

        def ball(a):
            return mpmath.pi * (mpmath.sinh(2 * a) - 2 * a)

        def cap(a, w):
            return mpmath.pi * (mpmath.cosh(a) ** 2 * (mpmath.tanh(a) - mpmath.tanh(w)) - (a - w))

        om = mpmath.acosh(mpmath.cosh(d) / mpmath.cosh(r))
        th = mpmath.asin(mpmath.sinh(r) / mpmath.sinh(d))
        ps = mpmath.acosh(mpmath.cosh(om) / mpmath.sqrt(1 + (mpmath.sinh(om) * mpmath.sin(th)) ** 2))
        cone = ball(om) / 2 * (1 - mpmath.cos(th)) - cap(om, ps)
        return ball(r) + cone - cap(r, d - ps)


class TestPhiAtTangency:
    """Phi(D) at the left end of I, where rho = R - D = D + eps/2 makes eta exactly 0."""

    @pytest.mark.parametrize("R", radius_grid(LOG3, 59))
    def test_left_end_of_interval(self, R):
        params = CertifyParams(LOG3, R)
        d = params.interval[0]
        assert abs(eta(R - d, params.half_eps, d)) < 1e-13
        assert phi(R - d, params.half_eps, d) == pytest.approx(
            float(phi_tangent_mpmath(params.half_eps, d)), rel=1e-12)

    def test_eta_beyond_roundoff_still_raises(self):
        r, d = LOG3 / 2, 1.0
        # eta falls linearly in rho just past rho = d + r; step to eta = -1e-6
        slope = eta(d + r + 1e-6, r, d) / 1e-6
        rho = d + r - 1e-6 / slope
        assert eta(rho, r, d) == pytest.approx(-1e-6, rel=1e-3)
        with pytest.raises(DomainError):
            phi(rho, r, d)
        with pytest.raises(DomainError):
            sigma(rho, r, d)


class TestDomainTypes:
    def test_triple_point_classification(self):
        assert in_lens_domain(1.3, 0.55, 1.05) and in_phi_domain(1.3, 0.55, 1.05)
        assert not in_lens_domain(0.6, 0.6, 2.5) and not in_phi_domain(0.6, 0.6, 2.5)
        # admissible but y >= z
        assert in_lens_domain(1.0, 1.2, 1.1) and not in_phi_domain(1.0, 1.2, 1.1)

    def test_triple_point_validation(self):
        with pytest.raises(DomainError):
            in_lens_domain(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            in_lens_domain(1.0, math.inf, 1.0)

    def test_in_phi_domain_requires_r_below_d(self):
        assert in_phi_domain(1.3, 0.55, 1.05)
        assert not in_phi_domain(1.3, 1.05, 0.55)
