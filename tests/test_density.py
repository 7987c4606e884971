import math

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hypercert.density as density_mod
from hypercert.cli import main
from hypercert import (
    DomainError,
    QuadratureConfig,
    QuadratureError,
    b_ratio,
    ball_volume,
    circumradius_h3,
    dihedral_beta,
    packing_density,
    simplex_volume_tau,
)

LOG3 = math.log(3.0)
ARCSEC3 = math.acos(1.0 / 3.0)

# Euclidean simplicial packing bound sqrt(18) (arccos(1/3) - pi/3)
ROGERS_LIMIT = math.sqrt(18.0) * (math.acos(1.0 / 3.0) - math.pi / 3.0)


def tau_mpmath(r, dps=40):
    """Independent oracle: tanh-sinh quadrature of the raw integrand, as an mpf."""
    with mpmath.workdps(dps):
        beta = mpmath.acos(1 / (mpmath.sech(2 * r) + 2))
        upper = mpmath.acos(mpmath.mpf(1) / 3)

        def integrand(t):
            sech_arg = 1 / (mpmath.sec(t) - 2)
            return mpmath.acosh(sech_arg) if sech_arg > 1 else mpmath.mpf(0)

        return 3 * mpmath.quad(integrand, [beta, upper])


def tau_quadpack(r):
    """Independent oracle: QUADPACK on the raw integrand in t."""
    beta, upper = dihedral_beta(r), math.acos(1.0 / 3.0)
    value, _ = quad(lambda t: math.acosh(1.0 / (1.0 / math.cos(t) - 2.0)), beta, upper,
                    epsabs=1e-14, epsrel=1e-14, limit=200)
    return 3.0 * value


def gram_circumradius(r):
    """Oracle: realize the regular simplex from its Gram matrix numerically.

    Gram matrix diag -1, off-diagonal -cosh(2r) in signature (-,+,+,+); the
    barycenter-to-vertex distance is read off from Minkowski products.
    """
    c = math.cosh(2.0 * r)
    gram = np.full((4, 4), -c)
    np.fill_diagonal(gram, -1.0)
    eigvals, eigvecs = np.linalg.eigh(gram)
    assert eigvals[0] < 0 < eigvals[1], "signature must be (-,+,+,+)"
    verts = np.empty((4, 4))
    verts[:, 0] = eigvecs[:, 0] * math.sqrt(-eigvals[0])
    verts[:, 1:] = eigvecs[:, 1:] * np.sqrt(eigvals[1:])
    if verts[0, 0] < 0:
        verts[:, 0] = -verts[:, 0]

    def mdot(u, v):
        return -u[0] * v[0] + u[1:] @ v[1:]

    barycenter = verts.mean(axis=0)
    barycenter = barycenter / math.sqrt(-mdot(barycenter, barycenter))
    dists = [math.acosh(-mdot(barycenter, v)) for v in verts]
    assert max(dists) - min(dists) < 1e-12
    return sum(dists) / 4.0


class TestDihedralBeta:
    def test_exact_at_half_log3(self):
        # sech(log 3) = 3/5 exactly, so beta = arcsec(2.6) = arccos(1/2.6)
        assert dihedral_beta(LOG3 / 2) == pytest.approx(math.acos(1.0 / 2.6), abs=1e-15)

    def test_small_r_limit(self):
        assert dihedral_beta(1e-8) == pytest.approx(ARCSEC3, abs=1e-7)

    def test_large_r_limit(self):
        # sech(2r) -> 0, so beta -> arcsec(2) = pi/3 from above
        assert dihedral_beta(25.0) == pytest.approx(math.pi / 3.0, abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_range_and_monotonicity(self, r):
        b = dihedral_beta(r)
        assert math.pi / 3.0 < b < ARCSEC3
        assert dihedral_beta(r + 0.1) < b

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            dihedral_beta(0.0)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [16, 32])
    def test_exact_for_polynomials_of_degree_below_2n(self, n):
        for k in range(2 * n):
            assert density_mod._gauss_panel(lambda x: x**k, 0.0, 1.0, n) == pytest.approx(
                1.0 / (k + 1), rel=1e-14)


class TestSimplexVolume:
    def test_against_mpmath_oracle(self, quad_cfg):
        for r in (1e-4, 0.2, LOG3 / 2, 1.0, 2.0, 3.0, 5.0):
            assert abs(simplex_volume_tau(r, quad_cfg) - tau_mpmath(r)) <= 1e-12

    def test_matches_quadpack_over_epsilon_window(self, quad_cfg):
        # the eps range the benchmark and the radius scans use
        for k in range(13):
            r = 0.5 * (0.9 + 0.025 * k)
            assert simplex_volume_tau(r, quad_cfg) == pytest.approx(tau_quadpack(r), abs=1e-12)

    def test_frozen_reference_value(self, quad_cfg):
        assert simplex_volume_tau(LOG3 / 2, quad_cfg) == pytest.approx(0.11436519364702041, abs=1e-10)

    def test_vanishes_for_small_r(self, quad_cfg):
        assert simplex_volume_tau(1e-4, quad_cfg) < 1e-10

    def test_tolerance_self_consistency(self):
        loose = simplex_volume_tau(0.7, QuadratureConfig(abs_tol=1e-8))
        tight = simplex_volume_tau(0.7, QuadratureConfig(abs_tol=5e-9))
        assert abs(loose - tight) < 1e-8

    def test_nonconvergence_is_loud(self):
        with pytest.raises(QuadratureError):
            simplex_volume_tau(1.0, QuadratureConfig(abs_tol=1e-30))

    @pytest.mark.parametrize(
        "args", [("constants",), ("bound", "--volume", "1", "--prime", "3")], ids=["constants", "bound"]
    )
    def test_cli_runs_one_quadrature(self, monkeypatch, args):
        # every constant these commands print rests on the one value b(log3 / 2)
        calls = []
        real_quad = density_mod._adaptive_gauss_legendre

        def counting_quad(*a, **kw):
            calls.append(a)
            return real_quad(*a, **kw)

        monkeypatch.setattr(density_mod, "_adaptive_gauss_legendre", counting_quad)
        simplex_volume_tau.cache_clear()
        result = CliRunner().invoke(main, list(args), catch_exceptions=False)
        assert result.exit_code == 0
        assert len(calls) == 1


class TestPackingDensity:
    def test_reference_value(self, quad_cfg):
        assert packing_density(LOG3 / 2, quad_cfg) == pytest.approx(0.7930874750240329, abs=1e-9)

    def test_euclidean_limit_is_rogers_bound(self, quad_cfg):
        d3 = packing_density(1e-3, quad_cfg)
        d4 = packing_density(1e-4, quad_cfg)
        assert d4 == pytest.approx(ROGERS_LIMIT, abs=1e-5)
        # convergence from above as r decreases
        assert abs(d4 - ROGERS_LIMIT) < abs(d3 - ROGERS_LIMIT)

    def test_in_unit_interval(self, quad_cfg):
        for r in np.linspace(0.1, 3.0, 16):
            assert 0.0 < packing_density(float(r), quad_cfg) < 1.0


class TestBRatio:
    def test_reference_value(self, quad_cfg):
        assert b_ratio(LOG3 / 2, quad_cfg) == pytest.approx(0.9297813075926366, abs=1e-9)

    def test_reference_value_against_mpmath(self, quad_cfg):
        # b = B / d = pi tau / (3 beta - pi), with every factor in 40 digits
        r = LOG3 / 2
        with mpmath.workdps(40):
            beta = mpmath.acos(1 / (mpmath.sech(2 * mpmath.mpf(r)) + 2))
            exact = mpmath.pi * tau_mpmath(r) / (3 * beta - mpmath.pi)
            assert abs(b_ratio(r, quad_cfg) / exact - 1) <= 1e-14

    def test_exceeds_ball_volume(self, quad_cfg):
        for r in (0.2, 0.5493, 1.3, 2.1):
            assert b_ratio(r, quad_cfg) > ball_volume(r)

    def test_continuity_at_half(self, quad_cfg):
        base = b_ratio(0.5, quad_cfg)
        deltas = [abs(b_ratio(0.5 + h, quad_cfg) - base) for h in (1e-3, 1e-5)]
        assert deltas[1] < deltas[0]
        assert deltas[1] < 1e-4

    def test_composition_contract(self, quad_cfg):
        r = 0.7
        assert b_ratio(r, quad_cfg) == pytest.approx(
            ball_volume(r) / packing_density(r, quad_cfg), rel=1e-14
        )


class TestCircumradius:
    def test_gram_matrix_oracle(self):
        for r in (0.1, 0.5, LOG3 / 2, 1.5, 2.5):
            assert circumradius_h3(r) == pytest.approx(gram_circumradius(r), abs=1e-10)

    @settings(max_examples=60)
    @given(st.floats(min_value=1e-3, max_value=3.0))
    def test_below_diameter(self, r):
        assert circumradius_h3(r) < 2.0 * r

    def test_euclidean_ratio(self):
        r = 1e-5
        assert circumradius_h3(r) / r == pytest.approx(math.sqrt(1.5), abs=1e-6)

    def test_reference_inequality(self):
        # h3(log3 / 2) <= log 3, the containment used by the valence argument
        assert circumradius_h3(LOG3 / 2) <= LOG3

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            circumradius_h3(-0.1)


class TestQuadratureConfig:
    def test_validation(self):
        for bad in (0.0, -1e-10, math.nan, math.inf):
            with pytest.raises(DomainError):
                QuadratureConfig(abs_tol=bad)
