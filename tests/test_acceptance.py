"""Acceptance suite: every criterion at its stated tolerance, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 6 draws four
million-sample Monte-Carlo estimates per closed form and dominates the
runtime (a few minutes); everything else completes in seconds.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import circumradius_h3, h_at, phi_at, psi_at, sigma_at, wcone_at, wlens_at
from hypercert import (
    REFERENCE_EPSILON,
    REFERENCE_RADIUS,
    b_ratio,
    ball_volume,
    cap_volume,
    certify_lower_bound,
    cone_volume,
    eta,
    h_bounds,
    lambda0,
    lambda1,
    lambda1_compact_p2,
    lambda1_noncompact,
    lens_volume,
    phi,
    psi,
    psi_bounds,
    reference_params,
    sigma_bounds,
    verify_reference_partition,
)
from hypercert import mcoracle as mc

LOG3 = math.log(3.0)
MC_SAMPLES = 1_000_000
MC_MASTER_SEED = 0xACCE


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS — {text}")


def test_criterion_1_reference_partition():
    cert = verify_reference_partition()
    assert cert.cell_count == 47
    assert all(c.good for c in cert.cells)

    phis = [c.phi_lo for c in cert.cells]
    m1 = [c.margins[0] for c in cert.cells]
    m2 = [c.margins[1] for c in cert.cells]
    m3 = [c.margins[2] for c in cert.cells]

    assert 0.49603 <= min(phis) < 0.49604
    assert phis.index(min(phis)) + 1 == 45
    assert 0.75 <= min(m1) < 0.76
    assert m1.index(min(m1)) + 1 == 1
    assert 2.22511 <= min(m2) < 2.22512
    assert m2.index(min(m2)) + 1 == 47
    assert 0.31 <= min(m3) < 0.32
    assert m3.index(min(m3)) + 1 == 1
    _report(1, f"47 good cells, min phi_lo={min(phis):.6f} at cell 45, "
               f"margins {min(m1):.4f}/{min(m2):.6f}/{min(m3):.4f} at cells 1/47/1")


def test_criterion_2_valence_quotient():
    b_half = b_ratio(LOG3 / 2)
    quotient = (ball_volume(REFERENCE_RADIUS) - b_half) / 0.496
    assert 314.62 <= quotient < 314.63
    assert math.floor(quotient) == 314
    _report(2, f"(B(R) - b(eps/2))/c = {quotient:.6f}, floor = 314")


def test_criterion_3_lambda_family():
    # b(eps/2) comes from the simplex-volume quadrature, not back-solved
    lam0 = lambda0()
    lam1 = lambda1()
    lam1n = lambda1_noncompact()
    lam1p2 = lambda1_compact_p2()
    assert 167.781 <= lam0 < 167.782
    assert 168.601 <= lam1 < 168.602
    assert 168.132 <= lam1n < 168.133
    assert 168.046 <= lam1p2 < 168.047
    _report(3, f"lambda0={lam0:.6f}, lambda1={lam1:.6f}, "
               f"lambda1'={lam1n:.6f}, lambda1''={lam1p2:.6f}")


def test_criterion_4_small_ball_gate():
    value = ball_volume(LOG3 / 2)
    assert 0.73 <= value < 0.74
    assert value > 0.496
    _report(4, f"B(log3/2) = {value:.6f} in [0.73, 0.74) and > 0.496")


def test_criterion_5_adaptive_certifier():
    params = reference_params()
    success = certify_lower_bound(params, 0.496)
    assert success.success
    assert success.certificate.certified_c > 0.496
    failure = certify_lower_bound(params, 1.0)
    assert not failure.success
    assert failure.witness is not None
    assert len(failure.witness.margins) == 3
    _report(5, f"target 0.496 certified with {success.certificate.cell_count} cells; "
               f"target 1.0 failed with witness [{failure.witness.d_lo:.6g}, {failure.witness.d_hi:.6g}]")


# --- criterion 6: Monte-Carlo oracle equivalence -------------------------------


def _check_3sigma(label, closed, est):
    assert est.standard_error > 0.0, f"{label}: degenerate estimate"
    deviation = abs(est.mean - closed) / est.standard_error
    assert deviation <= 3.0, (
        f"{label}: closed={closed}, mc={est.mean} +- {est.standard_error} "
        f"({deviation:.2f} sigma)"
    )
    return deviation


@pytest.mark.slow
def test_criterion_6_cap_oracle_equivalence():
    rng = np.random.default_rng(MC_MASTER_SEED)
    worst = 0.0
    for i in range(5):
        r = rng.uniform(0.3, 1.5)
        w = rng.uniform(-0.95 * r, 0.95 * r)
        toward = mc.axis_point(1.0 + abs(w))
        est = mc.estimate_volume(
            lambda p: mc.in_cap(p, mc.BASEPOINT, toward, r, w),
            mc.BASEPOINT, r, MC_SAMPLES, seed=MC_MASTER_SEED + i,
        )
        worst = max(worst, _check_3sigma(f"cap(r={r:.3f}, w={w:.3f})", cap_volume(r, w), est))
    _report(6, f"cap_volume vs MC at 1e6 samples x 5 parameter sets (worst {worst:.2f} sigma)")


@pytest.mark.slow
def test_criterion_6_lens_oracle_equivalence():
    rng = np.random.default_rng(MC_MASTER_SEED + 100)
    worst = 0.0
    for i in range(5):
        r2 = rng.uniform(0.3, 0.8)
        r1 = r2 + rng.uniform(0.05, 0.5)
        lo = max(r2, r1 - r2) + 0.05
        hi = r1 + r2 - 0.05
        d = rng.uniform(lo, hi)
        center2 = mc.axis_point(d)
        est = mc.estimate_volume(
            lambda p: mc.in_lens(p, mc.BASEPOINT, r1, center2, r2),
            center2, r2, MC_SAMPLES, seed=MC_MASTER_SEED + 100 + i,
        )
        worst = max(worst, _check_3sigma(
            f"lens(r1={r1:.3f}, r2={r2:.3f}, d={d:.3f})", lens_volume(r1, r2, d), est
        ))
    _report(6, f"lens_volume vs MC at 1e6 samples x 5 parameter sets (worst {worst:.2f} sigma)")


@pytest.mark.slow
def test_criterion_6_cone_oracle_equivalence():
    rng = np.random.default_rng(MC_MASTER_SEED + 200)
    worst = 0.0
    for i in range(5):
        a = rng.uniform(0.4, 1.4)
        beta = rng.uniform(0.15, math.pi / 2 - 0.1)
        est = mc.estimate_volume(
            lambda p: mc.in_cone(p, mc.BASEPOINT, mc.axis_point(1.0), a, beta),
            mc.BASEPOINT, a, MC_SAMPLES, seed=MC_MASTER_SEED + 200 + i,
        )
        worst = max(worst, _check_3sigma(
            f"cone(a={a:.3f}, beta={beta:.3f})", cone_volume(a, beta), est
        ))
    _report(6, f"cone_volume vs MC at 1e6 samples x 5 parameter sets (worst {worst:.2f} sigma)")


@pytest.mark.slow
def test_criterion_6_phi_oracle_equivalence():
    rng = np.random.default_rng(MC_MASTER_SEED + 300)
    worst = 0.0
    for i in range(5):
        r = rng.uniform(0.3, 0.7)
        d = r + rng.uniform(0.1, 0.6)
        rho = d + rng.uniform(0.05, r - 0.05)
        scoop = mc.axis_point(d)
        est = mc.estimate_volume(
            lambda p: mc.in_icecream(p, mc.BASEPOINT, scoop, r) & mc.in_ball(p, mc.BASEPOINT, rho),
            mc.BASEPOINT, rho, MC_SAMPLES, seed=MC_MASTER_SEED + 300 + i,
        )
        worst = max(worst, _check_3sigma(
            f"phi(rho={rho:.3f}, r={r:.3f}, d={d:.3f})", phi(rho, r, d), est
        ))
    _report(6, f"phi vs MC at 1e6 samples x 5 parameter sets (worst {worst:.2f} sigma)")


def test_criterion_6_cap_quadrature_grid():
    worst = 0.0
    for r in np.linspace(0.2, 2.0, 10):
        for frac in np.linspace(-0.9, 0.9, 10):
            w = frac * r
            oracle = math.pi * quad(
                lambda u: math.cosh(r) ** 2 / math.cosh(u) ** 2 - 1.0, w, r, epsabs=1e-13
            )[0]
            worst = max(worst, abs(cap_volume(float(r), float(w)) - oracle))
    assert worst < 1e-9
    _report(6, f"cap_volume vs quadrature oracle on 100-point grid (max |diff| = {worst:.2e})")


def test_criterion_7_bound_sandwich_suite():
    params = reference_params()
    cert = verify_reference_partition()
    rng = np.random.default_rng(20250810)
    for cell in cert.cells:
        h_lo, h_hi = h_bounds(params, cell.d_lo, cell.d_hi)
        s_lo, s_hi = sigma_bounds(params, cell.d_lo, cell.d_hi)
        p_lo, p_hi = psi_bounds(params, cell.d_lo, cell.d_hi)
        for d in rng.uniform(cell.d_lo, cell.d_hi, size=1000):
            d = float(d)
            assert h_lo <= h_at(params, d) <= h_hi
            assert s_lo <= sigma_at(params, d) <= s_hi
            assert p_lo <= psi_at(params, d) <= p_hi
            assert wlens_at(params, d) >= cell.wlens_lo
            assert wcone_at(params, d) >= cell.wcone_lo
            assert phi_at(params, d) >= cell.phi_lo
    _report(7, "all six pointwise inequalities hold on 1000 samples per reference cell")


def test_criterion_8_identity_suite():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = float(rng.uniform(0.05, 2.5))
        w = float(rng.uniform(0.0, r))
        a = float(rng.uniform(0.05, 2.5))
        assert abs(cap_volume(r, 0.0) - ball_volume(r) / 2) < 1e-10
        assert abs(cap_volume(r, w) + cap_volume(r, -w) - ball_volume(r)) < 1e-10
        assert abs(cone_volume(a, 0.0)) < 1e-10
        assert abs(cone_volume(a, math.pi / 2)) < 1e-10
        assert abs(psi(a, 0.0) - a) < 1e-10
        assert abs(psi(a, math.pi / 2)) < 1e-10
        y, z = float(rng.uniform(0.1, 1.8)), float(rng.uniform(0.1, 1.8))
        x = math.acosh(math.cosh(y) * math.cosh(z))
        assert abs(eta(x, y, z) - math.sinh(y) ** 2) < 1e-10
        assert circumradius_h3(r) <= 2 * r
    _report(8, "cap/cone/psi/eta/circumradius identities hold to 1e-10 on 200 random draws")
