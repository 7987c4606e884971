import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercert.certify as certify_mod
from helpers import h_at, phi_at, psi_at, sigma_at, wcone_at, wlens_at
from hypercert import (
    CertificationError,
    CertifyParams,
    DomainError,
    REFERENCE_EPSILON,
    REFERENCE_RADIUS,
    ball_volume,
    certificate_from_json,
    certificate_to_csv,
    certificate_to_json,
    certify_lower_bound,
    goodness_margins,
    h_bounds,
    largest_certifiable_c,
    optimize_radius,
    phi_lower,
    psi_bounds,
    radius_grid,
    reference_breakpoints,
    reference_params,
    sigma_bounds,
    verify_reference_partition,
)

# strategies drawing subcells of the reference interval I
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _subcell(params, t0, t1, min_width=1e-6, max_width=0.05):
    lo, hi = params.interval
    width = min_width + t1 * (max_width - min_width)
    d_lo = lo + t0 * (hi - lo - width)
    # d_lo + width can round one ulp past hi when t0 = 1
    return d_lo, min(d_lo + width, hi)


class TestParams:
    def test_window_validation(self):
        CertifyParams(1.0, 2.2)
        with pytest.raises(DomainError):
            CertifyParams(1.0, 2.0)
        with pytest.raises(DomainError):
            CertifyParams(1.0, 2.5)
        with pytest.raises(DomainError):
            CertifyParams(-1.0, 2.2)

    def test_reference_interval(self, ref_params):
        lo, hi = ref_params.interval
        assert lo == pytest.approx(0.75 * math.log(3.0) + 0.075, abs=1e-15)
        assert hi == math.log(3.0)
        assert lo < hi


class TestHBounds:
    @settings(max_examples=50)
    @given(_unit, _unit)
    def test_sandwich(self, t0, t1):
        params = reference_params()
        d_lo, d_hi = _subcell(params, t0, t1)
        h_lo, h_hi = h_bounds(params, d_lo, d_hi)
        for d in np.linspace(d_lo, d_hi, 100):
            assert h_lo <= h_at(params, float(d)) <= h_hi

    def test_degenerate_width_collapses(self, ref_params):
        d = 1.0
        h = h_at(ref_params, d)
        for width in (1e-6, 1e-9):
            h_lo, h_hi = h_bounds(ref_params, d, d + width)
            assert h_lo <= h <= h_hi
            assert h_hi - h_lo < 1e3 * width

    def test_rejects_cells_outside_interval(self, ref_params):
        lo, hi = ref_params.interval
        with pytest.raises(DomainError):
            h_bounds(ref_params, lo - 0.01, lo + 0.01)
        with pytest.raises(DomainError):
            h_bounds(ref_params, hi - 0.01, hi + 0.01)
        with pytest.raises(DomainError):
            h_bounds(ref_params, lo + 0.02, lo + 0.01)


class TestEnclosures:
    def test_sigma_enclosure_on_reference_cell(self, ref_params):
        pts = reference_breakpoints()
        d_lo, d_hi = pts[9], pts[10]  # cell 10
        s_lo, s_hi = sigma_bounds(ref_params, d_lo, d_hi)
        assert s_lo <= s_hi
        for d in np.linspace(d_lo, d_hi, 100):
            assert s_lo <= sigma_at(ref_params, float(d)) <= s_hi

    def test_sigma_ordering_on_all_reference_cells(self, ref_params):
        pts = reference_breakpoints()
        for a, b in zip(pts[:-1], pts[1:]):
            s_lo, s_hi = sigma_bounds(ref_params, a, b)
            assert s_lo <= s_hi

    def test_psi_enclosure_on_reference_cell(self, ref_params):
        pts = reference_breakpoints()
        d_lo, d_hi = pts[19], pts[20]  # cell 20
        p_lo, p_hi = psi_bounds(ref_params, d_lo, d_hi)
        for d in np.linspace(d_lo, d_hi, 100):
            assert p_lo <= psi_at(ref_params, float(d)) <= p_hi

    def test_lower_bounds_on_reference_cells(self, ref_params):
        pts = reference_breakpoints()
        rng = np.random.default_rng(42)
        for a, b in zip(pts[:-1], pts[1:]):
            cell = phi_lower(ref_params, a, b)
            for d in rng.uniform(a, b, size=20):
                assert wlens_at(ref_params, float(d)) >= cell.wlens_lo
                assert wcone_at(ref_params, float(d)) >= cell.wcone_lo

    def test_enclosure_width_shrinks(self, ref_params):
        d = 1.0
        widths = []
        for w in (1e-2, 1e-4, 1e-6):
            s_lo, s_hi = sigma_bounds(ref_params, d, d + w)
            widths.append(s_hi - s_lo)
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 1e-4

    def test_domain_failure_when_margins_fail(self, ref_params):
        # the full interval violates goodness condition (1), so the sigma
        # enclosure must refuse rather than take arccosh outside its domain
        lo, hi = ref_params.interval
        margins = goodness_margins(ref_params, lo, hi)
        assert min(margins[0], margins[1]) <= 0
        with pytest.raises(DomainError):
            sigma_bounds(ref_params, lo, hi)

    def test_psi_bounds_rejects_cells_outside_interval(self, ref_params):
        lo, hi = ref_params.interval
        with pytest.raises(DomainError):
            psi_bounds(ref_params, lo - 0.05, lo)


class TestPhiLower:
    def test_reference_cell_values(self, ref_params):
        pts = reference_breakpoints()
        cell45 = phi_lower(ref_params, pts[44], pts[45])
        assert cell45.good
        assert 0.49603 <= cell45.phi_lo < 0.49604
        cell47 = phi_lower(ref_params, pts[46], pts[47])
        assert 2.22511 <= cell47.margins[1] < 2.22512
        cell1 = phi_lower(ref_params, pts[0], pts[1])
        assert 0.75 <= cell1.margins[0] < 0.76
        assert 0.31 <= cell1.margins[2] < 0.32

    def test_never_raises_on_bad_cell(self, ref_params):
        lo, hi = ref_params.interval
        cell = phi_lower(ref_params, lo, hi)
        assert not cell.good
        assert cell.phi_lo is None
        assert len(cell.margins) == 3

    @settings(max_examples=40)
    @given(_unit, _unit)
    def test_pointwise_domination(self, t0, t1):
        params = reference_params()
        d_lo, d_hi = _subcell(params, t0, t1)
        cell = phi_lower(params, d_lo, d_hi)
        if not cell.good:
            return
        for d in np.linspace(d_lo, d_hi, 50):
            assert phi_at(params, float(d)) >= cell.phi_lo

    @settings(max_examples=40)
    @given(_unit, _unit)
    def test_refinement_monotonicity(self, t0, t1):
        params = reference_params()
        d_lo, d_hi = _subcell(params, t0, t1)
        parent = phi_lower(params, d_lo, d_hi)
        if not parent.good:
            return
        mid = 0.5 * (d_lo + d_hi)
        left = phi_lower(params, d_lo, mid)
        right = phi_lower(params, mid, d_hi)
        if left.good and right.good:
            assert min(left.phi_lo, right.phi_lo) >= parent.phi_lo - 1e-12


class TestReferencePartition:
    def test_structure(self, ref_params):
        cert = verify_reference_partition()
        assert cert.cell_count == 47
        assert all(c.good for c in cert.cells)
        lo, hi = ref_params.interval
        assert cert.cells[0].d_lo == lo
        assert cert.cells[-1].d_hi == hi
        for a, b in zip(cert.cells, cert.cells[1:]):
            assert a.d_hi == b.d_lo
        assert cert.certified_c == min(c.phi_lo for c in cert.cells)
        assert cert.certified_c > 0.496

    def test_extremal_cells(self):
        cert = verify_reference_partition()
        phis = [c.phi_lo for c in cert.cells]
        assert phis.index(min(phis)) + 1 == 45
        m1 = [c.margins[0] for c in cert.cells]
        m2 = [c.margins[1] for c in cert.cells]
        m3 = [c.margins[2] for c in cert.cells]
        assert m1.index(min(m1)) + 1 == 1
        assert m2.index(min(m2)) + 1 == 47
        assert m3.index(min(m3)) + 1 == 1


class TestAdaptiveCertifier:
    def test_reference_target_succeeds(self, ref_params):
        result = certify_lower_bound(ref_params, 0.496)
        assert result.success
        cert = result.certificate
        assert cert.certified_c > 0.496
        lo, hi = ref_params.interval
        assert cert.cells[0].d_lo == lo and cert.cells[-1].d_hi == hi
        for a, b in zip(cert.cells, cert.cells[1:]):
            assert a.d_hi == b.d_lo

    def test_unreachable_target_fails_with_witness(self, ref_params):
        result = certify_lower_bound(ref_params, 10.0)
        assert not result.success
        assert result.certificate is None
        assert result.witness is not None
        assert len(result.witness.margins) == 3
        assert "depth" in result.message

    def test_determinism(self, ref_params):
        a = certify_lower_bound(ref_params, 0.49)
        b = certify_lower_bound(ref_params, 0.49)
        assert certificate_to_json(a.certificate) == certificate_to_json(b.certificate)

    def test_other_parameters_certify(self):
        params = CertifyParams(1.0, 2.2)
        result = certify_lower_bound(params, 0.3)
        assert result.success
        # soundness spot check against the pointwise oracle
        rng = np.random.default_rng(3)
        for cell in result.certificate.cells[::7]:
            for d in rng.uniform(cell.d_lo, cell.d_hi, size=10):
                assert phi_at(params, float(d)) >= cell.phi_lo

    def test_largest_certifiable_c(self, ref_params):
        c, cert = largest_certifiable_c(ref_params, c_tol=1e-4)
        assert c > 0.496
        assert cert.certified_c - 1e-9 > c
        # the true minimum of Phi on I is at the right endpoint
        assert c <= phi_at(ref_params, ref_params.d_max)

    def test_largest_certifiable_c_golden(self, ref_params):
        c, cert = largest_certifiable_c(ref_params)
        assert c == 0.4964068684834093
        assert cert.cell_count == 96


class TestSearchCost:
    """Counts of phi_lower evaluations: a guard on the search's cost that cannot be flaky."""

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        counts = Counter()
        real = certify_mod.phi_lower

        def counting(params, d_lo, d_hi, *args, **kwargs):
            counts[(d_lo, d_hi)] += 1
            return real(params, d_lo, d_hi, *args, **kwargs)

        monkeypatch.setattr(certify_mod, "phi_lower", counting)
        return counts

    def test_largest_certifiable_c_evaluates_each_cell_once(self, ref_params, evaluations):
        largest_certifiable_c(ref_params)
        assert max(evaluations.values()) == 1
        assert sum(evaluations.values()) <= 300

    def test_fixed_target_evaluates_the_tree_once(self, ref_params, evaluations):
        result = certify_lower_bound(ref_params, 0.496)
        assert result.success and result.certificate.cell_count == 51
        # 51 leaves and the 50 cells split above them
        assert sum(evaluations.values()) == 101

    def test_failing_pass_dives_toward_the_minimum(self, ref_params):
        # Phi is least at D = eps, so the weaker-half-first dive ends there
        result = certify_lower_bound(ref_params, 0.6)
        assert not result.success
        assert "depth" in result.message
        assert result.witness.d_hi == math.log(3.0)


class TestOptimizeRadius:
    def test_single_point_matches_direct_search(self):
        eps = REFERENCE_EPSILON
        scan = optimize_radius(eps, [REFERENCE_RADIUS], c_tol=1e-4)
        c, _ = largest_certifiable_c(reference_params(), c_tol=1e-4)
        assert scan.best.R == REFERENCE_RADIUS
        assert scan.best.certified_c == c
        quotient = (ball_volume(REFERENCE_RADIUS) - scan.b_half_eps) / scan.best.certified_c
        assert scan.best.valence_bound == math.floor(quotient)

    def test_reference_grid(self):
        eps = REFERENCE_EPSILON
        grid = [REFERENCE_RADIUS - 0.02, REFERENCE_RADIUS, REFERENCE_RADIUS + 0.02]
        scan = optimize_radius(eps, grid, c_tol=1e-4)
        assert scan.best.valence_bound <= 314
        by_radius = {e.R: e for e in scan.entries}
        assert by_radius[REFERENCE_RADIUS].valence_bound == 314
        # ties break toward smaller R
        best_valence = scan.best.valence_bound
        candidates = [e.R for e in scan.entries if e.valence_bound == best_valence]
        assert scan.best.R == min(candidates)

    def test_nine_point_grid_golden(self):
        eps = REFERENCE_EPSILON
        scan = optimize_radius(eps, radius_grid(eps, 9))
        assert [(e.R, e.certified_c, e.valence_bound) for e in scan.entries] == [
            (2.252155191769625, 0.39549510911096597, 320),
            (2.3070858062030304, 0.45322808980339024, 315),
            (2.362016420636436, 0.5124069266679012, 314),
            (2.4169470350698417, 0.5715632599344027, 317),
            (2.471877649503247, 0.6289418089581833, 324),
            (2.5268082639366525, 0.6824778686219048, 335),
            (2.581738878370058, 0.7297241726420741, 352),
            (2.6366694928034633, 0.7373978995631877, 391),
            (2.691600107236869, 0.7373978995631877, 439),
        ]
        assert scan.best.R == 2.362016420636436
        assert scan.skipped == ()

    def test_grid_helper_is_interior(self):
        eps = 1.1
        grid = radius_grid(eps, 5)
        assert len(grid) == 5
        assert all(2 * eps < r < 2.5 * eps for r in grid)

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            optimize_radius(1.0, [1.9])
        with pytest.raises(DomainError):
            optimize_radius(1.0, [])

    @pytest.mark.parametrize("c_tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_c_tol(self, c_tol):
        # a non-positive c_tol used to bisect forever; nan skipped the bisection
        with pytest.raises(DomainError):
            optimize_radius(1.0, [2.2], c_tol=c_tol)
        with pytest.raises(DomainError):
            largest_certifiable_c(CertifyParams(1.0, 2.2), c_tol=c_tol)


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        cert = verify_reference_partition()
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text

    def test_json_schema_fields(self):
        import json

        obj = json.loads(certificate_to_json(verify_reference_partition()))
        assert set(obj) == {"epsilon", "R", "slack", "cells", "certifiedC", "cellCount"}
        assert obj["cellCount"] == 47
        cell_keys = {
            "dLo", "dHi", "hLo", "hHi", "sigmaLo", "sigmaHi", "psiLo", "psiHi",
            "wlensLo", "wconeLo", "phiLo", "good", "margins",
        }
        assert set(obj["cells"][0]) == cell_keys
        assert len(obj["cells"][0]["margins"]) == 3

    def test_seventeen_digit_rendering(self):
        text = certificate_to_json(verify_reference_partition())
        # epsilon = log 3 must be rendered losslessly
        assert "1.0986122886681098" in text

    def test_csv_layout(self):
        cert = verify_reference_partition()
        lines = certificate_to_csv(cert).strip().splitlines()
        assert lines[0].startswith("dLo,dHi,hLo,hHi")
        assert len(lines) == 1 + 47
        assert all(len(line.split(",")) == 15 for line in lines)

    def test_tampered_json_rejected(self):
        text = certificate_to_json(verify_reference_partition())
        with pytest.raises(CertificationError):
            certificate_from_json(text.replace('"cellCount": 47', '"cellCount": 46'))
