import hashlib
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypercert.certify as certify_mod
import hypercert.hypgeo as hypgeo
from helpers import h_at, phi_at, psi_at, sigma_at, wcone_at, wlens_at
from hypercert import (
    CertificationError,
    CertifyParams,
    DEFAULT_SLACK,
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
    rank_bound,
    rank_bound_report,
    reference_breakpoints,
    reference_params,
    sigma_bounds,
    verify_reference_partition,
)

_CELL_ATTRS = ("d_lo", "d_hi", "h_lo", "h_hi", "sigma_lo", "sigma_hi", "psi_lo", "psi_hi",
               "wlens_lo", "wcone_lo", "phi_lo", "good", "margins")


def _cells_digest(cert):
    """SHA-256 of the repr of every cell's 13 fields and of certified_c: independent of any file layout."""
    rows = [repr(tuple(getattr(c, attr) for attr in _CELL_ATTRS)) for c in cert.cells]
    return hashlib.sha256("\n".join(rows + [repr(cert.certified_c)]).encode()).hexdigest()


# strategies drawing parameters (eps, R = 2 eps + u eps / 2) and subcells of I
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_eps = st.floats(min_value=0.9, max_value=1.2, allow_nan=False)
_u = st.floats(min_value=0.02, max_value=0.98, allow_nan=False)


def _params(eps, u):
    return CertifyParams(eps, 2.0 * eps + u * eps / 2.0)


def _subcell(params, t0, t1, min_width=1e-6, max_width=0.05):
    lo, hi = params.interval
    max_width = min(max_width, hi - lo)  # I is eps (1 - u) / 4 long
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
        with pytest.raises(DomainError):  # inside the window, past hypgeo.MAX_RADIUS
            CertifyParams(200.0, 450.0)

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
        for d_lo, d_hi in ((math.nan, hi), (lo, math.nan), (-math.inf, hi), (lo, math.inf),
                           (lo + 0.01, lo + 0.01)):
            with pytest.raises(DomainError):
                phi_lower(ref_params, d_lo, d_hi)


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
        with pytest.raises(DomainError):
            psi_bounds(ref_params, lo, hi)

    def test_psi_bounds_rejects_cells_outside_interval(self, ref_params):
        lo, hi = ref_params.interval
        with pytest.raises(DomainError):
            psi_bounds(ref_params, lo - 0.05, lo)


class TestStageFunctions:
    """h_bounds, goodness_margins, sigma_bounds and psi_bounds return phi_lower's fields."""

    @staticmethod
    def _assert_fields_of_cell(params, d_lo, d_hi):
        cell = phi_lower(params, d_lo, d_hi)
        assert h_bounds(params, d_lo, d_hi) == (cell.h_lo, cell.h_hi)
        assert goodness_margins(params, d_lo, d_hi) == cell.margins
        if cell.good:
            assert sigma_bounds(params, d_lo, d_hi) == (cell.sigma_lo, cell.sigma_hi)
            assert psi_bounds(params, d_lo, d_hi) == (cell.psi_lo, cell.psi_hi)
        else:
            for stage in (sigma_bounds, psi_bounds):
                with pytest.raises(DomainError):
                    stage(params, d_lo, d_hi)

    def test_reference_cells(self, ref_params):
        pts = reference_breakpoints()
        for a, b in zip(pts[:-1], pts[1:]):
            self._assert_fields_of_cell(ref_params, a, b)

    @settings(max_examples=40)
    @given(_eps, _u, _unit, _unit)
    def test_random_cells(self, eps, u, t0, t1):
        params = _params(eps, u)
        self._assert_fields_of_cell(params, *_subcell(params, t0, t1))


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
    @given(_eps, _u, _unit, _unit)
    def test_pointwise_domination(self, eps, u, t0, t1):
        params = _params(eps, u)
        d_lo, d_hi = _subcell(params, t0, t1)
        cell = phi_lower(params, d_lo, d_hi)
        if not cell.good:
            return
        for d in np.linspace(d_lo, d_hi, 50):
            assert phi_at(params, float(d)) >= cell.phi_lo

    @settings(max_examples=40)
    @given(_eps, _u, _unit, _unit)
    def test_refinement_monotonicity(self, eps, u, t0, t1):
        params = _params(eps, u)
        d_lo, d_hi = _subcell(params, t0, t1)
        parent = phi_lower(params, d_lo, d_hi)
        if not parent.good:
            return
        mid = 0.5 * (d_lo + d_hi)
        left = phi_lower(params, d_lo, mid)
        right = phi_lower(params, mid, d_hi)
        if left.good and right.good:
            assert min(left.phi_lo, right.phi_lo) >= parent.phi_lo - 1e-12


def test_cell_core_makes_no_check_calls(monkeypatch):
    # CertifyParams and the cell check bound every input of the volume kernels
    # phi_lower calls; through cap_volume and ball_volume it made 9 per cell
    calls = Counter()

    def counting(name, check):
        def counted(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return counted

    for name in ("_check_positive", "_check_finite", "_check_radius"):
        monkeypatch.setattr(hypgeo, name, counting(name, getattr(hypgeo, name)))
    assert hypgeo.cap_volume(1.0, 0.5) > 0.0 and calls["_check_radius"] == 1
    calls.clear()
    verify_reference_partition()
    assert calls == Counter()


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

    def test_largest_certifiable_c_below_float_spacing(self, ref_params):
        # a c_tol below the spacing of floats near c used to bisect forever
        c, cert = largest_certifiable_c(ref_params, c_tol=1e-17)
        assert 0.496 < c < cert.certified_c - 1e-9

    @pytest.mark.parametrize("params, c_tol", [
        (CertifyParams(1e-3, 2.25e-3), 1e-5),  # the cap B(eps/2) - 10 slack is negative
        (reference_params(), 1.0),             # the cap (0.737) is below c_tol
    ], ids=["negative-cap", "cap-below-c_tol"])
    def test_largest_certifiable_c_is_positive(self, params, c_tol):
        # the negative cap was returned as c, and c = 0 when the cap was below c_tol
        with pytest.raises(CertificationError, match="no positive lower bound"):
            largest_certifiable_c(params, c_tol=c_tol)

    def test_largest_certifiable_c_golden(self, ref_params):
        c, cert = largest_certifiable_c(ref_params)
        assert c == 0.4963977837352363
        assert cert.cell_count == 78

    def test_largest_certifiable_c_certificate_bits(self, ref_params):
        # pins all 13 fields of the 78 cells
        _, cert = largest_certifiable_c(ref_params)
        assert _cells_digest(cert) == (
            "84fa9c89a44e365cee2611ab02d897b4db97262b6df8aa9e24e39bcddcda7eca"
        )


_SLACK_ENTRY_POINTS = {
    "phi_lower": lambda s: phi_lower(reference_params(), *reference_breakpoints()[44:46], s),
    "certify_lower_bound": lambda s: certify_lower_bound(reference_params(), 0.4965, slack=s),
    "largest_certifiable_c": lambda s: largest_certifiable_c(reference_params(), slack=s),
    "optimize_radius": lambda s: optimize_radius(REFERENCE_EPSILON, [REFERENCE_RADIUS], slack=s),
    "verify_reference_partition": lambda s: verify_reference_partition(slack=s),
    "rank_bound_report": lambda s: rank_bound_report(
        REFERENCE_EPSILON, REFERENCE_RADIUS, 0.496, verify_reference_partition(), slack=s
    ),
    "rank_bound": lambda s: rank_bound(
        REFERENCE_EPSILON, REFERENCE_RADIUS, 0.6, 1.0, verify_reference_partition(), slack=s
    ),
    "certificate_from_json": lambda s: certificate_from_json(json.dumps(
        {**json.loads(certificate_to_json(verify_reference_partition())), "slack": s}
    )),
}


@pytest.mark.parametrize("slack", [-1e-3, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_SLACK_ENTRY_POINTS))
def test_rejects_slack_that_is_not_finite_and_positive(entry, slack):
    # a negative slack let certify_lower_bound(ref, 0.4965) succeed with
    # certified_c 0.49567, and rank_bound(c=0.6) claim 139.74
    with pytest.raises(DomainError):
        _SLACK_ENTRY_POINTS[entry](slack)


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
        assert sum(evaluations.values()) <= 200

    def test_radius_scan_cost(self, evaluations):
        # the log 3 nine-radius scan of the README: 1 151 evaluations, 1 707 by bisection over c
        optimize_radius(REFERENCE_EPSILON, radius_grid(REFERENCE_EPSILON, 9))
        assert sum(evaluations.values()) <= 1200

    def test_small_epsilon_finds_a_positive_c(self, evaluations):
        # the bisection over c found none: c_tol = 1e-5 exceeds the cap 5.1e-7
        c, _ = largest_certifiable_c(CertifyParams(0.01, 0.0225))
        assert c > 0.0
        assert sum(evaluations.values()) <= 20_000

    def test_small_epsilon_unreachable_target_fails_fast(self, evaluations):
        # Phi(eps) = 4.796e-7 is below the target; a depth-first search took 554 745 evaluations
        result = certify_lower_bound(CertifyParams(0.01, 0.0225), 5.136e-7)
        assert not result.success and "depth" in result.message
        assert result.witness.d_hi == 0.01
        assert sum(evaluations.values()) <= 12_000

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


# log 3 and one eps from each tenth of [0.9, 1.2], nine radii each, as in the radius-scan benchmark
_SCAN_PARAMS = [CertifyParams(eps, R)
                for eps in [REFERENCE_EPSILON] + [0.9 + 0.03 * (k + 0.5) for k in range(10)]
                for R in radius_grid(eps, 9)]


class TestBestFirstSearch:
    @pytest.mark.parametrize("params", _SCAN_PARAMS, ids=lambda p: f"{p.epsilon:.4f}-{p.R:.4f}")
    def test_largest_c_is_certified_and_within_c_tol(self, params):
        found = largest_certifiable_c(params)
        c, cert = found
        assert 0.0 < c < cert.certified_c - DEFAULT_SLACK
        assert certify_lower_bound(params, c).success
        # no search here stops at max depth, so the gap meets c_tol (up to the rounding of c)
        assert 0.0 <= found.gap <= 1e-5 + math.ulp(c)
        for cell in cert.cells:
            for d in (cell.d_lo, 0.5 * (cell.d_lo + cell.d_hi), cell.d_hi):
                assert c <= phi_at(params, d)

    def test_gap_bounds_the_best_c(self, ref_params):
        # c + gap = min(U - slack, cap): no c_tol certifies past it
        found = largest_certifiable_c(ref_params)
        best = found[0] + found.gap
        assert not certify_lower_bound(ref_params, best).success
        tight = largest_certifiable_c(ref_params, c_tol=1e-8)
        assert found[0] < tight[0] < best
        assert tight.gap <= 1e-8 + math.ulp(tight[0])

    def test_depth_stop_is_not_a_failure(self, ref_params):
        # a c_tol of 1e-12 needs cells finer than max depth 12; the search stops there with a larger gap
        found = largest_certifiable_c(ref_params, c_tol=1e-12, max_depth=12)
        assert found[0] > 0.49 and found.gap > 1e-12
        assert certify_lower_bound(ref_params, found[0], max_depth=12).success

    def test_c_tol_below_the_slack_is_met(self, ref_params):
        # every certified c lies below U - slack, so the gap is measured from there and can meet it
        found = largest_certifiable_c(ref_params, c_tol=1e-10)
        assert 0.0 <= found.gap <= 1e-10
        assert certify_lower_bound(ref_params, found[0]).success

    @pytest.mark.parametrize("index", [19, 20])
    def test_midpoint_samples_of_u_are_needed(self, index):
        # at eps = 15 Phi is least inside I, so U from Phi(eps) alone left gaps of 224 and 751
        found = largest_certifiable_c(CertifyParams(15.0, radius_grid(15.0, 21)[index]))
        assert 0.0 <= found.gap <= 1e-5

    def test_cap_is_returned_exactly(self):
        eps = REFERENCE_EPSILON
        c, _ = largest_certifiable_c(CertifyParams(eps, radius_grid(eps, 9)[-1]))
        assert c == ball_volume(eps / 2) - 10 * DEFAULT_SLACK


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
            (2.252155191769625, 0.39548623031489244, 320),
            (2.3070858062030304, 0.45321932662215403, 315),
            (2.362016420636436, 0.5123975331418924, 314),
            (2.4169470350698417, 0.5715544494841776, 317),
            (2.471877649503247, 0.6289359681378355, 324),
            (2.5268082639366525, 0.6824679020283327, 335),
            (2.581738878370058, 0.7297206857863081, 352),
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

    def test_skipped_radii_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = optimize_radius(1.0, radius_grid(1.0, 9), max_depth=1)
        assert [R for R, _ in scan.skipped] == radius_grid(1.0, 9)[:3]
        assert all("max depth 1 exhausted" in reason for _, reason in scan.skipped)

    def test_quotient_near_an_integer_is_skipped_with_condition_c(self):
        # two adjacent floats whose quotients are 327.00000000000057 and 326.9999999999998
        # printed valences 327 and 326; rank_bound refuses both
        near = [2.214201133119196, 2.2142011331191966]
        scan = optimize_radius(REFERENCE_EPSILON, near + [2.3])
        assert [R for R, _ in scan.skipped] == near
        assert all(reason.startswith("condition (c) violated") for _, reason in scan.skipped)
        assert [e.R for e in scan.entries] == [2.3]
        with pytest.raises(CertificationError, match="condition \\(c\\).*condition \\(c\\)"):
            optimize_radius(REFERENCE_EPSILON, near)

    def test_every_radius_failing_names_each(self):
        grid = radius_grid(0.001, 3)
        with pytest.raises(CertificationError) as info:
            optimize_radius(0.001, grid)
        message = str(info.value)
        assert message.startswith("certification failed at every grid point: ")
        assert all(f"R={R}: no positive lower bound" in message for R in grid)

    @pytest.mark.parametrize("c_tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_c_tol(self, c_tol):
        # a non-positive c_tol used to bisect forever; nan skipped the bisection
        with pytest.raises(DomainError):
            optimize_radius(1.0, [2.2], c_tol=c_tol)
        with pytest.raises(DomainError):
            largest_certifiable_c(CertifyParams(1.0, 2.2), c_tol=c_tol)


class TestSerialization:
    def test_reference_certificate_bits(self):
        # pins all 13 fields of the 47 reference cells
        assert _cells_digest(verify_reference_partition()) == (
            "14bfcd8e1d1d8b40ccd0ef80863821a51bbc32a4cf1ff2b8a35e6bbb6556c462"
        )

    def test_reference_csv_bytes(self):
        text = certificate_to_csv(verify_reference_partition())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5fdaf38e69163f94c1a3e65dc5625db8dac30add412cb72bbe6d113321585f1d"
        )

    def test_json_round_trip_is_exact(self, ref_params):
        # the 47 reference cells and the 96 cells of the largest certifiable c
        for cert in (verify_reference_partition(), largest_certifiable_c(ref_params)[1]):
            text = certificate_to_json(cert)
            back = certificate_from_json(text)
            assert back == cert
            assert certificate_to_json(back) == text

    def test_json_schema_fields(self):
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


def _set(root, path, value):
    """root with the entry at path set to value, or deleted when value is _DELETE."""
    *head, last = path
    obj = root
    for key in head:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = value
    return root


def _forge_phi_lo(root, value):
    """root with every cell's phiLo and certifiedC set to value."""
    for cell in root["cells"]:
        cell["phiLo"] = value
    root["certifiedC"] = value
    return root


_DELETE = object()


@pytest.mark.parametrize("edit, names", [
    pytest.param(lambda o: _set(o, ("cells", 3, "good"), "false"), ("cells[3]", "'good'"),
                 id="good-as-string"),
    pytest.param(lambda o: _set(o, ("cells", 5, "good"), 1), ("cells[5]", "'good'"),
                 id="good-as-number"),
    pytest.param(lambda o: _set(o, ("cells", 7, "phiLo"), "0.6"), ("cells[7]", "'phiLo'"),
                 id="phiLo-as-string"),
    pytest.param(lambda o: _set(o, ("cells", 0, "dLo"), None), ("cells[0]", "'dLo'"),
                 id="dLo-null"),
    pytest.param(lambda o: _set(o, ("cells", 2, "hHi"), True), ("cells[2]", "'hHi'"),
                 id="hHi-as-boolean"),
    pytest.param(lambda o: _set(o, ("cells", 9, "sigmaLo"), _DELETE), ("cells[9]", "'sigmaLo'"),
                 id="missing-cell-key"),
    pytest.param(lambda o: _set(o, ("cells", 4, "margins"), [0.5]), ("cells[4]", "'margins'"),
                 id="one-margin"),
    pytest.param(lambda o: _set(o, ("cells", 4, "margins", 1), "0.5"), ("cells[4]", "'margins'"),
                 id="margin-as-string"),
    pytest.param(lambda o: _set(o, ("cells", 6), [1.0, 2.0]), ("cells[6]",), id="cell-not-object"),
    pytest.param(lambda o: _set(o, ("slack",), _DELETE), ("'slack'",), id="missing-slack"),
    pytest.param(lambda o: _set(o, ("epsilon",), "1.0986122886681098"), ("'epsilon'",),
                 id="epsilon-as-string"),
    pytest.param(lambda o: _set(o, ("cells",), {}), ("'cells'",), id="cells-not-array"),
    pytest.param(lambda o: [o], ("not a JSON object",), id="top-level-array"),
    # well-typed but false: the loader re-derives every cell and compares
    pytest.param(lambda o: _forge_phi_lo(o, 0.9), ("cells[0]", "'phiLo'"), id="forged-phiLo"),
    pytest.param(lambda o: _set(o, ("cells", 8, "margins"), [-1.0, -1.0, -1.0]),
                 ("cells[8]", "'margins'"), id="negative-margins"),
    pytest.param(lambda o: _set(o, ("cells", 11, "phiLo"), math.nan), ("cells[11]", "'phiLo'"),
                 id="phiLo-NaN"),
    pytest.param(lambda o: _set(o, ("cells", 12, "dLo"), 10 ** 400), ("cells[12]", "'dLo'"),
                 id="dLo-huge-int"),
    pytest.param(lambda o: _set(o, ("cells", 13, "good"), False), ("cells[13]", "'good'"),
                 id="good-flipped"),
])
def test_malformed_json_is_a_certification_error(edit, names):
    # each used to load, or to raise KeyError, IndexError, TypeError or OverflowError
    obj = edit(json.loads(certificate_to_json(verify_reference_partition())))
    with pytest.raises(CertificationError) as info:
        certificate_from_json(json.dumps(obj))  # writes a nan as the literal NaN
    assert all(name in str(info.value) for name in names)


@pytest.mark.parametrize("text", [
    pytest.param("not json", id="not-json"),
    pytest.param('{"epsilon": ' + "1" * 5001 + "}", id="int-past-digit-limit"),
])
def test_unreadable_json_is_a_certification_error(text):
    # json.loads raised JSONDecodeError, or a bare ValueError past 4300 digits
    with pytest.raises(CertificationError, match="not readable JSON"):
        certificate_from_json(text)
