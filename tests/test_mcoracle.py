import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare

from hypercert import (
    BASEPOINT,
    DomainError,
    axis_point,
    ball_volume,
    cap_volume,
    estimate_volume,
    hdist,
    in_ball,
    in_cap,
    in_cone,
    in_halfspace,
    in_icecream,
    in_lens,
    minkowski_dot,
    omega,
    psi,
    sample_ball,
    theta,
    translate_to,
)
from hypercert.cli import _SHAPE_DEFAULTS, _mc_setup
from hypercert.hypgeo import MAX_RADIUS
from hypercert.mcoracle import _BLOCK, _radial_inverse


def hpoint(x1: float, x2: float, x3: float) -> np.ndarray:
    """The sheet point with the given spatial coordinates."""
    s = np.array([0.0, x1, x2, x3])
    s[0] = math.sqrt(1.0 + x1 * x1 + x2 * x2 + x3 * x3)
    return s


class TestDistance:
    def test_zero_iff_equal(self):
        p = hpoint(0.3, -0.2, 0.9)
        assert hdist(p, p) == 0.0
        q = hpoint(0.3, -0.2, 0.91)
        assert hdist(p, q) > 0.0

    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_translation_distance(self, t):
        assert hdist(BASEPOINT, axis_point(t)) == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("t", [400.0, -400.0, math.nan, math.inf])
    def test_axis_point_rejects_far_distances(self, t):
        with pytest.raises(DomainError):
            axis_point(t)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q, s = (hpoint(*rng.normal(scale=1.2, size=3)) for _ in range(3))
            assert hdist(p, q) == pytest.approx(hdist(q, p), rel=1e-12)
            assert hdist(p, s) <= hdist(p, q) + hdist(q, s) + 1e-12

    def test_column_sums_match_np_sum(self):
        # hdist and minkowski_dot add the three space columns one at a time;
        # np.sum over the last axis adds them in the same order, bit for bit
        cloud = sample_ball(axis_point(0.4), 1.5, 10_000, seed=35)
        q = hpoint(0.3, -0.2, 0.9)
        diff = cloud - q
        ref = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(
            np.sum(diff[..., 1:] ** 2, axis=-1) - diff[..., 0] ** 2, 0.0)))
        assert np.array_equal(hdist(cloud, q), ref)
        dots = cloud[:, 0] * q[0] - np.sum(cloud[:, 1:] * q[1:], axis=-1)
        assert np.array_equal(minkowski_dot(cloud, q), dots)

    def test_rejects_off_sheet(self):
        with pytest.raises(DomainError):
            hdist(np.array([1.0, 0.5, 0.0, 0.0]), BASEPOINT)
        with pytest.raises(DomainError):
            hdist(np.array([1.0, 0.0, 0.0]), BASEPOINT)
        with pytest.raises(DomainError):  # nan compared false against both bounds, and passed
            hdist(np.array([math.nan, 0.0, 0.0, 0.0]), BASEPOINT)


class TestTranslation:
    def test_carries_basepoint_to_target(self):
        target = hpoint(0.7, -0.4, 0.2)
        moved = translate_to(BASEPOINT[None, :], target)
        assert hdist(moved[0], target) < 1e-12

    @pytest.mark.parametrize("target", [hpoint(0.7, -0.4, 0.2), axis_point(2.0), BASEPOINT])
    def test_boost_of_a_cloud(self, target):
        cloud = np.concatenate([BASEPOINT[None, :], sample_ball(BASEPOINT, 1.5, 10_000, seed=34)])
        moved = translate_to(cloud, target)
        assert np.max(np.abs(moved[0] - target)) < 1e-12
        assert np.max(np.abs(minkowski_dot(moved, moved) - 1.0)) < 1e-12
        # the boost formula point by point, as a reference; the matrix sums in another order
        s = BASEPOINT + target
        xu, xs = minkowski_dot(cloud, BASEPOINT), minkowski_dot(cloud, s)
        ref = cloud + 2.0 * xu[:, None] * target - (xs / (1.0 + target[0]))[:, None] * s
        ref[:, 0] = np.sqrt(1.0 + np.sum(ref[:, 1:] ** 2, axis=-1))
        assert np.max(np.abs(moved - ref)) < 1e-12

    def test_is_an_isometry(self):
        rng = np.random.default_rng(11)
        pts = np.stack([hpoint(*rng.normal(size=3)) for _ in range(8)])
        moved = translate_to(pts, axis_point(0.9))
        assert np.max(np.abs(minkowski_dot(moved, moved) - 1.0)) < 1e-12
        before = hdist(pts[:1], pts[1:])
        after = hdist(moved[:1], moved[1:])
        assert np.max(np.abs(before - after)) < 1e-10


def _newton_gaps(u: np.ndarray, t: np.ndarray, radius: float) -> list[float]:
    """|c| / t for each t > 0, with c one Newton correction towards the root of
    sinh 2t - 2t = u (sinh 2r - 2r), computed in mpmath.

    To first order |c| is t's distance from the exact root, so this is t's
    relative error.  The working precision covers the 2 log10(1/t) digits that
    sinh 2t - 2t ~ 4t^3/3 cancels.
    """
    digits = 2 * max(0, -math.floor(math.log10(float(np.min(t)))))
    with mpmath.workdps(30 + digits):
        two_r = 2 * mpmath.mpf(radius)
        norm = mpmath.sinh(two_r) - two_r
        gaps = []
        for ui, ti in zip(u.tolist(), t.tolist()):
            x, s = mpmath.mpf(ti), mpmath.sinh(ti)  # sinh 2t = 2 sinh t cosh t
            f = 2 * s * mpmath.sqrt(1 + s * s) - 2 * x - ui * norm
            gaps.append(float(abs(f / (4 * s * s)) / ti))
        return gaps


class TestRadialInverse:
    """_radial_inverse against one Newton correction computed in mpmath."""

    EDGES = (1e-300, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0)

    def check(self, radius, count, seed):
        # each edge alone, so that u = 1e-300 alone pays for its precision
        batches = [np.array([u]) for u in self.EDGES]
        batches.append(np.random.default_rng(seed).random(count))
        for u in batches:
            t = _radial_inverse(u, radius)
            assert np.all((t > 0.0) & (t <= radius))
            assert max(_newton_gaps(u, t, radius)) < 1e-12
        assert _radial_inverse(np.zeros(1), radius)[0] == 0.0

    @pytest.mark.parametrize("radius", [1e-3, 0.5, 1.0, 1.6, 5.0])
    def test_matches_mpmath_root(self, radius):
        self.check(radius, 10_000, seed=31)

    @pytest.mark.parametrize("radius", [50.0, 300.0, MAX_RADIUS])
    def test_fixed_steps_suffice_up_to_overflow(self, radius):
        self.check(radius, 300, seed=32)


OFF_SHEET = np.array([[1.0, 0.5, 0.0, 0.0]])
_TOWARD, _SCOOP = axis_point(1.0), axis_point(1.05)


@pytest.mark.parametrize("predicate", [
    pytest.param(lambda p: in_ball(p, BASEPOINT, 1.0), id="ball"),
    pytest.param(lambda p: in_halfspace(p, BASEPOINT, _TOWARD, 0.5), id="halfspace"),
    pytest.param(lambda p: in_cap(p, BASEPOINT, _TOWARD, 1.0, 0.5), id="cap"),
    pytest.param(lambda p: in_lens(p, BASEPOINT, 1.2, _TOWARD, 0.7), id="lens"),
    pytest.param(lambda p: in_cone(p, BASEPOINT, _TOWARD, 1.0, 0.5), id="cone"),
    pytest.param(lambda p: in_icecream(p, BASEPOINT, _SCOOP, 0.55), id="icecream"),
])
def test_predicates_reject_off_sheet_cloud(predicate):
    cloud = sample_ball(BASEPOINT, 1.0, 1000, seed=33)
    predicate(cloud)
    with pytest.raises(DomainError):
        predicate(np.concatenate([cloud, OFF_SHEET]))


class TestSampler:
    def test_fixed_seed_reproduces_stream(self):
        a = sample_ball(BASEPOINT, 1.0, 1000, seed=99)
        b = sample_ball(BASEPOINT, 1.0, 1000, seed=99)
        assert np.array_equal(a, b)
        c = sample_ball(BASEPOINT, 1.0, 1000, seed=100)
        assert not np.array_equal(a, c)

    def test_samples_stay_inside(self):
        center = axis_point(0.8)
        pts = sample_ball(center, 0.7, 20000, seed=1)
        assert float(np.max(hdist(pts, center))) < 0.7

    def test_inner_ball_fraction(self):
        r, n = 1.0, 200_000
        pts = sample_ball(BASEPOINT, r, n, seed=2)
        frac = float(np.mean(hdist(pts, BASEPOINT) < r / 2))
        p = ball_volume(r / 2) / ball_volume(r)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 3 * se

    def test_mean_radial_distance(self):
        r, n = 1.0, 200_000
        pts = sample_ball(BASEPOINT, r, n, seed=3)
        dists = hdist(pts, BASEPOINT)
        num = quad(lambda t: t * math.sinh(t) ** 2, 0, r)[0]
        den = quad(lambda t: math.sinh(t) ** 2, 0, r)[0]
        se = float(np.std(dists)) / math.sqrt(n)
        assert abs(float(np.mean(dists)) - num / den) < 3 * se

    def test_radial_deciles_chisquare(self):
        # decile edges from the analytic radial CDF B(t)/B(r)
        r, n = 1.2, 200_000
        pts = sample_ball(BASEPOINT, r, n, seed=4)
        dists = np.asarray(hdist(pts, BASEPOINT))
        from scipy.optimize import brentq

        edges = [0.0] + [
            brentq(lambda t, k=k: ball_volume(t) - k / 10 * ball_volume(r), 1e-12, r)
            for k in range(1, 10)
        ] + [r]
        counts = np.histogram(dists, bins=edges)[0]
        _, pvalue = chisquare(counts)
        assert pvalue > 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_ball(BASEPOINT, -1.0, 10, seed=0)
        with pytest.raises(DomainError):
            sample_ball(BASEPOINT, 400.0, 10, seed=0)  # sinh 2r overflows
        with pytest.raises(DomainError):
            sample_ball(BASEPOINT, 1.0, 0, seed=0)
        with pytest.raises(DomainError):
            sample_ball(BASEPOINT, 1.0, 10, seed=-1)


class TestEstimator:
    def test_full_envelope_is_exact(self):
        est = estimate_volume(lambda p: np.ones(len(p), dtype=bool), BASEPOINT, 0.9, 10_000, seed=5)
        assert est.mean == ball_volume(0.9)
        assert est.standard_error == 0.0
        assert not est.zero_hits

    def test_zero_hits_flagged(self):
        # the flag is the one record of zero hits: no warning is raised as well
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_volume(lambda p: np.zeros(len(p), dtype=bool), BASEPOINT, 0.9, 1000, seed=6)
        assert est.mean == 0.0 and est.zero_hits

    def test_cap_against_closed_form(self):
        r, w, n = 1.0, 0.5, 200_000
        toward = axis_point(1.0)
        est = estimate_volume(
            lambda p: in_cap(p, BASEPOINT, toward, r, w), BASEPOINT, r, n, seed=7
        )
        assert abs(est.mean - cap_volume(r, w)) < 3 * est.standard_error

    def test_deterministic_given_seed(self):
        pred = lambda p: in_ball(p, BASEPOINT, 0.5)
        a = estimate_volume(pred, BASEPOINT, 1.0, 50_000, seed=8)
        b = estimate_volume(pred, BASEPOINT, 1.0, 50_000, seed=8)
        assert a == b

    @pytest.mark.parametrize("shape", sorted(_SHAPE_DEFAULTS))
    def test_blocks_are_the_whole_cloud(self, shape):
        # estimate_volume places and tests the points block by block; the
        # blocks are sample_ball's cloud bit for bit, so the hits are its hits
        predicate, center, radius, _ = _mc_setup(shape, _SHAPE_DEFAULTS[shape])
        for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7):
            blocks = []

            def recording(p):
                blocks.append(p.copy())
                return predicate(p)

            est = estimate_volume(recording, center, radius, count, seed=14)
            cloud = sample_ball(center, radius, count, seed=14)
            assert np.array_equal(np.concatenate(blocks), cloud)
            assert max(len(b) for b in blocks) <= _BLOCK + 1
            assert min(len(b) for b in blocks) > 1 or count == 1
            hits = np.count_nonzero(predicate(cloud))
            assert est.mean == ball_volume(radius) * (hits / count)
            assert est == estimate_volume(predicate, center, radius, count, seed=14)

    @pytest.mark.parametrize("predicate", [
        pytest.param(lambda p: True, id="scalar"),
        pytest.param(lambda p: np.ones(p.shape, dtype=bool), id="per-coordinate"),
        pytest.param(lambda p: np.ones(len(p)), id="float"),
    ])
    def test_rejects_malformed_predicate_result(self, predicate):
        # np.count_nonzero would count one hit per block, four per point, or each nonzero float
        with pytest.raises(DomainError, match="one bool per point"):
            estimate_volume(predicate, BASEPOINT, 0.9, 1000, seed=15)


class TestPredicates:
    def test_cap_implies_ball(self):
        pts = sample_ball(BASEPOINT, 1.5, 50_000, seed=9)
        toward = axis_point(1.0)
        caps = in_cap(pts, BASEPOINT, toward, 1.0, 0.3)
        balls = in_ball(pts, BASEPOINT, 1.0)
        assert np.all(~caps | balls)

    def test_halfspace_sign_convention(self):
        toward = axis_point(1.0)
        ahead = axis_point(0.6)[None, :]
        behind = axis_point(-0.6)[None, :]
        assert in_halfspace(ahead, BASEPOINT, toward, 0.5)[0]
        assert not in_halfspace(behind, BASEPOINT, toward, 0.5)[0]
        assert in_halfspace(behind, BASEPOINT, toward, -0.7)[0]

    def test_lens_is_intersection(self):
        c2 = axis_point(1.0)
        pts = sample_ball(c2, 0.7, 20_000, seed=10)
        lens = in_lens(pts, BASEPOINT, 1.2, c2, 0.7)
        assert np.array_equal(lens, in_ball(pts, BASEPOINT, 1.2) & in_ball(pts, c2, 0.7))

    def test_cone_contains_apex_and_axis(self):
        toward = axis_point(1.0)
        a, beta = 1.0, 0.5
        probe = np.stack([BASEPOINT, axis_point(0.2), axis_point(psi(a, beta) - 1e-9)])
        assert in_cone(probe, BASEPOINT, toward, a, beta).all()
        beyond = axis_point(psi(a, beta) + 1e-6)[None, :]
        assert not in_cone(beyond, BASEPOINT, toward, a, beta)[0]

    def test_cone_rejects_degenerate_axis(self):
        with pytest.raises(DomainError):
            in_cone(BASEPOINT[None, :], BASEPOINT, BASEPOINT, 1.0, 0.5)

    def test_icecream_contains_apex_and_scoop(self):
        r, d = 0.55, 1.05
        scoop = axis_point(d)
        probe = np.stack([BASEPOINT, scoop])
        assert in_icecream(probe, BASEPOINT, scoop, r).all()
        # the whole scoop ball is inside (sampled)
        pts = sample_ball(scoop, r - 1e-9, 20_000, seed=12)
        assert in_icecream(pts, BASEPOINT, scoop, r).all()

    def test_icecream_far_point_outside(self):
        r, d = 0.55, 1.05
        scoop = axis_point(d)
        far = axis_point(d + r + 0.01)[None, :]
        assert not in_icecream(far, BASEPOINT, scoop, r)[0]

    def test_icecream_requires_scoop_outside_apex(self):
        with pytest.raises(DomainError):
            in_icecream(BASEPOINT[None, :], BASEPOINT, axis_point(0.5), 0.7)

    def test_icecream_volume_identity(self):
        # vol Z = B(r) + cone - (cone n scoop) within MC error
        r, d, n = 0.55, 1.05, 200_000
        scoop = axis_point(d)
        om, th = omega(r, d), theta(r, d)
        from hypercert import cone_volume

        closed = ball_volume(r) + cone_volume(om, th) - cap_volume(r, d - psi(om, th))
        est = estimate_volume(
            lambda p: in_icecream(p, BASEPOINT, scoop, r), BASEPOINT, d + r, n, seed=13
        )
        assert abs(est.mean - closed) < 3 * est.standard_error



class TestGenericAxis:
    """Predicates about an axis whose anchor is not the basepoint and whose direction is not x1.

    Points are built where the axis is the x1-axis through the basepoint, then
    rotated about the basepoint and carried to the anchor, so their axial
    coordinate and angle to the axis are known exactly.
    """

    ANCHOR = hpoint(0.4, -0.3, 0.5)
    ROTATION = np.eye(4)
    ROTATION[1:, 1:] = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))[0]
    TWIST = 0.7  # the direction about the axis in which points leave it

    def place(self, *local):
        return translate_to(np.stack(local) @ self.ROTATION, self.ANCHOR)

    def fermi(self, t, h):
        # axial coordinate t, distance h from the axis
        return np.array([math.cosh(t) * math.cosh(h), math.sinh(t) * math.cosh(h),
                         math.sinh(h) * math.cos(self.TWIST), math.sinh(h) * math.sin(self.TWIST)])

    def polar(self, s, angle):
        # distance s from the anchor, at the given angle to the axis
        ring = math.sinh(s) * math.sin(angle)
        return np.array([math.cosh(s), math.sinh(s) * math.cos(angle),
                         ring * math.cos(self.TWIST), ring * math.sin(self.TWIST)])

    @property
    def toward(self):
        return self.place(axis_point(1.0))[0]

    @pytest.mark.parametrize("offset", [-0.7, 0.0, 0.2, 0.6])
    def test_halfspace_flips_at_offset(self, offset):
        pts = self.place(self.fermi(offset + 1e-9, 0.4), self.fermi(offset - 1e-9, 0.4))
        assert in_halfspace(pts, self.ANCHOR, self.toward, offset).tolist() == [True, False]

    @pytest.mark.parametrize("w", [-0.4, 0.3])
    def test_cap_flips_at_plane(self, w):
        pts = self.place(self.fermi(w + 1e-9, 0.2), self.fermi(w - 1e-9, 0.2))
        assert in_cap(pts, self.ANCHOR, self.toward, 1.0, w).tolist() == [True, False]

    def test_cone_flips_at_angle_and_base(self):
        a, beta = 1.0, 0.5
        base = psi(a, beta)
        sides = self.place(self.polar(0.5, beta - 1e-9), self.polar(0.5, beta + 1e-9))
        assert in_cone(sides, self.ANCHOR, self.toward, a, beta).tolist() == [True, False]
        ends = self.place(self.fermi(base - 1e-9, 0.05), self.fermi(base + 1e-9, 0.05))
        assert in_cone(ends, self.ANCHOR, self.toward, a, beta).tolist() == [True, False]


class TestClosedFormAnchors:
    """The fixed configurations used as cross-check anchors throughout."""

    N = 200_000

    def test_lens_anchor(self):
        from hypercert import lens_volume

        r1, r2, d = 1.2, 0.7, 1.0
        c2 = axis_point(d)
        est = estimate_volume(
            lambda p: in_lens(p, BASEPOINT, r1, c2, r2), c2, r2, self.N, seed=21
        )
        assert abs(est.mean - lens_volume(r1, r2, d)) < 3 * est.standard_error

    def test_cone_anchor(self):
        from hypercert import cone_volume

        a, beta = 1.0, 0.5
        est = estimate_volume(
            lambda p: in_cone(p, BASEPOINT, axis_point(1.0), a, beta),
            BASEPOINT, a, self.N, seed=22,
        )
        assert abs(est.mean - cone_volume(a, beta)) < 3 * est.standard_error

    def test_clipped_cone_anchor(self):
        from hypercert import phi

        rho, r, d = 1.3, 0.55, 1.05
        scoop = axis_point(d)
        est = estimate_volume(
            lambda p: in_icecream(p, BASEPOINT, scoop, r) & in_ball(p, BASEPOINT, rho),
            BASEPOINT, rho, self.N, seed=23,
        )
        assert abs(est.mean - phi(rho, r, d)) < 3 * est.standard_error
