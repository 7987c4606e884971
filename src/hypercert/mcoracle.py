"""Monte-Carlo volume estimation in the hyperboloid model of H^3.

Points live on the sheet {x : <x,x> = 1, x0 >= 1} of Minkowski space with
signature (+,-,-,-), where <x,y> = x0*y0 - x1*y1 - x2*y2 - x3*y3.  Distances
and side-of-plane tests are algebraic in Minkowski products, so membership
predicates need no conformal-factor bookkeeping.

estimate_volume draws uniform (volume-measure) samples inside an envelope
ball and counts predicate hits; it is the ground-truth oracle for every
closed form in hypgeo.  Randomness comes from a counter-based Philox stream
keyed by a 64-bit seed, so results are reproducible regardless of host or
thread count.

estimate_volume draws the whole stream first, then places the points and
calls the predicate one block of _BLOCK points at a time, so it never holds
the whole cloud.  Its predicates must therefore be pointwise: a predicate
that looks at the whole cloud, such as a quantile, would see one block.
The points, and so the hit counts, are bitwise those of sample_ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import MAX_RADIUS, DomainError, _check_radius, ball_volume, omega, psi, theta

__all__ = [
    "BASEPOINT",
    "McEstimate",
    "minkowski_dot",
    "assert_on_sheet",
    "axis_point",
    "hdist",
    "translate_to",
    "sample_ball",
    "estimate_volume",
    "in_ball",
    "in_halfspace",
    "in_cap",
    "in_lens",
    "in_cone",
    "in_icecream",
]

ON_SHEET_TOL = 1e-10

BASEPOINT = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class McEstimate:
    """A Monte-Carlo volume estimate with its binomial standard error."""

    mean: float
    standard_error: float
    samples: int
    seed: int
    zero_hits: bool = False


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u, v> with signature (+,-,-,-); broadcasts over leading axes."""
    # column by column, with no (..., 4) temporaries; the space terms add in
    # the order np.sum(axis=-1) adds them
    x = [u[..., k] * v[..., k] for k in range(4)]
    return x[0] - (x[1] + x[2] + x[3])


def assert_on_sheet(p: np.ndarray, tol: float = ON_SHEET_TOL) -> None:
    """Reject points whose Minkowski norm strays from 1 by more than tol x0^2, or with x0 < 1.

    The rounding error of <p, p> grows like x0^2 = cosh^2 of the distance
    from the basepoint, so the bound on it does too.  A nan or infinite
    coordinate fails a comparison and is rejected.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 4:
        raise DomainError(f"hyperboloid points have 4 coordinates, got shape {p.shape}")
    x0 = p[..., 0]
    err = np.abs(minkowski_dot(p, p) - 1.0)
    if not (np.all(err <= tol * (x0 * x0)) and np.all(x0 >= 1.0 - tol)):
        raise DomainError(f"point off the hyperboloid sheet (max norm error {float(np.max(err)):.3e})")


def axis_point(t: float) -> np.ndarray:
    """The point at signed distance t from the basepoint along the x1-axis; |t| <= MAX_RADIUS."""
    if not abs(t) <= MAX_RADIUS:
        raise DomainError(f"axis distance must be at most {MAX_RADIUS} in size, got {t}")
    return np.array([math.cosh(t), math.sinh(t), 0.0, 0.0])


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # hdist without the on-sheet checks, for callers that have made them
    p, q = np.asarray(p), np.asarray(q)
    x = [(p[..., k] - q[..., k]) ** 2 for k in range(4)]
    sq = x[1] + x[2] + x[3] - x[0]
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(sq, 0.0)))


def hdist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hyperbolic distance arccosh(<p, q>); validates both inputs on-sheet.

    Evaluated as 2 arcsinh(sqrt(-<p - q, p - q>) / 2), which agrees with the
    arccosh form (since -<p-q, p-q> = 2 cosh d - 2 = 4 sinh^2(d/2)) but stays
    exact near coincident points where arccosh loses half its digits.
    """
    assert_on_sheet(p)
    assert_on_sheet(q)
    return _dist(p, q)


_SIGNATURE = np.array([1.0, -1.0, -1.0, -1.0])


def translate_to(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Apply the hyperbolic translation carrying the basepoint to target.

    Uses the Lorentz boost T(x) = x + 2<x,u>v - <x,u+v>/(1+<u,v>) (u+v) with
    u the basepoint and v the target, as one 4x4 matrix acting on row
    vectors; outputs are renormalized back onto the sheet to shed roundoff.
    """
    assert_on_sheet(target)
    u = BASEPOINT
    v = np.asarray(target, dtype=float)
    s = u + v
    g = 1.0 + minkowski_dot(u, v)
    # <x,y> = x . (_SIGNATURE * y), so T(x) = x @ boost
    boost = np.eye(4) + 2.0 * np.outer(_SIGNATURE * u, v) - np.outer(_SIGNATURE * s, s) / g
    out = points @ boost
    out[..., 0] = np.sqrt(1.0 + (out[..., 1] ** 2 + out[..., 2] ** 2 + out[..., 3] ** 2))
    return out


# (sinh x - x) / x^3 = sum_k x^(2k) / (2k + 3)!.  Below x = 0.5 these seven
# terms give sinh x - x to a rounding; there sinh x - x cancels.
_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in range(7))
_SERIES_BELOW = 0.5

# Newton steps in _radial_inverse: enough to reach a rounding from either
# upper bound, at every radius up to the overflow of sinh 2r.
_NEWTON_STEPS = 5
_TINY = np.finfo(float).tiny


def _sinh_minus_x(x: np.ndarray, out: np.ndarray | None = None,
                  tmp: np.ndarray | None = None) -> np.ndarray:
    """sinh x - x for x >= 0, into out if given, with tmp as scratch of x's shape."""
    if out is None:
        out, tmp = np.empty_like(x), np.empty_like(x)
    np.multiply(x, x, out=tmp)
    np.multiply(tmp, _SERIES[-1], out=out)
    for c in _SERIES[-2:0:-1]:
        out += c
        out *= tmp
    out += _SERIES[0]
    out *= tmp
    out *= x
    np.sinh(x, out=tmp)
    tmp -= x
    np.copyto(out, tmp, where=x >= _SERIES_BELOW)
    return out


def _radial_inverse(u: np.ndarray, radius: float) -> np.ndarray:
    # Invert the radial CDF (sinh 2t - 2t) / (sinh 2r - 2r) by Newton's method
    # on f(t) = sinh 2t - 2t = T, where f' = 4 sinh^2 t.  f is convex and
    # increasing, so Newton's method falls monotonically onto the root from
    # any upper bound.  Two are at hand: f(t) >= 4t^3/3 gives cbrt(3T/4), and
    # sinh 2t = T + 2t <= T + 2r gives asinh(T + 2r) / 2; each is the tighter
    # one at one end of [0, r].
    target = u * float(_sinh_minus_x(np.float64(2.0 * radius)))
    t = np.cbrt(0.75 * target)
    np.minimum(t, 0.5 * np.arcsinh(target + 2.0 * radius), out=t)
    x, f, df = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    for _ in range(_NEWTON_STEPS):
        np.multiply(t, 2.0, out=x)
        _sinh_minus_x(x, f, df)
        f -= target
        np.sinh(t, out=df)
        df *= df
        df *= 4.0
        # at u = 0, t = 0 and f' = 0: keep t there
        np.maximum(df, _TINY, out=df)
        f /= df
        t -= f
    return np.clip(t, 0.0, radius, out=t)


# Points per block in estimate_volume, so that a block's working arrays stay
# near a core's L2 cache: with 2 MiB of L2 per core, 2^13 to 2^15 ran at
# 4.3-5.0 M samples/s and 2^17 at 3.8-3.9 M.
_BLOCK = 1 << 15


def _draw(center: np.ndarray, radius: float, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # Check the arguments, then draw the whole stream: count normal triples
    # (the directions), then count uniforms (the radial CDF values).
    assert_on_sheet(center)
    _check_radius(radius=radius)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    direction = rng.normal(size=(count, 3))
    return direction, rng.random(count)


def _place(direction: np.ndarray, u: np.ndarray, radius: float, center: np.ndarray) -> np.ndarray:
    # The sample points for the draws (direction, u); normalizes direction in
    # place.  Each step works row by row, so a slice of two or more draws
    # gives the same slice of the points, bit for bit.
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    t = _radial_inverse(u, radius)
    local = np.empty((len(u), 4))
    local[:, 0] = np.cosh(t)
    local[:, 1:] = np.sinh(t)[:, None] * direction
    return translate_to(local, center)


def sample_ball(center: np.ndarray, radius: float, count: int, seed: int) -> np.ndarray:
    """count i.i.d. volume-uniform samples in the open ball of the given radius.

    Directions are uniform on the 2-sphere, radii follow the sinh^2 density,
    and the cloud is transported from the basepoint to center.  A fixed seed
    reproduces the identical stream.
    """
    return _place(*_draw(center, radius, count, seed), radius, center)


def estimate_volume(predicate, center: np.ndarray, radius: float, count: int, seed: int) -> McEstimate:
    """Estimate the volume of {p : predicate(p)} inside the envelope ball.

    The region must be contained in the ball of the given radius about
    center (each predicate documents its natural envelope).  mean is
    B(radius) * hits/count and standard_error the binomial error scaled the
    same way.  Zero hits produce a zero estimate flagged on the result.

    The points are sample_ball(center, radius, count, seed), but they are
    placed and passed to predicate one block of at most _BLOCK points at a
    time.  So predicate must be pointwise, and it must return a boolean array
    with one entry per point of its block; anything else raises DomainError.
    """
    direction, u = _draw(center, radius, count, seed)
    hits = 0
    start = 0
    while start < count:
        # translate_to multiplies a lone point by the boost as a vector, which
        # rounds differently from the matrix product; so the last block takes
        # up to _BLOCK + 1 points, and no block of a larger draw has one
        stop = count if count - start <= _BLOCK + 1 else start + _BLOCK
        pts = _place(direction[start:stop], u[start:stop], radius, center)
        inside = np.asarray(predicate(pts))
        if inside.dtype != bool or inside.shape != (len(pts),):
            raise DomainError(
                f"predicate must return one bool per point, shape ({len(pts)},); "
                f"got {inside.dtype} of shape {inside.shape}"
            )
        hits += int(np.count_nonzero(inside))
        start = stop
    total = ball_volume(radius)
    p_hat = hits / count
    se = total * math.sqrt(p_hat * (1.0 - p_hat) / count)
    if hits == 0:
        return McEstimate(0.0, 0.0, count, seed, zero_hits=True)
    return McEstimate(total * p_hat, se, count, seed)


# --- membership predicates ----------------------------------------------------
#
# Each takes points of shape (..., 4) and returns a boolean array of shape
# (...,).  Boundaries are measure zero, so comparisons are exact.  Each public
# predicate checks p and its anchor points on-sheet once, then works through
# the unchecked helpers below.


def _on_sheet(*points: np.ndarray) -> None:
    for q in points:
        assert_on_sheet(q)


def _axial(p: np.ndarray, anchor: np.ndarray, toward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The axis frame: (x, y) = (-<p, e>, <p, anchor>) = (sinh s cos a, cosh s)
    # for p at distance s from anchor and angle a to the axis, where e is the
    # unit tangent at anchor that points along the axis to toward: <e, e> = -1
    # and <e, anchor> = 0.  e is toward - anchor less its anchor component.
    delta = toward - anchor
    e = delta - minkowski_dot(anchor, delta) * anchor
    norm2 = -float(minkowski_dot(e, e))
    if not norm2 > 0.0:
        raise DomainError("degenerate axis: anchor and toward coincide")
    return minkowski_dot(p, e / -math.sqrt(norm2)), minkowski_dot(p, anchor)


def _cone(p: np.ndarray, apex: np.ndarray, toward: np.ndarray, gen_length: float,
          angle: float) -> np.ndarray:
    # cos a >= cos angle, as x |x| >= c |c| sinh^2 s (t -> t |t| increases),
    # and the axial coordinate artanh(x / y) at most psi
    x, y = _axial(p, apex, toward)
    c = math.cos(angle)
    return (x * np.abs(x) >= c * abs(c) * (y * y - 1.0)) & (x <= math.tanh(psi(gen_length, angle)) * y)


def in_ball(p: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Envelope: the ball itself."""
    _on_sheet(p, center)
    return _dist(p, center) <= radius


def in_halfspace(p: np.ndarray, anchor: np.ndarray, toward: np.ndarray, offset: float) -> np.ndarray:
    """Points whose axial coordinate along the anchor->toward geodesic is >= offset.

    For p at distance s from anchor and angle a to the axis, the axial
    coordinate t satisfies tanh t = tanh s cos a (the projection formula for
    a hyperbolic right triangle), which is x / y in the axis frame.
    """
    _on_sheet(p, anchor, toward)
    x, y = _axial(p, anchor, toward)
    return x >= math.tanh(offset) * y


def in_cap(
    p: np.ndarray, center: np.ndarray, toward: np.ndarray, radius: float, w: float
) -> np.ndarray:
    """Solid cap: in the ball and beyond the plane at axial coordinate w.

    Envelope: ball(center, radius).
    """
    _on_sheet(p, center, toward)
    x, y = _axial(p, center, toward)
    return (_dist(p, center) <= radius) & (x >= math.tanh(w) * y)


def in_lens(
    p: np.ndarray, c1: np.ndarray, r1: float, c2: np.ndarray, r2: float
) -> np.ndarray:
    """Intersection of two balls.  Envelope: the smaller ball."""
    _on_sheet(p, c1, c2)
    return (_dist(p, c1) <= r1) & (_dist(p, c2) <= r2)


def in_cone(
    p: np.ndarray, apex: np.ndarray, toward: np.ndarray, gen_length: float, angle: float
) -> np.ndarray:
    """Right circular cone: apex angle <= angle, apex-side of the base plane.

    The base plane sits at axial distance psi(gen_length, angle) from the
    apex along the axis through toward.  Envelope: ball(apex, gen_length).
    """
    _on_sheet(p, apex, toward)
    return _cone(p, apex, toward, gen_length, angle)


def in_icecream(
    p: np.ndarray, apex: np.ndarray, scoop_center: np.ndarray, scoop_radius: float
) -> np.ndarray:
    """Convex hull of an apex point and a ball: the ball, or the tangent cone.

    Requires scoop_radius < dist(apex, scoop_center).  Envelope:
    ball(apex, dist + scoop_radius).
    """
    _on_sheet(p, apex, scoop_center)
    d = float(_dist(apex, scoop_center))
    if not scoop_radius < d:
        raise DomainError(
            f"ice-cream cone needs scoop_radius < apex distance, got r={scoop_radius}, d={d}"
        )
    return (_dist(p, scoop_center) <= scoop_radius) | _cone(
        p, apex, scoop_center, omega(scoop_radius, d), theta(scoop_radius, d)
    )
