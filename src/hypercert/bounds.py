"""Rank and homology bound arithmetic downstream of a partition certificate.

A certificate that Phi > c on I at parameters (eps, R) caps the number of
thick Voronoi faces at valence = floor((B(R) - b(eps/2)) / c), provided
B(eps/2) > c and the quotient is safely non-integral.  From the valence bound
the fundamental-group rank of a suitable manifold of volume V is at most
1 + (V / b(eps/2)) * (valence/2 - 1), and the first-homology dimension over
any prime field is bounded by coefficients assembled here from known volume
thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .certify import (
    CertificationError,
    PartitionCertificate,
    REFERENCE_EPSILON,
    REFERENCE_RADIUS,
    REFERENCE_TARGET_C,
    DEFAULT_SLACK,
    _certificate_obj,
    _valence,
)
from .density import DEFAULT_QUADRATURE, QuadratureConfig, b_ratio
from .hypgeo import _check_positive, ball_volume

__all__ = [
    "MIN_MANIFOLD_VOLUME",
    "MIN_VOLUME_CLOSED_RANK4",
    "MIN_VOLUME_NONCOMPACT_RANK3",
    "MIN_VOLUME_CLOSED_MOD2_RANK11",
    "RankBoundReport",
    "HomologyBoundQuery",
    "reference_valence_bound",
    "rank_bound",
    "rank_bound_report",
    "report_to_json",
    "lambda0",
    "lambda1",
    "lambda1_noncompact",
    "lambda1_compact_p2",
    "homology_coefficient",
    "homology_bound",
    "small_rank_bound",
]

# Volume thresholds consumed from the census literature (not re-derived here):
# every finite-volume orientable hyperbolic 3-manifold has volume > 0.94; a
# closed one with dim H1(.;F_p) >= 4 has volume > 1.22; a non-compact one with
# dim H1(.;F_p) >= 3 has volume > 2.848; a closed one with dim H1(.;F_2) >= 11
# has volume > 3.77.
MIN_MANIFOLD_VOLUME = 0.94
MIN_VOLUME_CLOSED_RANK4 = 1.22
MIN_VOLUME_NONCOMPACT_RANK3 = 2.848
MIN_VOLUME_CLOSED_MOD2_RANK11 = 3.77

# When dim H1 <= 10, the bound 11 * volume already holds outright because
# volume > MIN_MANIFOLD_VOLUME > 10/11.
_SMALL_RANK_COEFF = 11.0


@dataclass(frozen=True)
class RankBoundReport:
    """Inputs and derived quantities of one rank-bound evaluation."""

    epsilon: float
    R: float
    c: float
    b_half_eps: float
    ball_R: float
    valence_bound: int
    rank_coefficient: float
    quadrature_tolerance: float

    def rank_bound(self, volume: float) -> float:
        """The rank bound 1 + (volume / b(eps/2)) * (valence/2 - 1) at this volume."""
        _check_positive(volume=volume)
        return 1.0 + (volume / self.b_half_eps) * (self.valence_bound / 2.0 - 1.0)


@dataclass(frozen=True)
class HomologyBoundQuery:
    volume: float
    compact: bool
    prime_is_two: bool

    def __post_init__(self) -> None:
        _check_positive(volume=self.volume)


def rank_bound(
    epsilon: float,
    R: float,
    c: float,
    volume: float,
    certificate: PartitionCertificate,
    *,
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    slack: float = DEFAULT_SLACK,
) -> float:
    """Upper bound 1 + (volume / b(eps/2)) * (valence/2 - 1) for the group rank.

    Refuses to emit a bound unless rank_bound_report certifies its three
    preconditions (a)-(c).
    """
    report = rank_bound_report(epsilon, R, c, certificate, quad_cfg=quad_cfg, slack=slack)
    return report.rank_bound(volume)


def rank_bound_report(
    epsilon: float,
    R: float,
    c: float,
    certificate: PartitionCertificate,
    *,
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    slack: float = DEFAULT_SLACK,
) -> RankBoundReport:
    """The volume-independent content of rank_bound, packaged for serialization.

    Refuses to build a report unless all three preconditions are certified:
    (a) the partition certificate matches (eps, R) and proves Phi > c on I,
    (b) B(eps/2) > c, and (c) (B(R) - b(eps/2)) / c is not an integer
    (within ten times the slack).
    """
    _check_positive(epsilon=epsilon, R=R, c=c, slack=slack)
    if certificate.params.epsilon != epsilon or certificate.params.R != R:
        raise CertificationError(
            "condition (a) violated: certificate parameters "
            f"(eps={certificate.params.epsilon}, R={certificate.params.R}) "
            f"do not match the requested (eps={epsilon}, R={R})"
        )
    if not certificate.certified_c - slack > c:
        raise CertificationError(
            f"condition (a) violated: certificate only proves Phi > {certificate.certified_c}, "
            f"which does not exceed c={c} with slack"
        )
    b_half = b_ratio(0.5 * epsilon, quad_cfg)
    if not ball_volume(0.5 * epsilon) - slack > c:
        raise CertificationError(
            f"condition (b) violated: B(eps/2)={ball_volume(0.5 * epsilon)} does not exceed c={c}"
        )
    _, valence = _valence(R, c, b_half, slack)
    return RankBoundReport(
        epsilon=epsilon,
        R=R,
        c=c,
        b_half_eps=b_half,
        ball_R=ball_volume(R),
        valence_bound=valence,
        rank_coefficient=(valence / 2.0 - 1.0) / b_half,
        quadrature_tolerance=quad_cfg.abs_tol,
    )


def report_to_json(report: RankBoundReport, certificate: Optional[PartitionCertificate] = None) -> str:
    """Serialize a RankBoundReport, optionally alongside its PartitionCertificate."""
    obj = {"epsilon": report.epsilon, "R": report.R, "c": report.c, "bHalfEps": report.b_half_eps,
           "ballR": report.ball_R, "valenceBound": report.valence_bound,
           "rankCoefficient": report.rank_coefficient, "quadratureTolerance": report.quadrature_tolerance}
    if certificate is not None:
        obj["certificate"] = _certificate_obj(certificate)
    return json.dumps(obj, allow_nan=False) + "\n"


def reference_valence_bound(quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> int:
    """The valence bound at the reference parameters (eps = log 3, R = 2 log 3 + 0.15, c = 0.496)."""
    b_half = b_ratio(0.5 * REFERENCE_EPSILON, quad_cfg)
    return _valence(REFERENCE_RADIUS, REFERENCE_TARGET_C, b_half, DEFAULT_SLACK)[1]


def lambda0(quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Rank-bound coefficient (valence/2 - 1) / b(eps/2) at the reference parameters.

    The numerator is computed from the reference valence bound (314/2 - 1),
    never hard-coded, so a sharper certificate automatically improves it.
    """
    b_half = b_ratio(0.5 * REFERENCE_EPSILON, quad_cfg)
    valence = reference_valence_bound(quad_cfg)
    return (valence / 2.0 - 1.0) / b_half


def lambda1(quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Homology coefficient for the general case (any prime, any manifold)."""
    return 1.0 / MIN_VOLUME_CLOSED_RANK4 + lambda0(quad_cfg)


def lambda1_noncompact(quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Homology coefficient when the manifold is non-compact."""
    return 1.0 / MIN_VOLUME_NONCOMPACT_RANK3 + lambda0(quad_cfg)


def lambda1_compact_p2(quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Homology coefficient for compact manifolds with coefficients in F_2."""
    return 1.0 / MIN_VOLUME_CLOSED_MOD2_RANK11 + lambda0(quad_cfg)


def homology_coefficient(
    query: HomologyBoundQuery,
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[str, float]:
    """The coefficient homology_bound applies to query, with its name.

    lambda1'' ("lambda1CompactP2") when compact and p = 2, lambda1'
    ("lambda1Noncompact") when non-compact, and lambda1 otherwise.
    """
    if query.compact and query.prime_is_two:
        return "lambda1CompactP2", lambda1_compact_p2(quad_cfg)
    if not query.compact:
        return "lambda1Noncompact", lambda1_noncompact(quad_cfg)
    return "lambda1", lambda1(quad_cfg)


def homology_bound(
    query: HomologyBoundQuery,
    quad_cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Upper bound coefficient * volume for dim H1 over a prime field.

    The coefficient comes from homology_coefficient.  Separately,
    small_rank_bound covers dim <= 10.
    """
    return homology_coefficient(query, quad_cfg)[1] * query.volume


def small_rank_bound(volume: float) -> float:
    """The unconditional bound 11 * volume, valid whenever dim H1 <= 10."""
    _check_positive(volume=volume)
    return _SMALL_RANK_COEFF * volume
