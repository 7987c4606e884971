"""Certified lower bounds for volume functions in hyperbolic 3-space.

The package reproduces, and generalizes to arbitrary parameters, a family of
rigorously certified constants: a lower bound c = 0.496 for the clipped-cone
volume Phi on its admissible interval, the valence bound 314 it implies, and
the rank/homology coefficients (167.78..., 168.60..., ...) built on top of the
simplex packing density.

The Monte-Carlo oracle (mcoracle) is the only part that needs numpy.  Its
names are importable from the package as before, but it is loaded on first
use, so the rest of the package starts without numpy.
"""

import importlib
import types

from .hypgeo import (
    DomainError,
    ball_volume,
    cap_volume,
    eta,
    sigma,
    lens_volume,
    omega,
    theta,
    psi,
    cone_volume,
    phi,
    in_lens_domain,
    in_phi_domain,
)
from .density import (
    QuadratureConfig,
    QuadratureError,
    DEFAULT_QUADRATURE,
    dihedral_beta,
    simplex_volume_tau,
    packing_density,
    b_ratio,
    circumradius_h3,
)
from .certify import (
    CertificationError,
    CertifyParams,
    BoundPair,
    SubintervalCertificate,
    PartitionCertificate,
    CertificationResult,
    RadiusScan,
    RadiusGridEntry,
    REFERENCE_EPSILON,
    REFERENCE_RADIUS,
    REFERENCE_TARGET_C,
    reference_params,
    reference_breakpoints,
    h_bounds,
    goodness_margins,
    sigma_bounds,
    psi_bounds,
    phi_lower,
    verify_reference_partition,
    certify_lower_bound,
    largest_certifiable_c,
    radius_grid,
    optimize_radius,
    certificate_to_json,
    certificate_from_json,
    certificate_to_csv,
)
from .bounds import (
    RankBoundReport,
    HomologyBoundQuery,
    rank_bound,
    rank_bound_report,
    report_to_json,
    reference_valence_bound,
    lambda0,
    lambda1,
    lambda1_noncompact,
    lambda1_compact_p2,
    homology_coefficient,
    homology_bound,
    small_rank_bound,
)
# mcoracle's names, resolved on first access by __getattr__ below
_MCORACLE_NAMES = (
    "McEstimate",
    "BASEPOINT",
    "minkowski_dot",
    "hdist",
    "hpoint",
    "axis_point",
    "translate_to",
    "sample_ball",
    "estimate_volume",
    "in_ball",
    "in_halfspace",
    "in_cap",
    "in_lens",
    "in_cone",
    "in_icecream",
)

__version__ = "0.1.0"

# Every name imported above, then mcoracle's, so a star import still has them all.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__ += _MCORACLE_NAMES


def __getattr__(name: str):
    # PEP 562: load mcoracle, and with it numpy, only when one of its names
    # is asked for.  import_module, not "from . import mcoracle", which would
    # look the submodule up through this hook and recurse.
    if name == "mcoracle" or name in _MCORACLE_NAMES:
        module = importlib.import_module(__name__ + ".mcoracle")
        return module if name == "mcoracle" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
