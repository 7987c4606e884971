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

from .hypgeo import *
from .density import *
from .certify import *
from .bounds import *

# mcoracle's names, resolved on first access by __getattr__ below
_MCORACLE_NAMES = (
    "McEstimate",
    "BASEPOINT",
    "minkowski_dot",
    "assert_on_sheet",
    "hdist",
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

# Every name of the four modules' __all__ imported above, then mcoracle's, so a
# star import still has them all.
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
