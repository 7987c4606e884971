"""The benchmark's call tracer wraps hypercert functions by name.

perfbench/tracer.py lists them in LAYERS, and Tracer.install() looks each one
up with getattr, so a name removed from its module would crash every traced
benchmark run.  This reads LAYERS from the tracer file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.LAYERS.items()
               for name in names if not hasattr(importlib.import_module(f"hypercert.{layer}"), name)]
    assert tracer.LAYERS and missing == []
