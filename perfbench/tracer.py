"""Call tracer for the benchmark's traced runs.

`Tracer.install()` replaces each public hypercert function listed in LAYERS
with a wrapper, in every hypercert module namespace that holds the function
(certify imports omega, theta, cap_volume and ball_volume by name, so those
names are wrapped there too).  Each call records a span (id, parent, name,
start, end) and adds to per-name counts, total time and self time (the span
minus the time its child spans cover).  Spans stay in memory, capped at
SPAN_CAP per process, and are written out by the caller when the run ends.
`uninstall()` puts the original functions back.
"""

from __future__ import annotations

import importlib
from time import perf_counter

LAYERS = {
    "hypgeo": (
        "acosh_clamped", "ball_volume", "cap_volume", "eta", "in_lens_domain",
        "in_phi_domain", "sigma", "lens_volume", "omega", "theta", "psi",
        "cone_volume", "phi",
    ),
    "density": ("b_ratio", "packing_density", "simplex_volume_tau"),
    "certify": (
        "h_bounds", "goodness_margins", "sigma_bounds", "psi_bounds", "phi_lower",
        "verify_reference_partition", "certify_lower_bound", "largest_certifiable_c",
        "optimize_radius", "certificate_to_json", "certificate_from_json",
        "certificate_to_csv",
    ),
    "bounds": (
        "rank_bound", "rank_bound_report", "report_to_json", "reference_valence_bound",
        "lambda0", "lambda1", "lambda1_noncompact", "lambda1_compact_p2",
        "homology_bound", "small_rank_bound",
    ),
    "mcoracle": (
        "assert_on_sheet", "hdist", "translate_to", "sample_ball", "estimate_volume",
        "in_ball", "in_halfspace", "in_cap", "in_lens", "in_cone", "in_icecream",
    ),
}
MODULES = ("hypercert", "hypercert.hypgeo", "hypercert.density", "hypercert.certify",
           "hypercert.bounds", "hypercert.mcoracle", "hypercert.cli")

# The searches whose returned certificate is the useful output of the cells
# evaluated beneath them (the outermost one of these on the stack counts).
SEARCHES = ("certify.verify_reference_partition", "certify.certify_lower_bound",
            "certify.largest_certifiable_c")

SPAN_CAP = 50_000


def _certificate_of(result):
    """The PartitionCertificate inside a search's return value, if any."""
    if isinstance(result, tuple):          # largest_certifiable_c -> (c, cert)
        result = result[1]
    return getattr(result, "certificate", result) if result is not None else None


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}      # name -> [calls, total_s, self_s]
        self.edges: dict[str, float] = {}            # "parent>child" -> total_s
        self.spans: list[tuple] = []
        self.dropped = 0
        self.samples = 0
        self.useful_cells = 0
        self.cert_results = [0, 0]                   # certify_lower_bound: [certificates, cells]
        self._stack: list[list] = []                 # [id, name, start, child_s]
        self._next_id = 0
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                    key = parent[1] + ">" + name
                    self.edges[key] = self.edges.get(key, 0.0) + dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, parent[0] if parent else None, name, frame[2], end))
                else:
                    self.dropped += 1
            self._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "mcoracle.sample_ball":
            self.samples += int(kwargs.get("count", args[2] if len(args) > 2 else 0))
        elif name in SEARCHES:
            cert = _certificate_of(result)
            cells = len(cert.cells) if cert is not None else 0
            if name == "certify.certify_lower_bound" and cert is not None:
                self.cert_results[0] += 1
                self.cert_results[1] += cells
            if not any(frame[1] in SEARCHES for frame in self._stack):
                self.useful_cells += cells

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"hypercert.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)
                        self._installed.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._installed):
            setattr(mod, fname, original)
        self._installed.clear()

    def dump(self) -> dict:
        return {
            "stats": self.stats, "edges": self.edges, "samples": self.samples,
            "useful_cells": self.useful_cells, "cert_results": self.cert_results,
            "spans": self.spans, "dropped": self.dropped,
        }


class Totals:
    """Tracer dumps summed over the bench process and its traced children."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.edges: dict[str, float] = {}
        self.samples = 0
        self.useful_cells = 0
        self.cert_results = [0, 0]

    def add(self, dump: dict) -> None:
        for name, (calls, total, self_s) in dump["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, total in dump["edges"].items():
            self.edges[key] = self.edges.get(key, 0.0) + total
        self.samples += dump["samples"]
        self.useful_cells += dump["useful_cells"]
        self.cert_results[0] += dump["cert_results"][0]
        self.cert_results[1] += dump["cert_results"][1]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def mean_s(self, name: str) -> float:
        calls, total, _ = self.stats.get(name, (0, 0.0, 0.0))
        return total / calls if calls else 0.0

    def layer(self, prefix: str) -> tuple[int, float]:
        """(calls, self seconds) over every traced name of one layer."""
        hits = [v for k, v in self.stats.items() if k.startswith(prefix + ".")]
        return int(sum(v[0] for v in hits)), sum(v[2] for v in hits)

    def edge_total(self, parent: str, child_prefix: str) -> float:
        return sum(t for key, t in self.edges.items()
                   if key.startswith(parent + ">" + child_prefix))


def parse_importtime(stderr: str) -> list[tuple[int, str, float]]:
    """(depth, module, cumulative seconds) per line of `python -X importtime`, in print order."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped) - 1) // 2
        rows.append((depth, stripped.strip(), int(cumulative) * 1e-6))
    return rows


def import_seconds(rows: list[tuple[int, str, float]], package: str) -> float:
    """Cumulative import time of `package` charged to importers outside it.

    importtime prints a module after the modules it imports, one indent
    deeper per level; read in reverse, each line follows its importer.
    """
    inside = lambda mod: mod == package or mod.startswith(package + ".")
    ancestors: list[str] = []
    total = 0.0
    for depth, mod, cumulative in reversed(rows):
        del ancestors[depth:]
        if inside(mod) and not any(inside(a) for a in ancestors):
            total += cumulative
        ancestors.append(mod)
    return total
