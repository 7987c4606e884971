"""Benchmark for hypercert: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/hypercert.  Workloads:
cold-cli, radius-scan, certify-batch, mc-crosscheck (see README.md).  The run
sets up three times, then runs as many whole rounds of the workload's ops as
end nearest to S seconds, checking every op's output against the mpmath
reference outside the timed section.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it times one untraced round, installs the
call tracer and reports the per-layer metrics.  The last line on stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "run_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB",
    "mc.samples_per_s": "1/s",
}
PER_LAYER = {
    "startup.import_s": "s", "startup.import_scipy_s": "s", "startup.import_numpy_s": "s",
    "startup.import_click_s": "s",
    "cli.work_s.p50": "s",
    "density.b_ratio.calls": "count", "density.b_ratio_us": "us",
    "certify.phi_lower.calls": "count", "certify.phi_lower_us": "us",
    "certify.certify_lower_bound.calls": "count", "certify.largest_certifiable_c_s": "s",
    "certify.useful_cell_ratio": "ratio", "certify.certify_lower_bound_ms": "ms",
    "certify.cert_cells": "count", "certify.to_json_ms": "ms", "certify.from_json_ms": "ms",
    "hypgeo.calls": "count", "hypgeo.self_s": "s",
    "bounds.rank_bound.calls": "count", "bounds.rank_bound_us": "us",
    "mcoracle.sample_ball_ns_per_sample": "ns", "mcoracle.predicate_ns_per_sample": "ns",
    "mcoracle.hdist.calls": "count", "mcoracle.assert_on_sheet.calls": "count",
    "trace.overhead_s": "s",
}


class Tally:
    """Times ops, checks their outputs and counts attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []        # failures that are not kept faults
        self.timed: list[tuple] = []           # (op, seconds)
        self._checked: dict = {}

    def round(self, ops) -> float:
        """Run every op once; return the summed wall time of the ops."""
        done = []
        for op in ops:
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:                  # the op failed; keep running the round
                out = Raised(traceback.format_exc())
            done.append((op, perf_counter() - t0, out))
        for op, seconds, out in done:
            self.timed.append((op, seconds))
            self.attempted += 1
            problems = self.check(op, out)
            if problems:
                self.failed += 1
                if not op.kept_fault:
                    self.unexpected.append(f"{op.label}: {'; '.join(problems[:3])}")
        return sum(seconds for _, seconds, _ in done)

    def check(self, op, out) -> list[str]:
        if isinstance(out, Raised):
            return [out.text.strip().splitlines()[-1]]
        key = (op.label, op.fingerprint(out))
        if key not in self._checked:
            try:
                self._checked[key] = op.check(out)
            except Exception:
                self._checked[key] = ["check could not read the output: "
                                      + traceback.format_exc().strip().splitlines()[-1]]
        return self._checked[key]


class Raised:
    def __init__(self, text: str) -> None:
        self.text = text


def run_rounds(tally: Tally, ops, seconds: float) -> list[float]:
    """Whole rounds, as many as end nearest to `seconds` (at least one); per-round op time.

    Another round starts only while the run, judged by the last round's
    length, would end nearer to `seconds` with it than without it.
    """
    walls = []
    start = last = perf_counter()
    while True:
        walls.append(tally.round(ops))
        now = perf_counter()
        if now - start + 0.5 * (now - last) >= seconds:
            return walls
        last = now


def child_seconds(args: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, capture_output=True)
    return perf_counter() - t0


def layer_metrics(totals, rounds: int, startup: dict, cli_work: list[float],
                  overhead_s: float) -> dict:
    t = totals
    per_round = lambda name: t.calls(name) / rounds
    phi_calls = t.calls("certify.phi_lower")
    certs, cells = t.cert_results
    hyp_calls, hyp_self = t.layer("hypgeo")
    per_sample = lambda s: s / t.samples * 1e9 if t.samples else 0.0
    return {
        "startup.import_s": startup["hypercert"],
        "startup.import_scipy_s": startup["scipy"],
        "startup.import_numpy_s": startup["numpy"],
        "startup.import_click_s": startup["click"],
        "cli.work_s.p50": statistics.median(cli_work) if cli_work else 0.0,
        "density.b_ratio.calls": per_round("density.b_ratio"),
        "density.b_ratio_us": t.mean_s("density.b_ratio") * 1e6,
        "certify.phi_lower.calls": phi_calls / rounds,
        "certify.phi_lower_us": t.mean_s("certify.phi_lower") * 1e6,
        "certify.certify_lower_bound.calls": per_round("certify.certify_lower_bound"),
        "certify.largest_certifiable_c_s": t.mean_s("certify.largest_certifiable_c"),
        "certify.useful_cell_ratio": t.useful_cells / phi_calls if phi_calls else 0.0,
        "certify.certify_lower_bound_ms": t.mean_s("certify.certify_lower_bound") * 1e3,
        "certify.cert_cells": cells / certs if certs else 0.0,
        "certify.to_json_ms": t.mean_s("certify.certificate_to_json") * 1e3,
        "certify.from_json_ms": t.mean_s("certify.certificate_from_json") * 1e3,
        "hypgeo.calls": hyp_calls / rounds,
        "hypgeo.self_s": hyp_self / rounds,
        "bounds.rank_bound.calls": per_round("bounds.rank_bound"),
        "bounds.rank_bound_us": t.mean_s("bounds.rank_bound") * 1e6,
        "mcoracle.sample_ball_ns_per_sample": per_sample(
            t.stats.get("mcoracle.sample_ball", (0, 0.0))[1]),
        "mcoracle.predicate_ns_per_sample": per_sample(
            t.edge_total("mcoracle.estimate_volume", "mcoracle.in_")),
        "mcoracle.hdist.calls": per_round("mcoracle.hdist"),
        "mcoracle.assert_on_sheet.calls": per_round("mcoracle.assert_on_sheet"),
        "trace.overhead_s": overhead_s,
    }


def traced_rounds(workload, tally: Tally, ops, seconds: float, trace_path: Path) -> dict:
    """One untraced round, then traced rounds; per-layer metrics and the span file."""
    from tracer import Tracer, Totals, import_seconds, parse_importtime

    baseline = run_rounds(tally, ops, 0)[0]
    OUT.mkdir(exist_ok=True)
    if workload.name == "cold-cli":
        workload.trace_dir = OUT
        walls = run_rounds(tally, ops, seconds)
        workload.trace_dir = None
        totals = workload.totals
        spans = {"children": workload.children}
        cli_work = [c["wall_s"] - c["import_s"] for c in workload.children]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            walls = run_rounds(tally, ops, seconds)
        finally:
            tracer.uninstall()
        totals = Totals()
        totals.add(tracer.dump())
        spans = {"spans": tracer.spans, "dropped": tracer.dropped}
        cli_work = []
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypercert.cli"],
                          cwd=ROOT, check=True, capture_output=True, text=True)
    rows = parse_importtime(proc.stderr)
    startup = {p: import_seconds(rows, p) for p in ("hypercert", "scipy", "numpy", "click")}
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed, "rounds": len(walls),
        "span_fields": ["id", "parent", "name", "start_s", "end_s"], **spans,
    }))
    return layer_metrics(totals, len(walls), startup, cli_work,
                         statistics.median(walls) - baseline)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypercert" / "__init__.py").is_file():
        print(f"perfbench: no hypercert sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                 # one BLAS/OpenMP thread, here and in children
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    from reference import Reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    if workload.name != "cold-cli":
        import hypercert
        if Path(hypercert.__file__).resolve().parent != SRC / "hypercert":
            print(f"perfbench: imported hypercert from {hypercert.__file__}", file=sys.stderr)
            return 2
        hypercert.verify_reference_partition()          # first-call work, untimed
        hypercert.estimate_volume(lambda p: p[:, 0] > 0, hypercert.BASEPOINT, 1.0, 1000, 1)

    setups = []
    for _ in range(SETUPS):
        import_s = child_seconds(workload.import_cmd)
        t0 = perf_counter()
        workload.make_inputs()
        setups.append(import_s + perf_counter() - t0)

    workload.prepare(Reference())
    ops = workload.round_ops()
    tally = Tally()
    # Keep the bench's own objects (reference tables, inputs) out of the
    # collections that run inside timed ops.
    gc.collect()
    gc.freeze()
    if args.trace:
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        values = traced_rounds(workload, tally, ops, args.seconds, trace_path)
        units = PER_LAYER
    else:
        workload.probe(after=False)
        walls = run_rounds(tally, ops, args.seconds)
        workload.probe(after=True)
        tally.unexpected += [f"mc throughput probe: {p}" for p in workload.probe_problems]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls),
            "op_s.p50": statistics.median(seconds for _, seconds in tally.timed),
            "peak_rss_mb": workload.peak_rss_mb(),
            "mc.samples_per_s": workload.mc_samples_per_s(tally.timed),
        }
        units = END_TO_END

    for line in tally.unexpected:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
