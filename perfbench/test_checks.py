"""Self-tests: each output check turns a wrong output into a failed op.

    python -m pytest perfbench

Each test runs a right output and a corrupted copy through the benchmark's
own Tally, so a corrupted output must be counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hypercert as hc  # noqa: E402

import checks  # noqa: E402
from reference import Reference  # noqa: E402
from run import END_TO_END, PER_LAYER, Tally  # noqa: E402
from workloads import LOG3, REF_R, Op, mc_shapes  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return Reference()


def failed_ops(check, *outputs) -> int:
    """How many of `outputs` the Tally counts as failed under `check`."""
    tally = Tally()
    tally.round([Op(f"op{i}", (lambda out=out: out), check) for i, out in enumerate(outputs)])
    assert tally.attempted == len(outputs)
    return tally.failed


def test_certificate_with_phi_lo_above_phi_fails(ref):
    cert = checks.certificate_as_dict(hc.verify_reference_partition())
    forged = json.loads(json.dumps(cert))
    # raise a cell that is not the minimum, so certifiedC = min phiLo still holds
    i = max(range(len(forged["cells"])), key=lambda k: forged["cells"][k]["phiLo"])
    cell = forged["cells"][i]
    cell["phiLo"] = float(ref.Phi(LOG3, REF_R, cell["dHi"])) + 1e-6
    check = lambda d: checks.check_certificate(ref, d, LOG3, REF_R, 0.496)
    assert failed_ops(check, cert) == 0
    assert failed_ops(check, forged) == 1


@pytest.fixture(scope="module")
def constants_items():
    proc = subprocess.run([sys.executable, "-m", "hypercert.cli", "--format", "json", "constants"],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    return json.loads(proc.stdout)


def test_constants_valence_off_by_one_fails(ref, constants_items):
    check = lambda d: checks.check_constants(ref, d, LOG3, REF_R)
    off = dict(constants_items, valenceBound=constants_items["valenceBound"] + 1)
    assert failed_ops(check, constants_items) == 0
    assert failed_ops(check, off) == 1


@pytest.mark.parametrize("key", ["lambda0", "lambda1", "lambda1Noncompact", "lambda1CompactP2"])
def test_lambda_off_by_1e_minus_6_fails(ref, constants_items, key):
    check = lambda d: checks.check_constants(ref, d, LOG3, REF_R)
    off = dict(constants_items, **{key: constants_items[key] + 1e-6})
    assert failed_ops(check, off) == 1


def test_scan_valence_off_by_one_fails(ref):
    eps = LOG3
    grid = hc.radius_grid(eps, 2)
    scan = hc.optimize_radius(eps, grid)
    phi_min = {R: ref.phi_grid_min(eps, R) for R in grid}
    # bump an entry that is not the best, so only the valence check can see it
    worst = max(scan.entries, key=lambda e: (e.valence_bound, e.R))
    entries = tuple(dataclasses.replace(e, valence_bound=e.valence_bound + 1) if e is worst else e
                    for e in scan.entries)
    off = dataclasses.replace(scan, entries=entries)
    check = lambda s: checks.check_scan(ref, eps, grid, s, phi_min)
    assert failed_ops(check, scan) == 0
    assert failed_ops(check, off) == 1


def test_mc_mean_shifted_by_six_standard_errors_fails(ref):
    shape = mc_shapes(hc.mcoracle)["cap"]
    est = hc.estimate_volume(shape.predicate, shape.center, shape.radius, 20_000, 11)
    volume = shape.volume(ref)
    right = (est.mean, est.standard_error)
    shifted = (float(volume) + 6.0 * est.standard_error, est.standard_error)
    check = lambda out: checks.check_mc(volume, out[0], out[1], 20_000, 20_000, False)
    assert failed_ops(check, right) == 0
    assert failed_ops(check, shifted) == 1


def test_rank_bound_off_fails(ref):
    cert = hc.verify_reference_partition()
    value = hc.rank_bound(LOG3, REF_R, 0.496, 2.5, cert)
    check = lambda v: checks.check_rank_bound(ref, v, LOG3, REF_R, 0.496, 2.5)
    assert failed_ops(check, value, value * (1 + 1e-8)) == 1


def test_exit_contract():
    assert checks.check_exit_contract(2, "Error: bad value\n") == []
    assert len(checks.check_exit_contract(1, "Traceback (most recent call last):\n  x\nE: y\n")) == 2


def test_raising_op_counts_as_failed():
    def boom():
        raise RuntimeError("no output")
    tally = Tally()
    tally.round([Op("boom", boom, lambda out: [])])
    assert (tally.attempted, tally.failed) == (1, 1) and tally.unexpected


def test_kept_fault_is_failed_but_expected():
    tally = Tally()
    tally.round([Op("kept", lambda: 1, lambda out: ["still broken"], kept_fault=True)])
    assert (tally.failed, tally.unexpected) == (1, [])


def test_reference_matches_program(ref):
    assert math.isclose(float(ref.b(LOG3 / 2)), hc.b_ratio(LOG3 / 2), rel_tol=1e-12)
    assert math.isclose(float(ref.phi(1.3, 0.55, 1.05)), hc.phi(1.3, 0.55, 1.05), rel_tol=1e-12)
    assert ref.interval(LOG3, REF_R) == hc.reference_params().interval


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == [HERE.name]
