"""The benchmark's four workloads.

Each workload makes its inputs from the seed (`make_inputs`, part of set-up),
computes what its checks need from the mpmath reference (`prepare`, not
timed), and lists the ops of one round (`round_ops`).  A run repeats that
same round for about its set time, so every round does identical work.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import checks
from reference import REFERENCE_TARGET, Reference
from tracer import Totals

LOG3 = math.log(3.0)
REF_R = 2.0 * LOG3 + 0.15          # the paper's R; the CLI spells it "reference"
MC_SAMPLES = 1_000_000             # the CLI's default sample count
CLI_MC_SAMPLES = 20_000            # mc-check's sample count on cold-cli
PROBE_SAMPLES = 50_000
PROBE_RUNS = 4                     # before and again after the timed rounds
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    """One timed operation: `run()` is timed, `check(output)` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    kept_fault: bool = False                       # fails today because of a known program fault
    fingerprint: Callable[[Any], Any] = repr       # equal fingerprints share one check
    samples: int = 0                               # Monte-Carlo samples the op draws


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal strata of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + width * (i + rng.random()) for i in range(k)]


def eps_set(rng: random.Random, k: int) -> list[float]:
    """The paper's eps = log 3 and k draws from [0.9, 1.2], one per k-th of it."""
    return [LOG3] + strata(rng, 0.9, 1.2, k)


class Workload:
    name = ""
    import_cmd: list[str] = []        # child whose wall time is the import part of set-up

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.probe_times: list[float] = []
        self.probe_problems: list[str] = []

    def make_inputs(self) -> None:
        self.rng = random.Random(f"{self.name}:{self.seed}")

    def prepare(self, ref: Reference) -> None:
        self.ref = ref

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probe(self, after: bool) -> None:
        """Time PROBE_RUNS 50 000-sample cap estimates, outside the timed ops.

        Only mc-crosscheck times Monte-Carlo ops.  The other workloads
        report the oracle's throughput from this in-process probe, run
        before and again after the timed rounds; it moves none of their
        other metrics.
        """
        import hypercert as hc
        shape = mc_shapes(hc.mcoracle)["cap"]
        for _ in range(PROBE_RUNS):
            seed = self.rng.getrandbits(63)
            t0 = perf_counter()
            est = hc.estimate_volume(shape.predicate, shape.center, shape.radius, PROBE_SAMPLES, seed)
            self.probe_times.append(perf_counter() - t0)
            self.probe_problems += checks.check_mc(shape.volume(self.ref), est.mean,
                                                   est.standard_error, est.samples,
                                                   PROBE_SAMPLES, False)

    def mc_samples_per_s(self, timed: list[tuple[Op, float]]) -> float:
        return PROBE_SAMPLES / statistics.median(self.probe_times)


# --- cold-cli -------------------------------------------------------------------

class ColdCli(Workload):
    """One fresh `python -m hypercert.cli ...` process per op."""

    name = "cold-cli"
    import_cmd = ["-m", "hypercert.cli", "--help"]

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.trace_dir: Path | None = None          # set for traced rounds
        self.totals = Totals()
        self.children: list[dict] = []              # per traced child: args, wall, import_s, spans

    def make_inputs(self) -> None:
        super().make_inputs()
        rng = self.rng
        self.volumes = [round(rng.uniform(0.94, 12.0), 6) for _ in range(4)]
        self.odd_prime = rng.choice((3, 5, 7, 11, 13))

    def _run_cli(self, args: list[str]) -> tuple[int, str, str, float]:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "hypercert.cli", *args]
            out_file = None
        else:
            out_file = self.trace_dir / f"child-{len(self.children)}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_boot.py")), str(out_file), *args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = perf_counter() - t0
        if out_file is not None:
            dump = json.loads(out_file.read_text())
            out_file.unlink()
            self.totals.add(dump)
            self.children.append({"args": args, "wall_s": wall, "import_s": dump["import_s"],
                                  "spans": dump["spans"], "dropped": dump["dropped"]})
        return proc.returncode, proc.stdout, proc.stderr, wall

    def round_ops(self) -> list[Op]:
        ref = self.ref
        c_ref = float(REFERENCE_TARGET)
        v1, v2, v3, v4 = self.volumes
        p = self.odd_prime

        def cli(*args):
            argv = [str(a) for a in args]
            return lambda: self._run_cli(argv)

        def ok_then(parse, check):
            def run_check(out):
                rc, stdout, stderr, _ = out
                if rc != 0:
                    return [f"exit code {rc}: {stderr.strip()[-300:]}"]
                return check(parse(stdout))
            return run_check

        def cert_check(d):
            return checks.check_certificate(ref, d, LOG3, REF_R, c_ref)

        human_cert = checks.parse_certificate_human
        scalars = checks.parse_scalars_human
        mc_cap = mc_shapes()["cap"]

        def mc_check(items):
            problems = checks.check_mc(mc_cap.volume(ref), items["mean"], items["standardError"],
                                       int(items["samples"]), CLI_MC_SAMPLES, False)
            return problems + checks.compare("closedForm", items["closedForm"], mc_cap.volume(ref))

        def contract(out):
            rc, _, stderr, _ = out
            return checks.check_exit_contract(rc, stderr)

        fp = lambda out: out[:3]
        return [
            Op("verify", cli("verify"), ok_then(human_cert, cert_check), fingerprint=fp),
            Op("verify-json", cli("--format", "json", "verify"),
               ok_then(json.loads, cert_check), fingerprint=fp),
            Op("constants-json", cli("--format", "json", "constants"),
               ok_then(json.loads, lambda d: checks.check_constants(ref, d, LOG3, REF_R)),
               fingerprint=fp),
            Op("certify", cli("certify", "--epsilon", "log3", "--R", "reference", "--c", "0.496"),
               ok_then(human_cert, cert_check), fingerprint=fp),
            Op("bound-compact-p2", cli("bound", "--volume", v1, "--prime", 2),
               ok_then(scalars, lambda d: checks.check_homology_bound(
                   ref, d, LOG3, REF_R, v1, True, 2)), fingerprint=fp),
            Op("bound-cusped", cli("bound", "--volume", v2, "--cusped", "true", "--prime", p),
               ok_then(scalars, lambda d: checks.check_homology_bound(
                   ref, d, LOG3, REF_R, v2, False, p)), fingerprint=fp),
            Op("bound-compact-odd", cli("bound", "--volume", v3, "--prime", p),
               ok_then(scalars, lambda d: checks.check_homology_bound(
                   ref, d, LOG3, REF_R, v3, True, p)), fingerprint=fp),
            Op("bound-rank", cli("bound", "--volume", v4, "--epsilon", "log3", "--R", "reference",
                                 "--c", "0.496"),
               ok_then(scalars, lambda d: checks.check_rank_items(ref, d, LOG3, REF_R, v4)),
               fingerprint=fp),
            Op("mc-check-cap", cli("mc-check", "--shape", "cap", "--samples", CLI_MC_SAMPLES),
               ok_then(scalars, mc_check), fingerprint=fp),
            # Kept faults: invalid input must exit 2 without a traceback.
            Op("certify-c-nan", cli("certify", "--epsilon", "log3", "--R", "reference", "--c", "nan"),
               contract, kept_fault=True, fingerprint=fp),
            Op("bound-prime-4", cli("bound", "--volume", "1.0", "--prime", 4),
               contract, kept_fault=True, fingerprint=fp),
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def probe(self, after: bool) -> None:
        # A forked child's peak RSS counts the parent's pages at the fork, so
        # the bench process imports the package only after its last child.
        if after:
            super().probe(True)
            super().probe(True)


# --- radius-scan ------------------------------------------------------------------

class RadiusScan(Workload):
    """optimize_radius over a 9-point radius grid, in-process."""

    name = "radius-scan"
    import_cmd = ["-c", "import hypercert"]
    GRID = 9
    EPS_STRATA = 10

    def make_inputs(self) -> None:
        super().make_inputs()
        self.eps_list = eps_set(self.rng, self.EPS_STRATA)

    def prepare(self, ref: Reference) -> None:
        import hypercert as hc
        super().prepare(ref)
        self.grids = {eps: hc.radius_grid(eps, self.GRID) for eps in self.eps_list}
        self.phi_min = {eps: {R: ref.phi_grid_min(eps, R) for R in grid}
                        for eps, grid in self.grids.items()}

    def round_ops(self) -> list[Op]:
        import hypercert as hc

        def op(eps):
            return Op(f"optimize_radius(eps={eps:.6f})",
                      lambda: hc.optimize_radius(eps, hc.radius_grid(eps, self.GRID)),
                      lambda scan: checks.check_scan(self.ref, eps, self.grids[eps], scan,
                                                     self.phi_min[eps]))
        return [op(eps) for eps in self.eps_list]


# --- certify-batch ------------------------------------------------------------------

class CertifyBatch(Workload):
    """certify -> to_json -> from_json -> rank_bound at fixed targets, in-process."""

    name = "certify-batch"
    import_cmd = ["-c", "import hypercert"]
    EPS_STRATA = 3
    R_STRATA = 4
    TARGET_STRATA = 8
    VERIFY_EVERY = 8

    def make_inputs(self) -> None:
        import hypercert as hc
        super().make_inputs()
        rng = self.rng
        self.cases = []                   # (eps, R, f, volume)
        for eps in eps_set(rng, self.EPS_STRATA):
            for u in strata(rng, 0.05, 0.95, self.R_STRATA):
                fs = strata(rng, 0.5, 0.99, self.TARGET_STRATA)
                rng.shuffle(fs)
                for f in fs:
                    self.cases.append((eps, 2.0 * eps + 0.5 * eps * u, f,
                                       round(rng.uniform(0.94, 12.0), 6)))
        rng.shuffle(self.cases)
        # The reference certificate with every phiLo and certifiedC forged to 0.9.
        forged = json.loads(hc.certificate_to_json(hc.verify_reference_partition()))
        for cell in forged["cells"]:
            cell["phiLo"] = 0.9
        forged["certifiedC"] = 0.9
        self.forged_text = json.dumps(forged)

    def prepare(self, ref: Reference) -> None:
        super().prepare(ref)
        self.targets = []
        for eps, R, f, _ in self.cases:
            target = f * min(ref.phi_grid_min(eps, R), float(ref.ball(eps / 2)))
            # rank_bound refuses a valence quotient within 10 slack of an integer;
            # keep clear of that so no seed draws an input the program must refuse.
            q = ref.valence_quotient(eps, R, target)
            if abs(q - ref.ctx.nint(q)) < 1e-6:
                target *= 1.0 - 1e-4
            self.targets.append(target)

    def round_ops(self) -> list[Op]:
        import hypercert as hc
        ref = self.ref
        c_ref = float(REFERENCE_TARGET)

        def chain_op(eps, R, target, volume):
            def run():
                result = hc.certify_lower_bound(hc.CertifyParams(eps, R), target)
                text = hc.certificate_to_json(result.certificate)
                loaded = hc.certificate_from_json(text)
                return result, text, loaded, hc.rank_bound(eps, R, target, volume, loaded)

            def check(out):
                result, text, loaded, rank = out
                problems = checks.check_certificate(ref, json.loads(text), eps, R, target)
                if loaded != result.certificate:
                    problems.append("certificate_from_json(certificate_to_json(c)) != c")
                return problems + checks.check_rank_bound(ref, rank, eps, R, target, volume)

            return Op(f"certify(eps={eps:.6f}, R={R:.6f}, c={target:.6f})", run, check,
                      fingerprint=lambda out: (out[1], out[3], out[2] == out[0].certificate))

        verify_op = Op("verify_reference_partition", lambda: hc.verify_reference_partition(),
                       lambda cert: checks.check_certificate(
                           ref, checks.certificate_as_dict(cert), LOG3, REF_R, c_ref))

        def forged():
            try:
                loaded = hc.certificate_from_json(self.forged_text)
                return ("accepted", hc.rank_bound(LOG3, REF_R, 0.7, 1.0, loaded))
            except (hc.CertificationError, ValueError) as exc:
                return ("refused", type(exc).__name__)

        forged_op = Op("forged-certificate", forged,
                       lambda out: [] if out[0] == "refused" else
                       [f"forged certificate accepted; rank_bound returned {out[1]!r}"],
                       kept_fault=True)

        ops = []
        for i, (case, target) in enumerate(zip(self.cases, self.targets)):
            eps, R, _, volume = case
            ops.append(chain_op(eps, R, target, volume))
            if (i + 1) % self.VERIFY_EVERY == 0:
                ops.append(verify_op)
        return ops + [forged_op]


# --- mc-crosscheck ------------------------------------------------------------------

@dataclass
class Shape:
    predicate: Callable
    center: Any
    radius: float
    volume: Callable[[Reference], Any]     # the region's volume from the reference
    whole_envelope: bool = False


def mc_shapes(mc=None) -> dict[str, Shape]:
    """The CLI's default regions, built from mcoracle's public predicates.

    With mc None only the reference volumes are usable (cold-cli's bench
    process does not import the package).
    """
    base = mc.BASEPOINT if mc else None
    axis = mc.axis_point if mc else (lambda t: None)
    toward, c_lens, scoop = axis(1.5), axis(1.0), axis(1.05)
    return {
        "ball": Shape(lambda p: mc.in_ball(p, base, 1.0), base, 1.0,
                      lambda ref: ref.ball(1.0), whole_envelope=True),
        "cap": Shape(lambda p: mc.in_cap(p, base, toward, 1.0, 0.5), base, 1.0,
                     lambda ref: ref.cap(1.0, 0.5)),
        "lens": Shape(lambda p: mc.in_lens(p, base, 1.2, c_lens, 0.7), c_lens, 0.7,
                      lambda ref: ref.lens(1.2, 0.7, 1.0)),
        "cone": Shape(lambda p: mc.in_cone(p, base, toward, 1.0, 0.5), base, 1.0,
                      lambda ref: ref.cone(1.0, 0.5)),
        "icecream": Shape(lambda p: mc.in_icecream(p, base, scoop, 0.55), base, 1.6,
                          lambda ref: ref.icecream(0.55, 1.05)),
        "phi": Shape(lambda p: mc.in_icecream(p, base, scoop, 0.55) & mc.in_ball(p, base, 1.3),
                     base, 1.3, lambda ref: ref.phi(1.3, 0.55, 1.05)),
    }


class McCrosscheck(Workload):
    """One 1e6-sample estimate_volume per op: six regions, two seeds each."""

    name = "mc-crosscheck"
    import_cmd = ["-c", "import hypercert"]
    SEEDS_PER_REGION = 2

    def make_inputs(self) -> None:
        super().make_inputs()
        self.seeds = [(shape, self.rng.getrandbits(63))
                      for _ in range(self.SEEDS_PER_REGION) for shape in mc_shapes()]

    def prepare(self, ref: Reference) -> None:
        super().prepare(ref)
        self.volumes = {name: s.volume(ref) for name, s in mc_shapes().items()}

    def round_ops(self) -> list[Op]:
        import hypercert as hc
        shapes = mc_shapes(hc.mcoracle)
        ops = []
        for name, seed in self.seeds:
            shape = shapes[name]

            def run(shape=shape, seed=seed):
                return hc.estimate_volume(shape.predicate, shape.center, shape.radius,
                                          MC_SAMPLES, seed)

            def check(est, name=name, whole=shape.whole_envelope):
                return checks.check_mc(self.volumes[name], est.mean, est.standard_error,
                                       est.samples, MC_SAMPLES, whole)
            ops.append(Op(f"estimate_volume({name}, seed={seed})", run, check,
                          samples=MC_SAMPLES))
        return ops

    def probe(self, after: bool) -> None:
        pass

    def mc_samples_per_s(self, timed):
        return sum(op.samples for op, _ in timed) / sum(dt for _, dt in timed)


WORKLOADS = {w.name: w for w in (ColdCli, RadiusScan, CertifyBatch, McCrosscheck)}
