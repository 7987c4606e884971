"""Output checks: each takes what the program returned and gives a list of problems.

An empty list means the output is right.  The checks compare against the
mpmath reference (reference.py) or against properties the method guarantees,
never against a stored copy of earlier output.
"""

from __future__ import annotations

import math

from reference import REFERENCE_TARGET, Reference, rel_close

REL_TOL = 1e-9
MC_SIGMAS = 5.0
LAMBDA0_CEIL = 167.79
LAMBDA1_CEIL = 168.602
PAPER_VALENCE = 314

COEFFICIENT_FOR_CASE = {          # (compact, prime is two) -> coefficient name
    (True, True): "lambda1CompactP2",
    (False, True): "lambda1Noncompact",
    (False, False): "lambda1Noncompact",
    (True, False): "lambda1",
}


# --- parsing the CLI's three formats into one shape --------------------------

def _num(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "null":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_scalars_human(text: str) -> dict:
    """`key  value` lines of the CLI's human scalar output."""
    out = {}
    for line in text.splitlines():
        if line.strip():
            key, value = line.split(None, 1)
            out[key] = _num(value.strip())
    return out


def parse_certificate_human(text: str) -> dict:
    """The human certificate table, in the JSON certificate's shape."""
    lines = text.splitlines()
    blank = lines.index("")
    head = {k: v for k, v in (ln.split(None, 1) for ln in lines[:blank])}
    header = lines[blank + 1].split()
    cells = []
    for row in lines[blank + 2:]:
        rec = dict(zip(header, (_num(v) for v in row.split())))
        rec["margins"] = [rec.pop("margin1"), rec.pop("margin2"), rec.pop("margin3")]
        cells.append(rec)
    return {
        "epsilon": float(head["epsilon"]), "R": float(head["R"]), "slack": float(head["slack"]),
        "certifiedC": float(head["certifiedC"]), "cellCount": int(head["cellCount"]),
        "cells": cells,
    }


def certificate_as_dict(cert) -> dict:
    """A PartitionCertificate object in the JSON certificate's shape, from its attributes."""
    return {
        "epsilon": cert.params.epsilon, "R": cert.params.R, "slack": cert.slack,
        "certifiedC": cert.certified_c, "cellCount": len(cert.cells),
        "cells": [{"dLo": c.d_lo, "dHi": c.d_hi, "phiLo": c.phi_lo, "good": c.good,
                   "margins": list(c.margins)} for c in cert.cells],
    }


# --- checks -------------------------------------------------------------------

def check_certificate(ref: Reference, cert: dict, eps: float, R: float, target: float) -> list[str]:
    """A partition certificate proves Phi > target on I at (eps, R).

    The cells tile I exactly, every cell is good with every margin above the
    slack, certifiedC = min phiLo with certifiedC - slack > target, and each
    cell's phiLo is at most Phi at the cell's ends and midpoint.
    """
    problems = []
    if cert["epsilon"] != eps or cert["R"] != R:
        problems.append(f"certificate is for ({cert['epsilon']}, {cert['R']}), asked ({eps}, {R})")
    cells, slack = cert["cells"], cert["slack"]
    if not cells:
        return problems + ["certificate has no cells"]
    lo, hi = ref.interval(eps, R)
    if cells[0]["dLo"] != lo or cells[-1]["dHi"] != hi:
        problems.append(f"cells span [{cells[0]['dLo']}, {cells[-1]['dHi']}], not I = [{lo}, {hi}]")
    for a, b in zip(cells, cells[1:]):
        if a["dHi"] != b["dLo"]:
            problems.append(f"gap or overlap at {a['dHi']} / {b['dLo']}")
    for i, c in enumerate(cells):
        if not c["dLo"] < c["dHi"]:
            problems.append(f"cell {i} is empty: [{c['dLo']}, {c['dHi']}]")
        if c["good"] is not True or not all(m > slack for m in c["margins"]):
            problems.append(f"cell {i} is not good: margins {c['margins']}")
        if c["phiLo"] is None:
            problems.append(f"cell {i} has no phiLo")
            continue
        for d in (c["dLo"], 0.5 * (c["dLo"] + c["dHi"]), c["dHi"]):
            if c["phiLo"] > ref.Phi(eps, R, d):
                problems.append(f"cell {i}: phiLo {c['phiLo']!r} exceeds Phi({d!r}) = "
                                f"{float(ref.Phi(eps, R, d))!r}")
    phis = [c["phiLo"] for c in cells if c["phiLo"] is not None]
    if phis and cert["certifiedC"] != min(phis):
        problems.append(f"certifiedC {cert['certifiedC']!r} != min phiLo {min(phis)!r}")
    if not cert["certifiedC"] - slack > target:
        problems.append(f"certifiedC {cert['certifiedC']!r} does not exceed {target!r} by the slack")
    if cert["cellCount"] != len(cells):
        problems.append(f"cellCount {cert['cellCount']} != {len(cells)} cells")
    return problems


def compare(name: str, value, ref_value, tol: float = REL_TOL) -> list[str]:
    if not isinstance(value, float) or not rel_close(value, ref_value, tol):
        return [f"{name} = {value!r}, reference {float(ref_value)!r}"]
    return []


def check_constants(ref: Reference, items: dict, eps: float, R: float) -> list[str]:
    """`constants`: every real within 1e-9 of the reference, valence 314, the lambda windows."""
    want = ref.reference_constants(eps, R)
    problems = []
    for key, ref_value in want.items():
        if key == "valenceBound":
            if items.get(key) != ref_value or ref_value != PAPER_VALENCE:
                problems.append(f"valenceBound {items.get(key)!r}, reference {ref_value}")
        else:
            problems += compare(key, items.get(key), ref_value)
    if not (items.get("lambda0", math.inf) < LAMBDA0_CEIL and items.get("lambda1", math.inf) < LAMBDA1_CEIL):
        problems.append(f"lambda0 {items.get('lambda0')!r} / lambda1 {items.get('lambda1')!r} "
                        f"outside < {LAMBDA0_CEIL} / < {LAMBDA1_CEIL}")
    return problems


def check_homology_bound(ref: Reference, items: dict, eps: float, R: float,
                         volume: float, compact: bool, prime: int) -> list[str]:
    """`bound`: the coefficient for the case, coefficient * V and 11 V."""
    name = COEFFICIENT_FOR_CASE[(compact, prime == 2)]
    coeff = ref.reference_constants(eps, R)[name]
    problems = []
    if items.get("coefficientName") != name:
        problems.append(f"coefficientName {items.get('coefficientName')!r}, expected {name}")
    problems += compare("coefficient", items.get("coefficient"), coeff)
    problems += compare("homologyBound", items.get("homologyBound"), coeff * ref.ctx.mpf(volume))
    problems += compare("smallRankBound", items.get("smallRankBound"), 11 * ref.ctx.mpf(volume))
    return problems


def check_rank_bound(ref: Reference, value, eps: float, R: float, c: float, volume: float) -> list[str]:
    """rank bound = 1 + (V / b(eps/2)) (valence/2 - 1), valence from the reference quotient."""
    return compare("rank bound", value, ref.rank_bound(eps, R, c, volume))


def check_rank_items(ref: Reference, items: dict, eps: float, R: float, volume: float) -> list[str]:
    """`bound ... --epsilon --R --c 0.496`: the homology fields plus the rank bound."""
    c = float(REFERENCE_TARGET)
    problems = check_homology_bound(ref, items, eps, R, volume, True, 2)
    problems += check_rank_bound(ref, items.get("rankBound"), eps, R, c, volume)
    if items.get("valenceBound") != PAPER_VALENCE:
        problems.append(f"valenceBound {items.get('valenceBound')!r} != {PAPER_VALENCE}")
    if not items.get("certifiedC", 0.0) > c:
        problems.append(f"certifiedC {items.get('certifiedC')!r} is not above {c}")
    return problems


def check_mc(ref_volume, mean: float, standard_error: float, samples: int,
             want_samples: int, whole_envelope: bool) -> list[str]:
    """|mean - reference| <= 5 standard errors; a region equal to its envelope is hit by every sample."""
    problems = []
    if samples != want_samples:
        problems.append(f"{samples} samples, asked {want_samples}")
    if whole_envelope:
        if standard_error != 0.0 or not rel_close(mean, ref_volume, 1e-12):
            problems.append(f"not every sample hit: mean {mean!r}, se {standard_error!r}, "
                            f"volume {float(ref_volume)!r}")
    elif not abs(mean - float(ref_volume)) <= MC_SIGMAS * standard_error:
        problems.append(f"mean {mean!r} is {abs(mean - float(ref_volume)) / standard_error:.2f} "
                        f"standard errors from {float(ref_volume)!r}")
    return problems


def check_scan(ref: Reference, eps: float, grid: list[float], scan, phi_min: dict) -> list[str]:
    """optimize_radius: c <= min Phi on the grid, the reference valence, the least-valence best entry.

    phi_min maps each R of the grid to min Phi over the reference's D-grid.
    """
    problems = []
    if sorted([e.R for e in scan.entries] + [r for r, _ in scan.skipped]) != sorted(grid):
        problems.append("scan entries do not cover the radius grid")
    problems += compare("bHalfEps", scan.b_half_eps, ref.b(eps / 2))
    for e in scan.entries:
        if not 0.0 < e.certified_c <= phi_min[e.R]:
            problems.append(f"R={e.R!r}: c {e.certified_c!r} not in (0, min Phi = {phi_min[e.R]!r}]")
        quotient = ref.valence_quotient(eps, e.R, e.certified_c)
        floor = int(ref.ctx.floor(quotient))
        # a quotient within 1e-9 of an integer may floor either way in binary64
        near = abs(quotient - ref.ctx.nint(quotient)) < 1e-9
        if e.valence_bound != floor and not (near and abs(e.valence_bound - floor) <= 1):
            problems.append(f"R={e.R!r}: valence {e.valence_bound}, reference {floor}")
    if scan.entries:
        best = min(scan.entries, key=lambda e: (e.valence_bound, e.R))
        if scan.best != best:
            problems.append(f"best entry {scan.best} is not the least-valence smallest-R {best}")
    return problems


def check_exit_contract(returncode: int, stderr: str) -> list[str]:
    """Invalid input: exit code 2 and no traceback."""
    problems = []
    if returncode != 2:
        problems.append(f"exit code {returncode}, documented 2 for invalid input")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return problems
