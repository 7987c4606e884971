"""Command-line front end: constants, verification, certification, optimization,
bound queries and Monte-Carlo cross-checks, with json / csv / human output.

JSON output is one line written by the json module, each real in its shortest
round-trip form and a non-finite scalar as null; csv and human output give reals
17 significant digits.  Either way parsing recovers the exact binary64 values.

Exit codes: 0 success, 1 certification or cross-check failure, 2 invalid input,
with argparse's usage and one "hypercert: error: ..." line on stderr.  Options
are set on the command line only; no environment variable is read.  Messages
about a run, such as a radius that optimize skipped or an mc-check with no hits,
are plain lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import bounds as bounds_mod
from . import certify as certify_mod
from . import density as density_mod
from . import hypgeo
from .certify import _fmt

DEFAULT_SEED = 0xC3A7E
DEFAULT_SAMPLES = 1_000_000
PRIME_LIMIT = 318_665_857_834_031_151_167_461  # 399165290221 * 798330580441


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write text, which ends in a newline, to --output or else to stdout."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        fh = open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        raise hypgeo.DomainError(f"cannot write --output {args.output!r}: {exc.strerror}") from exc
    with fh:
        fh.write(text)


def _json(obj: dict) -> str:
    """One JSON line; JSON has no inf or nan literal, so a non-finite real, alone or in a list, is null."""
    null = lambda v: None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps({key: list(map(null, value)) if isinstance(value, list) else null(value)
                       for key, value in obj.items()}, allow_nan=False) + "\n"


def _scalar_text(value: object, list_sep: str) -> str:
    """A scalar for the csv and human outputs: reals with 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return list_sep.join(_fmt(float(v)) for v in value)
    return str(value)


def _scalar_csv(items: list[tuple[str, object]]) -> str:
    lines = ["name,value"]
    for key, value in items:
        text = _scalar_text(value, ";")
        lines.append(f'{key},"{text}"' if isinstance(value, (list, tuple)) else f"{key},{text}")
    return "\n".join(lines) + "\n"


def _scalar_human(items: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in items)
    return "".join(f"{key:<{width}}  {_scalar_text(value, ', ')}\n" for key, value in items)


def _emit_scalars(args: argparse.Namespace, items: list[tuple[str, object]]) -> None:
    if args.format == "json":
        _emit(args, _json(dict(items)))
    elif args.format == "csv":
        _emit(args, _scalar_csv(items))
    else:
        _emit(args, _scalar_human(items))


def _certificate_human(cert: certify_mod.PartitionCertificate) -> str:
    head = _scalar_human([("epsilon", cert.params.epsilon), ("R", cert.params.R), ("slack", cert.slack),
                          ("certifiedC", cert.certified_c), ("cellCount", cert.cell_count)])
    rows = certify_mod.certificate_to_csv(cert).splitlines()
    return head + "\n" + "\n".join(row.replace(",", "  ") for row in rows) + "\n"


def _emit_certificate(args: argparse.Namespace, cert: certify_mod.PartitionCertificate) -> None:
    if args.format == "json":
        _emit(args, certify_mod.certificate_to_json(cert))
    elif args.format == "csv":
        _emit(args, certify_mod.certificate_to_csv(cert))
    else:
        _emit(args, _certificate_human(cert))


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for every n below PRIME_LIMIT, the
    least strong pseudoprime to all of them, and a DomainError at or above it."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n >= PRIME_LIMIT:
        raise hypgeo.DomainError(f"prime must be below {PRIME_LIMIT}, where the test is exact; got {n}")
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_real(name: str, text: str, aliases: tuple[str, ...], value: float) -> float:
    if text.strip() in aliases:
        return value
    try:
        return float(text)
    except ValueError:
        names = " or ".join(map(repr, aliases))
        raise hypgeo.DomainError(f"cannot parse {name} {text!r} (a decimal literal or {names})")


def _parse_epsilon(text: str) -> float:
    return _parse_real("epsilon", text, ("log3",), certify_mod.REFERENCE_EPSILON)


def _parse_radius(text: str) -> float:
    return _parse_real("R", text, ("log3-paper", "reference"), certify_mod.REFERENCE_RADIUS)


def constants(args: argparse.Namespace) -> None:
    """Reproduce the headline constants at the reference parameters."""
    quad = args.quad_cfg
    half = 0.5 * certify_mod.REFERENCE_EPSILON
    b_half = density_mod.b_ratio(half, quad)
    quotient, valence = certify_mod._valence(certify_mod.REFERENCE_RADIUS, certify_mod.REFERENCE_TARGET_C,
                                             b_half, certify_mod.DEFAULT_SLACK)
    items: list[tuple[str, object]] = [
        ("BHalfEps", hypgeo.ball_volume(half)),
        ("bHalfEps", b_half),
        ("dHalfEps", density_mod.packing_density(half, quad)),
        ("lambda0", bounds_mod.lambda0(quad)),
        ("lambda1", bounds_mod.lambda1(quad)),
        ("lambda1Noncompact", bounds_mod.lambda1_noncompact(quad)),
        ("lambda1CompactP2", bounds_mod.lambda1_compact_p2(quad)),
        ("valenceQuotient", quotient),
        ("valenceBound", valence),
        ("quadratureTolerance", quad.abs_tol),
    ]
    _emit_scalars(args, items)


def verify(args: argparse.Namespace) -> None:
    """Check the built-in 47-cell reference partition (target c = 0.496)."""
    try:
        cert = certify_mod.verify_reference_partition(slack=args.slack)
    except certify_mod.CertificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        sys.exit(1)
    _emit_certificate(args, cert)


def certify(args: argparse.Namespace) -> None:
    """Adaptively certify Phi > c on the admissible interval for (epsilon, R)."""
    _emit_certificate(args, _certify(args))


def _certify(args: argparse.Namespace) -> certify_mod.PartitionCertificate:
    """Certify Phi > args.target_c at the parsed (epsilon, R), or report the failing cell and exit 1."""
    params = certify_mod.CertifyParams(_parse_epsilon(args.epsilon), _parse_radius(args.radius))
    result = certify_mod.certify_lower_bound(params, args.target_c, args.max_depth, args.slack)
    if not result.success:
        witness = result.witness
        print(f"certification failed: {result.message}", file=sys.stderr)
        if witness is not None:
            print(f"witness cell [{_fmt(witness.d_lo)}, {_fmt(witness.d_hi)}] "
                  f"margins=({', '.join(_fmt(m) for m in witness.margins)}) phiLo={_fmt(witness.phi_lo)}",
                  file=sys.stderr)
        sys.exit(1)
    assert result.certificate is not None
    return result.certificate


def optimize(args: argparse.Namespace) -> None:
    """Scan radii for the largest certifiable c and the minimal valence bound."""
    eps, grid = _parse_epsilon(args.epsilon), args.grid
    if "," in grid:
        try:
            radii = [float(tok) for tok in grid.split(",") if tok.strip()]
        except ValueError as exc:
            raise hypgeo.DomainError(f"cannot parse grid {grid!r}: {exc}")
    elif grid.strip().isdecimal():  # the digits int() reads
        radii = certify_mod.radius_grid(eps, int(grid))
    else:
        radii = [_parse_radius(grid)]
    try:
        scan = certify_mod.optimize_radius(eps, radii, quad_cfg=args.quad_cfg, c_tol=args.c_tol,
                                           max_depth=args.max_depth, slack=args.slack)
    except certify_mod.CertificationError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        sys.exit(1)
    for r, reason in scan.skipped:
        print(f"optimize: skipping R={r}: {reason}", file=sys.stderr)
    if args.format == "csv":
        lines = ["R,certifiedC,valenceBound"]
        lines += [f"{_fmt(e.R)},{_fmt(e.certified_c)},{e.valence_bound}" for e in scan.entries]
        _emit(args, "\n".join(lines) + "\n")
        return
    if args.format == "json":
        entry = lambda e: {"R": e.R, "certifiedC": e.certified_c, "valenceBound": e.valence_bound, "gap": e.gap}
        _emit(args, _json({
            "epsilon": scan.epsilon,
            "bHalfEps": scan.b_half_eps,
            "entries": [entry(e) for e in scan.entries],
            "skipped": [{"R": r, "reason": reason} for r, reason in scan.skipped],
            "best": entry(scan.best),
        }))
        return
    lines = [f"epsilon    {_fmt(scan.epsilon)}", f"bHalfEps   {_fmt(scan.b_half_eps)}", ""]
    lines.append("R                    certifiedC           valenceBound")
    for e in scan.entries:
        lines.append(f"{_fmt(e.R):<20} {_fmt(e.certified_c):<20} {e.valence_bound}")
    for r, reason in scan.skipped:
        lines.append(f"{_fmt(r):<20} skipped: {reason}")
    b = scan.best
    lines.append("")
    lines.append(f"best: R={_fmt(b.R)} certifiedC={_fmt(b.certified_c)} valenceBound={b.valence_bound}")
    _emit(args, "\n".join(lines) + "\n")


def bound(args: argparse.Namespace) -> None:
    """Homology dimension bound for a manifold of the given volume (and optionally a rank bound)."""
    if not _is_prime(args.prime):
        raise hypgeo.DomainError(f"prime must be a prime number, got {args.prime}")
    quad, volume = args.quad_cfg, args.volume
    query = bounds_mod.HomologyBoundQuery(volume=volume, compact=not _BOOLEANS[args.cusped],
                                          prime_is_two=args.prime == 2)
    name, coeff = bounds_mod.homology_coefficient(query, quad)
    items: list[tuple[str, object]] = [
        ("volume", volume),
        ("compact", query.compact),
        ("primeIsTwo", query.prime_is_two),
        ("coefficientName", name),
        ("coefficient", coeff),
        ("homologyBound", bounds_mod.homology_bound(query, quad)),
        ("smallRankBound", bounds_mod.small_rank_bound(volume)),
        ("quadratureTolerance", quad.abs_tol),
    ]
    rank_flags = (args.epsilon, args.radius, args.target_c)
    if any(v is not None for v in rank_flags):
        if None in rank_flags:
            raise hypgeo.DomainError("rank bounds need all of --epsilon, --R and --c")
        cert = _certify(args)
        try:
            report = bounds_mod.rank_bound_report(
                cert.params.epsilon, cert.params.R, args.target_c, cert, quad_cfg=quad, slack=args.slack
            )
        except certify_mod.CertificationError as exc:
            raise hypgeo.DomainError(str(exc))
        items += [
            ("rankBound", report.rank_bound(volume)),
            ("rankCoefficient", report.rank_coefficient),
            ("valenceBound", report.valence_bound),
            ("certifiedC", cert.certified_c),
            ("cellCount", cert.cell_count),
        ]
        if args.output and args.format == "json":
            _emit(args, bounds_mod.report_to_json(report, cert))
            return
    _emit_scalars(args, items)


_SHAPE_DEFAULTS = {
    "ball": (1.0,),
    "cap": (1.0, 0.5),
    "lens": (1.2, 0.7, 1.0),
    "cone": (1.0, 0.5),
    "icecream": (0.55, 1.05),
    "phi": (1.3, 0.55, 1.05),
}


def _mc_setup(shape: str, params: tuple[float, ...]):
    """Return (predicate, envelope center, envelope radius, closed-form volume)."""
    from . import mcoracle  # numpy is loaded for mc-check only

    base = mcoracle.BASEPOINT
    if shape == "ball":
        (r,) = params
        return (lambda p: mcoracle.in_ball(p, base, r)), base, r, hypgeo.ball_volume(r)
    if shape == "cap":
        r, w = params
        closed = hypgeo.cap_volume(r, w)
        toward = mcoracle.axis_point(min(abs(w), r) + 1.0)  # sets only the cap's direction
        return (lambda p: mcoracle.in_cap(p, base, toward, r, w)), base, r, closed
    if shape == "lens":
        r1, r2, d = params
        if not (r2 < min(d, r1) and d < r1 + r2 and r1 < r2 + d):
            raise hypgeo.DomainError(f"lens needs r2 < min(d, r1), d < r1 + r2, r1 < r2 + d; got {params}")
        c2 = mcoracle.axis_point(d)
        return (lambda p: mcoracle.in_lens(p, base, r1, c2, r2)), c2, r2, hypgeo.lens_volume(r1, r2, d)
    if shape == "cone":
        a, beta = params
        toward = mcoracle.axis_point(1.0)
        return (lambda p: mcoracle.in_cone(p, base, toward, a, beta)), base, a, hypgeo.cone_volume(a, beta)
    if shape == "icecream":
        r, d = params
        if not 0.0 < r < d:
            raise hypgeo.DomainError(f"icecream needs 0 < r < d, got {params}")
        closed = hypgeo.phi(d + r, r, d)  # clipped at d + r, the cone is whole
        scoop = mcoracle.axis_point(d)
        return lambda p: mcoracle.in_icecream(p, base, scoop, r), base, d + r, closed
    if shape == "phi":
        rho, r, d = params
        if not (r < d < rho < d + r):
            raise hypgeo.DomainError(f"phi region needs r < d < rho < d + r, got {params}")
        scoop = mcoracle.axis_point(d)
        predicate = lambda p: mcoracle.in_icecream(p, base, scoop, r) & mcoracle.in_ball(p, base, rho)
        return predicate, base, min(rho, d + r), hypgeo.phi(rho, r, d)
    raise hypgeo.DomainError(f"unknown shape {shape!r}")


def mc_check(args: argparse.Namespace) -> None:
    """Cross-check a closed-form volume against the Monte-Carlo estimator."""
    shape, params = args.shape, args.params
    if params is None:
        values = _SHAPE_DEFAULTS[shape]
    else:
        try:
            values = tuple(float(tok) for tok in params.split(",") if tok.strip())
        except ValueError as exc:
            raise hypgeo.DomainError(f"cannot parse params {params!r}: {exc}")
        if len(values) != len(_SHAPE_DEFAULTS[shape]):
            raise hypgeo.DomainError(f"shape {shape!r} takes {len(_SHAPE_DEFAULTS[shape])} parameters, "
                                     f"got {len(values)}")
    from . import mcoracle

    predicate, center, radius, closed = _mc_setup(shape, values)
    est = mcoracle.estimate_volume(predicate, center, radius, args.samples, args.seed)
    if est.zero_hits:
        print("mc-check: no hits inside the envelope; the estimate is 0", file=sys.stderr)
    deviation = abs(est.mean - closed) / est.standard_error if est.standard_error > 0 else (
        0.0 if est.mean == closed else math.inf
    )
    within = deviation <= 3.0
    items: list[tuple[str, object]] = [
        ("shape", shape),
        ("params", list(values)),
        ("closedForm", closed),
        ("mean", est.mean),
        ("standardError", est.standard_error),
        ("samples", est.samples),
        ("seed", est.seed),
        ("deviationSigmas", deviation),
        ("within3Sigma", within),
    ]
    _emit_scalars(args, items)
    if not within:
        sys.exit(1)


_BOOLEANS = {**dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
             **dict.fromkeys(("0", "false", "f", "no", "n", "off"), False)}


def _parser() -> tuple[argparse.ArgumentParser, set[str]]:
    """The argument parser, and the option strings that take a value: all but --help."""
    takes_value: set[str] = set()

    def option(parser: argparse.ArgumentParser, *names: str, **kwargs) -> None:
        takes_value.update(names)
        parser.add_argument(*names, **kwargs)

    parser = argparse.ArgumentParser(
        prog="hypercert", allow_abbrev=False,
        description="Certified hyperbolic-volume lower bounds and the constants they imply.")
    option(parser, "--format", "-f", choices=["json", "csv", "human"], default="human", help="Output format.")
    option(parser, "--output", "-o", help="Write output to a file instead of stdout.")
    option(parser, "--quad-tol", type=float, default=density_mod.DEFAULT_QUADRATURE.abs_tol,
           help="Absolute tolerance for the density quadrature (default: %(default)s).")
    option(parser, "--slack", type=float, default=certify_mod.DEFAULT_SLACK,
           help="Decision slack subtracted before goodness/target comparisons (default: %(default)s).")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub

    eps_help = "Margulis parameter (decimal or 'log3')."
    depth_help = "Deepest cell split of the search (default: %(default)s)."
    command(constants)
    command(verify)
    sub = command(certify)
    option(sub, "--epsilon", required=True, help=eps_help)
    option(sub, "--R", dest="radius", required=True,
           help="Ball radius (decimal, 'log3-paper' or 'reference').")
    option(sub, "--c", dest="target_c", type=float, required=True, help="Target lower bound to certify.")
    option(sub, "--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, help=depth_help)
    sub = command(optimize)
    option(sub, "--epsilon", required=True, help=eps_help)
    option(sub, "--grid", required=True,
           help="Either a point count (radii evenly spaced in (2eps, 5eps/2)) or a comma list of radii.")
    option(sub, "--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, help=depth_help)
    option(sub, "--c-tol", type=float, default=1e-5,
           help="Absolute tolerance on c: the search stops within it of the least Phi it sampled "
                "(default: %(default)s).")
    sub = command(bound)
    option(sub, "--volume", type=float, required=True, help="Hyperbolic volume of the manifold.")
    option(sub, "--cusped", type=lambda text: text.strip().lower(), choices=_BOOLEANS, default="false",
           help="True if the manifold is non-compact, in any case (default: %(default)s).")
    option(sub, "--prime", type=int, default=2, help="Coefficient field prime p (default: %(default)s).")
    option(sub, "--epsilon", help="Optional: also emit a rank bound at these parameters.")
    option(sub, "--R", dest="radius", help="Radius for the rank bound.")
    option(sub, "--c", dest="target_c", type=float, help="Certified constant for the rank bound.")
    option(sub, "--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, help=depth_help)
    sub = command(mc_check)
    option(sub, "--shape", choices=sorted(_SHAPE_DEFAULTS), required=True)
    option(sub, "--params", help="Comma-separated shape parameters (defaults are shape-specific).")
    option(sub, "--samples", type=int, default=DEFAULT_SAMPLES,
           help="Sample count for the Monte-Carlo estimate (default: %(default)s).")
    option(sub, "--seed", type=int, default=DEFAULT_SEED,
           help="Seed for Monte-Carlo sampling (default: %(default)s).")
    return parser, takes_value


def _attach_values(argv: list[str], takes_value: set[str]) -> list[str]:
    """Join a value-taking option and a next token that starts with '-' into one, as in --c=-1e-3:
    argparse reads such a token as an option unless it looks like a negative number, as -1e-3 does not."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in takes_value and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> None:
    """Run the command line on argv (default: sys.argv[1:])."""
    parser, takes_value = _parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv, takes_value))
    try:
        if not all(math.isfinite(t) and t > 0 for t in (args.quad_tol, args.slack)):
            raise hypgeo.DomainError("tolerances must be positive and finite")
        args.quad_cfg = density_mod.QuadratureConfig(abs_tol=args.quad_tol)
        args.run(args)
    except hypgeo.DomainError as exc:
        parser.error(str(exc))
    except density_mod.QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
