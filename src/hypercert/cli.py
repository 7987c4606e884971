"""Command-line front end: constants, verification, certification, optimization,
bound queries and Monte-Carlo cross-checks, with json / csv / human output.

Exit codes: 0 success, 1 certification or cross-check failure, 2 invalid input.
Every option can also be supplied through an HYPERCERT_-prefixed environment
variable (e.g. HYPERCERT_FORMAT=json).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import click

from . import bounds as bounds_mod
from . import certify as certify_mod
from . import density as density_mod
from . import hypgeo
from .certify import _fmt

DEFAULT_SEED = 0xC3A7E
DEFAULT_SAMPLES = 1_000_000


@dataclass
class CliConfig:
    format: str
    output: Optional[str]
    quad_tol: float
    slack: float
    seed: int
    samples: int

    @property
    def quad_cfg(self) -> density_mod.QuadratureConfig:
        return density_mod.QuadratureConfig(abs_tol=self.quad_tol)


def _emit(cfg: CliConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _json_float(x: float) -> str:
    # JSON has no inf or nan literal
    return _fmt(x) if math.isfinite(x) else "null"


def _scalar_json(items: list[tuple[str, object]]) -> str:
    parts = []
    for key, value in items:
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, int):
            rendered = str(value)
        elif isinstance(value, float):
            rendered = _json_float(value)
        elif isinstance(value, (list, tuple)):
            rendered = "[" + ", ".join(_json_float(float(v)) for v in value) + "]"
        else:
            rendered = f'"{value}"'
        parts.append(f'  "{key}": {rendered}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _scalar_csv(items: list[tuple[str, object]]) -> str:
    lines = ["name,value"]
    for key, value in items:
        if isinstance(value, bool):
            lines.append(f"{key},{'true' if value else 'false'}")
        elif isinstance(value, float):
            lines.append(f"{key},{_fmt(value)}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key},\"{';'.join(_fmt(float(v)) for v in value)}\"")
        else:
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _scalar_human(items: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in items)
    lines = []
    for key, value in items:
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        elif isinstance(value, (list, tuple)):
            rendered = ", ".join(_fmt(float(v)) for v in value)
        else:
            rendered = str(value)
        lines.append(f"{key:<{width}}  {rendered}")
    return "\n".join(lines) + "\n"


def _emit_scalars(cfg: CliConfig, items: list[tuple[str, object]]) -> None:
    if cfg.format == "json":
        _emit(cfg, _scalar_json(items))
    elif cfg.format == "csv":
        _emit(cfg, _scalar_csv(items))
    else:
        _emit(cfg, _scalar_human(items))


def _certificate_human(cert: certify_mod.PartitionCertificate) -> str:
    head = [
        f"epsilon     {_fmt(cert.params.epsilon)}",
        f"R           {_fmt(cert.params.R)}",
        f"slack       {_fmt(cert.slack)}",
        f"certifiedC  {_fmt(cert.certified_c)}",
        f"cellCount   {cert.cell_count}",
        "",
        certify_mod.CSV_HEADER.replace(",", "  "),
    ]
    body = certify_mod.certificate_to_csv(cert).splitlines()[1:]
    return "\n".join(head + [row.replace(",", "  ") for row in body]) + "\n"


def _emit_certificate(cfg: CliConfig, cert: certify_mod.PartitionCertificate) -> None:
    if cfg.format == "json":
        _emit(cfg, certify_mod.certificate_to_json(cert))
    elif cfg.format == "csv":
        _emit(cfg, certify_mod.certificate_to_csv(cert))
    else:
        _emit(cfg, _certificate_human(cert))


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact for every n < 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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


def _parse_epsilon(text: str) -> float:
    if text.strip() == "log3":
        return math.log(3.0)
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"cannot parse epsilon {text!r} (a decimal literal or 'log3')")


def _parse_radius(text: str) -> float:
    if text.strip() in ("log3-paper", "reference"):
        return 2.0 * math.log(3.0) + 0.15
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(
            f"cannot parse R {text!r} (a decimal literal, 'log3-paper' or 'reference')"
        )


class _Command(click.Command):
    """A subcommand whose DomainError from the library is a usage error (exit 2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except hypgeo.DomainError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group, context_settings={"auto_envvar_prefix": "HYPERCERT"})
@click.option("--format", "-f", "fmt", type=click.Choice(["json", "csv", "human"]), default="human",
              show_default=True, envvar="HYPERCERT_FORMAT", help="Output format.")
@click.option("--output", "-o", type=click.Path(dir_okay=False, writable=True), default=None,
              envvar="HYPERCERT_OUTPUT", help="Write output to a file instead of stdout.")
@click.option("--quad-tol", type=float, default=density_mod.DEFAULT_QUADRATURE.abs_tol,
              show_default=True, envvar="HYPERCERT_QUAD_TOL",
              help="Absolute tolerance for the density quadrature.")
@click.option("--slack", type=float, default=certify_mod.DEFAULT_SLACK, show_default=True,
              envvar="HYPERCERT_SLACK",
              help="Decision slack subtracted before goodness/target comparisons.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True,
              envvar="HYPERCERT_SEED", help="Seed for Monte-Carlo sampling.")
@click.option("--samples", type=int, default=DEFAULT_SAMPLES, show_default=True,
              envvar="HYPERCERT_SAMPLES", help="Sample count for Monte-Carlo estimates.")
@click.pass_context
def main(ctx: click.Context, fmt: str, output: Optional[str], quad_tol: float, slack: float,
         seed: int, samples: int) -> None:
    """Certified hyperbolic-volume lower bounds and the constants they imply."""
    if not all(math.isfinite(t) and t > 0 for t in (quad_tol, slack)):
        raise click.UsageError("tolerances must be positive and finite")
    ctx.obj = CliConfig(format=fmt, output=output, quad_tol=quad_tol, slack=slack,
                        seed=seed, samples=samples)


@main.command()
@click.pass_obj
def constants(cfg: CliConfig) -> None:
    """Reproduce the headline constants at the reference parameters."""
    try:
        quad = cfg.quad_cfg
        half = 0.5 * certify_mod.REFERENCE_EPSILON
        b_half = density_mod.b_ratio(half, quad)
        d_half = density_mod.packing_density(half, quad)
        lam0 = bounds_mod.lambda0(quad)
        valence = bounds_mod.reference_valence_bound(quad)
        quotient = (hypgeo.ball_volume(certify_mod.REFERENCE_RADIUS) - b_half) / certify_mod.REFERENCE_TARGET_C
    except density_mod.QuadratureError as exc:
        click.echo(f"quadrature failure: {exc}", err=True)
        sys.exit(1)
    items: list[tuple[str, object]] = [
        ("BHalfEps", hypgeo.ball_volume(half)),
        ("bHalfEps", b_half),
        ("dHalfEps", d_half),
        ("lambda0", lam0),
        ("lambda1", bounds_mod.lambda1(quad)),
        ("lambda1Noncompact", bounds_mod.lambda1_noncompact(quad)),
        ("lambda1CompactP2", bounds_mod.lambda1_compact_p2(quad)),
        ("valenceQuotient", quotient),
        ("valenceBound", valence),
        ("quadratureTolerance", quad.abs_tol),
    ]
    _emit_scalars(cfg, items)


@main.command()
@click.pass_obj
def verify(cfg: CliConfig) -> None:
    """Check the built-in 47-cell reference partition (target c = 0.496)."""
    try:
        cert = certify_mod.verify_reference_partition(slack=cfg.slack)
    except certify_mod.CertificationError as exc:
        click.echo(f"verification failed: {exc}", err=True)
        sys.exit(1)
    _emit_certificate(cfg, cert)


@main.command()
@click.option("--epsilon", required=True, help="Margulis parameter (decimal or 'log3').")
@click.option("--R", "radius", required=True, help="Ball radius (decimal, 'log3-paper' or 'reference').")
@click.option("--c", "target_c", type=float, required=True, help="Target lower bound to certify.")
@click.option("--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, show_default=True)
@click.pass_obj
def certify(cfg: CliConfig, epsilon: str, radius: str, target_c: float, max_depth: int) -> None:
    """Adaptively certify Phi > c on the admissible interval for (epsilon, R)."""
    _emit_certificate(cfg, _certify(cfg, epsilon, radius, target_c, max_depth))


def _certify(cfg: CliConfig, epsilon: str, radius: str, target_c: float,
             max_depth: int) -> certify_mod.PartitionCertificate:
    """Certify Phi > target_c at the parsed (epsilon, R), or report the failing cell and exit 1."""
    params = certify_mod.CertifyParams(_parse_epsilon(epsilon), _parse_radius(radius))
    result = certify_mod.certify_lower_bound(params, target_c, max_depth, cfg.slack)
    if not result.success:
        witness = result.witness
        click.echo(f"certification failed: {result.message}", err=True)
        if witness is not None:
            click.echo(
                f"witness cell [{_fmt(witness.d_lo)}, {_fmt(witness.d_hi)}] "
                f"margins=({', '.join(_fmt(m) for m in witness.margins)}) "
                f"phiLo={_fmt(witness.phi_lo) if witness.phi_lo is not None else 'null'}",
                err=True,
            )
        sys.exit(1)
    assert result.certificate is not None
    return result.certificate


@main.command()
@click.option("--epsilon", required=True, help="Margulis parameter (decimal or 'log3').")
@click.option("--grid", required=True,
              help="Either a point count (radii evenly spaced in (2eps, 5eps/2)) or a comma list of radii.")
@click.option("--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, show_default=True)
@click.option("--c-tol", type=float, default=1e-5, show_default=True,
              help="Absolute tolerance of the bisection on c.")
@click.pass_obj
def optimize(cfg: CliConfig, epsilon: str, grid: str, max_depth: int, c_tol: float) -> None:
    """Scan radii for the largest certifiable c and the minimal valence bound."""
    eps = _parse_epsilon(epsilon)
    try:
        if "," in grid:
            radii = [float(tok) for tok in grid.split(",") if tok.strip()]
        elif grid.strip().isdigit():
            radii = certify_mod.radius_grid(eps, int(grid))
        else:
            radii = [_parse_radius(grid)]
    except ValueError as exc:
        raise click.UsageError(f"cannot parse grid {grid!r}: {exc}")
    try:
        scan = certify_mod.optimize_radius(
            eps, radii, quad_cfg=cfg.quad_cfg, c_tol=c_tol, max_depth=max_depth, slack=cfg.slack
        )
    except certify_mod.CertificationError as exc:
        click.echo(f"optimization failed: {exc}", err=True)
        sys.exit(1)
    if cfg.format == "csv":
        lines = ["R,certifiedC,valenceBound"]
        lines += [f"{_fmt(e.R)},{_fmt(e.certified_c)},{e.valence_bound}" for e in scan.entries]
        _emit(cfg, "\n".join(lines) + "\n")
        return
    if cfg.format == "json":
        entries = ",\n    ".join(
            f'{{"R": {_fmt(e.R)}, "certifiedC": {_fmt(e.certified_c)}, "valenceBound": {e.valence_bound}}}'
            for e in scan.entries
        )
        skipped = ",\n    ".join(
            f'{{"R": {_fmt(r)}, "reason": "{reason}"}}' for r, reason in scan.skipped
        )
        skipped_block = "\n    " + skipped + "\n  " if skipped else ""
        best = scan.best
        _emit(
            cfg,
            "{\n"
            f'  "epsilon": {_fmt(scan.epsilon)},\n'
            f'  "bHalfEps": {_fmt(scan.b_half_eps)},\n'
            f'  "entries": [\n    {entries}\n  ],\n'
            f'  "skipped": [{skipped_block}],\n'
            f'  "best": {{"R": {_fmt(best.R)}, "certifiedC": {_fmt(best.certified_c)}, '
            f'"valenceBound": {best.valence_bound}}}\n'
            "}\n",
        )
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
    _emit(cfg, "\n".join(lines) + "\n")


@main.command()
@click.option("--volume", type=float, required=True, help="Hyperbolic volume of the manifold.")
@click.option("--cusped", type=bool, default=False, show_default=True,
              help="True if the manifold is non-compact.")
@click.option("--prime", type=int, default=2, show_default=True, help="Coefficient field prime p.")
@click.option("--epsilon", default=None, help="Optional: also emit a rank bound at these parameters.")
@click.option("--R", "radius", default=None, help="Radius for the rank bound.")
@click.option("--c", "target_c", type=float, default=None, help="Certified constant for the rank bound.")
@click.option("--max-depth", type=int, default=certify_mod.DEFAULT_MAX_DEPTH, show_default=True)
@click.pass_obj
def bound(cfg: CliConfig, volume: float, cusped: bool, prime: int, epsilon: Optional[str],
          radius: Optional[str], target_c: Optional[float], max_depth: int) -> None:
    """Homology dimension bound for a manifold of the given volume (and optionally a rank bound)."""
    if not _is_prime(prime):
        raise click.UsageError(f"prime must be a prime number, got {prime}")
    quad = cfg.quad_cfg
    query = bounds_mod.HomologyBoundQuery(volume=volume, compact=not cusped, prime_is_two=prime == 2)
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
    rank_requested = any(v is not None for v in (epsilon, radius, target_c))
    if rank_requested:
        if epsilon is None or radius is None or target_c is None:
            raise click.UsageError("rank bounds need all of --epsilon, --R and --c")
        cert = _certify(cfg, epsilon, radius, target_c, max_depth)
        try:
            report = bounds_mod.rank_bound_report(
                cert.params.epsilon, cert.params.R, target_c, cert, quad_cfg=quad, slack=cfg.slack
            )
        except certify_mod.CertificationError as exc:
            raise click.UsageError(str(exc))
        items += [
            ("rankBound", report.rank_bound(volume)),
            ("rankCoefficient", report.rank_coefficient),
            ("valenceBound", report.valence_bound),
            ("certifiedC", cert.certified_c),
            ("cellCount", cert.cell_count),
        ]
        if cfg.output and cfg.format == "json":
            _emit(cfg, bounds_mod.report_to_json(report, cert))
            return
    _emit_scalars(cfg, items)


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
        toward = mcoracle.axis_point(max(1.0, abs(w) + 1.0))
        return (
            lambda p: mcoracle.in_cap(p, base, toward, r, w),
            base, r, hypgeo.cap_volume(r, w),
        )
    if shape == "lens":
        r1, r2, d = params
        if not (r2 < min(d, r1) and d < r1 + r2 and r1 < r2 + d):
            raise hypgeo.DomainError(
                f"lens needs r2 < min(d, r1), d < r1 + r2, r1 < r2 + d; got {params}"
            )
        c2 = mcoracle.axis_point(d)
        return (
            lambda p: mcoracle.in_lens(p, base, r1, c2, r2),
            c2, r2, hypgeo.lens_volume(r1, r2, d),
        )
    if shape == "cone":
        a, beta = params
        toward = mcoracle.axis_point(1.0)
        return (
            lambda p: mcoracle.in_cone(p, base, toward, a, beta),
            base, a, hypgeo.cone_volume(a, beta),
        )
    if shape == "icecream":
        r, d = params
        if not 0.0 < r < d:
            raise hypgeo.DomainError(f"icecream needs 0 < r < d, got {params}")
        scoop = mcoracle.axis_point(d)
        om, th = hypgeo.omega(r, d), hypgeo.theta(r, d)
        closed = hypgeo.ball_volume(r) + hypgeo.cone_volume(om, th) - hypgeo.cap_volume(
            r, d - hypgeo.psi(om, th)
        )
        return (
            lambda p: mcoracle.in_icecream(p, base, scoop, r),
            base, d + r, closed,
        )
    if shape == "phi":
        rho, r, d = params
        if not (r < d < rho < d + r):
            raise hypgeo.DomainError(f"phi region needs r < d < rho < d + r, got {params}")
        scoop = mcoracle.axis_point(d)
        return (
            lambda p: mcoracle.in_icecream(p, base, scoop, r) & mcoracle.in_ball(p, base, rho),
            base, min(rho, d + r), hypgeo.phi(rho, r, d),
        )
    raise hypgeo.DomainError(f"unknown shape {shape!r}")


@main.command("mc-check")
@click.option("--shape", type=click.Choice(sorted(_SHAPE_DEFAULTS)), required=True)
@click.option("--params", default=None,
              help="Comma-separated shape parameters (defaults are shape-specific).")
@click.option("--samples", "samples_override", type=int, default=None,
              help="Override the global sample count.")
@click.option("--seed", "seed_override", type=int, default=None,
              help="Override the global seed.")
@click.pass_obj
def mc_check(cfg: CliConfig, shape: str, params: Optional[str],
             samples_override: Optional[int], seed_override: Optional[int]) -> None:
    """Cross-check a closed-form volume against the Monte-Carlo estimator."""
    if samples_override is not None:
        cfg.samples = samples_override
    if seed_override is not None:
        cfg.seed = seed_override
    if params is None:
        values = _SHAPE_DEFAULTS[shape]
    else:
        try:
            values = tuple(float(tok) for tok in params.split(",") if tok.strip())
        except ValueError as exc:
            raise click.UsageError(f"cannot parse params {params!r}: {exc}")
        if len(values) != len(_SHAPE_DEFAULTS[shape]):
            raise click.UsageError(
                f"shape {shape!r} takes {len(_SHAPE_DEFAULTS[shape])} parameters, got {len(values)}"
            )
    from . import mcoracle

    predicate, center, radius, closed = _mc_setup(shape, values)
    est = mcoracle.estimate_volume(predicate, center, radius, cfg.samples, cfg.seed)
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
    _emit_scalars(cfg, items)
    if not within:
        sys.exit(1)


if __name__ == "__main__":
    main()
