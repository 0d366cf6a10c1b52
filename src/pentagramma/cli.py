"""Command-line interface and the only I/O layer of the package.

Subcommands: pentagram, napier, bridge, poncelet, verify-all.  Human tables
go to stdout by default; --json switches to a schema-stable JSON document
(sorted keys, 17 significant digits, byte-identical for identical inputs).
Exit codes: 0 pass, 1 check failure, 2 domain error, 3 invariant error,
4 subcritical omega, 5 failed search.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

from . import verify
from .cone_spectrum import (OMEGA_CRITICAL, cone_coefficients, modulus_from_spectrum,
                            solve_characteristic)
from .elliptic_kernel import complete_K, incomplete_F, jacobi_triple
from .errors import (DomainError, GeometryError, NoSolutionError, PentagrammaError,
                     SubcriticalError)
from .gauss_projection import pentagon_from_frame
from .napier_uniformization import (alpha_sequence, beta_sequence, frame_vectors,
                                    k_of_omega, omega_of_k, sweep_frames)
from .pentagram_algebra import (build_sphere_vertices, complete_from_two,
                                pentagram_invariants)
from .dilogarithm import pentagon_five_term
from .poncelet import (TwoCircleConfig, closure_residual, modulus_of_config,
                       porism_residual, search_closing_config, trajectory)
from .verify import Check

_NEAR_CRITICAL_WARN = 1e-4
_SVG_SIZE = 480  # pixels per side
# the porism's start half-angles: the first vertices 72 degrees apart on the outer circle
_PORISM_STARTS = tuple(j * math.pi / 5 for j in range(5))

_EXIT_CHECK_FAIL = 1
_EXIT_DOMAIN = 2
_EXIT_INVARIANT = 3
_EXIT_SUBCRITICAL = 4
_EXIT_SEARCH = 5


# ---------------------------------------------------------------- reports

@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt(value) -> str:
    """17 significant digits; non-finite values become quoted strings."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return f'"{value}"'
    return format(value, ".17g")


def _to_json(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f'"{key}": {_to_json(obj[key])}' for key in sorted(obj))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        import json as _json
        return _json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return _fmt(obj)


def report_json(report: RunReport) -> str:
    doc = {
        "command": report.command,
        "inputs": report.inputs,
        "outputs": report.outputs,
        "residuals": {c.name: {"value": float(c.residual), "tol": c.tol}
                      for c in report.checks},
        "status": "pass" if report.passed else "fail",
        "warnings": report.warnings,
    }
    return _to_json(doc)


def report_text(report: RunReport) -> str:
    lines = [f"command: {report.command}"]
    for key in sorted(report.inputs):
        lines.append(f"  input  {key} = {_to_json(report.inputs[key])}")
    for key in sorted(report.outputs):
        lines.append(f"  output {key} = {_to_json(report.outputs[key])}")
    for c in report.checks:
        tag = "pass" if c.passed else "FAIL"
        extra = f"  ({c.detail})" if c.detail else ""
        lines.append(f"  [{tag}] {c.name}: residual={c.residual:.6e} "
                     f"tol={c.tol:.1e}{extra}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    lines.append(f"status: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------- drawings

def _svg_document(body: list[str], half_extent: float) -> str:
    scale = _SVG_SIZE / (2.0 * half_extent)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
            f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
            f'<g transform="translate({_SVG_SIZE / 2},{_SVG_SIZE / 2}) '
            f'scale({scale:.6f},{-scale:.6f})" '
            f'stroke-width="{2.0 / scale:.6f}" fill="none">\n')
    return head + "\n".join(body) + "\n</g>\n</svg>\n"


def pentagon_svg(pentagon) -> str:
    gp, gpp = pentagon.axes
    pts = " ".join(f"{x:.8f},{y:.8f}" for x, y in pentagon.points)
    close = f"{pentagon.points[0][0]:.8f},{pentagon.points[0][1]:.8f}"
    body = [
        f'<ellipse cx="0" cy="0" rx="{gp:.8f}" ry="{gpp:.8f}" stroke="#888888"/>',
        f'<polyline points="{pts} {close}" stroke="#003366"/>',
    ]
    for x, y in pentagon.points:
        body.append(f'<circle cx="{x:.8f}" cy="{y:.8f}" r="{gp / 60:.8f}" '
                    'stroke="#990000"/>')
    return _svg_document(body, half_extent=1.15 * max(gp, gpp))


def poncelet_svg(config: TwoCircleConfig, walk) -> str:
    """The circles and the walk in units of R, so that every R draws at one scale."""
    body = [
        '<circle cx="0" cy="0" r="1.00000000" stroke="#888888"/>',
        f'<circle cx="{-config.s:.8f}" cy="0" r="{config.t:.8f}" stroke="#888888"/>',
    ]
    pts = " ".join(f"{math.cos(2 * p):.8f},{math.sin(2 * p):.8f}" for p in walk.phis)
    body.append(f'<polyline points="{pts}" stroke="#003366"/>')
    return _svg_document(body, half_extent=1.15)


def _write_csv(handle, header: list[str], rows) -> int:
    """Write the header, then each row as it comes; the number of rows."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for count, row in enumerate(rows, 1):
        writer.writerow(row)
    return count


class _UnwritablePath(Exception):
    """An OSError met on a --csv or --svg path, told apart from one met on stdout."""


@contextlib.contextmanager
def _output_file(path: str):
    """The file at path, open for writing; an OSError it meets becomes an _UnwritablePath."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise _UnwritablePath from exc


def _write_file(path: str, content: str) -> None:
    with _output_file(path) as handle:
        handle.write(content)


# ---------------------------------------------------------------- commands

def _tol_override(args) -> float | None:
    """--tol, else PENTAGRAMMA_TOL, else None; a tolerance is finite and >= 0."""
    tol, source = getattr(args, "tol", None), "--tol"
    if tol is None:
        env = os.environ.get("PENTAGRAMMA_TOL")
        if not env:
            return None
        source = "PENTAGRAMMA_TOL"
        try:
            tol = float(env)
        except ValueError:
            raise DomainError(f"PENTAGRAMMA_TOL={env!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"{source}={tol!r} is not a finite tolerance >= 0")
    return tol


def _apply_override(checks: list[Check], override: float | None) -> list[Check]:
    return checks if override is None else [replace(c, tol=override) for c in checks]


def cmd_pentagram(args, out) -> RunReport:
    cycle = complete_from_two(args.alpha, args.gamma)
    total, prod, augmented = pentagram_invariants(cycle)
    quadric = cone_coefficients(args.alpha, args.gamma)
    k = k_of_omega(prod)
    spectral = solve_characteristic(prod)
    pentagon = build_sphere_vertices(cycle)

    report = RunReport(
        command="pentagram",
        inputs={"alpha": args.alpha, "gamma": args.gamma},
        outputs={
            "alphas": list(cycle.alphas),
            "omega": prod,
            "cone": {"p": quadric.p, "q": quadric.q, "r": quadric.r},
            "roots": {"G": spectral.G, "Gp": spectral.Gp, "Gpp": spectral.Gpp},
            "modulus": k,
            "sides": list(pentagon.sides),
        },
    )
    report.checks.append(Check("cycle_law", max(abs(r) for r in
                                                cycle.relation_residuals()), 1e-12))
    report.checks.append(Check("invariant_sum", abs(total - prod) / prod, 1e-10))
    report.checks.append(Check("invariant_sqrt", abs(augmented - prod) / prod, 1e-10))
    report.checks.append(Check("root_products", max(abs(r) for r in
                                                    spectral.product_residuals()), 1e-10))
    if prod - OMEGA_CRITICAL < _NEAR_CRITICAL_WARN:
        report.warnings.append(
            f"omega is within {_NEAR_CRITICAL_WARN} of the regular value; "
            f"modulus k = {k:.6g} is near 0")
    return report


def _napier_row(frame):
    cycle = alpha_sequence(frame)
    betas = beta_sequence(frame)
    law = max(abs(r) for r in cycle.relation_residuals())
    five = abs(pentagon_five_term(betas))
    return cycle, betas, law, five


def cmd_napier(args, out) -> RunReport | None:
    """The report of one frame, or None once the --grid CSV is written."""
    if args.grid:
        import numpy as np

        def rows():
            for frame in sweep_frames(np.random.default_rng(args.seed), args.samples):
                cycle, betas, law, five = _napier_row(frame)
                yield [format(v, ".17g")
                       for v in (frame.k, frame.u, *cycle.alphas, *betas, law, five)]

        header = (["k", "u"] + [f"alpha_{j}" for j in range(5)]
                  + [f"beta_{j}" for j in range(5)]
                  + ["law_residual", "five_term_residual"])
        if args.csv:
            with _output_file(args.csv) as handle:
                count = _write_csv(handle, header, rows())
            out.write(f"wrote {count} rows to {args.csv}\n")
        else:
            _write_csv(out, header, rows())
        return None

    frame = frame_vectors(args.k, args.u)
    cycle, betas, law, five = _napier_row(frame)
    report = RunReport(
        command="napier",
        inputs={"k": args.k, "u": args.u},
        outputs={
            "K": frame.K,
            "vectors": frame.vectors,
            "alphas": list(cycle.alphas),
            "betas": list(betas),
            "omega": cycle.omega(),
        },
    )
    report.checks.append(Check("pentagon_law", law, 1e-10))
    report.checks.append(Check("five_term_sum", five, 1e-10))
    if args.svg:
        _write_file(args.svg, pentagon_svg(pentagon_from_frame(frame)))
        report.outputs["svg"] = args.svg
    return report


def cmd_bridge(args, out) -> RunReport:
    if args.omega is not None:
        omega, k = args.omega, k_of_omega(args.omega)
    else:
        omega, k = omega_of_k(args.k), args.k
    spectral = solve_characteristic(omega)
    k_spectral, cnw, dnw = modulus_from_spectrum(spectral)
    quarter = complete_K(k)
    lattice = jacobi_triple(0.4 * quarter, k)
    report = RunReport(
        command="bridge",
        inputs=({"omega": omega} if args.omega is not None else {"k": args.k}),
        outputs={
            "omega": omega,
            "k": k,
            "K": quarter,
            "roots": {"G": spectral.G, "Gp": spectral.Gp, "Gpp": spectral.Gpp},
            "cn_lattice": lattice.cn,
            "dn_lattice": lattice.dn,
        },
    )
    report.checks.append(Check("cn_bridge", abs(lattice.cn - cnw), 1e-9))
    report.checks.append(Check("dn_bridge", abs(lattice.dn - dnw), 1e-9))
    if args.omega is not None and k > 0.0:
        report.checks.append(Check("omega_roundtrip",
                                   abs(omega_of_k(k) - omega) / max(1.0, omega), 1e-9))
    if args.omega is None:
        report.checks.append(Check("k_roundtrip", abs(k_spectral - k), 1e-9))
    return report


def cmd_poncelet(args, out) -> RunReport:
    if args.solve:
        n, m = args.solve
        config = search_closing_config(n, m, args.R, args.r)
        porism = porism_residual(config, n, m, _PORISM_STARTS)
        k, alpha = modulus_of_config(config)
        report = RunReport(
            command="poncelet",
            inputs={"R": args.R, "r": args.r, "solve_n": n, "solve_m": m},
            outputs={"a": config.a, "k": k, "alpha": alpha},
        )
        report.checks.append(Check("closure_residual",
                                   abs(closure_residual(config, n, m)), 1e-12))
        report.checks.append(Check("porism_closure", porism, 1e-8))
    else:
        config = TwoCircleConfig(R=args.R, r=args.r, a=args.a)
        k, alpha = modulus_of_config(config)
        step = incomplete_F(alpha, k)
        full = 2.0 * complete_K(k)
        candidates = {}
        for n in range(3, 13):
            for m in range(1, n // 2 + 1):
                if math.gcd(n, m) == 1:
                    candidates[f"{n}/{m}"] = closure_residual(config, n, m)
        report = RunReport(
            command="poncelet",
            inputs={"R": args.R, "r": args.r, "a": args.a},
            outputs={"k": k, "alpha": alpha, "step": step,
                     "turn_fraction": step / full,
                     "closure_residuals": candidates},
        )

    if args.svg or args.csv:
        walk = trajectory(config, args.phi0, args.steps)
        if args.svg:
            _write_file(args.svg, poncelet_svg(config, walk))
            report.outputs["svg"] = args.svg
        if args.csv:
            with _output_file(args.csv) as handle:
                _write_csv(handle, ["i", "phi"], ([i, format(float(phi), ".17g")]
                                                  for i, phi in enumerate(walk.phis)))
            report.outputs["csv"] = args.csv
    return report


def cmd_verify_all(args, out) -> RunReport:
    report = RunReport(command="verify-all",
                       inputs={"seed": args.seed,
                               "tol": args.tol if args.tol is not None else "default"})
    for number, checks in verify.run_all(seed=args.seed).items():
        checks = _apply_override(
            [replace(c, name=f"{number:02d}.{c.name}") for c in checks], args.tol)
        report.checks.extend(checks)
        report.outputs[f"criterion_{number:02d}"] = (
            "pass" if all(c.passed for c in checks) else "fail")
    return report


# ---------------------------------------------------------------- parser

def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentagramma",
        description="Napier pentagons, their cone spectrum, Poncelet closure "
                    "and the dilogarithm five-term identity, verified numerically.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pentagram",
                       help="complete a pentagon from two side quantities")
    p.add_argument("--alpha", type=float, required=True,
                   help="first squared side tangent")
    p.add_argument("--gamma", type=float, required=True,
                   help="third squared side tangent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pentagram)

    p = sub.add_parser("napier", help="elliptic 5-division pentagon frame")
    p.add_argument("--k", type=float, help="elliptic modulus (default 0)")
    p.add_argument("--u", type=float, help="frame parameter (default 0)")
    p.add_argument("--grid", action="store_true", help="sweep the (k, u) grid and emit CSV")
    p.add_argument("--samples", type=_nonnegative_int,
                   help="u samples per k in grid mode (default 20)")
    p.add_argument("--seed", type=_nonnegative_int, help="grid draws (default 0)")
    p.add_argument("--csv", metavar="FILE", help="grid CSV destination")
    p.add_argument("--svg", metavar="FILE", help="write the projected pentagon drawing")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_napier)

    p = sub.add_parser("bridge",
                       help="spectral roots vs elliptic lattice, either direction")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega", type=float, help="shape invariant")
    group.add_argument("--k", type=float, help="elliptic modulus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("poncelet", help="chord polygons between nested circles")
    p.add_argument("--R", type=float, required=True, help="outer radius")
    p.add_argument("--r", type=float, required=True, help="inner radius")
    p.add_argument("--a", type=float, help="centre distance (default 0)")
    p.add_argument("--solve", nargs=2, type=int, metavar=("N", "M"),
                   help="search the centre distance closing after N chords, M turns")
    p.add_argument("--steps", type=int, help="chords drawn for --svg/--csv (default 30)")
    p.add_argument("--phi0", type=float, help="starting half-angle (default 0)")
    p.add_argument("--svg", metavar="FILE")
    p.add_argument("--csv", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poncelet)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_all)

    return parser


# per subcommand, rows of (switches, wanted, {option: default}): the mode reads the
# options only when one of the switches being given is wanted; each option is None
# until given, then a given one that the mode would drop is refused, a read one defaulted
_MODE_OPTIONS = {"napier": ((("grid",), False, {"k": 0.0, "u": 0.0, "svg": None}),
                            (("grid",), True, {"csv": None, "seed": 0, "samples": 20})),
                 "poncelet": ((("solve",), False, {"a": 0.0}),
                              (("svg", "csv"), True, {"steps": 30, "phi0": 0.0}))}


def _refuse_dropped(args, error) -> None:
    """A usage error for a given option that the mode would drop; else a read one's default."""
    for switches, wanted, options in _MODE_OPTIONS[args.subcommand]:
        read = any(getattr(args, s) for s in switches) == wanted
        for dest, default in options.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default if read else None)
            elif not read:
                error(f"argument --{dest}: not allowed {'without' if wanted else 'with'} "
                      f"argument {' or '.join(f'--{s}' for s in switches)}")


def _report_error(args, out, exc: PentagrammaError | OSError, label: str, code: int) -> int:
    """Name a typed error on stderr and, under --json, as a JSON document on out."""
    print(f"{label}: {exc}", file=sys.stderr)
    if args.json:
        inputs = {key: value for key, value in vars(args).items()
                  if key not in ("func", "json", "subcommand") and value is not None}
        out.write(_to_json({"command": args.subcommand, "error": type(exc).__name__,
                            "inputs": inputs, "message": str(exc),
                            "status": "error"}) + "\n")
        out.flush()
    return code


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand in _MODE_OPTIONS:
        _refuse_dropped(args, parser.error)
    try:
        try:
            override = _tol_override(args)
            if args.func is cmd_verify_all:  # the one mode with --tol records it as an input
                args.tol = override
            report = args.func(args, out)
            if report is not None:
                if args.func is not cmd_verify_all:  # verify-all applies it per criterion
                    report.checks = _apply_override(report.checks, override)
                out.write((report_json(report) if args.json else report_text(report)) + "\n")
            out.flush()
        except (DomainError, GeometryError) as exc:
            return _report_error(args, out, exc, "domain error", _EXIT_DOMAIN)
        except SubcriticalError as exc:
            return _report_error(args, out, exc, "subcritical", _EXIT_SUBCRITICAL)
        except NoSolutionError as exc:
            return _report_error(args, out, exc, "search failed", _EXIT_SEARCH)
        except PentagrammaError as exc:
            return _report_error(args, out, exc, "invariant violation", _EXIT_INVARIANT)
        except _UnwritablePath as exc:  # an unwritable --csv or --svg path
            return _report_error(args, out, exc.__cause__, "cannot write", _EXIT_DOMAIN)
    except OSError as exc:  # a closed or full stdout, met by a report or an error document
        if out is sys.stdout:  # and the interpreter's last flush goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        print(f"cannot write: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    return 0 if report is None or report.passed else _EXIT_CHECK_FAIL


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
