"""Command line front end.

Subcommands: ``compose``, ``similarity``, ``basis``, ``verify``.  All output
is JSON with numbers rendered at 17 significant digits and complex values
as [re, im] pairs, so identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 a verification property failed, 2 usage or parse
error (or an unwritable ``--output``), 3 numerical-domain error (the
reason is reported as JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import linsolve  # noqa: F401  unused; loaded for perfbench/tracer.py, which wraps it
from .algebra import cached_algebra, serialize_algebra
from .bch import _compose, _conjugate
from .errors import NumericalDomainError
from .linearize import exp_matrix
from .sampling import DEFAULT_SPECTRAL_CAP
from .verify import MAX_N, RunConfig, _jacobi_ff, _orthonormality, run_suite


def _render(value) -> str:
    """Deterministic JSON: dict order preserved, floats at 17 significant digits."""
    if isinstance(value, dict):
        items = ", ".join(f"{_render(str(k))}: {_render(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"non-finite number in report: {value!r}")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _coords_argument(text: str, dim: int, flag: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from exc
    message = f"{flag} must be a flat array of {dim} numbers"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(message) from exc
    if arr.shape != (dim,):
        raise ValueError(message)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{flag} must hold finite numbers, got {text}")
    return arr


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _checked_n(n: int) -> int:
    if not 2 <= n <= MAX_N:
        raise ValueError(f"--n must lie in 2..{MAX_N}, got {n}")
    return n


def cmd_compose(args) -> dict:
    n = _checked_n(args.n)
    basis, tensors = cached_algebra(n)
    m = _coords_argument(args.m, basis.dim, "--m")
    nvec = _coords_argument(args.nvec, basis.dim, "--nvec")
    result, product = _compose(tensors, basis, m, nvec)
    u = exp_matrix(basis, result)
    residual = np.max(np.abs(u - exp_matrix(basis, m) @ exp_matrix(basis, nvec)))
    return {
        "r": [float(x) for x in result],
        "rho0": _pair(product.scalar),
        "rho": [_pair(z) for z in product.vector],
        "residual": float(residual),
    }


def cmd_similarity(args) -> dict:
    n = _checked_n(args.n)
    basis, tensors = cached_algebra(n)
    m = _coords_argument(args.m, basis.dim, "--m")
    nvec = _coords_argument(args.nvec, basis.dim, "--nvec")
    nprime, norm_drift, scalar_constraint = _conjugate(tensors, basis, m, nvec)
    return {
        "nprime": [float(x) for x in nprime],
        "norm_drift": norm_drift,
        "scalar_constraint": scalar_constraint,
    }


def cmd_basis(args) -> dict:
    n = _checked_n(args.n)
    basis, tensors = cached_algebra(n)
    doc = serialize_algebra(basis, tensors)
    # The suite's own exhaustive checks: (checks, reached slots, residuals).
    checks = {
        "max_jacobi_residual": float(_jacobi_ff(basis, tensors)[2].max(initial=0.0)),
        "max_orthonormality_defect": float(_orthonormality(basis, tensors)[2].max(initial=0.0)),
    }
    out = {"n": doc["n"]}
    if args.emit in ("f", "all"):
        out["f"] = doc["f"]
    if args.emit in ("d", "all"):
        out["d"] = doc["d"]
    if args.emit in ("generators", "all"):
        out["generators"] = doc["generators"]
    out["checks"] = checks
    return out


def cmd_verify(args) -> tuple[dict, int]:
    config = RunConfig(
        n=_checked_n(args.n),
        seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        spectral_cap=args.spectral_cap,
    )
    report = run_suite(config)
    return report, 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunbch",
        description="Compose and conjugate SU(N) exponentials in coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="matrix dimension N")
        p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p_compose = sub.add_parser("compose", help="multiply two exponentials")
    common(p_compose)
    p_compose.add_argument("--m", required=True, help="left coordinates, JSON array")
    p_compose.add_argument("--nvec", required=True, help="right coordinates, JSON array")

    p_sim = sub.add_parser("similarity", help="conjugate an algebra element")
    common(p_sim)
    p_sim.add_argument("--m", required=True, help="exponent coordinates, JSON array")
    p_sim.add_argument("--nvec", required=True, help="element to conjugate, JSON array")

    p_basis = sub.add_parser("basis", help="emit generators and structure constants")
    common(p_basis)
    p_basis.add_argument(
        "--emit", choices=("f", "d", "generators", "all"), default="all"
    )

    p_verify = sub.add_parser("verify", help="run the seeded property suites")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument(
        "--spectral-cap", type=float, default=DEFAULT_SPECTRAL_CAP
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # No floating-point warnings: stderr carries one JSON document, and
        # the library's finiteness and residual checks refuse what an
        # overflow or invalid operation leaves behind.
        with np.errstate(all="ignore"):
            if args.command == "compose":
                doc, code = cmd_compose(args), 0
            elif args.command == "similarity":
                doc, code = cmd_similarity(args), 0
            elif args.command == "basis":
                doc, code = cmd_basis(args), 0
            else:
                doc, code = cmd_verify(args)
        _emit(_render(doc), args.output)
    except NumericalDomainError as exc:
        sys.stderr.write(_render({"error": exc.code, "message": str(exc)}) + "\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_render({"error": "usage", "message": str(exc)}) + "\n")
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
