"""Command line interface: list catalog entries, evaluate tensors at a
point, run the verification suite.

Exit codes: 0 all non-skipped checks pass (or informational command), 1 a
check failed, 2 usage error, 3 input/load error.  Human output prints
residuals with three significant digits; JSON output carries full doubles
and is byte-identical for identical configurations.  Index labels in human
output are 1-based (mathematical style); file formats are 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog, expr, geometry, theorems
from .connections import nonmetricity_components, torsion_components
from .curvature import jet, lam_scale, scalar_curvature, theta_beta
from .geometry import DimensionError, NotSPDError, SpecError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


def _load_manifold(args) -> geometry.ManifoldSpec:
    if getattr(args, "file", None):
        try:
            return geometry.load_spec(Path(args.file))
        except (SpecError, OSError, UnicodeDecodeError) as err:
            raise _InputError(f"cannot load manifold file: {err}") from err
    name = getattr(args, "manifold", None)
    if not name:
        raise _UsageError("one of --manifold or --file is required")
    try:
        return catalog.builtin(name).spec
    except KeyError as err:
        raise _InputError(err.args[0]) from err


def _parse_point(text: str, spec) -> tuple[float, ...]:
    try:
        point = tuple(expr.read_number(p) for p in text.split(","))
    except ValueError:
        raise _UsageError(f"--point must be comma separated reals, got {text!r}") from None
    if len(point) != spec.n:
        raise _UsageError(
            f"--point has {len(point)} coordinates, chart {spec.name!r} has {spec.n}"
        )
    if not geometry.in_box(spec, point):
        raise _UsageError(f"point {text} is outside the sampling box of {spec.name!r}")
    return point


def _parse_integer(option: str, text: str) -> int:
    """An integer option: an optional sign and ASCII digits, nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or not set(digits) <= set(expr.DIGITS):
        raise _UsageError(f"{option} must be an integer, got {text!r}")
    return int(text)


def _parse_tolerances(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        key, _, value = pair.partition("=")
        if not value:
            raise _UsageError(f"--tol expects <check>=<value>, got {pair!r}")
        if key not in theorems.REGISTRY:
            raise _UsageError(f"unknown check id in --tol: {key!r}")
        try:
            overrides[key] = expr.read_number(value)
        except ValueError:
            raise _UsageError(f"--tol value for {key!r} is not a number, got {value!r}") from None
        if not math.isfinite(overrides[key]) or overrides[key] < 0:
            raise _UsageError(f"--tol value for {key!r} must be finite and non-negative, got {value}")
    return overrides


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as err:
            raise _InputError(f"cannot write --out file: {err}") from err
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``projconn list | head -1``).  Point stdout
        # at devnull so the flush at exit cannot fail again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise SystemExit(EXIT_OK) from None


# ---------------------------------------------------------------------------
# list


def _cmd_list(args) -> int:
    entries = []
    for name in catalog.catalog_names():
        entry = catalog.builtin(name)
        spec = entry.spec
        entries.append(
            {
                "name": name,
                "dim": spec.n,
                "parallel_xi": spec.parallel_xi_expected,
                "structure": spec.phi is not None,
                "provenance": entry.provenance,
            }
        )
    if args.json:
        _emit(json.dumps(entries, indent=2), args.out)
        return EXIT_OK
    lines = []
    for e in entries:
        flags = "parallel xi" if e["parallel_xi"] else "non-parallel xi"
        if e["structure"]:
            flags += ", almost-contact structure"
        lines.append(f"{e['name']} (n={e['dim']}, {flags})")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _json_text(data, subject: str) -> str:
    """``data`` as indented JSON; a non-finite number, which JSON has not,
    is an input error naming ``subject``."""
    try:
        return json.dumps(data, indent=2, allow_nan=False)
    except ValueError:
        raise _InputError(f"{subject} holds a non-finite value") from None


def _component_lines(label: str, array: np.ndarray, index_names: str) -> list[str]:
    """Nonzero components with 1-based index labels; NaN counts as nonzero."""
    lines = []
    for idx in np.ndindex(array.shape):
        value = array[idx]
        if not abs(value) <= 1e-14:
            tags = ",".join(
                f"{name}={pos + 1}" for name, pos in zip(index_names, idx)
            )
            lines.append(f"{label}[{tags}] = {value:.10g}")
    if not lines:
        lines.append(f"{label}: all components zero")
    return lines


def _nonmetricity(spec, j):
    closed, direct = nonmetricity_components(j)
    return direct[0], {"two_path_discrepancy": float(np.max(np.abs(closed - direct)))}


def _ricci(spec, j):
    return j.lc.S[0], {"scalar_curvature": float(scalar_curvature(j.G_inv, j.lc.S)[0])}


def _ricci_tilde(spec, j):
    return j.pr.S[0], {
        "scalar_curvature": float(scalar_curvature(j.G_inv, j.pr.S)[0]),
        "lambda": lam_scale(spec.n),
    }


def _projective(spec, cj):
    spec.require_dimension_above_two()
    return cj.P[0], {}


# tensor id -> (order of the one-sample jet it reads, index labels, reader
# of (array, extras) from the spec and that jet)
_TENSORS = {
    "gamma": (1, "kij", lambda spec, j: (j.lc.Gamma[0], {})),
    "gamma_tilde": (1, "kij", lambda spec, j: (j.pr.Gamma[0], {})),
    "torsion": (0, "kij", lambda spec, j: (torsion_components(j)[0], {})),
    "nonmetricity": (1, "ijk", _nonmetricity),
    "riemann": (2, "lijk", lambda spec, j: (j.lc.R[0], {})),
    "riemann_tilde": (2, "lijk", lambda spec, j: (j.pr.R[0], {})),
    "ricci": (2, "jk", _ricci),
    "ricci_tilde": (2, "jk", _ricci_tilde),
    "theta": (1, "ij", lambda spec, j: (theta_beta(j)[0][0], {})),
    "beta": (1, "ij", lambda spec, j: (theta_beta(j)[1][0], {})),
    "projective": (2, "lijk", lambda spec, j: _projective(spec, j.lc)),
    "projective_tilde": (2, "lijk", lambda spec, j: _projective(spec, j.pr)),
}

TENSOR_IDS = tuple(_TENSORS)


def _eval_tensor(spec, tensor: str, point):
    """(array, index labels, extras) of one tensor at a point."""
    if tensor not in _TENSORS:
        raise _UsageError(f"unknown tensor id {tensor!r}; known: {', '.join(TENSOR_IDS)}")
    order, labels, read = _TENSORS[tensor]
    array, extras = read(spec, jet(spec, [point], order))
    return array, labels, extras


def _cmd_eval(args) -> int:
    spec = _load_manifold(args)
    if not args.tensor:
        raise _UsageError("--tensor is required")
    if not args.point:
        raise _UsageError("--point is required")
    point = _parse_point(args.point, spec)
    try:
        array, index_names, extras = _eval_tensor(spec, args.tensor, point)
    except (NotSPDError, SpecError, DimensionError, expr.ExprError) as err:
        raise _InputError(str(err)) from err
    if args.json:
        payload = {
            "manifold": spec.name,
            "tensor": args.tensor,
            "point": list(point),
            "indices": list(index_names),
            "components": array.tolist(),
        }
        payload.update(extras)
        _emit(_json_text(payload, f"{args.tensor} on {spec.name!r} at ({args.point})"), args.out)
        return EXIT_OK
    lines = [f"{args.tensor} on {spec.name} at ({args.point})"]
    lines += _component_lines(args.tensor, array, index_names)
    for key, value in extras.items():
        lines.append(f"{key} = {value:.10g}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    count = _parse_integer("--samples", args.samples)
    if count < 1:
        raise _UsageError(f"--samples must be at least 1, got {count}")
    seed = _parse_integer("--seed", args.seed)
    if seed < 0:
        raise _UsageError(f"--seed must be non-negative, got {seed}")
    spec = _load_manifold(args)
    tolerances = _parse_tolerances(args.tol)
    selected = None
    if args.check:
        selected = [c.strip() for c in args.check.split(",") if c.strip()]
        if not selected:
            raise _UsageError(f"--check names no check: {args.check!r}")
    try:
        samples = geometry.sample(spec, count, seed)
    except ValueError as err:  # an empty sampling box
        raise _InputError(f"chart {spec.name!r}: {err}") from err
    except MemoryError:
        raise _InputError(
            f"--samples {count} is too many: the samples of chart {spec.name!r} do not fit in memory"
        ) from None
    try:
        reports = theorems.run_checks(
            spec,
            samples,
            tolerances=tolerances,
            selected=selected,
        )
    except KeyError as err:
        raise _UsageError(err.args[0]) from None
    except (NotSPDError, SpecError, DimensionError, expr.ExprError) as err:
        raise _InputError(str(err)) from err
    if args.json:
        text = _json_text([r.to_dict() for r in reports], f"chart {spec.name!r}: a report")
    else:
        header = (
            f"verification of {spec.name}: samples={count} seed={seed}"
        )
        text = "\n".join([header] + [r.human_line() for r in reports])
    _emit(text, args.out)
    failures = [r for r in reports if not r.skipped and not r.passed]
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_manifold_options(parser):
    parser.add_argument("--manifold", help="builtin catalog entry name")
    parser.add_argument("--file", help="path to a manifold file")
    parser.add_argument("--out", help="also write the output to this path")
    parser.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projconn",
        description=(
            "Evaluate tensors of the projective semi-symmetric connection on "
            "built-in or user manifolds and verify its curvature identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--json", action="store_true")
    p_list.add_argument("--out")

    p_eval = sub.add_parser("eval", help="evaluate a tensor at a point")
    _add_manifold_options(p_eval)
    p_eval.add_argument("--tensor", help=f"one of: {', '.join(TENSOR_IDS)}")
    p_eval.add_argument("--point", help="comma separated coordinates")

    p_verify = sub.add_parser("verify", help="run verification checks")
    _add_manifold_options(p_verify)
    p_verify.add_argument("--samples", default="200")
    p_verify.add_argument("--seed", default="42")
    p_verify.add_argument(
        "--check", help="comma separated check ids (default: all applicable)"
    )
    p_verify.add_argument(
        "--tol", action="append", metavar="CHECK=VALUE",
        help="tolerance override, repeatable",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes "-0.3,0.2,0.1" after "--point" for an option, so the pair is joined
    words = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(words) - 1, 0, -1):
        if words[k - 1] == "--point":
            words[k - 1:k + 1] = ["--point=" + words[k]]
    try:
        args = parser.parse_args(words)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    handlers = {"list": _cmd_list, "eval": _cmd_eval, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
