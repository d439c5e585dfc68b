"""Command-line entry point.

Turns JSON sequence rules into classification, form-assessment,
reconstruction and scenario reports. Reports are JSON (schema "seqforms/1")
or flat CSV; the report body is byte-stable for fixed inputs, with runtime
kept in a separate metadata block.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import io
import json
import math
import sys
import time

import numpy as np
import orjson

from .classify import diagnose_asymptotic, frame_spectrum
from .core import DEFAULT_TOL, Tolerances, TruncationLadder
from .errors import ScaleOutOfRange, SeqFormsError, UsageError
from .forms import zero_closed_check, zero_closed_from_bundles
from .operators import build_bundle
from .reconstruct import canonical_dual, max_residual, reproducing_pair_duals
from .scenarios import run_scenario, scenario_ids
from .sequences import spec_from_json

SCHEMA = "seqforms/1"


def _ladder_arg(text: str) -> TruncationLadder:
    try:
        sizes = tuple(int(p) for p in text.split(","))
        return TruncationLadder(sizes)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}: {exc}") from exc


def _load_sequence(path: str):
    """The rule in a strict-JSON file: NaN, Infinity, out-of-range floats and
    bytes that are not UTF-8 are usage errors (orjson.JSONDecodeError is a
    ValueError).

    The cyclic garbage collector is paused meanwhile: a matrix rule parses
    into tens of thousands of small lists, which would trigger collections
    that walk the whole heap and find no cycle. The caller's setting is
    restored afterwards, so a collector that was off stays off.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            data = orjson.loads(fh.read())
        return spec_from_json(data)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot load sequence rule from {path}: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()


def _tolerances(args) -> Tolerances:
    names = {"eq_tol": "tol_eq", "rank_tol": "tol_rank"}
    kwargs = {field: getattr(args, arg) for field, arg in names.items()
              if getattr(args, arg, None) is not None}
    try:
        return dataclasses.replace(DEFAULT_TOL, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_sizes(args) -> None:
    """Fills the --count default (--dim) and rejects sizes below 1."""
    if getattr(args, "dim", None) is not None and args.count is None:
        args.count = args.dim
    for name in ("dim", "count", "trials"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="seqforms",
        description="numerical workbench for sequence-defined sesquilinear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_common(p):
        p.add_argument("--tol-rank", type=float, default=None,
                       help="override the relative rank cutoff")
        add_output(p)

    p = sub.add_parser("classify", help="classify one sequence at a truncation")
    p.add_argument("--spec", required=True, help="sequence rule JSON file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="default: dim")
    p.add_argument("--ladder", type=_ladder_arg, default=None,
                   help="comma-separated sizes for an asymptotic diagnosis")
    add_common(p)

    p = sub.add_parser("form-assess", help="assess the two-sequence pair form")
    p.add_argument("--left", required=True, help="rule JSON for the left sequence")
    p.add_argument("--right", required=True, help="rule JSON for the right sequence")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="default: dim")
    add_common(p)

    p = sub.add_parser("reconstruct",
                       help="canonical or pair duals with residual checks")
    p.add_argument("--spec", default=None,
                   help="rule JSON for a single sequence (canonical dual)")
    p.add_argument("--left", default=None, help="rule JSON for the left sequence")
    p.add_argument("--right", default=None, help="rule JSON for the right sequence")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="default: dim")
    p.add_argument("--trials", type=int, default=50,
                   help="number of random probe vectors")
    add_common(p)

    p = sub.add_parser("scenario", help="run one catalog scenario")
    p.add_argument("--id", required=True, dest="scenario_id")
    p.add_argument("--ladder", type=_ladder_arg, default=None)
    p.add_argument("--tol-eq", type=float, default=None,
                   help="override the equality tolerance of the lambda probes")
    add_common(p)

    p = sub.add_parser("list", help="list the scenario catalog")
    add_output(p)

    return parser


def _report_classify(args, tol):
    """The report body and meta.spectral: the backend, bandwidth and guard
    margin of the single truncation and of every ladder rung."""
    spec = _load_sequence(args.spec)
    spectrum = frame_spectrum(spec, args.dim, args.count, tol)
    out = spectrum.to_dict()
    spectral = {"truncation": spectrum.provenance()}
    if args.ladder is not None:
        diagnosis = diagnose_asymptotic(spec, args.ladder, tol, spectrum)
        out["asymptotic"] = diagnosis.to_dict()
        spectral["ladder"] = [
            {"size": N, **sp.provenance()}
            for N, sp in zip(diagnosis.sizes, diagnosis.spectra)
        ]
    return out, {"spectral": spectral}


def _report_form_assess(args, tol):
    left, right = (_load_sequence(path) for path in (args.left, args.right))
    fa = zero_closed_check(left, right, args.dim, args.count, tol)
    return fa.to_dict(include_matrix=args.dim <= 64), {}


def _report_reconstruct(args, tol):
    pair = (args.left, args.right)
    if args.spec is not None and pair == (None, None):
        spec = _load_sequence(args.spec)
        bundle = build_bundle(spec, args.dim, args.count)
        systems = [canonical_dual(bundle, tol)]
    elif args.spec is None and None not in pair:
        left, right = (_load_sequence(path) for path in pair)
        b_left = build_bundle(left, args.dim, args.count)
        b_right = build_bundle(right, args.dim, args.count)
        fa = zero_closed_from_bundles(b_left, b_right, tol)
        systems = reproducing_pair_duals(fa, b_left, b_right)
    else:
        raise UsageError("reconstruct needs --spec alone, or --left and --right")
    return {
        "systems": [s.to_dict(include_columns=args.dim <= 64) for s in systems],
        "max_residual": max_residual(systems, args.trials, seed=2024),
        "trials": args.trials,
        "dim": args.dim,
        "count": args.count,
    }, {}


def _report_scenario(args, tol):
    report = run_scenario(args.scenario_id, args.ladder, tol)
    return report.to_dict(), {"runtime_s": report.runtime}


# command -> function of (args, tol) returning (report body, meta entries)
_REPORTS = {
    "classify": _report_classify,
    "form-assess": _report_form_assess,
    "reconstruct": _report_reconstruct,
    "scenario": _report_scenario,
    "list": lambda args, tol: ({"scenarios": scenario_ids()}, {}),
}


def _flatten(prefix, obj, row):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(obj, list):
        # matrices and other nested lists stay JSON-only; scalar entries and
        # records inside lists are flattened positionally
        for i, v in enumerate(obj):
            if isinstance(v, (dict, int, float, str, bool, type(None))):
                _flatten(f"{prefix}[{i}]", v, row)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise OverflowError(f"{prefix} is {obj}")
    else:
        row[prefix] = obj


def _render(payload, args) -> str:
    """The output text; a non-finite float raises OverflowError."""
    if args.format == "csv":
        row = {}
        _flatten("", payload["report"], row)
        row["schema"] = payload["schema"]
        row["command"] = payload["command"]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(row), row.values()])
        return buf.getvalue()
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # allow_nan=False refuses inf and nan
        raise OverflowError(str(exc)) from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _check_sizes(args)
        tol = _tolerances(args)
        t0 = time.perf_counter()
        try:
            # overflow and invalid operations raise FloatingPointError, an
            # ArithmeticError, so no numpy warning precedes the error object
            with np.errstate(over="raise", invalid="raise"):
                report, meta = _REPORTS[args.command](args, tol)
            payload = {
                "schema": SCHEMA,
                "command": args.command,
                "report": report,
                "meta": {"runtime_s": time.perf_counter() - t0, **meta},
            }
            text = _render(payload, args)
        except (ArithmeticError, np.linalg.LinAlgError) as exc:
            # inf, a 0 from underflow, or a factorization failing on either
            raise ScaleOutOfRange(f"{type(exc).__name__}: {exc}") from exc
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SeqFormsError as exc:
        error = {
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if getattr(exc, "details", None):
            error["error"]["details"] = exc.details
        sys.stderr.write(json.dumps(error, indent=2) + "\n")
        return 1

    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
