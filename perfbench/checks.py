"""Checks of one CLI invocation against its route's own stated contract.

An invocation fails on a nonzero exit, or when its output breaks the
contract the route states for itself:

  * toeplitz --oracle: rel_diff <= 1e-8 (the toeplitz selftest bound);
  * ode: residual <= 100 * tol (the SigmaTrajectory docstring), with the
    tolerance the command integrates at, min(--tol, 1e-10);
  * monodromy-check: exit 2 is its own report of a violated identity;
  * fredholm: |E(m) - E(2m)| <= 1e-12 absolute (the fredholm selftest
    bound), checked on the node-doubled twin.

A NaN or infinity anywhere in a table is a failure too. Output that the
benchmark cannot read at all (no JSON, missing columns, an exit code the
CLI does not document, a usage error from a generated argument vector)
raises Malformed: that is a defect of the benchmark or of the CLI
contract, not a failed operation, and makes the run incorrect.

Each check also returns the cross-route differences the output carries,
relative where the reference is nonzero, under the names of the err.*
metrics.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

ORACLE_REL = 1e-8
ODE_RESIDUAL_FACTOR = 100.0
FREDHOLM_DOUBLING_ABS = 1e-12

# exit codes the CLI documents for a computation that did not deliver
_FAILURE_EXITS = {2: "identity violated", 3: "parameter error",
                  4: "nonconvergence"}


class Malformed(ValueError):
    """Output that does not follow the CLI's documented format."""


class Verdict(NamedTuple):
    failure: str | None
    errors: dict


def _flag(argv, name: str, default: str) -> str:
    prefix = f"--{name}="
    for tok in argv:
        if tok.startswith(prefix):
            return tok[len(prefix):]
    return default


def _table(text: str):
    try:
        payload = json.loads(text)
        columns = payload["columns"]
        rows = payload["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Malformed(f"unreadable output: {exc}") from None
    if not rows:
        raise Malformed("empty table")
    return columns, rows


def _column(columns, rows, name: str) -> list:
    try:
        i = columns.index(name)
    except ValueError:
        raise Malformed(f"missing column {name!r}") from None
    return [row[i] for row in rows]


def _cplx_column(columns, rows, stem: str) -> list:
    re = _column(columns, rows, stem + "_re")
    im = _column(columns, rows, stem + "_im")
    return [complex(a, b) for a, b in zip(re, im)]


def _rel(diff: float, ref: complex) -> float:
    return diff / abs(ref) if ref != 0 else diff


def _worst(values) -> float:
    # NaN must win: a NaN difference is the worst difference there is
    out = 0.0
    for v in values:
        if not v <= out:
            out = v
    return out


def _exceeds(value: float, bound: float) -> bool:
    return not value <= bound


def check(kind: str, argv, exit_code: int, stdout: str, stderr: str,
          twin_stdout: str | None = None) -> Verdict:
    """Classify one invocation.

    kind is the Op kind from workloads; a fredholm_twin carries the stdout
    of the invocation it doubles in twin_stdout, or None when that one
    failed and there is nothing to compare.
    """
    if stderr.startswith("error:"):
        raise Malformed(f"usage error: {stderr.strip()}")
    if exit_code != 0:
        if exit_code not in _FAILURE_EXITS:
            raise Malformed(f"undocumented exit code {exit_code}")
        if kind == "monodromy" and exit_code == 2:
            _table(stdout)
        return Verdict(f"exit {exit_code} ({_FAILURE_EXITS[exit_code]})", {})

    columns, rows = _table(stdout)
    if any(isinstance(v, float) and not math.isfinite(v)
           for row in rows for v in row):
        return Verdict("non-finite value in output", {})
    if kind == "oracle":
        err = _worst(_column(columns, rows, "rel_diff"))
        errors = {"err.toeplitz_oracle": err}
        if _exceeds(err, ORACLE_REL):
            return Verdict(f"rel_diff {err:.3g} > {ORACLE_REL:g}", errors)
        return Verdict(None, errors)
    if kind == "series":
        ref = _cplx_column(columns, rows, "toeplitz")
        diff = _column(columns, rows, "abs_diff")
        return Verdict(None, {"err.series_toeplitz": _worst(
            _rel(d, r) for d, r in zip(diff, ref))})
    if kind == "bulk":
        ref = _cplx_column(columns, rows, "toeplitz_limit")
        diff = _column(columns, rows, "ode_vs_limit")
        return Verdict(None, {"err.ode_limit": _worst(
            _rel(d, r) for d, r in zip(diff, ref))})
    if kind == "bulk_gap":
        ref = _cplx_column(columns, rows, "h_fredholm")
        diff = _column(columns, rows, "h_diff")
        return Verdict(None, {"err.ode_limit": _worst(
            _rel(d, r) for d, r in zip(diff, ref))})
    if kind == "ode":
        tol = min(float(_flag(argv, "tol", "1e-10")), 1e-10)
        err = _worst(_column(columns, rows, "residual"))
        errors = {"err.ode_constraint": err}
        bound = ODE_RESIDUAL_FACTOR * tol
        if _exceeds(err, bound):
            return Verdict(f"residual {err:.3g} > {bound:g}", errors)
        return Verdict(None, errors)
    if kind == "monodromy":
        return Verdict(None, {"err.monodromy": _worst(
            _column(columns, rows, "residual"))})
    if kind == "fredholm_twin":
        if twin_stdout is None:
            return Verdict(None, {})
        base_cols, base_rows = _table(twin_stdout)
        if _column(base_cols, base_rows, "t") != _column(columns, rows, "t"):
            raise Malformed("twin grids differ")
        fine = _cplx_column(columns, rows, "e")
        coarse = _cplx_column(base_cols, base_rows, "e")
        diffs = [abs(a - b) for a, b in zip(coarse, fine)]
        absolute = _worst(diffs)
        errors = {"err.fredholm_doubling": _worst(
            _rel(d, r) for d, r in zip(diffs, fine))}
        if _exceeds(absolute, FREDHOLM_DOUBLING_ABS):
            return Verdict(f"doubling {absolute:.3g} > "
                           f"{FREDHOLM_DOUBLING_ABS:g}", errors)
        return Verdict(None, errors)
    if kind in ("toeplitz", "fredholm", "asymptotics"):
        return Verdict(None, {})
    raise ValueError(f"no check for op kind {kind!r}")
