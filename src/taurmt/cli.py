"""Command-line driver exposing every computation as a data-file emitter.

Subcommands: monodromy-check, series, ode, toeplitz, fredholm, bulk,
asymptotics. Each resolves its parameters from defaults, an optional
key=value config file, and flags (flags win), runs one computation, and
writes one table to --output or stdout as JSON or CSV. Identical
configurations produce byte-identical bytes: numbers are written through
repr, JSON keys are sorted, and nothing records clocks or machine state.
The JSON of ode also carries the flow's work counters under a top-level
diagnostics key: accepted, rejected and re-projected steps, detours round
a turning point, and the shortest step (null when no step was taken);
the CSV holds the table alone.

One table, _FLAGS, holds every key a command takes, with its converter,
default and help, and _flags_of(command) is its one per-command view. One
pass over argv reads the flags (_read_argv): argv[0] names the command,
and each flag, spelled --key=value or --key value (a value may not start
with --), goes under its key into the same dict that the lines of a
--config file fill; a switch (--oracle, --selftest) is given bare. A
flag outside the view is "unrecognized", a config key outside it (or
config itself) "unknown". _resolve then passes every value, whichever
source gave it, through its key's converter, and a converter's error
names the key. -h or --help prints the top level's help or one line per
key of the command's view, and exits 0.

Exit codes: 0 success, 2 identity violation (monodromy-check or
--selftest), 3 degenerate or invalid parameters, 4 numerical
nonconvergence, 1 I/O failure. Exit 3 covers a usage error (a missing or
unknown command, or a bad flag, key or value, printed as "error: ...")
and every ValueError and ArithmeticError a computation raises (printed
as "parameter error: ..."), among them a weight or a determinant whose
values would leave the float range; an OverflowError prints as "a value
leaves the float range (...)".
Every subcommand also accepts --selftest, which ignores the grid and runs
that command's built-in property checks.

--grid-start and --grid-end must be finite numbers a finite step apart and
--grid-count an integer >= 1; each command checks its own range of grid
values. The grid holds --grid-count evenly spaced points from --grid-start
that, when there are two or more, end exactly at --grid-end.

--tol must be finite and positive; each command that takes it has its own
default and honours the value as given. monodromy-check reports every
identity residual that is not at or below it, nan included, as a
violation (default 1e-10): --tol is the largest backward error that
passes, each residual being divided by the size of what cancels in it
(complexfn.backward_error), so it reads the same at xi = 0.5 and at
xi = 1e4. ode integrates the sigma-form flow at it
(default 1e-10). toeplitz computes the Fourier coefficients to it as an
absolute accuracy (default 1e-12). series, fredholm, bulk and asymptotics
run at fixed accuracy and reject --tol as a usage error.

The parameter flags a command takes are the ones it reads, and any other
is a usage error. monodromy-check takes all twelve: --bigN, --mu, --omega1,
--omega2, --xi and --r on the SSE branch, --sigma, --s, --r and the four
theta flags on the generic one. series and toeplitz take --bigN, --mu,
--omega1, --omega2 and --xi. ode takes --mu, --omega1, --omega2 and --xi
(family bulk) and --sigma, --s and the theta flags (family vi). bulk takes
--mu, --omega1, --omega2 and --xi; fredholm and asymptotics take --xi.
--s is read two ways: monodromy-check takes it as the parameterization
coefficient s_0t of the sixth-system monodromy (pvi_matrices), ode
--family=vi and its selftest as the expansion coefficient s-hat of the
small-t series (pvi_tau_series). No map between the two is applied.
The JSON params block echoes the flags the command takes. --family picks
the branch: an (the default) or bulk for series, vi (the default) or bulk
for ode; any other value is a usage error.

--grid-path names the path the grid runs along: real for every command,
and circle (t = e^{i g}, the default) for toeplitz as well, whose real
path takes series' default grid, t from 0.9 to 0.995. The library
takes the Toeplitz route's t on the unit circle and in (0, 1) only, for
toeplitz, series and bulk (t = exp(-x/N)) alike (rmt_numerics.WeightSpec),
so a real-path t below 0 is a parameter error.

Complex values on the command line are "re", "im i", or "re+im i", e.g.
0.25, 1.5i, 0.3-0.2i. A space may stand round the literal and round the
sign that joins its parts, so "1 5" and "1e -3" are refused; a j suffix,
parentheses and any other whitespace inside the literal are refused too.
Each part must be finite: nan, inf and a literal that overflows, such as
1e400, are usage errors that name the flag.

The commands compose library calls and re-derive none. The tau <-> sigma
maps are sigma_ode.sigma_map. ode and bulk seed one flow at the first
grid point and pass it through the rest, so a one-point grid prints the
seed row; ode prints every node of the flow, those of its detours off
the real axis included. fredholm and asymptotics make one grid call of
rmt_numerics (fredholm_grid, fredholm_log_derivatives_grid). Each grid
call raises its first refused point, in grid order, before it computes
any, and a failure while computing at the first point that fails;
asymptotics takes its predictions at every t before the Fredholm grid.
bulk takes the sine-kernel point when mu, omega1 and omega2 are
each within complexfn.INPUT_INTEGER_TOL of 0; its seed there
(_gap_seed) is the bulk sigma map's jet of the Fredholm log-derivatives,
and the same jet at each grid point gives the h_fredholm column, all
from one fredholm_log_derivatives_grid call before the flow. Both bulk
branches take the Toeplitz limits at every grid point (bulk_limit_grid)
before the flow, so a refused t = exp(-x/N) costs no step. The rebuilt
average of bulk is sigma_ode.tau_reconstruct of the flow, from the
series value at the first grid point. _COMMANDS holds each command's
default grid on each grid path, runner and selftest. The
monodromy residuals come from monodromy_vi and monodromy_v, labelled by
the exponents and Stokes multipliers sse_pv_matrices returns; the one
label given by hand is the coalescence limit's theta6 = -2 omega1. That
label is the known odd-N defect: the SSE data carry theta_t =
-N - 2 omega1, so at odd N no valid matching K exists and the check
exits 3 in one of three ways: "no common K solves both matching
equations", "lower-left matching entry vanished" or "matched
eigenvectors are parallel". Passing theta_t should end all three.
The strict xfail test_sse_monodromy_check_passes_at_odd_n pins the defect
(ROADMAP items 1 and 10).
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass

from .complexfn import CONSISTENCY_TOL, INPUT_INTEGER_TOL, backward_error, exp_pi_i
from .mat2 import Mat2, det_residual, max_diff, norm_product
from .monodromy_v import limit_transition_ii, sse_pv_matrices
from .monodromy_vi import (
    SSEParams,
    ThetaVI,
    check_generic,
    connection_sigmas,
    manifold_residual,
    pvi_matrices,
    sse_monodromy,
    sse_offdiag_relation_residual,
)
from .rmt_numerics import (
    FredholmSpec,
    QuadratureError,
    bulk_limit_an,
    bulk_limit_grid,
    fredholm_grid,
    fredholm_log_derivatives,
    fredholm_log_derivatives_grid,
    fredholm_sine,
    quad_oracle_an,
    toeplitz_an,
    toeplitz_grid,
)
from .sigma_ode import (
    OdeSeed,
    StepLimitError,
    StepSizeUnderflowError,
    TurningPointError,
    bulk_okamoto_params,
    integrate,
    seed_bulk,
    seed_vi,
    sigma_map,
    tau_reconstruct,
)
from .tau_series import an_series, bulk_series, gap_asymptotics, pvi_tau_series

__all__ = [
    "RunConfig",
    "parse_complex",
    "format_complex",
    "read_config",
    "main",
]

EXIT_OK = 0
EXIT_IO = 1
EXIT_VIOLATION = 2
EXIT_BAD_PARAMS = 3
EXIT_NONCONVERGED = 4

class UsageError(Exception):
    """Bad flags, bad config keys, or missing required parameters."""


# a sign after a character that can end a real part (not an exponent's e),
# with the spaces round it: the sign that joins the real and imaginary parts
_JOINING_SIGN = re.compile(r"(?<=[^eE ]) *([+-]) *")


def parse_complex(text: str) -> complex:
    """Parse "re", "im i" or "re+im i" (also re-im i) through complex().
    A space may stand round the literal and round the sign that joins its
    parts, and nowhere else. A j suffix, parentheses and any other
    whitespace inside the literal are refused, and so are nan, inf and a
    literal that overflows to inf."""
    s = str(text).strip()
    if " " in s:
        s = _JOINING_SIGN.sub(r"\1", s)
    if not s:
        raise UsageError("empty complex literal")
    try:
        if any(c in s for c in "jJ()"):
            raise ValueError
        z = complex(s[:-1] + "j" if s[-1] in "iI" else s)
    except ValueError:
        raise UsageError(f"cannot parse {text!r} as a complex value") from None
    if not cmath.isfinite(z):
        raise UsageError(f"{text!r} is not a finite number")
    return z


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return repr(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse {value!r} as a boolean")


def read_config(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored; keys are flag
    names without the leading dashes."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RunConfig:
    """One resolved command invocation.

    params holds the command's declared flags, fully converted: the values
    given and the defaults of the rest. Each is read by at least one branch
    of the command (ode and monodromy-check pick theirs after parsing). grid
    is (start, end, count, path); tol is None for a command that takes no
    --tol.
    """

    command: str
    params: dict
    grid: tuple
    tol: float | None
    fmt: str
    output: str | None
    selftest: bool = False

    def grid_values(self):
        """start, count - 2 points start + i * step between, then end."""
        start, end, count, _ = self.grid
        if count == 1:
            return [start]
        step = (end - start) / (count - 1)
        return [start, *(start + i * step for i in range(1, count - 1)), end]


# ---------------------------------------------------------------------------
# argument plumbing


class _OneOf(tuple):
    """A converter that takes one of its words, as given."""

    def __call__(self, value):
        if value not in self:
            raise UsageError(f"{value!r} is not one of {', '.join(self)}")
        return value


# the commands that read the weight (mu, omega1, omega2 and xi), every
# command (each reads xi), and those that read the generic sixth-system data
# (sigma, s and the theta flags)
_SSE = ("monodromy-check", "series", "ode", "toeplitz", "bulk")
_ALL = _SSE + ("fredholm", "asymptotics")
_GENERIC = ("monodromy-check", "ode")

# parameter -> (commands that read it, converter, default or None, help); a
# command declares, accepts and echoes into its params exactly the
# parameters that name it here
_PARAMETERS = {
    "mu": (_SSE, parse_complex, 0.25 + 0j, "singularity exponent parameter"),
    "omega1": (_SSE, parse_complex, 0.1 + 0j,
               "first arc-end exponent parameter"),
    "omega2": (_SSE, parse_complex, 0.3 + 0j, "rotation parameter"),
    "xi": (_ALL, parse_complex, 0.5 + 0j, "jump coupling xi*"),
    "bigN": (("monodromy-check", "series", "toeplitz"), int, 2,
             "matrix dimension N"),
    "sigma": (_GENERIC, parse_complex, 0.41 + 0j, "two-point exponent sigma"),
    "s": (_GENERIC, parse_complex, 1.1 + 0j,
          {"monodromy-check": "parameterization coefficient s_0t",
           "ode": "expansion coefficient s-hat (family vi)"}),
    "r": (("monodromy-check",), parse_complex, 1.0 + 0j, "gauge parameter r"),
    "theta0": (_GENERIC, parse_complex, None, "exponent theta_0"),
    "thetat": (_GENERIC, parse_complex, None, "exponent theta_t"),
    "theta1": (_GENERIC, parse_complex, None, "exponent theta_1"),
    "thetainf": (_GENERIC, parse_complex, None, "exponent theta_inf"),
    "family": (("series", "ode"), {"series": _OneOf(("an", "bulk")),
                                   "ode": _OneOf(("vi", "bulk"))},
               None, "the branch computed"),
    "oracle": (("toeplitz",), _as_bool, None,
               "add the direct quadrature oracle's columns"),
    "nodes": (("fredholm", "asymptotics"), int, None,
              {"fredholm": "Nystrom nodes m (default 80); needs |t| <= m/2",
               "asymptotics": "Nystrom nodes m (default 140); "
                              "needs |t| <= m/2"}),
    "dims": (("bulk",), str, None, "comma list of matrix dimensions"),
}
# key -> (commands, converter, default or None, help) for every key a
# command takes, in the order its help lists them: the parameters, the run
# flags, and --tol. A converter, default or help given as a dict keyed by
# command applies per command. A key whose converter is _as_bool is a
# switch, given bare; the grid's defaults are those of its path in
# _COMMANDS
_FLAGS = {
    **_PARAMETERS,
    "grid-start": (_ALL, float, None, "first grid value"),
    "grid-end": (_ALL, float, None, "last grid value"),
    "grid-count": (_ALL, int, None, "number of grid points, an integer >= 1"),
    "grid-path": (_ALL, str, None, "the path the grid runs along"),
    "format": (_ALL, str, None, "json (the default) or csv"),
    "output": (_ALL, str, None, "file the output goes to (default stdout)"),
    "config": (_ALL, str, None,
               "key=value file read before the flags; flags win"),
    "selftest": (_ALL, _as_bool, None,
                 "run the command's property checks instead"),
    "tol": (("monodromy-check", "ode", "toeplitz"), float,
            {"monodromy-check": CONSISTENCY_TOL, "ode": 1e-10,
             "toeplitz": 1e-12},
            {"monodromy-check": "the largest backward error that passes",
             "ode": "the tolerance the flow is integrated at",
             "toeplitz": "the absolute accuracy of the Fourier coefficients"}),
}


@functools.cache
def _flags_of(command: str) -> dict:
    """key -> (converter, default, help) for every key command takes; of an
    entry given per command, command's."""
    return {key: tuple(v[command] if isinstance(v, dict) else v for v in spec)
            for key, (commands, *spec) in _FLAGS.items()
            if command in commands}


def _help(command: str | None) -> str:
    """The top-level help, which lists the commands, or command's, one line
    per key of _flags_of(command): its help, its choices, its default (the
    grid's on the default path) and whether it is given bare."""
    usage = (f"usage: taurmt {command or '<command>'} "
             "[--key=value | --key value] ...\n\n")
    if command is None:
        return (usage + "Command-line driver exposing every computation as a "
                "data-file emitter.\n\ncommands:\n"
                + "".join(f"  {name}\n" for name in COMMANDS)
                + "\n'taurmt <command> --help' lists the flags of one.\n")
    paths, _, _ = _COMMANDS[command]
    path, grid = next(iter(paths.items()))
    shown = {"grid-path": path, **{
        key: f"{value!r} on {path}"
        for key, value in zip(("grid-start", "grid-end", "grid-count"), grid)}}
    text = (usage + "flags (a config file takes each but --config as a "
            "key=value line):\n")
    for key, (conv, default, line) in _flags_of(command).items():
        # grid-path's choices are the paths in _COMMANDS
        choices = _OneOf(paths) if key == "grid-path" else conv
        if isinstance(choices, _OneOf):
            line += ": " + " or ".join(choices)
        default = shown.get(key, default)
        if default is not None:
            line += " (default %s)" % (format_complex(default) if isinstance(
                default, complex) else default)
        if conv is _as_bool:
            line += ", given bare"
        text += f"  --{key:<13}{line}\n"
    return text


def _read_argv(argv) -> tuple:
    """(command, raw) from argv, raw mapping each flag given to its text.

    argv[0] names the command. A flag is --key=value or --key value (a
    value may not start with --), and a switch (converter _as_bool) is
    given bare, as True. A later flag overrides an earlier one. raw is None
    when -h or --help asks for help (command None: the top level's). Every
    key must be one of _flags_of(command); the values are left to _resolve.
    """
    if not argv:
        raise UsageError("a command is required: " + ", ".join(COMMANDS))
    command = argv[0]
    if command in ("-h", "--help"):
        return None, None
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}: choose from "
                         + ", ".join(COMMANDS))
    flags = _flags_of(command)
    raw, unknown = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        key, eq, value = token[2:].partition("=")
        if token[:2] != "--" or key not in flags:
            unknown.append(token)
        elif flags[key][0] is _as_bool:
            if eq:
                raise UsageError(f"argument --{key}: ignored explicit "
                                 f"argument {value!r}")
            raw[key] = True
        else:
            if not eq:
                # past the last token the value is missing as well
                value = next(tokens, "--")
                if value[:2] == "--":
                    raise UsageError(f"argument --{key}: expected one "
                                     "argument")
            raw[key] = value
    if unknown:
        raise UsageError("unrecognized arguments: " + " ".join(unknown))
    return command, raw


def _resolve(command: str, raw: dict) -> RunConfig:
    """Merge defaults, the --config file, and the flags read from argv
    (raw, which wins) into a RunConfig."""
    flags = _flags_of(command)
    path = raw.get("config")
    if path:
        given = read_config(path)
        # a config file may name only what the command takes, --config aside
        for key in given:
            if key not in flags or key == "config":
                raise UsageError(f"unknown configuration key {key!r}")
        raw = {**given, **raw}
    paths, _, _ = _COMMANDS[command]

    def number(key, default=None):
        # the value given through key's converter, else default, else the
        # table's
        conv, fallback, _ = flags[key]
        if key not in raw:
            return fallback if default is None else default
        try:
            return conv(raw[key])
        except (TypeError, ValueError, UsageError) as exc:
            raise UsageError(f"--{key}: {exc}") from None

    params = {key: number(key) for key in flags if key in _PARAMETERS}
    params = {key: value for key, value in params.items() if value is not None}
    kind = number("grid-path", next(iter(paths)))
    if kind not in paths:
        raise UsageError(f"{command} computes on grid-path "
                         f"{' or '.join(paths)}, not {kind!r}")
    g0, g1, cnt = paths[kind]
    g0, g1 = number("grid-start", g0), number("grid-end", g1)
    for key, value in (("grid-start", g0), ("grid-end", g1)):
        if not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value!r}")
    cnt = number("grid-count", cnt)
    if cnt < 1:
        raise UsageError("grid-count must be >= 1")
    if cnt >= 3 and not math.isfinite((g1 - g0) / (cnt - 1)):
        raise UsageError("grid-end - grid-start overflows the grid step")
    tol = number("tol") if "tol" in flags else None
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be finite and positive, got {tol!r}")
    fmt = number("format", "json")
    if fmt not in ("json", "csv"):
        raise UsageError("format must be json or csv")
    return RunConfig(command=command, params=params,
                     grid=(g0, g1, cnt, kind), tol=tol, fmt=fmt,
                     output=number("output"),
                     selftest=bool(number("selftest")))


def _sse_params(cfg: RunConfig) -> SSEParams:
    # N = 0 for a command that does not declare --bigN: none of its calls
    # reads N
    p = cfg.params
    return SSEParams(N=p.get("bigN", 0), mu=p["mu"], omega1=p["omega1"],
                     omega2=p["omega2"], xi_star=p["xi"])


def _theta_from(cfg: RunConfig) -> ThetaVI:
    p = cfg.params
    return ThetaVI(p.get("theta0", 0.31 + 0j), p.get("thetat", 0.27 + 0j),
                   p.get("theta1", 0.38 + 0j), p.get("thetainf", 0.52 + 0j))


# ---------------------------------------------------------------------------
# output


def _render(cfg: RunConfig, columns, rows, extra=None) -> str:
    def cell(v):
        if isinstance(v, str):
            return v
        return repr(float(v))

    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cell(v) for v in row])
        return buf.getvalue()
    payload = {
        "schema": 1,
        "command": cfg.command,
        "params": {k: (format_complex(v) if isinstance(v, complex) else v)
                   for k, v in sorted(cfg.params.items())},
        "columns": list(columns),
        "rows": [[v if isinstance(v, str) else float(v) for v in row]
                 for row in rows],
    }
    if extra:
        payload.update(extra)
    # json's C encoder runs only without indent. The rows go through it in
    # one call, with the separator indent=1 puts between the cells of a row;
    # the rows are flat, so "],\n   [" (a line break cannot sit in a cell)
    # marks each row boundary and "[\n   \n  ]" an empty row once those are
    # re-broken. The result is spliced in at the one key indented by a
    # single space, the top-level "rows": the bytes equal json.dumps(payload,
    # sort_keys=True, indent=1).
    rows, payload["rows"] = payload["rows"], []
    text = json.dumps(payload, sort_keys=True, indent=1)
    if rows:
        flat = json.dumps(rows, separators=(",\n   ", ": "))
        block = ("[\n  [\n   "
                 + flat[2:-2].replace("],\n   [", "\n  ],\n  [\n   ")
                 + "\n  ]\n ]").replace("[\n   \n  ]", "[]")
        text = text.replace('\n "rows": []', '\n "rows": ' + block, 1)
    return text + "\n"


def _write(cfg: RunConfig, text: str):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(cfg: RunConfig, columns, rows, extra=None):
    _write(cfg, _render(cfg, columns, rows, extra))


# ---------------------------------------------------------------------------
# monodromy-check


def _generic_residuals(theta: ThetaVI, sigma, s, r) -> dict:
    violations = check_generic(theta, sigma)
    if violations:
        raise ValueError("non-generic exponents: " + "; ".join(violations))
    mats = pvi_matrices(theta, sigma, s, r)
    coords = mats.trace_coordinates()
    *_, p0t, pt1, p01 = coords
    cos_t1, cos_01 = connection_sigmas(theta, sigma, s)

    def two_point(trace, factors, cos):
        # tr(M_mu M_nu) = 2 cos, sized by the product's factors
        return backward_error(abs(trace - 2 * cos), norm_product(*factors),
                              abs(2 * cos))

    return {"cyclic": mats.cyclic_residual(),
            "det_m0": det_residual(mats.m0),
            "manifold": manifold_residual(*coords),
            "two_point_0t": two_point(p0t, (mats.mt, mats.m0),
                                      cmath.cos(math.pi * sigma)),
            "connection_t1": two_point(pt1, (mats.m1, mats.mt), cos_t1),
            "connection_01": two_point(p01, (mats.m1, mats.m0), cos_01)}


def _sse_residuals(p: SSEParams, r) -> dict:
    sse = sse_monodromy(p, r)
    mats = sse.matrices
    out = {"cyclic": mats.cyclic_residual(),
           "off_diagonal_relation": sse_offdiag_relation_residual(sse),
           "manifold": manifold_residual(*mats.trace_coordinates())}

    pv = sse_pv_matrices(p)
    for name, value in pv.residuals.items():
        out["pv_" + name] = value
    thv = pv.theta
    out["stokes_constraint"] = pv.stokes.constraint_residual(thv.theta_inf,
                                                             pv.sigma)

    lt = limit_transition_ii(mats, -2 * p.omega1, thv.theta_inf)
    for name, value in lt.residuals.items():
        out["limit_ii_" + name] = value
    # each limit matrix is sized by its factors: K M K^-1, where det K = 1
    # gives K^-1 the max-norm of K, and S0 S1 e^{pi i theta_inf sigma3}
    e_inf = Mat2.diag(exp_pi_i(thv.theta_inf), exp_pi_i(-thv.theta_inf))
    for name, ours, size, theirs in (
            ("hat_m0", lt.hat_m0v, norm_product(lt.K, mats.m_inf, lt.K),
             pv.hat_m0),
            ("hat_m1", lt.hat_m1v, norm_product(lt.K, mats.m1, lt.K), pv.hat_m1),
            ("hat_m_inf", lt.hat_m_inf_v,
             norm_product(lt.s0_hat, lt.s1_hat, e_inf), pv.hat_m_inf)):
        out["limit_ii_" + name] = backward_error(
            max_diff(ours, theirs), size, theirs.norm_max())
    return out


def cmd_monodromy_check(cfg: RunConfig) -> int:
    p = cfg.params
    generic = any(k in p for k in ("theta0", "thetat", "theta1", "thetainf"))
    if generic:
        report = _generic_residuals(_theta_from(cfg), p["sigma"], p["s"],
                                    p["r"])
    else:
        report = _sse_residuals(_sse_params(cfg), p["r"])
    rows = [(name, value) for name, value in report.items()]
    _emit_table(cfg, ("identity", "residual"), rows)
    # a nan residual is never <= tol, so it is listed too
    violated = [name for name, value in report.items()
                if not value <= cfg.tol]
    if violated:
        print("violated: " + ", ".join(violated), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _selftest_monodromy(cfg: RunConfig):
    yield "sse defaults", max(_sse_residuals(
        _sse_params(cfg), cfg.params["r"]).values()) <= CONSISTENCY_TOL
    rng = random.Random(7)
    worst = 0.0
    for _ in range(3):
        theta = ThetaVI(*(0.1 + 0.35 * rng.random() for _ in range(4)))
        sigma = 0.3 + 0.3 * rng.random()
        s = 0.5 + rng.random()
        r = 0.5 + rng.random()
        worst = max(worst, max(_generic_residuals(
            theta, sigma, s, r).values()))
    yield "generic draws", worst <= CONSISTENCY_TOL


# ---------------------------------------------------------------------------
# series


def cmd_series(cfg: RunConfig) -> int:
    family = cfg.params.get("family", "an")
    p = _sse_params(cfg)
    if family == "an":
        # expansion about t = 1, compared against the Toeplitz evaluation
        exp = an_series(p)
        ts = cfg.grid_values()
        rows = []
        for t, tv in zip(ts, toeplitz_grid(p, ts)):
            sv = exp.evaluate(1.0 - t)
            rows.append((t, sv.real, sv.imag, tv.real, tv.imag,
                         abs(sv - tv)))
        _emit_table(cfg, ("t", "series_re", "series_im", "toeplitz_re",
                          "toeplitz_im", "abs_diff"), rows,
                    extra={"series": exp.to_json_dict()})
        return EXIT_OK
    exp = bulk_series(p)
    rows = []
    for x in cfg.grid_values():
        v = exp.evaluate(x)
        rows.append((x, v.real, v.imag))
    _emit_table(cfg, ("x", "value_re", "value_im"), rows,
                extra={"series": exp.to_json_dict()})
    return EXIT_OK


def _selftest_series(cfg: RunConfig):
    p = _sse_params(cfg)
    t = 0.98
    diff = abs(an_series(p).evaluate(1 - t) - toeplitz_an(p, t))
    yield "an matches toeplitz near t=1", diff <= 1e-3
    b = bulk_series(p)
    # normalized to 1 at the origin with a vanishing-derivative bracket
    yield "bulk normalization", abs(b.evaluate(0.0) - 1.0) <= 1e-15
    yield "bulk small-x", abs(b.evaluate(1e-4) - 1.0) <= 1e-3


# ---------------------------------------------------------------------------
# ode


def _trajectory_rows(traj):
    return [(t.real, t.imag, z.real, z.imag, dz.real, dz.imag, res)
            for t, (z, dz), res in zip(traj.path, traj.values,
                                       traj.residuals)]


def cmd_ode(cfg: RunConfig) -> int:
    family = cfg.params.get("family", "vi")
    ts = cfg.grid_values()
    if family == "vi":
        theta = _theta_from(cfg)
        exp = pvi_tau_series(theta, cfg.params["sigma"], cfg.params["s"])
        seed = seed_vi(theta, exp, ts[0])
        params = theta
    else:
        p = _sse_params(cfg)
        exp = bulk_series(p)
        seed = seed_bulk(p, exp, ts[0])
        params = bulk_okamoto_params(p)
    traj = integrate(params, seed, ts, tol=cfg.tol)
    # min_step is inf when no step was taken, which JSON cannot hold
    diagnostics = {"accepted": traj.accepted, "rejected": traj.rejected,
                   "reprojected": traj.reprojected, "detours": traj.detours,
                   "min_step": (traj.min_step if traj.accepted else None)}
    _emit_table(cfg, ("t_re", "t_im", "zeta_re", "zeta_im", "dzeta_re",
                      "dzeta_im", "residual"), _trajectory_rows(traj),
                extra={"diagnostics": diagnostics})
    return EXIT_OK


def _selftest_ode(cfg: RunConfig):
    theta = _theta_from(cfg)
    exp = pvi_tau_series(theta, cfg.params["sigma"], cfg.params["s"])
    seed = seed_vi(theta, exp, 1e-3)
    traj = integrate(theta, seed, [0.01], tol=1e-12)
    z_end = traj.values[-1][0]
    z_series = seed_vi(theta, exp, 0.01).zeta
    yield "pvi flow rejoins its series", abs(z_end - z_series) <= 1e-8
    yield "constraint residuals", max(traj.residuals) <= 1e-9


# ---------------------------------------------------------------------------
# toeplitz


def cmd_toeplitz(cfg: RunConfig) -> int:
    p = _sse_params(cfg)
    _, _, _, kind = cfg.grid
    ts = [cmath.exp(1j * g) if kind == "circle" else complex(g)
          for g in cfg.grid_values()]
    columns = ["t_re", "t_im", "det_re", "det_im"]
    vs = toeplitz_grid(p, ts, tol=cfg.tol)
    rows = [(t.real, t.imag, v.real, v.imag) for t, v in zip(ts, vs)]
    if cfg.params.get("oracle", False):
        # the whole Toeplitz column comes first, so where both routes fail
        # the Toeplitz failure is the one reported
        oracle = [quad_oracle_an(p, t) for t in ts]
        columns += ["oracle_re", "oracle_im", "rel_diff"]
        rows = [row + (o.real, o.imag, abs(v - o) / max(abs(o), 1e-30))
                for row, v, o in zip(rows, vs, oracle)]
    _emit_table(cfg, columns, rows)
    return EXIT_OK


def _selftest_toeplitz(cfg: RunConfig):
    p = _sse_params(cfg)
    t = cmath.exp(0.4j)
    a = toeplitz_an(p, t)
    b = quad_oracle_an(p, t)
    yield "matches direct oracle", abs(a - b) <= 1e-8 * abs(b)
    yield "dimension zero", toeplitz_an(
        SSEParams(N=0, mu=p.mu, omega1=p.omega1, omega2=p.omega2,
                  xi_star=p.xi_star), t) == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# fredholm


def cmd_fredholm(cfg: RunConfig) -> int:
    ts = cfg.grid_values()
    es = fredholm_grid(ts, cfg.params["xi"], cfg.params.get("nodes", 80))
    rows = [(t, complex(e).real, complex(e).imag) for t, e in zip(ts, es)]
    _emit_table(cfg, ("t", "e_re", "e_im"), rows)
    return EXIT_OK


def _selftest_fredholm(cfg: RunConfig):
    vals = fredholm_grid((0.5, 1.0, 2.0), 1.0)
    yield "monotone decreasing", vals[0] > vals[1] > vals[2] > 0.0
    a = fredholm_sine(FredholmSpec(2.0, 1.0, m=60))
    b = fredholm_sine(FredholmSpec(2.0, 1.0, m=120))
    yield "node doubling stable", abs(a - b) <= 1e-12


# ---------------------------------------------------------------------------
# bulk


def _parse_dims(cfg: RunConfig):
    text = cfg.params.get("dims", "8,16,32,64")
    try:
        dims = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--dims: cannot parse {text!r}") from None
    if not dims:
        raise UsageError("--dims: need at least one dimension")
    return dims


def _gap_seed(p: SSEParams, t: float, l1: complex, l2: complex,
              l3: complex) -> OdeSeed:
    """The bulk flow's seed at x = -4it from l_k = (d/dt)^k log E(t), the
    log-derivatives of the sine-kernel determinant on (-t, t).

    d/dx = (i/4) d/dt, so the x-jet is the t-jet scaled by (i/4)^k, taken
    through the bulk sigma map of p.
    """
    x, d = -4j * t, 0.25j
    return OdeSeed(x, *sigma_map(bulk_okamoto_params(p)).jet(
        x, d * l1, d ** 2 * l2, d ** 3 * l3))


def cmd_bulk(cfg: RunConfig) -> int:
    p = _sse_params(cfg)
    dims = _parse_dims(cfg)
    if max(abs(p.mu), abs(p.omega1), abs(p.omega2)) <= INPUT_INTEGER_TOL:
        # pure jump weight: the boundary series is not defined at the
        # sine-kernel point, so the flow is seeded from the Fredholm side
        # at the first grid point and checked against both independent
        # routes
        xi = p.xi_star
        ts = cfg.grid_values()
        xs = [-4j * t for t in ts]
        limits = bulk_limit_grid(xs, p, dims)
        # the first row's log E and h are the seed's
        jets = fredholm_log_derivatives_grid(ts, xi)
        seed = _gap_seed(p, ts[0], *jets[0][1:])
        traj = integrate(bulk_okamoto_params(p), seed, xs)
        # segment ends land exactly on the requested nodes
        h_ode = dict(zip(traj.path, (z for z, _ in traj.values)))
        rows = []
        for t, x, r, (loge, *jet) in zip(ts, xs, limits, jets):
            z, h_fred = h_ode[x], _gap_seed(p, t, *jet).zeta
            e_fred = cmath.exp(loge)
            rows.append((t, z.real, z.imag, h_fred.real, h_fred.imag,
                         abs(z - h_fred), r.extrapolant.real,
                         r.extrapolant.imag, e_fred.real,
                         abs(r.extrapolant - e_fred)))
        _emit_table(cfg, ("t", "h_ode_re", "h_ode_im", "h_fredholm_re",
                          "h_fredholm_im", "h_diff", "toeplitz_limit_re",
                          "toeplitz_limit_im", "e_fredholm",
                          "limit_diff"), rows)
        return EXIT_OK

    # generic weight: series seeds the flow at the first grid point, the
    # average is rebuilt by log-integration anchored there with the series
    # value, and both routes are compared with the extrapolated Toeplitz
    # limit; the discrepancy columns are dominated by the truncation of
    # the boundary series, not by the flow
    xs = cfg.grid_values()
    exp = bulk_series(p)
    seed = seed_bulk(p, exp, xs[0])
    limits = bulk_limit_grid(xs, p, dims)
    traj = integrate(bulk_okamoto_params(p), seed, xs)
    # grid points are nodes; the sixth-order rebuild needs no finer step
    a_ode = dict(tau_reconstruct(traj, exp.evaluate(xs[0])))
    rows = []
    for x, r in zip(xs, limits):
        a_series = exp.evaluate(x)
        rows.append((x, a_ode[x].real, a_ode[x].imag, a_series.real,
                     a_series.imag, r.extrapolant.real, r.extrapolant.imag,
                     abs(a_ode[x] - r.extrapolant),
                     abs(a_series - r.extrapolant)))
    _emit_table(cfg, ("x", "ode_re", "ode_im", "series_re", "series_im",
                      "toeplitz_limit_re", "toeplitz_limit_im",
                      "ode_vs_limit", "series_vs_limit"), rows)
    return EXIT_OK


def _selftest_bulk(cfg: RunConfig):
    p = _sse_params(cfg)
    r = bulk_limit_an(0.0, p, [2, 3, 4])
    yield "x=0 normalizes to 1", abs(r.extrapolant - 1.0) <= 1e-10
    p0 = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=p.xi_star)
    r = bulk_limit_an(-1.0j, p0, [8, 16, 32])
    e = fredholm_sine(FredholmSpec(0.25, p0.xi_star, m=120))
    yield "gap point meets fredholm", abs(r.extrapolant - e) <= 1e-4


# ---------------------------------------------------------------------------
# asymptotics


def cmd_asymptotics(cfg: RunConfig) -> int:
    xi = cfg.params["xi"]
    ts = cfg.grid_values()
    preds = [gap_asymptotics(t, xi) for t in ts]
    jets = fredholm_log_derivatives_grid(ts, xi, cfg.params.get("nodes", 140))
    rows = []
    for t, pred, (loge, l1, _, _) in zip(ts, preds, jets):
        computed = (t * l1).real
        row = [t, pred.log_derivative, computed,
               abs(pred.log_derivative - computed)]
        if pred.gap_probability is not None:
            e = cmath.exp(loge).real
            row += [pred.gap_probability, e,
                    abs(pred.gap_probability - e) / abs(e)]
        rows.append(tuple(row))
    columns = ["t", "predicted_logderiv", "fredholm_logderiv", "abs_diff"]
    if rows and len(rows[0]) == 7:
        columns += ["predicted_e", "fredholm_e", "rel_diff_e"]
    _emit_table(cfg, columns, rows)
    return EXIT_OK


def _selftest_asymptotics(cfg: RunConfig):
    e = fredholm_sine(FredholmSpec(3.0, 1.0, m=120))
    ratio = e / gap_asymptotics(3.0, 1.0).gap_probability
    yield "gap constant within 1%", abs(ratio - 1) <= 0.01
    pred = gap_asymptotics(2.5, 1.0).log_derivative
    _, l1, _, _ = fredholm_log_derivatives(2.5, 1.0)
    yield "logderiv series at t=2.5", abs(pred - (2.5 * l1).real) <= 2e-3


# ---------------------------------------------------------------------------
# dispatch


# command -> (the default grid (start, end, count) on each grid path it
# computes on, its default path first, its runner, its selftest's checks)
_REAL_T = {"real": (0.9, 0.995, 20)}
_COMMANDS = {
    "monodromy-check": ({"real": (0.0, 0.0, 1)}, cmd_monodromy_check,
                        _selftest_monodromy),
    "series": (_REAL_T, cmd_series, _selftest_series),
    "ode": ({"real": (1e-3, 0.4, 2)}, cmd_ode, _selftest_ode),
    "toeplitz": ({"circle": (0.2, 3.0, 15), **_REAL_T}, cmd_toeplitz,
                 _selftest_toeplitz),
    "fredholm": ({"real": (0.1, 3.0, 30)}, cmd_fredholm, _selftest_fredholm),
    "bulk": ({"real": (0.2, 0.8, 4)}, cmd_bulk, _selftest_bulk),
    "asymptotics": ({"real": (2.0, 4.0, 5)}, cmd_asymptotics,
                    _selftest_asymptotics),
}
COMMANDS = tuple(_COMMANDS)


def _run_selftest(cfg: RunConfig) -> int:
    _, _, checks = _COMMANDS[cfg.command]
    failed = False
    lines = []
    for name, ok in checks(cfg):
        lines.append(f"selftest {cfg.command}: {name}: "
                     f"{'ok' if ok else 'FAIL'}")
        failed = failed or not ok
    text = "\n".join(lines) + "\n"
    _write(cfg, text)
    return EXIT_VIOLATION if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        command, raw = _read_argv(sys.argv[1:] if argv is None else argv)
        if raw is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        cfg = _resolve(command, raw)
        if cfg.selftest:
            return _run_selftest(cfg)
        _, runner, _ = _COMMANDS[cfg.command]
        return runner(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OverflowError as exc:
        print(f"parameter error: a value leaves the float range ({exc})",
              file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (ValueError, ArithmeticError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (QuadratureError, TurningPointError, StepSizeUnderflowError,
            StepLimitError) as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
