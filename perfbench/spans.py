"""In-memory span tracer that wraps taurmt functions at their layer boundaries.

A span is (layer, start, end, parent, error, counts). The tracer wraps each
target function wherever a taurmt.* module binds it, the defining module
included, so a call from toeplitz_an to fourier_table inside rmt_numerics is
split into two spans. Uninstalling restores every original binding and
checks that it did.

A layer's self time is its spans' durations minus the time their direct
child spans cover. Calls and failures count only the spans that enter the
layer from outside it, so nested calls inside one layer (the monodromy
helpers calling each other) count once.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import NamedTuple


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int | None
    error: str | None
    counts: dict


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Flop counts are computed from the matrix order, not measured. A complex
# multiply-add is 8 real flops, an LU factorization n^3/3 multiply-adds.
def _toeplitz_counts(args, kwargs, result):
    n = _arg(args, kwargs, 0, "p").N
    return {"lu_flops": 8 * n ** 3 / 3}


def _fredholm_counts(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    per_fma = 2 if complex(spec.xi).imag == 0.0 else 8
    return {"flops": per_fma * spec.m ** 3 / 3}


def _log_derivative_counts(args, kwargs, result):
    m = int(_arg(args, kwargs, 2, "m", 140))
    # complex: two LU factorizations (slogdet, solve), m right-hand sides
    # through both triangles, and seven dense products
    return {"flops": (2 * 8 / 3 + 16 + 7 * 8) * m ** 3}


def _fourier_counts(args, kwargs, result):
    return {"coeffs": 2 * int(_arg(args, kwargs, 1, "kmax")) + 1}


def _integrate_counts(args, kwargs, result):
    return {"nodes": len(result)}


def _public_functions(module: str):
    mod = sys.modules.get(module)
    if mod is None:
        return ()
    return tuple(name for name, value in vars(mod).items()
                 if inspect.isfunction(value) and not name.startswith("_")
                 and value.__module__ == module)


def targets():
    """(layer, module, attribute, counter) for every wrapped function.

    Call after taurmt.cli is imported: the monodromy layer takes every public
    function of monodromy_vi and monodromy_v, plus the CLI's residual
    builders, which run the mat2 algebra inline; mat2 calls themselves are
    too small and too many to span one by one.
    """
    rmt, ode, ser = "taurmt.rmt_numerics", "taurmt.sigma_ode", "taurmt.tau_series"
    out = [
        ("rmt_numerics.fourier_table", rmt, "fourier_table", _fourier_counts),
        ("rmt_numerics.toeplitz_an", rmt, "toeplitz_an", _toeplitz_counts),
        ("rmt_numerics.bulk_limit_an", rmt, "bulk_limit_an", None),
        ("rmt_numerics.quad_oracle_an", rmt, "quad_oracle_an", None),
        ("rmt_numerics.fredholm_sine", rmt, "fredholm_sine", _fredholm_counts),
        ("rmt_numerics.fredholm_log_derivatives", rmt,
         "fredholm_log_derivatives", _log_derivative_counts),
        ("sigma_ode.integrate", ode, "integrate", _integrate_counts),
        ("sigma_ode.seed", ode, "seed_vi", None),
        ("sigma_ode.seed", ode, "seed_v", None),
        ("sigma_ode.seed", ode, "seed_bulk", None),
        ("sigma_ode.tau_reconstruct", ode, "tau_reconstruct", None),
        ("tau_series.build", ser, "an_series", None),
        ("tau_series.build", ser, "bulk_series", None),
        ("tau_series.build", ser, "pvi_tau_series", None),
        ("tau_series.build", ser, "pv_tau_series", None),
        ("tau_series.evaluate", ser, "BoundaryExpansion.evaluate", None),
        ("tau_series.evaluate", ser, "BoundaryExpansion.log_derivatives",
         None),
        ("tau_series.evaluate", ser, "gap_asymptotics", None),
        ("complexfn", "taurmt.complexfn", "barnes_prefactor", None),
        ("complexfn", "taurmt.complexfn", "gamma_ratio", None),
        ("cli", "taurmt.cli", "main", None),
        ("monodromy", "taurmt.cli", "_generic_residuals", None),
        ("monodromy", "taurmt.cli", "_sse_residuals", None),
    ]
    for module in ("taurmt.monodromy_vi", "taurmt.monodromy_v"):
        out += [("monodromy", module, name, None)
                for name in _public_functions(module)]
    return out


class Tracer:
    """Wraps the targets while installed; spans accumulate across installs."""

    def __init__(self, target_list):
        self.targets = list(target_list)
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = {}
                if counter is not None and error is None:
                    counts = counter(args, kwargs, result)
                spans[index] = Span(layer, start, end, parent, error, counts)

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "taurmt" or name.startswith("taurmt.")]
        for layer, module, attr, counter in self.targets:
            owner = sys.modules.get(module)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = None if owner is None else vars(owner).get(meth)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(layer, original, counter)
            if cls_name:
                self._patched.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every binding; raise if one did not come back."""
        patched, self._patched = self._patched, []
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        for owner, name, original in patched:
            if vars(owner).get(name) is not original:
                raise RuntimeError(f"binding {name!r} of {owner!r} "
                                   "was not restored")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_table(spans) -> dict:
    """Per layer: calls, self_s, failed and the summed counters."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.layer,
                               {"calls": 0, "self_s": 0.0, "failed": 0})
        row["self_s"] += own
        entering = span.parent is None or spans[span.parent].layer != span.layer
        if entering:
            row["calls"] += 1
            row["failed"] += span.error is not None
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return table


def escaped_error(spans) -> str | None:
    """Exception class that left the library for the CLI, if any.

    A span's parent is its nearest traced caller, so the failed span whose
    parent is a cli span (or nothing) is the one whose error reached the
    command.
    """
    for span in spans:
        if span.error is not None and span.layer != "cli" and (
                span.parent is None or spans[span.parent].layer == "cli"):
            return span.error
    return None
