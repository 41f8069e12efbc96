"""taurmt: monodromy parameterizations, tau-function boundary expansions, and
random-matrix numerics for circular ensembles with a spectrum singularity.

The library has three layers. The monodromy layer (monodromy_vi, monodromy_v)
builds and checks explicit SL(2,C) monodromy/Stokes matrices for the sixth
and fifth Painleve systems, including the limit transition from VI to V. The
expansion layer (tau_series, sigma_ode) evaluates truncated tau-function
boundary expansions and integrates the second-degree sigma-form ODEs they
satisfy. The numerics layer (rmt_numerics) provides the independent oracles:
quadrature for the weight's Fourier coefficients, Toeplitz determinants for
the finite-N averages, and Fredholm determinants of the sine kernel for the
bulk scaling limit.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    complexfn,
    mat2,
    monodromy_v,
    monodromy_vi,
    rmt_numerics,
    sigma_ode,
    tau_series,
)


def __getattr__(name):
    # the CLI is imported on first use, so that `python -m taurmt.cli` does
    # not find it in sys.modules already
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
