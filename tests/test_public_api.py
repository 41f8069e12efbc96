"""Every name a taurmt module exports through __all__ resolves, and every
library site that refuses a non-finite input refuses nan, inf and -inf.

A deleted function or field that stays listed in __all__ breaks
`from taurmt.<module> import *` only at the caller's import; this test
catches it where the export is declared.
"""

import importlib
import math
import pkgutil
import warnings
from dataclasses import replace

import pytest

import taurmt
from taurmt.complexfn import gamma_ratio, ln_gamma
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import SSEParams, ThetaVI
from taurmt.rmt_numerics import (FredholmSpec, WeightSpec, bulk_limit_grid,
                                 fourier_table, fredholm_grid,
                                 fredholm_log_derivatives_grid, quad_oracle_an,
                                 toeplitz_grid)
from taurmt.sigma_ode import BulkParams, OdeSeed, integrate
from taurmt.tau_series import gap_asymptotics

# __main__ runs the CLI when imported
MODULES = sorted(f"taurmt.{info.name}"
                 for info in pkgutil.iter_modules(taurmt.__path__)
                 if info.name != "__main__")


def test_every_module_is_listed():
    assert "taurmt.cli" in MODULES and "taurmt.tau_series" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


P = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)

# each site, as a call that takes the non-finite input v
REFUSAL_SITES = {
    "SSEParams.mu": lambda v: replace(P, mu=v),
    "SSEParams.omega1": lambda v: replace(P, omega1=v),
    "SSEParams.omega2": lambda v: replace(P, omega2=v),
    "SSEParams.xi_star": lambda v: replace(P, xi_star=v),
    "ThetaVI": lambda v: ThetaVI(0.1, v, 0.2, 0.3),
    "ThetaV": lambda v: ThetaV(0.1, 0.2, v),
    "BulkParams": lambda v: BulkParams(0.1, v, 0.2),
    "WeightSpec.t": lambda v: WeightSpec(P, v),
    "WeightSpec.t.imag": lambda v: WeightSpec(P, complex(0.5, v)),
    "fourier_table.tol": lambda v: fourier_table(WeightSpec(P, 1j), 2, v),
    "toeplitz_grid.tol": lambda v: toeplitz_grid(P, [1j], v),
    "bulk_limit_grid.x": lambda v: bulk_limit_grid([v], P, [4]),
    "quad_oracle_an.t": lambda v: quad_oracle_an(P, v),
    "FredholmSpec.t": lambda v: FredholmSpec(v),
    "FredholmSpec.xi": lambda v: FredholmSpec(1.0, v),
    "fredholm_grid.t": lambda v: fredholm_grid([1.0, v]),
    "fredholm_log_derivatives_grid.xi":
        lambda v: fredholm_log_derivatives_grid([1.0], v),
    "gap_asymptotics.t": lambda v: gap_asymptotics(v, 0.5),
    "gap_asymptotics.xi": lambda v: gap_asymptotics(2.0, v),
    "OdeSeed.zeta": lambda v: OdeSeed(0.1, v, 0.2),
    "OdeSeed.curvature": lambda v: OdeSeed(0.1, 0.2, 0.3, v),
    "integrate.tol": lambda v: integrate(None, None, [1.0], tol=v),
    "integrate.path": lambda v: integrate(BulkParams(0.1, 0.2, 0.3),
                                          OdeSeed(0.1, 0.2, 0.3), [0.5, v]),
    "ln_gamma": ln_gamma,
    "gamma_ratio": lambda v: gamma_ratio((v,), (1.5,)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(REFUSAL_SITES))
def test_every_refusal_site_refuses_a_non_finite_input(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            REFUSAL_SITES[site](value)
