"""Every name a taurmt module exports through __all__ resolves.

A deleted function or field that stays listed in __all__ breaks
`from taurmt.<module> import *` only at the caller's import; this test
catches it where the export is declared.
"""

import importlib
import pkgutil

import pytest

import taurmt

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
