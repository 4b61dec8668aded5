"""Certified joint and double coboundaries of commuting circle rotations.

The package builds explicit trigonometric series that are simultaneous
coboundaries for two rotations while provably escaping the doubled
equation, certifies every inequality with rational interval arithmetic,
and ships the supporting Diophantine searches, spectral-measure criteria,
ergodic-rate diagnostics, and a lattice shift counterpart.

Each public name is imported from the module that defines it, as in
`from coblab.surd import parse_surd`. The package itself defines no other
names: it registers its layer modules lazily, so each is in sys.modules on
import of the package but executes only when first used, and a subcommand
pays only for the modules it calls. The report handlers of the command line
are one of them, `commands`, so `coblab --help` executes none of their code.
Before Python 3.12 the lazy loader takes no lock, so a program that first
touches a module from several threads at once should import it beforehand.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("certify", "report", "commands", "constructions", "diophantine",
           "errors", "fourier", "shift_example", "spectral", "surd")

__all__ = ["__version__", *_LAYERS]


def _register_lazily(module: str) -> None:
    """Put coblab.<module> in sys.modules without executing it yet."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _LAYERS:
    _register_lazily(_module)
del _module
