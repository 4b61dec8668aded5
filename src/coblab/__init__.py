"""Certified joint and double coboundaries of commuting circle rotations.

The package builds explicit trigonometric series that are simultaneous
coboundaries for two rotations while provably escaping the doubled
equation, certifies every inequality with rational interval arithmetic,
and ships the supporting Diophantine searches, spectral-measure criteria,
ergodic-rate diagnostics, and a lattice shift counterpart.

Submodules load lazily: each is registered in sys.modules on import of the
package but executes only when first used, so a subcommand pays only for the
modules it calls. The public names below resolve on first access. Before
Python 3.12 the lazy loader takes no lock, so a program that first touches a
submodule from several threads at once should import it beforehand.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "certify": ("Enclosure",),
    "report": ("Certificate", "CertificateEntry"),
    "constructions": (
        "ConstructionResult",
        "PartialSum",
        "build_joint_not_double",
        "check_double_bad",
        "check_mur_envelope",
        "common_generator",
        "envelope_sum",
        "flagship_series",
        "joint_summability_sums",
        "kac_salem_series",
        "large_coeff_witness",
        "petersen_series",
        "power_lift_joint",
    ),
    "diophantine": (
        "ApproximationRecord",
        "Dependence",
        "bad_pair_constant",
        "convergents",
        "dirichlet_pair_search",
        "integer_dependence_search",
        "square_approximation_search",
    ),
    "errors": (
        "CertificationError",
        "CoblabError",
        "ConfigError",
        "PrecisionCapError",
        "ShortfallError",
    ),
    "fourier": (
        "SparseFourierSeries",
        "apply_difference",
        "apply_rotation",
        "browder_sum_norm",
        "double_ergodic_sum_norm",
        "double_solve",
        "random_real_series",
        "solve_coboundary",
        "transfer_coefficients",
    ),
    "shift_example": (
        "DivergenceReport",
        "LatticeFunction",
        "build_h",
        "build_q",
        "divergence_certificate",
        "lp_partial_norm",
    ),
    "spectral": (
        "AtomicSpectralMeasure",
        "cesaro_rate_profile",
        "coboundary_integral",
        "double_criterion_sum",
        "doubling_tripling_variance",
        "joint_criterion_sum",
        "spectral_measure",
    ),
    "surd": ("QuadraticSurd", "parse_surd"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def _register_lazily(module: str) -> None:
    """Put coblab.<module> in sys.modules without executing it yet."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
