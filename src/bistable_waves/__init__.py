"""Traveling waves of a bistable reaction-diffusion equation with a jump
nonlinearity: hypothesis audits, envelope speed brackets, phase-plane
shooting for the C^1 wave, and desk-scale stability experiments.

`import bistable_waves` loads only the exception types (`errors`), and no
numpy.  Every other public name, and each numeric submodule named as an
attribute (`bistable_waves.shooting`), is imported from its submodule on
first access (PEP 562 `__getattr__`) and then kept in the package's
namespace.  The command line relies on this: `cli` sets BLAS's thread
count before numpy first loads.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Each numeric submodule with the public names it defines; each is also
# an attribute of the package, roots and series too, which define none.
_EXPORTS = {
    "linear_theory": (
        "EigenRates",
        "EnvelopeWave",
        "SpeedBracket",
        "derivative_gap",
        "eigen_rates",
        "envelope_profile",
        "lambda0_plus",
        "lambda1_minus",
        "match_speed",
        "matched_wave",
        "speed_bracket",
        "speed_residual",
    ),
    "reaction": (
        "BranchPoly",
        "HypothesisReport",
        "ReactionTerm",
        "SlopeBounds",
        "check_hypotheses",
        "envelope",
        "max_abs_slopes",
        "piecewise_linear",
        "potential_integral",
        "quadratic_demo",
        "slope_bounds",
    ),
    "roots": (),
    "series": (),
    "shooting": (
        "PhasePath",
        "WaveSolution",
        "find_speed",
        "reconstruct_profile",
        "shoot_half",
        "solve_wave",
        "speed_mismatch",
        "verify_c1",
    ),
    "simulator": (
        "ComparisonReport",
        "Grid1D",
        "SimState",
        "SuperSubParams",
        "Trajectory",
        "WaveProfile",
        "comparison_check",
        "envelope_value",
        "estimate_speed",
        "fit_decay",
        "front_crossings",
        "front_position",
        "heat_kernel_eps",
        "reaction_ode",
        "run",
        "shift_distance",
        "step",
        "supersub_params",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["errors", *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
