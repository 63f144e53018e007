"""Two-copy interference toolkit.

Simulates the direct measurement of Renyi-2 entropy of bipartite polarization
states: two-copy collision probabilities, an entropic entanglement witness, a
CHSH baseline, the four-photon source's outcome curves in closed form, and a
stochastic experiment emulator with curve fitting.

Each public name is listed once, under the module that defines it, and that
module is imported on first access (PEP 562), so `import renyi2` loads
neither numpy nor a layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qstate": (
        "DensityOperator", "density_stack", "make_density", "partial_trace", "ppt_min_eigenvalue",
        "ppt_min_eigenvalues", "purity", "random_density", "singlet", "tensor", "werner", "werner_stack",
    ),
    "two_copy": (
        "CollisionProbabilities", "WitnessVerdict", "collision_probabilities", "collision_quadruples",
        "entropic_witness", "purities_from_probabilities", "witness_margins",
    ),
    "chsh": ("CorrelationMatrix", "KERNEL_BACKEND", "correlation_matrix", "max_chsh", "max_chsh_values"),
    "fock": ("coincidence_curves", "outcome_curves"),
    "experiment": (
        "FitResult", "RunConfig", "estimate_probabilities", "fit_interference", "simulate_counts",
        "witness_from_run",
    ),
}
_LAYER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_LAYER, "__version__"]


def __getattr__(name):
    # an AttributeError lets `from renyi2 import cli` fall back to the submodule
    if name not in _LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
