"""Ideal outcome curves of the four-photon interference experiment.

The source state, the two analysis beam splitters and the outcome taxonomy
are modelled in Fock space by the network in renyi2._fock_network. Every
curve it gives is a + b cos 2 phi with rational constants, evaluated here, so
no production path builds a Fock state. The network's names stay importable
from this module: a PEP 562 __getattr__ serves the names of _NETWORK and
imports the network on first use of one of them.
"""

import importlib

import numpy as np

from .qstate import _numbers

# the outcome channels: the column order of every probability row and count
# table, and the values of the network's OutcomeClass, in this order
CHANNELS = ("cc", "ca", "ac", "aa", "other")

# -- closed form of the outcome curves -----------------------------------------
# The source state is sum_j z_j |s_j> with z = (1, e^{i phi}, e^{2 i phi}) and
# |s_j> = (K^dag^2 / 2, K^dag L^dag, L^dag^2 / 2) |vac> / sqrt(10). The splitters
# are linear, so the probability of outcome class c is z^dag G_c z, with G_c the
# Gram matrix of the class-c parts of the three components after the
# splitters. The two-singlet term interferes with neither double pair
# (G_c[0, 1] = G_c[1, 2] = 0) and every term puts two photons on each side
# (G_other = 0), so each curve is a Hong-Ou-Mandel dip of period pi:
#
#     p_c(phi) = tr G_c + 2 G_c[0, 2] cos 2 phi
#
# with the rational constants below. The Fock network of renyi2._fock_network
# is their derivation; the tests rebuild G_c from it and check these numbers.
# cos 2 phi is taken as Re (e^{i phi})^2, which stays finite for every finite
# phi, where 2 phi itself overflows near phi = 9e307.

CURVE_OFFSETS = np.array([9 / 20, 3 / 20, 3 / 20, 1 / 4, 0.0])  # tr G_c
CURVE_AMPLITUDES = np.array([3 / 20, -3 / 20, -3 / 20, 3 / 20, 0.0])  # 2 G_c[0, 2]
CURVE_OFFSETS.setflags(write=False)
CURVE_AMPLITUDES.setflags(write=False)


def outcome_curves(phi_grid) -> np.ndarray:
    """Ideal probabilities of (cc, ca, ac, aa, other), one row per phase."""
    phi = _numbers("phi", phi_grid, float).reshape(-1)
    if phi.size == 0:
        raise ValueError("phase grid is empty")
    cos2 = (np.exp(1j * phi) ** 2).real
    return CURVE_OFFSETS + cos2[:, None] * CURVE_AMPLITUDES


# keys of one coincidence_curves row; `other` has no curve
_CURVE_FIELDS = ("phi",) + tuple(f"p_{ch}" for ch in CHANNELS if ch != "other")


def coincidence_curves(phi_grid) -> list[tuple[float, float, float, float, float]]:
    """Rows (phi, p_cc, p_ca, p_ac, p_aa) of the source state's outcome curves."""
    phi = _numbers("phi", phi_grid, float).reshape(-1)
    return list(zip(phi.tolist(), *outcome_curves(phi)[:, :-1].T.tolist()))


# every name renyi2._fock_network defines; static, so that looking up any
# other name (hasattr(fock, "cache_clear"), say) imports nothing
_NETWORK = (
    "NORM_TOL", "DEFAULT_CAP", "N_MODES", "_VACUUM_KEY", "Polarization", "ModeIndex",
    "_1H", "_1V", "_2H", "_2V", "_3H", "_3V", "_4H", "_4V", "OutcomeClass", "FockState", "vacuum",
    "apply_creation", "_create", "_annihilate", "_acc", "_kdag", "_ldag", "_k", "_l", "_apply_hamiltonian",
    "spdc_four_photon_state", "hamiltonian_expansion", "hamiltonian_four_photon_term", "_BS_MATRICES",
    "_bs_pair", "beam_splitter", "classify_outcome", "CoincidenceRecord", "coincidence_probabilities",
    "conditional_state_after_anticoalescence",
)


def __getattr__(name):
    if name not in _NETWORK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("renyi2._fock_network"), name)


def __dir__():
    return sorted({*globals(), *_NETWORK})
