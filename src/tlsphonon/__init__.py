"""Tunneling-state phonon dissipation in glass, probed by Brillouin scattering.

Forward model (dissipation rates, frequency shifts, gain spectra),
synthetic measurement campaigns, and the inverse fitting pipeline that
recovers the tunneling-state parameters from them.

The public names below load on first use: ``tlsphonon.PhononMode`` or
``from tlsphonon import PhononMode`` imports its submodule then, so
importing the package, or any one submodule, loads no other.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "config": ("ForwardModel", "SweepPlan"),
    "dissipation": (
        "LinewidthBreakdown", "critical_intensity", "decay_length", "freq_shift_res",
        "gamma_rel_closed", "gamma_res_strong", "gamma_res_weak", "q_factor",
        "suppression_factor", "total_linewidth",
    ),
    "fitting": (
        "FitError", "LorentzianFit", "PowerLawFit", "SaturationFit", "compare_freq_shift",
        "extract_times", "fit_gamma0_decomposition", "fit_lorentzian", "fit_powerlaw",
        "fit_saturation", "fit_saturation_shared",
    ),
    "numerics": ("digamma_half_plus_imag",),
    "sbs": (
        "OpticalDrive", "brillouin_frequency", "g_b_at_linewidth", "phonon_intensity",
        "stokes_gain", "weak_signal_margin",
    ),
    "synth": ("BGSTrace", "bin_traces", "solve_self_consistent", "synth_sweep", "synth_trace"),
    "tls_core": (
        "DriveState", "MaterialParams", "PhononMode", "RelaxationTimes", "TLSEnsemble",
        "TLSState", "get_preset", "golden_rule_rate", "min_lifetime", "preset_names",
        "tls_energy",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SUBMODULE_OF)  # what `from tlsphonon import *` loads


def __getattr__(name):
    try:
        submodule = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE_OF})
