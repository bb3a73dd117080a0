"""Tunneling-state phonon dissipation in glass, probed by Brillouin scattering.

Forward model (dissipation rates, frequency shifts, gain spectra),
synthetic measurement campaigns, and the inverse fitting pipeline that
recovers the tunneling-state parameters from them.
"""

__version__ = "0.1.0"

from .dissipation import (
    LinewidthBreakdown,
    critical_intensity,
    decay_length,
    freq_shift_res,
    gamma_rel_closed,
    gamma_res_strong,
    gamma_res_weak,
    q_factor,
    suppression_factor,
    total_linewidth,
)
from .fitting import (
    FitError,
    LorentzianFit,
    PowerLawFit,
    SaturationFit,
    compare_freq_shift,
    extract_times,
    fit_gamma0_decomposition,
    fit_lorentzian,
    fit_powerlaw,
    fit_saturation,
    fit_saturation_shared,
)
from .numerics import digamma_half_plus_imag
from .sbs import (
    OpticalDrive,
    brillouin_frequency,
    g_b_at_linewidth,
    phonon_intensity,
    stokes_gain,
    weak_signal_margin,
)
from .synth import (
    BGSTrace,
    ForwardModel,
    SweepPlan,
    bin_traces,
    solve_self_consistent,
    synth_sweep,
    synth_trace,
)
from .tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    RelaxationTimes,
    TLSEnsemble,
    TLSState,
    get_preset,
    golden_rule_rate,
    min_lifetime,
    preset_names,
    tls_energy,
)
