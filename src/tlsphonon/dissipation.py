"""Ensemble-averaged phonon dissipation rates and frequency shifts.

Closed forms for the three loss channels of an acoustic mode in glass --
saturable resonant absorption by tunneling states, their relaxational
(thermal re-equilibration) absorption, and a constant background -- plus the
resonant frequency pull. The integral twins that check the absorption closed
forms by quadrature over the TLS distribution are in
:mod:`tlsphonon.oracles`.

All rates are angular FWHM-type quantities in rad/s: the Lorentzian response
of a mode with dissipation rate Gamma has full width Gamma at half maximum.
The closed forms take a temperature and an intensity that are either floats
or broadcastable numpy arrays, so one evaluation serves a point or a grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import HBAR, KB
from .numerics import digamma_half_plus_imag
from .tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    RelaxationTimes,
    TLSEnsemble,
    _require_positive,
    channel_sum,
    jc_t1t2,
)

# Resonant/relaxation absorption is a low-temperature theory; above this the
# numbers are extrapolation and total_linewidth says so.
MODEL_VALIDITY_MAX_K = 10.0


@dataclass(frozen=True)
class LinewidthBreakdown:
    """Additive decomposition of the acoustic dissipation rate [rad/s].

    Each field is a float, or an array when the operating point is a grid.
    total = gamma_res + gamma_rel + gamma_bg by construction;
    freq_shift_res is the resonant frequency pull relative to the reference
    temperature the caller supplied (0.0 when no reference was given).
    """

    gamma_res: float
    gamma_rel: float
    gamma_bg: float
    total: float
    freq_shift_res: float = 0.0


def shift_scale(mode: PhononMode, material: MaterialParams, ensemble: TLSEnsemble) -> float:
    """P gamma^2 Omega / (rho v^2) [rad/s], the scale of resonant absorption and pull."""
    gamma = ensemble.deformation_potential(mode.polarization)
    v = material.sound_speed(mode.polarization)
    return ensemble.p * gamma ** 2 * mode.omega / (material.rho * v ** 2)


def gamma_res_weak(
    mode: PhononMode,
    temperature: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
) -> float:
    """Weak-field resonant absorption rate [rad/s].

    Gamma_res = pi P gamma^2 Omega / (rho v^2) * tanh(hbar Omega / 2 k_B T).
    Maximal as T -> 0 (every resonant TLS in its ground state) and vanishing
    at high temperature, where stimulated emission from the upper level
    exactly compensates absorption.
    """
    _require_positive(temperature=temperature)
    return (math.pi * shift_scale(mode, material, ensemble)
            * np.tanh(HBAR * mode.omega / (2.0 * KB * temperature)))


def critical_intensity(
    material: MaterialParams,
    temperature: float,
    *,
    times: Optional[RelaxationTimes] = None,
    ensemble: Optional[TLSEnsemble] = None,
    polarization: str = "L",
) -> float:
    """Acoustic intensity J_c [W/m^2] at which resonant absorption drops by sqrt(2).

    From relaxation times: J_c = :func:`~tlsphonon.tls_core.jc_t1t2` / (T1 T2);
    otherwise falls back to the ensemble's empirical power law J_c = a T^b.
    Exactly one source must be available.
    """
    _require_positive(temperature=temperature)
    if times is not None:
        if ensemble is None:
            raise ValueError("ensemble needed for the deformation potential")
        return jc_t1t2(material, ensemble, polarization) / (times.t1 * times.t2)
    if ensemble is not None and ensemble.jc_power_law is not None:
        return ensemble.j_c_from_power_law(temperature)
    raise ValueError("no J_c source: pass times or an ensemble with a power law")


def gamma_res_strong(
    mode: PhononMode,
    temperature: float,
    intensity: float,
    j_c: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
) -> float:
    """Saturable resonant absorption rate [rad/s]: weak rate / sqrt(1 + J/J_c)."""
    if np.any(np.asarray(intensity) < 0.0):
        raise ValueError("intensity must be >= 0")
    weak = gamma_res_weak(mode, temperature, material, ensemble)
    return weak / suppression_factor(intensity, j_c)


def suppression_factor(intensity, j_c):
    """sqrt(1 + J/J_c), by which resonant absorption is suppressed; float or array."""
    _require_positive(j_c=j_c)
    return np.sqrt(1.0 + intensity / j_c)


def shift_bracket(omega: float, temperature: float) -> float:
    """ln x - Re psi(1/2 + i x / 2 pi) with x = hbar Omega / k_B T.

    The temperature dependence of the resonant frequency pull; the shift
    between two temperatures is -(P gamma^2 Omega / rho v^2) times the
    difference of this bracket.
    """
    x = HBAR * omega / (KB * temperature)
    return np.log(x) - digamma_half_plus_imag(x / (2.0 * math.pi))


def freq_shift_res(
    mode: PhononMode,
    temperature: float,
    t_ref: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
) -> float:
    """Resonant frequency pull between two temperatures [rad/s].

    Delta_omega(T) - Delta_omega(T_ref) with
        Delta_omega(T) = -(P gamma^2 Omega / rho v^2) *
                         [ln(hbar Omega / k_B T) - Re psi(1/2 + i hbar Omega / 2 pi k_B T)]
    Acoustic-intensity independent by construction (the operation takes no
    intensity argument); zero at T = T_ref.
    """
    _require_positive(temperature=temperature, t_ref=t_ref)
    return -shift_scale(mode, material, ensemble) * (
        shift_bracket(mode.omega, temperature) - shift_bracket(mode.omega, t_ref))


def gamma_rel_closed(
    temperature: float,
    polarization: str,
    material: MaterialParams,
    ensemble: TLSEnsemble,
) -> float:
    """Relaxation-absorption rate [rad/s], closed form.

    Gamma_rel = (pi^3 / 24) * (P gamma_eta^2 / rho^2 v_eta^2 hbar^4)
                * sum_eta' (gamma_eta'^2 / v_eta'^5) * (k_B T)^3

    Frequency independent and ~T^3; valid when the probing frequency is fast
    compared with the inversion relaxation of the thermally active TLSs
    (omega T1 >> 1), which holds for GHz phonons at kelvin temperatures.
    """
    _require_positive(temperature=temperature)
    gamma = ensemble.deformation_potential(polarization)
    v = material.sound_speed(polarization)
    return (math.pi ** 3 / 24.0
            * ensemble.p * gamma ** 2 / (material.rho ** 2 * v ** 2 * HBAR ** 4)
            * channel_sum(material, ensemble) * (KB * temperature) ** 3)


def saturation_floor(
    temperature: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
) -> float:
    """Gamma_rel + Gamma_bg [rad/s] of the L branch: what is left once resonant
    absorption saturates."""
    return gamma_rel_closed(temperature, "L", material, ensemble) + ensemble.gamma_bg


def q_factor(omega: float, gamma: float) -> float:
    """Acoustic quality factor Omega / Gamma."""
    _require_positive(omega=omega, gamma=gamma)
    return omega / gamma


def decay_length(gamma: float, material: MaterialParams, polarization: str = "L") -> float:
    """Propagation distance v / Gamma over which the beam decays [m]."""
    _require_positive(gamma=gamma)
    return material.sound_speed(polarization) / gamma


def total_linewidth(
    mode: PhononMode,
    drive: DriveState,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    *,
    j_c: Optional[float] = None,
    t_ref: Optional[float] = None,
) -> LinewidthBreakdown:
    """Total dissipation rate and its breakdown at one operating point, or
    element-wise over a grid of them when ``drive`` holds arrays.

    total = gamma_res(J) + gamma_rel(T) + gamma_bg. The critical intensity
    is ``j_c`` (a run's comes from :meth:`tlsphonon.config.ForwardModel.j_c`),
    else the ensemble's power law. ``t_ref`` selects the reference
    temperature of the reported frequency shift (0.0 if omitted).

    Saturates toward the floor gamma_rel + gamma_bg as J -> infinity.
    """
    t = drive.temperature
    if np.any(np.asarray(t) > MODEL_VALIDITY_MAX_K):
        warnings.warn(
            f"tunneling-state dissipation at T = {np.max(t)} K is an extrapolation; "
            f"the model is calibrated below ~{MODEL_VALIDITY_MAX_K:.0f} K",
            stacklevel=2,
        )
    if j_c is None:
        j_c = critical_intensity(material, t, ensemble=ensemble,
                                 polarization=mode.polarization)
    res = gamma_res_strong(mode, t, drive.intensity, j_c, material, ensemble)
    rel = gamma_rel_closed(t, mode.polarization, material, ensemble)
    bg = ensemble.gamma_bg
    shift = 0.0
    if t_ref is not None:
        shift = freq_shift_res(mode, t, t_ref, material, ensemble)
    return LinewidthBreakdown(
        gamma_res=res,
        gamma_rel=rel,
        gamma_bg=bg,
        total=res + rel + bg,
        freq_shift_res=shift,
    )
