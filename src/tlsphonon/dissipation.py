"""Ensemble-averaged phonon dissipation rates and frequency shifts.

Closed forms for the three loss channels of an acoustic mode in glass --
saturable resonant absorption by tunneling states, their relaxational
(thermal re-equilibration) absorption, and a constant background -- plus the
resonant frequency pull. Every closed form has an integral twin evaluated by
adaptive quadrature over the TLS distribution, so the analytic reductions
are checkable at runtime rather than trusted.

All rates are angular FWHM-type quantities in rad/s: the Lorentzian response
of a mode with dissipation rate Gamma has full width Gamma at half maximum.
The closed forms take a temperature and an intensity that are either floats
or broadcastable numpy arrays, so one evaluation serves a point or a grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bloch import RelaxationTimes
from .constants import HBAR, KB
from .numerics import (
    coth,
    digamma_half_plus_imag,
    quad2d_adaptive,
    quad_adaptive,
    sech_squared,
    unit_lorentzian,
)
from .tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    TLSEnsemble,
    _rate_prefactor,
    _require_positive,
    channel_sum,
    min_lifetime,
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


def jc_t1t2(material: MaterialParams, ensemble: TLSEnsemble, polarization: str) -> float:
    """J_c T1 T2 = hbar^2 rho v^3 / (2 gamma^2) [W s^2/m^2]."""
    gamma = ensemble.deformation_potential(polarization)
    v = material.sound_speed(polarization)
    return HBAR ** 2 * material.rho * v ** 3 / (2.0 * gamma ** 2)


def critical_intensity(
    material: MaterialParams,
    temperature: float,
    *,
    times: Optional[RelaxationTimes] = None,
    ensemble: Optional[TLSEnsemble] = None,
    polarization: str = "L",
) -> float:
    """Acoustic intensity J_c [W/m^2] at which resonant absorption drops by sqrt(2).

    From relaxation times: J_c = :func:`jc_t1t2` / (T1 T2); otherwise
    falls back to the ensemble's empirical power law J_c = a T^b. Exactly one
    source must be available.
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


def gamma_res_integral_oracle(
    mode: PhononMode,
    temperature: float,
    intensity: float,
    times: RelaxationTimes,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    *,
    rtol: float = 1e-8,
    e_max: Optional[float] = None,
    resonant_only: bool = False,
) -> float:
    """Resonant absorption by direct integration over the TLS splitting [rad/s].

    Evaluates
        (P gamma^2 Omega / (hbar rho v^2)) *
        Integral_0^Emax dE  T2 tanh(E/2kT) (L_d - L_s) / (1 + s (L_d + L_s))
    with L_d, L_s the unit Lorentzians in the co-/counter-rotating detunings
    and s = J/J_c the saturation parameter. The strain coupling is taken at
    the distribution peak delta0 -> E. No omega*T2 >> 1 assumption is made;
    with ``resonant_only`` the counter-rotating terms are dropped, which is
    the approximation behind the closed form.

    The default truncation E_max = max(40 kT, hbar omega + 20 hbar w / T2)
    (w the power-broadened half-width factor) is caller-overridable.
    Raises :class:`~tlsphonon.numerics.QuadratureError` on non-convergence.
    """
    _require_positive(temperature=temperature)
    if intensity < 0.0:
        raise ValueError("intensity must be >= 0")
    omega = mode.omega
    t2 = times.t2
    j_c = critical_intensity(material, temperature, times=times,
                             ensemble=ensemble, polarization=mode.polarization)
    s = intensity / j_c
    broadening = float(suppression_factor(intensity, j_c))

    if e_max is None:
        e_max = max(40.0 * KB * temperature, HBAR * omega + 20.0 * HBAR * broadening / t2)

    two_kt = 2.0 * KB * temperature

    def integrand(energy: float) -> float:
        l_d = unit_lorentzian((energy / HBAR - omega) * t2)
        l_s = 0.0 if resonant_only else unit_lorentzian((energy / HBAR + omega) * t2)
        return (t2 * math.tanh(energy / two_kt) * (l_d - l_s)
                / (1.0 + s * (l_d + l_s)))

    # The resonance is a spike of relative width ~1/(omega T2); QUADPACK needs
    # explicit break points there or it can miss it entirely.
    peak = HBAR * omega
    half_width = HBAR * broadening / t2
    points = sorted({
        min(max(p, 0.0), e_max)
        for p in (peak - 10.0 * half_width, peak, peak + 10.0 * half_width)
    })
    result = quad_adaptive(integrand, 0.0, e_max, rtol=rtol, points=points)
    return (shift_scale(mode, material, ensemble) / HBAR
            * result.checked("resonant-absorption integral"))


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


def gamma_rel_integral_oracle(
    temperature: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    *,
    polarization: str = "L",
    rtol: float = 1e-8,
    e_max: Optional[float] = None,
    delta0_min: Optional[float] = None,
) -> float:
    """Relaxation absorption by 2-D quadrature over the TLS distribution [rad/s].

    Evaluates
        (P gamma^2 / rho v^2 k_B T) *
        Integral dDelta dDelta0 (Delta^2 / Delta0 E^2) (1/tau) sech^2(E/2kT)
    with the golden-rule rate for 1/tau, integrating Delta0 in log
    coordinates (the 1/Delta0 density cancels against the measure, and the
    rate's Delta0^2 kills any divergence). Agreement with
    :func:`gamma_rel_closed` validates the analytic angular (1/3) and
    thermal-energy integrals behind the closed form.
    """
    _require_positive(temperature=temperature)
    kt = KB * temperature
    if e_max is None:
        e_max = 40.0 * kt
    if delta0_min is None:
        delta0_min = 1e-9 * e_max  # omitted mass scales as (delta0_min/kT)^2

    gamma = ensemble.deformation_potential(polarization)
    v = material.sound_speed(polarization)
    rate_k = _rate_prefactor(material, ensemble)
    prefactor = ensemble.p * gamma ** 2 / (material.rho * v ** 2 * kt)
    two_kt = 2.0 * kt

    def integrand(log_delta0: float, delta: float) -> float:
        delta0 = math.exp(log_delta0)
        energy = math.hypot(delta, delta0)
        rate = rate_k * energy * delta0 ** 2 * coth(energy / two_kt)
        # log-substitution Jacobian delta0 cancels the 1/delta0 density
        return delta ** 2 / energy ** 2 * rate * sech_squared(energy / two_kt)

    result = quad2d_adaptive(
        integrand,
        (math.log(delta0_min), math.log(e_max)),
        (0.0, e_max),
        rtol=rtol,
    )
    return prefactor * result.checked("relaxation-absorption integral")


def rayleigh_floor(omega: float, reference: Tuple[float, float]) -> float:
    """Rayleigh-scattering rate extrapolated from a reference point [rad/s].

    Elastic scattering from frozen-in disorder scales as frequency^4:
    Gamma_R = Gamma_ref * (omega / Omega_ref)^4. A diagnostic helper for
    bounding the background floor; it is deliberately not a term of
    total_linewidth, where the background stays a fitted constant.
    """
    omega_ref, gamma_ref = reference
    _require_positive(omega=omega, omega_ref=omega_ref, gamma_ref=gamma_ref)
    return gamma_ref * (omega / omega_ref) ** 4


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
    is ``j_c`` (a run's comes from ``ForwardModel.j_c``), else the ensemble's
    power law. ``t_ref`` selects the reference temperature of the reported
    frequency shift (0.0 if omitted).

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


def minimum_lifetime_times(
    mode: PhononMode,
    temperature: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    t2: float,
) -> RelaxationTimes:
    """RelaxationTimes with T1 set to the minimum TLS lifetime at E = hbar Omega.

    The TLS density as a function of lifetime is sharply peaked at tau_min,
    so tau_min is the working estimate for T1 wherever only T2 is known.
    """
    t1 = min_lifetime(HBAR * mode.omega, material, ensemble, temperature)
    return RelaxationTimes(t1=t1, t2=t2)
