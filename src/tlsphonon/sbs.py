"""Stimulated Brillouin scattering: the optical probe of the acoustic mode.

Counter-propagating pump and Stokes fields beat at their detuning and drive
an acoustic wave via electrostriction; the wave scatters pump light into the
Stokes field via photoelasticity. In the weak-signal regime the measured
Stokes power gain traces a Lorentzian in the pump-probe detuning, and the
intra-fiber phonon intensity follows the optical powers, which is how the
experimentalist dials the acoustic drive without touching the sample. A
drive is therefore one power setting. The detuning is the spectrum's axis,
swept by the synthesizer, so the gain and intensity profiles take it as an
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .numerics import unit_lorentzian
from .tls_core import MaterialParams, _require_positive

WEAK_SIGNAL_WARN_LEVEL = 0.1  # g_B P_p L above this is no longer "weak"


@dataclass(frozen=True)
class OpticalDrive:
    """One power setting of a pump-probe gain measurement: the attenuators
    fix the powers, and the powers fix the acoustic drive.

    pump_power / stokes_power  input powers [W]
    pump_omega                 pump angular frequency [rad/s]
    fiber_length               interaction length [m]
    """

    pump_power: float
    stokes_power: float
    pump_omega: float
    fiber_length: float

    def __post_init__(self):
        if not (0.0 <= self.pump_power < math.inf and 0.0 <= self.stokes_power < math.inf):
            raise ValueError(f"optical powers must be finite and >= 0, got "
                             f"{self.pump_power!r} and {self.stokes_power!r} W")
        _require_positive(pump_omega=self.pump_omega, fiber_length=self.fiber_length)


def brillouin_frequency(
    material: MaterialParams, pump_omega: float, polarization: str = "L"
) -> float:
    """Phase-matched acoustic frequency for backward scattering [rad/s].

    Omega = 2 n v omega_p / c, assuming linear optical and acoustic
    dispersion. Linear in both the effective index and the sound speed.
    """
    _require_positive(pump_omega=pump_omega)
    v = material.sound_speed(polarization)
    return 2.0 * material.n_eff * v * pump_omega / C_LIGHT


def phase_match_residual(omega_p, omega_s, omega_ac, k_p, k_s, q):
    """Energy and momentum mismatch of a backward-SBS triple.

    Returns (omega_p - omega_s - omega_ac [rad/s], k_p + k_s - q [1/m]);
    both vanish iff the pump, the counter-propagating Stokes field, and the
    co-propagating acoustic wave are phase matched.
    """
    for name, val in (("omega_p", omega_p), ("omega_s", omega_s),
                      ("omega_ac", omega_ac), ("k_p", k_p), ("k_s", k_s), ("q", q)):
        _require_positive(**{name: val})
    return omega_p - omega_s - omega_ac, k_p + k_s - q


def lorentzian_profile(omega_im, center: float, gamma: float):
    """Unit-peak Lorentzian (Gamma/2)^2 / ((center - omega_im)^2 + (Gamma/2)^2)."""
    return unit_lorentzian((center - np.asarray(omega_im, dtype=float)) / (gamma / 2.0))


def stokes_gain(
    drive: OpticalDrive,
    omega_ac: float,
    gamma: float,
    g_b: float,
    omega_im,
):
    """Stokes power gain Delta P_S [W] at detuning omega_IM.

    Delta P_S = (Gamma/2)^2 g_B P_p P_S L / ((Omega - omega_IM)^2 + (Gamma/2)^2)

    Weak-signal expression (optical loss corrections dropped); peak value
    g_B P_p P_S L at omega_IM = Omega, half maximum one half-linewidth out.
    ``omega_im`` may be an array for spectrum evaluation.
    """
    _require_positive(omega_ac=omega_ac, gamma=gamma, g_b=g_b)
    peak = g_b * drive.pump_power * drive.stokes_power * drive.fiber_length
    return peak * lorentzian_profile(omega_im, omega_ac, gamma)


def weak_signal_margin(drive: OpticalDrive, g_b: float) -> float:
    """Dimensionless single-pass gain g_B P_p L; << 1 is the weak-signal regime."""
    if g_b < 0.0:
        raise ValueError("g_b must be >= 0")
    return g_b * drive.pump_power * drive.fiber_length


def g_b_at_linewidth(material: MaterialParams, gamma: float) -> float:
    """Peak Brillouin gain coefficient rescaled to linewidth ``gamma`` [1/(W m)].

    The gain-linewidth product is fixed by the electrostrictive coupling, so
    the peak coefficient scales as g_b_ref * gamma_ref / gamma as the line
    narrows with cooling.
    """
    _require_positive(gamma=gamma)
    return material.g_b_ref * material.gamma_ref / gamma


def phonon_intensity(
    drive: OpticalDrive,
    omega_ac: float,
    gamma: float,
    material: MaterialParams,
    g_b_peak: float,
    omega_im,
):
    """Steady-state acoustic intensity J(omega_IM) [W/m^2] driven via SBS.

    J = (v / Gamma) (omega_IM / omega_S) (1 / A_eff) G_B(omega_IM) P_p P_S

    with G_B the Lorentzian gain profile of peak value ``g_b_peak``. Linear
    in the optical power product, so attenuators sweep the acoustic drive
    over decades; at fixed gain-linewidth product the peak intensity grows
    as 1/Gamma when the line narrows.
    """
    _require_positive(omega_ac=omega_ac, gamma=gamma, g_b_peak=g_b_peak)
    omega_im = np.asarray(omega_im, dtype=float)
    v = material.sound_speed("L")
    profile = g_b_peak * lorentzian_profile(omega_im, omega_ac, gamma)
    omega_s = drive.pump_omega - omega_im
    out = (v / gamma) * (omega_im / omega_s) / material.a_eff \
        * profile * drive.pump_power * drive.stokes_power
    if np.ndim(omega_im) == 0:
        return float(out)
    return out


def peak_phonon_intensity(
    drive: OpticalDrive,
    omega_ac: float,
    gamma: float,
    material: MaterialParams,
) -> float:
    """Acoustic intensity [W/m^2] at line center with the gain coefficient
    rescaled to linewidth ``gamma``, so that it scales exactly as 1/gamma^2."""
    return phonon_intensity(drive, omega_ac, gamma, material,
                            g_b_at_linewidth(material, gamma), omega_im=omega_ac)
