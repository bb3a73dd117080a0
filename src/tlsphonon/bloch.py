"""Driven-TLS steady states under a monochromatic strain field.

A TLS driven by a coherent acoustic wave obeys optical-Bloch-type equations
with phenomenological relaxation times T1 (inversion) and T2 (dephasing).
In the rotating frame the steady state is linear algebra; the inversion
saturates with the drive and the coherences feed a complex susceptibility
back onto the phonon mode, producing dissipation and a frequency pull.

Conventions: the rotating-frame amplitudes are defined by
sigma_{x,y}^(+)(t) = s_{x,y}^+ exp(-i omega t); the strain amplitude
|xi| is dimensionless and relates to the acoustic intensity via
J = 2 rho v^3 |xi|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .numerics import unit_lorentzian
from .tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    TLSEnsemble,
    _require_positive,
    equilibrium_inversion,
)


@dataclass(frozen=True)
class RelaxationTimes:
    """Inversion lifetime T1 and dephasing time T2 of the resonant TLSs [s]."""

    t1: float
    t2: float

    def __post_init__(self):
        _require_positive(t1=self.t1, t2=self.t2)


@dataclass(frozen=True)
class BlochSolution:
    """Steady state of one driven TLS in the rotating frame.

    s_z is the saturated inversion; s_x_plus and s_y_plus are the complex
    positive-frequency coherence amplitudes. detuning_delta = E/hbar - omega
    and detuning_sigma = E/hbar + omega are the co- and counter-rotating
    detunings.
    """

    s_z: float
    s_x_plus: complex
    s_y_plus: complex
    detuning_delta: float
    detuning_sigma: float


def strain_amplitude_from_intensity(
    intensity: float, material: MaterialParams, polarization: str = "L"
) -> float:
    """|xi| of a beam with acoustic intensity J [W/m^2]: J = 2 rho v^3 |xi|^2."""
    if intensity < 0.0:
        raise ValueError("intensity must be >= 0")
    v = material.sound_speed(polarization)
    return math.sqrt(intensity / (2.0 * material.rho * v ** 3))


def _lorentzian_pair(detuning_delta, detuning_sigma, t2, resonant_only):
    l_delta = unit_lorentzian(detuning_delta * t2)
    l_sigma = 0.0 if resonant_only else unit_lorentzian(detuning_sigma * t2)
    return l_delta, l_sigma


def saturated_inversion(
    energy: float,
    drive: DriveState,
    times: RelaxationTimes,
    coupling: float,
    strain_amplitude: float,
    *,
    resonant_only: bool = False,
) -> float:
    """Steady-state inversion of a TLS at splitting E under coherent drive.

    s_z = w0 / (1 + (4 M^2 T1 T2 / hbar^2) |xi|^2 [L(delta) + L(Sigma)])

    where w0 is the thermal inversion, M the transverse strain coupling, and
    L the unit-height Lorentzians in the co-/counter-rotating detunings.
    ``resonant_only`` drops the counter-rotating L(Sigma) term, which is the
    usual closed-form approximation for omega T2 >> 1; retaining it makes
    that approximation's error measurable.

    On resonance the saturation denominator reduces to 1 + J/J_c, so the
    inversion halves at the critical intensity.
    """
    w0 = equilibrium_inversion(energy, drive.temperature)
    delta = energy / HBAR - drive.drive_omega
    sigma = energy / HBAR + drive.drive_omega
    l_delta, l_sigma = _lorentzian_pair(delta, sigma, times.t2, resonant_only)
    sat = (4.0 * coupling ** 2 * times.t1 * times.t2 / HBAR ** 2
           * strain_amplitude ** 2 * (l_delta + l_sigma))
    return w0 / (1.0 + sat)


def bloch_steady_state(
    energy: float,
    drive: DriveState,
    times: RelaxationTimes,
    coupling: float,
    strain_amplitude: float,
) -> BlochSolution:
    """Full linear steady state of the rotating-frame Bloch equations.

    Solves the 5x5 real system in (Re s_x+, Im s_x+, Re s_y+, Im s_y+, s_z)
    rather than substituting the closed form, so agreement with
    :func:`saturated_inversion` is a genuine cross-check. The system is
    regular for any T1, T2 > 0; a singular matrix therefore indicates an
    internal error and raises.
    """
    w0 = equilibrium_inversion(energy, drive.temperature)
    omega = drive.drive_omega
    eps = energy / HBAR
    g2 = 2.0 * coupling / HBAR  # Rabi-type coupling rate per unit strain
    xi = float(strain_amplitude)
    inv_t1, inv_t2 = 1.0 / times.t1, 1.0 / times.t2

    # Stationary amplitudes require
    #   (1/T2 - i omega) s_x+ + eps s_y+                 = 0
    #   (1/T2 - i omega) s_y+ - eps s_x+ + g2 xi s_z     = 0
    #   s_z / T1 - 2 g2 xi Re(s_y+)                      = w0 / T1
    a = np.zeros((5, 5))
    b = np.zeros(5)
    # x equation, real and imaginary parts
    a[0, 0] = inv_t2
    a[0, 1] = omega
    a[0, 2] = eps
    a[1, 0] = -omega
    a[1, 1] = inv_t2
    a[1, 3] = eps
    # y equation
    a[2, 2] = inv_t2
    a[2, 3] = omega
    a[2, 0] = -eps
    a[2, 4] = g2 * xi
    a[3, 2] = -omega
    a[3, 3] = inv_t2
    a[3, 1] = -eps
    # z equation
    a[4, 4] = inv_t1
    a[4, 2] = -2.0 * g2 * xi
    b[4] = w0 * inv_t1

    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for T1, T2 > 0
        raise RuntimeError("singular Bloch steady-state system") from exc

    return BlochSolution(
        s_z=float(x[4]),
        s_x_plus=complex(x[0], x[1]),
        s_y_plus=complex(x[2], x[3]),
        detuning_delta=eps - omega,
        detuning_sigma=eps + omega,
    )


def bloch_residuals(
    solution: BlochSolution,
    energy: float,
    drive: DriveState,
    times: RelaxationTimes,
    coupling: float,
    strain_amplitude: float,
) -> np.ndarray:
    """Stationarity residuals of the rotating-frame equations.

    Returns |d/dt| of (s_x+, s_y+, s_z), each normalized by the natural rate
    scale of its equation, so a converged solution reports ~1e-16. The
    negative-frequency components are complex conjugates and carry no extra
    information.
    """
    w0 = equilibrium_inversion(energy, drive.temperature)
    omega = drive.drive_omega
    eps = energy / HBAR
    g2 = 2.0 * coupling / HBAR
    xi = float(strain_amplitude)
    sx, sy, sz = solution.s_x_plus, solution.s_y_plus, solution.s_z

    dx = 1j * omega * sx - sx / times.t2 - eps * sy
    dy = 1j * omega * sy - sy / times.t2 + eps * sx - g2 * xi * sz
    dz = -(sz - w0) / times.t1 + 2.0 * g2 * xi * sy.real

    scale_xy = eps + 1.0 / times.t2
    scale_z = (abs(w0) + abs(sz)) / times.t1 + abs(2.0 * g2 * xi * sy)
    if scale_z == 0.0:
        scale_z = 1.0
    return np.array([abs(dx) / scale_xy, abs(dy) / scale_xy, abs(dz) / scale_z])


def tls_susceptibility(
    energy: float,
    drive: DriveState,
    times: RelaxationTimes,
    material: MaterialParams,
    mode: PhononMode,
    ensemble: TLSEnsemble,
    *,
    resonant_only: bool = False,
) -> complex:
    """Back-action of one TLS (per unit spectral density) on the phonon mode.

    Returns the complex rate chi(E) such that integrating P * chi(E) dE over
    the ensemble gives -i * Delta_omega - Gamma_res / 2 for the mode. Units:
    m^3 rad/s (the spectral density P carries 1/(J m^3), the integration dE
    carries J). The real part is always <= 0 below inversion (w0 < 0); the
    imaginary part is antisymmetric about resonance once the counter-rotating
    term is negligible.

    The strain coupling is evaluated at the distribution peak delta0 -> E,
    where M equals the bare deformation potential.
    """
    gamma = ensemble.deformation_potential(mode.polarization)
    omega = drive.drive_omega
    delta = energy / HBAR - omega
    sigma = energy / HBAR + omega
    xi = strain_amplitude_from_intensity(drive.intensity, material, mode.polarization)
    s_z = saturated_inversion(energy, drive, times, gamma, xi,
                              resonant_only=resonant_only)
    kernel = 1.0 / (1.0 + 1j * times.t2 * delta)
    if not resonant_only:
        kernel -= 1.0 / (1.0 - 1j * times.t2 * sigma)
    prefactor = (gamma ** 2 * mode.q ** 2 * times.t2
                 / (2.0 * HBAR * mode.omega * material.rho))
    return prefactor * kernel * s_z
