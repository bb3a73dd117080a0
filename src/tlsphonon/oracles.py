"""Numerical twins of the closed forms: the arbiters the tests run.

The package computes its physics by closed forms. This module holds the
independent routes that check them: adaptive quadrature over the TLS
distribution for the resonant and relaxational absorption, the Bloch steady
state of a single driven TLS and its back-action on the phonon mode, the
single-TLS eigenstates and transition rates, and the phase-matching residual
of a backward-SBS triple. It is the only module that imports scipy, and no
module of the package imports it, so no command loads it.

The quadrature is QUADPACK through ``scipy.integrate.quad``; its QAGI maps
an infinite range, and break points need a finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad

from .constants import HBAR, KB
from .dissipation import critical_intensity, shift_scale, suppression_factor
from .tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    RelaxationTimes,
    TLSEnsemble,
    TLSState,
    _rate_prefactor,
    _require_positive,
    coth,
    tls_energy,
    unit_lorentzian,
)


# ---------------------------------------------------------------------------
# thermal factors
# ---------------------------------------------------------------------------

def sech_squared(x: float) -> float:
    """sech(x)**2 without overflowing cosh at |x| > ~710."""
    ax = abs(x)
    if ax > 350.0:
        # 4 e^{-2x} / (1 + e^{-2x})^2, denominator ~ 1
        e = math.exp(-2.0 * ax)
        return 4.0 * e
    c = math.cosh(ax)
    return 1.0 / (c * c)


def bose_occupation(x: float) -> float:
    """Mean thermal occupation 1/(e^x - 1) for x = E/kT > 0."""
    if x <= 0.0:
        raise ValueError("occupation needs a positive E/kT argument")
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature fails to converge.

    Carries the best available estimate so callers can report it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature.

    value           integral estimate, in the caller's units
    error_estimate  absolute error estimate (>= 0)
    evaluations     number of integrand evaluations
    rtol, atol      tolerances the convergence test uses
    message         integrator diagnostic when convergence was not reached
    """

    value: float
    error_estimate: float
    evaluations: int
    rtol: float
    atol: float
    message: Optional[str] = None

    @property
    def converged(self) -> bool:
        if self.message is not None:
            return False
        return self.error_estimate <= self.rtol * abs(self.value) + self.atol

    def checked(self, what: str) -> float:
        """``value`` when converged; otherwise raise :class:`QuadratureError`
        naming ``what`` and carrying this result."""
        if not self.converged:
            raise QuadratureError(
                f"{what} did not converge: {self.message} "
                f"(estimate {self.value!r} +- {self.error_estimate!r})",
                result=self,
            )
        return self.value


def quad_adaptive(
    integrand: Callable[[float], float],
    a: float,
    b: float,
    *,
    rtol: float = 1e-8,
    atol: float = 0.0,
    points=None,
    limit: int = 200,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``integrand`` over [a, b].

    An infinite endpoint is handed to QUADPACK's QAGI, which maps the range
    onto (0, 1] itself; either or both endpoints may be infinite.

    ``points`` lists interior break points where the integrand is sharply
    peaked; without them the subdivision can step over a spike much
    narrower than the interval. Break points need a finite range.

    Returns a :class:`QuadratureResult`; inspect ``converged``, or call
    ``checked``, rather than expecting an exception. Non-convergence is
    never silent: the result carries the integrator's message.
    """
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    # epsabs=0 would make QUADPACK chase pure relative error on integrals
    # that may legitimately be 0; keep a tiny floor instead.
    epsabs = atol if atol > 0.0 else 1e-300
    out = quad(
        integrand, a, b,
        epsabs=epsabs, epsrel=rtol, limit=limit,
        points=points, full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    message = out[3] if len(out) > 3 else None
    return QuadratureResult(
        value=float(value),
        error_estimate=float(abserr),
        evaluations=int(info["neval"]),
        rtol=rtol,
        atol=atol,
        message=message,
    )


def quad2d_adaptive(
    integrand: Callable[[float, float], float],
    outer,
    inner,
    *,
    rtol: float = 1e-8,
    atol: float = 0.0,
) -> QuadratureResult:
    """Nested adaptive quadrature of ``integrand(u, v)``.

    ``outer`` is the (u_lo, u_hi) interval for the first argument; ``inner``
    is either a fixed (v_lo, v_hi) pair or a callable u -> (v_lo, v_hi).
    The inner stage runs at 10x tighter relative tolerance so the outer
    error estimate dominates. Any inner-stage non-convergence aborts with
    :class:`QuadratureError` carrying the partial result.
    """
    count = [0]
    inner_rtol = rtol * 0.1

    def outer_integrand(u: float) -> float:
        v_lo, v_hi = inner(u) if callable(inner) else inner

        def f(v: float) -> float:
            count[0] += 1
            return integrand(u, v)

        res = quad_adaptive(f, v_lo, v_hi, rtol=inner_rtol, atol=atol)
        return res.checked(f"inner quadrature at u={u!r}")

    out = quad_adaptive(outer_integrand, outer[0], outer[1], rtol=rtol, atol=atol)
    return QuadratureResult(
        value=out.value,
        error_estimate=out.error_estimate,
        evaluations=count[0],
        rtol=rtol,
        atol=atol,
        message=out.message,
    )


# ---------------------------------------------------------------------------
# single-TLS eigenstates, inversion and transition rates
# ---------------------------------------------------------------------------

def tls_eigenvectors(state: TLSState) -> Tuple[np.ndarray, np.ndarray]:
    """Energy eigenstates of the bare double well in the left/right basis.

    Returns (excited, ground), each a length-2 unit vector of real
    amplitudes ordered (c_L, c_R). The ground state localizes in the lower
    well as |delta| >> delta0; at delta = 0 both states are equal-weight
    superpositions.
    """
    delta, delta0 = state.delta, state.delta0
    if delta0 <= 0.0:
        raise ValueError("delta0 = 0 leaves the well basis degenerate")
    e = tls_energy(state)
    # e + |delta| is the well-conditioned combination; e - |delta| can lose
    # all precision when delta0 << |delta|.
    big = math.sqrt((e + abs(delta)) / (2.0 * e))
    small = delta0 / math.sqrt(2.0 * e * (e + abs(delta)))
    if delta >= 0.0:
        excited = np.array([small, big])
        ground = np.array([big, -small])
    else:
        excited = np.array([big, small])
        ground = np.array([small, -big])
    return excited, ground


def equilibrium_inversion(energy: float, temperature: float) -> float:
    """Thermal population inversion P_e - P_g = -tanh(E / 2 k_B T).

    Approaches -1 as T -> 0 (all TLSs condensed to the ground state) and 0
    as T -> infinity. math.tanh saturates without overflow, so arbitrarily
    large E / k_B T is safe.
    """
    _require_positive(temperature=temperature)
    return -math.tanh(energy / (2.0 * KB * temperature))


def tls_transition_rates(
    state: TLSState,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    temperature: float,
) -> Tuple[float, float]:
    """(upward, downward) golden-rule rates between the TLS levels [1/s].

    The upward rate carries the thermal occupation n(E), the downward rate
    n(E) + 1; their sum is golden_rule_rate and their ratio obeys detailed
    balance exp(-E / k_B T).
    """
    _require_positive(temperature=temperature)
    e = tls_energy(state)
    base = _rate_prefactor(material, ensemble) * e * state.delta0 ** 2
    n = bose_occupation(e / (KB * temperature))
    return base * n, base * (n + 1.0)


# ---------------------------------------------------------------------------
# driven-TLS steady states
# ---------------------------------------------------------------------------
#
# A TLS driven by a coherent acoustic wave obeys optical-Bloch-type equations
# with phenomenological relaxation times T1 (inversion) and T2 (dephasing).
# In the rotating frame the steady state is linear algebra; the inversion
# saturates with the drive and the coherences feed a complex susceptibility
# back onto the phonon mode, producing dissipation and a frequency pull.
#
# Conventions: the rotating-frame amplitudes are defined by
# sigma_{x,y}^(+)(t) = s_{x,y}^+ exp(-i omega t); the strain amplitude
# |xi| is dimensionless and relates to the acoustic intensity via
# J = 2 rho v^3 |xi|^2.

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


# ---------------------------------------------------------------------------
# ensemble integrals behind the dissipation closed forms
# ---------------------------------------------------------------------------

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
    Raises :class:`QuadratureError` on non-convergence.
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


# ---------------------------------------------------------------------------
# SBS phase matching
# ---------------------------------------------------------------------------

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
