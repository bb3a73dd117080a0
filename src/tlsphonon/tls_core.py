"""Tunneling-state model: data types, energetics, and golden-rule lifetimes.

Amorphous solids host defects that tunnel between the two minima of an
asymmetric double-well potential. Each such defect behaves as a two-level
system (TLS) with asymmetry ``delta``, tunneling energy ``delta0``, and
level splitting E = sqrt(delta^2 + delta0^2); an ensemble of them, with the
standard flat distribution in (delta, ln delta0), couples to elastic strain
and absorbs or emits phonons. This module holds the value types shared by
the whole package and the single-TLS quantities the closed forms use: the
level splitting, the one-phonon decay rate and the minimum lifetime, the
product J_c T1 T2 that ties the critical intensity to the relaxation times,
and the elementary functions coth and the unit Lorentzian. The eigenstates,
thermal inversion and level-resolved rates, which only the checks use, are
in :mod:`tlsphonon.oracles`.

Every scalar here is plain ``math``, so the config layer loads no numpy;
only an array argument, which means numpy is loaded already, and
:class:`DriveState` reach for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .constants import EV, HBAR, KB, TWO_PI

_POLARIZATIONS = ("L", "T")


def _require_positive(**kwargs):
    """Reject any value, or any element of an array value, that is not finite and > 0.

    A bool is not a number here, so True is rejected like any value <= 0.
    """
    for name, value in kwargs.items():
        # ints and floats (numpy float scalars included) skip the array check:
        # it costs ~4 us and needs numpy, and a campaign validates ~20k scalars
        if isinstance(value, (int, float)):
            # an int past the double range is no finite double
            if not isinstance(value, bool) and 0.0 < value <= sys.float_info.max:
                continue
            got = repr(value)
        else:
            import numpy as np

            values = np.asarray(value)
            bad = ~(np.isfinite(values) & (values > 0.0))
            if not bad.any():
                continue
            got = (repr(value) if values.ndim == 0
                   else f"{values[bad][0].item()!r} ({bad.sum()} of {bad.size} values)")
        raise ValueError(f"{name} must be finite and > 0, got {got}")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialParams:
    """Elastic and optical constants of the host glass.

    rho        mass density [kg/m^3]
    v_l, v_t   longitudinal / transverse sound speeds [m/s]
    n_eff      effective refractive index of the optical mode
    g_b_ref    Brillouin gain coefficient [1/(W m)] measured at linewidth
               ``gamma_ref``; peak gain at another linewidth scales as
               g_b_ref * gamma_ref / gamma (fixed electrostrictive coupling)
    a_eff      acoustic mode area [m^2]
    l_fut      length of the fiber under test [m]
    gamma_ref  FWHM [rad/s] at which g_b_ref applies
    """

    rho: float
    v_l: float
    v_t: float
    n_eff: float
    g_b_ref: float
    a_eff: float
    l_fut: float
    gamma_ref: float = TWO_PI * 30e6

    def __post_init__(self):
        _require_positive(
            rho=self.rho, v_l=self.v_l, v_t=self.v_t, n_eff=self.n_eff,
            g_b_ref=self.g_b_ref, a_eff=self.a_eff, l_fut=self.l_fut,
            gamma_ref=self.gamma_ref,
        )
        if not self.v_t < self.v_l:
            raise ValueError(
                f"expected v_t < v_l for these glasses, got v_t={self.v_t}, v_l={self.v_l}"
            )

    def sound_speed(self, polarization: str) -> float:
        if polarization == "L":
            return self.v_l
        if polarization == "T":
            return self.v_t
        raise ValueError(f"unknown polarization {polarization!r}")


@dataclass(frozen=True)
class TLSEnsemble:
    """Spectral density and strain coupling of the tunneling-state ensemble.

    p             TLS spectral density [1/(J m^3)]
    gamma_l/t     deformation potentials for L/T strain [J]; when gamma_t is
                  omitted the usual gamma_t^2 = gamma_l^2 / 2 assumption fills
                  it in
    jc_power_law  (a [W m^-2 K^-b], b) such that J_c(T) = a * T**b, or None
                  when no calibration exists; a run config writes its J_c
                  source here, a constant J_c as (J_c, 0.0)
    gamma_bg      constant background dissipation rate [rad/s]
    """

    p: float
    gamma_l: float
    gamma_t: Optional[float] = None
    jc_power_law: Optional[Tuple[float, float]] = None
    gamma_bg: float = 0.0

    def __post_init__(self):
        _require_positive(p=self.p, gamma_l=self.gamma_l)
        if self.gamma_t is None:
            object.__setattr__(self, "gamma_t", self.gamma_l / math.sqrt(2.0))
        _require_positive(gamma_t=self.gamma_t)
        if self.jc_power_law is not None:
            a, b = self.jc_power_law
            _require_positive(jc_power_law_a=a)
            if not math.isfinite(b):
                raise ValueError("power-law exponent must be finite")
            object.__setattr__(self, "jc_power_law", (float(a), float(b)))
        if self.gamma_bg < 0.0 or not math.isfinite(self.gamma_bg):
            raise ValueError("gamma_bg must be finite and >= 0")

    def deformation_potential(self, polarization: str) -> float:
        if polarization == "L":
            return self.gamma_l
        if polarization == "T":
            return self.gamma_t
        raise ValueError(f"unknown polarization {polarization!r}")

    def j_c_from_power_law(self, temperature: float) -> float:
        if self.jc_power_law is None:
            raise ValueError("ensemble has no J_c power law configured")
        a, b = self.jc_power_law
        return a * temperature ** b


@dataclass(frozen=True)
class TLSState:
    """One tunneling state: asymmetry and tunneling energy, both in J."""

    delta: float
    delta0: float

    def __post_init__(self):
        _require_positive(delta0=self.delta0)
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")


@dataclass(frozen=True)
class PhononMode:
    """An acoustic mode: angular frequency, polarization, wavevector.

    Frequency and wavevector may also be matching arrays, one mode of this
    polarization per element; the closed forms broadcast over them.
    """

    omega: float
    polarization: str
    q: float

    def __post_init__(self):
        _require_positive(omega=self.omega, q=self.q)
        if self.polarization not in _POLARIZATIONS:
            raise ValueError(f"polarization must be one of {_POLARIZATIONS}")

    @classmethod
    def in_material(cls, material: MaterialParams, omega: float, polarization: str = "L"):
        """Build the mode with q = omega / v so q * v == omega exactly."""
        v = material.sound_speed(polarization)
        return cls(omega=omega, polarization=polarization, q=omega / v)


@dataclass(frozen=True)
class DriveState:
    """Thermo-acoustic operating point: bath temperature, acoustic intensity,
    and angular frequency of the driving sound field.

    Temperature and intensity may be broadcastable arrays, which makes the
    state a grid of operating points for the closed forms in
    :mod:`tlsphonon.dissipation`; every element is validated.
    """

    temperature: float
    intensity: float
    drive_omega: float

    def __post_init__(self):
        import numpy as np

        _require_positive(temperature=self.temperature, drive_omega=self.drive_omega)
        intensity = np.asarray(self.intensity)
        if not (np.isfinite(intensity) & (intensity >= 0.0)).all():
            raise ValueError("intensity must be finite and >= 0")


@dataclass(frozen=True)
class RelaxationTimes:
    """Inversion lifetime T1 and dephasing time T2 of the resonant TLSs [s]."""

    t1: float
    t2: float

    def __post_init__(self):
        _require_positive(t1=self.t1, t2=self.t2)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def coth(x: float) -> float:
    """Hyperbolic cotangent, safe over the full float range.

    math.tanh saturates to +-1 for |x| > ~19 without overflow, so 1/tanh
    needs no clamping; for |x| down to ~1e-300 the 1/x growth stays finite.
    """
    if x == 0.0:
        raise ValueError("coth(0) diverges")
    return 1.0 / math.tanh(x)


def unit_lorentzian(x):
    """1 / (1 + x^2), the Lorentzian of unit peak and half-width; float or array."""
    return 1.0 / (1.0 + x * x)


def tls_energy(state: TLSState) -> float:
    """Level splitting E = sqrt(delta^2 + delta0^2) [J]."""
    return math.hypot(state.delta, state.delta0)


def channel_sum(material: MaterialParams, ensemble: TLSEnsemble) -> float:
    """sum_eta gamma_eta^2 / v_eta^5 over the L and T phonon branches."""
    return (ensemble.gamma_l ** 2 / material.v_l ** 5
            + ensemble.gamma_t ** 2 / material.v_t ** 5)


def jc_t1t2(material: MaterialParams, ensemble: TLSEnsemble, polarization: str) -> float:
    """J_c T1 T2 = hbar^2 rho v^3 / (2 gamma^2) [W s^2/m^2]; a config's ``times``
    source and the fits' time extraction divide it by T1 T2 or by J_c."""
    gamma = ensemble.deformation_potential(polarization)
    v = material.sound_speed(polarization)
    return HBAR ** 2 * material.rho * v ** 3 / (2.0 * gamma ** 2)


def _rate_prefactor(material: MaterialParams, ensemble: TLSEnsemble) -> float:
    """sum_eta gamma_eta^2 / v_eta^5, divided by 2 pi rho hbar^4."""
    return channel_sum(material, ensemble) / (TWO_PI * material.rho * HBAR ** 4)


def golden_rule_rate(
    state: TLSState,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    temperature: float,
) -> float:
    """One-phonon decay rate 1/tau of the excited TLS state [1/s].

    1/tau = sum_eta (gamma_eta^2 / v_eta^5) * E delta0^2 / (2 pi rho hbar^4)
            * coth(E / 2 k_B T)

    Proportional to delta0^2 at fixed splitting (a symmetric well relaxes
    fastest) and strictly increasing in temperature through the stimulated
    coth factor.
    """
    _require_positive(temperature=temperature)
    e = tls_energy(state)
    return (_rate_prefactor(material, ensemble) * e * state.delta0 ** 2
            * coth(e / (2.0 * KB * temperature)))


def min_lifetime(
    energy: float,
    material: MaterialParams,
    ensemble: TLSEnsemble,
    temperature: float,
) -> float:
    """Shortest TLS lifetime at splitting E, reached for delta0 -> E [s]."""
    _require_positive(energy=energy)
    state = TLSState(delta=0.0, delta0=energy)
    return 1.0 / golden_rule_rate(state, material, ensemble, temperature)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _ge_doped_silica() -> Tuple[MaterialParams, TLSEnsemble]:
    material = MaterialParams(
        rho=2666.0,
        v_l=4760.0,
        v_t=3092.0,          # core shear speed interpolated silica/germania
        n_eff=1.4950,        # reproduces the measured 9.188 GHz mode at 1548.963 nm
        g_b_ref=0.6,
        a_eff=1.6e-12,
        l_fut=0.022,
        gamma_ref=TWO_PI * 30e6,
    )
    # The tabulated density and the measured product P gamma_L^2 are kept
    # exact; the coupling they imply, 0.5206 eV, is the one quoted as 0.5 eV.
    p = 23e44
    ensemble = TLSEnsemble(
        p=p,
        gamma_l=math.sqrt(1.6e7 / p),
        jc_power_law=(0.9, 2.6),
        gamma_bg=TWO_PI * 650e3,
    )
    return material, ensemble


def _vitreous_silica() -> Tuple[MaterialParams, TLSEnsemble]:
    # Fiber-geometry fields (gain, mode area, length) are nominal carry-overs;
    # override them when modelling anything but the reference fiber.
    material = MaterialParams(
        rho=2202.0,
        v_l=5944.0,
        v_t=3764.0,
        n_eff=1.444,
        g_b_ref=0.6,
        a_eff=1.6e-12,
        l_fut=0.022,
        gamma_ref=TWO_PI * 30e6,
    )
    gamma_l = 0.86 * EV
    ensemble = TLSEnsemble(
        p=1.3e7 / gamma_l ** 2,
        gamma_l=gamma_l,
        jc_power_law=None,
        gamma_bg=0.0,
    )
    return material, ensemble


_PRESETS = {
    "ge-doped-silica-44wt": _ge_doped_silica,
    "vitreous-silica": _vitreous_silica,
}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> Tuple[MaterialParams, TLSEnsemble]:
    """Material and ensemble constants for a named glass."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return factory()
