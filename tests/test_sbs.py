"""Optical side: phase matching, gain spectra, phonon intensity control."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from tlsphonon.constants import C_LIGHT, TWO_PI
from tlsphonon.sbs import (
    OpticalDrive,
    brillouin_frequency,
    g_b_at_linewidth,
    lorentzian_profile,
    phase_match_residual,
    phonon_intensity,
    stokes_gain,
    weak_signal_margin,
)
from tlsphonon.tls_core import MaterialParams

PUMP_WAVELENGTH = 1548.963e-9
PUMP_OMEGA = TWO_PI * C_LIGHT / PUMP_WAVELENGTH


def material_with(n_eff, v_l):
    return MaterialParams(rho=2666.0, v_l=v_l, v_t=0.65 * v_l, n_eff=n_eff,
                          g_b_ref=0.6, a_eff=1.6e-12, l_fut=0.022)


OMEGA_AC = TWO_PI * 9.188e9  # line center of the reference fiber


def reference_drive(pump=0.035, stokes=0.55e-3):
    return OpticalDrive(pump_power=pump, stokes_power=stokes,
                        pump_omega=PUMP_OMEGA, fiber_length=0.022)


class TestBrillouinFrequency:
    def test_linear_in_sound_speed(self):
        full = brillouin_frequency(material_with(1.5, 4760.0), PUMP_OMEGA)
        half = brillouin_frequency(material_with(1.5, 2380.0), PUMP_OMEGA)
        assert half == pytest.approx(full / 2.0, rel=1e-14)

    def test_core_mode_frequency(self):
        omega = brillouin_frequency(material_with(1.496, 4760.0), PUMP_OMEGA)
        assert omega / TWO_PI == pytest.approx(9.19e9, rel=1e-3)

    def test_cladding_speed_frequency(self):
        omega = brillouin_frequency(material_with(1.5, 5944.0), PUMP_OMEGA)
        assert omega / TWO_PI == pytest.approx(11.5e9, rel=2e-3)

    def test_preset_reproduces_measured_line(self, ge_doped):
        material, _ = ge_doped
        omega = brillouin_frequency(material, PUMP_OMEGA)
        assert omega / TWO_PI == pytest.approx(9.188e9, rel=1e-4)


class TestPhaseMatching:
    @staticmethod
    def matched_triple(material):
        """Exact backward-scattering triple under linear dispersion."""
        n, v = material.n_eff, material.v_l
        omega_p = PUMP_OMEGA
        # k_p + k_s = q and omega_p - omega_s = Omega with Omega = v q:
        # Omega = (2 n v / c) omega_p / (1 + n v / c)
        omega_ac = 2.0 * n * v / C_LIGHT * omega_p / (1.0 + n * v / C_LIGHT)
        omega_s = omega_p - omega_ac
        return (omega_p, omega_s, omega_ac,
                n * omega_p / C_LIGHT, n * omega_s / C_LIGHT, omega_ac / v)

    def test_matched_triple_residuals(self):
        material = material_with(1.4950, 4760.0)
        triple = self.matched_triple(material)
        energy, momentum = phase_match_residual(*triple)
        assert abs(energy) < 1e-9 * triple[2]
        assert abs(momentum) < 1e-9 * triple[5]

    def test_energy_residual_linearity(self):
        material = material_with(1.4950, 4760.0)
        omega_p, omega_s, omega_ac, k_p, k_s, q = self.matched_triple(material)
        bump = TWO_PI * 1e6
        energy, _ = phase_match_residual(omega_p, omega_s + bump, omega_ac,
                                         k_p, k_s, q)
        # cancellation of ~1e15 rad/s carriers limits the residual accuracy
        assert energy == pytest.approx(-bump, rel=1e-7)

    def test_leading_order_formula_is_close(self):
        # the usual Omega = 2 n v omega_p / c estimate misses exact matching
        # only at the v/c ~ 2e-5 level
        material = material_with(1.4950, 4760.0)
        exact = self.matched_triple(material)[2]
        approx = brillouin_frequency(material, PUMP_OMEGA)
        assert abs(approx / exact - 1.0) < 5e-5


class TestStokesGain:
    def test_peak_value(self):
        drive = reference_drive()
        peak = stokes_gain(drive, OMEGA_AC, TWO_PI * 1e6, 0.6, OMEGA_AC)
        assert peak == pytest.approx(0.6 * 0.035 * 0.55e-3 * 0.022, rel=1e-12)
        assert peak == pytest.approx(2.54e-7, rel=2e-3)

    def test_off_resonance_vanishes(self):
        drive = reference_drive()
        far = stokes_gain(drive, OMEGA_AC, TWO_PI * 1e6, 0.6,
                          omega_im=OMEGA_AC + TWO_PI * 1e12)
        assert far < 1e-11 * stokes_gain(drive, OMEGA_AC, TWO_PI * 1e6, 0.6, OMEGA_AC)

    def test_half_maximum_at_half_linewidth(self):
        drive = reference_drive()
        gamma = TWO_PI * 1e6
        peak = stokes_gain(drive, OMEGA_AC, gamma, 0.6, OMEGA_AC)
        half = stokes_gain(drive, OMEGA_AC, gamma, 0.6,
                           omega_im=OMEGA_AC + gamma / 2.0)
        assert half == pytest.approx(peak / 2.0, rel=1e-12)

    def test_spectrum_is_exactly_lorentzian(self):
        drive = reference_drive()
        gamma = TWO_PI * 1.3e6
        grid = np.linspace(OMEGA_AC - 10 * gamma, OMEGA_AC + 10 * gamma,
                           401)
        spectrum = stokes_gain(drive, OMEGA_AC, gamma, 0.6, omega_im=grid)
        expected = (0.6 * 0.035 * 0.55e-3 * 0.022
                    * lorentzian_profile(grid, OMEGA_AC, gamma))
        assert np.allclose(spectrum, expected, rtol=1e-14)


class TestWeakSignalMargin:
    def test_room_temperature_value(self):
        assert weak_signal_margin(reference_drive(), 0.6) == pytest.approx(
            4.62e-4, rel=1e-3
        )

    def test_zero_pump(self):
        assert weak_signal_margin(reference_drive(pump=0.0), 0.6) == 0.0

    def test_cryogenic_rescaled_gain(self, ge_doped):
        material, _ = ge_doped
        g_b = g_b_at_linewidth(material, TWO_PI * 1e6)
        assert g_b == pytest.approx(18.0, rel=1e-12)
        assert weak_signal_margin(reference_drive(), g_b) == pytest.approx(
            1.4e-2, rel=2e-2
        )


class TestPhononIntensity:
    def test_zero_powers(self, ge_doped):
        material, _ = ge_doped
        drive = reference_drive(pump=0.0, stokes=0.0)
        assert phonon_intensity(drive, OMEGA_AC, TWO_PI * 1e6, material,
                                18.0, OMEGA_AC) == 0.0

    def test_linewidth_scaling(self, ge_doped):
        material, _ = ge_doped
        drive = reference_drive()
        gamma = TWO_PI * 1e6
        g_b = g_b_at_linewidth(material, gamma)
        j1 = phonon_intensity(drive, OMEGA_AC, gamma, material, g_b, OMEGA_AC)
        # at fixed peak gain coefficient the v/Gamma prefactor doubles J
        j2 = phonon_intensity(drive, OMEGA_AC, gamma / 2.0, material, g_b, OMEGA_AC)
        assert j2 == pytest.approx(2.0 * j1, rel=1e-12)
        # with the physical gain-linewidth rescaling the peak quadruples
        j3 = phonon_intensity(drive, OMEGA_AC, gamma / 2.0, material,
                              g_b_at_linewidth(material, gamma / 2.0), OMEGA_AC)
        assert j3 == pytest.approx(4.0 * j1, rel=1e-12)

    def test_reference_magnitude(self, ge_doped):
        # full powers at a cryogenic 2pi*1 MHz line: a few W/m^2, so the
        # attenuator sweep straddles the ~1.2 W/m^2 critical intensity
        material, _ = ge_doped
        drive = reference_drive()
        gamma = TWO_PI * 1e6
        j = phonon_intensity(drive, OMEGA_AC, gamma, material,
                             g_b_at_linewidth(material, gamma), OMEGA_AC)
        assert j == pytest.approx(7.79, rel=1e-2)
        assert 1.0 < j < 10.0

    def test_profile_tracks_gain_spectrum(self, ge_doped):
        # J / Delta P_S is flat across the line once the omega_IM/omega_S
        # factor is divided out
        material, _ = ge_doped
        drive = reference_drive()
        gamma = TWO_PI * 1e6
        center = OMEGA_AC
        grid = np.linspace(center - 10 * gamma, center + 10 * gamma, 101)
        g_b = g_b_at_linewidth(material, gamma)
        j = phonon_intensity(drive, center, gamma, material, g_b, omega_im=grid)
        dps = stokes_gain(drive, center, gamma, g_b, omega_im=grid)
        ratio = j / dps / (grid / (drive.pump_omega - grid))
        assert np.ptp(ratio) / ratio.mean() < 1e-4

    def test_linear_in_power_product(self, ge_doped):
        material, _ = ge_doped
        gamma = TWO_PI * 1e6
        g_b = g_b_at_linewidth(material, gamma)
        j1 = phonon_intensity(reference_drive(), OMEGA_AC, gamma, material, g_b, OMEGA_AC)
        j2 = phonon_intensity(reference_drive(pump=0.070, stokes=1.1e-3),
                              OMEGA_AC, gamma, material, g_b, OMEGA_AC)
        assert j2 == pytest.approx(4.0 * j1, rel=1e-12)


class TestOpticalDrive:
    def test_fields_are_one_power_setting(self):
        # the detuning is the spectrum's axis, not a property of the drive
        assert [f.name for f in dataclasses.fields(OpticalDrive)] == [
            "pump_power", "stokes_power", "pump_omega", "fiber_length"]
        for func in (stokes_gain, phonon_intensity):
            param = inspect.signature(func).parameters["omega_im"]
            assert param.default is inspect.Parameter.empty

    def test_invariants(self):
        with pytest.raises(ValueError, match=r"^optical powers must be finite and >= 0, "
                                             r"got -1.0 and 0.0 W$"):
            OpticalDrive(pump_power=-1.0, stokes_power=0.0, pump_omega=1.0,
                         fiber_length=1.0)
        with pytest.raises(ValueError, match="optical powers"):
            OpticalDrive(pump_power=1.0, stokes_power=math.nan, pump_omega=1.0,
                         fiber_length=1.0)
        with pytest.raises(ValueError):
            OpticalDrive(pump_power=1.0, stokes_power=0.0, pump_omega=1.0,
                         fiber_length=0.0)
