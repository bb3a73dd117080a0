"""Driven steady states: saturation law, linear-solve consistency, back-action."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsphonon.constants import HBAR, TWO_PI
from tlsphonon.dissipation import critical_intensity
from tlsphonon.oracles import (
    bloch_residuals,
    bloch_steady_state,
    equilibrium_inversion,
    saturated_inversion,
    strain_amplitude_from_intensity,
    tls_susceptibility,
)
from tlsphonon.tls_core import DriveState, RelaxationTimes

OMEGA = TWO_PI * 9.188e9
E_RES = HBAR * OMEGA


def make_times(material, ensemble, omega_t2=1e4, t1=None):
    t2 = omega_t2 / OMEGA
    return RelaxationTimes(t1=t1 if t1 is not None else 100e-9, t2=t2)


def drive_at(j, t=1.1, omega=OMEGA):
    return DriveState(temperature=t, intensity=j, drive_omega=omega)


class TestSaturatedInversion:
    def test_undriven_equilibrium(self, ge_doped):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        w0 = equilibrium_inversion(E_RES, 1.1)
        s = saturated_inversion(E_RES, drive_at(0.0), times, ensemble.gamma_l, 0.0)
        assert s == w0

    @pytest.mark.parametrize("ratio,expect", [(1.0, 0.5), (3.0, 0.25)])
    def test_resonant_saturation_points(self, ge_doped, ratio, expect):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)
        xi = strain_amplitude_from_intensity(ratio * j_c, material, "L")
        w0 = equilibrium_inversion(E_RES, 1.1)
        s = saturated_inversion(E_RES, drive_at(ratio * j_c), times,
                                ensemble.gamma_l, xi)
        # counter-rotating term contributes at the (omega T2)^-2 level
        assert s / w0 == pytest.approx(expect, rel=2.0 / 1e4 ** 2 / expect + 1e-12)

    def test_resonant_only_saturation_exact(self, ge_doped):
        material, ensemble = ge_doped
        times = make_times(material, ensemble, omega_t2=3e3)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)
        w0 = equilibrium_inversion(E_RES, 1.1)
        for ratio in (0.01, 1.0, 7.0, 100.0):
            xi = strain_amplitude_from_intensity(ratio * j_c, material, "L")
            s = saturated_inversion(E_RES, drive_at(ratio * j_c), times,
                                    ensemble.gamma_l, xi, resonant_only=True)
            assert s / w0 == pytest.approx(1.0 / (1.0 + ratio), rel=1e-12)

    @given(scale=st.floats(min_value=-8, max_value=-1))
    @settings(max_examples=60)
    def test_strictly_decreasing_in_strain(self, ge_doped, scale):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        xi = 10.0 ** scale
        s1 = abs(saturated_inversion(E_RES, drive_at(0.0), times, ensemble.gamma_l, xi))
        s2 = abs(saturated_inversion(E_RES, drive_at(0.0), times, ensemble.gamma_l,
                                     xi * 1.5))
        assert s2 < s1


class TestBlochSteadyState:
    def test_zero_strain(self, ge_doped):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        sol = bloch_steady_state(E_RES, drive_at(0.0), times, ensemble.gamma_l, 0.0)
        assert sol.s_x_plus == 0.0 and sol.s_y_plus == 0.0
        assert sol.s_z == pytest.approx(equilibrium_inversion(E_RES, 1.1), rel=1e-14)
        assert sol.detuning_delta == pytest.approx(E_RES / HBAR - OMEGA, abs=1e-3)
        assert sol.detuning_sigma == pytest.approx(E_RES / HBAR + OMEGA, rel=1e-14)

    def test_residuals_vanish(self, ge_doped, rng):
        material, ensemble = ge_doped
        for _ in range(200):
            times = RelaxationTimes(t1=10.0 ** rng.uniform(-8, -5),
                                    t2=10.0 ** rng.uniform(-10, -7))
            e = E_RES * rng.uniform(0.5, 2.0)
            drive = drive_at(0.0, t=rng.uniform(0.05, 4.2))
            xi = 10.0 ** rng.uniform(-9, -4)
            sol = bloch_steady_state(e, drive, times, ensemble.gamma_l, xi)
            res = bloch_residuals(sol, e, drive, times, ensemble.gamma_l, xi)
            assert res.max() < 1e-10

    def test_matches_closed_form(self, ge_doped, rng):
        material, ensemble = ge_doped
        worst = 0.0
        for _ in range(500):
            times = RelaxationTimes(t1=10.0 ** rng.uniform(-8, -5),
                                    t2=10.0 ** rng.uniform(-10, -7))
            e = E_RES * rng.uniform(0.3, 3.0)
            drive = drive_at(0.0, t=rng.uniform(0.05, 4.2))
            xi = 10.0 ** rng.uniform(-9, -4)
            sol = bloch_steady_state(e, drive, times, ensemble.gamma_l, xi)
            closed = saturated_inversion(e, drive, times, ensemble.gamma_l, xi)
            worst = max(worst, abs(sol.s_z - closed) / abs(closed))
        assert worst < 1e-12

    def test_coherence_ratio_from_x_equation(self, ge_doped):
        # stationarity of s_x+ pins s_x/s_y = -eps / (1/T2 - i omega)
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        xi = 1e-7
        sol = bloch_steady_state(E_RES, drive_at(0.0), times, ensemble.gamma_l, xi)
        eps = E_RES / HBAR
        expected = -eps / (1.0 / times.t2 - 1j * OMEGA)
        assert sol.s_x_plus / sol.s_y_plus == pytest.approx(expected, rel=1e-10)

    def test_strong_drive_suppression(self, ge_doped):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)
        xi = strain_amplitude_from_intensity(100.0 * j_c, material, "L")
        sol = bloch_steady_state(E_RES, drive_at(100.0 * j_c), times,
                                 ensemble.gamma_l, xi)
        w0 = equilibrium_inversion(E_RES, 1.1)
        assert abs(sol.s_z) == pytest.approx(abs(w0) / 101.0, rel=1e-4)


class TestSusceptibility:
    def test_line_center_purely_real(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        chi = tls_susceptibility(E_RES, drive_at(1e-3), times, material,
                                 probe_mode, ensemble, resonant_only=True)
        assert chi.imag == 0.0
        assert chi.real < 0.0
        full = tls_susceptibility(E_RES, drive_at(1e-3), times, material,
                                  probe_mode, ensemble)
        assert abs(full.imag) < abs(full.real) * 1e-3

    def test_half_width_identity(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        center = tls_susceptibility(E_RES, drive_at(0.0), times, material,
                                    probe_mode, ensemble, resonant_only=True)
        w0_center = equilibrium_inversion(E_RES, 1.1)
        for sign in (+1.0, -1.0):
            e = HBAR * (OMEGA + sign / times.t2)
            off = tls_susceptibility(e, drive_at(0.0), times, material,
                                     probe_mode, ensemble, resonant_only=True)
            # divide out the slow thermal factor; the Lorentzian halves exactly
            ratio = (off.real / equilibrium_inversion(e, 1.1)) \
                / (center.real / w0_center)
            assert ratio == pytest.approx(0.5, rel=1e-10)

    def test_imag_antisymmetric(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        for k in (0.3, 1.0, 4.0):
            e_lo = HBAR * (OMEGA - k / times.t2)
            e_hi = HBAR * (OMEGA + k / times.t2)
            lo = tls_susceptibility(e_lo, drive_at(0.0), times, material,
                                    probe_mode, ensemble, resonant_only=True)
            hi = tls_susceptibility(e_hi, drive_at(0.0), times, material,
                                    probe_mode, ensemble, resonant_only=True)
            # exact antisymmetry once the slow thermal factor is divided out
            ratio = (hi.imag / equilibrium_inversion(e_hi, 1.1)) \
                / (lo.imag / equilibrium_inversion(e_lo, 1.1))
            assert ratio == pytest.approx(-1.0, rel=1e-10, abs=0.0)

    @given(e_scale=st.floats(min_value=0.2, max_value=5.0),
           j_log=st.floats(min_value=-4, max_value=3),
           t=st.floats(min_value=0.05, max_value=4.2))
    @settings(max_examples=100)
    def test_always_dissipative(self, ge_doped, probe_mode, e_scale, j_log, t):
        material, ensemble = ge_doped
        times = make_times(material, ensemble)
        chi = tls_susceptibility(e_scale * E_RES, drive_at(10.0 ** j_log, t=t),
                                 times, material, probe_mode, ensemble)
        assert chi.real <= 0.0

    def test_power_broadening_fwhm(self, ge_doped, probe_mode):
        """FWHM of the dissipative response is (2/T2) sqrt(1 + J/J_c)."""
        from scipy.optimize import brentq

        material, ensemble = ge_doped
        times = make_times(material, ensemble, omega_t2=1e4)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)

        for ratio in (0.0, 1.0, 10.0, 100.0):
            drive = drive_at(ratio * j_c)

            def loss(delta):
                chi = tls_susceptibility(HBAR * (OMEGA + delta), drive, times,
                                         material, probe_mode, ensemble)
                return -chi.real

            peak = loss(0.0)
            target = peak / 2.0
            width_guess = math.sqrt(1.0 + ratio) / times.t2
            hi = brentq(lambda d: loss(d) - target, 0.0, 10.0 * width_guess,
                        xtol=1e-8 * width_guess)
            lo = brentq(lambda d: loss(d) - target, -10.0 * width_guess, 0.0,
                        xtol=1e-8 * width_guess)
            fwhm = hi - lo
            assert fwhm == pytest.approx(2.0 * width_guess, rel=1e-2)

    def test_strain_intensity_relation(self, ge_doped):
        material, _ = ge_doped
        j = 4.2
        xi = strain_amplitude_from_intensity(j, material, "L")
        assert 2.0 * material.rho * material.v_l ** 3 * xi ** 2 == pytest.approx(
            j, rel=1e-14
        )
        with pytest.raises(ValueError):
            strain_amplitude_from_intensity(-1.0, material)
