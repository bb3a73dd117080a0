"""Closed-form dissipation channels against their integral twins."""

import math

import mpmath
import pytest

from tlsphonon.constants import HBAR, KB, TWO_PI
from tlsphonon.dissipation import (
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
from tlsphonon.oracles import gamma_rel_integral_oracle, gamma_res_integral_oracle
from tlsphonon.tls_core import DriveState, RelaxationTimes, min_lifetime

OMEGA = TWO_PI * 9.188e9


class TestResonantWeak:
    def test_reference_value(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        rate = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        # pi * 1.6e7 * Omega / (rho v^2) * tanh(0.2004) = 2pi * 1.512 MHz
        assert rate / TWO_PI == pytest.approx(1.512e6, rel=2e-3)

    def test_tanh_ratio_between_temperatures(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        ratio = (gamma_res_weak(probe_mode, 4.2, material, ensemble)
                 / gamma_res_weak(probe_mode, 1.1, material, ensemble))
        x_42 = HBAR * OMEGA / (2.0 * KB * 4.2)
        x_11 = HBAR * OMEGA / (2.0 * KB * 1.1)
        assert ratio == pytest.approx(math.tanh(x_42) / math.tanh(x_11), rel=1e-12)
        assert ratio == pytest.approx(0.265, abs=1e-3)

    def test_high_temperature_transparency(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        cold = gamma_res_weak(probe_mode, 0.01, material, ensemble)
        hot = gamma_res_weak(probe_mode, 300.0, material, ensemble)
        assert hot < 1e-3 * cold

    def test_zero_temperature_ceiling(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        ceiling = (math.pi * ensemble.p * ensemble.gamma_l ** 2 * OMEGA
                   / (material.rho * material.v_l ** 2))
        assert gamma_res_weak(probe_mode, 1e-3, material, ensemble) == pytest.approx(
            ceiling, rel=1e-12
        )

    def test_strictly_decreasing_in_temperature(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        rates = [gamma_res_weak(probe_mode, t, material, ensemble)
                 for t in (0.3, 0.8, 1.5, 2.8, 4.2)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestCriticalIntensity:
    def test_times_formula(self, ge_doped):
        material, ensemble = ge_doped
        times = RelaxationTimes(t1=100e-9, t2=1e-9)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)
        expected = (HBAR ** 2 * material.rho * material.v_l ** 3
                    / (2.0 * ensemble.gamma_l ** 2 * 100e-9 * 1e-9))
        assert j_c == pytest.approx(expected, rel=1e-14)

    def test_inverse_square_coupling(self, ge_doped):
        import dataclasses
        material, ensemble = ge_doped
        doubled = dataclasses.replace(ensemble, gamma_l=2.0 * ensemble.gamma_l,
                                      gamma_t=2.0 * ensemble.gamma_t)
        times = RelaxationTimes(t1=1e-7, t2=1e-9)
        assert critical_intensity(material, 1.1, times=times, ensemble=doubled) \
            == pytest.approx(
                critical_intensity(material, 1.1, times=times, ensemble=ensemble) / 4.0,
                rel=1e-14)

    def test_power_law(self, ge_doped):
        material, ensemble = ge_doped
        assert critical_intensity(material, 2.0, ensemble=ensemble) == pytest.approx(
            0.9 * 2.0 ** 2.6, rel=1e-14
        )
        assert critical_intensity(material, 2.0, ensemble=ensemble) == pytest.approx(
            5.46, rel=1e-2
        )

    def test_table_round_trip(self, ge_doped):
        # sqrt(T1 T2) extracted from J_c = 1.2 W/m^2 lands within a factor
        # of 2 of the quoted 10 ns (both entries are rounded)
        material, ensemble = ge_doped
        t1t2 = HBAR ** 2 * material.rho * material.v_l ** 3 \
            / (2.0 * ensemble.gamma_l ** 2 * 1.2)
        assert 0.5 < math.sqrt(t1t2) / 10e-9 < 2.0

    def test_no_source(self, vitreous):
        material, ensemble = vitreous
        with pytest.raises(ValueError):
            critical_intensity(material, 1.1, ensemble=ensemble)


class TestResonantStrong:
    def test_weak_field_limit_exact(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        weak = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        assert gamma_res_strong(probe_mode, 1.1, 0.0, 1.2, material, ensemble) == weak

    def test_critical_point(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        weak = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        strong = gamma_res_strong(probe_mode, 1.1, 1.2, 1.2, material, ensemble)
        assert strong == pytest.approx(weak / math.sqrt(2.0), rel=1e-12)

    def test_suppression_factor_inversion(self):
        # a suppression of 45 requires J/J_c = 45^2 - 1 = 2024
        assert suppression_factor(2024.0 * 1.2, 1.2) == pytest.approx(45.0, rel=1e-12)

    def test_monotone_in_intensity(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        rates = [gamma_res_strong(probe_mode, 1.1, j, 1.2, material, ensemble)
                 for j in (0.0, 0.5, 2.0, 20.0, 600.0)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestResonantOracle:
    def test_weak_field_agreement(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        t1 = min_lifetime(HBAR * probe_mode.omega, material, ensemble, 1.1)
        times = RelaxationTimes(t1=t1, t2=1e4 / OMEGA)
        oracle = gamma_res_integral_oracle(probe_mode, 1.1, 0.0, times,
                                           material, ensemble)
        closed = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        assert abs(oracle / closed - 1.0) < 5e-3

    def test_saturated_agreement(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        t1 = min_lifetime(HBAR * probe_mode.omega, material, ensemble, 1.1)
        times = RelaxationTimes(t1=t1, t2=1e4 / OMEGA)
        j_c = critical_intensity(material, 1.1, times=times, ensemble=ensemble)
        oracle = gamma_res_integral_oracle(probe_mode, 1.1, 10.0 * j_c, times,
                                           material, ensemble)
        closed = gamma_res_strong(probe_mode, 1.1, 10.0 * j_c, j_c,
                                  material, ensemble)
        assert abs(oracle / closed - 1.0) < 1e-2

    def test_breakdown_at_low_omega_t2(self, ge_doped, probe_mode):
        # omega T2 = 10 sits outside the closed form's validity; the
        # documented deviation exceeds 1%
        material, ensemble = ge_doped
        t1 = min_lifetime(HBAR * probe_mode.omega, material, ensemble, 1.1)
        times = RelaxationTimes(t1=t1, t2=10.0 / OMEGA)
        oracle = gamma_res_integral_oracle(probe_mode, 1.1, 0.0, times,
                                           material, ensemble)
        closed = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        assert abs(oracle / closed - 1.0) > 1e-2

    def test_counter_rotating_correction_scale(self, ge_doped, probe_mode):
        # integrated over the ensemble, the counter-rotating term enters at
        # O(1/(omega T2)), through its broad tail rather than the peak
        material, ensemble = ge_doped
        for omega_t2 in (1e3, 1e4):
            t1 = min_lifetime(HBAR * probe_mode.omega, material, ensemble, 1.1)
            times = RelaxationTimes(t1=t1, t2=omega_t2 / OMEGA)
            full = gamma_res_integral_oracle(probe_mode, 1.1, 0.0, times,
                                             material, ensemble)
            res_only = gamma_res_integral_oracle(probe_mode, 1.1, 0.0, times,
                                                 material, ensemble,
                                                 resonant_only=True)
            assert abs(full / res_only - 1.0) < 5.0 / omega_t2
            assert full < res_only  # the correction is dissipation-reducing


class TestFrequencyShift:
    def test_zero_at_reference(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        assert freq_shift_res(probe_mode, 1.09, 1.09, material, ensemble) == 0.0

    def test_against_independent_digamma(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        scale = (ensemble.p * ensemble.gamma_l ** 2 * OMEGA
                 / (material.rho * material.v_l ** 2))

        def bracket(t):
            x = HBAR * OMEGA / (KB * t)
            with mpmath.workdps(30):
                psi = float(mpmath.digamma(mpmath.mpc(0.5, x / (2.0 * math.pi))).real)
            return math.log(x) - psi

        for t in (0.5, 1.1, 2.3, 4.0):
            expected = -scale * (bracket(t) - bracket(1.09))
            assert freq_shift_res(probe_mode, t, 1.09, material, ensemble) \
                == pytest.approx(expected, rel=1e-9)

    def test_high_temperature_log_dependence(self, ge_doped, probe_mode):
        # for k_B T >> hbar Omega the digamma term freezes at psi(1/2) and
        # the shift grows as scale * ln(T2/T1)
        material, ensemble = ge_doped
        scale = (ensemble.p * ensemble.gamma_l ** 2 * OMEGA
                 / (material.rho * material.v_l ** 2))
        shift = freq_shift_res(probe_mode, 8.0, 4.0, material, ensemble)
        assert shift == pytest.approx(scale * math.log(2.0), rel=1e-2)

    def test_monotone_and_mhz_scale(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        shifts = [freq_shift_res(probe_mode, t, 1.09, material, ensemble)
                  for t in (1.2, 1.8, 2.6, 3.3, 4.0)]
        assert all(a < b for a, b in zip(shifts, shifts[1:]))
        assert TWO_PI * 0.5e6 < shifts[-1] < TWO_PI * 10e6


class TestRelaxation:
    def test_cubic_scaling(self, ge_doped):
        material, ensemble = ge_doped
        assert gamma_rel_closed(2.2, "L", material, ensemble) == pytest.approx(
            8.0 * gamma_rel_closed(1.1, "L", material, ensemble), rel=1e-12
        )

    def test_magnitude_at_reference(self, ge_doped):
        material, ensemble = ge_doped
        rate = gamma_rel_closed(1.1, "L", material, ensemble)
        assert TWO_PI * 2e3 < rate < TWO_PI * 30e3

    def test_share_of_dissipation_floor(self, ge_doped):
        # quoted as ~6% of the 2pi*650 kHz floor, i.e. ~2pi*39 kHz; the
        # transverse sound speed that went into that estimate is not
        # quoted, so agreement within a factor of 5 is the contract
        material, ensemble = ge_doped
        rate = gamma_rel_closed(1.1, "L", material, ensemble)
        assert 0.2 < rate / (TWO_PI * 39e3) < 5.0

    def test_oracle_agreement(self, ge_doped):
        material, ensemble = ge_doped
        for t in (0.5, 1.1, 4.0):
            ratio = (gamma_rel_integral_oracle(t, material, ensemble)
                     / gamma_rel_closed(t, "L", material, ensemble))
            assert 0.99 < ratio < 1.01

    def test_truncation_stability(self, ge_doped):
        material, ensemble = ge_doped
        kt = KB * 1.1
        at_20 = gamma_rel_integral_oracle(1.1, material, ensemble, e_max=20.0 * kt)
        at_40 = gamma_rel_integral_oracle(1.1, material, ensemble, e_max=40.0 * kt)
        assert abs(at_20 / at_40 - 1.0) < 1e-3

    def test_tiny_delta0_cutoff_is_immaterial(self, ge_doped):
        # integrand vanishes like delta0 toward the axis; moving the log
        # cutoff by two decades cannot move the integral
        material, ensemble = ge_doped
        kt = KB * 1.1
        a = gamma_rel_integral_oracle(1.1, material, ensemble,
                                      delta0_min=1e-9 * 40 * kt)
        b = gamma_rel_integral_oracle(1.1, material, ensemble,
                                      delta0_min=1e-7 * 40 * kt)
        assert abs(a / b - 1.0) < 1e-8


class TestTotalAndHelpers:
    def test_additivity(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        drive = DriveState(temperature=1.1, intensity=3.0, drive_omega=OMEGA)
        bd = total_linewidth(probe_mode, drive, material, ensemble)
        assert bd.total == bd.gamma_res + bd.gamma_rel + bd.gamma_bg
        assert min(bd.gamma_res, bd.gamma_rel, bd.gamma_bg) >= 0.0

    def test_saturation_floor(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        drive = DriveState(temperature=1.1, intensity=1e12, drive_omega=OMEGA)
        bd = total_linewidth(probe_mode, drive, material, ensemble)
        assert bd.total == pytest.approx(bd.gamma_rel + bd.gamma_bg, rel=1e-3)

    def test_monotone_decreasing_in_intensity(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        totals = [total_linewidth(
            probe_mode,
            DriveState(temperature=1.1, intensity=j, drive_omega=OMEGA),
            material, ensemble).total for j in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_room_temperature_warns(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        drive = DriveState(temperature=300.0, intensity=1e-3, drive_omega=OMEGA)
        with pytest.warns(UserWarning, match="extrapolation"):
            bd = total_linewidth(probe_mode, drive, material, ensemble)
        assert bd.gamma_res < 1e-2 * bd.gamma_bg  # background dominates

    def test_explicit_jc_takes_precedence(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        drive = DriveState(temperature=1.1, intensity=2.4, drive_omega=OMEGA)
        bd = total_linewidth(probe_mode, drive, material, ensemble, j_c=2.4)
        weak = gamma_res_weak(probe_mode, 1.1, material, ensemble)
        assert bd.gamma_res == pytest.approx(weak / math.sqrt(2.0), rel=1e-12)

    def test_reference_shift_column(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        drive = DriveState(temperature=2.0, intensity=0.0, drive_omega=OMEGA)
        bd = total_linewidth(probe_mode, drive, material, ensemble, t_ref=1.09)
        assert bd.freq_shift_res == freq_shift_res(probe_mode, 2.0, 1.09,
                                                   material, ensemble)

    def test_quality_factor_and_decay_length(self, ge_doped):
        material, _ = ge_doped
        gamma = TWO_PI * 650e3
        assert q_factor(OMEGA, gamma) == pytest.approx(9.188e9 / 650e3, rel=1e-12)
        assert q_factor(OMEGA, gamma) > 12_000
        assert decay_length(gamma, material, "L") == pytest.approx(
            4760.0 / gamma, rel=1e-12
        )
        assert decay_length(gamma, material, "L") > 1e-3
