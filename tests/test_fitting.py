"""Fitters: recovery on exact model data, noise calibration, edge cases."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlsphonon.constants import HBAR, KB, TWO_PI
from tlsphonon.dissipation import (
    critical_intensity,
    freq_shift_res,
    gamma_rel_closed,
    total_linewidth,
)
from tlsphonon.fitting import (
    FitError,
    LorentzianFit,
    compare_freq_shift,
    extract_times,
    fit_gamma0_decomposition,
    fit_lorentzian,
    fit_powerlaw,
    fit_saturation,
    fit_saturation_shared,
    saturation_rate,
)
from tlsphonon import fitting
from tlsphonon.fitting import (
    SaturationFit,
    _half_max_width,
    _saturation_problem,
    _solve_saturation,
)
from tlsphonon.numerics import digamma_half_plus_imag
from tlsphonon.sbs import OpticalDrive, lorentzian_profile
from tlsphonon.synth import BGSTrace
from tlsphonon.tls_core import DriveState, PhononMode, RelaxationTimes, min_lifetime

OMEGA = TWO_PI * 9.188e9
CENTER = OMEGA
GAMMA = TWO_PI * 1.4e6
PEAK = 2.5e-7


def make_trace(ge_doped, center=CENTER, gamma=GAMMA, peak=PEAK, points=401,
               span=10.0, noise=0.0, seed=0, temperature=1.1):
    material, _ = ge_doped
    grid = np.linspace(center - span * gamma, center + span * gamma, points)
    half = gamma / 2.0
    gain = peak * half ** 2 / ((grid - center) ** 2 + half ** 2)
    if noise > 0.0:
        gain = gain + np.random.default_rng(seed).normal(0.0, noise, size=points)
    drive = OpticalDrive(pump_power=0.035, stokes_power=0.55e-3,
                         pump_omega=TWO_PI * 1.935e14, fiber_length=material.l_fut)
    return BGSTrace(temperature=temperature, detuning_grid=grid, gain=gain,
                    drive=drive, seed=seed, timestamp_index=0)


class TestLorentzian:
    def test_noiseless_recovery(self, ge_doped):
        fit = fit_lorentzian(make_trace(ge_doped))
        assert fit.omega_hat == pytest.approx(CENTER, rel=1e-12)
        assert fit.gamma_hat == pytest.approx(GAMMA, rel=1e-10)
        assert fit.peak_hat == pytest.approx(PEAK, rel=1e-10)

    def test_scale_equivariance(self, ge_doped):
        base = fit_lorentzian(make_trace(ge_doped, noise=PEAK / 50.0, seed=3))
        trace = make_trace(ge_doped, noise=PEAK / 50.0, seed=3)
        scaled = BGSTrace(temperature=trace.temperature,
                          detuning_grid=trace.detuning_grid,
                          gain=trace.gain * 100.0, drive=trace.drive,
                          seed=trace.seed, timestamp_index=0)
        fit = fit_lorentzian(scaled)
        assert fit.peak_hat == pytest.approx(100.0 * base.peak_hat, rel=1e-10)
        assert fit.omega_hat == pytest.approx(base.omega_hat, rel=1e-12)
        assert fit.gamma_hat == pytest.approx(base.gamma_hat, rel=1e-10)

    def test_monte_carlo_calibration(self, ge_doped, rng):
        # SNR 100 traces averaged 100x: the fitted width lands within 1%
        hits = 0
        runs = 30
        for k in range(runs):
            noise = PEAK / 100.0 / math.sqrt(100.0)
            fit = fit_lorentzian(make_trace(ge_doped, noise=noise, seed=1000 + k))
            if abs(fit.gamma_hat / GAMMA - 1.0) < 0.01:
                hits += 1
        assert hits >= math.ceil(0.95 * runs)

    def test_truncated_window_still_converges(self, ge_doped):
        """Windowing study: a trace cut at +-1 linewidth stays fittable.

        For the zero-baseline three-parameter model the wings carry almost
        no width information, so the Fisher-predicted variance inflation
        from dropping them is only ~1.3x (not the order of magnitude one
        might guess); the empirical ratio is checked against that.
        """
        # Fisher prediction at fixed point spacing (window units of Gamma)
        def fisher_var_gamma(span, pts):
            x = np.linspace(-span, span, pts)
            h = 0.5
            d = x ** 2 + h ** 2
            jac = np.column_stack([2.0 * h ** 2 * x / d ** 2,
                                   h * x ** 2 / d ** 2,
                                   h ** 2 / d])
            return np.linalg.inv(jac.T @ jac)[1, 1]

        predicted = fisher_var_gamma(1.0, 41) / fisher_var_gamma(10.0, 401)
        assert 1.0 < predicted < 2.0

        noise = PEAK / 200.0
        ratios = []
        for seed in range(11, 23):
            full = fit_lorentzian(make_trace(ge_doped, noise=noise, seed=seed))
            narrow = fit_lorentzian(make_trace(ge_doped, span=1.0, points=41,
                                               noise=noise, seed=seed))
            assert narrow.gamma_hat == pytest.approx(GAMMA, rel=0.05)
            ratios.append(narrow.covariance[1, 1] / full.covariance[1, 1])
        gmean = float(np.exp(np.mean(np.log(ratios))))
        assert 1.0 < gmean < 3.0

    def test_too_few_samples(self, ge_doped):
        with pytest.raises(FitError, match="at least 7"):
            fit_lorentzian(make_trace(ge_doped, points=5))

    def test_flat_trace_rejected(self, ge_doped):
        trace = make_trace(ge_doped)
        flat = BGSTrace(temperature=1.1, detuning_grid=trace.detuning_grid,
                        gain=np.full_like(trace.gain, 1e-9), drive=trace.drive,
                        seed=0, timestamp_index=0)
        with pytest.raises(FitError, match="no discernible peak"):
            fit_lorentzian(flat)

    @pytest.mark.parametrize("seed", [4, 8, 9, 17, 18, 30, 38])
    def test_noise_spike_is_not_a_line(self, ge_doped, seed):
        # pure noise passes the flat-trace gate (its max - min is ~6 sigma);
        # seeds 4 and 8 fit one spike narrower than a detuning step, the
        # others a line 1-2.5 steps wide whose peak is under 5 of its sigmas
        reason = ("fitted FWHM .* is narrower than the detuning step" if seed in (4, 8)
                  else r"fitted peak .* W is under 5 times its sigma .* W$")
        trace = make_trace(ge_doped)
        noise = BGSTrace(temperature=1.1, detuning_grid=trace.detuning_grid,
                         gain=np.random.default_rng(seed).normal(0.0, PEAK / 100.0, 401),
                         drive=trace.drive, seed=seed, timestamp_index=0)
        with pytest.raises(FitError, match=f"^no discernible peak: {reason}"):
            fit_lorentzian(noise)

    def test_residual_free_line_is_refused(self, ge_doped):
        # an exact line on a grid through its center fits with residual 0, so
        # every sigma is 0 and the peak gate (5 times that sigma) passes it;
        # a zero linewidth sigma would outweigh every other saturation point
        grid = 1e9 + np.arange(-20.0, 21.0)
        exact = BGSTrace(temperature=1.1, detuning_grid=grid,
                         gain=1e-6 * lorentzian_profile(grid, 1e9, 2.0),
                         drive=make_trace(ge_doped).drive, seed=0, timestamp_index=0)
        with pytest.raises(FitError) as exc:
            fit_lorentzian(exact)
        assert str(exc.value) == "fitted FWHM sigma 0 rad/s is not > 0"

    def test_covariance_shape_and_symmetry(self, ge_doped):
        fit = fit_lorentzian(make_trace(ge_doped, noise=PEAK / 100.0, seed=5))
        assert fit.covariance.shape == (3, 3)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) >= -1e-30)


class TestSaturation:
    @staticmethod
    def synthetic_points(ge_doped, p_gamma2=1.6e7, j_c=1.2,
                         gamma0=TWO_PI * 700e3, t=1.1, n=24, noise=0.0, seed=0):
        """(J, Gamma, sigma) points with sigmas of 1% of the noise-free linewidth."""
        material, _ = ge_doped
        mode = PhononMode.in_material(material, OMEGA, "L")
        j = np.geomspace(1e-2 * j_c, 1e2 * j_c, n)
        g = saturation_rate(j, p_gamma2, j_c, gamma0, mode, material, t)
        sigma = 0.01 * g
        if noise > 0.0:
            g = g * (1.0 + np.random.default_rng(seed).normal(0.0, noise, size=n))
        return mode, list(zip(j, g, sigma))

    def test_noiseless_recovery(self, ge_doped):
        material, _ = ge_doped
        mode, points = self.synthetic_points(ge_doped)
        fit = fit_saturation(points, mode, material, 1.1)
        assert fit.p_gamma2 == pytest.approx(1.6e7, rel=1e-8)
        assert fit.j_c == pytest.approx(1.2, rel=1e-8)
        assert fit.gamma0 == pytest.approx(TWO_PI * 700e3, rel=1e-8)

    def test_reference_round_trip_with_noise(self, ge_doped):
        material, _ = ge_doped
        mode, points = self.synthetic_points(ge_doped, noise=0.01, seed=42, n=40)
        # one shared sigma: the weighted fit is then the unweighted one
        points = [(j, g, TWO_PI * 1e4) for j, g, _ in points]
        fit = fit_saturation(points, mode, material, 1.1)
        assert fit.p_gamma2 == pytest.approx(1.6e7, rel=0.02)
        assert fit.j_c == pytest.approx(1.2, rel=0.02)
        assert fit.gamma0 == pytest.approx(TWO_PI * 700e3, rel=0.02)

    def test_flat_direction_warning(self, ge_doped):
        material, _ = ge_doped
        mode = PhononMode.in_material(material, OMEGA, "L")
        j = np.geomspace(0.001 * 1.2, 0.01 * 1.2, 6)
        g = saturation_rate(j, 1.6e7, 1.2, TWO_PI * 700e3, mode, material, 1.1)
        with pytest.warns(UserWarning, match="flat direction"):
            fit_saturation(list(zip(j, g, 0.01 * g)), mode, material, 1.1)

    def test_preconditions(self, ge_doped):
        material, _ = ge_doped
        mode, points = self.synthetic_points(ge_doped)
        with pytest.raises(FitError, match=">= 5"):
            fit_saturation(points[:4], mode, material, 1.1)
        narrow = [(1.0 + 0.1 * k, TWO_PI * 1e6, TWO_PI * 1e4) for k in range(6)]
        with pytest.raises(FitError, match="decade"):
            fit_saturation(narrow, mode, material, 1.1)

    def test_shared_coupling_fit(self, ge_doped):
        material, ensemble = ge_doped
        bins = []
        for t in (1.15, 1.45, 1.75):
            mode, points = self.synthetic_points(
                ge_doped, j_c=0.9 * t ** 2.6,
                gamma0=gamma_rel_closed(t, "L", material, ensemble)
                + TWO_PI * 650e3, t=t, n=8)
            bins.append((t, mode, points))
        fits = fit_saturation_shared(bins, material)
        assert len(fits) == 3
        assert fits[0].p_gamma2 == pytest.approx(1.6e7, rel=1e-6)
        for (t, mode, _), fit in zip(bins, fits):
            assert fit.j_c == pytest.approx(0.9 * t ** 2.6, rel=1e-6)
            # one shared coupling product and sigma; each fit keeps its bin
            assert fit.p_gamma2 == fits[0].p_gamma2
            assert fit.p_gamma2_sigma == fits[0].p_gamma2_sigma
            assert fit.temperature == t and fit.mode is mode

    def test_shared_fit_starts_a_failing_bin_heuristically(self, ge_doped):
        # the middle bin spans a factor 4 in J, too little for a fit of its
        # own; the shared fit still takes it in, from its heuristic start
        material, ensemble = ge_doped
        bins = []
        for t in (1.15, 1.45, 1.75):
            mode = PhononMode.in_material(material, OMEGA, "L")
            j_c = 0.9 * t ** 2.6
            span = (0.5, 2.0) if t == 1.45 else (1e-2, 1e2)
            j = np.geomspace(span[0] * j_c, span[1] * j_c, 8)
            gamma0 = gamma_rel_closed(t, "L", material, ensemble) + TWO_PI * 650e3
            g = saturation_rate(j, 1.6e7, j_c, gamma0, mode, material, t)
            bins.append((t, mode, list(zip(j, g, 0.01 * g))))
        with pytest.raises(FitError, match="decade"):
            fit_saturation(bins[1][2], bins[1][1], material, 1.45)
        fits = fit_saturation_shared(bins, material)
        assert fits[0].p_gamma2 == pytest.approx(1.6e7, rel=1e-3)


class TestPowerLaw:
    def test_exact_recovery(self):
        t = np.linspace(1.1, 4.2, 12)
        fit = fit_powerlaw(list(zip(t, 0.9 * t ** 2.6)))
        assert fit.a == pytest.approx(0.9, rel=1e-10)
        assert fit.b == pytest.approx(2.6, rel=1e-10)

    def test_two_points_rejected(self):
        with pytest.raises(FitError, match=">= 3"):
            fit_powerlaw([(1.0, 1.0), (2.0, 4.0)])

    def test_reorder_invariance(self, rng):
        t = np.linspace(1.1, 4.2, 9)
        j = 0.9 * t ** 2.6 * np.exp(rng.normal(0, 0.05, size=9))
        points = list(zip(t, j))
        fit1 = fit_powerlaw(points)
        fit2 = fit_powerlaw(points[::-1])
        assert fit1.a == pytest.approx(fit2.a, rel=1e-12)
        assert fit1.b == pytest.approx(fit2.b, rel=1e-12)

    def test_monte_carlo_exponent_window(self, rng):
        hits = 0
        runs = 40
        for _ in range(runs):
            t = np.linspace(1.1, 4.2, 30)
            j = 0.9 * t ** 2.6 * np.exp(rng.normal(0.0, 0.05, size=30))
            fit = fit_powerlaw(list(zip(t, j)))
            if abs(fit.b - 2.6) < 0.2:
                hits += 1
        assert hits >= math.ceil(0.95 * runs)

    def test_positive_inputs_required(self):
        with pytest.raises(FitError):
            fit_powerlaw([(1.0, 1.0), (2.0, -1.0), (3.0, 2.0)])


class TestGamma0Decomposition:
    def test_exact_recovery(self, ge_doped):
        material, ensemble = ge_doped
        temps = np.linspace(1.15, 4.15, 16)
        points = [(t, gamma_rel_closed(t, "L", material, ensemble)
                   + ensemble.gamma_bg) for t in temps]
        dec = fit_gamma0_decomposition(points, material,
                                       ensemble.p * ensemble.gamma_l ** 2)
        assert dec.gamma_bg == pytest.approx(ensemble.gamma_bg, rel=1e-10)
        assert dec.gamma_l == pytest.approx(ensemble.gamma_l, rel=1e-10)
        assert dec.p == pytest.approx(ensemble.p, rel=1e-9)

    def test_flat_offsets_rejected(self, ge_doped):
        material, ensemble = ge_doped
        points = [(t, TWO_PI * 650e3) for t in (1.2, 2.2, 3.2, 4.2)]
        with pytest.raises(FitError):
            fit_gamma0_decomposition(points, material, 1.6e7)


class TestExtractTimes:
    def test_reference_values(self, ge_doped, probe_mode):
        material, ensemble = ge_doped
        sat = SaturationFit(p_gamma2=1.6e7, j_c=1.2, gamma0=TWO_PI * 700e3,
                            covariance=np.zeros((3, 3)), temperature=1.1, mode=probe_mode)
        times = extract_times(sat, material, ensemble)
        assert 0.5 < math.sqrt(times.t1_t2) / 10e-9 < 2.0
        assert 0.5 < times.t1 / 79e-9 < 2.0
        assert 0.5 < times.t2 / 1.3e-9 < 2.0
        assert times.t2 == pytest.approx(times.t1_t2 / times.t1, rel=1e-14)

    def test_coupling_scaling(self, ge_doped, probe_mode):
        import dataclasses
        material, ensemble = ge_doped
        sat = SaturationFit(p_gamma2=1.6e7, j_c=1.2, gamma0=1.0,
                            covariance=np.zeros((3, 3)), temperature=1.1, mode=probe_mode)
        base = extract_times(sat, material, ensemble)
        doubled = dataclasses.replace(ensemble, gamma_l=2.0 * ensemble.gamma_l,
                                      gamma_t=2.0 * ensemble.gamma_t)
        out = extract_times(sat, material, doubled)
        assert out.t1_t2 == pytest.approx(base.t1_t2 / 4.0, rel=1e-12)


class TestFreqShiftComparison:
    @staticmethod
    def drifted_fits(ge_doped, temps, t0=1.15):
        material, ensemble = ge_doped
        scale = (ensemble.p * ensemble.gamma_l ** 2 * OMEGA
                 / (material.rho * material.v_l ** 2))

        def bracket(t):
            x = HBAR * OMEGA / (KB * t)
            return math.log(x) - digamma_half_plus_imag(x / (2.0 * math.pi))

        cov = np.zeros((3, 3))
        cov[0, 0] = (TWO_PI * 50.0) ** 2
        fits = []
        for t in temps:
            center = OMEGA - scale * (bracket(t) - bracket(t0))
            fits.append((t, LorentzianFit(omega_hat=center, gamma_hat=GAMMA,
                                          peak_hat=PEAK, covariance=cov,
                                          residual_norm=0.0)))
        return fits

    def test_closed_loop(self, ge_doped):
        material, ensemble = ge_doped
        temps = [1.15, 1.45, 2.05, 3.05, 4.15]
        rows = compare_freq_shift(self.drifted_fits(ge_doped, temps), 1.15, material,
                                  p_gamma2=ensemble.p * ensemble.gamma_l ** 2)
        for row in rows:
            # centers were generated with the very model being compared
            assert abs(row.discrepancy) < 1e-6 * max(abs(row.measured), TWO_PI)

    def test_reference_row_is_exactly_zero(self, ge_doped):
        material, ensemble = ge_doped
        rows = compare_freq_shift(self.drifted_fits(ge_doped, [1.15, 2.05]), 1.15, material,
                                  p_gamma2=ensemble.p * ensemble.gamma_l ** 2)
        assert rows[0].measured == 0.0
        assert rows[0].predicted == 0.0

    def test_prediction_only_monotone(self, ge_doped):
        material, ensemble = ge_doped
        temps = list(np.linspace(1.15, 4.15, 10))
        cov = np.zeros((3, 3))
        fits = [(t, LorentzianFit(omega_hat=OMEGA, gamma_hat=GAMMA, peak_hat=PEAK,
                                  covariance=cov, residual_norm=0.0))
                for t in temps]
        rows = compare_freq_shift(fits, 1.15, material,
                                  p_gamma2=ensemble.p * ensemble.gamma_l ** 2)
        preds = [r.predicted for r in rows]
        assert all(a < b for a, b in zip(preds, preds[1:]))

    def test_span_precondition(self, ge_doped):
        material, ensemble = ge_doped
        with pytest.raises(FitError, match="span"):
            compare_freq_shift(self.drifted_fits(ge_doped, [2.0, 3.0]), 1.0, material,
                               p_gamma2=ensemble.p * ensemble.gamma_l ** 2)

    @pytest.mark.parametrize("p_gamma2", [0.0, -1.0, float("nan")])
    def test_nonpositive_coupling_is_a_fit_error(self, ge_doped, p_gamma2):
        material, ensemble = ge_doped
        with pytest.raises(FitError, match="positive"):
            compare_freq_shift(self.drifted_fits(ge_doped, [1.15, 2.05]), 1.15, material,
                               p_gamma2=p_gamma2)


class TestForwardInverseAgreement:
    """The fits invert the forward model itself: a formula forked between
    the two layers shows up here as a disagreement."""

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.5, 5.0), t0=st.floats(0.5, 5.0),
           saturation=st.floats(0.0, 1e3), log_t2=st.floats(-10.0, -7.0))
    def test_fits_and_forward_model_agree(self, ge_doped, t, t0, saturation, log_t2):
        material, ensemble = ge_doped
        mode = PhononMode.in_material(material, OMEGA, "L")
        p_gamma2 = ensemble.p * ensemble.gamma_l ** 2
        j_c = critical_intensity(material, t, ensemble=ensemble)
        j = saturation * j_c

        # the model the saturation fits invert is the forward total linewidth
        floor = gamma_rel_closed(t, "L", material, ensemble) + ensemble.gamma_bg
        fitted_model = saturation_rate(j, p_gamma2, j_c, floor, mode, material, t)
        drive = DriveState(temperature=t, intensity=j, drive_omega=OMEGA)
        total = total_linewidth(mode, drive, material, ensemble, j_c=j_c).total
        assert fitted_model == pytest.approx(total, rel=1e-13)

        # the times extraction inverts the critical intensity of those times
        t1 = min_lifetime(HBAR * OMEGA, material, ensemble, t)
        times = RelaxationTimes(t1=t1, t2=10.0 ** log_t2)
        j_c_times = critical_intensity(material, t, times=times, ensemble=ensemble)
        sat = SaturationFit(p_gamma2=p_gamma2, j_c=j_c_times, gamma0=floor,
                            covariance=np.zeros((3, 3)), temperature=t, mode=mode)
        extracted = extract_times(sat, material, ensemble)
        assert extracted.t1_t2 == pytest.approx(times.t1 * times.t2, rel=1e-13)
        assert extracted.t2 == pytest.approx(times.t2, rel=1e-13)

        # the predicted drift is a difference of the forward frequency pull
        cov = np.zeros((3, 3))
        fits = [(temp, LorentzianFit(omega_hat=OMEGA, gamma_hat=GAMMA, peak_hat=PEAK,
                                     covariance=cov, residual_norm=0.0))
                for temp in (0.5, t, 5.0)]
        rows = compare_freq_shift(fits, t0, material, p_gamma2=p_gamma2)
        t_ref = min((0.5, t, 5.0), key=lambda temp: abs(temp - t0))
        for row in rows:
            pull = freq_shift_res(mode, row.temperature, 1.0, material, ensemble)
            pull_ref = freq_shift_res(mode, t_ref, 1.0, material, ensemble)
            assert abs(row.predicted - (pull - pull_ref)) <= 1e-12 * (abs(pull) + abs(pull_ref))


# ---------------------------------------------------------------------------
# the solver against scipy's bounded least_squares, the oracle
# ---------------------------------------------------------------------------

def scipy_lorentzian(trace):
    """(params, covariance, residual_norm) of scipy's bounded least_squares on
    fit_lorentzian's problem: its start, scaling, bounds and xtol."""
    from scipy.optimize import least_squares

    x, y = trace.detuning_grid, trace.gain
    i_peak = int(np.argmax(y))
    center0, peak0 = x[i_peak], y[i_peak]
    width0 = _half_max_width(x, y, i_peak)
    scale = np.array([width0, width0, peak0])

    def unpack(p):
        return center0 + p[0] * scale[0], p[1] * scale[1] / 2.0, p[2] * scale[2]

    def residuals(p):
        center, half, peak = unpack(p)
        return peak * half ** 2 / ((x - center) ** 2 + half ** 2) - y

    def jacobian(p):
        center, half, peak = unpack(p)
        d = (x - center) ** 2 + half ** 2
        return np.column_stack([
            2.0 * peak * half ** 2 * (x - center) / d ** 2 * scale[0],
            peak * half * (x - center) ** 2 / d ** 2 * scale[1],
            half ** 2 / d * scale[2]])

    sol = least_squares(residuals, np.array([0.0, 1.0, 1.0]), jac=jacobian,
                        bounds=([-np.inf, 1e-12, 1e-12], np.inf),
                        xtol=1e-10, ftol=None, gtol=None, max_nfev=500)
    assert sol.status > 0
    params = np.array([center0 + sol.x[0] * scale[0], sol.x[1] * scale[1],
                       sol.x[2] * scale[2]])
    cov_norm = sol.fun @ sol.fun / (len(x) - 3) * np.linalg.inv(sol.jac.T @ sol.jac)
    return params, scale[:, None] * cov_norm * scale, float(np.linalg.norm(sol.fun))


def assert_matches_least_squares(trace) -> LorentzianFit:
    """fit_lorentzian's fit of ``trace``, checked against :func:`scipy_lorentzian`."""
    fit = fit_lorentzian(trace)
    params, cov, residual_norm = scipy_lorentzian(trace)
    assert abs(fit.omega_hat - params[0]) <= 1e-8 * params[1]
    # both solvers stop on a 1e-10 step. At the lowest noise that leaves the
    # width and peak ~1e-10 apart relative, which can exceed 1e-6 of the
    # fit's sigma; along a flat direction of the cost, as on a wide, truncated
    # line at high noise, the gap passes 1e-8 relative but stays well under
    # 1e-6 sigma, the covariance's scale. Either scale bounds the gap
    sigma = np.sqrt(np.diag(fit.covariance))
    assert fit.gamma_hat == pytest.approx(params[1], rel=1e-8, abs=1e-6 * sigma[1])
    assert fit.peak_hat == pytest.approx(params[2], rel=1e-8, abs=1e-6 * sigma[2])
    bound = 1e-6 * np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(fit.covariance - cov) <= bound)
    assert fit.residual_norm == pytest.approx(residual_norm, rel=1e-6)
    return fit


def saturation_bins(ge_doped, temperatures, n=12, noise=0.01, seed=0, spread=True):
    """Noisy (J, Gamma, sigma) points per temperature, each bin at its own
    frequency. With ``spread`` each sigma is 0.5-2% of its linewidth, drawn
    from ``seed``; without, every point has one sigma, so the weighted fit is
    the unweighted one."""
    material, ensemble = ge_doped
    rng, spreads = np.random.default_rng(seed), np.random.default_rng(seed)
    bins, truth = [], []
    for k, t in enumerate(temperatures):
        mode = PhononMode.in_material(material, OMEGA * (1.0 + 1e-4 * k), "L")
        j_c = 0.9 * t ** 2.6
        gamma0 = gamma_rel_closed(t, "L", material, ensemble) + TWO_PI * 650e3
        j = np.geomspace(1e-2 * j_c, 1e2 * j_c, n)
        g = saturation_rate(j, 1.6e7, j_c, gamma0, mode, material, t)
        g = g * (1.0 + rng.normal(0.0, noise, n))
        sigma = 0.01 * g * spreads.uniform(0.5, 2.0, n) if spread else np.full(n, TWO_PI * 1e4)
        bins.append((t, mode, list(zip(j, g, sigma))))
        truth.append((j_c, gamma0))
    return bins, truth


def saturation_oracle_residual(bins, material, scale):
    """The residual of the fixed point of saturation_rate over all bins'
    points, over each point's sigma, in scaled parameters. Each point holds
    its J Gamma^2 = C, and its rate is the root of
    Gamma - saturation_rate(C / Gamma^2) that brentq brackets by
    [Gamma0, Gamma_w + Gamma0], with no code of the fit's own solver."""
    from scipy.optimize import brentq

    n = len(bins)
    bin_of = np.repeat(np.arange(n), [len(points) for _, _, points in bins])
    j, g, sigma = np.concatenate([np.asarray(points) for _, _, points in bins]).T
    temps = np.array([t for t, _, _ in bins])[bin_of]
    modes = [PhononMode.in_material(material, m.omega, "L") for _, m, _ in bins]

    def residuals(p):
        x = p * scale
        rates = []
        for i, b in enumerate(bin_of):
            args = (x[0], x[1 + b], x[1 + n + b], modes[b], material, temps[i])
            coupling = j[i] * g[i] ** 2

            def gap(gamma):
                return gamma - saturation_rate(coupling / gamma ** 2, *args)

            gamma0 = x[1 + n + b]
            weak = saturation_rate(0.0, *args) - gamma0
            rates.append(brentq(gap, gamma0, weak + gamma0, xtol=1e-300))
        return (np.array(rates) - g) / sigma

    return residuals


class TestSolverOracle:
    @settings(max_examples=80, deadline=None)
    @given(offset=st.floats(-0.9, 0.9), log_width=st.floats(-1.3, -0.3),
           points=st.integers(41, 401), log_peak=st.floats(-10.0, -3.0),
           log_noise=st.floats(-3.0, -1.3), seed=st.integers(0, 2 ** 16))
    # a wide, truncated line at the highest noise, where gamma_hat once
    # differed from least_squares by 1.04e-8 relative (2.1e-7 sigma)
    @example(offset=0.0, log_width=-1.298828125, points=269, log_peak=-4.6953125,
             log_noise=-1.3125, seed=9230)
    def test_lorentzian_matches_least_squares(self, ge_doped, offset, log_width, points,
                                              log_peak, log_noise, seed):
        # the window spans +-2 FWHM of the widest line and +-20 FWHM of
        # the narrowest, whose center sits up to 0.9 of the way to an edge:
        # the wide lines are truncated to well under their full profile
        half_span = 10.0 * GAMMA
        grid = np.linspace(CENTER - half_span, CENTER + half_span, points)
        gamma = max(half_span * 10.0 ** log_width,
                    5.0 * (grid[1] - grid[0]))  # >= 5 samples per FWHM
        peak = 10.0 ** log_peak
        noise = peak * 10.0 ** log_noise
        gain = peak * lorentzian_profile(grid, CENTER + offset * half_span, gamma)
        gain = gain + np.random.default_rng(seed).normal(0.0, noise, points)
        base = make_trace(ge_doped)
        trace = BGSTrace(temperature=base.temperature, detuning_grid=grid, gain=gain,
                         drive=base.drive, seed=seed, timestamp_index=0)
        assert_matches_least_squares(trace)

    @pytest.mark.parametrize("lo, hi, points, seed", [
        (-0.56, 0.56, 21, 0),  # rejected as flat for every seed tried, 200 of 200
        (-1.5, 0.5, 41, 0),    # rejected for 116 of 200 seeds, this one included
    ])
    def test_lorentzian_fits_a_window_that_is_mostly_line(self, ge_doped, lo, hi, points,
                                                          seed):
        # the window spans [lo, hi] FWHM about the center with noise at 0.1%
        # of the peak: a noise scale taken from the samples' own spread
        # would call the line flat
        grid = np.linspace(CENTER + lo * GAMMA, CENTER + hi * GAMMA, points)
        gain = PEAK * lorentzian_profile(grid, CENTER, GAMMA)
        gain = gain + np.random.default_rng(seed).normal(0.0, 1e-3 * PEAK, points)
        base = make_trace(ge_doped)
        trace = BGSTrace(temperature=base.temperature, detuning_grid=grid, gain=gain,
                         drive=base.drive, seed=seed, timestamp_index=0)
        fit = assert_matches_least_squares(trace)
        assert fit.gamma_hat == pytest.approx(GAMMA, rel=0.05)

    @pytest.mark.parametrize("points, gain, text", [
        (6, None, "need at least 7 samples, got 6"),
        (401, 1e-9, "no discernible peak: max is within 3 median absolute deviations "
                    "of the baseline (flat trace)"),
    ])
    def test_lorentzian_rejections_keep_their_text(self, ge_doped, points, gain, text):
        trace = make_trace(ge_doped, points=points)
        if gain is not None:
            trace = BGSTrace(temperature=1.1, detuning_grid=trace.detuning_grid,
                             gain=np.full_like(trace.gain, gain), drive=trace.drive,
                             seed=0, timestamp_index=0)
        with pytest.raises(FitError) as exc:
            fit_lorentzian(trace)
        assert str(exc.value) == text

    @pytest.mark.parametrize("spread", [False, True])
    def test_saturation_jacobian_matches_central_differences(self, ge_doped, spread):
        material, _ = ge_doped
        bins, _ = saturation_bins(ge_doped, (1.15, 1.6, 2.4, 3.3), spread=spread)
        model, scale = _saturation_problem(bins, material)
        residuals = saturation_oracle_residual(bins, material, scale)
        p = 1.0 + 0.3 * np.sin(np.arange(len(scale)) + 1.0)  # away from the start
        r, jac = model(p)
        assert np.allclose(r, residuals(p), rtol=1e-12, atol=1e-12 * np.abs(r).max())
        h = 1e-6
        numeric = np.column_stack([
            (residuals(p + h * e) - residuals(p - h * e)) / (2.0 * h)
            for e in np.eye(len(p))])
        assert np.abs(jac - numeric).max() <= 1e-7 * np.abs(jac).max()
        # a bin's J_c and Gamma0 columns vanish off its own points
        n = len(bins)
        rows = np.repeat(np.arange(n), [len(points) for _, _, points in bins])
        for idx in range(n):
            assert not jac[rows != idx][:, [1 + idx, 1 + n + idx]].any()

    # one sigma for every point (spread False) gives the unweighted fit
    @pytest.mark.parametrize("temperatures, spread, noise, seed", [
        ((1.3,), False, 0.01, 1), ((1.3,), True, 0.01, 1),
        ((1.15, 1.45, 1.75, 2.9), False, 0.01, 4), ((1.15, 1.45, 1.75, 2.9), True, 0.01, 4),
        # 5% noise against 1% sigmas: residuals large enough that the
        # linearized model overshoots, which stalls a damping rule that
        # drops by 10x after every accepted step
        ((1.15, 1.45, 1.75, 2.9), True, 0.05, 29),
    ])
    def test_saturation_fits_match_least_squares(self, ge_doped, temperatures, spread,
                                                 noise, seed):
        from scipy.optimize import least_squares

        material, _ = ge_doped
        bins, _ = saturation_bins(ge_doped, temperatures, noise=noise, seed=seed, spread=spread)
        _, scale = _saturation_problem(bins, material)
        sol = least_squares(saturation_oracle_residual(bins, material, scale),
                            np.ones(len(scale)), bounds=(1e-12, np.inf),
                            xtol=1e-10, ftol=None, gtol=None, max_nfev=10_000)
        assert sol.status > 0
        expected = sol.x * scale
        n = len(bins)
        if n == 1:
            fits = [fit_saturation(bins[0][2], bins[0][1], material, bins[0][0])]
        else:
            fits = fit_saturation_shared(bins, material)
        for idx, fit in enumerate(fits):
            got = [fit.p_gamma2, fit.j_c, fit.gamma0]
            want = expected[[0, 1 + idx, 1 + n + idx]]
            assert got == pytest.approx(want, rel=1e-7)

    def test_nonconvergence_texts(self, ge_doped, monkeypatch):
        material, _ = ge_doped
        bins, _ = saturation_bins(ge_doped, (1.15, 1.45, 1.75))
        with pytest.raises(FitError) as exc:
            _solve_saturation(bins, material, 3)
        assert str(exc.value) == "saturation fit did not converge within 3 evaluations"
        monkeypatch.setattr(fitting, "MAX_FIT_EVALS", 2)
        with pytest.raises(FitError) as exc:
            fit_saturation(bins[0][2], bins[0][1], material, bins[0][0])
        assert str(exc.value) == "saturation fit did not converge within 2 evaluations"
        with pytest.raises(FitError) as exc:
            fit_lorentzian(make_trace(ge_doped, noise=PEAK / 100.0, seed=6))
        assert str(exc.value) == "Lorentzian fit did not converge within 2 evaluations"
        # an intensity that overflowed leaves the point's linewidth no root
        # to converge to: a FitError, never the solver's ValueError
        bins[1][2][0] = (math.inf, *bins[1][2][0][1:])
        with pytest.raises(FitError) as exc, np.errstate(invalid="ignore"):
            fit_saturation_shared(bins, material)
        assert str(exc.value) == ("saturation model: (Gamma, J) fixed point not converged after "
                                  "200 iterations; parameters are likely unphysical")
