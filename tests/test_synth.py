"""Synthetic campaigns: self-consistency, determinism, binning."""

import dataclasses
import math

import numpy as np
import pytest

from tlsphonon.config import parse_config
from tlsphonon.constants import TWO_PI
from tlsphonon.dissipation import gamma_rel_closed, gamma_res_weak, total_linewidth
from tlsphonon import synth
from tlsphonon.sbs import OpticalDrive, brillouin_frequency, stokes_gain, g_b_at_linewidth
from tlsphonon.synth import (
    MAX_SAMPLES,
    MAX_TRACES,
    BGSTrace,
    ConvergenceError,
    ForwardModel,
    SweepPlan,
    bin_traces,
    plan_acquisitions,
    solve_self_consistent,
    synth_sweep,
    synth_trace,
)
from tlsphonon.tls_core import DriveState, PhononMode


@pytest.fixture(scope="module")
def model(ge_doped):
    material, ensemble = ge_doped
    return ForwardModel(material=material, ensemble=ensemble,
                        drift_reference_k=1.1)


def test_j_c_evaluates_the_ensemble_law(ge_doped):
    # ForwardModel.j_c has no source of its own: a constant law (J_c, 0)
    # gives J_c at every temperature, scalar or array
    material, ensemble = ge_doped
    constant = dataclasses.replace(ensemble, jc_power_law=(4.0, 0.0))
    model = ForwardModel(material=material, ensemble=constant)
    assert model.j_c(1.1) == 4.0
    assert np.array_equal(model.j_c(np.array([1.1, 2.0, 4.2])), [4.0, 4.0, 4.0])
    mode = PhononMode.in_material(material, TWO_PI * 9.188e9, "L")
    drive = DriveState(temperature=1.1, intensity=3.0, drive_omega=mode.omega)
    assert (total_linewidth(mode, drive, material, constant)
            == total_linewidth(mode, drive, material, ensemble, j_c=4.0))
    with pytest.raises(ValueError, match="no J_c power law"):
        ForwardModel(material=material,
                     ensemble=dataclasses.replace(ensemble, jc_power_law=None))


@pytest.mark.parametrize("drift", [True, False], ids=["default", "center_drift-false"])
def test_center_drift_switch(drift):
    doc = {"material": "ge-doped-silica-44wt", "ensemble": "ge-doped-silica-44wt",
           "jc_source": {"type": "power-law"}, "seed": 0,
           "synth": {"t_start_k": 1.1, "t_end_k": 1.5, "traces_per_100mk": 1,
                     "power_settings_w": [[0.035, 5.5e-4]], "noise_sigma_w": 0.0}}
    if not drift:
        doc["synth"]["center_drift"] = False
    plan = parse_config(doc).sweep_plan()
    model = plan.model
    centers = [acq.rung.center for acq in plan_acquisitions(plan)[1]]  # one per rung
    omega0 = brillouin_frequency(model.material, model.pump_omega)
    if drift:
        assert len(set(centers)) == 4 and omega0 not in centers
    else:
        assert centers == [omega0] * 4


def drive_for(model, pump=0.035, stokes=0.55e-3):
    return OpticalDrive(pump_power=pump, stokes_power=stokes,
                        pump_omega=model.pump_omega,
                        fiber_length=model.material.l_fut)


class TestSelfConsistency:
    def test_weak_drive_is_weak_field_lorentzian(self, model):
        material, ensemble = model.material, model.ensemble
        drive = drive_for(model, stokes=1e-9)
        trace = synth_trace(1.1, drive, model, 0.0, 1)
        center = model.line_center(1.1)
        mode = PhononMode.in_material(material, center, "L")
        gamma_weak = (gamma_res_weak(mode, 1.1, material, ensemble)
                      + gamma_rel_closed(1.1, "L", material, ensemble)
                      + ensemble.gamma_bg)
        expected = stokes_gain(drive, center, gamma_weak,
                               g_b_at_linewidth(material, gamma_weak),
                               omega_im=trace.detuning_grid)
        assert np.allclose(trace.gain, expected, rtol=1e-8)

    def test_fixed_point_closure(self, model):
        # the converged pair satisfies Gamma = Gamma_w/sqrt(1+J/Jc) + floor
        # with J evaluated from that same Gamma
        material, ensemble = model.material, model.ensemble
        for t in (1.1, 2.5, 4.1):
            drive = drive_for(model)
            point = solve_self_consistent(t, drive, model)
            center = model.line_center(t)
            mode = PhononMode.in_material(material, center, "L")
            floor = (gamma_rel_closed(t, "L", material, ensemble)
                     + ensemble.gamma_bg)
            weak = gamma_res_weak(mode, t, material, ensemble)
            j_c = model.j_c(t)
            gamma_check = weak / math.sqrt(1.0 + point.peak_intensity / j_c) + floor
            assert abs(gamma_check / point.gamma_total - 1.0) < 1e-10
            j_check = float(
                (material.v_l / point.gamma_total)
                * (center / (drive.pump_omega - center)) / material.a_eff
                * g_b_at_linewidth(material, point.gamma_total)
                * drive.pump_power * drive.stokes_power
            )
            assert abs(j_check / point.peak_intensity - 1.0) < 1e-10
            assert point.residual < 1e-10

    def test_narrowing_follows_suppression_factor(self, model):
        material, ensemble = model.material, model.ensemble
        drive = drive_for(model)
        point = solve_self_consistent(1.1, drive, model)
        center = model.line_center(1.1)
        mode = PhononMode.in_material(material, center, "L")
        weak = gamma_res_weak(mode, 1.1, material, ensemble)
        floor = gamma_rel_closed(1.1, "L", material, ensemble) + ensemble.gamma_bg
        suppressed = weak / math.sqrt(1.0 + point.peak_intensity / model.j_c(1.1))
        assert point.gamma_total == pytest.approx(floor + suppressed, rel=1e-10)
        assert point.gamma_total < weak + floor

    def test_zero_power_shortcut(self, model):
        drive = drive_for(model, pump=0.0, stokes=0.0)
        point = solve_self_consistent(1.1, drive, model)
        assert point.peak_intensity == 0.0
        assert point.iterations == 1

    def test_iteration_budget_enforced(self, model, monkeypatch):
        drive = drive_for(model)
        monkeypatch.setattr(synth, "FIXED_POINT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="not converged after 2 iterations"):
            solve_self_consistent(1.1, drive, model)


class TestTrace:
    def test_deterministic_given_seed(self, model):
        drive = drive_for(model)
        a = synth_trace(1.3, drive, model, 1e-9, 987654)
        b = synth_trace(1.3, drive, model, 1e-9, 987654)
        assert np.array_equal(a.gain, b.gain)
        assert np.array_equal(a.detuning_grid, b.detuning_grid)
        c = synth_trace(1.3, drive, model, 1e-9, 987655)
        assert not np.array_equal(a.gain, c.gain)

    def test_noise_is_additive_on_gain_only(self, model):
        drive = drive_for(model)
        clean = synth_trace(1.3, drive, model, 0.0, 1)
        noisy = synth_trace(1.3, drive, model, 5e-10, 1)
        assert np.array_equal(clean.detuning_grid, noisy.detuning_grid)
        resid = noisy.gain - clean.gain
        assert np.std(resid) == pytest.approx(5e-10, rel=0.15)

    def test_grid_shape_and_metadata(self, model):
        drive = drive_for(model)
        trace = synth_trace(1.3, drive, model, 0.0, 7, timestamp_index=13,
                            setting_index=2)
        assert len(trace.detuning_grid) == 401
        assert np.all(np.diff(trace.detuning_grid) > 0)
        assert trace.timestamp_index == 13 and trace.setting_index == 2
        assert trace.peak_intensity > 0.0

    def test_invalid_trace_rejected(self, model):
        drive = drive_for(model)
        with pytest.raises(ValueError):
            BGSTrace(temperature=1.3, detuning_grid=np.array([2.0, 1.0]),
                     gain=np.array([0.0, 0.0]), drive=drive, seed=0,
                     timestamp_index=0)
        with pytest.raises(ValueError):
            BGSTrace(temperature=1.3, detuning_grid=np.array([1.0, 2.0]),
                     gain=np.array([0.0, np.inf]), drive=drive, seed=0,
                     timestamp_index=0)


class TestSweep:
    def test_trace_counting(self, model):
        plan = SweepPlan(t_start=1.1, t_end=1.3, traces_per_100mk=10,
                         power_settings=[(0.035, 0.55e-3)], noise_sigma=0.0,
                         model=model, base_seed=5)
        traces = synth_sweep(plan)
        assert len(traces) == 20
        assert sorted({t.temperature for t in traces}) == pytest.approx([1.15, 1.25])

    def test_settings_multiply_count(self, model):
        settings = [(0.035, 0.55e-3), (0.035, 5.5e-5), (0.035, 5.5e-6)]
        plan = SweepPlan(t_start=1.1, t_end=1.3, traces_per_100mk=4,
                         power_settings=settings, noise_sigma=0.0,
                         model=model, base_seed=5)
        traces = synth_sweep(plan)
        assert len(traces) == 24
        by_setting = {}
        for tr in traces:
            by_setting.setdefault(tr.setting_index, 0)
            by_setting[tr.setting_index] += 1
        assert by_setting == {0: 8, 1: 8, 2: 8}

    def test_timestamps_are_global_ordinals(self, model):
        plan = SweepPlan(t_start=1.1, t_end=1.3, traces_per_100mk=2,
                         power_settings=[(0.035, 0.55e-3), (0.035, 5.5e-5)],
                         noise_sigma=0.0, model=model, base_seed=5)
        traces = synth_sweep(plan)
        assert [t.timestamp_index for t in traces] == list(range(len(traces)))
        assert len({t.seed for t in traces}) == len(traces)

    def test_each_setting_has_one_drive(self, model):
        # the drive is the power setting: built once, in power_settings order,
        # and shared by every acquisition at that setting
        settings = [(0.035, 0.55e-3), (0.035, 5.5e-5), (0.02, 5.5e-6)]
        plan = SweepPlan(t_start=1.1, t_end=1.4, traces_per_100mk=2,
                         power_settings=settings, noise_sigma=0.0, model=model)
        assert [(d.pump_power, d.stokes_power) for d in plan.drives] == settings
        _, acqs = plan_acquisitions(plan)
        assert len(acqs) == 3 * len(settings) * 2
        for acq in acqs:
            assert acq.drive is plan.drives[acq.setting_index]

    def test_each_rung_is_computed_once(self, model, monkeypatch):
        # line center, weak-drive loss, floor and J_c depend on the rung only:
        # computed once per rung, they give the traces synth_trace makes alone
        plan = SweepPlan(t_start=1.1, t_end=1.4, traces_per_100mk=2,
                         power_settings=[(0.035, 0.55e-3), (0.035, 5.5e-6)],
                         noise_sigma=1e-10, model=model, base_seed=3)
        calls = []
        line_center = ForwardModel.line_center
        monkeypatch.setattr(ForwardModel, "line_center",
                            lambda self, t: calls.append(t) or line_center(self, t))
        traces = synth_sweep(plan)
        assert calls == plan.rung_temperatures()
        monkeypatch.undo()
        grid, acqs = plan_acquisitions(plan)
        assert len({id(acq.rung) for acq in acqs}) == len(plan.rung_temperatures())
        for acq, trace in zip(acqs, traces):
            alone = synth_trace(acq.temperature, acq.drive, model, plan.noise_sigma, acq.seed,
                                detuning_grid=grid, timestamp_index=acq.timestamp_index,
                                setting_index=acq.setting_index)
            assert np.array_equal(trace.gain.view(np.uint64), alone.gain.view(np.uint64))
            assert trace.peak_intensity == alone.peak_intensity

    def test_shared_grid_covers_every_rung(self, model):
        plan = SweepPlan(t_start=1.1, t_end=2.1, traces_per_100mk=1,
                         power_settings=[(0.035, 0.55e-3)], noise_sigma=0.0,
                         model=model, base_seed=5)
        grid, acqs = plan_acquisitions(plan)
        assert all(np.array_equal(grid, grid) for _ in acqs)
        for t in plan.rung_temperatures():
            assert grid[0] < model.line_center(t) < grid[-1]

    def test_plan_validation(self, model):
        with pytest.raises(ValueError):
            SweepPlan(t_start=1.3, t_end=1.1, traces_per_100mk=1,
                      power_settings=[(1.0, 1.0)], noise_sigma=0.0, model=model)
        with pytest.raises(ValueError):
            SweepPlan(t_start=1.1, t_end=1.3, traces_per_100mk=0,
                      power_settings=[(1.0, 1.0)], noise_sigma=0.0, model=model)
        with pytest.raises(ValueError):
            SweepPlan(t_start=1.1, t_end=1.15, traces_per_100mk=1,
                      power_settings=[(1.0, 1.0)], noise_sigma=0.0,
                      model=model).rung_temperatures()

    def test_campaign_size_caps(self, model):
        # two rungs x one setting; the constructor counts, it plans nothing
        def plan(repeats, points=7):
            return SweepPlan(t_start=1.1, t_end=1.3, traces_per_100mk=repeats,
                             power_settings=[(0.035, 0.55e-3)], noise_sigma=0.0,
                             model=model, detuning_points=points)

        plan(MAX_TRACES // 2)
        with pytest.raises(ValueError, match=f"^the campaign has {MAX_TRACES + 2} traces, "
                                             f"more than {MAX_TRACES}$"):
            plan(MAX_TRACES // 2 + 1)
        plan(1, MAX_SAMPLES // 2)
        with pytest.raises(ValueError, match=f"^the campaign has {MAX_SAMPLES + 2} samples, "
                                             f"more than {MAX_SAMPLES}$"):
            plan(1, MAX_SAMPLES // 2 + 1)


class TestBinning:
    def test_single_trace_bin(self, model):
        drive = drive_for(model)
        trace = synth_trace(1.32, drive, model, 0.0, 3)
        [(center, averaged, _)] = bin_traces([trace], 0.1)
        assert center == pytest.approx(1.35, abs=1e-12)
        assert np.array_equal(averaged.gain, trace.gain)
        assert averaged.temperature == trace.temperature

    def test_lone_member_shares_its_gain(self, model):
        # a lone member is its own mean, so its bin holds no copy of it
        drive = drive_for(model)
        lone = synth_trace(1.12, drive, model, 1e-9, 0)
        pair = [synth_trace(1.25, drive, model, 1e-9, s, detuning_grid=lone.detuning_grid)
                for s in (1, 2)]
        [(_, single, n_single), (_, double, n_double)] = bin_traces([lone, *pair], 0.1)
        assert (n_single, n_double) == (1, 2)
        assert single.gain is lone.gain
        assert double.gain is not pair[0].gain
        assert np.array_equal(double.gain, (pair[0].gain + pair[1].gain) / 2.0)

    def test_identical_traces_average_to_themselves(self, model):
        drive = drive_for(model)
        # power-of-two counts average exactly; odd counts round one ulp
        traces = [synth_trace(1.15, drive, model, 0.0, s) for s in range(4)]
        [(_, averaged, _)] = bin_traces(traces, 0.1)
        assert np.array_equal(averaged.gain, traces[0].gain)
        traces5 = traces + [synth_trace(1.15, drive, model, 0.0, 4)]
        [(_, averaged5, _)] = bin_traces(traces5, 0.1)
        assert np.allclose(averaged5.gain, traces[0].gain, rtol=1e-14, atol=0)

    def test_noise_averages_down(self, model):
        drive = drive_for(model)
        sigma = 1e-9
        clean = synth_trace(1.15, drive, model, 0.0, 0)
        noisy = [synth_trace(1.15, drive, model, sigma, s) for s in range(100)]
        [(_, averaged, _)] = bin_traces(noisy, 0.1)
        resid_sd = float(np.std(averaged.gain - clean.gain))
        assert resid_sd == pytest.approx(sigma / 10.0, rel=0.10)

    def test_mismatched_grids_rejected(self, model):
        d1 = drive_for(model)
        t1 = synth_trace(1.15, d1, model, 0.0, 0)
        t2 = synth_trace(1.45, drive_for(model), model, 0.0, 1)
        with pytest.raises(ValueError, match="common detuning grid"):
            bin_traces([t1, t2], 0.1)

    def test_bin_then_fit_reproduces_model(self, model):
        # symmetric grids introduce no binning bias: the averaged noiseless
        # spectrum fits back to the generating center and width
        from tlsphonon.fitting import fit_lorentzian

        plan = SweepPlan(t_start=1.1, t_end=1.4, traces_per_100mk=4,
                         power_settings=[(0.035, 0.55e-3)], noise_sigma=0.0,
                         model=model, base_seed=0)
        traces = synth_sweep(plan)
        for center_k, averaged, _ in bin_traces(traces, 0.1):
            t = averaged.temperature
            point = solve_self_consistent(t, averaged.drive, model)
            fit = fit_lorentzian(averaged)
            assert fit.omega_hat == pytest.approx(model.line_center(t), rel=1e-12)
            assert fit.gamma_hat == pytest.approx(point.gamma_total, rel=1e-8)

    def test_bins_sorted_and_separated(self, model):
        plan = SweepPlan(t_start=1.1, t_end=1.6, traces_per_100mk=3,
                         power_settings=[(0.035, 0.55e-3)], noise_sigma=0.0,
                         model=model, base_seed=9)
        traces = synth_sweep(plan)
        binned = bin_traces(traces, 0.1)
        centers = [c for c, _, _ in binned]
        assert centers == sorted(centers)
        assert len(binned) == 5
