"""Fit-pipeline orchestration: traces in, parameter report out.

Runs the full inverse chain -- per-setting temperature binning, Lorentzian
fits, (shared or per-temperature) saturation fits, the critical-intensity
power law, the offset decomposition, relaxation-time extraction, and the
frequency-drift comparison -- collecting every stage's output into one
report. Individual trace or bin failures are recorded and skipped; only a
majority of failures aborts a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .config import RunConfig
from .constants import EV, TWO_PI
from .dataset import require_key
from .fitting import (
    MIN_SATURATION_POINTS,
    MIN_TEMPERATURES,
    FitError,
    LorentzianFit,
    SaturationFit,
    compare_freq_shift,
    extract_times,
    fit_gamma0_decomposition,
    fit_lorentzian,
    fit_powerlaw,
    fit_saturation,
    fit_saturation_shared,
)
from .sbs import peak_phonon_intensity
from .synth import BGSTrace, bin_traces
from .tls_core import PhononMode

# the report's row tables and their columns, in CSV order
TABLE_COLUMNS = {
    "per_bin": ("bin_center_k", "temperature_k", "setting_index", "n_traces",
                "intensity_w_m2", "omega_hat_hz", "omega_sigma_hz",
                "gamma_hat_hz", "gamma_sigma_hz", "peak_hat_w", "residual_norm"),
    "per_temperature": ("temperature_k", "p_gamma2_j_m3", "p_gamma2_sigma_j_m3",
                        "j_c_w_m2", "j_c_sigma_w_m2", "gamma0_hz", "gamma0_sigma_hz",
                        "t1_t2_s2", "t1_s", "t2_s"),
    "freq_shift": ("temperature_k", "measured_shift_hz", "predicted_shift_hz",
                   "discrepancy_hz", "uncertainty_hz"),
}


@dataclass(frozen=True)
class FitUnit:
    """One averaged spectrum, a power setting in one temperature bin; ``fit``
    and ``intensity`` are set by the Lorentzian stage."""

    setting: int
    center: float  # bin center [K]
    trace: BGSTrace  # average of the bin's member traces
    n_traces: int
    fit: Optional[LorentzianFit] = None
    intensity: float = 0.0  # peak acoustic intensity [W/m^2]


@dataclass
class PipelineResult:
    """Everything cmd_fit writes: the report plus stage intermediates."""

    report: dict
    binned: List[FitUnit]
    n_fit_units: int
    n_failures: int

    @property
    def failure_fraction(self) -> float:
        if self.n_fit_units == 0:
            return 1.0
        return self.n_failures / self.n_fit_units


def _hz(x: float) -> float:
    return x / TWO_PI


def _assign_intensity(trace: BGSTrace, fit: LorentzianFit, config: RunConfig) -> float:
    """Peak acoustic intensity for a (trace, fit) pair.

    Synthetic traces carry the self-consistent value; externally recorded
    data falls back to the optical-power relation evaluated with the fitted
    linewidth.
    """
    if trace.peak_intensity > 0.0:
        return trace.peak_intensity
    return peak_phonon_intensity(trace.drive, fit.omega_hat, fit.gamma_hat, config.material)


def _bin_stage(traces: List[BGSTrace], bin_width: float) -> List[FitUnit]:
    """One unit per (setting, temperature bin), settings ascending, then bins."""
    setting_of = attrgetter("setting_index")
    return [FitUnit(setting, center, averaged, n_traces)
            for setting, group in groupby(sorted(traces, key=setting_of), setting_of)
            for center, averaged, n_traces in bin_traces(list(group), bin_width)]


def _lorentz_stage(units: List[FitUnit], config: RunConfig,
                   errors: List[str]) -> List[FitUnit]:
    """The units whose spectrum :func:`fit_lorentzian` accepts as a line,
    each refusal to ``errors``."""
    fitted = []
    for unit in units:
        try:
            fit = fit_lorentzian(unit.trace)
        except FitError as exc:
            errors.append(f"bin {unit.center:.3f} K setting {unit.setting}: {exc}")
            continue
        fitted.append(replace(unit, fit=fit,
                              intensity=_assign_intensity(unit.trace, fit, config)))
    return fitted


def _per_bin_row(unit: FitUnit) -> dict:
    fit = unit.fit
    return dict(zip(TABLE_COLUMNS["per_bin"], (
        unit.center, unit.trace.temperature, unit.setting, unit.n_traces, unit.intensity,
        _hz(fit.omega_hat), _hz(fit.omega_sigma), _hz(fit.gamma_hat), _hz(fit.gamma_sigma),
        fit.peak_hat, fit.residual_norm)))


def _saturation_inputs(fitted: List[FitUnit], config: RunConfig):
    """``(bins, sigmas)`` over the bin centers that enough settings reach:
    bins as fit_saturation_shared takes them, and their linewidth sigmas."""
    bins, sigmas = [], []
    center_of = attrgetter("center")
    for _, group in groupby(sorted(fitted, key=center_of), center_of):
        units = list(group)
        if len(units) < MIN_SATURATION_POINTS:
            continue
        omega_mean = float(np.mean([u.fit.omega_hat for u in units]))
        bins.append((
            float(np.mean([u.trace.temperature for u in units])),
            PhononMode.in_material(config.material, omega_mean, "L"),
            [(u.intensity, u.fit.gamma_hat) for u in units],
        ))
        sigmas.append([max(u.fit.gamma_sigma, 1e-30) for u in units])
    return bins, sigmas


def _saturation_stage(bins, sigmas, config: RunConfig, shared: bool,
                      notes: List[str]):
    """Saturation fits in the order of ``bins``, then P*gamma^2 and its sigma,
    each the median over the fits (exact when shared, as every fit holds one
    value; None and 0.0 if no fit was made). A failing fit is noted; a
    failing per-bin fit is skipped."""
    if not bins:
        notes.append(
            f"saturation stage skipped: fewer than {MIN_SATURATION_POINTS} "
            "power settings per temperature bin"
        )
        return [], None, 0.0
    saturation: List[SaturationFit] = []
    if shared:
        try:
            saturation = fit_saturation_shared(bins, config.material, sigmas=sigmas)
        except FitError as exc:
            notes.append(f"saturation stage failed: {exc}")
    else:
        for (t, mode, points), sig in zip(bins, sigmas or [None] * len(bins)):
            try:
                saturation.append(fit_saturation(points, mode, config.material, t, sigmas=sig))
            except FitError as exc:
                notes.append(f"saturation fit at {t:.3f} K failed: {exc}")
    if not saturation:
        return saturation, None, 0.0
    return (saturation, float(np.median([s.p_gamma2 for s in saturation])),
            float(np.median([s.p_gamma2_sigma for s in saturation])))


def _powerlaw_stage(saturation: List[SaturationFit], config: RunConfig,
                    p_gamma2: float, notes: List[str]):
    """J_c power law and offset decomposition; either is None when not fitted."""
    powerlaw = None
    decomposition = None
    if len(saturation) >= MIN_TEMPERATURES:
        try:
            powerlaw = fit_powerlaw([(s.temperature, s.j_c) for s in saturation])
        except FitError as exc:
            notes.append(f"power-law stage failed: {exc}")
        try:
            decomposition = fit_gamma0_decomposition(
                [(s.temperature, s.gamma0) for s in saturation],
                config.material, p_gamma2)
        except FitError as exc:
            notes.append(f"offset decomposition failed: {exc}")
    elif saturation:
        notes.append("too few temperature bins for power-law / decomposition stages")
    return powerlaw, decomposition


def _times_stage(saturation: List[SaturationFit], decomposition,
                 config: RunConfig) -> List[dict]:
    """Per-temperature rows: each saturation fit and the relaxation times
    at its bin's mode and temperature."""
    ensemble_fit = config.ensemble
    if decomposition is not None:
        # gamma_t=None: the default transverse coupling the decomposition assumed
        ensemble_fit = replace(config.ensemble, p=decomposition.p,
                               gamma_l=decomposition.gamma_l, gamma_t=None)
    rows = []
    for sat in saturation:
        times = extract_times(sat, config.material, ensemble_fit)
        rows.append(dict(zip(TABLE_COLUMNS["per_temperature"], (
            sat.temperature, sat.p_gamma2, sat.p_gamma2_sigma, sat.j_c, sat.j_c_sigma,
            _hz(sat.gamma0), _hz(sat.gamma0_sigma), times.t1_t2, times.t1, times.t2))))
    return rows


def _shift_stage(fitted: List[FitUnit], config: RunConfig, p_gamma2: float,
                 p_gamma2_sigma: float, notes: List[str]) -> List[dict]:
    """Measured against predicted line-center drift, from one power setting."""
    # the least saturated setting tracks the bare line most closely
    by_setting = [list(group) for _, group in groupby(fitted, attrgetter("setting"))]
    reference = min(by_setting, key=lambda units: float(np.mean([u.intensity for u in units])))
    if len(reference) < 2:
        return []
    t0 = float(config.fit_section().get("t0_k", reference[0].trace.temperature))
    try:
        rows = compare_freq_shift(
            [(u.trace.temperature, u.fit) for u in reference], t0, config.material,
            p_gamma2=p_gamma2, p_gamma2_sigma=p_gamma2_sigma)
    except FitError as exc:
        notes.append(f"frequency-shift stage failed: {exc}")
        return []
    return [dict(zip(TABLE_COLUMNS["freq_shift"], (
        r.temperature, _hz(r.measured), _hz(r.predicted), _hz(r.discrepancy),
        _hz(r.uncertainty)))) for r in rows]


def _global_block(p_gamma2: Optional[float], p_gamma2_sigma: float,
                  powerlaw, decomposition) -> dict:
    glob = {}
    if p_gamma2 is not None:
        glob["p_gamma2_j_m3"] = p_gamma2
        glob["p_gamma2_sigma_j_m3"] = p_gamma2_sigma
    if powerlaw is not None:
        glob["a_w_m2"] = powerlaw.a
        glob["a_sigma_w_m2"] = float(math.sqrt(max(powerlaw.covariance[0, 0], 0.0)))
        glob["b"] = powerlaw.b
        glob["b_sigma"] = float(math.sqrt(max(powerlaw.covariance[1, 1], 0.0)))
    if decomposition is not None:
        glob["gamma_bg_hz"] = _hz(decomposition.gamma_bg)
        glob["gamma_bg_sigma_hz"] = _hz(decomposition.gamma_bg_sigma)
        glob["gamma_l_ev"] = decomposition.gamma_l / EV
        glob["p_per_j_m3"] = decomposition.p
        glob["coeff_t3_hz_k3"] = _hz(decomposition.coeff_t3)
    return glob


def run_fit_pipeline(
    traces: List[BGSTrace],
    config: RunConfig,
    *,
    load_errors: Optional[List[str]] = None,
) -> PipelineResult:
    """Fit ``traces`` stage by stage: bin, Lorentzian, saturation, power law
    and decomposition, times, frequency drift, global block. ``fit.weighted``
    weights each saturation point by its Lorentzian linewidth sigma."""
    fit_cfg = config.fit_section()
    errors: List[str] = list(load_errors or [])
    notes: List[str] = []

    units = _bin_stage(traces, float(fit_cfg["bin_width_k"]))
    fitted = _lorentz_stage(units, config, errors)
    report = {
        "version": __version__,
        "config_sha256": config.sha256,
        "per_bin": [_per_bin_row(u) for u in fitted],
        "per_temperature": [],
        "freq_shift": [],
        "global": {},
        "errors": errors,
        "notes": notes,
    }
    result = PipelineResult(report=report, binned=units, n_fit_units=len(units),
                            n_failures=len(units) - len(fitted))
    if not fitted:
        notes.append("no bin produced a usable Lorentzian fit")
        return result

    bins, sigmas = _saturation_inputs(fitted, config)
    saturation, fitted_p_gamma2, p_gamma2_sigma = _saturation_stage(
        bins, sigmas if fit_cfg["weighted"] else None, config, fit_cfg["shared_p_gamma2"],
        notes)
    # no saturation fit: the later stages take the configured coupling product
    p_gamma2 = (config.ensemble.p * config.ensemble.gamma_l ** 2 if fitted_p_gamma2 is None
                else fitted_p_gamma2)
    powerlaw, decomposition = _powerlaw_stage(saturation, config, p_gamma2, notes)
    report["per_temperature"] = _times_stage(saturation, decomposition, config)
    report["freq_shift"] = _shift_stage(fitted, config, p_gamma2, p_gamma2_sigma, notes)
    report["global"] = _global_block(fitted_p_gamma2, p_gamma2_sigma, powerlaw, decomposition)
    return result


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _fmt_value(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def render_report_table(report: dict, config: RunConfig,
                        source: Path = Path("report.json")) -> str:
    """Text table comparing fitted parameters against the configured values.

    The J_c, a and b references are the config's J_c law. A first
    per-temperature row without a value the table shows is a
    ValueError naming ``source``, the file ``report`` came from, and the key.
    """
    ens = config.ensemble
    glob = report.get("global", {})
    per_t = report.get("per_temperature", [])

    ref_jc = None
    fit_jc = None
    t_low = None
    if per_t:
        t_low, fit_jc, t1_t2, t1, t2 = (
            require_key(per_t[0], key, source)
            for key in ("temperature_k", "j_c_w_m2", "t1_t2_s2", "t1_s", "t2_s"))
        ref_jc = ens.j_c_from_power_law(t_low)
    ref_a, ref_b = ens.jc_power_law

    rows = [
        ("P*gamma_L^2 [J/m^3]", glob.get("p_gamma2_j_m3"), ens.p * ens.gamma_l ** 2),
        (f"J_c({_fmt_value(t_low)} K) [W/m^2]", fit_jc, ref_jc),
        ("a [W/m^2 K^-b]", glob.get("a_w_m2"), ref_a),
        ("b", glob.get("b"), ref_b),
        ("gamma_L [eV]", glob.get("gamma_l_ev"), ens.gamma_l / EV),
        ("P [1/(J m^3)]", glob.get("p_per_j_m3"), ens.p),
        ("Gamma_BG/2pi [kHz]",
         glob.get("gamma_bg_hz", None) and glob["gamma_bg_hz"] / 1e3,
         ens.gamma_bg / TWO_PI / 1e3),
    ]
    if per_t:
        rows.append((f"sqrt(T1 T2)({_fmt_value(t_low)} K) [ns]",
                     math.sqrt(t1_t2) * 1e9, None))
        rows.append((f"T1({_fmt_value(t_low)} K) [ns]", t1 * 1e9, None))
        rows.append((f"T2({_fmt_value(t_low)} K) [ns]", t2 * 1e9, None))

    name_w = max(len(r[0]) for r in rows)
    lines = [
        f"{'parameter':<{name_w}}  {'fitted':>12}  {'reference':>12}",
        "-" * (name_w + 28),
    ]
    for name, fitted, ref in rows:
        lines.append(f"{name:<{name_w}}  {_fmt_value(fitted):>12}  {_fmt_value(ref):>12}")
    return "\n".join(lines)
