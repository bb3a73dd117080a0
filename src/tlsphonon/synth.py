"""Synthetic Brillouin-gain measurement campaigns.

Replicates the cryogenic measurement protocol: the fiber sits on a large
copper block that warms slowly, the synthesizer sweeps the pump-probe
detuning across the acoustic resonance, and variable attenuators step the
optical powers so the acoustic drive sweeps decades of intensity. The
warm-up is modelled as a deterministic temperature ladder -- one rung per
100 mK, several repeated acquisitions per rung at every power setting --
with i.i.d. Gaussian noise added to the gain samples only (the detuning
axis is synthesizer-set and exact).

At each rung the dissipation rate and the acoustic intensity are mutually
dependent (the drive narrows the line, the narrower line amplifies the
drive), so the pair is solved self-consistently at line center and the
emitted spectrum is the exact Lorentzian for that operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import C_LIGHT, TWO_PI
from .dissipation import (
    critical_intensity,
    freq_shift_res,
    gamma_res_weak,
    saturation_floor,
    suppression_factor,
)
from .sbs import (
    OpticalDrive,
    brillouin_frequency,
    g_b_at_linewidth,
    peak_phonon_intensity,
    stokes_gain,
)
from .tls_core import (
    MaterialParams,
    PhononMode,
    TLSEnsemble,
    _require_positive,
)

RUNG_STEP_K = 0.1          # the acquisition protocol is phrased per 100 mK
MAX_RUNGS = 10_000
MAX_TRACES = 1_000_000     # rungs x settings x repeats
MAX_SAMPLES = 100_000_000  # traces x detuning points
DEFAULT_POINTS = 401
DEFAULT_SPAN_FWHM = 10.0   # grid reaches +-10 expected linewidths
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """Fixed-point iteration for the (Gamma, J) operating point stalled."""


@dataclass(frozen=True)
class ForwardModel:
    """Everything the synthesizer and ``model`` need to evaluate the physics.

    :meth:`j_c` evaluates the ensemble's critical-intensity law J_c = a T^b;
    :func:`~tlsphonon.config.parse_config` writes every J_c source of a run
    into that law. ``drift_reference_k`` turns on the resonant frequency
    drift of the line center relative to that temperature.
    """

    material: MaterialParams
    ensemble: TLSEnsemble
    pump_wavelength: float = 1548.963e-9
    drift_reference_k: Optional[float] = None

    def __post_init__(self):
        _require_positive(pump_wavelength=self.pump_wavelength)
        if self.ensemble.jc_power_law is None:
            raise ValueError("no critical-intensity source configured: "
                             "the ensemble has no J_c power law")

    @property
    def pump_omega(self) -> float:
        return TWO_PI * C_LIGHT / self.pump_wavelength

    def j_c(self, temperature):
        """Critical intensity [W/m^2] of the longitudinal mode at ``temperature``
        (a scalar or an array)."""
        return critical_intensity(self.material, temperature, ensemble=self.ensemble)

    def line_center(self, temperature: float) -> float:
        """Acoustic resonance frequency at this temperature [rad/s]."""
        omega0 = brillouin_frequency(self.material, self.pump_omega)
        if self.drift_reference_k is None:
            return omega0
        mode = PhononMode.in_material(self.material, omega0, "L")
        return omega0 + freq_shift_res(mode, temperature, self.drift_reference_k,
                                       self.material, self.ensemble)


@dataclass(frozen=True)
class BGSTrace:
    """One recorded Brillouin gain spectrum.

    detuning_grid is strictly increasing [rad/s]; gain holds the Stokes
    power increments [W]. peak_intensity is the self-consistent acoustic
    intensity at line center for this trace's operating point, the quantity
    the saturation analysis uses.
    """

    temperature: float
    detuning_grid: np.ndarray
    gain: np.ndarray
    drive: OpticalDrive
    seed: int
    timestamp_index: int
    setting_index: int = 0
    peak_intensity: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.detuning_grid, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        object.__setattr__(self, "detuning_grid", grid)
        object.__setattr__(self, "gain", gain)
        if grid.ndim != 1 or gain.shape != grid.shape:
            raise ValueError("detuning grid and gain must be matching 1-D arrays")
        if len(grid) and not np.all(np.diff(grid) > 0.0):
            raise ValueError("detuning grid must be strictly increasing")
        if not np.all(np.isfinite(gain)):
            raise ValueError("gain samples must be finite")
        _require_positive(temperature=self.temperature)


@dataclass(frozen=True)
class SweepPlan:
    """A warm-up campaign: temperature ladder x power settings x repeats.

    ``drives`` holds one :class:`OpticalDrive` per power setting, in the order
    of ``power_settings``; every acquisition at a setting shares its drive.
    """

    t_start: float
    t_end: float
    traces_per_100mk: int
    power_settings: Sequence[Tuple[float, float]]
    noise_sigma: float
    model: ForwardModel
    base_seed: int = 0
    detuning_points: int = DEFAULT_POINTS
    detuning_span: float = DEFAULT_SPAN_FWHM
    drives: Tuple[OpticalDrive, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("need t_start < t_end")
        _require_positive(t_start=self.t_start, t_end=self.t_end,
                          detuning_span=self.detuning_span)
        rungs = (self.t_end - self.t_start) / RUNG_STEP_K
        if rungs > MAX_RUNGS:
            raise ValueError(f"the ladder has {rungs:.0f} rungs, more than {MAX_RUNGS}")
        if self.traces_per_100mk < 1:
            raise ValueError("traces_per_100mk must be positive")
        if not self.power_settings:
            raise ValueError("at least one power setting required")
        object.__setattr__(self, "drives", tuple(
            OpticalDrive(pump_power=pump, stokes_power=stokes,
                         pump_omega=self.model.pump_omega,
                         fiber_length=self.model.material.l_fut)
            for pump, stokes in self.power_settings))
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.detuning_points < 7:
            raise ValueError("detuning grid too coarse to resolve a line")
        # checked before plan_acquisitions lists a trace or allocates a grid
        traces = (len(self.rung_temperatures()) * len(self.power_settings)
                  * self.traces_per_100mk)
        if traces > MAX_TRACES:
            raise ValueError(f"the campaign has {traces} traces, more than {MAX_TRACES}")
        samples = traces * self.detuning_points
        if samples > MAX_SAMPLES:
            raise ValueError(f"the campaign has {samples} samples, more than {MAX_SAMPLES}")

    def rung_temperatures(self) -> List[float]:
        """Ladder rungs, one per 100 mK bin, sitting at the bin centers."""
        rungs = []
        k = 0
        while True:
            t = self.t_start + (k + 0.5) * RUNG_STEP_K
            if t >= self.t_end:
                break
            rungs.append(t)
            k += 1
        if not rungs:
            raise ValueError("temperature range shorter than one 100 mK step")
        return rungs


@dataclass(frozen=True)
class Rung:
    """What every acquisition at one temperature shares: the line center
    [rad/s], the weak-drive resonant loss and the saturation floor of the
    longitudinal mode there [1/s], and the critical intensity [W/m^2]."""

    temperature: float
    center: float
    gamma_weak: float
    floor: float
    j_c: float

    @classmethod
    def at(cls, temperature: float, model: ForwardModel,
           center: Optional[float] = None) -> "Rung":
        material, ensemble = model.material, model.ensemble
        if center is None:
            center = model.line_center(temperature)
        mode = PhononMode.in_material(material, center, "L")
        return cls(
            temperature=temperature,
            center=center,
            gamma_weak=gamma_res_weak(mode, temperature, material, ensemble),
            floor=saturation_floor(temperature, material, ensemble),
            j_c=model.j_c(temperature),
        )

    def grid(self, points: int = DEFAULT_POINTS, span: float = DEFAULT_SPAN_FWHM) -> np.ndarray:
        """Detuning grid centered on the line, spanning +-span weak-drive linewidths."""
        expected = self.gamma_weak + self.floor
        return np.linspace(self.center - span * expected, self.center + span * expected, points)


@dataclass(frozen=True)
class OperatingPoint:
    """Converged self-consistent line-center state of one acquisition."""

    gamma_total: float
    peak_intensity: float
    iterations: int
    residual: float


def solve_self_consistent(
    temperature: float,
    drive: OpticalDrive,
    model: ForwardModel,
    *,
    center: Optional[float] = None,
) -> OperatingPoint:
    """Solve the coupled (linewidth, intensity) fixed point at line center.

    The peak intensity scales as 1/Gamma^2 (one 1/Gamma from the steady
    state, one from the gain-linewidth product), while the resonant loss
    shrinks as the intensity saturates it. The map Gamma -> Gamma(J(Gamma))
    is monotone, so plain iteration converges for physical parameters;
    failure to do so within ``FIXED_POINT_MAX_ITER`` iterations raises
    :class:`ConvergenceError`.
    """
    return _solve_at(Rung.at(temperature, model, center), drive, model.material)


def _solve_at(rung: Rung, drive: OpticalDrive, material: MaterialParams) -> OperatingPoint:
    """:func:`solve_self_consistent` at a rung whose shared quantities are known."""
    gamma_weak, floor, j_c = rung.gamma_weak, rung.floor, rung.j_c
    # J_peak(Gamma) = coupling / Gamma^2, so coupling is J_peak at unit linewidth
    coupling = peak_phonon_intensity(drive, rung.center, 1.0, material)

    gamma = gamma_weak + floor
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        j_peak = coupling / gamma ** 2
        new_gamma = gamma_weak / suppression_factor(j_peak, j_c) + floor
        residual = abs(new_gamma - gamma) / new_gamma
        gamma = new_gamma
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise ConvergenceError(
            f"(Gamma, J) fixed point not converged after {FIXED_POINT_MAX_ITER} iterations "
            f"(last relative step {residual:.3e}); parameters are likely unphysical"
        )
    return OperatingPoint(
        gamma_total=gamma,
        peak_intensity=coupling / gamma ** 2,
        iterations=iteration,
        residual=residual,
    )


def _trace_seed(base_seed: int, timestamp_index: int) -> int:
    """Stable per-trace seed mixing; identical on every platform."""
    ss = np.random.SeedSequence([int(base_seed), int(timestamp_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def synth_trace(
    temperature: float,
    drive: OpticalDrive,
    model: ForwardModel,
    noise_sigma: float,
    seed: int,
    *,
    detuning_grid: Optional[np.ndarray] = None,
    timestamp_index: int = 0,
    setting_index: int = 0,
) -> BGSTrace:
    """Generate one gain spectrum at the given operating point.

    The (Gamma, J) pair is solved self-consistently at line center; the
    spectrum is the corresponding Lorentzian with the gain coefficient
    rescaled to the converged linewidth. Additive Gaussian noise of standard
    deviation ``noise_sigma`` [W] lands on the gain only. Bit-identical for
    identical arguments.
    """
    rung = Rung.at(temperature, model)
    acq = Acquisition(rung, drive, seed, timestamp_index, setting_index)
    return run_acquisition(acq, model, noise_sigma,
                           rung.grid() if detuning_grid is None else detuning_grid)


@dataclass(frozen=True)
class Acquisition:
    """One planned trace: everything run_acquisition needs, with its rung's
    shared quantities computed once for every acquisition at the rung."""

    rung: Rung
    drive: OpticalDrive
    seed: int
    timestamp_index: int
    setting_index: int

    @property
    def temperature(self) -> float:
        return self.rung.temperature


def plan_acquisitions(plan: SweepPlan) -> Tuple[np.ndarray, List[Acquisition]]:
    """Expand a sweep plan into its shared detuning grid and acquisition list.

    Every power setting is visited at every ladder rung, ``traces_per_100mk``
    times, rung-major, setting-minor, repeats innermost. The grid is set
    once for the whole campaign (as a synthesizer span would be), wide
    enough to cover the line at every rung including its thermal drift.
    ``timestamp_index`` is the global ordinal and seeds each trace, so each
    trace depends only on its own acquisition, not on the order of evaluation.
    """
    rungs = [Rung.at(t, plan.model) for t in plan.rung_temperatures()]

    lo = math.inf
    hi = -math.inf
    for rung in rungs:
        edges = rung.grid(points=2, span=plan.detuning_span)
        lo = min(lo, edges[0])
        hi = max(hi, edges[-1])
    grid = np.linspace(lo, hi, plan.detuning_points)

    acquisitions = []
    ordinal = 0
    for rung in rungs:
        for setting_index, drive in enumerate(plan.drives):
            for _ in range(plan.traces_per_100mk):
                acquisitions.append(Acquisition(
                    rung=rung,
                    drive=drive,
                    seed=_trace_seed(plan.base_seed, ordinal),
                    timestamp_index=ordinal,
                    setting_index=setting_index,
                ))
                ordinal += 1
    return grid, acquisitions


def run_acquisition(acq: Acquisition, model: ForwardModel, noise_sigma: float,
                    grid: np.ndarray) -> BGSTrace:
    """The trace of one acquisition on detuning ``grid``; every trace is built here."""
    rung, drive = acq.rung, acq.drive
    point = _solve_at(rung, drive, model.material)
    g_b = g_b_at_linewidth(model.material, point.gamma_total)
    gain = stokes_gain(drive, rung.center, point.gamma_total, g_b, omega_im=grid)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(acq.seed)
        gain = gain + rng.normal(0.0, noise_sigma, size=gain.shape)
    return BGSTrace(
        temperature=rung.temperature,
        detuning_grid=grid,
        gain=gain,
        drive=drive,
        seed=int(acq.seed),
        timestamp_index=acq.timestamp_index,
        setting_index=acq.setting_index,
        peak_intensity=point.peak_intensity,
    )


def synth_sweep(plan: SweepPlan) -> List[BGSTrace]:
    """Run the full warm-up campaign described by ``plan``."""
    grid, acquisitions = plan_acquisitions(plan)
    return [run_acquisition(acq, plan.model, plan.noise_sigma, grid) for acq in acquisitions]


def bin_traces(
    traces: Sequence[BGSTrace], bin_width: float
) -> List[Tuple[float, BGSTrace, int]]:
    """Average traces in temperature bins of the given width.

    All traces must share one detuning grid; resampling is out of scope and
    mismatched grids are rejected. Returns (bin center, averaged trace,
    number of member traces) sorted by bin center, empty bins omitted. The
    averaged trace carries the mean member temperature and mean peak
    intensity; drive and indices come from the first member. A lone member
    is its own mean, so its bin shares its gain array.
    """
    _require_positive(bin_width=bin_width)
    if not traces:
        return []
    grid = traces[0].detuning_grid
    for tr in traces[1:]:
        if tr.detuning_grid is not grid and not np.array_equal(tr.detuning_grid, grid):
            raise ValueError("traces do not share a common detuning grid")

    bins = {}
    for tr in traces:
        # rungs sit at bin centers; the epsilon guards exact-boundary floats
        idx = math.floor(tr.temperature / bin_width + 1e-9)
        bins.setdefault(idx, []).append(tr)

    out = []
    for idx in sorted(bins):
        members = bins[idx]
        first = members[0]
        gain = first.gain if len(members) == 1 else np.mean([m.gain for m in members], axis=0)
        averaged = BGSTrace(
            temperature=float(np.mean([m.temperature for m in members])),
            detuning_grid=grid,
            gain=gain,
            drive=first.drive,
            seed=first.seed,
            timestamp_index=first.timestamp_index,
            setting_index=first.setting_index,
            peak_intensity=float(np.mean([m.peak_intensity for m in members])),
        )
        out.append(((idx + 0.5) * bin_width, averaged, len(members)))
    return out
