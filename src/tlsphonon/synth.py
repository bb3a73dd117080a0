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
emitted spectrum is the exact Lorentzian for that operating point: the
root :func:`saturated_linewidth` finds, which the saturation fit inverts.
The plan a campaign is expanded from, :class:`~tlsphonon.config.SweepPlan`,
and its :class:`~tlsphonon.config.ForwardModel` are the config's types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_POINTS, DEFAULT_SPAN_FWHM, ForwardModel, SweepPlan
from .dissipation import gamma_res_weak, saturation_floor
from .sbs import OpticalDrive, g_b_at_linewidth, peak_phonon_intensity, stokes_gain
from .tls_core import MaterialParams, PhononMode, _require_positive

FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 200


class ConvergenceError(ValueError):
    """Newton's method for the (Gamma, J) operating point did not converge, a
    sign of non-finite input: like any other bad input, one ``error:`` line."""


@dataclass(frozen=True)
class BGSTrace:
    """One recorded Brillouin gain spectrum.

    detuning_grid is finite and strictly increasing [rad/s]; gain holds the
    finite Stokes power increments [W]. Like an instrument, it records no
    acoustic intensity.
    """

    temperature: float
    detuning_grid: np.ndarray
    gain: np.ndarray
    drive: OpticalDrive
    seed: int
    timestamp_index: int
    setting_index: int = 0

    def __post_init__(self):
        grid = np.asarray(self.detuning_grid, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        object.__setattr__(self, "detuning_grid", grid)
        object.__setattr__(self, "gain", gain)
        if grid.ndim != 1 or gain.shape != grid.shape:
            raise ValueError("detuning grid and gain must be matching 1-D arrays")
        for name, samples in (("detuning grid", grid), ("gain", gain)):
            finite = np.isfinite(samples)
            if not finite.all():
                at = int(np.argmin(finite))  # the first non-finite sample
                raise ValueError(f"{name} samples must be finite; the one at index {at} "
                                 f"is {float(samples[at])!r}")
        if len(grid) and not np.all(np.diff(grid) > 0.0):
            raise ValueError("detuning grid must be strictly increasing")
        _require_positive(temperature=self.temperature)


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
    """Self-consistent line-center state of one acquisition, and its Newton steps."""

    gamma_total: float
    peak_intensity: float
    iterations: int


def saturated_linewidth(gamma_weak, floor, k):
    """(Gamma, steps) of Gamma = gamma_weak / sqrt(1 + k / Gamma^2) + floor,
    k = C / J_c with C = J Gamma^2 fixed by the drive; floats or arrays.

    Newton on g = (Gamma - floor) sqrt(Gamma^2 + k) - gamma_weak Gamma from
    gamma_weak + floor: g is convex on (floor, inf), g(floor) < 0 <=
    g(gamma_weak + floor), so the iterates descend to the one root. It stops
    once every step is under ``FIXED_POINT_TOL`` of Gamma.
    """
    gamma = gamma_weak + floor
    for step in range(1, FIXED_POINT_MAX_ITER + 1):
        root = np.sqrt(gamma * gamma + k)
        above = gamma - floor
        delta = (above * root - gamma_weak * gamma) / (root + above * gamma / root - gamma_weak)
        gamma = gamma - delta
        if np.all(delta < FIXED_POINT_TOL * gamma):
            return gamma, step
    raise ConvergenceError(f"(Gamma, J) fixed point not converged after {FIXED_POINT_MAX_ITER} "
                           f"iterations; parameters are likely unphysical")


def solve_self_consistent(
    temperature: float,
    drive: OpticalDrive,
    model: ForwardModel,
    *,
    center: Optional[float] = None,
) -> OperatingPoint:
    """Solve the coupled (linewidth, intensity) pair at line center.

    The peak intensity scales as 1/Gamma^2 (one 1/Gamma from the steady
    state, one from the gain-linewidth product), while the resonant loss
    shrinks as the intensity saturates it; :func:`saturated_linewidth`
    finds the one linewidth that closes the loop.
    """
    return _solve_at(Rung.at(temperature, model, center), drive, model.material)


def _solve_at(rung: Rung, drive: OpticalDrive, material: MaterialParams) -> OperatingPoint:
    """:func:`solve_self_consistent` at a rung whose shared quantities are known."""
    # J_peak(Gamma) = coupling / Gamma^2, so coupling is J_peak at unit linewidth
    with np.errstate(over="ignore"):
        coupling = peak_phonon_intensity(drive, rung.center, 1.0, material)
    if not coupling < math.inf:
        raise ValueError(f"power setting ({drive.pump_power!r} W, {drive.stokes_power!r} W): "
                         f"its acoustic intensity at unit linewidth overflows a double")
    gamma, steps = saturated_linewidth(rung.gamma_weak, rung.floor, coupling / rung.j_c)
    return OperatingPoint(gamma_total=gamma, peak_intensity=coupling / gamma ** 2,
                          iterations=steps)


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
    averaged trace carries the mean member temperature; drive and indices
    come from the first member. A lone member is its own mean, so its bin
    shares its gain array.
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
        )
        out.append(((idx + 0.5) * bin_width, averaged, len(members)))
    return out
