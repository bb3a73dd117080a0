"""Inverse problem: from gain spectra back to tunneling-state parameters.

Stages mirror the measurement analysis: Lorentzian fits per averaged
spectrum give (center, linewidth); linewidth-vs-intensity fits per
temperature give the strength of the saturable absorption, the critical
intensity, and the non-saturable offset; a power law summarizes the
critical intensity across temperature; the offset's cubic temperature term
decomposes into relaxation absorption plus a constant floor; and the fitted
coupling predicts the frequency drift for comparison against the measured
line centers.

Every model a fit inverts is a forward function of :mod:`tlsphonon.dissipation`
or :mod:`tlsphonon.sbs`, evaluated at unit P gamma^2 or gamma_L^2 where a fit
needs a coefficient per unit of either. Both saturation fits are one least
squares over the points of every bin at once.

The nonlinear fits, Lorentzian and saturation, share one bounded
Levenberg-Marquardt solver, :func:`_levenberg_marquardt`, fed with analytic
Jacobians. It stops when a step is shorter than 1e-10 (1e-10 + ||p||) in the
fit's scaled parameters p, and raises :class:`FitError` when that takes more
than the fit's evaluation budget. The tests check it against scipy's
bounded ``least_squares`` on the same problems; no command imports
``scipy.optimize``.

All fitters are deterministic: fixed initialization rules, fixed iteration
schedule, no randomized restarts. Covariances come from the Jacobian at the
optimum scaled by the residual variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import HBAR, TWO_PI
from .dissipation import (
    freq_shift_res,
    gamma_rel_closed,
    gamma_res_strong,
    gamma_res_weak,
    jc_t1t2,
    suppression_factor,
)
from .sbs import lorentzian_profile
from .synth import BGSTrace
from .tls_core import MaterialParams, PhononMode, TLSEnsemble, min_lifetime

MAX_FIT_EVALS = 500
XTOL = 1e-10  # relative step length at which a fit has converged
MIN_SATURATION_POINTS = 5  # intensity points of one saturation fit
MIN_TEMPERATURES = 3  # points of the power law and the offset decomposition


class FitError(RuntimeError):
    """A fit could not be run or did not converge."""


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzianFit:
    """Per-spectrum fit: center, FWHM, peak gain, with 3x3 covariance
    ordered (omega_hat, gamma_hat, peak_hat)."""

    omega_hat: float
    gamma_hat: float
    peak_hat: float
    covariance: np.ndarray
    residual_norm: float

    def __post_init__(self):
        if not self.gamma_hat > 0.0:
            raise ValueError("fitted linewidth must be positive")

    @property
    def omega_sigma(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def gamma_sigma(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))

    @property
    def peak_sigma(self) -> float:
        return math.sqrt(max(self.covariance[2, 2], 0.0))


@dataclass(frozen=True)
class SaturationFit:
    """Saturation fit of one temperature bin, with the bin's mean temperature
    and probed mode; covariance ordered (p_gamma2, j_c, gamma0)."""

    p_gamma2: float
    j_c: float
    gamma0: float
    covariance: np.ndarray
    temperature: float
    mode: PhononMode

    @property
    def p_gamma2_sigma(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def j_c_sigma(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))

    @property
    def gamma0_sigma(self) -> float:
        return math.sqrt(max(self.covariance[2, 2], 0.0))


@dataclass(frozen=True)
class PowerLawFit:
    """J_c = a T^b across temperatures; covariance ordered (a, b)."""

    a: float
    b: float
    covariance: np.ndarray


@dataclass(frozen=True)
class Gamma0Decomposition:
    """Split of the non-saturable offset into a cubic term plus a floor.

    gamma0(T) = coeff_t3 * T^3 + gamma_bg. With the saturation-stage
    coupling product held fixed, coeff_t3 yields the longitudinal
    deformation potential and hence the bare spectral density.
    """

    coeff_t3: float
    gamma_bg: float
    gamma_l: float
    p: float
    covariance: np.ndarray  # (coeff_t3, gamma_bg)

    @property
    def gamma_bg_sigma(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))


@dataclass(frozen=True)
class FreqShiftRow:
    """One line of the measured-vs-predicted frequency drift table [rad/s]."""

    temperature: float
    measured: float
    predicted: float
    discrepancy: float
    uncertainty: float


@dataclass(frozen=True)
class TimesExtraction:
    """Relaxation times implied by a fitted critical intensity."""

    t1_t2: float  # product [s^2]
    t1: float     # minimum-lifetime estimate [s]
    t2: float     # t1_t2 / t1 [s]


# ---------------------------------------------------------------------------
# Lorentzian stage
# ---------------------------------------------------------------------------

def _half_max_width(x, y, i_peak):
    """Distance between the half-maximum crossings around the peak sample."""
    half = y[i_peak] / 2.0
    left = x[0]
    for i in range(i_peak, -1, -1):
        if y[i] <= half:
            left = x[i]
            break
    right = x[-1]
    for i in range(i_peak, len(y)):
        if y[i] <= half:
            right = x[i]
            break
    width = right - left
    if width <= 0.0:
        width = (x[-1] - x[0]) / 4.0  # window too narrow to show crossings
    return width


def fit_lorentzian(trace: BGSTrace) -> LorentzianFit:
    """Unweighted least-squares Lorentzian fit of one (averaged) gain spectrum.

    Initialization: center at the maximum sample, peak at its value, width
    from the half-maximum crossings. Converges when the relative step norm
    drops below 1e-10; more than 500 model evaluations raises
    :class:`FitError`. So does a spectrum that is not a line, checked in this
    order: a maximum less than 3 noise scales above the window minimum (a
    flat trace; the noise scale is the median absolute deviation of
    successive differences over sqrt(2)), a fitted FWHM under the mean
    detuning step (one noise spike), a fitted peak under 5 times its own
    sigma (noise that a wide line happens to fit), and a fitted line center
    that is not > 0 (a detuning axis shifted through zero). The residual
    norm is in the units of the gain [W]. A bin's samples share one noise
    level, so weighting them would change neither the fit nor its covariance.
    """
    x = np.asarray(trace.detuning_grid, dtype=float)
    y = np.asarray(trace.gain, dtype=float)
    if len(x) < 7:
        raise FitError(f"need at least 7 samples, got {len(x)}")
    # baseline = window minimum: a heavily truncated window has no flat
    # wings, so the median would sit halfway up the line itself; the noise
    # comes from successive differences, which the line's own spread over a
    # window that holds mostly line does not inflate
    baseline = float(np.min(y))
    steps = np.diff(y)
    noise = float(np.median(np.abs(steps - np.median(steps)))) / math.sqrt(2.0)
    i_peak = int(np.argmax(y))
    if not (y[i_peak] - baseline > 3.0 * noise):
        raise FitError(
            "no discernible peak: max is within 3 median absolute deviations "
            "of the baseline (flat trace)"
        )

    center0 = x[i_peak]
    peak0 = y[i_peak]
    gamma0 = _half_max_width(x, y, i_peak)

    # normalized parameters keep the step-norm stopping rule meaningful
    # across the wildly different scales of center, width, and peak
    scale = np.array([gamma0, gamma0, peak0])

    def model(p):
        center = center0 + p[0] * scale[0]
        gamma = p[1] * scale[1]
        peak = p[2] * scale[2]
        r = peak * lorentzian_profile(x, center, gamma) - y
        half = gamma / 2.0
        dx = x - center
        d = dx ** 2 + half ** 2
        d2 = d ** 2
        j = np.empty((len(x), 3))
        j[:, 0] = peak * half ** 2 * 2.0 * dx / d2 * scale[0]
        j[:, 1] = peak * half * dx ** 2 / d2 * scale[1]
        j[:, 2] = half ** 2 / d * scale[2]
        return r, j

    p, r, jac = _levenberg_marquardt(model, np.array([0.0, 1.0, 1.0]),
                                     np.array([-np.inf, 1e-12, 1e-12]), MAX_FIT_EVALS,
                                     "Lorentzian")
    params = np.array([center0 + p[0] * scale[0], p[1] * scale[1], p[2] * scale[2]])
    s = np.diag(scale)
    fit = LorentzianFit(
        omega_hat=float(params[0]),
        gamma_hat=float(params[1]),
        peak_hat=float(params[2]),
        covariance=s @ _covariance_from_jacobian(jac, r) @ s,
        residual_norm=float(np.linalg.norm(r)),
    )
    step = (x[-1] - x[0]) / (len(x) - 1)
    if not fit.gamma_hat >= step:
        raise FitError(f"no discernible peak: fitted FWHM {fit.gamma_hat:.3g} rad/s is narrower "
                       f"than the detuning step {step:.3g} rad/s")
    if not fit.peak_hat >= 5.0 * fit.peak_sigma:
        raise FitError(f"no discernible peak: fitted peak {fit.peak_hat:.3g} W is under "
                       f"5 times its sigma {fit.peak_sigma:.3g} W")
    if not fit.omega_hat > 0.0:
        raise FitError(f"fitted line center {fit.omega_hat / TWO_PI:.6g} Hz is not > 0")
    return fit


def _levenberg_marquardt(model, p0, lower, max_nfev: int, name: str):
    """(p, r, J) at the minimum of ||r(p)||^2 subject to p >= ``lower``, where
    ``model(p)`` returns the residual r and its Jacobian J.

    Each step solves (J^T J + lam diag(J^T J)) dp = -J^T r, Marquardt's
    damping, in the parameters scaled to unit Jacobian column norms. A step
    that crosses ``lower`` or does not lower the cost is retried with 10x the
    damping lam. A step that lowers the cost is taken, and lam is scaled by
    max(1/10, 1 - (2 rho - 1)^3), with rho the cost reduction over the one
    the linearized model predicted (Nielsen's rule): a fit whose residuals
    are large next to the noise, so that the linear model overshoots, keeps
    its damping rather than oscillating about the optimum. The fit has
    converged when a step is shorter than 1e-10 (1e-10 + ||p||); that step
    is not taken. Needing more than ``max_nfev`` evaluations of ``model``
    raises :class:`FitError`.
    """
    p = np.asarray(p0, dtype=float)
    identity = np.eye(len(p))
    r, jac = model(p)
    nfev = 1
    cost = float(r @ r)
    damping = 1e-3
    while True:
        jtj = jac.T @ jac
        norms = np.sqrt(np.diag(jtj))
        norms[norms == 0.0] = 1.0  # a column of zeros: its parameter stays put
        scaled = jtj / np.outer(norms, norms)
        grad = (jac.T @ r) / norms
        while True:
            y = -np.linalg.solve(scaled + damping * identity, grad)
            step = y / norms
            if math.sqrt(step @ step) < XTOL * (XTOL + math.sqrt(p @ p)):
                return p, r, jac
            trial = p + step
            if np.any(trial < lower):
                damping *= 10.0
                continue
            if nfev >= max_nfev:
                raise FitError(f"{name} fit did not converge within {max_nfev} evaluations")
            r_trial, jac_trial = model(trial)
            nfev += 1
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                break
            damping *= 10.0
        rho = (cost - cost_trial) / -(2.0 * (y @ grad) + y @ scaled @ y)
        damping *= max(0.1, 1.0 - (2.0 * rho - 1.0) ** 3)
        p, r, jac, cost = trial, r_trial, jac_trial, cost_trial


def _covariance_from_jacobian(jac: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """sigma_hat^2 (J^T J)^-1 with sigma_hat^2 the residual variance."""
    n, p = jac.shape
    dof = max(n - p, 1)
    sigma2 = float(residuals @ residuals) / dof
    jtj = jac.T @ jac
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(jtj)
    cov = sigma2 * inv
    return 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# saturation stage
# ---------------------------------------------------------------------------

def _coupling(p_gamma2: float) -> TLSEnsemble:
    """Unit deformation potentials, so P gamma^2 = ``p_gamma2`` in either polarization."""
    return TLSEnsemble(p=p_gamma2, gamma_l=1.0, gamma_t=1.0)


def saturation_rate(j, p_gamma2, j_c, gamma0, mode: PhononMode,
                    material: MaterialParams, temperature: float):
    """Gamma(J) = Gamma_res(J) + Gamma0 with P gamma^2 = ``p_gamma2``: the
    model every saturation fit inverts. Everything but ``p_gamma2`` and
    ``material`` may be an array, the mode frequency included."""
    return gamma_res_strong(mode, temperature, np.asarray(j, dtype=float), j_c,
                            material, _coupling(p_gamma2)) + gamma0


def _warn_if_flat(j, j_c_hat, temperature):
    if j.max() < 0.1 * j_c_hat or j.min() > 10.0 * j_c_hat:
        warnings.warn(
            f"saturation fit at T={temperature} K is in a flat direction "
            f"(J/J_c all {'<< 1' if j.max() < 0.1 * j_c_hat else '>> 1'}); "
            "J_c is weakly identified and its covariance is inflated",
            stacklevel=4,
        )


def _saturation_start(j, g, unit_rate: float) -> Tuple[float, float, float]:
    """Starting (p_gamma2, j_c, gamma0) by the rule fit_saturation documents,
    given the weak resonant rate per unit P gamma^2. The saturable amplitude
    is floored at 1e-3 gamma0, and gamma0 at 1e-3 of the linewidth range so
    that a zero smallest linewidth still gets a positive scale."""
    gamma0 = float(np.min(g))
    amp = max(float(np.max(g) - gamma0), 1e-3 * gamma0)
    return (amp / unit_rate, float(np.median(j)),
            max(gamma0, 1e-3 * float(np.max(g) - np.min(g))))


def _saturation_problem(bins, material: MaterialParams, sigmas):
    """``(model, scale)`` of the least squares over the (J, Gamma) points of
    all bins: a shared P gamma^2 plus a J_c and a Gamma0 per bin, each scaled
    by its :func:`_saturation_start` value, P gamma^2 by the median of the
    bins'. ``model(p)`` returns the (weighted) residual of
    :func:`saturation_rate` at ``p * scale`` and its Jacobian in ``p``.

    The rate is linear in P gamma^2, so the residual is P gamma^2 times the
    weak rate at unit coupling, u, evaluated once per point, over
    :func:`~tlsphonon.dissipation.suppression_factor` S = sqrt(1 + J/J_c),
    plus Gamma0. The Jacobian columns are u/S for P gamma^2,
    P gamma^2 u J / (2 J_c^2 S^3) for J_c and 1 for Gamma0; a bin's J_c and
    Gamma0 columns are nonzero only on its own points.
    """
    n = len(bins)
    arrays = [np.asarray(points, dtype=float) for _, _, points in bins]
    bin_of = np.repeat(np.arange(n), [len(a) for a in arrays])
    j, g = np.concatenate(arrays).T
    temperatures = np.array([t for t, _, _ in bins])[bin_of]
    # every bin probes one acoustic branch, so one mode object holds them all
    modes = PhononMode.in_material(material, np.array([m.omega for _, m, _ in bins])[bin_of],
                                   bins[0][1].polarization)
    unit_rates = gamma_res_weak(modes, temperatures, material, _coupling(1.0))
    # a bin's points share its mode and temperature, so its first point's
    # unit rate turns the bin's starting amplitude into a P gamma^2
    first = np.searchsorted(bin_of, np.arange(n))
    starts = np.array([_saturation_start(a[:, 0], a[:, 1], float(u))
                       for a, u in zip(arrays, unit_rates[first])])
    scale = np.concatenate([[np.median(starts[:, 0])], starts[:, 1], starts[:, 2]])
    weights = None if sigmas is None else 1.0 / np.concatenate(sigmas)
    rows = np.arange(len(j))
    template = np.zeros((len(j), 1 + 2 * n))
    template[rows, 1 + n + bin_of] = 1.0

    def model(p):
        x = p * scale
        j_c = x[1:1 + n][bin_of]
        suppression = suppression_factor(j, j_c)
        per_coupling = unit_rates / suppression
        r = x[0] * per_coupling + x[1 + n:][bin_of] - g
        jac = template.copy()
        jac[:, 0] = per_coupling
        jac[rows, 1 + bin_of] = x[0] * per_coupling * j / (2.0 * j_c ** 2 * suppression ** 2)
        jac *= scale
        if weights is not None:
            return r * weights, jac * weights[:, None]
        return r, jac

    return model, scale


def _solve_saturation(bins, material: MaterialParams, sigmas, max_nfev: int):
    """One fit per bin, in the order of ``bins``, from the least squares of
    :func:`_saturation_problem`, every scaled parameter starting at 1."""
    model, scale = _saturation_problem(bins, material, sigmas)
    p, r, jac = _levenberg_marquardt(model, np.ones(len(scale)), np.full(len(scale), 1e-12),
                                     max_nfev, "saturation")
    cov = np.diag(scale) @ _covariance_from_jacobian(jac, r) @ np.diag(scale)
    x = p * scale
    n = len(bins)
    fits = []
    for idx, (temperature, mode, points) in enumerate(bins):
        sel = [0, 1 + idx, 1 + n + idx]  # (p_gamma2, j_c, gamma0)
        fit = SaturationFit(*map(float, x[sel]), covariance=cov[np.ix_(sel, sel)],
                            temperature=temperature, mode=mode)
        _warn_if_flat(np.asarray(points, dtype=float)[:, 0], fit.j_c, temperature)
        fits.append(fit)
    return fits


def fit_saturation(
    points: Sequence[Tuple[float, float]],
    mode: PhononMode,
    material: MaterialParams,
    temperature: float,
    sigmas: Optional[Sequence[float]] = None,
) -> SaturationFit:
    """Three-parameter saturation fit of (intensity, linewidth) pairs at one T.

    Initialization: gamma0 from the smallest linewidth, the saturable
    amplitude from the linewidth range, J_c from the median intensity. Data
    entirely in the unsaturated (or fully saturated) regime cannot pin J_c;
    that case completes but emits a flat-direction warning.
    """
    j = np.asarray(points, dtype=float)[:, 0]
    if len(j) < MIN_SATURATION_POINTS:
        raise FitError(f"saturation fit needs >= {MIN_SATURATION_POINTS} intensity points, "
                       f"got {len(j)}")
    if np.any(j <= 0.0):
        raise FitError("saturation fit needs strictly positive intensities")
    if j.max() / j.min() < 10.0:
        raise FitError("saturation fit needs intensities spanning at least one decade")
    return _solve_saturation([(temperature, mode, points)], material,
                             None if sigmas is None else [sigmas], MAX_FIT_EVALS)[0]


def fit_saturation_shared(
    bins: Sequence[Tuple[float, PhononMode, Sequence[Tuple[float, float]]]],
    material: MaterialParams,
    sigmas: Optional[Sequence[Sequence[float]]] = None,
) -> List[SaturationFit]:
    """Saturation fits of every temperature bin, in the order of ``bins``,
    with a shared P gamma^2.

    The coupling product is a material constant, so it is fit globally:
    parameters are (p_gamma2, {j_c_i}, {gamma0_i}), solved in one least
    squares, and every fit holds that P gamma^2 and its sigma. Every bin
    starts from the rule fit_saturation documents, and P gamma^2 from the
    median of the bins' starts. A bin too small for a fit of its own still
    takes part; it needs no point count or decade span.
    """
    if not bins:
        raise FitError("no bins to fit")
    return _solve_saturation(bins, material, sigmas, 200 * (1 + 2 * len(bins)))


# ---------------------------------------------------------------------------
# power law, offset decomposition, times
# ---------------------------------------------------------------------------

def _linear_fit(design: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(coefficients, covariance) of the linear least squares design @ c = y."""
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    # a linear fit's Jacobian is its design matrix
    return coef, _covariance_from_jacobian(design, y - design @ coef)


def fit_powerlaw(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Fit J_c = a T^b by linear least squares in (ln T, ln J_c).

    Needs at least three points (two would leave the covariance undefined);
    invariant under reordering of the points.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < MIN_TEMPERATURES:
        raise FitError(f"power-law fit needs >= {MIN_TEMPERATURES} points, got {len(pts)}")
    if np.any(pts <= 0.0):
        raise FitError("power-law fit needs positive temperatures and intensities")
    lt, lj = np.log(pts).T
    coef, cov_log = _linear_fit(np.column_stack([np.ones_like(lt), lt]), lj)
    a = math.exp(coef[0])
    jac = np.diag([a, 1.0])  # (ln a, b) -> (a, b)
    return PowerLawFit(a=a, b=float(coef[1]), covariance=jac @ cov_log @ jac.T)


def fit_gamma0_decomposition(
    points: Sequence[Tuple[float, float]],
    material: MaterialParams,
    p_gamma2: float,
) -> Gamma0Decomposition:
    """Split the fitted offsets Gamma0(T) into c T^3 + Gamma_bg.

    Linear least squares in (T^3, 1). With the coupling product from the
    saturation stage held fixed, and the transverse coupling the ensemble's
    default, the cubic coefficient determines the longitudinal deformation
    potential and the bare spectral density.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < MIN_TEMPERATURES:
        raise FitError(f"offset decomposition needs >= {MIN_TEMPERATURES} points, "
                       f"got {len(pts)}")
    t3 = pts[:, 0] ** 3
    coef, cov = _linear_fit(np.column_stack([t3, np.ones_like(t3)]), pts[:, 1])
    coeff_t3, gamma_bg = float(coef[0]), float(coef[1])
    if coeff_t3 <= 0.0:
        raise FitError("offset decomposition found a nonpositive cubic term; "
                       "relaxation absorption is not identifiable in this data")

    # Gamma_rel is linear in gamma_L^2 at fixed P gamma_L^2: the cubic
    # coefficient per unit gamma_L^2 is Gamma_rel(1 K) at gamma_L = 1
    per_unit = gamma_rel_closed(1.0, "L", material, TLSEnsemble(p=p_gamma2, gamma_l=1.0))
    gamma_l_sq = coeff_t3 / per_unit
    gamma_l = math.sqrt(gamma_l_sq)
    return Gamma0Decomposition(
        coeff_t3=coeff_t3,
        gamma_bg=gamma_bg,
        gamma_l=gamma_l,
        p=p_gamma2 / gamma_l_sq,
        covariance=cov,
    )


def extract_times(sat: SaturationFit, material: MaterialParams,
                  ensemble: TLSEnsemble) -> TimesExtraction:
    """Relaxation times from a fitted critical intensity, at the fit's own
    bin: its mode and temperature.

    T1 T2 = :func:`~tlsphonon.dissipation.jc_t1t2` / J_c; T1 is estimated as
    the minimum TLS lifetime at the probed splitting, and T2 follows from the
    product.
    """
    t1_t2 = jc_t1t2(material, ensemble, sat.mode.polarization) / sat.j_c
    t1 = min_lifetime(HBAR * sat.mode.omega, material, ensemble, sat.temperature)
    return TimesExtraction(t1_t2=t1_t2, t1=t1, t2=t1_t2 / t1)


# ---------------------------------------------------------------------------
# frequency drift comparison
# ---------------------------------------------------------------------------

def compare_freq_shift(
    fits: Sequence[Tuple[float, LorentzianFit]],
    t0: float,
    material: MaterialParams,
    *,
    p_gamma2: float,
    p_gamma2_sigma: float = 0.0,
) -> List[FreqShiftRow]:
    """Measured center drift vs the resonant-absorption prediction.

    The fit whose temperature is closest to ``t0`` anchors both columns, so
    the reference row reads (0, 0) exactly. The prediction uses the coupling
    product ``p_gamma2`` in :func:`~tlsphonon.dissipation.freq_shift_res` at
    the reference center frequency; its sigma propagates into the per-row
    uncertainty together with the measured center uncertainties.
    """
    if not fits:
        raise FitError("no fits to compare")
    temps = np.array([t for t, _ in fits])
    if not (temps.min() <= t0 <= temps.max()):
        raise FitError(f"fits do not span the reference temperature {t0} K")
    ref_idx = int(np.argmin(np.abs(temps - t0)))
    t_ref, ref = fits[ref_idx]
    if not p_gamma2 > 0:
        raise FitError(f"coupling product P gamma^2 must be positive, got {p_gamma2}")

    mode = PhononMode.in_material(material, ref.omega_hat, "L")
    shifts = freq_shift_res(mode, temps, t_ref, material, _coupling(p_gamma2))
    rows = []
    for (temperature, fit), shift in zip(fits, shifts):
        if fit is ref:
            measured = 0.0
            predicted = 0.0
            sigma_meas = 0.0
        else:
            measured = fit.omega_hat - ref.omega_hat
            predicted = float(shift)
            sigma_meas = math.hypot(fit.omega_sigma, ref.omega_sigma)
        sigma_pred = abs(predicted) * (p_gamma2_sigma / p_gamma2)
        rows.append(FreqShiftRow(
            temperature=temperature,
            measured=measured,
            predicted=predicted,
            discrepancy=measured - predicted,
            uncertainty=math.hypot(sigma_meas, sigma_pred),
        ))
    return rows
