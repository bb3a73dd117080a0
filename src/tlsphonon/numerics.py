"""Shared special functions and quadrature engines.

These exist to serve as *independent* numerical routes against the
closed-form dissipation expressions elsewhere in the package: the digamma
function entering the sound-velocity shift, numerically stable hyperbolics
for thermal factors at millikelvin temperatures, and adaptive 1-D/2-D
quadrature used to evaluate the ensemble integrals that the closed forms
approximate. The digamma is an in-house numpy kernel (recurrence plus
Stirling series), so the commands that evaluate a frequency shift load no
scipy module. The quadrature is QUADPACK through ``scipy.integrate.quad``,
imported only when an oracle integrates; its QAGI maps an infinite range,
and break points need a finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when an adaptive quadrature fails to converge.

    Carries the best available estimate so callers can report it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature.

    value           integral estimate, in the caller's units
    error_estimate  absolute error estimate (>= 0)
    evaluations     number of integrand evaluations
    rtol, atol      tolerances the convergence test uses
    message         integrator diagnostic when convergence was not reached
    """

    value: float
    error_estimate: float
    evaluations: int
    rtol: float
    atol: float
    message: Optional[str] = None

    @property
    def converged(self) -> bool:
        if self.message is not None:
            return False
        return self.error_estimate <= self.rtol * abs(self.value) + self.atol

    def checked(self, what: str) -> float:
        """``value`` when converged; otherwise raise :class:`QuadratureError`
        naming ``what`` and carrying this result."""
        if not self.converged:
            raise QuadratureError(
                f"{what} did not converge: {self.message} "
                f"(estimate {self.value!r} +- {self.error_estimate!r})",
                result=self,
            )
        return self.value


# ---------------------------------------------------------------------------
# stable hyperbolics
# ---------------------------------------------------------------------------

def coth(x: float) -> float:
    """Hyperbolic cotangent, safe over the full float range.

    math.tanh saturates to +-1 for |x| > ~19 without overflow, so 1/tanh
    needs no clamping; for |x| down to ~1e-300 the 1/x growth stays finite.
    """
    if x == 0.0:
        raise ValueError("coth(0) diverges")
    return 1.0 / math.tanh(x)


def sech_squared(x: float) -> float:
    """sech(x)**2 without overflowing cosh at |x| > ~710."""
    ax = abs(x)
    if ax > 350.0:
        # 4 e^{-2x} / (1 + e^{-2x})^2, denominator ~ 1
        e = math.exp(-2.0 * ax)
        return 4.0 * e
    c = math.cosh(ax)
    return 1.0 / (c * c)


def unit_lorentzian(x):
    """1 / (1 + x^2), the Lorentzian of unit peak and half-width; float or array."""
    return 1.0 / (1.0 + x * x)


def bose_occupation(x: float) -> float:
    """Mean thermal occupation 1/(e^x - 1) for x = E/kT > 0."""
    if x <= 0.0:
        raise ValueError("occupation needs a positive E/kT argument")
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------

# psi(z) = psi(z + n) - sum_{k<n} 1/(z + k) (A&S 6.3.5) lifts |z| to where the
# Stirling series (A&S 6.3.18) converges to double precision; a shift of 8
# leaves errors of ~1e-13
_DIGAMMA_SHIFT = np.arange(12.0)
# B_2n / 2n for n = 1..5, the coefficients of w^-2n in the Stirling series
_STIRLING = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)


def digamma_half_plus_imag(x):
    """Re psi(1/2 + i x), the thermal kernel of the TLS sound-velocity shift.

    Even in x; equals psi(1/2) = -euler_gamma - 2 ln 2 at x = 0 and grows
    like ln|x| for large |x|. Accepts a float or an array; the error is
    within ~2e-15 x max(1, |psi|), and the value stays finite up to the
    largest float.
    """
    z = 0.5 + 1j * np.abs(x)
    w = z + len(_DIGAMMA_SHIFT)
    r = 1.0 / w      # 1/w and then 1/w^2, since w*w overflows for |x| > ~1e154
    u = r * r
    series = 0.0
    for c in reversed(_STIRLING):
        series = u * (c + series)
    lifts = (1.0 / (np.expand_dims(z, -1) + _DIGAMMA_SHIFT)).sum(axis=-1)
    return (np.log(w) - 0.5 * r - series - lifts).real


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

def quad_adaptive(
    integrand: Callable[[float], float],
    a: float,
    b: float,
    *,
    rtol: float = 1e-8,
    atol: float = 0.0,
    points=None,
    limit: int = 200,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``integrand`` over [a, b].

    An infinite endpoint is handed to QUADPACK's QAGI, which maps the range
    onto (0, 1] itself; either or both endpoints may be infinite.

    ``points`` lists interior break points where the integrand is sharply
    peaked; without them the subdivision can step over a spike much
    narrower than the interval. Break points need a finite range.

    Returns a :class:`QuadratureResult`; inspect ``converged``, or call
    ``checked``, rather than expecting an exception. Non-convergence is
    never silent: the result carries the integrator's message.
    """
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    # epsabs=0 would make QUADPACK chase pure relative error on integrals
    # that may legitimately be 0; keep a tiny floor instead.
    epsabs = atol if atol > 0.0 else 1e-300
    from scipy.integrate import quad  # only the quadrature oracles integrate

    out = quad(
        integrand, a, b,
        epsabs=epsabs, epsrel=rtol, limit=limit,
        points=points, full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    message = out[3] if len(out) > 3 else None
    return QuadratureResult(
        value=float(value),
        error_estimate=float(abserr),
        evaluations=int(info["neval"]),
        rtol=rtol,
        atol=atol,
        message=message,
    )


def quad2d_adaptive(
    integrand: Callable[[float, float], float],
    outer,
    inner,
    *,
    rtol: float = 1e-8,
    atol: float = 0.0,
) -> QuadratureResult:
    """Nested adaptive quadrature of ``integrand(u, v)``.

    ``outer`` is the (u_lo, u_hi) interval for the first argument; ``inner``
    is either a fixed (v_lo, v_hi) pair or a callable u -> (v_lo, v_hi).
    The inner stage runs at 10x tighter relative tolerance so the outer
    error estimate dominates. Any inner-stage non-convergence aborts with
    :class:`QuadratureError` carrying the partial result.
    """
    count = [0]
    inner_rtol = rtol * 0.1

    def outer_integrand(u: float) -> float:
        v_lo, v_hi = inner(u) if callable(inner) else inner

        def f(v: float) -> float:
            count[0] += 1
            return integrand(u, v)

        res = quad_adaptive(f, v_lo, v_hi, rtol=inner_rtol, atol=atol)
        return res.checked(f"inner quadrature at u={u!r}")

    out = quad_adaptive(outer_integrand, outer[0], outer[1], rtol=rtol, atol=atol)
    return QuadratureResult(
        value=out.value,
        error_estimate=out.error_estimate,
        evaluations=count[0],
        rtol=rtol,
        atol=atol,
        message=out.message,
    )
