"""The digamma function entering the sound-velocity shift.

An in-house numpy kernel (recurrence plus Stirling series), so the commands
that evaluate a frequency shift load no scipy module. The elementary
functions of the closed forms, coth and the unit Lorentzian, are plain
arithmetic in :mod:`tlsphonon.tls_core`, and the quadrature that checks the
closed forms lives in :mod:`tlsphonon.oracles`.
"""

from __future__ import annotations

import numpy as np

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
