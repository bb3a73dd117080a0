"""Special functions and quadrature against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from tlsphonon.numerics import digamma_half_plus_imag
from tlsphonon.oracles import (
    QuadratureError,
    QuadratureResult,
    bose_occupation,
    quad2d_adaptive,
    quad_adaptive,
    sech_squared,
)
from tlsphonon.tls_core import coth

EULER_GAMMA = 0.5772156649015328606


def mp_digamma_half_plus_imag(x):
    with mpmath.workdps(40):
        return float(mpmath.digamma(mpmath.mpc(0.5, x)).real)


class TestDigamma:
    def test_at_zero(self):
        assert digamma_half_plus_imag(0.0) == pytest.approx(
            -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13
        )

    def test_even_in_x(self):
        for x in (0.3, 1.7, 42.0, 9999.0):
            assert digamma_half_plus_imag(x) == digamma_half_plus_imag(-x)
        xs = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
        assert np.array_equal(digamma_half_plus_imag(-xs), digamma_half_plus_imag(xs))

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e4])
    def test_against_series_oracle(self, x):
        assert digamma_half_plus_imag(x) == pytest.approx(
            mp_digamma_half_plus_imag(x), rel=1e-10, abs=1e-12
        )

    def test_oracle_sweep(self):
        xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 60)])
        for x in xs:
            mine = digamma_half_plus_imag(float(x))
            ref = mp_digamma_half_plus_imag(float(x))
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_full_range_to_double_precision(self):
        # x = 0 and 2014 log-spaced points over twelve decades, as one array,
        # against the 40-digit oracle: a few ulps of max(1, |psi|)
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 2014)])
        ref = np.array([mp_digamma_half_plus_imag(float(x)) for x in xs])
        err = np.abs(digamma_half_plus_imag(xs) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 4e-15

    def test_shapes(self):
        assert digamma_half_plus_imag(np.ones((3, 4))).shape == (3, 4)
        assert digamma_half_plus_imag(np.zeros(0)).shape == (0,)
        assert isinstance(digamma_half_plus_imag(2.5), float)

    def test_finite_at_huge_argument(self):
        # 1/w^2 underflows where w*w would overflow; psi(1/2 + ix) ~ ln x
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value = digamma_half_plus_imag(1e300)
            [array_value] = digamma_half_plus_imag(np.array([1e300]))
        assert math.isfinite(value) and array_value == value
        assert value == pytest.approx(math.log(1e300), rel=1e-15)

    def test_log_asymptote(self):
        # x = 10 already sits close to ln x; the correction is O(1e-2)
        assert abs(digamma_half_plus_imag(10.0) - math.log(10.0)) < 2e-2
        assert abs(digamma_half_plus_imag(1e4) - math.log(1e4)) < 1e-8


class TestHyperbolics:
    def test_coth_matches_definition(self):
        for x in (1e-3, 0.1, 1.0, 20.0):
            assert coth(x) == pytest.approx(math.cosh(x) / math.sinh(x), rel=1e-14)

    def test_coth_saturates(self):
        assert coth(800.0) == 1.0
        assert coth(-800.0) == -1.0

    def test_coth_zero_rejected(self):
        with pytest.raises(ValueError):
            coth(0.0)

    def test_sech_squared(self):
        for x in (0.0, 0.5, 5.0, 200.0):
            assert sech_squared(x) == pytest.approx(1.0 / math.cosh(x) ** 2, rel=1e-13)
        assert sech_squared(400.0) == pytest.approx(4.0 * math.exp(-800.0), rel=1e-12)
        assert sech_squared(1e6) == 0.0

    def test_occupation(self):
        assert bose_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-13)
        assert bose_occupation(1e3) == 0.0
        with pytest.raises(ValueError):
            bose_occupation(0.0)


class TestQuad:
    def test_thermal_kernel_integral(self):
        # Integral_0^inf x^3 / sinh x dx = pi^4 / 8  (= 12 sum (2k+1)^-4)
        res = quad_adaptive(lambda x: x ** 3 / math.sinh(x) if 0.0 < x < 700.0 else 0.0,
                            0.0, math.inf, rtol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(math.pi ** 4 / 8.0, rel=1e-10)

    def test_lorentzian_mass(self):
        half = 3.7
        res = quad_adaptive(lambda x: half ** 2 / (x ** 2 + half ** 2),
                            -math.inf, 0.0, rtol=1e-12)
        total = 2.0 * res.value
        assert total == pytest.approx(math.pi * half, rel=1e-10)

    def test_doubly_infinite_gaussian(self):
        res = quad_adaptive(lambda x: math.exp(-x * x), -math.inf, math.inf, rtol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_break_points_catch_spikes(self):
        # a spike 1e-9 of the interval wide: bracketing points recover it to
        # the exact finite-interval mass; blind subdivision loses most of it
        w = 1e-6
        spike = lambda x: w ** 2 / ((x - 0.5) ** 2 + w ** 2)
        exact = w * (math.atan(0.5 / w) + math.atan(999.5 / w))
        res = quad_adaptive(spike, 0.0, 1e3, rtol=1e-9,
                            points=[0.5 - 10 * w, 0.5, 0.5 + 10 * w])
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-8)
        blind = quad_adaptive(spike, 0.0, 1e3, rtol=1e-9)
        assert abs(blind.value - exact) > 0.5 * exact

    def test_nonconvergence_is_reported(self):
        rough = lambda x: math.sin(1.0 / x) if x != 0 else 0.0
        res = quad_adaptive(rough, 0.0, 1.0, rtol=1e-13, limit=3)
        assert not res.converged
        assert res.message is not None

    def test_converged_flag_definition(self):
        good = QuadratureResult(value=1.0, error_estimate=1e-10, evaluations=21,
                                rtol=1e-8, atol=0.0)
        bad = QuadratureResult(value=1.0, error_estimate=1e-6, evaluations=21,
                               rtol=1e-8, atol=0.0)
        assert good.converged and not bad.converged

    def test_checked_returns_value_or_raises_with_result(self):
        good = QuadratureResult(value=2.5, error_estimate=1e-10, evaluations=21,
                                rtol=1e-8, atol=0.0)
        assert good.checked("test integral") == 2.5
        bad = QuadratureResult(value=1.0, error_estimate=0.25, evaluations=63,
                               rtol=1e-8, atol=0.0, message="roundoff")
        with pytest.raises(QuadratureError) as exc:
            bad.checked("test integral")
        assert str(exc.value) == "test integral did not converge: roundoff (estimate 1.0 +- 0.25)"
        assert exc.value.result is bad

    def test_2d_separable_product(self):
        res = quad2d_adaptive(lambda u, v: math.exp(-u) * v ** 2,
                              (0.0, 30.0), (0.0, 2.0), rtol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0 * 8.0 / 3.0, rel=1e-9)
        assert res.evaluations > 0

    def test_2d_variable_inner_bounds(self):
        # area of the unit triangle under v <= u
        res = quad2d_adaptive(lambda u, v: 1.0, (0.0, 1.0), lambda u: (0.0, u),
                              rtol=1e-10)
        assert res.value == pytest.approx(0.5, rel=1e-9)

    def test_2d_inner_nonconvergence_names_u(self):
        rough = lambda u, v: math.sin(1.0 / v) if v != 0 else 0.0
        with pytest.raises(QuadratureError, match=r"^inner quadrature at u=") as exc:
            quad2d_adaptive(rough, (0.0, 1.0), (0.0, 1.0), rtol=1e-13)
        assert not exc.value.result.converged
