"""Energetics, eigenstates, populations, and golden-rule rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsphonon.constants import HBAR, KB, TWO_PI
from tlsphonon.tls_core import (
    DriveState,
    MaterialParams,
    PhononMode,
    TLSEnsemble,
    TLSState,
    equilibrium_inversion,
    get_preset,
    golden_rule_rate,
    min_lifetime,
    preset_names,
    tls_eigenvectors,
    tls_energy,
    tls_transition_rates,
)

PROBE_E = HBAR * TWO_PI * 9.188e9

energies = st.floats(min_value=1e-27, max_value=1e-20,
                     allow_nan=False, allow_infinity=False)
asymmetries = st.floats(min_value=-1e-20, max_value=1e-20,
                        allow_nan=False, allow_infinity=False)


class TestEnergy:
    def test_symmetric_well(self):
        assert tls_energy(TLSState(delta=0.0, delta0=3.3e-24)) == 3.3e-24

    def test_pythagorean(self):
        assert tls_energy(TLSState(delta=3.0, delta0=4.0)) == pytest.approx(5.0, rel=1e-15)

    def test_small_energies(self):
        assert tls_energy(TLSState(delta=1e-24, delta0=1e-24)) == pytest.approx(
            1.4142135623730951e-24, rel=1e-12
        )

    def test_matches_hypot_in_bulk(self, rng):
        # numpy's hypot is an implementation independent of math.hypot
        delta = rng.uniform(-1e-20, 1e-20, size=100_000)
        delta0 = 10.0 ** rng.uniform(-27, -20, size=100_000)
        mine = np.array([tls_energy(TLSState(d, d0))
                         for d, d0 in zip(delta, delta0)])
        assert np.allclose(mine, np.hypot(delta, delta0), rtol=1e-14, atol=0.0)

    @given(delta=asymmetries, delta0=energies)
    def test_monotone(self, delta, delta0):
        e = tls_energy(TLSState(delta, delta0))
        assert e >= delta0
        assert e >= abs(delta)
        assert tls_energy(TLSState(delta * 2.0, delta0)) >= e

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            TLSState(delta=1.0, delta0=0.0)


class TestEigenvectors:
    def test_symmetric_well_equal_weight(self):
        excited, ground = tls_eigenvectors(TLSState(delta=0.0, delta0=1e-23))
        assert np.allclose(np.abs(excited), 1.0 / math.sqrt(2.0), rtol=1e-14)
        assert np.allclose(np.abs(ground), 1.0 / math.sqrt(2.0), rtol=1e-14)

    def test_classical_limit_localizes(self):
        # strong positive asymmetry: the L well is the lower one
        _, ground = tls_eigenvectors(TLSState(delta=1e-20, delta0=1e-26))
        assert abs(ground[0]) > 1.0 - 1e-10

    def test_explicit_closed_form(self):
        excited, ground = tls_eigenvectors(TLSState(delta=3.0, delta0=4.0))
        # (c_L, c_R) = delta0/sqrt(2E(E+delta)) * (1, (delta+E)/delta0) etc.
        assert excited == pytest.approx([4.0 / math.sqrt(80.0), 8.0 / math.sqrt(80.0)],
                                        rel=1e-14)
        assert ground == pytest.approx([4.0 / math.sqrt(20.0), -2.0 / math.sqrt(20.0)],
                                       rel=1e-14)

    @given(delta=asymmetries, delta0=energies)
    @settings(max_examples=200)
    def test_orthonormal_and_diagonalizing(self, delta, delta0):
        excited, ground = tls_eigenvectors(TLSState(delta, delta0))
        assert abs(excited @ excited - 1.0) < 1e-12
        assert abs(ground @ ground - 1.0) < 1e-12
        assert abs(excited @ ground) < 1e-12

    def test_against_dense_diagonalization(self, rng):
        for _ in range(200):
            delta = rng.uniform(-1.0, 1.0)
            delta0 = 10.0 ** rng.uniform(-6, 0)
            state = TLSState(delta, delta0)
            excited, ground = tls_eigenvectors(state)
            # Hamiltonian in the (R, L) component ordering
            h = 0.5 * np.array([[delta, delta0], [delta0, -delta]])
            vals, vecs = np.linalg.eigh(h)
            e = tls_energy(state)
            assert vals == pytest.approx([-e / 2.0, e / 2.0], rel=1e-12)
            ground_rl = np.array([ground[1], ground[0]])
            excited_rl = np.array([excited[1], excited[0]])
            assert abs(abs(ground_rl @ vecs[:, 0]) - 1.0) < 1e-10
            assert abs(abs(excited_rl @ vecs[:, 1]) - 1.0) < 1e-10

    def test_reassembled_hamiltonian(self):
        state = TLSState(delta=-0.7, delta0=2.4)
        excited, ground = tls_eigenvectors(state)
        e = tls_energy(state)
        erl = np.array([excited[1], excited[0]])
        grl = np.array([ground[1], ground[0]])
        h = e / 2.0 * (np.outer(erl, erl) - np.outer(grl, grl))
        expected = 0.5 * np.array([[state.delta, state.delta0],
                                   [state.delta0, -state.delta]])
        assert np.allclose(h, expected, atol=1e-14)


class TestInversion:
    def test_ground_state_condensation(self):
        assert equilibrium_inversion(PROBE_E, 1e-12) == -1.0

    def test_tanh_of_one(self):
        t = PROBE_E / (2.0 * KB)
        assert equilibrium_inversion(PROBE_E, t) == pytest.approx(-math.tanh(1.0),
                                                                  rel=1e-14)
        assert equilibrium_inversion(PROBE_E, t) == pytest.approx(-0.76159, abs=1e-5)

    def test_probe_splitting_at_helium_temperature(self):
        assert equilibrium_inversion(PROBE_E, 1.1) == pytest.approx(-0.1978, abs=1e-4)

    def test_overflow_safe(self):
        e = 1e-20  # E / 2 k_B T ~ 3.6e5
        assert equilibrium_inversion(e, 1e-3) == -1.0

    @given(delta=asymmetries, delta0=energies,
           t=st.floats(min_value=1e-4, max_value=300.0))
    def test_range_and_formula(self, delta, delta0, t):
        e = tls_energy(TLSState(delta, delta0))
        w0 = equilibrium_inversion(e, t)
        assert -1.0 <= w0 < 0.0
        assert w0 == pytest.approx(-math.tanh(e / (2.0 * KB * t)), rel=1e-14)

    def test_high_temperature_limit(self):
        assert equilibrium_inversion(PROBE_E, 1e6) == pytest.approx(0.0, abs=1e-6)


class TestGoldenRule:
    def test_decoupled_limit(self, ge_doped):
        material, ensemble = ge_doped
        e = PROBE_E
        rate_ref = golden_rule_rate(TLSState(0.0, e), material, ensemble, 1.1)
        small = golden_rule_rate(
            TLSState(math.sqrt(e ** 2 - (1e-4 * e) ** 2), 1e-4 * e),
            material, ensemble, 1.1)
        assert small / rate_ref == pytest.approx(1e-8, rel=1e-6)

    def test_separates_in_delta0(self, ge_doped):
        material, ensemble = ge_doped
        e = PROBE_E
        full = golden_rule_rate(TLSState(0.0, e), material, ensemble, 0.7)
        for frac in (0.1, 0.5, 0.9):
            delta0 = frac * e
            state = TLSState(math.sqrt(e ** 2 - delta0 ** 2), delta0)
            partial = golden_rule_rate(state, material, ensemble, 0.7)
            assert partial == pytest.approx(frac ** 2 * full, rel=1e-12)

    def test_increasing_in_temperature(self, ge_doped):
        material, ensemble = ge_doped
        rates = [golden_rule_rate(TLSState(0.0, PROBE_E), material, ensemble, t)
                 for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_reference_lifetime_at_probe(self, ge_doped):
        # tabulated estimate is 79 ns; the sound-speed choice behind it is
        # not pinned down, so agreement within a factor of 2 is the contract
        material, ensemble = ge_doped
        tau = 1.0 / golden_rule_rate(TLSState(0.0, PROBE_E), material, ensemble, 1.1)
        assert 0.5 < tau / 79e-9 < 2.0

    def test_reference_lifetime_low_frequency(self, ge_doped):
        # 0.68 GHz at 20 mK: tabulated estimate 665 us, same factor-2 contract
        material, ensemble = ge_doped
        e = HBAR * TWO_PI * 0.68e9
        tau = 1.0 / golden_rule_rate(TLSState(0.0, e), material, ensemble, 0.020)
        assert 0.5 < tau / 665e-6 < 2.0

    def test_detailed_balance(self, ge_doped):
        material, ensemble = ge_doped
        for t in (0.1, 1.1, 4.2):
            state = TLSState(0.3 * PROBE_E, 0.8 * PROBE_E)
            up, down = tls_transition_rates(state, material, ensemble, t)
            e = tls_energy(state)
            assert up / down == pytest.approx(math.exp(-e / (KB * t)), rel=1e-12)
            total = golden_rule_rate(state, material, ensemble, t)
            assert up + down == pytest.approx(total, rel=1e-12)


class TestMinLifetime:
    def test_definition(self, ge_doped):
        material, ensemble = ge_doped
        tau = min_lifetime(PROBE_E, material, ensemble, 1.1)
        rate = golden_rule_rate(TLSState(0.0, PROBE_E), material, ensemble, 1.1)
        assert tau * rate == pytest.approx(1.0, rel=1e-15)

    def test_is_minimum_over_delta0(self, ge_doped):
        material, ensemble = ge_doped
        tau_min = min_lifetime(PROBE_E, material, ensemble, 1.1)
        for frac in (0.05, 0.3, 0.7, 0.999):
            delta0 = frac * PROBE_E
            state = TLSState(math.sqrt(PROBE_E ** 2 - delta0 ** 2), delta0)
            assert 1.0 / golden_rule_rate(state, material, ensemble, 1.1) >= tau_min

    def test_zero_temperature_ratio(self, ge_doped):
        material, ensemble = ge_doped
        t_cold = PROBE_E / (2.0 * KB * 50.0)  # argument 50: coth ~ 1
        ratio = (min_lifetime(PROBE_E, material, ensemble, t_cold)
                 / min_lifetime(PROBE_E, material, ensemble, 1.1))
        assert ratio == pytest.approx(
            1.0 / math.tanh(PROBE_E / (2.0 * KB * 1.1)), rel=1e-10
        )

    def test_magnitude(self, ge_doped):
        material, ensemble = ge_doped
        tau = min_lifetime(PROBE_E, material, ensemble, 1.1)
        assert 1e-8 < tau < 1e-6


class TestTypes:
    def test_presets_available(self):
        assert preset_names() == ("ge-doped-silica-44wt", "vitreous-silica")

    def test_preset_products(self):
        _, ge = get_preset("ge-doped-silica-44wt")
        assert ge.p * ge.gamma_l ** 2 == pytest.approx(1.6e7, rel=1e-12)
        assert ge.p == pytest.approx(23e44, rel=1e-2)
        assert ge.gamma_t ** 2 == pytest.approx(ge.gamma_l ** 2 / 2.0, rel=1e-12)
        _, si = get_preset("vitreous-silica")
        assert si.p * si.gamma_l ** 2 == pytest.approx(1.3e7, rel=1e-12)
        assert si.p == pytest.approx(6.85e44, rel=1e-2)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("fused-quartz")

    def test_material_invariants(self, ge_doped):
        material, _ = ge_doped
        with pytest.raises(ValueError):
            MaterialParams(rho=material.rho, v_l=3000.0, v_t=4000.0,
                           n_eff=1.5, g_b_ref=0.6, a_eff=1e-12, l_fut=0.02)
        with pytest.raises(ValueError):
            MaterialParams(rho=-1.0, v_l=4760.0, v_t=3092.0,
                           n_eff=1.5, g_b_ref=0.6, a_eff=1e-12, l_fut=0.02)

    def test_ensemble_default_transverse(self):
        e = TLSEnsemble(p=1e45, gamma_l=8e-20)
        assert e.gamma_t == pytest.approx(8e-20 / math.sqrt(2.0), rel=1e-15)
        explicit = TLSEnsemble(p=1e45, gamma_l=8e-20, gamma_t=5e-20)
        assert explicit.gamma_t == 5e-20

    def test_phonon_mode_consistency(self, ge_doped):
        material, _ = ge_doped
        mode = PhononMode.in_material(material, TWO_PI * 9.188e9, "L")
        assert mode.q * material.v_l == pytest.approx(mode.omega, rel=1e-15)
        mode_t = PhononMode.in_material(material, TWO_PI * 9.188e9, "T")
        assert mode_t.q * material.v_t == pytest.approx(mode_t.omega, rel=1e-15)
        with pytest.raises(ValueError):
            PhononMode(omega=1.0, polarization="X", q=1.0)

    def test_drive_state_invariants(self):
        with pytest.raises(ValueError):
            DriveState(temperature=0.0, intensity=1.0, drive_omega=1.0)
        with pytest.raises(ValueError):
            DriveState(temperature=1.0, intensity=-1.0, drive_omega=1.0)
        # a grid of operating points is rejected if any one element is bad
        with pytest.raises(ValueError):
            DriveState(temperature=np.array([1.0, 0.0, 2.0]), intensity=1.0, drive_omega=1.0)
        with pytest.raises(ValueError):
            DriveState(temperature=1.0, intensity=np.array([0.0, 3.0, -1.0]), drive_omega=1.0)
        ok = DriveState(temperature=1.0, intensity=0.0, drive_omega=1.0)
        assert ok.intensity == 0.0
        DriveState(temperature=np.array([[1.0], [2.0]]), intensity=np.array([0.0, 3.0]),
                   drive_omega=1.0)
