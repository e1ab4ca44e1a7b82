import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mumbounds
from mumbounds import criteria, linalg
from mumbounds.linalg import schmidt_decompose

from references import partial_trace, partial_transpose


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_density(rng, dim):
    g = _complex_normal(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        rho_a = _random_density(rng, 2)
        rho_b = _random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, 2, 3, "A"), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, 2, 3, "B"), rho_b, atol=1e-12)

    def test_max_entangled_reduces_to_maximally_mixed(self):
        psi = np.zeros(9, dtype=complex)
        psi[::4] = 1.0 / np.sqrt(3.0)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace(rho, 3, 3, "A"), np.eye(3) / 3, atol=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_index_sum_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rho = _random_density(rng, 6)
        red_a = partial_trace(rho, 2, 3, "A")
        red_b = partial_trace(rho, 2, 3, "B")
        for i in range(2):
            for i2 in range(2):
                expect = sum(rho[3 * i + j, 3 * i2 + j] for j in range(3))
                assert abs(red_a[i, i2] - expect) < 1e-13
        for j in range(3):
            for j2 in range(3):
                expect = sum(rho[3 * i + j, 3 * i + j2] for i in range(2))
                assert abs(red_b[j, j2] - expect) < 1e-13

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)
        rho = _random_density(rng, 12)
        for keep in ("A", "B"):
            red = partial_trace(rho, 3, 4, keep)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="bipartition"):
            partial_trace(np.eye(5), 2, 3)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(2)
        rho = _random_density(rng, 6)
        assert np.allclose(
            partial_transpose(partial_transpose(rho, 2, 3), 2, 3), rho, atol=1e-14
        )

    def test_bell_state_negative_eigenvalue(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        pt = partial_transpose(np.outer(psi, psi), 2, 2)
        assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        joint = np.kron(_random_density(rng, 3), _random_density(rng, 3))
        for sub in ("A", "B"):
            eigs = np.linalg.eigvalsh(partial_transpose(joint, 3, 3, sub))
            assert eigs.min() > -1e-12


class TestSchmidt:
    def test_product_state(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        data = schmidt_decompose(psi, 2, 2)
        assert data.coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_maximally_entangled(self):
        psi = np.zeros(9, dtype=complex)
        psi[::4] = 1.0 / np.sqrt(3.0)
        data = schmidt_decompose(psi, 3, 3)
        assert np.allclose(data.coefficients, 1.0 / np.sqrt(3.0), atol=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_against_reduced_density_oracle(self, seed):
        rng = np.random.default_rng(seed)
        psi = _complex_normal(rng, 9)
        psi /= np.linalg.norm(psi)
        data = schmidt_decompose(psi, 3, 3)
        # coefficients^2 are the eigenvalues of the reduced density matrix
        rho_a = partial_trace(np.outer(psi, psi.conj()), 3, 3, "A")
        expect = np.sqrt(np.clip(np.linalg.eigvalsh(rho_a)[::-1], 0.0, None))
        assert np.allclose(data.coefficients, expect, atol=1e-10)
        assert abs(np.sum(data.coefficients**2) - 1.0) < 1e-12
        assert np.all(np.diff(data.coefficients) <= 1e-14)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            schmidt_decompose(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="match"):
            schmidt_decompose(np.array([1.0, 0.0, 0.0]), 2, 2)


def test_the_package_exports_no_test_only_reference():
    # partial traces, partial transposes and the pure-state concurrence live
    # in tests/references.py; no report needs them
    for module, name in (
        (mumbounds, "pure_concurrence"), (mumbounds, "partial_trace"),
        (mumbounds, "partial_transpose"), (criteria, "pure_concurrence"),
        (linalg, "partial_trace"), (linalg, "partial_transpose"),
    ):
        assert not hasattr(module, name), (module.__name__, name)
        assert name not in mumbounds.__all__
