import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.linalg import (
    partial_trace,
    partial_transpose,
    schmidt_decompose,
    trace_norm,
)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_density(rng, dim):
    g = _complex_normal(rng, (dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(7)) == pytest.approx(7.0, abs=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        u = _complex_normal(rng, 5)
        v = _complex_normal(rng, 5)
        expect = np.linalg.norm(u) * np.linalg.norm(v)
        assert trace_norm(np.outer(u, v.conj())) == pytest.approx(expect, rel=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_eigendecomposition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((12, 12))
        w = np.linalg.eigvalsh(m.T @ m)
        expect = np.sum(np.sqrt(np.clip(w, 0.0, None)))
        assert abs(trace_norm(m) - expect) < 1e-10

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = _complex_normal(rng, (8, 8))
        u = _random_unitary(rng, 8)
        v = _random_unitary(rng, 8)
        assert abs(trace_norm(u @ m @ v) - trace_norm(m)) < 1e-9

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        m1 = _complex_normal(rng, (6, 6))
        m2 = _complex_normal(rng, (6, 6))
        assert trace_norm(m1 + m2) <= trace_norm(m1) + trace_norm(m2) + 1e-10

    def test_nan_input_raises(self):
        bad = np.full((4, 4), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            trace_norm(bad)


class TestSchmidt:
    def test_product_state(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        data = schmidt_decompose(psi, 2, 2)
        assert data.rank == 1
        assert data.coefficients[0] == pytest.approx(1.0, abs=1e-14)

    def test_maximally_entangled(self):
        psi = np.zeros(9, dtype=complex)
        psi[::4] = 1.0 / np.sqrt(3.0)
        data = schmidt_decompose(psi, 3, 3)
        assert data.rank == 3
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

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        psi = _complex_normal(rng, 12)
        psi /= np.linalg.norm(psi)
        data = schmidt_decompose(psi, 3, 4)
        assert np.abs(data.reconstruct() - psi).max() < 1e-10

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(5)
        psi = _complex_normal(rng, 9)
        psi /= np.linalg.norm(psi)
        data = schmidt_decompose(psi, 3, 3)
        assert np.allclose(data.left.conj().T @ data.left, np.eye(3), atol=1e-12)
        assert np.allclose(data.right.conj().T @ data.right, np.eye(3), atol=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            schmidt_decompose(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="match"):
            schmidt_decompose(np.array([1.0, 0.0, 0.0]), 2, 2)
