import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.basis import gellmann_generators, partition_basis, standard_basis
from mumbounds.mums import build_mums, build_f_blocks, t_interval, verify_mum_relations

GOLDEN = Path(__file__).parent / "data" / "gellmann_partition_d3.json"


def test_d2_is_scaled_paulis():
    gens = gellmann_generators(2)
    s2 = np.sqrt(2.0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.allclose(gens[0], sx / s2)
    assert np.allclose(gens[1], sy / s2)
    assert np.allclose(gens[2], sz / s2)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_count_and_structure(d):
    gens = gellmann_generators(d)
    assert len(gens) == d * d - 1
    pairs = d * (d - 1) // 2
    for k, g in enumerate(gens):
        assert np.abs(g - g.conj().T).max() < 1e-15
        assert abs(np.trace(g)) < 1e-15
        if k < pairs:
            assert np.abs(g.imag).max() == 0.0  # symmetric block is real
        elif k < 2 * pairs:
            assert np.abs(g.real).max() == 0.0  # antisymmetric block is imaginary
        else:
            assert np.abs(g - np.diag(np.diag(g))).max() == 0.0


def _loop_generators(d):
    """The Gell-Mann generators built one matrix at a time, the reference
    ``gellmann_generators`` must equal bit for bit."""
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[i, j] = g[j, i] = 1.0 / np.sqrt(2.0)
            gens.append(g)
    for i in range(d):
        for j in range(i + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[i, j] = -1j / np.sqrt(2.0)
            g[j, i] = 1j / np.sqrt(2.0)
            gens.append(g)
    for level in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:level] = 1.0
        diag[level] = -level
        gens.append(np.diag(diag) / np.sqrt(level * (level + 1)))
    return np.stack(gens)


@pytest.mark.parametrize("d", range(2, 33))
def test_generators_equal_the_loop_reference_bit_for_bit(d):
    gens = gellmann_generators(d)
    ref = _loop_generators(d)
    assert gens.shape == ref.shape and gens.dtype == ref.dtype
    assert gens.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_gram_matrix_oracle(d):
    # the only check of the standard generators: no query makes one
    gens = gellmann_generators(d)
    n = len(gens)
    assert np.abs(gens - gens.conj().transpose(0, 2, 1)).max() < 1e-15
    assert np.abs(np.einsum("kii->k", gens)).max() < 1e-14
    overlaps = gens.reshape(n, d * d) @ gens.transpose(0, 2, 1).reshape(n, d * d).T  # Tr(G_i G_j)
    assert np.abs(overlaps - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_standard_basis_is_the_checked_partition(d):
    groups = standard_basis(d)
    assert not groups.flags.writeable
    checked = partition_basis(gellmann_generators(d), d)
    assert not checked.flags.writeable
    assert groups.shape == checked.shape and groups.tobytes() == checked.tobytes()


def test_partition_shapes():
    assert standard_basis(2).shape == (3, 1, 2, 2)
    assert standard_basis(3).shape == (4, 2, 3, 3)


def test_partition_is_consecutive():
    gens = gellmann_generators(3)
    b3 = partition_basis(gens, 3)
    for g in range(4):
        for n in range(2):
            assert np.array_equal(b3[g, n], gens[2 * g + n])


def test_golden_partition_d3():
    payload = json.loads(GOLDEN.read_text())
    recorded = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(
        payload["im"], dtype=float
    )
    assert np.abs(standard_basis(3) - recorded).max() < 1e-15


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_permuted_generators_still_give_valid_mums(seed):
    rng = np.random.default_rng(seed)
    gens = gellmann_generators(3)
    order = rng.permutation(len(gens))
    basis = partition_basis([gens[k] for k in order], 3)
    interval = t_interval(build_f_blocks(basis), 3)
    fam = build_mums(basis, 0.5 * interval.upper)
    report = verify_mum_relations(fam)
    assert report.passed
    assert report.completeness < 1e-10
    assert np.linalg.eigvalsh(fam.effect_stack()).min() > -1e-10


def test_wrong_count_rejected():
    with pytest.raises(ValueError, match="expected 8 generators"):
        partition_basis(gellmann_generators(3)[:-1], 3)


def test_non_orthonormal_rejected():
    gens = gellmann_generators(3)
    gens[0] = 2.0 * gens[0]
    with pytest.raises(ValueError, match="orthonormal"):
        partition_basis(gens, 3)


def test_small_dimension_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        gellmann_generators(1)
