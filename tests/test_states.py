import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.linalg import partial_transpose, schmidt_decompose
from mumbounds.states import (
    StateFileError,
    horodecki_noisy,
    horodecki_state,
    load_state,
    max_entangled,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
    tiles_noisy,
    tiles_state,
    validate_density,
)


def _assert_valid_density(rho):
    assert validate_density(rho) == []


class TestTiles:
    def test_density_invariants(self):
        rho = tiles_state()
        _assert_valid_density(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_spectrum(self):
        # uniform on the 4-dimensional complement of the five tile vectors
        eigs = np.sort(np.linalg.eigvalsh(tiles_state()))
        assert np.allclose(eigs[:5], 0.0, atol=1e-14)
        assert np.allclose(eigs[5:], 0.25, atol=1e-14)

    def test_tile_vectors_are_orthonormal(self):
        s2 = np.sqrt(2.0)
        e = np.eye(3, dtype=complex)
        plus = (e[0] + e[1] + e[2]) / np.sqrt(3.0)
        vectors = [
            np.kron(e[0], (e[0] - e[1]) / s2),
            np.kron((e[0] - e[1]) / s2, e[2]),
            np.kron(e[2], (e[1] - e[2]) / s2),
            np.kron((e[1] - e[2]) / s2, e[0]),
            np.kron(plus, plus),
        ]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        assert np.abs(gram - np.eye(5)).max() < 1e-12

    def test_ppt(self):
        for sub in ("A", "B"):
            eigs = np.linalg.eigvalsh(partial_transpose(tiles_state(), 3, 3, sub))
            assert eigs.min() > -1e-10

    def test_noisy_endpoints(self):
        assert np.allclose(tiles_noisy(0.0), np.eye(9) / 9.0, atol=1e-15)
        assert np.allclose(tiles_noisy(1.0), tiles_state(), atol=1e-15)

    def test_noisy_halfway_elementwise(self):
        mix = tiles_noisy(0.5)
        expect = 0.5 * tiles_state() + 0.5 * np.eye(9) / 9.0
        assert np.abs(mix - expect).max() < 1e-15

    def test_noisy_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            tiles_noisy(1.2)


class TestHorodecki:
    def test_entries_at_reference_point(self):
        rho = horodecki_state(0.2)
        scale = 1.0 / (1.0 + 8.0 * 0.2)
        assert rho[0, 0] == pytest.approx(0.2 * scale, abs=1e-15)
        assert rho[6, 8] == pytest.approx(np.sqrt(1 - 0.04) / 2 * scale, abs=1e-15)
        assert rho[6, 6] == pytest.approx((1 + 0.2) / 2 * scale, abs=1e-15)
        assert rho[1, 2] == 0.0

    def test_upper_limit(self):
        rho = horodecki_state(1.0)
        assert rho[6, 8] == 0.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("upsilon", np.linspace(0.0, 1.0, 11))
    def test_density_invariants_on_grid(self, upsilon):
        _assert_valid_density(horodecki_state(float(upsilon)))

    @pytest.mark.parametrize("upsilon", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_ppt_on_grid(self, upsilon):
        rho = horodecki_state(upsilon)
        for sub in ("A", "B"):
            assert np.linalg.eigvalsh(partial_transpose(rho, 3, 3, sub)).min() > -1e-10

    def test_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            horodecki_state(-0.1)

    def test_noisy_endpoints_and_mixture(self):
        assert np.allclose(horodecki_noisy(0.3, 0.0), np.eye(9) / 9.0, atol=1e-15)
        assert np.allclose(horodecki_noisy(0.3, 1.0), horodecki_state(0.3), atol=1e-15)
        mix = horodecki_noisy(0.2, 0.995)
        expect = 0.995 * horodecki_state(0.2) + 0.005 * np.eye(9) / 9.0
        assert np.abs(mix - expect).max() < 1e-15

    def test_noisy_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            horodecki_noisy(0.2, -0.01)


class TestMaxEntangled:
    def test_bell_state(self):
        psi = max_entangled(2)
        assert np.allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_schmidt_spectrum(self, d):
        data = schmidt_decompose(max_entangled(d), d, d)
        assert data.rank == d
        assert np.allclose(data.coefficients, 1.0 / np.sqrt(d), atol=1e-12)


class TestRandomStates:
    def test_pure_reproducible(self):
        assert np.array_equal(random_pure(3, 3, seed=42), random_pure(3, 3, seed=42))
        assert not np.array_equal(random_pure(3, 3, seed=42), random_pure(3, 3, seed=43))

    def test_pure_normalized(self):
        for seed in range(5):
            assert np.linalg.norm(random_pure(2, 5, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_density_reproducible_and_valid(self):
        rho = random_density(6, seed=1)
        assert np.array_equal(rho, random_density(6, seed=1))
        _assert_valid_density(rho)

    @given(rank=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rank_parameter(self, rank, seed):
        rho = random_density(6, rank=rank, seed=seed)
        numerical_rank = int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))
        assert numerical_rank == rank

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(4, rank=5)


class TestWhiteNoise:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mix_with_white_noise(np.eye(4) / 4.0, 1.5)

    def test_trace_preserved(self):
        rho = random_density(5, seed=0)
        assert np.trace(mix_with_white_noise(rho, 0.37)).real == pytest.approx(
            1.0, abs=1e-14
        )


class TestStateFiles:
    def test_roundtrip_exact(self, tmp_path):
        rho = random_density(9, seed=13)
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert np.array_equal(load_state(path), rho)

    def test_format_fields(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(np.eye(4) / 4.0, path)
        payload = json.loads(path.read_text())
        assert payload["dim"] == 4
        assert len(payload["re"]) == 4
        assert len(payload["im"]) == 4

    def test_save_rejects_invalid(self, tmp_path):
        with pytest.raises(StateFileError, match="invalid"):
            save_state(np.eye(4), tmp_path / "bad.json")

    def test_load_reports_missing_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "re": [[1, 0], [0, 0]]}')
        with pytest.raises(StateFileError, match="missing field 'im'"):
            load_state(path)

    def test_load_reports_violated_invariants(self, tmp_path):
        path = tmp_path / "broken.json"
        payload = {
            "dim": 2,
            "re": [[0.7, 0.2], [0.1, 0.3]],  # not symmetric
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match="Hermitian"):
            load_state(path)

    def test_load_reports_shape_mismatch(self, tmp_path):
        path = tmp_path / "broken.json"
        payload = {"dim": 3, "re": [[1.0]], "im": [[0.0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(StateFileError, match="shapes"):
            load_state(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        with pytest.raises(StateFileError, match="JSON"):
            load_state(path)


class TestValidateDensity:
    def test_collects_multiple_problems(self):
        bad = np.array([[0.9, 0.2], [0.0, 0.3]])
        problems = validate_density(bad)
        assert any("Hermitian" in p for p in problems)
        assert any("trace" in p for p in problems)

    def test_flags_negative_eigenvalue(self):
        bad = np.diag([1.2, -0.2])
        assert any("eigenvalue" in p for p in validate_density(bad))

    def test_flags_non_square_and_non_finite(self):
        assert any("square" in p for p in validate_density(np.zeros((2, 3))))
        bad = np.diag([np.inf, 0.0])
        assert any("finite" in p for p in validate_density(bad))

    def test_names_non_finite_entries_before_any_arithmetic(self):
        bad = np.eye(3, dtype=complex) / 3.0
        bad[0, 2] = complex(0.0, np.inf)
        bad[2, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf would warn
            assert validate_density(bad) == ["matrix contains non-finite entries at (0, 2), (2, 0)"]
            many = np.full((3, 3), np.nan)
            assert validate_density(many) == [
                "matrix contains non-finite entries at (0, 0), (0, 1), (0, 2), (1, 0) and 5 more"
            ]

    def test_stack_reports_the_first_invalid_state(self):
        good = random_density(4, seed=1)
        skew = good.copy()
        skew[0, 1] += 1e-6
        negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        nan = good.copy()
        nan[3, 1] = np.nan
        assert validate_density(np.stack([good, good])) == []
        assert validate_density(np.stack([good, negative, good])) == validate_density(negative)
        # Hermiticity and trace come before positivity, finiteness before both
        assert validate_density(np.stack([negative, skew])) == validate_density(skew)
        assert validate_density(np.stack([negative, skew, nan])) == validate_density(nan)
        assert any("square" in p for p in validate_density(np.zeros((2, 3, 4))))

    def test_stack_is_one_batched_eigen_check(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        stack = np.stack([random_density(9, seed=s) for s in range(5)])
        assert validate_density(stack) == []
        assert calls == [(5, 9, 9)]
