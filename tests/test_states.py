import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.config import TOL
from mumbounds.linalg import partial_transpose, schmidt_decompose
from mumbounds.states import (
    StateFileError,
    horodecki_state,
    load_state,
    max_entangled,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
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

    def test_each_call_returns_a_new_array(self):
        first = tiles_state()
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(tiles_state(), expected)

    def test_ppt(self):
        for sub in ("A", "B"):
            eigs = np.linalg.eigvalsh(partial_transpose(tiles_state(), 3, 3, sub))
            assert eigs.min() > -1e-10

    def test_noisy_endpoints(self):
        assert np.allclose(mix_with_white_noise(tiles_state(), 0.0), np.eye(9) / 9.0, atol=1e-15)
        assert np.allclose(mix_with_white_noise(tiles_state(), 1.0), tiles_state(), atol=1e-15)

    def test_noisy_halfway_elementwise(self):
        mix = mix_with_white_noise(tiles_state(), 0.5)
        expect = 0.5 * tiles_state() + 0.5 * np.eye(9) / 9.0
        assert np.abs(mix - expect).max() < 1e-15

    def test_noisy_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mix_with_white_noise(tiles_state(), 1.2)


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
        rho = horodecki_state(0.3)
        assert np.allclose(mix_with_white_noise(rho, 0.0), np.eye(9) / 9.0, atol=1e-15)
        assert np.allclose(mix_with_white_noise(rho, 1.0), rho, atol=1e-15)
        mix = mix_with_white_noise(horodecki_state(0.2), 0.995)
        expect = 0.995 * horodecki_state(0.2) + 0.005 * np.eye(9) / 9.0
        assert np.abs(mix - expect).max() < 1e-15

    def test_noisy_range_check(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            mix_with_white_noise(horodecki_state(0.2), -0.01)


class TestMaxEntangled:
    def test_bell_state(self):
        psi = max_entangled(2)
        assert np.allclose(psi, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_uniform_schmidt_spectrum(self, d):
        data = schmidt_decompose(max_entangled(d), d, d)
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

    @pytest.mark.parametrize("upsilon", [[0.2, 0.4], [0.2]])
    def test_save_rejects_a_stack_before_opening(self, tmp_path, upsilon):
        # validate_density accepts a stack, which has no file form
        path = tmp_path / "stack.json"
        message = rf"not one matrix \(shape \({len(upsilon)}, 9, 9\)\)"
        with pytest.raises(StateFileError, match=message):
            save_state(horodecki_state(upsilon), path)
        assert not path.exists()

    def test_one_matrix_round_trip_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_state(horodecki_state(0.2), first)
        save_state(load_state(first), second)
        assert first.read_bytes() == second.read_bytes()

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

    def test_roundtrip_is_bitwise_exact_at_d16(self, tmp_path):
        rho = random_density(256, rank=3, seed=16)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dtype == rho.dtype and loaded.shape == rho.shape
        assert np.array_equal(loaded.view(np.uint64), rho.view(np.uint64))

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

    def test_names_an_imaginary_trace(self):
        # a real trace keeps its real text; an imaginary part is printed,
        # where it used to read "trace is 1, not 1"
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 0] += 1e-9j
        assert validate_density(rho) == [
            "not Hermitian (max deviation 2.000e-09)",
            "trace is 1+1e-09j, not 1",
        ]
        assert validate_density(np.eye(4, dtype=complex) / 2.0) == ["trace is 2, not 1"]

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
        assert validate_density(np.zeros((0, 4, 4))) == []  # no state, so none invalid

    def test_stack_is_one_batched_positivity_check(self, monkeypatch):
        calls = []
        for name in ("cholesky", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, name=name, original=original, **kwargs):
                calls.append((name, np.shape(a)))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        stack = np.stack([random_density(9, seed=s) for s in range(5)])
        # a valid stack is certified by one Cholesky factorisation
        assert validate_density(stack) == []
        assert calls == [("cholesky", (5, 9, 9))]
        # an invalid one is then decided by one eigen-check
        calls.clear()
        stack[3] = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0, 0])
        assert validate_density(stack) == ["negative eigenvalue -2.000e-01"]
        assert calls == [("cholesky", (5, 9, 9)), ("eigvalsh", (5, 9, 9))]


def _eigvalsh_decision(stack):
    """Positivity as decided by the eigenvalues alone, with the validator's message."""
    min_eigs = np.linalg.eigvalsh(stack).min(axis=-1).ravel()
    negative = min_eigs[min_eigs < -TOL.density_psd]
    return [f"negative eigenvalue {negative[0]:.3e}"] if negative.size else []


def _boundary_state(n, lam_min, rank, seed):
    """U diag(lam) U^dag: one eigenvalue lam_min, rank positive ones, the rest 0."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    lam = np.zeros(n)
    lam[0] = lam_min
    lam[1 : rank + 1] = rng.uniform(0.5, 1.0, rank)
    lam[1 : rank + 1] *= (1.0 - lam_min) / lam[1 : rank + 1].sum()
    rho = (u * lam) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("d", range(2, 17))
def test_positivity_certificate_agrees_with_eigvalsh(d, monkeypatch):
    n = d * d
    factors = (0.0, -0.4, -0.6, -0.99, -1.01, -2.0)  # lam_min in units of density_psd
    states = [
        _boundary_state(n, factor * TOL.density_psd, rank, seed=100 * d + 10 * rank + i)
        for rank in (1, max(2, n // 3))  # pure but for lam_min, and rank-deficient
        for i, factor in enumerate(factors)
    ]
    stacks = [np.stack(s) for s in (states, states[::-1], states[:4], states[:2])]
    expected = [_eigvalsh_decision(rho) for rho in states + stacks]
    assert [bool(problems) for problems in expected[:12]] == ([False] * 4 + [True] * 2) * 2

    eigen_checks = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        eigen_checks.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    checked = []
    for rho, problems in zip(states + stacks, expected):
        eigen_checks.clear()
        assert validate_density(rho) == problems
        checked.append(len(eigen_checks))
    # lam_min >= -density_psd/2 is certified without an eigen-check and
    # eigvalsh decides below that, so both branches are exercised; a stack
    # is certified only when all of its states are
    assert checked == [0, 0, 1, 1, 1, 1] * 2 + [1, 1, 1, 0]


def _save_state_reference(rho, path):
    """save_state's text as one f-string per entry, the writer's plain definition."""
    n = rho.shape[0]

    def block(part):
        return ",\n".join(
            "    [" + ", ".join(f"{x:.17g}" for x in row) + "]" for row in part
        )

    path.write_text(
        "{\n"
        f'  "dim": {n},\n'
        '  "re": [\n' + block(rho.real) + "\n  ],\n"
        '  "im": [\n' + block(rho.imag) + "\n  ]\n"
        "}\n"
    )


@pytest.mark.parametrize("d", range(2, 17))
def test_save_state_bytes_equal_the_plain_writer(d, tmp_path):
    rho = mix_with_white_noise(random_density(d * d, seed=d), 0.2)  # stays positive when edited
    for (i, j), value in (((0, 1), -0.0), ((0, 2), 5e-324), ((1, 3), 1e-300), ((2, 3), -2.5e-310)):
        rho[i, j] = complex(value, -0.0)
        rho[j, i] = complex(value, 0.0)
    rho[1, 1] = complex(rho[1, 1].real, -0.0)
    save_state(rho, tmp_path / "fast.json")
    _save_state_reference(rho, tmp_path / "plain.json")
    text = (tmp_path / "fast.json").read_bytes()
    assert text == (tmp_path / "plain.json").read_bytes()
    assert b"-0, " in text and b"4.9406564584124654e-324" in text and b"1e-300" in text
    assert np.array_equal(load_state(tmp_path / "fast.json"), rho)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                min_size=1, max_size=50))
def test_orjson_parses_saved_doubles_as_json_does(values):
    # load_state parses with orjson: every finite double in the "%.17g"
    # form that save_state writes, and in repr form, has the bits that
    # json.loads gives it, subnormals, -0.0 and the extremes included
    import orjson

    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]
    for text in ("[" + ", ".join("%.17g" % x for x in values) + "]",
                 "[" + ", ".join(repr(x) for x in values) + "]"):
        fast = np.array(orjson.loads(text.encode()), dtype=float)
        plain = np.array(json.loads(text), dtype=float)
        assert np.array_equal(fast.view(np.uint64), plain.view(np.uint64))
