import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.basis import standard_basis
from mumbounds.mums import (
    InadmissibleTError,
    build_f_blocks,
    build_mums,
    build_mums_grid,
    kappa_of_t,
    load_family,
    optimal_kappa,
    save_family,
    swap_operator,
    t_interval,
    two_design_residual,
    verify_mum_relations,
)

# recorded at the first verified build; the structure is algebraic, so the
# values are stable to machine precision
D3_T_LOWER = -0.1093897997411785
D3_T_UPPER = 0.12200846792814621
KAPPA_D3_T012 = 0.5482994598493006


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_blocks_sum_to_zero_per_group(d):
    blocks = build_f_blocks(standard_basis(d))
    assert np.abs(blocks.sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_blocks_hermitian_traceless(d):
    blocks = build_f_blocks(standard_basis(d)).reshape(-1, d, d)
    assert np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() < 1e-13
    assert np.abs(np.einsum("rii->r", blocks)).max() < 1e-13


def test_d2_blocks_match_direct_formula():
    # with one generator per group, the first block is -(1 + sqrt(2)) times
    # the scaled Pauli and the second is +(1 + sqrt(2)) times it
    blocks = build_f_blocks(standard_basis(2))
    gens = standard_basis(2).groups[:, 0]
    for b in range(3):
        assert np.allclose(blocks[b, 0], -(1 + np.sqrt(2)) * gens[b], atol=1e-14)
        assert np.allclose(blocks[b, 1], (1 + np.sqrt(2)) * gens[b], atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_block_gram_structure(d):
    # expanding the construction algebraically gives, inside one group,
    # Tr(F_n F_m) = (1 + sqrt(d))^2 (d*delta_nm - 1), and 0 across groups
    blocks = build_f_blocks(standard_basis(d))
    c = (1 + np.sqrt(d)) ** 2
    for b in range(d + 1):
        for b2 in range(d + 1):
            gram = np.einsum("nij,mji->nm", blocks[b], blocks[b2]).real
            if b == b2:
                expect = c * (d * np.eye(d) - 1.0)
            else:
                expect = np.zeros((d, d))
            assert np.abs(gram - expect).max() < 1e-11


class TestTInterval:
    def test_d3_frozen_and_analytic(self, t_range_of):
        rng = t_range_of(3)
        assert rng.lower == pytest.approx(D3_T_LOWER, abs=1e-12)
        assert rng.upper == pytest.approx(D3_T_UPPER, abs=1e-12)
        # the most negative block eigenvalue is -(1 + sqrt(3)) exactly
        assert rng.upper == pytest.approx(1.0 / (3.0 * (1 + np.sqrt(3.0))), abs=1e-14)

    def test_d2_symmetric_with_unit_kappa_endpoint(self, t_range_of):
        rng = t_range_of(2)
        assert rng.lower == pytest.approx(-rng.upper, abs=1e-15)
        assert kappa_of_t(2, rng.upper) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_halves_interval(self, t_range_of):
        blocks = build_f_blocks(standard_basis(3))
        rng = t_range_of(3)
        scaled = t_interval(2.0 * blocks, 3)
        assert scaled.lower == pytest.approx(rng.lower / 2, abs=1e-15)
        assert scaled.upper == pytest.approx(rng.upper / 2, abs=1e-15)

    def test_degenerate_blocks_rejected(self):
        psd_only = np.eye(3)[None, None].repeat(4, axis=0).repeat(3, axis=1)
        with pytest.raises(ValueError, match="eigenvalues"):
            t_interval(psd_only, 3)

    def test_contains_endpoints(self, t_range_of):
        rng = t_range_of(3)
        assert rng.contains(rng.upper)
        assert rng.contains(rng.lower)
        assert not rng.contains(rng.upper * (1 + 1e-9))


class TestKappa:
    def test_frozen_value(self):
        assert kappa_of_t(3, 0.12) == pytest.approx(KAPPA_D3_T012, abs=1e-12)

    def test_degenerate_limit(self):
        assert kappa_of_t(3, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @given(
        d=st.integers(2, 8),
        t=st.floats(-0.3, 0.3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_even_and_above_floor(self, d, t):
        assert kappa_of_t(d, t) == pytest.approx(kappa_of_t(d, -t), abs=1e-15)
        assert kappa_of_t(d, t) >= 1.0 / d - 1e-15

    @given(
        d=st.integers(2, 8),
        t1=st.floats(0.0, 0.3),
        t2=st.floats(0.0, 0.3),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_magnitude(self, d, t1, t2):
        lo, hi = sorted((t1, t2))
        assert kappa_of_t(d, lo) <= kappa_of_t(d, hi) + 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_optimal_kappa_reached_at_matching_t(self, d):
        t_star = np.sqrt(2.0 / (d**2 * (1 + np.sqrt(d)) ** 2 * (d - 1)))
        assert kappa_of_t(d, t_star) == pytest.approx(optimal_kappa(d), abs=1e-14)


class TestBuildMumsGrid:
    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_families_share_blocks_and_interval(self, d, t_range_of):
        basis = standard_basis(d)
        rng = t_range_of(d)
        ts = np.linspace(0.9 * rng.lower, 0.9 * rng.upper, 6)
        fams = build_mums_grid(basis, ts)
        blocks = build_f_blocks(basis)
        assert [fam.t for fam in fams] == [float(t) for t in ts]
        for fam in fams:
            assert fam.f_blocks is fams[0].f_blocks and fam.t_range is fams[0].t_range
            assert not fam.f_blocks.flags.writeable and not fam.effects.flags.writeable
            assert fam.t_range == rng
            assert fam.kappa == kappa_of_t(d, fam.t)
            # equal to the plain definition I/d + t*F, not merely close
            plain = np.eye(d, dtype=complex) / d + fam.t * blocks
            assert np.array_equal(fam.effects, plain)
            assert np.array_equal(fam.f_blocks, blocks)

    def test_first_inadmissible_t_is_reported(self):
        basis = standard_basis(3)
        with pytest.raises(ValueError, match=r"t = 0\.2 is outside"):
            build_mums_grid(basis, [0.01, 0.2, 0.0, 0.3])
        with pytest.raises(ValueError, match=r"t = 0\.0 gives kappa"):
            build_mums_grid(basis, [0.01, 0.0, 0.2])
        assert build_mums_grid(basis, []) == []


class TestMumFamily:
    def test_three_fields_and_derived_properties(self, family):
        fam = family(3, 0.05)
        assert [f.name for f in dataclasses.fields(fam)] == ["t", "f_blocks", "t_range"]
        assert fam.d == 3 and fam.kappa == kappa_of_t(3, 0.05)
        # t*F first, then I/d added: the same doubles at every access
        expected = 0.05 * fam.f_blocks
        expected += np.eye(3, dtype=complex) / 3
        assert fam.effects.tobytes() == expected.tobytes()
        assert not fam.effects.flags.writeable
        for name in ("d", "kappa", "effects", "t"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fam, name, None)

    def test_compares_and_hashes_by_identity(self):
        basis = standard_basis(3)
        fam, twin = build_mums(basis, 0.05), build_mums(basis, 0.05)
        assert fam == fam and fam != twin  # equal arrays used to make == raise
        assert len({fam, fam, twin}) == 2


class TestBuildMums:
    def test_relations_hold(self, family):
        fam = family(3, 0.01)
        report = verify_mum_relations(fam)
        assert report.passed
        assert report.trace_one < 1e-12
        assert report.cross_basis < 1e-12
        assert report.within_basis < 1e-12
        assert report.completeness < 1e-12
        assert report.min_effect_eigenvalue > -1e-12

    def test_kappa_is_stored(self, family):
        fam = family(3, 0.05)
        assert fam.kappa == kappa_of_t(3, 0.05)

    def test_t_outside_interval_names_it(self):
        with pytest.raises(ValueError, match=r"\[-0.109390, 0.122008\]"):
            build_mums(standard_basis(3), 0.2)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError, match="1/d"):
            build_mums(standard_basis(3), 0.0)

    def test_inadmissible_t_carries_the_interval(self, t_range_of):
        for t in (0.0, 0.2, -0.2):
            with pytest.raises(InadmissibleTError) as info:
                build_mums(standard_basis(3), t)
            assert info.value.t_range == t_range_of(3)

    def test_d2_endpoint_gives_projectors(self, family, t_range_of):
        fam = family(2, t_range_of(2).upper)
        assert fam.kappa == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(fam.effect_stack())
        assert np.abs(eigs[:, 0]).max() < 1e-9  # rank one
        assert np.abs(eigs[:, 1] - 1.0).max() < 1e-9

    @given(frac=st.floats(0.05, 1.0), d=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_effect_spectrum_in_unit_interval(self, frac, d, family, t_range_of):
        rng = t_range_of(d)
        for t in (frac * rng.lower, frac * rng.upper):
            eigs = np.linalg.eigvalsh(family(d, t).effect_stack())
            assert eigs.min() > -1e-10
            assert eigs.max() < 1.0 + 1e-10

    def test_corrupted_effect_is_reported(self, family):
        fam = family(3, 0.01)
        blocks = fam.f_blocks.copy()
        blocks[0, 0, 0, 0] += 0.01 / fam.t  # moves one effect entry by 0.01
        report = verify_mum_relations(dataclasses.replace(fam, f_blocks=blocks))
        assert not report.passed
        assert report.trace_one == pytest.approx(0.01, abs=1e-10)


class TestTwoDesign:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_effect_identity(self, d, family, t_range_of):
        for frac in (0.3, 1.0):
            assert two_design_residual(family(d, frac * t_range_of(d).upper)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_raw_block_identity(self, d, family, t_range_of):
        # the t-independent counterpart for the building blocks:
        # sum_r F_r x F_r = d (1 + sqrt(d))^2 (SWAP - I/d)
        fam = family(d, 0.5 * t_range_of(d).upper)
        stack = fam.block_stack()
        total = np.einsum("rij,rkl->ikjl", stack, stack).reshape(d * d, d * d)
        expect = d * (1 + np.sqrt(d)) ** 2 * (swap_operator(d) - np.eye(d * d) / d)
        assert np.abs(total - expect).max() < 1e-9

    def test_swap_operator(self):
        f = swap_operator(3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.allclose(f @ np.kron(x, y), np.kron(y, x), atol=1e-14)


class TestSerialization:
    def test_roundtrip(self, family, tmp_path):
        fam = family(3, 0.08)
        path = tmp_path / "family.json"
        save_family(fam, path)
        loaded = load_family(path)
        assert loaded.d == fam.d
        assert loaded.t == fam.t
        assert loaded.kappa == fam.kappa
        assert loaded.t_range == fam.t_range
        assert np.array_equal(loaded.f_blocks, fam.f_blocks)
        assert np.array_equal(loaded.effects, fam.effects)
        assert verify_mum_relations(loaded).passed

    @staticmethod
    def _edited(fam, path, edit):
        save_family(fam, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    @staticmethod
    def _store_effects(fam, payload):
        """Add the effects to a payload, as older versions of save_family did."""
        payload["effects"] = {"re": fam.effects.real.tolist(), "im": fam.effects.imag.tolist()}

    def test_does_not_write_the_derived_effects(self, family, tmp_path):
        path = tmp_path / "family.json"
        save_family(family(3, 0.08), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"format", "version", "d", "t", "kappa", "t_range", "f_blocks"}

    def test_loads_an_older_file_that_stores_the_effects(self, family, tmp_path):
        fam = family(3, 0.08)
        path = self._edited(fam, tmp_path / "family.json", lambda p: self._store_effects(fam, p))
        loaded = load_family(path)
        assert loaded.t == fam.t and loaded.t_range == fam.t_range
        assert np.array_equal(loaded.effects, fam.effects)

    def test_rejects_stored_effects_of_another_shape(self, family, tmp_path):
        fam = family(3, 0.08)

        def truncate(payload):
            self._store_effects(fam, payload)
            del payload["effects"]["re"][-1], payload["effects"]["im"][-1]

        path = self._edited(fam, tmp_path / "family.json", truncate)
        with pytest.raises(ValueError, match="array shapes do not match d = 3"):
            load_family(path)

    @pytest.mark.parametrize(
        "keys",
        [("kappa",), ("effects", "re", 1, 2, 0, 0), ("t_range", "upper")],
        ids=["kappa", "effects", "t_range"],
    )
    def test_rejects_stored_values_that_disagree(self, keys, family, tmp_path):
        fam = family(3, 0.08)

        def nudge(payload):
            if keys[0] == "effects":  # only older files store them
                self._store_effects(fam, payload)
            *outer, last = keys
            for key in outer:
                payload = payload[key]
            payload[last] += 1e-9

        path = self._edited(fam, tmp_path / "family.json", nudge)
        name = keys[0]
        with pytest.raises(ValueError, match=f"stored {name} disagree with what t and the blocks"):
            load_family(path)

    @pytest.mark.parametrize("t, match", [(0.0, "1/d"), (0.2, "outside"), (math.nan, "outside")])
    def test_rejects_an_inadmissible_t(self, t, match, family, tmp_path):
        path = self._edited(family(3, 0.08), tmp_path / "family.json", lambda p: p.update(t=t))
        with pytest.raises(InadmissibleTError, match=match):
            load_family(path)

    def test_rejects_blocks_that_give_no_mum(self, family, tmp_path):
        # twice the blocks: kappa(t) no longer matches their overlaps
        fam = family(3, 0.01)
        blocks = 2.0 * fam.f_blocks
        scaled = dataclasses.replace(fam, f_blocks=blocks, t_range=t_interval(blocks, 3))
        path = self._edited(scaled, tmp_path / "family.json", lambda p: None)
        with pytest.raises(ValueError, match="not give a mutually unbiased measurement"):
            load_family(path)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a mum-family"):
            load_family(path)
