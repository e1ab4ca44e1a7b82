import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds.basis import gellmann_generators, partition_basis, standard_basis
from mumbounds.mums import (
    InadmissibleTError,
    build_f_blocks,
    build_mums,
    kappa_gap,
    kappa_of_t,
    optimal_kappa,
    standard_family,
    standard_grid,
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
    gens = standard_basis(2)[:, 0]
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


class TestStandardFamilyGrid:
    """The families of a t grid are ``standard_family`` calls of one d."""

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_families_share_blocks_and_interval(self, d, t_range_of):
        rng = t_range_of(d)
        ts = np.linspace(0.9 * rng.lower, 0.9 * rng.upper, 6)
        fams = [standard_family(d, t) for t in ts]
        blocks = build_f_blocks(standard_basis(d))
        assert [fam.t for fam in fams] == [float(t) for t in ts]
        for fam in fams:
            assert fam.f_blocks is fams[0].f_blocks and rng.contains(fam.t)
            assert not fam.f_blocks.flags.writeable and not fam.effects.flags.writeable
            assert fam.kappa == kappa_of_t(d, fam.t)
            # equal to the plain definition I/d + t*F, not merely close
            plain = np.eye(d, dtype=complex) / d + fam.t * blocks
            assert np.array_equal(fam.effects, plain)
            assert np.array_equal(fam.f_blocks, blocks)

    def test_first_inadmissible_t_is_reported(self):
        with pytest.raises(InadmissibleTError, match=r"t = 0\.2 is outside"):
            [standard_family(3, t) for t in (0.01, 0.2, 0.0, 0.3)]
        with pytest.raises(InadmissibleTError, match=r"t = 0\.0 gives kappa"):
            [standard_family(3, t) for t in (0.01, 0.0, 0.2)]

    @pytest.mark.parametrize("d, floor", [(2, 2.9e-147), (3, 1.5e-147), (16, 1.3e-148)])
    def test_smallest_t_is_set_by_the_gap(self, d, floor):
        # kappa d rounds to 1 far above the floor (at t = 1e-12), but kappa d - 1
        # = d kappa_gap, which the criteria divide by, stays at least 1/eps
        # times the smallest normal double down to the floor
        smallest = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps / (d * kappa_gap(d, 1.0)))
        assert smallest == pytest.approx(floor, rel=0.02)
        assert kappa_of_t(d, 1e-12) * d == 1.0
        for t in (1e-12, 1.01 * smallest, -1.01 * smallest):
            assert standard_family(d, t).t == t
        ts = [1e-9, 1.01 * smallest, 0.99 * smallest, 0.0]
        with pytest.raises(InadmissibleTError, match=r"gives kappa = 1/d"):
            standard_grid(d, ts)
        for t in (0.99 * smallest, -0.99 * smallest, 1e-154, 1e-300, 0.0):
            with pytest.raises(InadmissibleTError, match=rf"t = {t!r} gives kappa = 1/d"):
                standard_family(d, t)

    def test_build_mums_has_its_own_equal_blocks(self, t_range_of):
        fam = build_mums(standard_basis(3), 0.05)
        shared = standard_family(3, 0.05)
        assert fam.f_blocks is not shared.f_blocks and not fam.f_blocks.flags.writeable
        assert np.array_equal(fam.f_blocks, shared.f_blocks)
        assert t_interval(fam.f_blocks, 3) == t_range_of(3)
        assert np.array_equal(fam.effects, shared.effects)


def _rule_grid(d, rng):
    """Admissible t, 0, +-0.99 of the smallest admissible |t|, 1e-300, and
    t just outside both ends of ``rng``, each with its expected verdict."""
    smallest = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps / (d * kappa_gap(d, 1.0)))
    floor = "gives kappa = 1/d"
    return [
        (0.5 * rng.upper, None), (0.0, floor), (rng.upper, None), (0.99 * smallest, floor),
        (-0.99 * smallest, floor), (0.3 * rng.lower, None), (1e-300, floor),
        (rng.upper * (1 + 1e-9), "is outside"), (1.01 * smallest, None),
        (rng.lower * (1 + 1e-9), "is outside"), (rng.lower, None),
    ]


def _verdict(make, t):
    """The t of a family, or the text of its InadmissibleTError."""
    try:
        return make(t).t
    except InadmissibleTError as exc:
        return str(exc)


class TestOneAdmissibilityRule:
    """Every family and grid admits t by one rule: kappa d - 1 above the floor
    and t in the blocks' interval, with one text for the first t that fails."""

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_families_and_grids_agree(self, d, t_range_of):
        cases = _rule_grid(d, t_range_of(d))
        groups = standard_basis(d)
        verdicts = []
        for t, expected in cases:
            verdict = _verdict(lambda t: standard_family(d, t), t)
            if expected is None:
                assert verdict == t and standard_grid(d, t) == t
            else:
                assert verdict.startswith(f"t = {t!r} {expected}")
            assert _verdict(lambda t: build_mums(groups, t), t) == verdict
            verdicts.append(verdict)
        ts = [t for t, _ in cases]
        for k in range(len(ts)):
            # every rotation of the grid raises the text of its first bad t
            first = next(v for v in verdicts[k:] + verdicts[:k] if isinstance(v, str))
            with pytest.raises(InadmissibleTError) as info:
                standard_grid(d, ts[k:] + ts[:k])
            assert str(info.value) == first
        good = [t for t, expected in cases if expected is None]
        assert standard_grid(d, good).tolist() == good

    def test_a_partner_family_takes_the_rule_with_its_own_interval(self, t_range_of):
        gens = gellmann_generators(3)
        order = np.random.default_rng(5).permutation(len(gens))
        groups = partition_basis([gens[k] for k in order], 3)
        own = t_interval(build_f_blocks(groups), 3)
        assert own != t_range_of(3)
        for t, expected in _rule_grid(3, own):
            verdict = _verdict(lambda t: build_mums(groups, t), t)
            if expected is None:
                assert verdict == t
            else:
                assert verdict.startswith(f"t = {t!r} {expected}")
                if expected == "is outside":
                    assert f"[{own.lower:.6f}, {own.upper:.6f}]" in verdict


class TestMumFamily:
    def test_two_fields_and_derived_properties(self, family):
        fam = family(3, 0.05)
        assert [f.name for f in dataclasses.fields(fam)] == ["t", "f_blocks"]
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
        assert report.two_design_residual < 1e-12

    def test_kappa_is_stored(self, family):
        fam = family(3, 0.05)
        assert fam.kappa == kappa_of_t(3, 0.05)

    def test_t_outside_interval_names_it(self):
        with pytest.raises(ValueError, match=r"\[-0.109390, 0.122008\]"):
            build_mums(standard_basis(3), 0.2)

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError, match="1/d"):
            build_mums(standard_basis(3), 0.0)

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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_effects_are_positive_at_both_interval_ends(self, d, family, t_range_of):
        rng = t_range_of(d)
        for t in (rng.lower, rng.upper):
            assert np.linalg.eigvalsh(family(d, t).effect_stack()).min() >= -1e-12

    def test_corrupted_effect_is_reported(self, family):
        fam = family(3, 0.01)
        blocks = fam.f_blocks.copy()
        blocks[0, 0, 0, 0] += 0.01 / fam.t  # moves one effect entry by 0.01
        report = verify_mum_relations(dataclasses.replace(fam, f_blocks=blocks))
        assert not report.passed
        assert report.trace_one == pytest.approx(0.01, abs=1e-10)

    def test_checks_keep_the_trace_definitions(self, family):
        # a non-Hermitian entry tells Tr(P_r P_c) from Tr(P_r P_c^dag): both
        # checks follow the plain index contractions of their definitions
        fam = family(3, 0.05)
        blocks = fam.f_blocks.copy()
        blocks[0, 0, 0, 1] += 0.01j / fam.t
        corrupted = dataclasses.replace(fam, f_blocks=blocks)
        stack = corrupted.effect_stack()
        gram = np.einsum("rij,cji->rc", stack, stack).real
        same = np.kron(np.eye(4, dtype=bool), np.ones((3, 3), dtype=bool))
        pattern = np.where(same, (1.0 - fam.kappa) / 2, 1.0 / 3)
        dev = np.abs(gram - np.where(np.eye(12, dtype=bool), fam.kappa, pattern))
        report = verify_mum_relations(corrupted)
        assert report.within_basis == pytest.approx(dev[same].max(), abs=1e-15)
        assert report.cross_basis == pytest.approx(dev[~same].max(), abs=1e-15)
        total = np.einsum("rij,rkl->ikjl", stack, stack).reshape(9, 9)
        design = (1.0 + (1.0 - fam.kappa) / 2) * np.eye(9)
        design += (3 * fam.kappa - 1.0) / 2 * swap_operator(3)
        residual = np.abs(total - design).max()
        assert two_design_residual(corrupted) == pytest.approx(residual, abs=1e-15)


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
        stack = fam.f_blocks.reshape(-1, fam.d, fam.d)
        total = np.einsum("rij,rkl->ikjl", stack, stack).reshape(d * d, d * d)
        expect = d * (1 + np.sqrt(d)) ** 2 * (swap_operator(d) - np.eye(d * d) / d)
        assert np.abs(total - expect).max() < 1e-9

    def test_swap_operator(self):
        f = swap_operator(3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.allclose(f @ np.kron(x, y), np.kron(y, x), atol=1e-14)
