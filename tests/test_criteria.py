from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds import criteria
from mumbounds.basis import gellmann_generators, partition_basis, standard_basis
from mumbounds.config import TOL
from mumbounds.criteria import (
    build_correlation_matrix,
    concurrence_lower_bound,
    concurrence_lower_bounds,
    pure_concurrence,
    pure_trace_norm_closed_form,
    schmidt_number_lower_bound,
    separability_test,
)
from mumbounds.linalg import partial_trace, schmidt_decompose
from mumbounds.mums import build_mums
from mumbounds.states import max_entangled, random_density, random_pure, tiles_noisy

# recorded at the first verified run of the oracle suite (d=3, t=0.01)
TILES_P1_T001_NORM = 1.335041578240853


def _pure_density(psi):
    return np.outer(psi, psi.conj())


def _product_pure(d, seed):
    a = random_pure(d, 1, seed)
    b = random_pure(d, 1, seed + 1)
    return np.kron(a, b)


def _permuted_family(d, t, seed=5):
    """MUMs from a permuted Gell-Mann partition; kappa depends on t only."""
    gens = gellmann_generators(d)
    order = np.random.default_rng(seed).permutation(len(gens))
    return build_mums(partition_basis([gens[k] for k in order], d), t)


def _einsum_reference(rho, ops_a, ops_b):
    """Tr(rho (X_r x Y_c)) by the plain index contraction of the definition."""
    d = ops_a.shape[-1]
    return np.einsum("ikjl,rji,clk->rc", rho.reshape(d, d, d, d), ops_a, ops_b, optimize=True)


class TestCorrelationMatrix:
    def test_maximally_mixed(self, family):
        fam = family(3, 0.05)
        rho = np.eye(9) / 9.0
        corr_p = build_correlation_matrix(rho, fam, convention="P")
        assert np.abs(corr_p.matrix - 1.0 / 9.0).max() < 1e-14
        corr_f = build_correlation_matrix(rho, fam, convention="F")
        assert np.abs(corr_f.matrix).max() < 1e-14

    def test_kron_definition_oracle(self, family):
        # entry (r, c) is Tr(rho (X_r x X_c)) by definition
        fam = family(2, 0.1)
        rho = random_density(4, seed=11)
        for convention, stack in (
            ("P", fam.effect_stack()),
            ("F", fam.block_stack()),
        ):
            corr = build_correlation_matrix(rho, fam, convention=convention)
            for r in range(6):
                for c in range(6):
                    expect = np.trace(rho @ np.kron(stack[r], stack[c])).real
                    assert abs(corr.matrix[r, c] - expect) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_contraction_matches_einsum_reference(self, d, family, t_range_of):
        fam = family(d, 0.9 * t_range_of(d).upper)
        rho = random_density(d * d, seed=d)
        for convention, stack in (("P", fam.effect_stack()), ("F", fam.block_stack())):
            corr = build_correlation_matrix(rho, fam, convention=convention)
            expect = _einsum_reference(rho, stack, stack)
            assert np.abs(corr.matrix - expect.real).max() < 1e-12
            assert np.abs(expect.imag).max() < 1e-12

    def test_contraction_matches_einsum_reference_for_distinct_families(self, family):
        # a permuted basis at -t shares kappa with the standard one at t
        fam_a = family(3, 0.05)
        fam_b = _permuted_family(3, -0.05)
        assert fam_b.kappa == fam_a.kappa
        rho = random_density(9, seed=4)
        for convention, stacks in (
            ("P", (fam_a.effect_stack(), fam_b.effect_stack())),
            ("F", (fam_a.block_stack(), fam_b.block_stack())),
        ):
            corr = build_correlation_matrix(rho, fam_a, fam_b, convention=convention)
            assert np.abs(corr.matrix - _einsum_reference(rho, *stacks).real).max() < 1e-12

    def test_affine_relation_between_conventions(self, family):
        # Tr(rho P x P) = 1/d^2 + (t/d) Tr(rho_A F) + (t/d) Tr(rho_B F') + t^2 Tr(rho F x F')
        fam = family(3, 0.05)
        rho = random_density(9, seed=3)
        corr_p = build_correlation_matrix(rho, fam, convention="P").matrix
        corr_f = build_correlation_matrix(rho, fam, convention="F").matrix
        stack = fam.block_stack()
        rho_a = partial_trace(rho, 3, 3, "A")
        rho_b = partial_trace(rho, 3, 3, "B")
        u = np.einsum("rij,ji->r", stack, rho_a).real
        v = np.einsum("rij,ji->r", stack, rho_b).real
        t = fam.t
        expect = 1.0 / 9.0 + (t / 3.0) * (u[:, None] + v[None, :]) + t * t * corr_f
        assert np.abs(corr_p - expect).max() < 1e-12

    def test_probability_entries_in_unit_interval(self, family):
        fam = family(3, 0.1)
        corr = build_correlation_matrix(random_density(9, seed=7), fam, convention="P")
        assert corr.matrix.min() >= -1e-12
        assert corr.matrix.max() <= 1.0 + 1e-12

    def test_trace_norm_consistency(self, family):
        fam = family(3, 0.1)
        corr = build_correlation_matrix(random_density(9, seed=8), fam)
        assert corr.trace_norm == pytest.approx(corr.singular_values.sum(), abs=1e-10)

    def test_kappa_mismatch_rejected(self, family):
        with pytest.raises(ValueError, match="kappa"):
            build_correlation_matrix(np.eye(9) / 9.0, family(3, 0.01), family(3, 0.02))

    def test_dimension_mismatch_rejected(self, family):
        with pytest.raises(ValueError, match="9x9"):
            build_correlation_matrix(np.eye(4) / 4.0, family(3, 0.01))

    def test_invalid_state_rejected(self, family):
        fam = family(3, 0.01)
        with pytest.raises(ValueError, match="trace"):
            build_correlation_matrix(np.eye(9), fam)
        bad = np.eye(9) / 9.0
        bad[0, 0] = -bad[0, 0]
        with pytest.raises(ValueError, match="eigenvalue|Hermitian|trace"):
            build_correlation_matrix(bad, fam)

    def test_imaginary_cutoff_is_a_named_tolerance(self, family, monkeypatch):
        ops = family(3, 0.05).effect_stack()
        # every entry of I/9 is 1/9; a phase of 1e-6 adds an imaginary part of ~1.1e-7
        realigned = criteria._realigned(np.eye(9) / 9.0, 3) * (1.0 + 1e-6j)
        with pytest.raises(ValueError, match="imaginary part"):
            criteria._correlation(realigned, ops, ops, "P")
        monkeypatch.setattr(criteria, "TOL", replace(TOL, correlation_imaginary=1e-6))
        _, singular_values = criteria._correlation(realigned, ops, ops, "P")
        assert singular_values.sum() == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-9)


class TestClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_trace_norm_on_random_states(self, d, family, t_range_of):
        rng = t_range_of(d)
        for t in (0.6 * rng.lower, 0.4 * rng.upper, 0.95 * rng.upper):
            fam = family(d, t)
            for seed in range(40):
                psi = random_pure(d, d, seed=seed)
                corr = build_correlation_matrix(_pure_density(psi), fam)
                expect = pure_trace_norm_closed_form(
                    schmidt_decompose(psi, d, d), d, fam.kappa
                )
                assert abs(corr.trace_norm - expect) < 1e-10

    def test_product_state_sits_at_threshold(self, family):
        fam = family(3, 0.07)
        corr = build_correlation_matrix(_pure_density(_product_pure(3, 21)), fam)
        assert corr.trace_norm == pytest.approx(1.0 + fam.kappa, abs=1e-10)

    def test_max_entangled_at_endpoint(self, family, t_range_of):
        # at the upper endpoint for d=3 the sharpness is exactly 5/9 and the
        # maximally entangled trace norm is kappa (d+1) = 20/9
        fam = family(3, t_range_of(3).upper)
        assert fam.kappa == pytest.approx(5.0 / 9.0, abs=1e-12)
        corr = build_correlation_matrix(_pure_density(max_entangled(3)), fam)
        assert corr.trace_norm == pytest.approx(20.0 / 9.0, abs=1e-10)

    def test_two_distinct_bases_with_equal_kappa(self, family):
        # the closed form only needs both families to share kappa
        fam_a = family(3, 0.05)
        fam_b = _permuted_family(3, 0.05)
        for seed in range(10):
            psi = random_pure(3, 3, seed=seed)
            corr = build_correlation_matrix(_pure_density(psi), fam_a, fam_b)
            expect = pure_trace_norm_closed_form(
                schmidt_decompose(psi, 3, 3), 3, fam_a.kappa
            )
            assert abs(corr.trace_norm - expect) < 1e-10


class TestPureConcurrence:
    def test_product_state(self):
        assert pure_concurrence(_product_pure(3, 2), 3, 3) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled(self, d):
        expect = np.sqrt(2.0 * (d - 1) / d)
        assert pure_concurrence(max_entangled(d), d, d) == pytest.approx(expect, abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_schmidt_identity_oracle(self, seed):
        psi = random_pure(3, 3, seed=seed)
        c = schmidt_decompose(psi, 3, 3).coefficients
        pairs = sum(
            (c[i] * c[j]) ** 2 for i in range(3) for j in range(i + 1, 3)
        )
        assert pure_concurrence(psi, 3, 3) == pytest.approx(
            2.0 * np.sqrt(pairs), abs=1e-10
        )

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            pure_concurrence(np.ones(9), 3, 3)


class TestConcurrenceBound:
    def test_product_state_undetected(self, family):
        report = concurrence_lower_bound(
            _pure_density(_product_pure(3, 9)), family(3, 0.05)
        )
        assert report.bound_literal == 0.0
        assert report.bound_derived == 0.0
        assert report.verdict == "undetected"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tight_on_max_entangled(self, d, family, t_range_of):
        for frac in (0.3, 0.7, 1.0):
            fam = family(d, frac * t_range_of(d).upper)
            report = concurrence_lower_bound(_pure_density(max_entangled(d)), fam)
            exact = pure_concurrence(max_entangled(d), d, d)
            assert report.bound_derived == pytest.approx(exact, abs=1e-8)
            assert report.verdict == "entangled"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_variant_relation(self, d, family, t_range_of):
        fam = family(d, 0.5 * t_range_of(d).upper)
        report = concurrence_lower_bound(_pure_density(max_entangled(d)), fam)
        expect = report.bound_derived * np.sqrt(fam.kappa * d - 1.0)
        assert report.bound_literal == pytest.approx(expect, abs=1e-10)

    def test_variants_coincide_at_mub_limit(self, family, t_range_of):
        # kappa d - 1 = 1 for d = 2 at the endpoint
        fam = family(2, t_range_of(2).upper)
        report = concurrence_lower_bound(_pure_density(max_entangled(2)), fam)
        assert report.bound_literal == pytest.approx(report.bound_derived, abs=1e-12)

    def test_literal_weaker_for_higher_dimensions(self, family, t_range_of):
        # kappa d - 1 < 1 for d >= 3 on the whole admissible range
        for d in (3, 4):
            fam = family(d, 0.9 * t_range_of(d).upper)
            assert fam.kappa * d - 1.0 < 1.0
            report = concurrence_lower_bound(_pure_density(max_entangled(d)), fam)
            assert report.bound_literal <= report.bound_derived + 1e-12

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_soundness_sample(self, seed, family):
        psi = random_pure(3, 3, seed=seed)
        report = concurrence_lower_bound(_pure_density(psi), family(3, 0.08))
        assert report.bound_derived <= pure_concurrence(psi, 3, 3) + 1e-8

    def test_headline_variant_selection(self, family):
        rho = _pure_density(max_entangled(3))
        fam = family(3, 0.08)
        derived = concurrence_lower_bound(rho, fam, variant="derived")
        literal = concurrence_lower_bound(rho, fam, variant="literal")
        assert derived.bound == derived.bound_derived
        assert literal.bound == literal.bound_literal
        with pytest.raises(ValueError, match="variant"):
            concurrence_lower_bound(rho, fam, variant="best")


    def test_tolerance_must_be_finite_and_non_negative(self, family):
        fam = family(3, 0.05)
        rho = np.eye(9) / 9.0
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                concurrence_lower_bound(rho, fam, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                concurrence_lower_bounds(rho, [fam], tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                separability_test(rho, fam, tol=tol)
        assert concurrence_lower_bound(rho, fam, tol=0.0).verdict == "undetected"


class TestBatchedBounds:
    def test_tiles_t_grid_equals_one_call_per_family(self, t_range_of):
        basis = standard_basis(3)
        rng = t_range_of(3)
        fams = [build_mums(basis, t) for t in np.linspace(0.9 * rng.lower, 0.9 * rng.upper, 81)]
        rho = tiles_noisy(0.99)
        assert concurrence_lower_bounds(rho, fams) == [
            concurrence_lower_bound(rho, fam) for fam in fams
        ]

    def test_seeded_state_with_changing_blocks(self, family, t_range_of):
        # the block norm is reused across t and recomputed when the blocks change
        rng = t_range_of(4)
        fams = [family(4, t) for t in (0.8 * rng.lower, 0.3 * rng.upper, 0.9 * rng.upper)]
        fam_b = _permuted_family(4, -fams[1].t)
        entries = [*fams, (fams[1], fam_b), fam_b, fams[0]]
        pairs = [entry if isinstance(entry, tuple) else (entry, entry) for entry in entries]
        rho = random_density(16, seed=12)
        expect = [concurrence_lower_bound(rho, a, b, variant="literal") for a, b in pairs]
        assert concurrence_lower_bounds(rho, entries, variant="literal") == expect
        assert expect[3].trace_norm_f != expect[1].trace_norm_f

    def test_rejects_mixed_dimensions_and_no_families(self, family):
        with pytest.raises(ValueError, match="dimensions"):
            concurrence_lower_bounds(np.eye(9) / 9.0, [family(3, 0.05), family(2, 0.05)])
        with pytest.raises(ValueError, match="at least one"):
            concurrence_lower_bounds(np.eye(9) / 9.0, [])


class TestSeparability:
    def test_maximally_mixed_undetected(self, family):
        assert separability_test(np.eye(9) / 9.0, family(3, 0.05)) == "undetected"

    def test_max_entangled_detected(self, family, t_range_of):
        fam = family(3, t_range_of(3).upper)
        assert separability_test(_pure_density(max_entangled(3)), fam) == "entangled"

    def test_tiles_golden_value(self, family):
        # bound entangled, yet detected at t = 0.01
        fam = family(3, 0.01)
        corr = build_correlation_matrix(tiles_noisy(1.0), fam)
        assert corr.trace_norm == pytest.approx(TILES_P1_T001_NORM, abs=1e-9)
        assert separability_test(tiles_noisy(1.0), fam) == "entangled"

    def test_verdict_stable_under_tolerance_scaling(self, family):
        # margins 0.002 away from each reference threshold are far above 1e-9
        fam = family(3, 0.01)
        from mumbounds.states import horodecki_noisy

        reference = {0.2: 0.994054, 0.4: 0.99461, 0.6: 0.99626, 0.8: 0.998123, 0.9: 0.999067}
        for upsilon, q_star in reference.items():
            for q, expect in ((q_star - 0.002, "undetected"), (min(1.0, q_star + 0.002), "entangled")):
                rho = horodecki_noisy(upsilon, q)
                for tol in (0.0, 1e-9):
                    assert separability_test(rho, fam, tol=tol) == expect

    def test_mixing_convexity(self, family):
        fam = family(3, 0.08)
        rho = _pure_density(max_entangled(3))
        eye = np.eye(9) / 9.0
        tn_rho = build_correlation_matrix(rho, fam).trace_norm
        tn_eye = build_correlation_matrix(eye, fam).trace_norm
        for q in (0.2, 0.5, 0.8):
            mixed = q * rho + (1 - q) * eye
            tn_mix = build_correlation_matrix(mixed, fam).trace_norm
            assert tn_mix <= q * tn_rho + (1 - q) * tn_eye + 1e-10


class TestSchmidtNumberBound:
    def test_threshold_value_gives_one(self, family):
        fam = family(3, 0.05)
        assert schmidt_number_lower_bound(1.0 + fam.kappa, 3, fam.kappa) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_max_entangled_gives_full_rank(self, family, t_range_of):
        fam = family(3, t_range_of(3).upper)
        corr = build_correlation_matrix(_pure_density(max_entangled(3)), fam)
        bound = schmidt_number_lower_bound(corr.trace_norm, 3, fam.kappa)
        assert bound == pytest.approx(3.0, abs=1e-9)

    def test_below_threshold_clamps(self, family):
        fam = family(3, 0.05)
        assert schmidt_number_lower_bound(1.0, 3, fam.kappa) == 1.0

    def test_requires_sharp_kappa(self):
        with pytest.raises(ValueError, match="exceed"):
            schmidt_number_lower_bound(2.0, 3, 1.0 / 3.0)
