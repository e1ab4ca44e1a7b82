import contextlib
import io
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumbounds import criteria, engine
from mumbounds.basis import gellmann_generators, partition_basis
from mumbounds.cli import main
from mumbounds.config import TOL
from mumbounds.criteria import (
    BoundReport,
    bound_columns,
    build_correlation_matrix,
    concurrence_lower_bound,
    pure_trace_norm_closed_form,
)
from mumbounds.engine import SweepSpec, ThresholdQuery, run_sweep, run_threshold
from mumbounds.linalg import schmidt_decompose
from mumbounds.mums import build_mums, kappa_gap, standard_family, standard_grid
from mumbounds.states import (
    horodecki_state,
    max_entangled,
    mix_with_white_noise,
    random_density,
    random_pure,
    save_state,
    tiles_state,
    validate_density,
)

from references import partial_trace, pure_concurrence

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
        corr_p = build_correlation_matrix(rho, fam)
        assert np.abs(corr_p.matrix - 1.0 / 9.0).max() < 1e-14
        blocks = fam.f_blocks.reshape(-1, fam.d, fam.d)
        assert np.abs(_einsum_reference(rho, blocks, blocks)).max() < 1e-14

    def test_kron_definition_oracle(self, family):
        # entry (r, c) is Tr(rho (X_r x X_c)) by definition
        fam = family(2, 0.1)
        rho = random_density(4, seed=11)
        blocks = fam.f_blocks.reshape(-1, fam.d, fam.d)
        for matrix, stack in (
            (build_correlation_matrix(rho, fam).matrix, fam.effect_stack()),
            (_einsum_reference(rho, blocks, blocks).real, blocks),
        ):
            for r in range(6):
                for c in range(6):
                    expect = np.trace(rho @ np.kron(stack[r], stack[c])).real
                    assert abs(matrix[r, c] - expect) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
    def test_contraction_matches_einsum_reference(self, d, family, t_range_of):
        fam = family(d, 0.9 * t_range_of(d).upper)
        rho = random_density(d * d, seed=d)
        stack = fam.effect_stack()
        expect = _einsum_reference(rho, stack, stack)
        assert np.abs(build_correlation_matrix(rho, fam).matrix - expect.real).max() < 1e-12
        assert np.abs(expect.imag).max() < 1e-12
        # the block matrix behind every report's trace_norm_f
        blocks = fam.f_blocks.reshape(-1, fam.d, fam.d)
        expect_f = _einsum_reference(rho, blocks, blocks)
        assert np.abs(expect_f.imag).max() < 1e-12
        norm_f = np.linalg.svd(expect_f.real, compute_uv=False).sum()
        assert abs(concurrence_lower_bound(rho, fam).trace_norm_f - norm_f) < 1e-12 * norm_f

    def test_contraction_matches_einsum_reference_for_distinct_families(self, family):
        # a permuted basis at -t shares kappa with the standard one at t
        fam_a = family(3, 0.05)
        fam_b = _permuted_family(3, -0.05)
        assert fam_b.kappa == fam_a.kappa
        rho = random_density(9, seed=4)
        corr = build_correlation_matrix(rho, fam_a, fam_b)
        expect = _einsum_reference(rho, fam_a.effect_stack(), fam_b.effect_stack())
        assert np.abs(corr.matrix - expect.real).max() < 1e-12
        blocks_a, blocks_b = (fam.f_blocks.reshape(-1, 3, 3) for fam in (fam_a, fam_b))
        expect_f = _einsum_reference(rho, blocks_a, blocks_b).real
        norm_f = np.linalg.svd(expect_f, compute_uv=False).sum()
        report = concurrence_lower_bound(rho, fam_a)
        assert abs(report.trace_norm_f - norm_f) < 1e-12 * norm_f
        assert abs(report.trace_norm_p - corr.trace_norm) < 1e-12 * corr.trace_norm
        # the criteria read a family through d and t alone, and the report
        # is even in t: every field but t is the standard family's at +t
        assert replace(concurrence_lower_bound(rho, fam_b), t=fam_a.t) == report

    def test_affine_relation_between_probability_and_block_matrices(self, family):
        # Tr(rho P x P) = 1/d^2 + (t/d) Tr(rho_A F) + (t/d) Tr(rho_B F') + t^2 Tr(rho F x F')
        fam = family(3, 0.05)
        rho = random_density(9, seed=3)
        corr_p = build_correlation_matrix(rho, fam).matrix
        stack = fam.f_blocks.reshape(-1, fam.d, fam.d)
        corr_f = _einsum_reference(rho, stack, stack).real
        rho_a = partial_trace(rho, 3, 3, "A")
        rho_b = partial_trace(rho, 3, 3, "B")
        u = np.einsum("rij,ji->r", stack, rho_a).real
        v = np.einsum("rij,ji->r", stack, rho_b).real
        t = fam.t
        expect = 1.0 / 9.0 + (t / 3.0) * (u[:, None] + v[None, :]) + t * t * corr_f
        assert np.abs(corr_p - expect).max() < 1e-12

    def test_probability_entries_in_unit_interval(self, family):
        fam = family(3, 0.1)
        corr = build_correlation_matrix(random_density(9, seed=7), fam)
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

    def test_a_skewed_d16_file_is_evaluated_as_its_hermitian_part(self, tmp_path):
        # an anti-Hermitian part of 0.45e-12 passes the density check, and
        # the real frame is that of (rho + rho^dagger)/2: bound and threshold
        # give its report, where a cutoff on the imaginary part of the frame
        # entries, about 2.4e-10 here, would reject the file
        d = 16
        rho = random_density(d * d, rank=2, seed=16)
        rng = np.random.default_rng(16)
        b = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        skew = b - b.conj().T
        np.fill_diagonal(skew, 0.0)
        skewed = rho + 0.45e-12 * skew / np.abs(skew).max()
        assert validate_density(skewed) == []
        reports = []
        for name, state in (("skewed", skewed), ("hermitian", (skewed + skewed.conj().T) / 2)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            save_state(state, path)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["bound", "--state", "file", "--file", str(path), "--t", "0.004",
                             "--out", str(out)]) == 0, name
                assert main(["threshold", "--state", "file", "--file", str(path),
                             "--t", "0.004"]) == 0, name
            result, _ = run_threshold(ThresholdQuery("file", 0.004, "p", file=str(path)))
            reports.append((json.loads(out.read_text()), result))
        (bound, result), (bound_h, result_h) = reports
        for key, value in bound_h.items():
            if isinstance(value, float):
                assert abs(bound[key] - value) <= 1e-12 * max(1.0, abs(value)), key
            else:
                assert bound[key] == value, key
        assert result.found and result.evaluations == result_h.evaluations
        assert abs(result.threshold - result_h.threshold) <= 1e-12
        for margin, margin_h in zip(result.margins, result_h.margins):
            assert abs(margin - margin_h) <= 1e-12


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
    @pytest.mark.parametrize("d", range(2, 9))
    def test_product_state_undetected(self, d, family, t_range_of):
        # a pure product state sits exactly at 1 + kappa, so its bounds are
        # zero, not rounding of either sign
        rng = t_range_of(d)
        ts = [rng.lower, 1e-3 * rng.lower, 1e-3 * rng.upper, 0.5 * rng.upper, rng.upper]
        for seed in (9, 0, 10, 20):
            rho = _pure_density(_product_pure(d, seed))
            for t in ts + [0.05] * (d == 3):
                report = concurrence_lower_bound(rho, family(d, t))
                assert report.bound_literal == 0.0, (seed, t)
                assert report.bound_derived == 0.0, (seed, t)
                assert report.schmidt_number_lb == 1.0, (seed, t)
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


    def test_tolerance_must_be_finite_and_non_negative(self, family):
        fam = family(3, 0.05)
        rho = np.eye(9) / 9.0
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                concurrence_lower_bound(rho, fam, tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                bound_columns(rho[None], [fam.t], tol=tol)
            with pytest.raises(ValueError, match="tolerance"):
                bound_columns(np.stack([rho, rho]), fam.t, tol=tol)
        assert concurrence_lower_bound(rho, fam, tol=0.0).verdict == "undetected"

    @pytest.mark.parametrize("d", range(2, 9))
    def test_product_states_stay_undetected_at_small_t(self, d, family, t_range_of):
        # the verdict's margin tol * (kappa d - 1) shrinks with t like the
        # excess itself, and a product state's excess is rounding far below it
        # and so is that of a convex mixture of product states
        rng = t_range_of(d)
        products = [_pure_density(_product_pure(d, 10 * seed)) for seed in range(4)]
        mixer = np.random.default_rng(d)
        for seed in range(4):
            parts = [np.kron(random_density(d, seed=100 * seed + 2 * k),
                             random_density(d, seed=100 * seed + 2 * k + 1)) for k in range(3)]
            products.append(np.einsum("k,kij->ij", mixer.dirichlet(np.ones(3)), parts))
        for seed, rho in enumerate(products):
            for t in np.array([1e-7, 1e-5, 1e-3, 0.5]) * rng.upper:
                for t_signed in (t, t * rng.lower / rng.upper):
                    report = concurrence_lower_bound(rho, family(d, t_signed))
                    assert report.verdict == "undetected", (seed, t_signed, report)

    def test_bound_never_exceeds_the_wootters_concurrence(self, t_range_of):
        # for two qubits the concurrence of a mixed state is Wootters'
        # max(0, l1 - l2 - l3 - l4), l the decreasing square roots of the
        # eigenvalues of sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho)
        yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])

        def wootters(rho):
            vals, vecs = np.linalg.eigh(rho)
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
            spectrum = np.linalg.eigvalsh(root @ yy @ rho.conj() @ yy @ root)
            lam = np.sqrt(np.clip(spectrum, 0.0, None))[::-1]
            return max(0.0, lam[0] - lam[1:].sum())

        states = np.stack([random_density(4, rank=1 + seed % 4, seed=seed) for seed in range(1000)])
        weights = np.random.default_rng(2).uniform(0.5, 1.0, len(states))
        exact = np.array([wootters(mix_with_white_noise(s, w)) for s, w in zip(states, weights)])
        rng = t_range_of(2)
        detected = 0
        for frac in (1e-3, 0.1, 0.5, 1.0):
            for t in (frac * rng.lower, frac * rng.upper):
                columns = bound_columns(states, t, weights=weights)
                excess = np.array(columns["bound_derived"]) - exact
                assert excess.max() <= 1e-12, (t, excess.max())
                detected += columns["verdict"].count("entangled")
        # the oracle is not vacuous: most entangled points are detected
        assert detected > 4000

    @pytest.mark.parametrize("d", [3, 4])
    @given(seed=st.integers(0, 2**31 - 1), rank=st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_bound_never_exceeds_a_convex_roof_estimate(self, d, seed, rank, t_range_of):
        # any decomposition rho = sum_j |psi_j><psi_j| gives the upper estimate
        # C(rho) <= sum_j p_j C(psi_j / sqrt(p_j)), p_j = <psi_j|psi_j>; the
        # eigenvectors scaled by sqrt(eigenvalue) and remixed by a random
        # unitary U are one: rho = (A U)(A U)^dag
        rho = random_density(d * d, rank=rank, seed=seed)
        vals, vecs = np.linalg.eigh(rho)
        amps = vecs[:, -rank:] * np.sqrt(np.clip(vals[-rank:], 0.0, None))
        mixer = np.random.default_rng(seed)
        unitary, _ = np.linalg.qr(mixer.standard_normal((rank, rank))
                                  + 1j * mixer.standard_normal((rank, rank)))
        psis = amps @ unitary
        p = (np.abs(psis) ** 2).sum(axis=0)
        estimate = sum(pj * pure_concurrence(psi / np.sqrt(pj), d, d)
                       for pj, psi in zip(p, psis.T))
        rng = t_range_of(d)
        ts = standard_grid(d, np.outer([rng.lower, rng.upper], [1e-3, 0.5, 1.0]).ravel())
        bounds = bound_columns(rho[None], ts)["bound_derived"]
        assert max(bounds) <= estimate + 1e-12, (bounds, estimate)


class TestFrontDoor:
    """Every state is checked with ``states.validate_density``: by the two
    entries the package exports, and by a query as it makes its state."""

    @staticmethod
    def _calls(rho, fam, monkeypatch):
        # the queries' builders give rho, or a stack that holds it
        monkeypatch.setattr(engine, "tiles_state", lambda: rho)
        monkeypatch.setattr(engine, "horodecki_state",
                            lambda upsilon: np.stack([np.eye(9) / 9.0, rho]))
        return (
            lambda: concurrence_lower_bound(rho, fam),
            lambda: build_correlation_matrix(rho, fam),
            lambda: run_threshold(ThresholdQuery("tiles", fam.t, "p")),
            lambda: run_sweep(SweepSpec("p", 0.0, 1.0, 2, "tiles", fixed={"t": fam.t})),
            lambda: run_sweep(SweepSpec("upsilon", 0.0, 1.0, 2, "horodecki", fixed={"t": fam.t})),
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_state_names_its_entries(self, family, value, monkeypatch):
        # an off-diagonal NaN used to pass the check and fail inside the SVD
        rho = np.eye(9, dtype=complex) / 9.0
        rho[0, 1] = rho[1, 0] = value
        for call in self._calls(rho, family(3, 0.05), monkeypatch):
            with pytest.raises(ValueError, match=r"non-finite entries at \(0, 1\), \(1, 0\)$"):
                call()

    def test_density_tolerances_of_the_file_policy(self, family, monkeypatch, capsys):
        # each state passed the former 1e-9 cutoff and fails density_* of TOL
        white = np.eye(9, dtype=complex) / 9.0
        skew = white.copy()
        skew[0, 1] = 1e-11
        spectrum = np.full(9, (1.0 + 5e-10) / 8.0)
        spectrum[0] = -5e-10
        for rho in (white * (1.0 + 1e-10), skew, np.diag(spectrum).astype(complex)):
            problems = validate_density(rho)
            assert problems
            message = "state is not a density matrix: " + "; ".join(problems)
            for call in self._calls(rho, family(3, 0.05), monkeypatch):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()
            # the CLI reports it as an error, exit 1
            assert main(["bound", "--state", "tiles", "--t", "0.05"]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")


def _reports(d, columns):
    """The BoundReports of columns keyed as ``BoundReport.as_dict``."""
    return [BoundReport(d, *fields) for fields in zip(*columns.values())]


class TestColumns:
    def test_tiles_t_grid_equals_one_call_per_family(self, t_range_of):
        rng = t_range_of(3)
        ts = standard_grid(3, np.linspace(0.9 * rng.lower, 0.9 * rng.upper, 81))
        rho = mix_with_white_noise(tiles_state(), 0.99)
        assert _reports(3, bound_columns(rho[None], ts)) == [
            concurrence_lower_bound(rho, standard_family(3, t)) for t in ts
        ]

    def test_weights_equal_one_weight_at_a_time(self, t_range_of):
        # t and w broadcast against each other, and each point is its own evaluation
        rho = random_density(16, seed=12)
        weights = np.linspace(0.0, 1.0, 5)
        points = [(t, w) for t in (0.8 * t_range_of(4).lower, 0.3 * t_range_of(4).upper)
                  for w in weights]
        ts, ws = np.array(points).T
        assert _reports(4, bound_columns(rho[None], ts, weights=ws)) == [
            _reports(4, bound_columns(rho[None], [t], weights=w))[0] for t, w in points
        ]
        ts = ts[::5]
        # weight 1 is the state itself, and weight 0 the maximally mixed state
        assert _reports(4, bound_columns(rho[None], ts)) == [
            concurrence_lower_bound(rho, standard_family(4, t)) for t in ts
        ]
        at_zero = _reports(4, bound_columns(rho[None], ts, weights=0.0))
        white = np.eye(16) / 16.0
        for report, t in zip(at_zero, ts):
            expect = concurrence_lower_bound(white, standard_family(4, t))
            assert report.trace_norm_f == 0.0
            assert report.trace_norm_p == pytest.approx(expect.trace_norm_p, abs=1e-15)
            assert report.verdict == expect.verdict == "undetected"

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_tiny_t_gives_the_bound_of_small_t(self, d):
        # down to the smallest admissible t, where kappa d - 1 is 1/eps above
        # the smallest normal double, the excess keeps its relative precision
        rho = tiles_state() if d == 3 else random_density(d * d, rank=2, seed=d)
        smallest = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps / (d * kappa_gap(d, 1.0)))
        ts = standard_grid(d, [1e-7, 1e-9, 1e-100, 1.01 * smallest, -1.01 * smallest])
        bounds = np.array(bound_columns(rho[None], ts)["bound_derived"])
        assert bounds[0] > 0.0
        assert np.abs(bounds[1:] - bounds[0]).max() <= 1e-12 * bounds[0], bounds

    def test_weights_outside_unit_interval_rejected(self, family):
        fam = family(3, 0.05)
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match=r"mixing weight .* must lie in \[0, 1\]"):
                bound_columns(np.eye(9)[None] / 9.0, fam.t, weights=[0.5, bad])

    def test_empty_input_gives_empty_columns(self, family):
        fam = family(3, 0.05)
        rho = np.eye(9) / 9.0
        empty = {key: [] for key in BoundReport(3, *[0] * 9).as_dict() if key != "d"}
        assert bound_columns(rho[None], []) == empty
        assert bound_columns(rho[None], fam.t, weights=[]) == empty
        assert bound_columns(np.empty((0, 9, 9)), fam.t) == empty


class TestSeparability:
    def test_maximally_mixed_undetected(self, family):
        assert concurrence_lower_bound(np.eye(9) / 9.0, family(3, 0.05)).verdict == "undetected"

    def test_max_entangled_detected(self, family, t_range_of):
        fam = family(3, t_range_of(3).upper)
        assert concurrence_lower_bound(_pure_density(max_entangled(3)), fam).verdict == "entangled"

    def test_tiles_golden_value(self, family):
        # bound entangled, yet detected at t = 0.01
        fam = family(3, 0.01)
        corr = build_correlation_matrix(tiles_state(), fam)
        assert corr.trace_norm == pytest.approx(TILES_P1_T001_NORM, abs=1e-9)
        assert concurrence_lower_bound(tiles_state(), fam).verdict == "entangled"

    def test_verdict_stable_under_tolerance_scaling(self, family):
        # margins 0.002 away from each reference threshold are far above 1e-9
        fam = family(3, 0.01)
        reference = {0.2: 0.994054, 0.4: 0.99461, 0.6: 0.99626, 0.8: 0.998123, 0.9: 0.999067}
        for upsilon, q_star in reference.items():
            for q, expect in ((q_star - 0.002, "undetected"), (min(1.0, q_star + 0.002), "entangled")):
                rho = mix_with_white_noise(horodecki_state(upsilon), q)
                for tol in (0.0, 1e-9):
                    assert concurrence_lower_bound(rho, fam, tol=tol).verdict == expect

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
        # a product pure state sits at the threshold
        report = concurrence_lower_bound(_pure_density(_product_pure(3, 21)), family(3, 0.05))
        assert report.schmidt_number_lb == pytest.approx(1.0, abs=1e-12)

    def test_max_entangled_gives_full_rank(self, family, t_range_of):
        for d in (2, 3, 4):
            fam = family(d, t_range_of(d).upper)
            report = concurrence_lower_bound(_pure_density(max_entangled(d)), fam)
            assert report.schmidt_number_lb == pytest.approx(d, abs=1e-9)

    def test_below_threshold_clamps(self, family):
        report = concurrence_lower_bound(np.eye(9) / 9.0, family(3, 0.05))
        assert report.schmidt_number_lb == 1.0


def _assert_same_report(got: BoundReport, dense: BoundReport, context) -> None:
    """Every field of ``got`` equals the dense-frame report to 1e-12
    relative plus the 1e-15 floor of the 40-digit gate; t, kappa, the
    threshold and the verdict are equal."""
    for name in ("trace_norm_p", "trace_norm_f", "bound_literal", "bound_derived",
                 "schmidt_number_lb"):
        x, ref = getattr(got, name), getattr(dense, name)
        assert abs(x - ref) <= 1e-12 * abs(ref) + 1e-15, (context, name, x, ref)
    assert replace(got, trace_norm_p=0.0, trace_norm_f=0.0, bound_literal=0.0,
                   bound_derived=0.0, schmidt_number_lb=0.0) == replace(
        dense, trace_norm_p=0.0, trace_norm_f=0.0, bound_literal=0.0, bound_derived=0.0,
        schmidt_number_lb=0.0), context


def _dense_report(rho, t, w):
    """The report of a one-state evaluation on the dense frame: with the
    purity cutoff below zero, no state takes the pure closed forms."""
    d = int(round(np.sqrt(rho.shape[0])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria, "TOL", replace(TOL, purity=-1.0))
        return _reports(d, bound_columns(rho[None], t, weights=w))[0]


class TestSchmidtPath:
    """A pure state is evaluated by closed forms in its Schmidt
    coefficients.  It must give the dense frame's report."""

    @staticmethod
    def _contractions(monkeypatch):
        calls = []
        original = criteria._contract
        monkeypatch.setattr(
            criteria, "_contract", lambda *args: calls.append(1) or original(*args)
        )
        return calls

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pure_states_equal_the_dense_frame(self, d, t_range_of, monkeypatch):
        rng = t_range_of(d)
        ts = standard_grid(d, [rng.lower, rng.upper, 1e-7 * rng.lower, 1e-7 * rng.upper,
                               0.3 * rng.lower, 0.5 * rng.upper])
        states = [_pure_density(random_pure(d, d, seed=50 * d + seed)) for seed in range(3)]
        states.append(_pure_density(max_entangled(d)))
        for rho in states:
            for w in (1.0, 0.9, 0.3):
                contractions = self._contractions(monkeypatch)
                got = _reports(d, bound_columns(rho[None], ts, weights=w))
                assert contractions == []  # no d^2 x d^2 frame was formed
                for report, t in zip(got, ts):
                    _assert_same_report(report, _dense_report(rho, t, w), (t, w))

    @pytest.mark.parametrize("d", [3, 6, 16])
    def test_both_sides_of_the_purity_cutoff_equal_the_dense_frame(self, d, t_range_of):
        # (1 - eps) psi psi^dagger + eps I/d^2 has 1 - Tr rho^2 close to
        # 2 eps (1 - 1/d^2); just inside the cutoff it is evaluated as pure
        psi = random_pure(d, d, seed=d)
        rng = t_range_of(d)
        ts = standard_grid(d, [rng.lower, 1e-7 * rng.upper, rng.upper])
        at_cutoff = TOL.purity / (2.0 * (1.0 - 1.0 / d**2))
        for eps, pure in ((0.9 * at_cutoff, True), (1.1 * at_cutoff, False)):
            rho = mix_with_white_noise(_pure_density(psi), 1.0 - eps)
            assert criteria._pure(rho[None])[0] == pure
            for w in (1.0, 0.9, 0.3):
                got = _reports(d, bound_columns(rho[None], ts, weights=w))
                for report, t in zip(got, ts):
                    _assert_same_report(report, _dense_report(rho, t, w), (eps, t, w))

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_a_stack_member_takes_the_path_of_the_state_alone(self, d, t_range_of):
        # states within rounding of the purity cutoff, on both sides of it,
        # are probed by one formula: each takes the same path and gives the
        # same doubles alone as between a mixed and a pure neighbour
        psi = random_pure(d, d, seed=d)
        t = standard_grid(d, [0.5 * t_range_of(d).upper])[0]
        at_cutoff = TOL.purity / (2.0 * (1.0 - 1.0 / d**2))
        near = [mix_with_white_noise(_pure_density(psi), 1.0 - scale * at_cutoff)
                for scale in np.linspace(0.9, 1.1, 9)]
        stack = np.stack([random_density(d * d, seed=d), *near,
                          _pure_density(random_pure(d, d, seed=d + 1))])
        paths = criteria._pure(stack)[1:-1]
        assert paths.any() and not paths.all()
        together = bound_columns(stack, t)
        for i, rho in enumerate(near):
            assert criteria._pure(rho[None])[0] == paths[i]
            alone = bound_columns(rho[None], t)
            assert {key: column[i + 1] for key, column in together.items()} == {
                key: column[0] for key, column in alone.items()
            }, i

    def test_margin_of_a_pure_state_equals_the_dense_frame(self, t_range_of):
        # white_noise_margin frames a pure state the same way
        for d in (2, 3, 5):
            rho = _pure_density(random_pure(d, d, seed=d))
            for t in (t_range_of(d).lower, 0.5 * t_range_of(d).upper):
                fam = standard_family(d, t)
                margin = criteria.white_noise_margin(rho, fam.d, fam.t)
                scale = fam.kappa * d - 1.0
                for w in (0.0, 0.3, 0.9, 1.0):
                    dense = _dense_report(rho, t, w)
                    excess = dense.trace_norm_p - 1.0 - dense.kappa
                    assert abs(margin(w) - excess) <= 1e-12 * scale, (d, t, w)

    def test_pure_horodecki_bound_equals_its_sweep_row(self, tmp_path):
        # horodecki_state(0) is a pure product state: `bound` and the upsilon
        # sweep's stack both probe it and evaluate its closed forms
        out = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bound", "--state", "horodecki", "--upsilon", "0", "--t", "0.08",
                         "--out", str(out)]) == 0
        bound = json.loads(out.read_text())
        row = run_sweep(SweepSpec("upsilon", 0.0, 1.0, 11, "horodecki", fixed={"t": 0.08}))[0]
        assert row["var"] == 0.0
        for key in ("traceNormP", "traceNormF", "bound_literal", "bound_derived",
                    "schmidt_number_lb"):
            assert abs(bound[key] - row[key]) <= 1e-12 * abs(row[key]) + 1e-15, key
        for key in ("d", "t", "kappa", "threshold", "verdict"):
            assert bound[key] == row[key], key
