import numpy as np
import pytest

from telegate.experiment import CountTable, Estimate, _joint_bootstrap
from telegate.metrics import (
    CHSH_SIGN_FOR_BELL,
    CHSH_SETTINGS,
    CHSH_VARIANT_FOR_BELL,
    ChshSpec,
    TSIRELSON,
    chsh,
    chsh_correlators,
    chsh_distributions,
    chsh_best,
    fidelity_pure,
    log_negativity,
    partial_transpose,
)
from telegate.protocols import TILDE_LABELS, tilde_bell
from telegate.sources import PairSpec, bell_state, make_pair, single_qubit_state
from telegate.states import DensityMatrix
from telegate.tomography import FitError
from conftest import analyzer_observable, ginibre_dm, random_pure


def haar_unitary_2(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestFidelityPure:
    def test_matching_state(self):
        h = single_qubit_state("H")
        assert fidelity_pure(h.density(), h) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self, rng):
        rho = DensityMatrix(np.eye(2) / 2)
        assert fidelity_pure(rho, random_pure(1, rng)) == pytest.approx(0.5, abs=1e-12)

    def test_werner_value(self):
        rho = make_pair(PairSpec("phi+", 0.2))
        assert fidelity_pure(rho, bell_state("phi+")) == pytest.approx(0.85, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(DensityMatrix(np.eye(2) / 2), bell_state("phi+"))


class TestLogNegativity:
    def test_bell_state_is_one(self):
        assert log_negativity(bell_state("phi+").density()) == pytest.approx(1.0, abs=1e-12)

    def test_separable_is_zero(self):
        assert log_negativity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_value(self):
        # partial-transpose eigenvalues (1+p)/4 (x3) and (1-3p)/4; at
        # p = 0.6 the trace norm is 1.4, so N = log2(1.4)
        rho = make_pair(PairSpec("phi+", 0.4))
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
        assert np.allclose(eigs, [-0.2, 0.4, 0.4, 0.4], atol=1e-12)
        assert log_negativity(rho) == pytest.approx(np.log2(1.4), abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        rho = make_pair(PairSpec("psi-", 0.15))
        base = log_negativity(rho)
        for _ in range(100):
            u = np.kron(haar_unitary_2(rng), haar_unitary_2(rng))
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T, validate_psd=False)
            assert abs(log_negativity(rotated) - base) < 1e-9

    def test_two_qubits_only(self):
        with pytest.raises(ValueError):
            log_negativity(DensityMatrix(np.eye(2) / 2))


class TestChsh:
    def test_tilde_phi_plus_saturates_plus_variant(self):
        rho = tilde_bell("phi+", ("a", "d")).density()
        assert chsh(rho, ChshSpec(variant="+")) == pytest.approx(-TSIRELSON, abs=1e-9)
        assert chsh(rho, ChshSpec(variant="-")) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix(np.eye(4) / 4)
        for variant in ("+", "-"):
            assert chsh(rho, ChshSpec(variant=variant)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_linearity_and_threshold(self):
        # S scales linearly with the Bell weight: |S| = p * 2 sqrt 2,
        # violating |S| = 2 exactly when p > 1/sqrt 2
        for p in (0.5, 0.68, 1 / np.sqrt(2), 0.75, 0.9):
            rho = DensityMatrix(
                p * tilde_bell("phi+").density().entries + (1 - p) * np.eye(4) / 4)
            _, s = chsh_best(rho)
            assert abs(s) == pytest.approx(p * TSIRELSON, abs=1e-9)
            assert (abs(s) > 2.0) == (p > 1 / np.sqrt(2) + 1e-12)

    def test_variant_table_for_tilde_states(self):
        for label in TILDE_LABELS:
            rho = tilde_bell(label, ("a", "d")).density()
            variant, s = chsh_best(rho)
            assert variant == CHSH_VARIANT_FOR_BELL[label]
            assert abs(s) == pytest.approx(TSIRELSON, abs=1e-9)
            assert np.sign(s) == CHSH_SIGN_FOR_BELL[label]

    def test_tsirelson_bound_on_random_states(self, rng):
        for _ in range(1000):
            rho = ginibre_dm(2, rng)
            for variant in ("+", "-"):
                assert abs(chsh(rho, ChshSpec(variant=variant))) <= TSIRELSON + 1e-9

    def test_correlators_match_analyzer_observables(self, rng):
        spec = ChshSpec()
        for _ in range(5):
            rho = ginibre_dm(2, rng)
            e = chsh_correlators(chsh_distributions(rho, spec))
            for i, j in CHSH_SETTINGS.values():
                obs = np.kron(analyzer_observable(spec.mode_a_angles[i]),
                              analyzer_observable(spec.mode_d_angles[j]))
                exact = np.trace(rho.entries @ obs).real
                assert e[i, j] == pytest.approx(exact, abs=1e-12)

    def test_correlators_from_counts_are_scale_free(self, rng):
        dists = chsh_distributions(ginibre_dm(2, rng))
        counts = {s: {o: 1000.0 * p for o, p in d.items()} for s, d in dists.items()}
        assert np.allclose(chsh_correlators(counts), chsh_correlators(dists), atol=1e-12)

    def test_zero_count_setting(self):
        dists = {s: {"++": 5.0, "+-": 0.0, "-+": 0.0, "--": 0.0} for s in CHSH_SETTINGS}
        dists["chsh10"] = dict.fromkeys(("++", "+-", "-+", "--"), 0.0)
        with pytest.raises(ValueError, match="chsh10"):
            chsh_correlators(dists)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            ChshSpec(variant="x")


def flat_table(count: int, n_cells: int = 4) -> CountTable:
    return CountTable(("m",), ("s",), tuple(f"o{k}" for k in range(n_cells)),
                      np.full((1, n_cells), count))


def bootstrap(table: CountTable, estimator, n_resamples: int, seed: int):
    """(value, error) of a scalar estimator through the joint bootstrap."""
    values, errors = _joint_bootstrap({"t": table}, lambda tabs: {"x": estimator(tabs["t"])},
                                      n_resamples, np.random.SeedSequence(seed))
    return values["x"], errors["x"]


class TestBootstrap:
    def test_total_counts_relative_error(self):
        # Poisson: std of a 1e6 count is 1e3, so the relative error is 1e-3
        table = flat_table(1_000_000, n_cells=1)
        value, err = bootstrap(table, lambda t: t.corrected.sum(),
                               n_resamples=300, seed=1)
        assert value == 1_000_000.0
        assert err / value == pytest.approx(1e-3, rel=0.25)

    def test_constant_estimator(self):
        _, err = bootstrap(flat_table(100), lambda t: 42.0, n_resamples=100, seed=2)
        assert err == 0.0

    def test_deterministic_given_seed(self):
        est = lambda t: t.corrected.sum()
        a = bootstrap(flat_table(500), est, n_resamples=120, seed=7)
        b = bootstrap(flat_table(500), est, n_resamples=120, seed=7)
        assert a == b

    def test_minimum_resamples(self):
        with pytest.raises(ValueError, match="100"):
            bootstrap(flat_table(10), lambda t: 0.0, n_resamples=50, seed=0)

    def test_failing_estimator_aborts(self):
        # estimator succeeds on the original counts and cannot fit nearly
        # every Poisson resample; past 10% skips the bootstrap aborts
        def estimator(t):
            if (t.raw != 10).any():
                raise FitError("no convergence", DensityMatrix(np.eye(2) / 2))
            return 1.0

        with pytest.raises(RuntimeError, match="resamples failed"):
            bootstrap(flat_table(10), estimator, n_resamples=100, seed=0)

    def test_programming_error_propagates(self):
        # only data-dependent failures are skipped; a bug in the estimator
        # surfaces at the first resample that hits it
        def estimator(t):
            if (t.raw != 10).any():
                raise TypeError("estimator bug")
            return 1.0

        with pytest.raises(TypeError, match="estimator bug"):
            bootstrap(flat_table(10), estimator, n_resamples=100, seed=0)

    def test_point_estimate_carries_its_fit(self):
        table = flat_table(100)
        calls = []

        def estimator(tabs):
            calls.append(tabs["t"])
            return Estimate({"x": 1.0}, fitted=len(calls))

        values, errors = _joint_bootstrap({"t": table}, estimator, 100, np.random.SeedSequence(3))
        assert calls[0] is table and len(calls) == 101
        assert values.fitted == 1 and values == {"x": 1.0}
        assert errors == {"x": 0.0}

    def test_efficiency_correction_reapplied(self):
        eff = {"m+": 0.5}
        table = CountTable(("m",), ("s",), ("+",), np.array([[100]]), eff)
        assert table.corrected[0, 0] == 200.0
        rng = np.random.default_rng(0)
        resampled = table.resample(rng)
        assert resampled.corrected[0, 0] == resampled.raw[0, 0] / 0.5
