import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from telegate.experiment import CountTable, Estimate, _joint_bootstrap
from telegate.metrics import (
    CHSH_ANGLES,
    CHSH_OUTCOMES,
    CHSH_SIGN_FOR_BELL,
    CHSH_SETTINGS,
    CHSH_VARIANT_FOR_BELL,
    ChshSpec,
    TSIRELSON,
    chsh,
    chsh_correlators,
    chsh_distributions,
    chsh_best,
    chsh_from_correlators,
    fidelity_pure,
    log_negativity,
    partial_transpose,
)
from telegate.protocols import TILDE_LABELS, tilde_bell
from telegate.sources import PairSpec, bell_state, make_pair, single_qubit_state
from telegate.states import DensityMatrix
from telegate.tomography import FitError, _ket_stack, settings_1q, settings_2q
from conftest import (
    analyzer_observable,
    ginibre_dm,
    random_pure,
    reference_chsh_correlators,
    reference_chsh_distributions,
    reference_projectors,
)


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
            rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
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
        for _ in range(5):
            rho = ginibre_dm(2, rng)
            e = chsh_correlators(chsh_distributions(rho))
            for i, j in CHSH_SETTINGS.values():
                obs = np.kron(analyzer_observable(CHSH_ANGLES[0][i]),
                              analyzer_observable(CHSH_ANGLES[1][j]))
                exact = np.trace(rho.entries @ obs).real
                assert e[i, j] == pytest.approx(exact, abs=1e-12)

    def test_correlators_from_counts_are_scale_free(self, rng):
        grid = chsh_distributions(ginibre_dm(2, rng))
        assert grid.shape == (len(CHSH_SETTINGS), len(CHSH_OUTCOMES))
        assert np.allclose(chsh_correlators(1000.0 * grid), chsh_correlators(grid), atol=1e-12)

    def test_zero_count_setting(self):
        grid = np.zeros((len(CHSH_SETTINGS), len(CHSH_OUTCOMES)))
        grid[:, CHSH_OUTCOMES.index("++")] = 5.0
        grid[list(CHSH_SETTINGS).index("chsh10")] = 0.0
        with pytest.raises(ValueError, match="chsh10"):
            chsh_correlators(grid)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_invalid_weight(self, bad):
        # a NaN or infinite weight would give a NaN correlator, a negative one |E| > 1
        grid = np.full((len(CHSH_SETTINGS), len(CHSH_OUTCOMES)), 5.0)
        grid[list(CHSH_SETTINGS).index("chsh01"), CHSH_OUTCOMES.index("+-")] = bad
        with pytest.raises(ValueError, match="chsh01"):
            chsh_correlators(grid)

    @pytest.mark.parametrize("first, second", [(np.nan, -1.0), (-np.inf, np.nan), (np.inf, 0.0)])
    def test_first_bad_setting_is_named(self, first, second):
        # chsh01 holds one bad weight; chsh11 a bad weight or, at 0.0, a zero total
        grid = np.full((len(CHSH_SETTINGS), len(CHSH_OUTCOMES)), 5.0)
        grid[list(CHSH_SETTINGS).index("chsh01"), CHSH_OUTCOMES.index("+-")] = first
        grid[list(CHSH_SETTINGS).index("chsh11")] = second
        with pytest.raises(ValueError) as info:
            chsh_correlators(grid)
        assert str(info.value) == (
            "setting chsh01: weights must be finite and non-negative with a positive total, "
            f"got {grid[list(CHSH_SETTINGS).index('chsh01')].tolist()}")

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            ChshSpec(variant="x")


@st.composite
def random_states(draw):
    """A 1- or 2-qubit state of any rank, from a Ginibre-like matrix of bounded entries."""
    d = 2 ** draw(st.sampled_from((1, 2)))
    rank = draw(st.integers(1, d))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d * rank,
                                   max_size=2 * d * rank))).reshape(2, d, rank)
    g = parts[0] + 1j * parts[1]
    m = g @ g.conj().T
    assume(np.trace(m).real > 1e-3)
    return DensityMatrix(m / np.trace(m).real)


class TestFixedMeasurements:
    """The constant CHSH and Pauli-setting arrays against per-call builders."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(random_states())
    def test_constant_arrays_match_per_call_builders(self, rho):
        for s in settings_1q() if rho.dim == 2 else settings_2q():
            reference = reference_projectors(s.bases)
            kets = _ket_stack(len(s.bases), (s.id,), tuple(o for o, _ in reference))
            assert np.array_equal(kets[:, :, None] * kets[:, None, :].conj(),
                                  np.array([p for _, p in reference]))
            expected = {o: max(float(np.real(np.trace(p @ rho.entries))), 0.0)
                        for o, p in reference}
            got = s.probabilities(rho)
            assert list(got) == list(expected)
            assert np.allclose(list(got.values()), list(expected.values()), rtol=0, atol=1e-15)
        if rho.dim != 4:
            return
        dists = reference_chsh_distributions(rho)
        assert list(dists) == list(CHSH_SETTINGS)
        assert all(list(d) == list(CHSH_OUTCOMES) for d in dists.values())
        grid = np.array([list(d.values()) for d in dists.values()])
        assert np.allclose(chsh_distributions(rho), grid, rtol=0, atol=1e-15)
        e = reference_chsh_correlators(dists)
        for variant in ("+", "-"):
            assert chsh(rho, ChshSpec(variant)) == pytest.approx(
                chsh_from_correlators(e, variant), rel=0, abs=1e-15)
        # the larger |S| of the two variants; a tie within rounding may go either way
        variant, s_val = chsh_best(rho)
        assert s_val == pytest.approx(chsh_from_correlators(e, variant), rel=0, abs=1e-15)
        assert abs(s_val) >= max(abs(chsh_from_correlators(e, v)) for v in "+-") - 1e-15


class TestStacks:
    """Every figure of a stack of states is the figure of each state, bit for bit."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from([(1,), (3,), (2, 4)]), st.integers(0, 2**32 - 1))
    def test_stack_is_per_state_calls(self, shape, seed):
        rng = np.random.default_rng(seed)
        states = [ginibre_dm(2, rng) for _ in range(int(np.prod(shape)))]
        targets = [random_pure(2, rng) for _ in states]
        variants = rng.choice(["+", "-"], size=len(states))
        stack = np.array([rho.entries for rho in states]).reshape(shape + (4, 4))
        amps = np.array([t.amplitudes for t in targets]).reshape(shape + (4,))
        e = chsh_correlators(chsh_distributions(stack))
        values = [fidelity_pure(stack, amps), log_negativity(stack), partial_transpose(stack),
                  chsh_distributions(stack), e,
                  chsh_from_correlators(e, variants.reshape(shape))]
        for got in values:
            assert got.shape[:len(shape)] == shape
        for k, (rho, target, variant) in enumerate(zip(states, targets, variants)):
            e_k = chsh_correlators(chsh_distributions(rho))
            expected = [fidelity_pure(rho, target), log_negativity(rho), partial_transpose(rho),
                        chsh_distributions(rho), e_k, chsh_from_correlators(e_k, variant)]
            for got, want in zip(values, expected):
                assert np.array_equal(got.reshape((-1,) + got.shape[len(shape):])[k], want)
        assert isinstance(fidelity_pure(states[0], targets[0]), float)
        assert isinstance(log_negativity(states[0]), float)

    def test_first_bad_setting_of_a_stack_is_named(self):
        grids = np.full((3, len(CHSH_SETTINGS), len(CHSH_OUTCOMES)), 5.0)
        grids[1, list(CHSH_SETTINGS).index("chsh11"), 0] = np.nan
        grids[2, 0, 0] = -1.0
        with pytest.raises(ValueError, match="setting chsh11: .* got \\[nan, 5.0, 5.0, 5.0\\]"):
            chsh_correlators(grids)


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

    @pytest.mark.parametrize("modes, outcomes, efficiencies, eta", [
        (("m",), ("+",), {"m+": 0.5}, [0.5]),
        # an outcome needs every detector it names: "+-" is a+ times d-
        (("a", "d"), ("++", "+-", "-+", "--"), {"a+": 0.5, "d-": 0.8}, [0.5, 0.4, 1.0, 0.8]),
    ], ids=["one-detector", "two-detector"])
    def test_efficiency_correction_reapplied(self, modes, outcomes, efficiencies, eta):
        table = CountTable(modes, ("s",), outcomes, np.full((1, len(outcomes)), 100), efficiencies)
        assert table.eta.tolist() == eta
        assert table.corrected.tolist() == [[100 / e for e in eta]]
        resampled = table.resample(np.random.default_rng(0))
        assert resampled.corrected.tolist() == (resampled.raw / np.array(eta)).tolist()

    def test_error_is_the_sample_std_of_the_replayed_resamples(self):
        # resample k is drawn from child k of the seed sequence, and each error has ddof=1; an
        # array figure's error is per entry, bit for bit the std of that entry's own samples
        table = CountTable(("m",), ("s",), ("+", "-"), np.array([[40, 7]]), {"m-": 0.5})

        def estimator(tabs):
            t = tabs["t"]
            return {"total": float(t.corrected.sum()), "share": float(t.raw[0, 0] / t.raw.sum()),
                    "row": t.corrected[0] / t.corrected.sum()}

        _, errors = _joint_bootstrap({"t": table}, estimator, 150, np.random.SeedSequence(9))
        replayed = [estimator({"t": table.resample(np.random.default_rng(child))})
                    for child in np.random.SeedSequence(9).spawn(150)]
        for key in ("total", "share"):
            assert errors[key] == float(np.std([r[key] for r in replayed], ddof=1)), key
        assert errors["row"] == [float(np.std([r["row"][j] for r in replayed], ddof=1))
                                 for j in range(2)]

    @pytest.mark.parametrize("failures, aborts", [(10, False), (11, True)])
    def test_more_than_ten_percent_failed_resamples_abort(self, failures, aborts):
        calls = []

        def estimator(tabs):
            calls.append(tabs)
            if 1 < len(calls) <= 1 + failures:  # the first call is the point estimate
                raise FitError("no convergence", DensityMatrix(np.eye(2) / 2))
            return {"x": 1.0}

        def run():
            return _joint_bootstrap({"t": flat_table(10)}, estimator, 100, np.random.SeedSequence(0))

        if aborts:
            with pytest.raises(RuntimeError, match=f"^{failures}/100 bootstrap resamples failed"):
                run()
        else:
            assert run() == ({"x": 1.0}, {"x": 0.0})
