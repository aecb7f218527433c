import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from telegate.experiment import CountTable, simulate_counts
from telegate.protocols import tilde_bell
from telegate.sources import TOMOGRAPHIC_PROBES, InputSpec, make_input, single_qubit_state
from telegate import tomography
from telegate.states import DensityMatrix, PAULI
from telegate.tomography import (
    BASIS_VECTORS,
    FitError,
    MeasurementSetting,
    _DESIGN,
    _DESIGN_INV,
    _bfgs_update,
    _exact_fit_1q,
    _factor_fit,
    _factor_nll,
    _fit_stack,
    _ket_stack,
    linear_inversion,
    mle_fit,
    process_tomo,
    settings_1q,
    settings_2q,
)
from conftest import (
    _grad_to_real,
    same_bits,
    _unpack_cholesky,
    cholesky_reference,
    factor_bfgs_reference,
    factor_lbfgs_reference,
    fit_inputs,
    ginibre_dm,
    identity_process,
    process_fidelity,
    reference_linear_inversion,
    reference_projectors,
)


def exact_table(state: DensityMatrix, modes, shots=1_000_000) -> CountTable:
    """Count table with corrected counts exactly proportional to the Born probabilities."""
    settings = settings_1q() if len(modes) == 1 else settings_2q()
    dists = [s.probabilities(state) for s in settings]
    return CountTable(tuple(modes), tuple(s.id for s in settings), tuple(dists[0]),
                      shots * np.array([list(d.values()) for d in dists]))


def sampled_table(state: DensityMatrix, modes, shots, seed) -> CountTable:
    settings = settings_1q() if len(modes) == 1 else settings_2q()
    probs = {s.id: s.probabilities(state) for s in settings}
    return simulate_counts(probs, shots, {}, seed, modes)


def loglikelihood(counts: CountTable, rho: DensityMatrix) -> float:
    """Multinomial log likelihood of ``rho`` for a count table."""
    settings = {s.id: s for s in (settings_1q() if len(counts.modes) == 1 else settings_2q())}
    dists = [settings[setting_id].probabilities(rho) for setting_id in counts.settings]
    probs = np.array([[dist[outcome] for outcome in counts.outcomes] for dist in dists])
    observed = counts.corrected > 0
    return float(counts.corrected[observed] @ np.log(np.maximum(probs[observed], 1e-12)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def bloch_state(r) -> DensityMatrix:
    return DensityMatrix(0.5 * (np.eye(2) + sum(x * PAULI[p] for x, p in zip(r, "XYZ"))))


class TestSettings:
    def test_single_qubit_bases(self):
        assert [s.id for s in settings_1q()] == ["Z", "X", "Y"]

    def test_two_qubit_counts(self):
        all_settings = settings_2q()
        assert len(all_settings) == 9
        assert sum(len(s.probabilities(np.eye(4) / 4)) for s in all_settings) == 36

    @pytest.mark.parametrize("bases", [(), ("Q",), ("Z", "X", "Y"), ("Z", 1), ("ZX",)])
    def test_only_one_and_two_qubit_pauli_settings(self, bases):
        with pytest.raises(ValueError, match="unknown setting"):
            MeasurementSetting(bases)

    def test_projectors_resolve_identity(self):
        for s in settings_1q() + settings_2q():
            outcomes = tuple(o for o, _ in reference_projectors(s.bases))
            kets = _ket_stack(len(s.bases), (s.id,), outcomes)
            assert np.allclose(kets.T @ kets.conj(), np.eye(2 ** len(s.bases)), atol=1e-12)


class TestLinearInversion:
    def test_exact_h(self):
        rho = linear_inversion(exact_table(make_input(InputSpec("H")), ("a",)))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_exact_tilde_bell(self):
        target = tilde_bell("phi+", ("a", "d")).density()
        rho = linear_inversion(exact_table(target, ("a", "d")))
        assert np.allclose(rho.entries, target.entries, atol=1e-10)

    def test_roundtrip_random_states(self, rng):
        for _ in range(100):
            target = ginibre_dm(1, rng)
            rho = linear_inversion(exact_table(target, ("a",)))
            assert np.allclose(rho.entries, target.entries, atol=1e-10)
        for _ in range(100):
            target = ginibre_dm(2, rng)
            rho = linear_inversion(exact_table(target, ("a", "d")))
            assert np.allclose(rho.entries, target.entries, atol=1e-10)

    def test_statistical_scaling(self):
        # error from maximally mixed input shrinks like shots^(-1/2)
        mixed = DensityMatrix(np.eye(2) / 2)
        errs = {}
        for shots in (100, 10_000):
            norms = []
            for seed in range(30):
                rho = linear_inversion(sampled_table(mixed, ("a",), shots, seed))
                assert abs(np.trace(rho.entries) - 1) < 1e-10
                norms.append(np.linalg.norm(rho.entries - mixed.entries))
            errs[shots] = np.mean(norms)
        ratio = errs[100] / errs[10_000]
        assert 3.0 < ratio < 30.0

    def test_missing_setting(self):
        table = exact_table(make_input(InputSpec("H")), ("a",))
        partial = CountTable(table.modes, table.settings[:2], table.outcomes, table.raw[:2])
        with pytest.raises(ValueError, match="missing"):
            linear_inversion(partial)

    def test_zero_counts_in_setting(self):
        table = exact_table(make_input(InputSpec("H")), ("a",))
        raw = table.raw.copy()
        raw[table.settings.index("Y")] = 0
        with pytest.raises(ValueError, match="zero"):
            linear_inversion(CountTable(table.modes, table.settings, table.outcomes, raw))


class TestMleFit:
    def test_recovers_pure_v(self):
        table = sampled_table(make_input(InputSpec("V")), ("a",), 1_000_000, seed=3)
        rho = mle_fit(table)
        v = single_qubit_state("V")
        assert float(np.real(v.amplitudes.conj() @ rho.entries @ v.amplitudes)) >= 0.999

    def test_recovers_maximally_mixed_2q(self):
        mixed = DensityMatrix(np.eye(4) / 4)
        rho = mle_fit(sampled_table(mixed, ("a", "d"), 100_000, seed=5))
        assert trace_distance(rho.entries, mixed.entries) <= 0.02

    def test_pathological_counts_still_psd(self):
        rho = mle_fit(CountTable(("a",), ("Z", "X", "Y"), ("+", "-"), [[1000, 0]] * 3))
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_loglikelihood_nondecreasing(self):
        table = sampled_table(make_input(InputSpec("R", 0.2)), ("a",), 2000, seed=9)
        trace = []
        mle_fit(table, trace_nll=trace)
        diffs = np.diff(trace)
        assert all(d <= 1e-12 for d in diffs)  # negative log likelihood descends

    def test_analytic_gradient_matches_finite_differences(self, rng):
        # guards the Wirtinger factor-of-two packing of the Cholesky reference
        table = sampled_table(ginibre_dm(1, rng), ("a",), 5000, seed=21)
        projs = np.array([dict(reference_projectors(setting_id))[outcome]
                          for setting_id in table.settings for outcome in table.outcomes])
        weights = table.corrected.ravel() / table.corrected.sum()

        def nll(theta):
            t = _unpack_cholesky(theta, 2)
            s = t.conj().T @ t
            p = np.clip(np.real(np.einsum("oij,ji->o", projs, s)) / np.trace(s).real, 1e-12, None)
            return -float(weights @ np.log(p))

        def grad(theta):
            t = _unpack_cholesky(theta, 2)
            s = t.conj().T @ t
            z = np.trace(s).real
            p = np.clip(np.real(np.einsum("oij,ji->o", projs, s)) / z, 1e-12, None)
            r = np.einsum("o,oij->ij", weights / p, projs)
            return _grad_to_real(-(t @ r - t) / z, 2)

        theta = rng.normal(size=4) * 0.5 + np.array([1.0, 1.0, 0, 0])
        g = grad(theta)
        eps = 1e-6
        for k in range(4):
            step = np.zeros(4); step[k] = eps
            fd = (nll(theta + step) - nll(theta - step)) / (2 * eps)
            assert g[k] == pytest.approx(fd, abs=1e-5)

    def test_agrees_with_inversion_at_large_counts(self):
        # interior state keeps linear inversion PSD, where both must coincide
        state = make_input(InputSpec("+", 0.4))
        shots = 10_000
        for seed in range(50):
            table = sampled_table(state, ("a",), shots, seed)
            inv = linear_inversion(table)
            assert np.linalg.eigvalsh(inv.entries).min() > 0
            fit = mle_fit(table)
            assert trace_distance(fit.entries, inv.entries) <= 3.0 / np.sqrt(shots)

    def test_mle_likelihood_beats_start(self):
        table = sampled_table(ginibre_dm(2, np.random.default_rng(2)), ("a", "d"), 500, seed=11)
        rho = mle_fit(table)
        start = DensityMatrix(np.eye(4) / 4)
        assert loglikelihood(table, rho) >= loglikelihood(table, start)

    def test_dim_validation(self):
        table = sampled_table(make_input(InputSpec("H")), ("a",), 100, seed=1)
        with pytest.raises(ValueError, match="dim"):
            mle_fit(table, dim=4)


# -- arbitrary count tables ----------------------------------------------------

@st.composite
def count_tables(draw, qubits=(1, 2)):
    """A tomography table of arbitrary non-negative counts on 1 or 2 qubits.

    Some settings are all zero, and whole tables can be.
    """
    n_qubits = draw(st.sampled_from(qubits))
    bases = settings_1q() if n_qubits == 1 else settings_2q()
    outcomes = tuple(o for o, _ in reference_projectors(bases[0].bases))
    raw = draw(arrays(np.int64, (len(bases), len(outcomes)), elements=st.integers(0, 10**6)))
    raw[draw(st.lists(st.sampled_from(range(len(bases))), unique=True))] = 0
    modes = ("a",) if n_qubits == 1 else ("a", "d")
    eff = draw(st.dictionaries(st.sampled_from([m + c for m in modes for c in "+-"]),
                               st.floats(0.1, 1.0)))
    return CountTable(modes, tuple(s.id for s in bases), outcomes, raw, eff)


@st.composite
def near_pure_tables(draw):
    """A sampled 1-qubit table of a nearly pure state, 1e5 counts per setting."""
    direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    assume(np.linalg.norm(direction) > 0.1)
    length = 1.0 - 10.0 ** draw(st.floats(-8.0, -2.0))
    state = bloch_state(length * direction / np.linalg.norm(direction))
    eff = draw(st.dictionaries(st.sampled_from(["a+", "a-"]), st.floats(0.1, 1.0)))
    return simulate_counts({s.id: s.probabilities(state) for s in settings_1q()}, 100_000,
                           eff, draw(st.integers(0, 2**32)), ("a",))


def zero_settings(table: CountTable) -> list[str]:
    return [s for s, row in zip(table.settings, table.raw) if not row.any()]


class TestArbitraryTables:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(count_tables())
    def test_mle_fit_is_a_state_or_raises(self, table):
        try:
            rho = mle_fit(table)
        except (FitError, ValueError):
            return
        assert table.raw.any()
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(count_tables())
    def test_linear_inversion_is_hermitian_trace_one_or_names_zero_setting(self, table):
        zero = zero_settings(table)
        try:
            rho = linear_inversion(table)
        except ValueError as exc:
            assert zero and any(f"setting {s} " in str(exc) for s in zero), exc
            return
        assert not zero
        assert np.allclose(rho.entries, rho.entries.conj().T, atol=1e-12)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.one_of(count_tables(qubits=(1,)), near_pure_tables()))
    def test_exact_qubit_fit_is_the_maximum(self, table):
        try:
            rho = mle_fit(table)  # a FitError fails the test
        except ValueError:
            assert not table.raw.any()
            return
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-9
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
        try:
            reference = cholesky_reference(table)
        except FitError as exc:
            reference = exc.best_state
        per_count = 1e-12 * table.corrected.sum()
        assert loglikelihood(table, rho) >= loglikelihood(table, reference) - per_count
        if zero_settings(table):
            return
        inverted = linear_inversion(table).entries
        if np.linalg.eigvalsh(inverted).min() >= 0.0:
            assert np.allclose(rho.entries, inverted, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(count_tables(), st.integers(0, 2**32))
    def test_resample_keeps_layout_and_zeros(self, table, seed):
        resampled = table.resample(np.random.default_rng(seed))
        assert resampled.raw.shape == table.raw.shape
        assert (resampled.modes, resampled.settings, resampled.outcomes) == (
            table.modes, table.settings, table.outcomes)
        assert not resampled.raw[table.raw == 0].any()


class TestExactQubitFit:
    def test_agrees_with_cholesky_reference(self):
        # interior and boundary tables at 50, 1e3 and 1e5 counts, with and without efficiencies
        rng = np.random.default_rng(7)
        boundary = 0
        for k in range(540):
            direction = rng.normal(size=3)
            length = rng.uniform(0.2, 0.95) if k % 2 else 1.0 - 10.0 ** rng.uniform(-8, -2)
            state = bloch_state(length * direction / np.linalg.norm(direction))
            eff = ({}, {"a+": 0.8}, {"a+": 0.6, "a-": 0.9})[k % 3]
            shots = (50, 1000, 100_000)[k // 3 % 3]
            table = simulate_counts({s.id: s.probabilities(state) for s in settings_1q()},
                                    shots, eff, k, ("a",))
            boundary += np.linalg.eigvalsh(linear_inversion(table).entries).min() < 0
            assert np.abs(mle_fit(table).entries - cholesky_reference(table).entries).max() <= 1e-6
        assert 100 <= boundary <= 440

    def test_root_search_bisects_to_its_tolerance(self):
        # with no usable slope every step bisects: about 50 halvings of [0, 1] reach |f| <= 1e-15
        root = tomography._decreasing_root(lambda x: (1.0 / 3.0 - x, 0.0), 0.0, 1.0, 0.0, 1e-15)
        assert abs(root - 1.0 / 3.0) <= 1e-15

    @pytest.mark.parametrize("settings_, raw", [
        (("Z", "X", "Y"), [[1000, 0]] * 3),  # pure along (1, 1, 1)/sqrt(3)
        (("Z", "X", "Y"), [[1000, 0], [500, 500], [500, 500]]),  # exactly |H>
        (("Z", "X"), [[900, 100], [200, 800]]),  # missing setting: Y component 0
        (("Z", "X", "Y"), [[900, 100], [0, 0], [200, 800]]),  # all-zero setting
        (("Z", "X", "Y", "Z"), [[900, 100], [300, 700], [450, 550], [990, 10]]),  # repeated
        (("Z", "X", "Y", "Z"), [[10, 0], [3, 7], [4, 6], [970, 20]]),  # repeated, boundary
    ])
    def test_edge_tables_agree_with_cholesky_reference(self, settings_, raw):
        table = CountTable(("a",), settings_, ("+", "-"), np.array(raw, dtype=float))
        rho = mle_fit(table)
        assert np.abs(rho.entries - cholesky_reference(table).entries).max() <= 1e-6
        if "Y" not in settings_ or not table.raw[settings_.index("Y")].any():
            assert np.real(np.trace(rho.entries @ PAULI["Y"])) == 0.0

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(count_tables(qubits=(1,)), near_pure_tables(),
                     arrays(np.int64, (3, 2), elements=st.integers(0, 3)).map(
                         lambda raw: CountTable(("a",), ("Z", "X", "Y"), ("+", "-"), raw))))
    def test_state_is_built_exactly_hermitian(self, table):
        # symmetrizing the fit would change no bit, signed zeros included
        assume(table.raw.any())
        entries = mle_fit(table).entries
        assert same_bits(entries, 0.5 * (entries + entries.conj().T))

    @pytest.mark.parametrize("name", ["H", "V", "+", "R"])
    def test_pure_probe_fits_meet_the_lagrange_condition(self, name):
        # one basis is counted on one side only, so the maximum lies on the sphere,
        # where the likelihood's gradient in the Bloch components points along r
        for seed in range(5):
            table = sampled_table(single_qubit_state(name).density(), ("a",), 100_000, seed)
            rho = mle_fit(table)
            r = np.array([np.real(np.trace(rho.entries @ PAULI[b])) for b in table.settings])
            a, c = table.corrected.T
            grad = (np.divide(a, 1 + r, out=np.zeros(3), where=a > 0)
                    - np.divide(c, 1 - r, out=np.zeros(3), where=c > 0))
            assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
            assert grad @ r > 0
            assert np.allclose(grad, (grad @ r) * r, rtol=0.0, atol=1e-9 * np.linalg.norm(grad))
            reference = cholesky_reference(table)
            assert loglikelihood(table, rho) >= loglikelihood(table, reference) - 1e-12 * a.sum()

    def test_bloch_axes_come_from_the_analyzers(self):
        # a table measured along each basis's own '+' vector fits that vector
        for basis, (up, _) in BASIS_VECTORS.items():
            target = DensityMatrix(np.outer(up, up.conj()))
            rho = mle_fit(exact_table(target, ("a",)))
            assert np.allclose(rho.entries, target.entries, atol=1e-12)

    def test_trace_has_start_and_solution(self):
        table = sampled_table(make_input(InputSpec("+", 0.3)), ("a",), 1000, seed=4)
        trace = []
        rho = mle_fit(table, trace_nll=trace)
        assert trace[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert trace[1] == pytest.approx(-loglikelihood(table, rho) / table.corrected.sum(),
                                         abs=1e-12)
        assert len(trace) == 2


@st.composite
def two_qubit_tables(draw):
    """A sampled 2-qubit table of a random state of rank 1 to 4, at 50 to 1e5 counts per setting.

    Rank-deficient states and small counts put the maximum on the boundary
    of the state space; full-rank states at large counts keep it inside.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, 4))
    shots = round(10 ** draw(st.floats(np.log10(50), 5.0)))
    eff = draw(st.dictionaries(st.sampled_from(["a+", "a-", "d+", "d-"]), st.floats(0.1, 1.0)))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    state = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T))
    return simulate_counts({s.id: s.probabilities(state) for s in settings_2q()}, shots,
                           eff, seed, ("a", "d"))


class TestFactorFit:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(two_qubit_tables())
    def test_reaches_the_cholesky_likelihood(self, table):
        rho = mle_fit(table)  # a FitError fails the test
        try:
            reference = cholesky_reference(table)
        except FitError as exc:
            reference = exc.best_state
        per_count = 1e-11 * table.corrected.sum()
        assert loglikelihood(table, rho) >= loglikelihood(table, reference) - per_count

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(two_qubit_tables(), st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, table, seed):
        # the objective's gradient in the real and imaginary parts of A
        _, weights = fit_inputs(table)
        kets = _ket_stack(2, table.settings, table.outcomes)

        def nll(x):  # a stack of one
            f, g = _factor_nll((x[:16] + 1j * x[16:]).reshape(1, 4, 4), kets, weights[None])
            return f[0], g[0]

        x = np.random.default_rng(seed).normal(size=32)
        g = nll(x)[1]
        eps = 1e-6
        fd = [(nll(x + eps * e)[0] - nll(x - eps * e)[0]) / (2 * eps) for e in np.eye(32)]
        assert np.allclose(np.concatenate([g.real.ravel(), g.imag.ravel()]), fd,
                           rtol=1e-5, atol=1e-7)

    def test_trace_starts_mixed_and_ends_at_the_fit(self):
        table = sampled_table(ginibre_dm(2, np.random.default_rng(3)), ("a", "d"), 2000, seed=6)
        trace = []
        rho = mle_fit(table, trace_nll=trace)
        assert trace[0] == pytest.approx(np.log(4.0), abs=1e-12)
        assert all(d <= 1e-12 for d in np.diff(trace))
        assert trace[-1] == pytest.approx(-loglikelihood(table, rho) / table.corrected.sum(),
                                          abs=1e-12)

    def test_uniform_table_stops_at_the_start(self):
        # the gradient vanishes at the maximally mixed start: no step is taken
        table = CountTable(("a", "d"), tuple(s.id for s in settings_2q()),
                           ("++", "+-", "-+", "--"), np.ones((9, 4)))
        trace = []
        rho = mle_fit(table, trace_nll=trace)
        assert np.allclose(rho.entries, np.eye(4) / 4, rtol=0.0, atol=1e-12)
        assert len(trace) == 1

    def test_pure_product_table_with_empty_cells_converges(self):
        state = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        table = sampled_table(state, ("a", "d"), 1000, seed=2)
        assert (table.raw == 0).sum() >= 9
        rho = mle_fit(table)  # a FitError fails the test
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-12
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_raises_with_the_best_iterate(self, monkeypatch):
        monkeypatch.setattr(tomography, "_MAX_ITERS", 2)
        table = sampled_table(ginibre_dm(2, np.random.default_rng(3)), ("a", "d"), 2000, seed=6)
        trace = []
        with pytest.raises(FitError, match="after 2 iterations") as info:
            mle_fit(table, trace_nll=trace)
        best = info.value.best_state
        DensityMatrix(best.entries, best.labels)  # checks Hermitian, trace one, positive
        assert len(trace) == 3 and trace[-1] == min(trace) < trace[0]
        assert -loglikelihood(table, best) / table.corrected.sum() == pytest.approx(
            trace[-1], abs=1e-12)


@st.composite
def table_stacks(draw, n_qubits: int):
    """2 to 6 sampled tables of ``n_qubits`` qubits and one layout, which may repeat settings,
    each of a random state of any rank at 50 to 1e5 counts per setting, with the stack's
    efficiencies."""
    modes, d = ("a", "d")[:n_qubits], 2**n_qubits
    ids = [s.id for s in (settings_1q() if n_qubits == 1 else settings_2q())]
    order = tuple(draw(st.permutations(ids + draw(st.lists(st.sampled_from(ids), max_size=4)))))
    eff = draw(st.dictionaries(st.sampled_from([m + c for m in modes for c in "+-"]),
                               st.floats(0.1, 1.0)))
    outcomes = tuple(MeasurementSetting(("Z",) * n_qubits).probabilities(np.eye(d) / d))
    eta = CountTable(modes, order, outcomes, np.zeros((len(order), d)), eff).eta
    tables = []
    for seed in draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6)):
        rng = np.random.default_rng(seed)
        rank, shots = rng.integers(1, d + 1), round(10 ** rng.uniform(np.log10(50), 5.0))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        state = g @ g.conj().T / np.trace(g @ g.conj().T)
        probs = [list(MeasurementSetting(tuple(sid)).probabilities(state).values()) for sid in order]
        raw = rng.poisson(shots * np.array(probs) * eta)
        tables.append(CountTable(modes, order, outcomes, raw, eff))
    return tables


def large_two_qubit_stack(seed: int) -> list[CountTable]:
    """41 two-qubit tables of one layout: interior (rank 4) and boundary (rank 1) states at 200 to
    1e5 counts per setting, every third with efficiencies, then a uniform table."""
    rng = np.random.default_rng(seed)
    settings_ = {s.id: s for s in settings_2q()}
    tables = []
    for k, (rank, shots) in enumerate([(4, 200), (4, 10**4), (4, 10**5), (1, 300), (1, 10**5)] * 8):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        state = g @ g.conj().T / np.trace(g @ g.conj().T)
        probs = {sid: s.probabilities(state) for sid, s in settings_.items()}
        eff = {"a+": 0.8, "d-": 0.6} if k % 3 == 0 else {}
        tables.append(simulate_counts(probs, shots, eff, seed * 100 + k, ("a", "d")))
    first = tables[0]
    return tables + [CountTable(first.modes, first.settings, first.outcomes, np.ones((9, 4)))]


class TestStackedFactorFit:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.sampled_from((1, 2)).flatmap(table_stacks))
    def test_each_table_fits_as_it_does_alone(self, tables):
        # bit for bit, alone, in the stack and by the per-table fit (the exact fit of one qubit,
        # the reference BFGS of two): the states, and every iterate's likelihood on the way there
        traces = [[] for _ in tables]
        fits = _fit_stack(tables, traces)
        if len(tables[0].modes) == 2:  # the factor fit's own stack reads the same
            kets = _ket_stack(2, tables[0].settings, tables[0].outcomes)
            stacked_traces = [[] for _ in tables]
            stacked = _factor_fit(("a", "d"), kets, np.array([fit_inputs(t)[1] for t in tables]),
                                  stacked_traces)
            assert stacked_traces == traces
            assert all(same_bits(a.entries, b.entries) for a, b in zip(stacked, fits))
        for table, fit, via_stack, trace in zip(tables, fits, _fit_stack(tables), traces):
            alone, reference = [], []
            rho = mle_fit(table, trace_nll=alone)  # a FitError fails the test
            if len(table.modes) == 1:
                want = _exact_fit_1q(table, *fit_inputs(table), reference)
            else:
                want = factor_bfgs_reference(table, reference)
            for got in (rho, fit, via_stack):
                assert same_bits(got.entries, want.entries)
            assert trace == alone == reference

    @pytest.mark.parametrize("caps, seed", [({}, 1), ({"_MAX_ITERS": 2}, 2), ({"_LINE_STEPS": 1}, 3)],
                             ids=["uncapped", "iteration-cap", "line-search-cap"])
    def test_a_large_stack_fits_each_table_as_the_reference(self, caps, seed, monkeypatch):
        # at the bootstrap's stack size and beyond: every table's state, or FitError, and trace
        # bit for bit the reference's, through backtracking, compaction and the masked update
        for name, value in caps.items():
            monkeypatch.setattr(tomography, name, value)
        tables = large_two_qubit_stack(seed)
        nll_sizes, updates = [], []
        nll, update = tomography._factor_nll, tomography._bfgs_update

        def recording_nll(a, *args):
            nll_sizes.append(len(a))
            return nll(a, *args)

        def recording_update(h, s, y, sy, work, rows=None):
            assert not np.signbit(h[h == 0.0]).any()  # which the update's einsum relies on
            updates.append((len(h), rows is not None))
            return update(h, s, y, sy, work, rows)

        monkeypatch.setattr(tomography, "_factor_nll", recording_nll)
        monkeypatch.setattr(tomography, "_bfgs_update", recording_update)
        traces = [[] for _ in tables]
        fits = _fit_stack(tables, traces)
        for table, fit, trace in zip(tables, fits, traces):
            reference = []
            try:
                want = factor_bfgs_reference(table, reference)
            except FitError as error:
                assert isinstance(fit, FitError) and str(fit) == str(error)
                fit, want = fit.best_state, error.best_state
            assert same_bits(fit.entries, want.entries)
            assert trace == reference
        assert updates[0][0] == 40  # the uniform table stops at once
        if not caps:  # more objective calls than iterates: some full steps were rejected
            assert len(nll_sizes) > max(map(len, traces))
            assert min(size for size, _ in updates) < 40  # H was compacted
        elif "_MAX_ITERS" in caps:
            assert [isinstance(fit, FitError) for fit in fits] == [True] * 40 + [False]
        else:  # a rejected full step fails its table, which leaves the update to the others
            assert (40, True) in updates

    def test_a_table_at_the_cap_fails_alone(self, monkeypatch):
        monkeypatch.setattr(tomography, "_MAX_ITERS", 2)
        slow = sampled_table(ginibre_dm(2, np.random.default_rng(3)), ("a", "d"), 2000, seed=6)
        # the gradient vanishes at the maximally mixed start: this table stops at once
        uniform = CountTable(("a", "d"), slow.settings, slow.outcomes, np.ones((9, 4)))
        failed, fitted = _fit_stack([slow, uniform])
        with pytest.raises(FitError, match="after 2 iterations") as info:
            mle_fit(slow)
        assert isinstance(failed, FitError) and str(failed) == str(info.value)
        assert same_bits(failed.best_state.entries, info.value.best_state.entries)
        assert same_bits(fitted.entries, mle_fit(uniform).entries)

    def test_an_empty_table_fails_alone(self):
        assert _fit_stack([]) == []
        for modes in (("a",), ("a", "d")):
            tables = [sampled_table(ginibre_dm(len(modes), np.random.default_rng(k)), modes, 500,
                                    seed=k) for k in range(2)]
            empty = CountTable(modes, tables[0].settings, tables[0].outcomes,
                               np.zeros(tables[0].raw.shape))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no 0/0 on the empty table's weights
                fits = _fit_stack([tables[0], empty, tables[1]])
                (alone,) = _fit_stack([empty])
            for got in (fits[1], alone):
                assert type(got) is ValueError and str(got) == "count table is empty"
            for table, fit in zip(tables, fits[::2]):
                assert same_bits(fit.entries, mle_fit(table).entries)


class TestBfgsUpdate:
    @pytest.mark.parametrize("seed", range(4))
    def test_work_buffers_give_the_per_table_update(self, seed):
        # bit for bit the per-table form h += (sv + sv.T) / sy, of every row or of the masked
        # rows only, the others keeping their bytes; H holds +0.0 where s v^T holds -0.0
        rng = np.random.default_rng(seed)
        size, n = int(rng.integers(2, 40)), 32
        s, y = rng.normal(size=(2, size, n))
        sy = rng.uniform(0.1, 2.0, size)
        h = rng.normal(size=(size, n, n))
        zero = rng.choice(n, 6, replace=False)
        s[:, zero] = 0.0  # s v^T holds signed zeros there, added to H's zeros as in a fit
        h[np.ix_(range(size), zero, zero)] = 0.0
        want = h.copy()
        for k in range(size):
            hy = want[k] @ y[k]
            v = (0.5 + 0.5 * (y[k] @ hy) / sy[k]) * s[k] - hy
            sv = s[k][:, None] * v
            want[k] += (sv + sv.T) / sy[k]
        rows = np.flatnonzero(rng.random(size) < 0.5)
        for update in (None, rows):
            got, work = h.copy(), np.full((2, size + 3, n, n), np.nan)  # larger than H, and dirty
            _bfgs_update(got, s, y, sy, work, update)
            changed = np.arange(size) if update is None else update
            kept = np.setdiff1d(np.arange(size), changed)
            assert same_bits(got[changed], want[changed])
            assert same_bits(got[kept], h[kept])


@st.composite
def repeated_setting_tables(draw):
    """A 1- or 2-qubit table with every setting counted, some of them repeated, in any order."""
    n_qubits = draw(st.sampled_from((1, 2)))
    bases = settings_1q() if n_qubits == 1 else settings_2q()
    ids = [s.id for s in bases]
    order = draw(st.permutations(ids + draw(st.lists(st.sampled_from(ids), max_size=6))))
    raw = draw(arrays(np.int64, (len(order), 2**n_qubits), elements=st.integers(0, 10**6)))
    raw[raw.sum(axis=1) == 0, 0] = 1
    modes = ("a",) if n_qubits == 1 else ("a", "d")
    eff = draw(st.dictionaries(st.sampled_from([m + c for m in modes for c in "+-"]),
                               st.floats(0.1, 1.0)))
    outcomes = tuple(o for o, _ in reference_projectors(bases[0].bases))
    return CountTable(modes, tuple(order), outcomes, raw, eff)


class TestLinearInversionSolve:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(repeated_setting_tables())
    def test_equals_the_stokes_estimate(self, table):
        rho = linear_inversion(table).entries
        assert np.abs(rho - reference_linear_inversion(table)).max() <= 1e-12


class TestOutcomeLabels:
    @pytest.mark.parametrize("fit", [linear_inversion, mle_fit, cholesky_reference,
                                     factor_lbfgs_reference])
    @pytest.mark.parametrize("modes, outcomes, bad", [
        (("a",), ("+", "x"), "'x'"),
        (("a",), ("+", "--"), "'--'"),
        (("a", "d"), ("++", "+-", "-+", "-"), "'-'"),
        (("a", "d"), ("++", "+-", "-+", "-0"), "'-0'"),
    ])
    def test_bad_outcome_is_named(self, fit, modes, outcomes, bad):
        settings_ = tuple(s.id for s in (settings_1q() if len(modes) == 1 else settings_2q()))
        table = CountTable(modes, settings_, outcomes, [[5, 1] + [1] * (len(outcomes) - 2)] * len(settings_))
        with pytest.raises(ValueError, match=f"outcome {bad}"):
            fit(table)


class TestBadCounts:
    @pytest.mark.parametrize("fit", [linear_inversion, mle_fit])
    @pytest.mark.parametrize("modes, bad", [
        (("a",), float("nan")), (("a", "d"), float("inf")), (("a",), -50.0), (("a", "d"), -1e-9)])
    def test_non_finite_or_negative_corrected_count_names_setting(self, fit, modes, bad):
        bases = settings_1q() if len(modes) == 1 else settings_2q()
        outcomes = tuple(o for o, _ in reference_projectors(bases[0].bases))
        raw = np.full((len(bases), len(outcomes)), 100.0)
        raw[-1, 0] = bad
        with pytest.raises(ValueError, match=f"setting {bases[-1].id}: corrected counts"):
            fit(CountTable(modes, tuple(s.id for s in bases), outcomes, raw))


class TestKetStack:
    def test_cached_read_only_and_matches_settings(self):
        stack = _ket_stack(2, ("ZZ", "XY"), ("++", "+-", "-+", "--"))
        assert _ket_stack(2, ("ZZ", "XY"), ("++", "+-", "-+", "--")) is stack
        assert not stack.flags.writeable
        expected = [p for bases in ("ZZ", "XY") for _, p in reference_projectors(bases)]
        assert np.array_equal(stack[:, :, None] * stack[:, None, :].conj(), expected)

    def test_unknown_setting_and_mode_count(self):
        with pytest.raises(ValueError, match="'ZQ'"):
            _ket_stack(2, ("ZZ", "ZQ"), ("++", "+-", "-+", "--"))
        with pytest.raises(ValueError, match="1 or 2 modes, got 3"):
            _ket_stack(3, ("ZZZ",), ("+++",))


def design_loop(inputs) -> np.ndarray:
    """The process-tomography design matrix built entry by entry."""
    rows = []
    for rin in inputs:
        rho_in = rin.density().entries
        for i in range(2):
            for j in range(2):
                rows.append([(PAULI[sm] @ rho_in @ PAULI[sn])[i, j] for sm in "IXYZ" for sn in "IXYZ"])
    return np.array(rows)


class TestProcessTomo:
    def probe_states(self):
        return [single_qubit_state(n) for n in TOMOGRAPHIC_PROBES]

    def test_identity_channel(self):
        m = process_tomo([p.density().entries for p in self.probe_states()])
        expected = np.zeros((4, 4)); expected[0, 0] = 1
        assert np.allclose(m.entries, expected, atol=1e-10)

    def test_bit_flip_channel(self):
        x = PAULI["X"]
        m = process_tomo([x @ p.density().entries @ x for p in self.probe_states()])
        expected = np.zeros((4, 4)); expected[1, 1] = 1
        assert np.allclose(m.entries, expected, atol=1e-10)

    def test_depolarizing_channel(self):
        m = process_tomo([np.eye(2) / 2] * 4)
        assert np.allclose(m.entries, np.diag([0.25, 0.25, 0.25, 0.25]), atol=1e-10)

    def test_random_pauli_channel_roundtrip(self, rng):
        # any channel expressible in the Pauli operator basis is recovered
        # exactly from its action on the four probes
        probes = self.probe_states()
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            chi = (g + g.conj().T) / 8.0
            outs = []
            for p in probes:
                rho = p.density().entries
                out = sum(chi[m, n] * PAULI[a] @ rho @ PAULI[b]
                          for m, a in enumerate("IXYZ") for n, b in enumerate("IXYZ"))
                outs.append(out)
            fitted = process_tomo(outs)
            assert np.allclose(fitted.entries, chi, atol=1e-10)

    def test_design_matrix_equals_entry_by_entry_rows(self):
        assert np.array_equal(_DESIGN, design_loop(self.probe_states()))

    def test_design_matrix_has_full_rank(self):
        # the four probes span the qubit operator space, so the outputs fix M
        assert _DESIGN.shape == (16, 16)
        assert np.linalg.matrix_rank(_DESIGN, tol=1e-9) == 16

    def test_design_inverse(self):
        assert np.max(np.abs(_DESIGN_INV @ _DESIGN - np.eye(16))) < 1e-13

    def test_needs_one_output_per_probe(self):
        with pytest.raises(ValueError, match="probes"):
            process_tomo([np.eye(2) / 2] * 3)


class TestProcessFidelity:
    def test_hermitian_to_absolute_tolerance(self):
        from telegate.tomography import ProcessMatrix

        # 1e-6 off, far above ATOL though within numpy's default relative tolerance
        m = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
        m[0, 3], m[3, 0] = 0.2 + 1e-6, 0.2
        with pytest.raises(ValueError, match="not Hermitian"):
            ProcessMatrix(m)

    def test_ideal_is_one(self):
        assert process_fidelity(identity_process(), identity_process()) == pytest.approx(1.0)

    def test_depolarizing_quarter(self):
        from telegate.tomography import ProcessMatrix

        depol = ProcessMatrix(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
        assert process_fidelity(depol, identity_process()) == pytest.approx(0.25, abs=1e-12)

    def test_equals_corner_entry(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        from telegate.tomography import ProcessMatrix

        m = ProcessMatrix((g + g.conj().T) / 8.0)
        assert process_fidelity(m, identity_process()) == pytest.approx(
            m.entries[0, 0].real, abs=1e-12)
