"""States the package computes skip the checked constructor, so each producer is checked here.

Every computed state must be exactly Hermitian, and the checked constructor
``DensityMatrix(entries, labels)`` must accept it (trace one, positive
semidefinite, distinct labels).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from telegate.experiment import CountTable, simulate_counts
from telegate.protocols import swap, teleport
from telegate.sources import (
    BELL_AMPLITUDES,
    SINGLE_QUBIT_AMPLITUDES,
    InputSpec,
    PairSpec,
    make_input,
    make_pair,
)
from telegate.states import DensityMatrix, kron
from telegate.tomography import FitError, linear_inversion, mle_fit, settings_1q, settings_2q

unit = st.floats(0.0, 1.0)


def assert_checked(state: DensityMatrix) -> None:
    assert np.array_equal(state.entries, state.entries.conj().T)
    DensityMatrix(state.entries, state.labels)


@st.composite
def input_specs(draw):
    named = st.sampled_from(sorted(SINGLE_QUBIT_AMPLITUDES))
    amps = draw(st.one_of(named, st.tuples(*[st.floats(-1.0, 1.0)] * 4)))
    if not isinstance(amps, str):
        vec = np.array([amps[0] + 1j * amps[1], amps[2] + 1j * amps[3]])
        assume(np.linalg.norm(vec) > 0.1)
        amps = tuple(vec / np.linalg.norm(vec))
    return InputSpec(amps, draw(unit))


pair_specs = st.builds(PairSpec, st.sampled_from(sorted(BELL_AMPLITUDES)), unit)


@st.composite
def random_states(draw, n_qubits):
    """A pure state of ``n_qubits`` with a white-noise admixture, often none."""
    d = 2**n_qubits
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d)))
    vec = parts[:d] + 1j * parts[d:]
    assume(np.linalg.norm(vec) > 0.1)
    vec /= np.linalg.norm(vec)
    noise = draw(st.one_of(st.just(0.0), unit))
    return DensityMatrix((1.0 - noise) * np.outer(vec, vec.conj()) + noise * np.eye(d) / d)


def settings_for(n_qubits):
    return settings_1q() if n_qubits == 1 else settings_2q()


def sampled_table(state, modes, shots, seed) -> CountTable:
    probs = {s.id: s.probabilities(state) for s in settings_for(len(modes))}
    return simulate_counts(probs, shots, {}, seed, modes)


class TestSources:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(pair_specs, input_specs())
    def test_pairs_inputs_and_their_products(self, pair_spec, input_spec):
        pair = make_pair(pair_spec, ("a", "b"))
        single = make_input(input_spec, "c")
        for state in (pair, single, kron(pair, single), kron(single, single.with_labels(("d",)))):
            assert_checked(state)

    def test_relabelling_checks_the_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_pair(PairSpec()).with_labels(("a", "a"))
        with pytest.raises(ValueError, match="expected 2 labels"):
            make_pair(PairSpec()).with_labels(("a",))


class TestProtocols:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(unit, unit, input_specs(), st.booleans())
    def test_teleport_conditionals(self, v, pair_mixedness, input_spec, correct):
        pair = make_pair(PairSpec("phi+~", pair_mixedness))
        res = teleport(make_input(input_spec), pair, v, correct=correct)
        for o in res.outcomes:
            assert_checked(o.state)
            assert o.state.labels == ("a",)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(unit, pair_specs, pair_specs)
    def test_swap_conditionals(self, v, spec_ab, spec_cd):
        res = swap(make_pair(spec_ab), make_pair(spec_cd), v)
        for o in res.outcomes:
            assert_checked(o.state)
            assert o.state.labels == ("a", "d")


class TestReconstructions:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from([("a",), ("a", "d")]), st.data(), st.integers(1, 30),
           st.integers(0, 2**32))
    def test_mle_fit_at_low_counts(self, modes, data, shots, seed):
        table = sampled_table(data.draw(random_states(len(modes))), modes, shots, seed)
        assume(table.raw.any())
        try:
            state = mle_fit(table)
        except FitError as exc:
            state = exc.best_state
        assert_checked(state)
        assert state.labels == modes

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from([("a",), ("a", "d")]), st.data())
    def test_linear_inversion_of_exact_tables(self, modes, data):
        state = data.draw(random_states(len(modes)))
        settings_ = settings_for(len(modes))
        dists = [s.probabilities(state) for s in settings_]
        table = CountTable(modes, tuple(s.id for s in settings_), tuple(dists[0]),
                           np.array([list(d.values()) for d in dists]))
        rho = linear_inversion(table)
        assert_checked(rho)
        assert rho.labels == modes

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from([("a",), ("a", "d")]), st.data(), st.integers(1, 30),
           st.integers(0, 2**32))
    def test_linear_inversion_of_noisy_tables(self, modes, data, shots, seed):
        # positivity is not promised here: only Hermitian and trace one
        table = sampled_table(data.draw(random_states(len(modes))), modes, shots, seed)
        assume(table.raw.sum(axis=1).all())
        rho = linear_inversion(table)
        assert np.array_equal(rho.entries, rho.entries.conj().T)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
        assert rho.labels == modes
