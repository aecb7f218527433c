import numpy as np
import pytest

from telegate.sources import (
    InputSpec,
    PairSpec,
    bell_state,
    make_input,
    make_pair,
    single_qubit_state,
    tomographic_input_set,
)
from telegate.states import SIGMA_Y
from conftest import partial_trace


def purity(rho) -> float:
    return float(np.real(np.trace(rho.entries @ rho.entries)))


class TestMakePair:
    def test_pure_phi_plus(self):
        rho = make_pair(PairSpec("phi+", 0.0))
        assert np.allclose(rho.entries, bell_state("phi+").density().entries, atol=1e-14)

    def test_fully_mixed(self):
        rho = make_pair(PairSpec("phi+", 1.0))
        assert np.allclose(rho.entries, np.eye(4) / 4, atol=1e-14)

    def test_werner_fidelity(self):
        # (1 - lambda) + lambda / 4 = 0.85 at lambda = 0.2
        rho = make_pair(PairSpec("phi+", 0.2))
        target = bell_state("phi+").amplitudes
        fid = float(np.real(target.conj() @ rho.entries @ target))
        assert fid == pytest.approx(0.85, abs=1e-12)

    def test_valid_state_over_lambda_grid(self):
        for target in ("phi+", "psi-", "phi+~"):
            for lam in np.linspace(0, 1, 11):
                rho = make_pair(PairSpec(target, float(lam)))
                eigs = np.linalg.eigvalsh(rho.entries)
                assert eigs.min() >= -1e-12
                assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_pure_bell_marginals_maximally_mixed(self):
        for target in ("phi+", "psi+", "phi-", "psi-"):
            rho = make_pair(PairSpec(target, 0.0), ("a", "b"))
            for keep in (("a",), ("b",)):
                marg = partial_trace(rho, keep)
                assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            PairSpec("ghz", 0.0)

    def test_bad_mixedness(self):
        with pytest.raises(ValueError, match="mixedness"):
            PairSpec("phi+", 1.5)


class TestMakeInput:
    def test_pure_h(self):
        rho = make_input(InputSpec("H", 0.0))
        assert np.allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-14)

    def test_circular_state_matrix(self):
        # outer product of (|H> + i|V>)/sqrt2 is (I + sigma_y)/2
        rho = make_input(InputSpec("R", 0.0))
        assert np.allclose(rho.entries, (np.eye(2) + SIGMA_Y) / 2, atol=1e-12)

    def test_purity_with_noise(self):
        # Tr rho^2 = 1 - lambda + lambda^2/2 = 0.905 at lambda = 0.1
        rho = make_input(InputSpec("+", 0.1))
        assert purity(rho) == pytest.approx(0.905, abs=1e-12)

    def test_purity_monotone_decreasing(self):
        grid = np.linspace(0, 1, 21)
        purities = [purity(make_input(InputSpec("R", float(l)))) for l in grid]
        assert all(purities[i] - purities[i + 1] > -1e-12 for i in range(len(grid) - 1))
        for lam, p in zip(grid, purities):
            assert p == pytest.approx(1 - lam + lam**2 / 2, abs=1e-12)

    def test_amplitude_pair_input(self):
        rho = make_input(InputSpec((0.6, 0.8j), 0.0))
        vec = np.array([0.6, 0.8j])
        assert np.allclose(rho.entries, np.outer(vec, vec.conj()), atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            InputSpec((1.0, 1.0), 0.0)

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            InputSpec("Q", 0.0)


class TestTomographicSet:
    def test_fixed_order(self):
        assert [s.state for s in tomographic_input_set()] == ["H", "V", "+", "R"]

    def test_size(self):
        assert len(tomographic_input_set()) == 4

    def test_bloch_vectors_span_three_space(self):
        # z, -z, x, y: affine differences span R^3
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.array([[1, 0], [0, -1]])]
        vecs = []
        for spec in tomographic_input_set():
            rho = make_input(spec).entries
            vecs.append([np.trace(rho @ p).real for p in paulis])
        vecs = np.array(vecs)
        diffs = vecs[1:] - vecs[0]
        assert np.linalg.matrix_rank(diffs, tol=1e-9) == 3

    def test_mixedness_forwarded(self):
        assert all(s.mixedness == 0.25 for s in tomographic_input_set(0.25))


def test_single_qubit_state_names():
    plus = single_qubit_state("+")
    assert np.allclose(plus.amplitudes, np.array([1, 1]) / np.sqrt(2))
    left = single_qubit_state("L")
    assert np.allclose(left.amplitudes, np.array([1, -1j]) / np.sqrt(2))
