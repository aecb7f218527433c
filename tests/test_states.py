import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from telegate.states import (
    DensityMatrix,
    PureState,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    kron,
    trace_norm,
)
from conftest import analyzer_observable, ginibre_dm, partial_trace, random_pure

H = PureState([1, 0])
V = PureState([0, 1])
PHI_PLUS = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
TILDE_PHI_PLUS = PureState(np.array([1, 1, 1, -1]) / 2.0)


def expectation(rho: DensityMatrix, obs: np.ndarray) -> float:
    """Tr[rho obs] of a Hermitian observable."""
    if rho.dim != obs.shape[0]:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs.shape[0]}")
    return float(np.real(np.trace(rho.entries @ obs)))


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState([1.0, 1.0])

    def test_pure_state_nan_amplitude(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState([np.nan, 0.0])

    def test_pure_state_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PureState(np.ones(3) / np.sqrt(3))

    def test_density_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_hermitian_to_absolute_tolerance(self):
        # 2e-6 off, far above ATOL though within numpy's default relative tolerance
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix([[0.5, 0.3 + 2e-6], [0.3, 0.5]])

    @pytest.mark.parametrize("make", [lambda: PureState(np.zeros(0)),
                                      lambda: DensityMatrix(np.zeros((0, 0)))],
                             ids=["pure", "density"])
    def test_empty_state(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="power of two"):
                make()

    def test_density_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_density_positivity(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(m)

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            PureState(np.array([1, 0, 0, 0]), ("a", "a"))


class TestKron:
    def test_basis_case(self):
        hh = kron(H, H)
        assert np.allclose(hh.amplitudes, [1, 0, 0, 0])

    def test_two_bell_pairs(self):
        # 1/sqrt2 (|HH>+|VV>) twice: weight 1/2 on HHHH, HHVV, VVHH, VVVV
        four = kron(PHI_PLUS.with_labels(("a", "b")), PHI_PLUS.with_labels(("c", "d")))
        expected = np.zeros(16)
        for idx in (0b0000, 0b0011, 0b1100, 0b1111):
            expected[idx] = 0.5
        assert np.allclose(four.amplitudes, expected)
        assert four.labels == ("a", "b", "c", "d")

    def test_identity_case(self):
        i2 = DensityMatrix(np.eye(2) / 2, ("a",))
        out = kron(i2, i2.with_labels(("b",)))
        assert np.allclose(out.entries, np.eye(4) / 4)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            kron(H, H.density())

    def test_associative_dims(self, rng):
        a, b, c = (random_pure(1, rng) for _ in range(3))
        left = kron(kron(a.with_labels(("x",)), b.with_labels(("y",))), c.with_labels(("z",)))
        right = kron(a.with_labels(("x",)), kron(b.with_labels(("y",)), c.with_labels(("z",))))
        assert left.dim == a.dim * b.dim * c.dim
        assert np.allclose(left.amplitudes, right.amplitudes)


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = PHI_PLUS.with_labels(("a", "b")).density()
        assert np.allclose(partial_trace(rho, ("a",)).entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        hv = kron(H.with_labels(("a",)), V.with_labels(("b",))).density()
        assert np.allclose(partial_trace(hv, ("b",)).entries, V.density().entries, atol=1e-12)

    def test_werner_marginal(self):
        # direct 4x4 arithmetic oracle: 0.5 phi+ + 0.5 I/4, marginal = I/2
        werner = 0.5 * PHI_PLUS.density().entries + 0.5 * np.eye(4) / 4
        rho = DensityMatrix(werner, ("a", "b"))
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                oracle[i, j] = werner[2 * i + 0, 2 * j + 0] + werner[2 * i + 1, 2 * j + 1]
        assert np.allclose(oracle, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(partial_trace(rho, ("a",)).entries, oracle, atol=1e-10)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            partial_trace(PHI_PLUS.density(), ("nope",))

    def test_undoes_kron(self, rng):
        for _ in range(20):
            a = ginibre_dm(1, rng).with_labels(("x",))
            b = ginibre_dm(2, rng).with_labels(("y", "z"))
            joint = kron(a, b)
            assert np.allclose(partial_trace(joint, ("x",)).entries, a.entries, atol=1e-10)
            assert np.allclose(partial_trace(joint, ("y", "z")).entries, b.entries, atol=1e-10)
            assert abs(np.trace(partial_trace(joint, ("y",)).entries) - 1.0) < 1e-10


class TestAnalyzer:
    def test_zero_degrees_is_sigma_z(self):
        assert np.allclose(analyzer_observable(0.0), SIGMA_Z, atol=1e-12)

    def test_minus_45(self):
        assert np.allclose(analyzer_observable(-45.0), -SIGMA_X, atol=1e-12)

    def test_minus_22p5(self):
        # cos(-45 deg) = 1/sqrt2, sin(-45 deg) = -1/sqrt2
        expected = (SIGMA_Z - SIGMA_X) / np.sqrt(2)
        assert np.allclose(analyzer_observable(-22.5), expected, atol=1e-12)

    def test_squares_to_identity(self, rng):
        for theta in rng.uniform(-360, 360, size=100):
            o = analyzer_observable(theta)
            assert np.allclose(o @ o, np.eye(2), atol=1e-10)


class TestExpectation:
    def test_perfect_correlation(self):
        obs = np.kron(SIGMA_Z, SIGMA_Z)
        assert expectation(PHI_PLUS.density(), obs) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        obs = np.kron(SIGMA_Z, SIGMA_X)
        assert expectation(rho, obs) == pytest.approx(0.0, abs=1e-12)

    def test_tilde_bell_zx(self):
        # brute-force matrix trace oracle
        rho = TILDE_PHI_PLUS.density()
        obs = np.kron(SIGMA_Z, SIGMA_X)
        oracle = np.trace(rho.entries @ obs).real
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho, obs) == pytest.approx(oracle, abs=1e-12)

    def test_linear_and_normalized(self, rng):
        a, b = ginibre_dm(2, rng), ginibre_dm(2, rng)
        obs = np.kron(SIGMA_X, SIGMA_Y)
        mix = DensityMatrix(0.3 * a.entries + 0.7 * b.entries)
        assert expectation(mix, obs) == pytest.approx(
            0.3 * expectation(a, obs) + 0.7 * expectation(b, obs), abs=1e-10)
        assert expectation(a, np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation(H.density(), np.eye(4))


def complex_matrices(n: int):
    """n x n complex matrices with real and imaginary parts in [-1, 1]."""
    return arrays(np.float64, (2, n, n), elements=st.floats(-1.0, 1.0)).map(
        lambda a: a[0] + 1j * a[1])


any_size = st.sampled_from([2, 4]).flatmap(complex_matrices)


class TestTraceNorm:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(any_size)
    def test_hermitian_is_sum_of_eigenvalue_moduli(self, g):
        h = g + g.conj().T
        assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) <= 1e-12

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(complex_matrices(4))
    def test_partial_transpose_is_sum_of_eigenvalue_moduli(self, a):
        s = a @ a.conj().T
        assume(np.trace(s).real > 1e-6)
        rho = s / np.trace(s).real
        pt = np.transpose(rho.reshape(2, 2, 2, 2), (0, 3, 2, 1)).reshape(4, 4)
        assert abs(trace_norm(pt) - np.abs(np.linalg.eigvalsh(pt)).sum()) <= 1e-12

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(any_size)
    def test_general_is_sum_of_singular_values(self, g):
        assert abs(trace_norm(g) - np.linalg.svd(g, compute_uv=False).sum()) <= 1e-12

    def test_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_diag_plus_minus(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_partial_transpose_of_bell(self):
        # eigenvalues {1/2, 1/2, 1/2, -1/2} -> trace norm 2
        rho = PHI_PLUS.density().entries.reshape(2, 2, 2, 2)
        pt = np.transpose(rho, (0, 3, 2, 1)).reshape(4, 4)
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            trace_norm(np.ones((2, 3)))

    def test_bounds_trace(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert trace_norm(g) >= abs(np.trace(g)) - 1e-12
