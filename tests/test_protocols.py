import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from telegate.gate import gate_channel
from telegate.metrics import fidelity_pure
from telegate.protocols import (
    BELL_FOR_PRODUCT,
    CORRECTION_FOR_BELL,
    CORRECTION_MATRICES,
    PRODUCT_FOR_BELL,
    TELEPORT_PAIR_TARGET,
    TILDE_LABELS,
    bsa,
    swap,
    teleport,
    tilde_bell,
)
from telegate.experiment import teleport_summary
from telegate.sources import (
    SINGLE_QUBIT_AMPLITUDES,
    InputSpec,
    PairSpec,
    make_input,
    make_pair,
    single_qubit_state,
    tomographic_input_set,
)
from telegate.states import DensityMatrix, PureState, kron
from conftest import ginibre_dm, partial_trace, partial_trace_raw, random_pure


# -- brute-force reference: every operator embedded in the full label space ---

def permute_operator(mat: np.ndarray, src, dst) -> np.ndarray:
    """Rewrite an operator from the ``src`` label order to the ``dst`` order."""
    n = len(src)
    perm = [list(src).index(l) for l in dst]
    t = np.transpose(mat.reshape((2,) * (2 * n)), perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def permute_state(vec: np.ndarray, src, dst) -> np.ndarray:
    perm = [list(src).index(l) for l in dst]
    return np.transpose(vec.reshape((2,) * len(src)), perm).reshape(-1)


def embed_operator(op: np.ndarray, targets, labels) -> np.ndarray:
    """Extend ``op`` (acting on ``targets`` in order) by identity on the rest."""
    others = [l for l in labels if l not in targets]
    full = np.kron(op, np.eye(2 ** len(others), dtype=complex))
    return permute_operator(full, list(targets) + others, list(labels))


def bsa_reference(rho: DensityMatrix, modes, channel) -> list[tuple[float, np.ndarray]]:
    """Per outcome, in bsa's order: weight and unnormalized spectator matrix."""
    fulls = [embed_operator(k, modes, rho.labels) for k in channel.kraus]
    arr = sum(full @ rho.entries @ full.conj().T for full in fulls)
    keep = [l for l in rho.labels if l not in modes]
    out = []
    for sb, sc in BELL_FOR_PRODUCT:
        vec = np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
        proj = embed_operator(np.outer(vec, vec.conj()), modes, rho.labels)
        sub = proj @ arr @ proj
        out.append((float(np.real(np.trace(sub))), partial_trace_raw(sub, rho.labels, keep)))
    return out


def derive_correction_table(gate=1.0) -> dict[str, str]:
    """Search {I, X, Z, iY} for the rotation giving unit fidelity per outcome.

    Uses the ideal aligned pair and a generic (non-symmetric) pure input so
    that only the true frame correction survives the search.
    """
    chi = np.array([0.6, 0.8j])
    inp = PureState(chi, ("c",)).density()
    pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, 0.0), ("a", "b"))
    table = {}
    for o in teleport(inp, pair, gate, correct=False).outcomes:
        for name, u in CORRECTION_MATRICES.items():
            rotated = u @ o.state.entries @ u.conj().T
            if float(np.real(chi.conj() @ rotated @ chi)) > 1.0 - 1e-10:
                table[o.bell_label] = name
                break
    return table


class TestTildeBell:
    def test_phi_plus_amplitudes(self):
        # 1/2 (|HH> + |HV> + |VH> - |VV>)
        st = tilde_bell("phi+")
        assert np.allclose(st.amplitudes, np.array([1, 1, 1, -1]) / 2, atol=1e-14)

    def test_orthonormal_basis(self):
        states = [tilde_bell(l).amplitudes for l in TILDE_LABELS]
        gram = np.array([[abs(a.conj() @ b) for b in states] for a in states])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_maximally_entangled_marginals(self):
        for label in TILDE_LABELS:
            rho = tilde_bell(label, ("x", "y")).density()
            for keep in (("x",), ("y",)):
                assert np.allclose(partial_trace(rho, keep).entries, np.eye(2) / 2, atol=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            tilde_bell("sigma+")


def test_two_pair_decomposition_identity():
    # |phi+>_ab |phi+>_cd = 1/2 sum_k |B_k>_ad |B_k>_bc in the analyzer basis
    lhs = kron(
        make_pair(PairSpec("phi+", 0.0), ("a", "b")),
        make_pair(PairSpec("phi+", 0.0), ("c", "d")),
    )
    vec = np.zeros(16, dtype=complex)
    for label in TILDE_LABELS:
        term = np.kron(tilde_bell(label).amplitudes, tilde_bell(label).amplitudes)
        vec += 0.5 * permute_state(term, ("a", "d", "b", "c"), ("a", "b", "c", "d"))
    assert np.allclose(lhs.entries, np.outer(vec, vec.conj()), atol=1e-12)


class TestBsa:
    def test_tilde_states_map_to_products(self):
        for label in TILDE_LABELS:
            rho = tilde_bell(label, ("b", "c")).density()
            outcomes = {o.bell_label: o for o in bsa(rho, ("b", "c"), 1.0)}
            assert outcomes[label].probability == pytest.approx(1 / 9, abs=1e-12)
            assert outcomes[label].product_result == PRODUCT_FOR_BELL[label]
            for other in TILDE_LABELS:
                if other != label:
                    assert outcomes[other].probability == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_equipartition(self):
        rho = DensityMatrix(np.eye(4) / 4, ("b", "c"))
        for o in bsa(rho, ("b", "c"), 1.0):
            assert o.probability == pytest.approx(1 / 36, abs=1e-12)

    def test_hh_spectator_untouched(self, rng):
        spectator = ginibre_dm(1, rng).with_labels(("s",))
        hh = kron(single_qubit_state("H", "b").density(), single_qubit_state("H", "c").density())
        joint = kron(spectator, hh)
        for o in bsa(joint, ("b", "c"), 1.0):
            assert o.probability == pytest.approx(1 / 36, abs=1e-12)
            assert o.state.labels == ("s",)
            assert np.allclose(o.state.entries, spectator.entries, atol=1e-10)

    def test_probabilities_plus_failure_total_one(self, rng):
        rho = ginibre_dm(2, rng).with_labels(("b", "c"))
        for v in (0.0, 0.6, 1.0):
            outcomes = bsa(rho, ("b", "c"), v)
            success = sum(o.probability for o in outcomes)
            assert 0.0 < success < 1.0
            # failure mass is the complement; total is unity by construction
            assert success <= 5 / 9 + 1e-12

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            bsa(DensityMatrix(np.eye(4) / 4, ("b", "c")), ("b", "x"))

    def test_repeated_mode(self):
        with pytest.raises(ValueError, match=r"\('b', 'b'\)"):
            bsa(DensityMatrix(np.eye(4) / 4, ("b", "c")), ("b", "b"))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.sampled_from((3, 4)), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_equals_brute_force_reference(self, n, v, seed):
        # analyzed pair at random label positions, in either order
        rng = np.random.default_rng(seed)
        labels = tuple(rng.permutation([f"m{k}" for k in range(n)]))
        rho = ginibre_dm(n, rng).with_labels(labels)
        modes = tuple(rng.choice(labels, size=2, replace=False))
        outcomes = bsa(rho, modes, v)
        reference = bsa_reference(rho, modes, gate_channel(v))
        assert [o.product_result for o in outcomes] == list(BELL_FOR_PRODUCT)
        for o, (weight, reduced) in zip(outcomes, reference):
            assert o.probability == pytest.approx(weight, abs=1e-12)
            assert o.state.labels == tuple(l for l in labels if l not in modes)
            assert np.allclose(o.probability * o.state.entries, reduced, atol=1e-12, rtol=0)


class TestTeleport:
    @pytest.fixture
    def ideal_pair(self):
        return make_pair(PairSpec(TELEPORT_PAIR_TARGET, 0.0), ("a", "b"))

    def test_ideal_named_inputs(self, ideal_pair):
        for name in ("H", "V", "+", "R"):
            res = teleport(make_input(InputSpec(name)), ideal_pair, 1.0, correct=True)
            chi = single_qubit_state(name)
            for o in res.outcomes:
                assert o.probability == pytest.approx(1 / 36, abs=1e-12)
                assert fidelity_pure(o.state, chi) == pytest.approx(1.0, abs=1e-10)

    def test_ideal_random_inputs_all_outcomes(self, ideal_pair, rng):
        channel = gate_channel(1.0)
        for _ in range(100):
            chi = random_pure(1, rng)
            res = teleport(chi.density(), ideal_pair, channel, correct=True)
            for o in res.outcomes:
                assert fidelity_pure(o.state, chi) == pytest.approx(1.0, abs=1e-10)

    def test_corrected_fidelities_match_summary(self, rng):
        # teleport(correct=True) and the exact summary apply one Pauli correction
        for _ in range(10):
            v, lp, li = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
            channel = gate_channel(v)
            pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, lp), ("a", "b"))
            per_outcome = teleport_summary(channel, lp, li)["per_outcome"]
            for spec in tomographic_input_set(li):
                res = teleport(make_input(spec, "c"), pair, channel, correct=True)
                chi = single_qubit_state(spec.state)
                for o in res.outcomes:
                    expected = per_outcome[spec.state][o.bell_label]["fidelity"]
                    assert fidelity_pure(o.state, chi) == pytest.approx(expected, abs=1e-12)

    def test_correction_table_matches_derivation(self):
        assert derive_correction_table() == CORRECTION_FOR_BELL

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    def test_ideal_corrected_teleportation_is_identity(self, parts):
        amps = np.array(parts[:2]) + 1j * np.array(parts[2:])
        assume(np.linalg.norm(amps) > 1e-3)
        chi = PureState(amps / np.linalg.norm(amps)).density()
        pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, 0.0), ("a", "b"))
        for o in teleport(chi, pair, 1.0, correct=True).outcomes:
            assert o.probability == pytest.approx(1 / 36, abs=1e-12)
            assert np.allclose(o.state.entries, chi.entries, atol=1e-12, rtol=0)

    def test_corrections_recorded(self, ideal_pair):
        res = teleport(make_input(InputSpec("H")), ideal_pair, 1.0, correct=True)
        assert {o.bell_label: o.correction for o in res.outcomes} == CORRECTION_FOR_BELL
        raw = teleport(make_input(InputSpec("H")), ideal_pair, 1.0, correct=False)
        assert all(o.correction is None for o in raw.outcomes)

    def test_v_fidelity_oracles(self, ideal_pair):
        # hand-derived Kraus decomposition: F_V = 1/(3 - 2 v^2), F_+ = 1/(2 - v^2)
        for v in (0.0, 0.4, 0.8, 1.0):
            channel = gate_channel(v)
            res_v = teleport(make_input(InputSpec("V")), ideal_pair, channel, correct=True)
            total = res_v.success_probability
            f_v = sum(o.probability * fidelity_pure(o.state, single_qubit_state("V"))
                      for o in res_v.outcomes) / total
            assert f_v == pytest.approx(1.0 / (3.0 - 2.0 * v * v), abs=1e-10)
            res_p = teleport(make_input(InputSpec("+")), ideal_pair, channel, correct=True)
            total = res_p.success_probability
            f_p = sum(o.probability * fidelity_pure(o.state, single_qubit_state("+"))
                      for o in res_p.outcomes) / total
            assert f_p == pytest.approx(1.0 / (2.0 - v * v), abs=1e-10)

    def test_v_zero_ranks_v_below_h(self, ideal_pair):
        channel = gate_channel(0.0)

        def avg_fid(name):
            res = teleport(make_input(InputSpec(name)), ideal_pair, channel, correct=True)
            return sum(o.probability * fidelity_pure(o.state, single_qubit_state(name))
                       for o in res.outcomes) / res.success_probability

        assert avg_fid("V") < avg_fid("H") - 0.5

    def test_fidelity_monotone_in_overlap(self, ideal_pair):
        for name in ("H", "V", "+", "R"):
            prev = -1.0
            for v in (0.0, 0.25, 0.5, 0.75, 1.0):
                res = teleport(make_input(InputSpec(name)), ideal_pair, gate_channel(v), correct=True)
                fid = sum(o.probability * fidelity_pure(o.state, single_qubit_state(name))
                          for o in res.outcomes) / res.success_probability
                assert fid >= prev - 1e-12
                prev = fid

    def test_h_fidelity_independent_of_overlap(self, ideal_pair):
        vals = []
        for v in (0.0, 0.3, 0.6, 0.9, 1.0):
            res = teleport(make_input(InputSpec("H")), ideal_pair, gate_channel(v), correct=True)
            vals.append(sum(o.probability * fidelity_pure(o.state, single_qubit_state("H"))
                            for o in res.outcomes) / res.success_probability)
        assert np.ptp(vals) < 1e-10

    def test_classical_pair_bound(self):
        # separable lambda=1 pair carries no quantum channel: fidelity 1/2
        pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, 1.0), ("a", "b"))
        fids = []
        for name in ("H", "V", "+", "R"):
            res = teleport(make_input(InputSpec(name)), pair, 1.0, correct=True)
            fids.append(sum(o.probability * fidelity_pure(o.state, single_qubit_state(name))
                            for o in res.outcomes) / res.success_probability)
        assert np.mean(fids) == pytest.approx(0.5, abs=1e-10)
        assert np.mean(fids) <= 2 / 3 + 0.01

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            teleport(make_pair(PairSpec()), make_pair(PairSpec()))


class TestSwap:
    def test_ideal_conditionals_are_tilde_bells(self):
        pair = make_pair(PairSpec("phi+", 0.0))
        res = swap(pair, pair, 1.0)
        for o in res.outcomes:
            assert o.probability == pytest.approx(1 / 36, abs=1e-12)
            target = tilde_bell(o.bell_label, ("a", "d"))
            assert o.state.labels == ("a", "d")
            assert fidelity_pure(o.state, target) == pytest.approx(1.0, abs=1e-12)

    def test_psi_minus_term(self):
        pair = make_pair(PairSpec("phi+", 0.0))
        res = swap(pair, pair, 1.0)
        o = res.outcome("psi-")
        assert np.allclose(o.state.entries, tilde_bell("psi-").density().entries, atol=1e-12)

    def test_white_noise_pairs_give_white_noise(self):
        pair = make_pair(PairSpec("phi+", 1.0))
        res = swap(pair, pair, 1.0)
        for o in res.outcomes:
            assert np.allclose(o.state.entries, np.eye(4) / 4, atol=1e-12)

    def test_conditionals_valid_over_noise_grid(self, rng):
        for v in (0.0, 0.7, 1.0):
            for lam in (0.0, 0.3, 0.8):
                res = swap(make_pair(PairSpec("phi+", lam)),
                           make_pair(PairSpec("phi+", lam)), gate_channel(v))
                total = sum(o.probability for o in res.outcomes)
                assert total <= 1.0 + 1e-12
                for o in res.outcomes:
                    eigs = np.linalg.eigvalsh(o.state.entries)
                    assert eigs.min() >= -1e-9
                    assert np.trace(o.state.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            swap(make_input(InputSpec("H")), make_pair(PairSpec()))
