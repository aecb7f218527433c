import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from telegate.gate import gate_channel
from telegate.metrics import fidelity_pure
from telegate.protocols import (
    BELL_FOR_PRODUCT,
    CORRECTION_FOR_BELL,
    CORRECTION_MATRICES,
    CORRECTIONS,
    PRODUCT_FOR_BELL,
    TELEPORT_PAIR_TARGET,
    TILDE_LABELS,
    apply_kraus_raw,
    bsa,
    pair_raw,
    swap,
    teleport,
    tilde_bell,
)
from telegate.experiment import swap_summary, teleport_summary
from telegate.sources import (
    BELL_AMPLITUDES,
    SINGLE_QUBIT_AMPLITUDES,
    TOMOGRAPHIC_PROBES,
    InputSpec,
    PairSpec,
    make_input,
    make_pair,
    single_qubit_state,
    tomographic_input_set,
)
from telegate.states import PAULI, DensityMatrix, PureState, kron
from conftest import ginibre_dm, partial_trace, partial_trace_raw, random_pure, same_bits


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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.floats(0.5, 1.0), st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    def test_six_state_average_fidelity_is_two_f_p_plus_one_over_three(self, v, lp, li):
        # Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999): the heralded fidelity
        # averaged over the six Pauli eigenstates, against F_p read off the process matrix
        channel = gate_channel(v)
        pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, lp), ("a", "b"))
        fidelities = []
        for name in ("H", "V", "+", "-", "R", "L"):
            res = teleport(make_input(InputSpec(name, li), "c"), pair, channel, correct=True)
            chi = single_qubit_state(name)
            fidelities.append(sum(o.probability * fidelity_pure(o.state, chi)
                                  for o in res.outcomes) / res.success_probability)
        f_p = teleport_summary(channel, lp, li)["F_p"]
        assert np.mean(fidelities) == pytest.approx((2.0 * f_p + 1.0) / 3.0, abs=1e-12)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    def test_process_matrix_is_the_linear_map_through_the_probes(self, v, lp, li, parts):
        # the process matrix maps each pure probe to its heralded output; at v = 1 the four
        # effects sum to I/9, so the heralded map is linear and it predicts every input
        def heralded_and_predicted(overlap, pure):
            channel = gate_channel(overlap)
            m = teleport_summary(channel, lp, li)["process_matrix"].entries
            pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, lp), ("a", "b"))
            res = teleport(DensityMatrix((1.0 - li) * pure + li * np.eye(2) / 2.0, ("c",)),
                           pair, channel, correct=True)
            heralded = sum(o.probability * o.state.entries for o in res.outcomes)
            return heralded / res.success_probability, sum(
                m[i, j] * PAULI[a] @ pure @ PAULI[b]
                for i, a in enumerate("IXYZ") for j, b in enumerate("IXYZ"))

        amps = np.array(parts[:2]) + 1j * np.array(parts[2:])
        assume(np.linalg.norm(amps) > 1e-3)
        for pure in [single_qubit_state(p).density().entries for p in TOMOGRAPHIC_PROBES]:
            heralded, predicted = heralded_and_predicted(v, pure)
            assert np.abs(heralded - predicted).max() <= 1e-12
        heralded, predicted = heralded_and_predicted(
            1.0, PureState(amps / np.linalg.norm(amps)).density().entries)
        assert np.abs(heralded - predicted).max() <= 1e-12

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_success_probability_closed_form(self, v, lp, li, seed):
        # the four effects sum to sum_k K_k^dag K_k = (I + 4(1 - v^2)|VV><VV|)/9 on (b, c),
        # which sees the pair's b marginal times the input
        rng = np.random.default_rng(seed)
        pair = DensityMatrix((1.0 - lp) * random_pure(2, rng).density().entries
                             + lp * np.eye(4) / 4.0, ("a", "b"))
        rho_c = DensityMatrix((1.0 - li) * random_pure(1, rng).density().entries
                              + li * np.eye(2) / 2.0, ("c",))
        rho_b = partial_trace_raw(pair.entries, pair.labels, ("b",))
        effects = (np.eye(4) + 4.0 * (1.0 - v**2) * np.diag([0.0, 0.0, 0.0, 1.0])) / 9.0
        expected = np.real(np.trace(effects @ np.kron(rho_b, rho_c.entries)))
        res = teleport(rho_c, pair, gate_channel(v), correct=True)
        assert res.success_probability == pytest.approx(expected, rel=0, abs=1e-14)

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

    def test_corrections_recorded(self, ideal_pair, rng):
        # each outcome's state is rotated by the correction named for its Bell label
        chi = ginibre_dm(1, rng).with_labels(("c",))
        res = teleport(chi, ideal_pair, 0.8, correct=True)
        raw = teleport(chi, ideal_pair, 0.8, correct=False)
        for o, r in zip(res.outcomes, raw.outcomes):
            assert (o.bell_label, o.probability) == (r.bell_label, r.probability)
            u = CORRECTION_MATRICES[CORRECTION_FOR_BELL[o.bell_label]]
            assert np.allclose(o.state.entries, u @ r.state.entries @ u.conj().T,
                               rtol=0, atol=1e-15)

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


class TestTeleportOracle:
    """teleport() and swap() against bsa on the labeled joint state, analyzed on (b, c).

    The joint state is (a, b) x c for teleport and (a, b) x (c, d) for swap.
    """

    @staticmethod
    def assert_matches_bsa(chi, pair, channel, correct):
        res = teleport(chi, pair, channel, correct=correct)
        joint = kron(pair.with_labels(("a", "b")), chi.with_labels(("c",)))
        reference = bsa(joint, ("b", "c"), channel)
        assert ([(o.bell_label, o.product_result) for o in res.outcomes]
                == [(o.bell_label, o.product_result) for o in reference])
        for o, r, u in zip(res.outcomes, reference, CORRECTIONS):
            assert o.probability == pytest.approx(r.probability, rel=0, abs=1e-14)
            if r.state is None:
                assert o.state is None
                continue
            expected = u @ r.state.entries @ u.conj().T if correct else r.state.entries
            assert o.state.labels == ("a",)
            assert np.allclose(o.state.entries, expected, rtol=0, atol=1e-14)
        assert res.success_probability == pytest.approx(sum(r.probability for r in reference),
                                                         rel=0, abs=1e-14)
        return res

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(0, 2**32), st.booleans())
    def test_equals_bsa_on_joint_state(self, v, seed, correct):
        rng = np.random.default_rng(seed)
        pair, chi = ginibre_dm(2, rng), ginibre_dm(1, rng)
        self.assert_matches_bsa(chi, pair, gate_channel(v), correct)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_swap_equals_bsa_on_joint_state(self, v, seed):
        # swap() skips the labeled joint state; the analysis must not change by a bit
        rng = np.random.default_rng(seed)
        p1, p2, channel = ginibre_dm(2, rng), ginibre_dm(2, rng), gate_channel(v)
        res = swap(p1, p2, channel)
        joint = kron(p1.with_labels(("a", "b")), p2.with_labels(("c", "d")))
        reference = bsa(joint, ("b", "c"), channel)
        assert ([(o.bell_label, o.product_result) for o in res.outcomes]
                == [(o.bell_label, o.product_result) for o in reference])
        for o, r in zip(res.outcomes, reference):
            assert o.probability == r.probability
            assert o.state.labels == ("a", "d")
            assert np.array_equal(o.state.entries, r.state.entries)
        assert res.success_probability == sum(r.probability for r in reference)

    @pytest.mark.parametrize("correct", [False, True])
    def test_zero_probability_outcomes(self, correct):
        # b = H and c = - pass the gate unchanged; the analyzer never reads + on c
        pair = kron(single_qubit_state("+", "a").density(), single_qubit_state("H", "b").density())
        chi = single_qubit_state("-", "c").density()
        res = self.assert_matches_bsa(chi, pair, gate_channel(1.0), correct)
        for o in res.outcomes:
            vanishes = o.bell_label in ("phi+", "phi-")
            assert o.probability == pytest.approx(0.0 if vanishes else 1 / 18, rel=0, abs=1e-15)
            assert (o.state is None) == vanishes


def brute_force_raw(rho: np.ndarray, b: int, c: int, kraus) -> np.ndarray:
    """sum_k <i, o| K_k rho K_k^dag |j, o> with every bra written out, K_k acting on qubits (b, c)."""
    n = rho.shape[-1].bit_length() - 1
    labels = [f"q{q}" for q in range(n)]
    keep = [l for l in labels if l not in (labels[b], labels[c])]
    order = [labels[b], labels[c]] + keep
    fulls = [embed_operator(k, (labels[b], labels[c]), labels) for k in kraus]
    out = []
    for sb, sc in BELL_FOR_PRODUCT:
        vec = np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
        # row i is the bra <i, o| over all n qubits, i running over the spectators in qubit order
        bras = np.array([permute_state(np.kron(vec, e), order, labels)
                         for e in np.eye(2 ** len(keep))]).conj()
        out.append(sum(bras @ k @ rho @ k.conj().T @ bras.conj().T for k in fulls))
    return np.moveaxis(np.array(out), 0, -3)


@st.composite
def kraus_sets(draw) -> list[np.ndarray]:
    """One to three dense complex 4 x 4 operators, scaled so that sum_k K_k^dag K_k <= I."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
           for _ in range(draw(st.integers(1, 3)))]
    scale = np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops)).max()
    return [k / np.sqrt(scale * draw(st.floats(1.0, 4.0))) for k in ops]


class TestAnalyzerKernel:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from([3, 4]), st.sampled_from([(), (2,)]), kraus_sets(),
           st.integers(0, 2**32 - 1))
    def test_matches_brute_force_sum(self, n, batch, kraus, seed):
        # the gate's own operators are diagonal; dense ones exercise every effect entry
        rng = np.random.default_rng(seed)
        rho = np.array([ginibre_dm(n, rng).entries for _ in range(int(np.prod(batch)))])
        rho = rho.reshape(batch + rho.shape[-2:])
        for b in range(n):
            for c in range(n):
                if b != c:
                    raw = apply_kraus_raw(rho, b, c, kraus)
                    expected = np.array([brute_force_raw(r, b, c, kraus)
                                         for r in rho.reshape(-1, 2**n, 2**n)])
                    assert raw.shape == batch + (4, 2 ** (n - 2), 2 ** (n - 2))
                    assert np.abs(raw - expected.reshape(raw.shape)).max() <= 1e-13, (b, c)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 6), st.sampled_from([1, 2]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_pair_raw_over_a_stack_is_per_pair_calls(self, v, size, m, stacked, seed):
        # a stack of left pairs against one right state or against a stack of them
        rng = np.random.default_rng(seed)
        kraus = gate_channel(v).kraus
        pairs = np.array([ginibre_dm(2, rng).entries for _ in range(size)])
        rights = np.array([ginibre_dm(m, rng).entries for _ in range(size if stacked else 1)])
        raw = pair_raw(pairs, rights if stacked else rights[0], kraus)
        assert raw.shape == (size, 4, 2**m, 2**m)
        for k, pair in enumerate(pairs):
            assert same_bits(raw[k], pair_raw(pair, rights[k if stacked else 0], kraus))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_effects_are_positive_and_sum_to_the_kraus_sum(self, v):
        kraus = gate_channel(v).kraus
        # the kernel reads Tr[|j><l| E_o] = E_o[l, j] off the 16 matrix units |j><l|
        units = np.eye(16).reshape(4, 4, 4, 4)
        effects = apply_kraus_raw(units, 0, 1, kraus)[..., 0, 0].transpose(2, 1, 0)
        assert effects.shape == (4, 4, 4)
        for e in effects:
            assert np.abs(e - e.conj().T).max() <= 1e-15
            assert np.linalg.eigvalsh(e).min() >= -1e-15
        total = sum(k.conj().T @ k for k in kraus)
        assert np.abs(effects.sum(axis=0) - total).max() <= 1e-15
        assert np.linalg.eigvalsh(total).max() <= 1.0 + 1e-12


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

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_white_noise_visibilities_multiply(self, lam):
        # at v = 1 two Werner pairs of visibility 1 - lam swap into one of visibility (1 - lam)^2
        assert swap_summary(1.0, lam)["S_abs_avg"] == pytest.approx(
            2.0 * np.sqrt(2.0) * (1.0 - lam) ** 2, rel=0, abs=1e-12)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_chsh_within_horodecki_bound(self, v, lam):
        # |S| <= 2 sqrt(t1 + t2), t1 and t2 the two largest eigenvalues of T^T T, with
        # T[i, j] = Tr[rho sigma_i x sigma_j] (Horodecki, Horodecki & Horodecki, Phys. Lett. A
        # 200, 340, 1995); at v = 1 the standard angles reach it
        def abs_s_and_bound(overlap):
            for o in swap_summary(overlap, lam)["outcomes"].values():
                t = np.real([[np.trace(o["state"].entries @ np.kron(PAULI[i], PAULI[j]))
                              for j in "XYZ"] for i in "XYZ"])
                yield o["chsh_abs"], 2.0 * np.sqrt(np.linalg.eigvalsh(t.T @ t)[1:].sum())

        for s_abs, bound in abs_s_and_bound(v):
            assert s_abs <= bound + 1e-12
        for s_abs, bound in abs_s_and_bound(1.0):
            assert s_abs == pytest.approx(bound, rel=0, abs=1e-12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(0.0, 1.0), st.lists(st.sampled_from(sorted(BELL_AMPLITUDES)), min_size=2,
                                     max_size=2),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.sampled_from(sorted(SINGLE_QUBIT_AMPLITUDES)))
def test_outcome_probabilities(v, targets, mixedness, probe):
    """Every analyzer outcome of teleport and swap keeps a closed-form share of the events.

    A Bell pair with white noise has the maximally mixed marginal, so the
    analyzed modes (b, c) are in I/2 x rho_c, with rho_c the input (teleport)
    or I/2 (swap). With w^2 = 1 - v^2, the channel's Kraus operators are
    v diag(1, 1, 1, -1)/3, w I/3 and w diag(0, 0, 0, -2)/3, and an outcome
    is the product |s_b s_c> of +/-45 degree states. The three terms give
    - v^2/9 <s_b s_c|CZ (I/2 x rho_c) CZ|s_b s_c> = v^2/36, since
      |<s_b|H>|^2 = |<s_b|V>|^2 = 1/2 and Z maps s_c to the opposite sign;
    - w^2/9 <s_b|I/2|s_b> <s_c|rho_c|s_c> = w^2/18 <s_c|rho_c|s_c>;
    - 4 w^2/9 |<s_b s_c|VV>|^2 <V|I/2|V> <V|rho_c|V> = w^2/18 <V|rho_c|V>.
    So p = v^2/36 + w^2/18 (<s_c|rho_c|s_c> + <V|rho_c|V>), which is (2 - v^2)/36
    for rho_c = I/2. The bracket is at least 1 - 1/sqrt 2 (the smaller
    eigenvalue of |s_c><s_c| + |V><V|), so no outcome vanishes and every one
    has a conditional state; for the probes H, V, +, R it is at least 1/2,
    so every outcome keeps at least 1/36 of the events.
    """
    channel = gate_channel(v)
    rho_c = make_input(InputSpec(probe, mixedness[2]))
    pair = make_pair(PairSpec(targets[0], mixedness[0]))
    res = teleport(rho_c, pair, channel, correct=False)
    for o in res.outcomes:
        s_c = SINGLE_QUBIT_AMPLITUDES[o.product_result[1]]
        bracket = np.real(s_c.conj() @ rho_c.entries @ s_c + rho_c.entries[1, 1])
        assert o.probability == pytest.approx(v**2 / 36 + (1 - v**2) / 18 * bracket,
                                              rel=0, abs=1e-15)
        assert o.state is not None
        if probe in TOMOGRAPHIC_PROBES:
            assert o.probability >= 1 / 36 - 1e-15
    for o in swap(pair, make_pair(PairSpec(targets[1], mixedness[1])), channel).outcomes:
        assert o.probability == pytest.approx((2 - v**2) / 36, rel=0, abs=1e-15)
        assert o.state is not None
