import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from telegate.gate import (
    BASIS_2Q,
    FockState,
    GATE_PDBS,
    GateChannel,
    OUTPUT_PDBS,
    PdbsSpec,
    ZeroSuccessError,
    coincidence_block,
    coincidence_distribution,
    fock_input,
    gate_channel,
    output_attenuators,
    pdbs_apply,
    propagate_gate,
)
from telegate.protocols import bsa
from telegate.sources import bell_state
from telegate.states import DensityMatrix
from conftest import fock_norm, ginibre_dm, random_pure

IDEAL_K = np.diag([1, 1, 1, -1]).astype(complex) / 3.0
OVERLAPS = st.floats(0.0, 1.0)


def apply_channel(rho: DensityMatrix, channel: GateChannel) -> tuple[DensityMatrix, float]:
    """Post-selected output state and success probability."""
    out = sum(k @ rho.entries @ k.conj().T for k in channel.kraus)
    p = float(np.real(np.trace(out)))
    return DensityMatrix(out / p, rho.labels), p


def kraus_sum(channel: GateChannel) -> np.ndarray:
    return sum(k.conj().T @ k for k in channel.kraus)


def fock_kraus(v: float) -> list[np.ndarray]:
    """Kraus operators read off Fock propagation, one per internal-label configuration."""
    blocks = {}
    for col, amps in enumerate(np.eye(4)):
        for cfg, vec in coincidence_block(propagate_gate(fock_input(amps, v))).items():
            blocks.setdefault(cfg, np.zeros((4, 4), dtype=complex))[:, col] = vec
    return [blocks[cfg] for cfg in sorted(blocks) if np.linalg.norm(blocks[cfg]) > 1e-14]


def two_photon(m0, m1, amp=1.0):
    return FockState({tuple(sorted((m0, m1))): amp})


def random_two_photon(rng):
    modes = [(s, p, x) for s in (0, 1) for p in "HV" for x in (0, 1)]
    keys = []
    for i in range(len(modes)):
        for j in range(i, len(modes)):
            keys.append(tuple(sorted((modes[i], modes[j]))))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    return FockState(dict(zip(keys, amps)))


class TestPdbs:
    def test_full_transmission_single_photon(self):
        st = FockState({((0, "H", 0),): 1.0})
        out = pdbs_apply(st, GATE_PDBS)
        assert out.terms == {((0, "H", 0),): pytest.approx(1.0)}

    def test_vv_interference_amplitude(self):
        # both transmitted (1/3) plus both reflected (-2/3) -> -1/3
        st = two_photon((0, "V", 0), (1, "V", 0))
        out = pdbs_apply(st, GATE_PDBS)
        coincidence = out.terms[((0, "V", 0), (1, "V", 0))]
        assert coincidence == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_vv_distinguishable_probability(self):
        # orthogonal internal labels: probabilities add, (1/3)^2 + (2/3)^2 = 5/9
        st = two_photon((0, "V", 0), (1, "V", 1))
        out = pdbs_apply(st, GATE_PDBS)
        p = sum(abs(a) ** 2 for key, a in out.terms.items()
                if sorted(m[0] for m in key) == [0, 1])
        assert p == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_sink_photon_rejected(self):
        st = FockState({((2, "H", 0),): 1.0})
        with pytest.raises(ValueError, match="sink"):
            pdbs_apply(st, GATE_PDBS)

    def test_norm_preserved_on_random_states(self, rng):
        specs = [GATE_PDBS, OUTPUT_PDBS] + [
            PdbsSpec(rng.uniform(), rng.uniform()) for _ in range(8)
        ]
        for i in range(1000):
            st = random_two_photon(rng)
            out = pdbs_apply(st, specs[i % len(specs)])
            assert fock_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_transmission_range_validated(self):
        with pytest.raises(ValueError):
            PdbsSpec(1.2, 0.5)


class TestAttenuators:
    def test_hh_coincidence_scaled_to_one_third(self):
        st = two_photon((0, "H", 0), (1, "H", 0))
        out = output_attenuators(st)
        assert out.terms[((0, "H", 0), (1, "H", 0))] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_vv_untouched(self):
        st = two_photon((0, "V", 0), (1, "V", 0), amp=-1.0 / 3.0)
        out = output_attenuators(st)
        assert out.terms[((0, "V", 0), (1, "V", 0))] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_hv_single_sqrt_factor(self):
        st = two_photon((0, "H", 0), (1, "V", 0), amp=np.sqrt(1.0 / 3.0))
        out = output_attenuators(st)
        assert out.terms[((0, "H", 0), (1, "V", 0))] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_norm_conserved_including_sinks(self, rng):
        st = random_two_photon(rng)
        assert fock_norm(output_attenuators(st)) == pytest.approx(1.0, abs=1e-12)


class TestCoincidenceBlock:
    def test_ideal_hh_entry(self):
        out = propagate_gate(fock_input([1, 0, 0, 0], v=1.0))
        blocks = coincidence_block(out)
        assert set(blocks) == {(0, 0)}
        assert blocks[(0, 0)][0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ideal_vv_entry(self):
        out = propagate_gate(fock_input([0, 0, 0, 1], v=1.0))
        blocks = coincidence_block(out)
        assert blocks[(0, 0)][3] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_distinguishable_vv_two_contributions(self):
        out = propagate_gate(fock_input([0, 0, 0, 1], v=0.0))
        blocks = coincidence_block(out)
        assert set(blocks) == {(0, 1), (1, 0)}
        total = sum(float(np.sum(np.abs(vec) ** 2)) for vec in blocks.values())
        assert total == pytest.approx(5.0 / 9.0, abs=1e-12)


class TestGateChannel:
    def test_ideal_single_kraus(self):
        ch = gate_channel(1.0)
        assert len(ch.kraus) == 1
        assert np.allclose(ch.kraus[0], IDEAL_K, atol=1e-12)

    def test_vv_success_ideal(self):
        ch = gate_channel(1.0)
        vv = np.zeros((4, 4)); vv[3, 3] = 1
        assert ch.success_probability(vv) == pytest.approx(1.0 / 9.0, abs=1e-14)
        rho = DensityMatrix(vv)
        out, p = apply_channel(rho, ch)
        assert p == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert np.allclose(out.entries, vv, atol=1e-12)

    def test_tilde_bell_to_product(self):
        ch = gate_channel(1.0)
        rho = bell_state("phi+~").density()
        out, p = apply_channel(rho, ch)
        plus_plus = np.array([1, 1, 1, 1]) / 2.0
        assert p == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert np.allclose(out.entries, np.outer(plus_plus, plus_plus), atol=1e-12)

    def test_distinguishable_vv(self):
        ch = gate_channel(0.0)
        vv = np.zeros((4, 4)); vv[3, 3] = 1
        assert ch.success_probability(vv) == pytest.approx(5.0 / 9.0, abs=1e-14)
        out, p = apply_channel(DensityMatrix(vv), ch)
        assert p == pytest.approx(5.0 / 9.0, abs=1e-14)
        off_diag = out.entries - np.diag(np.diag(out.entries))
        assert np.allclose(off_diag, 0.0, atol=1e-12)

    def test_overlap_validated(self):
        with pytest.raises(ValueError):
            gate_channel(1.5)
        with pytest.raises(ValueError):
            fock_input([1, 0, 0, 0], v=-0.1)

    def test_apply_channel_fixed_point(self):
        hv = np.zeros((4, 4)); hv[1, 1] = 1
        out, p = apply_channel(DensityMatrix(hv), gate_channel(1.0))
        assert p == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert np.allclose(out.entries, hv, atol=1e-12)

    def test_plus_plus_to_tilde_bell(self):
        plus_plus = np.array([1, 1, 1, 1]) / 2.0
        rho = DensityMatrix(np.outer(plus_plus, plus_plus))
        out, p = apply_channel(rho, gate_channel(1.0))
        target = bell_state("phi+~").density()
        assert p == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert np.allclose(out.entries, target.entries, atol=1e-12)

    def test_plus_plus_degraded_at_zero_overlap(self):
        plus_plus = np.array([1, 1, 1, 1]) / 2.0
        rho = DensityMatrix(np.outer(plus_plus, plus_plus))
        out, _ = apply_channel(rho, gate_channel(0.0))
        target = bell_state("phi+~")
        fid = float(np.real(target.amplitudes.conj() @ out.entries @ target.amplitudes))
        assert fid < 1.0 - 1e-3

    def test_zero_success_error(self):
        empty = GateChannel(kraus=(np.zeros((4, 4), dtype=complex),))
        with pytest.raises(ZeroSuccessError):
            bsa(DensityMatrix(np.eye(4) / 4, ("b", "c")), ("b", "c"), empty)


class TestChannelInvariants:
    def test_ideal_equals_conjugation(self, rng):
        ch = gate_channel(1.0)
        cphase = np.diag([1, 1, 1, -1]).astype(complex)
        for _ in range(100):
            rho = ginibre_dm(2, rng)
            out, p = apply_channel(rho, ch)
            ref = cphase @ rho.entries @ cphase.conj().T
            ref /= np.trace(ref).real
            assert np.allclose(out.entries, ref, atol=1e-12)
            assert p == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_bell_product_table(self):
        ch = gate_channel(1.0)
        products = {"phi+~": (1, 1, 1, 1), "psi+~": (1, -1, 1, -1),
                    "phi-~": (1, 1, -1, -1), "psi-~": (1, -1, -1, 1)}
        for name, signs in products.items():
            rho = bell_state(name).density()
            out, p = apply_channel(rho, ch)
            vec = np.array(signs) / 2.0
            assert p == pytest.approx(1.0 / 9.0, abs=1e-13)
            assert np.allclose(out.entries, np.outer(vec, vec), atol=1e-12)

    def test_hh_success_independent_of_overlap(self):
        hh = np.zeros((4, 4)); hh[0, 0] = 1
        for v in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert gate_channel(v).success_probability(hh) == pytest.approx(1.0 / 9.0, abs=1e-13)

    def test_fock_oracle_equivalence(self, rng):
        for v in (0.0, 0.3, 0.7, 1.0):
            ch = gate_channel(v)
            inputs = [np.eye(4)[i] for i in range(4)]
            inputs += [random_pure(2, rng).amplitudes for _ in range(10)]
            for amps in inputs:
                fock = coincidence_distribution(propagate_gate(fock_input(amps, v)))
                kraus = np.zeros(4)
                for k in ch.kraus:
                    kraus += np.abs(k @ amps) ** 2
                assert np.allclose(fock, kraus, atol=1e-10)

    def test_cp_bound(self):
        for v in np.linspace(0.0, 1.0, 11):
            top = np.linalg.eigvalsh(kraus_sum(gate_channel(round(float(v), 12)))).max()
            assert top <= 1.0 + 1e-10


class TestChannelProperties:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(OVERLAPS)
    def test_kraus_sum_below_identity(self, v):
        eigs = np.linalg.eigvalsh(kraus_sum(gate_channel(v)))
        assert eigs.min() >= -1e-15
        assert eigs.max() <= 1.0 + 1e-12

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(OVERLAPS)
    @example(0.0)
    @example(1.0)
    def test_hh_and_vv_success(self, v):
        # HH: 1/9 at any v. VV: v^2 / 9 interfering plus (1 + 4) w^2 / 9 from the
        # two distinguishable routes, i.e. 1/9 at v = 1 and 5/9 at v = 0
        ch = gate_channel(v)
        hh = np.zeros((4, 4)); hh[0, 0] = 1
        vv = np.zeros((4, 4)); vv[3, 3] = 1
        assert ch.success_probability(hh) == pytest.approx(1 / 9, abs=1e-14)
        assert ch.success_probability(vv) == pytest.approx((5 - 4 * v * v) / 9, abs=1e-14)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(OVERLAPS, st.integers(0, 2**32))
    @example(0.0, 0)
    @example(0.5, 0)
    @example(1.0, 0)
    def test_closed_form_equals_fock_propagation(self, v, seed):
        kraus = gate_channel(v).kraus
        reference = fock_kraus(v)
        assert len(kraus) == len(reference)
        for k, ref in zip(kraus, reference):
            assert np.allclose(k, ref, atol=1e-15)
        amps = random_pure(2, np.random.default_rng(seed)).amplitudes
        blocks = coincidence_block(propagate_gate(fock_input(amps, v)))
        fock = sum(np.outer(vec, vec.conj()) for vec in blocks.values())
        closed = sum(np.outer(k @ amps, (k @ amps).conj()) for k in kraus)
        assert np.allclose(fock, closed, atol=1e-15)


class TestFockState:
    def test_mixed_photon_number_rejected(self):
        with pytest.raises(ValueError, match="photon numbers"):
            FockState({((0, "H", 0),): 0.5, ((0, "H", 0), (1, "V", 0)): 0.5})

    def test_norm_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            FockState({((0, "H", 0),): 1.2})

    def test_nan_amplitude_rejected(self):
        # NaN fails the norm check: a NaN gate input would show no coincidences at all
        with pytest.raises(ValueError, match="not a number"):
            FockState({((0, "H", 0),): complex(np.nan)})
        with pytest.raises(ValueError, match="not a number"):
            fock_input([np.nan, 0.0, 0.0, 0.0], 1.0)

    def test_basis_order_constant(self):
        assert BASIS_2Q == (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))
