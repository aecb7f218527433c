"""Two-photon Fock simulation of the three-beam-splitter phase gate.

The central element transmits horizontal polarization fully (T_H = 1) and
vertical polarization with T_V = 1/3, so only two vertical photons
interfere. In the coincidence subspace the two-transmission amplitude
(T_V = 1/3) and the two-reflection amplitude (-(1 - T_V) = -2/3) add to
-1/3: the |VV> amplitude flips sign. An attenuator with the reversed ratio
(T_H = 1/3, T_V = 1) after each output equalizes the moduli, leaving a
controlled-phase action with amplitude 1/3 on every computational basis
state, i.e. a 1/9 coincidence probability.

Partial distinguishability of the two photons is carried by internal
wavepacket labels: the first photon occupies internal state 0 and the
second v * |0> + sqrt(1 - v^2) * |1>. Orthogonal internal configurations in
the coincidence subspace cannot interfere and become separate Kraus
operators of the post-selected two-qubit channel. For fully distinguishable
photons the two |VV> routes add in probability, (1/3)^2 + (2/3)^2 = 5/9,
five times the interfering value.

Beam-splitter convention: transmission is real positive, reflection picks
up a factor i. The paper-level contract is only the sign pattern of the
coincidence amplitudes, which this convention reproduces.

The protocols use :func:`gate_channel`, which writes the post-selected
channel in closed form. The Fock propagation in this module is the
independent optical model it is checked against.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .sources import SINGLE_QUBIT_AMPLITUDES

# Spatial mode codes. 0 and 1 are the live gate arms; each attenuator
# reflects into its own terminal sink so norm accounting stays exact.
LIVE = (0, 1)
SINK_FOR = {0: 2, 1: 3}

POLS = ("H", "V")
#: Two-qubit basis order used for channel matrices: HH, HV, VH, VV with the
#: first slot the photon entering arm 0.
BASIS_2Q = tuple((p, q) for p in POLS for q in POLS)

Mode = tuple[int, str, int]  # (spatial, polarization, internal label)


class ZeroSuccessError(ValueError):
    """Raised when post-selection retains no probability at all."""


@dataclass(frozen=True)
class PdbsSpec:
    """Polarization-dependent splitter transmissions."""

    t_h: float
    t_v: float

    def __post_init__(self):
        for name, t in (("t_h", self.t_h), ("t_v", self.t_v)):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {t}")

    def transmission(self, pol: str) -> float:
        return self.t_h if pol == "H" else self.t_v


#: Central gate element and the reversed-ratio output attenuators.
GATE_PDBS = PdbsSpec(t_h=1.0, t_v=1.0 / 3.0)
OUTPUT_PDBS = PdbsSpec(t_h=1.0 / 3.0, t_v=1.0)


@dataclass(frozen=True)
class FockState:
    """Sparse photon-number state: multiset of modes -> complex amplitude.

    Keys are sorted tuples of modes; amplitudes refer to the normalized
    occupation basis. Norm may be below one once amplitude has leaked into
    the attenuator sinks.
    """

    terms: dict[tuple[Mode, ...], complex]

    def __post_init__(self):
        clean: dict[tuple[Mode, ...], complex] = {}
        sizes = set()
        for key, amp in self.terms.items():
            key = tuple(sorted(key))
            sizes.add(len(key))
            if amp != 0:
                clean[key] = clean.get(key, 0.0) + complex(amp)
        if len(sizes) > 1:
            raise ValueError(f"mixed photon numbers in one state: {sorted(sizes)}")
        norm2 = sum(abs(a) ** 2 for a in clean.values())
        if norm2 > 1.0 + 1e-10:
            raise ValueError(f"norm^2 = {norm2} exceeds 1")
        object.__setattr__(self, "terms", clean)


def _sqrt_perm_factor(key: tuple[Mode, ...]) -> float:
    # sqrt(prod_m n_m!) converting between monomial coefficients and
    # normalized occupation amplitudes
    out = 1.0
    for count in Counter(key).values():
        out *= math.factorial(count)
    return math.sqrt(out)


def _substitute(state: FockState, image) -> FockState:
    """Apply a linear mode transformation given as mode -> [(mode, coeff)]."""
    acc: dict[tuple[Mode, ...], complex] = defaultdict(complex)
    for key, amp in state.terms.items():
        gamma = amp / _sqrt_perm_factor(key)
        for combo in product(*(image(m) for m in key)):
            coeff = gamma
            for _, c in combo:
                coeff *= c
            acc[tuple(sorted(m for m, _ in combo))] += coeff
    terms = {k: c * _sqrt_perm_factor(k) for k, c in acc.items() if abs(c) > 0.0}
    return FockState(terms)


def pdbs_apply(state: FockState, spec: PdbsSpec) -> FockState:
    """Interfere the two live arms on a polarization-dependent splitter."""
    for key in state.terms:
        for s, _, _ in key:
            if s not in LIVE:
                raise ValueError(f"photon in loss sink {s}; sinks are terminal")

    def image(mode: Mode):
        s, p, x = mode
        t = math.sqrt(spec.transmission(p))
        r = 1j * math.sqrt(1.0 - spec.transmission(p))
        other = 1 - s
        return [((s, p, x), t), ((other, p, x), r)]

    return _substitute(state, image)


def output_attenuators(state: FockState, spec: PdbsSpec = OUTPUT_PDBS) -> FockState:
    """Attenuate each live arm; the reflected amplitude goes to its sink."""

    def image(mode: Mode):
        s, p, x = mode
        if s not in LIVE:
            return [(mode, 1.0)]
        t = math.sqrt(spec.transmission(p))
        r = 1j * math.sqrt(1.0 - spec.transmission(p))
        return [((s, p, x), t), ((SINK_FOR[s], p, x), r)]

    return _substitute(state, image)


def propagate_gate(state: FockState) -> FockState:
    """Full gate optics: central splitter, then both output attenuators."""
    return output_attenuators(pdbs_apply(state, GATE_PDBS))


def fock_input(amplitudes: np.ndarray, v: float) -> FockState:
    """Two-photon gate input for a two-qubit amplitude vector.

    The arm-0 photon carries internal label 0; the arm-1 photon carries
    v |0> + sqrt(1 - v^2) |1>, with v the wavepacket overlap.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {v}")
    w = math.sqrt(max(0.0, 1.0 - v * v))
    amplitudes = np.asarray(amplitudes, dtype=complex).reshape(4)
    terms: dict[tuple[Mode, ...], complex] = defaultdict(complex)
    for idx, (p, q) in enumerate(BASIS_2Q):
        c = amplitudes[idx]
        if c == 0:
            continue
        if v > 0.0:
            terms[tuple(sorted(((0, p, 0), (1, q, 0))))] += c * v
        if w > 0.0:
            terms[tuple(sorted(((0, p, 0), (1, q, 1))))] += c * w
    return FockState(dict(terms))


def coincidence_block(state: FockState) -> dict[tuple[int, int], np.ndarray]:
    """Coincidence amplitudes grouped by internal-label configuration.

    Keeps exactly the terms with one photon in each live arm. For each
    internal configuration (label in arm 0, label in arm 1) the returned
    length-4 vector holds the amplitude on each output polarization pair in
    ``BASIS_2Q`` order; orthogonal configurations belong to distinct Kraus
    operators.
    """
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for key, amp in state.terms.items():
        spatials = [m[0] for m in key]
        if sorted(spatials) != [0, 1]:
            continue
        m0 = key[0] if key[0][0] == 0 else key[1]
        m1 = key[1] if key[0][0] == 0 else key[0]
        cfg = (m0[2], m1[2])
        idx = 2 * (m0[1] == "V") + (m1[1] == "V")
        blocks.setdefault(cfg, np.zeros(4, dtype=complex))[idx] += amp
    return blocks


def coincidence_distribution(state: FockState) -> np.ndarray:
    """Probability of each output polarization pair among coincidences."""
    probs = np.zeros(4)
    for vec in coincidence_block(state).values():
        probs += np.abs(vec) ** 2
    return probs


#: The Bell-state analyzer's outcomes: both gate outputs detected in the +/-45 degree basis.
ANALYZER_OUTCOMES = ("++", "+-", "-+", "--")
#: Product bra <s_0 s_1| of each analyzer outcome, in ANALYZER_OUTCOMES order.
_PRODUCT_BRAS = np.array([np.kron(SINGLE_QUBIT_AMPLITUDES[s0], SINGLE_QUBIT_AMPLITUDES[s1])
                          for s0, s1 in ANALYZER_OUTCOMES]).conj()


@dataclass(frozen=True)
class GateChannel:
    """Post-selected action of the gate as a completely positive map.

    Success probability for an input rho is sum_k Tr[K rho K^dag]; the
    Kraus sum is strictly below identity because most amplitude leaves
    through the non-coincidence and sink terms. ``effects`` are the analyzer's E_o =
    sum_k K_k^dag |o><o| K_k, formed once: row o (ANALYZER_OUTCOMES order) is E_o[l, j] at 4l + j.
    """

    kraus: tuple[np.ndarray, ...]
    effects: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = _PRODUCT_BRAS @ np.array(self.kraus)  # [k, o, :] is the row <o| K_k
        effects = np.einsum("kol,koj->olj", rows.conj(), rows).reshape(4, 16)
        effects.setflags(write=False)
        object.__setattr__(self, "effects", effects)

    def success_probability(self, rho: np.ndarray) -> float:
        return float(np.real(sum(np.trace(k @ rho @ k.conj().T) for k in self.kraus)))


@lru_cache(maxsize=None)
def gate_channel(v: float) -> GateChannel:
    """Two-qubit coincidence channel at wavepacket overlap ``v``, in closed form.

    The arm-1 wavepacket part that overlaps (amplitude v) interferes as in the
    ideal gate: v diag(1, 1, 1, -1) / 3. The orthogonal part (w = sqrt(1 - v^2))
    cannot, so its two coincidence routes are separate operators: both photons
    transmitted, w I / 3, and both reflected, which only |VV> survives,
    w diag(0, 0, 0, -2) / 3. Vanishing operators are dropped (one left at v = 1).
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {v}")
    w = math.sqrt(max(0.0, 1.0 - v * v))
    diagonals = ([v, v, v, -v], [w, w, w, w], [0.0, 0.0, 0.0, -2.0 * w])
    kraus = tuple(k for k in (np.diag(d).astype(complex) / 3.0 for d in diagonals)
                  if np.linalg.norm(k) > 1e-14)
    for k in kraus:
        k.setflags(write=False)
    return GateChannel(kraus=kraus)
