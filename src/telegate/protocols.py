"""Bell-state analysis, teleportation and entanglement swapping.

The analyzer sends its two qubits through the phase gate and detects both
outputs in the +/-45 degree basis. Each product click identifies the Bell
state (expressed in the H/V x +/- "tilde" basis) the pair was in before
the gate:

    ++ <-> phi+   +- <-> psi+   -+ <-> phi-   -- <-> psi-

Gate failure (no coincidence) is not an outcome; the four joint outcome
probabilities plus the failure mass sum to one, and ideally each outcome
carries 1/4 x 1/9 = 1/36.

Teleportation feeds mode c and half of an entangled (a, b) pair into the
analyzer on (b, c). With the pair aligned to the analyzer basis (target
"phi+~") the conditional state in mode a equals the input up to one of the
four Pauli-frame corrections below; the tests derive the table by brute
force and check it against the frozen copy here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import GateChannel, ZeroSuccessError, gate_channel
from .sources import SINGLE_QUBIT_AMPLITUDES, bell_state
from .states import DensityMatrix, PureState, kron, I2, SIGMA_X, SIGMA_Y, SIGMA_Z

TILDE_LABELS = ("phi+", "psi+", "phi-", "psi-")

PRODUCT_FOR_BELL = {"phi+": "++", "psi+": "+-", "phi-": "-+", "psi-": "--"}
BELL_FOR_PRODUCT = {v: k for k, v in PRODUCT_FOR_BELL.items()}

#: Product vector |s_b s_c> of each analyzer outcome, in BELL_FOR_PRODUCT order.
_PRODUCT_VECTORS = np.array([np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
                             for sb, sc in BELL_FOR_PRODUCT])

# Pauli-frame correction restoring the teleported state for each analyzer
# outcome (derived once by brute force and frozen).
CORRECTION_FOR_BELL = {"phi+": "I", "psi+": "Z", "phi-": "X", "psi-": "iY"}
CORRECTION_MATRICES = {
    "I": I2,
    "X": SIGMA_X,
    "Z": SIGMA_Z,
    "iY": 1j * SIGMA_Y,
}

#: Pair target whose Pauli-frame corrections are exact: the phi+ pair with
#: the analyzer-side qubit rotated into the diagonal basis.
TELEPORT_PAIR_TARGET = "phi+~"


def pauli_correct(bell_label: str, matrix: np.ndarray) -> np.ndarray:
    """Apply the Pauli-frame correction of an analyzer outcome to a qubit matrix."""
    u = CORRECTION_MATRICES[CORRECTION_FOR_BELL[bell_label]]
    return u @ matrix @ u.conj().T


def tilde_bell(label: str, labels=("q0", "q1")) -> PureState:
    """Bell state in the H/V x +/- basis, e.g. phi+ = (|H+> + |V->)/sqrt(2)."""
    if label not in TILDE_LABELS:
        raise ValueError(f"unknown Bell label {label!r}; options: {TILDE_LABELS}")
    return bell_state(label + "~", labels)


@dataclass(frozen=True)
class BsaOutcome:
    """One analyzer result with its conditional state on the spectators."""

    bell_label: str
    product_result: str
    probability: float
    state: DensityMatrix | None
    correction: str | None = None


@dataclass(frozen=True)
class ProtocolResult:
    outcomes: tuple[BsaOutcome, ...]
    success_probability: float

    def outcome(self, bell_label: str) -> BsaOutcome:
        for o in self.outcomes:
            if o.bell_label == bell_label:
                return o
        raise KeyError(bell_label)


def _as_channel(gate) -> GateChannel:
    if isinstance(gate, GateChannel):
        return gate
    return gate_channel(float(gate))


# The analyzer's two stages; the benchmark's per-layer tracer reads both by name.

def apply_kraus_raw(rho: DensityMatrix, keep: tuple[str, ...], modes: tuple[str, str],
                    kraus) -> np.ndarray:
    """Unnormalized state of the ``keep`` modes for every analyzer outcome, in one contraction.

    Entry [o, a, b] is sum_k <a, o| K_k rho K_k^dag |b, o>, where each K_k acts
    on ``modes`` and |o> is the product vector of outcome o (outcomes in
    ``BELL_FOR_PRODUCT`` order). Its trace over (a, b) is the outcome's weight.
    """
    # rho as [keep, modes, keep, modes], each part in the given label order
    n, s = rho.n_qubits, 2 ** len(keep)
    order = [rho.labels.index(l) for l in keep + modes]
    arr = rho.entries.reshape((2,) * 2 * n).transpose(order + [n + k for k in order])
    # row <o| K_k for every outcome o and Kraus operator K_k
    rows = np.einsum("oi,kij->okj", _PRODUCT_VECTORS.conj(), np.array(kraus))
    return np.einsum("okj,ajbl,okl->oab", rows, arr.reshape(s, 4, s, 4), rows.conj())


def condition_on_outcome(raw: np.ndarray, weight: float,
                         keep: tuple[str, ...]) -> DensityMatrix | None:
    """Normalized conditional state of one outcome; None without spectators or weight."""
    if not keep or weight <= 1e-15:
        return None
    mat = raw / weight
    return DensityMatrix(0.5 * (mat + mat.conj().T), keep)


def bsa(rho: DensityMatrix, modes: tuple[str, str], gate=1.0) -> list[BsaOutcome]:
    """Analyze modes ``(b, c)`` of ``rho``; b enters gate arm 0.

    Returns the four outcomes with joint probabilities (relative to the
    pre-gate state) and normalized conditional states of the remaining
    modes, or ``state=None`` where there are no spectator modes or the
    outcome has zero probability.
    """
    b, c = modes
    for m in (b, c):
        if m not in rho.labels:
            raise KeyError(f"mode {m!r} not present in state labels {rho.labels}")
    if b == c:
        raise ValueError(f"analyzer modes must differ, got {modes}")
    channel = _as_channel(gate)
    keep = tuple(l for l in rho.labels if l not in (b, c))
    raw = apply_kraus_raw(rho, keep, (b, c), channel.kraus)
    weights = np.real(np.einsum("oaa->o", raw)).tolist()
    success = sum(weights)
    if success < 1e-15:
        raise ZeroSuccessError(f"total success probability {success} below threshold")
    return [BsaOutcome(bell_label=bell, product_result=result, probability=max(weight, 0.0),
                       state=condition_on_outcome(mat, weight, keep))
            for (result, bell), weight, mat in zip(BELL_FOR_PRODUCT.items(), weights, raw)]


def teleport(input_state: DensityMatrix, pair: DensityMatrix, gate=1.0,
             correct: bool = True) -> ProtocolResult:
    """Teleport the mode-c state onto mode a through a (b, c) analysis.

    With ``correct`` the outcome-specific Pauli-frame rotation is applied to
    each conditional, mirroring corrections applied on the data rather than
    in the optics.
    """
    if input_state.n_qubits != 1 or pair.n_qubits != 2:
        raise ValueError("teleport needs a 1-qubit input and a 2-qubit pair")
    joint = kron(pair.with_labels(("a", "b")), input_state.with_labels(("c",)))
    raw = bsa(joint, ("b", "c"), gate)
    outcomes = []
    for o in raw:
        state = o.state
        name = None
        if correct and state is not None:
            name = CORRECTION_FOR_BELL[o.bell_label]
            state = DensityMatrix(pauli_correct(o.bell_label, state.entries), state.labels,
                                  validate_psd=False)
        outcomes.append(
            BsaOutcome(o.bell_label, o.product_result, o.probability, state, name)
        )
    return ProtocolResult(tuple(outcomes), sum(o.probability for o in outcomes))


def swap(pair_ab: DensityMatrix, pair_cd: DensityMatrix, gate=1.0) -> ProtocolResult:
    """Entangle modes (a, d) by analyzing (b, c) across two pairs.

    For ideal phi+ pairs the conditional (a, d) state equals the analyzer's
    Bell state for every outcome, each with joint probability 1/36.
    """
    if pair_ab.n_qubits != 2 or pair_cd.n_qubits != 2:
        raise ValueError("swap needs two 2-qubit pairs")
    joint = kron(pair_ab.with_labels(("a", "b")), pair_cd.with_labels(("c", "d")))
    raw = bsa(joint, ("b", "c"), gate)
    return ProtocolResult(tuple(raw), sum(o.probability for o in raw))
