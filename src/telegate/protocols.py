"""Bell-state analysis, teleportation and entanglement swapping.

The analyzer sends its two qubits through the phase gate and detects both
outputs in the +/-45 degree basis. Each product click identifies the Bell
state (expressed in the H/V x +/- "tilde" basis) the pair was in before
the gate:

    ++ <-> phi+   +- <-> psi+   -+ <-> phi-   -- <-> psi-

Gate failure (no coincidence) is not an outcome; the four joint outcome
probabilities plus the failure mass sum to one, and ideally each outcome
carries 1/4 x 1/9 = 1/36.

Teleportation feeds mode c, and swapping half of a second pair (c, d), with
half of an entangled (a, b) pair into the analyzer on (b, c); both are one
``pair_raw`` call. ``pair_raw`` and ``bsa`` read the analyzer through one
contraction, ``apply_kraus_raw``. With the pair aligned to the analyzer
basis (target "phi+~") the teleported state in mode a equals the input up
to one of the four Pauli-frame corrections below; the tests derive the
table by brute force and check it against the frozen copy here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import GateChannel, ZeroSuccessError, gate_channel
from .sources import SINGLE_QUBIT_AMPLITUDES, bell_state
from .states import DensityMatrix, PureState, _computed, I2, SIGMA_X, SIGMA_Y, SIGMA_Z

TILDE_LABELS = ("phi+", "psi+", "phi-", "psi-")

PRODUCT_FOR_BELL = {"phi+": "++", "psi+": "+-", "phi-": "-+", "psi-": "--"}
BELL_FOR_PRODUCT = {v: k for k, v in PRODUCT_FOR_BELL.items()}

#: Product bra <s_b s_c| of each analyzer outcome, in BELL_FOR_PRODUCT order.
_PRODUCT_BRAS = np.array([np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
                          for sb, sc in BELL_FOR_PRODUCT]).conj()

# Pauli-frame correction restoring the teleported state for each analyzer
# outcome (derived once by brute force and frozen).
CORRECTION_FOR_BELL = {"phi+": "I", "psi+": "Z", "phi-": "X", "psi-": "iY"}
CORRECTION_MATRICES = {
    "I": I2,
    "X": SIGMA_X,
    "Z": SIGMA_Z,
    "iY": 1j * SIGMA_Y,
}

#: The correction unitaries in TILDE_LABELS order, the order bsa reports its
#: outcomes: a conditional state rho becomes U rho U^dag.
CORRECTIONS = np.array([CORRECTION_MATRICES[CORRECTION_FOR_BELL[bell]] for bell in TILDE_LABELS])
_CORRECTIONS_DAG = CORRECTIONS.conj().swapaxes(-1, -2)

#: Pair target whose Pauli-frame corrections are exact: the phi+ pair with
#: the analyzer-side qubit rotated into the diagonal basis.
TELEPORT_PAIR_TARGET = "phi+~"


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

def apply_kraus_raw(joint: np.ndarray, b: int, c: int, kraus) -> np.ndarray:
    """Unnormalized spectator states (..., 4, s, s) of a stack with qubits ``b``, ``c`` analyzed.

    ``joint`` holds n-qubit states (..., 2^n, 2^n), qubit 0 most significant. Entry [..., o, i, j]
    is sum_k <i, o| K_k rho K_k^dag |j, o>, |o> the product vector on (b, c) of outcome o (in
    ``BELL_FOR_PRODUCT`` order), i and j over the other qubits; its trace is the outcome's weight.
    All four are Tr_bc[rho (E_o x 1)], one matmul with the effects E_o = sum_k K_k^dag |o><o| K_k.
    """
    n, m = joint.shape[-1].bit_length() - 1, joint.ndim - 2
    keep = [q for q in range(n) if q not in (b, c)]
    # the analyzer layout [..., (b c) bra, (b c) ket, keep ket, keep bra], keep in qubit order;
    # qubit q's ket axis is m + q and its bra axis m + n + q
    qubit_axes = [n + b, n + c, b, c, *keep, *(n + q for q in keep)]
    arr = joint.reshape(joint.shape[:-2] + (2,) * 2 * n).transpose(
        *range(m), *(m + axis for axis in qubit_axes))
    rows = _PRODUCT_BRAS @ np.array(kraus)  # [k, o, :] is the row <o| K_k
    effects = np.einsum("kol,koj->olj", rows.conj(), rows).reshape(4, 16)
    out = effects @ arr.reshape(joint.shape[:-2] + (16, -1))
    return out.reshape(out.shape[:-1] + (2 ** (n - 2),) * 2)


def condition_on_outcome(raw: np.ndarray, weight: float,
                         keep: tuple[str, ...]) -> DensityMatrix | None:
    """Normalized conditional state of one outcome; None without spectators or weight."""
    if not keep or weight <= 1e-15:
        return None
    return _computed(raw / weight, keep)


def _result(raw: np.ndarray, keep: tuple[str, ...]) -> ProtocolResult:
    """The four outcomes of one analyzer contraction (4, s, s) on the ``keep`` modes."""
    weights = np.real(np.einsum("oaa->o", raw)).tolist()
    success = sum(weights)
    if success < 1e-15:
        raise ZeroSuccessError(f"total success probability {success} below threshold")
    outcomes = tuple(BsaOutcome(bell_label=bell, product_result=result,
                                probability=max(weight, 0.0),
                                state=condition_on_outcome(mat, weight, keep))
                     for (result, bell), weight, mat in zip(BELL_FOR_PRODUCT.items(), weights, raw))
    return ProtocolResult(outcomes, sum(o.probability for o in outcomes))


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
    keep = tuple(l for l in rho.labels if l not in (b, c))
    raw = apply_kraus_raw(rho.entries, *map(rho.labels.index, modes), _as_channel(gate).kraus)
    return list(_result(raw, keep).outcomes)


def pair_raw(pair: np.ndarray, right: np.ndarray, kraus) -> np.ndarray:
    """Spectator states (..., 4, s, s) of pair (a, b) x ``right`` read on (b, c).

    ``pair`` (..., 4, 4) and ``right`` (..., 2^m, 2^m) are stacks that broadcast together.
    """
    joint = pair[..., :, None, :, None] * right[..., None, :, None, :]  # np.kron, over the stacks
    return apply_kraus_raw(joint.reshape(joint.shape[:-4] + (4 * right.shape[-1],) * 2), 1, 2, kraus)


def correct_frames(rho: np.ndarray) -> np.ndarray:
    """U rho U^dag over the outcome axis of ``rho`` (..., 4, 2, 2), U the outcome's correction."""
    return CORRECTIONS @ rho @ _CORRECTIONS_DAG


def teleport(input_state: DensityMatrix, pair: DensityMatrix, gate=1.0,
             correct: bool = True) -> ProtocolResult:
    """Teleport the mode-c state onto mode a through a (b, c) analysis.

    With ``correct`` each unnormalized outcome state is rotated by its entry
    of ``CORRECTIONS``, mirroring corrections applied on the data rather than
    in the optics. A Bell pair leaves no outcome without a state.
    """
    if input_state.n_qubits != 1 or pair.n_qubits != 2:
        raise ValueError("teleport needs a 1-qubit input and a 2-qubit pair")
    raw = pair_raw(pair.entries, input_state.entries, _as_channel(gate).kraus)
    return _result(correct_frames(raw) if correct else raw, ("a",))


def swap(pair_ab: DensityMatrix, pair_cd: DensityMatrix, gate=1.0) -> ProtocolResult:
    """Entangle modes (a, d) by analyzing (b, c) across two pairs.

    For ideal phi+ pairs the conditional (a, d) state equals the analyzer's
    Bell state for every outcome, each with joint probability 1/36.
    """
    if pair_ab.n_qubits != 2 or pair_cd.n_qubits != 2:
        raise ValueError("swap needs two 2-qubit pairs")
    return _result(pair_raw(pair_ab.entries, pair_cd.entries, _as_channel(gate).kraus), ("a", "d"))
