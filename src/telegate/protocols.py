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
contraction, ``apply_kraus_raw``, against the effects the channel holds
(``GateChannel.effects``). With the pair aligned to the analyzer
basis (target "phi+~") the teleported state in mode a equals the input up
to one of the four Pauli-frame corrections below; the tests derive the
table by brute force and check it against the frozen copy here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gate import ANALYZER_OUTCOMES, GateChannel, ZeroSuccessError, gate_channel
from .sources import bell_state
from .states import DensityMatrix, PureState, _computed

TILDE_LABELS = ("phi+", "psi+", "phi-", "psi-")

BELL_FOR_PRODUCT = dict(zip(ANALYZER_OUTCOMES, TILDE_LABELS))
PRODUCT_FOR_BELL = {v: k for k, v in BELL_FOR_PRODUCT.items()}

# Pauli-frame correction restoring the teleported state for each analyzer
# outcome (derived once by brute force and frozen).
CORRECTION_FOR_BELL = {"phi+": "I", "psi+": "Z", "phi-": "X", "psi-": "iY"}
# U rho U^dag for each outcome's correction U, a signed permutation: over the flat (outcome,
# 2 x 2) entries in TILDE_LABELS order, entry e is entry _FRAME_ORDER[e] times _FRAME_SIGNS[e].
# X and iY swap 00 <-> 11 and 01 <-> 10; Z and iY negate 01 and 10.
_FRAME_ORDER = np.array([0, 1, 2, 3, 4, 5, 6, 7, 11, 10, 9, 8, 15, 14, 13, 12])
_FRAME_SIGNS = np.array([1, 1, 1, 1, 1, -1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1], dtype=complex)

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
    return gate_channel(gate)


# The analyzer's two stages; the benchmark's per-layer tracer reads both by name.

def apply_kraus_raw(joint: np.ndarray, b: int, c: int, effects: np.ndarray) -> np.ndarray:
    """Unnormalized spectator states (..., 4, s, s) of a stack with qubits ``b``, ``c`` analyzed.

    ``joint`` holds n-qubit states (..., 2^n, 2^n), qubit 0 most significant. Entry [..., o, i, j]
    is sum_k <i, o| K_k rho K_k^dag |j, o>, |o> the product vector on (b, c) of outcome o (in
    ``BELL_FOR_PRODUCT`` order), i and j over the other qubits; its trace is the outcome's weight.
    All four are Tr_bc[rho (E_o x 1)], one matmul with a channel's (4, 16) ``effects``.
    """
    n, m = joint.shape[-1].bit_length() - 1, joint.ndim - 2
    # the analyzer layout [..., (b c) bra, (b c) ket, keep ket, keep bra], keep in qubit order;
    # qubit q's ket axis is m + q and its bra axis m + n + q
    keep = [m + q for q in range(n) if q != b and q != c]
    arr = joint.reshape(joint.shape[:-2] + (2,) * 2 * n).transpose(
        *range(m), m + n + b, m + n + c, m + b, m + c, *keep, *[n + k for k in keep])
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
    raw = apply_kraus_raw(rho.entries, *map(rho.labels.index, modes), _as_channel(gate).effects)
    return list(_result(raw, keep).outcomes)


def pair_raw(pair: np.ndarray, right: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Spectator states (..., 4, s, s) of pair (a, b) x ``right`` read on (b, c) by ``effects``.

    ``pair`` (..., 4, 4) and ``right`` (..., 2^m, 2^m) are stacks that broadcast together.
    """
    joint = pair[..., :, None, :, None] * right[..., None, :, None, :]  # np.kron, over the stacks
    return apply_kraus_raw(joint.reshape(joint.shape[:-4] + (4 * right.shape[-1],) * 2), 1, 2, effects)


def correct_frames(rho: np.ndarray) -> np.ndarray:
    """U rho U^dag over the outcome axis of ``rho`` (..., 4, 2, 2), U the outcome's correction."""
    flat = rho.reshape(rho.shape[:-3] + (16,))
    return (flat[..., _FRAME_ORDER] * _FRAME_SIGNS).reshape(rho.shape)


def teleport(input_state: DensityMatrix, pair: DensityMatrix, gate=1.0,
             correct: bool = True) -> ProtocolResult:
    """Teleport the mode-c state onto mode a through a (b, c) analysis.

    With ``correct`` each unnormalized outcome state is rotated by its
    outcome's correction, mirroring corrections applied on the data rather than
    in the optics. A Bell pair leaves no outcome without a state.
    """
    if input_state.n_qubits != 1 or pair.n_qubits != 2:
        raise ValueError("teleport needs a 1-qubit input and a 2-qubit pair")
    raw = pair_raw(pair.entries, input_state.entries, _as_channel(gate).effects)
    return _result(correct_frames(raw) if correct else raw, ("a",))


def swap(pair_ab: DensityMatrix, pair_cd: DensityMatrix, gate=1.0) -> ProtocolResult:
    """Entangle modes (a, d) by analyzing (b, c) across two pairs.

    For ideal phi+ pairs the conditional (a, d) state equals the analyzer's
    Bell state for every outcome, each with joint probability 1/36.
    """
    if pair_ab.n_qubits != 2 or pair_cd.n_qubits != 2:
        raise ValueError("swap needs two 2-qubit pairs")
    return _result(pair_raw(pair_ab.entries, pair_cd.entries, _as_channel(gate).effects), ("a", "d"))
