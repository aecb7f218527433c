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
four Pauli-frame corrections below; the table is derived by brute force in
:func:`derive_correction_table` and frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .gate import GateChannel, ZeroSuccessError, gate_channel
from .sources import SINGLE_QUBIT_AMPLITUDES, bell_state, make_pair, PairSpec
from .states import (
    DensityMatrix,
    PureState,
    apply_kraus_raw,
    condition_on_outcome,
    kron,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

TILDE_LABELS = ("phi+", "psi+", "phi-", "psi-")

PRODUCT_FOR_BELL = {"phi+": "++", "psi+": "+-", "phi-": "-+", "psi-": "--"}
BELL_FOR_PRODUCT = {v: k for k, v in PRODUCT_FOR_BELL.items()}

# Pauli-frame correction restoring the teleported state for each analyzer
# outcome (derived once via derive_correction_table and frozen).
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
    channel = _as_channel(gate)
    arr = apply_kraus_raw(rho.entries, rho.labels, channel.kraus, (b, c))
    success = float(np.real(np.trace(arr)))
    if success < 1e-15:
        raise ZeroSuccessError(f"total success probability {success} below threshold")
    outcomes = []
    for sb, sc in product("+-", repeat=2):
        vec = np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
        weight, reduced = condition_on_outcome(arr, rho.labels, vec, (b, c))
        state = None
        if reduced is not None and weight > 1e-15:
            mat = reduced / weight
            mat = 0.5 * (mat + mat.conj().T)
            keep = tuple(l for l in rho.labels if l not in (b, c))
            state = DensityMatrix(mat, keep)
        outcomes.append(
            BsaOutcome(
                bell_label=BELL_FOR_PRODUCT[sb + sc],
                product_result=sb + sc,
                probability=max(weight, 0.0),
                state=state,
            )
        )
    return outcomes


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


def derive_correction_table(gate=1.0) -> dict[str, str]:
    """Search {I, X, Z, iY} for the rotation giving unit fidelity per outcome.

    Uses the ideal aligned pair and a generic (non-symmetric) pure input so
    that only the true frame correction survives the search.
    """
    alpha, beta = 0.6, 0.8j
    chi = np.array([alpha, beta])
    inp = PureState(chi, ("c",)).density()
    pair = make_pair(PairSpec(TELEPORT_PAIR_TARGET, 0.0), ("a", "b"))
    result = teleport(inp, pair, gate, correct=False)
    table = {}
    for o in result.outcomes:
        best = None
        for name, u in CORRECTION_MATRICES.items():
            rotated = u @ o.state.entries @ u.conj().T
            fid = float(np.real(chi.conj() @ rotated @ chi))
            if fid > 1.0 - 1e-10:
                best = name
                break
        if best is None:
            raise RuntimeError(f"no Pauli correction found for outcome {o.bell_label}")
        table[o.bell_label] = best
    return table
