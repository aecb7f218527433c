"""Figures of merit: state fidelity, logarithmic negativity, CHSH values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, analyzer_eigenvectors, trace_norm

TSIRELSON = 2.0 * np.sqrt(2.0)

#: Sign variant under which each analyzer Bell state reaches |S| = 2 sqrt 2
#: at the standard angles, with the sign of the extremal value. Derived from
#: the conditional swap states (see tests); the +/- pattern for the phi
#: states matches the reported signed experimental values.
CHSH_VARIANT_FOR_BELL = {"phi+": "+", "psi+": "-", "phi-": "-", "psi-": "+"}
CHSH_SIGN_FOR_BELL = {"phi+": -1.0, "psi+": +1.0, "phi-": -1.0, "psi-": +1.0}


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """<chi| rho |chi>, the overlap with a pure target state."""
    if rho.dim != target.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {target.dim}")
    val = float(np.real(target.amplitudes.conj() @ rho.entries @ target.amplitudes))
    return min(max(val, 0.0), 1.0)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second qubit of a two-qubit state (entanglement witness)."""
    if rho.dim != 4:
        raise ValueError("partial transpose implemented for two qubits")
    return np.transpose(rho.entries.reshape(2, 2, 2, 2), (0, 3, 2, 1)).reshape(4, 4)


def log_negativity(rho: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose.

    Zero for separable two-qubit states, one for maximally entangled ones.
    """
    value = float(np.log2(trace_norm(partial_transpose(rho))))
    return max(value, 0.0) if value > -1e-10 else value


#: Analyzer angles (degrees) of the CHSH settings, the standard quadruple: the
#: first mode is measured at CHSH_ANGLES[0][i] and the second at CHSH_ANGLES[1][j].
CHSH_ANGLES = ((0.0, -45.0), (-22.5, -67.5))


@dataclass(frozen=True)
class ChshSpec:
    """Sign variant for the CHSH combination at :data:`CHSH_ANGLES`.

    Variant "+" weighs the (secondary, primary) correlator with plus,
    variant "-" flips the two secondary-angle terms.
    """

    variant: str = "+"

    def __post_init__(self):
        if self.variant not in ("+", "-"):
            raise ValueError(f"variant must be '+' or '-', got {self.variant!r}")


#: CHSH setting id -> (i, j): the setting measures the first mode at its
#: angle i and the second at its angle j, i.e. the correlator E[i, j]. A
#: CHSH grid has these settings as rows and CHSH_OUTCOMES as columns.
CHSH_SETTINGS = {"chsh00": (0, 0), "chsh01": (0, 1), "chsh10": (1, 0), "chsh11": (1, 1)}

#: The +/- outcome of each mode's analyzer, first mode first: the CHSH grid's columns.
CHSH_OUTCOMES = ("++", "+-", "-+", "--")

#: The product |v_a v_d> of analyzer eigenvectors detected in every CHSH grid
#: cell, as bras (settings, outcomes, 1, 4) and kets (settings, outcomes, 4, 1).
_CHSH_KETS = np.array([[np.kron(va, vd)[:, None] for va in analyzer_eigenvectors(CHSH_ANGLES[0][i])
                        for vd in analyzer_eigenvectors(CHSH_ANGLES[1][j])]
                       for i, j in CHSH_SETTINGS.values()])
_CHSH_BRAS = _CHSH_KETS.conj().swapaxes(-1, -2)

#: The correlated product of the two +/-1 results, per CHSH outcome.
_CHSH_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


def chsh_distributions(rho: DensityMatrix) -> np.ndarray:
    """Outcome probabilities of a two-qubit state on the CHSH grid (settings x outcomes)."""
    return np.maximum(np.real(_CHSH_BRAS @ rho.entries @ _CHSH_KETS)[..., 0, 0], 0.0)


def chsh_correlators(grid: np.ndarray) -> np.ndarray:
    """E[i, j] from the outcome weights of a CHSH grid.

    The weights may be probabilities or (corrected) counts, finite and
    non-negative; each setting is normalized by its own positive total.
    """
    grid = np.asarray(grid, dtype=float)
    totals = grid.sum(axis=1)
    valid = (grid.min(axis=1) >= 0) & (totals > 0) & (totals < np.inf)  # NaN fails the minimum
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"setting {list(CHSH_SETTINGS)[i]}: weights must be finite and "
                         f"non-negative with a positive total, got {grid[i].tolist()}")
    return (grid @ _CHSH_PARITY / totals).reshape(2, 2)


def chsh_from_correlators(e: np.ndarray, variant: str) -> float:
    sign = 1.0 if variant == "+" else -1.0
    return float(sign * e[1, 0] - sign * e[1, 1] + e[0, 0] + e[0, 1])


def chsh(rho: DensityMatrix, spec: ChshSpec = ChshSpec()) -> float:
    """Signed CHSH value; callers compare |S| against 2 (classical bound)."""
    return chsh_from_correlators(chsh_correlators(chsh_distributions(rho)), spec.variant)


def chsh_best(rho: DensityMatrix) -> tuple[str, float]:
    """(variant, signed S) of the variant with the larger |S|."""
    e = chsh_correlators(chsh_distributions(rho))
    plus = chsh_from_correlators(e, "+")
    minus = chsh_from_correlators(e, "-")
    return ("+", plus) if abs(plus) >= abs(minus) else ("-", minus)
