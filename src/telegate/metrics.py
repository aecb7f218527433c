"""Figures of merit, of a DensityMatrix (a float) or of a stack of entries (an array)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, _born, analyzer_eigenvectors, trace_norm

TSIRELSON = 2.0 * np.sqrt(2.0)

#: Sign variant under which each analyzer Bell state reaches |S| = 2 sqrt 2
#: at the standard angles, with the sign of the extremal value. Derived from
#: the conditional swap states (see tests); the +/- pattern for the phi
#: states matches the reported signed experimental values.
CHSH_VARIANT_FOR_BELL = {"phi+": "+", "psi+": "-", "phi-": "-", "psi-": "+"}
CHSH_SIGN_FOR_BELL = {"phi+": -1.0, "psi+": +1.0, "phi-": -1.0, "psi-": +1.0}


def _float_or_stack(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def fidelity_pure(rho, target):
    """<chi| rho |chi>, the overlap with a PureState or a stack of amplitudes (..., d)."""
    entries = np.asarray(getattr(rho, "entries", rho))
    amps = np.asarray(getattr(target, "amplitudes", target))
    if entries.shape[-1] != amps.shape[-1]:
        raise ValueError(f"dimension mismatch: {entries.shape[-1]} vs {amps.shape[-1]}")
    return _float_or_stack(np.minimum(_born(amps, entries), 1.0))


def partial_transpose(rho) -> np.ndarray:
    """Transpose the second qubit of a two-qubit state (entanglement witness)."""
    entries = np.asarray(getattr(rho, "entries", rho))
    if entries.shape[-1] != 4:
        raise ValueError("partial transpose implemented for two qubits")
    return np.swapaxes(entries.reshape(entries.shape[:-2] + (2,) * 4), -3, -1).reshape(entries.shape)


def log_negativity(rho):
    """log2 of the trace norm of the partial transpose.

    Zero for separable two-qubit states, one for maximally entangled ones.
    """
    value = np.log2(trace_norm(partial_transpose(rho)))
    return _float_or_stack(np.where(value > -1e-10, np.maximum(value, 0.0), value))


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

#: The product ket |v_a v_d> of analyzer eigenvectors detected in each CHSH grid cell (settings, outcomes, 4).
_CHSH_KETS = np.array([[np.kron(va, vd) for va in analyzer_eigenvectors(CHSH_ANGLES[0][i])
                        for vd in analyzer_eigenvectors(CHSH_ANGLES[1][j])]
                       for i, j in CHSH_SETTINGS.values()])

#: The correlated product of the two +/-1 results, per CHSH outcome.
_CHSH_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


def chsh_distributions(rho) -> np.ndarray:
    """Outcome probabilities of a two-qubit state on the CHSH grid (..., settings, outcomes)."""
    return _born(_CHSH_KETS, np.asarray(getattr(rho, "entries", rho))[..., None, None, :, :])


def chsh_correlators(grid: np.ndarray) -> np.ndarray:
    """E[..., i, j] from the outcome weights of a CHSH grid (..., settings, outcomes).

    The weights may be probabilities or (corrected) counts, finite and
    non-negative; each setting is normalized by its own positive total.
    """
    grid = np.asarray(grid, dtype=float)
    totals = grid.sum(axis=-1)
    valid = (grid.min(axis=-1) >= 0) & (totals > 0) & (totals < np.inf)  # NaN fails the minimum
    if not valid.all():
        i = int(np.argmin(valid.ravel()))
        row = grid.reshape(-1, grid.shape[-1])[i]
        raise ValueError(f"setting {list(CHSH_SETTINGS)[i % len(CHSH_SETTINGS)]}: weights must be "
                         f"finite and non-negative with a positive total, got {row.tolist()}")
    return (grid @ _CHSH_PARITY / totals).reshape(grid.shape[:-2] + (2, 2))


def chsh_from_correlators(e: np.ndarray, variant):
    """S from correlators E (..., 2, 2) under ``variant``, "+" or "-" or a stack of them."""
    sign = np.where(np.asarray(variant) == "+", 1.0, -1.0)
    return _float_or_stack(sign * e[..., 1, 0] - sign * e[..., 1, 1] + e[..., 0, 0] + e[..., 0, 1])


def chsh(rho: DensityMatrix, spec: ChshSpec = ChshSpec()) -> float:
    """Signed CHSH value; callers compare |S| against 2 (classical bound)."""
    return chsh_from_correlators(chsh_correlators(chsh_distributions(rho)), spec.variant)


def chsh_best(rho: DensityMatrix) -> tuple[str, float]:
    """(variant, signed S) of the variant with the larger |S|."""
    e = chsh_correlators(chsh_distributions(rho))
    plus = chsh_from_correlators(e, "+")
    minus = chsh_from_correlators(e, "-")
    return ("+", plus) if abs(plus) >= abs(minus) else ("-", minus)
