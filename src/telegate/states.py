"""Dense complex linear algebra for few-qubit polarization states.

Qubits are polarization modes: H maps to basis index 0 and V to index 1.
Composite systems carry an ordered tuple of mode labels; bit k of a basis
index belongs to the k-th label (first label is the most significant bit).
All dimensions here are at most 16, so plain dense numpy is used throughout.
Values are immutable after construction and every operation is a pure
function, safe for unrestricted parallel use.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Absolute tolerance for exact-arithmetic paths. Statistical estimators
# carry their own tolerances.
ATOL = 1e-10
NORM_ATOL = 1e-12
PSD_FLOOR = -1e-9

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"q{k}" for k in range(n))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def _check_labels(labels: Sequence[str] | None, n: int) -> tuple[str, ...]:
    if labels is None or len(labels) == 0:
        return _default_labels(n)
    labels = tuple(str(l) for l in labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {labels}")
    if len(set(labels)) != n:
        raise ValueError(f"duplicate labels: {labels}")
    return labels


def _number(name: str, value, lo, hi, *, integer: bool = False, open_lo: bool = False):
    """``value`` if it is a number in [lo, hi], or (lo, hi] with ``open_lo``, and an integer
    with ``integer``.

    Python and numpy ints and floats pass, a numpy one coming back as a Python number; bool,
    str, None, NaN and anything else raise a ValueError that names the field ``name``.
    """
    checked = value
    if type(value) is not int and (integer or type(value) is not float):  # exact types skip the ABCs
        checked = None
        if not isinstance(value, bool) and isinstance(value, numbers.Integral if integer else numbers.Real):
            checked = int(value) if isinstance(value, numbers.Integral) else float(value)
    if checked is not None and (lo < checked if open_lo else lo <= checked) and checked <= hi:
        return checked  # NaN fails the comparisons
    must = f"be an integer from {lo} to {hi}" if integer else f"lie in {'(' if open_lo else '['}{lo}, {hi}]"
    raise ValueError(f"{name}: must {must}, got {value!r}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over 2^n basis states."""

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = len(amps).bit_length() - 1
        if 2**n != len(amps):
            raise ValueError(f"length {len(amps)} is not a power of two")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", _freeze(amps))
        object.__setattr__(self, "labels", _check_labels(self.labels, n))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def density(self) -> "DensityMatrix":
        return _computed(np.outer(self.amplitudes, self.amplitudes.conj()), self.labels)

    def with_labels(self, labels: Sequence[str]) -> "PureState":
        return PureState(self.amplitudes, tuple(labels))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one, positive semidefinite matrix over 2^n basis states.

    The constructor checks all three and the labels where a state enters the
    package; states computed from checked ones come from :func:`_computed`.
    """

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got {m.shape}")
        n = m.shape[0].bit_length() - 1
        if 2**n != m.shape[0]:
            raise ValueError(f"dimension {m.shape[0]} is not a power of two")
        if not np.abs(m - m.conj().T).max() <= ATOL:
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr}, expected 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < PSD_FLOOR:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "labels", _check_labels(self.labels, n))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def with_labels(self, labels: Sequence[str]) -> "DensityMatrix":
        return _computed(self.entries, _check_labels(labels, self.n_qubits))


def _computed(m: np.ndarray, labels: tuple[str, ...]) -> DensityMatrix:
    """A state computed from checked ones, with checked labels: made exactly Hermitian, not re-checked."""
    return _hermitian(0.5 * (m + m.conj().T), labels)


def _hermitian(m: np.ndarray, labels: tuple[str, ...]) -> DensityMatrix:
    state = object.__new__(DensityMatrix)
    state.__dict__.update(entries=_freeze(m), labels=labels)
    return state


def kron(a, b):
    """Tensor product of two values of the same kind; labels concatenate.

    If the concatenated labels collide (e.g. both operands carry defaults),
    the result falls back to fresh default labels.
    """
    labels = a.labels + b.labels
    if len(set(labels)) != len(labels):
        labels = _default_labels(len(labels))
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), labels)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return _computed(np.kron(a.entries, b.entries), labels)
    raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")


def analyzer_eigenvectors(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of the linear-polarization analyzer at ``theta_deg`` degrees.

    The analyzer observable is cos(2 theta) sigma_z + sin(2 theta) sigma_x:
    0 degrees analyzes H against V, -45 degrees the diagonal basis.
    """
    t = np.deg2rad(theta_deg)
    plus = np.array([np.cos(t), np.sin(t)], dtype=complex)
    minus = np.array([-np.sin(t), np.cos(t)], dtype=complex)
    return plus, minus


def _born(kets: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<k|rho|k>, clamped at zero, for kets (..., d) and states (..., d, d) that broadcast together."""
    return np.maximum(np.real(kets.conj()[..., None, :] @ states @ kets[..., None])[..., 0, 0], 0.0)


def trace_norm(m: np.ndarray):
    """Sum of singular values, per matrix of a stack; for a Hermitian one, of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms
