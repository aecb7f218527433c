"""Dense complex linear algebra for few-qubit polarization states.

Qubits are polarization modes: H maps to basis index 0 and V to index 1.
Composite systems carry an ordered tuple of mode labels; bit k of a basis
index belongs to the k-th label (first label is the most significant bit).
All dimensions here are at most 16, so plain dense numpy is used throughout.
Values are immutable after construction and every operation is a pure
function, safe for unrestricted parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over 2^n basis states."""

    amplitudes: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = int(np.log2(len(amps)))
        if 2**n != len(amps):
            raise ValueError(f"length {len(amps)} is not a power of two")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
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
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.labels)

    def with_labels(self, labels: Sequence[str]) -> "PureState":
        return PureState(self.amplitudes, tuple(labels))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-one matrix over 2^n basis states.

    Positivity is enforced by default; reconstruction code that legitimately
    produces indefinite intermediates passes ``validate_psd=False``.
    """

    entries: np.ndarray
    labels: tuple[str, ...] = ()
    validate_psd: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got {m.shape}")
        n = int(np.log2(m.shape[0]))
        if 2**n != m.shape[0]:
            raise ValueError(f"dimension {m.shape[0]} is not a power of two")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr}, expected 1")
        if self.validate_psd:
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

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def with_labels(self, labels: Sequence[str]) -> "DensityMatrix":
        return DensityMatrix(self.entries, tuple(labels), validate_psd=False)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with the same label conventions as the states."""

    entries: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("observable is not Hermitian")
        n = int(np.log2(m.shape[0]))
        object.__setattr__(self, "entries", _freeze(m))
        object.__setattr__(self, "labels", _check_labels(self.labels, n))


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
        return DensityMatrix(np.kron(a.entries, b.entries), labels)
    if isinstance(a, Observable) and isinstance(b, Observable):
        return Observable(np.kron(a.entries, b.entries), labels)
    raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")


def _partial_trace_raw(arr: np.ndarray, labels: Sequence[str], keep: Sequence[str]) -> np.ndarray:
    cur = list(labels)
    out = arr.reshape((2,) * (2 * len(cur)))
    for lab in [l for l in labels if l not in keep]:
        k = cur.index(lab)
        m = len(cur)
        out = np.trace(out, axis1=k, axis2=m + k)
        cur.pop(k)
    m = len(cur)
    perm = [cur.index(l) for l in keep]
    out = np.transpose(out, perm + [m + p for p in perm])
    return out.reshape(2**m, 2**m)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every subsystem not named in ``keep``."""
    keep = tuple(keep)
    for lab in keep:
        if lab not in rho.labels:
            raise KeyError(f"unknown label {lab!r}; state has {rho.labels}")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate labels in keep: {keep}")
    return DensityMatrix(_partial_trace_raw(rho.entries, rho.labels, keep), keep)


def analyzer_observable(theta_deg: float, label: str = "q0") -> Observable:
    """+/-1 observable for linear-polarization analysis at ``theta_deg`` degrees.

    Equal to cos(2 theta) sigma_z + sin(2 theta) sigma_x; 0 degrees analyzes
    H against V, -45 degrees the diagonal basis.
    """
    t = 2.0 * np.deg2rad(theta_deg)
    return Observable(np.cos(t) * SIGMA_Z + np.sin(t) * SIGMA_X, (label,))


def analyzer_eigenvectors(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of the analyzer at ``theta_deg`` degrees."""
    t = np.deg2rad(theta_deg)
    plus = np.array([np.cos(t), np.sin(t)], dtype=complex)
    minus = np.array([-np.sin(t), np.cos(t)], dtype=complex)
    return plus, minus


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr[rho obs] as a real number."""
    if rho.dim != obs.entries.shape[0]:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs.entries.shape[0]}")
    val = complex(np.trace(rho.entries @ obs.entries))
    if abs(val.imag) > ATOL:
        raise ValueError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; Hermitian inputs use the eigenvalue route."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if np.allclose(m, m.conj().T, atol=ATOL):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


# -- operator plumbing shared by the protocol and channel code --------------

def permute_operator(mat: np.ndarray, src: Sequence[str], dst: Sequence[str]) -> np.ndarray:
    """Rewrite an operator from the ``src`` label order to the ``dst`` order."""
    n = len(src)
    perm = [list(src).index(l) for l in dst]
    t = mat.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [n + p for p in perm])
    return t.reshape(2**n, 2**n)


def permute_state(vec: np.ndarray, src: Sequence[str], dst: Sequence[str]) -> np.ndarray:
    n = len(src)
    perm = [list(src).index(l) for l in dst]
    return np.transpose(vec.reshape((2,) * n), perm).reshape(-1)


def embed_operator(op: np.ndarray, targets: Sequence[str], labels: Sequence[str]) -> np.ndarray:
    """Extend ``op`` (acting on ``targets`` in order) by identity on the rest."""
    targets = list(targets)
    others = [l for l in labels if l not in targets]
    full = np.kron(op, np.eye(2 ** len(others), dtype=complex))
    return permute_operator(full, targets + others, list(labels))


def apply_kraus_raw(arr: np.ndarray, labels: Sequence[str], kraus: Sequence[np.ndarray],
                    targets: Sequence[str]) -> np.ndarray:
    """Unnormalized sum_k K arr K^dag with each K acting on ``targets``."""
    out = np.zeros_like(arr)
    for k in kraus:
        full = embed_operator(k, targets, labels)
        out += full @ arr @ full.conj().T
    return out


def condition_on_outcome(arr: np.ndarray, labels: Sequence[str], vec: np.ndarray,
                         targets: Sequence[str]):
    """Project ``targets`` onto ``vec``; return (weight, reduced matrix or None).

    The reduced matrix is unnormalized and lives on the remaining labels in
    their original order. ``arr`` must be Hermitian (it is a weighted state).
    """
    proj = embed_operator(np.outer(vec, vec.conj()), targets, labels)
    sub = proj @ arr @ proj
    weight = float(np.real(np.trace(sub)))
    keep = [l for l in labels if l not in targets]
    if not keep:
        return weight, None
    return weight, _partial_trace_raw(sub, labels, keep)
