import numpy as np
import pytest

from telegate.states import DensityMatrix, PureState, analyzer_eigenvectors


def ginibre_dm(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix (Ginibre ensemble)."""
    d = 2**n_qubits
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def random_pure(n_qubits: int, rng: np.random.Generator) -> PureState:
    d = 2**n_qubits
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def partial_trace_raw(arr: np.ndarray, labels, keep) -> np.ndarray:
    """Trace every label not in ``keep`` out of a square matrix; ``keep`` sets the order."""
    cur = list(labels)
    out = arr.reshape((2,) * (2 * len(cur)))
    for lab in [l for l in labels if l not in keep]:
        k = cur.index(lab)
        out = np.trace(out, axis1=k, axis2=len(cur) + k)
        cur.pop(k)
    m = len(cur)
    perm = [cur.index(l) for l in keep]
    return np.transpose(out, perm + [m + p for p in perm]).reshape(2**m, 2**m)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state of ``rho`` on the labels in ``keep``."""
    keep = tuple(keep)
    for lab in keep:
        if lab not in rho.labels:
            raise KeyError(f"unknown label {lab!r}; state has {rho.labels}")
    return DensityMatrix(partial_trace_raw(rho.entries, rho.labels, keep), keep)


def analyzer_observable(theta_deg: float) -> np.ndarray:
    """+/-1 observable P+ - P- of the linear-polarization analyzer at ``theta_deg``."""
    plus, minus = analyzer_eigenvectors(theta_deg)
    return np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
