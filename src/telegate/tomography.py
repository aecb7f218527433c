"""State and process reconstruction from coincidence counts.

State tomography measures every Pauli basis combination (3 settings for one
qubit, 9 for two) with the +/- outcomes of each analyzer resolved, i.e. 2
respectively 4 counts per setting. Two reconstructions are provided:

* :func:`linear_inversion` - direct Stokes-parameter inversion. Exact on
  exact frequencies but not guaranteed positive on noisy counts.
* :func:`mle_fit` - multinomial maximum likelihood over the Cholesky
  parameterization rho = T^dag T / Tr[T^dag T], which is positive by
  construction. Deterministic: optimization always starts from the
  maximally mixed state.

Process tomography expands a single-qubit channel in the Pauli operator
basis, E(rho) = sum_mn M[m, n] sigma_m rho sigma_n, and solves the linear
system fixed by the four probe states H, V, +, R. The fit is deliberately
unconstrained (no CP projection) so that small unphysical entries show up
rather than being hidden; only Hermiticity is enforced by symmetrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.optimize import minimize

from .sources import SINGLE_QUBIT_AMPLITUDES
from .states import ATOL, DensityMatrix, PAULI, PureState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .experiment import CountTable

#: Analyzer eigenvectors per basis, (+1 outcome, -1 outcome).
BASIS_VECTORS = {
    basis: tuple(np.asarray(SINGLE_QUBIT_AMPLITUDES[s], dtype=complex) for s in states)
    for basis, states in (("Z", "HV"), ("X", "+-"), ("Y", "RL"))
}

_TINY = 1e-12


class FitError(RuntimeError):
    """Maximum-likelihood fit did not converge; carries the best iterate."""

    def __init__(self, message: str, best_state: DensityMatrix):
        super().__init__(message)
        self.best_state = best_state


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer basis per qubit, drawn from the Pauli triple Z, X, Y."""

    bases: tuple[str, ...]

    def __post_init__(self):
        for b in self.bases:
            if b not in BASIS_VECTORS:
                raise ValueError(f"unknown basis {b!r}")

    @property
    def id(self) -> str:
        return "".join(self.bases)

    def projectors(self) -> list[tuple[str, np.ndarray]]:
        """(outcome string, projector) for every sign combination."""
        out = []
        for signs in product("+-", repeat=len(self.bases)):
            vec = np.array([1.0], dtype=complex)
            for b, s in zip(self.bases, signs):
                vec = np.kron(vec, BASIS_VECTORS[b][0 if s == "+" else 1])
            out.append(("".join(signs), np.outer(vec, vec.conj())))
        return out

    def probabilities(self, rho) -> dict[str, float]:
        mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
        probs = {}
        for outcome, proj in self.projectors():
            probs[outcome] = max(float(np.real(np.trace(proj @ mat))), 0.0)
        return probs


def settings_1q() -> list[MeasurementSetting]:
    return [MeasurementSetting((b,)) for b in ("Z", "X", "Y")]


def settings_2q() -> list[MeasurementSetting]:
    return [MeasurementSetting((b1, b2)) for b1 in ("Z", "X", "Y") for b2 in ("Z", "X", "Y")]


def _pauli_word(word: tuple[str, ...]) -> np.ndarray:
    m = np.array([1.0], dtype=complex)
    for w in word:
        m = np.kron(m, PAULI[w])
    return m


def linear_inversion(counts: "CountTable") -> DensityMatrix:
    """Stokes reconstruction from relative frequencies.

    Hermitian and trace one by construction; positivity is *not* guaranteed,
    which is exactly why the statistics pipeline feeds :func:`mle_fit`
    instead.
    """
    n = len(counts.modes)
    totals = counts.corrected.sum(axis=1)
    for setting_id, total in zip(counts.settings, totals):
        if total <= 0.0:
            raise ValueError(f"setting {setting_id} has zero total counts")
    required = {s.id for s in (settings_1q() if n == 1 else settings_2q())}
    missing = required - set(counts.settings)
    if missing:
        raise ValueError(f"missing settings: {sorted(missing)}")
    freq = counts.corrected / totals[:, None]

    rho = np.zeros((2**n, 2**n), dtype=complex)
    for word in product("IZXY", repeat=n):
        measured = [i for i, setting_id in enumerate(counts.settings)
                    if all(w in ("I", b) for w, b in zip(word, setting_id))]
        # the Pauli word's eigenvalue on each outcome: -1 per "-" on a non-identity qubit
        signs = np.array([(-1.0) ** sum(w != "I" and s == "-" for w, s in zip(word, outcome))
                          for outcome in counts.outcomes])
        rho += np.mean(freq[measured] @ signs) * _pauli_word(word)
    rho /= 2**n
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho, validate_psd=False)


def _unpack_cholesky(theta: np.ndarray, d: int) -> np.ndarray:
    t = np.zeros((d, d), dtype=complex)
    t[np.diag_indices(d)] = theta[:d]
    k = d
    for i in range(d):
        for j in range(i):
            t[i, j] = theta[k] + 1j * theta[k + 1]
            k += 2
    return t


def _grad_to_real(g: np.ndarray, d: int) -> np.ndarray:
    # Wirtinger derivative dL/dT* -> gradient in the packed real coordinates
    out = np.zeros(d * d)
    out[:d] = 2.0 * np.real(np.diag(g))
    k = d
    for i in range(d):
        for j in range(i):
            out[k] = 2.0 * np.real(g[i, j])
            out[k + 1] = 2.0 * np.imag(g[i, j])
            k += 2
    return out


def mle_fit(counts: "CountTable", dim: int | None = None,
            trace_nll: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate from a count table.

    Maximizes the multinomial log likelihood sum_o c_o log p_o over
    rho = T^dag T / Tr[T^dag T] with T lower triangular. Convergence is
    declared when the last accepted step improves the log likelihood by
    less than 1e-9 or the gradient norm drops below 1e-7, with an iteration
    cap of 10^4; anything else raises :class:`FitError` carrying the best
    iterate. ``trace_nll``, if given, collects the per-count negative log
    likelihood of every accepted iterate.
    """
    n = len(counts.modes)
    d = 2**n
    if dim is not None and dim != d:
        raise ValueError(f"dim {dim} inconsistent with {n} analyzed modes")

    settings = {s.id: s for s in (settings_1q() if n == 1 else settings_2q())}
    projs = []
    for setting_id in counts.settings:
        if setting_id not in settings:
            raise ValueError(f"unknown setting {setting_id!r}")
        lookup = dict(settings[setting_id].projectors())
        projs.extend(lookup[outcome] for outcome in counts.outcomes)
    projs = np.array(projs)
    weights = counts.corrected.ravel()
    if (weights < 0).any():
        raise ValueError("negative corrected count")
    total = weights.sum()
    if total <= 0:
        raise ValueError("count table is empty")
    # Work with the per-count likelihood so the convergence thresholds mean
    # the same thing at any count scale.
    weights = weights / total

    def negloglik(theta):
        t = _unpack_cholesky(theta, d)
        s = t.conj().T @ t
        z = float(np.real(np.trace(s)))
        p = np.real(np.einsum("oij,ji->o", projs, s)) / z
        p = np.clip(p, _TINY, None)
        nll = -float(weights @ np.log(p))
        r = np.einsum("o,oij->ij", weights / p, projs)
        grad_conj = -(t @ r - t) / z
        return nll, _grad_to_real(grad_conj, d)

    theta0 = np.zeros(d * d)
    theta0[:d] = 1.0 / np.sqrt(d)
    history: list[float] = [negloglik(theta0)[0]]

    # scipy passes the iterate's OptimizeResult to a callback whose one
    # parameter has this name, so the accepted value is not recomputed
    def record(intermediate_result):
        history.append(intermediate_result.fun)

    res = minimize(
        negloglik,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": 10_000, "ftol": 1e-14, "gtol": 1e-10},
    )
    t = _unpack_cholesky(res.x, d)
    s = t.conj().T @ t
    rho = s / np.real(np.trace(s))
    rho = 0.5 * (rho + rho.conj().T)
    state = DensityMatrix(rho, counts.modes)

    if trace_nll is not None:
        trace_nll.extend(history)
    grad_norm = float(np.linalg.norm(res.jac))
    last_improvement = abs(history[-2] - history[-1]) if len(history) >= 2 else 0.0
    if grad_norm > 1e-7 and not last_improvement < 1e-9:
        raise FitError(
            f"no convergence after {res.nit} iterations "
            f"(grad {grad_norm:.2e}, last step {last_improvement:.2e})",
            best_state=state,
        )
    return state


def loglikelihood(counts: "CountTable", rho: DensityMatrix) -> float:
    """Multinomial log likelihood of ``rho`` for a count table."""
    n = len(counts.modes)
    settings = {s.id: s for s in (settings_1q() if n == 1 else settings_2q())}
    dists = [settings[setting_id].probabilities(rho) for setting_id in counts.settings]
    probs = np.array([[dist[outcome] for outcome in counts.outcomes]
                      for dist in dists]).reshape(counts.corrected.shape)
    observed = counts.corrected > 0
    return float(counts.corrected[observed] @ np.log(np.maximum(probs[observed], _TINY)))


@dataclass(frozen=True)
class ProcessMatrix:
    """Single-qubit channel coefficients in the {I, X, Y, Z} operator basis."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"process matrix must be 4x4, got {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("process matrix is not Hermitian")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))


_PAULI_ORDER = ("I", "X", "Y", "Z")


def identity_process() -> ProcessMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    return ProcessMatrix(m)


def process_tomo(inputs: Sequence, outputs: Sequence[DensityMatrix]) -> ProcessMatrix:
    """Least-squares process matrix from known inputs and measured outputs."""
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must pair up")
    rows = []
    rhs = []
    for rin, rout in zip(inputs, outputs):
        rho_in = rin.density().entries if isinstance(rin, PureState) else rin.entries
        rho_out = rout.entries if isinstance(rout, DensityMatrix) else np.asarray(rout)
        for i in range(2):
            for j in range(2):
                row = np.empty(16, dtype=complex)
                for m, sm in enumerate(_PAULI_ORDER):
                    for n, sn in enumerate(_PAULI_ORDER):
                        row[4 * m + n] = (PAULI[sm] @ rho_in @ PAULI[sn])[i, j]
                rows.append(row)
                rhs.append(rho_out[i, j])
    a = np.array(rows)
    if np.linalg.matrix_rank(a, tol=1e-9) < 16:
        raise ValueError("input states do not span the qubit operator space")
    coeff, *_ = np.linalg.lstsq(a, np.array(rhs), rcond=None)
    m = coeff.reshape(4, 4)
    return ProcessMatrix(0.5 * (m + m.conj().T))


def process_fidelity(m_exp: ProcessMatrix, m_theo: ProcessMatrix) -> float:
    """Overlap Tr[M_theo M_exp]; equals the (I, I) entry against the identity."""
    val = complex(np.trace(m_theo.entries @ m_exp.entries))
    if abs(val.imag) > ATOL:
        raise ValueError(f"process fidelity has imaginary part {val.imag}")
    return float(val.real)
