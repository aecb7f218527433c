"""State and process reconstruction from coincidence counts.

State tomography measures every Pauli basis combination (3 settings for one
qubit, 9 for two) with the +/- outcomes of each analyzer resolved, i.e. 2
respectively 4 counts per setting. Two reconstructions are provided:

* :func:`linear_inversion` - direct Stokes-parameter inversion. Exact on
  exact frequencies but not guaranteed positive on noisy counts.
* :func:`mle_fit` - multinomial maximum likelihood, always a valid state.
  One qubit is fitted exactly: the likelihood splits by Pauli basis, so the
  maximum is the linearly inverted Bloch vector when that lies in the Bloch
  ball, and otherwise the point on the sphere fixed by one Lagrange
  multiplier, a scalar root. Two qubits are fitted by L-BFGS over the
  Cholesky parameterization rho = T^dag T / Tr[T^dag T], which is positive
  by construction, always starting from the maximally mixed state.

Process tomography expands a single-qubit channel in the Pauli operator
basis, E(rho) = sum_mn M[m, n] sigma_m rho sigma_n, and solves the linear
system fixed by the four probe states H, V, +, R. The fit is deliberately
unconstrained (no CP projection) so that small unphysical entries show up
rather than being hidden; only Hermiticity is enforced by symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.optimize import minimize

from .sources import SINGLE_QUBIT_AMPLITUDES
from .states import ATOL, I2, DensityMatrix, PAULI, PureState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .experiment import CountTable

#: Analyzer eigenvectors per basis, (+1 outcome, -1 outcome).
BASIS_VECTORS = {
    basis: tuple(np.asarray(SINGLE_QUBIT_AMPLITUDES[s], dtype=complex) for s in states)
    for basis, states in (("Z", "HV"), ("X", "+-"), ("Y", "RL"))
}

#: Each basis's Bloch axis as an observable, P+ - P- (the Pauli matrix of its name).
_BLOCH_AXES = {basis: np.outer(up, up.conj()) - np.outer(down, down.conj())
               for basis, (up, down) in BASIS_VECTORS.items()}

_TINY = 1e-12

#: Iteration cap of the scalar root search; bisection alone needs about 60.
_ROOT_STEPS = 200


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


def _check_outcomes(counts: "CountTable") -> None:
    n = len(counts.modes)
    for outcome in counts.outcomes:
        if not (isinstance(outcome, str) and len(outcome) == n and set(outcome) <= {"+", "-"}):
            raise ValueError(f"outcome {outcome!r} is not a string of {n} '+'/'-' signs")


@lru_cache(maxsize=32)
def _projector_stack(n: int, settings: tuple[str, ...], outcomes: tuple[str, ...]) -> np.ndarray:
    """Read-only projectors of every (setting, outcome) cell, in row-major order."""
    known = {s.id: s for s in (settings_1q() if n == 1 else settings_2q())}
    projs = []
    for setting_id in settings:
        if setting_id not in known:
            raise ValueError(f"unknown setting {setting_id!r}")
        lookup = dict(known[setting_id].projectors())
        projs.extend(lookup[outcome] for outcome in outcomes)
    projs = np.array(projs)
    projs.setflags(write=False)
    return projs


def linear_inversion(counts: "CountTable") -> DensityMatrix:
    """Stokes reconstruction from relative frequencies.

    Hermitian and trace one by construction; positivity is *not* guaranteed,
    which is exactly why the statistics pipeline feeds :func:`mle_fit`
    instead.
    """
    _check_outcomes(counts)
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


def _fit_inputs(counts: "CountTable", dim: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The table's projector stack, and its corrected counts as weights summing to one.

    Per-count weights make the likelihood, and the convergence thresholds
    on it, mean the same thing at any count scale.
    """
    n = len(counts.modes)
    if dim is not None and dim != 2**n:
        raise ValueError(f"dim {dim} inconsistent with {n} analyzed modes")
    _check_outcomes(counts)
    projs = _projector_stack(n, tuple(counts.settings), tuple(counts.outcomes))
    weights = counts.corrected.ravel()
    if (weights < 0).any():
        raise ValueError("negative corrected count")
    total = weights.sum()
    if total <= 0:
        raise ValueError("count table is empty")
    return projs, weights / total


def mle_fit(counts: "CountTable", dim: int | None = None,
            trace_nll: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate from a count table.

    Maximizes the multinomial log likelihood sum_o c_o log p_o of the
    corrected counts. A one-qubit table is fitted exactly
    (:func:`_exact_fit_1q`) and never raises :class:`FitError`; a two-qubit
    table is fitted by L-BFGS (:func:`_cholesky_fit`), which raises it,
    carrying the best iterate, when it does not converge. ``trace_nll``, if
    given, collects the per-count negative log likelihood at the maximally
    mixed state and then at every accepted iterate; the exact fit has one
    iterate, its solution.
    """
    projs, weights = _fit_inputs(counts, dim)
    if len(counts.modes) == 1:
        return _exact_fit_1q(counts, projs, weights, trace_nll)
    return _cholesky_fit(counts.modes, projs, weights, trace_nll)


def _exact_fit_1q(counts: "CountTable", projs: np.ndarray, weights: np.ndarray,
                  trace_nll: list | None) -> DensityMatrix:
    """Exact one-qubit maximum likelihood.

    With Pauli settings p(+-|b) = (1 +- r_b)/2 for the Bloch component r_b
    along basis b, so the log likelihood splits into
    sum_b a_b log(1 + r_b) + c_b log(1 - r_b), with a_b and c_b the '+' and
    '-' weights of basis b (repeated settings summed). Each term peaks at
    r_b = (a_b - c_b)/(a_b + c_b), or 0 for a basis without counts: the
    linear-inversion vector, and the maximum when it lies in the Bloch
    ball. Otherwise the maximum lies on the sphere, where each r_b maximizes
    a_b log(1 + r) + c_b log(1 - r) - lam r^2 for the multiplier lam > 0
    that makes sum_b r_b^2 = 1.
    """
    plus = dict.fromkeys(BASIS_VECTORS, 0.0)
    minus = dict.fromkeys(BASIS_VECTORS, 0.0)
    cells = weights.reshape(len(counts.settings), len(counts.outcomes)).tolist()
    for basis, row in zip(counts.settings, cells):
        for outcome, w in zip(counts.outcomes, row):
            (plus if outcome == "+" else minus)[basis] += w
    pairs = [(plus[b], minus[b]) for b in BASIS_VECTORS]
    r = [(a - c) / (a + c) if a + c > 0.0 else 0.0 for a, c in pairs]
    if math.fsum(x * x for x in r) > 1.0:
        lam = _sphere_multiplier(pairs)
        r = [_axis_root(a, c, lam)[0] for a, c in pairs]
        # unit length to rounding, so the state passes the PSD check
        norm = math.sqrt(math.fsum(x * x for x in r))
        r = [x / norm for x in r]
    rho = 0.5 * (I2 + sum(x * _BLOCH_AXES[b] for b, x in zip(BASIS_VECTORS, r)))
    state = DensityMatrix(rho, counts.modes)
    if trace_nll is not None:
        for m in (0.5 * I2, state.entries):
            p = np.clip(np.real(np.einsum("oij,ji->o", projs, m)), _TINY, None)
            trace_nll.append(-float(weights @ np.log(p)))
    return state


def _axis_root(a: float, c: float, lam: float) -> tuple[float, float]:
    """The r maximizing a log(1 + r) + c log(1 - r) - lam r^2, and dr/dlam.

    r solves a/(1 + r) - c/(1 - r) = 2 lam r and lies between 0 and
    (a - c)/(a + c). With c = 0 it is (sqrt(1 + 2a/lam) - 1)/2, which is 1
    at lam = a/4 and exceeds 1 below it.
    """
    if a < c:
        r, slope = _axis_root(c, a, lam)
        return -r, -slope
    if a == c:
        return 0.0, 0.0

    def stationarity(r):
        curvature = a / (1.0 + r) ** 2 + (c / (1.0 - r) ** 2 if c else 0.0) + 2.0 * lam
        return a / (1.0 + r) - (c / (1.0 - r) if c else 0.0) - 2.0 * lam * r, -curvature

    if c == 0.0:
        r = (a / lam) / (math.sqrt(1.0 + 2.0 * a / lam) + 1.0)
    else:
        r = _decreasing_root(stationarity, 0.0, (a - c) / (a + c), 0.0, 1e-14 * (a + c))
    return r, 2.0 * r / stationarity(r)[1]


def _sphere_multiplier(pairs: list[tuple[float, float]]) -> float:
    """The lam > 0 at which sum_b r_b(lam)^2 = 1, for weights summing to one.

    The sum decreases in lam. Below max(a_b, c_b)/4 of a basis counted on
    one side only, that basis alone has |r_b| > 1, which bounds lam from
    below. Since r_b^2 < max(a_b, c_b)/(2 lam), the sum is below one at
    lam = 1/2.
    """
    def excess(lam):
        roots = [_axis_root(a, c, lam) for a, c in pairs]
        return (math.fsum(r * r for r, _ in roots) - 1.0,
                math.fsum(2.0 * r * slope for r, slope in roots))

    lo = max((a + c for a, c in pairs if a == 0.0 or c == 0.0), default=0.0) / 4.0
    return _decreasing_root(excess, lo, 0.5, lo, 1e-14)


def _decreasing_root(f, lo: float, hi: float, x: float, ftol: float) -> float:
    """Root of a decreasing ``f`` in [lo, hi], from ``x``, to |f| <= ftol.

    ``f`` returns its value and slope. A Newton step that would leave the
    shrinking bracket is replaced by bisection, so the search converges
    whenever f(lo) >= 0 >= f(hi). The tolerance is on the value, whose
    rounding noise, not the size of the root, limits the root's precision.
    """
    for _ in range(_ROOT_STEPS):
        value, slope = f(x)
        if value >= 0.0:
            lo = x
        if value <= 0.0:
            hi = x
        nxt = x - value / slope if slope < 0.0 else 0.5 * (lo + hi)
        if abs(value) <= ftol:
            return nxt if lo <= nxt <= hi else x
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if nxt == x:
            return x
        x = nxt
    return x


def _cholesky_fit(modes: tuple[str, ...], projs: np.ndarray, weights: np.ndarray,
                  trace_nll: list | None) -> DensityMatrix:
    """L-BFGS maximum likelihood over rho = T^dag T / Tr[T^dag T], T lower triangular.

    The only fit for two qubits, and the one-qubit reference in tests.
    Convergence is declared when the last accepted step improves the log
    likelihood by less than 1e-9 or the gradient norm drops below 1e-7,
    with an iteration cap of 10^4; anything else raises :class:`FitError`
    carrying the best iterate.
    """
    d = projs.shape[-1]

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
    state = DensityMatrix(rho, modes)

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
_PAULI_STACK = np.array([PAULI[s] for s in _PAULI_ORDER])


def identity_process() -> ProcessMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    return ProcessMatrix(m)


def process_tomo(inputs: Sequence, outputs: Sequence[DensityMatrix]) -> ProcessMatrix:
    """Least-squares process matrix from known inputs and measured outputs."""
    if len(inputs) != len(outputs):
        raise ValueError("inputs and outputs must pair up")
    rho_in = np.array([rin.density().entries if isinstance(rin, PureState) else rin.entries
                       for rin in inputs], dtype=complex).reshape(-1, 2, 2)
    rho_out = np.array([rout.entries if isinstance(rout, DensityMatrix) else np.asarray(rout)
                        for rout in outputs], dtype=complex).reshape(-1)
    # row (input k, i, j), column (m, n): (sigma_m rho_in[k] sigma_n)[i, j]
    a = np.einsum("mip,kpq,nqj->kijmn", _PAULI_STACK, rho_in, _PAULI_STACK).reshape(-1, 16)
    if np.linalg.matrix_rank(a, tol=1e-9) < 16:
        raise ValueError("input states do not span the qubit operator space")
    coeff, *_ = np.linalg.lstsq(a, rho_out, rcond=None)
    m = coeff.reshape(4, 4)
    return ProcessMatrix(0.5 * (m + m.conj().T))


def process_fidelity(m_exp: ProcessMatrix, m_theo: ProcessMatrix) -> float:
    """Overlap Tr[M_theo M_exp]; equals the (I, I) entry against the identity."""
    val = complex(np.trace(m_theo.entries @ m_exp.entries))
    if abs(val.imag) > ATOL:
        raise ValueError(f"process fidelity has imaginary part {val.imag}")
    return float(val.real)
