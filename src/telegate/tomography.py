"""State and process reconstruction from coincidence counts.

State tomography measures every Pauli basis combination (3 settings for one
qubit, 9 for two) with the +/- outcomes of each analyzer resolved, i.e. 2
respectively 4 counts per setting. Two reconstructions are provided:

* :func:`linear_inversion` - the Born rule solved in least squares on the
  per-setting frequencies, i.e. the Stokes-parameter estimate. Exact on
  exact frequencies but not guaranteed positive on noisy counts.
* :func:`mle_fit` - multinomial maximum likelihood, always a valid state.
  One qubit is fitted exactly: the likelihood splits by Pauli basis, so the
  maximum is the linearly inverted Bloch vector when that lies in the Bloch
  ball, and otherwise the point on the sphere fixed by one Lagrange
  multiplier, a scalar root. Two qubits are fitted by L-BFGS over a complex
  factor, rho = A A^dag / Tr[A A^dag], which reaches every state and starts
  from the maximally mixed one; the likelihood is concave in rho, so every
  local maximum of the factored problem is global (Journee, Bach, Absil &
  Sepulchre, SIAM J. Optim. 20, 2327, 2010). Only this fit imports scipy.

Process tomography expands a single-qubit channel in the Pauli operator
basis, E(rho) = sum_mn M[m, n] sigma_m rho sigma_n, and solves the linear
system fixed by its outputs on the four probe states H, V, +, R. The
setting projectors and the system's design matrix are built once, at
import. The fit is deliberately unconstrained (no CP projection) so that
small unphysical entries show up rather than being hidden; only
Hermiticity is enforced by symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .sources import SINGLE_QUBIT_AMPLITUDES, TOMOGRAPHIC_PROBES, single_qubit_state
from .states import ATOL, I2, DensityMatrix, PAULI, _check_labels, _computed, _freeze

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .experiment import CountTable

#: Analyzer eigenvectors per basis, (+1 outcome, -1 outcome).
BASIS_VECTORS = {
    basis: tuple(np.asarray(SINGLE_QUBIT_AMPLITUDES[s], dtype=complex) for s in states)
    for basis, states in (("Z", "HV"), ("X", "+-"), ("Y", "RL"))
}

#: Per qubit count, the Pauli setting ids and their outcomes ('+' before '-' per qubit).
_SETTING_IDS = {n: tuple(map("".join, product("ZXY", repeat=n))) for n in (1, 2)}
_OUTCOMES = {n: tuple(map("".join, product("+-", repeat=n))) for n in (1, 2)}

#: Per qubit count, the analyzer ket and projector of every (setting, outcome)
#: cell, indexed [setting, outcome] in _SETTING_IDS and _OUTCOMES order.
_KETS = {1: np.array([BASIS_VECTORS[b] for b in _SETTING_IDS[1]])}
_KETS[2] = np.einsum("sai,tbj->stabij", _KETS[1], _KETS[1]).reshape(9, 4, 4)
_PROJECTORS = {n: _freeze(k[..., :, None] * k[..., None, :].conj()) for n, k in _KETS.items()}

#: Each basis's Pauli observable P+ - P-, in Z, X, Y order as in BASIS_VECTORS.
_BLOCH_AXES = _PROJECTORS[1][:, 0] - _PROJECTORS[1][:, 1]

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
        if tuple(self.bases) not in map(tuple, _SETTING_IDS.get(len(self.bases), ())):
            raise ValueError(f"unknown setting {self.bases!r}: one or two of the bases Z, X, Y")

    @property
    def id(self) -> str:
        return "".join(self.bases)

    def projectors(self) -> list[tuple[str, np.ndarray]]:
        """(outcome string, projector) for every sign combination."""
        n = len(self.bases)
        return list(zip(_OUTCOMES[n], _PROJECTORS[n][_SETTING_IDS[n].index(self.id)]))

    def probabilities(self, rho) -> dict[str, float]:
        mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
        return {o: max(float(np.real(np.trace(p @ mat))), 0.0) for o, p in self.projectors()}


def settings_1q() -> list[MeasurementSetting]:
    return [MeasurementSetting(tuple(s)) for s in _SETTING_IDS[1]]


def settings_2q() -> list[MeasurementSetting]:
    return [MeasurementSetting(tuple(s)) for s in _SETTING_IDS[2]]


@lru_cache(maxsize=32)
def _projector_stack(n: int, settings: tuple[str, ...], outcomes: tuple[str, ...]) -> np.ndarray:
    """Read-only projectors of every (setting, outcome) cell, in row-major order."""
    if n not in _SETTING_IDS:
        raise ValueError(f"tomography analyzes 1 or 2 modes, got {n}")
    for setting_id in settings:
        if setting_id not in _SETTING_IDS[n]:
            raise ValueError(f"unknown setting {setting_id!r}")
    rows = [_SETTING_IDS[n].index(setting_id) for setting_id in settings]
    cols = [_OUTCOMES[n].index(outcome) for outcome in outcomes]
    projs = _PROJECTORS[n][np.ix_(rows, cols)].reshape(-1, 2**n, 2**n)
    projs.setflags(write=False)
    return projs


def _table_projectors(counts: "CountTable") -> np.ndarray:
    """The projectors of a table's cells, once its outcomes and corrected counts are valid."""
    n = len(counts.modes)
    for outcome in counts.outcomes:
        if not (isinstance(outcome, str) and len(outcome) == n and set(outcome) <= {"+", "-"}):
            raise ValueError(f"outcome {outcome!r} is not a string of {n} '+'/'-' signs")
    c = counts.corrected
    # two reductions, as every fit pays them; NaN fails the first
    if not (c.min(initial=0.0) >= 0.0 and c.max(initial=0.0) < np.inf):
        i = int(np.argmin((np.isfinite(c) & (c >= 0.0)).all(axis=1)))
        raise ValueError(f"setting {counts.settings[i]}: corrected counts {c[i].tolist()} "
                         "are not all finite and non-negative")
    return _projector_stack(n, tuple(counts.settings), tuple(counts.outcomes))


def linear_inversion(counts: "CountTable") -> DensityMatrix:
    """Least-squares solution of the Born rule f = Tr[P rho] on per-setting frequencies.

    The normal equations decouple by Pauli word, so this is the Stokes
    estimate: each word's mean over the settings that measure it, repeated
    settings included. Hermitian and trace one by construction; positivity
    is *not* guaranteed, which is exactly why the statistics pipeline feeds
    :func:`mle_fit` instead.
    """
    projs = _table_projectors(counts)
    n = len(counts.modes)
    totals = counts.corrected.sum(axis=1)
    for setting_id, total in zip(counts.settings, totals):
        if total <= 0.0:
            raise ValueError(f"setting {setting_id} has zero total counts")
    missing = set(_SETTING_IDS[n]) - set(counts.settings)
    if missing:
        raise ValueError(f"missing settings: {sorted(missing)}")
    freq = (counts.corrected / totals[:, None]).ravel()
    # Tr[P rho] = sum_ij P*_ij rho_ij for Hermitian P
    rho, *_ = np.linalg.lstsq(projs.conj().reshape(len(freq), -1), freq, rcond=None)
    return _computed(rho.reshape(2**n, 2**n), _check_labels(counts.modes, n))


def _fit_inputs(counts: "CountTable", dim: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The table's projector stack, and its corrected counts as weights summing to one.

    Per-count weights make the likelihood, and the convergence thresholds
    on it, mean the same thing at any count scale.
    """
    n = len(counts.modes)
    if dim is not None and dim != 2**n:
        raise ValueError(f"dim {dim} inconsistent with {n} analyzed modes")
    projs = _table_projectors(counts)
    weights = counts.corrected.ravel()
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
    table is fitted by L-BFGS over a complex factor (:func:`_factor_fit`),
    which raises it, carrying the best iterate, when it does not converge.
    ``trace_nll``, if given, collects the per-count negative log likelihood
    at the maximally mixed state and then at every accepted iterate; the
    exact fit has one iterate, its solution.
    """
    projs, weights = _fit_inputs(counts, dim)
    if len(counts.modes) == 1:
        return _exact_fit_1q(counts, projs, weights, trace_nll)
    return _factor_fit(counts.modes, projs, weights, trace_nll)


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
        # unit length to rounding, so the state is positive to rounding
        norm = math.sqrt(math.fsum(x * x for x in r))
        r = [x / norm for x in r]
    rho = 0.5 * (I2 + sum(x * axis for x, axis in zip(r, _BLOCH_AXES)))
    state = _computed(rho, _check_labels(counts.modes, 1))
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


def _factor_nll(x: np.ndarray, projs: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-count negative log likelihood of rho = A A^dag / Tr[A A^dag], and its gradient.

    A = (x[:d^2] + i x[d^2:]).reshape(d, d). With p_o = Tr[P_o rho] and
    R = sum_o (w_o / p_o) P_o, the derivative in A* is (A - R A)/Tr[A A^dag]
    (the weights sum to one), and the gradient in x is twice its real and
    imaginary parts.
    """
    d = projs.shape[-1]
    a = (x[:d * d] + 1j * x[d * d:]).reshape(d, d)
    s = a @ a.conj().T
    z = float(np.real(np.trace(s)))
    p = np.clip(np.real(np.einsum("oij,ji->o", projs, s)) / z, _TINY, None)
    g = 2.0 * (a - np.einsum("o,oij->ij", weights / p, projs) @ a) / z
    return -float(weights @ np.log(p)), np.concatenate([g.real.ravel(), g.imag.ravel()])


def _factor_fit(modes: tuple[str, ...], projs: np.ndarray, weights: np.ndarray,
                trace_nll: list | None) -> DensityMatrix:
    """L-BFGS maximum likelihood over rho = A A^dag / Tr[A A^dag], from A = I / sqrt(d).

    Convergence is declared when the last accepted step improves the log
    likelihood by less than 1e-9 or the gradient norm drops below 1e-7,
    with an iteration cap of 10^4; anything else raises :class:`FitError`
    carrying the best iterate.
    """
    from scipy.optimize import minimize

    d = projs.shape[-1]
    x0 = np.concatenate([np.eye(d).ravel() / np.sqrt(d), np.zeros(d * d)])
    history: list[float] = [_factor_nll(x0, projs, weights)[0]]

    # scipy passes the iterate's OptimizeResult to a callback whose one
    # parameter has this name, so the accepted value is not recomputed
    def record(intermediate_result):
        history.append(intermediate_result.fun)

    res = minimize(
        _factor_nll,
        x0,
        args=(projs, weights),
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": 10_000, "ftol": 1e-14, "gtol": 1e-10},
    )
    a = (res.x[:d * d] + 1j * res.x[d * d:]).reshape(d, d)
    s = a @ a.conj().T
    state = _computed(s / np.real(np.trace(s)), _check_labels(modes, len(modes)))

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


_PAULI_STACK = np.array([PAULI[s] for s in "IXYZ"])
_PROBE_STATES = np.array([single_qubit_state(p).density().entries for p in TOMOGRAPHIC_PROBES])

#: The process-tomography design matrix, of rank 16: row (probe k, i, j),
#: column (m, n) holds (sigma_m rho_k sigma_n)[i, j].
_DESIGN = _freeze(np.einsum("mip,kpq,nqj->kijmn", _PAULI_STACK, _PROBE_STATES,
                            _PAULI_STACK).reshape(-1, 16))


def identity_process() -> ProcessMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    return ProcessMatrix(m)


def process_tomo(outputs) -> ProcessMatrix:
    """Least-squares process matrix from the channel's 2 x 2 outputs for H, V, +, R, in order."""
    rho_out = np.asarray(outputs, dtype=complex)
    if rho_out.shape != (4, 2, 2):
        raise ValueError(f"need the 2 x 2 outputs of the 4 probes, got shape {rho_out.shape}")
    coeff, *_ = np.linalg.lstsq(_DESIGN, rho_out.reshape(-1), rcond=None)
    m = coeff.reshape(4, 4)
    return ProcessMatrix(0.5 * (m + m.conj().T))


def process_fidelity(m_exp: ProcessMatrix, m_theo: ProcessMatrix) -> float:
    """Overlap Tr[M_theo M_exp]; equals the (I, I) entry against the identity."""
    val = complex(np.trace(m_theo.entries @ m_exp.entries))
    if abs(val.imag) > ATOL:
        raise ValueError(f"process fidelity has imaginary part {val.imag}")
    return float(val.real)
