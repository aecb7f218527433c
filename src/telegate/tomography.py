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
  multiplier, a scalar root. Two qubits are fitted by a dense BFGS over a
  complex factor, rho = A A^dag / Tr[A A^dag], which reaches every state and
  starts from the maximally mixed one; the likelihood is concave in rho, so
  every local maximum of the factored problem is global (Journee, Bach,
  Absil & Sepulchre, SIAM J. Optim. 20, 2327, 2010). With 2 d^2 = 32 real
  parameters the 32 x 32 inverse-Hessian update is a few array products.

Process tomography expands a single-qubit channel in the Pauli operator
basis, E(rho) = sum_mn M[m, n] sigma_m rho sigma_n. Its outputs on the four
probe states H, V, +, R fix M through a square, invertible design matrix:
M is one product with its inverse. The setting kets, the design matrix
and its inverse are built once, at import. The fit is deliberately
unconstrained (no CP projection) so that small unphysical entries show up
rather than being hidden; only Hermiticity is enforced by symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .sources import SINGLE_QUBIT_AMPLITUDES, _PROBE_DENSITIES
from .states import ATOL, I2, DensityMatrix, PAULI, _computed, _freeze, _hermitian

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

#: Per qubit count, the analyzer ket of every (setting, outcome) cell, indexed
#: [setting, outcome] in _SETTING_IDS and _OUTCOMES order.
_KETS = {1: np.array([BASIS_VECTORS[b] for b in _SETTING_IDS[1]])}
_KETS[2] = np.einsum("sai,tbj->stabij", _KETS[1], _KETS[1]).reshape(9, 4, 4)


def _outer(kets: np.ndarray) -> np.ndarray:
    """The projectors |k><k| of a stack of kets."""
    return kets[..., :, None] * kets[..., None, :].conj()


#: Each basis's Pauli observable P+ - P-, in Z, X, Y order as in BASIS_VECTORS.
_BLOCH_AXES = _outer(_KETS[1][:, 0]) - _outer(_KETS[1][:, 1])

_TINY = 1e-12

#: Iteration cap of the scalar root search; bisection alone needs about 60.
_ROOT_STEPS = 200

#: Iteration cap of the two-qubit factor fit.
_MAX_ITERS = 10_000

#: Step halvings after which the factor fit's line search has found no decrease.
_LINE_STEPS = 30


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
        return list(zip(_OUTCOMES[n], _outer(_KETS[n][_SETTING_IDS[n].index(self.id)])))

    def probabilities(self, rho) -> dict[str, float]:
        mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
        return {o: max(float(np.real(np.trace(p @ mat))), 0.0) for o, p in self.projectors()}


def settings_1q() -> list[MeasurementSetting]:
    return [MeasurementSetting(tuple(s)) for s in _SETTING_IDS[1]]


def settings_2q() -> list[MeasurementSetting]:
    return [MeasurementSetting(tuple(s)) for s in _SETTING_IDS[2]]


@lru_cache(maxsize=32)
def _ket_stack(n: int, settings: tuple[str, ...], outcomes: tuple[str, ...]) -> np.ndarray:
    """Read-only analyzer kets of every (setting, outcome) cell, one per row, in row-major order."""
    if n not in _SETTING_IDS:
        raise ValueError(f"tomography analyzes 1 or 2 modes, got {n}")
    # the one check of a table's labels: once per layout, which the cache then serves
    for outcome in outcomes:
        if outcome not in _OUTCOMES[n]:
            raise ValueError(f"outcome {outcome!r} is not a string of {n} '+'/'-' signs")
    for setting_id in settings:
        if setting_id not in _SETTING_IDS[n]:
            raise ValueError(f"unknown setting {setting_id!r}")
    rows = [_SETTING_IDS[n].index(setting_id) for setting_id in settings]
    cols = [_OUTCOMES[n].index(outcome) for outcome in outcomes]
    return _freeze(_KETS[n][np.ix_(rows, cols)].reshape(-1, 2**n))


@lru_cache(maxsize=32)
def _basis_masks(settings: tuple[str, ...], outcomes: tuple[str, ...]) -> np.ndarray:
    """Shared masks [sign, cell, basis] of a 1-qubit table: where <k|sigma_b|k> is +1 and -1."""
    kets = _ket_stack(1, settings, outcomes)
    signs = np.real(np.einsum("oi,bij,oj->ob", kets.conj(), _BLOCH_AXES, kets))
    return np.array([signs > 0.5, signs < -0.5], dtype=float)


def linear_inversion(counts: "CountTable") -> DensityMatrix:
    """Least-squares solution of the Born rule f = Tr[P rho] on per-setting frequencies.

    The normal equations decouple by Pauli word, so this is the Stokes
    estimate: each word's mean over the settings that measure it, repeated
    settings included. Hermitian and trace one by construction; positivity
    is *not* guaranteed, which is exactly why the statistics pipeline feeds
    :func:`mle_fit` instead.
    """
    n = len(counts.modes)
    kets = _ket_stack(n, tuple(counts.settings), tuple(counts.outcomes))
    totals = counts.corrected.sum(axis=1)
    for setting_id, total in zip(counts.settings, totals):
        if total <= 0.0:
            raise ValueError(f"setting {setting_id} has zero total counts")
    missing = set(_SETTING_IDS[n]) - set(counts.settings)
    if missing:
        raise ValueError(f"missing settings: {sorted(missing)}")
    freq = (counts.corrected / totals[:, None]).ravel()
    # Tr[P rho] = <k|rho|k> = sum_ij k*_i k_j rho_ij
    rho, *_ = np.linalg.lstsq(_outer(kets).conj().reshape(len(freq), -1), freq, rcond=None)
    return _computed(rho.reshape(2**n, 2**n), counts.modes)


def _fit_inputs(counts: "CountTable", dim: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The table's ket stack, and its corrected counts as weights summing to one.

    Per-count weights make the likelihood, and the convergence thresholds
    on it, mean the same thing at any count scale.
    """
    n = len(counts.modes)
    if dim is not None and dim != 2**n:
        raise ValueError(f"dim {dim} inconsistent with {n} analyzed modes")
    kets = _ket_stack(n, tuple(counts.settings), tuple(counts.outcomes))
    weights = counts.corrected.ravel()
    total = weights.sum()
    if total <= 0:
        raise ValueError("count table is empty")
    return kets, weights / total


def mle_fit(counts: "CountTable", dim: int | None = None,
            trace_nll: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate from a count table.

    Maximizes the multinomial log likelihood sum_o c_o log p_o of the
    corrected counts. A one-qubit table is fitted exactly
    (:func:`_exact_fit_1q`) and never raises :class:`FitError`; a two-qubit
    table is fitted by a dense BFGS over a complex factor
    (:func:`_factor_fit`), which raises it, carrying the best iterate, when
    it does not converge.
    ``trace_nll``, if given, collects the per-count negative log likelihood
    at the maximally mixed state and then at every accepted iterate; the
    exact fit has one iterate, its solution.
    """
    kets, weights = _fit_inputs(counts, dim)
    if len(counts.modes) == 1:
        return _exact_fit_1q(counts, kets, weights, trace_nll)
    return _factor_fit(counts.modes, kets, weights, trace_nll)


def _exact_fit_1q(counts: "CountTable", kets: np.ndarray, weights: np.ndarray,
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
    plus, minus = (weights @ _basis_masks(tuple(counts.settings), tuple(counts.outcomes))).tolist()
    pairs = list(zip(plus, minus))
    r = [(a - c) / (a + c) if a + c > 0.0 else 0.0 for a, c in pairs]
    if math.fsum(x * x for x in r) > 1.0:
        lam = _sphere_multiplier(pairs)
        r = [_axis_root(a, c, lam)[0] for a, c in pairs]
        # unit length to rounding, so the state is positive to rounding
        norm = math.sqrt(math.fsum(x * x for x in r))
        r = [x / norm for x in r]
    # each entry takes one term of the exactly Hermitian axes: symmetrizing would change no bit
    state = _hermitian(0.5 * (I2 + sum(x * axis for x, axis in zip(r, _BLOCH_AXES))), counts.modes)
    if trace_nll is not None:
        for m in (0.5 * I2, state.entries):
            p = np.clip(np.real(np.einsum("oi,ij,oj->o", kets.conj(), m, kets)), _TINY, None)
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


def _factor_nll(a: np.ndarray, kets: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-count negative log likelihood of rho = A A^dag / Tr[A A^dag], and twice its A* derivative.

    With u = K^dag A, row o being <k_o| A, p_o = |u_o|^2 / Tr[A A^dag]. The
    derivative in A* is (A - K diag(w / p) u) / Tr[A A^dag] (the weights sum
    to one); twice it holds the gradient in the real and imaginary parts of A.
    """
    u = kets.conj() @ a
    z = float(np.vdot(a, a).real)
    p = np.maximum((u.real**2 + u.imag**2).sum(axis=1) / z, _TINY)
    g = 2.0 * (a - kets.T @ ((weights / p)[:, None] * u)) / z
    return -float(weights @ np.log(p)), g


def _factor_fit(modes: tuple[str, ...], kets: np.ndarray, weights: np.ndarray,
                trace_nll: list | None) -> DensityMatrix:
    """Dense BFGS maximum likelihood over rho = A A^dag / Tr[A A^dag], from A = I / sqrt(d).

    Works in the 2 d^2 real coordinates of A: the first direction is the
    normalized steepest descent, later ones -H g, with Armijo backtracking
    from the full step and H reset to the identity when -H g is not a
    descent direction. The first curvature pair seeds H with the scale
    s.y / y.y; a pair with s.y <= 1e-12 |s| |y| leaves H as it is. The fit
    stops when max|g| <= 1e-10, when a full step gains at most
    1e-14 max(|f|, 1), or when the line search finds no decrease.
    Convergence is declared when the last accepted step improves the log
    likelihood by less than 1e-9 or the gradient norm drops below 1e-7,
    with an iteration cap of 10^4; anything else raises :class:`FitError`
    carrying the best iterate.
    """
    d = kets.shape[-1]
    a = np.eye(d, dtype=complex) / np.sqrt(d)
    f, g = _factor_nll(a, kets, weights)
    history = [f]
    # interleaved real and imaginary parts: views, not copies
    x, gx = a.view(float).ravel(), g.view(float).ravel()
    h = None
    for _ in range(_MAX_ITERS):
        if np.abs(gx).max() <= 1e-10:
            break
        step = -gx / np.linalg.norm(gx) if h is None else -(h @ gx)
        slope = gx @ step
        if not slope < 0.0:
            h = np.eye(x.size)
            step, slope = -gx, -(gx @ gx)
        t = 1.0
        for _ in range(_LINE_STEPS):
            x_new = x + t * step
            f_new, g_new = _factor_nll(x_new.view(complex).reshape(d, d), kets, weights)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        gx_new = g_new.view(float).ravel()
        s, y = x_new - x, gx_new - gx
        sy, yy = s @ y, y @ y
        if sy > 1e-12 * math.sqrt((s @ s) * yy):
            if h is None:
                h = (sy / yy) * np.eye(x.size)
            # H + (s v^T + v s^T) / s.y, v = (1 + y.Hy / s.y) s / 2 - Hy, is the BFGS update
            hy = h @ y
            v = (0.5 + 0.5 * (y @ hy) / sy) * s - hy
            sv = s[:, None] * v
            h += (sv + sv.T) / sy
        full_step_stalled = t == 1.0 and f - f_new <= 1e-14 * max(abs(f), 1.0)
        x, f, gx = x_new, f_new, gx_new
        history.append(f)
        if full_step_stalled:
            break
    a = x.view(complex).reshape(d, d)
    aa = a @ a.conj().T
    state = _computed(aa / np.real(np.trace(aa)), modes)

    if trace_nll is not None:
        trace_nll.extend(history)
    grad_norm = float(np.linalg.norm(gx))
    last_improvement = abs(history[-2] - history[-1]) if len(history) >= 2 else 0.0
    if grad_norm > 1e-7 and not last_improvement < 1e-9:
        raise FitError(
            f"no convergence after {len(history) - 1} iterations "
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
        if not np.abs(m - m.conj().T).max() <= ATOL:
            raise ValueError("process matrix is not Hermitian")
        object.__setattr__(self, "entries", _freeze(m))


_PAULI_STACK = np.array([PAULI[s] for s in "IXYZ"])

#: The process-tomography design matrix, of rank 16, and its inverse: row
#: (probe k, i, j), column (m, n) holds (sigma_m rho_k sigma_n)[i, j].
_DESIGN = _freeze(np.einsum("mip,kpq,nqj->kijmn", _PAULI_STACK, _PROBE_DENSITIES,
                            _PAULI_STACK).reshape(-1, 16))
_DESIGN_INV = _freeze(np.linalg.inv(_DESIGN))


def process_tomo(outputs) -> ProcessMatrix:
    """Process matrix from the channel's 2 x 2 outputs for H, V, +, R, in order."""
    rho_out = np.asarray(outputs, dtype=complex)
    if rho_out.shape != (4, 2, 2):
        raise ValueError(f"need the 2 x 2 outputs of the 4 probes, got shape {rho_out.shape}")
    m = (_DESIGN_INV @ rho_out.reshape(-1)).reshape(4, 4)
    matrix = object.__new__(ProcessMatrix)  # Hermitian by symmetrization: not re-checked
    matrix.__dict__["entries"] = _freeze(0.5 * (m + m.conj().T))
    return matrix
