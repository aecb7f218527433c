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
  Every fit goes through :func:`_fit_stack`, over a stack of tables of one
  layout: a run's bootstrap fits many resamples per call, and ``mle_fit``
  a stack of one. The BFGS gives each two-qubit table its own steps and
  stop rules, so a table's iterates are bit for bit those of a stack of
  one; one-qubit tables are fitted one at a time.

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
from itertools import compress, product, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .sources import SINGLE_QUBIT_AMPLITUDES, _PROBE_DENSITIES
from .states import ATOL, I2, DensityMatrix, PAULI, _born, _computed, _freeze, _hermitian

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

    def probabilities(self, rho) -> dict[str, float]:
        n = len(self.bases)
        kets = _KETS[n][_SETTING_IDS[n].index(self.id)]
        return dict(zip(_OUTCOMES[n], _born(kets, np.asarray(getattr(rho, "entries", rho))).tolist()))


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


def mle_fit(counts: "CountTable", dim: int | None = None,
            trace_nll: list | None = None) -> DensityMatrix:
    """Maximum-likelihood state estimate from a count table: :func:`_fit_stack` of a stack of one.

    Maximizes the multinomial log likelihood sum_o c_o log p_o of the
    corrected counts. A one-qubit table is fitted exactly
    (:func:`_exact_fit_1q`) and never raises :class:`FitError`; a two-qubit
    table is fitted by a dense BFGS over a complex factor
    (:func:`_factor_fit`), and raises it, carrying the best iterate, when
    that does not converge.
    ``trace_nll``, if given, collects the per-count negative log likelihood
    at the maximally mixed state and then at every accepted iterate; the
    exact fit has one iterate, its solution.
    """
    n = len(counts.modes)
    if dim is not None and dim != 2**n:
        raise ValueError(f"dim {dim} inconsistent with {n} analyzed modes")
    (fit,) = _fit_stack([counts], None if trace_nll is None else [trace_nll])
    if isinstance(fit, Exception):
        raise fit
    return fit


def _fit_stack(tables: Sequence["CountTable"], traces: list | None = None) -> list:
    """Maximum likelihood of count tables of one layout, of 1 or 2 modes: per table its state, or
    the FitError or ValueError that fails it.

    Each table's corrected counts become weights summing to one, so that the likelihood, and the
    convergence thresholds on it, mean the same thing at any count scale; a table without counts
    fails alone. One-qubit tables are fitted one at a time by :func:`_exact_fit_1q`, two-qubit
    tables as one stack by :func:`_factor_fit`. ``traces``, a list per table, collects each
    fit's per-count negative log likelihoods, as ``mle_fit``'s ``trace_nll`` does.
    """
    if not tables:
        return []
    first = tables[0]
    kets = _ket_stack(len(first.modes), tuple(first.settings), tuple(first.outcomes))
    weights = np.array([table.corrected.ravel() for table in tables])
    totals = weights.sum(axis=1)
    full = totals > 0
    weights = weights[full] / totals[full, None]
    kept = None if traces is None else list(compress(traces, full))
    if len(first.modes) == 1:
        fits = map(_exact_fit_1q, compress(tables, full), repeat(kets), weights, kept or repeat(None))
    else:
        fits = iter(_factor_fit(first.modes, kets, weights, kept))
    return [next(fits) if ok else ValueError("count table is empty") for ok in full.tolist()]


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
            trace_nll.append(-float(weights @ np.log(np.maximum(_born(kets, m), _TINY))))
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two stacks of vectors (T, n), a . b as a matmul: the dot a 1-D ``a @ b`` takes."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _factor_nll(a: np.ndarray, kets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per factor A of a stack (T, d, d), with weights (T, cells), the per-count negative log
    likelihood of rho = A A^dag / Tr[A A^dag] and twice its A* derivative.

    With u = K^dag A, row o being <k_o| A, p_o = |u_o|^2 / Tr[A A^dag]. The
    derivative in A* is (A - K diag(w / p) u) / Tr[A A^dag] (the weights sum
    to one); twice it holds the gradient in the real and imaginary parts of A.
    """
    u = kets.conj() @ a
    flat = a.reshape(-1, a.shape[-1] ** 2)
    z = _rowdot(flat.conj(), flat).real
    p = np.maximum((u.real**2 + u.imag**2).sum(axis=-1) / z[:, None], _TINY)
    g = 2.0 * (a - kets.T @ ((weights / p)[..., None] * u)) / z[:, None, None]
    return -_rowdot(weights, np.log(p)), g


def _bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> None:
    """H += (s v^T + v s^T) / s.y, v = (1 + y.Hy / s.y) s / 2 - Hy, in place per table: the BFGS update."""
    hy = (h @ y[:, :, None])[:, :, 0]
    sv = s[:, :, None] * ((0.5 + 0.5 * _rowdot(y, hy) / sy)[:, None] * s - hy)[:, None, :]
    tmp = sv + sv.transpose(0, 2, 1)
    tmp /= sy[:, None, None]
    h += tmp


def _factor_fit(modes: tuple[str, ...], kets: np.ndarray, weights: np.ndarray,
                traces: list | None = None) -> list:
    """Dense BFGS maximum likelihood over rho = A A^dag / Tr[A A^dag], from A = I / sqrt(d), per
    table of a stack of weights (T, cells) over one ket stack.

    Works in the 2 d^2 real coordinates of A: the first direction is the
    normalized steepest descent, later ones -H g, with Armijo backtracking
    from the full step and H reset to the identity when -H g is not a
    descent direction. The first curvature pair seeds H with the scale
    s.y / y.y; a pair with s.y <= 1e-12 |s| |y| leaves H as it is. A table
    stops, and leaves the stack, when max|g| <= 1e-10, when a full step
    gains at most 1e-14 max(|f|, 1), or when the line search finds no
    decrease. Convergence is declared when the last accepted step improves
    the log likelihood by less than 1e-9 or the gradient norm drops below
    1e-7, with an iteration cap of 10^4; per table, returns the state or a
    :class:`FitError` carrying the best iterate. ``traces``, a list per
    table, collects the per-count negative log likelihood at the start and
    at every accepted iterate. Every reduction is a matmul, so a table's
    iterates do not depend on the stack it is in.
    """
    n_tables, d = len(weights), kets.shape[-1]
    a = np.repeat(np.eye(d, dtype=complex)[None] / np.sqrt(d), n_tables, axis=0)
    f, g = _factor_nll(a, kets, weights)
    histories = [[value] for value in f.tolist()]
    # interleaved real and imaginary parts of each A, a row per table
    x, gx = a.view(float).reshape(n_tables, 2 * d * d), g.view(float).reshape(n_tables, 2 * d * d)
    x_end, g_end, eye = np.empty_like(x), np.empty_like(gx), np.eye(x.shape[1])
    live, h, fresh = np.arange(n_tables), np.zeros((n_tables,) + eye.shape), np.ones(n_tables, bool)

    def leave(stop):
        nonlocal live, x, f, gx, h, fresh
        if stop.any():
            x_end[live[stop]], g_end[live[stop]] = x[stop], gx[stop]
            live, x, f, gx, h, fresh = (v[~stop] for v in (live, x, f, gx, h, fresh))

    for _ in range(_MAX_ITERS):
        leave(np.abs(gx).max(axis=1) <= 1e-10)
        if not live.size:
            break
        step = np.where(fresh[:, None], -gx / np.sqrt(_rowdot(gx, gx))[:, None], -(h @ gx[:, :, None])[:, :, 0])
        slope = _rowdot(gx, step)
        reset = ~(slope < 0.0)
        if reset.any():
            h[reset], fresh[reset], step[reset] = eye, False, -gx[reset]
            slope[reset] = -_rowdot(gx[reset], gx[reset])
        # backtracking per table; one that finds no decrease keeps its iterate, so s = y = 0
        t, todo, failed = np.ones(live.size), np.arange(live.size), np.zeros(live.size, bool)
        x_new, f_new, g_new = x.copy(), f.copy(), gx.copy()
        for _ in range(_LINE_STEPS):
            trial = x[todo] + t[todo, None] * step[todo]
            f_try, g_try = _factor_nll(trial.view(complex).reshape(-1, d, d), kets, weights[live[todo]])
            ok = f_try <= f[todo] + 1e-4 * t[todo] * slope[todo]
            x_new[todo[ok]], f_new[todo[ok]] = trial[ok], f_try[ok]
            g_new[todo[ok]] = g_try.view(float).reshape(len(todo), -1)[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            t[todo] *= 0.5
        failed[todo] = True
        s, y = x_new - x, g_new - gx
        sy, yy = _rowdot(s, y), _rowdot(y, y)
        update = sy > 1e-12 * np.sqrt(_rowdot(s, s) * yy)
        seed = update & fresh
        if seed.any():
            h[seed], fresh[seed] = (sy[seed] / yy[seed])[:, None, None] * eye, False
        if update.all():
            _bfgs_update(h, s, y, sy)
        elif update.any():  # H is indexed by a mask only here
            part = h[update]
            _bfgs_update(part, s[update], y[update], sy[update])
            h[update] = part
        stalled = (t == 1.0) & (f - f_new <= 1e-14 * np.maximum(np.abs(f), 1.0))
        for k, value in zip(live[~failed].tolist(), f_new[~failed].tolist()):
            histories[k].append(value)
        x, f, gx = x_new, f_new, g_new
        leave(failed | stalled)
    leave(np.ones(live.size, bool))

    a = x_end.view(complex).reshape(n_tables, d, d)
    aa = a @ a.conj().transpose(0, 2, 1)
    fits = [_computed(rho, modes) for rho in aa / np.trace(aa, axis1=1, axis2=2).real[:, None, None]]
    for k, (history, grad_norm) in enumerate(zip(histories, np.sqrt(_rowdot(g_end, g_end)).tolist())):
        if traces is not None:
            traces[k].extend(history)
        last_improvement = abs(history[-2] - history[-1]) if len(history) >= 2 else 0.0
        if grad_norm > 1e-7 and not last_improvement < 1e-9:
            fits[k] = FitError(f"no convergence after {len(history) - 1} iterations "
                               f"(grad {grad_norm:.2e}, last step {last_improvement:.2e})", best_state=fits[k])
    return fits


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
