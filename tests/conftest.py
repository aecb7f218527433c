import math
from itertools import product

import numpy as np
import pytest
from scipy.optimize import minimize

from telegate.metrics import (CHSH_ANGLES, CHSH_OUTCOMES, CHSH_SETTINGS, CHSH_VARIANT_FOR_BELL,
                              ChshSpec, chsh, chsh_distributions, fidelity_pure, log_negativity)
from telegate.protocols import (BELL_FOR_PRODUCT, CORRECTION_FOR_BELL, TELEPORT_PAIR_TARGET,
                                TILDE_LABELS, _as_channel, pair_raw, swap, tilde_bell)
from telegate.sources import (BELL_AMPLITUDES, SINGLE_QUBIT_AMPLITUDES, TOMOGRAPHIC_PROBES,
                              InputSpec, PairSpec, make_input, make_pair)
from telegate.states import (ATOL, DensityMatrix, I2, PAULI, PureState, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            _check_labels, _computed, _hermitian, analyzer_eigenvectors)
from telegate import tomography
from telegate.tomography import (BASIS_VECTORS, FitError, ProcessMatrix, _TINY, _fit_inputs, _outer,
                                 process_tomo, settings_2q)


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


def fock_norm(state) -> float:
    """Norm of a FockState, below one once amplitude has leaked into the attenuator sinks."""
    return math.sqrt(sum(abs(a) ** 2 for a in state.terms.values()))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and bit pattern: equal entries with equal signs of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


# The per-call state builders that make_pair and make_input replaced by
# mixing import-time constant densities, kept as references.

def reference_pair(target: str, mixedness: float, labels=("q0", "q1")) -> DensityMatrix:
    """(1 - lambda) |bell><bell| + lambda I/4, the pure state built per call."""
    pure = PureState(BELL_AMPLITUDES[target], labels).density()
    return _computed((1.0 - mixedness) * pure.entries + mixedness * np.eye(4) / 4.0, pure.labels)


def reference_input(state, mixedness: float, label="q0") -> DensityMatrix:
    """(1 - lambda) |chi><chi| + lambda I/2, the pure state built per call."""
    amps = SINGLE_QUBIT_AMPLITUDES[state] if isinstance(state, str) else np.asarray(state, complex)
    pure = PureState(amps, (label,)).density()
    return _computed((1.0 - mixedness) * pure.entries + mixedness * np.eye(2) / 2.0, pure.labels)


def tomographic_input_set(mixedness: float = 0.0) -> list[InputSpec]:
    """The four probe states H, V, +, R as checked specs, in that order."""
    return [InputSpec(name, mixedness) for name in TOMOGRAPHIC_PROBES]


def reference_teleport_conditionals(channel, pair_target: str, pair_mixedness: float,
                                    input_mixedness: float) -> tuple[np.ndarray, np.ndarray]:
    """The teleport grid's probabilities and uncorrected states from checked source objects.

    The pair and the four probes are built as DensityMatrix values, one
    InputSpec per probe, where the package mixes its constant densities; the
    analyzer effects are built from the Kraus operators, where the channel holds them.
    """
    pair = make_pair(PairSpec(pair_target, pair_mixedness), ("a", "b"))
    inputs = [make_input(spec, "c").entries for spec in tomographic_input_set(input_mixedness)]
    return _reference_normalized(pair_raw(pair.entries, np.array(inputs),
                                          reference_effects(channel.kraus)))


def _reference_normalized(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    weights = np.real(np.einsum("...aa->...", raw))
    states = raw / weights[..., None, None]
    return np.maximum(weights, 0.0), 0.5 * (states + states.conj().swapaxes(-1, -2))


# The per-call exact path that the channel's stored effects, the signed-permutation
# frames and the array-built summaries replaced, kept as references.

def reference_effects(kraus) -> np.ndarray:
    """The analyzer effects E_o = sum_k K_k^dag |o><o| K_k as (4, 16), built per call."""
    bras = np.array([np.kron(SINGLE_QUBIT_AMPLITUDES[sb], SINGLE_QUBIT_AMPLITUDES[sc])
                     for sb, sc in BELL_FOR_PRODUCT]).conj()
    rows = bras @ np.array(kraus)  # [k, o, :] is the row <o| K_k
    return np.einsum("kol,koj->olj", rows.conj(), rows).reshape(4, 16)


#: The Pauli-frame correction unitaries by name, and stacked in TILDE_LABELS order, the order
#: bsa reports its outcomes: a conditional state rho becomes U rho U^dag.
CORRECTION_MATRICES = {"I": I2, "X": SIGMA_X, "Z": SIGMA_Z, "iY": 1j * SIGMA_Y}
CORRECTIONS = np.array([CORRECTION_MATRICES[CORRECTION_FOR_BELL[bell]] for bell in TILDE_LABELS])


def reference_correct_frames(rho: np.ndarray) -> np.ndarray:
    """U rho U^dag over the outcome axis of ``rho`` (..., 4, 2, 2), as two matmuls."""
    return CORRECTIONS @ rho @ CORRECTIONS.conj().swapaxes(-1, -2)


def reference_teleport_summary(gate, pair_mixedness: float, input_mixedness: float) -> dict:
    """teleport_summary with every figure read back from one flat dict of named keys."""
    probabilities, rho = reference_teleport_conditionals(
        _as_channel(gate), TELEPORT_PAIR_TARGET, pair_mixedness, input_mixedness)
    corrected = reference_correct_frames(rho)
    kets = np.array([SINGLE_QUBIT_AMPLITUDES[p] for p in TOMOGRAPHIC_PROBES])[:, None, :, None]
    fidelities = np.real(kets.conj().swapaxes(-1, -2) @ corrected @ kets)[..., 0, 0]
    weights = probabilities / probabilities.sum(axis=1, keepdims=True)
    matrix = process_tomo((weights[..., None, None] * corrected).sum(axis=1))
    cells = [f"F_{probe}/{bell}" for probe in TOMOGRAPHIC_PROBES for bell in TILDE_LABELS]
    figures = dict(zip(cells, fidelities.ravel().tolist()))
    figures.update(zip((f"F_{p}" for p in TOMOGRAPHIC_PROBES),
                       (weights * fidelities).sum(axis=1).tolist()))
    summary: dict = {f"F_{p}": figures[f"F_{p}"] for p in TOMOGRAPHIC_PROBES}
    summary["per_outcome"] = {
        name: {bell: {"probability": p, "fidelity": figures[f"F_{name}/{bell}"]}
               for bell, p in zip(TILDE_LABELS, row)}
        for name, row in zip(TOMOGRAPHIC_PROBES, probabilities.tolist())}
    summary["F_avg"] = sum(figures[f"F_{p}"] for p in TOMOGRAPHIC_PROBES) / 4
    summary["F_p"] = float(matrix.entries[0, 0].real)
    summary["process_matrix"] = matrix
    return summary


def reference_swap_summary(gate, pair_mixedness: float) -> dict:
    """swap_summary from a checked pair and effects built from the Kraus operators, each
    outcome's figures from the single-state metrics and their averages from np.mean."""
    pair = make_pair(PairSpec("phi+", pair_mixedness)).entries
    probabilities, states = _reference_normalized(
        pair_raw(pair, pair, reference_effects(_as_channel(gate).kraus)))
    probabilities = probabilities.tolist()
    outcomes = {}
    for bell, p, rho in zip(TILDE_LABELS, probabilities, states):
        variant = CHSH_VARIANT_FOR_BELL[bell]
        s_value = chsh(rho, ChshSpec(variant))
        outcomes[bell] = {"probability": p, "chsh_variant": variant,
                          "fidelity": fidelity_pure(rho, tilde_bell(bell)),
                          "log_negativity": log_negativity(rho), "chsh": s_value,
                          "chsh_abs": abs(s_value), "state": _hermitian(rho, ("a", "d"))}

    def average(key):
        return float(np.mean([row[key] for row in outcomes.values()]))

    return {"outcomes": outcomes, "success_probability": sum(probabilities),
            "F_avg": average("fidelity"), "N_avg": average("log_negativity"),
            "S_abs_avg": average("chsh_abs")}


def reference_swap_run(channel, target: str, pair_mixedness: float):
    """The swap run's exact outcomes and count distributions through the object API.

    make_pair builds the checked pair and swap() conditions each outcome's
    (a, d) state; returns the ProtocolResult and, per table key, (modes,
    setting id -> outcome distribution) in the order the run counts them.
    """
    pair = make_pair(PairSpec(target, pair_mixedness))
    result = swap(pair, pair, channel)
    distributions = {}
    for o in result.outcomes:
        distributions[f"{o.bell_label}/tomo"] = (("a", "d"), {
            s.id: s.probabilities(o.state) for s in settings_2q()})
        distributions[f"{o.bell_label}/chsh"] = (("a", "d"), {
            setting: dict(zip(CHSH_OUTCOMES, row))
            for setting, row in zip(CHSH_SETTINGS, chsh_distributions(o.state).tolist())})
    return result, distributions


# The overlap route to F_p, kept as the reference of the (I, I) entry the package reads.

def identity_process() -> ProcessMatrix:
    return ProcessMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))


def process_fidelity(m_exp: ProcessMatrix, m_theo: ProcessMatrix) -> float:
    """Overlap Tr[M_theo M_exp]; equals the (I, I) entry against the identity."""
    val = complex(np.trace(m_theo.entries @ m_exp.entries))
    if abs(val.imag) > ATOL:
        raise ValueError(f"process fidelity has imaginary part {val.imag}")
    return float(val.real)


# Per-call builders of the package's fixed measurements, kept as references
# for the constant arrays the package builds once.

def reference_projectors(bases) -> list[tuple[str, np.ndarray]]:
    """(outcome, projector) of a Pauli setting, one kron product per outcome."""
    out = []
    for signs in product("+-", repeat=len(bases)):
        vec = np.array([1.0], dtype=complex)
        for b, s in zip(bases, signs):
            vec = np.kron(vec, BASIS_VECTORS[b][0 if s == "+" else 1])
        out.append(("".join(signs), np.outer(vec, vec.conj())))
    return out


def reference_chsh_distributions(rho: DensityMatrix) -> dict[str, dict[str, float]]:
    """setting -> outcome -> probability at the CHSH settings, one vector at a time."""
    out = {}
    for setting_id, (i, j) in CHSH_SETTINGS.items():
        dist = {}
        for sa, va in zip("+-", analyzer_eigenvectors(CHSH_ANGLES[0][i])):
            for sd, vd in zip("+-", analyzer_eigenvectors(CHSH_ANGLES[1][j])):
                vec = np.kron(va, vd)
                dist[sa + sd] = max(float(np.real(vec.conj() @ rho.entries @ vec)), 0.0)
        out[setting_id] = dist
    return out


def reference_chsh_correlators(dists) -> np.ndarray:
    """E[i, j] from setting -> outcome -> weight, each setting normalized by its total."""
    e = np.empty((2, 2))
    for setting_id, (i, j) in CHSH_SETTINGS.items():
        dist = dists[setting_id]
        e[i, j] = sum(w * (1 if o[0] == "+" else -1) * (1 if o[1] == "+" else -1)
                      for o, w in dist.items()) / sum(dist.values())
    return e


# The package's earlier reconstructions, kept as references: the Stokes loop
# that linear_inversion replaced by one least-squares solve, the
# Cholesky-parameterized L-BFGS fit that the complex-factor fit replaced, and
# scipy's L-BFGS-B over the complex factor that the package's BFGS replaced.

def reference_linear_inversion(counts) -> np.ndarray:
    """Stokes reconstruction: each Pauli word's mean over the settings that measure it."""
    n = len(counts.modes)
    freq = counts.corrected / counts.corrected.sum(axis=1)[:, None]

    rho = np.zeros((2**n, 2**n), dtype=complex)
    for word in product("IZXY", repeat=n):
        measured = [i for i, setting_id in enumerate(counts.settings)
                    if all(w in ("I", b) for w, b in zip(word, setting_id))]
        # the Pauli word's eigenvalue on each outcome: -1 per "-" on a non-identity qubit
        signs = np.array([(-1.0) ** sum(w != "I" and s == "-" for w, s in zip(word, outcome))
                          for outcome in counts.outcomes])
        rho += np.mean(freq[measured] @ signs) * _pauli_word(word)
    return rho / 2**n


def _pauli_word(word: tuple[str, ...]) -> np.ndarray:
    m = np.array([1.0], dtype=complex)
    for w in word:
        m = np.kron(m, PAULI[w])
    return m


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


def _lbfgs_fit(modes: tuple[str, ...], negloglik, x0: np.ndarray, unpack,
               trace_nll: list | None) -> DensityMatrix:
    """scipy's L-BFGS-B on a factored likelihood, rho = T^dag T / Tr[T^dag T] with T = unpack(x).

    Convergence is declared when the last accepted step improves the log
    likelihood by less than 1e-9 or the gradient norm drops below 1e-7,
    with an iteration cap of 10^4; anything else raises :class:`FitError`
    carrying the best iterate.
    """
    history: list[float] = [negloglik(x0)[0]]

    # scipy passes the iterate's OptimizeResult to a callback whose one
    # parameter has this name, so the accepted value is not recomputed
    def record(intermediate_result):
        history.append(intermediate_result.fun)

    res = minimize(
        negloglik,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=record,
        options={"maxiter": 10_000, "ftol": 1e-14, "gtol": 1e-10},
    )
    t = unpack(res.x)
    s = t.conj().T @ t
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


def _cholesky_fit(modes: tuple[str, ...], projs: np.ndarray, weights: np.ndarray,
                  trace_nll: list | None) -> DensityMatrix:
    """L-BFGS maximum likelihood over rho = T^dag T / Tr[T^dag T], T lower triangular.

    The reference of the exact one-qubit fit and of the two-qubit factor fit.
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
    return _lbfgs_fit(modes, negloglik, theta0, lambda theta: _unpack_cholesky(theta, d),
                      trace_nll)


def _factor_lbfgs_fit(modes: tuple[str, ...], projs: np.ndarray, weights: np.ndarray,
                      trace_nll: list | None) -> DensityMatrix:
    """L-BFGS-B maximum likelihood over rho = A A^dag / Tr[A A^dag], from A = I / sqrt(d).

    A = (x[:d^2] + i x[d^2:]).reshape(d, d). With p_o = Tr[P_o rho] and
    R = sum_o (w_o / p_o) P_o, the derivative in A* is (A - R A)/Tr[A A^dag],
    and the gradient in x is twice its real and imaginary parts.
    """
    d = projs.shape[-1]

    def unpack(x):
        return (x[:d * d] + 1j * x[d * d:]).reshape(d, d)

    def negloglik(x):
        a = unpack(x)
        s = a @ a.conj().T
        z = float(np.real(np.trace(s)))
        p = np.clip(np.real(np.einsum("oij,ji->o", projs, s)) / z, _TINY, None)
        g = 2.0 * (a - np.einsum("o,oij->ij", weights / p, projs) @ a) / z
        return -float(weights @ np.log(p)), np.concatenate([g.real.ravel(), g.imag.ravel()])

    x0 = np.concatenate([np.eye(d).ravel() / np.sqrt(d), np.zeros(d * d)])
    # rho = A A^dag = T^dag T with T = A^dag
    return _lbfgs_fit(modes, negloglik, x0, lambda x: unpack(x).conj().T, trace_nll)


def cholesky_reference(table) -> DensityMatrix:
    """The Cholesky-parameterized L-BFGS fit on any table."""
    kets, weights = _fit_inputs(table, None)
    return _cholesky_fit(table.modes, _outer(kets), weights, None)


def factor_lbfgs_reference(table) -> DensityMatrix:
    """scipy's L-BFGS-B over the complex factor on any table."""
    kets, weights = _fit_inputs(table, None)
    return _factor_lbfgs_fit(table.modes, _outer(kets), weights, None)


def factor_bfgs_reference(table, trace_nll: list | None = None) -> DensityMatrix:
    """The package's two-qubit BFGS, one table at a time, as it stood before the fit took stacks.

    Same start, steps, stop rules and convergence rule as ``tomography._factor_fit``; its dot
    products are 1-D ``@`` and its norms ``np.linalg.norm``, the forms the stacked fit's matmuls
    must match bit for bit. Raises FitError, carrying the best iterate, where that fit does.
    """
    kets, weights = _fit_inputs(table, None)
    d = kets.shape[-1]

    def nll(a):
        u = kets.conj() @ a
        z = float(np.vdot(a, a).real)
        p = np.maximum((u.real**2 + u.imag**2).sum(axis=1) / z, _TINY)
        return -float(weights @ np.log(p)), 2.0 * (a - kets.T @ ((weights / p)[:, None] * u)) / z

    a = np.eye(d, dtype=complex) / np.sqrt(d)
    f, g = nll(a)
    history = [f]
    x, gx = a.view(float).ravel(), g.view(float).ravel()
    h = None
    for _ in range(tomography._MAX_ITERS):
        if np.abs(gx).max() <= 1e-10:
            break
        step = -gx / np.linalg.norm(gx) if h is None else -(h @ gx)
        slope = gx @ step
        if not slope < 0.0:
            h = np.eye(x.size)
            step, slope = -gx, -(gx @ gx)
        t = 1.0
        for _ in range(tomography._LINE_STEPS):
            x_new = x + t * step
            f_new, g_new = nll(x_new.view(complex).reshape(d, d))
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
    state = _computed(aa / np.real(np.trace(aa)), table.modes)
    if trace_nll is not None:
        trace_nll.extend(history)
    grad_norm = float(np.linalg.norm(gx))
    last_improvement = abs(history[-2] - history[-1]) if len(history) >= 2 else 0.0
    if grad_norm > 1e-7 and not last_improvement < 1e-9:
        raise FitError(f"no convergence after {len(history) - 1} iterations "
                       f"(grad {grad_norm:.2e}, last step {last_improvement:.2e})", best_state=state)
    return state
