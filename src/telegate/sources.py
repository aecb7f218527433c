"""Protocol input states: entangled pairs and heralded single photons.

Imperfect preparation is modeled as an isotropic (white-noise) admixture,
the single-parameter choice that treats all bases symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, PureState, _check_labels, _computed, _freeze, _number

_SQ2 = 1.0 / np.sqrt(2.0)

# Standard Bell states, plus the same four expressed in the H/V x +/- basis
# the gate analyzer works in (suffix "~"). phi+~ is phi+ with the second
# qubit rotated into the diagonal basis. Named densities are built at import.
BELL_AMPLITUDES = {
    "phi+": np.array([1, 0, 0, 1]) * _SQ2,
    "psi+": np.array([0, 1, 1, 0]) * _SQ2,
    "phi-": np.array([1, 0, 0, -1]) * _SQ2,
    "psi-": np.array([0, 1, -1, 0]) * _SQ2,
    "phi+~": np.array([1, 1, 1, -1]) * 0.5,
    "psi+~": np.array([1, -1, 1, 1]) * 0.5,
    "phi-~": np.array([1, 1, -1, 1]) * 0.5,
    "psi-~": np.array([1, -1, -1, -1]) * 0.5,
}
_BELL_DENSITIES = {t: PureState(a).density().entries for t, a in BELL_AMPLITUDES.items()}

SINGLE_QUBIT_AMPLITUDES = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1]) * _SQ2,
    "-": np.array([1, -1]) * _SQ2,
    "R": np.array([1, 1j]) * _SQ2,
    "L": np.array([1, -1j]) * _SQ2,
}
_INPUT_DENSITIES = {s: PureState(a).density().entries for s, a in SINGLE_QUBIT_AMPLITUDES.items()}
#: The maximally mixed state I/d of a qubit and of a pair, by dimension d.
_WHITE = {d: np.eye(d, dtype=complex) / d for d in (2, 4)}

#: The four probe states of process tomography, in the order every consumer reads, and
#: their pure densities as one (4, 2, 2) stack. Their Bloch vectors (z, -z, x, y) span the
#: qubit operator space, which is what makes process reconstruction from them possible.
TOMOGRAPHIC_PROBES = ("H", "V", "+", "R")
_PROBE_DENSITIES = _freeze([_INPUT_DENSITIES[p] for p in TOMOGRAPHIC_PROBES])


def _mix(pure: np.ndarray, mixedness) -> np.ndarray:
    """(1 - lambda) pure + lambda I/d, the admixture of every source; either may be a stack."""
    return (1.0 - mixedness) * pure + mixedness * _WHITE[pure.shape[-1]]


@dataclass(frozen=True)
class PairSpec:
    """Entangled-pair target plus white-noise weight."""

    target: str = "phi+"
    mixedness: float = 0.0

    def __post_init__(self):
        if self.target not in BELL_AMPLITUDES:
            raise ValueError(f"unknown pair target {self.target!r}; options: {sorted(BELL_AMPLITUDES)}")
        object.__setattr__(self, "mixedness", _number("mixedness", self.mixedness, 0, 1))


@dataclass(frozen=True)
class InputSpec:
    """Single-photon polarization state plus white-noise weight.

    ``state`` is one of the named states or an (alpha, beta) amplitude pair.
    """

    state: str | tuple = "H"
    mixedness: float = 0.0

    def __post_init__(self):
        if isinstance(self.state, str):
            if self.state not in SINGLE_QUBIT_AMPLITUDES:
                raise ValueError(f"unknown input state {self.state!r}")
        else:
            a, b = self.state
            if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12:  # NaN fails
                raise ValueError("input amplitudes must be normalized")
            object.__setattr__(self, "state", (complex(a), complex(b)))
        object.__setattr__(self, "mixedness", _number("mixedness", self.mixedness, 0, 1))


def bell_state(target: str, labels=("q0", "q1")) -> PureState:
    if target not in BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell target {target!r}")
    return PureState(BELL_AMPLITUDES[target], labels)


def single_qubit_state(state, label="q0") -> PureState:
    if isinstance(state, str):
        return PureState(SINGLE_QUBIT_AMPLITUDES[state], (label,))
    return PureState(np.asarray(state, dtype=complex), (label,))


def make_pair(spec: PairSpec, labels=("q0", "q1")) -> DensityMatrix:
    """(1 - lambda) |bell><bell| + lambda I/4."""
    return _computed(_mix(_BELL_DENSITIES[spec.target], spec.mixedness), _check_labels(labels, 2))


def make_input(spec: InputSpec, label="q0") -> DensityMatrix:
    """(1 - lambda) |chi><chi| + lambda I/2."""
    pure = (_INPUT_DENSITIES[spec.state] if isinstance(spec.state, str)
            else single_qubit_state(spec.state).density().entries)
    return _computed(_mix(pure, spec.mixedness), _check_labels((label,), 1))
