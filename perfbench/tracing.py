"""Span tracing of telegate's layers from outside the package.

Each traced layer is a public function that the benchmark wraps and patches
into the namespace its callers read it from (modules import by name, so
``telegate.protocols.bsa`` and ``telegate.experiment.mle_fit`` are the names
that matter, not the defining modules). Spans are aggregated in memory as
they close: per layer, the call count and the self time, i.e. the span's
duration minus the time its child spans cover. Fits also keep every
duration, the iteration count read through ``mle_fit``'s public
``trace_nll`` argument, exceptions by type, and the count tables, whose
linear-inversion positivity is evaluated after the operation, outside
every span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from telegate.tomography import linear_inversion

#: (owner, attribute, layer). The owner is a module or ``module:Class``;
#: several call sites can feed one layer.
PATCH_SITES = (
    ("telegate.cli", "main", "cli.main"),
    ("telegate.experiment", "gate_channel", "gate.gate_channel"),
    ("telegate.protocols", "gate_channel", "gate.gate_channel"),
    ("telegate.experiment", "make_pair", "sources.make_pair"),
    ("telegate.experiment", "make_input", "sources.make_input"),
    ("telegate.protocols", "apply_kraus_raw", "states.apply_kraus_raw"),
    ("telegate.protocols", "condition_on_outcome", "states.condition_on_outcome"),
    ("telegate.protocols", "bsa", "protocols.bsa"),
    ("telegate.experiment", "teleport", "protocols.teleport"),
    ("telegate.experiment", "swap", "protocols.swap"),
    ("telegate.experiment", "mle_fit", "tomography.mle_fit"),
    ("telegate.experiment", "process_tomo", "tomography.process_tomo"),
    ("telegate.experiment", "fidelity_pure", "metrics.fidelity_pure"),
    ("telegate.experiment", "log_negativity", "metrics.log_negativity"),
    ("telegate.experiment", "chsh", "metrics.chsh"),
    ("telegate.experiment", "simulate_counts", "experiment.simulate_counts"),
    ("telegate.experiment:CountTable", "resample", "experiment.CountTable.resample"),
    ("telegate.experiment", "teleport_summary", "experiment.teleport_summary"),
    ("telegate.experiment", "swap_summary", "experiment.swap_summary"),
    # The bootstrap is private; it is wrapped only to count the resamples
    # whose estimate came back, and records no span.
    ("telegate.experiment", "_joint_bootstrap", "experiment.bootstrap"),
)

#: Layers that report ``calls`` and ``self_s``, in report order. The fit
#: layer is split by the number of analyzed modes.
SPAN_LAYERS = (
    "gate.gate_channel",
    "sources.make_pair",
    "sources.make_input",
    "states.apply_kraus_raw",
    "states.condition_on_outcome",
    "protocols.bsa",
    "protocols.teleport",
    "protocols.swap",
    "tomography.mle_fit_1q",
    "tomography.mle_fit_2q",
    "tomography.process_tomo",
    "metrics.fidelity_pure",
    "metrics.log_negativity",
    "metrics.chsh",
    "experiment.simulate_counts",
    "experiment.CountTable.resample",
    "experiment.teleport_summary",
    "experiment.swap_summary",
    "cli.main",
)

FIT_LAYERS = ("tomography.mle_fit_1q", "tomography.mle_fit_2q")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class FitStats:
    durations: list = field(default_factory=list)
    iters: int = 0
    failed: Counter = field(default_factory=Counter)
    tables: list = field(default_factory=list)


class Tracer:
    """Aggregates nested spans of one traced operation.

    Single-threaded: spans nest strictly, so a span's children are disjoint
    and its self time is its duration minus the summed child durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.fits = {name: FitStats() for name in FIT_LAYERS}
        self.resamples_attempted = 0
        self.resamples_useful = 0
        self._open: list[float] = []  # child time accumulated per open span

    def _enter(self) -> float:
        self._open.append(0.0)
        return self.clock()

    def _exit(self, name: str, start: float) -> float:
        duration = self.clock() - start
        children = self._open.pop()
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        stats.calls += 1
        stats.self_s += duration - children
        if self._open:
            self._open[-1] += duration
        return duration

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped in a span named ``layer``."""
        if layer == "tomography.mle_fit":
            return self._wrap_fit(fn)
        if layer == "experiment.bootstrap":
            return self._wrap_bootstrap(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, start)

        return traced

    def _wrap_fit(self, fn):
        @functools.wraps(fn)
        def traced(counts, dim=None, trace_nll=None):
            layer = FIT_LAYERS[0] if len(counts.modes) == 1 else FIT_LAYERS[1]
            fit = self.fits[layer]
            history: list[float] = []
            start = self._enter()
            try:
                return fn(counts, dim=dim, trace_nll=history)
            except Exception as exc:
                fit.failed[type(exc).__name__] += 1
                raise
            finally:
                fit.durations.append(self._exit(layer, start))
                fit.iters += max(len(history) - 1, 0)
                fit.tables.append(counts)
                if trace_nll is not None:
                    trace_nll.extend(history)

        return traced

    def _wrap_bootstrap(self, fn):
        @functools.wraps(fn)
        def traced(tables, estimator, n_resamples, seed_seq):
            returned = 0

            def counted(tabs):
                nonlocal returned
                out = estimator(tabs)
                returned += 1
                return out

            try:
                return fn(tables, counted, n_resamples, seed_seq)
            finally:
                # the first estimator call is the point estimate
                self.resamples_attempted += n_resamples
                self.resamples_useful += max(returned - 1, 0)

        return traced

    def counts(self) -> dict:
        """Work counts of the operation; these repeat exactly for one input."""
        out = {}
        for name in SPAN_LAYERS:
            out[f"{name}.calls"] = self.layers.get(name, LayerStats()).calls
        for name, fit in self.fits.items():
            out[f"{name}.iters"] = fit.iters
            out[f"{name}.failed"] = sum(fit.failed.values())
            out[f"{name}.failed_by_type"] = dict(sorted(fit.failed.items()))
            not_psd = sum(not _is_psd(linear_inversion(t).entries) for t in fit.tables)
            out[f"{name}.boundary_share"] = not_psd / len(fit.tables) if fit.tables else 0.0
        out["experiment.bootstrap.resamples"] = self.resamples_attempted
        out["experiment.bootstrap.useful"] = self.resamples_useful
        return out

    def self_seconds(self) -> dict[str, float]:
        return {name: self.layers.get(name, LayerStats()).self_s for name in SPAN_LAYERS}


def _is_psd(matrix: np.ndarray) -> bool:
    return bool(np.linalg.eigvalsh(matrix)[0] >= -1e-12)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def patched(tracer: Tracer, sites=PATCH_SITES):
    """Patch every site with a traced wrapper; restore the originals on exit.

    A site whose attribute no longer exists is skipped with a warning, so
    its layer reads zero instead of the pass failing.
    """
    originals = []
    try:
        for owner_name, attr, layer in sites:
            owner = resolve(owner_name)
            original = vars(owner).get(attr)
            if original is None:
                print(f"perfbench: {owner_name}.{attr} not found; layer {layer} untraced",
                      file=sys.stderr)
                continue
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(layer, original))
        yield originals
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def restored(originals) -> bool:
    """True when every patched name is the original object again."""
    return all(vars(owner).get(attr) is original for owner, attr, original in originals)
