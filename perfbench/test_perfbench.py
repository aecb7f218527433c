"""Tests of the benchmark itself: span arithmetic, patching, smoke runs.

Run with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import PATCH_SITES, Tracer, patched, resolve, restored  # noqa: E402
from workloads import CAL_GRID_POINTS, WORKLOADS  # noqa: E402

from telegate import experiment  # noqa: E402
from telegate.experiment import CountTable, simulate_counts  # noqa: E402
from telegate.tomography import linear_inversion, mle_fit, settings_1q, settings_2q  # noqa: E402


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 20] holds middle [1, 11], which holds leaf [2, 5]; then leaf [12, 16]
    tracer = Tracer(clock=_ticks(0.0, 1.0, 2.0, 5.0, 11.0, 12.0, 16.0, 20.0))
    leaf = tracer.wrap("leaf", lambda: None)
    middle = tracer.wrap("middle", leaf)

    def body():
        middle()
        leaf()

    tracer.wrap("outer", body)()
    assert tracer.layers["outer"].self_s == 20.0 - 10.0 - 4.0
    assert tracer.layers["middle"].self_s == 10.0 - 3.0
    assert tracer.layers["leaf"].calls == 2
    assert tracer.layers["leaf"].self_s == 3.0 + 4.0
    assert sum(s.self_s for s in tracer.layers.values()) == 20.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 3.0, 4.0))

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", fail)

    def outer():
        with pytest.raises(ValueError):
            inner()

    tracer.wrap("outer", outer)()
    assert tracer.layers["inner"].self_s == 2.0
    assert tracer.layers["outer"].self_s == 2.0
    assert tracer._open == []


def test_patch_then_restore_every_site():
    before = {(owner, attr): vars(resolve(owner))[attr] for owner, attr, _ in PATCH_SITES}
    with pytest.raises(RuntimeError):
        with patched(Tracer()) as originals:
            assert len(originals) == len(PATCH_SITES)
            for (owner, attr), original in before.items():
                now = vars(resolve(owner))[attr]
                assert now is not original and now.__wrapped__ is original
            raise RuntimeError("restore on the way out")
    assert restored(originals)
    for (owner, attr), original in before.items():
        assert vars(resolve(owner))[attr] is original


def test_missing_site_is_skipped():
    sites = (("telegate.experiment", "no_such_function", "x.y"),) + PATCH_SITES[:1]
    with patched(Tracer(), sites) as originals:
        assert [attr for _, attr, _ in originals] == [PATCH_SITES[0][1]]
    assert restored(originals)
    assert "no_such_function" not in vars(experiment)


def _table(n_qubits, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n_qubits,) * 2) + 1j * rng.normal(size=(2**n_qubits,) * 2)
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    settings = settings_1q() if n_qubits == 1 else settings_2q()
    modes = ("a",) if n_qubits == 1 else ("a", "d")
    return simulate_counts({s.id: s.probabilities(rho) for s in settings}, 500, {}, seed, modes)


def test_fit_wrapper_counts_iterations_and_splits_by_qubits():
    tables = [_table(1, 1), _table(1, 2), _table(2, 3)]
    expected_iters = {}
    for t in tables:
        history = []
        mle_fit(t, trace_nll=history)
        key = len(t.modes)
        expected_iters[key] = expected_iters.get(key, 0) + len(history) - 1
    tracer = Tracer()
    with patched(tracer):
        caller_history = []
        for t in tables:
            experiment.mle_fit(t)
        experiment.mle_fit(tables[0], trace_nll=caller_history)
    counts = tracer.counts()
    assert counts["tomography.mle_fit_1q.calls"] == 3
    assert counts["tomography.mle_fit_2q.calls"] == 1
    first = []
    mle_fit(tables[0], trace_nll=first)
    assert caller_history == first
    assert counts["tomography.mle_fit_1q.iters"] == expected_iters[1] + len(first) - 1
    assert counts["tomography.mle_fit_2q.iters"] == expected_iters[2]
    not_psd = [np.linalg.eigvalsh(linear_inversion(t).entries)[0] < -1e-12 for t in tables]
    assert counts["tomography.mle_fit_1q.boundary_share"] == (
        sum(not_psd[:2]) + not_psd[0]) / 3
    assert len(tracer.fits["tomography.mle_fit_1q"].durations) == 3


def test_fit_wrapper_counts_failures_by_type():
    empty = CountTable(("a",), ())
    tracer = Tracer()
    with patched(tracer):
        with pytest.raises(ValueError):
            experiment.mle_fit(empty)
    assert tracer.fits["tomography.mle_fit_1q"].failed == {"ValueError": 1}
    assert tracer.layers["tomography.mle_fit_1q"].calls == 1


def test_bootstrap_wrapper_counts_useful_resamples():
    tables = {"t": _table(1, 4)}
    calls = []

    def estimator(tabs):
        calls.append(1)
        if len(calls) in (3, 7):  # two of the 100 resamples fail
            raise ValueError("unfit resample")
        return {"x": 1.0}

    tracer = Tracer()
    with patched(tracer):
        experiment._joint_bootstrap(tables, estimator, 100, np.random.SeedSequence(5))
    assert (tracer.resamples_attempted, tracer.resamples_useful) == (100, 98)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    names = [w["name"] for w in spec["workloads"]]
    assert names == [name for name in WORKLOADS if name in names]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_one_op_per_workload(name, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run(capsys):
    assert run.main(["--workload", "calibrate-grid", "--seed", "2", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.per_layer_units())
    assert metrics["experiment.teleport_summary.calls"] == np.prod(CAL_GRID_POINTS)
    assert metrics["tomography.mle_fit_1q.calls"] == metrics["experiment.simulate_counts.calls"] == 0
    assert metrics["cli.main.calls"] == 1
    assert metrics["trace.unattributed_s"] >= 0.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "teleport-cal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
