import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from telegate import cli, experiment, tomography
from telegate.experiment import (
    ConfigError,
    CountTable,
    ExperimentConfig,
    PAPER_SWAP_TARGETS,
    PAPER_TELEPORT_TARGETS,
    calibrate,
    config_from_mapping,
    load_config,
    run_experiment,
    simulate_counts,
    swap_summary,
    teleport_summary,
)
from telegate.gate import GateChannel, ZeroSuccessError, gate_channel
from telegate.metrics import CHSH_OUTCOMES, CHSH_SETTINGS
from telegate.protocols import TILDE_LABELS
from telegate.sources import BELL_AMPLITUDES, SINGLE_QUBIT_AMPLITUDES, InputSpec, make_input
from telegate.tomography import mle_fit, settings_1q
from conftest import (reference_swap_run, reference_swap_summary, reference_teleport_conditionals,
                      reference_teleport_summary, same_bits)

#: Each run's fitted tables, in the order its bootstrap fits them.
FIT_KEYS = {"teleport": experiment.TELEPORT_CELLS,
            "swap": tuple(f"{bell}/tomo" for bell in TILDE_LABELS), "gate-only": ()}
#: Exact-path sample points: 0 and 1 on every axis, the calibrated point in between.
EXACT_AXIS = (0.0, 0.01, 0.14, 0.3, 0.5, 0.77, 0.93, 1.0)
#: A channel that heralds nothing, and one that passes only |HH> (no V probe is heralded).
EMPTY_CHANNEL = GateChannel(kraus=(np.zeros((4, 4), dtype=complex),))
HH_ONLY_CHANNEL = GateChannel(kraus=(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex) / 3.0,))
#: The v = 1 gate with <++| projected out of its output: outcome ++ (phi+) is never heralded,
#: its weight is rounding noise (about 5e-33) where the empty channel's is an exact zero.
_PLUS_PLUS = np.kron(SINGLE_QUBIT_AMPLITUDES["+"], SINGLE_QUBIT_AMPLITUDES["+"])
PHI_PLUS_BLIND_CHANNEL = GateChannel(kraus=(
    (np.eye(4) - np.outer(_PLUS_PLUS, _PLUS_PLUS.conj())) @ gate_channel(1.0).kraus[0],))


def point_estimate_only(tables, fit_keys, figures, n_resamples, seed_seq):
    """A stand-in for the bootstrap core: the ``fit_keys`` tables fitted alone and the figures of
    their states, each entry with error zero; a failing fit or figure raises."""
    states = np.array([mle_fit(tables[key]).entries for key in fit_keys])
    values = figures(states, tables)
    return states, values, {k: np.zeros_like(v).tolist() for k, v in values.items()}


@pytest.fixture
def measured(monkeypatch):
    """Each run's count distributions, as handed to ``_measure``; the bootstrap is cut to
    its point estimate."""
    seen = []
    measure = experiment._measure

    def recording_measure(config, distributions, fit_keys, figures):
        seen.append(distributions)
        return measure(config, distributions, fit_keys, figures)

    monkeypatch.setattr(experiment, "_measure", recording_measure)
    monkeypatch.setattr(experiment, "_bootstrap", point_estimate_only)
    return seen


class TestSimulateCounts:
    def test_deterministic_outcome_up_to_poisson(self):
        table = simulate_counts({"Z": {"+": 1.0, "-": 0.0}}, 1000, {}, seed=4, modes=("a",))
        plus, minus = (table.raw[0, table.outcomes.index(o)] for o in "+-")
        assert minus == 0
        assert abs(plus - 1000) < 5 * np.sqrt(1000)

    def test_uniform_within_five_sigma(self):
        probs = {"s": {o: 0.25 for o in ("a+", "b+", "c+", "d+")}}
        # modes length 2: outcome strings here are just labels
        table = simulate_counts(probs, 1_000_000, {}, seed=8, modes=("m", "n"))
        for corrected in table.corrected.ravel():
            assert abs(corrected - 250_000) < 5 * np.sqrt(250_000)

    def test_efficiency_corrected_unbiased(self):
        probs = {"Z": {"+": 0.5, "-": 0.5}}
        eff = {"a+": 0.5}
        table = simulate_counts(probs, 1_000_000, eff, seed=15, modes=("a",))
        plus, minus = (table.outcomes.index(o) for o in "+-")
        assert table.corrected[0, plus] == table.raw[0, plus] / 0.5
        # corrected counts match the eta=1 expectation within 5 sigma of the
        # inflated Poisson noise
        sigma = np.sqrt(500_000 * 0.5) / 0.5
        assert abs(table.corrected[0, plus] - 500_000) < 5 * sigma
        assert abs(table.corrected[0, minus] - 500_000) < 5 * np.sqrt(500_000)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            simulate_counts({"Z": {"+": 0.7, "-": 0.7}}, 100, {}, seed=0, modes=("a",))

    @pytest.mark.parametrize("dist", [
        {"+": float("nan"), "-": 0.5},
        {"+": float("nan"), "-": float("nan")},
        {"+": float("inf"), "-": -float("inf")},
        {"+": 1.5, "-": -0.5},
    ])
    def test_non_finite_or_negative_distribution_names_setting(self, dist):
        probs = {"Z": {"+": 0.5, "-": 0.5}, "X": dist}
        with pytest.raises(ValueError, match="setting X: "):
            simulate_counts(probs, 100, {}, seed=0, modes=("a",))

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5, float("nan"), float("inf"), True, "0.5", None])
    def test_bad_efficiency_names_detector(self, eta):
        with pytest.raises(ValueError, match=r"efficiency a\+: "):
            simulate_counts({"Z": {"+": 0.5, "-": 0.5}}, 100, {"a+": eta}, seed=0, modes=("a",))
        with pytest.raises(ValueError, match=r"efficiency a\+: "):
            CountTable(("a",), ("Z",), ("+", "-"), np.array([[5, 5]]), {"a+": eta})

    def test_efficiency_of_no_detector_is_named(self):
        # a key that names no detector of the table would otherwise correct nothing
        with pytest.raises(ValueError, match=r"efficiency b\+: no detector"):
            simulate_counts({"Z": {"+": 0.5, "-": 0.5}}, 100, {"b+": 0.5, "a": 0.7}, seed=0,
                            modes=("a",))
        with pytest.raises(ValueError, match=r"efficiency a: no detector"):
            CountTable(("a",), ("Z",), ("+", "-"), np.array([[5, 5]]), {"a+": 0.5, "a": 0.7})

    def test_no_click_names_no_detector(self):
        # the gate-only remainder "00" is no click at all, so "b0" is no detector of the table
        probs = {"coinc": {"HH": 0.1, "HV": 0.1, "VH": 0.1, "VV": 0.1, "00": 0.6}}
        with pytest.raises(ValueError, match=r"efficiency b0: no detector"):
            simulate_counts(probs, 1000, {"b0": 0.5}, 0, ("b", "c"))
        assert simulate_counts(probs, 1000, {"cV": 0.5}, 0, ("b", "c")).eta.tolist() == [
            1.0, 0.5, 1.0, 0.5, 1.0]

    def test_modes_are_checked_once_per_layout(self):
        with pytest.raises(ValueError, match="duplicate"):
            CountTable(("a", "a"), ("ZZ",), ("++",), np.array([[5]]))
        table = CountTable(["a"], ("Z", "X", "Y"), ("+", "-"), np.array([[5, 5], [9, 1], [0, 0]]))
        assert table.modes == ("a",)
        # resampled tables and fitted states reuse the checked labels as they are
        assert table.resample(np.random.default_rng(0)).modes is table.modes
        assert mle_fit(table).labels is table.modes

    @pytest.mark.parametrize("modes, setting_ids, outcomes, bad", [
        (("a", "d"), tuple(CHSH_SETTINGS), CHSH_OUTCOMES, float("nan")),
        (("a", "d"), tuple(CHSH_SETTINGS), CHSH_OUTCOMES, float("inf")),
        (("b", "c"), ("coinc",), ("HH", "HV", "VH", "VV", "00"), -1.0),
    ])
    def test_bad_counts_are_rejected_when_built(self, modes, setting_ids, outcomes, bad):
        # layouts no fit reads: the table itself names the first bad setting
        raw = np.full((len(setting_ids), len(outcomes)), 10.0)
        raw[-1, 1] = bad
        with pytest.raises(ValueError, match=f"setting {setting_ids[-1]}: corrected counts"):
            CountTable(modes, setting_ids, outcomes, raw)

    def test_rounding_noise_about_a_zero_draws_nothing(self):
        # a probability below 1e-15 leaves the stream as an exact zero does
        def draw(noise):
            probs = {"Z": {"+": 1.0, "-": noise}, "X": {"+": 0.5, "-": 0.5},
                     "Y": {"+": 0.5, "-": 0.5}}
            return simulate_counts(probs, 1000, {}, seed=5, modes=("a",)).raw
        assert draw(3e-17).tolist() == draw(0.0).tolist()

    def test_probability_above_rounding_noise_draws(self):
        # 1e-12 at the largest count scale has mean one count per cell: twenty cells draw some
        probs = {f"s{k}": {"+": 1.0 - 1e-12, "-": 1e-12} for k in range(20)}
        table = simulate_counts(probs, experiment.MAX_COUNTS_PER_SETTING, {}, seed=5, modes=("a",))
        assert table.raw[:, 1].sum() > 0

    @pytest.mark.parametrize("n", [0, -3, 2.5, 100.0, float("nan"), True, "100", 10**12 + 1])
    def test_bad_count_scale_is_named(self, n):
        with pytest.raises(ValueError, match="n_per_setting: "):
            simulate_counts({"Z": {"+": 0.5, "-": 0.5}}, n, {}, seed=0, modes=("a",))

    def test_numpy_integer_count_scale(self):
        table = simulate_counts({"Z": {"+": 0.5, "-": 0.5}}, np.int64(100), {"a+": np.float32(0.5)},
                                seed=0, modes=("a",))
        assert table.raw.sum() > 0

    def test_settings_must_share_outcomes(self):
        for other in ({"-": 0.5, "+": 0.5}, {"+": 1.0}, {"+": 0.5, "-": 0.25, "x": 0.25}):
            with pytest.raises(ValueError, match="setting X: outcomes"):
                simulate_counts({"Z": {"+": 0.5, "-": 0.5}, "X": other}, 100, {}, seed=0,
                                modes=("a",))

    def test_grid_draw_matches_cellwise_stream(self):
        # one Poisson call over the grid consumes the stream like one call per cell
        probs = {s: {"+": p, "-": 1 - p} for s, p in (("Z", 0.0), ("X", 0.3), ("Y", 1.0))}
        table = simulate_counts(probs, 700, {"a-": 0.6}, seed=12, modes=("a",))
        rng = np.random.default_rng(12)
        cells = [[rng.poisson(700 * p * (0.6 if o == "-" else 1.0)) for o, p in dist.items()]
                 for dist in probs.values()]
        assert table.raw.tolist() == cells
        resampled = table.resample(np.random.default_rng(4))
        rng = np.random.default_rng(4)
        assert resampled.raw.tolist() == [[rng.poisson(c) for c in row] for row in cells]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.sampled_from([("a",), ("a", "d")]), st.integers(1, 9), st.data(),
           st.integers(0, 2**32 - 1))
    def test_resample_equals_construction(self, modes, n_settings, data, seed):
        # a resample reuses its parent's efficiency vector instead of being constructed
        outcomes = tuple("".join(o) for o in itertools.product("+-", repeat=len(modes)))
        detectors = [f"{m}{c}" for m in modes for c in "+-"]
        efficiencies = data.draw(st.dictionaries(st.sampled_from(detectors), st.floats(0.01, 1.0)))
        row = st.lists(st.integers(0, 10**6), min_size=len(outcomes), max_size=len(outcomes))
        raw = np.array(data.draw(st.lists(row, min_size=n_settings, max_size=n_settings)))
        setting_ids = tuple(f"s{k}" for k in range(n_settings))
        resampled = CountTable(modes, setting_ids, outcomes, raw,
                               efficiencies).resample(np.random.default_rng(seed))
        drawn = np.random.default_rng(seed).poisson(raw)
        built = CountTable(modes, setting_ids, outcomes, drawn, efficiencies)
        for name in ("raw", "eta", "corrected"):
            a, b = getattr(resampled, name), getattr(built, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        for name in ("modes", "settings", "outcomes", "efficiencies"):
            assert getattr(resampled, name) == getattr(built, name)

    def test_unit_efficiency_means_equal_columns(self):
        rho = make_input(InputSpec("R", 0.3))
        probs = {s.id: s.probabilities(rho) for s in settings_1q()}
        table = simulate_counts(probs, 5000, {}, seed=2, modes=("a",))
        assert np.array_equal(table.corrected, table.raw.astype(float))


class TestConfig:
    def test_minimal(self):
        cfg = config_from_mapping({"protocol": "swap"})
        assert cfg.resolved_pair_target() == "phi+"
        assert cfg.counts_per_setting == 1000

    def test_efficiencies_are_read_only(self):
        given = {"cV": 0.5}
        cfg = ExperimentConfig(protocol="gate-only", efficiencies=given)
        with pytest.raises(TypeError):
            cfg.efficiencies["cV"] = 5.0
        given["cV"] = 5.0  # the config holds its own copy
        assert cfg.echo()["efficiencies"] == {"cV": 0.5}
        assert dataclasses.replace(cfg, seed=4).efficiencies == {"cV": 0.5}
        report = run_experiment(dataclasses.replace(cfg, counts_per_setting=100))
        assert report.count_tables["gate/coinc"].efficiencies == {"cV": 0.5}

    def test_teleport_pair_default_is_aligned(self):
        cfg = config_from_mapping({"protocol": "teleport"})
        assert cfg.resolved_pair_target() == "phi+~"

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            config_from_mapping({"protocol": "swap", "overlp": 1.0})

    def test_missing_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            config_from_mapping({})

    def test_range_errors_name_field(self):
        with pytest.raises(ConfigError, match="overlap"):
            config_from_mapping({"protocol": "swap", "overlap": 1.4})
        with pytest.raises(ConfigError, match="counts_per_setting"):
            config_from_mapping({"protocol": "swap", "counts_per_setting": 0})
        with pytest.raises(ConfigError, match="efficiencies.a\\+"):
            config_from_mapping({"protocol": "swap", "efficiencies": {"a+": 0.0}})
        bad = [
            ("pair_target", "nope"), ("pair_target", 3), ("seed", -1), ("seed", True),
            ("bootstrap_resamples", 150.5), ("bootstrap_resamples", True),
            ("bootstrap_resamples", experiment.MAX_BOOTSTRAP_RESAMPLES + 1),
            ("counts_per_setting", True), ("counts_per_setting", 10**20),
            ("counts_per_setting", experiment.MAX_COUNTS_PER_SETTING + 1),
            ("overlap", True), ("pair_mixedness", False),
            ("gate_input", 12), ("out", 5),
        ]
        for name, value in bad:
            with pytest.raises(ConfigError, match=name):
                config_from_mapping({"protocol": "swap", name: value})

    def test_efficiency_keys_per_protocol(self):
        for protocol, key in (("teleport", "d+"), ("swap", "x9"), ("swap", "bH"),
                              ("gate-only", "a+")):
            with pytest.raises(ConfigError, match=f"efficiencies.{key}"):
                config_from_mapping({"protocol": protocol, "efficiencies": {key: 0.9}})
        for protocol, keys in experiment.EFFICIENCY_KEYS.items():
            cfg = config_from_mapping({"protocol": protocol,
                                       "efficiencies": dict.fromkeys(keys, 0.9)})
            assert set(cfg.efficiencies) == set(keys)

    def test_unread_fields_rejected(self, tmp_path, capsys):
        unread = {"gate-only": ("pair_target", "pair_mixedness", "input_mixedness"),
                  "teleport": ("gate_input",),
                  "swap": ("gate_input", "input_mixedness")}
        valid = {"pair_target": "phi+", "pair_mixedness": 0.1, "input_mixedness": 0.1,
                 "gate_input": "HV"}
        cfg = tmp_path / "cfg.yaml"
        for protocol, names in unread.items():
            for name in names:
                with pytest.raises(ConfigError, match=name):
                    config_from_mapping({"protocol": protocol, name: valid[name]})
                cfg.write_text(yaml.safe_dump({"protocol": protocol, name: valid[name]}))
                assert cli.main(["run", str(cfg)]) == 2
                assert name in capsys.readouterr().err
            read = {name: valid[name] for name in valid if name not in names}
            assert config_from_mapping({"protocol": protocol, **read}).protocol == protocol
            # built directly, a config rejects unread fields that differ from their default
            for name in names:
                with pytest.raises(ConfigError, match=name):
                    ExperimentConfig(protocol=protocol, **{name: valid[name]})
            defaults = ExperimentConfig(protocol="teleport")
            kept = {name: getattr(defaults, name) for name in names}
            assert ExperimentConfig(protocol=protocol, **kept).protocol == protocol

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("protocol: teleport\noverlap: 0.9\nseed: 3\n")
        cfg = load_config(str(path))
        assert cfg.overlap == 0.9 and cfg.seed == 3

    def test_yaml_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.yaml")


class TestExactSummaries:
    def test_ideal_teleport(self):
        s = teleport_summary(1.0)
        for key in ("F_H", "F_V", "F_+", "F_R"):
            assert s[key] == pytest.approx(1.0, abs=1e-10)
        assert s["F_p"] == pytest.approx(1.0, abs=1e-9)

    def test_ideal_swap(self):
        s = swap_summary(1.0)
        assert s["F_avg"] == pytest.approx(1.0, abs=1e-10)
        assert s["N_avg"] == pytest.approx(1.0, abs=1e-10)
        assert s["S_abs_avg"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_plus_and_r_equal_by_symmetry(self):
        s = teleport_summary(0.8)
        assert s["F_+"] == pytest.approx(s["F_R"], abs=1e-10)


class TestRunExperiment:
    def test_teleport_statistics(self):
        cfg = ExperimentConfig(protocol="teleport", overlap=1.0,
                               counts_per_setting=20_000, seed=101)
        rep = run_experiment(cfg)
        for name, blk in rep.results["inputs"].items():
            assert blk["fidelity"] >= 0.99, name
        assert rep.results["process_fidelity"] >= 0.98

    def test_swap_statistics(self):
        cfg = ExperimentConfig(protocol="swap", overlap=1.0,
                               counts_per_setting=20_000, seed=103)
        rep = run_experiment(cfg)
        for label, o in rep.results["outcomes"].items():
            assert o["fidelity"] >= 0.99, label
            assert o["log_negativity"] >= 0.97, label
            assert o["chsh_abs"] >= 2.8, label

    def test_gate_only_distinguishable(self):
        cfg = ExperimentConfig(protocol="gate-only", overlap=0.0, gate_input="VV",
                               counts_per_setting=200_000, seed=17)
        rep = run_experiment(cfg)
        res = rep.results
        assert res["success_probability_exact"] == pytest.approx(5 / 9, abs=1e-12)
        assert abs(res["success_probability"] - 5 / 9) <= 3 * res["success_probability_err"]

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(protocol="swap", overlap=0.9, pair_mixedness=0.05,
                               counts_per_setting=300, seed=42)
        a, b = run_experiment(cfg), run_experiment(cfg)
        assert a.to_json() == b.to_json()
        assert a.counts_csv() == b.counts_csv()

    def test_gate_only_bootstrap_stream_is_not_the_counts_stream(self, monkeypatch):
        seen = []
        simulate, resample = experiment.simulate_counts, CountTable.resample

        def traced_simulate(probabilities, n, efficiencies, seed, *args, **kwargs):
            seen.append(("counts", np.random.default_rng(seed).bit_generator.state))
            return simulate(probabilities, n, efficiencies, seed, *args, **kwargs)

        def traced_resample(table, rng):
            seen.append(("resample", rng.bit_generator.state))
            return resample(table, rng)

        monkeypatch.setattr(experiment, "simulate_counts", traced_simulate)
        monkeypatch.setattr(CountTable, "resample", traced_resample)
        run_experiment(ExperimentConfig(protocol="gate-only", counts_per_setting=500, seed=1))
        (kind, counts_state), (first_kind, first_state) = seen[:2]
        assert (kind, first_kind) == ("counts", "resample")
        assert first_state != counts_state

    @pytest.mark.parametrize("protocol", experiment.PROTOCOLS)
    def test_each_run_bootstraps_once(self, protocol, monkeypatch):
        calls = []

        def recording_bootstrap(tables, fit_keys, figures, n_resamples, seed_seq):
            calls.append((sorted(tables), tuple(fit_keys)))
            return point_estimate_only(tables, fit_keys, figures, n_resamples, seed_seq)

        monkeypatch.setattr(experiment, "_bootstrap", recording_bootstrap)
        rep = run_experiment(ExperimentConfig(protocol=protocol, counts_per_setting=500, seed=3))
        assert calls == [(sorted(rep.count_tables), FIT_KEYS[protocol])]

    @pytest.mark.parametrize("n_resamples, calls", [(100, 26), (101, 27)])
    @pytest.mark.parametrize("protocol", ["teleport", "swap"])
    def test_each_group_of_resamples_fits_in_one_call(self, protocol, n_resamples, calls,
                                                      monkeypatch):
        # one _fit_stack call for the point estimate, then one per group of 4 resamples, whose
        # last may hold fewer; mle_fit is off the run path
        sizes = []
        fit_stack = experiment._fit_stack

        def counting_fit_stack(tables, *args):
            sizes.append(len(tables))
            return fit_stack(tables, *args)

        def never(*args, **kwargs):
            raise AssertionError("a run fits through _fit_stack")

        monkeypatch.setattr(experiment, "_fit_stack", counting_fit_stack)
        for module in (experiment, tomography):
            monkeypatch.setattr(module, "mle_fit", never)
        run_experiment(ExperimentConfig(protocol=protocol, counts_per_setting=500, seed=3,
                                        bootstrap_resamples=n_resamples))
        groups = [1] + [4] * (n_resamples // 4) + [n_resamples % 4] * (n_resamples % 4 > 0)
        assert len(sizes) == len(groups) == calls
        assert sizes == [len(FIT_KEYS[protocol]) * k for k in groups]

    @pytest.mark.parametrize("protocol, efficiencies", [
        ("teleport", {"a-": 0.8}), ("swap", {"d+": 0.7}), ("gate-only", {"cV": 0.5})],
        ids=experiment.PROTOCOLS)
    def test_table_k_draws_from_child_k_of_the_counts_stream(self, protocol, efficiencies,
                                                              measured):
        report = run_experiment(ExperimentConfig(protocol=protocol, counts_per_setting=300,
                                                 efficiencies=efficiencies, seed=11))
        (distributions,) = measured
        children = np.random.SeedSequence(11).spawn(2)[0].spawn(len(distributions))
        assert list(report.count_tables) == list(distributions)
        for (key, (modes, dists)), child in zip(distributions.items(), children):
            want = simulate_counts(dists, 300, efficiencies, child, modes)
            assert same_bits(report.count_tables[key].raw, want.raw), key

    def test_teleport_probability_weights_are_per_probe(self, measured):
        point = (0.93, 0.01, 0.14)
        report = run_experiment(ExperimentConfig(
            protocol="teleport", overlap=point[0], pair_mixedness=point[1],
            input_mixedness=point[2], counts_per_setting=300, seed=4))
        exact = teleport_summary(*point)["per_outcome"]
        for probe, block in report.results["inputs"].items():
            weights = [row["probability_weight"] for row in block["outcomes"].values()]
            probabilities = [exact[probe][bell]["probability"] for bell in block["outcomes"]]
            assert sum(weights) == pytest.approx(1.0, abs=1e-15), probe
            assert weights == pytest.approx([p / sum(probabilities) for p in probabilities],
                                            abs=1e-15), probe

    def test_swap_average_log_negativity_is_the_outcome_mean(self, measured):
        report = run_experiment(ExperimentConfig(protocol="swap", overlap=0.93,
                                                 pair_mixedness=0.01, counts_per_setting=300,
                                                 seed=4))
        values = [row["log_negativity"] for row in report.results["outcomes"].values()]
        assert len(set(values)) == 4  # no one outcome's value is the mean
        assert abs(report.results["average_log_negativity"] - np.mean(values)) <= 1e-15

    def test_gate_only_success_probability_reads_corrected_counts(self):
        # raw coincidences would put it at about half the exact value
        res = run_experiment(ExperimentConfig(protocol="gate-only", gate_input="VV",
                                              efficiencies={"cV": 0.5},
                                              counts_per_setting=10**6, seed=6)).results
        assert abs(res["success_probability"] - res["success_probability_exact"]) <= (
            5 * res["success_probability_err"])

    def test_report_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(protocol="gate-only", counts_per_setting=1000,
                               seed=1, out=str(out))
        run_experiment(cfg)
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["protocol"] == "gate-only"
        assert data["version"]
        header = (tmp_path / "run.counts.csv").read_text().splitlines()[0]
        assert header == "table,modes,setting,outcome,raw,corrected"

    def test_large_count_reconstruction(self):
        # statistical recovery at one million events per setting
        from telegate.protocols import tilde_bell
        from telegate.tomography import settings_2q
        from telegate.metrics import fidelity_pure

        target = tilde_bell("psi+", ("a", "d"))
        probs = {s.id: s.probabilities(target.density()) for s in settings_2q()}
        table = simulate_counts(probs, 1_000_000, {}, seed=23, modes=("a", "d"))
        rho = mle_fit(table)
        assert fidelity_pure(rho, target) >= 0.999


class TestOffIdealConvergence:
    """Teleport and swap runs, 1e6 counts per setting, land on the exact figures away from v = 1."""

    POINTS = ((0.672, 0.192, 0.140), (0.748, 0.106, 0.237), (0.962, 0.053, 0.196),
              (0.719, 0.290, 0.276))

    @pytest.mark.parametrize("seed, point", list(zip(range(100, 104), POINTS)))
    def test_teleport_within_six_error_bars(self, seed, point):
        v, lp, li = point
        res = run_experiment(ExperimentConfig(
            protocol="teleport", overlap=v, pair_mixedness=lp, input_mixedness=li,
            counts_per_setting=10**6, seed=seed)).results
        exact = teleport_summary(v, lp, li)
        figures = [(f"F_{name}", blk["fidelity"], blk["fidelity_err"])
                   for name, blk in res["inputs"].items()]
        figures.append(("F_p", res["process_fidelity"], res["process_fidelity_err"]))
        for key, value, err in figures:
            assert 0.0 < err <= 0.01, (key, err)
            assert abs(value - exact[key]) <= 6.0 * err, (key, value, exact[key], err)

    # entangled points: a separable state's log negativity is a clamped 0 with no error bar
    @pytest.mark.parametrize("seed, point", [(201, (0.85, 0.05)), (202, (0.90, 0.12))])
    def test_swap_within_six_error_bars(self, seed, point):
        v, lp = point
        res = run_experiment(ExperimentConfig(
            protocol="swap", overlap=v, pair_mixedness=lp, counts_per_setting=10**6,
            seed=seed)).results
        exact = swap_summary(v, lp)
        assert all(o["log_negativity"] > 0 for o in exact["outcomes"].values())
        figures = [(f"{bell}/{key}", blk[key], blk[f"{key}_err"], exact["outcomes"][bell][key])
                   for bell, blk in res["outcomes"].items()
                   for key in ("fidelity", "chsh", "log_negativity")]
        figures += [(key, res[key], res[f"{key}_err"], exact[name])
                    for key, name in (("average_fidelity", "F_avg"),
                                      ("average_chsh_abs", "S_abs_avg"))]
        for key, value, err, truth in figures:
            assert 0.0 < err <= 0.01, (key, err)
            assert abs(value - truth) <= 6.0 * err, (key, value, truth, err)


class TestTeleportEstimatorAudit:
    """The teleport figures and their bootstrap errors over 20 seeded runs, against the exact truth.

    Each seed runs the calibrated point with 56 counts per setting and 100
    resamples. Per figure, the mean over seeds lies within 3 standard errors
    of the exact value and the mean reported error is within a factor of
    about 1.6 of the spread over seeds; the reported 1-sigma intervals cover
    the exact value in 50-85% of the 100 (seed, figure) pairs.
    """

    SEEDS = range(1, 21)

    def test_bias_error_scale_and_coverage(self):
        truth = teleport_summary(0.93, 0.01, 0.14)
        names = ("H", "V", "+", "R")
        values, errors = [], []
        for seed in self.SEEDS:
            res = run_experiment(ExperimentConfig(
                protocol="teleport", overlap=0.93, pair_mixedness=0.01, input_mixedness=0.14,
                counts_per_setting=56, bootstrap_resamples=100, seed=seed)).results
            blocks = [res["inputs"][name] for name in names]
            values.append([b["fidelity"] for b in blocks] + [res["process_fidelity"]])
            errors.append([b["fidelity_err"] for b in blocks] + [res["process_fidelity_err"]])
        values, errors = np.array(values), np.array(errors)
        exact = np.array([truth[f"F_{name}"] for name in names] + [truth["F_p"]])
        sd = values.std(axis=0, ddof=1)
        n = len(self.SEEDS)
        assert np.all(np.abs(values.mean(axis=0) - exact) <= 3.0 * sd / np.sqrt(n)), values.mean(0)
        ratio = errors.mean(axis=0) / sd
        assert np.all((0.6 <= ratio) & (ratio <= 1.6)), ratio
        coverage = np.mean(np.abs(values - exact) <= errors)
        assert 0.50 <= coverage <= 0.85, coverage


class TestCalibrate:
    def test_ideal_targets_recover_ideal_point(self):
        targets = {"F_H": 1.0, "F_V": 1.0, "F_+": 1.0, "F_R": 1.0, "F_p": 1.0}
        res = calibrate(targets, overlap_grid=(0.9, 1.0), pair_grid=(0.0, 0.1),
                        input_grid=(0.0, 0.1))
        assert res.overlap == 1.0
        assert res.pair_mixedness == 0.0
        assert res.input_mixedness == 0.0
        assert res.residual == pytest.approx(0.0, abs=1e-18)

    def test_isotropic_noise_alone_cannot_split_h_and_v(self):
        # with perfect interference every probe degrades identically, so the
        # paper's asymmetric fidelities stay out of reach
        res = calibrate(PAPER_TELEPORT_TARGETS, overlap_grid=(1.0,),
                        pair_grid=np.linspace(0, 0.3, 16),
                        input_grid=np.linspace(0, 0.3, 16))
        assert res.predictions["F_H"] == pytest.approx(res.predictions["F_V"], abs=1e-9)
        assert res.residual > 0.005

    def test_swap_targets_accepted(self):
        targets = dict(PAPER_TELEPORT_TARGETS)
        targets.update(PAPER_SWAP_TARGETS)
        res = calibrate(targets, overlap_grid=(0.93,), pair_grid=(0.0, 0.01),
                        input_grid=(0.14,))
        assert set(res.predictions) >= set(targets)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown calibration target"):
            calibrate({"F_X": 1.0}, overlap_grid=(1.0,))

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate({"F_H": 1.0}, overlap_grid=())

    def test_no_targets(self):
        # no target would make every grid point's residual the int 0, and the first point win
        with pytest.raises(ValueError, match="^calibration targets must be non-empty$"):
            calibrate({}, overlap_grid=(0.9, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "0.9", None,
                                     True, 0.9 + 0j])
    def test_non_finite_or_non_real_target_is_named(self, bad):
        with pytest.raises(ValueError, match="calibration target 'F_V'"):
            calibrate({"F_H": 0.9, "F_V": bad}, overlap_grid=(1.0,))

    @pytest.mark.parametrize("axis", ["overlap_grid", "pair_grid", "input_grid"])
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_grid_values_outside_the_unit_interval_name_the_axis(self, axis, bad):
        grids = {"overlap_grid": (0.9, 1.0), "pair_grid": (0.0, 0.1), "input_grid": (0.0, 0.1)}
        grids[axis] = (0.5, bad)
        with pytest.raises(ValueError, match=f"{axis}: must lie in \\[0, 1\\], got {bad}"):
            calibrate({"F_H": 0.9, "F_swap_avg": 0.8}, **grids)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_summaries_check_their_mixednesses(self, bad):
        for summary, args in ((teleport_summary, (bad, 0.0)), (teleport_summary, (0.0, bad)),
                              (swap_summary, (bad,))):
            with pytest.raises(ValueError, match="mixedness: must lie in"):
                summary(0.9, *args)


class TestExactGrids:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.floats(0.0, 1.0), st.sampled_from(sorted(BELL_AMPLITUDES)), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_teleport_conditionals_match_checked_sources(self, v, target, lp, li):
        channel = gate_channel(v)
        got = experiment._teleport_conditionals(channel, target, lp, li)
        want = reference_teleport_conditionals(channel, target, lp, li)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_teleport_summary_is_the_per_call_path(self):
        for v, lp, li in itertools.product(EXACT_AXIS, repeat=3):
            got, want = teleport_summary(v, lp, li), reference_teleport_summary(v, lp, li)
            matrix, want_matrix = got.pop("process_matrix"), want.pop("process_matrix")
            assert list(got) == list(want) and got == want, (v, lp, li)
            assert np.array_equal(matrix.entries, want_matrix.entries), (v, lp, li)

    def test_swap_summary_is_the_per_call_path(self):
        for v, lp in itertools.product(EXACT_AXIS, repeat=2):
            got, want = swap_summary(v, lp), reference_swap_summary(v, lp)
            for bell, row in got["outcomes"].items():
                state, want_state = row.pop("state"), want["outcomes"][bell].pop("state")
                assert same_bits(state.entries, want_state.entries), (v, lp, bell)
            assert got == want, (v, lp)

    def test_gate_channel_grids_herald_every_cell(self):
        # every cell of weight at least 1/36, so no gate_channel grid raises ZeroSuccessError
        for v in np.linspace(0.0, 1.0, 11).tolist():
            channel = gate_channel(v)
            for target in BELL_AMPLITUDES:
                for lp, li in itertools.product((0.0, 0.5, 1.0), repeat=2):
                    weights = experiment._teleport_conditionals(channel, target, lp, li)[0]
                    assert weights.min() >= (1.0 - 1e-12) / 36.0, (v, target, lp, li)
                weights = experiment._swap_grid(channel, np.linspace(0.0, 1.0, 5), target)[0]
                assert weights.min() >= (1.0 - 1e-12) / 36.0, (v, target)

    def test_swap_run_is_the_object_api_path(self, measured, monkeypatch):
        # the run's count distributions, in counting order, and its outcomes' probabilities and
        # product results are those of make_pair -> swap() -> each outcome's conditional state
        def never(*args):
            raise AssertionError("the swap run reads its states from _swap_grid")

        for name in ("make_pair", "swap"):  # imported there for the benchmark's tracer only
            monkeypatch.setattr(experiment, name, never)
        for target, v, lp in itertools.product(("phi+", "psi-", "phi+~", "psi+~"),
                                               (0.0, 0.5, 0.93, 1.0), (0.0, 0.01, 0.3, 1.0)):
            report = run_experiment(ExperimentConfig(protocol="swap", overlap=v, pair_mixedness=lp,
                                                     pair_target=target, seed=5))
            result, want = reference_swap_run(gate_channel(v), target, lp)
            got = measured.pop()
            assert list(got.items()) == list(want.items()), (target, v, lp)
            assert [(bell, row["product_result"], row["probability"])
                    for bell, row in report.results["outcomes"].items()] == [
                (o.bell_label, o.product_result, o.probability) for o in result.outcomes]

    def test_calibrate_swap_predictions_are_swap_summaries(self):
        # targets at each (overlap, pair) point pick it out of the grid, whose swap figures
        # come from one stacked evaluation per overlap
        overlaps, pairs = (0.86, 0.93, 1.0), tuple(np.linspace(0.0, 0.2, 6).tolist())
        for v, lp in itertools.product(overlaps, pairs):
            exact = swap_summary(v, lp)
            targets = {"F_swap_avg": exact["F_avg"], "S_abs_avg": exact["S_abs_avg"]}
            res = calibrate(targets, overlaps, pairs)
            assert (res.overlap, res.pair_mixedness) == (v, lp)
            assert abs(res.predictions["F_swap_avg"] - exact["F_avg"]) <= 1e-15
            assert abs(res.predictions["S_abs_avg"] - exact["S_abs_avg"]) <= 1e-15


class TestUnheraldedCells:
    """An exact grid with a cell of weight at most 1e-15 raises ZeroSuccessError naming it."""

    def test_teleport_summary_of_an_empty_channel(self):
        with pytest.raises(ZeroSuccessError, match=r"analyzer cell \(0, 0\) \(outcome phi\+\)"):
            teleport_summary(EMPTY_CHANNEL)

    def test_swap_summary_of_an_empty_channel(self):
        with pytest.raises(ZeroSuccessError, match=r"analyzer cell \(0,\) \(outcome phi\+\)"):
            swap_summary(EMPTY_CHANNEL)

    def test_teleport_summary_names_the_first_unheralded_probe(self):
        # |HH> alone passes: the V probe (row 1) is never heralded, the H probe is
        with pytest.raises(ZeroSuccessError, match=r"analyzer cell \(1, 0\) \(outcome phi\+\)"):
            teleport_summary(HH_ONLY_CHANNEL, 0.0, 0.0)
        assert swap_summary(HH_ONLY_CHANNEL)["success_probability"] > 0.0

    @pytest.mark.parametrize("targets", [{"F_H": 0.9}, {"F_H": 0.9, "F_swap_avg": 0.8}])
    def test_calibrate_raises(self, targets, monkeypatch):
        monkeypatch.setattr(experiment, "gate_channel", lambda v: EMPTY_CHANNEL)
        with pytest.raises(ZeroSuccessError, match="analyzer cell"):
            calibrate(targets, overlap_grid=(0.9,), pair_grid=(0.0,), input_grid=(0.0,))


    @pytest.mark.parametrize("channel", [EMPTY_CHANNEL, PHI_PLUS_BLIND_CHANNEL])
    def test_swap_run_is_a_numerical_failure(self, channel, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "gate_channel", lambda v: channel)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: swap\ncounts_per_setting: 100\n")
        assert cli.main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: analyzer cell (0,) (outcome phi+) has weight"), err

    @pytest.mark.parametrize("targets", ["{F_H: 0.9}", "{F_H: 0.9, F_swap_avg: 0.8}"])
    def test_calibrate_command_is_a_numerical_failure(self, targets, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.setattr(experiment, "gate_channel", lambda v: PHI_PLUS_BLIND_CHANNEL)
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(f"targets: {targets}\ngrid: {{overlap: [0.9, 1.0, 2]}}\n")
        assert cli.main(["calibrate", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: analyzer cell (0, 0) (outcome phi+)"), err


class TestCalibrateScan:
    """Points are scanned in (overlap, pair, input) order; a later point wins only by > 1e-15."""

    @staticmethod
    def midway(key, first, second):
        # a target halfway between two points' values: their residuals tie to rounding
        return {key: 0.5 * (teleport_summary(*first)[key] + teleport_summary(*second)[key])}

    def test_overlap_is_the_outer_axis(self):
        # (1.0, 0.1) precedes (0.95, 0.0) in (overlap, pair) order, not in (pair, overlap) order
        targets = self.midway("F_V", (1.0, 0.1, 0.0), (0.95, 0.0, 0.0))
        res = calibrate(targets, (1.0, 0.95), (0.0, 0.1), (0.0,))
        assert (res.overlap, res.pair_mixedness, res.input_mixedness) == (1.0, 0.1, 0.0)
        res = calibrate(targets, (0.95, 1.0), (0.0, 0.1), (0.0,))
        assert (res.overlap, res.pair_mixedness, res.input_mixedness) == (0.95, 0.0, 0.0)

    def test_pair_is_outside_input(self):
        # at v = 1 the two mixednesses degrade the teleported qubit alike: (0, 0.1) ties (0.1, 0)
        targets = {key: teleport_summary(1.0, 0.0, 0.1)[key] for key in PAPER_TELEPORT_TARGETS}
        res = calibrate(targets, (1.0,), (0.0, 0.1), (0.0, 0.1))
        assert (res.pair_mixedness, res.input_mixedness) == (0.0, 0.1)
        res = calibrate(targets, (1.0,), (0.1, 0.0), (0.1, 0.0))
        assert (res.pair_mixedness, res.input_mixedness) == (0.1, 0.0)

    def test_duplicated_values_keep_the_first_point(self):
        targets = dict(PAPER_TELEPORT_TARGETS, **PAPER_SWAP_TARGETS)
        single = calibrate(targets, (0.93,), (0.01,), (0.14,))
        res = calibrate(targets, (0.93, 0.93), (0.01, 0.01, 0.01), (0.14, 0.14))
        assert res == single

    def test_ties_hold_within_1e_15(self):
        # the second overlap matches F_V exactly; the first misses it by 1.9e-9 (residual
        # 3.6e-18) and keeps its place, while a 1.9e-6 miss (residual 3.6e-12) does not
        for step, winner in ((1e-9, 0.9), (1e-6, 0.9 + 1e-6)):
            targets = {"F_V": teleport_summary(0.9 + step)["F_V"]}
            assert calibrate(targets, (0.9, 0.9 + step)).overlap == winner

    def test_teleport_targets_predict_the_six_teleport_keys(self):
        res = calibrate(PAPER_TELEPORT_TARGETS, (0.9, 1.0), (0.0, 0.1), (0.0, 0.1))
        assert list(res.predictions) == ["F_H", "F_V", "F_+", "F_R", "F_p", "F_avg"]
        res = calibrate(dict(PAPER_TELEPORT_TARGETS, **PAPER_SWAP_TARGETS), (0.9, 1.0))
        assert list(res.predictions) == ["F_H", "F_V", "F_+", "F_R", "F_p", "F_avg",
                                         "F_swap_avg", "S_abs_avg"]


class TestCli:
    def test_gate_table_text(self, capsys):
        assert cli.main(["gate-table"]) == 0
        out = capsys.readouterr().out
        assert "-VV" in out and "0.111111" in out

    def test_gate_table_json(self, capsys):
        assert cli.main(["gate-table", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        rows = {r["input"]: r for r in data["truth_table"]}
        assert rows["VV"]["output"] == "-VV"
        assert rows["HH"]["success_probability"] == pytest.approx(1 / 9, abs=1e-12)

    def test_run_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: gate-only\ncounts_per_setting: 2000\nseed: 9\n")
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "r"), "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 9
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.counts.csv").exists()

    def test_run_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: gate-only\ncounts_per_setting: 500\nseed: 1\n")
        cli.main(["run", str(cfg), "--seed", "77"])
        assert json.loads(capsys.readouterr().out)["seed"] == 77

    def test_run_csv_format(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: gate-only\ncounts_per_setting: 500\nseed: 1\n")
        assert cli.main(["run", str(cfg), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("table,modes,setting,outcome,raw,corrected")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("protocol: warp\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert cli.main(["run", str(tmp_path / "missing.yaml")]) == 2

    def test_directory_as_config_exit_code(self, tmp_path, capsys):
        for command in ("run", "calibrate"):
            assert cli.main([command, str(tmp_path)]) == 2, command
            assert str(tmp_path) in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setitem(experiment._RUNNERS, "gate-only", never)
        monkeypatch.setattr(cli, "calibrate", never)
        run_cfg = tmp_path / "cfg.yaml"
        run_cfg.write_text("protocol: gate-only\ncounts_per_setting: 100\n")
        cal_cfg = tmp_path / "cal.yaml"
        cal_cfg.write_text("targets: {F_H: 0.9}\n")
        missing = tmp_path / "missing"
        (tmp_path / "o.counts.csv").mkdir()
        for argv, path in (
                (["run", str(run_cfg), "--out", str(missing / "x")], missing / "x"),
                (["run", str(run_cfg), "--out", str(tmp_path / "o")], tmp_path / "o.counts.csv"),
                (["calibrate", str(cal_cfg), "--out", str(missing / "x.json")], missing / "x.json"),
                (["calibrate", str(cal_cfg), "--out", str(tmp_path)], tmp_path)):
            assert cli.main(argv) == 2, argv
            assert str(path) in capsys.readouterr().err, argv
        assert not missing.exists() and not (tmp_path / "o.json").exists()

    def test_empty_out_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setitem(experiment._RUNNERS, "gate-only", never)
        monkeypatch.setattr(cli, "calibrate", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text("protocol: gate-only\n")
        (tmp_path / "empty.yaml").write_text("protocol: gate-only\nout: ''\n")
        (tmp_path / "cal.yaml").write_text("targets: {F_H: 0.9}\n")
        for argv in (["run", "empty.yaml"], ["run", "cfg.yaml", "--out", ""],
                     ["calibrate", "cal.yaml", "--out", ""]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("config error: out: "), argv
        assert sorted(os.listdir(tmp_path)) == ["cal.yaml", "cfg.yaml", "empty.yaml"]
        with pytest.raises(ConfigError, match="out: "):
            ExperimentConfig(protocol="gate-only", out="")

    def test_invalid_field_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        for line in ("pair_target: nope", "pair_target: 3", "seed: -1", "seed: true",
                     "bootstrap_resamples: 150.5", "bootstrap_resamples: 100001",
                     "efficiencies: {x9: 0.9}"):
            cfg.write_text(f"protocol: gate-only\n{line}\n")
            assert cli.main(["run", str(cfg)]) == 2, line
            assert line.split(":")[0] in capsys.readouterr().err
        cfg.write_text("protocol: gate-only\ncounts_per_setting: 100\n")
        assert cli.main(["run", str(cfg), "--seed", "-1"]) == 2

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch, capsys):
        from telegate.tomography import FitError
        from telegate.states import DensityMatrix

        def boom(config):
            raise FitError("stalled", DensityMatrix(np.eye(2) / 2))

        monkeypatch.setattr(cli, "run_experiment", boom)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: teleport\n")
        assert cli.main(["run", str(cfg)]) == 3

    def test_fit_iteration_cap_exit_code(self, tmp_path, monkeypatch, capsys):
        from telegate import tomography

        monkeypatch.setattr(tomography, "_MAX_ITERS", 2)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: swap\ncounts_per_setting: 1000\n")
        assert cli.main(["run", str(cfg)]) == 3
        assert "no convergence after 2 iterations" in capsys.readouterr().err

    def test_runs_and_fits_never_load_scipy(self, tmp_path):
        teleport, swap = tmp_path / "teleport.yaml", tmp_path / "swap.yaml"
        teleport.write_text("protocol: teleport\ncounts_per_setting: 100\n")
        swap.write_text("protocol: swap\ncounts_per_setting: 100\n")
        code = "\n".join([
            "import contextlib, io, sys",
            "import numpy as np",
            "import telegate.cli as cli",
            "from telegate.experiment import CountTable",
            "from telegate.tomography import mle_fit, settings_2q",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['gate-table', '--format', 'csv']) == 0",
            f"    assert cli.main(['run', {str(teleport)!r}]) == 0",
            f"    assert cli.main(['run', {str(swap)!r}]) == 0",
            "ids = tuple(s.id for s in settings_2q())",
            "raw = np.arange(36.0).reshape(9, 4)",
            "mle_fit(CountTable(('a', 'd'), ids, ('++', '+-', '-+', '--'), raw))",
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
        ])
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command, config, out, written", [
        ("calibrate", "targets: {F_H: 0.93, F_p: 0.75}\ngrid:\n  overlap: [0.9, 1.0, 2]\n"
         "  pair_mixedness: [0.0, 0.1, 2]\n  input_mixedness: [0.0, 0.1, 2]\n",
         "cal.csv", "cal.csv"),
        ("run", "protocol: gate-only\ncounts_per_setting: 100\nseed: 1\n", "rep", "rep.counts.csv"),
    ], ids=["calibrate", "run"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_quietly(self, command, config, out, written, unbuffered,
                                         tmp_path):
        # block-buffered stdout fails at the final flush, unbuffered at the first write
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "telegate.cli", command, str(cfg), "--format", "csv",
                 "--out", str(tmp_path / out)],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=300)
        finally:
            os.close(write)
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr
        assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 1, proc.stderr
        assert (tmp_path / written).stat().st_size > 0

    @pytest.mark.parametrize("protocol", ["teleport", "swap"])
    def test_count_starved_run_is_a_numerical_failure(self, protocol, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"protocol: {protocol}\ncounts_per_setting: 1\n")
        assert cli.main(["run", str(cfg)]) == 3
        assert "cannot be fitted" in capsys.readouterr().err

    def test_oversized_counts_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("protocol: gate-only\ncounts_per_setting: 100000000000000000000\n")
        assert cli.main(["run", str(cfg)]) == 2
        assert "counts_per_setting" in capsys.readouterr().err

    def test_calibrate_command(self, tmp_path, capsys):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(
            "targets: {F_H: 1.0, F_V: 1.0, F_p: 1.0}\n"
            "grid:\n"
            "  overlap: [0.9, 1.0, 2]\n"
            "  pair_mixedness: [0.0, 0.1, 2]\n"
            "  input_mixedness: [0.0, 0.1, 2]\n")
        assert cli.main(["calibrate", str(cfg)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overlap"] == 1.0
        assert data["residual"] == pytest.approx(0.0, abs=1e-15)

    def test_calibrate_bad_targets(self, tmp_path, capsys):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text("grid: {}\n")
        assert cli.main(["calibrate", str(cfg)]) == 2

    def test_calibrate_bad_values_name_field(self, tmp_path, capsys):
        cfg = tmp_path / "cal.yaml"
        grid = "grid: {overlap: %s, pair_mixedness: [0, 0.1, 2], input_mixedness: [0, 0.1, 2]}\n"
        cases = [(f"targets: {{F_H: {t}}}\n" + grid % "[0.9, 1.0, 2]", "targets.F_H")
                 for t in (".nan", ".inf", "-.inf", "true", "1e200", "-0.5", "'0.9'")]
        cases += [("targets: {F_H: 0.9}\n" + grid % g, "grid.overlap")
                  for g in ("[0.9, 1.0, true]", "[0.9, 1.0, 2.7]", "[.nan, 1.0, 2]",
                            "[0.9, .inf, 2]", "[1.5, 1.0, 2]", "[0.9, 1.0, 0]",
                            "[0.9, 1.0, 1001]", "[0.9, 1.0]", "0.9")]
        for text, field_name in cases:
            cfg.write_text(text)
            assert cli.main(["calibrate", str(cfg)]) == 2, text
            assert field_name in capsys.readouterr().err, text

    @pytest.mark.parametrize("axis", ["overlap", "pair_mixedness", "input_mixedness"])
    @pytest.mark.parametrize("bad", [".nan", "-0.1", "1.5"])
    def test_calibrate_grid_outside_the_unit_interval_exit_code(self, axis, bad, tmp_path,
                                                                  capsys):
        grid = {"overlap": "[0.9, 1.0, 2]", "pair_mixedness": "[0, 0.1, 2]",
                "input_mixedness": "[0, 0.1, 2]"}
        grid[axis] = f"[0.05, {bad}, 2]"
        cfg = tmp_path / "cal.yaml"
        cfg.write_text("targets: {F_H: 0.9, F_swap_avg: 0.8}\ngrid: {"
                       + ", ".join(f"{k}: {v}" for k, v in grid.items()) + "}\n")
        assert cli.main(["calibrate", str(cfg)]) == 2
        assert f"grid.{axis}" in capsys.readouterr().err

    def test_calibration_grid_total_is_bounded(self, tmp_path, capsys):
        cfg = tmp_path / "cal.yaml"
        grid = "grid: {overlap: [0, 1, 1000], pair_mixedness: [0, 1, 1000], input_mixedness: %s}\n"
        cfg.write_text("targets: {F_H: 0.9}\n" + grid % "[0, 1, 1]")
        _, grids = cli._load_calibration_config(str(cfg))
        assert [len(axis) for axis in grids.values()] == [1000, 1000, 1]
        cfg.write_text("targets: {F_H: 0.9}\n" + grid % "[0, 1, 2]")
        with pytest.raises(ConfigError, match="2000000 points"):
            cli._load_calibration_config(str(cfg))
        assert cli.main(["calibrate", str(cfg)]) == 2
        assert "2000000 points" in capsys.readouterr().err


# -- config fuzzing through the CLI --------------------------------------------

#: Per field: values that must pass validation, and values that must not.
#: Valid draws stay cheap (gate-only, few counts, minimum resamples).
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
_FIELDS = {
    "overlap": (st.floats(0.0, 1.0), st.one_of(st.floats(1.0001, 1e9), st.floats(max_value=-1e-9),
                                                  st.integers(min_value=2), st.just(10**400),
                                                  st.just(float("nan")), st.booleans(), st.text(max_size=3))),
    "pair_mixedness": (st.floats(0.0, 1.0), st.one_of(st.floats(min_value=1.5), st.integers(max_value=-1), _JUNK)),
    "input_mixedness": (st.floats(0.0, 1.0), st.one_of(st.floats(max_value=-0.5), _JUNK)),
    "counts_per_setting": (st.integers(1, 10_000), st.one_of(st.integers(max_value=0), st.floats(1, 1e4),
                                                              st.integers(min_value=10**12 + 1), _JUNK)),
    "efficiencies": (st.dictionaries(st.sampled_from(experiment.EFFICIENCY_KEYS["gate-only"]),
                                     st.floats(0.01, 1.0), max_size=4),
                     st.one_of(st.dictionaries(st.sampled_from(["x9", "a+", "d-", "b0"]),
                                               st.floats(0.1, 1.0), min_size=1, max_size=2),
                               st.dictionaries(st.just("bH"), st.one_of(st.floats(max_value=0.0),
                                               st.floats(1.01, 10.0), st.booleans()), min_size=1),
                               st.integers(), st.text(max_size=3), st.lists(st.floats(), max_size=2))),
    "seed": (st.integers(0, 2**64), st.one_of(st.integers(max_value=-1), st.floats(0, 10), _JUNK)),
    "out": (st.none(), st.one_of(st.integers(), st.lists(st.text(max_size=2), max_size=2))),
    "pair_target": (st.sampled_from(["phi+", "psi-", "phi+~", "psi+~"]),
                    st.one_of(st.sampled_from(["nope", "phi", "PHI+", ""]), st.integers(), st.booleans())),
    "gate_input": (st.sampled_from(["VV", "HV", "+-", "RL"]),
                   st.one_of(st.sampled_from(["V", "VVV", "XY", "vv", ""]), st.integers(), st.booleans())),
    "bootstrap_resamples": (st.just(100), st.one_of(st.integers(max_value=99), st.floats(100, 200),
                                                    st.booleans(), st.text(max_size=3))),
}


#: Fields the gate-only protocol never reads; setting one is a config error.
_UNREAD = ("input_mixedness", "pair_mixedness", "pair_target")


@st.composite
def _configs(draw):
    """(config mapping, whether every drawn field is valid)."""
    valid = draw(st.booleans())
    config = {"protocol": "gate-only"}
    if not valid:
        kinds = ["protocol", "unknown_key", "unread_field"] + sorted(_FIELDS)
        bad = draw(st.sets(st.sampled_from(kinds), min_size=1))
        if "protocol" in bad:
            config["protocol"] = draw(st.one_of(st.sampled_from(["warp", "Teleport", ""]), _JUNK))
        if "unknown_key" in bad:
            key = draw(st.one_of(st.sampled_from(["overlp", "Seed", "bootstrap"]), st.integers()))
            config[key] = draw(_JUNK)
        if "unread_field" in bad:
            name = draw(st.sampled_from(_UNREAD))
            config[name] = draw(_FIELDS[name][0])
    else:
        bad = set()
    read = sorted(set(_FIELDS) - set(_UNREAD))
    for name in draw(st.sets(st.sampled_from(read))) | (bad & set(_FIELDS)):
        good_values, bad_values = _FIELDS[name]
        config[name] = draw(bad_values if name in bad else good_values)
    return config, valid


class TestConfigFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_configs())
    def test_cli_exit_codes(self, drawn):
        config, valid = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(config, fh, sort_keys=False)
            code = cli.main(["run", path])
        assert code in (0, 2, 3)
        assert code == (0 if valid else 2), config


# -- calibrate config fuzzing through the CLI ------------------------------------

_CAL_KEYS = ("F_H", "F_V", "F_+", "F_R", "F_p", "F_avg", "F_swap_avg", "S_abs_avg")
#: Valid [start, stop] range per grid axis; valid grids have at most 2 points per axis.
_CAL_AXES = {"overlap": (0.8, 1.0), "pair_mixedness": (0.0, 0.3), "input_mixedness": (0.0, 0.3)}
_NOT_A_NUMBER = st.one_of(st.just(float("nan")), st.just(float("inf")), st.just(float("-inf")),
                          st.booleans(), st.none(), st.text(max_size=3), st.just(10**400),
                          st.lists(st.floats(0, 1), max_size=2))


@st.composite
def _calibrate_configs(draw):
    """(calibrate config mapping, whether it is valid)."""
    targets = draw(st.dictionaries(st.sampled_from(_CAL_KEYS), st.floats(0.0, 4.0),
                                   min_size=1, max_size=3))
    grid = {name: [draw(st.floats(lo, hi)), draw(st.floats(lo, hi)), draw(st.integers(1, 2))]
            for name, (lo, hi) in _CAL_AXES.items()}
    config = {"targets": targets, "grid": grid}
    valid = draw(st.booleans())
    kinds = ["target_key", "target_value", "targets", "bound", "range", "count", "shape", "axis",
             "grid"]
    bad = set() if valid else draw(st.sets(st.sampled_from(kinds), min_size=1, max_size=2))
    axis = draw(st.sampled_from(sorted(_CAL_AXES)))
    if "target_key" in bad:
        targets[draw(st.one_of(st.sampled_from(["F_X", "f_h", "S"]), st.integers()))] = 0.5
    if "target_value" in bad:
        targets[draw(st.sampled_from(sorted(targets)))] = draw(st.one_of(
            _NOT_A_NUMBER, st.floats(4.001, 1e300), st.floats(-1e300, -0.001)))
    if "bound" in bad:
        grid[axis][draw(st.integers(0, 1))] = draw(_NOT_A_NUMBER)
    if "range" in bad:
        grid[axis][draw(st.integers(0, 1))] = draw(st.one_of(st.floats(1.001, 1e300),
                                                             st.floats(-1e300, -0.001)))
    if "count" in bad:
        grid[axis][2] = draw(st.one_of(st.integers(max_value=0), st.integers(min_value=1001),
                                       st.floats(1, 2), _NOT_A_NUMBER))
    if "shape" in bad:
        grid[axis] = draw(st.one_of(st.just(grid[axis][:2]), st.just(grid[axis] + [1]),
                                    _NOT_A_NUMBER))
    if "axis" in bad:
        grid[draw(st.sampled_from(["overlp", "pair", "seed"]))] = [0.0, 0.1, 1]
    if "targets" in bad:
        config["targets"] = draw(st.one_of(st.just({}), st.none(), st.floats(),
                                           st.lists(st.floats(), max_size=2)))
    if "grid" in bad:
        config["grid"] = draw(st.one_of(st.none(), st.floats(), st.lists(st.floats(), max_size=2)))
    return config, valid


class TestCalibrateConfigFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_calibrate_configs())
    def test_cli_exit_codes(self, drawn):
        config, valid = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cal.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(config, fh, sort_keys=False)
            code = cli.main(["calibrate", path])
        assert code == (0 if valid else 2), config
