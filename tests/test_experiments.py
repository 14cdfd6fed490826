import json
import math

import numpy as np
import pytest

from helpers import constant_automaton, permutation_automaton
from synchrolab import CapacityError, InvalidInputError
from synchrolab.experiments import (
    CSV_HEADER,
    EXPERIMENTS,
    ExperimentConfig,
    TrialRecord,
    load_config,
    measure_interleaved_image,
    measure_pair_radius,
    measure_reset_length,
    measure_two_phase,
    measure_unary_image,
    run_experiment,
    summarize,
    worker_count,
    write_records_csv,
)
from synchrolab.randmodel import EXACT_EXPECTATION_LIMIT
from synchrolab.sync import RADIUS_STATE_LIMIT, SUBSET_STATE_LIMIT


def record(n, trial, quantities, experiment="unary-image"):
    return TrialRecord(experiment, n, trial, trial, quantities, 1.0)


# ---------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------
def test_summarize_single_record():
    stats = summarize([record(10, 0, {"x": 5.0})])
    s = stats.per_n[10]["x"]
    assert s.mean == 5.0 and s.stderr == 0.0 and s.count == 1
    assert s.min == s.max == s.median == 5.0


def test_summarize_two_records():
    stats = summarize([record(10, 0, {"x": 2.0}), record(10, 1, {"x": 4.0})])
    s = stats.per_n[10]["x"]
    assert s.mean == 3.0 and s.min == 2.0 and s.max == 4.0 and s.median == 3.0
    assert s.stderr == pytest.approx(np.std([2.0, 4.0], ddof=1) / math.sqrt(2))


def test_summarize_order_invariant(rng):
    records = [record(n, t, {"x": float(rng.normal()), "y": float(rng.normal())})
               for n in (5, 9) for t in range(13)]
    forward = summarize(records)
    shuffled = list(records)
    rng.shuffle(shuffled)
    backward = summarize(shuffled)
    for n in (5, 9):
        for q in ("x", "y"):
            assert forward.per_n[n][q] == backward.per_n[n][q]


def test_summarize_rejects_empty():
    with pytest.raises(InvalidInputError):
        summarize([])


# ---------------------------------------------------------------------
# config
# ---------------------------------------------------------------------
def test_config_normalizes_trials():
    cfg = ExperimentConfig(experiment="unary-image", n_list=[10, 20], trials=3)
    assert cfg.trials == [3, 3]


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="nope", n_list=[10], trials=1)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="unary-image", n_list=[], trials=1)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="unary-image", n_list=[20, 10], trials=1)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="unary-image", n_list=[10], trials=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="unary-image", n_list=[10], trials=[1, 2])
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="unary-image", n_list=[10], trials=1,
                         overrides={"bogus": 1})
    for seed in (-1, 2**64):
        with pytest.raises(InvalidInputError, match="unsigned 64-bit"):
            ExperimentConfig(experiment="unary-image", n_list=[10], trials=1, seed=seed)
    for data in ([1], "two-phase", None):
        with pytest.raises(InvalidInputError, match="experiment config must be a JSON object"):
            ExperimentConfig.from_dict(data)


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(experiment="extinction-bound", n_list=[10], overrides={"ell_values": [50]}),
         r"set size 50 out of range \[1, 10\]"),
        (dict(experiment="extinction-bound", n_list=[10], overrides={"k_values": [-1]}),
         "distance k must be non-negative"),
        (dict(experiment="extinction-bound", n_list=[2]), r"set size 3 out of range \[1, 2\]"),
        (dict(experiment="two-phase", n_list=[1]), "two-phase needs n >= 2, got n = 1"),
        (dict(experiment="unary-image", n_list=[0]), "unary-image needs n >= 2, got n = 0"),
        (dict(experiment="pair-radius", n_list=[-3]), "pair-radius needs n >= 2, got n = -3"),
    ],
)
def test_config_rejects_sizes_its_trials_cannot_take(config, message, monkeypatch):
    # refused when the config is made, before any trial runs
    from synchrolab import experiments

    monkeypatch.setattr(experiments, "_run_trial", None)
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        ExperimentConfig(trials=1, **config)


@pytest.mark.parametrize(
    "name, cap",
    [("reset-length", SUBSET_STATE_LIMIT), ("uniform-maximizer", EXACT_EXPECTATION_LIMIT),
     ("pair-radius", RADIUS_STATE_LIMIT)],
)
def test_config_refuses_sizes_past_the_capacity_of_its_trials(name, cap, monkeypatch):
    # refused when the config is made, with the error a trial would raise,
    # not through the guard inside a trial; a size at the cap is accepted
    from synchrolab import experiments

    monkeypatch.setattr(experiments, "_run_trial", None)
    for n_list in ([cap + 1], [2, cap + 6]):
        with pytest.raises(CapacityError, match=f"^{name} is capped at n = {cap}, got n = {n_list[-1]}$"):
            ExperimentConfig(experiment=name, n_list=n_list, trials=1)
    assert ExperimentConfig(experiment=name, n_list=[2, cap], trials=1).n_list == [2, cap]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_experiment_runs_at_its_least_size(name):
    n = EXPERIMENTS[name].min_n
    overrides = {"ell_values": [1]} if name == "extinction-bound" else {}
    with pytest.raises(InvalidInputError, match=f"needs n >= {n}"):
        ExperimentConfig(experiment=name, n_list=[n - 1], trials=1, overrides=overrides)
    stats = run_experiment(ExperimentConfig(experiment=name, n_list=[n], trials=2, overrides=overrides), workers=1)
    assert stats.per_n[n]


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        experiment="pair-radius", n_list=[64], trials=[2], seed=7,
        overrides={"bound_multiplier": 4.0},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(InvalidInputError):
        load_config(tmp_path / "bad.json")
    (tmp_path / "extra.json").write_text('{"experiment": "unary-image", "n_list": [4], "trials": 1, "zzz": 0}')
    with pytest.raises(InvalidInputError):
        load_config(tmp_path / "extra.json")


# ---------------------------------------------------------------------
# measurement wiring on degenerate fixtures
# ---------------------------------------------------------------------
def test_measure_unary_image_constant_fixture():
    q = measure_unary_image(constant_automaton(16))
    assert q["image_size"] == 1.0
    assert q["cyclic_count"] == 1.0


def test_measure_interleaved_image_constant_fixture():
    q = measure_interleaved_image(constant_automaton(16))
    assert q["image_interleaved"] == 1.0 and q["image_unary"] == 1.0


def test_measure_pair_radius_fixtures():
    q = measure_pair_radius(constant_automaton(8))
    assert q == {"within_bound": 1.0, "synchronizable_pairs": 1.0, "radius": 1.0}
    q = measure_pair_radius(permutation_automaton(8))
    assert q["synchronizable_pairs"] == 0.0 and q["within_bound"] == 0.0
    assert "radius" not in q


def test_measure_two_phase_fixtures():
    q = measure_two_phase(constant_automaton(8))
    assert q["verified"] == 1.0 and q["image_size"] == 1.0 and q["phase2_length"] == 0.0
    assert measure_two_phase(permutation_automaton(8)) == {"synchronizable": 0.0}


def test_measure_reset_length_fixtures():
    q = measure_reset_length(constant_automaton(8))
    assert q["length"] == 1.0
    assert measure_reset_length(permutation_automaton(8)) == {"synchronizable": 0.0}


# ---------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------
def test_run_unary_image_deterministic_and_bounded(tmp_path):
    cfg = dict(experiment="unary-image", n_list=[100, 200], trials=4, seed=11)
    first = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **cfg))
    second = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **cfg))
    assert first.per_n == second.per_n
    # the cyclic states survive any number of unary steps
    for n in (100, 200):
        assert first.per_n[n]["image_size"].min >= first.per_n[n]["cyclic_count"].min

    def stable_rows(path):
        rows = path.read_text().splitlines()
        assert rows[0] == CSV_HEADER
        return [r.rsplit(",", 1)[0] for r in rows[1:]]  # drop walltime_ms

    assert stable_rows(tmp_path / "a" / "unary-image.csv") == stable_rows(
        tmp_path / "b" / "unary-image.csv"
    )
    summary = json.loads((tmp_path / "a" / "unary-image_summary.json").read_text())
    assert summary["experiment"] == "unary-image"
    assert summary["meta"]["config"]["seed"] == 11


def test_run_unary_image_worker_count_does_not_change_results(tmp_path, monkeypatch):
    cfg = dict(experiment="unary-image", n_list=[64], trials=6, seed=3)
    monkeypatch.setenv("SYNCHROLAB_THREADS", "1")
    serial = run_experiment(ExperimentConfig(**cfg))
    monkeypatch.setenv("SYNCHROLAB_THREADS", "2")
    parallel = run_experiment(ExperimentConfig(**cfg))
    assert serial.per_n == parallel.per_n


def test_worker_count_takes_integers_only(monkeypatch):
    monkeypatch.setenv("SYNCHROLAB_THREADS", "2")
    assert worker_count(3) == 3
    assert worker_count(np.int64(4)) == 4
    assert worker_count(0) == 1
    assert worker_count() == 2
    monkeypatch.setenv("SYNCHROLAB_THREADS", "abc")
    with pytest.raises(InvalidInputError, match="^SYNCHROLAB_THREADS must be an integer$"):
        worker_count()
    for bad in (2.7, "3", True, 2.0):
        with pytest.raises(InvalidInputError, match="worker count must be an integer"):
            worker_count(bad)


# one small config per experiment, each with at least two trial slots so
# that two workers really split the work
TINY = {
    "unary-image": dict(n_list=[64, 128], trials=3),
    "interleaved-image": dict(n_list=[64, 128], trials=3),
    "pair-radius": dict(n_list=[32], trials=4, overrides={"bound_multiplier": 2}),
    "two-phase": dict(n_list=[50, 100], trials=3),
    "extinction-bound": dict(n_list=[6], trials=200,
                             overrides={"ell_values": [1, 2], "k_values": [1, 2]}),
    "uniform-maximizer": dict(n_list=[3], trials=6),
    "reset-length": dict(n_list=[8], trials=4),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_worker_count_does_not_change_artifacts(name, tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = dict(experiment=name, seed=5, out=str(out), **TINY[name])
    artifacts = []
    for threads in ("1", "2"):
        monkeypatch.setenv("SYNCHROLAB_THREADS", threads)
        run_experiment(ExperimentConfig(**config))
        rows = (out / f"{name}.csv").read_text().splitlines()
        summary = (out / f"{name}_summary.json").read_bytes()
        artifacts.append(([r.rsplit(",", 1)[0] for r in rows], summary))
    assert artifacts[0] == artifacts[1]
    assert len(artifacts[0][0]) > 2


def test_run_interleaved_image_small():
    stats = run_experiment(
        ExperimentConfig(experiment="interleaved-image", n_list=[256, 512], trials=6, seed=5)
    )
    for n in (256, 512):
        assert {"image_interleaved", "image_unary"} <= set(stats.per_n[n])
    assert "ratio_stability_factor" in stats.overall


def test_run_pair_radius_small():
    stats = run_experiment(
        ExperimentConfig(experiment="pair-radius", n_list=[64], trials=5, seed=1)
    )
    assert stats.derived[64]["radius_bound"] == pytest.approx(3 * math.log2(64))
    assert 0.0 <= stats.derived[64]["fraction_within_bound"] <= 1.0


def test_run_two_phase_small():
    stats = run_experiment(
        ExperimentConfig(experiment="two-phase", n_list=[50, 100], trials=5, seed=2)
    )
    for n in (50, 100):
        assert stats.per_n[n]["verified"].min >= 1.0
    assert "median_length_loglog_slope" in stats.overall
    verdict_names = {v.name for v in stats.verdicts}
    assert "two-phase-slope" in verdict_names


def test_run_two_phase_length_scale_example():
    # typical total lengths stay well under 10 * sqrt(n log2 n)
    stats = run_experiment(
        ExperimentConfig(experiment="two-phase", n_list=[1000], trials=10, seed=4)
    )
    bound = 10.0 * math.sqrt(1000 * math.log2(1000))
    ok = stats.per_n[1000]["total_length"].max <= bound
    assert ok


def test_run_extinction_bound_small():
    stats = run_experiment(
        ExperimentConfig(
            experiment="extinction-bound", n_list=[8], trials=2000, seed=6,
            overrides={"ell_values": [1, 2], "k_values": [0, 1, 2]},
        )
    )
    assert stats.overall["violations"] == 0.0
    # k = 0 grid points are tight: some vertex is always at distance 0
    recs = stats.per_n[8]
    assert recs["p_hat"].min == 0.0
    assert stats.meta["grid"]["k_values"] == [0, 1, 2]


def test_run_extinction_bound_rejects_bad_override():
    with pytest.raises(InvalidInputError):
        run_experiment(
            ExperimentConfig(
                experiment="extinction-bound", n_list=[8], trials=10, seed=0,
                overrides={"prob_vector": "nope"},
            )
        )


def test_run_uniform_maximizer_small():
    stats = run_experiment(
        ExperimentConfig(experiment="uniform-maximizer", n_list=[2, 3], trials=50, seed=8)
    )
    assert stats.derived[2]["uniform_value"] == pytest.approx(1.5, abs=1e-12)
    assert stats.derived[3]["uniform_value"] == pytest.approx(17 / 9, abs=1e-12)
    assert stats.all_passed()


def test_run_reset_length_min_length_at_n12():
    stats = run_experiment(
        ExperimentConfig(experiment="reset-length", n_list=[12], trials=200, seed=9)
    )
    # a length-1 reset would need a constant letter: vanishing probability
    assert stats.per_n[12]["length"].min >= 2.0
    assert stats.derived[12]["success_fraction"] >= 0.9


def test_run_experiment_dispatch(tmp_path):
    cfg = ExperimentConfig(
        experiment="uniform-maximizer", n_list=[2], trials=5, seed=1, out=str(tmp_path)
    )
    stats = run_experiment(cfg)
    assert stats.experiment == "uniform-maximizer"
    assert (tmp_path / "uniform-maximizer.csv").exists()
    assert (tmp_path / "uniform-maximizer_summary.json").exists()


def test_write_records_csv_shape(tmp_path):
    path = tmp_path / "rows.csv"
    write_records_csv([record(4, 0, {"x": 1.5, "y": 2})], path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "unary-image,4,0,0,x,1.5,1.0"
    assert lines[2] == "unary-image,4,0,0,y,2,1.0"
