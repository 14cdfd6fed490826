import json
import math

import pytest

from helpers import constant_automaton, permutation_automaton, reference_exact_reset
from synchrolab import (
    Seed,
    Word,
    cerny_automaton,
    is_reset_word,
    read_dfa,
    sample_uniform_automaton,
    write_dfa,
)
from synchrolab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_prints_sequence(capsys):
    code, out, _ = run_cli(capsys, "gw", "--K", "2")
    assert code == 0
    values = [float(v) for v in out.splitlines()]
    assert values[0] == 0.0
    assert values[1] == pytest.approx(math.exp(-1))
    assert values[2] == pytest.approx(math.exp(-(1 - math.exp(-1))))


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.dfa", tmp_path / "b.dfa"
    assert run_cli(capsys, "gen", "--n", "30", "--seed", "5", "--out", str(a))[0] == 0
    assert run_cli(capsys, "gen", "--n", "30", "--seed", "5", "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()
    assert read_dfa(a).n == 30


def test_exact_on_cerny_file(tmp_path, capsys):
    path = tmp_path / "cerny4.dfa"
    write_dfa(cerny_automaton(4), path)
    code, out, _ = run_cli(capsys, "exact", "--in", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 9
    assert is_reset_word(cerny_automaton(4), Word.from_text(payload["word"]))


def test_exact_at_the_state_cap(tmp_path, capsys):
    aut = sample_uniform_automaton(24, 2, Seed(7).stream(0))
    path = tmp_path / "random24.dfa"
    write_dfa(aut, path)
    code, out, _ = run_cli(capsys, "exact", "--in", str(path))
    assert code == 0
    word = reference_exact_reset(aut)
    assert json.loads(out) == {"word": word.text, "length": len(word)}


def test_exact_reports_absent_word(tmp_path, capsys):
    path = tmp_path / "perm.dfa"
    write_dfa(permutation_automaton(5), path)
    code, out, _ = run_cli(capsys, "exact", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"word": None, "length": None}


def test_sync_fresh_sample_verifies(capsys):
    code, out, _ = run_cli(capsys, "sync", "--n", "64", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["length"] == payload["phase1_length"] + payload["phase2_length"]


def test_sync_permutation_exits_3(tmp_path, capsys):
    path = tmp_path / "perm.dfa"
    write_dfa(permutation_automaton(6), path)
    code, _, err = run_cli(capsys, "sync", "--in", str(path))
    assert code == 3
    assert "stuck pair" in err


def test_sync_requires_exactly_one_source(tmp_path, capsys):
    path = tmp_path / "c.dfa"
    write_dfa(constant_automaton(4), path)
    assert run_cli(capsys, "sync")[0] == 1
    assert run_cli(capsys, "sync", "--in", str(path), "--n", "5")[0] == 1


def test_pairs_constant_radius(tmp_path, capsys):
    path = tmp_path / "c.dfa"
    write_dfa(constant_automaton(5), path)
    code, out, _ = run_cli(capsys, "pairs", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"radius": 1}


def test_pairs_permutation_radius_null(tmp_path, capsys):
    path = tmp_path / "p.dfa"
    write_dfa(permutation_automaton(5), path)
    code, out, _ = run_cli(capsys, "pairs", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"radius": None}


def test_cyclic_count_from_unary_file(tmp_path, capsys):
    path = tmp_path / "chain.dfa"
    path.write_text("dfa v1 3 1\n1\n2\n2\n")
    code, out, _ = run_cli(capsys, "cyclic", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"cyclic_count": 1}


def test_cyclic_expectation_from_json(capsys):
    code, out, _ = run_cli(capsys, "cyclic", "--p-json", "[0.5, 0.5]")
    assert code == 0
    assert json.loads(out)["expected_cyclic"] == pytest.approx(1.5)


def test_cyclic_requires_one_input(capsys):
    assert run_cli(capsys, "cyclic")[0] == 1


def test_experiment_subcommand(tmp_path, capsys):
    config = {
        "experiment": "uniform-maximizer",
        "n_list": [3],
        "trials": 20,
        "seed": 3,
        "out": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 0
    assert "uniform-maximizer" in out
    csv_path = tmp_path / "results" / "uniform-maximizer.csv"
    assert csv_path.read_text().splitlines()[0] == (
        "experiment,n,trial,seed_stream,quantity,value,walltime_ms"
    )


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "two-phase", "n_list": [10, 20], "trials": "12"},
        {"experiment": "two-phase", "n_list": ["a"], "trials": 1},
        {"experiment": "pair-radius", "n_list": [16], "trials": 1,
         "overrides": {"bound_multiplier": "x"}},
        {"experiment": "extinction-bound", "n_list": [4], "trials": 10,
         "overrides": {"ell_values": 5}},
        {"experiment": "extinction-bound", "n_list": [4], "trials": 10,
         "overrides": {"k_values": []}},
        {"experiment": "two-phase", "n_list": 10, "trials": 1},
        {"experiment": "two-phase", "n_list": [10.5], "trials": 1},
        {"experiment": "two-phase", "n_list": [10], "trials": [True]},
        {"experiment": "two-phase", "n_list": [10], "trials": 1, "seed": "7"},
        {"experiment": "two-phase", "n_list": [10], "trials": 1, "out": 5},
        {"experiment": "pair-radius", "n_list": [16], "trials": 1, "overrides": [1]},
        {"experiment": ["two-phase"], "n_list": [10], "trials": 1},
    ],
)
def test_malformed_experiment_config_exits_1(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 1 and out == ""
    assert err.startswith("invalid input: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_cerny_subcommand(tmp_path, capsys):
    path = tmp_path / "c5.dfa"
    code, _, _ = run_cli(capsys, "cerny", "--n", "5", "--out", str(path))
    assert code == 0
    assert read_dfa(path) == cerny_automaton(5)


def test_missing_file_is_invalid_input(capsys, tmp_path):
    latin1 = tmp_path / "latin1.dfa"
    latin1.write_bytes(b"dfa v1 1 1\n0 \xe9\n")
    ragged = tmp_path / "ragged.dfa"
    ragged.write_text("dfa v1 3 2\n0 1\n2\n1 0\n")
    for argv in (
        ("exact", "--in", "does-not-exist.dfa"),
        ("sync", "--in", str(tmp_path)),
        ("experiment", "--config", str(tmp_path)),
        ("gen", "--n", "5", "--out", str(tmp_path)),
        ("sync", "--in", str(latin1)),
        ("sync", "--in", str(ragged)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("invalid input:"), argv


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "gw", "--bogus")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_capacity_error_exits_2(tmp_path, capsys):
    path = tmp_path / "big.dfa"
    write_dfa(permutation_automaton(25), path)
    assert run_cli(capsys, "exact", "--in", str(path))[0] == 2


def test_sync_large_permutation_exits_3(tmp_path, capsys):
    # 10^4 states are past the pair-search budget; the stuck pair still wins
    path = tmp_path / "perm.dfa"
    write_dfa(permutation_automaton(10_000), path)
    code, _, err = run_cli(capsys, "sync", "--in", str(path))
    assert code == 3
    assert "stuck pair (0, 1)" in err
