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
from synchrolab import cli
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
    # --n 0 is a source too, and no valid one
    assert run_cli(capsys, "sync", "--in", str(path), "--n", "0")[0] == 1
    code, _, err = run_cli(capsys, "sync", "--n", "0")
    assert code == 1 and "need at least one state" in err


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
    # an empty --in is still given: both inputs, so the command refuses
    assert run_cli(capsys, "cyclic", "--in", "", "--p-json", "[0.5,0.5]")[0] == 1


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


@pytest.mark.parametrize(
    "config",
    [
        {"experiment": "reset-length", "n_list": [8, 30], "trials": 1},
        {"experiment": "uniform-maximizer", "n_list": [30], "trials": 1},
        {"experiment": "pair-radius", "n_list": [20_001], "trials": 1},
    ],
)
def test_experiment_past_a_capacity_guard_exits_2_before_any_trial(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "results"))
    assert code == 2 and out == ""
    assert err.startswith(f"capacity error: {config['experiment']} is capped at n = ") and err.count("\n") == 1
    assert not (tmp_path / "results").exists()


def test_more_letters_than_a_to_z_exit_1_up_front(tmp_path, capsys, monkeypatch):
    # words are printed as a..z: gen writes no 27-letter file, and exact
    # refuses one before its power-set search
    path = tmp_path / "k27.dfa"
    code, out, err = run_cli(capsys, "gen", "--n", "5", "--k", "27", "--out", str(path))
    assert code == 1 and out == "" and not path.exists()
    assert err == "invalid input: 27 letters have no textual form (only a..z are mapped, at most 26 letters)\n"
    assert run_cli(capsys, "gen", "--n", "5", "--k", "26", "--out", str(path))[0] == 0
    assert read_dfa(path).k == 26

    def no_search(aut):
        raise AssertionError("exact searched a 27-letter automaton")

    write_dfa(sample_uniform_automaton(24, 27, Seed(3)), path)
    monkeypatch.setattr(cli, "exact_shortest_reset", no_search)
    code, out, err = run_cli(capsys, "exact", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("invalid input: 27 letters have no textual form")


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


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process; a usage error between two
    # commands leaves it as it was, and each output equals a fresh parser's
    path = tmp_path / "random.dfa"
    write_dfa(sample_uniform_automaton(40, 2, Seed(3).stream(0)), path)
    calls = (("sync", "--n", "60", "--seed", "4"), ("sync", "--n", "60", "--bogus"), ("pairs", "--in", str(path)))
    cli._build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _out, _err in shared] == [0, 1, 0]
    assert "unrecognized arguments: --bogus" in shared[1][2]


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


def test_impossible_allocation_exits_2(tmp_path, capsys):
    # numpy refuses an array of 10^15 states before making it: a capacity
    # error, not a traceback
    path = tmp_path / "huge.dfa"
    for argv in (("gen", "--n", str(10**15), "--out", str(path)), ("sync", "--n", str(10**15))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("capacity error: ") and err.count("\n") == 1, argv
    assert not path.exists()


@pytest.mark.parametrize("p_json", ['["0.5","0.5"]', "[true,false]", "[true, 0]", '["a"]', "[{}]", "[null]",
                                    "[[0.5],[0.5,0.0]]", "[]", "[1e400]", "[0.5,0.6]", "{}", "nope"])
def test_cyclic_rejects_malformed_probability_json(capsys, p_json):
    code, out, err = run_cli(capsys, "cyclic", "--p-json", p_json)
    assert code == 1 and out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1 and "Traceback" not in err


def test_every_subcommand_rejects_malformed_input_in_one_line(tmp_path, capsys):
    # past argparse, every subcommand answers malformed input with exit 1
    # and one "invalid input:" line on stderr, and writes nothing
    files = {
        "bad.dfa": "dfa v1 2 1\n0\n5\n",
        "one.dfa": "dfa v1 1 1\n0\n",
        "binary.dfa": "dfa v1 3 2\n0 1\n1 2\n2 0\n",
        "cfg.json": '{"experiment": "nope"}',
        "broken.json": "[1",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out_path = str(tmp_path / "out.dfa")
    cases = {
        "gen": [("--n", "0"), ("--n", "-1"), ("--n", "5", "--k", "0"), ("--n", "5", "--seed", "-1")],
        "sync": [("--n", "1"), ("--n", "-2"), ("--n", "5", "--seed", "-3"), ("--in", "bad.dfa"), ("--in", "one.dfa")],
        "pairs": [("--in", "bad.dfa"), ("--in", "one.dfa"), ("--in", "missing.dfa")],
        "exact": [("--in", "bad.dfa"), ("--in", "cfg.json")],
        "cyclic": [("--in", "binary.dfa"), ("--in", "bad.dfa"), ("--p-json", '["0.5","0.5"]'), ("--p-json", "[true,false]")],
        "gw": [("--K", "-1")],
        "experiment": [("--config", "cfg.json"), ("--config", "broken.json"), ("--config", "missing.json")],
        "cerny": [("--n", "0"), ("--n", "1")],
    }
    assert set(cases) == set(cli._COMMANDS)
    for command, argvs in cases.items():
        for argv in argvs:
            argv = [str(tmp_path / a) if a.endswith((".dfa", ".json")) else a for a in argv]
            if command in ("gen", "cerny"):
                argv += ["--out", out_path]
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 1 and out == "", (command, argv)
            assert err.startswith("invalid input: ") and err.count("\n") == 1, (command, argv, err)
            assert "Traceback" not in err
    assert not (tmp_path / "out.dfa").exists()
