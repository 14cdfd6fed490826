"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import pace  # noqa: E402
from layertrace import Tracer  # noqa: E402
import synchrolab  # noqa: E402


def naive_image(table, letters, members):
    out = set()
    for x in members:
        for c in letters:
            x = int(table[x, c])
        out.add(x)
    return np.array(sorted(out), dtype=np.int64)


def naive_cyclic(succ):
    n = len(succ)
    on_cycle = []
    for v in range(n):
        x = v
        for _ in range(n):
            x = int(succ[x])
            if x == v:
                on_cycle.append(v)
                break
    return np.array(on_cycle, dtype=np.int64)


@pytest.fixture
def table():
    return synchrolab.sample_uniform_automaton(300, 2, synchrolab.Seed(11)).table


def test_set_image_matches_per_state_walk(table):
    rng = np.random.default_rng(5)
    for length in (0, 1, 7, 40):
        letters = rng.integers(0, 2, size=length).tolist()
        members = np.unique(rng.integers(0, 300, size=120))
        assert np.array_equal(checks.set_image(table, letters, members), naive_image(table, letters, members))


def test_eventual_image_is_the_cyclic_set(table):
    for succ in (table[:, 0], table[:, 1], np.array([1, 2, 0, 0, 3, 4]), np.array([0])):
        assert np.array_equal(checks.eventual_image(succ), naive_cyclic(succ))


def test_phase1_word_and_length():
    for n in (2, 3, 16, 17, 1000, 65536, 100_000):
        word = checks.phase1_letters(n)
        assert len(word) == checks.phase1_length(n)
        assert word == list(synchrolab.phase1_word_interleaved(n).letters)


@pytest.fixture
def sync_case(table):
    report = synchrolab.two_phase_synchronize(synchrolab.Automaton(table)).as_dict()
    return table, report


def test_sync_report_accepted(sync_case):
    table, report = sync_case
    assert checks.check_sync_report(table, report) == []


def test_word_missing_its_last_letter_is_rejected(sync_case):
    table, report = sync_case
    bad = dict(report, word=report["word"][:-1], length=report["length"] - 1,
               phase2_length=report["phase2_length"] - 1)
    assert checks.check_sync_report(table, bad)


@pytest.mark.parametrize("field", ["phase1_length", "intermediate_image_size", "length"])
def test_report_field_off_by_one_is_rejected(sync_case, field):
    table, report = sync_case
    assert checks.check_sync_report(table, dict(report, **{field: report[field] + 1}))


def test_image_size_off_by_one_is_rejected(table):
    letters = checks.phase1_letters(300)
    got = synchrolab.image(synchrolab.Automaton(table), synchrolab.Word(letters), synchrolab.StateSet.full(300)).members
    expected = checks.set_image(table, letters)
    assert checks.check_members("image", got, expected) == []
    assert checks.check_members("image", got[:-1], expected)
    extra = np.setdiff1d(np.arange(300), got)[:1]
    assert checks.check_members("image", np.sort(np.concatenate([got, extra])), expected)


def test_cyclic_states_checked(table):
    graph = synchrolab.FunctionalGraph(table[:, 0])
    got = synchrolab.cyclic_states(graph).members
    assert checks.check_members("cyclic", got, checks.eventual_image(table[:, 0])) == []
    assert checks.check_members("cyclic", got[1:], checks.eventual_image(table[:, 0]))


def test_round_trip_corruption_is_rejected(tmp_path, table):
    path = tmp_path / "a.dfa"
    synchrolab.write_dfa(synchrolab.Automaton(table), path)
    back = synchrolab.read_dfa(path).table
    assert checks.check_round_trip(table, path.read_text(), back) == []
    bad = back.copy()
    bad[7, 1] = (bad[7, 1] + 1) % 300
    assert checks.check_round_trip(table, path.read_text(), bad)
    assert checks.check_round_trip(table, checks.dfa_text(bad), back)


def test_cerny_length_and_word(tmp_path):
    n = 6
    word = synchrolab.exact_shortest_reset(synchrolab.Automaton(checks.cerny_table(n)))
    good = {"word": word.text, "length": len(word)}
    assert checks.check_cerny(n, good) == []
    assert checks.check_cerny(n, {"word": word.text[:-1], "length": len(word) - 1})
    assert checks.check_cerny(n, {"word": None, "length": None})


def shared_rows():
    two_phase = {(16, 0): {"synchronizable": 1.0, "total_length": 20.0}, (16, 1): {"synchronizable": 0.0}}
    radius = {(16, 0): {"synchronizable_pairs": 1.0, "radius": 4.0}, (16, 1): {"synchronizable_pairs": 0.0}}
    exact = {(16, 0): {"synchronizable": 1.0, "length": 9.0}, (16, 1): {"synchronizable": 0.0}}
    return two_phase, radius, exact


def test_shared_trials_accepted():
    assert checks.check_shared_trials(*shared_rows()) == []


def test_swapped_radius_is_rejected():
    two_phase, radius, exact = shared_rows()
    radius[(16, 0)]["radius"], exact[(16, 0)]["length"] = exact[(16, 0)]["length"], radius[(16, 0)]["radius"]
    assert checks.check_shared_trials(two_phase, radius, exact)


def test_disagreeing_synchronizable_flags_are_rejected():
    two_phase, radius, exact = shared_rows()
    exact[(16, 1)] = {"synchronizable": 1.0, "length": 9.0}
    assert checks.check_shared_trials(two_phase, radius, exact)


def test_two_phase_rows():
    n = 1000
    p1 = float(checks.phase1_length(n))
    good = {(n, 0): {"synchronizable": 1.0, "phase1_length": p1, "phase2_length": 30.0,
                     "total_length": p1 + 30.0, "verified": 1.0}}
    assert checks.check_two_phase_rows(good) == []
    assert checks.check_two_phase_rows({(n, 0): dict(good[(n, 0)], phase1_length=p1 + 1)})
    assert checks.check_two_phase_rows({(n, 0): dict(good[(n, 0)], total_length=p1 + 29.0)})
    assert checks.check_two_phase_rows({(n, 0): dict(good[(n, 0)], verified=0.0)})


def test_bad_dfa_text_is_rejected(table):
    text = checks.dfa_text(table)
    assert np.array_equal(checks.parse_dfa(text), table)
    for bad in (text.replace("\n", "\n x ", 1), text.rsplit(" ", 1)[0] + "\n", "dfa v2" + text[6:]):
        with pytest.raises(ValueError):
            checks.parse_dfa(bad)


def test_trace_structure_faults_are_found():
    tracer = Tracer()
    root = tracer.begin("bench.op")
    child = tracer.begin("core.image")
    tracer.end(child)
    tracer.end(root)
    assert tracer.problems(["core.image"]) == []
    assert tracer.problems(["core.image", "core.read_dfa"]) == ["layer core.read_dfa recorded no span"]
    tracer.spans[child][2] = tracer.spans[root][2] + 1.0  # child ends after its parent
    assert tracer.problems(["core.image"])
    tracer.spans[child][2] = None
    assert tracer.problems(["core.image"])


def test_pace_factor_scales_by_the_kernel_median():
    p = pace.Pace()
    p.sample()
    assert len(p.samples["numpy"]) == len(p.samples["python"]) == 1
    p.samples = {"numpy": [0.3, 0.1, 0.2], "python": [0.05]}
    nominal = pace.NOMINAL_S
    assert p.factor("numpy") == pytest.approx(nominal["numpy"] / 0.2)
    assert p.factor("python") == pytest.approx(nominal["python"] / 0.05)
    assert p.factor("mixed") == pytest.approx((nominal["numpy"] + nominal["python"]) / 0.25)
