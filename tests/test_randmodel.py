import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import chain_automaton
from synchrolab import (
    CapacityError,
    ExtinctionSequence,
    FunctionalGraph,
    InvalidInputError,
    ProbVector,
    Seed,
    StateSet,
    check_bernoulli_inequality,
    cyclic_states,
    distance_to_set,
    expected_cyclic_exact,
    extinction_sequence,
    sample_one_out_digraph,
    sample_uniform_automaton,
    survival_probability,
)


# ---------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------
def test_seed_streams_are_reproducible():
    a = Seed(42).stream(7).integers(0, 1000, size=50)
    b = Seed(42).stream(7).integers(0, 1000, size=50)
    assert np.array_equal(a, b)


def test_seed_streams_differ_by_index():
    a = Seed(42).stream(0).integers(0, 2**62, size=8)
    b = Seed(42).stream(1).integers(0, 2**62, size=8)
    assert not np.array_equal(a, b)


def test_seed_validation():
    with pytest.raises(InvalidInputError):
        Seed(-1)
    with pytest.raises(InvalidInputError):
        Seed(2**64)
    with pytest.raises(InvalidInputError):
        Seed(3).stream(-1)
    # non-integral seeds and indices are rejected, not truncated
    for bad in (lambda: Seed(1.5), lambda: Seed(True), lambda: Seed(1).stream(2.5)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            bad()


# ---------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------
def test_uniform_automaton_deterministic():
    assert sample_uniform_automaton(50, 2, Seed(9)) == sample_uniform_automaton(50, 2, Seed(9))
    assert sample_uniform_automaton(50, 2, Seed(9)) != sample_uniform_automaton(50, 2, Seed(10))


def test_uniform_automaton_single_state():
    aut = sample_uniform_automaton(1, 3, Seed(0))
    assert np.all(aut.table == 0)


def test_uniform_automaton_rejects_empty():
    with pytest.raises(InvalidInputError):
        sample_uniform_automaton(0, 2, Seed(0))
    with pytest.raises(InvalidInputError):
        sample_uniform_automaton(3, 0, Seed(0))
    for n, k, seed in ((5.5, 2, 0), (True, 2, 0), (5, 2.5, 0), (5, 2, 1.5)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            sample_uniform_automaton(n, k, seed)


def test_uniform_automaton_is_one_draw_of_its_table():
    # the chunked fill draws in the order of one (n, k) draw
    for n in (1, 7, 1000, 65535, 65536, 65537, 200_003):
        for k in (1, 2, 3):
            aut = sample_uniform_automaton(n, k, Seed(3).stream(n % 5 + k))
            table = Seed(3).stream(n % 5 + k).integers(0, n, size=(n, k))
            assert np.array_equal(aut.table, table)
            assert aut.table.dtype == np.int64 and not aut.table.flags.writeable
            assert aut.letter(k - 1).flags.c_contiguous


def test_uniform_automaton_holds_its_table_once():
    n = 1_000_000
    tracemalloc.start()
    try:
        aut = sample_uniform_automaton(n, 2, Seed(7).stream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * aut.table.nbytes


def test_uniform_automaton_frequencies_within_5_sigma():
    n, draws = 10, 10_000
    rng = Seed(123).generator()
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sample_uniform_automaton(n, 2, rng).table[0, 0]] += 1
    sigma = math.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - draws * 0.1) <= 5 * sigma)


def test_one_out_digraph_point_mass():
    g = sample_one_out_digraph(ProbVector([0.0, 0.0, 1.0]), Seed(5))
    assert np.all(g.succ == 2)


def test_one_out_digraph_uniform_shares_sampling_path():
    # on a uniform vector the digraph draw equals the k=1 automaton column
    aut = sample_uniform_automaton(40, 1, Seed(77))
    g = sample_one_out_digraph(ProbVector.uniform(40), Seed(77))
    assert np.array_equal(g.succ, aut.letter(0))


def test_one_out_digraph_biased_frequency_within_5_sigma():
    rng = Seed(2024).generator()
    hits = sum(
        int(sample_one_out_digraph(ProbVector([0.9, 0.1]), rng).succ[0] == 0)
        for _ in range(10_000)
    )
    sigma = math.sqrt(10_000 * 0.9 * 0.1)
    assert abs(hits - 9000) <= 5 * sigma


def test_prob_vector_validation():
    with pytest.raises(InvalidInputError):
        ProbVector([0.5, 0.6])
    with pytest.raises(InvalidInputError):
        ProbVector([1.5, -0.5])
    with pytest.raises(InvalidInputError):
        ProbVector([])
    ProbVector([0.25, 0.75])  # fine
    assert len(ProbVector.from_json("[0.5, 0.5]")) == 2
    with pytest.raises(InvalidInputError):
        ProbVector.from_json("{}")


@pytest.mark.parametrize("p", [["0.5", "0.5"], [True, False], np.array([True]), ["a"], [{}], [None],
                               [0.5, "0.5"], [10**30]])
def test_prob_vector_takes_only_real_numbers(p):
    # strings, booleans and objects are not probabilities, however numpy
    # would convert them
    with pytest.raises(InvalidInputError):
        ProbVector(p)


@pytest.mark.parametrize("p", [[[0.5], [0.5, 0.0]], [0.5, [0.5]], [[0.5, 0.5], 0.0]])
def test_prob_vector_rejects_ragged_nesting(p):
    # numpy cannot make an array of these at all
    with pytest.raises(InvalidInputError, match="probability vector"):
        ProbVector(p)


def test_prob_vector_takes_integers_and_keeps_a_copy():
    assert ProbVector([0, 1]).p.tolist() == [0.0, 1.0]
    assert ProbVector(np.array([1], dtype=np.uint8)).p.dtype == np.float64
    p = np.array([0.25, 0.75])
    vector = ProbVector(p)
    p[0] = 0.5
    assert vector.p.tolist() == [0.25, 0.75]
    for text in ("[true, 0]", "[[0.5], [0.5, 0.0]]", "[0.5, null, 0.5]"):
        with pytest.raises(InvalidInputError, match="array of reals"):
            ProbVector.from_json(text)
    with pytest.raises(InvalidInputError):
        ProbVector.from_json("not json")
    with pytest.raises(InvalidInputError, match="must be an integer"):
        ProbVector.uniform(2.5)


# ---------------------------------------------------------------------
# functional graph structure
# ---------------------------------------------------------------------
def test_cyclic_states_examples():
    assert list(cyclic_states(FunctionalGraph([0, 1, 2]))) == [0, 1, 2]
    assert list(cyclic_states(FunctionalGraph([1, 0]))) == [0, 1]
    assert list(cyclic_states(FunctionalGraph([1, 2, 2]))) == [2]


def cyclic_by_iteration(succ) -> set[int]:
    """Vertices v with succ^t(v) = v for some 1 <= t <= n."""
    n = len(succ)
    cyclic = set()
    for v in range(n):
        x = v
        for _ in range(n):
            x = int(succ[x])
            if x == v:
                cyclic.add(v)
                break
    return cyclic


def test_cyclic_states_matches_iteration_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 50))
        succ = rng.integers(0, n, size=n)
        assert set(cyclic_states(FunctionalGraph(succ))) == cyclic_by_iteration(succ)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 100])
def test_cyclic_states_longest_tail_and_full_cycle(n):
    # the longest tails, n - 1 steps into a self-loop, in both directions,
    # and the single n-cycle
    forward = np.minimum(np.arange(n) + 1, n - 1)
    backward = np.maximum(np.arange(n) - 1, 0)
    cycle = (np.arange(n) + 1) % n
    for succ in (forward, backward, cycle):
        assert set(cyclic_states(FunctionalGraph(succ))) == cyclic_by_iteration(succ)
    assert list(cyclic_states(FunctionalGraph(forward))) == [n - 1]
    assert len(cyclic_states(FunctionalGraph(cycle))) == n


def test_functional_graph_automaton_round_trip():
    g = FunctionalGraph([1, 2, 2])
    assert FunctionalGraph.from_automaton(g.to_automaton()) == g
    assert FunctionalGraph.from_automaton(chain_automaton()) == g
    with pytest.raises(InvalidInputError):
        FunctionalGraph.from_automaton(sample_uniform_automaton(3, 2, Seed(0)))
    with pytest.raises(InvalidInputError, match="must be integers"):
        FunctionalGraph([1.5, 0.2])


# ---------------------------------------------------------------------
# survival probability
# ---------------------------------------------------------------------
def test_survival_probability_values():
    assert survival_probability(17, 0) == 1.0
    assert survival_probability(17, 1) == 1.0
    assert survival_probability(4, 2) == pytest.approx(0.75, abs=1e-15)
    assert survival_probability(4, 3) == pytest.approx(0.375, abs=1e-15)
    assert survival_probability(4, 5) == 0.0


def test_survival_probability_gaussian_upper_bound():
    # survival after t steps is at most exp(-(t-1)^2 / (2n))
    for n in (1, 2, 3, 5, 10, 50, 100, 500, 1000):
        t = np.arange(1, n + 1)
        p = np.concatenate([[1.0], np.cumprod(1.0 - t[:-1] / n)])
        assert np.all(p <= np.exp(-((t - 1) ** 2) / (2 * n)) + 1e-15)
        # spot-check agreement with the scalar implementation
        for tt in (1, n // 2 + 1, n):
            assert survival_probability(n, tt) == pytest.approx(p[tt - 1], rel=1e-12)


def test_survival_probability_input_validation():
    with pytest.raises(InvalidInputError):
        survival_probability(0, 0)
    with pytest.raises(InvalidInputError):
        survival_probability(4, -1)
    for n, t in ((5.5, 2), (5, 2.5)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            survival_probability(n, t)


# ---------------------------------------------------------------------
# exact cyclic expectation
# ---------------------------------------------------------------------
def brute_force_expected_cyclic(p) -> float:
    """Average cyclic-vertex count over all |V|^|V| successor maps, each
    weighted by the product of its edge probabilities."""
    p = np.asarray(p, dtype=float)
    n = p.size
    total = 0.0
    for succ in itertools.product(range(n), repeat=n):
        weight = float(np.prod(p[list(succ)]))
        cyc = 0
        for v in range(n):
            x = v
            for _ in range(n):
                x = succ[x]
                if x == v:
                    cyc += 1
                    break
        total += weight * cyc
    return total


def subset_sum_expected_cyclic(p) -> float:
    """Direct evaluation of sum over nonempty subsets of |C|! prod p_y."""
    p = list(map(float, p))
    total = 0.0
    for size in range(1, len(p) + 1):
        for combo in itertools.combinations(p, size):
            total += math.factorial(size) * math.prod(combo)
    return total


def test_expected_cyclic_point_values():
    assert expected_cyclic_exact(ProbVector([1.0])) == pytest.approx(1.0, abs=1e-15)
    assert expected_cyclic_exact(ProbVector.uniform(2)) == pytest.approx(1.5, abs=1e-13)
    assert expected_cyclic_exact(ProbVector.uniform(3)) == pytest.approx(17 / 9, abs=1e-13)
    assert expected_cyclic_exact(ProbVector([0.9, 0.1])) == pytest.approx(1.18, abs=1e-13)


def test_expected_cyclic_matches_brute_force_uniform():
    for n in range(1, 5):
        exact = expected_cyclic_exact(ProbVector.uniform(n))
        brute = brute_force_expected_cyclic(np.full(n, 1.0 / n))
        assert abs(exact - brute) < 1e-12


def test_expected_cyclic_matches_both_oracles_random_p(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(n))
        exact = expected_cyclic_exact(ProbVector(p))
        assert abs(exact - brute_force_expected_cyclic(p)) < 1e-12
        assert abs(exact - subset_sum_expected_cyclic(p)) < 1e-12


def test_expected_cyclic_capacity_guard():
    with pytest.raises(CapacityError):
        expected_cyclic_exact(ProbVector.uniform(26))


def test_uniform_maximizes_expected_cyclic(rng):
    uniform_value = expected_cyclic_exact(ProbVector.uniform(3))
    for _ in range(200):
        challenger = expected_cyclic_exact(ProbVector(rng.dirichlet(np.ones(3))))
        assert uniform_value >= challenger - 1e-12


# ---------------------------------------------------------------------
# extinction sequence
# ---------------------------------------------------------------------
def test_extinction_sequence_first_values():
    seq = extinction_sequence(2)
    assert seq[0] == 0.0
    assert seq[1] == pytest.approx(math.exp(-1), abs=1e-15)
    assert seq[2] == pytest.approx(math.exp(-(1 - math.exp(-1))), abs=1e-15)
    assert seq.k_max == 2 and len(seq) == 3


def test_extinction_sequence_strictly_increasing_below_one():
    q = extinction_sequence(1000).q
    assert np.all(np.diff(q) > 0)
    assert q[0] == 0.0 and q[-1] < 1.0


def test_extinction_sequence_tail_decay_band():
    q = extinction_sequence(1000).q
    k = np.arange(10, 1001)
    prod = k * (1.0 - q[10:])
    assert prod.min() >= 1.0 and prod.max() <= 3.0


def test_extinction_sequence_validation():
    with pytest.raises(InvalidInputError):
        extinction_sequence(-1)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        extinction_sequence(2.5)
    with pytest.raises(InvalidInputError):
        ExtinctionSequence([0.1, 0.2])
    with pytest.raises(InvalidInputError):
        ExtinctionSequence([0.0, 0.5, 0.4])


def test_extinction_sequence_index():
    seq = extinction_sequence(3)
    assert seq[-1] == seq[3] and seq[-4] == seq[0] == 0.0
    assert seq[np.int64(2)] == seq[2]
    for bad in (1.5, True, np.True_):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            seq[bad]
    for bad in (4, 9, -5, -9):
        with pytest.raises(InvalidInputError, match=r"must lie in \[-4, 4\)"):
            seq[bad]


# ---------------------------------------------------------------------
# power-mean inequality check
# ---------------------------------------------------------------------
def test_bernoulli_inequality_edges():
    assert check_bernoulli_inequality(0, 5, 0.3)
    assert check_bernoulli_inequality(5, 5, 1.0)
    assert check_bernoulli_inequality(0, 0, 0.5)
    assert check_bernoulli_inequality(1, 2, 1.0)  # 0.5 >= e^-1


def test_bernoulli_inequality_validation():
    with pytest.raises(InvalidInputError):
        check_bernoulli_inequality(3, 2, 0.5)
    with pytest.raises(InvalidInputError):
        check_bernoulli_inequality(1, 2, 0.0)
    with pytest.raises(InvalidInputError):
        check_bernoulli_inequality(1, 2, 1.5)
    with pytest.raises(InvalidInputError):
        check_bernoulli_inequality(-1, 2, 0.5)
    for a, b in ((0.5, 2), (1, 2.5)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            check_bernoulli_inequality(a, b, 0.5)


def test_bernoulli_inequality_random_triples(rng):
    for _ in range(2000):
        b = int(rng.integers(0, 10**6 + 1))
        a = int(rng.integers(0, b + 1)) if b else 0
        x = float(rng.uniform(1e-12, 1.0))
        assert check_bernoulli_inequality(a, b, x)


# ---------------------------------------------------------------------
# distances to a set
# ---------------------------------------------------------------------
def test_distance_to_set_examples():
    g = FunctionalGraph([1, 2, 2])
    assert distance_to_set(g, [2]) == {0: 2, 1: 1, 2: 0}
    # two self-loops: vertex 1 never reaches {0}
    g2 = FunctionalGraph([0, 1])
    assert distance_to_set(g2, [0]) == {0: 0}


def test_distance_to_set_validation():
    g = FunctionalGraph([1, 0])
    with pytest.raises(InvalidInputError):
        distance_to_set(g, [])
    with pytest.raises(InvalidInputError):
        distance_to_set(g, [2])
    for bad in ([0.5], [True]):
        with pytest.raises(InvalidInputError, match="must be integers"):
            distance_to_set(g, bad)


def test_distance_to_set_takes_a_state_set():
    g = FunctionalGraph([1, 2, 2, 0, 3])
    assert distance_to_set(g, StateSet(5, [2, 4])) == distance_to_set(g, [4, 2]) == {0: 2, 1: 1, 2: 0, 3: 3, 4: 0}
    with pytest.raises(InvalidInputError, match=r"target set is over \[0, 4\) but the graph has 5 vertices"):
        distance_to_set(g, StateSet(4, [2]))


def test_distance_to_set_matches_forward_walk_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 30))
        g = FunctionalGraph(rng.integers(0, n, size=n))
        targets = set(int(x) for x in rng.integers(0, n, size=rng.integers(1, 4)))
        got = distance_to_set(g, targets)
        for v in range(n):
            x, expected = v, None
            for t in range(n + 1):
                if x in targets:
                    expected = t
                    break
                x = int(g.succ[x])
            assert got.get(v) == expected


def test_distance_to_set_statistical_lower_bound(rng):
    # lighter version of the extinction-bound acceptance grid
    reps, nv, ell, k = 4000, 8, 2, 2
    bound = float(extinction_sequence(k).q[-1] ** ell)
    hits = 0
    for _ in range(reps):
        g = FunctionalGraph(rng.integers(0, nv, size=nv))
        targets = rng.choice(nv, size=ell, replace=False)
        dist = distance_to_set(g, targets)
        if k not in dist.values():
            hits += 1
    p_hat = hits / reps
    stderr = math.sqrt(p_hat * (1 - p_hat) / reps)
    assert p_hat >= bound - 3 * stderr
