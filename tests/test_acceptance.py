"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s) before
asserting, so a red run still reports every verdict it reached.  The
statistical bands are finite-size stand-ins for asymptotic behavior; the
exact and property-based criteria are sharp.
"""

import itertools
import math
import time

import numpy as np
import pytest

from synchrolab import (
    NotSynchronizableError,
    ProbVector,
    Seed,
    StateSet,
    Word,
    all_pairs_merge_radius,
    apply_word,
    cerny_automaton,
    check_bernoulli_inequality,
    exact_shortest_reset,
    expected_cyclic_exact,
    extinction_sequence,
    greedy_synchronize,
    is_reset_word,
    pair_shortest_merge,
    sample_uniform_automaton,
)
from synchrolab.core import Automaton
from synchrolab.experiments import (
    EXTINCTION_SIGMA,
    INTERLEAVED_STABILITY_FACTOR,
    RADIUS_FRACTION_MIN,
    TWO_PHASE_SLOPE_BAND,
    TWO_PHASE_SUCCESS_MIN,
    UNARY_RATIO_BAND,
    ExperimentConfig,
    run_experiment,
)

MASTER_SEED = 20260810


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_unary_image_ratio_band():
    t0 = time.perf_counter()
    stats = run_experiment(
        ExperimentConfig(
            experiment="unary-image", n_list=[10_000, 100_000], trials=30,
            seed=MASTER_SEED,
        )
    )
    ratios = {n: stats.derived[n]["mean_image_over_sqrt_2pi_n"] for n in (10_000, 100_000)}
    lo, hi = UNARY_RATIO_BAND
    ok = all(lo < r < hi for r in ratios.values())
    report(
        "unary-image ratio band",
        ok,
        f"mean|A|/sqrt(2*pi*n) = "
        f"{', '.join(f'{n}: {r:.3f}' for n, r in ratios.items())} "
        f"in ({lo}, {hi}), 30 trials each, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_2_interleaved_image_paired_comparison():
    t0 = time.perf_counter()
    stats = run_experiment(
        ExperimentConfig(
            experiment="interleaved-image", n_list=[10_000, 100_000], trials=30,
            seed=MASTER_SEED,
        )
    )
    below = all(
        stats.per_n[n]["image_interleaved"].mean < stats.per_n[n]["image_unary"].mean
        for n in (10_000, 100_000)
    )
    factor = stats.overall["ratio_stability_factor"]
    ok = below and factor <= INTERLEAVED_STABILITY_FACTOR
    report(
        "interleaved-image paired comparison",
        ok,
        f"interleaved below unary at both sizes: {below}; "
        f"ratio stability factor {factor:.3f} <= {INTERLEAVED_STABILITY_FACTOR}; "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_3_pair_radius_band_and_exhaustive_n2():
    t0 = time.perf_counter()
    stats = run_experiment(
        ExperimentConfig(
            experiment="pair-radius", n_list=[1024], trials=30, seed=MASTER_SEED,
        )
    )
    frac = stats.derived[1024]["fraction_within_bound"]

    # exhaustive n=2 check: the all-pairs radius equals the forward-search
    # maximum on every one of the 16 two-state automata
    agree = True
    for entries in itertools.product(range(2), repeat=4):
        aut = Automaton(np.array(entries).reshape(2, 2))
        radius = all_pairs_merge_radius(aut)
        forward = pair_shortest_merge(aut, 0, 1, max_len=math.inf).distance
        agree = agree and radius == forward

    ok = frac >= RADIUS_FRACTION_MIN and agree
    report(
        "pair radius",
        ok,
        f"{frac:.3f} of 30 trials at n=1024 within 3*log2(n)=30 "
        f"(need >= {RADIUS_FRACTION_MIN}); n=2 exhaustive agreement: {agree}; "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_4_two_phase_scaling():
    t0 = time.perf_counter()
    stats = run_experiment(
        ExperimentConfig(
            experiment="two-phase", n_list=[1_000, 10_000, 100_000],
            trials=[30, 30, 10], seed=MASTER_SEED,
        )
    )
    all_verified = all(
        stats.per_n[n]["verified"].min >= 1.0
        for n in (1_000, 10_000, 100_000)
        if "verified" in stats.per_n[n]
    )
    success_ok = all(
        stats.derived[n]["success_fraction"] >= TWO_PHASE_SUCCESS_MIN
        for n in (1_000, 10_000, 100_000)
    )
    slope = stats.overall["median_length_loglog_slope"]
    lo, hi = TWO_PHASE_SLOPE_BAND
    ok = all_verified and success_ok and lo <= slope <= hi
    report(
        "two-phase scaling",
        ok,
        f"all words verified: {all_verified}; success fractions ok: {success_ok}; "
        f"median-length log-log slope {slope:.3f} in [{lo}, {hi}]; "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_cerny_ground_truth():
    lengths = {n: len(exact_shortest_reset(cerny_automaton(n))) for n in (3, 4, 5)}
    ok = lengths == {3: 4, 4: 9, 5: 16}
    report(
        "exact oracle on slowly synchronizing automata",
        ok,
        f"shortest reset lengths {lengths}, expected (n-1)^2",
    )


def test_criterion_6_exact_expectation_formula():
    # independent oracle: weighted average over all n^n successor maps
    def brute(p):
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

    worst = 0.0
    for n in range(1, 5):
        worst = max(worst, abs(expected_cyclic_exact(ProbVector.uniform(n)) - brute(np.full(n, 1.0 / n))))
    formula_ok = worst < 1e-12

    rng = Seed(MASTER_SEED).stream(0)
    uniform_value = expected_cyclic_exact(ProbVector.uniform(3))
    gaps = [
        uniform_value - expected_cyclic_exact(ProbVector(rng.dirichlet(np.ones(3))))
        for _ in range(200)
    ]
    maximizer_ok = min(gaps) >= -1e-12
    ok = formula_ok and maximizer_ok
    report(
        "exact cyclic expectation",
        ok,
        f"max |formula - brute force| over n<=4: {worst:.2e} (< 1e-12); "
        f"uniform beats 200 simplex draws at |V|=3 (worst gap {min(gaps):.2e})",
    )


def test_criterion_7_extinction_bound_grid():
    t0 = time.perf_counter()
    stats = run_experiment(
        ExperimentConfig(
            experiment="extinction-bound", n_list=[8, 12, 16], trials=10_000,
            seed=MASTER_SEED,
        )
    )
    violations = stats.overall["violations"]

    exact_point = run_experiment(
        ExperimentConfig(
            experiment="extinction-bound", n_list=[2], trials=10_000,
            seed=MASTER_SEED,
            overrides={"ell_values": [1], "k_values": [1], "prob_vector": "uniform"},
        )
    )
    p_hat = exact_point.per_n[2]["p_hat"].mean
    stderr = exact_point.per_n[2]["stderr"].mean
    exact_ok = abs(p_hat - 0.5) <= EXTINCTION_SIGMA * stderr
    ok = violations == 0.0 and exact_ok
    report(
        "extinction lower bound",
        ok,
        f"grid |V| in (8,12,16), ell<=3, k<=4, 10^4 reps: {int(violations)} violations "
        f"beyond {EXTINCTION_SIGMA} stderr; |V|=2 point {p_hat:.4f} vs exact 0.5 "
        f"within {EXTINCTION_SIGMA} stderr ({stderr:.4f}); {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_8_extinction_tail_and_power_inequality():
    q = extinction_sequence(1000).q
    k = np.arange(10, 1001)
    prod = k * (1.0 - q[10:])
    tail_ok = bool(prod.min() >= 1.0 and prod.max() <= 3.0)

    rng = Seed(MASTER_SEED).stream(1)
    failures = 0
    for _ in range(10_000):
        b = int(rng.integers(0, 10**6 + 1))
        a = int(rng.integers(0, b + 1)) if b else 0
        x = float(rng.uniform(1e-12, 1.0))
        if not check_bernoulli_inequality(a, b, x):
            failures += 1
    ok = tail_ok and failures == 0
    report(
        "extinction tail decay and power inequality",
        ok,
        f"k(1-q_k) in [{prod.min():.3f}, {prod.max():.3f}] for k in [10, 1000] "
        f"(need within [1, 3]); {failures} inequality failures over 10^4 triples",
    )


def test_criterion_9_oracle_consistency_small_instances():
    t0 = time.perf_counter()
    rng = Seed(MASTER_SEED).stream(2)
    checked_pairs = 0
    for i in range(200):
        n = int(rng.integers(2, 13))
        aut = sample_uniform_automaton(n, 2, rng)

        exact = exact_shortest_reset(aut)
        radius = all_pairs_merge_radius(aut)
        if exact is None:
            assert radius == math.inf
            with pytest.raises(NotSynchronizableError):
                greedy_synchronize(aut, StateSet.full(n))
        else:
            greedy = greedy_synchronize(aut, StateSet.full(n))
            assert is_reset_word(aut, greedy)
            assert radius <= len(exact) <= len(greedy)

        # pair distances are minimal: no strictly shorter word merges
        for _ in range(2):
            x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
            res = pair_shortest_merge(aut, x, y, max_len=math.inf)
            if res.distance is math.inf or res.distance > 7:
                continue
            if res.witness is not None:
                assert apply_word(aut, res.witness, x) == apply_word(aut, res.witness, y)
            for length in range(res.distance):
                for letters in itertools.product(range(2), repeat=length):
                    w = Word(letters)
                    assert apply_word(aut, w, x) != apply_word(aut, w, y)
            checked_pairs += 1
    report(
        "oracle consistency on small instances",
        True,
        f"200 instances (n<=12): radius <= exact <= greedy everywhere; "
        f"{checked_pairs} pair distances confirmed minimal by word enumeration; "
        f"{time.perf_counter() - t0:.1f}s",
    )
