"""Seeded Monte Carlo runners over random automata and 1-out digraphs.

Every trial draws from the stream Seed(master).stream(stream_index), so a
config reproduces the same measurements regardless of worker count or
execution order.  Trial rows go to CSV (one row per measured quantity,
header fixed below); aggregated statistics and acceptance verdicts go to a
summary JSON.  Wall times are recorded for reporting but are the one column
that naturally differs between runs.

Each experiment is one entry of the EXPERIMENTS table (trial function,
accepted overrides, trial layout, judge); run_experiment runs any of them.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import Automaton, StateSet, _as_index, image, is_reset_word, iterate_unary_image
from .errors import CapacityError, InvalidInputError, NotSynchronizableError
from .randmodel import (
    EXACT_EXPECTATION_LIMIT,
    FunctionalGraph,
    ProbVector,
    Seed,
    cyclic_states,
    expected_cyclic_exact,
    extinction_sequence,
    sample_uniform_automaton,
)
from .sync import (
    RADIUS_STATE_LIMIT,
    SUBSET_STATE_LIMIT,
    all_pairs_merge_radius,
    exact_shortest_reset,
    phase1_word_interleaved,
    phase1_word_unary,
    two_phase_synchronize,
)

CSV_HEADER = "experiment,n,trial,seed_stream,quantity,value,walltime_ms"

WORKER_ENV_VAR = "SYNCHROLAB_THREADS"

# Acceptance bands.  These finite-size thresholds stand in for asymptotic
# statements and are echoed into every summary's metadata.
UNARY_RATIO_BAND = (0.3, 1.15)
INTERLEAVED_STABILITY_FACTOR = 2.0
RADIUS_BOUND_MULTIPLIER = 3.0
RADIUS_FRACTION_MIN = 0.9
TWO_PHASE_SUCCESS_MIN = 0.9
TWO_PHASE_SLOPE_BAND = (0.4, 0.65)
MAXIMIZER_TOLERANCE = 1e-12
EXTINCTION_SIGMA = 3.0
DEFAULT_ELL_VALUES = (1, 2, 3)
DEFAULT_K_VALUES = (1, 2, 3, 4)


@dataclass
class ExperimentConfig:
    """One experiment request: sizes, per-size trial counts, master seed.

    For extinction-bound the n values are vertex counts, `trials` is the
    Monte Carlo repetition count per grid point, and each (ell, k) grid
    point occupies one trial slot; every set size ell must lie in [1, n]
    for every n, and every distance k must be non-negative.  A malformed
    request, such as an n below the least that the experiment's trials
    take, raises InvalidInputError here, before any trial runs, and an n
    above the capacity guard of the search its trials run raises
    CapacityError; `overrides` keeps the values as given, and `params`
    holds them parsed.
    """

    experiment: str
    n_list: list[int]
    trials: list[int]
    seed: int = 0
    out: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise InvalidInputError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {sorted(EXPERIMENTS)}"
            )
        self.n_list = _ints("n_list", self.n_list)
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise InvalidInputError("n_list must be strictly ascending")
        spec = EXPERIMENTS[self.experiment]
        if self.n_list[0] < spec.min_n:
            raise InvalidInputError(f"{self.experiment} needs n >= {spec.min_n}, got n = {self.n_list[0]}")
        if spec.max_n is not None and self.n_list[-1] > spec.max_n:
            raise CapacityError(f"{self.experiment} is capped at n = {spec.max_n}, got n = {self.n_list[-1]}")
        if isinstance(self.trials, numbers.Integral):
            self.trials = [self.trials] * len(self.n_list)
        self.trials = _ints("trials", self.trials)
        if len(self.trials) != len(self.n_list):
            raise InvalidInputError("trials must be one count or one per n")
        if any(t < 1 for t in self.trials):
            raise InvalidInputError("trial counts must be at least 1")
        self.seed = Seed(_as_index(self.seed, "seed")).master
        if not (self.out is None or isinstance(self.out, str)):
            raise InvalidInputError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.overrides, dict):
            raise InvalidInputError(f"overrides must be an object, got {self.overrides!r}")
        extra = set(self.overrides) - set(spec.overrides)
        if extra:
            raise InvalidInputError(
                f"unsupported overrides for {self.experiment}: {sorted(extra)}"
            )
        params = self.params  # a malformed override value raises here
        if self.experiment == "extinction-bound":
            for ell in params["ell_values"]:
                if not 1 <= ell <= self.n_list[0]:
                    raise InvalidInputError(f"set size {ell} out of range [1, {self.n_list[0]}]")
            if min(params["k_values"]) < 0:
                raise InvalidInputError("distance k must be non-negative")

    @property
    def params(self) -> dict:
        """Every override the experiment accepts, parsed, defaults filled in."""
        return {
            name: parse(f"override {name}", self.overrides.get(name, default))
            for name, (default, parse) in EXPERIMENTS[self.experiment].overrides.items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise InvalidInputError("experiment config must be a JSON object")
        known = {"experiment", "n_list", "trials", "seed", "out", "overrides"}
        extra = set(data) - known
        if extra:
            raise InvalidInputError(f"unknown config fields: {sorted(extra)}")
        missing = {"experiment", "n_list", "trials"} - set(data)
        if missing:
            raise InvalidInputError(f"missing config fields: {sorted(missing)}")
        return cls(
            experiment=data["experiment"],
            n_list=data["n_list"],
            trials=data["trials"],
            seed=data.get("seed", 0),
            out=data.get("out"),
            overrides=data.get("overrides", {}),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"invalid config JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


# --- config and override parsers: (what, raw value) -> value ----------------


def _ints(what: str, raw) -> list[int]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise InvalidInputError(f"{what} must be a nonempty list of integers, got {raw!r}")
    return [_as_index(v, f"{what} entry") for v in raw]


def _number(what: str, raw) -> float:
    if isinstance(raw, numbers.Real) and not isinstance(raw, bool):
        return float(raw)
    raise InvalidInputError(f"{what} must be a number, got {raw!r}")


def _prob_vector(what: str, raw) -> str:
    if raw not in ("dirichlet", "uniform"):
        raise InvalidInputError(f"{what} must be 'dirichlet' or 'uniform', got {raw!r}")
    return raw


@dataclass
class TrialRecord:
    experiment: str
    n: int
    trial: int
    seed_stream: int
    quantities: dict[str, float]
    walltime_ms: float


@dataclass
class QuantityStats:
    mean: float
    stderr: float
    min: float
    max: float
    median: float
    count: int


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class SummaryStats:
    """Per-n statistics of every measured quantity plus derived ratios and
    the acceptance verdicts of the experiment that produced them."""

    experiment: str
    per_n: dict[int, dict[str, QuantityStats]]
    derived: dict[int, dict[str, float]] = field(default_factory=dict)
    overall: dict[str, float] = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "per_n": {
                str(n): {q: asdict(s) for q, s in qs.items()}
                for n, qs in self.per_n.items()
            },
            "derived": {
                str(n): dict(vals) for n, vals in self.derived.items()
            },
            "overall": dict(self.overall),
            "verdicts": [asdict(v) for v in self.verdicts],
            "meta": self.meta,
        }


def summarize(records: list[TrialRecord]) -> SummaryStats:
    """Aggregate trial records per (n, quantity): mean, stderr (sample
    stddev / sqrt(count), 0 for a single value), min, max, median.

    Records are folded in (n, trial) order, so the result is independent of
    the order in which they arrive.
    """
    if not records:
        raise InvalidInputError("no trial records to summarize")
    recs = sorted(records, key=lambda r: (r.n, r.trial))
    experiment = recs[0].experiment
    grouped: dict[int, dict[str, list[float]]] = {}
    for rec in recs:
        by_q = grouped.setdefault(rec.n, {})
        for name, value in rec.quantities.items():
            by_q.setdefault(name, []).append(float(value))
    per_n: dict[int, dict[str, QuantityStats]] = {}
    for n, by_q in grouped.items():
        per_n[n] = {}
        for name, vals in by_q.items():
            arr = np.asarray(vals)
            stderr = 0.0 if arr.size == 1 else float(np.std(arr, ddof=1) / math.sqrt(arr.size))
            per_n[n][name] = QuantityStats(
                mean=float(arr.mean()),
                stderr=stderr,
                min=float(arr.min()),
                max=float(arr.max()),
                median=float(np.median(arr)),
                count=int(arr.size),
            )
    return SummaryStats(experiment=experiment, per_n=per_n)


# --- per-automaton measurements --------------------------------------------


def measure_unary_image(aut: Automaton) -> dict[str, float]:
    """Image size of the full set under the repeated-letter phase word, plus
    the letter-0 cyclic-state count (a lower bound for the image)."""
    reps = len(phase1_word_unary(aut.n))
    img = iterate_unary_image(aut, 0, reps, StateSet.full(aut.n))
    cyc = cyclic_states(FunctionalGraph(aut.letter(0)))
    return {"image_size": float(len(img)), "cyclic_count": float(len(cyc))}


def measure_interleaved_image(aut: Automaton) -> dict[str, float]:
    """Image sizes under the interleaved and the repeated-letter phase words
    on the same automaton (paired comparison)."""
    full = StateSet.full(aut.n)
    inter = image(aut, phase1_word_interleaved(aut.n), full)
    reps = len(phase1_word_unary(aut.n))
    unary = iterate_unary_image(aut, 0, reps, full)
    return {
        "image_interleaved": float(len(inter)),
        "image_unary": float(len(unary)),
    }


def measure_pair_radius(aut: Automaton, bound_multiplier: float = RADIUS_BOUND_MULTIPLIER) -> dict[str, float]:
    """All-pairs merge radius; an infinite radius is recorded only through
    the synchronizable_pairs flag so CSV values stay finite."""
    radius = all_pairs_merge_radius(aut)
    bound = bound_multiplier * math.log2(aut.n)
    out = {
        "within_bound": 1.0 if radius <= bound else 0.0,
        "synchronizable_pairs": 0.0 if radius == math.inf else 1.0,
    }
    if radius != math.inf:
        out["radius"] = float(radius)
    return out


def measure_two_phase(aut: Automaton) -> dict[str, float]:
    """Two-phase construction outcome; non-synchronizable draws record only
    the synchronizable flag."""
    try:
        report = two_phase_synchronize(aut)
    except NotSynchronizableError:
        return {"synchronizable": 0.0}
    return {
        "synchronizable": 1.0,
        "total_length": float(len(report.word)),
        "phase1_length": float(report.phase1_length),
        "phase2_length": float(report.phase2_length),
        "image_size": float(report.intermediate_image_size),
        "verified": 1.0 if report.verified else 0.0,
    }


def measure_reset_length(aut: Automaton) -> dict[str, float]:
    """Exact shortest reset length via the power-set oracle."""
    word = exact_shortest_reset(aut)
    if word is None:
        return {"synchronizable": 0.0}
    length = len(word)
    return {
        "synchronizable": 1.0,
        "length": float(length),
        "length_over_sqrt_n": length / math.sqrt(aut.n),
        "length_over_cbrt_n": length / aut.n ** (1.0 / 3.0),
    }


# --- trial functions: (rng, n, **params) -> measured quantities --------------


def _on_sample(measure, rng: np.random.Generator, n: int, **params) -> dict[str, float]:
    """Apply an automaton measurement to a uniform binary automaton drawn
    from the trial's stream."""
    return measure(sample_uniform_automaton(n, 2, rng), **params)


def _trial_extinction(
    rng: np.random.Generator, nv: int, ell: int, k: int, reps: int, prob_vector: str
) -> dict[str, float]:
    """One grid point: Monte Carlo estimate of Pr(no vertex at distance
    exactly k from a uniform ell-set), versus the extinction bound q_k^ell,
    for 1 <= ell <= nv and k >= 0."""
    if prob_vector == "uniform":
        p = np.full(nv, 1.0 / nv)
    else:
        p = rng.dirichlet(np.ones(nv))
    succ = rng.choice(nv, size=(reps, nv), p=p / p.sum())
    ranks = rng.random((reps, nv))
    sel = np.argpartition(ranks, ell - 1, axis=1)[:, :ell]
    in_set = np.zeros((reps, nv), dtype=bool)
    np.put_along_axis(in_set, sel, True, axis=1)

    reached_before = in_set.copy()
    cur = np.broadcast_to(np.arange(nv), (reps, nv)).copy()
    if k == 0:
        exact_exists = in_set.any(axis=1)
    else:
        for t in range(1, k + 1):
            cur = np.take_along_axis(succ, cur, axis=1)
            reached_now = np.take_along_axis(in_set, cur, axis=1)
            if t == k:
                exact_exists = (reached_now & ~reached_before).any(axis=1)
            else:
                reached_before |= reached_now
    p_hat = 1.0 - float(exact_exists.mean())
    bound = float(extinction_sequence(k).q[-1] ** ell)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / reps)
    violation = 1.0 if p_hat < bound - EXTINCTION_SIGMA * stderr else 0.0
    return {
        "p_hat": p_hat,
        "bound": bound,
        "stderr": stderr,
        "violation": violation,
        "ell": float(ell),
        "k": float(k),
    }


def _trial_maximizer(rng: np.random.Generator, nv: int) -> dict[str, float]:
    challenger = ProbVector(rng.dirichlet(np.ones(nv)))
    uniform_value = expected_cyclic_exact(ProbVector.uniform(nv))
    value = expected_cyclic_exact(challenger)
    return {"gap": uniform_value - value, "challenger_value": value}


# --- trial layout and execution ---------------------------------------------


@dataclass
class _TrialSpec:
    experiment: str
    n: int
    trial: int
    stream_index: int
    master: int
    params: dict


def _grid_layout(params: dict, trials: int) -> list[dict]:
    """`trials` trials per n, each given the parsed overrides."""
    return [params] * trials


def _extinction_layout(params: dict, reps: int) -> list[dict]:
    """One trial slot per (ell, k) grid point, each of `reps` repetitions."""
    return [
        {"ell": ell, "k": k, "reps": reps, "prob_vector": params["prob_vector"]}
        for ell in params["ell_values"]
        for k in params["k_values"]
    ]


def _specs(config: ExperimentConfig, layout) -> list[_TrialSpec]:
    """Trial specs in (n, slot) order; the i-th spec draws from stream i."""
    params = config.params
    specs = []
    for n, count in zip(config.n_list, config.trials):
        for slot, slot_params in enumerate(layout(params, count)):
            specs.append(
                _TrialSpec(config.experiment, n, slot, len(specs), config.seed, slot_params)
            )
    return specs


def _run_trial(spec: _TrialSpec) -> TrialRecord:
    trial = EXPERIMENTS[spec.experiment].trial
    t0 = time.perf_counter()
    quantities = trial(Seed(spec.master).stream(spec.stream_index), spec.n, **spec.params)
    wall = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(spec.experiment, spec.n, spec.trial, spec.stream_index, quantities, wall)


def worker_count(workers: int | None = None) -> int:
    """Requested worker count, else the SYNCHROLAB_THREADS cap, else the
    available parallelism."""
    if workers is not None:
        return max(1, _as_index(workers, "worker count"))
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidInputError(f"{WORKER_ENV_VAR} must be an integer") from exc
    return os.cpu_count() or 1


def _execute(specs: list[_TrialSpec], workers: int | None) -> list[TrialRecord]:
    w = min(worker_count(workers), len(specs))
    if w <= 1:
        return [_run_trial(s) for s in specs]
    chunk = max(1, len(specs) // (4 * w))
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(_run_trial, specs, chunksize=chunk))


def _fmt_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_records_csv(records: list[TrialRecord], path: str | Path) -> None:
    """One CSV row per (trial, quantity), in trial order."""
    lines = [CSV_HEADER]
    for r in records:
        wall = _fmt_value(round(r.walltime_ms, 3))
        for name, value in r.quantities.items():
            lines.append(
                f"{r.experiment},{r.n},{r.trial},{r.seed_stream},{name},{_fmt_value(value)},{wall}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(stats: SummaryStats, path: str | Path) -> None:
    Path(path).write_text(json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")


# --- judges: fill in a summary's derived values, verdicts and metadata -------


def _judge_unary(config: ExperimentConfig, stats: SummaryStats) -> None:
    """The mean image size after the repeated-letter word, over
    sqrt(2 pi n), must land in UNARY_RATIO_BAND."""
    lo, hi = UNARY_RATIO_BAND
    for n in config.n_list:
        ratio = stats.per_n[n]["image_size"].mean / math.sqrt(2.0 * math.pi * n)
        stats.derived[n] = {"mean_image_over_sqrt_2pi_n": ratio}
        stats.verdicts.append(
            Verdict(
                name=f"unary-image-ratio-band:n={n}",
                passed=lo < ratio < hi,
                detail=f"mean|A|/sqrt(2*pi*n) = {ratio:.4f}, band ({lo}, {hi})",
            )
        )
    stats.meta["ratio_band"] = list(UNARY_RATIO_BAND)


def _judge_interleaved(config: ExperimentConfig, stats: SummaryStats) -> None:
    """The interleaved mean is strictly below the repeated-letter mean at
    every n, and mean|A|/sqrt(n/log2 n) moves by less than a factor
    INTERLEAVED_STABILITY_FACTOR between the smallest and largest n."""
    ratios = {}
    for n in config.n_list:
        mean_inter = stats.per_n[n]["image_interleaved"].mean
        mean_unary = stats.per_n[n]["image_unary"].mean
        ratio = mean_inter / math.sqrt(n / math.log2(n))
        ratios[n] = ratio
        stats.derived[n] = {"mean_image_over_sqrt_n_over_log2_n": ratio}
        stats.verdicts.append(
            Verdict(
                name=f"interleaved-below-unary:n={n}",
                passed=mean_inter < mean_unary,
                detail=f"mean interleaved {mean_inter:.2f} vs unary {mean_unary:.2f}",
            )
        )
    if len(config.n_list) >= 2:
        lo_n, hi_n = config.n_list[0], config.n_list[-1]
        factor = max(ratios[lo_n], ratios[hi_n]) / min(ratios[lo_n], ratios[hi_n])
        stats.overall["ratio_stability_factor"] = factor
        stats.verdicts.append(
            Verdict(
                name="interleaved-ratio-stability",
                passed=factor <= INTERLEAVED_STABILITY_FACTOR,
                detail=f"ratio factor {factor:.3f} across n={lo_n}..{hi_n}, "
                f"cap {INTERLEAVED_STABILITY_FACTOR}",
            )
        )
    stats.meta["stability_factor_cap"] = INTERLEAVED_STABILITY_FACTOR


def _judge_radius(config: ExperimentConfig, stats: SummaryStats) -> None:
    """At least RADIUS_FRACTION_MIN of the trials must have a merge radius
    of at most bound_multiplier * log2(n)."""
    mult = config.params["bound_multiplier"]
    for n in config.n_list:
        frac = stats.per_n[n]["within_bound"].mean
        stats.derived[n] = {
            "fraction_within_bound": frac,
            "radius_bound": mult * math.log2(n),
        }
        stats.verdicts.append(
            Verdict(
                name=f"radius-fraction:n={n}",
                passed=frac >= RADIUS_FRACTION_MIN,
                detail=f"{frac:.3f} of trials within {mult}*log2(n), "
                f"need >= {RADIUS_FRACTION_MIN}",
            )
        )
    stats.meta["bound_multiplier"] = mult
    stats.meta["fraction_min"] = RADIUS_FRACTION_MIN


def _judge_two_phase(config: ExperimentConfig, stats: SummaryStats) -> None:
    """Every produced word verifies, the synchronizable fraction is at
    least TWO_PHASE_SUCCESS_MIN per n, and (with >= 2 sizes) the log-log
    slope of the median total length lies in TWO_PHASE_SLOPE_BAND."""
    medians = {}
    for n in config.n_list:
        by_q = stats.per_n[n]
        success = by_q["synchronizable"].mean
        stats.derived[n] = {"success_fraction": success}
        stats.verdicts.append(
            Verdict(
                name=f"two-phase-success:n={n}",
                passed=success >= TWO_PHASE_SUCCESS_MIN,
                detail=f"synchronizable fraction {success:.3f}, "
                f"need >= {TWO_PHASE_SUCCESS_MIN}",
            )
        )
        if "verified" in by_q:
            all_verified = by_q["verified"].min >= 1.0
            stats.verdicts.append(
                Verdict(
                    name=f"two-phase-verified:n={n}",
                    passed=all_verified,
                    detail=f"min verified flag {by_q['verified'].min}",
                )
            )
        if "total_length" in by_q:
            medians[n] = by_q["total_length"].median
            stats.derived[n]["median_total_length"] = medians[n]
    if len(medians) >= 2:
        ns = sorted(medians)
        slope = float(
            np.polyfit(np.log([float(n) for n in ns]), np.log([medians[n] for n in ns]), 1)[0]
        )
        stats.overall["median_length_loglog_slope"] = slope
        lo, hi = TWO_PHASE_SLOPE_BAND
        stats.verdicts.append(
            Verdict(
                name="two-phase-slope",
                passed=lo <= slope <= hi,
                detail=f"log-log slope {slope:.4f}, band [{lo}, {hi}]",
            )
        )
    stats.meta["slope_band"] = list(TWO_PHASE_SLOPE_BAND)
    stats.meta["success_min"] = TWO_PHASE_SUCCESS_MIN


def _judge_extinction(config: ExperimentConfig, stats: SummaryStats) -> None:
    """No grid point may fall more than EXTINCTION_SIGMA standard errors
    below the extinction bound q_k^ell."""
    total_violations = 0.0
    for n in config.n_list:
        viol = stats.per_n[n]["violation"].mean * stats.per_n[n]["violation"].count
        total_violations += viol
        stats.derived[n] = {"violations": viol}
    stats.overall["violations"] = total_violations
    stats.verdicts.append(
        Verdict(
            name="extinction-bound-no-violation",
            passed=total_violations == 0.0,
            detail=f"{int(total_violations)} grid points fell more than "
            f"{EXTINCTION_SIGMA} stderr below the bound",
        )
    )
    stats.meta["grid"] = config.params
    stats.meta["sigma"] = EXTINCTION_SIGMA


def _judge_maximizer(config: ExperimentConfig, stats: SummaryStats) -> None:
    """The exact cyclic-vertex expectation at the uniform vector beats every
    random simplex challenger: the worst gap stays above
    -MAXIMIZER_TOLERANCE."""
    for n in config.n_list:
        uniform_value = expected_cyclic_exact(ProbVector.uniform(n))
        min_gap = stats.per_n[n]["gap"].min
        stats.derived[n] = {"uniform_value": uniform_value, "min_gap": min_gap}
        stats.verdicts.append(
            Verdict(
                name=f"uniform-maximizer:n={n}",
                passed=min_gap >= -MAXIMIZER_TOLERANCE,
                detail=f"worst challenger gap {min_gap:.3e}, "
                f"tolerance {MAXIMIZER_TOLERANCE}",
            )
        )
    stats.meta["tolerance"] = MAXIMIZER_TOLERANCE


def _judge_reset_length(config: ExperimentConfig, stats: SummaryStats) -> None:
    """Exploratory, no verdicts: the synchronizable fraction and the mean
    length over n^(1/2) and n^(1/3)."""
    for n in config.n_list:
        by_q = stats.per_n[n]
        derived = {"success_fraction": by_q["synchronizable"].mean}
        if "length" in by_q:
            derived["mean_length_over_sqrt_n"] = by_q["length_over_sqrt_n"].mean
            derived["mean_length_over_cbrt_n"] = by_q["length_over_cbrt_n"].mean
        stats.derived[n] = derived


# --- the experiment table and its runner ------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One named experiment.

    `trial(rng, n, **params)` measures one trial; `overrides` maps each
    accepted override to its default and its parser `(what, raw) -> value`;
    `layout(params, count)` gives the params of each trial slot at one n
    (`count` is the config's trials entry for that n); `judge(config,
    stats)` fills in the summary's derived values, verdicts and metadata;
    `min_n` is the least n the trial takes, and `max_n`, when set, the
    largest that the capacity guard of the trial's search lets through.
    """

    name: str
    trial: Callable[..., dict[str, float]]
    judge: Callable[[ExperimentConfig, SummaryStats], None]
    overrides: dict[str, tuple] = field(default_factory=dict)
    layout: Callable[[dict, int], list[dict]] = _grid_layout
    min_n: int = 1
    max_n: int | None = None


EXPERIMENTS = {
    e.name: e
    for e in (
        Experiment("unary-image", partial(_on_sample, measure_unary_image), _judge_unary, min_n=2),
        Experiment("interleaved-image", partial(_on_sample, measure_interleaved_image),
                   _judge_interleaved, min_n=2),
        Experiment("pair-radius", partial(_on_sample, measure_pair_radius), _judge_radius,
                   {"bound_multiplier": (RADIUS_BOUND_MULTIPLIER, _number)}, min_n=2, max_n=RADIUS_STATE_LIMIT),
        Experiment("two-phase", partial(_on_sample, measure_two_phase), _judge_two_phase, min_n=2),
        Experiment("extinction-bound", _trial_extinction, _judge_extinction,
                   {"ell_values": (DEFAULT_ELL_VALUES, _ints),
                    "k_values": (DEFAULT_K_VALUES, _ints),
                    "prob_vector": ("dirichlet", _prob_vector)},
                   _extinction_layout),
        Experiment("uniform-maximizer", _trial_maximizer, _judge_maximizer, max_n=EXACT_EXPECTATION_LIMIT),
        Experiment("reset-length", partial(_on_sample, measure_reset_length), _judge_reset_length,
                   max_n=SUBSET_STATE_LIMIT),
    )
}


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> SummaryStats:
    """Run a config's trials, summarize and judge them, and write the CSV
    and summary JSON when the config carries an output directory."""
    experiment = EXPERIMENTS[config.experiment]
    records = _execute(_specs(config, experiment.layout), workers)
    stats = summarize(records)
    experiment.judge(config, stats)
    stats.meta.setdefault("config", config.to_dict())
    if config.out is not None:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        write_records_csv(records, out / f"{config.experiment}.csv")
        write_summary_json(stats, out / f"{config.experiment}_summary.json")
    return stats
