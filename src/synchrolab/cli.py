"""Command-line front end.

Exit codes: 0 success, 1 invalid input or usage, 2 capacity limit exceeded
(a guard, or an array numpy refuses to allocate), 3 not synchronizable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import experiments
from .core import _MAX_TEXT_ALPHABET, StateSet, cerny_automaton, read_dfa, write_dfa
from .errors import CapacityError, InvalidInputError, NotSynchronizableError
from .randmodel import (
    FunctionalGraph,
    ProbVector,
    Seed,
    cyclic_states,
    expected_cyclic_exact,
    extinction_sequence,
    sample_uniform_automaton,
)
from .sync import all_pairs_merge_radius, exact_shortest_reset, two_phase_synchronize

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAPACITY = 2
EXIT_NOT_SYNCHRONIZABLE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args leaves the parser as it was, and
    # building it with its subparsers costs as much as dozens of parses.
    parser = _Parser(prog="synchrolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="sample a uniform random automaton to a dfa file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sync", help="two-phase reset word for a dfa file or a fresh sample")
    p.add_argument("--in", dest="infile")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("pairs", help="all-pairs merge radius of a dfa file")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("exact", help="exact shortest reset word of a dfa file")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("cyclic", help="cyclic-vertex count of a unary dfa, or the exact expectation of a probability vector")
    p.add_argument("--in", dest="infile")
    p.add_argument("--p-json", dest="p_json")

    p = sub.add_parser("gw", help="extinction probabilities q_0..q_K")
    p.add_argument("--K", dest="k_max", type=int, required=True)

    p = sub.add_parser("experiment", help="run a named experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output directory")

    p = sub.add_parser("cerny", help="write the slowly synchronizing automaton C_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def _check_text_alphabet(k: int) -> None:
    # Words are printed as text, one character a..z per letter.
    if k > _MAX_TEXT_ALPHABET:
        raise InvalidInputError(
            f"{k} letters have no textual form (only a..z are mapped, at most {_MAX_TEXT_ALPHABET} letters)"
        )


def _cmd_gen(args) -> int:
    _check_text_alphabet(args.k)
    aut = sample_uniform_automaton(args.n, args.k, Seed(args.seed))
    write_dfa(aut, args.out)
    print(f"wrote n={aut.n} k={aut.k} automaton to {args.out}")
    return EXIT_OK


def _load_or_sample(args):
    if args.infile is not None and args.n is not None:
        raise InvalidInputError("give either --in or --n, not both")
    if args.infile is not None:
        return read_dfa(args.infile)
    if args.n is not None:
        return sample_uniform_automaton(args.n, 2, Seed(args.seed))
    raise InvalidInputError("need --in FILE or --n N")


def _cmd_sync(args) -> int:
    aut = _load_or_sample(args)
    report = two_phase_synchronize(aut)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_pairs(args) -> int:
    radius = all_pairs_merge_radius(read_dfa(args.infile))
    print(json.dumps({"radius": None if radius == math.inf else int(radius)}))
    return EXIT_OK


def _cmd_exact(args) -> int:
    aut = read_dfa(args.infile)
    _check_text_alphabet(aut.k)
    word = exact_shortest_reset(aut)
    if word is None:
        print(json.dumps({"word": None, "length": None}))
    else:
        print(json.dumps({"word": word.text, "length": len(word)}))
    return EXIT_OK


def _cmd_cyclic(args) -> int:
    if (args.infile is None) == (args.p_json is None):
        raise InvalidInputError("give exactly one of --in or --p-json")
    if args.infile is not None:
        graph = FunctionalGraph.from_automaton(read_dfa(args.infile))
        print(json.dumps({"cyclic_count": len(cyclic_states(graph))}))
    else:
        value = expected_cyclic_exact(ProbVector.from_json(args.p_json))
        print(json.dumps({"expected_cyclic": value}))
    return EXIT_OK


def _cmd_gw(args) -> int:
    for q in extinction_sequence(args.k_max).q:
        print(repr(float(q)))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = experiments.load_config(args.config)
    if args.out is not None:
        config.out = args.out
    stats = experiments.run_experiment(config)
    passed = sum(1 for v in stats.verdicts if v.passed)
    print(
        f"{config.experiment}: {len(stats.per_n)} sizes, "
        f"{passed}/{len(stats.verdicts)} verdicts passed"
        + (f", artifacts in {config.out}" if config.out else "")
    )
    for v in stats.verdicts:
        print(f"  [{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    return EXIT_OK


def _cmd_cerny(args) -> int:
    write_dfa(cerny_automaton(args.n), args.out)
    print(f"wrote C_{args.n} to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "sync": _cmd_sync,
    "pairs": _cmd_pairs,
    "exact": _cmd_exact,
    "cyclic": _cmd_cyclic,
    "gw": _cmd_gw,
    "experiment": _cmd_experiment,
    "cerny": _cmd_cerny,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NotSynchronizableError as exc:
        print(f"not synchronizable: {exc} (stuck pair {exc.pair})", file=sys.stderr)
        return EXIT_NOT_SYNCHRONIZABLE
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidInputError, OSError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    raise SystemExit(main())
