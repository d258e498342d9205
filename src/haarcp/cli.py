"""Command-line front end.

Exit codes: 0 success, 1 exact theorem/agreement violation, 2 input error.
Monte Carlo noise never drives a nonzero exit; statistical results are
reported, not gated.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from . import corpus
from .classify import (
    Verdict,
    census_table,
    check_theorem1,
    check_theorem2_part1,
    classify_high_cp,
    scan_corpus,
)
from .compact import cp_monte_carlo, cp_semianalytic, fc_center
from .cp import (
    _ints,
    cp_class_count,
    cp_coset_formula,
    cp_pair_count,
    format_rational,
    parse_rational,
)
from .errors import HaarcpError
from .groups import FiniteGroup, center
from .isoclinism import find_isoclinism, find_stem_group
from .specfmt import parse_group_file, parse_model_file, read_spec


def _integer(text: str) -> int:
    """An option's integer, read as every number in a spec is (see _ints)."""
    try:
        (value,) = _ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


def cmd_cp(args) -> int:
    G = parse_group_file(" ".join(args.group))
    pair = cp_pair_count(G)
    cls = cp_class_count(G)
    coset = cp_coset_formula(G)
    print(f"pair-count:    {format_rational(pair)}")
    print(f"class-count:   {format_rational(cls)}")
    print(f"coset-formula: {format_rational(coset)}")
    if pair == cls == coset:
        print("PASS agreement")
        return 0
    print("FAIL disagreement between algorithms")
    return 1


def cmd_center(args) -> int:
    G = parse_group_file(" ".join(args.group))
    Z = center(G)
    print(f"center order {Z.order} of group order {G.order}")
    print(" ".join(str(m) for m in Z.members))
    return 0


def cmd_fc(args) -> int:
    model = parse_model_file(args.model)
    fc = fc_center(model)
    print(f"action kernel size {len(fc.kernel)} of |Q| = {model.acting_group.order}")
    print(f"FC index {fc.index}")
    print(f"finite shadow order {len(fc.kernel) * model.extra_factor.order}")
    return 0


def cmd_classify(args) -> int:
    G = parse_group_file(" ".join(args.group))
    result = classify_high_cp(G)
    print(f"cp = {format_rational(result.cp_value)}")
    print(f"verdict: {result.verdict}")
    return 1 if result.verdict is Verdict.THEOREM_VIOLATION else 0


def cmd_isoclinic(args) -> int:
    G = parse_group_file(args.group_a)
    H = parse_group_file(args.group_b)
    w = find_isoclinism(G, H)
    if w is None:
        print("none")
        return 0
    print(w.serialize())
    return 0


def cmd_stem(args) -> int:
    if args.max_order <= 0:
        raise ValueError(f"--max-order must be a positive integer, got '{args.max_order}'")
    F = parse_group_file(" ".join(args.group))
    found = find_stem_group(F, args.max_order)
    if found is None:
        print("none (corpus exhausted)")
        return 0
    H, w = found
    print(f"stem: {H.name} (order {H.order})")
    print(w.serialize())
    return 0


def cmd_verify_t1(args) -> int:
    model = parse_model_file(args.model)
    report = check_theorem1(model)
    eq = "PASS" if report.equal else "FAIL"
    print(
        f"{eq} cp equality: direct {format_rational(report.cp_direct)}"
        f" vs reduced {format_rational(report.cp_reduced)}"
    )
    if report.stem_name is not None:
        mark = "PASS" if report.stem_cp_equal else "FAIL"
        print(f"{mark} stem clause: {report.stem_name}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.passed else 1


def cmd_verify_t2(args) -> int:
    report = check_theorem2_part1(read_spec(args.input))
    mark = "PASS" if report.passed else "FAIL"
    print(f"{mark} cp = {format_rational(report.cp_value)}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    threshold = parse_rational(args.threshold)
    entries: list[tuple[str, FiniteGroup]] = []
    if not args.inputs:
        entries = corpus.builtin_corpus(64)
    for item in args.inputs:
        path = Path(item)
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if child.is_file():
                    entries.append((child.stem, parse_group_file(str(child))))
        else:
            entries.append((item, parse_group_file(item)))
    rows = scan_corpus(entries, threshold=threshold)
    if args.machine:
        for row in rows:
            print(row.machine_line())
    else:
        print(census_table(rows))
    bad = [r for r in rows if r.verdict is Verdict.THEOREM_VIOLATION]
    return 1 if bad else 0


def cmd_mc(args) -> int:
    model = parse_model_file(args.model)
    est = cp_monte_carlo(model, args.samples, args.seed)
    exact = cp_semianalytic(model)
    print(f"estimate {est.estimate:.6f} +- {est.stderr:.6f} ({est.samples} samples)")
    print(f"exact {format_rational(exact)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing does not change the parser, and every parse returns a fresh
    Namespace, so one parser serves any number of main() calls.
    """
    parser = argparse.ArgumentParser(
        prog="haarcp",
        description="Exact commuting probability for finite groups and finite-by-torus compact groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("cp", help="exact cp by all three finite algorithms")
    p.add_argument("group", nargs="+")

    p = sub.add_parser("center", help="center of a group")
    p.add_argument("group", nargs="+")

    p = sub.add_parser("fc", help="FC-center of a compact model")
    p.add_argument("model")

    p = sub.add_parser("classify", help="threshold classification of a group")
    p.add_argument("group", nargs="+")

    p = sub.add_parser("isoclinic", help="search for an isoclinism witness")
    p.add_argument("group_a")
    p.add_argument("group_b")

    p = sub.add_parser("stem", help="find a stem group isoclinic to the input")
    p.add_argument("--max-order", type=_integer, default=64)
    p.add_argument("group", nargs="+")

    p = sub.add_parser("verify-t1", help="check both cp routes agree on a model")
    p.add_argument("model")

    p = sub.add_parser("verify-t2", help="check the 1/4 finiteness threshold")
    p.add_argument("input")

    p = sub.add_parser("scan", help="census of a corpus against a threshold")
    p.add_argument("--threshold", default="3/40",
                   help="exact fraction like 3/40 (decimals rejected)")
    p.add_argument("--machine", action="store_true",
                   help="pipe-delimited output for golden files")
    p.add_argument("inputs", nargs="*")

    p = sub.add_parser("mc", help="Monte Carlo cp estimate for a model")
    p.add_argument("--samples", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("model")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; may be called many times in one process.

    The verb's cmd_* function is looked up at each call, so a function
    replaced in this module after the parser was built is the one that runs.
    It takes the parsed arguments.

    The cyclic garbage collector is paused while the command runs, and left
    as it was found afterwards.  A Cayley table is tuples of ints and cannot
    form a cycle, yet the collector would walk every new row.  The engine
    forms no reference cycles, so reference counting frees at once all that
    a command drops, paused or not.
    """
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.verb.replace("-", "_")]
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except (HaarcpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
