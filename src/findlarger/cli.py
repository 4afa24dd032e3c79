"""Command line: generate instances, verify against oracles, benchmark, inspect.

Exit codes: 0 success, 1 verification found mismatches, 2 usage or data
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

import numpy as np

from .bench import CSV_HEADER, _check_request, run_bench
from .core import OneLevelFL, compute_valleys, validate_sequence
from .formats import FORMATS, read_sequence, read_tree, write_parens, write_parent_array, write_sequence
from .gen import random_parent_array, random_walk_values
from .trees import Tree
from .verify import _check_mode, check_sequence, check_tree

INSPECT_LIMIT = 10_000


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _out_stream(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def cmd_gen(args) -> int:
    if args.format == "seq":
        instance = random_walk_values(args.n, args.seed, args.bias)
        write = write_sequence
    else:
        parent = random_parent_array(args.n, args.seed, args.path_bias, args.max_degree)
        instance = Tree.from_parents(parent)
        write = write_parent_array if args.format == "parent" else write_parens
    with _out_stream(args.out) as out:
        write(instance, out)
    return 0


def cmd_verify(args) -> int:
    _check_mode(args.mode, args.queries)  # before the input is read
    text = _read_text(args.input)
    if args.format == "seq":
        report = check_sequence(
            read_sequence(text), args.kappa, args.mode, args.queries, args.seed
        )
    else:
        report = check_tree(
            read_tree(text, args.format), args.kappa, args.mode, args.queries, args.seed
        )
    report["input"] = args.input
    report["format"] = args.format
    with _out_stream(args.out) as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    return 0 if report["pass"] else 1


def cmd_bench(args) -> int:
    structures = [s.strip() for s in args.structures.split(",") if s.strip()]
    _check_request(structures, args.queries)  # before the input is read or generated
    if args.input is not None:
        values = read_sequence(_read_text(args.input))
    else:
        values = random_walk_values(args.n, args.seed, args.bias)
    records, mismatches = run_bench(
        values, structures, kappa=args.kappa, queries=args.queries, seed=args.seed
    )
    with _out_stream(args.out) as out:
        out.write(CSV_HEADER + "\n")
        for record in records:
            out.write(record.csv_row() + "\n")
    if mismatches:
        print(f"answer disagreement on {len(mismatches)}+ queries:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 1
    return 0


def cmd_inspect(args) -> int:
    values = read_sequence(_read_text(args.input))
    if len(values) > INSPECT_LIMIT:
        raise ValueError(f"refusing to dump n={len(values)} > {INSPECT_LIMIT} positions")
    seq = validate_sequence(values)
    s = OneLevelFL(seq, args.kappa)
    valley = compute_valleys(values)
    weight = np.bincount(valley[: s.n], minlength=s.n)
    report = s.space_report()

    def row(label, items):
        print(f"{label}: " + " ".join(map(str, items)))

    print(f"n: {s.n}")
    print(f"kappa: {s.kappa}")
    print(f"kappa_prime: {s.kappa_prime}")
    print(f"y_min: {s.y_min}")
    print(f"y_max: {s.y_max}")
    print(f"bottom: {s.bottom}")
    row("Values", seq)
    row("Valley", valley)
    row("Weight", weight)
    row("JumpOffset", s.jump)
    row("OwnOffset", s.own)
    # the positions that store one own offset read one ladder, whose first
    # entry answers the target one above the lowest of their values; the
    # ladders lie in that order, the last up to the end of the data
    shared = {}
    for x, o in enumerate(s.own):
        shared.setdefault(o, []).append(x)
    firsts = sorted((o + min(values[x] for x in xs) + 1 - s.y_max, xs) for o, xs in shared.items())
    for (start, xs), (end, _) in zip(firsts, firsts[1:] + [(len(s.ladder_data), None)]):
        row(f"Ladder[{' '.join(map(str, xs))}]", s.ladder_data[start:end])
    print(f"total_ladder_entries: {report.total_ladder_entries}")
    print(f"interior_ladder_entries: {report.interior_ladder_entries}")
    print(f"interior_bound: {report.interior_bound}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="findlarger",
        description="Find-larger / find-smaller query structures and level-ancestor indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random sequence or tree file")
    p.add_argument("--format", choices=FORMATS, default="seq")
    p.add_argument("--n", type=int, required=True, help="sequence length / node count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bias", type=float, default=0.0, help="sequence drift in (-1, 1)")
    p.add_argument("--path-bias", type=float, default=0.5, help="tree chain probability in [0, 1]")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="compare structure answers against brute force")
    p.add_argument("input", help="instance file, or - for stdin")
    p.add_argument("--format", choices=FORMATS, default="seq")
    p.add_argument("--kappa", type=int, default=5)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--queries", type=int, default=10_000, help="budget in random mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="JSON report file (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time builds and queries, writing CSV")
    p.add_argument("input", nargs="?", default=None, help="sequence file; omit to generate")
    p.add_argument("--format", choices=("seq",), default="seq")
    p.add_argument("--n", type=int, default=1 << 20, help="length when generating")
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--kappa", type=int, default=5)
    p.add_argument("--queries", type=int, default=100_000)
    p.add_argument("--structures", default="onelevel,doubling", help="comma list: onelevel,doubling,naive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="dump the internals of a small structure")
    p.add_argument("input", help="sequence file, or - for stdin")
    p.add_argument("--format", choices=("seq",), default="seq")
    p.add_argument("--kappa", type=int, default=5)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
