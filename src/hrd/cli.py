"""Command-line interface.

Exit codes: 0 success (or predicate true), 1 predicate false, 2 parse or
validation error, 3 infeasible argument (a ``census`` longer than 11, or a
``lowerbound`` family of more than 3^10 traces).  Integers are printed and
read whatever their length (see ``hrd.unlimited_int_text``); integer
options, like the permutation and floorplan texts, take ASCII decimals only.

Each command imports only the layers it runs, so ``check baxter`` loads
``perm`` alone and ``count`` loads ``counting`` alone: start-up, not the
combinatorics, is most of a short command's time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import CapExceeded, _ascii_ints, unlimited_int_text

if TYPE_CHECKING:
    from .floorplan import MosaicFloorplan
    from .perm import Permutation


def _int_option(text: str) -> int:
    """The value of an integer option: one ASCII decimal with an optional
    sign, as in the text formats, so ``1_0`` and non-ASCII digits exit 2."""
    return _ascii_ints([text])[0]


_int_option.__name__ = "int"  # argparse names the type in its error message


def _perm_from_args(args: argparse.Namespace) -> Permutation:
    from .perm import Permutation

    if getattr(args, "file", None):
        text = Path(args.file).read_text()
    else:
        text = args.perm
        if text is None:
            raise ValueError("a permutation is required (inline or via --file)")
    return Permutation.parse(text)


def _floorplan_from_file(path: str) -> MosaicFloorplan:
    from .floorplan import parse_floorplan

    return parse_floorplan(Path(path).read_text())


def _cmd_check(args) -> int:
    p = _perm_from_args(args)
    if args.kind == "baxter":
        from .perm import is_baxter

        ok = is_baxter(p)
    elif args.kind == "simple":
        from .perm import is_simple

        ok = is_simple(p)
    elif args.kind == "ihrd":
        from .perm import is_ihrd

        ok = is_ihrd(p)
    else:
        if args.k is None:
            raise ValueError("check hrd requires --k")
        from .gentree import is_hrd

        ok = is_hrd(p, args.k)
    print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    from .perm import decompose

    d = decompose(_perm_from_args(args))
    print(f"skeleton {d.skeleton}")
    for child in d.children:
        print(f"child {child}")
    return 0


def _cmd_tree(args) -> int:
    from .gentree import NotBaxter, format_tree, tree_of_perm

    p = _perm_from_args(args)
    try:
        tree = tree_of_perm(p, args.k)
    except NotBaxter:
        print(f"no order-{args.k} tree: not a Baxter permutation")
        return 1
    if tree is None:
        print(f"no order-{args.k} tree: a skeleton exceeds length {args.k}")
        return 1
    print(format_tree(tree))
    return 0


def _cmd_fp2bp(args) -> int:
    from .floorplan import fp2bp

    print(fp2bp(_floorplan_from_file(args.floorplan)))
    return 0


def _cmd_bp2fp(args) -> int:
    from .floorplan import bp2fp, format_floorplan

    sys.stdout.write(format_floorplan(bp2fp(_perm_from_args(args))))
    return 0


def _cmd_render(args) -> int:
    from .floorplan import render

    sys.stdout.write(render(_floorplan_from_file(args.floorplan)))
    return 0


def _cmd_count(args) -> int:
    from .counting import ensure_table

    print(ensure_table(args.k, args.n, use_memo=not args.no_memo)[args.n - 1])
    return 0


def _cmd_sequence(args) -> int:
    from .counting import ensure_table

    counts = ensure_table(args.k, args.max, use_memo=not args.no_memo)[: args.max]
    for n, c in enumerate(counts, 1):
        print(f"{n},{c}" if args.csv else c)
    return 0


def _cmd_census(args) -> int:
    from .perm import census_simple_baxter

    perms = census_simple_baxter(args.len)
    print(len(perms))
    if args.list:
        for p in perms:
            print(p)
    return 0


def _cmd_lowerbound(args) -> int:
    from .lowerbound import format_report, insertion_family
    from .perm import Permutation

    seed = None if args.seed is None else Permutation.parse(args.seed)
    report = insertion_family(args.k, args.n, seed)
    print(format_report(report))
    ok = report.all_baxter and report.all_hrd_k and report.none_hrd_below
    return 0 if ok else 1


def _cmd_grow_ihrd(args) -> int:
    from .floorplan import format_floorplan, grow_ihrd

    sys.stdout.write(format_floorplan(grow_ihrd(_floorplan_from_file(args.floorplan))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrd",
        description="Hierarchical rectangular dissections: predicates, bijections, counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perm_arg(sp):
        sp.add_argument("perm", nargs="?", help="permutation, e.g. '4 1 3 5 2' or '41352' (n <= 9)")
        sp.add_argument("--file", help="read the permutation from a file instead")

    sp = sub.add_parser("check", help="evaluate a predicate; exit 0 iff true")
    sp.add_argument("kind", choices=["baxter", "simple", "ihrd", "hrd"])
    add_perm_arg(sp)
    sp.add_argument("--k", type=_int_option, help="order (required for hrd)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("decompose", help="canonical substitution decomposition")
    add_perm_arg(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("tree", help="print the skewed generating tree of order k")
    add_perm_arg(sp)
    sp.add_argument("--k", type=_int_option, required=True)
    sp.set_defaults(func=_cmd_tree)

    sp = sub.add_parser("fp2bp", help="label permutation of a floorplan file")
    sp.add_argument("floorplan")
    sp.set_defaults(func=_cmd_fp2bp)

    sp = sub.add_parser("bp2fp", help="floorplan of a Baxter permutation")
    add_perm_arg(sp)
    sp.set_defaults(func=_cmd_bp2fp)

    sp = sub.add_parser("render", help="ASCII rendering of a floorplan file")
    sp.add_argument("floorplan")
    sp.set_defaults(func=_cmd_render)

    sp = sub.add_parser("count", help="number of order-k dissections with n rooms")
    sp.add_argument("--k", type=_int_option, required=True)
    sp.add_argument("--n", type=_int_option, required=True)
    sp.add_argument("--no-memo", action="store_true", help="do not read or write the persistent table")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("sequence", help="counts for n = 1..max")
    sp.add_argument("--k", type=_int_option, required=True)
    sp.add_argument("--max", type=_int_option, required=True)
    sp.add_argument("--csv", action="store_true", help="emit 'n,count' rows")
    sp.add_argument("--no-memo", action="store_true")
    sp.set_defaults(func=_cmd_sequence)

    sp = sub.add_parser("census", help="simple Baxter permutations of one length")
    sp.add_argument("--len", type=_int_option, required=True)
    sp.add_argument("--list", action="store_true", help="also print the permutations")
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("lowerbound", help="insertion family report for a seed")
    sp.add_argument("--k", type=_int_option, required=True)
    sp.add_argument("--n", type=_int_option, required=True)
    sp.add_argument("--seed", help="irreducible seed (default: 12, 41352 or 24853617, grown to length k)")
    sp.set_defaults(func=_cmd_lowerbound)

    sp = sub.add_parser("grow-ihrd", help="grow an irreducible floorplan by two rooms")
    sp.add_argument("floorplan")
    sp.set_defaults(func=_cmd_grow_ihrd)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # allow the permutation to follow options, quoted or not:
            # `check hrd --k 4 41352` and `check baxter 2 4 1 3` both work
            if hasattr(args, "perm") and all(not tok.startswith("-") for tok in extra):
                tokens = ([args.perm] if args.perm else []) + extra
                args.perm = " ".join(tokens)
            else:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        with unlimited_int_text():
            return args.func(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
