#!/usr/bin/env python3
"""Tabulate the number of order-k dissections with n rooms.

Shows where the orders separate: column k stays equal to the Baxter numbers
until n exceeds the largest skeleton length available at that order.

    python3 scripts/sequence_table.py --max 15 --orders 2 3 4 5 6 7
"""

import argparse

from hrd.counting import sequence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=15, help="largest room count")
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7])
    args = ap.parse_args()

    tables = {k: sequence(k, args.max) for k in args.orders}
    widths = {k: max(len(str(tables[k][-1])), len(f"k={k}")) for k in args.orders}
    header = "  n | " + " ".join(f"k={k}".rjust(widths[k]) for k in args.orders)
    print(header)
    print("-" * len(header))
    for n in range(1, args.max + 1):
        row = " ".join(str(tables[k][n - 1]).rjust(widths[k]) for k in args.orders)
        print(f"{n:3d} | {row}")


if __name__ == "__main__":
    main()
