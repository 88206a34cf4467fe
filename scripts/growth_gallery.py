#!/usr/bin/env python3
"""Render the irreducible growth chain: an order-7 seed from the census,
grown by two rooms at a time.

    python3 scripts/growth_gallery.py --steps 2
"""

import argparse

from hrd.floorplan import bp2fp, fp2bp, grow_ihrd, render
from hrd.perm import census_simple_baxter


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed-length", type=int, default=7)
    ap.add_argument("--seed-index", type=int, default=0, help="index into the census list")
    ap.add_argument("--steps", type=int, default=2)
    args = ap.parse_args()

    seeds = census_simple_baxter(args.seed_length)
    f = bp2fp(seeds[args.seed_index])
    for step in range(args.steps + 1):
        label = fp2bp(f)
        print(f"== {f.n} rooms, label {label} ==")
        print(render(f))
        if step < args.steps:
            f = grow_ihrd(f)


if __name__ == "__main__":
    main()
