"""Hierarchical rectangular dissections.

Permutation predicates (Baxter, simple), substitution decomposition, mosaic
floorplan geometry with the deletion-order labeling bijection, skewed
generating trees, exact counting of order-k dissections, and the insertion
families behind the 3**(n-k) lower bound.

Importing the package loads none of its layers (``perm``, ``floorplan``,
``gentree``, ``counting``, ``lowerbound``); each ``hrd`` command imports
the ones it runs.  Integers read from text, in permutations, floorplan
files and the command's integer options, are ASCII decimals
(``_ascii_ints``).
"""

import sys
from collections.abc import Iterator
from contextlib import contextmanager

__version__ = "0.1.0"


class CapExceeded(RuntimeError):
    """A request whose cost exceeds a configured cap (the CLI exits 3)."""


def _ascii_ints(tokens: list[str]) -> list[int]:
    """The tokens as integers, each an ASCII decimal with an optional sign;
    ValueError for the ``1_0`` and non-ASCII digits that ``int`` also reads."""
    joined = "".join(tokens)
    if "_" in joined or not joined.isascii():
        raise ValueError(f"not ASCII decimal integers: {tokens!r}")
    return list(map(int, tokens))


@contextmanager
def unlimited_int_text() -> Iterator[None]:
    """Lift Python's limit on converting integers to and from decimal text
    (4300 digits by default since 3.11) until the block exits, then restore
    the previous limit.  Counts pass that size at a few thousand rooms."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


__all__ = ["CapExceeded", "__version__", "unlimited_int_text"]
