"""Hierarchical rectangular dissections.

Permutation predicates (Baxter, simple), substitution decomposition, mosaic
floorplan geometry with the deletion-order labeling bijection, skewed
generating trees, exact counting of order-k dissections, and the insertion
families behind the 3**(n-k) lower bound.

Importing the package loads none of its layers (``perm``, ``floorplan``,
``gentree``, ``counting``, ``lowerbound``); each ``hrd`` command imports
the ones it runs.
"""

import sys
from collections.abc import Iterator
from contextlib import contextmanager

__version__ = "0.1.0"


class CapExceeded(RuntimeError):
    """A request whose cost exceeds a configured cap (the CLI exits 3)."""


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
