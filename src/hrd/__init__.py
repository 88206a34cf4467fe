"""Hierarchical rectangular dissections.

Permutation predicates (Baxter, simple), substitution decomposition, mosaic
floorplan geometry with the deletion-order labeling bijection, skewed
generating trees, exact counting of order-k dissections, and the insertion
families behind the 3**(n-k) lower bound.
"""

__version__ = "0.1.0"


class CapExceeded(RuntimeError):
    """A request whose cost exceeds a configured cap (the CLI exits 3)."""


__all__ = ["CapExceeded", "__version__"]
