"""Skewed generating trees of order k.

A generating tree records how a dissection was built by embedding small
irreducible dissections into rooms: internal nodes carry simple Baxter
permutations of length 2..k and have out-degree equal to their label's
length.  The skew rule removes the 12/21 symmetry: the child occupying the
first-child slot of a node labeled 12 (resp. 21) may not itself be labeled
12 (resp. 21).  With that rule the tree for a permutation is unique and is
exactly its recursive canonical decomposition.

The tree functions share one iterative post-order fold (``_fold``), and node
equality, hashing and repr go through the text form it builds, so none
recurses on an input's nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar, Union

from .perm import Decomposition, Permutation, decompose, inflate, is_baxter, is_simple

_P1 = Permutation.of(1)


class NotBaxter(ValueError):
    """A generating tree was asked of a permutation that is not Baxter."""


@dataclass(frozen=True)
class Leaf:
    """A basic room."""


@dataclass(frozen=True, eq=False)
class Node:
    """An internal node.  Equality, hashing and repr go through the text
    form, which is injective and built without recursion; the generated
    dataclass methods would recurse on the tree's depth."""

    label: Permutation
    children: tuple["GenTree", ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return format_tree(self) == format_tree(other)

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"Node({format_tree(self)})"


GenTree = Union[Leaf, Node]
V = TypeVar("V")


def _nodes(t: GenTree) -> Iterator[Node]:
    """The internal nodes of ``t``, parents first and children left to right."""
    stack = [t]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Node):
            yield sub
            stack.extend(reversed(sub.children))


def _fold(t: GenTree, leaf_value: V, combine: Callable[[Node, list[V]], V]) -> V:
    """Post-order fold: ``leaf_value`` at every leaf, ``combine(node, values
    of its children left to right)`` at every node.  Iterative: nodes are
    combined in reverse preorder, which leaves a node's child values on top
    of ``built``, first child topmost.
    """
    built: list[V] = []
    for node in reversed(list(_nodes(t))):
        built.append(combine(node, [leaf_value if isinstance(c, Leaf) else built.pop() for c in node.children]))
    return built[0] if built else leaf_value


def perm_of_tree(t: GenTree) -> Permutation:
    """Inflate every node's label by its children's permutations; a leaf is 1."""
    return _fold(t, _P1, lambda node, kids: inflate(node.label, kids))


def tree_of_perm(p: Permutation, k: int) -> GenTree | None:
    """The unique skewed generating tree of order k evaluating to ``p``.

    Raises ``NotBaxter`` before it checks k, so a caller can tell a
    non-Baxter input from an invalid order without a second Baxter test.
    Returns None when some skeleton of the recursive canonical decomposition
    is longer than k, i.e. when p is not an order-k permutation.
    """
    if not is_baxter(p):
        raise NotBaxter("generating trees exist only for Baxter permutations")
    if k < 2:
        raise ValueError("order k must be >= 2")
    parts: list[Decomposition] = []
    for d in _decompositions(p):
        if len(d.skeleton) > k:
            return None
        parts.append(d)
    built: list[GenTree] = []
    for d in reversed(parts):
        # later siblings were built first, so the first child is on top
        kids = tuple(Leaf() if len(c) == 1 else built.pop() for c in d.children)
        built.append(Node(d.skeleton, kids))
    return built[0] if built else Leaf()


def _decompositions(p: Permutation) -> Iterator[Decomposition]:
    """The decomposition of every non-singleton part of p's recursive
    canonical decomposition, parents first and children left to right.

    Iterative, so nesting depth is unbounded; lazy, so a caller that stops
    early decomposes nothing further.
    """
    stack = [p]
    while stack:
        q = stack.pop()
        if len(q) == 1:
            continue
        d = decompose(q)
        yield d
        stack.extend(reversed(d.children))


def is_hrd(p: Permutation, k: int) -> bool:
    """True iff p labels an order-k hierarchical dissection."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    if not is_baxter(p):
        return False
    return all(len(d.skeleton) <= k for d in _decompositions(p))


def is_ihrd(p: Permutation) -> bool:
    """True iff p labels an irreducible dissection: simple, Baxter, length >= 2."""
    return len(p) >= 2 and is_baxter(p) and is_simple(p)


def hierarchy_order(p: Permutation) -> int:
    """Smallest k for which ``is_hrd(p, k)`` holds (1 for the singleton)."""
    if not is_baxter(p):
        raise ValueError("hierarchy order is defined for Baxter permutations")
    return max((len(d.skeleton) for d in _decompositions(p)), default=1)


def format_tree(t: GenTree) -> str:
    """Parenthesized prefix form: leaf ``.``, node ``(<label> <child> ...)``."""

    def node_text(node: Node, kids: list[str]) -> str:
        label = node.label.compact() if len(node.label) <= 9 else str(node.label)
        return "(" + " ".join([label] + kids) + ")"

    return _fold(t, ".", node_text)

