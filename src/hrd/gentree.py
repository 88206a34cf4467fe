"""Skewed generating trees of order k.

A generating tree records how a dissection was built by embedding small
irreducible dissections into rooms: internal nodes carry simple Baxter
permutations of length 2..k and have out-degree equal to their label's
length.  The skew rule removes the 12/21 symmetry: the child occupying the
first-child slot of a node labeled 12 (resp. 21) may not itself be labeled
12 (resp. 21).  With that rule the tree for a permutation is unique and is
exactly its recursive canonical decomposition.

The tree functions share one iterative post-order fold (``_fold``), node
equality, hashing and repr go through the text form it builds, and checking
and parsing are loops, so none recurses on an input's nesting depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar, Union

from .perm import Decomposition, Permutation, decompose, inflate, is_baxter, is_simple

_P1 = Permutation.of(1)
_P12 = Permutation.of(1, 2)
_P21 = Permutation.of(2, 1)


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


def leaf_count(t: GenTree) -> int:
    return _fold(t, 1, lambda node, counts: sum(counts))


def check_tree(t: GenTree, k: int | None = None) -> None:
    """Raise ValueError if ``t`` violates the generating-tree invariants."""
    for node in _nodes(t):
        m = len(node.label)
        if m < 2:
            raise ValueError("node labels must be non-singleton")
        if k is not None and m > k:
            raise ValueError(f"node label {node.label} exceeds order {k}")
        if not (is_simple(node.label) and is_baxter(node.label)):
            raise ValueError(f"node label {node.label} is not simple Baxter")
        if len(node.children) != m:
            raise ValueError(f"node labeled {node.label} needs {m} children, has {len(node.children)}")
        first = node.children[0]
        if node.label in (_P12, _P21) and isinstance(first, Node) and first.label == node.label:
            raise ValueError(f"skew rule: restricted child of {node.label} repeats the label")


def perm_of_tree(t: GenTree) -> Permutation:
    """Inflate every node's label by its children's permutations; a leaf is 1."""
    return _fold(t, _P1, lambda node, kids: inflate(node.label, kids))


def tree_of_perm(p: Permutation, k: int) -> GenTree | None:
    """The unique skewed generating tree of order k evaluating to ``p``.

    Returns None when some skeleton of the recursive canonical decomposition
    is longer than k, i.e. when p is not an order-k permutation.
    """
    if k < 2:
        raise ValueError("order k must be >= 2")
    if not is_baxter(p):
        raise ValueError("generating trees exist only for Baxter permutations")
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


def parse_tree(text: str) -> GenTree:
    """Parse the prefix form, enforcing arity, label and skew invariants."""
    tokens = _tokenize(text)
    open_nodes: list[tuple[Permutation, list[GenTree]]] = []  # label, children so far
    i = 0
    while True:
        if i == len(tokens):
            raise ValueError("unterminated node: missing ')'" if open_nodes else "unexpected end of tree text")
        tok = tokens[i]
        i += 1
        if tok == "(":
            j = i
            while j < len(tokens) and tokens[j] not in "().":
                j += 1
            if j == i:
                raise ValueError("node is missing its label")
            open_nodes.append((Permutation.parse(" ".join(tokens[i:j])), []))
            i = j
            continue
        if tok == ".":
            done: GenTree = Leaf()
        elif tok == ")" and open_nodes:
            label, children = open_nodes.pop()
            done = Node(label, tuple(children))
        else:
            raise ValueError(f"expected '(' or '.', got {tok!r}")
        if not open_nodes:
            break
        open_nodes[-1][1].append(done)
    if i < len(tokens):
        raise ValueError(f"trailing content after tree: {' '.join(tokens[i:])}")
    check_tree(done)
    return done


def _tokenize(text: str) -> list[str]:
    tokens = re.findall(r"\d+|\S", text)
    bad = next((tok for tok in tokens if not (tok.isdigit() or tok in "().")), None)
    if bad is not None:
        raise ValueError(f"unexpected character {bad!r} in tree text")
    return tokens
