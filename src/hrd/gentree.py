"""Skewed generating trees of order k.

A generating tree records how a dissection was built by embedding small
irreducible dissections into rooms: internal nodes carry simple Baxter
permutations of length 2..k and have out-degree equal to their label's
length.  The skew rule removes the 12/21 symmetry: the child occupying the
first-child slot of a node labeled 12 (resp. 21) may not itself be labeled
12 (resp. 21).  With that rule the tree for a permutation is unique and is
exactly its recursive canonical decomposition.

The permutation side reads ``perm._decomposition``, one left-to-right
stack pass that copies nothing.  It also decides Baxter, since p is Baxter
exactly when every skeleton is: blocks are value intervals, so a 2-41-3 or
3-14-2 in p lies inside one block or among the blocks of one skeleton, and
one among the blocks lifts to p through the last entry of the left block
and the first entry of the right one.  So ``tree_of_perm``, ``is_hrd`` and
``hierarchy_order`` read p once: ``is_hrd`` stops the pass at the first
skeleton longer than k, and ``tree_of_perm`` runs it unbounded, to tell
"not Baxter" from "order too small" by the same read.  On the tree side
every node carries its leaf count, set when it is built, so
``perm_of_tree`` places every leaf in one top-down pass on an explicit
stack, and ``format_tree`` writes the text in one preorder pass.  Node
equality, hashing and repr go through that text, so nothing recurses on an
input's nesting depth and each costs time linear in the tree's size.
"""

from __future__ import annotations

from typing import Union

from .perm import Permutation, _Frozen, _decomposition


_P12, _P21 = Permutation((1, 2)), Permutation((2, 1))


class NotBaxter(ValueError):
    """A generating tree was asked of a permutation that is not Baxter."""


class Leaf:
    """A basic room, of one leaf.  All leaves are equal, and no leaf equals
    anything else."""

    __slots__ = ()
    size = 1

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is Leaf else NotImplemented

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "Leaf()"


class Node(_Frozen):
    """An internal node, immutable, with its number of leaves.  Equality,
    hashing and repr go through the text form, which is injective and built
    without recursion."""

    __slots__ = ("label", "children", "size")
    label: Permutation
    children: tuple["GenTree", ...]
    size: int

    def __init__(self, label: Permutation, children: tuple["GenTree", ...]) -> None:
        size = 0
        for child in children:
            size += child.size
        _set_label(self, label)
        _set_children(self, children)
        _set_size(self, size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return format_tree(self) == format_tree(other)

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"Node({format_tree(self)})"


# the slots' own setters, cheaper per node than object.__setattr__
_set_label, _set_children, _set_size = Node.label.__set__, Node.children.__set__, Node.size.__set__

GenTree = Union[Leaf, Node]


def perm_of_tree(t: GenTree) -> Permutation:
    """Every node's label inflated by its children's permutations; a leaf is 1.

    One top-down pass on an explicit stack: each node gives its children
    their first position and lowest value, child i's values starting above
    those of the children with smaller label values, read off the sizes the
    children carry, and each leaf writes its one entry.
    """
    out = [1] * t.size
    stack = [] if isinstance(t, Leaf) else [(t, 0, 1)]  # (node, first position, lowest value)
    while stack:
        node, pos, val = stack.pop()
        label, children = node.label.values, node.children
        m = len(label)
        if len(children) != m:
            raise ValueError(f"skeleton of length {m} needs {m} children, got {len(children)}")
        low = [0] * m
        for slot in sorted(range(m), key=label.__getitem__):
            low[slot] = val
            val += children[slot].size
        for child, v in zip(children, low):
            if isinstance(child, Leaf):
                out[pos] = v
            else:
                stack.append((child, pos, v))
            pos += child.size
    return Permutation(tuple(out))


def tree_of_perm(p: Permutation, k: int) -> GenTree | None:
    """The unique skewed generating tree of order k evaluating to ``p``.

    One unbounded pass reads p: it checks every skeleton for Baxter and
    raises ``NotBaxter`` for a p that is not Baxter, before k is checked.
    Returns None when the longest skeleton of the recursive canonical
    decomposition is longer than k, i.e. when p is not an order-k
    permutation.  Nodes are built in reverse preorder.
    """
    try:
        root, order = _decomposition(p.values, len(p))
    except ValueError:
        raise NotBaxter("generating trees exist only for Baxter permutations") from None
    if k < 2:
        raise ValueError("order k must be >= 2")
    if order > k:
        return None
    blocks, stack = [], [root]
    while stack:
        block = stack.pop()
        if block[4] is not None:
            blocks.append(block)
            stack.extend(reversed(block[4]))
    built: list[GenTree] = []
    for _, _, _, skeleton, kids, *_ in reversed(blocks):
        # later siblings were built first, so the first child is on top
        subtrees = [Leaf() if b[4] is None else built.pop() for b in kids]
        if len(skeleton) > 2:
            built.append(Node(Permutation(skeleton), tuple(subtrees)))
            continue
        label, t = _P12 if skeleton[0] == 1 else _P21, subtrees.pop()
        while subtrees:
            t = Node(label, (subtrees.pop(), t))
        built.append(t)
    return built[0] if built else Leaf()


def is_hrd(p: Permutation, k: int) -> bool:
    """True iff p labels an order-k hierarchical dissection."""
    if k < 2:
        raise ValueError("order k must be >= 2")
    try:
        return _decomposition(p.values, k) is not None
    except ValueError:
        return False


def hierarchy_order(p: Permutation) -> int:
    """Smallest k for which ``is_hrd(p, k)`` holds (1 for the singleton).
    The pass reads every skeleton, so it alone decides that p is Baxter."""
    try:
        return _decomposition(p.values, len(p))[1]
    except ValueError:
        raise ValueError("hierarchy order is defined for Baxter permutations") from None


def format_tree(t: GenTree) -> str:
    """Parenthesized prefix form: leaf ``.``, node ``(<label> <child> ...)``.

    One preorder pass on an explicit stack: a node writes ``(<label>`` and
    pushes its closing ``)`` beneath its children, each child with the space
    before it.  A string on the stack is written as it stands, and the text
    is joined once.
    """
    out: list[str] = []
    stack: list[GenTree | str] = [t]
    while stack:
        sub = stack.pop()
        if isinstance(sub, str):
            out.append(sub)
        elif isinstance(sub, Leaf):
            out.append(".")
        else:
            label = sub.label
            out.append("(" + (label.compact() if len(label) <= 9 else str(label)))
            stack.append(")")
            for child in reversed(sub.children):
                stack += (child, " ")
    return "".join(out)
