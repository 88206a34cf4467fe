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
``hierarchy_order`` read p once.  The tree side walks the nodes in preorder
on an explicit stack (``_nodes``): ``perm_of_tree`` takes subtree sizes in
reverse preorder and then places every leaf top-down, and ``format_tree``
writes the text in one preorder pass.  Node equality,
hashing and repr go through that text, so nothing recurses on an input's
nesting depth and each costs time linear in the tree's size.
"""

from __future__ import annotations

from typing import Iterator, Union

from .perm import Permutation, _Frozen, _decomposition, is_baxter


_P12, _P21 = Permutation((1, 2)), Permutation((2, 1))


class NotBaxter(ValueError):
    """A generating tree was asked of a permutation that is not Baxter."""


class Leaf:
    """A basic room.  All leaves are equal, and no leaf equals anything else."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is Leaf else NotImplemented

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "Leaf()"


class Node(_Frozen):
    """An internal node, immutable.  Equality, hashing and repr go through
    the text form, which is injective and built without recursion."""

    __slots__ = ("label", "children")
    label: Permutation
    children: tuple["GenTree", ...]

    def __init__(self, label: Permutation, children: tuple["GenTree", ...]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return format_tree(self) == format_tree(other)

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"Node({format_tree(self)})"


GenTree = Union[Leaf, Node]


def _nodes(t: GenTree) -> Iterator[Node]:
    """The internal nodes of ``t``, parents first and children left to right."""
    stack = [t]
    while stack:
        sub = stack.pop()
        if isinstance(sub, Node):
            yield sub
            stack.extend(reversed(sub.children))


def perm_of_tree(t: GenTree) -> Permutation:
    """Every node's label inflated by its children's permutations; a leaf is 1.

    Subtree sizes come bottom-up, in reverse preorder, so every child's size
    is known before its parent's.  Then, top-down, each node gives its
    children their first position and lowest value, child i's values
    starting above those of the children with smaller label values, and each
    leaf writes its one entry.
    """
    size: dict[int, int] = {}
    for node in reversed(list(_nodes(t))):
        m = len(node.label)
        if len(node.children) != m:
            raise ValueError(f"skeleton of length {m} needs {m} children, got {len(node.children)}")
        size[id(node)] = sum(1 if isinstance(c, Leaf) else size[id(c)] for c in node.children)

    out = [1] * size.get(id(t), 1)
    stack = [] if isinstance(t, Leaf) else [(t, 0, 1)]  # (node, first position, lowest value)
    while stack:
        node, pos, val = stack.pop()
        label = node.label.values
        sizes = [1 if isinstance(c, Leaf) else size[id(c)] for c in node.children]
        low = [0] * len(label)
        for slot in sorted(range(len(label)), key=label.__getitem__):
            low[slot] = val
            val += sizes[slot]
        for child, m, v in zip(node.children, sizes, low):
            if isinstance(child, Leaf):
                out[pos] = v
            else:
                stack.append((child, pos, v))
            pos += m
    return Permutation(tuple(out))


def tree_of_perm(p: Permutation, k: int) -> GenTree | None:
    """The unique skewed generating tree of order k evaluating to ``p``.

    Returns None when some skeleton of the recursive canonical decomposition
    is longer than k, i.e. when p is not an order-k permutation.  The pass
    checks every skeleton for Baxter, so a tree needs no other check.  Only
    when a skeleton longer than k stops the pass early, or k < 2, does the
    O(n) ``is_baxter(p)`` run, to raise ``NotBaxter`` (before k is checked)
    for a p that is not Baxter.  Nodes are built in reverse preorder.
    """
    if k < 2 and is_baxter(p):  # a p that is not Baxter raises NotBaxter below
        raise ValueError("order k must be >= 2")
    try:
        found = _decomposition(p.values, k)
    except ValueError:
        raise NotBaxter("generating trees exist only for Baxter permutations") from None
    if found is None:
        if not is_baxter(p):  # the pass stopped before it read all of p
            raise NotBaxter("generating trees exist only for Baxter permutations")
        return None
    blocks, stack = [], [found[0]]
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
