"""Rank-defining tree decompositions of matroids.

A decomposition is a rooted binary tree.  Leaves carry a ground-set element
and a loop flag; each inner node carries a color table and a rank-defect
table, both indexed by the colors of its two children.  Evaluating the rank
of a subset F is a single bottom-up pass: a leaf is colored 1 when its
element lies in F (0 otherwise) and labeled 1 when additionally it is not a
loop; an inner node with child states (c1, l1), (c2, l2) takes color
``color[c1][c2]`` and label ``l1 + l2 - defect[c1][c2]``.  The rank of F is
the label of the root.

Colors at a leaf always range over {0, 1}; colors at an inner node v range
over its own palette 0..kv-1.  The width of a decomposition is the maximum
palette size minus one (leaves included, so it is always >= 1).

The empty set must color and label every node with 0, which pins the (0, 0)
entry of every table to color 0 / defect 0.

Everything here treats decompositions as immutable once built; evaluation
caches the traversal order on the instance.  The first walk checks the shape
with ``tree_defect`` and raises ValueError unless the nodes form one binary
tree whose leaves hold 0..n-1 once each, so no pass ever runs on a malformed
tree; ``validate_structure`` reports the same defects, and then the table
checks, without raising.  Rooted branch trees (``branchdecomp``) are checked
and walked by the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, integers, keyed, records

ElementSet = int  # bitmask over ground-set elements


@dataclass
class Leaf:
    element: int
    loop: bool


@dataclass
class Inner:
    children: tuple[int, ...]
    palette: int
    color: list[list[int]]
    defect: list[list[int]]


@dataclass
class KDecomposition:
    n: int
    nodes: dict[int, Leaf | Inner]
    root: int
    _postorder: list[int] | None = field(default=None, repr=False, compare=False)

    def palette_of(self, node_id: int) -> int:
        node = self.nodes[node_id]
        return 2 if isinstance(node, Leaf) else node.palette

    def _children(self) -> dict[int, tuple[int, ...]]:
        """Inner node -> its children."""
        return {v: node.children for v, node in self.nodes.items() if isinstance(node, Inner)}

    def _shape_defect(self) -> StructureDefect | None:
        """``tree_defect`` of the node map."""
        elements = [node.element for node in self.nodes.values() if isinstance(node, Leaf)]
        return tree_defect(self.nodes, self.root, self._children(), elements, self.n)

    def postorder(self) -> list[int]:
        """Children-before-parent order, cached.

        The shape is checked on the first call: ValueError when the nodes do
        not form a binary tree whose leaves hold 0..n-1 once each.
        """
        if self._postorder is None:
            defect = self._shape_defect()
            if defect is not None:
                raise ValueError(str(defect))
            self._postorder = tree_postorder(self.root, self._children())
        return self._postorder

    def subtree_elements(self, node_id: int) -> ElementSet:
        """Bitmask of ground-set elements under ``node_id``."""
        self.postorder()
        mask = 0
        for v in tree_postorder(node_id, self._children()):
            node = self.nodes[v]
            if isinstance(node, Leaf):
                mask |= 1 << node.element
        return mask

    def full_set(self) -> ElementSet:
        return (1 << self.n) - 1


def fold(dec: KDecomposition, leaf, combine):
    """One bottom-up pass over the tree; returns the value of the root.

    A leaf's value is ``leaf(node_id, node)``; an inner node's value is
    ``combine(node_id, node, left_value, right_value)``.  Each child's value
    is dropped as soon as its parent is combined, so only the values of
    subtrees still waiting for their sibling are held at once.
    """
    values = {}
    for node_id in dec.postorder():
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            values[node_id] = leaf(node_id, node)
        else:
            left, right = node.children
            values[node_id] = combine(node_id, node, values.pop(left), values.pop(right))
    return values[dec.root]


def node_states(dec: KDecomposition, subset: ElementSet) -> dict[int, tuple[int, int]]:
    """(color, label) of every node for the given subset."""
    states: dict[int, tuple[int, int]] = {}
    for node_id in dec.postorder():
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            selected = subset >> node.element & 1
            states[node_id] = (selected, selected if not node.loop else 0)
        else:
            c1, l1 = states[node.children[0]]
            c2, l2 = states[node.children[1]]
            try:
                color = node.color[c1][c2]
                drop = node.defect[c1][c2]
            except IndexError:
                raise ValueError(
                    f"node {node_id}: child color ({c1}, {c2}) outside the declared table domain"
                ) from None
            states[node_id] = (color, l1 + l2 - drop)
    return states


def eval_rank(dec: KDecomposition, subset: ElementSet) -> int:
    """Label of the root; the rank of ``subset`` in the described matroid.

    May be negative for decompositions that do not describe a matroid;
    rejecting those is the verifier's job.
    """
    if subset & ~dec.full_set():
        raise ValueError("subset contains elements outside the ground set")
    return node_states(dec, subset)[dec.root][1]


def singleton_ranks(dec: KDecomposition, base: ElementSet = 0) -> list[int]:
    """eval_rank(base ^ {e}) for every element e, in one O(nK) top-down pass.

    Flipping e changes node states only on the path from its leaf to the
    root.  Every sibling along that path keeps its state for ``base``, so
    the label gained above a node depends only on that node's color.
    """
    states = node_states(dec, base)
    offsets: dict[int, list[int]] = {dec.root: [0] * dec.palette_of(dec.root)}
    ranks = [0] * dec.n
    for node_id in reversed(dec.postorder()):
        node = dec.nodes[node_id]
        off = offsets.pop(node_id)
        if isinstance(node, Leaf):
            flipped = 1 - (base >> node.element & 1)
            ranks[node.element] = (0 if node.loop else flipped) + off[flipped]
            continue
        left, right = node.children
        (c1, l1), (c2, l2) = states[left], states[right]
        color, defect = node.color, node.defect
        try:
            offsets[left] = [
                off[color[g][c2]] + l2 - defect[g][c2] for g in range(dec.palette_of(left))
            ]
            offsets[right] = [
                off[color[c1][g]] + l1 - defect[c1][g] for g in range(dec.palette_of(right))
            ]
        except IndexError:
            raise ValueError(f"node {node_id}: tables do not match the child palettes") from None
    return ranks


def dw_width(dec: KDecomposition) -> int:
    """Maximum palette size minus one over all nodes (leaves count as 2)."""
    return max(dec.palette_of(node_id) for node_id in dec.nodes) - 1


@dataclass
class StructureDefect:
    kind: str  # "tree" | "arity" | "leaf bijection" | "palette bound" | "empty-set convention"
    node: int | None
    message: str

    def __str__(self) -> str:
        where = f" at node {self.node}" if self.node is not None else ""
        return f"{self.kind}{where}: {self.message}"


def tree_postorder(root: int, children: dict[int, tuple[int, ...]]) -> list[int]:
    """Children-before-parent order of the tree under ``root``, each node's
    children in their given order; ``children`` maps inner nodes only.

    The caller vouches that the walk down from ``root`` meets no node twice
    (``tree_defect`` checks it): a cycle would never end.
    """
    order: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children.get(node, ()))
    # the reversed node-right-left preorder is the left-right-node postorder
    order.reverse()
    return order


def tree_defect(
    nodes, root: int, children: dict[int, tuple[int, ...]], elements, n: int
) -> StructureDefect | None:
    """First reason why ``children`` (inner node -> its children) is not one
    binary tree over ``nodes`` rooted at ``root`` whose leaves hold the
    elements 0..n-1 once each, or None when it is.  ``elements`` lists the
    element of every leaf."""
    if root not in nodes:
        return StructureDefect("tree", None, f"root {root} is not a node")
    referenced: dict[int, int] = {}
    for node_id, kids in children.items():
        for child in kids:
            if child not in nodes:
                return StructureDefect("tree", node_id, f"child {child} is undefined")
            referenced[child] = referenced.get(child, 0) + 1
    if referenced.get(root):
        return StructureDefect("tree", root, "root appears as a child")
    for node_id in nodes:
        if node_id != root and referenced.get(node_id, 0) != 1:
            return StructureDefect(
                "tree", node_id, f"referenced {referenced.get(node_id, 0)} times; expected once"
            )
    # every other node now has exactly one parent, so the walk down from the
    # root meets no node twice, and the nodes it misses lie on a cycle
    reached = set(tree_postorder(root, children))
    for node_id in nodes:
        if node_id not in reached:
            return StructureDefect("tree", node_id, "not reachable from the root")
    for node_id in sorted(children):
        if len(children[node_id]) != 2:
            return StructureDefect(
                "arity", node_id, f"{len(children[node_id])} children; expected 2"
            )
    elements = sorted(elements)
    if elements != list(range(n)):
        return StructureDefect(
            "leaf bijection", None, f"leaf elements {elements} are not exactly 0..{n - 1}"
        )
    return None


def validate_structure(dec: KDecomposition) -> StructureDefect | None:
    """First structural defect, or None when the decomposition is well formed."""
    defect = dec._shape_defect()
    if defect is not None:
        return defect
    for node_id, node in sorted(dec.nodes.items()):
        if isinstance(node, Leaf):
            continue
        if node.palette < 1:
            return StructureDefect("palette bound", node_id, "palette size must be >= 1")
        lp = dec.palette_of(node.children[0])
        rp = dec.palette_of(node.children[1])
        for table, name in ((node.color, "color"), (node.defect, "defect")):
            if len(table) != lp or any(len(row) != rp for row in table):
                return StructureDefect(
                    "palette bound", node_id, f"{name} table domain is not {lp}x{rp}"
                )
        for g1 in range(lp):
            for g2 in range(rp):
                if not 0 <= node.color[g1][g2] < node.palette:
                    return StructureDefect(
                        "palette bound",
                        node_id,
                        f"color[{g1}][{g2}]={node.color[g1][g2]} outside 0..{node.palette - 1}",
                    )
                if node.defect[g1][g2] < 0:
                    return StructureDefect(
                        "palette bound", node_id, f"defect[{g1}][{g2}] is negative"
                    )
        if node.color[0][0] != 0 or node.defect[0][0] != 0:
            return StructureDefect(
                "empty-set convention", node_id, "(0, 0) table entry must be color 0, defect 0"
            )
    return None


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
#   dw version=1 n=<n> K=<K>
#   leaf <id> elem=<k> loop=<0|1>
#   inner <id> left=<id> right=<id> kv=<palette size>
#   phi <id> <g1> <g2> <color> <rdef>      (omitted entries default to 0 0)
#   root <id>
#
# '#' starts a comment line.  All integers decimal.


def serialize(dec: KDecomposition) -> str:
    """Text form of a decomposition; ``parse`` inverts it exactly."""
    out = [f"dw version=1 n={dec.n} K={dw_width(dec)}"]
    for node_id in sorted(dec.nodes):
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            out.append(f"leaf {node_id} elem={node.element} loop={int(node.loop)}")
    for node_id in sorted(dec.nodes):
        node = dec.nodes[node_id]
        if isinstance(node, Inner):
            left, right = node.children[0], node.children[-1]
            out.append(f"inner {node_id} left={left} right={right} kv={node.palette}")
    for node_id in sorted(dec.nodes):
        node = dec.nodes[node_id]
        if isinstance(node, Inner):
            for g1, row in enumerate(node.color):
                for g2, color in enumerate(row):
                    drop = node.defect[g1][g2]
                    if color or drop:
                        out.append(f"phi {node_id} {g1} {g2} {color} {drop}")
    out.append(f"root {dec.root}")
    return "\n".join(out) + "\n"


def parse(text: str) -> KDecomposition:
    """Parse the decomposition text format; errors carry line numbers."""
    header = None
    leaves: dict[int, tuple[int, int, bool]] = {}
    inners: dict[int, tuple[int, int, int, int]] = {}
    phis: list[tuple[int, int, int, int, int, int]] = []
    root: int | None = None
    for lineno, tok in records(text):
        if tok[0] == "dw":
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            if len(tok) != 4 or tok[1] != "version=1":
                raise ParseError(lineno, "header must be 'dw version=1 n=<n> K=<K>'")
            header = (keyed(tok[2], "n", lineno), keyed(tok[3], "K", lineno))
        elif tok[0] == "leaf":
            if len(tok) != 4:
                raise ParseError(lineno, "leaf line needs: leaf <id> elem=<k> loop=<0|1>")
            node_id = integers(tok[1:2], lineno, "node id must be an integer")[0]
            if node_id in leaves or node_id in inners:
                raise ParseError(lineno, f"duplicate node id {node_id}")
            loop = keyed(tok[3], "loop", lineno)
            if loop not in (0, 1):
                raise ParseError(lineno, "loop flag must be 0 or 1")
            leaves[node_id] = (lineno, keyed(tok[2], "elem", lineno), bool(loop))
        elif tok[0] == "inner":
            if len(tok) != 5:
                raise ParseError(lineno, "inner line needs: inner <id> left=<id> right=<id> kv=<k>")
            node_id = integers(tok[1:2], lineno, "node id must be an integer")[0]
            if node_id in leaves or node_id in inners:
                raise ParseError(lineno, f"duplicate node id {node_id}")
            inners[node_id] = (
                lineno,
                keyed(tok[2], "left", lineno),
                keyed(tok[3], "right", lineno),
                keyed(tok[4], "kv", lineno),
            )
        elif tok[0] == "phi":
            if len(tok) != 6:
                raise ParseError(lineno, "phi line needs: phi <id> <g1> <g2> <color> <rdef>")
            phis.append((lineno, *integers(tok[1:], lineno, "phi entries must be integers")))
        elif tok[0] == "root":
            if root is not None:
                raise ParseError(lineno, "duplicate root line")
            if len(tok) != 2:
                raise ParseError(lineno, "root line needs: root <id>")
            root = integers(tok[1:2], lineno, "node id must be an integer")[0]
        else:
            raise ParseError(lineno, f"unknown record {tok[0]!r}")
    if header is None:
        raise ParseError(1, "missing 'dw' header")
    n, width_cap = header
    if root is None:
        raise ParseError(1, "missing 'root' line")
    if len(leaves) != n:
        raise ParseError(1, f"header declares n={n} but file has {len(leaves)} leaves")

    nodes: dict[int, Leaf | Inner] = {}
    for node_id, (lineno, elem, loop) in leaves.items():
        if not 0 <= elem < n:
            raise ParseError(lineno, f"leaf element {elem} outside 0..{n - 1}")
        nodes[node_id] = Leaf(elem, loop)
    for node_id, (lineno, left, right, palette) in inners.items():
        if palette < 1:
            raise ParseError(lineno, f"kv={palette} must be >= 1")
        if palette - 1 > width_cap:
            raise ParseError(lineno, f"kv={palette} exceeds the header bound K={width_cap}")
        for child in (left, right):
            if child not in leaves and child not in inners:
                raise ParseError(lineno, f"child {child} is undefined")
        lp = 2 if left in leaves else inners[left][3]
        rp = 2 if right in leaves else inners[right][3]
        nodes[node_id] = Inner(
            (left, right),
            palette,
            [[0] * rp for _ in range(lp)],
            [[0] * rp for _ in range(lp)],
        )
    filled: set[tuple[int, int, int]] = set()
    for lineno, node_id, g1, g2, color, drop in phis:
        node = nodes.get(node_id)
        if not isinstance(node, Inner):
            raise ParseError(lineno, f"phi refers to non-inner node {node_id}")
        if (node_id, g1, g2) in filled:
            raise ParseError(lineno, f"duplicate phi entry for node {node_id} at ({g1}, {g2})")
        filled.add((node_id, g1, g2))
        if not (0 <= g1 < len(node.color) and 0 <= g2 < len(node.color[0])):
            raise ParseError(lineno, f"phi index ({g1}, {g2}) outside the child palettes")
        if not 0 <= color < node.palette:
            raise ParseError(lineno, f"color {color} outside palette 0..{node.palette - 1}")
        if drop < 0:
            raise ParseError(lineno, f"rank defect {drop} is negative")
        node.color[g1][g2] = color
        node.defect[g1][g2] = drop
    if root not in nodes:
        raise ParseError(1, f"root {root} is not a node")
    return KDecomposition(n, nodes, root)
