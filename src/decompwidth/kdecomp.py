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

Everything here treats decompositions as immutable once built; an instance
caches its traversal order and, on the first ``subtree_elements`` call,
every node's subtree mask.  The first walk runs
``validate_structure`` and raises ValueError with its text unless the nodes
form one binary tree whose leaves hold 0..n-1 once each and whose tables
match the child palettes, keep their colors in the node's palette, have no
negative defect and respect the empty-set convention.  So every pass indexes
the tables unguarded and never runs on a malformed decomposition.  An
explicit ``validate_structure`` call that finds no defect fills the same
cache, so a check followed by a pass checks once; every check drops the
masks.  Rooted branch trees (``branchdecomp``) are checked and walked by
the same ``tree_defect`` and ``tree_postorder``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, integers, keyed, records

ElementSet = int  # bitmask over ground-set elements
# node_states reads a subset as one byte per element: a shift per leaf copies n bits
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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
    _masks: dict[int, ElementSet] | None = field(default=None, repr=False, compare=False)

    def palette_of(self, node_id: int) -> int:
        node = self.nodes[node_id]
        return 2 if isinstance(node, Leaf) else node.palette

    def postorder(self) -> list[int]:
        """Children-before-parent order, cached.

        The decomposition is checked on the first call: ValueError carrying
        the text of ``validate_structure``'s first defect.
        """
        if self._postorder is None:
            defect = validate_structure(self)
            if defect is not None:
                raise ValueError(str(defect))
        return self._postorder

    def subtree_elements(self, node_id: int) -> ElementSet:
        """Bitmask of ground-set elements under ``node_id``.

        The first call fills every node's mask in one walk of the cached
        order; together they hold up to n^2/2 bits, so no pass builds them
        unasked.
        """
        if self._masks is None:
            masks: dict[int, ElementSet] = {}
            for v in self.postorder():
                node = self.nodes[v]
                if isinstance(node, Leaf):
                    masks[v] = 1 << node.element
                else:
                    masks[v] = masks[node.children[0]] | masks[node.children[1]]
            self._masks = masks
        return self._masks[node_id]

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
    if subset & ~dec.full_set():
        raise ValueError("subset contains elements outside the ground set")
    members = bin(subset)[:1:-1].ljust(dec.n, "0").encode().translate(_BIT_VALUES)
    states: dict[int, tuple[int, int]] = {}
    for node_id in dec.postorder():
        node = dec.nodes[node_id]
        if isinstance(node, Leaf):
            selected = members[node.element]
            states[node_id] = (selected, selected if not node.loop else 0)
        else:
            c1, l1 = states[node.children[0]]
            c2, l2 = states[node.children[1]]
            states[node_id] = (node.color[c1][c2], l1 + l2 - node.defect[c1][c2])
    return states


def eval_rank(dec: KDecomposition, subset: ElementSet) -> int:
    """Label of the root; the rank of ``subset`` in the described matroid.

    May be negative for decompositions that do not describe a matroid;
    rejecting those is the verifier's job.
    """
    return node_states(dec, subset)[dec.root][1]


def offsets(dec: KDecomposition, states: dict[int, tuple[int, int]]) -> dict[int, list[int]]:
    """The one top-down pass, O(nK): for every node v and color g of v, what
    the root's label adds to v's label when v takes color g and every node
    off v's path keeps its state in ``states``, a node absent from it being
    at (0, 0).  With states = node_states(dec, B), or {} for B empty, that is
    eval_rank((B - E_v) | X) - label_v(X) for X in v's subtree E_v of color g."""
    order = dec.postorder()  # checks dec before its root is read
    off = {dec.root: [0] * dec.palette_of(dec.root)}
    for node_id in reversed(order):
        node = dec.nodes[node_id]
        if isinstance(node, Inner):
            here, (left, right) = off[node_id], node.children
            c1, l1 = states.get(left, (0, 0))
            c2, l2 = states.get(right, (0, 0))
            off[left] = [here[r[c2]] + l2 - d[c2] for r, d in zip(node.color, node.defect)]
            off[right] = [here[c] + l1 - d for c, d in zip(node.color[c1], node.defect[c1])]
    return off


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
) -> StructureDefect | list[int]:
    """First reason why ``children`` (inner node -> its children) is not one
    binary tree over ``nodes`` rooted at ``root`` whose leaves hold the
    elements 0..n-1 once each, or the tree's ``tree_postorder`` when it is.
    ``elements`` lists the element of every leaf."""
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
    order = tree_postorder(root, children)
    reached = set(order)
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
    return order


def validate_structure(dec: KDecomposition) -> StructureDefect | None:
    """First structural defect, or None when the decomposition is well formed.

    Every call checks the whole decomposition.  A well-formed one keeps the
    postorder the check walked as its cached traversal order, so the passes
    run right after the check do not check it again; a malformed one drops
    any cached order.  Every call drops the cached subtree masks.
    """
    children = {v: node.children for v, node in dec.nodes.items() if isinstance(node, Inner)}
    elements = [node.element for node in dec.nodes.values() if isinstance(node, Leaf)]
    found = tree_defect(dec.nodes, dec.root, children, elements, dec.n)
    defect = found if isinstance(found, StructureDefect) else _table_defect(dec)
    dec._postorder = None if defect is not None else found
    dec._masks = None
    return defect


def _table_defect(dec: KDecomposition) -> StructureDefect | None:
    """First defect of the color and defect tables of a well-formed tree."""
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
        # an empty domain means a child of palette < 1, reported at that child
        if lp > 0 and rp > 0 and (node.color[0][0] != 0 or node.defect[0][0] != 0):
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
            if header[1] < 1:
                # every leaf has palette 2, so every decomposition has width >= 1
                raise ParseError(lineno, f"K={header[1]} must be >= 1")
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
            try:
                phis.append((lineno, int(tok[1]), int(tok[2]), int(tok[3]), int(tok[4]), int(tok[5])))
            except ValueError:
                integers(tok[1:], lineno, "phi entries must be integers")
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
    # per inner node, which of its cells a phi line has set; a duplicate
    # repeats a line that passed every check, so its indices are in bounds
    filled: dict[int, list[list[bool]]] = {}
    for lineno, node_id, g1, g2, color, drop in phis:
        node = nodes.get(node_id)
        if not isinstance(node, Inner):
            raise ParseError(lineno, f"phi refers to non-inner node {node_id}")
        if not (0 <= g1 < len(node.color) and 0 <= g2 < len(node.color[0])):
            raise ParseError(lineno, f"phi index ({g1}, {g2}) outside the child palettes")
        cells = filled.get(node_id)
        if cells is None:
            cells = filled[node_id] = [[False] * len(row) for row in node.color]
        if cells[g1][g2]:
            raise ParseError(lineno, f"duplicate phi entry for node {node_id} at ({g1}, {g2})")
        cells[g1][g2] = True
        if not 0 <= color < node.palette:
            raise ParseError(lineno, f"color {color} outside palette 0..{node.palette - 1}")
        if drop < 0:
            raise ParseError(lineno, f"rank defect {drop} is negative")
        node.color[g1][g2] = color
        node.defect[g1][g2] = drop
    if root not in nodes:
        raise ParseError(1, f"root {root} is not a node")
    return KDecomposition(n, nodes, root)
