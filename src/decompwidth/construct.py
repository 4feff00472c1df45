"""Build a decomposition from a linear representation and a rooted branch tree.

For every tree node v let the subtree span be the hull of the column vectors
under v, and the boundary B_v its intersection with the hull of all
remaining columns.  The boundary's dimension is at most the width of the
branch decomposition, and subsets of the subtree's elements interact with
the rest of the matroid only through the trace of their span inside the
boundary.  Colors therefore name boundary subspaces: color 0 is always the
trivial space; further colors are allocated on demand, at most one per
boundary subspace that is actually reachable, which keeps palettes at or
below the subspace count of the boundary.

For child colors (g1, g2) naming boundary subspaces S1, S2, the parent entry
is the color of (parent boundary) intersect hull(S1, S2), and the rank
defect is dim S1 + dim S2 - dim hull(S1, S2): exactly the dimension lost
when the two subtrees' spans meet.

Leaves color the empty set 0 and the selected singleton 1.  When a leaf's
boundary is trivial (its element is a loop or a coloop), color 1 maps to the
trivial subspace too: the selected element then contributes its label and
shares nothing, which is the correct interaction in both cases.  Mapping
color 1 to "no subspace" instead and zeroing those table entries would turn
defects off for coloops and overcount ranks (three elements suffice: a
parallel pair plus a coloop comes out rank 3 instead of 2).

Construction walks the tree three times and touches every palette pair once
per node.  Subtree spans go up.  Boundaries come down from B_root = {0}: a
child c with sibling s under v gets

    B_c = span(E_c) meet (span(E_s) + B_v),

since span(E_s) + B_v lies in span(E - E_c), and any x in B_c is a + b with
a in span(E_s) and b in span(E - E_v), so b = x - a lies in span(E_v) and
hence in B_v.  Tables go up.  Only the subtree spans and the boundaries are
kept.  Vectors keep the ambient length d: boundaries and color spaces have
dimension at most the width, but subtree spans reach the rank r, and every
hull and intersect works on rows of length d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchdecomp import RootedBranchTree
from .gf import Subspace, hull, intersect, rref
from .kdecomp import ElementSet, Inner, KDecomposition, Leaf, node_states
from .matroids import MatroidInstance

_LEMMA_LIMIT = 12


@dataclass
class NodeSubspaceData:
    """Per-node geometry backing the color tables."""

    boundary: Subspace
    color_spaces: list[Subspace]  # index = color; [0] is the trivial space


def node_subspace_data(
    m: MatroidInstance, tree: RootedBranchTree
) -> dict[int, NodeSubspaceData]:
    """Boundary of every tree node, with its color spaces still empty."""
    if m.kind != "linear":
        raise ValueError("construction needs a linear (represented) matroid")
    if m.n != tree.n:
        raise ValueError(f"matroid has {m.n} elements but the tree has {tree.n} leaves")
    field, d = m.field, m.dim
    order = tree.postorder()
    span: dict[int, Subspace] = {}
    for node in order:
        kids = tree.children.get(node, ())
        if not kids:
            span[node] = rref(field, d, [m.columns[node]])
        else:
            span[node] = hull(span[kids[0]], span[kids[1]])
    data = {tree.root: NodeSubspaceData(Subspace.zero(field, d), [])}
    for node in reversed(order):
        kids = tree.children.get(node, ())
        if kids:
            for child, sibling in (kids, kids[::-1]):
                reach = hull(span[sibling], data[node].boundary)
                data[child] = NodeSubspaceData(intersect(span[child], reach), [])
    return data


def construct(m: MatroidInstance, tree: RootedBranchTree) -> KDecomposition:
    """Decomposition whose rank evaluation equals the matroid's rank oracle."""
    return construct_with_data(m, tree)[0]


def construct_with_data(
    m: MatroidInstance, tree: RootedBranchTree
) -> tuple[KDecomposition, dict[int, NodeSubspaceData]]:
    """Like :func:`construct`, also returning the per-node geometry with the
    color-to-subspace association filled in."""
    data = node_subspace_data(m, tree)
    field, d = m.field, m.dim
    trivial = Subspace.zero(field, d)
    nodes: dict[int, Leaf | Inner] = {}
    for node in tree.postorder():
        node_data = data[node]
        kids = tree.children.get(node, ())
        if not kids:
            node_data.color_spaces = [trivial, node_data.boundary]
            is_loop = not any(m.columns[node])
            nodes[node] = Leaf(node, is_loop)
            continue
        left, right = kids
        spaces_left = data[left].color_spaces
        spaces_right = data[right].color_spaces
        color_of: dict[Subspace, int] = {trivial: 0}
        node_data.color_spaces = [trivial]
        color_table = [[0] * len(spaces_right) for _ in spaces_left]
        defect_table = [[0] * len(spaces_right) for _ in spaces_left]
        for g1, s1 in enumerate(spaces_left):
            for g2, s2 in enumerate(spaces_right):
                joined = hull(s1, s2)
                trace = intersect(node_data.boundary, joined)
                color = color_of.get(trace)
                if color is None:
                    color = len(node_data.color_spaces)
                    color_of[trace] = color
                    node_data.color_spaces.append(trace)
                color_table[g1][g2] = color
                defect_table[g1][g2] = s1.dim + s2.dim - joined.dim
        nodes[node] = Inner(
            (left, right), len(node_data.color_spaces), color_table, defect_table
        )
    return KDecomposition(tree.n, nodes, tree.root), data


@dataclass
class ConsistencyVerdict:
    ok: bool
    witness: tuple[ElementSet, ElementSet, ElementSet] | None = None  # (F1, F2, outside F)

    def __bool__(self) -> bool:
        return self.ok


def _submasks(mask: ElementSet):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def color_consistency_check(
    dec: KDecomposition, m: MatroidInstance, node_id: int
) -> ConsistencyVerdict:
    """Same-colored subsets must be interchangeable against the outside.

    For subsets F1, F2 of the elements under ``node_id`` that receive the
    same color there, and any F disjoint from them, the oracle defects
    r(F) + r(Fi) - r(F | Fi) must agree.  Checked exhaustively (n <= 12);
    each color class is compared against its first member.
    """
    if m.n > _LEMMA_LIMIT:
        raise ValueError(f"exhaustive consistency check limited to n <= {_LEMMA_LIMIT}")
    under = dec.subtree_elements(node_id)
    outside_mask = dec.full_set() & ~under
    reps: dict[int, tuple[ElementSet, list[int]]] = {}
    for f1 in _submasks(under):
        color = node_states(dec, f1)[node_id][0]
        defects = [
            m.rank(f) + m.rank(f1) - m.rank(f | f1) for f in _submasks(outside_mask)
        ]
        if color not in reps:
            reps[color] = (f1, defects)
            continue
        rep_mask, rep_defects = reps[color]
        for f, mine, theirs in zip(_submasks(outside_mask), defects, rep_defects):
            if mine != theirs:
                return ConsistencyVerdict(False, (f1, rep_mask, f))
    return ConsistencyVerdict(True)
