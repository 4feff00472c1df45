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
when the two subtrees' spans meet.  ``gf.pair_traces`` gives both for all
pairs of a node from one Zassenhaus elimination per left color, extended
once per right color, and builds no hull.  Colors are numbered by first
appearance in (g1, g2) order.

Leaves color the empty set 0 and the selected singleton 1.  When a leaf's
boundary is trivial (its element is a loop or a coloop), color 1 maps to the
trivial subspace too: the selected element then contributes its label and
shares nothing, which is the correct interaction in both cases.  Mapping
color 1 to "no subspace" instead and zeroing those table entries would turn
defects off for coloops and overcount ranks (three elements suffice: a
parallel pair plus a coloop comes out rank 3 instead of 2).

Construction works in separator-row coordinates, as multifrontal
elimination does (Duff & Reid, ACM TOMS 1983; George, SIAM J. Numer. Anal.
1973).  The separator rows S_v are the matrix rows touched by columns both
inside and outside E_v.  They lie in S_c1 | S_c2 and are found bottom-up
from per-row touch counts; the rest of S_c1 | S_c2 become interior at v.
Every space kept at v is zero off S_v and is stored on those rows only.
The tree is walked three times:

* Up: U_v, the vectors of span(E_v) zero off S_v, is (U_c1 + U_c2) meet
  {zero on the rows interior at v}.  A leaf gets span(col) when no row of
  its column is private to it, and {0} otherwise.
* Down: W_v, the vectors of span(E - E_v) zero off S_v, starts from
  W_root = {0}.  A child c with sibling s gets W_c = (U_s + W_v) meet
  {zero off S_c}: rows interior to s, or outside v, cannot cancel between
  the summands.  Then B_v = U_v meet W_v.
* Tables: the palette pairs of v combine in the coordinates S_c1 | S_c2,
  through ``pair_traces``.

Coordinates keep the increasing row order, and RREF over an ordered subset
of the coordinates is the RREF in GF(q)^d with the zero coordinates
dropped, so every space, color and table entry is the one GF(q)^d gives,
while a node works on vectors of length |S_c1 | S_c2|.  On a dense matrix
every S_v but the root's is every row, and moving between equal coordinate
lists is the identity.

Every space is held as its tuple of RREF rows (``()`` is {0}), and colors
are keyed by them.  The matrix entries are checked once, up front; after
that only the leaves' ``rref`` builds a checked ``Subspace``, the meets and
the boundaries (``gf._intersect``) are eliminated unchecked, and
``pair_traces`` checks only its input.
"""

from __future__ import annotations

from .branchdecomp import RootedBranchTree
from .gf import FieldSpec, FVector, _check_rows, _echelon, _intersect, pair_traces
from .gf import hull, intersect, rref  # noqa: F401  perfbench's traced run patches these names
from .kdecomp import Inner, KDecomposition, Leaf
from .matroids import MatroidInstance

Coords = tuple[int, ...]  # matrix rows in increasing order
Rows = tuple[FVector, ...]  # RREF basis of a space, on some Coords


def _moved(rows: Rows, src: Coords, dst: Coords) -> Rows:
    """Vectors on coordinates ``src`` rewritten on ``dst``; their entries
    on rows outside ``dst`` must be zero."""
    if src == dst:
        return rows
    at = {row: k for k, row in enumerate(dst)}
    out = []
    for vec in rows:
        moved = [0] * len(dst)
        for row, x in zip(src, vec):
            if x:
                moved[at[row]] = x
        out.append(tuple(moved))
    return tuple(out)


def _meet(field: FieldSpec, parts, interior: Coords, keep: Coords) -> Rows:
    """Span of ``parts`` ((rows, coordinates) pairs inside interior + keep)
    meet {zero on ``interior``}, on the coordinates ``keep``.

    The interior rows are eliminated first, so the RREF rows that are zero
    there have their pivots in ``keep`` and form its canonical basis.
    """
    order = interior + keep
    rows = [v for space, coords in parts for v in _moved(space, coords, order)]
    skip = len(interior)
    reduced = _echelon(field, len(order), rows)
    return tuple([v[skip:] for v in reduced if not any(v[:skip])])


def _boundaries(m: MatroidInstance, tree: RootedBranchTree):
    """Postorder, separator rows S_v, the coordinates S_c1 | S_c2 of every
    inner node, and every boundary on its separator rows."""
    if m.kind != "linear":
        raise ValueError("construction needs a linear (represented) matroid")
    if m.n != tree.n:
        raise ValueError(f"matroid has {m.n} elements but the tree has {tree.n} leaves")
    field = m.field
    _check_rows(field, m.dim, m.columns)
    order = tree.postorder()
    touched = [tuple(i for i, x in enumerate(col) if x) for col in m.columns]
    total = [0] * m.dim
    for rows in touched:
        for i in rows:
            total[i] += 1
    inside: dict[int, dict[int, int]] = {}  # per S_v row: columns under v touching it
    seps: dict[int, Coords] = {}
    joint: dict[int, Coords] = {}
    up: dict[int, Rows] = {}
    for node in order:
        kids = tree.children.get(node, ())
        if not kids:
            sep = seps[node] = tuple(i for i in touched[node] if total[i] > 1)
            inside[node] = dict.fromkeys(sep, 1)
            private = len(sep) < len(touched[node])
            up[node] = rref(field, len(sep), [] if private else [[m.columns[node][i] for i in sep]]).rows
            continue
        left, right = kids
        counts = inside.pop(left)
        for i, c in inside.pop(right).items():
            counts[i] = counts.get(i, 0) + c
        inside[node] = {i: c for i, c in counts.items() if c < total[i]}
        joint[node] = tuple(sorted(counts))
        seps[node] = tuple(i for i in joint[node] if i in inside[node])
        interior = tuple(i for i in joint[node] if i not in inside[node])
        parts = ((up[left], seps[left]), (up[right], seps[right]))
        up[node] = _meet(field, parts, interior, seps[node])
    outside: dict[int, Rows] = {tree.root: ()}
    boundary: dict[int, Rows] = {tree.root: ()}
    for node in reversed(order):
        kids = tree.children.get(node, ())
        if not kids:
            continue
        above = (outside.pop(node), seps[node])
        for child, sibling in (kids, kids[::-1]):
            keep = seps[child]
            interior = tuple(i for i in joint[node] if i not in keep)
            outside[child] = _meet(field, ((up[sibling], seps[sibling]), above), interior, keep)
        for child in kids:
            boundary[child] = _intersect(field, len(seps[child]), up.pop(child), outside[child])
    return order, seps, joint, boundary


def _local_tables(m: MatroidInstance, tree: RootedBranchTree):
    """Per node in postorder: (node, its Leaf or Inner, S_v, boundary, color
    spaces), every space as its RREF rows on the coordinates S_v.  A
    child's color spaces are dropped once its parent's table is built."""
    order, seps, joint, boundary = _boundaries(m, tree)
    spaces: dict[int, list[Rows]] = {}
    for node in order:
        own = seps[node]
        bound = boundary.pop(node)
        kids = tree.children.get(node, ())
        if not kids:
            spaces[node] = [(), bound]
            yield node, Leaf(node, not any(m.columns[node])), own, bound, spaces[node]
            continue
        left, right = kids
        coords = joint[node]
        spaces_left = [_moved(s, seps[left], coords) for s in spaces.pop(left)]
        spaces_right = [_moved(s, seps[right], coords) for s in spaces.pop(right)]
        pairs = pair_traces(m.field, len(coords), _moved(bound, own, coords), spaces_left, spaces_right)
        color_of: dict[Rows, int] = {(): 0}  # trace -> color, in order of first appearance
        color_table, defect_table = [], []
        for s1 in spaces_left:
            cells = [next(pairs) for _ in spaces_right]
            color_table.append([color_of.setdefault(trace, len(color_of)) for trace, _ in cells])
            defect_table.append([len(s1) + len(s2) - joined for s2, (_, joined) in zip(spaces_right, cells)])
        spaces[node] = [_moved(trace, coords, own) for trace in color_of]
        inner = Inner((left, right), len(color_of), color_table, defect_table)
        yield node, inner, own, bound, spaces[node]


def construct(m: MatroidInstance, tree: RootedBranchTree) -> KDecomposition:
    """Decomposition whose rank evaluation equals the matroid's rank oracle."""
    nodes = {node: entry for node, entry, *_ in _local_tables(m, tree)}
    return KDecomposition(tree.n, nodes, tree.root)
