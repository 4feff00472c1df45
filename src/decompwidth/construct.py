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
when the two subtrees' spans meet.  The pair traces give both for all
pairs of a node from one Zassenhaus elimination per child color, extended
once per pair, and build no hull.  Colors are numbered by first
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
inside and outside E_v, found as row masks: inside_v, the OR of the
column supports under v, in one walk up, and outside_v in one walk down,
outside_c = outside_v | inside_s for a child c with sibling s; then
S_v = inside_v & outside_v.  They lie in S_c1 | S_c2, and the rest of
S_c1 | S_c2 become interior at v.  Every space kept at v is zero off S_v
and is stored in v's frame, the field's coordinates on S_v; the meets and
the table at an inner node work in the frame of S_c1 | S_c2.  ``_tables``
walks the tree three times, for every field:

* Up: U_v, the vectors of span(E_v) zero off S_v, is (U_c1 + U_c2) meet
  {zero on the rows interior at v}.  A leaf gets its column on its frame
  when no row of the column is private to it, and {0} otherwise.
* Down: W_v, the vectors of span(E - E_v) zero off S_v, starts from
  W_root = {0}.  A child c with sibling s gets W_c = (U_s + W_v) meet
  {zero off S_c}: rows interior to s, or outside v, cannot cancel between
  the summands.  Then B_v = U_v meet W_v, the pair trace of W_v against
  {0} + U_v.
* Tables: the palette pairs of v combine in the frame of S_c1 | S_c2,
  through the field's pair traces.

Every space is held as the tuple of its canonical basis (``()`` is {0}),
and colors are keyed by these tuples.  Any canonical form numbers the
colors alike, so every field's tables are the ones GF(q)^d gives, bit for
bit.  The matrix entries are checked once, up front, when the
``MatroidInstance`` is built; after that only each leaf's ``rref``
builds a checked ``Subspace``, which tells whether U_v is {0}.  It stays
because it is the one ``gf`` call of ``construct`` that perfbench's
traced ``gf.calls`` counts.  A leaf's U_v is its bare column, in no
canonical form: the meet above it and its boundary's pair trace
eliminate it again.

Each field supplies a ``_Field``: its columns, their row masks, its frames
and its kernels (move spaces between frames, meet, pair traces).  A
leaf's column is moved onto its frame from the frame of all rows.

* GF(4) and larger fields (``_row_field``): a frame is the tuple of the
  rows, increasing, and a vector is the tuple of its entries on them.
  The kernels are ``_moved``, ``_meet`` and ``gf.pair_traces``,
  unchecked RREF with leftmost pivots.  RREF over an ordered subset of
  the coordinates is the RREF in GF(q)^d with the zero coordinates
  dropped, and a node works on vectors of length
  |S_c1 | S_c2|.  On a dense matrix every S_v but the root's is every row,
  and moving between equal frames is the identity.  These fields keep row
  tuples: their entries need two or more bit planes, and a row operation
  is no longer one add (over GF(2^k) scaling a row by a pivot's inverse
  mixes the planes, and over GF(p), p > 3, an entry needs three or more
  planes and the add many more word operations).  Nor do they take
  windows: a window holds every row between a frame's least and greatest,
  which on a sparse matrix makes a row tuple longer.  The benchmark's
  only such instances are two 4 x 9 GF(4) matrices.
* GF(2) (``_GF2``): a frame is the row window (lo, width, mask), with lo
  the least row, width the bit count from it to the greatest and mask
  the frame's rows on the window.  A vector is one int, bit k is matrix
  row lo + k, and moving it between windows is a shift.  A space is its
  basis in canonical RREF with highest-bit pivots, found by xor
  elimination (``_gf2_rref``).  A meet moves the bits off the kept rows
  above the window, so they pivot first; a boundary and the pair traces
  are Zassenhaus eliminations on ``u << width | u``.  The columns are the
  instance's ``column_bits``.  Windows, not ints over all d rows: an int
  over all rows costs O(d) word operations per xor, shift and comparison
  however short its separator, so the work per element grows with d.
  Over the caterpillar of the 2 x k ladder, with the instance's
  ``column_bits`` built beforehand, windows took 33 µs per element at
  k = 128 and 36-38 µs at k = 2048; ints over all rows took 37-38 and
  46-59 µs.
* GF(3) (``_GF3``): the same windows, and a vector is two such ints, its
  bit planes (plus, minus): the bits of its entries 1 and of its entries
  2.  A row operation on them is one bitsliced add of a few word
  operations, and negation swaps the planes (Boothby & Bradshaw,
  "Bitslicing and the Method of Four Russians over larger finite fields",
  2009).  Pivots are highest-bit with entry 1.  The columns are the
  instance's ``column_planes``, read once per instance, and the add is
  ``matroids._g3_reduce``; the search shares both.  The GF(2) and GF(3)
  kernels stay apart: each is its field's hot loop.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .branchdecomp import RootedBranchTree
from .gf import FieldSpec, FVector, _echelon, pair_traces, rref
from .gf import hull, intersect  # noqa: F401  perfbench's traced run patches these names and rref
from .kdecomp import Inner, KDecomposition, Leaf
from .matroids import MatroidInstance, _g3_reduce, iter_elements

Coords = tuple[int, ...]  # matrix rows in increasing order
Rows = tuple[FVector, ...]  # RREF basis of a space, on some Coords
Window = tuple[int, int, int]  # (lo, width, mask): bit k is matrix row lo + k


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


def _meet(field: FieldSpec, parts, keep: Coords, joint: Coords) -> Rows:
    """Span of ``parts`` ((rows, coordinates) pairs inside ``joint``) meet
    {zero off ``keep``}, on the coordinates ``keep``.

    The rows of ``joint`` off ``keep`` come first, so they are eliminated
    first, and the RREF rows that are zero there have their pivots in
    ``keep`` and form its canonical basis.
    """
    kept = set(keep)
    order = tuple([i for i in joint if i not in kept]) + keep
    skip = len(order) - len(keep)
    rows = [v for space, coords in parts for v in _moved(space, coords, order)]
    reduced = _echelon(field, len(order), rows)
    return tuple([v[skip:] for v in reduced if not any(v[:skip])])


class _Field(NamedTuple):
    """What ``_tables`` needs of a field: its vectors, frames and kernels."""

    columns: Callable  # instance -> its column vectors
    support: Callable  # column vector -> the mask of its nonzero rows
    frame: Callable  # row mask -> the frame of its rows
    move: Callable  # (spaces, frame, frame) -> the spaces moved between frames
    meet: Callable  # (parts, keep, frame) -> span meet {zero off keep}, on keep
    pair_traces: Callable  # (frame, bound, lefts, rights) -> (trace, dim(S1 + S2)) pairs


def _separators(tree: RootedBranchTree, support: list[int]):
    """Postorder, and as row masks the separator rows S_v of every node and
    the rows S_c1 | S_c2 of every inner node, from each column's
    ``support``: S_v holds the rows touched both under v and outside it."""
    order = tree.postorder()
    inside: dict[int, int] = {}
    for node in order:
        kids = tree.children.get(node)
        inside[node] = inside[kids[0]] | inside[kids[1]] if kids else support[node]
    outside, seps = {tree.root: 0}, {}
    for node in reversed(order):
        seps[node] = inside[node] & outside[node]
        if node in tree.children:
            left, right = tree.children[node]
            outside[left], outside[right] = outside[node] | inside[right], outside[node] | inside[left]
    joint = {node: seps[left] | seps[right] for node, (left, right) in tree.children.items()}
    return order, seps, joint


def _inner(kids: tuple[int, int], pairs, lefts: list, rights: list):
    """The Inner node over ``kids`` whose children's color spaces are
    ``lefts`` and ``rights``, from ``pairs``, their (trace, dim(S1 + S2))
    in row-major order, and the traces of its colors.  Colors are numbered
    by first appearance; the trivial trace ``()`` is color 0."""
    color_of = {(): 0}
    color_table, defect_table = [], []
    for s1 in lefts:
        cells = [next(pairs) for _ in rights]
        color_table.append([color_of.setdefault(trace, len(color_of)) for trace, _ in cells])
        defect_table.append([len(s1) + len(s2) - joined for s2, (_, joined) in zip(rights, cells)])
    return Inner(kids, len(color_of), color_table, defect_table), list(color_of)


def _tables(m: MatroidInstance, tree: RootedBranchTree, field: _Field):
    """Per node in postorder: (node, its Leaf or Inner, its frame, its
    boundary, its color spaces), every space on the node's frame.  A
    child's color spaces are dropped once its parent's table is built."""
    columns = field.columns(m)
    support = [field.support(v) for v in columns]
    order, seps, joint = _separators(tree, support)
    frame = {v: field.frame(rows) for v, rows in seps.items()}
    wide = {v: field.frame(rows) for v, rows in joint.items()}
    everywhere = field.frame((1 << m.dim) - 1)
    up: dict[int, tuple] = {}
    for node in order:
        kids = tree.children.get(node, ())
        if kids:
            up[node] = field.meet([(up[kid], frame[kid]) for kid in kids], frame[node], wide[node])
            continue
        # U_v is {0} for a loop or a column with a row no other column
        # touches, else the column on its frame; the checked rref that
        # tells which is the gf call perfbench's traced gf.calls counts
        sep = seps[node]
        private = support[node] & ~sep
        checked = rref(m.field, sep.bit_count(), [] if private else [[m.columns[node][i] for i in iter_elements(sep)]])
        up[node] = field.move([(columns[node],)], everywhere, frame[node])[0] if checked.rows else ()
    outside: dict[int, tuple] = {tree.root: ()}
    boundary: dict[int, tuple] = {tree.root: ()}
    for node in reversed(order):
        kids = tree.children.get(node, ())
        if not kids:
            continue
        above = (outside.pop(node), frame[node])
        for child, sibling in (kids, kids[::-1]):
            outside[child] = field.meet(((up[sibling], frame[sibling]), above), frame[child], wide[node])
        for child in kids:
            # B_c = W_c meet U_c: W_c, from a meet, is canonical, as a bound must be
            boundary[child] = next(field.pair_traces(frame[child], outside[child], [()], [up.pop(child)]))[0]
    spaces: dict[int, list[tuple]] = {}
    for node in order:
        own, bound = frame[node], boundary.pop(node)
        kids = tree.children.get(node, ())
        if not kids:
            spaces[node] = [(), bound]
            yield node, Leaf(node, not support[node]), own, bound, spaces[node]
            continue
        left, right = kids
        at = wide[node]
        lefts = field.move(spaces.pop(left), frame[left], at)
        rights = field.move(spaces.pop(right), frame[right], at)
        pairs = field.pair_traces(at, field.move([bound], own, at)[0], lefts, rights)
        inner, traces = _inner(kids, pairs, lefts, rights)
        spaces[node] = field.move(traces, at, own)
        yield node, inner, own, bound, spaces[node]


def _row_field(spec: FieldSpec) -> _Field:
    """The ``_Field`` of row tuples over ``spec``: a frame is the tuple of
    its rows.  The kernels are looked up by name when called."""
    return _Field(
        lambda m: m.columns,
        lambda col: sum([1 << i for i, x in enumerate(col) if x]),
        lambda mask: tuple(iter_elements(mask)),
        lambda spaces, src, dst: [_moved(s, src, dst) for s in spaces],
        lambda parts, keep, joint: _meet(spec, parts, keep, joint),
        lambda rows, bound, lefts, rights: pair_traces(spec, len(rows), bound, lefts, rights),
    )


def _window(rows: int) -> Window:
    """The row window of the row mask ``rows``: (lo, width, mask), with lo
    the least row, width the bit count from it to the greatest and mask
    ``rows`` shifted down by lo; (0, 0, 0) for no rows."""
    if not rows:
        return 0, 0, 0
    lo = (rows & -rows).bit_length() - 1
    return lo, rows.bit_length() - lo, rows >> lo


def _gf2_rref(rows) -> list[int]:
    """Canonical basis of the span of GF(2) ``rows`` (ints): highest-bit
    pivots, each pivot bit cleared in every other row, in decreasing order."""
    basis: list[int] = []
    for v in rows:
        for b in basis:
            if v ^ b < v:  # b's pivot bit is set in v
                v ^= b
        if v:
            top = 1 << v.bit_length() - 1
            basis = [b ^ v if b & top else b for b in basis]
            basis.append(v)
    basis.sort(reverse=True)
    return basis


def _gf2_extend(stem: list[int], rows) -> list[int]:
    """``rows`` reduced against ``stem`` and then put in forward echelon
    form among themselves, in decreasing order.

    Rows with distinct top bits, taken in decreasing order, clear their top
    bits from a vector in one pass; the result is zero on the top bits of
    ``stem``, so ``stem`` and it together span ``stem`` and ``rows``."""
    new: list[int] = []
    for v in rows:
        for b in stem:
            if v ^ b < v:
                v ^= b
        for b in new:
            if v ^ b < v:
                v ^= b
        if v:
            new.append(v)
            new.sort(reverse=True)
    return new


def _gf2_move(spaces: list, src: Window, dst: Window) -> list:
    """GF(2) ``spaces`` on window ``src`` moved to window ``dst``: a shift."""
    k = src[0] - dst[0]
    if k < 0:
        return [tuple([x >> -k for x in s]) for s in spaces]
    return [tuple([x << k for x in s]) for s in spaces] if k else spaces


def _gf2_meet(parts, keep: Window, at: Window) -> tuple[int, ...]:
    """span(rows) meet {zero off the rows of ``keep``}, on window ``keep``,
    for the rows of every (space, window) in ``parts``, all inside window
    ``at``.  On ``at``, the bits off ``keep`` move above its width, so they
    pivot first, and the basis rows left below it are the meet's canonical
    basis."""
    if not keep[2]:
        return ()
    lo, width, _ = at
    shift = keep[0] - lo
    mask, limit = keep[2] << shift, 1 << width
    rows = [x << w[0] - lo for space, w in parts for x in space]
    basis = _gf2_rref([(x & ~mask) << width | x & mask for x in rows])
    return tuple([v >> shift for v in basis if v < limit])


def _gf2_pair_traces(at: Window, bound: tuple[int, ...], lefts: list, rights: list):
    """``gf.pair_traces`` on GF(2) spaces on window ``at``: B = ``bound``
    stacks as ``b << width | b``, a color's rows as ``s << width``, and the
    rows of an echelon form below bit ``width`` span the trace."""
    width = at[1]
    full, limit = len(bound), 1 << width

    def canonical(rows):
        return bound if len(rows) == full else tuple(_gf2_rref(rows))

    base = [b << width | b for b in bound]
    reduced = [_gf2_extend(base, [s << width for s in s2]) for s2 in rights]
    for s1 in lefts:
        stem = _gf2_extend(base, [s << width for s in s1]) if s1 else []
        low = [v for v in stem if v < limit]
        prefix = canonical(low)
        for rows in reduced:
            new = _gf2_extend(stem, rows) if stem else rows
            high = [v for v in new if v < limit]
            yield prefix if not high else canonical(low + high), len(stem) + len(new)


def _g3_rref(rows) -> list[tuple[int, int]]:
    """``_gf2_rref`` over GF(3): highest-bit pivots, each pivot entry 1 and
    cleared in every other row, in decreasing order."""
    basis: list[tuple[int, int]] = []
    for v in rows:
        p, m = _g3_reduce(v, basis)
        if p | m:
            v = (m, p) if m > p else (p, m)  # disjoint planes: the larger holds the top bit
            basis = [_g3_reduce(b, (v,)) for b in basis]
            basis.append(v)
    basis.sort(reverse=True)
    return basis


def _g3_extend(stem: list, rows) -> list[tuple[int, int]]:
    """``_gf2_extend`` over GF(3), every new row with top entry 1."""
    new: list[tuple[int, int]] = []
    for v in rows:
        p, m = _g3_reduce(_g3_reduce(v, stem), new)
        if p | m:
            new.append((m, p) if m > p else (p, m))
            new.sort(reverse=True)
    return new


def _g3_move(spaces: list, src: Window, dst: Window) -> list:
    """``_gf2_move`` over GF(3), on both planes."""
    k = src[0] - dst[0]
    if k < 0:
        return [tuple([(p >> -k, m >> -k) for p, m in s]) for s in spaces]
    return [tuple([(p << k, m << k) for p, m in s]) for s in spaces] if k else spaces


def _g3_meet(parts, keep: Window, at: Window) -> tuple[tuple[int, int], ...]:
    """``_gf2_meet`` over GF(3), on both planes."""
    if not keep[2]:
        return ()
    lo, width, _ = at
    shift = keep[0] - lo
    mask, limit = keep[2] << shift, 1 << width
    rows = [(p << w[0] - lo, m << w[0] - lo) for space, w in parts for p, m in space]
    basis = _g3_rref([((p & ~mask) << width | p & mask, (m & ~mask) << width | m & mask) for p, m in rows])
    return tuple([(p >> shift, m >> shift) for p, m in basis if p < limit])


def _g3_pair_traces(at: Window, bound: tuple, lefts: list, rights: list):
    """``_gf2_pair_traces`` over GF(3), on both planes.  A row with top
    entry 1 lies below bit ``width`` when its plus plane does."""
    width = at[1]
    full, limit = len(bound), 1 << width

    def canonical(rows):
        return bound if len(rows) == full else tuple(_g3_rref(rows))

    base = [(p << width | p, m << width | m) for p, m in bound]
    reduced = [_g3_extend(base, [(p << width, m << width) for p, m in s2]) for s2 in rights]
    for s1 in lefts:
        stem = _g3_extend(base, [(p << width, m << width) for p, m in s1]) if s1 else []
        low = [v for v in stem if v[0] < limit]
        prefix = canonical(low)
        for rows in reduced:
            new = _g3_extend(stem, rows) if stem else rows
            high = [v for v in new if v[0] < limit]
            yield prefix if not high else canonical(low + high), len(stem) + len(new)


_GF2 = _Field(
    lambda m: m.column_bits,
    lambda v: v,
    _window,
    _gf2_move,
    _gf2_meet,
    _gf2_pair_traces,
)
_GF3 = _Field(
    lambda m: m.column_planes,
    lambda v: v[0] | v[1],
    _window,
    _g3_move,
    _g3_meet,
    _g3_pair_traces,
)


def construct(m: MatroidInstance, tree: RootedBranchTree) -> KDecomposition:
    """Decomposition whose rank evaluation equals the matroid's rank oracle,
    from ``_tables`` in the frames of the instance's field: windows of
    ints over GF(2), of bit-plane pairs over GF(3), and row tuples over
    every other field.  All give the same tables."""
    if m.kind != "linear":
        raise ValueError("construction needs a linear (represented) matroid")
    if m.n != tree.n:
        raise ValueError(f"matroid has {m.n} elements but the tree has {tree.n} leaves")
    q = m.field.q
    field = _GF2 if q == 2 else _GF3 if q == 3 else _row_field(m.field)
    nodes = {node: entry for node, entry, *_ in _tables(m, tree, field)}
    return KDecomposition(tree.n, nodes, tree.root)
