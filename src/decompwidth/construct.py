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
pairs of a node from one Zassenhaus elimination per child color, extended
once per pair, and builds no hull.  Colors are numbered by first
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
are keyed by them.  The matrix entries are checked once, up front, when
the ``MatroidInstance`` is built; after that only the leaves' ``rref``
builds a checked ``Subspace``, the meets and the boundaries
(``gf._intersect``) are eliminated unchecked, and ``pair_traces`` checks
only its input.

Over GF(2) and GF(3) the same three walks run on Python ints
(``_int_tables``).  A GF(2) vector at v is one int over v's row window:
bit k is matrix row lo_v + k, where lo_v is the least row of S_v (of
S_c1 | S_c2 for the meets and the table at v), so moving a vector between
windows is a shift.  A GF(3) vector is two such ints, its bit planes
(plus, minus): the bits of its entries 1 and of its entries 2.  A row
operation on them is one bitsliced add of a few word operations, and
negation swaps the planes (Boothby & Bradshaw, "Bitslicing and the Method
of Four Russians over larger finite fields", 2009).  A space is the tuple
of its basis in canonical RREF with highest-bit pivots, each pivot entry
1; colors are keyed by these tuples and still numbered by first
appearance, so the tables are the row-tuple path's, bit for bit.  A meet
moves the interior bits above the window, so they pivot first; a boundary
and the pair traces are Zassenhaus eliminations on ``u << width | u``,
plane by plane over GF(3).  The leaves' separators come from the columns'
bits (the instance's ``column_bits``, or planes read once per call over
GF(3)) and each leaf still builds its checked ``rref``.  Windows, not ints
over all d rows: an int over all rows costs O(d) word operations per xor,
shift and comparison however short its separator, so the work per element
grows with d.  Over the caterpillar of the 2 x k ladder, with the
instance's ``column_bits`` built beforehand, windows took 33 µs per element
at k = 128 and 36-38 µs at k = 2048; ints over all rows took 37-38 and
46-59 µs.

GF(4) and larger fields keep row tuples.  Their entries need two or more
planes, and a row operation is no longer one add: over GF(2^k) scaling a
row by a pivot's inverse mixes the planes, and over GF(p), p > 3, an entry
needs three or more planes and the add many more word operations.  The
benchmark's only such instances are two 4 x 9 GF(4) matrices.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, NamedTuple

from .branchdecomp import RootedBranchTree
from .gf import FieldSpec, FVector, _echelon, _intersect, pair_traces
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


def _separators(m: MatroidInstance, tree: RootedBranchTree, touched: list[Coords]):
    """Postorder, the separator rows S_v of every node, the coordinates
    S_c1 | S_c2 of every inner node, and U_v of every leaf as RREF rows on
    its S_v, from the rows each column ``touched``."""
    order = tree.postorder()
    total = [0] * m.dim
    for rows in touched:
        for i in rows:
            total[i] += 1
    inside: dict[int, dict[int, int]] = {}  # per S_v row: columns under v touching it
    seps: dict[int, Coords] = {}
    joint: dict[int, Coords] = {}
    leaf_up: dict[int, Rows] = {}
    for node in order:
        kids = tree.children.get(node, ())
        if not kids:
            sep = seps[node] = tuple(i for i in touched[node] if total[i] > 1)
            inside[node] = dict.fromkeys(sep, 1)
            private = len(sep) < len(touched[node])
            leaf_up[node] = rref(m.field, len(sep), [] if private else [[m.columns[node][i] for i in sep]]).rows
            continue
        left, right = kids
        counts = inside.pop(left)
        for i, c in inside.pop(right).items():
            counts[i] = counts.get(i, 0) + c
        inside[node] = {i: c for i, c in counts.items() if c < total[i]}
        joint[node] = tuple(sorted(counts))
        seps[node] = tuple(i for i in joint[node] if i in inside[node])
    return order, seps, joint, leaf_up


def _boundaries(m: MatroidInstance, tree: RootedBranchTree):
    """Postorder, separator rows S_v, the coordinates S_c1 | S_c2 of every
    inner node, and every boundary on its separator rows."""
    rows = range(m.dim)
    touched = [tuple(compress(rows, col)) for col in m.columns]
    order, seps, joint, up = _separators(m, tree, touched)
    field = m.field
    for node in order:
        kids = tree.children.get(node, ())
        if kids:
            left, right = kids
            keep = set(seps[node])
            interior = tuple(i for i in joint[node] if i not in keep)
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
        inner, traces = _inner(kids, pairs, spaces_left, spaces_right)
        spaces[node] = [_moved(trace, coords, own) for trace in traces]
        yield node, inner, own, bound, spaces[node]


def _bit_rows(v: int) -> Coords:
    """The rows of the set bits of ``v``, in increasing order."""
    rows = []
    while v:
        low = v & -v
        rows.append(low.bit_length() - 1)
        v ^= low
    return tuple(rows)


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


def _gf2_meet(parts, keep: int, shift: int, width: int) -> tuple[int, ...]:
    """span(rows) meet {zero off the bits of ``keep << shift``}, for the
    rows of every (space, k) in ``parts`` shifted up k bits, all below bit
    ``width``, shifted right by ``shift``.  The other bits move above
    ``width``, so they pivot first, and the basis rows left below it are
    the meet's canonical basis."""
    if not keep:
        return ()
    keep <<= shift
    limit = 1 << width
    rows = [x << k for space, k in parts for x in space]
    basis = _gf2_rref([(x & ~keep) << width | x & keep for x in rows])
    return tuple([v >> shift for v in basis if v < limit])


def _gf2_intersect(rows1, rows2, width: int) -> tuple[int, ...]:
    """span(``rows1``) ∩ span(``rows2``), for rows below bit ``width``, by
    Zassenhaus elimination on ``u << width | u`` and ``w << width``."""
    if not rows1 or not rows2:
        return ()
    limit = 1 << width
    basis = _gf2_rref([u << width | u for u in rows1] + [w << width for w in rows2])
    return tuple([v for v in basis if v < limit])


def _gf2_pair_traces(width: int, bound: tuple[int, ...], lefts: list, rights: list):
    """``pair_traces`` on GF(2) spaces held as ints below bit ``width``:
    B = ``bound`` stacks as ``b << width | b``, a color's rows as
    ``s << width``, and the rows of an echelon form below bit ``width``
    span the trace."""
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


_ONES = bytes.maketrans(b"\x00\x01\x02", b"010")
_TWOS = bytes.maketrans(b"\x00\x01\x02", b"001")


def _g3_columns(m: MatroidInstance) -> list[tuple[int, int]]:
    """A GF(3) instance's columns as bit planes (plus, minus), bit i = row
    i, each read as two binary numerals by C-level ``bytes`` calls."""
    digits = [bytes(col)[::-1] for col in m.columns]
    return [(int(d.translate(_ONES) or b"0", 2), int(d.translate(_TWOS) or b"0", 2)) for d in digits]


def _g3_reduce(v: tuple[int, int], rows) -> tuple[int, int]:
    """GF(3) vector ``v`` (bit planes) with the entry at each top bit of
    ``rows`` cleared in turn, by adding or subtracting that row.  Every row
    has top entry 1; a cleared entry stays 0 when each later row is zero at
    it, as in an echelon form taken in decreasing order or a reduced one."""
    p, m = v
    for bp, bm in rows:
        if p ^ bp < p:  # entry 1 at bp's top bit: subtract, i.e. add -b
            bp, bm = bm, bp
        elif m ^ bp >= m:
            continue
        # bitsliced add: an entry nonzero on one side only, or 2 + 2 = 1 and 1 + 1 = 2
        u, w = p | m, bp | bm
        p, m = p & ~w | bp & ~u | m & bm, m & ~w | bm & ~u | p & bp
    return p, m


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


def _g3_meet(parts, keep: int, shift: int, width: int) -> tuple[tuple[int, int], ...]:
    """``_gf2_meet`` over GF(3), on both planes."""
    if not keep:
        return ()
    keep <<= shift
    limit = 1 << width
    rows = [(p << k, m << k) for space, k in parts for p, m in space]
    basis = _g3_rref([((p & ~keep) << width | p & keep, (m & ~keep) << width | m & keep) for p, m in rows])
    return tuple([(p >> shift, m >> shift) for p, m in basis if p < limit])


def _g3_intersect(rows1, rows2, width: int) -> tuple[tuple[int, int], ...]:
    """``_gf2_intersect`` over GF(3), on both planes."""
    if not rows1 or not rows2:
        return ()
    limit = 1 << width
    stack = [(p << width | p, m << width | m) for p, m in rows1] + [(p << width, m << width) for p, m in rows2]
    return tuple([v for v in _g3_rref(stack) if v[0] < limit])


def _g3_pair_traces(width: int, bound: tuple, lefts: list, rights: list):
    """``_gf2_pair_traces`` over GF(3), on both planes.  A row with top
    entry 1 lies below bit ``width`` when its plus plane does."""
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


class _IntField(NamedTuple):
    """What ``_int_tables`` needs of a field whose vectors are ints (GF(2))
    or bit-plane pairs (GF(3)) over a row window."""

    columns: Callable  # instance -> its column vectors
    support: Callable  # vector -> the int of its nonzero entries
    lift: Callable  # (spaces, k) -> every space shifted up k bits
    lower: Callable  # (spaces, k) -> every space shifted down k bits
    meet: Callable
    intersect: Callable
    pair_traces: Callable


_GF2 = _IntField(
    lambda m: m.column_bits,
    lambda v: v,
    lambda spaces, k: [tuple([x << k for x in s]) for s in spaces],
    lambda spaces, k: [tuple([x >> k for x in s]) for s in spaces],
    _gf2_meet,
    _gf2_intersect,
    _gf2_pair_traces,
)
_GF3 = _IntField(
    _g3_columns,
    lambda v: v[0] | v[1],
    lambda spaces, k: [tuple([(p << k, m << k) for p, m in s]) for s in spaces],
    lambda spaces, k: [tuple([(p >> k, m >> k) for p, m in s]) for s in spaces],
    _g3_meet,
    _g3_intersect,
    _g3_pair_traces,
)


def _window(rows: Coords) -> tuple[int, int]:
    """(lo, width): the least of ``rows`` and the bit count from it to the
    greatest; (0, 0) for no rows."""
    return (rows[0], rows[-1] - rows[0] + 1) if rows else (0, 0)


def _int_tables(m: MatroidInstance, tree: RootedBranchTree, field: _IntField):
    """``_local_tables`` over GF(2) or GF(3), yielding (node, its Leaf or
    Inner).

    Every space is a tuple of vectors in canonical form (``_gf2_rref``,
    ``_g3_rref``) over a row window: bit k of a vector at v is matrix row
    lo_v + k, lo_v the least row of S_v, and of S_c1 | S_c2 for the meets
    and table of an inner node, so moving a vector between windows is a
    shift."""
    columns = field.columns(m)
    supports = [field.support(v) for v in columns]
    order, seps, joint, leaf_up = _separators(m, tree, [_bit_rows(v) for v in supports])
    lo = {v: _window(rows)[0] for v, rows in seps.items()}
    mask = {v: sum([1 << i - lo[v] for i in rows]) for v, rows in seps.items()}  # S_v on its window
    wide = {v: _window(rows) for v, rows in joint.items()}
    up: dict[int, tuple] = {}
    for node in order:
        kids = tree.children.get(node, ())
        if not kids:
            up[node] = field.lower([(columns[node],)], lo[node])[0] if leaf_up[node] else ()
            continue
        base, width = wide[node]
        up[node] = field.meet([(up[kid], lo[kid] - base) for kid in kids], mask[node], lo[node] - base, width)
    outside: dict[int, tuple] = {tree.root: ()}
    boundary: dict[int, tuple] = {tree.root: ()}
    for node in reversed(order):
        kids = tree.children.get(node, ())
        if not kids:
            continue
        base, width = wide[node]
        above = (outside.pop(node), lo[node] - base)
        for child, sibling in (kids, kids[::-1]):
            parts = ((up[sibling], lo[sibling] - base), above)
            outside[child] = field.meet(parts, mask[child], lo[child] - base, width)
        for child in kids:
            boundary[child] = field.intersect(up.pop(child), outside[child], _window(seps[child])[1])
    spaces: dict[int, list[tuple]] = {}
    for node in order:
        bound = boundary.pop(node)
        kids = tree.children.get(node, ())
        if not kids:
            spaces[node] = [(), bound]
            yield node, Leaf(node, not supports[node])
            continue
        left, right = kids
        base, width = wide[node]
        lefts = field.lift(spaces.pop(left), lo[left] - base)
        rights = field.lift(spaces.pop(right), lo[right] - base)
        shift = lo[node] - base
        pairs = field.pair_traces(width, field.lift([bound], shift)[0], lefts, rights)
        inner, traces = _inner(kids, pairs, lefts, rights)
        spaces[node] = field.lower(traces, shift)
        yield node, inner


def construct(m: MatroidInstance, tree: RootedBranchTree) -> KDecomposition:
    """Decomposition whose rank evaluation equals the matroid's rank oracle.
    Over GF(2) and GF(3) the spaces are ints or bit-plane pairs
    (``_int_tables``); over every other field, row tuples
    (``_local_tables``).  All give the same tables."""
    if m.kind != "linear":
        raise ValueError("construction needs a linear (represented) matroid")
    if m.n != tree.n:
        raise ValueError(f"matroid has {m.n} elements but the tree has {tree.n} leaves")
    if m.field.q in (2, 3):
        nodes = dict(_int_tables(m, tree, _GF2 if m.field.q == 2 else _GF3))
    else:
        nodes = {node: entry for node, entry, *_ in _local_tables(m, tree)}
    return KDecomposition(tree.n, nodes, tree.root)
