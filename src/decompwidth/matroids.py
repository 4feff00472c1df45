"""Matroid instances with rank oracles.

Subsets of the ground set are plain int bitmasks (bit i = element i).  Four
backends share one interface:

* linear    -- columns of a matrix over GF(q), checked once, however the
               instance is built; rank = dimension of the span (bit-packed
               elimination for GF(2), pivot counting by gf's elimination
               else); rank_table and prefix_sweep eliminate in bulk, the
               latter over the columns of M and of its dual M*, on the
               (plus, minus) bit planes of ``column_planes`` and
               ``dual_planes`` over GF(3) and on row tuples over every
               other field
* graphic   -- edges of a graph; rank = vertices minus components, through
               union-find; prefix_sweep runs on its GF(2) incidence matrix
* uniform   -- rank(F) = min(|F|, r)
* explicit  -- a full rank table over all 2^n subsets, n <= 20, with the
               matroid axioms checked eagerly at construction

An instance keeps its data and what it derives from it on first use (a
graphic ``twin``, a linear instance's dual columns, GF(2) column bits and
GF(3) column planes), never rank answers; instances are immutable, so
concurrent readers are fine.

``closure`` and ``coloops`` ask ``rank`` once per element.  The branch-
decomposition search instead grows a set P one element at a time and reads
cl(P), cl*(P) (the closure in M*) and λ(P) = r(P) + r(E - P) - r(E) off a
``_GrowingSet``; ``prefix_sweep`` gives those of every prefix of an order.

The text format (one record per file, '#' comments):

    matroid linear q=<q> rows=<d> cols=<n>   then d lines of n integers
    matroid graphic vertices=<V> edges=<n>   then n lines "u v" (0-based)
    matroid uniform r=<r> n=<n>
"""

from __future__ import annotations

from functools import cached_property

from . import gf
from .errors import ParseError, integers, keyed, records
from .gf import FieldSpec, field_of_order
from .gf import rref  # noqa: F401  perfbench's traced run counts gf calls by patching matroids.rref

ElementSet = int

_FULL_TABLE_LIMIT = 20  # the largest n whose 2^n subsets are tabulated or enumerated


def iter_elements(mask: ElementSet):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_ONES = bytes.maketrans(b"\x00\x01\x02", b"010")
_TWOS = bytes.maketrans(b"\x00\x01\x02", b"001")


def _g3_planes(columns) -> list[tuple[int, int]]:
    """GF(3) ``columns`` as bit planes (plus, minus), the bits of their
    entries 1 and of their entries 2 (bit i = row i), each plane read as a
    binary numeral, last row first, by C-level ``bytes`` calls."""
    digits = [bytes(col)[::-1] for col in columns]
    return [(int(d.translate(_ONES) or b"0", 2), int(d.translate(_TWOS) or b"0", 2)) for d in digits]


def _g3_reduce(v: tuple[int, int], rows) -> tuple[int, int]:
    """GF(3) vector ``v`` (bit planes) with the entry at each top bit of
    ``rows`` cleared in turn, by adding or subtracting that row.  Every row
    has top entry 1; a cleared entry stays 0 when each later row is zero at
    it, as in an echelon form taken in decreasing order or a reduced one.
    Negation swaps the planes (Boothby & Bradshaw, "Bitslicing and the
    Method of Four Russians over larger finite fields", 2009)."""
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


class MatroidInstance:
    """A ground set 0..n-1 with a rank oracle.  Build via the classmethods."""

    def __init__(self, kind: str, n: int, **data):
        self.kind = kind
        self.n = n
        self.__dict__.update(data)
        if kind == "linear":  # rows of length n, entries in 0..q-1
            gf._check_rows(self.field, n, self.matrix)
            self.dim = len(self.matrix)
            self.columns = list(zip(*self.matrix)) or [()] * n

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def linear(cls, field: FieldSpec, matrix) -> "MatroidInstance":
        """Columns of ``matrix`` (a sequence of d rows of n entries) over ``field``."""
        rows = tuple([tuple(map(int, row)) for row in matrix])
        return cls("linear", len(rows[0]) if rows else 0, field=field, matrix=rows)

    @classmethod
    def graphic(cls, num_vertices: int, edges) -> "MatroidInstance":
        edges = [(int(u), int(v)) for u, v in edges]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) outside 0..{num_vertices - 1}")
        return cls("graphic", len(edges), num_vertices=num_vertices, edges=tuple(edges))

    @classmethod
    def uniform(cls, r: int, n: int) -> "MatroidInstance":
        if not 0 <= r <= n:
            raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
        return cls("uniform", n, r=r)

    @classmethod
    def explicit(cls, table) -> "MatroidInstance":
        table = tuple(int(x) for x in table)
        size = len(table)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError("rank table length must be a power of two")
        if n > _FULL_TABLE_LIMIT:
            raise ValueError(f"explicit rank tables limited to n <= {_FULL_TABLE_LIMIT}")
        _validate_rank_table(table, n)
        return cls("explicit", n, table=table)

    @cached_property
    def twin(self) -> "MatroidInstance":
        """A graphic instance's GF(2) incidence matrix, as a linear instance built on first use."""
        return MatroidInstance.linear(field_of_order(2), incidence_matrix(self.num_vertices, self.edges))

    @cached_property
    def column_bits(self) -> list[int] | None:
        """A GF(2) instance's columns as ints (bit i = row i); None for every
        other instance.  Each column is read as a binary numeral, last row
        first, by C-level ``bytes`` calls."""
        if self.kind != "linear" or self.field.q != 2:
            return None
        return [int(bytes(col).translate(_BINARY_DIGITS)[::-1] or b"0", 2) for col in self.columns]

    @cached_property
    def column_planes(self) -> list[tuple[int, int]] | None:
        """A GF(3) instance's columns as bit planes (plus, minus), bit i =
        row i (``_g3_planes``); None for every other instance."""
        if self.kind != "linear" or self.field.q != 3:
            return None
        return _g3_planes(self.columns)

    @cached_property
    def dual_planes(self) -> list[tuple[int, int]] | None:
        """A GF(3) instance's ``dual_columns`` as bit planes; None for every
        other instance."""
        return None if self.column_planes is None else _g3_planes(self.dual_columns)

    @cached_property
    def dual_columns(self) -> list:
        """A linear instance's representation of the dual M*, one column per
        element: with the RREF [I | A] of the matrix (pivot columns first),
        the columns of [A^T | I], which is [-A^T | I] with every column scaled
        by -1 and the I columns scaled back, so it keeps the matroid.  The
        elimination trusts the instance's checked entries."""
        n = self.n
        rows = gf._eliminate(self.field, n, list(self.matrix), True)
        pivots = {row.index(1) for row in rows}
        free = [e for e in range(n) if e not in pivots]
        dual = [None] * n
        for row in rows:
            dual[row.index(1)] = tuple([row[f] for f in free])
        for i, e in enumerate(free):
            dual[e] = (0,) * i + (1,) + (0,) * (len(free) - 1 - i)
        return dual

    # ------------------------------------------------------------------
    # the rank oracle
    # ------------------------------------------------------------------

    @property
    def full_set(self) -> ElementSet:
        return (1 << self.n) - 1

    def _check_subset(self, subset: ElementSet) -> None:
        if subset & ~self.full_set:
            raise ValueError("subset contains elements outside the ground set")

    def rank(self, subset: ElementSet) -> int:
        self._check_subset(subset)
        if self.kind == "linear":
            if self.column_bits is not None:
                return _gf2_rank(self.column_bits, subset)
            cols = [self.columns[e] for e in iter_elements(subset)]
            return len(gf._eliminate(self.field, self.dim, cols, False))
        if self.kind == "graphic":
            return self._graphic_rank(subset)
        if self.kind == "uniform":
            return min(subset.bit_count(), self.r)
        return self.table[subset]

    def closure(self, subset: ElementSet) -> ElementSet:
        """The elements e with r(subset + e) = r(subset), subset included,
        by one rank query per element outside ``subset``."""
        self._check_subset(subset)
        r = self.rank(subset)
        outside = iter_elements(self.full_set & ~subset)
        return subset | sum(1 << e for e in outside if self.rank(subset | 1 << e) == r)

    def coloops(self, subset: ElementSet) -> ElementSet:
        """The e in ``subset`` with r(subset - e) < r(subset): the coloops
        of the restriction to ``subset``, by one rank query per element."""
        self._check_subset(subset)
        r = self.rank(subset)
        return sum(1 << e for e in iter_elements(subset) if self.rank(subset & ~(1 << e)) < r)

    def _graphic_rank(self, subset: ElementSet) -> int:
        parent = list(range(self.num_vertices))

        def find(a):
            root = a
            while parent[root] != root:
                root = parent[root]
            while parent[a] != root:
                parent[a], a = root, parent[a]
            return root

        merges = 0
        for e in iter_elements(subset):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                merges += 1
        return merges

    def __repr__(self) -> str:
        return f"MatroidInstance(kind={self.kind!r}, n={self.n})"


def _gf2_rank(column_bits: list[int], subset: ElementSet) -> int:
    """Rank of the selected GF(2) columns by xor-basis insertion."""
    basis: dict[int, int] = {}
    r = 0
    for e in iter_elements(subset):
        v = column_bits[e]
        while v:
            top = v.bit_length() - 1
            seen = basis.get(top)
            if seen is None:
                basis[top] = v
                r += 1
                break
            v ^= seen
    return r


def _validate_rank_table(table, n: int) -> None:
    """Fail fast on non-matroid tables: normalization, monotone and locally
    submodular steps suffice (they imply the subset-pair forms)."""
    import numpy as np

    r = np.asarray(table, dtype=np.int64)
    if r[0] != 0:
        raise ValueError("rank of the empty set must be 0")
    idx = np.arange(1 << n, dtype=np.int64)
    for e in range(n):
        bit = 1 << e
        without = idx[(idx & bit) == 0]
        step = r[without | bit] - r[without]
        if (step < 0).any():
            bad = int(without[np.argmax(step < 0)])
            raise ValueError(f"rank not monotone: adding element {e} to {bad:#x} lowers it")
        if (step > 1).any():
            bad = int(without[np.argmax(step > 1)])
            raise ValueError(f"rank jumps by more than 1 adding element {e} to {bad:#x}")
    for e in range(n):
        for f in range(e + 1, n):
            be, bf = 1 << e, 1 << f
            base = idx[(idx & (be | bf)) == 0]
            lhs = r[base | be] + r[base | bf]
            rhs = r[base | be | bf] + r[base]
            if (lhs < rhs).any():
                bad = int(base[np.argmax(lhs < rhs)])
                raise ValueError(f"rank not submodular at {bad:#x} with elements {e}, {f}")


def rank_table(m: MatroidInstance) -> list[int]:
    """Full rank table of an instance (2^n entries), n <= 20.

    A linear instance walks the subsets depth first, adding elements in
    increasing order.  Each subset carries the residues of the columns
    above its largest element against its pivots: over GF(3) the bit
    planes of ``column_planes``, over every other field row tuples.  A
    child whose new column has a zero residue has its parent's rank and
    reuses its parent's residues; any other child makes that residue a
    pivot (``_pivot``) and clears its pivot entry from only the later
    residues that have one, by one row operation each, over GF(3) one
    bitsliced add (``_g3_reduce``); the instance checked the entries when
    it was built.  An explicit instance returns its table; the others ask
    ``rank`` per subset.  The exact search, ``tutte.brute_whitney`` and an
    every-subset ``check`` read it."""
    if m.n > _FULL_TABLE_LIMIT:
        raise ValueError(f"full tables limited to n <= {_FULL_TABLE_LIMIT}")
    if m.kind == "explicit":
        return list(m.table)
    if m.kind != "linear":
        return [m.rank(subset) for subset in range(1 << m.n)]
    field, n = m.field, m.n
    table = [0] * (1 << n)

    def walk(subset: ElementSet, rank: int, rows: list, start: int) -> None:
        # rows[i] is the residue of column n - len(rows) + i; the subset's
        # largest element lies below the column of rows[start]
        low, last = n - len(rows), len(rows) - 1
        for i in range(start, last + 1):
            child = subset | 1 << (low + i)
            row = rows[i]
            if not any(row):
                table[child] = rank
                if i < last:
                    walk(child, rank, rows, i + 1)
                continue
            table[child] = rank + 1
            if i < last:
                pivot, at = _pivot(field, row)
                if planes is not None:
                    later = [_g3_reduce(r, (pivot,)) if (r[0] | r[1]) & at else r for r in rows[i + 1:]]
                else:
                    later = [reduce(r, r[at], pivot) if r[at] else r for r in rows[i + 1:]]
                walk(child, rank + 1, later, 0)

    planes, reduce = m.column_planes, field._row_kernels[1]
    walk(0, 0, m.columns if planes is None else planes, 0)
    return table


def _pivot(field: FieldSpec, residue):
    """The nonzero ``residue`` made a pivot, and where its pivot entry
    lies.  Over GF(3) a residue is a bit-plane pair, its pivot entry is its
    top bit, made 1 by swapping the planes, and the place is that bit;
    over every other field it is a row tuple, its pivot entry the first
    nonzero one, made 1 by scaling, and the place is its index.  Rank and
    closure do not depend on the pivot chosen."""
    if field.q == 3:
        p, m = residue  # disjoint planes: the larger holds the top bit
        return (m, p) if m > p else residue, 1 << (p | m).bit_length() - 1
    lead = next(filter(None, residue))
    col = residue.index(lead)
    return residue if lead == 1 else field._row_kernels[0](field.inv(lead), residue), col


class _PrefixSpan:
    """cl(P) and r(P) of a set P of ``columns`` that grows one element at a
    time: bit-plane pairs over GF(3), row tuples over every other field.
    Every column outside the closure keeps a residue.  A new element's
    residue becomes a pivot (``_pivot``), and each residue with a nonzero
    entry at its pivot entry has it cleared by one row operation, over
    GF(3) one bitsliced add (``_g3_reduce``); a residue joins cl(P) when
    it is zero."""

    def __init__(self, field: FieldSpec, columns: list):
        self.field, self.rank, self.planes = field, 0, field.q == 3
        self.live = {e: col for e, col in enumerate(columns) if any(col)}
        self.closure: ElementSet = sum(1 << e for e, col in enumerate(columns) if not any(col))

    def add(self, e: int) -> None:
        pivot = self.live.pop(e, None)
        if pivot is None:
            return
        live, closure = self.live, self.closure | 1 << e
        self.rank += 1
        pivot, at = _pivot(self.field, pivot)
        if self.planes:
            hits = [(f, _g3_reduce(row, (pivot,))) for f, row in live.items() if (row[0] | row[1]) & at]
        else:
            reduce = self.field._row_kernels[1]
            hits = [(f, reduce(row, row[at], pivot)) for f, row in live.items() if row[at]]
        for f, row in hits:
            if any(row):
                live[f] = row
            else:
                del live[f]
                closure |= 1 << f
        self.closure = closure


class _GrowingSet:
    """A set P that starts empty and grows by ``add``, one element at a
    time.  ``closure`` is cl(P), ``coclosure`` is cl*(P), the closure in
    the dual M*, and ``lam`` is λ(P) = r(P) + r*(P) - |P|, which equals
    r(P) + r(E - P) - r(E).  For e outside P,
    λ(P + e) = λ(P) + [e not in cl(P)] + [e not in cl*(P)] - 1.
    ``order`` lists the added elements, and ``record`` holds the lists of
    λ, cl and cl* of P, one entry from P = {} on and one per add.

    A linear instance keeps a ``_PrefixSpan`` over its checked columns and
    one over those of M* (``dual_columns``), as bit planes over GF(3)
    (``column_planes`` and ``dual_planes``), and a graphic instance the
    same over its ``twin``, its GF(2) incidence matrix.  The other
    backends ask ``closure(P)`` and, since e outside P lies in cl*(P) iff
    it is a coloop of M|(E - P), ``coloops(E - P)``."""

    def __init__(self, m: MatroidInstance):
        self.m, self.members, self._spans = m, 0, ()
        self.order: list[int] = []
        self.record: tuple[list[int], list[ElementSet], list[ElementSet]] = ([], [], [])
        if m.kind in ("linear", "graphic"):
            rep = m if m.kind == "linear" else m.twin
            if rep.column_planes is None:
                self._spans = (_PrefixSpan(rep.field, rep.columns), _PrefixSpan(rep.field, rep.dual_columns))
            else:
                self._spans = (_PrefixSpan(rep.field, rep.column_planes), _PrefixSpan(rep.field, rep.dual_planes))
        self._read()

    def add(self, e: int) -> None:
        """Put e, not yet in P, into P."""
        if not 0 <= e < self.m.n or self.members >> e & 1:
            raise ValueError(f"element {e} is not in the rest")
        self.members |= 1 << e
        self.order.append(e)
        for span in self._spans:
            span.add(e)
        self._read()

    def _read(self) -> None:
        m, inside = self.m, self.members
        if self._spans:
            primal, dual = self._spans
            lam, cl, cocl = primal.rank + dual.rank - inside.bit_count(), primal.closure, dual.closure
        else:
            outside = m.full_set & ~inside
            lam = m.rank(inside) + m.rank(outside) - m.rank(m.full_set)
            cl, cocl = m.closure(inside), inside | m.coloops(outside)
        self.lam, self.closure, self.coclosure = lam, cl, cocl
        lams, closures, coclosures = self.record
        lams.append(lam)
        closures.append(cl)
        coclosures.append(cocl)


def prefix_sweep(
    m: MatroidInstance, order
) -> tuple[list[int], list[ElementSet], list[ElementSet]]:
    """``(lams, closures, coclosures)`` of every prefix P_k = order[:k],
    k = 0..len(order): λ(P_k), cl(P_k) and cl*(P_k), the closure in the
    dual M*, the ``record`` of one ``_GrowingSet``.  ``order`` lists
    distinct elements."""
    order = list(order)
    mask = sum(1 << e for e in order)
    if mask.bit_count() != len(order):
        raise ValueError("order repeats an element")
    m._check_subset(mask)
    grown = _GrowingSet(m)
    for e in order:
        grown.add(e)
    return grown.record


def incidence_matrix(num_vertices: int, edges) -> list[tuple[int, ...]]:
    """GF(2) vertex-edge incidence rows; self-loops become zero columns."""
    rows = [[0] * len(edges) for _ in range(num_vertices)]
    for e, (u, v) in enumerate(edges):
        if u != v:
            rows[u][e] = 1
            rows[v][e] = 1
    return [tuple(row) for row in rows]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


_HEADER_FIELDS = {"linear": ("q", "rows", "cols"), "graphic": ("vertices", "edges"), "uniform": ("r", "n")}


def parse_matroid(text: str) -> MatroidInstance:
    lines = list(records(text))
    if not lines:
        raise ParseError(1, "empty matroid file")
    lineno, tok = lines[0]
    if tok[0] != "matroid" or len(tok) < 2:
        raise ParseError(lineno, "header must start with 'matroid <kind>'")
    kind = tok[1]
    if kind not in _HEADER_FIELDS:
        raise ParseError(lineno, f"unknown matroid kind {kind!r}")
    opts: dict[str, int] = {}
    for t in tok[2:]:
        key = t.partition("=")[0]
        if key not in _HEADER_FIELDS[kind]:
            raise ParseError(lineno, f"unknown field {key!r} in a {kind} header")
        if key in opts:
            raise ParseError(lineno, f"field {key}= given twice")
        opts[key] = keyed(t, key, lineno)
    for key in _HEADER_FIELDS[kind]:
        if key not in opts:
            raise ParseError(lineno, f"{kind} header needs {key}=")
        if key != "q" and opts[key] < 0:  # q < 2 gets field_of_order's message
            raise ParseError(lineno, f"{key}={opts[key]} is negative")
    body = lines[1:]

    if kind == "linear":
        try:
            fld = field_of_order(opts["q"])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        d, n = opts["rows"], opts["cols"]
        if d == 0 and n > 0:
            # a matrix with no rows has no columns to read n from
            raise ParseError(lineno, f"rows=0 cannot hold cols={n}; loops need a zero row")
        if len(body) != d:
            raise ParseError(lineno, f"expected {d} matrix rows, found {len(body)}")
        rows = []
        for row_lineno, tokens in body:
            row = integers(tokens, row_lineno, "matrix entries must be integers")
            if len(row) != n:
                raise ParseError(row_lineno, f"expected {n} entries, found {len(row)}")
            for x in row:
                if not 0 <= x < opts["q"]:
                    raise ParseError(row_lineno, f"entry {x} outside 0..{opts['q'] - 1}")
            rows.append(row)
        return MatroidInstance.linear(fld, rows)

    if kind == "graphic":
        if len(body) != opts["edges"]:
            raise ParseError(lineno, f"expected {opts['edges']} edge lines, found {len(body)}")
        edges = []
        for edge_lineno, tokens in body:
            if len(tokens) != 2:
                raise ParseError(edge_lineno, "edge line needs two endpoints")
            u, v = integers(tokens, edge_lineno, "endpoints must be integers")
            if not (0 <= u < opts["vertices"] and 0 <= v < opts["vertices"]):
                raise ParseError(edge_lineno, f"endpoint outside 0..{opts['vertices'] - 1}")
            edges.append((u, v))
        return MatroidInstance.graphic(opts["vertices"], edges)

    if body:
        raise ParseError(body[0][0], "uniform matroids take no body lines")
    try:
        return MatroidInstance.uniform(opts["r"], opts["n"])
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def format_matroid(m: MatroidInstance) -> str:
    if m.kind == "linear":
        out = [f"matroid linear q={m.field.q} rows={m.dim} cols={m.n}"]
        out.extend(" ".join(str(x) for x in row) for row in m.matrix)
    elif m.kind == "graphic":
        out = [f"matroid graphic vertices={m.num_vertices} edges={m.n}"]
        out.extend(f"{u} {v}" for u, v in m.edges)
    elif m.kind == "uniform":
        out = [f"matroid uniform r={m.r} n={m.n}"]
    else:
        raise ValueError("explicit rank tables have no text format")
    return "\n".join(out) + "\n"
