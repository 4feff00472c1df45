"""Matroid instances with rank oracles, plus the brute-force reference suite.

Subsets of the ground set are plain int bitmasks (bit i = element i).  Four
backends share one interface:

* linear    -- columns of a matrix over GF(q); rank = dimension of the span
               (bit-packed elimination for GF(2), pivot counting by gf.rank
               else); rank_table and prefix_sweep eliminate in bulk, the
               latter over the columns of M and of its dual M*
* graphic   -- edges of a graph; rank = vertices minus components, through
               union-find
* uniform   -- rank(F) = min(|F|, r)
* explicit  -- a full rank table over all 2^n subsets, n <= 20, with the
               matroid axioms checked eagerly at construction

Rank queries are memoized per instance, as is a linear instance's dual
representation; instances are immutable, so concurrent readers are fine.

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

from dataclasses import dataclass

from . import gf
from .errors import ParseError, integers, keyed, records
from .gf import FieldSpec, field_of_order
from .gf import rref  # noqa: F401  perfbench's traced run counts gf calls by patching matroids.rref
from .tutte import WhitneyTable

ElementSet = int

_EXPLICIT_LIMIT = 20
_WHITNEY_LIMIT = 20
_AXIOM_PAIR_LIMIT = 12


def iter_elements(mask: ElementSet):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MatroidInstance:
    """A ground set 0..n-1 with a rank oracle.  Build via the classmethods."""

    def __init__(self, kind: str, n: int, **data):
        self.kind = kind
        self.n = n
        self.__dict__.update(data)
        self._cache: dict[int, int] = {}
        self._dual_cache: list | None = None  # see _dual_columns

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def linear(cls, field: FieldSpec, matrix) -> "MatroidInstance":
        """Columns of ``matrix`` (a sequence of d rows of n entries) over ``field``."""
        rows = [tuple(int(x) for x in row) for row in matrix]
        d = len(rows)
        n = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix rows have unequal lengths")
            for x in row:
                if not 0 <= x < field.q:
                    raise ValueError(f"entry {x} outside 0..{field.q - 1}")
        columns = [tuple(rows[i][e] for i in range(d)) for e in range(n)]
        column_bits = None
        if field.q == 2:
            column_bits = [sum(rows[i][e] << i for i in range(d)) for e in range(n)]
        return cls(
            "linear", n, field=field, matrix=tuple(rows), dim=d,
            columns=columns, column_bits=column_bits,
        )

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
        if n > _EXPLICIT_LIMIT:
            raise ValueError(f"explicit rank tables limited to n <= {_EXPLICIT_LIMIT}")
        _validate_rank_table(table, n)
        return cls("explicit", n, table=table)

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
        cached = self._cache.get(subset)
        if cached is not None:
            return cached
        if self.kind == "linear":
            if self.column_bits is not None:
                r = _gf2_rank(self.column_bits, subset)
            else:
                r = gf.rank(self.field, [self.columns[e] for e in iter_elements(subset)])
        elif self.kind == "graphic":
            r = self._graphic_rank(subset)
        elif self.kind == "uniform":
            r = min(subset.bit_count(), self.r)
        else:
            r = self.table[subset]
        self._cache[subset] = r
        return r

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


def loops_and_coloops(m: MatroidInstance) -> tuple[ElementSet, ElementSet]:
    """(loops, coloops): rank({e}) = 0, and rank(E-{e}) = rank(E) - 1;
    that is, cl({}) and cl*({})."""
    empty = _GrowingSet(m)
    return empty.closure, empty.coclosure


def brute_whitney(m: MatroidInstance) -> WhitneyTable:
    """N(n', r') by enumerating all 2^n subsets against the rank oracle."""
    if m.n > _WHITNEY_LIMIT:
        raise ValueError(f"brute-force enumeration limited to n <= {_WHITNEY_LIMIT}")
    counts: dict[tuple[int, int], int] = {}
    for subset in range(1 << m.n):
        key = (subset.bit_count(), m.rank(subset))
        counts[key] = counts.get(key, 0) + 1
    return WhitneyTable(m.n, m.rank(m.full_set), counts)


@dataclass
class AxiomVerdict:
    valid: bool
    kind: str | None = None  # "empty" | "singleton" | "monotonicity" | "submodularity"
    witness: tuple[ElementSet, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def brute_axiom_check(table) -> AxiomVerdict:
    """Check a full rank table against the matroid rank axioms, pair by pair.

    Valid iff r(empty) = 0, r is monotone, r({e}) <= 1 for every e, and
    r(A|B) + r(A&B) <= r(A) + r(B) for every pair.  Returns the first
    violating witness in (A ascending, B ascending) order.
    """
    size = len(table)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("rank table length must be a power of two")
    if n > _AXIOM_PAIR_LIMIT:
        raise ValueError(f"subset-pair check limited to n <= {_AXIOM_PAIR_LIMIT}")
    import numpy as np

    r = np.asarray(table, dtype=np.int64)
    if r[0] != 0:
        return AxiomVerdict(False, "empty", (0,))
    for e in range(n):
        if r[1 << e] > 1:
            return AxiomVerdict(False, "singleton", (1 << e,))
    idx = np.arange(size, dtype=np.int64)
    for a in range(size):
        mono = ((idx & a) == a) & (r < r[a])
        sub = r[idx | a] + r[idx & a] > r[idx] + r[a]
        bad = mono | sub
        if bad.any():
            b = int(np.flatnonzero(bad)[0])
            kind = "monotonicity" if mono[b] else "submodularity"
            return AxiomVerdict(False, kind, (a, b))
    return AxiomVerdict(True)


def rank_table(m: MatroidInstance) -> list[int]:
    """Full rank table of an instance (2^n entries), n <= 20.

    A linear instance walks the subsets depth first, adding elements in
    increasing order.  Each subset carries the residues of the columns
    above its largest element against its pivots.  A child whose new
    column has a zero residue has its parent's rank and reuses its
    parent's residues; any other child scales that residue to a pivot and
    reduces only the later residues against it, one row operation per
    residue with a nonzero entry at the pivot.  An explicit instance
    returns its table; the others ask ``rank`` per subset."""
    if m.n > _WHITNEY_LIMIT:
        raise ValueError(f"full tables limited to n <= {_WHITNEY_LIMIT}")
    if m.kind == "explicit":
        return list(m.table)
    if m.kind != "linear":
        return [m.rank(subset) for subset in range(1 << m.n)]
    field, d, columns = m.field, m.dim, m.columns
    gf._check_rows(field, d, columns)
    scale, reduce = field._row_kernels
    n = m.n
    table = [0] * (1 << n)

    def walk(subset: ElementSet, rank: int, rows: list, start: int) -> None:
        # rows[i] is the residue of column n - len(rows) + i; the subset's
        # largest element lies below the column of rows[start]
        low, last = n - len(rows), len(rows) - 1
        for i in range(start, last + 1):
            child = subset | 1 << (low + i)
            row = rows[i]
            lead = next(filter(None, row), 0)
            if not lead:
                table[child] = rank
                if i < last:
                    walk(child, rank, rows, i + 1)
                continue
            table[child] = rank + 1
            if i < last:
                col = row.index(lead)
                if lead != 1:
                    row = scale(field.inv(lead), row)
                later = [reduce(r, r[col], row) if r[col] else r for r in rows[i + 1:]]
                walk(child, rank + 1, later, 0)

    walk(0, 0, columns, 0)
    return table


def _dual_columns(m: MatroidInstance) -> list:
    """Columns of a representation of the dual M* of a linear instance,
    indexed by element: with the RREF [I | A] of m's matrix (pivot columns
    first), the columns of [A^T | I].  That is the standard [-A^T | I]
    with every column scaled by -1 and then the I columns scaled back,
    which keeps the matroid.  The entries are checked before the
    elimination, and the columns are computed once per instance."""
    if m._dual_cache is None:
        field, n = m.field, m.n
        rows = list(m.matrix)
        gf._check_rows(field, n, rows)
        rows = gf._eliminate(field, n, rows, True)
        pivots = {row.index(1) for row in rows}
        free = [e for e in range(n) if e not in pivots]
        dual = [None] * n
        for row in rows:
            dual[row.index(1)] = tuple([row[f] for f in free])
        for i, e in enumerate(free):
            dual[e] = (0,) * i + (1,) + (0,) * (len(free) - 1 - i)
        m._dual_cache = dual
    return m._dual_cache


class _PrefixSpan:
    """cl(P) and r(P) of a set P of ``columns`` that grows one element at a
    time.  Every column outside the closure keeps a residue, reduced once
    against each new pivot, and joins cl(P) when its residue is zero."""

    def __init__(self, field: FieldSpec, columns: list):
        self.field, self.rank = field, 0
        self.live = {e: col for e, col in enumerate(columns) if any(col)}
        self.closure: ElementSet = sum(1 << e for e, col in enumerate(columns) if not any(col))

    def add(self, e: int) -> None:
        pivot = self.live.pop(e, None)
        if pivot is None:
            return
        field, live = self.field, self.live
        scale, reduce = field._row_kernels
        lead = next(filter(None, pivot))
        col = pivot.index(lead)
        if lead != 1:
            pivot = scale(field.inv(lead), pivot)
        self.rank += 1
        closure = self.closure | 1 << e
        for f, row in [(f, row) for f, row in live.items() if row[col]]:
            row = reduce(row, row[col], pivot)
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

    A linear instance keeps a ``_PrefixSpan`` over the columns of M and
    one over those of M* (``_dual_columns``).  The other backends ask
    ``closure(P)`` and, since e outside P lies in cl*(P) iff it is a
    coloop of M|(E - P), ``coloops(E - P)``."""

    def __init__(self, m: MatroidInstance):
        self.m, self.members, self._spans = m, 0, ()
        if m.kind == "linear":
            gf._check_rows(m.field, m.dim, m.columns)
            self._spans = (_PrefixSpan(m.field, m.columns), _PrefixSpan(m.field, _dual_columns(m)))
        self._read()

    def add(self, e: int) -> None:
        """Put e, not yet in P, into P."""
        if not 0 <= e < self.m.n or self.members >> e & 1:
            raise ValueError(f"element {e} is not in the rest")
        self.members |= 1 << e
        for span in self._spans:
            span.add(e)
        self._read()

    def _read(self) -> None:
        m, inside = self.m, self.members
        if self._spans:
            primal, dual = self._spans
            self.closure, self.coclosure = primal.closure, dual.closure
            self.lam = primal.rank + dual.rank - inside.bit_count()
        else:
            outside = m.full_set & ~inside
            self.closure, self.coclosure = m.closure(inside), inside | m.coloops(outside)
            self.lam = m.rank(inside) + m.rank(outside) - m.rank(m.full_set)


def prefix_sweep(
    m: MatroidInstance, order
) -> tuple[list[int], list[ElementSet], list[ElementSet]]:
    """``(lams, closures, coclosures)`` of every prefix P_k = order[:k],
    k = 0..len(order): λ(P_k), cl(P_k) and cl*(P_k), the closure in the
    dual M*, in one pass of a ``_GrowingSet``.  ``order`` lists distinct
    elements."""
    order = list(order)
    mask = sum(1 << e for e in order)
    if mask.bit_count() != len(order):
        raise ValueError("order repeats an element")
    m._check_subset(mask)
    grown = _GrowingSet(m)
    lams, closures, coclosures = [grown.lam], [grown.closure], [grown.coclosure]
    for e in order:
        grown.add(e)
        lams.append(grown.lam)
        closures.append(grown.closure)
        coclosures.append(grown.coclosure)
    return lams, closures, coclosures


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
