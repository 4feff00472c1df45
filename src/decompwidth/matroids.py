"""Matroid instances with rank oracles, plus the brute-force reference suite.

Subsets of the ground set are plain int bitmasks (bit i = element i).  Four
backends share one interface:

* linear    -- columns of a matrix over GF(q); rank = dimension of the span
               (bit-packed elimination for GF(2), pivot counting by gf.rank
               else); closure, coloops, prefix_sweep and rank_table
               eliminate in bulk
* graphic   -- edges of a graph; rank = vertices minus components, through
               union-find
* uniform   -- rank(F) = min(|F|, r)
* explicit  -- a full rank table over all 2^n subsets, n <= 20, with the
               matroid axioms checked eagerly at construction

Rank queries are memoized per instance; instances are immutable, so
concurrent readers are fine.

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
        """The elements e with r(subset + e) = r(subset), subset included.

        A linear instance puts the columns of ``subset`` in forward echelon
        form once and reduces every other column against those pivots;
        the others ask ``rank`` once per element."""
        self._check_subset(subset)
        outside = list(iter_elements(self.full_set & ~subset))
        if self.kind != "linear":
            r = self.rank(subset)
            return subset | sum(1 << e for e in outside if self.rank(subset | 1 << e) == r)
        field, d, columns = self.field, self.dim, self.columns
        gf._check_rows(field, d, columns)
        stem = gf._extend(field, d, [], [columns[e] for e in iter_elements(subset)])
        residues = gf._residues(field, stem, [columns[e] for e in outside])
        return subset | sum(1 << e for e, row in zip(outside, residues) if not any(row))

    def coloops(self, subset: ElementSet) -> ElementSet:
        """The e in ``subset`` with r(subset - e) < r(subset): the coloops
        of the restriction to ``subset``.

        A linear instance runs one RREF of the d x |subset| matrix: a pivot
        column is a coloop iff its pivot row has no other nonzero entry.
        The others ask ``rank`` once per element."""
        self._check_subset(subset)
        if self.kind != "linear":
            r = self.rank(subset)
            return sum(1 << e for e in iter_elements(subset) if self.rank(subset & ~(1 << e)) < r)
        elements = list(iter_elements(subset))
        rows = [[row[e] for e in elements] for row in self.matrix]
        gf._check_rows(self.field, len(elements), rows)
        reduced = gf._eliminate(self.field, len(elements), rows, True)
        return sum(1 << elements[row.index(1)] for row in reduced if row.count(0) == len(row) - 1)

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
    """(loops, coloops): rank({e}) = 0, and rank(E-{e}) = rank(E) - 1."""
    return m.closure(0), m.coloops(m.full_set)


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
    increasing order: each subset costs one reduction of one column
    against its parent's echelon stem, and the stems along the current
    path share one list.  An explicit instance returns its table; the
    others ask ``rank`` per subset."""
    if m.n > _WHITNEY_LIMIT:
        raise ValueError(f"full tables limited to n <= {_WHITNEY_LIMIT}")
    if m.kind == "explicit":
        return list(m.table)
    if m.kind != "linear":
        return [m.rank(subset) for subset in range(1 << m.n)]
    field, d, columns = m.field, m.dim, m.columns
    gf._check_rows(field, d, columns)

    table = [0] * (1 << m.n)
    stem: list = []

    def walk(subset: ElementSet, low: int) -> None:
        for e in range(low, m.n):
            new = gf._extend(field, d, stem, [columns[e]])
            stem.extend(new)
            table[subset | 1 << e] = len(stem)
            walk(subset | 1 << e, e + 1)
            del stem[len(stem) - len(new):]

    walk(0, 0)
    return table


def prefix_sweep(
    m: MatroidInstance, order
) -> tuple[list[int], list[ElementSet], list[ElementSet]]:
    """``(ranks, closures, coloops)`` of every prefix P_k = order[:k],
    k = 0..len(order): r(P_k), cl(P_k) and the coloops of M|P_k.

    ``order`` lists distinct elements.  A linear instance makes one
    forward pass.  Every column not yet in the closure keeps a residue,
    reduced once against each new pivot, and joins cl(P_k) at the first
    k where its residue is zero.  A residue carries a tail with one
    coordinate per basis element of the prefix, so that a column entering
    as a dependent one names its fundamental circuit; the basis elements
    in that circuit stop being coloops.  The other backends call
    ``closure`` and ``coloops`` per prefix."""
    order = list(order)
    mask = sum(1 << e for e in order)
    if mask.bit_count() != len(order):
        raise ValueError("order repeats an element")
    m._check_subset(mask)
    if m.kind != "linear":
        prefixes = [0]
        for e in order:
            prefixes.append(prefixes[-1] | 1 << e)
        return (
            [m.rank(p) for p in prefixes],
            [m.closure(p) for p in prefixes],
            [m.coloops(p) for p in prefixes],
        )
    field, d, columns = m.field, m.dim, m.columns
    gf._check_rows(field, d, columns)
    scale, reduce = field._row_kernels
    # the tail holds the coefficients of the basis elements, in basis order
    pad = (0,) * min(d, len(order))
    live: dict[int, list] = {}  # residues of the columns outside the closure
    closed: dict[int, list] = {}  # zero residues, kept for their tails
    for e in range(m.n):
        (live if any(columns[e]) else closed)[e] = columns[e] + pad
    basis: list[int] = []
    closure = sum(1 << e for e in closed)
    free = 0
    ranks, closures, coloops = [0], [closure], [0]
    for e in order:
        pivot = live.pop(e, None)
        if pivot is None:
            tail = closed.pop(e)[d:]
            free &= ~sum(1 << b for b, c in zip(basis, tail) if c)
        else:
            col = next(i for i, x in enumerate(pivot) if x)
            pivot = list(pivot)
            pivot[d + len(basis)] = 1
            if pivot[col] != 1:
                pivot = scale(field.inv(pivot[col]), pivot)
            basis.append(e)
            free |= 1 << e
            closure |= 1 << e
            for f, row in list(live.items()):
                c = row[col]
                if c:
                    row = reduce(row, c, pivot)
                    if any(row[:d]):
                        live[f] = row
                    else:
                        del live[f]
                        closed[f] = row
                        closure |= 1 << f
        ranks.append(len(basis))
        closures.append(closure)
        coloops.append(free)
    return ranks, closures, coloops


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


def parse_matroid(text: str) -> MatroidInstance:
    lines = list(records(text))
    if not lines:
        raise ParseError(1, "empty matroid file")
    lineno, tok = lines[0]
    if tok[0] != "matroid" or len(tok) < 2:
        raise ParseError(lineno, "header must start with 'matroid <kind>'")
    kind = tok[1]
    opts: dict[str, int] = {}
    for t in tok[2:]:
        key = t.partition("=")[0]
        opts[key] = keyed(t, key, lineno)
    body = lines[1:]

    if kind == "linear":
        for key in ("q", "rows", "cols"):
            if key not in opts:
                raise ParseError(lineno, f"linear header needs {key}=")
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
        for key in ("vertices", "edges"):
            if key not in opts:
                raise ParseError(lineno, f"graphic header needs {key}=")
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

    if kind == "uniform":
        for key in ("r", "n"):
            if key not in opts:
                raise ParseError(lineno, f"uniform header needs {key}=")
        if body:
            raise ParseError(body[0][0], "uniform matroids take no body lines")
        try:
            return MatroidInstance.uniform(opts["r"], opts["n"])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    raise ParseError(lineno, f"unknown matroid kind {kind!r}")


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
