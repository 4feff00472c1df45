"""Exact arithmetic and subspace operations over finite fields GF(q), q = p^m.

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of a polynomial over GF(p) (for m = 1 this is plain arithmetic
modulo p).  Extension fields reduce modulo a fixed irreducible polynomial and
multiply through log/antilog tables keyed by the smallest primitive element,
so construction is deterministic: the same (p, m) always yields the same
tables.

The reduction polynomial is the lexicographically smallest monic irreducible
polynomial of degree m over GF(p), a pure function of (p, m), derived by
trial division.  The one exception is GF(2^8), which keeps
x^8 + x^4 + x^3 + x^2 + 1 (the smallest is x^8 + x^4 + x^3 + x + 1), so that
GF(256) element codes keep their meaning in existing files.  The polynomial is
re-checked for irreducibility when the field is built.

Subspaces are kept in reduced row echelon form with no zero rows, so two
Subspace values compare equal exactly when they describe the same set of
vectors.

Elimination works on whole rows through two kernels that each field picks
once and caches: scaling a row by c, and subtracting c times a pivot row.
Odd prime fields compute ``(x - c * y) % p`` per entry.  Characteristic-2
fields of order at most 256 (``_TABLE_LIMIT``) subtract with xor (plain xor
when c = 1) and multiply by indexing the row of c in a multiplication table;
each row is built from the log/antilog tables the first time its c is used,
so a small elimination pays for a few rows, not for all q^2 entries.  Every
other field (odd extension fields, and characteristic 2 above the cutoff)
calls the ``FieldSpec`` methods per entry; no benchmark workload uses
those fields, so no table kernel for them has been shown to pay for its
build.  ``rref`` and ``rank`` share one elimination loop: ``rref`` clears
every pivot column above and below the pivot, ``rank`` only below it and
counts the pivots.  Both refuse entries outside 0..q-1, which a table
would otherwise index past or silently accept, as does every ``Subspace``.

``pair_traces`` serves a decomposition's table pass: for a bound B and
lists of spaces S1 and S2 it gives B ∩ (S1 + S2) and dim(S1 + S2) for
every pair.  The Zassenhaus stack [B | B], [S1 | 0] is put in forward
echelon form once per S1, and each S2 only extends it, so a pair costs
the reduction of dim S2 rows and, when the trace gains a row and is not
all of B, one RREF of at most dim B rows.  It takes and yields tuples of
RREF rows, checks only its input's lengths and entries, and echelons each
trace by ``rref``'s unchecked core ``_echelon``, as ``intersect``'s
unchecked core ``_intersect`` does.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

FVector = tuple[int, ...]

# Reduction polynomials that differ from the smallest irreducible one.  Encoded
# as the integer whose base-p digits (little-endian) are the coefficients.
_IRREDUCIBLE: dict[tuple[int, int], int] = {
    (2, 8): 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
}

_MAX_EXT_ORDER = 1 << 16
_MAX_PRIME_ORDER = 1 << 31
_TABLE_LIMIT = 256  # largest characteristic-2 order whose row kernels index multiplication rows


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _digits(x: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    x = 0
    for c in reversed(ds):
        x = x * p + c
    return x


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a mod b over GF(p); b monic-normalizable, little-endian."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[db], p - 2, p)
    while da >= db:
        if a[da]:
            coef = a[da] * inv_lead % p
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
        a.pop()
        da -= 1
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_is_irreducible(poly: list[int], p: int) -> bool:
    m = len(poly) - 1
    if m < 1 or poly[m] == 0:
        return False
    # Trial division by every monic polynomial of degree 1..m//2.
    for deg in range(1, m // 2 + 1):
        for low in product(range(p), repeat=deg):
            divisor = list(low) + [1]
            if not _poly_rem(poly, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> int:
    for low in range(p ** m):
        poly = _digits(low, p, m) + [1]
        if _poly_is_irreducible(poly, p):
            return _undigits(poly, p)
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class _MulRows(dict):
    """``c -> [c·b for b in 0..q-1]`` over a field of characteristic 2,
    each row for c > 1 built from the log/antilog tables on its first
    lookup, so a field pays only for the coefficients its eliminations use
    (GF(2) has no such c)."""

    def __init__(self, field: "FieldSpec"):
        super().__init__({0: [0] * field.q, 1: list(range(field.q))})
        self._exp, self._log = field._exp, field._log

    def __missing__(self, c: int) -> list[int]:
        exp, log = self._exp, self._log
        lc = log[c]
        row = self[c] = [0] + [exp[lc + lb] for lb in log[1:]]
        return row


class FieldSpec:
    """Arithmetic tables and rules for GF(p^m).

    Supported orders: any prime p < 2^31 for m = 1, and p^m <= 2^16 for
    m >= 2.  Field construction validates the reduction polynomial by trial
    division and, for q <= 256, exhaustively checks that every nonzero
    element has a multiplicative inverse.
    """

    def __init__(self, p: int, m: int = 1):
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        q = p ** m
        if m == 1 and q >= _MAX_PRIME_ORDER:
            raise ValueError(f"prime field order {q} exceeds 2^31")
        if m >= 2 and q > _MAX_EXT_ORDER:
            raise ValueError(f"extension field order {q} exceeds 2^16")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.poly = p  # reduction rule is the identity: arithmetic mod p
            self._exp = self._log = None
        else:
            self.poly = _IRREDUCIBLE.get((p, m), 0) or _smallest_irreducible(p, m)
            poly_digits = _digits(self.poly, p, m + 1)
            if not _poly_is_irreducible(poly_digits, p):
                raise ValueError(f"reduction polynomial {self.poly} for GF({p}^{m}) is reducible")
            self._build_tables(poly_digits)
        if self.q <= 256:
            for a in range(1, self.q):
                if self.mul(a, self.inv(a)) != 1:
                    raise ValueError(f"GF({p}^{m}): element {a} lacks an inverse")
        # set here, not by a cached_property: on CPython 3.11 its write into
        # the instance __dict__ made every later add/neg/mul about 20% slower
        self._row_kernels = self._pick_row_kernels()

    # ------------------------------------------------------------------
    # table construction (extension fields only)
    # ------------------------------------------------------------------

    def _mul_poly(self, a: int, b: int, poly_digits: list[int]) -> int:
        p, m = self.p, self.m
        if p == 2:
            # carry-less multiply with shift-reduce
            mod = self.poly
            res = 0
            while b:
                if b & 1:
                    res ^= a
                b >>= 1
                a <<= 1
                if a >> m & 1:
                    a ^= mod
            return res
        da = _digits(a, p, m)
        db = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_rem(prod, poly_digits, p)
        return _undigits(rem + [0] * (m - len(rem)), p)

    def _build_tables(self, poly_digits: list[int]) -> None:
        q = self.q
        # Smallest primitive element: first g whose powers hit every nonzero
        # element.  Unique per (p, m, poly), hence deterministic.
        for g in range(2, q):
            exp = [0] * (2 * (q - 1))
            log = [0] * q
            val, ok = 1, True
            for i in range(q - 1):
                if val == 1 and i > 0:
                    ok = False
                    break
                exp[i] = val
                log[val] = i
                val = self._mul_poly(val, g, poly_digits)
            if ok and val == 1:
                for i in range(q - 1, 2 * (q - 1)):
                    exp[i] = exp[i - (q - 1)]
                if len(set(exp[: q - 1])) != q - 1:
                    raise ValueError(f"GF({self.p}^{self.m}): exponent table is not a bijection")
                self._exp, self._log, self.generator = exp, log, g
                return
        raise ValueError(f"GF({self.p}^{self.m}): no primitive element found")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += -a % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[a]]

    def elements(self) -> range:
        return range(self.q)

    def _pick_row_kernels(self):
        """``(scale, reduce)``: ``scale(c, row)`` is c·row and
        ``reduce(row, c, pivot)`` is row − c·pivot, both as new lists."""
        p = self.p
        if p != 2 and self.m == 1:
            def scale(c, row):
                return [c * x % p for x in row]

            def reduce(row, c, pivot):
                return [(x - c * y) % p for x, y in zip(row, pivot)]

        elif p == 2 and self.q <= _TABLE_LIMIT:
            mul = _MulRows(self)

            def scale(c, row):
                times = mul[c]
                return [times[x] for x in row]

            def reduce(row, c, pivot):
                if c == 1:
                    return [x ^ y for x, y in zip(row, pivot)]
                times = mul[c]
                return [x ^ times[y] for x, y in zip(row, pivot)]

        else:
            mul, sub = self.mul, self.sub

            def scale(c, row):
                return [mul(c, x) for x in row]

            def reduce(row, c, pivot):
                return [sub(x, mul(c, y)) for x, y in zip(row, pivot)]

        return scale, reduce

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def field_of_order(q: int) -> FieldSpec:
    """The field GF(q) for a prime power q, cached."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    if q >= _MAX_PRIME_ORDER:
        # refused before the trial division, which takes up to sqrt(q) steps
        raise ValueError(f"q={q} exceeds the largest supported field order, 2^31 - 1")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = 0
    qq = q
    while qq % p == 0:
        qq //= p
        m += 1
    if qq != 1:
        raise ValueError(f"q={q} is not a prime power")
    return FieldSpec(p, m)


# ----------------------------------------------------------------------
# subspaces
# ----------------------------------------------------------------------


class Subspace:
    """A linear subspace of GF(q)^d, stored as a canonical RREF basis.

    ``rows`` must already be in reduced row echelon form with no zero rows;
    use :func:`rref` to build a Subspace from arbitrary spanning vectors.
    Equality and hashing are structural, so equal values describe equal
    subspaces and vice versa.
    """

    __slots__ = ("field", "d", "rows")

    def __init__(self, field: FieldSpec, d: int, rows: tuple[FVector, ...]):
        self.field = field
        self.d = d
        self.rows = rows
        self._check_canonical()

    def _check_canonical(self) -> None:
        d, pivots = self.d, []
        for row in self.rows:
            if len(row) != d:
                raise ValueError("basis row length differs from ambient dimension")
            lead = next(filter(None, row), 0)
            if not lead:
                raise ValueError("zero row in basis")
            if lead != 1:
                raise ValueError("pivot entry is not 1")
            piv = row.index(1)
            if pivots and piv <= pivots[-1]:
                raise ValueError("pivots not strictly increasing")
            pivots.append(piv)
        _check_entries(self.field, self.rows)
        # a row is zero left of its pivot, so only later pivots can meet it
        for i, row in enumerate(self.rows):
            for piv in pivots[i + 1:]:
                if row[piv]:
                    raise ValueError("nonzero entry in a pivot column")

    @classmethod
    def zero(cls, field: FieldSpec, d: int) -> "Subspace":
        return cls(field, d, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_trivial(self) -> bool:
        return not self.rows

    def contains(self, vec: FVector) -> bool:
        _check_rows(self.field, self.d, [vec])
        reduce = self.field._row_kernels[1]
        for row in self.rows:
            c = vec[next(j for j, x in enumerate(row) if x)]
            if c:
                vec = reduce(vec, c, row)
        return not any(vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.d == other.d
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.d, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(d={self.d}, dim={self.dim}, rows={self.rows})"


def _check_rows(field: FieldSpec, d: int, rows: list) -> None:
    """Refuse vectors whose length is not d or with an entry outside
    0..q-1, in C-level passes over ``rows``."""
    if not rows:
        return
    if set(map(len, rows)) != {d}:
        raise ValueError(f"vectors of lengths {sorted(set(map(len, rows)))} in dimension {d}")
    if d:
        _check_entries(field, rows)


def _check_entries(field: FieldSpec, rows) -> None:
    """Refuse an entry outside 0..q-1 in ``rows`` (nonempty vectors), in
    C-level ``min``/``max`` passes."""
    if rows and (min(map(min, rows)) < 0 or max(map(max, rows)) >= field.q):
        raise ValueError(f"vector entry outside 0..{field.q - 1}")


def _eliminate(field: FieldSpec, d: int, rows: list, reduced: bool) -> list:
    """Gaussian elimination on ``rows`` (each of length d); returns the
    pivot rows, each with pivot entry 1, in pivot order.  With ``reduced``
    the pivot columns are cleared in every other row, which gives the RREF;
    without, only in the rows below, which is all a rank needs.  Rows are
    replaced, never modified, so the input rows are shared until then."""
    scale, reduce = field._row_kernels
    n = len(rows)
    r = 0
    for col in range(d):
        if r == n:
            break
        for piv in range(r, n):
            if rows[piv][col]:
                break
        else:
            continue
        pivot = rows[piv]
        rows[piv] = rows[r]
        if pivot[col] != 1:
            pivot = scale(field.inv(pivot[col]), pivot)
        rows[r] = pivot
        for i in range(0 if reduced else r + 1, n):
            c = rows[i][col]
            if c and i != r:
                rows[i] = reduce(rows[i], c, pivot)
        r += 1
    return rows[:r]


def _echelon(field: FieldSpec, d: int, rows: list) -> tuple[FVector, ...]:
    """Unchecked RREF basis of the span of ``rows``, a list it reorders."""
    # a tuple built from a list, not from a generator: tuple(generator)
    # over-allocates and shrinks, which left construct with a higher peak RSS
    return tuple([tuple(row) for row in _eliminate(field, d, rows, True)])


def rref(field: FieldSpec, d: int, rows) -> Subspace:
    """Canonical subspace spanned by ``rows`` (each of length d, entries in
    0..q-1)."""
    rows = list(rows)
    _check_rows(field, d, rows)
    return Subspace(field, d, _echelon(field, d, rows))


def rank(field: FieldSpec, rows) -> int:
    """Dimension of the span of ``rows`` (vectors of one length, entries in
    0..q-1), by forward elimination alone."""
    rows = list(rows)
    d = len(rows[0]) if rows else 0
    _check_rows(field, d, rows)
    return len(_eliminate(field, d, rows, False))


def hull(u1: Subspace, u2: Subspace) -> Subspace:
    """Linear hull of the union of two subspaces."""
    if u1.d != u2.d or u1.field != u2.field:
        raise ValueError("ambient spaces differ")
    return rref(u1.field, u1.d, u1.rows + u2.rows)


def _intersect(field: FieldSpec, d: int, rows1, rows2) -> tuple[FVector, ...]:
    """Unchecked RREF basis of span(rows1) ∩ span(rows2), for rows of
    length d (Zassenhaus block elimination)."""
    zero = (0,) * d
    stacked = [row + row for row in rows1] + [row + zero for row in rows2]
    reduced = _echelon(field, 2 * d, stacked)
    # rows with a zero left half are the bottom of the RREF; their right
    # halves are already reduced against each other
    return tuple([row[d:] for row in reduced if not any(row[:d])])


def intersect(u1: Subspace, u2: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block elimination)."""
    if u1.d != u2.d or u1.field != u2.field:
        raise ValueError("ambient spaces differ")
    # the stack is built from checked rows; only the result is checked
    return Subspace(u1.field, u1.d, _intersect(u1.field, u1.d, u1.rows, u2.rows))


def _extend(field: FieldSpec, width: int, stem: list, rows: list) -> list:
    """``rows`` reduced against ``stem``, then put in forward echelon form
    among themselves: their (pivot column, row) pairs.  ``rows`` is a list
    this replaces entries of.

    Every row of ``stem``, a list of such pairs, has pivot entry 1 and is
    zero in the pivot columns of the pairs before it, so one pass in list
    order clears all of them.  ``stem`` followed by the result keeps that
    property, and its rows span what ``stem`` and ``rows`` span."""
    reduce = field._row_kernels[1]
    for col, pivot in stem:
        for i, row in enumerate(rows):
            if row[col]:
                rows[i] = reduce(row, row[col], pivot)
    # every entry left of a pivot is 0 and the pivot entry is 1
    return [(row.index(1), row) for row in _eliminate(field, width, rows, False)]


def pair_traces(field: FieldSpec, d: int, bound, lefts: list, rights: list):
    """``(B ∩ (S1 + S2), dim(S1 + S2))`` for all S1 in ``lefts``, S2 in
    ``rights``, row-major, with B = ``bound``; every space is a tuple of
    RREF rows of length d, and only their lengths and entries are checked.

    Zassenhaus elimination as in :func:`intersect`, shared across pairs:
    the rows [b | b] of B and [s | 0] of S1 are put in forward echelon
    form once per S1, and each S2 only reduces its rows [s | 0] against
    those pivots and echelons what is left.  In any echelon form of the
    stack, the rows with a zero left half hold a basis of the trace in
    their right halves, and there are dim B + dim(S1 + S2) rows.  One RREF
    makes the trace canonical, unless S2 adds no row to S1's trace or the
    trace is all of B.
    """
    _check_rows(field, d, [row for s in (bound, *lefts, *rights) for row in s])
    full, width, zero = len(bound), 2 * d, (0,) * d

    def canonical(rows):
        return bound if len(rows) == full else _echelon(field, d, rows)

    base = [(row.index(1), row + row) for row in bound]
    padded = [[row + zero for row in s] for s in rights]
    for s1 in lefts:
        stem = base + _extend(field, width, base, [row + zero for row in s1])
        low = [row[d:] for col, row in stem if col >= d]
        prefix = canonical(low[:])
        for rows in padded:
            new = _extend(field, width, stem, rows[:])
            high = [row[d:] for col, row in new if col >= d]
            yield prefix if not high else canonical(low + high), len(stem) + len(new) - full
