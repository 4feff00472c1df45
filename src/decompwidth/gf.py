"""Exact arithmetic and subspace operations over finite fields GF(q), q = p^m.

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of a polynomial over GF(p) (for m = 1 this is plain arithmetic
modulo p).  Extension fields reduce modulo a fixed irreducible polynomial and
multiply through log/antilog tables keyed by the smallest primitive element,
so construction is deterministic: the same (p, m) always yields the same
tables.

Irreducible polynomials are taken from an embedded list covering every prime
power up to 256; for larger extension fields (p^m <= 2^16) the
lexicographically smallest monic irreducible polynomial is derived, which is
again a pure function of (p, m).  Every polynomial, embedded or derived, is
re-checked for irreducibility by trial division when the field is built.

Subspaces are kept in reduced row echelon form with no zero rows, so two
Subspace values compare equal exactly when they describe the same set of
vectors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

FVector = tuple[int, ...]

# Irreducible polynomials for GF(p^m), p^m <= 256, m >= 2.  Encoded as the
# integer whose base-p digits (little-endian) are the coefficients; all are
# monic of degree m.
_IRREDUCIBLE: dict[tuple[int, int], int] = {
    (2, 2): 0b111,            # x^2 + x + 1
    (2, 3): 0b1011,           # x^3 + x + 1
    (2, 4): 0b10011,          # x^4 + x + 1
    (2, 5): 0b100101,         # x^5 + x^2 + 1
    (2, 6): 0b1000011,        # x^6 + x + 1
    (2, 7): 0b10000011,       # x^7 + x + 1
    (2, 8): 0b100011101,      # x^8 + x^4 + x^3 + x^2 + 1
    (3, 2): 10,               # x^2 + 1
    (3, 3): 34,               # x^3 + 2x + 1
    (3, 4): 86,               # x^4 + x + 2
    (3, 5): 250,              # x^5 + 2x + 1
    (5, 2): 27,               # x^2 + 2
    (5, 3): 131,              # x^3 + x + 1
    (7, 2): 50,               # x^2 + 1
    (11, 2): 122,             # x^2 + 1
    (13, 2): 171,             # x^2 + 2
}

_MAX_EXT_ORDER = 1 << 16
_MAX_PRIME_ORDER = 1 << 31


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
        pivots = []
        for row in self.rows:
            if len(row) != self.d:
                raise ValueError("basis row length differs from ambient dimension")
            piv = next((j for j, x in enumerate(row) if x), None)
            if piv is None:
                raise ValueError("zero row in basis")
            if pivots and piv <= pivots[-1]:
                raise ValueError("pivots not strictly increasing")
            if row[piv] != 1:
                raise ValueError("pivot entry is not 1")
            pivots.append(piv)
        for i, row in enumerate(self.rows):
            for j, other_piv in enumerate(pivots):
                if i != j and row[other_piv] != 0:
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
        f = self.field
        v = list(vec)
        for row in self.rows:
            piv = next(j for j, x in enumerate(row) if x)
            if v[piv]:
                c = v[piv]
                for j in range(piv, self.d):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return not any(v)

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


def rref(field: FieldSpec, d: int, rows) -> Subspace:
    """Canonical subspace spanned by ``rows`` (each of length d)."""
    work = []
    for row in rows:
        if len(row) != d:
            raise ValueError("rows have mixed ambient dimensions")
        work.append(list(row))
    col = 0
    r = 0
    while col < d and r < len(work):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][col])
        if inv != 1:
            work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[r])]
        r += 1
        col += 1
    basis = [tuple(row) for row in work[:r]]
    return Subspace(field, d, tuple(basis))


def hull(u1: Subspace, u2: Subspace) -> Subspace:
    """Linear hull of the union of two subspaces."""
    if u1.d != u2.d or u1.field != u2.field:
        raise ValueError("ambient spaces differ")
    return rref(u1.field, u1.d, u1.rows + u2.rows)


def intersect(u1: Subspace, u2: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block elimination)."""
    if u1.d != u2.d or u1.field != u2.field:
        raise ValueError("ambient spaces differ")
    d = u1.d
    stacked = [row + row for row in u1.rows]
    zero = (0,) * d
    stacked += [row + zero for row in u2.rows]
    reduced = rref(u1.field, 2 * d, stacked)
    # rows with a zero left half are the bottom of the RREF; their right
    # halves are already reduced against each other
    return Subspace(u1.field, d, tuple(row[d:] for row in reduced.rows if not any(row[:d])))


def enumerate_subspaces(space: Subspace) -> list[Subspace]:
    """All subspaces of ``space``, canonical and deduplicated.

    Ordered by dimension, then lexicographically on the canonical basis.
    Guarded to dim <= 6; the count is the Galois number G_q(dim).
    """
    s = space.dim
    if s > 6:
        raise ValueError(f"subspace enumeration limited to dim <= 6, got {s}")
    f = space.field
    out = [Subspace.zero(f, space.d)]
    for t in range(1, s + 1):
        found = []
        for piv_cols in combinations(range(s), t):
            free_pos = [
                (i, j)
                for i in range(t)
                for j in range(s)
                if j > piv_cols[i] and j not in piv_cols
            ]
            for vals in product(f.elements(), repeat=len(free_pos)):
                coeff = [[0] * s for _ in range(t)]
                for i, c in enumerate(piv_cols):
                    coeff[i][c] = 1
                for (i, j), v in zip(free_pos, vals):
                    coeff[i][j] = v
                rows = []
                for crow in coeff:
                    vec = [0] * space.d
                    for c, brow in zip(crow, space.rows):
                        if c:
                            for k, x in enumerate(brow):
                                if x:
                                    vec[k] = f.add(vec[k], f.mul(c, x))
                    rows.append(tuple(vec))
                # RREF coefficients times an RREF basis stay in RREF.
                found.append(Subspace(f, space.d, tuple(rows)))
        found.sort(key=lambda u: u.rows)
        out.extend(found)
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, as an exact integer."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def galois_number(n: int, q: int) -> int:
    """Total number of subspaces of GF(q)^n."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))
