"""Tutte polynomial of a matroid given by a decomposition.

The size/rank table N(n', r') counts subsets with n' elements and rank r';
it determines the Tutte polynomial through

    T(x, y) = sum over (n', r') of N(n', r') (x-1)^(r-r') (y-1)^(n'-r')

with r the rank of the ground set.  ``whitney_coefficients`` fills the table
by a bottom-up counting DP: per node, color and subset size it keeps one
row, a Python integer that packs the counts by label in slots of n + 1 bits
from the row's own least label to its greatest.  Two children combine
through the node's color and defect tables with one multiplication per pair
of rows, which convolves the label axis; a product joins its row shifted by
the difference of their least labels.  Counts are exact Python integers.

``evaluate`` computes T at a point without the coefficient table: per node
and color it accumulates sums of (x-1)^(|Ev|-label) (y-1)^(|F|-label), so
combining children only multiplies by ((x-1)(y-1))^defect and a single
division by (x-1)^(n-r) remains at the root.  That keeps the work at O(K^2)
per node.  The sums are held as integers: scaled by a power of the
denominators of x - 1 and y - 1 for an exact value, which is one Fraction
built at the root, or as residues when a modulus is given.  Where the
division is undefined (x = 1, or x - 1 not invertible modulo the given
modulus) the coefficient table is used instead, with 0^0 = 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .kdecomp import KDecomposition, eval_rank, fold
from .matroids import _FULL_TABLE_LIMIT, MatroidInstance, rank_table
from .verify import NotAMatroidError, verify


@dataclass
class WhitneyTable:
    """Counts N(n', r') of subsets by (size, rank); r is the ground-set rank."""

    n: int
    r: int
    counts: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class TuttePolynomial:
    """Coefficients t(i, j) of x^i y^j; zero coefficients are omitted."""

    coeffs: dict[tuple[int, int], int]

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())


def whitney_coefficients(dec: KDecomposition, check: bool = True) -> WhitneyTable:
    """Size/rank subset counts of the matroid described by ``dec``.

    With ``check`` the decomposition is verified first and a
    NotAMatroidError raised on failure; callers that already verified may
    waive it.  Unchecked, a malformed decomposition still raises ValueError
    (the first walk runs ``validate_structure``), counting stops with
    ValueError at the first negative rank label, and other non-matroids are
    counted as their tables say.  Per node the convolution takes one
    multiplication for each pair of reachable (color, size) rows, so the
    work is K^2 * n1 * n2 products over the child subtree sizes; a row that
    is a single count of 1, as every leaf row is, multiplies nothing.  A row
    holds the slots from its own least label to its greatest, each n + 1
    bits, so a row for size s has at most s + 1 and no empty lowest slot.
    """
    if check:
        result = verify(dec)
        if not result:
            raise NotAMatroidError(result)

    # a row holds the count of label lo + i in slot i, ``width`` bits wide,
    # from its own least label lo, so its lowest slot is never empty.  Each
    # subset of a subtree lands in one (color, size, label) cell, so no
    # count, partial product or sum exceeds 2^n and no slot carries into the
    # next.
    width = dec.n + 1

    def leaf(node_id, node):
        return {0: {0: (0, 1)}, 1: {1: (0 if node.loop else 1, 1)}}

    def combine(node_id, node, table1, table2):
        color, defect = node.color, node.defect
        merged: dict[int, dict[int, tuple[int, int]]] = {}
        for g1, rows1 in table1.items():
            colors, drops = color[g1], defect[g1]
            for g2, rows2 in table2.items():
                bucket = merged.setdefault(colors[g2], {})
                drop = drops[g2]
                for s1, (lo1, v1) in rows1.items():
                    for s2, (lo2, v2) in rows2.items():
                        lo = lo1 + lo2 - drop
                        if lo < 0:
                            raise ValueError(
                                "negative rank label while counting; "
                                "the decomposition does not define a matroid"
                            )
                        v = v2 if v1 == 1 else v1 if v2 == 1 else v1 * v2
                        s = s1 + s2
                        held = bucket.get(s)
                        if held is None:
                            bucket[s] = (lo, v)
                        else:
                            base, row = held
                            if lo == base:
                                bucket[s] = (lo, row + v)
                            elif lo > base:
                                bucket[s] = (base, row + (v << (lo - base) * width))
                            else:
                                bucket[s] = (lo, (row << (base - lo) * width) + v)
        return merged

    counts: dict[tuple[int, int], int] = {}
    mask = (1 << width) - 1
    for rows in fold(dec, leaf, combine).values():
        for size, (label, row) in rows.items():
            while row:
                if row & mask:
                    key = (size, label)
                    counts[key] = counts.get(key, 0) + (row & mask)
                row >>= width
                label += 1
    # fold's shape check puts each element on exactly one leaf, so E is the
    # only counted subset of size n
    [full_rank] = [r for (size, r) in counts if size == dec.n]
    return WhitneyTable(dec.n, full_rank, counts)


def brute_whitney(m: MatroidInstance) -> WhitneyTable:
    """N(n', r') of an instance by counting its ``rank_table``, n <= 20:
    the oracle that ``whitney_coefficients`` is checked against."""
    if m.n > _FULL_TABLE_LIMIT:
        raise ValueError(f"brute-force enumeration limited to n <= {_FULL_TABLE_LIMIT}")
    table = rank_table(m)
    counts = Counter(zip(map(int.bit_count, range(1 << m.n)), table))
    return WhitneyTable(m.n, table[-1], dict(counts))


def to_tutte(table: WhitneyTable) -> TuttePolynomial:
    """Expand the (x-1), (y-1) basis into monomial coefficients.

    The counts are grouped by corank a = r - r' into polynomials in (y-1),
    each is shifted to y by Horner's rule, and then the coefficient of every
    y^j, a polynomial in (x-1), is shifted to x the same way.  That is
    O(n r (n + r)) integer operations, where expanding each count by the
    binomial theorem would be O(n^2 r^2).
    """
    by_corank: dict[int, dict[int, int]] = {}
    for (size, rk), count in table.counts.items():
        row = by_corank.setdefault(table.r - rk, {})
        row[size - rk] = row.get(size - rk, 0) + count
    by_y: dict[int, dict[int, int]] = {}
    for a, row in by_corank.items():
        for j, c in enumerate(_shift(row)):
            if c:
                by_y.setdefault(j, {})[a] = c
    coeffs: dict[tuple[int, int], int] = {}
    for j, column in by_y.items():
        for i, c in enumerate(_shift(column)):
            if c:
                coeffs[(i, j)] = c
    return TuttePolynomial(coeffs)


def _shift(poly: dict[int, int]) -> list[int]:
    """Coefficients in t of the sum of poly[k] (t-1)^k, by Horner's rule."""
    top = max(poly)
    out = [0] * (top + 1)
    for k in range(top, -1, -1):
        # out <- out * (t - 1) + poly[k]; out has degree top - k - 1 here
        for i in range(top - k, 0, -1):
            out[i] = out[i - 1] - out[i]
        out[0] = poly.get(k, 0) - out[0]
    return out


def _point_from_table(table: WhitneyTable, x, y):
    return sum(
        count * (x - 1) ** (table.r - rk) * (y - 1) ** (size - rk)
        for (size, rk), count in table.counts.items()
    )


class _Powers(dict):
    """base^k % mod for every k asked, each computed on its first lookup."""

    def __init__(self, base: int, mod: int):
        super().__init__({0: 1 % mod})
        self.base, self.mod = base, mod

    def __missing__(self, k: int) -> int:
        v = self[k] = self[k - 1] * self.base % self.mod
        return v


def _point_dp(dec: KDecomposition, a: int, b: int, c: int, e: int, mod: int | None):
    """(S, P, r(E)) with S / (be)^P = sum over F of X^(n-r(F)) Y^(|F|-r(F)),
    for X = a/b and Y = c/e; with ``mod``, b = e = 1 and S is a residue.

    Each node carries, per color, the sum of X^(|Ev|-label) Y^(|F|-label).
    Every such sum is a polynomial in X and Y (``validate_structure``
    refuses negative defects), so a node keeps it times (be)^P as an
    integer: P = 1 at a leaf, and P = P1 + P2 + top at an inner node whose
    largest defect is top, where a pair at defect d takes the factor
    (ac)^d (be)^(top-d).  Modulo ``mod`` there is nothing to clear: b = e =
    1, the factors are the powers of ac, and no node needs its top.
    Beside its sums a node carries the full set's (color, label), so r(E)
    is the root's label.
    """
    ac, be = a * c, b * e
    leaves = ({0: a * e, 1: be}, {0: a * e, 1: ac})
    if mod is None:
        tops: list[int] = []
        by_top: dict[int, list[int]] = {}

        def factors(defect):
            top = max(map(max, defect))
            tops.append(top)
            factor = by_top.get(top)
            if factor is None:
                factor = by_top[top] = [ac**d * be ** (top - d) for d in range(top + 1)]
            return factor

    else:
        powers = _Powers(ac % mod, mod)
        tops = []

        def factors(defect):
            return powers

    def leaf(node_id, node):
        return leaves[node.loop], (1, 0 if node.loop else 1)

    def combine(node_id, node, value1, value2):
        (table1, (c1, l1)), (table2, (c2, l2)) = value1, value2
        color, defect = node.color, node.defect
        factor = factors(defect)
        merged: dict[int, int] = {}
        for g1, v1 in table1.items():
            colors, drops = color[g1], defect[g1]
            for g2, v2 in table2.items():
                g = colors[g2]
                merged[g] = merged.get(g, 0) + v1 * v2 * factor[drops[g2]]
        if mod is not None:
            for g, v in merged.items():
                merged[g] = v % mod
        return merged, (color[c1][c2], l1 + l2 - defect[c1][c2])

    root, (_, full_rank) = fold(dec, leaf, combine)
    return sum(root.values()), dec.n + sum(tops), full_rank


def _to_residue(value, mod: int) -> int:
    frac = Fraction(value)
    return frac.numerator * pow(frac.denominator, -1, mod) % mod


def evaluate(dec: KDecomposition, x, y, mod: int | None = None):
    """Tutte polynomial value at (x, y): exact Fraction, or a residue mod ``mod``.

    Points where (x - 1)^(n - r) is invertible take the per-color pass:
    O(K^2 n) integer operations, on residues modulo ``mod`` or on integers
    scaled by the denominators of x - 1 and y - 1, and for an exact value
    one Fraction at the end.  The rest (x = 1 below full rank, or x - 1 not
    invertible modulo ``mod``) fall back to the coefficient table.  No
    floating point anywhere.

    ``dec`` is not verified here: a caller with an untrusted decomposition
    runs :func:`verify` first.  Unverified, a malformed decomposition still
    raises ValueError, and so does the coefficient-table fallback at a rank
    label above r(E); any other non-matroid gets the value its tables give.
    """
    if mod is not None and mod <= 0:
        raise ValueError(f"modulus must be positive, got {mod}")
    x = Fraction(x)
    y = Fraction(y)
    for name, value in (("x", x), ("y", y)):
        if mod is not None and gcd(value.denominator, mod) != 1:
            raise ValueError(f"{name} = {value} has no residue modulo {mod}")
    if mod is None:
        (a, b), (c, e) = (x - 1).as_integer_ratio(), (y - 1).as_integer_ratio()
        divisible = a != 0
    else:
        a, b, c, e = _to_residue(x - 1, mod), 1, _to_residue(y - 1, mod), 1
        divisible = gcd(a, mod) == 1
    if not divisible and eval_rank(dec, dec.full_set()) != dec.n:
        # x - 1 is zero or not invertible below full rank: count
        # coefficients instead
        table = whitney_coefficients(dec, check=False)
        if any(rk > table.r for _, rk in table.counts):
            raise ValueError(
                "rank label above r(E) while counting; the decomposition does not define a matroid"
            )
        value = _point_from_table(table, x, y)
        return Fraction(value) if mod is None else _to_residue(value, mod)
    total, scale, full_rank = _point_dp(dec, a, b, c, e, mod)
    corank = dec.n - full_rank
    if mod is not None:
        return total * pow(a, -corank, mod) % mod
    return Fraction(total * b**corank, (b * e) ** scale * a**corank)
