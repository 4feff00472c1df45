"""Tutte polynomial of a matroid given by a decomposition.

The size/rank table N(n', r') counts subsets with n' elements and rank r';
it determines the Tutte polynomial through

    T(x, y) = sum over (n', r') of N(n', r') (x-1)^(r-r') (y-1)^(n'-r')

with r the rank of the ground set.  ``whitney_coefficients`` fills the table
by a bottom-up counting DP over (color, size, label) triples; the child
tables convolve through the node's color and defect tables.  Counts are
exact Python integers.

``evaluate`` computes T at a point without the coefficient table: per node
and color it accumulates sums of (x-1)^(|Ev|-label) (y-1)^(|F|-label), so
combining children only multiplies by ((x-1)(y-1))^defect and a single
division by (x-1)^(n-r) remains at the root.  That keeps the work at O(K^2)
per node.  Where that division is undefined (x = 1, or x - 1 not invertible
modulo the given modulus) the coefficient table is used instead, with
0^0 = 1.  Arithmetic is exact rational, or modular when a modulus is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .kdecomp import KDecomposition, eval_rank, fold
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
    NotAMatroidError raised on failure; callers that already verified (or
    accept garbage-in) may waive it.  Per node the convolution touches only
    reachable (color, size, label) triples, so the work is bounded by
    K^2 * n1 * n2 * r^2 over the child subtree sizes.
    """
    if check:
        result = verify(dec)
        if not result:
            raise NotAMatroidError(result)

    def leaf(node_id, node):
        return {0: {(0, 0): 1}, 1: {(1, 0 if node.loop else 1): 1}}

    def combine(node_id, node, table1, table2):
        color, defect = node.color, node.defect
        merged: dict[int, dict[tuple[int, int], int]] = {}
        for g1, cells1 in table1.items():
            for g2, cells2 in table2.items():
                g = color[g1][g2]
                drop = defect[g1][g2]
                bucket = merged.setdefault(g, {})
                for (n1, r1), c1 in cells1.items():
                    for (n2, r2), c2 in cells2.items():
                        rr = r1 + r2 - drop
                        if rr < 0:
                            raise ValueError(
                                "negative rank label while counting; "
                                "the decomposition does not define a matroid"
                            )
                        key = (n1 + n2, rr)
                        bucket[key] = bucket.get(key, 0) + c1 * c2
        return merged

    counts: dict[tuple[int, int], int] = {}
    for cells in fold(dec, leaf, combine).values():
        for key, c in cells.items():
            counts[key] = counts.get(key, 0) + c
    # fold's shape check puts each element on exactly one leaf, so E is the
    # only counted subset of size n
    [full_rank] = [r for (size, r) in counts if size == dec.n]
    return WhitneyTable(dec.n, full_rank, counts)


def to_tutte(table: WhitneyTable) -> TuttePolynomial:
    """Expand the (x-1), (y-1) basis into monomial coefficients."""
    coeffs: dict[tuple[int, int], int] = {}
    r = table.r
    for (size, rk), count in table.counts.items():
        a, b = r - rk, size - rk
        for i in range(a + 1):
            ci = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                term = count * ci * comb(b, j) * (-1) ** (b - j)
                if term:
                    key = (i, j)
                    coeffs[key] = coeffs.get(key, 0) + term
    return TuttePolynomial({k: v for k, v in coeffs.items() if v})


def _point_from_table(table: WhitneyTable, x, y):
    return sum(
        count * (x - 1) ** (table.r - rk) * (y - 1) ** (size - rk)
        for (size, rk), count in table.counts.items()
    )


def _scaled_point_dp(dec: KDecomposition, x, y, reduce):
    """sum over F of (x-1)^(n-r(F)) (y-1)^(|F|-r(F)), via per-color sums.

    Each node carries, per color, the sum of (x-1)^(|Ev|-label) *
    (y-1)^(|F|-label); this is the point value scaled by (x-1)^(n-r), which
    the caller divides out.  ``reduce`` maps each product into the target
    ring (identity for rationals, a mod for residues).
    """
    base = reduce((x - 1) * (y - 1))
    powers = {0: reduce(1), 1: base}

    def power(k):
        v = powers.get(k)
        if v is None:
            v = powers[max(powers)]
            for i in range(max(powers) + 1, k + 1):
                v = reduce(v * base)
                powers[i] = v
        return powers[k]

    empty = reduce(x - 1)
    one = reduce(1)

    def combine(node_id, node, table1, table2):
        color, defect = node.color, node.defect
        merged: dict[int, object] = {}
        for g1, v1 in table1.items():
            for g2, v2 in table2.items():
                g = color[g1][g2]
                term = reduce(v1 * v2 * power(defect[g1][g2]))
                merged[g] = reduce(merged.get(g, 0) + term)
        return merged

    root = fold(dec, lambda node_id, node: {0: empty, 1: base if node.loop else one}, combine)
    return reduce(sum(root.values()))


def _to_residue(value, mod: int) -> int:
    frac = Fraction(value)
    return frac.numerator * pow(frac.denominator, -1, mod) % mod


def evaluate(dec: KDecomposition, x, y, mod: int | None = None, check: bool = False):
    """Tutte polynomial value at (x, y): exact Fraction, or a residue mod ``mod``.

    Points where (x - 1)^(n - r) is invertible take the O(K^2 n) per-color
    pass; the rest (x = 1 below full rank, or x - 1 not invertible modulo
    ``mod``) fall back to the coefficient table.  No floating point anywhere.
    """
    if mod is not None and mod <= 0:
        raise ValueError(f"modulus must be positive, got {mod}")
    if check:
        result = verify(dec)
        if not result:
            raise NotAMatroidError(result)
    x = Fraction(x)
    y = Fraction(y)
    if mod is None:
        ring, reduce, inverse_power = Fraction, (lambda v: v), (lambda v, k: 1 / v**k)
    else:
        ring, reduce, inverse_power = (
            (lambda v: _to_residue(v, mod)), (lambda v: v % mod), (lambda v, k: pow(v, -k, mod))
        )
    rx, ry = ring(x), ring(y)
    try:
        inv = inverse_power(rx - 1, dec.n - eval_rank(dec, dec.full_set()))
    except (ValueError, ZeroDivisionError):
        # x - 1 is zero or not invertible: count coefficients instead
        table = whitney_coefficients(dec, check=False)
        if any(rk > table.r for _, rk in table.counts):
            raise ValueError(
                "rank label above r(E) while counting; the decomposition does not define a matroid"
            ) from None
        return ring(_point_from_table(table, x, y))
    return reduce(_scaled_point_dp(dec, rx, ry, reduce) * inv)
