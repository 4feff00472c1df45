"""Tutte polynomial coefficients and evaluation against enumeration oracles."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    construct_exact,
    fano,
    loop_coloop,
    mk4_graphic,
    mk4_linear,
    mutate_tables,
    named_corpus,
    parallel_coloop,
    single_loop,
    u12,
    u23,
)
from decompwidth import (
    NotAMatroidError,
    WhitneyTable,
    brute_whitney,
    evaluate,
    to_tutte,
    verify,
    whitney_coefficients,
)
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, node_states


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_whitney_u12():
    dec, _ = construct_exact(u12())
    table = whitney_coefficients(dec)
    assert table.counts == {(0, 0): 1, (1, 1): 2, (2, 1): 1}
    assert to_tutte(table).coeffs == {(1, 0): 1, (0, 1): 1}  # x + y


def test_whitney_u23():
    dec, _ = construct_exact(u23())
    table = whitney_coefficients(dec)
    assert table.counts == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 2): 1}
    assert to_tutte(table).coeffs == {(2, 0): 1, (1, 0): 1, (0, 1): 1}  # x^2 + x + y


def test_whitney_single_loop():
    dec, _ = construct_exact(single_loop())
    table = whitney_coefficients(dec)
    assert table.counts == {(0, 0): 1, (1, 0): 1}
    assert to_tutte(table).coeffs == {(0, 1): 1}  # y


def test_tutte_loop_plus_coloop():
    dec, _ = construct_exact(loop_coloop())
    assert to_tutte(whitney_coefficients(dec)).coeffs == {(1, 1): 1}  # xy


def test_tutte_empty_matroid():
    table = WhitneyTable(0, 0, {(0, 0): 1})
    assert to_tutte(table).coeffs == {(0, 0): 1}


def test_whitney_matches_brute_on_corpus():
    for name, m, oracle in named_corpus():
        dec, _ = construct_exact(m)
        ours = whitney_coefficients(dec, check=False)
        brute = brute_whitney(oracle)
        assert ours.counts == brute.counts, name
        assert ours.r == brute.r, name


def test_tutte_coefficients_nonnegative():
    for name, m, _ in named_corpus():
        dec, _ = construct_exact(m)
        poly = to_tutte(whitney_coefficients(dec, check=False))
        assert all(c >= 0 for c in poly.coeffs.values()), name


def test_whitney_check_rejects_non_matroid():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 2]]),
        },
        2,
    )
    with pytest.raises(NotAMatroidError):
        whitney_coefficients(dec)


def test_whitney_unchecked_negative_rank_raises():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 5]]),
        },
        2,
    )
    with pytest.raises(ValueError):
        whitney_coefficients(dec, check=False)


def test_whitney_unchecked_non_matroid_mutants():
    # unchecked counting stops with a plain ValueError exactly when some
    # subset has a negative label at some node; other non-matroids are counted
    rng = random.Random(5)
    raised = counted = 0
    for make in (u23, parallel_coloop, mk4_linear):
        base, _ = construct_exact(make())
        for _ in range(40):
            dec = mutate_tables(base, rng)
            if verify(dec):
                continue
            if any(
                label < 0
                for subset in range(1 << dec.n)
                for _, label in node_states(dec, subset).values()
            ):
                with pytest.raises(ValueError, match="^negative rank label .* does not define a matroid$"):
                    whitney_coefficients(dec, check=False)
                raised += 1
            else:
                assert whitney_coefficients(dec, check=False).total() == 1 << dec.n
                counted += 1
    assert raised and counted


def test_whitney_unchecked_missing_element_says_so():
    # n = 3, but the leaves hold only elements 0 and 1
    dec = KDecomposition(
        3,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 2, [[0, 1], [1, 1]], [[0, 0], [0, 1]]),
        },
        2,
    )
    message = r"^leaf bijection: leaf elements \[0, 1\] are not exactly 0\.\.2$"
    with pytest.raises(ValueError, match=message):
        whitney_coefficients(dec, check=False)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_point_two_two_counts_subsets():
    for make in (u23, fano, mk4_linear, parallel_coloop):
        dec, _ = construct_exact(make())
        assert evaluate(dec, 2, 2) == 1 << dec.n


def test_fano_basis_count():
    m = fano()
    bases = sum(
        1 for combo in combinations(range(7), 3) if m.rank(sum(1 << e for e in combo)) == 3
    )
    assert bases == 28
    dec, _ = construct_exact(m)
    assert evaluate(dec, 1, 1) == 28


def test_mk4_spanning_tree_count():
    m = mk4_graphic()
    trees = sum(
        1 for combo in combinations(range(6), 3) if m.rank(sum(1 << e for e in combo)) == 3
    )
    assert trees == 16
    dec, _ = construct_exact(mk4_linear())
    assert evaluate(dec, 1, 1) == 16


def test_counting_identities_against_enumeration():
    for make in (u23, parallel_coloop, mk4_linear, fano):
        m = make()
        dec, _ = construct_exact(m)
        independent = sum(
            1 for s in range(1 << m.n) if m.rank(s) == s.bit_count()
        )
        spanning = sum(
            1 for s in range(1 << m.n) if m.rank(s) == m.rank(m.full_set)
        )
        assert evaluate(dec, 2, 1) == independent
        assert evaluate(dec, 1, 2) == spanning


def test_evaluate_matches_polynomial_at_random_rationals():
    rng = random.Random(17)
    for make in (u23, fano, mk4_linear, loop_coloop):
        dec, _ = construct_exact(make())
        poly = to_tutte(whitney_coefficients(dec, check=False))
        for _ in range(25):
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            assert evaluate(dec, x, y) == poly.evaluate(x, y)


def test_evaluate_degenerate_lines():
    dec, _ = construct_exact(fano())
    poly = to_tutte(whitney_coefficients(dec, check=False))
    for x, y in ((1, 3), (4, 1), (1, 1), (1, 0), (0, 1)):
        assert evaluate(dec, x, y) == poly.evaluate(Fraction(x), Fraction(y))


def test_modular_evaluation_matches_exact():
    rng = random.Random(23)
    dec, _ = construct_exact(mk4_linear())
    poly = to_tutte(whitney_coefficients(dec, check=False))
    for mod in (97, 1000000007):
        for _ in range(10):
            x, y = rng.randint(-10, 10), rng.randint(-10, 10)
            assert evaluate(dec, x, y, mod=mod) == poly.evaluate(x, y) % mod


def test_modular_with_rational_point():
    dec, _ = construct_exact(u23())
    exact = evaluate(dec, Fraction(1, 2), Fraction(3, 2))
    mod = 1000000007
    expected = exact.numerator * pow(exact.denominator, -1, mod) % mod
    assert evaluate(dec, Fraction(1, 2), Fraction(3, 2), mod=mod) == expected


def test_modular_degenerate_x_falls_back():
    dec, _ = construct_exact(fano())
    mod = 97
    # x = 98 is 1 mod 97: the per-color pass would divide by zero
    assert evaluate(dec, 98, 3, mod=mod) == evaluate(dec, 1, 3) % mod


def test_modular_degenerate_x_with_rational_y():
    dec, _ = construct_exact(u23())
    # x - 1 = 7 vanishes mod 7; T(8, 1/2) = 145/2, which is 6 mod 7
    assert evaluate(dec, 8, Fraction(1, 2), mod=7) == 6


def test_evaluate_degenerate_points_match_the_table():
    # x = 1 below full rank, y = 1, and x - 1 not invertible modulo 7 or 9
    # (x = 8, x = 4); exact values are Fractions and residues are ints
    points = [(x, 1) for x in (2, Fraction(5, 2), 0, Fraction(-3, 4), 1, 4, 8)]
    points += [(1, 3), (1, Fraction(1, 2))]
    for _, m, _ in named_corpus():
        dec, _ = construct_exact(m)
        poly = to_tutte(whitney_coefficients(dec, check=False))
        for x, y in points:
            want = poly.evaluate(Fraction(x), Fraction(y))
            got = evaluate(dec, x, y)
            assert type(got) is Fraction and got == want
            for mod in (7, 9, 1000000007):
                residue = want.numerator * pow(want.denominator, -1, mod) % mod
                got = evaluate(dec, x, y, mod=mod)
                assert type(got) is int and got == residue


def test_table_fallback_refuses_labels_above_full_rank():
    # x = 1 below full rank reads the Whitney table, where a subset labelled
    # above r(E) would raise 0 to a negative power
    rng = random.Random(7)
    refused = 0
    for _, m, _ in named_corpus():
        if m.n < 2:
            continue
        base, _ = construct_exact(m)
        for _ in range(10):
            dec = mutate_tables(base, rng)
            try:
                table = whitney_coefficients(dec, check=False)
            except ValueError:
                continue
            if table.r < dec.n and any(rk > table.r for _, rk in table.counts):
                for mod in (None, 7):
                    with pytest.raises(ValueError, match=r"^rank label above r\(E\) .* does not define a matroid$"):
                        evaluate(dec, 1, 1, mod=mod)
                refused += 1
    assert refused


def test_bad_modulus():
    dec, _ = construct_exact(u23())
    with pytest.raises(ValueError):
        evaluate(dec, 2, 2, mod=0)
    with pytest.raises(ValueError):
        evaluate(dec, 2, 2, mod=-5)


def test_evaluate_check_flag():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 2]]),
        },
        2,
    )
    with pytest.raises(NotAMatroidError):
        evaluate(dec, 2, 2, check=True)


def test_single_leaf_tutte():
    dec = KDecomposition(1, {0: Leaf(0, False)}, 0)
    assert to_tutte(whitney_coefficients(dec)).coeffs == {(1, 0): 1}  # x
    assert evaluate(dec, 3, 7) == 3
