"""Tutte polynomial coefficients and evaluation against enumeration oracles."""

import copy
import hashlib
import importlib
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    balanced_rooted_tree,
    construct_exact,
    fano,
    fraction_point_dp,
    ladder_matroid,
    left_deep_rooted_tree,
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
    MatroidInstance,
    NotAMatroidError,
    WhitneyTable,
    brute_whitney,
    construct,
    evaluate,
    field_of_order,
    incidence_matrix,
    to_tutte,
    verify,
    whitney_coefficients,
)
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, eval_rank, node_states


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


def pinned_corpus():
    """Seeded linear instances over GF(2), GF(3), GF(4), GF(5) and GF(7),
    every fourth with loops, every fourth with a coloop and every fourth with
    both, plus the 2 x k ladders for k = 1..6 over GF(2)."""
    rng = random.Random(15)
    out = []
    for q in (2, 3, 4, 5, 7):
        f = field_of_order(q)
        for i in range(32):
            d, n = rng.randint(1, 5), rng.randint(1, 11)
            matrix = [[rng.randrange(q) for _ in range(n)] for _ in range(d)]
            if i % 4 in (1, 3):
                for j in rng.sample(range(n), rng.randint(1, n)):
                    for row in matrix:
                        row[j] = 0
            if i % 4 in (2, 3):
                # a new row that only a new column reaches
                for row in matrix:
                    row.append(0)
                matrix.append([0] * n + [rng.randrange(1, q)])
            out.append((f"gf{q}-{i}", MatroidInstance.linear(f, matrix)))
    for k in range(1, 7):
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        edges += [(2 * i + s, 2 * i + s + 2) for i in range(k - 1) for s in (0, 1)]
        out.append((f"ladder-{k}", MatroidInstance.linear(field_of_order(2), incidence_matrix(2 * k, edges))))
    return out


# SHA-256 of the Whitney counts and Tutte coefficients of pinned_corpus()
PINNED_DIGEST = "d1946660afe7f891fc425ef4a09e0a7ae5df66ea14c002522542f3c411aaa8dc"


def test_whitney_tables_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for name, m in pinned_corpus():
        brute = brute_whitney(m)
        for shape, tree in (("caterpillar", left_deep_rooted_tree(m.n)), ("balanced", balanced_rooted_tree(m.n))):
            table = whitney_coefficients(construct(m, tree))
            assert table == brute, (name, shape)
            poly = to_tutte(table)
            record = (name, shape, table.n, table.r, sorted(table.counts.items()), sorted(poly.coeffs.items()))
            digest.update(repr(record).encode())
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("tree", [left_deep_rooted_tree, balanced_rooted_tree])
@pytest.mark.parametrize("free", [True, False])
def test_whitney_extreme_counts_fill_their_slots(n, tree, free):
    # every subset of the free matroid is independent and every subset of
    # the all-loops matroid has rank 0: C(n, s) subsets in one cell per size
    matrix = [[int(free and i == j) for j in range(n)] for i in range(n)]
    table = whitney_coefficients(construct(MatroidInstance.linear(field_of_order(2), matrix), tree(n)))
    assert table.counts == {(s, s if free else 0): comb(n, s) for s in range(n + 1)}


def whitney_rows(monkeypatch, dec):
    """Every (color, size) row that ``whitney_coefficients``' combine
    returns on ``dec``, as (least label, packed counts)."""
    module = importlib.import_module("decompwidth.tutte")
    rows = []

    def recorded_fold(dec, leaf, combine, op=module.fold):
        def recorded(node_id, node, table1, table2):
            table = combine(node_id, node, table1, table2)
            rows.extend(row for sizes in table.values() for row in sizes.values())
            return table

        return op(dec, leaf, recorded)

    with monkeypatch.context() as patch:
        patch.setattr(module, "fold", recorded_fold)
        whitney_coefficients(dec, check=False)
    return rows


def test_whitney_rows_start_at_their_least_label(monkeypatch):
    # slot i of a row counts label lo + i, so a row packed from its own
    # least label has a nonzero lowest slot
    cases = [(name, construct_exact(m)[0]) for name, m, _ in named_corpus()]
    m = ladder_matroid(32)
    cases.append(("ladder-32", construct(m, left_deep_rooted_tree(m.n))))
    held = {}
    for name, dec in cases:
        mask = (1 << dec.n + 1) - 1
        rows = whitney_rows(monkeypatch, dec)
        assert all(row & mask for _, row in rows), name
        held[name] = sum(row.bit_length() for _, row in rows)
    # over the ladder's edge-order caterpillar the rows hold 5.56 Mbit in
    # all, where packing them from their color's least label holds 22.9
    assert held["ladder-32"] < 6_000_000


def ladder_spanning_trees(k):
    """t_k = 4 t_(k-1) - t_(k-2), t_1 = 1, t_2 = 4: the spanning trees of
    the 2 x k ladder."""
    current, following = 1, 4
    for _ in range(k - 1):
        current, following = following, 4 * following - current
    return current


POINT = (Fraction(3, 2), Fraction(5, 3))


@pytest.mark.parametrize("k", [16, 32, 64])
@pytest.mark.parametrize("tree", [left_deep_rooted_tree, balanced_rooted_tree])
def test_whitney_closed_forms_on_ladders_past_the_brute_force_limit(k, tree):
    m = ladder_matroid(k)
    dec = construct(m, tree(m.n))
    table = whitney_coefficients(dec)
    assert table.total() == 2**m.n
    poly = to_tutte(table)
    assert poly.evaluate(1, 1) == ladder_spanning_trees(k)
    assert poly.evaluate(*POINT) == evaluate(dec, *POINT)


def test_tutte_coefficients_nonnegative():
    for name, m, _ in named_corpus():
        dec, _ = construct_exact(m)
        poly = to_tutte(whitney_coefficients(dec, check=False))
        assert all(c >= 0 for c in poly.coeffs.values()), name


def binomial_expansion(table):
    """Reference: expand every count N(n', r') (x-1)^a (y-1)^b term by term."""
    coeffs = {}
    for (size, rk), count in table.counts.items():
        a, b = table.r - rk, size - rk
        for i in range(a + 1):
            for j in range(b + 1):
                term = count * comb(a, i) * (-1) ** (a - i) * comb(b, j) * (-1) ** (b - j)
                coeffs[(i, j)] = coeffs.get((i, j), 0) + term
    return {key: c for key, c in coeffs.items() if c}


def test_to_tutte_matches_binomial_expansion_on_corpus():
    for name, m, oracle in named_corpus():
        for table in (brute_whitney(m), brute_whitney(oracle)):
            assert to_tutte(table).coeffs == binomial_expansion(table), name


@st.composite
def whitney_tables(draw):
    r = draw(st.integers(0, 5))
    n = draw(st.integers(r, r + 6))
    cells = st.integers(0, r).flatmap(
        lambda rk: st.tuples(st.integers(rk, n), st.just(rk))
    )
    counts = draw(st.dictionaries(cells, st.integers(-50, 50), min_size=1, max_size=12))
    return WhitneyTable(n, r, counts)


@settings(max_examples=200, deadline=None)
@given(whitney_tables())
def test_to_tutte_matches_binomial_expansion_on_drawn_tables(table):
    assert to_tutte(table).coeffs == binomial_expansion(table)


@pytest.mark.parametrize(
    "table",
    [
        WhitneyTable(3, 0, {(3, 0): 1}),  # three loops: y^3
        WhitneyTable(4, 2, {(0, 0): 1}),  # one cell, corank 2
        WhitneyTable(5, 2, {(4, 1): 7}),  # one cell off both axes
        WhitneyTable(2, 0, {(0, 0): 1, (1, 0): 2, (2, 0): 1}),  # r = 0
    ],
)
def test_to_tutte_matches_binomial_expansion_on_edge_tables(table):
    assert to_tutte(table).coeffs == binomial_expansion(table)


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
    # subset has a negative label at some node; other non-matroids are
    # counted exactly, by (|F|, root label of F)
    rng = random.Random(5)
    raised = counted = 0
    for make in (u23, parallel_coloop, mk4_linear):
        base, _ = construct_exact(make())
        for _ in range(60):
            dec = mutate_tables(base, rng)
            if verify(dec):
                continue
            states = [node_states(dec, subset) for subset in range(1 << dec.n)]
            if any(label < 0 for s in states for _, label in s.values()):
                with pytest.raises(ValueError, match="^negative rank label .* does not define a matroid$"):
                    whitney_coefficients(dec, check=False)
                raised += 1
            else:
                histogram = {}
                for subset, s in enumerate(states):
                    key = (subset.bit_count(), s[dec.root][1])
                    histogram[key] = histogram.get(key, 0) + 1
                assert whitney_coefficients(dec, check=False).counts == histogram
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


def test_point_without_residue_names_the_coordinate():
    dec, _ = construct_exact(u23())
    with pytest.raises(ValueError, match=r"^x = 1/7 has no residue modulo 7$"):
        evaluate(dec, Fraction(1, 7), 2, mod=7)
    with pytest.raises(ValueError, match=r"^y = 5/6 has no residue modulo 9$"):
        evaluate(dec, 2, Fraction(5, 6), mod=9)


def test_evaluate_leaves_verification_to_the_caller():
    # verify rejects this decomposition (rank(E - 0) = 1 exceeds rank(E) = 0);
    # evaluate reads its tables as given
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 2]]),
        },
        2,
    )
    assert not verify(dec)
    assert evaluate(dec, 2, 2) == 4
    with pytest.raises(ValueError, match=r"^rank label above r\(E\) while counting"):
        evaluate(dec, 1, 1)


def test_single_leaf_tutte():
    dec = KDecomposition(1, {0: Leaf(0, False)}, 0)
    assert to_tutte(whitney_coefficients(dec)).coeffs == {(1, 0): 1}  # x
    assert evaluate(dec, 3, 7) == 3


# ---------------------------------------------------------------------------
# evaluation against the Fraction point DP
# ---------------------------------------------------------------------------


@cache
def corpus_decompositions():
    return tuple(construct_exact(m)[0] for _, m, _ in named_corpus())


def raised_defect(dec, node_id, cell, by):
    """Copy of ``dec`` with one defect entry other than (0, 0) raised by
    ``by``: structure-valid, and in general not a matroid."""
    out = copy.deepcopy(dec)
    defect = out.nodes[node_id].defect
    g1, g2 = divmod(cell, len(defect[0]))
    defect[g1][g2] += by
    return out


@st.composite
def random_tables(draw, max_n=6):
    """A structure-valid decomposition on at most ``max_n`` elements with
    drawn tree, loops, palettes, colors and defects up to 4: rarely a
    matroid, and every defect pattern the corpus lacks."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    nodes = {e: Leaf(e, draw(st.booleans())) for e in range(n)}
    tops = [(e, 2) for e in range(n)]
    while len(tops) > 1:
        i = draw(st.integers(min_value=0, max_value=len(tops) - 2))
        (left, lp), (right, rp) = tops.pop(i), tops.pop(i)
        palette = draw(st.integers(min_value=1, max_value=4))
        color = [[draw(st.integers(min_value=0, max_value=palette - 1)) for _ in range(rp)] for _ in range(lp)]
        defect = [[draw(st.integers(min_value=0, max_value=4)) for _ in range(rp)] for _ in range(lp)]
        color[0][0] = defect[0][0] = 0
        node_id = len(nodes)
        nodes[node_id] = Inner((left, right), palette, color, defect)
        tops.insert(i, (node_id, palette))
    return KDecomposition(n, nodes, tops[0][0])


@st.composite
def raised_corpus(draw):
    """A corpus decomposition, or one with a raised defect."""
    dec = draw(st.sampled_from(corpus_decompositions()))
    cells = {
        v: len(node.defect) * len(node.defect[0])
        for v, node in dec.nodes.items()
        if isinstance(node, Inner) and len(node.defect) * len(node.defect[0]) > 1
    }
    if not cells or draw(st.booleans()):
        return dec
    node_id = draw(st.sampled_from(sorted(cells)))
    cell = draw(st.integers(min_value=1, max_value=cells[node_id] - 1))
    return raised_defect(dec, node_id, cell, draw(st.integers(min_value=1, max_value=3)))


decompositions = st.one_of(raised_corpus(), random_tables())


# x - 1 < 0, x = 0, y = 1, and numerators and denominators of 40 digits
BIG = 10**40
coordinates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(-3, 7), Fraction(1, 2), Fraction(5, 3)]),
    st.builds(Fraction, st.integers(min_value=-BIG, max_value=BIG), st.integers(min_value=1, max_value=BIG)),
)


def residue(value: Fraction, mod: int) -> int:
    return value.numerator * pow(value.denominator, -1, mod) % mod


def corank(dec) -> int:
    return dec.n - eval_rank(dec, dec.full_set())


@settings(max_examples=300, deadline=None)
@given(decompositions, coordinates, coordinates)
def test_evaluate_is_the_fraction_point_dp(dec, x, y):
    assume(x != 1 or corank(dec) == 0)
    got = evaluate(dec, x, y)
    assert type(got) is Fraction and got == fraction_point_dp(dec, x, y)


@settings(max_examples=300, deadline=None)
@given(
    decompositions,
    coordinates,
    coordinates,
    st.sampled_from([7, 9, 97, 2**31 - 1]),
    st.booleans(),
)
def test_modular_evaluate_is_the_residue_of_the_fraction_point_dp(dec, x, y, mod, degenerate):
    if degenerate:
        # x - 1 is 0 modulo mod: the coefficient-table fallback
        x = 1 + mod * x
    assume(gcd(x.denominator, mod) == 1 and gcd(y.denominator, mod) == 1)
    assume(x != 1 or corank(dec) == 0)
    want = fraction_point_dp(dec, x, y)
    try:
        got = evaluate(dec, x, y, mod=mod)
    except ValueError:
        # only the fallback, where x - 1 has no inverse, refuses a
        # structure-valid decomposition: at a negative rank label or one
        # above r(E), which no matroid has
        assert gcd((x - 1).numerator, mod) != 1 and corank(dec) and not verify(dec)
        return
    assert type(got) is int and got == residue(want, mod)


def test_evaluate_is_the_fraction_point_dp_on_the_corpus():
    # every corpus decomposition, and each with its last table entry raised
    points = [(Fraction(3, 2), Fraction(5, 3)), (Fraction(-3, 7), 2), (2, 1), (0, Fraction(1, 2))]
    points += [(Fraction(BIG + 1, BIG - 1), Fraction(-BIG, BIG + 3))]
    raised = 0
    for base in corpus_decompositions():
        decs = [base]
        inner = [v for v, node in base.nodes.items() if isinstance(node, Inner)]
        if inner:
            node = base.nodes[max(inner)]
            cells = len(node.defect) * len(node.defect[0])
            if cells > 1:
                decs.append(raised_defect(base, max(inner), cells - 1, 1))
                raised += not verify(decs[-1])
        for dec in decs:
            for x, y in points:
                want = fraction_point_dp(dec, x, y)
                assert evaluate(dec, x, y) == want
                for mod in (13, 2**31 - 1):
                    assert evaluate(dec, x, y, mod=mod) == residue(want, mod)
            # x - 1 = 7 vanishes modulo 7, so this residue comes from the table
            if verify(dec):
                assert evaluate(dec, 8, 3, mod=7) == residue(fraction_point_dp(dec, 8, 3), 7)
    assert raised
