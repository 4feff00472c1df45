"""Branch decompositions: widths, searches, rooting, serialization."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GF2,
    GF3,
    best_move_by_full_scan,
    c5_graphic,
    edge_width,
    fano,
    mk4_linear,
    parallel_coloop,
    path_matroid,
    rank_calls,
    small_instances,
    u23,
)
from decompwidth import (
    BranchTree,
    FieldSpec,
    MatroidInstance,
    RootedBranchTree,
    caterpillar_tree,
    exact_branch_decomposition,
    field_of_order,
    format_branch_tree,
    greedy_branch_decomposition,
    parse_branch_tree,
    prefix_sweep,
    rank_table,
    root_tree,
    width,
)
from decompwidth.branchdecomp import _best_move, _greedy_order, default_root_edge
from decompwidth.errors import ParseError


def star3():
    return BranchTree(3, {0: (3,), 1: (3,), 2: (3,), 3: (0, 1, 2)})


def brute_side_mask(tree, u, v):
    """Side of v by DFS that never crosses (u, v)."""
    mask, stack, seen = 0, [v], {u, v}
    while stack:
        x = stack.pop()
        if x < tree.n:
            mask |= 1 << x
        for y in tree.adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return mask


def test_side_masks_match_brute_dfs():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(3, 9)
        order = list(range(n))
        rng.shuffle(order)
        tree = caterpillar_tree(n, order)
        for u, v in tree.edges():
            assert tree.side_mask(u, v) == brute_side_mask(tree, u, v)
            assert tree.side_mask(v, u) == brute_side_mask(tree, v, u)
            assert tree.side_mask(u, v) | tree.side_mask(v, u) == (1 << n) - 1


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------


def test_edge_width_u23_star():
    m = u23()
    lam = m.rank(0b001) + m.rank(0b110) - m.rank(0b111)
    assert lam == 1
    assert edge_width(m, star3(), (0, 3)) == 1


def test_edge_width_loop_leaf_is_zero():
    m = MatroidInstance.linear(GF2, [[0, 1, 1], [0, 1, 0]])
    assert edge_width(m, star3(), (0, 3)) == 0


def test_edge_width_fano_leaf_edges():
    m = fano()
    tree, _ = exact_branch_decomposition(m)
    for leaf in range(7):
        (neighbor,) = tree.adj[leaf]
        assert edge_width(m, tree, (min(leaf, neighbor), max(leaf, neighbor))) == 1


def test_width_u23_star():
    assert width(u23(), star3()) == 1


def test_width_all_loops_any_tree():
    m = MatroidInstance.linear(GF2, [[0, 0, 0]])
    assert width(m, star3()) == 0


def test_width_single_element():
    tree = BranchTree(1, {0: ()})
    assert width(MatroidInstance.uniform(1, 1), tree) == 0


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------


def test_exact_u23():
    tree, w = exact_branch_decomposition(u23())
    assert w == 1
    assert width(u23(), tree) == 1


def test_exact_parallel_coloop():
    m = parallel_coloop()
    tree, w = exact_branch_decomposition(m)
    assert w == 1


def test_exact_fano_width_2():
    tree, w = exact_branch_decomposition(fano())
    assert w == 2
    assert width(fano(), tree) == 2


def test_exact_mk4_width_2():
    _, w = exact_branch_decomposition(mk4_linear())
    assert w == 2


def all_trees(n):
    """Every leaf-labeled cubic tree on n >= 2 leaves, as (u, v, mask of
    v's side) edge lists, by unpruned insertion of leaves 2..n-1 into every
    edge."""
    trees = [[(0, 1, 0b10)]]
    for k in range(2, n):
        grown = []
        node = n + (k - 2)
        bit = 1 << k
        for edges in trees:
            for i in range(len(edges)):
                u, v, mask = edges[i]
                new = [
                    (a, b, mb | bit if mb & mask == mask else mb)
                    for j, (a, b, mb) in enumerate(edges)
                    if j != i
                ]
                new += [(u, node, mask | bit), (node, v, mask), (node, k, bit)]
                grown.append(new)
        trees = grown
    return trees


def enumerated_width(m):
    """The least width over every tree of ``all_trees``."""
    rank, full = rank_table(m), m.full_set
    return min(
        max(rank[mask] + rank[full & ~mask] for _, _, mask in edges) - rank[full]
        for edges in all_trees(m.n)
    )


def test_exact_matches_full_enumeration_without_pruning():
    # independent route: the least width over every tree that unpruned
    # insertion builds
    assert [len(all_trees(n)) for n in (5, 6, 7)] == [15, 105, 945]  # (2n-5)!!
    m = c5_graphic()
    tree, w = exact_branch_decomposition(m)
    # every proper bipartition of U_{4,5} has defect |A| + |B| - 4 = 1
    assert w == enumerated_width(m) == width(m, tree) == 1
    rng = random.Random(2006)
    for q in (2, 3, 4):
        field = field_of_order(q)
        for n in (6, 6, 7, 7):
            d = rng.randint(2, 4)
            matrix = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(d)]
            m = MatroidInstance.linear(field, matrix)
            tree, w = exact_branch_decomposition(m)
            assert w == enumerated_width(m) == width(m, tree)


def test_exact_guard():
    # rank_table's limit
    with pytest.raises(ValueError):
        exact_branch_decomposition(MatroidInstance.uniform(2, 21))


def test_exact_tiny_instances():
    tree, w = exact_branch_decomposition(MatroidInstance.uniform(1, 1))
    assert (tree.n, w) == (1, 0)
    tree, w = exact_branch_decomposition(MatroidInstance.uniform(1, 2))
    assert (tree.n, w) == (2, 1)


# ---------------------------------------------------------------------------
# greedy search
# ---------------------------------------------------------------------------


def test_greedy_path_matroid_is_width_zero_caterpillar():
    # every subset of a path's edges is a forest, so every separation has
    # rank defect 0 and any caterpillar is optimal
    m = path_matroid(6)
    tree, w = greedy_branch_decomposition(m)
    assert w == 0
    full = m.full_set
    for u, v in tree.edges():
        mask = tree.side_mask(u, v)
        assert m.rank(mask) + m.rank(full & ~mask) - m.rank(full) == 0


def test_greedy_all_loops():
    m = MatroidInstance.linear(GF2, [[0, 0, 0, 0]])
    _, w = greedy_branch_decomposition(m)
    assert w == 0


def test_greedy_u23():
    _, w = greedy_branch_decomposition(u23())
    assert w == 1


def reference_greedy_order(m, first=None):
    """The greedy's first phase as it was first written: two full ranks per
    candidate per step; with ``first``, that element opens the order."""
    n, full = m.n, m.full_set
    full_rank = m.rank(full)
    order, prefix, remaining = [], 0, list(range(n))
    if first is not None:
        order, prefix = [first], 1 << first
        remaining.remove(first)
    while remaining:
        best_e, best_lam = None, None
        for e in remaining:
            grown = prefix | 1 << e
            lam = m.rank(grown) + m.rank(full & ~grown) - full_rank
            if best_lam is None or lam < best_lam:
                best_e, best_lam = e, lam
        order.append(best_e)
        remaining.remove(best_e)
        prefix |= 1 << best_e
    return order


def spine_score(m, order):
    """(max, sum) of λ(P_k) over the spine cuts k = 2..n-2, rank by rank."""
    n, full = m.n, m.full_set
    lams = []
    for k in range(2, n - 1):
        prefix = sum(1 << e for e in order[:k])
        lams.append(m.rank(prefix) + m.rank(full & ~prefix) - m.rank(full))
    return max(lams, default=0), sum(lams)


def greedy_starts(m):
    """The three greedy orders the search scores: the plain one, then twice
    the one opened by the last element of the order before."""
    orders = [_greedy_order(m)[0]]
    for _ in range(2):
        orders.append(_greedy_order(m, orders[-1][-1])[0])
    return orders


def reference_refined_greedy(m):
    """The whole greedy, rank by rank: the three starts are built and scored
    from their prefixes, the first of equal scores wins, and every move's
    order is rebuilt and scored the same way; the first (i, j) in scan
    order wins ties."""
    orders = [reference_greedy_order(m)]
    for _ in range(2):
        orders.append(reference_greedy_order(m, orders[-1][-1]))
    order = min(orders, key=lambda start: spine_score(m, start))
    while True:
        best, chosen = spine_score(m, order), None
        for i in range(m.n):
            for j in range(m.n):
                if i != j:
                    moved = order[:]
                    moved.insert(j, moved.pop(i))
                    score = spine_score(m, moved)
                    if score < best:
                        best, chosen = score, moved
        if chosen is None:
            break
        order = chosen
    tree = caterpillar_tree(m.n, order)
    return tree, width(m, tree)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_greedy_order_matches_the_rank_by_rank_reference(m):
    if m.n == 0:
        with pytest.raises(ValueError):
            greedy_branch_decomposition(m)
        return
    for first in (None, *range(m.n)):
        order, sweep = _greedy_order(m, first)
        assert order == reference_greedy_order(m, first)
        assert sweep == prefix_sweep(m, order)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_greedy_matches_the_rank_by_rank_reference(m):
    if m.n == 0:
        return
    tree, w = greedy_branch_decomposition(m)
    assert (tree, w) == reference_refined_greedy(m)
    assert w == width(m, tree)
    for order in greedy_starts(m):
        assert w <= width(m, caterpillar_tree(m.n, order))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_greedy_matches_the_reference_on_random_matrices(q):
    # at 8..14 columns a quarter to a third of the chosen starts move,
    # where the small instances above mostly keep the first phase's order
    rng = random.Random(q)
    field = field_of_order(q)
    moved = 0
    for _ in range(30):
        n, d = rng.randrange(8, 15), rng.randrange(3, 7)
        matrix = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(d)]
        m = MatroidInstance.linear(field, matrix)
        starts = greedy_starts(m)
        chosen = min(starts, key=lambda order: spine_score(m, order))
        tree, w = greedy_branch_decomposition(m)
        assert (tree, w) == reference_refined_greedy(m)
        assert all(w <= width(m, caterpillar_tree(n, order)) for order in starts)
        moved += tree != caterpillar_tree(n, chosen)
    assert moved >= 5


@pytest.mark.parametrize("n", range(4, 25))
def test_pruned_move_scoring_matches_the_full_scan(n):
    # random λ, cl and cl* records; λ drawn from a range of one or two
    # values, and closures that hold every element or none, force ties
    rng = random.Random(n)
    for low, high in ((1, 1), (0, 1), (1, 2), (0, 3), (0, 5)):
        for density in (0.0, 0.3, 0.7, 1.0):

            def closures():
                return [sum(1 << e for e in range(n) if rng.random() < density) for _ in range(n + 1)]

            order = rng.sample(range(n), n)
            lam = [rng.randint(low, high) for _ in range(n + 1)]
            prefix = (lam, closures(), closures())
            suffix = (lam, closures(), closures())
            assert _best_move(order, prefix, suffix) == best_move_by_full_scan(order, prefix, suffix)


def test_refinement_beats_the_greedy_order_on_five_columns():
    # the plain greedy order splits {0, 1} from {2, 3, 4} with λ = 2; the
    # order opened by its last element, 4, has width 1 before any move
    m = MatroidInstance.linear(GF2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    plain, second, _ = greedy_starts(m)
    assert plain == [0, 1, 3, 2, 4]
    assert width(m, caterpillar_tree(5, plain)) == 2
    assert second[0] == 4 and width(m, caterpillar_tree(5, second)) == 1
    tree, w = greedy_branch_decomposition(m)
    assert w == width(m, tree) == 1


# perfbench's corpus matrix generators.shuffled_banded(3, 20, 3, 3), behind
# the search-shuffled instance shuffled-gf3-b3-n20-3 at every seed: a GF(3)
# band-3 matrix, whose column order has width 3, with its columns shuffled
SHUFFLED_GF3_B3_N20_3 = [
    "00000000000100000010",
    "00000000000110010020",
    "00020000000120010210",
    "00210000020020010100",
    "00010010020000100000",
    "02201000010000000000",
    "02001000001001100000",
    "00002000100001002000",
    "10000002102000002000",
    "10000200200000000001",
    "10000001000000000002",
    "00000100000000000002",
]


def test_refinement_width_on_a_shuffled_band():
    # below the planted 3: the plain order has width 5 and climbs only to 4,
    # while the third start, opened by the last element of the second, has
    # width 2 before any move
    m = MatroidInstance.linear(GF3, [[int(x) for x in row] for row in SHUFFLED_GF3_B3_N20_3])
    plain, _, third = greedy_starts(m)
    assert width(m, caterpillar_tree(20, plain)) == 5
    assert width(m, caterpillar_tree(20, third)) == 2
    tree, w = greedy_branch_decomposition(m)
    assert w == width(m, tree) == 2


# generators.shuffled_banded(3, 40, 3, 0): a GF(3) band-3 matrix, whose
# column order has width 3, with its columns shuffled
SHUFFLED_GF3_B3_N40_0 = [
    "0000000100000000000000000000000000001000",
    "0000000000100000000000010000000000000000",
    "0000000100100000000002020000000000002001",
    "0000000000000000000202020000000000000102",
    "0000000002000100000001000000000000000001",
    "0001000000000200000000000000020000000200",
    "0002000002000200002000000000020000100000",
    "0000000000000002001000000000210000100000",
    "0000020000001002002000000000200000200000",
    "0000020000000002000000000001202000000000",
    "0000120000002000000000002000001000000000",
    "0200000010000000000000001001000000000000",
    "0100100010000000000000001100000000010000",
    "0000000020010020000000000000000000020000",
    "0000000000000010200000000100000020010000",
    "0000000000020010020000200000000020000000",
    "0000000000000000110000200020000010000020",
    "2020000000000000000000100010000000000010",
    "2000001000000000000000000020000200000020",
    "2000000000000000000020000000000102000000",
    "0000002000000000000000000000000201000000",
    "0000000000000000000000000000000000000000",
]


def test_a_later_start_leaves_a_local_minimum_on_a_shuffled_band():
    # no single move lowers the plain order's width 8; the order opened by
    # its last element climbs to 5
    m = MatroidInstance.linear(GF3, [[int(x) for x in row] for row in SHUFFLED_GF3_B3_N40_0])
    assert width(m, caterpillar_tree(40, _greedy_order(m)[0])) == 8
    tree, w = greedy_branch_decomposition(m)
    assert w == width(m, tree) <= 5


@pytest.mark.parametrize("field", [GF2, GF3])
def test_greedy_rank_memo_stays_linear(field):
    rng = random.Random(64)
    n = 64
    # a band, so that prefixes and rests share rows, plus random columns
    matrix = [
        [rng.randrange(field.q) if abs(3 * i - e) < 6 or rng.random() < 0.05 else 0 for e in range(n)]
        for i in range(n // 3)
    ]
    m = MatroidInstance.linear(field, matrix)
    # the greedy reads a linear instance's spans, so its rank work stays
    # linear in n: it asks no rank query at all
    with rank_calls() as calls:
        tree, w = greedy_branch_decomposition(m)
    assert calls == []
    assert w == width(m, tree)


SEARCH_FIELDS = (2, 3, 4, 5, 7, 9)

# SHA-256 of format_branch_tree(tree) and the width of every search over
# search_corpus(), recorded when the exact search became the subset DP,
# whose ties give other trees of the same widths.  A change that alters
# trees on purpose updates it and says why.
SEARCH_DIGEST = "83c82873267aedb4f9d722f2d5f9b007e1d727e6d8af3c082575d3768def3386"


def corpus_columns(rng, f, n):
    """n columns over f: sparse random ones, with zero columns, nonzero
    multiples of earlier columns and coloops (each alone in its own row)
    mixed in, in a shuffled order."""
    d = rng.randint(1, 5)
    columns = []  # None marks a coloop
    for _ in range(n):
        kind = rng.random()
        earlier = [col for col in columns if col and any(col)]
        if kind < 0.1:
            columns.append([0] * d)
        elif kind < 0.25 and earlier:
            c = rng.randrange(1, f.q)
            columns.append([f.mul(c, x) for x in rng.choice(earlier)])
        elif kind < 0.33:
            columns.append(None)
        else:
            columns.append([rng.randrange(1, f.q) if rng.random() < 0.6 else 0 for _ in range(d)])
    rng.shuffle(columns)
    rows = [[col[i] if col else 0 for col in columns] for i in range(d)]
    rows += [[int(e == k) for e in range(n)] for k, col in enumerate(columns) if col is None]
    return rows


def corpus_band(rng, f, n, band):
    """A band matrix (column j on rows j//2 .. j//2+band-1, top entry
    nonzero) with its columns shuffled."""
    rows = [[0] * n for _ in range((n - 1) // 2 + band)]
    for j in range(n):
        rows[j // 2][j] = rng.randrange(1, f.q)
        for i in range(j // 2 + 1, j // 2 + band):
            rows[i][j] = rng.randrange(f.q)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in rows]


def search_corpus(seed=20261019):
    """(search, instance) pairs: the exact search for n <= 9 and the greedy
    for n up to 40, over linear instances of every field of SEARCH_FIELDS
    (random with loops, parallel pairs and coloops, and shuffled bands),
    graphic instances with self-loops and parallel edges, and uniform
    ones."""
    rng = random.Random(seed)
    for q in SEARCH_FIELDS:
        f = field_of_order(q)
        for n in (1, 2, 3, 5, 6, 7, 8, 9, 9, 9):
            yield exact_branch_decomposition, MatroidInstance.linear(f, corpus_columns(rng, f, n))
        for n in (10, 14, 20, 28, 40):
            yield greedy_branch_decomposition, MatroidInstance.linear(f, corpus_columns(rng, f, n))
        for n in (9, 16, 30, 40):
            band = rng.randint(1, 3)
            search = exact_branch_decomposition if n <= 9 else greedy_branch_decomposition
            yield search, MatroidInstance.linear(f, corpus_band(rng, f, n, band))
    for n in (6, 9, 12, 24):
        v = rng.randint(3, 7)
        edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(n)]
        search = exact_branch_decomposition if n <= 9 else greedy_branch_decomposition
        yield search, MatroidInstance.graphic(v, edges)
    for r, n in ((0, 4), (2, 7), (4, 9), (3, 15), (5, 30)):
        search = exact_branch_decomposition if n <= 9 else greedy_branch_decomposition
        yield search, MatroidInstance.uniform(r, n)


def test_search_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    searches = {exact_branch_decomposition: 0, greedy_branch_decomposition: 0}
    for search, m in search_corpus():
        tree, w = search(m)
        assert w == width(m, tree)
        digest.update(f"{format_branch_tree(tree)}# width {w}\n".encode())
        searches[search] += 1
    assert min(searches.values()) >= 40
    assert digest.hexdigest() == SEARCH_DIGEST, digest.hexdigest()


@st.composite
def graphic_instances(draw):
    """A graph on 1..8 vertices with up to 16 edges, self-loops and
    parallel edges among them."""
    v = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(min_value=0, max_value=v - 1)
    return MatroidInstance.graphic(v, draw(st.lists(st.tuples(vertex, vertex), max_size=16)))


@settings(max_examples=100, deadline=None)
@given(graphic_instances())
def test_the_greedy_runs_graphic_instances_on_their_incidence_matrix(m):
    # the greedy reads cl and cl* off the spans of the GF(2) incidence
    # matrix, so it asks the union-find oracle nothing, leaves the twin's
    # column bits unbuilt, and finds the tree it finds on that matrix as a
    # linear instance
    if m.n == 0:
        return
    with rank_calls() as calls:
        tree, w = greedy_branch_decomposition(m)
    assert calls == []
    assert "column_bits" not in vars(m.twin)
    assert (tree, w) == greedy_branch_decomposition(m.twin)
    assert m.twin is m.twin  # built once per instance
    assert w == width(m, tree)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_the_search_runs_on_incremental_rank_state(q):
    # on a linear instance the greedy order updates one split per step
    # instead of asking the instance for a rank, a closure or coloops, and
    # the exact search reads every rank from one table
    rng = random.Random(q)
    field = field_of_order(q)
    for n in (1, 5, 9, 30):
        d = rng.randint(1, 8)
        matrix = [[rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(d)]
        m = MatroidInstance.linear(field, matrix)
        with rank_calls() as calls:
            if n <= 9:
                exact_branch_decomposition(m)
            order, _ = _greedy_order(m)
        assert calls == []
        assert order == reference_greedy_order(m)


@pytest.mark.parametrize("n", [3, 7, 12])
def test_width_asks_the_full_rank_once(n):
    # one query per side of each of the 2n - 3 edges, and r(E) once
    rng = random.Random(n)
    m = MatroidInstance.linear(GF3, [[rng.randrange(3) for _ in range(n)] for _ in range(3)])
    tree = caterpillar_tree(n, list(range(n)))
    with rank_calls() as calls:
        w = width(m, tree)
    assert len(calls) == 2 * (2 * n - 3) + 1
    assert calls.count(m.full_set) == 1
    assert w == max(edge_width(m, tree, e) for e in tree.edges())


def test_exact_never_worse_than_greedy():
    # random matrices of 6 columns, then shuffled bands and random matrices
    # of 10..14 columns, past the enumeration the DP replaced
    rng = random.Random(13)
    for _ in range(10):
        matrix = [[rng.randrange(2) for _ in range(6)] for _ in range(3)]
        m = MatroidInstance.linear(GF2, matrix)
        _, exact_w = exact_branch_decomposition(m)
        _, greedy_w = greedy_branch_decomposition(m)
        assert exact_w <= greedy_w
    rng = random.Random(2008)
    for q in (2, 3):
        field = field_of_order(q)
        for n in (10, 12, 14):
            band = corpus_band(rng, field, n, rng.randint(2, 3))
            d = rng.randint(3, 6)
            dense = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(d)]
            for matrix in (band, dense):
                m = MatroidInstance.linear(field, matrix)
                tree, exact_w = exact_branch_decomposition(m)
                assert exact_w == width(m, tree)
                assert exact_w <= greedy_branch_decomposition(m)[1]


# ---------------------------------------------------------------------------
# rooting
# ---------------------------------------------------------------------------


def test_root_star3_gives_leaf_and_cherry():
    rooted = root_tree(star3(), (0, 3))
    kids = rooted.children[rooted.root]
    shapes = sorted(("leaf" if k < 3 else "cherry") for k in kids)
    assert shapes == ["cherry", "leaf"]
    masks = rooted.subtree_masks()
    assert masks[rooted.root] == 0b111


def test_root_caterpillar_end_edge_is_left_deep():
    tree = caterpillar_tree(5, [0, 1, 2, 3, 4])
    (spine_end,) = tree.adj[4]
    rooted = root_tree(tree, (4, spine_end))
    depth = 0
    node = rooted.root
    while node >= 5:
        kids = rooted.children[node]
        inner_kids = [k for k in kids if k >= 5]
        assert len(inner_kids) <= 1
        node = inner_kids[0] if inner_kids else kids[0]
        depth += 1
    assert depth == 4  # n - 1 inner nodes strung in a chain


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_rooted_tree_has_n_minus_1_inner_nodes(n):
    order = list(range(n))
    tree = caterpillar_tree(n, order)
    rooted = root_tree(tree)
    assert len(rooted.children) == n - 1


def test_rooting_preserves_bipartitions_and_width():
    m = fano()
    tree, w = exact_branch_decomposition(m)
    full = m.full_set
    unrooted = {tree.side_mask(u, v) for u, v in tree.edges()}
    unrooted |= {full & ~mask for mask in unrooted}
    for edge in tree.edges():
        rooted = root_tree(tree, edge)
        masks = rooted.subtree_masks()
        rooted_parts = {masks[x] for x in rooted.children} - {full}
        assert rooted_parts <= unrooted
        rooted_width = max(
            m.rank(mask) + m.rank(full & ~mask) - m.rank(full) for mask in rooted_parts
        )
        assert rooted_width == w


def test_root_single_leaf():
    rooted = root_tree(BranchTree(1, {0: ()}))
    assert rooted.root == 0
    assert rooted.children == {}


def test_default_root_edge_deterministic():
    tree = caterpillar_tree(5, [0, 1, 2, 3, 4])
    assert default_root_edge(tree) == default_root_edge(caterpillar_tree(5, [0, 1, 2, 3, 4]))


def test_default_root_edge_is_the_brute_force_minimum():
    # smallest (min leaf, mask) of the side away from leaf 0, over every edge
    def brute(tree):
        keys = {}
        for u, v in tree.edges():
            near, away = (u, v) if brute_side_mask(tree, v, u) & 1 else (v, u)
            mask = brute_side_mask(tree, near, away)
            keys[(mask & -mask).bit_length() - 1, mask] = (u, v)
        return keys[min(keys)]

    rng = random.Random(3)
    gf3 = FieldSpec(3)
    trees = [caterpillar_tree(n, rng.sample(range(n), n)) for n in range(2, 12)]
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(2, 8)
        m = MatroidInstance.linear(gf3, [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)])
        trees += [exact_branch_decomposition(m)[0], greedy_branch_decomposition(m)[0]]
    for tree in trees:
        assert default_root_edge(tree) == brute(tree)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_unrooted_roundtrip():
    tree, _ = exact_branch_decomposition(fano())
    again = parse_branch_tree(format_branch_tree(tree))
    assert isinstance(again, BranchTree)
    assert {frozenset((u, v)) for u, v in again.edges()} == {
        frozenset((u, v)) for u, v in tree.edges()
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_caterpillar_roundtrip(n):
    # n <= 2 trees are written with no node lines and read back in their forced shape
    tree = caterpillar_tree(n, list(range(n)))
    assert parse_branch_tree(format_branch_tree(tree)) == tree


def test_unrooted_text_orients_away_from_leaf_0():
    # leaf 0 hangs off the middle of the spine: its inner neighbor lists all
    # three neighbors, every other inner node the two away from leaf 0
    tree = caterpillar_tree(5, [2, 3, 0, 1, 4])
    assert format_branch_tree(tree) == "bd n=5\nnode 5 L2 L3\nnode 6 L0 5 7\nnode 7 L1 L4\n"


def test_rooted_roundtrip():
    rooted = root_tree(exact_branch_decomposition(u23())[0])
    again = parse_branch_tree(format_branch_tree(rooted))
    assert isinstance(again, RootedBranchTree)
    assert again == rooted


def test_rooted_two_leaf_file():
    rooted = root_tree(BranchTree(2, {0: (1,), 1: (0,)}))
    text = format_branch_tree(rooted)
    again = parse_branch_tree(text)
    assert again.children[again.root] == (0, 1)


def test_parse_branch_tree_errors():
    with pytest.raises(ParseError):
        parse_branch_tree("node 3 L0 L1 L2\n")  # missing header
    with pytest.raises(ParseError):
        parse_branch_tree("bd n=3\nnode 3 L0 L9 L2\n")
    with pytest.raises(ParseError):
        parse_branch_tree("bd n=3\nnode 1 L0 L1 L2\n")  # id collides with leaves
    with pytest.raises(ParseError):
        parse_branch_tree("bd n=4\nnode 4 L0 L1 L2\n")  # leaf 3 missing
    with pytest.raises(ParseError, match="leaf 0 must have degree 1"):
        # enough node lines to pass the count check, so the shape check
        # behind it names the defect (leaf 3 missing, leaf 0 used twice)
        parse_branch_tree("bd n=4\nnode 4 L0 L1 L2\nnode 5 L0 L1\n")


@pytest.mark.parametrize("root", ["", "root L0\n"])
def test_parse_refuses_a_huge_declared_n_at_once(root):
    # one node line cannot hold a tree on 10**12 leaves; nothing of size n
    # may be built before that is noticed.  The n = 10**6 parse goes first:
    # without the count check it fails here in about a second, instead of
    # the 10**12 parse allocating until the process is killed
    with pytest.raises(ParseError, match="^line 1: n=1000000 needs 99999[89] node lines, found 1"):
        parse_branch_tree("bd n=1000000\nnode 1000000 L0 L1\n" + root)
    with pytest.raises(ParseError, match="^line 2: n=1000000000000 needs 99999999999[89] node lines, found 1"):
        parse_branch_tree("# hostile\nbd n=1000000000000\nnode 1000000000000 L0 L1\n" + root)


@pytest.mark.parametrize(
    "text,line",
    [
        ("bd n=x\n", 1),
        ("# header below\nbd n=3\nnode x L0 4\n", 3),
        ("bd n=3\nnode 3 L0 4\nnode 4 L1 Lx\nroot 3\n", 3),
        ("bd n=3\nnode 3 L0 y\nnode 4 L1 L2\nroot 3\n", 2),
        ("bd n=3\nnode 3 L0 4\nnode 4 L1 L2\n\nroot z\n", 5),
    ],
)
def test_parse_branch_tree_bad_tokens_name_their_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_branch_tree(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text,message",
    [
        # a cycle through the root: the walk down from it would never end
        ("bd n=2\nnode 2 L0 3\nnode 3 L1 2\nroot 2\n", "tree at node 2: root appears as a child"),
        ("bd n=2\nnode 2 L0 L1\nnode 3 2 7\nroot 3\n", "tree at node 3: child 7 is undefined"),
        ("bd n=3\nnode 3 L0 4\nnode 4 L1 L1\nroot 3\n", "tree at node 1: referenced 2 times"),
        (
            "bd n=4\nnode 4 L0 L1\nnode 5 6 L2\nnode 6 5 L3\nroot 4\n",
            "tree at node 2: not reachable from the root",
        ),
    ],
)
def test_parse_rooted_tree_checks_the_tree(text, message):
    with pytest.raises(ParseError, match=f"^line 1: {message}"):
        parse_branch_tree(text)


@pytest.mark.parametrize(
    "n,children,root,message",
    [
        # a cycle through the root: the walk down from it would never end
        (3, {3: (0, 4), 4: (1, 3)}, 3, "tree at node 3: root appears as a child"),
        (3, {3: (0, 4), 4: (1, 1)}, 3, "tree at node 1: referenced 2 times; expected once"),
        (3, {3: (0, 4), 4: (1, 2, 5), 5: ()}, 3, "arity at node 4: 3 children; expected 2"),
        (3, {1: (0, 2)}, 1, "leaf bijection: leaf elements [0, 2] are not exactly 0..2"),
    ],
)
def test_rooted_tree_checks_its_shape(n, children, root, message):
    with pytest.raises(ValueError) as err:
        RootedBranchTree(n, children, root)
    assert str(err.value) == message
