"""Building decompositions from representations, and their geometry."""

import copy
import hashlib
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GF2,
    GF3,
    construct_exact,
    construct_with_data,
    fano,
    galois_number,
    label_mismatch,
    left_deep_rooted_tree,
    mk4_graphic,
    mk4_linear,
    named_corpus,
    parallel_coloop,
    path_caterpillar_decomposition,
    path_matroid,
    u23,
)
from decompwidth import (
    MatroidInstance,
    construct,
    dw_width,
    eval_rank,
    exact_branch_decomposition,
    field_of_order,
    greedy_branch_decomposition,
    incidence_matrix,
    intersect,
    root_tree,
    rref,
)
from decompwidth import gf
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, node_states, serialize


def test_u23_star_construction():
    dec, width = construct_exact(u23())
    assert width == 1
    assert dw_width(dec) == 1
    for subset in range(8):
        assert eval_rank(dec, subset) == u23().rank(subset)


def test_all_loops_construction():
    m = MatroidInstance.linear(GF2, [[0, 0, 0]])
    dec, _ = construct_exact(m)
    for node in dec.nodes.values():
        if isinstance(node, Leaf):
            assert node.loop
        else:
            assert node.palette == 1
            assert all(x == 0 for row in node.defect for x in row)
    assert all(eval_rank(dec, s) == 0 for s in range(8))


def test_fano_bound_and_exhaustive_agreement():
    m = fano()
    dec, width = construct_exact(m)
    assert width == 2
    assert dw_width(dec) <= 4  # (q^(k+1) - q(k+1) + k) / (q-1)^2 at q=2, k=2
    for subset in range(128):
        assert eval_rank(dec, subset) == m.rank(subset)


def test_parallel_pair_plus_coloop_ranks():
    # the coloop's leaf boundary is trivial; color 1 must alias the trivial
    # space or the root label overshoots (rank 3 for the full rank-2 set)
    m = parallel_coloop()
    dec, _ = construct_exact(m)
    for subset in range(8):
        assert eval_rank(dec, subset) == m.rank(subset)
    assert eval_rank(dec, 0b111) == 2


def test_mk4_constructed_against_graphic_oracle():
    dec, _ = construct_exact(mk4_linear())
    oracle = mk4_graphic()
    for subset in range(64):
        assert eval_rank(dec, subset) == oracle.rank(subset)


def test_boundary_dimension_bounded_by_width():
    m = fano()
    tree, width = exact_branch_decomposition(m)
    _, data = construct_with_data(m, root_tree(tree))
    for node_data in data.values():
        assert node_data.boundary.dim <= width


def random_linear_instances(seed=11):
    """Eight seeded small matrices over each of GF(2), GF(3), GF(4), GF(5), GF(9)."""
    rng = random.Random(seed)
    out = []
    for q in (2, 3, 4, 5, 9):
        for _ in range(8):
            rows, cols = rng.randint(1, 4), rng.randint(1, 8)
            matrix = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
            out.append(MatroidInstance.linear(field_of_order(q), matrix))
    return out


def test_boundaries_meet_the_inside_and_outside_spans():
    # the top-down recursion must give span(E_v) meet span(E - E_v) at every node
    instances = [m for _, m, _ in named_corpus() if m.kind == "linear"] + random_linear_instances()
    for m in instances:
        for search in (exact_branch_decomposition, greedy_branch_decomposition):
            rooted = root_tree(search(m)[0])
            masks = rooted.subtree_masks()
            for node, node_data in construct_with_data(m, rooted)[1].items():
                inside = rref(m.field, m.dim, [m.columns[e] for e in range(m.n) if masks[node] >> e & 1])
                outside = rref(m.field, m.dim, [m.columns[e] for e in range(m.n) if not masks[node] >> e & 1])
                assert node_data.boundary == intersect(inside, outside)


def test_defects_within_zero_to_width():
    for make in (u23, fano, mk4_linear):
        m = make()
        tree, width = exact_branch_decomposition(m)
        dec = construct(m, root_tree(tree))
        for node in dec.nodes.values():
            if isinstance(node, Inner):
                for row in node.defect:
                    for value in row:
                        assert 0 <= value <= width


def test_palette_bounded_by_boundary_subspace_count():
    for make in (u23, fano, mk4_linear):
        m = make()
        rooted = root_tree(exact_branch_decomposition(m)[0])
        dec, data = construct_with_data(m, rooted)
        for node_id, node in dec.nodes.items():
            if isinstance(node, Inner):
                assert node.palette <= galois_number(data[node_id].boundary.dim, m.field.q)
                assert node.palette == len(data[node_id].color_spaces)


def test_colors_track_boundary_traces():
    # the subspace a color names must be span(F under v) meet boundary(v)
    for make in (u23, parallel_coloop, mk4_linear):
        m = make()
        rooted = root_tree(exact_branch_decomposition(m)[0])
        dec, data = construct_with_data(m, rooted)
        masks = rooted.subtree_masks()
        for subset in range(1 << m.n):
            states = node_states(dec, subset)
            for node_id, node_data in data.items():
                selected = [m.columns[e] for e in range(m.n) if subset >> e & 1 and masks[node_id] >> e & 1]
                trace = intersect(rref(m.field, m.dim, selected), node_data.boundary)
                color = states[node_id][0]
                spaces = node_data.color_spaces
                if node_id < m.n and color == 1 and spaces[1].is_trivial():
                    # loop/coloop leaves alias color 1 to the trivial space
                    assert trace.is_trivial()
                else:
                    assert spaces[color] == trace


def test_construct_requires_linear_backend():
    with pytest.raises(ValueError):
        construct(mk4_graphic(), left_deep_rooted_tree(6))


def test_construct_requires_matching_leaf_count():
    with pytest.raises(ValueError):
        construct(u23(), left_deep_rooted_tree(4))


def test_path_matroid_left_deep_matches_synthetic():
    for n in (2, 3, 6, 9):
        built = construct(path_matroid(n), left_deep_rooted_tree(n))
        assert built == path_caterpillar_decomposition(n)


def test_single_element_construction():
    m = MatroidInstance.linear(GF2, [[1]])
    dec, _ = construct_exact(m)
    assert eval_rank(dec, 1) == 1
    m = MatroidInstance.linear(GF2, [[0]])
    dec, _ = construct_exact(m)
    assert eval_rank(dec, 1) == 0
    assert dec.nodes[0].loop


# ---------------------------------------------------------------------------
# per-node work in separator coordinates
# ---------------------------------------------------------------------------


def ladder_matroid(k):
    """The 2 x k ladder's GF(2) incidence columns: rung i, then the rails
    from column i to i + 1."""
    edges = []
    for i in range(k):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < k:
            edges += [(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3)]
    return MatroidInstance.linear(GF2, incidence_matrix(2 * k, edges))


def banded_matroid(n, band=5, field=GF2):
    """Column j on rows j//2 .. j//2 + band - 1, its top entry 1."""
    rng = random.Random(n)
    rows = [[0] * n for _ in range((n - 1) // 2 + band)]
    for j in range(n):
        rows[j // 2][j] = 1
        for i in range(j // 2 + 1, j // 2 + band):
            rows[i][j] = rng.randrange(field.q)
    return MatroidInstance.linear(field, rows)


def generic_construct(m, tree):
    """The decomposition ``construct`` builds in row-tuple frames, which
    serve every field but GF(2) and GF(3), on any linear instance."""
    module = importlib.import_module("decompwidth.construct")
    nodes = {node: entry for node, entry, *_ in module._tables(m, tree, module._row_field(m.field))}
    return KDecomposition(tree.n, nodes, tree.root)


def subspace_work(monkeypatch, m):
    """Calls to the row-tuple frames' rref, _intersect and _meet plus the
    table pairs their pair_traces yields, over the column-order caterpillar,
    and the longest vector any of them returns or, for _meet, eliminates."""
    module = importlib.import_module("decompwidth.construct")
    lengths = []
    with monkeypatch.context() as patch:

        def recorded_rref(field, d, rows, op=module.rref):
            lengths.append(d)
            return op(field, d, rows)

        def recorded_intersect(field, d, rows1, rows2, op=module._intersect):
            lengths.append(d)
            return op(field, d, rows1, rows2)

        def recorded_pairs(field, d, *args, op=module.pair_traces):
            for trace, joined in op(field, d, *args):
                lengths.append(d)
                yield trace, joined

        def recorded_meet(field, parts, keep, joint, op=module._meet):
            lengths.append(len(joint))
            return op(field, parts, keep, joint)

        patch.setattr(module, "rref", recorded_rref)
        patch.setattr(module, "_intersect", recorded_intersect)
        patch.setattr(module, "pair_traces", recorded_pairs)
        patch.setattr(module, "_meet", recorded_meet)
        generic_construct(m, left_deep_rooted_tree(m.n))
    return len(lengths), max(lengths)


def int_work(monkeypatch, m):
    """Calls to the window frames' kernels (``_gf2_*`` over GF(2), ``_g3_*``
    over GF(3)) plus the table pairs their pair_traces yields, over the
    column-order caterpillar, and the largest bit_length of any int they
    take or give, a GF(3) vector's two planes each on its own: (calls,
    longest space row, longest Zassenhaus or meet stack row)."""
    module = importlib.import_module("decompwidth.construct")
    prefix, field = ("_gf2_", "_GF2") if m.field.q == 2 else ("_g3_", "_GF3")
    kernels = getattr(module, field)
    calls, spaces, stacks = [], [0], [0]

    def planes(vectors):
        return [x for v in vectors for x in (v if isinstance(v, tuple) else (v,))]

    def longest(vectors):
        return max([x.bit_length() for x in planes(vectors)], default=0)

    def is_vector(v):
        return isinstance(v, int) or isinstance(v, tuple) and len(v) == 2 and all(isinstance(x, int) for x in v)

    def recorded(name, op, returns_space):
        def call(*args):
            calls.append(name)
            for arg in args:
                if isinstance(arg, list) and arg and is_vector(arg[0]):
                    stacks.append(longest(arg))
            result = op(*args)
            (spaces if returns_space else stacks).append(longest(result))
            return result

        return call

    def recorded_pairs(width, bound, lefts, rights):
        spaces.append(longest([x for space in (bound, *lefts, *rights) for x in space]))
        for trace, joined in kernels.pair_traces(width, bound, lefts, rights):
            calls.append("pair")
            spaces.append(longest(trace))
            yield trace, joined

    with monkeypatch.context() as patch:
        for name in ("rref", "extend"):
            patch.setattr(module, prefix + name, recorded(name, getattr(module, prefix + name), False))
        meet = recorded("meet", kernels.meet, True)
        intersect = recorded("intersect", kernels.intersect, True)
        patch.setattr(module, field, kernels._replace(meet=meet, intersect=intersect, pair_traces=recorded_pairs))
        construct(m, left_deep_rooted_tree(m.n))
    return len(calls), max(spaces), max(stacks)


def test_construct_work_per_element_stays_flat_on_ladders(monkeypatch):
    # the ambient dimension is 2k; a separator holds at most 2 rows, and
    # the union of two children's separators at most 3
    per_element = []
    for k in (16, 32, 64):
        m = ladder_matroid(k)
        calls, longest = subspace_work(monkeypatch, m)
        assert longest <= 3, k
        per_element.append(calls / m.n)
    for small, large in zip(per_element, per_element[1:]):
        assert large < 1.1 * small, per_element


def test_construct_vectors_stay_band_long_on_banded_matrices(monkeypatch):
    for n in (20, 40, 80):
        m = banded_matroid(n)
        assert m.dim == (n - 1) // 2 + 5
        _, longest = subspace_work(monkeypatch, m)
        assert longest <= 5, n


def test_gf2_construct_work_per_element_stays_flat_on_ladders(monkeypatch):
    # every window spans at most 3 rows, so a space row has at most 3 bits
    # and a stacked row at most 6
    per_element = []
    for k in (16, 32, 64):
        m = ladder_matroid(k)
        calls, space, stack = int_work(monkeypatch, m)
        assert space <= 3 and stack <= 6, (k, space, stack)
        per_element.append(calls / m.n)
    for small, large in zip(per_element, per_element[1:]):
        assert large < 1.1 * small, per_element


def test_gf2_construct_ints_stay_band_long_on_banded_matrices(monkeypatch):
    # a window spans at most the band's 5 rows, whatever the ambient
    # dimension; stacks put a second window above the first.  Over GF(3)
    # the bound holds for each bit plane
    for field in (GF2, GF3):
        for n in (20, 40, 80):
            m = banded_matroid(n, field=field)
            calls, space, stack = int_work(monkeypatch, m)
            assert calls > n and space <= 5 and stack <= 10, (field, n, calls, space, stack)


def test_construct_checks_a_few_subspaces_per_tree_node(monkeypatch):
    # every space is a tuple of row tuples, ints or bit-plane pairs once the
    # matrix entries are checked; only the leaves' rref builds a checked
    # subspace, one per element, in every frame
    checks = []
    check = gf.Subspace._check_canonical

    def counted(space):
        checks.append(1)
        check(space)

    monkeypatch.setattr(gf.Subspace, "_check_canonical", counted)
    cases = [banded_matroid(n) for n in (20, 40, 80, 160)]
    cases += [ladder_matroid(k) for k in (16, 32, 64)]
    cases += [banded_matroid(n, 3, GF3) for n in (20, 40, 80)]
    for m in cases:
        for build in (generic_construct, construct):
            checks.clear()
            build(m, left_deep_rooted_tree(m.n))
            assert len(checks) <= m.n, (m.n, len(checks), build)


@st.composite
def small_matrices(draw):
    """A GF(2) or GF(3) instance of 1-6 rows and 1-9 columns, about one
    column in five zero."""
    field = draw(st.sampled_from((GF2, GF3)))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=9))
    entry = st.integers(min_value=0, max_value=field.q - 1)
    columns = [
        [0] * rows if draw(st.integers(min_value=0, max_value=4)) == 0 else draw(st.lists(entry, min_size=rows, max_size=rows))
        for _ in range(cols)
    ]
    return MatroidInstance.linear(field, [[col[i] for col in columns] for i in range(rows)])


def gf2_trees(m):
    """The exact search's, the greedy's and the left-deep tree on m."""
    trees = [left_deep_rooted_tree(m.n)]
    if m.n > 1:
        trees += [root_tree(exact_branch_decomposition(m)[0]), root_tree(greedy_branch_decomposition(m)[0])]
    return trees


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_gf2_path_builds_the_row_tuple_paths_decomposition(m):
    # row windows serve GF(2) on ints and GF(3) on bit-plane pairs
    for tree in gf2_trees(m):
        assert serialize(construct(m, tree)) == serialize(generic_construct(m, tree))


def window_vectors(m, window, space):
    """A space on a GF(2) or GF(3) row window, as vectors of GF(q)^d: bit k
    of a GF(2) int, or of a GF(3) pair's plus and minus planes, is row
    lo + k."""
    lo = window[0]
    vectors = []
    for v in space:
        plus, minus = (v, 0) if isinstance(v, int) else v
        vectors.append([(plus >> i - lo & 1) + 2 * (minus >> i - lo & 1) if i >= lo else 0 for i in range(m.dim)])
    return vectors


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_window_frames_hold_the_row_tuple_frames_spaces(m):
    # every boundary and color space, lifted from its row window into
    # GF(q)^d, is the one the row-tuple frames give, and its tuple is a
    # basis: equal tables alone would not show a wrong boundary
    module = importlib.import_module("decompwidth.construct")
    field = module._GF2 if m.field.q == 2 else module._GF3
    for tree in gf2_trees(m):
        data = construct_with_data(m, tree)[1]
        for node, _, window, bound, color_spaces in module._tables(m, tree, field):
            spaces = (bound, *color_spaces)
            lifted = [rref(m.field, m.dim, window_vectors(m, window, s)) for s in spaces]
            assert [u.dim for u in lifted] == [len(s) for s in spaces]
            assert lifted[0] == data[node].boundary
            assert lifted[1:] == data[node].color_spaces


def test_gf2_path_matches_on_loops_coloops_and_larger_matrices():
    cases = [MatroidInstance.linear(GF2, [[0, 0, 0]]), MatroidInstance.linear(GF2, [[0] * 5] * 3), parallel_coloop()]
    cases += [MatroidInstance.linear(GF3, [[0, 0, 0]]), MatroidInstance.linear(GF3, [[0] * 5] * 3)]
    cases.append(MatroidInstance.linear(GF3, [[1, 2, 0], [0, 0, 1]]))  # a parallel pair plus a coloop
    rng = random.Random(28)
    for field in (GF2, GF3):
        for _ in range(20):
            rows, cols = rng.randint(3, 8), rng.randint(10, 16)
            density = rng.choice((0.15, 0.4, 0.7))
            matrix = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
            if field is GF3:
                matrix = [[x * rng.randrange(1, 3) for x in row] for row in matrix]
            cases.append(MatroidInstance.linear(field, matrix))
    for m in cases:
        trees = gf2_trees(m) if m.n <= 9 else [left_deep_rooted_tree(m.n), root_tree(greedy_branch_decomposition(m)[0])]
        for tree in trees:
            assert serialize(construct(m, tree)) == serialize(generic_construct(m, tree)), m.matrix


# ---------------------------------------------------------------------------
# interchangeability of same-colored subsets
# ---------------------------------------------------------------------------


def test_lemma_consistency_constructed_u23():
    m = u23()
    assert label_mismatch(construct_exact(m)[0], m) is None


def test_lemma_consistency_constructed_fano():
    m = fano()
    assert label_mismatch(construct_exact(m)[0], m) is None


def test_lemma_consistency_catches_merged_colors():
    # collapse a non-trivial color onto 0 below the root: sets that interact
    # differently with the outside now share a color, and a label goes wrong
    m = u23()
    mutated = copy.deepcopy(construct_exact(m)[0])
    target = next(
        node_id
        for node_id, node in mutated.nodes.items()
        if isinstance(node, Inner) and node_id != mutated.root and node.palette > 1
    )
    node = mutated.nodes[target]
    node.color = [[0] * len(row) for row in node.color]
    assert label_mismatch(mutated, m) == (0b111, 3)


def test_node_labels_are_subtree_ranks():
    # every node's label is the rank of the subset's part under it, which
    # makes same-colored subsets interchangeable (see label_mismatch)
    cases = [(m, construct_exact(m)[0]) for _, m, _ in named_corpus()]
    for m in random_linear_instances():
        cases.append((m, construct(m, root_tree(greedy_branch_decomposition(m)[0]))))
    for m, dec in cases:
        assert label_mismatch(dec, m) is None


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

DIGEST_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 1024)

# SHA-256 of the corpus below: the .dw text of every constructed
# decomposition, then the boundary and color-space rows of
# construct_with_data, then the boundary rows alone.  A change that alters
# decompositions on purpose updates it and says why: last when the exact
# search became the subset DP, whose ties give other trees of the same
# widths.
CORPUS_DIGEST = "4186b677eab21d15287f684b018d8bca8da71df6cb86818416b88640a0ca2962"


def digest_corpus(per_field=16, seed=20261018):
    """Seeded linear instances over every field of DIGEST_FIELDS, each with
    an exact tree for n <= 7 and a greedy tree otherwise."""
    rng = random.Random(seed)
    for q in DIGEST_FIELDS:
        f = field_of_order(q)
        for _ in range(per_field):
            rows, cols = rng.randint(2, 5), rng.randint(3, 11)
            matrix = [
                [rng.randrange(1, q) if rng.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            m = MatroidInstance.linear(f, matrix)
            search = exact_branch_decomposition if cols <= 7 else greedy_branch_decomposition
            yield m, root_tree(search(m)[0])


def test_construct_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for m, tree in digest_corpus():
        count += 1
        dec, data = construct_with_data(m, tree)
        assert serialize(dec) == serialize(construct(m, tree))
        digest.update(serialize(dec).encode())
        for node in sorted(data):
            spaces = [data[node].boundary, *data[node].color_spaces]
            digest.update(repr([s.rows for s in spaces]).encode())
        digest.update(repr([data[v].boundary.rows for v in sorted(data)]).encode())
    assert count >= 150
    assert digest.hexdigest() == CORPUS_DIGEST, digest.hexdigest()
