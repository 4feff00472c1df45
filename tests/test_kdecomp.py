"""Decomposition structure, rank evaluation, validation, serialization."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import construct_exact, fano, path_caterpillar_decomposition, u23
from decompwidth import (
    MatroidInstance,
    construct,
    dw_width,
    eval_rank,
    evaluate,
    field_of_order,
    greedy_branch_decomposition,
    root_tree,
    singleton_ranks,
    validate_structure,
    whitney_coefficients,
)
from decompwidth.errors import ParseError
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, node_states, parse, serialize


def two_loops_decomposition():
    return KDecomposition(
        2,
        {
            0: Leaf(0, True),
            1: Leaf(1, True),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        },
        2,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_empty_set_evaluates_to_zero():
    dec, _ = construct_exact(u23())
    assert eval_rank(dec, 0) == 0
    dec, _ = construct_exact(fano())
    assert eval_rank(dec, 0) == 0
    assert eval_rank(two_loops_decomposition(), 0) == 0


def test_u23_pair_rank():
    dec, _ = construct_exact(u23())
    assert eval_rank(dec, 0b101) == u23().rank(0b101) == 2


def test_fano_line_rank():
    # elements 0, 1, 2 carry the columns 001, 010, 011: a line of rank 2
    m = fano()
    assert m.rank(0b111) == 2
    dec, _ = construct_exact(m)
    assert eval_rank(dec, 0b111) == 2


def test_eval_rank_rejects_foreign_elements():
    dec = two_loops_decomposition()
    with pytest.raises(ValueError):
        eval_rank(dec, 0b100)


def test_eval_depends_only_on_inputs():
    dec, _ = construct_exact(u23())
    again = parse(serialize(dec))
    for subset in range(8):
        assert eval_rank(dec, subset) == eval_rank(again, subset)


def test_node_states_track_colors_and_labels():
    dec = two_loops_decomposition()
    states = node_states(dec, 0b11)
    assert states[0] == (1, 0)
    assert states[1] == (1, 0)
    assert states[2] == (0, 0)


def test_malformed_table_domain_raises():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            # table domain 1x1, too small for leaf color 1
            2: Inner((0, 1), 1, [[0]], [[0]]),
        },
        2,
    )
    with pytest.raises(ValueError):
        eval_rank(dec, 0b10)


def test_singleton_ranks_match_per_element_evaluation():
    for make in (u23, fano):
        dec, _ = construct_exact(make())
        assert singleton_ranks(dec) == [eval_rank(dec, 1 << e) for e in range(dec.n)]
    dec = path_caterpillar_decomposition(30)
    assert singleton_ranks(dec) == [1] * 30


def test_single_leaf_decomposition():
    dec = KDecomposition(1, {0: Leaf(0, False)}, 0)
    assert eval_rank(dec, 0b1) == 1
    assert eval_rank(dec, 0) == 0
    assert dw_width(dec) == 1
    assert singleton_ranks(dec) == [1]


# ---------------------------------------------------------------------------
# width
# ---------------------------------------------------------------------------


def test_width_counts_leaf_palettes():
    # all tables zero, inner palette {0}: the leaf palette {0, 1} sets K = 1
    assert dw_width(two_loops_decomposition()) == 1


def test_width_constructed_u23():
    dec, _ = construct_exact(u23())
    assert dw_width(dec) == 1


def test_width_constructed_fano_at_most_4():
    dec, _ = construct_exact(fano())
    assert dw_width(dec) <= 4


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def test_validate_constructed_ok():
    dec, _ = construct_exact(fano())
    assert validate_structure(dec) is None


def test_validate_empty_set_convention():
    dec = two_loops_decomposition()
    dec.nodes[2].color[0][0] = 0
    dec.nodes[2].defect[0][0] = 1
    defect = validate_structure(dec)
    assert defect is not None
    assert defect.kind == "empty-set convention"


def test_validate_arity():
    dec = KDecomposition(
        1,
        {0: Leaf(0, False), 1: Inner((0,), 1, [[0], [0]], [[0], [0]])},
        1,
    )
    defect = validate_structure(dec)
    assert defect.kind == "arity"


def test_validate_leaf_bijection():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(0, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        },
        2,
    )
    assert validate_structure(dec).kind == "leaf bijection"


def test_validate_palette_bound():
    dec = two_loops_decomposition()
    dec.nodes[2].color[1][1] = 3  # outside palette {0}
    assert validate_structure(dec).kind == "palette bound"


def test_validate_negative_defect():
    dec = two_loops_decomposition()
    dec.nodes[2].defect[1][0] = -1
    assert validate_structure(dec).kind == "palette bound"


def test_validate_shared_child():
    dec = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 0), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        },
        2,
    )
    assert validate_structure(dec).kind == "tree"


def test_validate_cycle():
    dec = KDecomposition(
        1,
        {
            0: Leaf(0, False),
            1: Inner((0, 2), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
            2: Inner((1, 0), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        },
        1,
    )
    assert validate_structure(dec) is not None


def test_validate_cycle_off_the_root():
    # every node is referenced once, but 5 and 6 only reach each other
    nodes = {e: Leaf(e, False) for e in range(4)}
    nodes[4] = Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    nodes[5] = Inner((6, 2), 1, [[0, 0]], [[0, 0]])
    nodes[6] = Inner((5, 3), 1, [[0, 0]], [[0, 0]])
    defect = validate_structure(KDecomposition(4, nodes, 4))
    assert str(defect) == "tree at node 2: not reachable from the root"


def orphan_cycle_decomposition():
    nodes = {e: Leaf(e, False) for e in range(4)}
    nodes[4] = Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    nodes[5] = Inner((6, 2), 1, [[0, 0]], [[0, 0]])
    nodes[6] = Inner((5, 3), 1, [[0, 0]], [[0, 0]])
    return KDecomposition(4, nodes, 4)


def third_child_decomposition():
    # a root with a third child holding element 2
    nodes = {e: Leaf(e, False) for e in range(3)}
    nodes[3] = Inner((0, 1, 2), 3, [[0, 1], [1, 2]], [[0, 0], [0, 0]])
    return KDecomposition(3, nodes, 3)


def shared_leaf_decomposition():
    # leaf 0 under both sides of the root; leaf 1 under neither
    nodes = {0: Leaf(0, False), 1: Leaf(1, False)}
    nodes[2] = Inner((0, 0), 2, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    return KDecomposition(2, nodes, 2)


def repeated_element_decomposition():
    nodes = {0: Leaf(0, False), 1: Leaf(0, False)}
    nodes[2] = Inner((0, 1), 2, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    return KDecomposition(2, nodes, 2)


MALFORMED = [
    (orphan_cycle_decomposition, "tree at node 2: not reachable from the root"),
    (third_child_decomposition, "arity at node 3: 3 children; expected 2"),
    (shared_leaf_decomposition, "tree at node 0: referenced 2 times; expected once"),
    (repeated_element_decomposition, "leaf bijection: leaf elements [0, 0] are not exactly 0..1"),
]


@pytest.mark.parametrize("make,message", MALFORMED)
def test_every_pass_refuses_a_malformed_shape(make, message):
    # no evaluation may return a value on a node map that is not one binary
    # tree whose leaves hold 0..n-1 once each
    passes = [
        lambda dec: eval_rank(dec, dec.full_set()),
        singleton_ranks,
        lambda dec: evaluate(dec, 2, 2),
        lambda dec: whitney_coefficients(dec, check=False),
        lambda dec: dec.subtree_elements(dec.root),
    ]
    for run in passes:
        dec = make()
        with pytest.raises(ValueError) as err:
            run(dec)
        assert str(err.value) == message
        assert str(validate_structure(dec)) == message


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_roundtrip_fano():
    dec, _ = construct_exact(fano())
    assert parse(serialize(dec)) == dec


@st.composite
def small_linear_matroids(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=8))
    row = st.lists(st.integers(min_value=0, max_value=q - 1), min_size=cols, max_size=cols)
    matrix = draw(st.lists(row, min_size=rows, max_size=rows))
    return MatroidInstance.linear(field_of_order(q), matrix)


@settings(max_examples=60, deadline=None)
@given(small_linear_matroids())
def test_roundtrip_random_linear(m):
    tree, _ = greedy_branch_decomposition(m)
    dec = construct(m, root_tree(tree))
    assert parse(serialize(dec)) == dec


def test_roundtrip_preserves_loops():
    dec = two_loops_decomposition()
    again = parse(serialize(dec))
    assert again == dec
    assert again.nodes[0].loop and again.nodes[1].loop


def test_parse_empty_file():
    with pytest.raises(ParseError):
        parse("")


def test_parse_comments_ignored():
    dec = two_loops_decomposition()
    text = "# generated\n" + serialize(dec)
    assert parse(text) == dec


def test_parse_color_beyond_header_bound():
    text = (
        "dw version=1 n=2 K=1\n"
        "leaf 0 elem=0 loop=0\n"
        "leaf 1 elem=1 loop=0\n"
        "inner 2 left=0 right=1 kv=3\n"
        "root 2\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 4


def test_parse_color_outside_palette():
    text = (
        "dw version=1 n=2 K=1\n"
        "leaf 0 elem=0 loop=0\n"
        "leaf 1 elem=1 loop=0\n"
        "inner 2 left=0 right=1 kv=2\n"
        "phi 2 1 1 2 0\n"
        "root 2\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 5


def test_parse_errors_carry_line_numbers():
    bad = [
        ("dw version=1 n=1 K=1\nleaf 0 elem=0 loop=2\nroot 0\n", 2),
        ("dw version=1 n=1 K=1\nleaf 0 elem=0 loop=0\nwat 1\n", 3),
        ("dw version=1 n=1 K=1\nleaf 0 elem=0 loop=0\nleaf 0 elem=0 loop=0\nroot 0\n", 3),
    ]
    for text, line in bad:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line


def test_parse_missing_root():
    with pytest.raises(ParseError):
        parse("dw version=1 n=1 K=1\nleaf 0 elem=0 loop=0\n")


def test_parse_duplicate_phi():
    text = (
        "dw version=1 n=2 K=1\n"
        "leaf 0 elem=0 loop=0\n"
        "leaf 1 elem=1 loop=0\n"
        "inner 2 left=0 right=1 kv=1\n"
        "phi 2 1 1 0 1\n"
        "phi 2 1 1 0 1\n"
        "root 2\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 6


def test_serialize_omits_zero_entries():
    dec = path_caterpillar_decomposition(50)
    text = serialize(dec)
    assert "phi" not in text
    assert parse(text) == dec


def test_mutated_copy_leaves_original_intact():
    dec, _ = construct_exact(u23())
    mutated = copy.deepcopy(dec)
    inner_id = next(i for i, nd in mutated.nodes.items() if isinstance(nd, Inner))
    mutated.nodes[inner_id].defect[1][1] += 1
    assert serialize(mutated) != serialize(dec)
