"""Matroid verdicts: soundness, completeness and witness extraction."""

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings

from conftest import (
    GF2,
    brute_axiom_check,
    c5_linear,
    construct_exact,
    fano,
    mk4_linear,
    mutate_tables,
    parallel_coloop,
    single_loop,
    singleton_ranks_by_offsets,
    structure_valid_decompositions,
    u12,
    u23,
)
from decompwidth import (
    MatroidInstance,
    construct,
    eval_rank,
    extract_witness,
    field_of_order,
    greedy_branch_decomposition,
    root_tree,
    verify,
)
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, node_states, offsets
from decompwidth.verify import _submodularity_tables


def two_leaf(defect_11=0, loops=(False, False)):
    return KDecomposition(
        2,
        {
            0: Leaf(0, loops[0]),
            1: Leaf(1, loops[1]),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, defect_11]]),
        },
        2,
    )


def submask_pairs(mask):
    a = mask
    while True:
        b = mask
        while True:
            yield a, b
            if b == 0:
                break
            b = (b - 1) & mask
        if a == 0:
            return
        a = (a - 1) & mask


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [single_loop, u12, u23, parallel_coloop, c5_linear, mk4_linear, fano]
)
def test_constructed_decompositions_verify(make):
    dec, _ = construct_exact(make())
    result = verify(dec)
    assert result.is_matroid
    assert result.loop_flag_mismatches == ()


def test_monotonicity_only_violation():
    # r({a}) = r({b}) = 1 but r({a, b}) = 0: submodular, yet not monotone
    dec = two_leaf(defect_11=2)
    result = verify(dec)
    assert not result.is_matroid
    assert result.reason == "monotonicity"
    # the submodularity pass alone accepts it
    root, _ = _submodularity_tables(dec)
    assert all(v >= 0 for v in root.values())


def test_monotonicity_witness_replays():
    dec = two_leaf(defect_11=2)
    result = verify(dec)
    a, b = extract_witness(dec, result)
    assert a | b == b  # containment
    assert eval_rank(dec, a) > eval_rank(dec, b)


def test_two_loops_all_zero_is_matroid():
    dec = two_leaf(defect_11=0, loops=(True, True))
    assert verify(dec).is_matroid


def test_structure_defect_propagates():
    dec = two_leaf()
    dec.nodes[2].color[0][0] = 0
    dec.nodes[2].defect[0][0] = 2
    result = verify(dec)
    assert not result.is_matroid
    assert result.reason == "empty-set"


def test_submodularity_violation_with_witness():
    # defect on (1, 0) but none on (1, 1): union cheaper than its parts
    dec = two_leaf()
    dec.nodes[2].defect[1][0] = 1
    dec.nodes[2].defect[1][1] = 0
    table = [eval_rank(dec, s) for s in range(4)]
    brute = brute_axiom_check(table)
    result = verify(dec)
    assert result.is_matroid == brute.valid
    if not result.is_matroid and result.reason == "submodularity":
        a, b = extract_witness(dec, result)
        assert (
            eval_rank(dec, a | b) + eval_rank(dec, a & b)
            > eval_rank(dec, a) + eval_rank(dec, b)
        )


def dense_balanced(n, palette, seed):
    """Balanced tree over n leaves (a power of two) whose inner nodes all have
    the given palette and random color and defect tables, (0, 0) pinned."""
    rng = random.Random(seed)
    nodes = {e: Leaf(e, False) for e in range(n)}
    level = list(nodes)
    while len(level) > 1:
        parents = []
        for left, right in zip(level[::2], level[1::2]):
            rows, cols = (2 if child < n else palette for child in (left, right))
            color = [[rng.randrange(palette) for _ in range(cols)] for _ in range(rows)]
            defect = [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
            color[0][0] = defect[0][0] = 0
            nodes[len(nodes)] = Inner((left, right), palette, color, defect)
            parents.append(len(nodes) - 1)
        level = parents
    return KDecomposition(n, nodes, level[0])


def dense_palette_1_root(n, palette, seed):
    """``dense_balanced`` with its root cut to palette 1: every root color
    is 0, and the root's defects stay random."""
    dec = dense_balanced(n, palette, seed)
    root = dec.nodes[dec.root]
    root.palette = 1
    root.color = [[0] * len(row) for row in root.color]
    return dec


def test_dense_tables_rejected_with_replayable_witness():
    # about 10^4 reachable color quadruples per node: a DP pairing the two
    # children's quadruples would need some 10^8 steps per node here
    dec = dense_balanced(32, 12, seed=12)
    result = verify(dec)
    assert result.reason == "submodularity"
    a, b = extract_witness(dec, result)
    assert eval_rank(dec, a | b) + eval_rank(dec, a & b) > eval_rank(dec, a) + eval_rank(dec, b)


def test_witness_requires_violation():
    dec, _ = construct_exact(u23())
    result = verify(dec)
    with pytest.raises(ValueError):
        extract_witness(dec, result)


def test_loop_flag_mismatch_is_informational():
    # defects make element 0 a loop of the described matroid even though its
    # leaf is flagged non-loop; the rank function is still a matroid
    dec = two_leaf()
    dec.nodes[2].defect[1][0] = 1
    dec.nodes[2].defect[1][1] = 1
    table = [eval_rank(dec, s) for s in range(4)]
    assert table == [0, 0, 1, 1]
    assert brute_axiom_check(table).valid
    result = verify(dec)
    assert result.is_matroid
    assert result.loop_flag_mismatches == (0,)


@settings(max_examples=300, deadline=None)
@given(structure_valid_decompositions())
def test_singleton_ranks_need_no_check_of_their_own(dec):
    # over {e} every node off e's path is at (0, 0) and no defect is
    # negative, so r({e}) <= 1; and r({e}) < 0 breaks monotonicity, which
    # the submodularity and monotonicity checks catch between them
    table = [eval_rank(dec, s) for s in range(1 << dec.n)]
    ranks = singleton_ranks_by_offsets(dec)
    assert ranks == [table[1 << e] for e in range(dec.n)]
    assert max(ranks) <= 1
    result = verify(dec)
    if min(ranks) < 0:
        assert result.reason in ("submodularity", "monotonicity")
    assert result.is_matroid == brute_axiom_check(table).valid
    if result:
        assert result.loop_flag_mismatches == tuple(
            node.element
            for node in dec.nodes.values()
            if isinstance(node, Leaf) and node.loop != (table[1 << node.element] == 0)
        )


# ---------------------------------------------------------------------------
# exactness of the DP minima against brute force
# ---------------------------------------------------------------------------


def brute_local_minima(dec):
    """Root table of the local-axiom DP by enumeration: for every A and every
    ordered e != f outside A, the colors of A, A+e, A+f, A+e+f (middle pair
    sorted) mapped to the least label(A+e) + label(A+f) - label(A+e+f) - label(A)."""
    states = [node_states(dec, s)[dec.root] for s in range(1 << dec.n)]
    minima = {}
    for a in range(1 << dec.n):
        outside = [1 << e for e in range(dec.n) if not a >> e & 1]
        for e in outside:
            for f in outside:
                if e == f:
                    continue
                (c0, l0), (c1, l1), (c2, l2), (c3, l3) = (
                    states[a], states[a | e], states[a | f], states[a | e | f]
                )
                key = (c0, min(c1, c2), max(c1, c2), c3)
                value = l1 + l2 - l3 - l0
                if key not in minima or value < minima[key]:
                    minima[key] = value
    return minima


def assert_flip_ranks_exact(dec):
    # eval_rank(B ^ {e}) is the label of e's leaf at its flipped color plus
    # that color's offset over B
    full = dec.full_set()
    for base in (0, full, full & 0x55555555):
        states = node_states(dec, base)
        off = offsets(dec, states)
        for v, node in dec.nodes.items():
            if isinstance(node, Leaf):
                flipped = 1 - states[v][0]
                rank = (0 if node.loop else flipped) + off[v][flipped]
                assert rank == eval_rank(dec, base ^ 1 << node.element)


@pytest.mark.parametrize("make", [single_loop, u12, u23, parallel_coloop, c5_linear, mk4_linear])
def test_dp_minima_exact(make):
    dec, _ = construct_exact(make())
    root, _ = _submodularity_tables(dec)
    assert root == brute_local_minima(dec)
    assert_flip_ranks_exact(dec)


def assert_minima_exact_after_mutations(base, rng):
    for _ in range(30):
        dec = copy.deepcopy(base)
        inner_ids = [i for i, nd in dec.nodes.items() if isinstance(nd, Inner)]
        node = dec.nodes[rng.choice(inner_ids)]
        g1 = rng.randrange(len(node.color))
        g2 = rng.randrange(len(node.color[0]))
        if rng.random() < 0.5:
            node.color[g1][g2] = rng.randrange(node.palette)
        else:
            node.defect[g1][g2] = rng.randrange(3)
        if (g1, g2) == (0, 0):
            continue  # structural convention handled elsewhere
        root, _ = _submodularity_tables(dec)
        assert root == brute_local_minima(dec)
        assert_flip_ranks_exact(dec)


def test_dp_minima_exact_after_mutations():
    base, _ = construct_exact(u23())
    assert_minima_exact_after_mutations(base, random.Random(99))


def root_palette_2():
    """Random tables of palette 2 on every inner node, the root's included:
    the root's Q keys are not all (0, 0, 0, 0)."""
    dec = dense_balanced(8, 2, seed=5)
    assert dec.palette_of(dec.root) == 2
    return dec


def palette_1_inner_node():
    """U_{2,3} + U_{2,3}: one component spans an inner node of palette 1
    below the root, whose left child is an inner node of palette 2."""
    m = MatroidInstance.linear(
        GF2, [[1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]]
    )
    dec, _ = construct_exact(m)
    below = [
        node
        for node_id, node in dec.nodes.items()
        if isinstance(node, Inner) and node_id != dec.root and node.palette == 1
    ]
    assert any(isinstance(dec.nodes[node.children[0]], Inner) for node in below)
    return dec


def palette_1_root_over_inner_children():
    """Random tables under a palette-1 root whose children are both inner
    nodes: all three rows of candidates meet at the root."""
    return dense_palette_1_root(8, 3, seed=7)


@pytest.mark.parametrize(
    "make", [root_palette_2, palette_1_inner_node, palette_1_root_over_inner_children]
)
def test_dp_minima_exact_after_mutations_on_both_paths(make):
    # a palette-1 node keeps one running minimum, any other node a table
    base = make()
    root, _ = _submodularity_tables(base)
    assert root == brute_local_minima(base)
    assert_minima_exact_after_mutations(base, random.Random(99))


# ---------------------------------------------------------------------------
# agreement with brute force on random table mutations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make,seed", [(u23, 1), (parallel_coloop, 2), (c5_linear, 3)])
def test_mutation_verdicts_agree_with_brute_force(make, seed):
    m = make()
    base, _ = construct_exact(m)
    rng = random.Random(seed)
    for _ in range(40):
        dec = mutate_tables(base, rng)
        result = verify(dec)
        table = [eval_rank(dec, s) for s in range(1 << dec.n)]
        assert result.is_matroid == brute_axiom_check(table).valid
        if result.reason == "submodularity":
            # the witness is (A+e, A+f) and its defect is the root minimum
            a, b = extract_witness(dec, result)
            assert bin(a & ~b).count("1") == 1 == bin(b & ~a).count("1")
            root, _ = _submodularity_tables(dec)
            assert table[a] + table[b] - table[a | b] - table[a & b] == min(root.values()) < 0
            continue
        # the submodularity DP accepted: monotonicity fails exactly when brute force says so
        not_monotone = any(
            table[a] > table[b] for a, b in submask_pairs(dec.full_set()) if a & ~b == 0
        )
        assert (result.reason == "monotonicity") == not_monotone
        if not_monotone:
            a, b = extract_witness(dec, result)
            assert a & ~b == 0 and table[a] > table[b]


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

# SHA-256 of every verdict of verify_corpus (verdict, reason, detail, witness
# and loop flag mismatches) and of its sorted root submodularity table.  A
# change that alters verdicts or witnesses on purpose updates it and says why.
VERIFY_DIGEST = "b1f8462afaa32363ce0c7494d8cda044986112cceb7b68b8827203ff6077adfe"


def verify_corpus(per_field=8, mutants=3, seed=20261019):
    """Seeded linear instances over GF(2), GF(3) and GF(4) on greedy trees,
    each followed by ``mutants`` table mutants, then dense random tables whose
    roots have palettes 2, 3 and 1, each followed by its mutants."""
    rng = random.Random(seed)
    bases = []
    for q in (2, 3, 4):
        f = field_of_order(q)
        for _ in range(per_field):
            rows, cols = rng.randint(2, 4), rng.randint(4, 10)
            matrix = [
                [rng.randrange(1, q) if rng.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            m = MatroidInstance.linear(f, matrix)
            bases.append(construct(m, root_tree(greedy_branch_decomposition(m)[0])))
    bases += [dense_balanced(8, palette, seed=palette) for palette in (2, 3)]
    bases.append(dense_palette_1_root(8, 3, seed=4))
    for base in bases:
        yield base
        for _ in range(mutants):
            yield mutate_tables(base, rng)


def test_verify_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for dec in verify_corpus():
        count += 1
        result = verify(dec)
        verdict = (
            result.is_matroid,
            result.reason,
            result.detail,
            result._witness,
            result.loop_flag_mismatches,
        )
        digest.update(repr(verdict).encode())
        digest.update(repr(sorted(_submodularity_tables(dec)[0].items())).encode())
    assert count == 108
    assert digest.hexdigest() == VERIFY_DIGEST, digest.hexdigest()
