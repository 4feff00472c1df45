"""The benchmark's instance generators and the defect mutation."""

import pytest

import generators as gen
from decompwidth import (
    brute_whitney,
    caterpillar_tree,
    construct,
    eval_rank,
    exact_branch_decomposition,
    extract_witness,
    greedy_branch_decomposition,
    rank_table,
    root_tree,
    verify,
    whitney_coefficients,
    width,
)

FAMILIES = {
    "tutte-planted": lambda seed: gen.tutte_planted(seed, 10, 4),
    "verify-cli": lambda seed: gen.verify_cli(seed, 8),
    "search-shuffled": lambda seed: gen.search_shuffled(seed, 6, 2, 2),
}


def _tree_for(instance):
    if instance.tree is not None:
        return instance.tree
    m = instance.matroid()
    search = exact_branch_decomposition if m.n <= 9 else greedy_branch_decomposition
    return root_tree(search(m)[0])


def _leaf_order(tree):
    return [node for node in tree.postorder() if node < tree.n]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_are_deterministic_per_seed(family):
    first, again, other = FAMILIES[family](3), FAMILIES[family](3), FAMILIES[family](4)
    assert [(i.name, i.matrix, i.tree) for i in first] == [(i.name, i.matrix, i.tree) for i in again]
    assert [i.matrix for i in first] != [i.matrix for i in other]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeds_change_the_matrices_but_not_the_matroid(family):
    for a, b in zip(FAMILIES[family](5), FAMILIES[family](6)):
        if a.n > 12:
            continue
        # the tree follows the relabelling, so reading elements in leaf order
        # gives the same matroid for both seeds
        order_a = _leaf_order(a.tree) if a.tree else list(range(a.n))
        order_b = _leaf_order(b.tree) if b.tree else list(range(b.n))
        ranks_a, ranks_b = rank_table(a.matroid()), rank_table(b.matroid())
        for subset in range(1 << a.n):
            mask_a = sum(1 << order_a[i] for i in range(a.n) if subset >> i & 1)
            mask_b = sum(1 << order_b[i] for i in range(b.n) if subset >> i & 1)
            assert ranks_a[mask_a] == ranks_b[mask_b]


@pytest.mark.parametrize("seed", range(4))
def test_planted_caterpillar_width_stays_within_the_bound(seed):
    for instance in gen.tutte_planted(seed, 24, 8):
        order = _leaf_order(instance.tree)
        tree = caterpillar_tree(instance.n, order)
        assert width(instance.matroid(), tree) <= instance.planted_width
    for band, q in ((3, 3), (5, 2)):
        m = gen.Instance("b", "n", gen.FieldSpec(q), gen.banded_matrix(q, 20, band), band, None).matroid()
        assert width(m, caterpillar_tree(20, list(range(20)))) <= gen.banded_width_bound(band)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_whitney_agrees_with_brute_force(family):
    for instance in FAMILIES[family](7):
        if instance.n > 16:
            continue
        m = instance.matroid()
        dec = construct(m, _tree_for(instance))
        assert whitney_coefficients(dec) == brute_whitney(m)


def test_ladder_bases_follow_the_recurrence():
    for k in range(1, 6):
        ladder = [i for i in gen.tutte_planted(0, 3, k) if i.name == f"ladder-k{k}"][0]
        assert ladder.bases == gen.ladder_spanning_trees(k)
        counts = brute_whitney(ladder.matroid()).counts
        assert counts[(2 * k - 1, 2 * k - 1)] == ladder.bases
    assert [gen.ladder_spanning_trees(k) for k in range(1, 5)] == [1, 4, 15, 56]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [8, 16])
def test_mutation_always_yields_a_non_matroid(seed, n):
    for instance in gen.verify_cli(seed, n):
        m = instance.matroid()
        dec = construct(m, instance.tree)
        mutant = gen.raise_defect(dec, gen.mutation_site(dec, m, seed))
        result = verify(mutant)
        assert not result
        assert result.reason in ("submodularity", "monotonicity")
        a, b = extract_witness(mutant, result)
        r = lambda s: eval_rank(mutant, s)  # noqa: E731
        if result.reason == "submodularity":
            assert r(a) + r(b) < r(a | b) + r(a & b)
        else:
            assert a & ~b == 0 and r(a) > r(b)
        assert verify(dec)  # the original is untouched
