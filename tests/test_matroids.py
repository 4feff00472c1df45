"""Rank oracles, brute-force reference algorithms, and the text format."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GF2,
    GF3,
    K4_EDGES,
    KERNEL_FIELDS,
    brute_axiom_check,
    c5_graphic,
    c5_linear,
    dependent_rows,
    fano,
    loops_and_coloops,
    mk4_graphic,
    mk4_linear,
    rank_calls,
    single_loop,
    small_instances,
    u12,
    u23,
)
import decompwidth
from decompwidth import (
    MatroidInstance,
    WhitneyTable,
    brute_whitney,
    format_matroid,
    parse_matroid,
    prefix_sweep,
    rank_table,
    rref,
)
from decompwidth import gf
from decompwidth.matroids import _GrowingSet
from decompwidth.errors import ParseError


# ---------------------------------------------------------------------------
# rank oracles
# ---------------------------------------------------------------------------


def test_u23_rank_of_everything():
    m = u23()
    # oracle route: dimension of the span of all three columns
    expected = rref(GF2, 2, [(1, 0), (0, 1), (1, 1)]).dim
    assert m.rank(0b111) == expected == 2


@pytest.mark.parametrize("make", [u12, u23, fano, mk4_graphic, c5_graphic])
def test_rank_of_empty_set(make):
    assert make().rank(0) == 0


def test_k4_rank_via_component_count():
    m = mk4_graphic()

    def components(subset):
        adj = {v: [] for v in range(4)}
        for e in range(6):
            if subset >> e & 1:
                u, v = K4_EDGES[e]
                adj[u].append(v)
                adj[v].append(u)
        seen, comps = set(), 0
        for start in range(4):
            if start in seen:
                continue
            comps += 1
            stack = [start]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x])
        return comps

    for subset in range(64):
        assert m.rank(subset) == 4 - components(subset)
    assert m.rank(m.full_set) == 3


def test_gf2_fast_path_matches_generic_elimination():
    rng = random.Random(5)
    for _ in range(10):
        matrix = [[rng.randrange(2) for _ in range(6)] for _ in range(4)]
        m = MatroidInstance.linear(GF2, matrix)
        for _ in range(30):
            subset = rng.randrange(64)
            cols = [m.columns[e] for e in range(6) if subset >> e & 1]
            assert m.rank(subset) == rref(GF2, 4, cols).dim


def test_gf3_linear_rank():
    m = MatroidInstance.linear(GF3, [[1, 2, 0], [0, 1, 1]])
    assert m.rank(0b011) == 2
    assert m.rank(0b100) == 1
    assert m.rank(0b111) == 2


def test_uniform_rank():
    m = MatroidInstance.uniform(2, 5)
    assert m.rank(0b1) == 1
    assert m.rank(0b10101) == 2


def test_linear_matches_graphic_on_incidence():
    for lin, gra in ((mk4_linear(), mk4_graphic()), (c5_linear(), c5_graphic())):
        for subset in range(1 << lin.n):
            assert lin.rank(subset) == gra.rank(subset)


def test_rank_rejects_foreign_elements():
    with pytest.raises(ValueError):
        u23().rank(0b1000)


# ---------------------------------------------------------------------------
# loops and coloops
# ---------------------------------------------------------------------------


def test_zero_column_is_loop():
    loops, _ = loops_and_coloops(single_loop())
    assert loops == 0b1


def test_coloop_detected_by_rank_drop():
    m = MatroidInstance.linear(GF2, [[1, 1, 0], [0, 0, 1]])
    loops, coloops = loops_and_coloops(m)
    assert loops == 0
    assert coloops == 0b100
    # definition route
    assert m.rank(0b011) == m.rank(0b111) - 1


def test_free_matroid_all_coloops():
    m = MatroidInstance.uniform(4, 4)
    loops, coloops = loops_and_coloops(m)
    assert loops == 0
    assert coloops == 0b1111


# ---------------------------------------------------------------------------
# closure, coloops and rank tables against their definitions
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_closure_and_coloops_match_their_definitions(m):
    full = m.full_set
    for subset in range(1 << m.n):
        r = m.rank(subset)
        others = [e for e in range(m.n) if not subset >> e & 1]
        members = [e for e in range(m.n) if subset >> e & 1]
        assert m.closure(subset) == subset | sum(
            1 << e for e in others if m.rank(subset | 1 << e) == r
        )
        assert m.coloops(subset) == sum(
            1 << e for e in members if m.rank(subset & ~(1 << e)) < r
        )
    assert loops_and_coloops(m) == (m.closure(0), m.coloops(full))


@st.composite
def wide_linear_instances(draw):
    """A linear instance on at most 12 columns: ``dependent_rows``' columns
    with zero columns and copies of them mixed in."""
    f, d, columns = draw(dependent_rows(max_count=10))
    extra = st.just((0,) * d)
    if columns:
        extra = st.one_of(extra, st.sampled_from(columns))
    columns = draw(st.permutations(columns + draw(st.lists(extra, max_size=12 - len(columns)))))
    return MatroidInstance.linear(f, [[col[i] for col in columns] for i in range(d)])


def twelve_columns(q):
    """3 x 12 over GF(q): a zero column, a repeated column and one of its
    nonzero multiples among seeded random ones, for every row-kernel
    family."""
    f = decompwidth.field_of_order(q)
    rng = random.Random(q)
    columns = [[rng.randrange(f.q) for _ in range(3)] for _ in range(9)]
    columns += [[0, 0, 0], columns[2], [f.mul(f.q - 1, x) for x in columns[4]]]
    rng.shuffle(columns)
    return MatroidInstance.linear(f, [[col[i] for col in columns] for i in range(3)])


def rref_dimensions(m):
    """The rank of every subset of a linear instance, as the dimension of
    the checked ``rref`` of its columns."""
    cols = m.columns
    return [rref(m.field, m.dim, [cols[e] for e in range(m.n) if s >> e & 1]).dim for s in range(1 << m.n)]


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_rank_table_matches_the_rank_oracle(m):
    table = rank_table(m)
    assert len(table) == 1 << m.n
    if m.kind == "linear":
        # elimination over the field, also for GF(2) where rank packs bits
        expected = rref_dimensions(m)
    else:
        expected = [m.rank(s) for s in range(1 << m.n)]
    assert table == expected


@settings(max_examples=100, deadline=None)
@given(wide_linear_instances())
@example(MatroidInstance.linear(GF2, []))
@example(MatroidInstance.linear(GF3, [[0] * 12]))
@example(twelve_columns(2))
@example(twelve_columns(3))
@example(twelve_columns(4))
@example(twelve_columns(8))
@example(twelve_columns(9))
@example(twelve_columns(2**10))
def test_rank_table_matches_elimination_on_wide_instances(m):
    # zero and repeated columns, and every row-kernel family, on up to 12 columns
    assert rank_table(m) == rref_dimensions(m)


def dual_rank_table(m):
    """r* of every subset, as the rank table of the columns dual_columns
    gives; with no coordinates, every element is a loop of M*."""
    dual = m.dual_columns
    k = len(dual[0]) if dual else 0
    rows = [[col[i] for col in dual] for i in range(k)] or [[0] * m.n]
    return rank_table(MatroidInstance.linear(m.field, rows))


@settings(max_examples=100, deadline=None)
@given(wide_linear_instances())
@example(MatroidInstance.linear(GF2, []))  # d = 0, n = 0
@example(MatroidInstance.linear(GF3, [[]]))  # n = 0
@example(MatroidInstance.linear(decompwidth.field_of_order(7), [[0]]))  # n = 1, a loop
@example(MatroidInstance.linear(decompwidth.field_of_order(7), [[5]]))  # n = 1, a coloop
@example(MatroidInstance.linear(GF3, [[0] * 12]))  # rank 0
@example(MatroidInstance.linear(GF3, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))  # full rank, M* on no rows
@example(MatroidInstance.linear(GF3, [[1, 2, 0, 1], [2, 1, 0, 2]]))  # rank below d
def test_dual_columns_represent_the_dual(m):
    check_dual_columns(m)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_dual_columns_over_every_kernel_field(q):
    check_dual_columns(twelve_columns(q))


def check_dual_columns(m):
    # r*(X) = |X| + r(E - X) - r(E) on every subset
    ranks, full = rank_table(m), m.full_set
    expected = [s.bit_count() + ranks[full & ~s] - ranks[full] for s in range(1 << m.n)]
    assert dual_rank_table(m) == expected
    assert m.dual_columns is m.dual_columns  # computed once per instance


def check_prefix_sweep(m, order):
    lams, closures, coclosures = prefix_sweep(m, order)
    assert len(lams) == len(closures) == len(coclosures) == len(order) + 1
    full = m.full_set
    for k in range(len(order) + 1):
        prefix = sum(1 << e for e in order[:k])
        rest = full & ~prefix
        assert lams[k] == m.rank(prefix) + m.rank(rest) - m.rank(full)
        assert closures[k] == m.closure(prefix)
        assert coclosures[k] == prefix | m.coloops(rest)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_instances(), wide_linear_instances()), st.data())
def test_prefix_sweep_matches_the_oracle_per_prefix(m, data):
    # a permutation, or distinct elements that leave some out; zero and
    # repeated columns on up to 12 elements
    order = data.draw(st.permutations(range(m.n)))
    check_prefix_sweep(m, order[: data.draw(st.integers(min_value=0, max_value=m.n))])


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_instances(), wide_linear_instances()), st.data())
def test_prefix_split_matches_the_oracle_per_move(m, data):
    # the split (P, E - P) of a _GrowingSet after each add: a pivot reduces
    # the live residues in M and in M*, and zero residues join cl and cl*
    grown, prefix, full = _GrowingSet(m), 0, m.full_set
    for e in data.draw(st.permutations(range(m.n))):
        rest = full & ~prefix
        assert grown.members == prefix
        assert grown.closure == m.closure(prefix)
        assert grown.coclosure == prefix | m.coloops(rest)
        assert grown.lam == m.rank(prefix) + m.rank(rest) - m.rank(full)
        grown.add(e)
        prefix |= 1 << e
    assert (grown.members, grown.closure, grown.coclosure, grown.lam) == (full, full, full, 0)
    for e in (m.n, -1, *range(min(m.n, 1))):
        with pytest.raises(ValueError, match="not in the rest"):
            grown.add(e)
    assert grown.members == full


@pytest.mark.parametrize(
    "m",
    [
        MatroidInstance.linear(GF2, []),  # d = 0, n = 0
        MatroidInstance.linear(decompwidth.field_of_order(7), [[0]]),  # one loop
        MatroidInstance.linear(decompwidth.field_of_order(2**10), [[5]]),  # one coloop
        MatroidInstance.linear(GF3, [[0, 2, 0, 1], [0, 1, 0, 2]]),  # zero columns
        MatroidInstance.graphic(2, [(0, 0), (0, 1), (1, 0)]),
        MatroidInstance.uniform(0, 1),
        MatroidInstance.explicit([0, 1, 1, 1]),
    ],
    ids=["empty", "loop", "coloop", "zero-columns", "graphic", "uniform", "explicit"],
)
def test_prefix_sweep_on_edge_instances(m):
    for order in ([*range(m.n)], [*range(m.n)][::-1]):
        check_prefix_sweep(m, order)


def test_prefix_sweep_on_a_worked_example():
    # 4 is a loop, 3 is parallel to 1, and 2 = 0 + 2·1; λ(P + e) - λ(P) is
    # [e not in cl(P)] + [e not in cl*(P)] - 1 at every step
    m = MatroidInstance.linear(GF3, [[1, 0, 1, 0, 0], [0, 1, 2, 2, 0]])
    with rank_calls() as calls:
        lams, closures, coclosures = prefix_sweep(m, [4, 0, 1, 3, 2])
    assert calls == []  # no rank query on a linear instance
    assert lams == [0, 0, 1, 2, 1, 0]
    assert closures == [0b10000, 0b10000, 0b10001, 0b11111, 0b11111, 0b11111]
    # 2 is a coloop of M|{1, 2, 3}, so it lies in cl*({0, 4})
    assert coclosures == [0, 0b10000, 0b10101, 0b11111, 0b11111, 0b11111]


def test_prefix_sweep_refuses_bad_orders_and_entries():
    with pytest.raises(ValueError, match="repeats"):
        prefix_sweep(u23(), [0, 1, 0])
    with pytest.raises(ValueError, match="outside the ground set"):
        prefix_sweep(u23(), [0, 3])
    with pytest.raises(ValueError, match="outside"):
        # the instance refuses the entry 3 when it is built, before any sweep
        prefix_sweep(MatroidInstance.linear(GF3, ((1, 0, 3), (0, 1, 1))), [0, 1, 2])


def test_primitives_reject_foreign_elements():
    with pytest.raises(ValueError):
        u23().closure(0b1000)
    with pytest.raises(ValueError):
        u23().coloops(0b1000)


def linear_builders(field, rows):
    """Both ways of building a linear instance: ``linear``, and a direct
    constructor call."""
    yield lambda: MatroidInstance.linear(field, rows)
    yield lambda: MatroidInstance("linear", len(rows[0]), field=field, matrix=rows)


@pytest.mark.parametrize("q", [2, 3, 4, 2**10])
def test_linear_instances_refuse_bad_entries_when_built(q):
    # rank, closure, prefix_sweep, rank_table, dual_columns and construct
    # eliminate the matrix unchecked, so the instance refuses an entry
    # outside 0..q-1 however it is built, also on a row that only one
    # column touches, which construct eliminates apart from the rest
    field = decompwidth.field_of_order(q)
    for rows in (((1, 0, q), (0, 1, 1)), ((1, 0, 1), (0, 1, 1), (q, 0, 0)), ((1, 0, -1), (0, 1, 1))):
        for build in linear_builders(field, rows):
            with pytest.raises(ValueError, match="outside"):
                build()
    for build in linear_builders(field, ((1, 0, 1), (0, 1))):
        with pytest.raises(ValueError, match="lengths"):
            build()


def test_linear_instances_refuse_a_gf4_entry_4_when_built():
    # the pivot 2 makes the RREF scale the first row by 3 through GF(4)'s
    # multiplication row of 3, which has no entry 4: the dual's unchecked
    # elimination would fail with an IndexError, not a ValueError
    field = decompwidth.field_of_order(4)
    rows = ((2, 4, 1), (0, 1, 1))
    with pytest.raises(IndexError):
        gf._eliminate(field, 3, list(rows), True)
    for build in linear_builders(field, rows):
        with pytest.raises(ValueError, match="outside"):
            build()


@pytest.mark.parametrize(
    "m",
    [
        MatroidInstance.linear(GF2, []),  # d = 0, n = 0
        MatroidInstance.linear(GF3, [[]]),  # n = 0
        MatroidInstance.linear(GF2, [[1, 0, 1], [0, 0, 1]]),
        *[twelve_columns(q) for q in KERNEL_FIELDS],
    ],
)
def test_a_direct_linear_instance_derives_what_linear_does(m):
    direct = MatroidInstance("linear", m.n, field=m.field, matrix=m.matrix)
    assert (direct.dim, direct.columns, direct.column_bits) == (m.dim, m.columns, m.column_bits)
    assert m.columns == [tuple(row[e] for row in m.matrix) for e in range(m.n)]
    if m.field.q == 2:
        assert m.column_bits == [sum(row[e] << i for i, row in enumerate(m.matrix)) for e in range(m.n)]


@pytest.mark.parametrize(
    "m",
    [
        MatroidInstance.graphic(3, [(0, 1), (1, 2), (0, 2)]),
        MatroidInstance.uniform(2, 3),
        MatroidInstance.explicit([0, 1, 1, 1]),
        MatroidInstance.linear(GF3, [[1, 0, 1], [0, 1, 2]]),
    ],
    ids=["graphic", "uniform", "explicit", "gf3"],
)
def test_column_bits_is_none_off_gf2_linear_instances(m):
    assert m.column_bits is None


# ---------------------------------------------------------------------------
# brute-force whitney table
# ---------------------------------------------------------------------------


def test_brute_whitney_u12():
    t = brute_whitney(u12())
    assert t.counts == {(0, 0): 1, (1, 1): 2, (2, 1): 1}
    assert t.r == 1


def test_brute_whitney_single_loop():
    t = brute_whitney(single_loop())
    assert t.counts == {(0, 0): 1, (1, 0): 1}


def test_brute_whitney_u23():
    t = brute_whitney(u23())
    assert t.counts == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 2): 1}


@pytest.mark.parametrize("make", [u23, fano, mk4_graphic, c5_linear])
def test_brute_whitney_totals(make):
    m = make()
    t = brute_whitney(m)
    assert t.total() == 1 << m.n
    assert all(rk <= min(size, t.r) for (size, rk) in t.counts)


def per_subset_whitney(m):
    """N(n', r') by asking ``m.rank`` for every subset."""
    counts = {}
    for subset in range(1 << m.n):
        key = (subset.bit_count(), m.rank(subset))
        counts[key] = counts.get(key, 0) + 1
    return WhitneyTable(m.n, m.rank(m.full_set), counts)


@settings(max_examples=200, deadline=None)
@given(small_instances())
@example(MatroidInstance.linear(GF2, []))
@example(MatroidInstance.graphic(1, []))
@example(MatroidInstance.uniform(0, 0))
@example(MatroidInstance.explicit([0]))
def test_brute_whitney_counts_the_rank_oracle(m):
    assert brute_whitney(m) == per_subset_whitney(m)


def test_brute_whitney_asks_a_linear_instance_no_rank():
    m = twelve_columns(3)
    with rank_calls() as calls:
        table = brute_whitney(m)
    assert calls == []
    assert table == per_subset_whitney(m)


def test_brute_whitney_refuses_more_than_20_elements():
    with pytest.raises(ValueError, match=r"^brute-force enumeration limited to n <= 20$"):
        brute_whitney(MatroidInstance.uniform(2, 21))


def test_connectivity_symmetry():
    for m in (u23(), fano(), mk4_graphic()):
        full = m.full_set
        full_rank = m.rank(full)
        for subset in range(1 << m.n):
            other = full & ~subset
            lam = m.rank(subset) + m.rank(other) - full_rank
            assert lam == m.rank(other) + m.rank(subset) - full_rank
            assert lam >= 0


# ---------------------------------------------------------------------------
# explicit tables and the axiom check
# ---------------------------------------------------------------------------


def test_explicit_backend_roundtrip():
    table = rank_table(u23())
    m = MatroidInstance.explicit(table)
    assert all(m.rank(s) == table[s] for s in range(8))


def test_explicit_backend_rejects_non_matroid():
    with pytest.raises(ValueError):
        MatroidInstance.explicit([0, 1, 1, 0])  # not monotone
    with pytest.raises(ValueError):
        MatroidInstance.explicit([1, 1])  # empty set has rank 1
    with pytest.raises(ValueError):
        MatroidInstance.explicit([0, 2])  # singleton rank 2


def test_axiom_check_valid_u23():
    assert brute_axiom_check(rank_table(u23())).valid


def test_axiom_check_monotonicity_witness():
    # r({a}) = r({b}) = 1 but r({a, b}) = 0
    verdict = brute_axiom_check([0, 1, 1, 0])
    assert not verdict.valid
    assert verdict.kind == "monotonicity"
    assert verdict.witness == (1, 3)


def test_axiom_check_constant_zero_valid():
    assert brute_axiom_check([0] * 16).valid


def test_axiom_check_singleton():
    verdict = brute_axiom_check([0, 2, 1, 2])
    assert verdict.kind == "singleton"


def test_axiom_check_submodularity_witness():
    # rank of a 2-element circuit pretending its union is bigger
    table = [0, 1, 1, 1, 1, 2, 2, 3]  # r({a,b,c}) = 3 but pairs have rank 2
    verdict = brute_axiom_check(table)
    assert not verdict.valid
    assert verdict.kind == "submodularity"
    a, b = verdict.witness
    assert table[a | b] + table[a & b] > table[a] + table[b]


def test_axiom_check_empty():
    verdict = brute_axiom_check([1, 1])
    assert verdict.kind == "empty"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**12 - 1), st.integers(min_value=2, max_value=4))
def test_axiom_check_accepts_linear_instances(bits, rows):
    cols = 4
    matrix = [[bits >> (r * cols + c) & 1 for c in range(cols)] for r in range(rows)]
    m = MatroidInstance.linear(GF2, matrix)
    assert brute_axiom_check(rank_table(m)).valid


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_linear_roundtrip():
    m = fano()
    again = parse_matroid(format_matroid(m))
    assert again.kind == "linear"
    assert again.matrix == m.matrix
    assert again.field == m.field


def test_graphic_roundtrip():
    m = mk4_graphic()
    again = parse_matroid(format_matroid(m))
    assert again.kind == "graphic"
    assert again.edges == m.edges
    assert again.num_vertices == 4


def test_uniform_roundtrip():
    m = MatroidInstance.uniform(2, 5)
    again = parse_matroid(format_matroid(m))
    assert (again.r, again.n) == (2, 5)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nmatroid uniform r=1 n=3\n"
    assert parse_matroid(text).n == 3


def test_parse_error_reports_line_numbers():
    text = "matroid linear q=2 rows=2 cols=3\n1 0 1\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_matroid(text)
    assert err.value.line == 3


def test_parse_rejects_bad_entries():
    with pytest.raises(ParseError):
        parse_matroid("matroid linear q=2 rows=1 cols=2\n0 2\n")
    with pytest.raises(ParseError):
        parse_matroid("matroid graphic vertices=3 edges=1\n0 5\n")
    with pytest.raises(ParseError):
        parse_matroid("matroid uniform r=4 n=2\n")
    with pytest.raises(ParseError):
        parse_matroid("")
    with pytest.raises(ParseError):
        parse_matroid("matroid fancy n=2\n")


@pytest.mark.parametrize(
    "header, message",
    [
        ("matroid linear q=2 rows=1 cols=1 extra=3", "unknown field 'extra' in a linear header"),
        ("matroid uniform r=2 n=3 r=1", "field r= given twice"),
        ("matroid graphic vertices=-1 edges=0", "vertices=-1 is negative"),
        ("matroid graphic vertices=2 edges=-1", "edges=-1 is negative"),
        ("matroid linear q=2 rows=-1 cols=1", "rows=-1 is negative"),
        ("matroid linear q=2 rows=1 cols=-1", "cols=-1 is negative"),
    ],
)
def test_parse_rejects_bad_header_fields(header, message):
    with pytest.raises(ParseError) as err:
        parse_matroid(header + "\n1\n")
    assert (err.value.line, str(err.value)) == (1, f"line 1: {message}")


def test_import_leaves_numpy_unloaded():
    # numpy serves only the explicit-table validator
    src = Path(decompwidth.__file__).resolve().parents[1]
    probe = "import sys, decompwidth; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
