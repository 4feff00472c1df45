"""Finite-field arithmetic and subspace operations, checked against brute force."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KERNEL_FIELDS,
    dependent_rows,
    enumerate_subspaces,
    galois_number,
    gaussian_binomial,
    named_corpus,
)
from decompwidth import MatroidInstance
from decompwidth.gf import (
    FieldSpec,
    Subspace,
    field_of_order,
    hull,
    intersect,
    pair_traces,
    rref,
)


def span_vectors(field, d, rows):
    """Brute-force span: every linear combination, enumerated coefficient by
    coefficient.  Independent of the row-reduction code paths."""
    out = set()
    for coeffs in product(field.elements(), repeat=len(rows)):
        v = [0] * d
        for c, row in zip(coeffs, rows):
            for j in range(d):
                v[j] = field.add(v[j], field.mul(c, row[j]))
        out.add(tuple(v))
    return out


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def test_gf2_characteristic():
    f = FieldSpec(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1


def test_gf3_inverse_of_two():
    f = FieldSpec(3)
    assert f.inv(2) == 2
    assert f.mul(2, 2) == 1


def test_gf4_x_squared_is_x_plus_one():
    # encoding: 2 is the polynomial x, 3 is x+1; reduction x^2+x+1
    f = FieldSpec(2, 2)
    assert f.mul(2, 2) == 3


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (7, 1)])
def test_field_axioms_exhaustive(p, m):
    f = FieldSpec(p, m)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("p,m", [(2, 4), (2, 8), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)])
def test_larger_fields_inverses_and_sampled_axioms(p, m):
    f = FieldSpec(p, m)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_large_extension_field_derived_polynomial():
    # beyond the embedded table: polynomial found by deterministic search
    f = FieldSpec(2, 9)
    assert f.q == 512
    for a in (1, 2, 255, 511):
        assert f.mul(a, f.inv(a)) == 1


# The element encoding of GF(p^m) is fixed by its reduction polynomial; a
# different polynomial would silently change the meaning of matroid files.
PINNED_POLYNOMIALS = {
    (2, 2): 7,
    (2, 3): 11,
    (2, 4): 19,
    (2, 5): 37,
    (2, 6): 67,
    (2, 7): 131,
    (2, 8): 285,
    (3, 2): 10,
    (3, 3): 34,
    (3, 4): 86,
    (3, 5): 250,
    (5, 2): 27,
    (5, 3): 131,
    (7, 2): 50,
    (11, 2): 122,
    (13, 2): 171,
}


@pytest.mark.parametrize("p,m", sorted(PINNED_POLYNOMIALS))
def test_reduction_polynomial_is_pinned(p, m):
    assert FieldSpec(p, m).poly == PINNED_POLYNOMIALS[(p, m)]


def test_unsupported_fields_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4)  # not prime
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(2, 17)  # 2^17 > 2^16
    with pytest.raises(ValueError):
        FieldSpec(257, 2)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


def test_field_of_order():
    assert field_of_order(8) == FieldSpec(2, 3)
    assert field_of_order(9) == FieldSpec(3, 2)
    assert field_of_order(7) == FieldSpec(7)
    with pytest.raises(ValueError):
        field_of_order(12)


def test_field_of_order_refuses_a_huge_order_before_factoring():
    # 2^31 + 11 is a prime that factoring finds at once, so a missing size
    # check fails here on the message; trial division would not return
    # for the primes 10^18 + 3 and 2^89 - 1
    for q in (2**31 + 11, 10**18 + 3, 2**89 - 1):
        with pytest.raises(ValueError, match=rf"^q={q} exceeds the largest supported field order"):
            field_of_order(q)
    assert field_of_order(2**31 - 1).q == 2**31 - 1


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_plane_gf2():
    f = FieldSpec(2)
    s = rref(f, 2, [(1, 0), (0, 1), (1, 1)])
    assert s.dim == 2
    assert s.rows == ((1, 0), (0, 1))


def test_rref_empty_rows():
    f = FieldSpec(2)
    s = rref(f, 3, [])
    assert s.dim == 0
    assert s == Subspace.zero(f, 3)


def test_rref_scalar_multiple_gf3():
    f = FieldSpec(3)
    s = rref(f, 2, [(1, 1), (2, 2)])
    assert s.dim == 1
    assert s.rows == ((1, 1),)


def test_rref_mixed_dimensions_rejected():
    f = FieldSpec(2)
    with pytest.raises(ValueError):
        rref(f, 2, [(1, 0), (1, 0, 1)])


def reference_rref(field, d, rows):
    """Gauss-Jordan elimination through the FieldSpec methods, one entry at
    a time: the oracle for the row kernels."""
    work = [list(row) for row in rows]
    col = r = 0
    while col < d and r < len(work):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[r])]
        r += 1
        col += 1
    return tuple(tuple(row) for row in work[:r])


@settings(max_examples=300, deadline=None)
@given(dependent_rows())
def test_rref_matches_method_call_elimination(data):
    f, d, rows = data
    s = rref(f, d, rows)
    assert s.rows == reference_rref(f, d, rows)
    assert all(s.contains(row) for row in rows)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_rref_refuses_entries_outside_the_field(q):
    f = field_of_order(q)
    for bad in (q, q + 2, q + 3, -1):  # 5 over GF(3), 7 over GF(4)
        with pytest.raises(ValueError, match="outside"):
            rref(f, 2, [(1, 0), (1, bad)])
        with pytest.raises(ValueError, match="outside"):
            rref(f, 3, [(1, 0, 1)]).contains((1, 0, bad))


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_subspace_refuses_entries_outside_the_field(q):
    f = field_of_order(q)
    for bad in (q, q + 2, -1):  # (1, 5) and (1, -1) over GF(3)
        with pytest.raises(ValueError, match=rf"^vector entry outside 0\.\.{q - 1}$"):
            Subspace(f, 2, ((1, bad),))
        with pytest.raises(ValueError, match="outside"):
            Subspace(f, 3, ((1, 0, 0), (0, 1, bad)))
    assert Subspace(f, 2, ((1, q - 1),)).rows == ((1, q - 1),)


def test_contains_checks_the_vector_length():
    s = rref(FieldSpec(2), 3, [(1, 0, 0)])
    assert s.contains((1, 0, 0))
    with pytest.raises(ValueError):
        s.contains((1, 0, 0, 0))
    with pytest.raises(ValueError):
        s.contains((1, 0))


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_linear_rank_oracle_matches_method_call_elimination(q):
    f = field_of_order(q)
    rng = random.Random(q)
    for name, m, _ in named_corpus():
        scalars = [rng.randrange(1, q) for _ in range(m.n)]
        matrix = [[f.mul(s, x) for s, x in zip(scalars, row)] for row in m.matrix]
        inst = MatroidInstance.linear(f, matrix)
        for subset in range(1 << m.n):
            cols = [inst.columns[e] for e in range(m.n) if subset >> e & 1]
            assert inst.rank(subset) == len(reference_rref(f, m.dim, cols)), (name, subset)


def test_rref_canonical_idempotent():
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        f = field_of_order(q)
        for _ in range(30):
            d = rng.randrange(1, 5)
            rows = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(rng.randrange(4))]
            s = rref(f, d, rows)
            assert rref(f, d, s.rows) == s
            assert span_vectors(f, d, rows) == span_vectors(f, d, s.rows)


# ---------------------------------------------------------------------------
# hull / intersect
# ---------------------------------------------------------------------------


def test_hull_spans_plane():
    f = FieldSpec(2)
    u1 = rref(f, 2, [(1, 0)])
    u2 = rref(f, 2, [(0, 1)])
    assert hull(u1, u2).dim == 2


def test_hull_with_trivial_is_identity():
    f = FieldSpec(3)
    u = rref(f, 3, [(1, 2, 0), (0, 0, 1)])
    assert hull(u, Subspace.zero(f, 3)) == u


def test_hull_closure_brute_force():
    f = FieldSpec(2)
    u1 = rref(f, 3, [(1, 0, 0)])
    u2 = rref(f, 3, [(1, 1, 0)])
    h = hull(u1, u2)
    assert h.rows == ((1, 0, 0), (0, 1, 0))
    assert span_vectors(f, 3, h.rows) == span_vectors(f, 3, [(1, 0, 0), (1, 1, 0)])


def test_intersect_containment():
    f = FieldSpec(2)
    plane = rref(f, 2, [(1, 0), (0, 1)])
    line = rref(f, 2, [(1, 1)])
    assert intersect(plane, line) == line


def test_intersect_disjoint_lines():
    f = FieldSpec(2)
    u1 = rref(f, 2, [(1, 0)])
    u2 = rref(f, 2, [(0, 1)])
    assert intersect(u1, u2).dim == 0


def test_intersect_brute_force_gf3():
    f = FieldSpec(3)
    rng = random.Random(3)
    for _ in range(25):
        rows1 = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randrange(1, 4))]
        rows2 = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randrange(1, 4))]
        u1, u2 = rref(f, 4, rows1), rref(f, 4, rows2)
        got = intersect(u1, u2)
        both = span_vectors(f, 4, rows1) & span_vectors(f, 4, rows2)
        assert span_vectors(f, 4, got.rows) == both


@st.composite
def pair_trace_inputs(draw):
    """A bound and lists of left and right spaces, all spanned by drawn rows
    mixed with combinations of one shared base, so that over large fields
    the spaces still meet; any of them may be trivial, and d may be 0."""
    f = field_of_order(draw(st.sampled_from(KERNEL_FIELDS)))
    d = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(st.just(0), st.just(1), st.integers(min_value=0, max_value=f.q - 1))
    vector = st.lists(entry, min_size=d, max_size=d)
    base = draw(st.lists(vector, max_size=3))

    def space():
        rows = draw(st.lists(vector, max_size=2))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            coeffs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            row = [0] * d
            for c, b in zip(coeffs, base):
                row = [f.add(x, f.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
        return rref(f, d, rows)

    bound = space()
    lefts = [space() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    rights = [space() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return bound, lefts, rights


@settings(max_examples=400, deadline=None)
@given(pair_trace_inputs())
def test_pair_traces_match_hull_and_intersect(data):
    bound, lefts, rights = data
    expected = [
        (intersect(bound, hull(s1, s2)).rows, hull(s1, s2).dim) for s1 in lefts for s2 in rights
    ]
    rows = [s.rows for s in lefts], [s.rows for s in rights]
    assert list(pair_traces(bound.field, bound.d, bound.rows, *rows)) == expected


def test_pair_traces_check_their_input():
    f = FieldSpec(3)
    line, plane = ((1, 1),), ((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="lengths"):
        list(pair_traces(f, 2, line, [line], [plane]))
    with pytest.raises(ValueError, match="outside"):
        list(pair_traces(f, 2, (), [((1, 5),)], [line]))


def test_ambient_mismatch_rejected():
    f = FieldSpec(2)
    u1 = rref(f, 2, [(1, 0)])
    u2 = rref(f, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        hull(u1, u2)
    with pytest.raises(ValueError):
        intersect(u1, u2)


# ---------------------------------------------------------------------------
# subspace enumeration
# ---------------------------------------------------------------------------


def brute_subspace_count(field, d):
    """Dedupe the spans of all subsets of the ambient vectors."""
    vecs = list(product(field.elements(), repeat=d))
    seen = set()
    for r in range(len(vecs) + 1):
        if r > 3:
            break  # every subspace of dim <= 3 has a spanning set of <= 3 vectors
        from itertools import combinations as comb

        for rows in comb(vecs, r):
            seen.add(frozenset(span_vectors(field, d, list(rows))))
    return len(seen)


def test_enumerate_dim2_gf2():
    f = FieldSpec(2)
    space = rref(f, 2, [(1, 0), (0, 1)])
    subs = enumerate_subspaces(space)
    assert len(subs) == 5
    assert len(subs) == brute_subspace_count(f, 2)
    assert subs[0].dim == 0
    assert subs[-1] == space


def test_enumerate_trivial():
    f = FieldSpec(2)
    assert enumerate_subspaces(Subspace.zero(f, 4)) == [Subspace.zero(f, 4)]


def test_enumerate_dim3_gf2():
    f = FieldSpec(2)
    space = rref(f, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    subs = enumerate_subspaces(space)
    assert len(subs) == 16
    assert len(subs) == brute_subspace_count(f, 3)
    assert len(set(subs)) == 16


def test_enumerate_counts_match_galois_numbers():
    for q in (2, 3, 4, 5):
        f = field_of_order(q)
        for dim in range(5):
            basis = tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(dim))
            space = Subspace(f, 4, basis)
            subs = enumerate_subspaces(space)
            assert len(subs) == galois_number(dim, q)
            assert len(set(subs)) == len(subs)
            for s in subs:
                assert rref(f, 4, s.rows) == s


def test_enumerate_embedded_subspace_members():
    # non-coordinate ambient basis: subspaces must live inside the space
    f = FieldSpec(3)
    space = rref(f, 4, [(1, 0, 2, 1), (0, 1, 1, 1)])
    subs = enumerate_subspaces(space)
    assert len(subs) == galois_number(2, 3)
    for s in subs:
        for row in s.rows:
            assert space.contains(row)


def test_enumerate_guard():
    f = FieldSpec(2)
    basis = tuple(tuple(1 if j == i else 0 for j in range(8)) for i in range(7))
    with pytest.raises(ValueError):
        enumerate_subspaces(Subspace(f, 8, basis))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert galois_number(2, 2) == 5
    assert galois_number(3, 2) == 16


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def subspace_pair(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    f = field_of_order(q)
    d = draw(st.integers(min_value=1, max_value=4))
    mk = lambda: rref(
        f,
        d,
        [
            tuple(draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(d))
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        ],
    )
    return f, d, mk(), mk()


@settings(max_examples=60, deadline=None)
@given(subspace_pair())
def test_modular_dimension_law(data):
    _, _, u1, u2 = data
    assert hull(u1, u2).dim + intersect(u1, u2).dim == u1.dim + u2.dim


@settings(max_examples=40, deadline=None)
@given(subspace_pair())
def test_self_hull_and_intersection(data):
    _, _, u1, _ = data
    assert hull(u1, u1) == u1
    assert intersect(u1, u1) == u1


@settings(max_examples=40, deadline=None)
@given(subspace_pair())
def test_intersection_contained_in_both(data):
    _, _, u1, u2 = data
    w = intersect(u1, u2)
    for row in w.rows:
        assert u1.contains(row)
        assert u2.contains(row)
