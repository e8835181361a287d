from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgeideals.monomials import Variable
from edgeideals.simplicial import (
    SimplicialComplexOnSupport,
    boundary_matrix,
    exact_rank,
    homology_ranks_of_masks,
    maximalize,
    nerve_face_masks,
    reduced_homology_ranks,
)

a, b, c, d = (Variable(ch) for ch in "abcd")


def ranks_dict(C):
    return {dim: r for dim, r in reduced_homology_ranks(C) if r}


class TestComplex:
    def test_faces_are_downward_closed(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b, c), [[a, b], [b, c]])
        faces = C.faces()
        for face in faces:
            for v in face:
                assert face - {v} in faces

    def test_empty_face_always_present(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a,), [[a]])
        assert frozenset() in C.faces()

    def test_facets_are_maximalized(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b), [[a], [a, b]])
        assert C.facets == (0b11,)

    def test_has_face(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b, c), [[a, b]])
        assert C.has_face([a])
        assert C.has_face([a, b])
        assert not C.has_face([c])
        assert not C.has_face([a, b, c])

    def test_void_versus_irrelevant(self):
        void = SimplicialComplexOnSupport((a,), [])
        point_free = SimplicialComplexOnSupport((a,), [0])
        assert void.is_void()
        assert not point_free.is_void()
        assert point_free.faces() == {frozenset()}

    def test_dim(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b, c), [[a, b, c]])
        assert C.dim() == 2


class TestHomology:
    def test_two_isolated_points(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b), [[a], [b]])
        assert ranks_dict(C) == {0: 1}

    def test_triangle_boundary_is_a_circle(self):
        C = SimplicialComplexOnSupport.from_maximal_faces(
            (a, b, c), [[a, b], [b, c], [a, c]]
        )
        assert ranks_dict(C) == {1: 1}

    def test_full_simplex_is_contractible(self):
        C = SimplicialComplexOnSupport.from_maximal_faces((a, b, c, d), [[a, b, c, d]])
        assert ranks_dict(C) == {}

    def test_irrelevant_complex(self):
        C = SimplicialComplexOnSupport((a,), [0])
        assert ranks_dict(C) == {-1: 1}

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError, match="void"):
            reduced_homology_ranks(SimplicialComplexOnSupport((a,), []))

    def test_two_triangles_sharing_an_edge(self):
        C = SimplicialComplexOnSupport.from_maximal_faces(
            (a, b, c, d), [[a, b, c], [b, c, d]]
        )
        assert ranks_dict(C) == {}

    def test_sphere_boundary_of_tetrahedron(self):
        C = SimplicialComplexOnSupport.from_maximal_faces(
            (a, b, c, d), [[a, b, c], [a, b, d], [a, c, d], [b, c, d]]
        )
        assert ranks_dict(C) == {2: 1}


def _rank_with_fractions(rows):
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / m[rank][col]
                for cc in range(col, ncols):
                    m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == len(m):
            break
    return rank


matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=1,
        max_size=8,
    )
)


@st.composite
def deficient_matrices(draw):
    """Drawn rows followed by integer combinations of them, so the rank is short."""
    rows = draw(matrices)
    n = len(rows[0])
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        coeffs = draw(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=len(rows), max_size=len(rows))
        )
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
    return draw(st.permutations(rows))


@given(matrices)
def test_exact_rank_matches_fraction_elimination(rows):
    assert exact_rank(rows) == _rank_with_fractions(rows)


@given(deficient_matrices())
def test_exact_rank_of_dependent_rows_matches_fraction_elimination(rows):
    assert exact_rank(rows) == _rank_with_fractions(rows)


def test_exact_rank_known_values():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2
    assert exact_rank([]) == 0
    # Non-unit entries; all but [[2, 0], [0, 3]] reach the non-unit pivot step.
    assert exact_rank([[2, 3], [4, 6]]) == 1
    assert exact_rank([[2, 0], [0, 3]]) == 2
    assert exact_rank([[6, 10], [15, 25]]) == 1
    assert exact_rank([[2, 3], [4, 7]]) == 2


def test_exact_rank_leaves_its_argument_unchanged():
    rows = [[2, 3, 0], [4, 6, 1], [6, 10, 5], [0, 0, 0]]
    before = [row[:] for row in rows]
    exact_rank(rows)
    assert rows == before


@pytest.mark.parametrize("n", range(2, 9))
def test_boundary_of_a_simplex_is_a_sphere(n):
    # Every proper face of the simplex on n vertices: the (n-2)-sphere.
    faces = full_simplex_faces(n) - {(1 << n) - 1}
    ranks = {d: r for d, r in homology_ranks_of_masks(faces) if r}
    assert ranks == {n - 2: 1}


def full_simplex_faces(n: int) -> set[int]:
    """All 2^n faces of the full simplex on n vertices."""
    return set(range(1 << n)) if n else {0}


def test_boundary_matrix_squares_to_zero():
    faces2 = sorted(full_simplex_faces(4) - {0b1111}, key=lambda m: (bin(m).count("1"), m))
    by_dim = {}
    for m in faces2:
        by_dim.setdefault(bin(m).count("1") - 1, []).append(m)
    d2 = boundary_matrix(by_dim[2], by_dim[1])
    d1 = boundary_matrix(by_dim[1], by_dim[0])
    rows, mid, cols = len(d1), len(d1[0]), len(d2[0])
    prod = [
        [sum(d1[r][k] * d2[k][cc] for k in range(mid)) for cc in range(cols)]
        for r in range(rows)
    ]
    assert all(all(x == 0 for x in row) for row in prod)


def test_maximalize():
    assert maximalize([0b01, 0b11, 0b11, 0b100]) == (0b11, 0b100)
    assert maximalize([0]) == (0,)
    assert maximalize([]) == ()


facet_lists = st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), min_size=1, max_size=5)


@given(facet_lists)
def test_nerve_has_same_homology_as_union(facets):
    facets = list(maximalize(facets))
    union_faces = set()
    for f in facets:
        sub = f
        while True:
            union_faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    direct = {d: r for d, r in homology_ranks_of_masks(union_faces) if r}
    nerve = {d: r for d, r in homology_ranks_of_masks(nerve_face_masks(facets)) if r}
    assert direct == nerve
