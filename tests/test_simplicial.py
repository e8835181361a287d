
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgeideals.digraphs import edge_ideal
from edgeideals.fixtures import FIXTURES
from edgeideals.monomials import exponent_vectors, parse_ideal
from edgeideals.simplicial import (
    boundary_matrix,
    exact_rank,
    homology_ranks_of_masks,
    nerve_face_masks,
)
from edgeideals.taylor import rank_over_q, taylor_betti_table


def down_closure(facets):
    """Every face of the complex with the given facets, the empty face included."""
    faces = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def antichain(masks):
    """The inclusion-maximal masks among ``masks``, without repeats, sorted."""
    uniq = set(masks)
    return sorted(m for m in uniq if not any(m != f and m & f == m for f in uniq))


class TestDownClosure:
    # the face sets the homology cases below are ranked on
    def test_faces_are_downward_closed(self):
        faces = down_closure([0b011, 0b110])
        assert faces == {0, 0b001, 0b010, 0b100, 0b011, 0b110}
        assert all(f & ~(1 << k) in faces for f in faces for k in range(3))

    def test_empty_face_always_present(self):
        assert down_closure([0b1]) == {0, 0b1}


class TestHomology:
    # faces are bitmasks over the vertices a, b, c, d = bits 0..3
    def test_two_isolated_points(self):
        assert homology_ranks_of_masks(down_closure([0b01, 0b10])) == {0: 1}

    def test_triangle_boundary_is_a_circle(self):
        assert homology_ranks_of_masks(down_closure([0b011, 0b110, 0b101])) == {1: 1}

    def test_full_simplex_is_contractible(self):
        assert homology_ranks_of_masks(full_simplex_faces(4)) == {}

    def test_irrelevant_complex(self):
        assert homology_ranks_of_masks({0}) == {-1: 1}

    def test_two_triangles_sharing_an_edge(self):
        assert homology_ranks_of_masks(down_closure([0b0111, 0b1110])) == {}

    def test_sphere_boundary_of_tetrahedron(self):
        assert homology_ranks_of_masks(down_closure([0b0111, 0b1011, 0b1101, 0b1110])) == {2: 1}


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


def sparse(rows):
    """Dense integer rows as the ``{column: entry}`` rows ``exact_rank`` takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def fraction_rank(rows):
    """Reference rank: plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for row in m[rank + 1:]:
            factor = row[col] / prow[col]
            for c in range(col, len(prow)):
                row[c] -= factor * prow[c]
        rank += 1
    return rank


@given(matrices)
def test_exact_rank_and_oracle_rank_match_fraction_rank(rows):
    assert exact_rank(sparse(rows)) == rank_over_q(rows) == fraction_rank(rows)


@given(deficient_matrices())
def test_exact_rank_and_oracle_rank_of_dependent_rows_match_fraction_rank(rows):
    assert exact_rank(sparse(rows)) == rank_over_q(rows) == fraction_rank(rows)


def test_oracle_rank_leaves_its_argument_unchanged():
    rows = [[2, 3, 0], [4, 6, 1], [6, 10, 5], [0, 0, 0]]
    before = [list(row) for row in rows]
    assert rank_over_q(rows) == 3
    assert rows == before


def test_exact_rank_known_values():
    assert exact_rank(sparse([[1, 0], [0, 1]])) == 2
    assert exact_rank(sparse([[1, 2], [2, 4]])) == 1
    assert exact_rank(sparse([[0, 0], [0, 0]])) == 0
    assert exact_rank(sparse([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2
    assert exact_rank([]) == 0
    assert rank_over_q([]) == 0
    assert rank_over_q([[0, 0, 0], [0, 0, 0]]) == 0
    # Non-unit pivots.  Rows with a zero in the first pivot column must still
    # be scaled by 7, or the second step's division by 7 is not exact.
    assert rank_over_q([[2, 1, 0], [3, 3, 1], [0, 6, 4]]) == 2
    assert rank_over_q([[7, -3, 5], [0, 5, 0], [0, 2, 1]]) == 3
    # The second pivot is −1 = −prev, so its row is negated before eliminating.
    assert rank_over_q([[1, 1, 0], [1, 0, 1], [0, 1, 1]]) == 3
    # Non-unit entries; all but [[2, 0], [0, 3]] reach the non-unit pivot step.
    assert exact_rank(sparse([[2, 3], [4, 6]])) == 1
    assert exact_rank(sparse([[2, 0], [0, 3]])) == 2
    assert exact_rank(sparse([[6, 10], [15, 25]])) == 1
    assert exact_rank(sparse([[2, 3], [4, 7]])) == 2


def test_exact_rank_leaves_its_argument_unchanged():
    rows = sparse([[2, 3, 0], [4, 6, 1], [6, 10, 5], [0, 0, 0]])
    before = [dict(row) for row in rows]
    exact_rank(rows)
    assert rows == before


@pytest.mark.parametrize("n", range(2, 9))
def test_boundary_of_a_simplex_is_a_sphere(n):
    # Every proper face of the simplex on n vertices: the (n-2)-sphere.
    faces = full_simplex_faces(n) - {(1 << n) - 1}
    assert homology_ranks_of_masks(faces) == {n - 2: 1}


def full_simplex_faces(n: int) -> set[int]:
    """All 2^n faces of the full simplex on n vertices."""
    return set(range(1 << n)) if n else {0}


def faces_by_dim(faces):
    by_dim = {}
    for m in sorted(faces):
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    return by_dim


@pytest.mark.parametrize(
    "faces",
    [full_simplex_faces(4) - {0b1111}, {m for m in full_simplex_faces(5) if m & 0b111}],
    ids=["sphere", "relative"],
)
def test_boundary_matrix_squares_to_zero(faces):
    # One sparse row per upper face; d1 after d2 is zero, on the boundary
    # of the tetrahedron and on the 5-simplex relative to its faces that
    # avoid the first three vertices.
    by_dim = faces_by_dim(faces)
    d2 = dense(boundary_matrix(by_dim[2], by_dim[1]), len(by_dim[1]))
    d1 = dense(boundary_matrix(by_dim[1], by_dim[0]), len(by_dim[0]))
    assert any(any(row) for row in d1) and any(any(row) for row in d2)
    prod = [[sum(x * d1[k][c] for k, x in enumerate(row)) for c in range(len(by_dim[0]))] for row in d2]
    assert all(all(x == 0 for x in row) for row in prod)


def test_boundary_matrix_drops_subfaces_outside_the_family():
    # Edges of a triangle into the vertices a and c only: b's column is gone.
    rows = boundary_matrix([0b011, 0b101, 0b110], [0b001, 0b100])
    assert rows == [{0: -1}, {0: -1, 1: 1}, {1: 1}]


facet_lists = st.lists(st.integers(min_value=1, max_value=(1 << 6) - 1), min_size=1, max_size=5)


@given(facet_lists)
def test_nerve_has_same_homology_as_union(facets):
    facets = antichain(facets)
    assert homology_ranks_of_masks(down_closure(facets)) == homology_ranks_of_masks(nerve_face_masks(facets))


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=6),
    st.integers(min_value=0, max_value=(1 << 6) - 1),
)
@example([], 0)
@example([], 0b101)
@example([0, 0b011, 0b110], 0)
@example([0, 0b011, 0b110], 0b010)
@example([0b011, 0b110, 0b101, 0b111], 0b011)
def test_nerve_lists_each_face_whose_intersection_misses_outside_once(facets, outside):
    # the faces are the subsets of facets with a nonempty intersection
    # that misses outside; the empty subset intersects to everything, so
    # it stays only when outside is 0
    want = set()
    for S in range(1 << len(facets)):
        inter = -1
        for j, f in enumerate(facets):
            if S >> j & 1:
                inter &= f
        if inter and not inter & outside:
            want.add(S)
    faces = nerve_face_masks(facets, outside)
    assert set(faces) == want
    assert len(faces) == len(want)
    if not outside:
        assert nerve_face_masks(facets) == faces


@pytest.mark.parametrize(
    "ideal",
    [
        parse_ideal("(x1*x2, x2*x3, x1*x3)"),
        parse_ideal("(x1*x2^2, x2*x3, x1^2*x3, x1*x3^2)"),
        edge_ideal(FIXTURES["3.4"].graph),
        edge_ideal(FIXTURES["3.6"].graph),
    ],
    ids=["triangle", "four-generators", "3.4", "3.6"],
)
def test_taylor_strands_as_relative_complexes_match_the_oracle(ideal):
    # Each strand's cells are the subsets with one lcm, an up-set of the
    # simplex on the generators dividing it; their relative homology in
    # dimension d is β_{d, deg}, which the Taylor oracle gets by its own
    # dense elimination over Fraction.
    gens = exponent_vectors(ideal)[1]
    strands = {}
    for S in range(1, 1 << len(gens)):
        lcm = tuple(map(max, zip(*(g for k, g in enumerate(gens) if S >> k & 1))))
        strands.setdefault(lcm, set()).add(S)
    entries = {}
    for lcm, cells in strands.items():
        for d, h in homology_ranks_of_masks(cells).items():
            entries[d, sum(lcm)] = entries.get((d, sum(lcm)), 0) + h
    assert any(len(cells) > 1 for cells in strands.values())
    assert entries == taylor_betti_table(ideal).entries
