"""Simplicial complexes on variable supports and exact homology ranks.

Complexes are stored by their inclusion-maximal faces (facets) as
bitmasks over an ordered ground set, which keeps downward closure true
by construction.  Reduced rational homology ranks come from boundary
matrices over the integers.  Their entries are 0 and ±1, with d+1
nonzeros per column, so ``exact_rank`` reduces them as sparse integer
rows, with no floats and no modular arithmetic: every rank is exact.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .monomials import Variable


def _submasks(mask: int):
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def maximalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Drop masks contained in another mask; dedup; sorted output."""
    uniq = sorted(set(masks), key=int.bit_count, reverse=True)
    out: list[int] = []
    for m in uniq:
        if not any(m & f == m for f in out):
            out.append(m)
    return tuple(sorted(out))


class SimplicialComplexOnSupport:
    """An abstract simplicial complex on an ordered subset of variables.

    ``facets == ()`` is the void complex (no faces at all); ``facets ==
    (0,)`` is the irrelevant complex whose only face is the empty set.
    Faces are exposed as frozensets of variables; internally they are
    bitmasks over ``ground``.
    """

    __slots__ = ("ground", "facets")

    def __init__(self, ground: Sequence[Variable], facets: Iterable[int]):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set contains repeats")
        facets = maximalize(facets)
        top = (1 << len(self.ground)) - 1
        for f in facets:
            if f & ~top:
                raise ValueError("facet mask outside the ground set")
        self.facets = facets

    @classmethod
    def from_maximal_faces(
        cls, ground: Sequence[Variable], maximal: Iterable[Iterable[Variable]]
    ) -> "SimplicialComplexOnSupport":
        ground = tuple(ground)
        pos = {v: i for i, v in enumerate(ground)}
        masks = []
        for face in maximal:
            m = 0
            for v in face:
                m |= 1 << pos[v]
            masks.append(m)
        return cls(ground, masks)

    def is_void(self) -> bool:
        return not self.facets

    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex.  Void complexes raise."""
        if self.is_void():
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def face_masks(self) -> set[int]:
        out: set[int] = set()
        for f in self.facets:
            for s in _submasks(f):
                out.add(s)
        return out

    def faces(self) -> set[frozenset[Variable]]:
        return {self._unmask(m) for m in self.face_masks()}

    def _unmask(self, mask: int) -> frozenset[Variable]:
        return frozenset(v for i, v in enumerate(self.ground) if mask >> i & 1)

    def has_face(self, face: Iterable[Variable]) -> bool:
        pos = {v: i for i, v in enumerate(self.ground)}
        m = 0
        for v in face:
            if v not in pos:
                return False
            m |= 1 << pos[v]
        return any(m & f == m for f in self.facets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplexOnSupport)
            and self.ground == other.ground
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.facets))

    def __repr__(self) -> str:
        names = ",".join(str(v) for v in self.ground)
        return f"SimplicialComplexOnSupport([{names}], {len(self.facets)} facets)"


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by sparse row reduction.

    Each row becomes a ``{column: entry}`` dict and is reduced against
    the pivot rows found so far, each keyed by its lead column (its last
    nonzero column).  While the row's lead column has a pivot with lead
    entry p, and x is the row's lead entry:

    - if p is ±1, subtract x·p times the pivot row;
    - otherwise divide p and x by their gcd, set row = p·row - x·pivot,
      and divide the row by the gcd of its entries.

    Both steps are invertible over Q and stay in the integers, so the
    rank is exact.  A row left nonzero becomes the pivot of its lead
    column, and the rank is the number of pivots.  ``rows`` is not
    modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            x = row[lead]
            p = pivot[lead]
            unit = p == 1 or p == -1
            if unit:
                f = x * p
            else:
                g = gcd(p, x)
                p, f = p // g, x // g
                row = {j: p * y for j, y in row.items()}
            for j, y in pivot.items():
                v = row.get(j, 0) - f * y
                if v:
                    row[j] = v
                else:
                    del row[j]
            if not unit and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {j: y // g for j, y in row.items()}
    return len(pivots)


def boundary_matrix(upper: list[int], lower: list[int]) -> list[list[int]]:
    """Signed boundary matrix from the faces ``upper`` to the faces ``lower``.

    Faces are bitmasks; ``lower`` must contain every codimension-1
    subface of every upper face.  Rows are indexed by ``lower``, columns
    by ``upper``; removing the j-th lowest set bit carries sign (-1)^j.
    """
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            mat[index[face ^ low]][j] = sign
            sign = -sign
            rest ^= low
    return mat


def homology_ranks_of_masks(face_masks: set[int]) -> list[tuple[int, int]]:
    """Reduced rational homology ranks of a complex given by all its faces.

    Returns [(d, rank)] for d = -1 .. dim.  The face set must be
    downward closed and contain the empty face (mask 0).
    """
    if 0 not in face_masks:
        raise ValueError("face set must contain the empty face")
    by_dim: dict[int, list[int]] = {}
    for m in face_masks:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    ranks_boundary: dict[int, int] = {}
    for d in range(0, top + 1):
        mat = boundary_matrix(by_dim[d], by_dim[d - 1])
        ranks_boundary[d] = exact_rank(mat)
    out = []
    for d in range(-1, top + 1):
        n_d = len(by_dim.get(d, ()))
        h = n_d - ranks_boundary.get(d, 0) - ranks_boundary.get(d + 1, 0)
        out.append((d, h))
    return out


def reduced_homology_ranks(C: SimplicialComplexOnSupport) -> list[tuple[int, int]]:
    """Reduced homology ranks over the rationals, from exact boundary ranks.

    Returns [(d, rank)] for d = -1 .. dim(C).  The void complex is
    rejected; the irrelevant complex {∅} has rank 1 in dimension -1.
    """
    if C.is_void():
        raise ValueError("cannot compute homology of the void complex")
    return homology_ranks_of_masks(C.face_masks())


def nerve_face_masks(facets: Sequence[int]) -> set[int]:
    """Faces of the nerve of a cover by simplices with vertex sets ``facets``.

    A subset S of covering simplices spans a nerve face exactly when the
    intersection of their vertex sets is nonempty; since intersections of
    simplices are simplices (hence contractible when nonempty), the nerve
    has the same homotopy type as the union.  Enumeration prunes upward:
    supersets of an empty intersection stay empty.
    """
    m = len(facets)
    faces: set[int] = {0}
    frontier: dict[int, int] = {0: -1}  # nerve mask -> intersection mask (-1 = everything)
    while frontier:
        new: dict[int, int] = {}
        for mask, inter in frontier.items():
            for j in range(mask.bit_length(), m):
                nxt = inter & facets[j]
                if nxt:
                    new[mask | (1 << j)] = nxt
        faces.update(new)
        frontier = new
    return faces
