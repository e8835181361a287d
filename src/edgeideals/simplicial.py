"""Simplicial complexes on variable supports and exact homology ranks.

Complexes are stored by their inclusion-maximal faces (facets) as
bitmasks over an ordered ground set, which keeps downward closure true
by construction.  Reduced rational homology ranks come from boundary
matrices over the integers, eliminated fraction-free (Bareiss), so every
rank is exact.
"""

from __future__ import annotations

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
    """Rank over the rationals of an integer matrix, by Bareiss elimination.

    Fraction-free: every intermediate entry is a minor of the input, and
    the divisions are exact integer divisions.
    """
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            row, prow = m[r], m[rank]
            x = row[col]
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - x * prow[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


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
