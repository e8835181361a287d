"""Exact homology ranks of families of faces given as bitmasks.

A face is a bitmask over an ordered ground set; nothing here knows
variables or monomials.  Homology ranks come from integer boundary
matrices in sparse rows, reduced by ``exact_rank`` with no floats and no
modular arithmetic.  The same code ranks a complex and a relative
complex: ``betti`` ranks each nerve relative to the closed star of one
vertex, whose cells ``nerve_face_masks`` lists directly (the faces of
the deletion of that vertex whose intersection misses its simplex), and
each Taylor strand relative to the subsets of smaller lcm.  The oracle
in ``taylor`` keeps its own dense boundary code as the reference.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def exact_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix, by row reduction.

    Each row is a ``{column: entry}`` dict of nonzero entries, and is
    reduced against the pivot rows found so far, each keyed by its lead
    column (its last nonzero column).  While the row's lead column has a
    pivot with lead entry p, and x is the row's lead entry:

    - if p is ±1, subtract x·p times the pivot row;
    - otherwise divide p and x by their gcd, set row = p·row - x·pivot,
      and divide the row by the gcd of its entries.

    Both steps are invertible over Q and stay in the integers, so the
    rank is exact.  A row left nonzero becomes the pivot of its lead
    column, and the rank is the number of pivots.  ``rows`` is not
    modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = dict(given)
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


def boundary_matrix(upper: list[int], lower: list[int]) -> list[dict[int, int]]:
    """Signed boundary from the faces ``upper`` to the faces ``lower``.

    Faces are bitmasks.  One sparse row per upper face maps the index in
    ``lower`` of each codimension-1 subface to its sign: removing the
    j-th lowest set bit carries (-1)^j.  Subfaces not in ``lower`` are
    dropped, as a relative complex's boundary drops them.
    """
    index = {f: i for i, f in enumerate(lower)}
    rows = []
    for face in upper:
        row, sign, rest = {}, 1, face
        while rest:
            low = rest & -rest
            if (face ^ low) in index:
                row[index[face ^ low]] = sign
            sign, rest = -sign, rest ^ low
        rows.append(row)
    return rows


def homology_ranks_of_masks(face_masks: Iterable[int]) -> dict[int, int]:
    """Rational homology ranks of a convex family of distinct faces (with
    any two faces, every face between them), the boundary dropping the
    faces outside it.  Returns {d: rank} with the nonzero ranks only, so
    {} for an acyclic or empty family.

    All faces of a complex, the empty face included, give its reduced
    homology; the faces of a simplex outside a subcomplex, the homology
    relative to that subcomplex.
    """
    by_dim: dict[int, list[int]] = {}
    for m in face_masks:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    for faces in by_dim.values():
        faces.sort()
    ranks_boundary = {
        d: exact_rank(boundary_matrix(faces, by_dim[d - 1]))
        for d, faces in by_dim.items()
        if d - 1 in by_dim
    }
    out = {}
    for d in sorted(by_dim):
        h = len(by_dim[d]) - ranks_boundary.get(d, 0) - ranks_boundary.get(d + 1, 0)
        if h:
            out[d] = h
    return out


def nerve_face_masks(facets: Sequence[int], outside: int = 0) -> list[int]:
    """Faces of the nerve of a cover by simplices with vertex sets ``facets``
    whose intersection misses ``outside``, each listed once.  The empty
    face intersects to everything, so it is listed only when ``outside``
    is 0.

    A subset S of covering simplices spans a nerve face exactly when the
    intersection of their vertex sets is nonempty; since intersections of
    simplices are simplices (hence contractible when nonempty), the nerve
    has the same homotopy type as the union.  Enumeration prunes upward:
    supersets of an empty intersection stay empty, and a face adds facet j
    or any later one only while its intersection with all of facets[j:]
    (their suffix AND) misses ``outside``, since every such superset's
    intersection contains that one.  ``betti`` reads the cells of a nerve
    relative to the closed star of a vertex off the deletion of that
    vertex, with the vertex's simplex as ``outside``.
    """
    m = len(facets)
    later = [-1] * (m + 1)  # later[j]: AND of facets[j:]
    for j in range(m - 1, -1, -1):
        later[j] = later[j + 1] & facets[j]
    faces = [] if outside else [0]
    frontier = [(0, -1)]
    while frontier:
        new = []
        for mask, inter in frontier:
            for j in range(mask.bit_length(), m):
                if inter & later[j] & outside:
                    break
                nxt = inter & facets[j]
                if nxt:
                    face = mask | (1 << j)
                    if not nxt & outside:
                        faces.append(face)
                    new.append((face, nxt))
        frontier = new
    return faces
