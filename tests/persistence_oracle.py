"""Explicit simplex lists, boundary matrices and the plain column reduction:
the reference that ``homology.compute_persistence`` is checked against on
small inputs, and Betti numbers by rank-nullity from the same reduction.
Quadratic and allocation-heavy by design."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from bettinet import homology as H

BRUTE_FORCE_POINT_GUARD = 16


class FaceClosureError(ValueError):
    """Simplex list is not closed under taking faces."""


class PointCountError(ValueError):
    """Too many points for exhaustive enumeration."""


@dataclass(frozen=True)
class Simplex:
    """A simplex with its filtration value (diameter)."""

    vertices: tuple[int, ...]
    birth: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def simplices(filt: H.Filtration) -> list[Simplex]:
    """All simplices of the filtration in global filtration order.  The
    unstored top dimension is built here, by ``_clique_simplices`` on the
    filtration's edges, each clique born with its longest edge."""
    items: list[tuple[float, int, tuple[int, ...]]] = []
    for d, (vs, bs) in enumerate(zip(filt.verts_by_dim, filt.births_by_dim)):
        for row, birth in zip(vs, bs):
            items.append((float(birth), d, tuple(int(v) for v in row)))
    adj = filt.edge_rank < len(filt.edge_lengths)
    for s in _clique_simplices(adj, filt.top_dim)[filt.top_dim]:
        birth = max(filt.edge_lengths[filt.edge_rank[u, v]] for u, v in combinations(s, 2))
        items.append((float(birth), filt.top_dim, s))
    items.sort()
    return [Simplex(vertices=v, birth=b) for b, _, v in items]


@dataclass(frozen=True)
class BoundaryMatrix:
    """Z/2 boundary matrix in global filtration order.

    ``columns[j]`` holds the row indices of the codimension-1 faces of
    simplex j; a k-simplex column has exactly k+1 entries.
    """

    columns: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]
    births: tuple[float, ...]

    def d_squared_is_zero(self) -> bool:
        """Check that applying the boundary twice annihilates every column."""
        for faces in self.columns:
            acc: set[int] = set()
            for f in faces:
                acc ^= set(self.columns[f])
            if acc:
                return False
        return True


def boundary_matrix(filt: H.Filtration) -> BoundaryMatrix:
    ordered = simplices(filt)
    index = {s.vertices: j for j, s in enumerate(ordered)}
    columns = []
    for s in ordered:
        if s.dim == 0:
            columns.append(())
            continue
        faces = []
        for drop in range(len(s.vertices)):
            face = s.vertices[:drop] + s.vertices[drop + 1 :]
            faces.append(index[face])
        columns.append(tuple(sorted(faces)))
    return BoundaryMatrix(
        columns=tuple(columns),
        dims=tuple(s.dim for s in ordered),
        births=tuple(s.birth for s in ordered),
    )


def _reduce(columns: list[int]) -> dict[int, int]:
    """Plain left-to-right reduction of Z/2 columns, bit i of a column set
    for row i: for each row that is some column's pivot, that column.  The
    rank is the number of pivots."""
    reduced = list(columns)
    pair_of_row: dict[int, int] = {}
    for j, col in enumerate(reduced):
        while col:
            low = col.bit_length() - 1
            if low in pair_of_row:
                col ^= reduced[pair_of_row[low]]
            else:
                pair_of_row[low] = j
                break
        reduced[j] = col
    return pair_of_row


def _pair_of_row(matrix: BoundaryMatrix) -> dict[int, int]:
    return _reduce([sum(1 << f for f in faces) for faces in matrix.columns])


def killing_simplices(filt: H.Filtration, d: int) -> list[tuple[int, ...]]:
    """Vertices of the (d+1)-simplices that kill a d-class, in filtration
    order."""
    ordered, matrix = simplices(filt), boundary_matrix(filt)
    pairs = sorted((j, i) for i, j in _pair_of_row(matrix).items())
    return [ordered[j].vertices for j, i in pairs if matrix.dims[i] == d]


def reference_persistence(filt: H.Filtration) -> H.Barcode:
    """Plain left-to-right column reduction over the full boundary matrix."""
    matrix = boundary_matrix(filt)
    m = len(matrix.columns)
    pair_of_row = _pair_of_row(matrix)
    bars: dict[int, list[H.Interval]] = {}
    paired = 0
    essential = 0
    paired_cols = set(pair_of_row.values())
    for i in range(m):
        if i in pair_of_row:
            paired += 1
            d = matrix.dims[i]
            bars.setdefault(d, []).append(
                H.Interval(matrix.births[i], matrix.births[pair_of_row[i]])
            )
        elif i not in paired_cols:
            essential += 1
            bars.setdefault(matrix.dims[i], []).append(H.Interval(matrix.births[i], None))
    # zero-length bars dropped; by birth, then death with infinity last
    intervals = {
        d: tuple(sorted((iv for iv in bars.get(d, []) if iv.death != iv.birth),
                        key=lambda iv: (iv.birth, math.inf if iv.death is None else iv.death)))
        for d in range(filt.max_dim + 1)
    }
    return H.Barcode(intervals=intervals, n_simplices=m, paired_count=paired,
                     essential_count=essential, max_radius=filt.max_radius)


# ---------------------------------------------------------------------------
# Betti numbers by rank-nullity, independent of any persistence pairing
# ---------------------------------------------------------------------------


def _clique_simplices(adj: np.ndarray, top_dim: int) -> list[list[tuple[int, ...]]]:
    """All cliques of the adjacency graph with <= top_dim+1 vertices, by dim."""
    n = adj.shape[0]
    by_dim: list[list[tuple[int, ...]]] = [[(v,) for v in range(n)]]
    for d in range(1, top_dim + 1):
        nxt = []
        for s in by_dim[d - 1]:
            last = s[-1]
            for v in range(last + 1, n):
                if all(adj[u, v] for u in s):
                    nxt.append(s + (v,))
        by_dim.append(nxt)
    return by_dim


def _boundary_rank(faces: list[tuple[int, ...]], cofaces: list[tuple[int, ...]]) -> int:
    index = {s: i for i, s in enumerate(faces)}
    columns = [sum(1 << index[s[:drop] + s[drop + 1 :]] for drop in range(len(s))) for s in cofaces]
    return len(_reduce(columns))


def _betti(by_dim: list[list[tuple[int, ...]]]) -> list[int]:
    """Betti numbers by rank-nullity of a complex given as its sorted
    simplices per dimension; each boundary rank is taken once."""
    ranks = [0] + [_boundary_rank(a, b) for a, b in zip(by_dim, by_dim[1:])] + [0]
    return [len(s) - ranks[d] - ranks[d + 1] for d, s in enumerate(by_dim)]


def brute_force_betti(dist, dim: int, radius: float) -> int:
    """Betti number of the clique complex at ``radius`` by rank-nullity.

    The Betti numbers of every clique up to dimension dim+1, which is
    independent of the persistence pairing and so can validate it.  Guarded
    to small inputs.
    """
    arr = H.as_distance_matrix(dist)
    n = arr.shape[0]
    if n > BRUTE_FORCE_POINT_GUARD:
        raise PointCountError(
            f"brute-force oracle is limited to {BRUTE_FORCE_POINT_GUARD} points, got {n}"
        )
    adj = (arr <= radius) & ~np.eye(n, dtype=bool)
    return _betti(_clique_simplices(adj, dim + 1))[dim]


def _normalize_complex(simplices: Iterable[Sequence[int]]) -> list[list[tuple[int, ...]]]:
    seen: set[tuple[int, ...]] = set()
    for s in simplices:
        vs = tuple(int(v) for v in s)
        if len(vs) == 0 or list(vs) != sorted(set(vs)):
            raise FaceClosureError(f"simplex {vs} is not a strictly increasing vertex list")
        seen.add(vs)
    for vs in list(seen):
        if len(vs) > 1:
            for drop in range(len(vs)):
                face = vs[:drop] + vs[drop + 1 :]
                if face not in seen:
                    raise FaceClosureError(f"face {face} of {vs} is missing")
    top = max(map(len, seen), default=0)
    return [sorted(vs for vs in seen if len(vs) == k) for k in range(1, top + 1)]


def complex_betti(simplices: Iterable[Sequence[int]]) -> list[int]:
    """Betti numbers over Z/2 of an explicit simplicial complex.

    The input must be closed under taking faces; raises FaceClosureError
    otherwise.  Returns [b_0, ..., b_top].
    """
    return _betti(_normalize_complex(simplices))
