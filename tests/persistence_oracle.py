"""Explicit simplex lists, boundary matrices and the plain column reduction:
the reference that ``homology.compute_persistence`` is checked against on
small inputs.  Quadratic and allocation-heavy by design."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bettinet import homology as H


@dataclass(frozen=True)
class Simplex:
    """A simplex with its filtration value (diameter)."""

    vertices: tuple[int, ...]
    birth: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


def simplices(filt: H.Filtration) -> list[Simplex]:
    """All simplices of the filtration in global filtration order, the
    unstored top dimension built here."""
    verts, births = list(filt.verts_by_dim), list(filt.births_by_dim)
    adj = filt.edge_rank < len(filt.edge_lengths)
    cols = list(verts[-1].T)
    cols, ranks = H._extend_cliques(cols, H._birth_ranks(filt, filt.max_dim), adj, filt.edge_rank)
    verts.append(np.column_stack(cols))
    births.append(filt.edge_lengths[ranks])
    items: list[tuple[float, int, tuple[int, ...]]] = []
    for d, (vs, bs) in enumerate(zip(verts, births)):
        for row, birth in zip(vs, bs):
            items.append((float(birth), d, tuple(int(v) for v in row)))
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


def _pair_of_row(matrix: BoundaryMatrix) -> dict[int, int]:
    """Plain left-to-right column reduction: for each row that is some
    column's pivot, that column."""
    m = len(matrix.columns)
    cols = [0] * m
    for j, faces in enumerate(matrix.columns):
        c = 0
        for f in faces:
            c |= 1 << f
        cols[j] = c
    pair_of_row: dict[int, int] = {}
    for j in range(m):
        col = cols[j]
        while col:
            low = col.bit_length() - 1
            if low in pair_of_row:
                col ^= cols[pair_of_row[low]]
            else:
                pair_of_row[low] = j
                break
        cols[j] = col
    return pair_of_row


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
    return H._assemble_barcode(
        bars,
        n_simplices=m,
        paired=paired,
        essential=essential,
        max_radius=filt.max_radius,
        report_dims=range(filt.max_dim + 1),
    )
