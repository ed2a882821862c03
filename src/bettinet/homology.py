"""Vietoris-Rips persistent homology over Z/2 for finite point clouds.

Conventions (they matter for interpreting radius axes):

* A simplex is born at its *diameter*, the maximum pairwise distance among
  its vertices.  An edge between points at distance t appears at radius t.
  Depictions that grow balls of radius eps around points differ from this
  axis by a factor of 2.
* Persistence intervals are half-open [birth, death); zero-length bars are
  dropped from reported barcodes but counted internally.
* Coefficients are Z/2 throughout, so every rank is well-defined.
* Filtration order is (birth, dimension, lexicographic vertex list), which
  guarantees faces precede cofaces deterministically.
* Infinite deaths are represented by ``None``, never by a float.

All containers here are immutable after construction and safe to share
across threads; independent filtrations may be processed concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform

__all__ = [
    "GeometryError",
    "FaceClosureError",
    "PointCountError",
    "Simplex",
    "Filtration",
    "BoundaryMatrix",
    "Interval",
    "Barcode",
    "as_point_cloud",
    "as_distance_matrix",
    "pairwise_distances",
    "enclosing_radius",
    "build_rips",
    "boundary_matrix",
    "compute_persistence",
    "reference_persistence",
    "rips_persistence",
    "betti_at",
    "betti_curve",
    "b0_curve",
    "brute_force_betti",
    "complex_betti",
    "barcode_to_text",
    "barcode_from_text",
    "barcode_svg",
]

MAX_HOMOLOGY_DIM = 2
BRUTE_FORCE_POINT_GUARD = 16

DIM_COLORS = {0: "red", 1: "blue", 2: "green"}


class GeometryError(ValueError):
    """Invalid point cloud or distance matrix."""


class FaceClosureError(ValueError):
    """Simplex list is not closed under taking faces."""


class PointCountError(ValueError):
    """Too many points for exhaustive enumeration."""


# ---------------------------------------------------------------------------
# point clouds and distances
# ---------------------------------------------------------------------------


def as_point_cloud(points) -> np.ndarray:
    """Validate and return an (n, d) float64 array of points.

    Requires a nonempty collection of equal-length, finite coordinate rows.
    """
    try:
        arr = np.asarray(points, dtype=np.float64)
    except ValueError as exc:
        raise GeometryError(f"points have inconsistent dimensions: {exc}") from None
    if arr.ndim == 1 and arr.dtype == object or arr.ndim not in (1, 2):
        raise GeometryError("points must form a 2-d array (one row per point)")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise GeometryError("point cloud must be nonempty with dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("point coordinates must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_distance_matrix(dist) -> np.ndarray:
    """Validate a symmetric, zero-diagonal, finite, nonnegative matrix."""
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise GeometryError("distance matrix must be square and nonempty")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("distance entries must be finite")
    if np.any(arr < 0):
        raise GeometryError("distance entries must be nonnegative")
    if np.any(np.diag(arr) != 0.0):
        raise GeometryError("distance matrix diagonal must be exactly zero")
    if not np.array_equal(arr, arr.T):
        raise GeometryError("distance matrix must be exactly symmetric")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix; each pair computed once, so symmetry is exact."""
    cloud = as_point_cloud(points)
    if cloud.shape[0] == 1:
        out = np.zeros((1, 1))
    else:
        out = squareform(pdist(cloud))
    out.flags.writeable = False
    return out


def enclosing_radius(dist) -> float:
    """min over points of the max distance to the others.

    At this radius the complex is a cone over the minimising point, hence
    contractible: no homology in dims >= 1 survives past it and exactly one
    component remains.  Capping a filtration here changes no interval.
    """
    arr = as_distance_matrix(dist)
    if arr.shape[0] == 1:
        return 0.0
    return float(np.min(np.max(arr, axis=1)))


# ---------------------------------------------------------------------------
# filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Simplex:
    """A simplex with its filtration value (diameter)."""

    vertices: tuple[int, ...]
    birth: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Filtration:
    """Rips filtration in columnar form.

    ``verts_by_dim[d]`` is an (m_d, d+1) int array whose rows are sorted by
    (birth, lexicographic vertices); ``births_by_dim[d]`` matches row-wise.
    The global filtration order interleaves dimensions by (birth, dim, lex).
    """

    n_vertices: int
    verts_by_dim: tuple[np.ndarray, ...]
    births_by_dim: tuple[np.ndarray, ...]
    max_dim: int
    max_radius: float

    @property
    def top_dim(self) -> int:
        return len(self.verts_by_dim) - 1

    @property
    def simplex_count(self) -> int:
        return sum(len(b) for b in self.births_by_dim)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.births_by_dim)

    def simplices(self) -> list[Simplex]:
        """All simplices in global filtration order (small inputs only)."""
        items: list[tuple[float, int, tuple[int, ...]]] = []
        for d, (verts, births) in enumerate(zip(self.verts_by_dim, self.births_by_dim)):
            for row, birth in zip(verts, births):
                items.append((float(birth), d, tuple(int(v) for v in row)))
        items.sort()
        return [Simplex(vertices=v, birth=b) for b, _, v in items]


def _sorted_by_birth_then_lex(verts: np.ndarray, births: np.ndarray):
    if len(births) == 0:
        return verts.reshape(0, verts.shape[1] if verts.ndim == 2 else 1), births
    keys = tuple(verts[:, c] for c in range(verts.shape[1] - 1, -1, -1)) + (births,)
    order = np.lexsort(keys)
    return np.ascontiguousarray(verts[order]), np.ascontiguousarray(births[order])


def build_rips(dist, max_dim: int, max_radius: float) -> Filtration:
    """Rips filtration with every simplex of dimension <= max_dim+1 whose
    diameter is <= max_radius.

    The extra dimension is included so that deaths of dim-``max_dim``
    classes are computed.  ``max_dim`` must be 0, 1 or 2.
    """
    arr = as_distance_matrix(dist)
    if max_dim not in (0, 1, 2):
        raise ValueError(f"max_dim must be 0, 1 or 2, got {max_dim}")
    if not max_radius > 0:
        raise ValueError(f"max_radius must be positive, got {max_radius}")
    n = arr.shape[0]

    verts_by_dim: list[np.ndarray] = []
    births_by_dim: list[np.ndarray] = []

    verts_by_dim.append(np.arange(n, dtype=np.int32).reshape(n, 1))
    births_by_dim.append(np.zeros(n))

    adj = (arr <= max_radius) & ~np.eye(n, dtype=bool)
    iu, ju = np.nonzero(np.triu(adj, 1))
    edges = np.column_stack([iu, ju]).astype(np.int32)
    edge_births = arr[iu, ju]
    edges, edge_births = _sorted_by_birth_then_lex(edges, edge_births)
    verts_by_dim.append(edges)
    births_by_dim.append(edge_births)

    if max_dim + 1 >= 2:
        tri_parts = []
        for k in range(2, n):
            cols = adj[:k, k]
            if not cols.any():
                continue
            block = np.triu(adj[:k, :k] & np.outer(cols, cols), 1)
            ti, tj = np.nonzero(block)
            if len(ti) == 0:
                continue
            tk = np.full(len(ti), k, dtype=np.int32)
            diam = np.maximum(arr[ti, tj], np.maximum(arr[ti, tk], arr[tj, tk]))
            tri_parts.append((np.column_stack([ti, tj, tk]).astype(np.int32), diam))
        if tri_parts:
            tris = np.vstack([p[0] for p in tri_parts])
            tri_births = np.concatenate([p[1] for p in tri_parts])
        else:
            tris = np.zeros((0, 3), dtype=np.int32)
            tri_births = np.zeros(0)
        tris, tri_births = _sorted_by_birth_then_lex(tris, tri_births)
        verts_by_dim.append(tris)
        births_by_dim.append(tri_births)

    if max_dim + 1 >= 3:
        tet_parts = []
        tris = verts_by_dim[2]
        tri_births = births_by_dim[2]
        for v in range(3, n):
            if len(tris) == 0:
                break
            ok = (
                (tris[:, 2] < v)
                & adj[tris[:, 0], v]
                & adj[tris[:, 1], v]
                & adj[tris[:, 2], v]
            )
            rows = np.nonzero(ok)[0]
            if len(rows) == 0:
                continue
            base = tris[rows]
            diam = np.maximum(
                tri_births[rows],
                np.maximum(
                    arr[base[:, 0], v],
                    np.maximum(arr[base[:, 1], v], arr[base[:, 2], v]),
                ),
            )
            vv = np.full(len(rows), v, dtype=np.int32)
            tet_parts.append((np.column_stack([base, vv]).astype(np.int32), diam))
        if tet_parts:
            tets = np.vstack([p[0] for p in tet_parts])
            tet_births = np.concatenate([p[1] for p in tet_parts])
        else:
            tets = np.zeros((0, 4), dtype=np.int32)
            tet_births = np.zeros(0)
        tets, tet_births = _sorted_by_birth_then_lex(tets, tet_births)
        verts_by_dim.append(tets)
        births_by_dim.append(tet_births)

    for b in births_by_dim:
        b.flags.writeable = False
    for v in verts_by_dim:
        v.flags.writeable = False
    return Filtration(
        n_vertices=n,
        verts_by_dim=tuple(verts_by_dim),
        births_by_dim=tuple(births_by_dim),
        max_dim=max_dim,
        max_radius=float(max_radius),
    )


# ---------------------------------------------------------------------------
# boundary matrix (explicit, for validation and small inputs)
# ---------------------------------------------------------------------------


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


def boundary_matrix(filt: Filtration) -> BoundaryMatrix:
    simplices = filt.simplices()
    index = {s.vertices: j for j, s in enumerate(simplices)}
    columns = []
    for s in simplices:
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
        dims=tuple(s.dim for s in simplices),
        births=tuple(s.birth for s in simplices),
    )


# ---------------------------------------------------------------------------
# barcode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    birth: float
    death: Optional[float]  # None is the infinite-death sentinel

    @property
    def is_infinite(self) -> bool:
        return self.death is None


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals per homology dimension.

    ``paired_count`` counts all finite pairs including the zero-length ones
    that are dropped from ``intervals``; together with ``essential_count``
    (infinite classes in all dimensions, reported or not) it accounts for
    every simplex: 2 * paired + essential == simplex count.
    """

    intervals: dict[int, tuple[Interval, ...]]
    n_simplices: int
    paired_count: int
    essential_count: int
    max_radius: float

    def dims(self) -> tuple[int, ...]:
        return tuple(sorted(self.intervals))


def _interval_sort_key(iv: Interval):
    return (iv.birth, iv.death is None, iv.death if iv.death is not None else 0.0)


def _assemble_barcode(
    bars: dict[int, list[Interval]],
    n_simplices: int,
    paired: int,
    essential: int,
    max_radius: float,
    report_dims: Iterable[int],
) -> Barcode:
    intervals = {}
    for d in report_dims:
        ivs = [iv for iv in bars.get(d, []) if iv.is_infinite or iv.death != iv.birth]
        intervals[d] = tuple(sorted(ivs, key=_interval_sort_key))
    return Barcode(
        intervals=intervals,
        n_simplices=n_simplices,
        paired_count=paired,
        essential_count=essential,
        max_radius=max_radius,
    )


# ---------------------------------------------------------------------------
# persistence: optimized kernel
# ---------------------------------------------------------------------------


class _UnionFind:
    __slots__ = ("parent", "birth_key")

    def __init__(self, births: np.ndarray):
        self.parent = list(range(len(births)))
        # elder rule: the component whose representative has the smaller
        # (birth, index) key survives a merge
        self.birth_key = [(float(b), i) for i, b in enumerate(births)]

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> Optional[float]:
        """Merge; return the birth of the dying component, or None if same."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.birth_key[ra] > self.birth_key[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return self.birth_key[rb][0]


def _dim0_pairs(filt: Filtration):
    """Union-find sweep over edges in filtration order.

    The edges that merge two components are exactly the pivot edges of the
    left-to-right column reduction, so the resulting dim-0 barcode is
    identical to the unoptimized reduction's.
    """
    births0 = filt.births_by_dim[0]
    uf = _UnionFind(births0)
    edges = filt.verts_by_dim[1]
    eb = filt.births_by_dim[1]
    bars: list[Interval] = []
    negative = np.zeros(len(edges), dtype=bool)
    for rank in range(len(edges)):
        u, v = int(edges[rank, 0]), int(edges[rank, 1])
        dying_birth = uf.union(u, v)
        if dying_birth is not None:
            negative[rank] = True
            bars.append(Interval(dying_birth, float(eb[rank])))
    roots = {uf.find(i) for i in range(filt.n_vertices)}
    for r in sorted(roots):
        bars.append(Interval(float(births0[r]), None))
    return bars, negative


def _cofacet_csr(filt: Filtration, d: int):
    """Column structure of the degree-d coboundary block.

    Returns (indptr, rows): for d-simplex c, rows[indptr[c]:indptr[c+1]] are
    the ranks of its (d+1)-cofacets, sorted ascending (filtration order).
    """
    n_cols = len(filt.births_by_dim[d])
    cof = filt.verts_by_dim[d + 1]
    n_rows = len(cof)
    if n_rows == 0 or n_cols == 0:
        return np.zeros(n_cols + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)

    if d == 1:
        edges = filt.verts_by_dim[1]
        n = filt.n_vertices
        edge_rank = np.full((n, n), -1, dtype=np.int64)
        edge_rank[edges[:, 0], edges[:, 1]] = np.arange(len(edges))
        face_cols = np.concatenate(
            [
                edge_rank[cof[:, 0], cof[:, 1]],
                edge_rank[cof[:, 0], cof[:, 2]],
                edge_rank[cof[:, 1], cof[:, 2]],
            ]
        )
    else:
        face_index = {tuple(int(x) for x in row): r for r, row in enumerate(filt.verts_by_dim[d])}
        face_cols_list = []
        for row in cof:
            vs = tuple(int(x) for x in row)
            for drop in range(len(vs)):
                face_cols_list.append(face_index[vs[:drop] + vs[drop + 1 :]])
        face_cols = np.asarray(face_cols_list, dtype=np.int64)

    row_ids = np.tile(np.arange(n_rows, dtype=np.int64), d + 2)
    if d != 1:
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), d + 2)
    order = np.lexsort((row_ids, face_cols))
    face_cols = face_cols[order]
    row_ids = row_ids[order]
    indptr = np.searchsorted(face_cols, np.arange(n_cols + 1))
    return indptr, row_ids


def _coboundary_block(filt: Filtration, d: int, cleared: np.ndarray):
    """Reduce the degree-d coboundary block; returns (bars_d, killed_rows).

    Columns are the non-cleared d-simplices processed in reverse filtration
    order; rows are (d+1)-simplices.  The pivot of a reduced column is the
    earliest cofacet, pairing (d-simplex birth, (d+1)-simplex death) exactly
    as the left-to-right boundary reduction does.
    """
    births_d = filt.births_by_dim[d]
    births_up = filt.births_by_dim[d + 1]
    indptr, rows = _cofacet_csr(filt, d)
    n_cols = len(births_d)
    n_rows = len(births_up)

    pivot_owner: dict[int, np.ndarray] = {}
    bars: list[Interval] = []
    killed = np.zeros(n_rows, dtype=bool)
    pair_count = 0

    for c in range(n_cols - 1, -1, -1):
        if cleared[c]:
            continue
        col = rows[indptr[c] : indptr[c + 1]]
        while col.size:
            low = int(col[0])
            owner = pivot_owner.get(low)
            if owner is None:
                pivot_owner[low] = col
                killed[low] = True
                pair_count += 1
                bars.append(Interval(float(births_d[c]), float(births_up[low])))
                break
            col = np.setxor1d(col, owner, assume_unique=True)
        else:
            bars.append(Interval(float(births_d[c]), None))
    return bars, killed, pair_count


def compute_persistence(filt: Filtration) -> Barcode:
    """Standard Z/2 persistence pairing of the filtration.

    Dim 0 uses a union-find sweep and dims >= 1 reduce the coboundary blocks
    with clearing; both are pure speedups whose output is identical to the
    plain left-to-right column reduction (see ``reference_persistence``).
    """
    bars: dict[int, list[Interval]] = {}
    bars0, negative_edges = _dim0_pairs(filt)
    bars[0] = bars0
    paired = sum(1 for iv in bars0 if not iv.is_infinite)
    essential = sum(1 for iv in bars0 if iv.is_infinite)

    cleared = negative_edges
    for d in range(1, filt.top_dim):
        bars_d, killed, pair_count = _coboundary_block(filt, d, cleared)
        bars[d] = bars_d
        paired += pair_count
        essential += sum(1 for iv in bars_d if iv.is_infinite)
        cleared = killed

    # top-dimensional simplices that were not killed are essential classes
    # in an unreported dimension; they still enter the simplex accounting
    if filt.top_dim >= 1:
        essential += int(len(filt.births_by_dim[filt.top_dim]) - np.sum(cleared))
    return _assemble_barcode(
        bars,
        n_simplices=filt.simplex_count,
        paired=paired,
        essential=essential,
        max_radius=filt.max_radius,
        report_dims=range(filt.max_dim + 1),
    )


def reference_persistence(filt: Filtration) -> Barcode:
    """Plain left-to-right column reduction over the full boundary matrix.

    Quadratic and allocation-heavy; exists as the validation reference for
    ``compute_persistence`` on small inputs.
    """
    matrix = boundary_matrix(filt)
    m = len(matrix.columns)
    cols = [0] * m
    for j, faces in enumerate(matrix.columns):
        c = 0
        for f in faces:
            c |= 1 << f
        cols[j] = c
    pivot_of: dict[int, int] = {}
    pair_of_row: dict[int, int] = {}
    for j in range(m):
        col = cols[j]
        while col:
            low = col.bit_length() - 1
            if low in pivot_of:
                col ^= cols[pivot_of[low]]
            else:
                pivot_of[low] = j
                pair_of_row[low] = j
                break
        cols[j] = col

    bars: dict[int, list[Interval]] = {}
    paired = 0
    essential = 0
    paired_cols = set(pair_of_row.values())
    for i in range(m):
        if i in pair_of_row:
            paired += 1
            d = matrix.dims[i]
            bars.setdefault(d, []).append(
                Interval(matrix.births[i], matrix.births[pair_of_row[i]])
            )
        elif i not in paired_cols:
            essential += 1
            bars.setdefault(matrix.dims[i], []).append(Interval(matrix.births[i], None))
    return _assemble_barcode(
        bars,
        n_simplices=m,
        paired=paired,
        essential=essential,
        max_radius=filt.max_radius,
        report_dims=range(filt.max_dim + 1),
    )


def rips_persistence(dist, max_dim: int, max_radius: Optional[float] = None) -> Barcode:
    """Rips persistence of a distance matrix.

    With ``max_radius=None`` the filtration is capped at the enclosing
    radius, past which the complex is a cone: no interval changes beyond
    the cap, so the barcode stays valid at every radius and its
    ``max_radius`` is reported as infinity.
    """
    arr = as_distance_matrix(dist)
    capped = max_radius is None
    if capped:
        max_radius = max(enclosing_radius(arr), np.finfo(float).tiny)
    barcode = compute_persistence(build_rips(arr, max_dim, max_radius))
    if capped:
        barcode = Barcode(
            intervals=barcode.intervals,
            n_simplices=barcode.n_simplices,
            paired_count=barcode.paired_count,
            essential_count=barcode.essential_count,
            max_radius=math.inf,
        )
    return barcode


# ---------------------------------------------------------------------------
# Betti queries
# ---------------------------------------------------------------------------


def betti_at(barcode: Barcode, dim: int, radius: float) -> int:
    """Number of intervals with birth <= radius < death.

    Callers are responsible for staying within the barcode's radius
    horizon; queries beyond it are flagged.
    """
    if radius > barcode.max_radius:
        import warnings

        warnings.warn(
            f"radius {radius} exceeds the barcode horizon {barcode.max_radius}; "
            "counts may miss later simplices",
            stacklevel=2,
        )
    count = 0
    for iv in barcode.intervals.get(dim, ()):
        if iv.birth <= radius and (iv.death is None or radius < iv.death):
            count += 1
    return count


def betti_curve(barcode: Barcode, dim: int, radii: Sequence[float]) -> np.ndarray:
    """``betti_at`` evaluated on a radius grid."""
    ivs = barcode.intervals.get(dim, ())
    births = np.array([iv.birth for iv in ivs])
    deaths = np.array([iv.death if iv.death is not None else np.inf for iv in ivs])
    out = np.zeros(len(radii), dtype=np.int64)
    for k, r in enumerate(radii):
        out[k] = int(np.sum((births <= r) & (r < deaths))) if len(ivs) else 0
    return out


def b0_curve(dist, radii: Sequence[float]) -> np.ndarray:
    """Exact dim-0 Betti curve of the Rips filtration, without a barcode.

    Equals ``betti_curve(rips_persistence(dist, 1), 0, radii)``.  The finite
    dim-0 deaths of a Rips filtration are the edge weights of a minimum
    spanning tree (single linkage; Gower & Ross 1969), so
    b0(r) = 1 + #{tree edges with weight > r} for r >= 0, and 0 for r < 0.
    """
    # imported here: only this path needs csgraph, and it adds ~30 ms to
    # every process that imports the package
    from scipy.sparse.csgraph import minimum_spanning_tree

    arr = as_distance_matrix(dist)
    n = arr.shape[0]
    upper = np.triu_indices(n, k=1)
    # csgraph reads a zero entry as "no edge", so an edge between coincident
    # points would be missing from the tree.  Dense ranks 1, 2, ... order the
    # edges as the distances do and are never zero.
    values, ranks = np.unique(arr[upper], return_inverse=True)
    graph = np.zeros((n, n))
    graph[upper] = ranks + 1
    tree_ranks = minimum_spanning_tree(graph).data.astype(np.int64)
    weights = np.sort(values[tree_ranks - 1])
    r = np.asarray(radii, dtype=np.float64)
    longer = len(weights) - np.searchsorted(weights, r, side="right")
    return np.where(r >= 0, 1 + longer, 0).astype(np.int64)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _gf2_rank(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col.bit_length() - 1
            if low in pivots:
                col ^= pivots[low]
            else:
                pivots[low] = col
                rank += 1
                break
    return rank


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
    columns = []
    for s in cofaces:
        col = 0
        for drop in range(len(s)):
            col |= 1 << index[s[:drop] + s[drop + 1 :]]
        columns.append(col)
    return _gf2_rank(columns)


def brute_force_betti(dist, dim: int, radius: float) -> int:
    """Betti number of the clique complex at ``radius`` by rank-nullity.

    Builds every simplex up to dimension dim+1 and Gauss-eliminates the two
    boundary operators over Z/2; deliberately independent of the
    persistence pairing so it can validate it.  Guarded to small inputs.
    """
    arr = as_distance_matrix(dist)
    n = arr.shape[0]
    if n > BRUTE_FORCE_POINT_GUARD:
        raise PointCountError(
            f"brute-force oracle is limited to {BRUTE_FORCE_POINT_GUARD} points, got {n}"
        )
    adj = (arr <= radius) & ~np.eye(n, dtype=bool)
    by_dim = _clique_simplices(adj, dim + 1)
    c_dim = len(by_dim[dim])
    rank_down = _boundary_rank(by_dim[dim - 1], by_dim[dim]) if dim >= 1 else 0
    rank_up = _boundary_rank(by_dim[dim], by_dim[dim + 1])
    return c_dim - rank_down - rank_up


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
    if not seen:
        return []
    top = max(len(s) for s in seen) - 1
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    for vs in seen:
        by_dim[len(vs) - 1].append(vs)
    for lst in by_dim:
        lst.sort()
    return by_dim


def complex_betti(simplices: Iterable[Sequence[int]]) -> list[int]:
    """Betti numbers over Z/2 of an explicit simplicial complex.

    The input must be closed under taking faces; raises FaceClosureError
    otherwise.  Returns [b_0, ..., b_top].
    """
    by_dim = _normalize_complex(simplices)
    top = len(by_dim) - 1
    betti = []
    for d in range(top + 1):
        c_dim = len(by_dim[d])
        rank_down = _boundary_rank(by_dim[d - 1], by_dim[d]) if d >= 1 else 0
        rank_up = _boundary_rank(by_dim[d], by_dim[d + 1]) if d < top else 0
        betti.append(c_dim - rank_down - rank_up)
    return betti


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(x, ".9g")


def barcode_to_text(barcode: Barcode) -> str:
    """One interval per line: ``dim,birth,death`` with ``inf`` for infinite
    deaths and floats printed with 9 significant digits."""
    lines = []
    for d in barcode.dims():
        for iv in barcode.intervals[d]:
            death = "inf" if iv.death is None else _fmt(iv.death)
            lines.append(f"{d},{_fmt(iv.birth)},{death}")
    return "\n".join(lines) + ("\n" if lines else "")


def barcode_from_text(text: str) -> dict[int, list[Interval]]:
    intervals: dict[int, list[Interval]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected dim,birth,death")
        d = int(parts[0])
        birth = float(parts[1])
        death = None if parts[2] == "inf" else float(parts[2])
        intervals.setdefault(d, []).append(Interval(birth, death))
    return intervals


def barcode_svg(barcode: Barcode, width: int = 640, bar_height: int = 6, pad: int = 24) -> str:
    """Barcode plot as an SVG string: red bars for dim 0, blue for dim 1."""
    bars: list[tuple[int, Interval]] = []
    for d in barcode.dims():
        for iv in barcode.intervals[d]:
            bars.append((d, iv))
    finite = [iv.death for _, iv in bars if iv.death is not None]
    births = [iv.birth for _, iv in bars]
    x_max = max(finite + births + [1.0]) * 1.05 or 1.0
    height = pad * 2 + max(len(bars), 1) * (bar_height + 2)

    def sx(val: float) -> float:
        return pad + (width - 2 * pad) * (val / x_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{pad}" y="{height - pad + 14}" font-size="10">0</text>',
        f'<text x="{width - pad - 20}" y="{height - pad + 14}" font-size="10">{_fmt(x_max)}</text>',
    ]
    y = pad
    for d, iv in bars:
        color = DIM_COLORS.get(d, "gray")
        x0 = sx(iv.birth)
        x1 = sx(iv.death) if iv.death is not None else float(width - pad)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y}" width="{max(x1 - x0, 0.75):.2f}" '
            f'height="{bar_height}" fill="{color}"/>'
        )
        y += bar_height + 2
    parts.append("</svg>")
    return "\n".join(parts)
