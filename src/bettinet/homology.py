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

Persistence follows Ripser (Bauer, J. Appl. Comput. Topol. 2021).  Dim 0
is a minimum spanning tree, found by the same Prim routine that gives
``b0_curve`` its tree; every higher degree is one coboundary reduction with
clearing, and there is no union-find.  Cofacets are implicit, as in Ripser:
those of a simplex c are c plus one vertex w, born at the largest of c's
birth and the edges from w to c, so the top dimension is counted but never
stored, and every simplex is kept and passed as one int64 key alone (birth
rank, then the vertices).  Apparent pairs come from one vectorized pass;
only the other columns enumerate and reduce their cofacet lists.  A
reduced column is stored as its column of the reduction matrix V, the
simplices whose coboundaries sum to it, and rebuilt from their cofacets
when a later pivot reads it.  A reduction keeps sorted only the keys born
up to a horizon a little past its pivot; it parks the later ones unsorted
and sorts them only when the pivot reaches them, so a long reduction
never sorts the keys that lie past its final pivot.  ``build_rips`` counts
simplices before allocating any and raises ``FiltrationSizeError`` above
``FILTRATION_SIZE_GUARD``.  One counter answers every Betti query.
Everything here uses numpy only.

All containers here are immutable after construction and safe to share
across threads; independent filtrations may be processed concurrently.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "FiltrationSizeError",
    "Filtration",
    "Interval",
    "Barcode",
    "as_point_cloud",
    "as_distance_matrix",
    "pairwise_distances",
    "enclosing_radius",
    "build_rips",
    "compute_persistence",
    "rips_persistence",
    "betti_at",
    "betti_curve",
    "b0_curve",
    "barcode_to_text",
    "barcode_svg",
]

# Most simplices a filtration may hold, the unstored top dimension included.
FILTRATION_SIZE_GUARD = 20_000_000
# Simplex keys (see _keys) are int64: the distinct edge lengths times
# n**(max_dim+2) must not pass this.  With all n(n-1)/2 edge lengths
# distinct, that happens from 7 132 points at dim 1 and 1 626 at dim 2.
_KEY_LIMIT = np.iinfo(np.int64).max
# Cells of one row block of ``pairwise_distances``: 512 KB of partial sums
# and as much of squared differences, which stay in cache through the
# coordinate loop.
_DISTANCE_BLOCK = 1 << 16

DIM_COLORS = {0: "red", 1: "blue", 2: "green"}


class GeometryError(ValueError):
    """Invalid point cloud or distance matrix."""


class FiltrationSizeError(ValueError):
    """Filtration too large to allocate; ``count`` is the size over the limit."""

    def __init__(self, count: int, what: str, limit: Optional[int] = None):
        super().__init__(
            f"Rips filtration needs {count} {what}, over the limit of "
            f"{FILTRATION_SIZE_GUARD if limit is None else limit}; "
            "lower the radius, the dimension or the point count"
        )
        self.count = count


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
    """Euclidean distance matrix, equal bit for bit to scipy's
    ``squareform(pdist(points))``: the squared coordinate differences are
    summed one coordinate at a time, in order, and each sum is rounded once
    by the square root.  Symmetry and the zero diagonal are exact, because
    x_i - x_j is exactly -(x_j - x_i).

    The sums run over blocks of rows, each of about ``_DISTANCE_BLOCK``
    cells, so that a block's partial sums stay in cache through the
    coordinate loop.  A block fills only the columns from its first row on;
    the rest of its columns are mirrored from the rows above, which is exact
    because (a - b)**2 == (b - a)**2.  A cloud of at most 256 points is one block.
    """
    coords = np.ascontiguousarray(as_point_cloud(points).T)  # a row per coordinate
    n = coords.shape[1]
    out = np.zeros((n, n))
    start = 0
    while start < n:
        stop = min(n, start + max(1, _DISTANCE_BLOCK // (n - start)))
        sums = out[start:stop, start:]
        diff = np.empty(sums.shape)
        for x in coords:
            np.subtract.outer(x[start:stop], x[start:], out=diff)
            diff *= diff
            sums += diff
        out[stop:, start:stop] = sums[:, stop - start :].T
        start = stop
    np.sqrt(out, out=out)
    out.flags.writeable = False
    return out


def enclosing_radius(dist) -> float:
    """min over points of the max distance to the others.

    At this radius the complex is a cone over the minimising point, hence
    contractible: no homology in dims >= 1 survives past it and exactly one
    component remains.  Capping a filtration here changes no interval.
    """
    return _enclosing_radius(as_distance_matrix(dist))


def _enclosing_radius(arr: np.ndarray) -> float:
    return float(np.min(np.max(arr, axis=1)))


# ---------------------------------------------------------------------------
# filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Filtration:
    """Rips filtration in columnar form.

    ``keys_by_dim[d]`` holds the sorted keys (see ``_keys``) of the
    d-simplices, d = 0 to ``max_dim``, and nothing else is stored per
    simplex: ``verts_by_dim`` and ``births_by_dim`` decode the keys when
    read.  The top dimension, ``max_dim+1``, is only counted
    (``top_count``): its simplices are the cliques one vertex larger, read
    from ``edge_rank`` when they are needed.  A simplex's birth rank is the
    rank of its longest edge among ``edge_lengths`` (0 for a vertex);
    ``edge_rank[u, v]`` is the rank of edge uv, or ``len(edge_lengths)``
    where uv is no edge of the filtration, u == v included.  The global
    filtration order interleaves dimensions by (birth, dim, lex).
    """

    n_vertices: int
    keys_by_dim: tuple[np.ndarray, ...]
    max_dim: int
    max_radius: float
    edge_rank: np.ndarray
    edge_lengths: np.ndarray
    top_count: int

    @property
    def verts_by_dim(self) -> tuple[np.ndarray, ...]:
        """Each stored simplex's vertices, row by row: an (m_d, d+1) int32 array."""
        return tuple(np.column_stack(_decode(keys, self.n_vertices, d + 1)[1]).astype(np.int32)
                     for d, keys in enumerate(self.keys_by_dim))

    @property
    def births_by_dim(self) -> tuple[np.ndarray, ...]:
        """Each stored simplex's birth, row by row: its rank's edge length, 0 for a vertex."""
        n, keys = self.n_vertices, self.keys_by_dim
        return (np.zeros(n),) + tuple(self.edge_lengths[keys[d] // n ** (d + 1)] for d in range(1, len(keys)))

    @property
    def top_dim(self) -> int:
        return self.max_dim + 1

    @property
    def simplex_count(self) -> int:
        return sum(self.counts())

    def counts(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.keys_by_dim) + (self.top_count,)


def _check_filtration_size(adj: np.ndarray, max_dim: int) -> list[int]:
    """Simplex counts of dimensions 0 to max_dim+1, taken without building
    any simplex; raises FiltrationSizeError when their sum is over
    FILTRATION_SIZE_GUARD.

    Triangles are trace(A^3)/6.  A tetrahedron is a triangle among the later
    neighbours of its first vertex, so tetrahedra are the sum over vertices
    v of trace(X_v^3)/6, X_v the adjacency among v's later neighbours.  They
    are counted only when the lower dimensions fit under the limit, so an
    input far over it fails fast."""
    n = adj.shape[0]
    counts = [n, int(np.count_nonzero(adj)) // 2]
    if max_dim >= 1:
        # float32 products are exact: every entry is at most n < 2**24
        a = adj.astype(np.float32)
        counts.append(int((a @ a)[adj].astype(np.int64).sum()) // 6)
        if max_dim >= 2 and sum(counts) <= FILTRATION_SIZE_GUARD:
            closed = 0
            for v in range(n):
                later = v + 1 + np.flatnonzero(adj[v, v + 1 :])
                x = a[np.ix_(later, later)]
                closed += int(((x @ x) * x).astype(np.int64).sum())
            counts.append(closed // 6)
    if sum(counts) > FILTRATION_SIZE_GUARD:
        what = "simplices" if len(counts) == max_dim + 2 else "simplices up to triangles"
        raise FiltrationSizeError(sum(counts), what)
    return counts


def _extend_cliques(cols: list, ranks: np.ndarray, adj: np.ndarray, edge_rank: np.ndarray):
    """Every (k+1)-clique from the k-cliques given as vertex columns, in any
    order, with the largest of the clique's and its new edges' birth ranks."""
    n = adj.shape[0]
    # ordered by last vertex, the cliques that v may extend form a prefix
    order = np.argsort(cols[-1], kind="stable")
    cols, ranks = [c[order] for c in cols], ranks[order]
    below = np.searchsorted(cols[-1], np.arange(n))
    rows = [
        np.flatnonzero(np.logical_and.reduce([adj[v][c[: below[v]]] for c in cols]))
        for v in range(n)
    ]
    top = np.repeat(np.arange(n, dtype=np.int32), [len(r) for r in rows])
    rows = np.concatenate(rows)
    cols = [c[rows] for c in cols]
    rank = ranks[rows]
    for c in cols:
        np.maximum(rank, edge_rank[c, top], out=rank)
    return cols + [top], rank


def _keys(ranks: np.ndarray, cols: list, n: int) -> np.ndarray:
    """One int64 key per simplex: the birth rank, then the vertices as
    base-n digits.  Keys order simplices of one dimension by (birth, lex);
    build_rips checks that they fit in int64."""
    key = ranks.astype(np.int64)
    for c in cols:
        key *= n
        key += c
    return key


def _decode(keys, n: int, k: int):
    """The inverse of ``_keys`` for simplices of k vertices: (birth ranks,
    list of the k vertex columns), of one key (ints) or of a key array."""
    verts = []
    for _ in range(k):
        keys, v = divmod(keys, n)
        verts.append(v)
    return keys, verts[::-1]


def build_rips(dist, max_dim: int, max_radius: Optional[float] = None) -> Filtration:
    """Rips filtration with every simplex of dimension <= max_dim+1 whose
    diameter is <= max_radius; ``None`` caps it at the enclosing radius.

    The extra dimension is included so that deaths of dim-``max_dim``
    classes are computed; it is counted, and the others are stored as sorted
    keys (see ``Filtration``).  ``max_dim`` must be 0, 1 or 2.  Raises
    FiltrationSizeError, before allocating, above FILTRATION_SIZE_GUARD.
    """
    arr = as_distance_matrix(dist)
    if max_dim not in (0, 1, 2):
        raise ValueError(f"max_dim must be 0, 1 or 2, got {max_dim}")
    if max_radius is None:
        max_radius = max(_enclosing_radius(arr), np.finfo(float).tiny)
    elif not max_radius > 0:
        raise ValueError(f"max_radius must be positive, got {max_radius}")
    n = arr.shape[0]
    adj = (arr <= max_radius) & ~np.eye(n, dtype=bool)
    counts = _check_filtration_size(adj, max_dim)

    # Births are dense ranks of the edge lengths (a simplex's is its longest's).
    iu, ju = np.nonzero(np.triu(adj, 1))
    values, ranks = np.unique(arr[iu, ju], return_inverse=True)
    key_range = max(len(values), 1) * n ** (max_dim + 2)
    if key_range > _KEY_LIMIT:
        what = ("sort keys (distinct edge lengths times n**(max_dim+2); with all edge lengths "
                "distinct, keys pass int64 at about 7 130 points at dim 1 and 1 625 at dim 2)")
        raise FiltrationSizeError(key_range, what, limit=_KEY_LIMIT)
    edge_rank = np.full((n, n), len(values), dtype=np.int32)
    edge_rank[iu, ju] = edge_rank[ju, iu] = ranks

    keys_by_dim = [np.arange(n, dtype=np.int64)]  # a vertex's key is the vertex
    cols = [iu.astype(np.int32), ju.astype(np.int32)]
    for d in range(1, max_dim + 1):
        if d >= 2:
            cols, ranks = _extend_cliques(cols, ranks, adj, edge_rank)
        keys = _keys(ranks, cols, n)
        keys.sort()
        keys_by_dim.append(keys)

    for a in keys_by_dim + [edge_rank, values]:
        a.flags.writeable = False
    return Filtration(
        n_vertices=n,
        keys_by_dim=tuple(keys_by_dim),
        max_dim=max_dim,
        max_radius=float(max_radius),
        edge_rank=edge_rank,
        edge_lengths=values,
        top_count=counts[-1],
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


# ---------------------------------------------------------------------------
# persistence: optimized kernel
# ---------------------------------------------------------------------------


# Entries of one block of the (columns x vertices) cofacet rank matrix that
# the apparent-pair pass holds at a time: 1 MB of int32.
_BLOCK = 1 << 18
_EMPTY = np.zeros(0, dtype=np.int64)
# Entries of one block of the (members x vertices) cofacet rank matrix that
# ``_near_cofacets`` rebuilds a stored column from at a time: each entry
# costs up to about 50 bytes of rank, index and key arrays, so about 1 MB.
_REBUILD_BLOCK = 1 << 14
# Birth ranks past a column's first key that ``_reduce_column`` first keeps
# sorted; the step doubles at every move of the horizon.
_HORIZON_STEP = 256


def _cofacet_ranks(edge_rank: np.ndarray, rank, verts: list) -> np.ndarray:
    """Birth ranks of the cofacets c + w over the vertices w (last axis), for
    c given by birth rank(s) and vertices (or the vertex columns of a block);
    ``len(edge_lengths)`` where c + w is no simplex, w in c included."""
    m = np.maximum(edge_rank[verts[0]], rank)
    for v in verts[1:]:
        np.maximum(m, edge_rank[v], out=m)
    return m


def _cofacet_keys(ranks: np.ndarray, verts: list, w, n: int) -> np.ndarray:
    """Keys of the cofacets c + w born at ``ranks``, c given by its sorted
    vertices (or vertex columns) ``verts``, w not in c."""
    # the sorted vertex tuple of c + w, digit by digit: each digit is the
    # smaller of the next vertex of c and the larger of w and those before
    key, carry = ranks.astype(np.int64), w
    for x in verts:
        key *= n
        key += np.minimum(carry, x)
        carry = np.maximum(carry, x)
    key *= n
    key += carry
    return key


def _cofacets(filt: Filtration, key: int, d: int) -> np.ndarray:
    """Keys of the cofacets of the d-simplex ``key``, in filtration order."""
    n = filt.n_vertices
    rank, verts = _decode(key, n, d + 1)
    m = _cofacet_ranks(filt.edge_rank, rank, verts)
    w = (m < len(filt.edge_lengths)).nonzero()[0]
    key = _cofacet_keys(m.take(w), verts, w, n)
    key.sort()
    return key


def _latest_facet(edge_rank: np.ndarray, cols: list, n: int) -> np.ndarray:
    """For simplices given by their vertex columns, in any order, the
    position in ``cols`` of the vertex whose removal leaves the latest facet.

    That facet has the highest birth rank and, among those, comes last in
    lexicographic order, which is the one without the smallest vertex."""
    scores = []
    for i, u in enumerate(cols):
        rank = np.zeros(len(u), dtype=np.int64)
        for a, b in itertools.combinations(cols[:i] + cols[i + 1 :], 2):
            np.maximum(rank, edge_rank[a, b], out=rank)
        scores.append(rank * n + (n - 1 - u))
    return np.argmax(scores, axis=0)


def _apparent_pairs(filt: Filtration, d: int, todo: np.ndarray):
    """The apparent pairs (Bauer 2021) of the degree-d columns in the mask
    ``todo``, as (pivot keys, columns), both sorted by key.

    Column c pairs apparently with its earliest cofacet t when c is t's
    latest facet.  No column reduced before c can hold t, so c pairs with t
    unreduced, and c's own column is t's owner for the rest.  One vectorized
    pass finds them, ``_BLOCK // n`` decoded column keys at a time; its
    blocks are freed when it returns, before the reduction starts."""
    d_keys, n, top = filt.keys_by_dim[d], filt.n_vertices, len(filt.edge_lengths)
    # columns and pivot keys per block, after an empty entry for concatenate
    found = [(_EMPTY, _EMPTY)]
    open_cols = np.flatnonzero(todo)
    step = max(1, _BLOCK // n)
    for start in range(0, len(open_cols), step):
        cols = open_cols[start : start + step]
        ranks, verts = _decode(d_keys[cols], n, d + 1)
        m = _cofacet_ranks(filt.edge_rank, ranks.astype(np.int32)[:, None], verts)
        w = np.argmin(m, axis=1)
        first = m[np.arange(len(cols)), w]
        del m  # freed before the next block is made
        hit = (first < top) & (_latest_facet(filt.edge_rank, verts + [w], n) == d + 1)
        found.append((cols[hit], _cofacet_keys(first[hit], [v[hit] for v in verts], w[hit], n)))
    cols, keys = (np.concatenate(f) for f in zip(*found))
    order = np.argsort(keys)
    return keys[order], cols[order]


def _coboundary_block(filt: Filtration, d: int, cleared: np.ndarray):
    """Reduce the degree-d coboundary block; returns (bars_d, killed_rows),
    where bars_d leaves out zero-length bars and killed_rows holds the keys
    (see ``_keys``) of the (d+1)-simplices paired with a d-simplex.

    Serves degrees d >= 1 (dim 0 is ``_dim0_block``).  Columns are the
    d-simplices whose keys are not in ``cleared``, the rows killed in degree
    d-1, in reverse filtration order; rows are their cofacets (``_cofacets``),
    never stored.  The pivot of a reduced column is the earliest cofacet,
    pairing (d-simplex birth, (d+1)-simplex death) exactly as the
    left-to-right boundary reduction does.

    An apparent pair gives no bar, as its column c is born with its pivot t:
    t has a vertex x off its longest edge, so the facet t - x is born with
    t, and c, t's latest facet, is born no earlier.

    Per-pair state is numpy arrays: an apparent pair costs 16 bytes, its
    pivot key and column, and most pairs are apparent (35 553 of the 35 674
    on a 300-point noisy torus at dim 1).  One dict, ``reduced``, maps each
    pivot the reduction creates to that column of the reduction matrix V
    (Bauer 2021): the sorted keys of the d-simplices whose coboundaries sum
    to the reduced column.  A later column whose pivot it is rebuilds the
    reduced column from those cofacets, sorting only its keys below the
    reduction's horizon (see ``_reduce_column``), and an apparent column
    added to another is recomputed from its key.  On that torus,
    where 2 074 cofacet lists are built for the columns and their apparent
    additions, the store holds 2 449 keys, where the reduced columns held
    447 288; 65 pivots read it, and they rebuild 501 cofacet lists.
    """
    values, d_keys, n = filt.edge_lengths, filt.keys_by_dim[d], filt.n_vertices
    todo = np.ones(len(d_keys), dtype=bool)
    todo[d_keys.searchsorted(cleared)] = False
    keys, cols = _apparent_pairs(filt, d, todo)
    todo[cols] = False
    base = n ** (d + 1)  # a column key's birth rank is key // base, a row key's key // (base * n)
    bars: list[Interval] = []  # the apparent pairs give none
    reduced: dict[int, np.ndarray] = {}  # pivot key -> V
    for c in d_keys[todo][::-1].tolist():
        reduction = _reduce_column(filt, d, c, keys, cols, reduced)
        if reduction is None:
            bars.append(Interval(float(values[c // base]), None))
            continue
        pivot, v = reduction
        reduced[pivot] = v
        if c // base != pivot // (base * n):
            bars.append(Interval(float(values[c // base]), float(values[pivot // (base * n)])))
    return bars, np.concatenate((keys, np.fromiter(reduced, dtype=np.int64, count=len(reduced))))


def _reduce_column(filt: Filtration, d: int, key: int, keys, cols, reduced):
    """Add to the column of the d-simplex ``key`` the columns that own its
    pivot until none does; returns (pivot, V), or None for a zero column.
    V is the column's column of the reduction matrix: the sorted keys of the
    d-simplices whose coboundaries sum to the reduced column, ``key`` among
    them.  The owners are the apparent columns (pivot ``keys`` and positions
    ``cols``, from ``_apparent_pairs``), each its own V, whose one cofacet
    list comes from ``_cofacets``, and the columns in ``reduced``, pivot to
    V, each rebuilt from the cofacets of its V in one vectorized pass
    (``_near_cofacets``).

    The working column is split at a horizon, a birth rank.  The keys born
    at or below it are the sum of two sorted key arrays, which find the
    pivot: ``small`` takes each added column and is folded into ``big``
    once it is an eighth of its size, so an addition costs about the added
    column's length below the horizon, not the working column's.  Every
    added column has its first key at the pivot, so the pivot leaves both,
    and keys that ``big`` and ``small`` both begin with cancel.  The keys
    born past the horizon, an added column's and the working column's own,
    are parked unsorted on ``pile``.  Most of them lie past the final pivot
    and are never sorted.  When the keys below the horizon cancel out, the
    horizon moves to the earliest parked key's birth plus a step that
    doubles each time, starting at ``_HORIZON_STEP``, and the parked keys
    below it, reduced to those parked an odd number of times, become ``big``.
    """
    base = filt.n_vertices ** (d + 2)  # a row key's birth rank is key // base
    d_keys = filt.keys_by_dim[d]
    # V in parts: the column's and the apparent owners' keys, and the stored owners' V
    added, owned = [key], []
    # the column starts parked: the first pass sets the first horizon
    big, small, pile, step = _EMPTY, _EMPTY, [_cofacets(filt, key, d)], _HORIZON_STEP
    while True:
        if big.size and small.size and big[0] == small[0]:
            # keys both hold cancel; the pivot is the first key where they differ
            m = min(len(big), len(small))
            differ = big[:m] != small[:m]
            j = int(differ.argmax()) if differ.any() else m
            big, small = big[j:], small[j:]
        if not big.size and not small.size:
            pile = [p for p in pile if p.size]
            if not pile:
                return None
            # keys below the limit are born up to the horizon
            limit = (min(int(p.min()) for p in pile) // base + step + 1) * base
            step *= 2
            big = _take_below(pile, limit)
            continue
        in_big = not small.size or big.size and big[0] < small[0]
        low = int(big[0] if in_big else small[0])
        owner = reduced.get(low)
        if owner is None:
            i = int(keys.searchsorted(low))
            if i == len(keys) or keys[i] != low:
                return low, _odd_keys(np.concatenate([np.array(added, dtype=np.int64), *owned]))
            added.append(int(d_keys[cols[i]]))
            add = _cofacets(filt, added[-1], d)  # an apparent column is its own reduced form
            cut = int(add.searchsorted(limit))
            if cut < len(add):
                pile.append(add[cut:])
            add = add[:cut]
        else:
            owned.append(owner)
            add = _near_cofacets(filt, d, owner, limit, pile)
        # the pivot cancels: it is the first key of both columns
        if in_big:
            big = big[1:]
        else:
            small = small[1:]
        add = add[1:]
        if not small.size:
            small = add
        elif add.size:
            small = _xor_sorted(small, add)
        if 8 * len(small) > len(big):
            big, small = _xor_sorted(big, small), _EMPTY


def _near_cofacets(filt: Filtration, d: int, members: np.ndarray, limit: int, pile: list) -> np.ndarray:
    """The sum of the coboundaries of the d-simplices ``members``, keys
    below ``limit`` only, sorted; the keys at or past it are parked on
    ``pile`` unsorted.  ``_REBUILD_BLOCK // n`` members are decoded at a time."""
    n, top = filt.n_vertices, len(filt.edge_lengths)
    near = []
    step = max(1, _REBUILD_BLOCK // n)
    for start in range(0, len(members), step):
        ranks, verts = _decode(members[start : start + step], n, d + 1)
        m = _cofacet_ranks(filt.edge_rank, ranks.astype(np.int32)[:, None], verts)
        row, w = (m < top).nonzero()
        keys = _cofacet_keys(m[row, w], [v[row] for v in verts], w, n)
        below = keys < limit
        near.append(keys[below])
        pile.append(keys[~below])
    return _odd_keys(np.concatenate(near))


def _take_below(pile: list, limit: int) -> np.ndarray:
    """Removes the keys below ``limit`` from the parked arrays ``pile`` and
    returns those parked an odd number of times, sorted.  The arrays are
    split one at a time, so the parked keys are never held twice."""
    near = []
    for i, parked in enumerate(pile):
        below = parked < limit
        near.append(parked[below])
        pile[i] = parked[~below]
    return _odd_keys(np.concatenate(near))


def _xor_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted arrays of distinct keys, sorted; the
    stable sort merges the two runs in linear time."""
    s = np.concatenate((a, b))
    s.sort(kind="stable")
    single = np.concatenate(([True], s[1:] != s[:-1], [True]))
    return s[single[1:] & single[:-1]]


def _odd_keys(a: np.ndarray) -> np.ndarray:
    """The keys that occur an odd number of times in ``a``, sorted.  Sorts
    ``a`` in place, so the caller hands over an array it owns."""
    a.sort()
    while True:
        pair = a[1:] == a[:-1]
        if not pair.any():
            return a
        pair[1:] &= ~pair[:-1]  # the first two keys of each run of equal keys
        keep = np.ones(len(a), dtype=bool)
        keep[:-1] &= ~pair
        keep[1:] &= ~pair
        a = a[keep]


def _dim0_block(filt: Filtration):
    """The dim-0 pairs as (bars_0, killed_rows), like ``_coboundary_block``.

    Under their keys (see ``_keys``), distinct and in filtration order, the
    vertex pairs have one minimum spanning tree, and its weights name its
    edges.  Its filtration edges are the ones Kruskal's algorithm takes in
    that order: those that join two components, and so kill one.  Prim
    takes a non-edge, ranked ``len(edge_lengths)``, only to start a new
    component, which is an essential bar.
    """
    n, values = filt.n_vertices, filt.edge_lengths
    i = np.arange(n, dtype=np.int32)
    keys = _keys(filt.edge_rank, [np.minimum.outer(i, i), np.maximum.outer(i, i)], n)
    killed = np.sort(_spanning_tree_weights(keys))
    killed = killed[killed < len(values) * n**2]
    deaths = values[killed // n**2]
    bars = [Interval(0.0, t) for t in deaths[deaths != 0].tolist()]
    return bars + [Interval(0.0, None)] * (n - len(killed)), killed


def compute_persistence(filt: Filtration) -> Barcode:
    """Standard Z/2 persistence pairing of the filtration.

    Dim 0 comes from the minimum spanning tree of the filtration order
    (``_dim0_block``); every higher reported degree reduces its coboundary
    block.  The rows killed in one degree clear the columns of the next.
    Cohomology gives the same pairs as homology (de Silva, Morozov and
    Vejdemo-Johansson 2011), and clearing and apparent pairs are pure
    speedups, so the output is identical to the plain left-to-right column
    reduction over the full boundary matrix, which the tests compare it
    against on small inputs.
    """
    bars: dict[int, list[Interval]] = {}
    bars[0], killed = _dim0_block(filt)
    paired, essential = len(killed), filt.n_vertices - len(killed)
    for d in range(1, filt.max_dim + 1):
        bars[d], killed = _coboundary_block(filt, d, killed)
        paired += len(killed)
        essential += sum(1 for iv in bars[d] if iv.is_infinite)

    # top-dimensional simplices that were not killed are essential classes
    # in an unreported dimension; they still enter the simplex accounting
    essential += filt.top_count - len(killed)
    return Barcode(
        intervals={
            d: tuple(sorted(ivs, key=lambda iv: (iv.birth, iv.is_infinite, iv.death or 0.0)))
            for d, ivs in bars.items()
        },
        n_simplices=filt.simplex_count,
        paired_count=paired,
        essential_count=essential,
        max_radius=filt.max_radius,
    )


def rips_persistence(dist, max_dim: int, max_radius: Optional[float] = None) -> Barcode:
    """Rips persistence of a distance matrix.

    With ``max_radius=None`` the filtration is capped at the enclosing
    radius, past which the complex is a cone: no interval changes beyond
    the cap, so the barcode stays valid at every radius and its
    ``max_radius`` is reported as infinity.
    """
    barcode = compute_persistence(build_rips(dist, max_dim, max_radius))
    if max_radius is None:
        barcode = replace(barcode, max_radius=math.inf)
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
        warnings.warn(
            f"radius {radius} exceeds the barcode horizon {barcode.max_radius}; "
            "counts may miss later simplices",
            stacklevel=2,
        )
    return int(betti_curve(barcode, dim, [radius])[0])


def betti_curve(barcode: Barcode, dim: int, radii: Sequence[float]) -> np.ndarray:
    """``betti_at`` evaluated on a radius grid."""
    ivs = barcode.intervals.get(dim, ())
    deaths = [iv.death for iv in ivs if iv.death is not None]
    return _alive([iv.birth for iv in ivs], deaths, radii)


def _alive(births, deaths, radii) -> np.ndarray:
    """Number of bars with birth <= r < death at each radius r, given the
    births and the finite deaths: #{birth <= r} - #{death <= r}, which is
    exact because no bar dies before it is born."""
    r = np.asarray(radii, dtype=np.float64)
    born = np.searchsorted(np.sort(births), r, side="right")
    died = np.searchsorted(np.sort(deaths), r, side="right")
    return (born - died).astype(np.int64)


def b0_curve(dist, radii: Sequence[float]) -> np.ndarray:
    """Exact dim-0 Betti curve of the Rips filtration, without a barcode.

    Equals ``betti_curve(rips_persistence(dist, 1), 0, radii)``.  The finite
    dim-0 deaths of a Rips filtration are the edge weights of a minimum
    spanning tree (single linkage; Gower & Ross 1969), so b0 counts n bars
    born at 0 that die at the tree's edge weights, the last one never:
    b0(r) = 1 + #{tree edges with weight > r} for r >= 0, and 0 for r < 0.
    """
    arr = as_distance_matrix(dist)
    return _alive(np.zeros(arr.shape[0]), _spanning_tree_weights(arr), radii)


def _spanning_tree_weights(weights: np.ndarray) -> np.ndarray:
    """Edge weights of a minimum spanning tree of the complete graph with
    the given symmetric float or integer edge weights, by Prim's algorithm:
    n - 1 steps of O(n) vectorized work.  Every minimum spanning tree has
    the same weights, a zero weight is an edge like any other, and distinct
    weights make the tree unique.  The diagonal is ignored."""
    n = weights.shape[0]
    done = np.inf if weights.dtype.kind == "f" else np.iinfo(weights.dtype).max
    reach = weights[0].copy()  # lightest weight from the tree to each vertex
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    tree = np.empty(n - 1, dtype=weights.dtype)
    for i in range(n - 1):
        reach[in_tree] = done
        v = int(np.argmin(reach))
        tree[i] = reach[v]
        in_tree[v] = True
        np.minimum(reach, weights[v], out=reach)
    return tree


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


def barcode_svg(barcode: Barcode) -> str:
    """Barcode plot as an SVG string: red bars for dim 0, blue for dim 1."""
    width, bar_height, pad = 640, 6, 24  # pixels: plot width, bar height, margin
    bars = [(d, iv) for d in barcode.dims() for iv in barcode.intervals[d]]
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
