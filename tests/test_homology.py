import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bettinet import homology as H
from conftest import betti_padded, random_complex, random_cover
import persistence_oracle as oracle


def square_points():
    return [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_pairwise_distances_triangle():
    d = H.pairwise_distances([[0, 0], [3, 4]])
    assert d.tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_pairwise_distances_singleton():
    assert H.pairwise_distances([[1.0, 1.0]]).tolist() == [[0.0]]


def test_pairwise_distances_matches_naive_loop():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 3))
    d = H.pairwise_distances(pts)
    for i in range(10):
        for j in range(10):
            naive = math.sqrt(sum((pts[i, c] - pts[j, c]) ** 2 for c in range(3)))
            assert d[i, j] == pytest.approx(naive, abs=1e-12)
    assert np.array_equal(d, d.T)


def test_pairwise_distances_equal_scipy_bit_for_bit():
    from scipy.spatial.distance import pdist, squareform

    rng = np.random.default_rng(17)
    clouds = [
        rng.normal(size=(int(rng.integers(3, 40)), dim)) * scale
        for dim in (1, 2, 3, 9, 17, 64, 784)
        for scale in (1e-2, 1.0, 1e2)
    ]
    duplicates = rng.normal(size=(20, 5))
    duplicates[10:] = duplicates[:10]
    clouds += [
        np.round(rng.normal(size=(30, 3)), 1),  # tied distances and duplicates
        np.round(rng.uniform(-50, 50, size=(40, 17)), 2),
        duplicates,
        rng.normal(size=(1, 4)),
        rng.normal(size=(2, 4)),
        rng.normal(size=(600, 5)),  # several row blocks
    ]
    for pts in clouds:
        d = H.pairwise_distances(pts)
        assert np.array_equal(d, squareform(pdist(pts)))
        assert np.array_equal(d, d.T)
        assert not d.diagonal().any()


def test_point_cloud_validation_errors():
    with pytest.raises(H.GeometryError):
        H.as_point_cloud([[0, 1], [1, 2, 3]])
    with pytest.raises(H.GeometryError):
        H.as_point_cloud([[np.nan, 0.0]])
    with pytest.raises(H.GeometryError):
        H.as_point_cloud([])


def test_distance_matrix_validation():
    with pytest.raises(H.GeometryError):
        H.as_distance_matrix([[0.0, 1.0], [1.1, 0.0]])
    with pytest.raises(H.GeometryError):
        H.as_distance_matrix([[0.5]])


# ---------------------------------------------------------------------------
# Rips filtration
# ---------------------------------------------------------------------------


def test_rips_two_points():
    d = H.pairwise_distances([[0.0], [1.0]])
    filt = H.build_rips(d, max_dim=1, max_radius=2.0)
    simplices = oracle.simplices(filt)
    assert [s.vertices for s in simplices] == [(0,), (1,), (0, 1)]
    assert [s.birth for s in simplices] == [0.0, 0.0, 1.0]


def test_rips_coincident_points_tie_break():
    d = np.zeros((3, 3))
    filt = H.build_rips(d, max_dim=1, max_radius=1.0)
    simplices = oracle.simplices(filt)
    # vertices first, then edges, then the triangle, all at birth 0
    assert [s.dim for s in simplices] == [0, 0, 0, 1, 1, 1, 2]
    assert all(s.birth == 0.0 for s in simplices)


def test_rips_unit_square_census():
    d = H.pairwise_distances(square_points())
    filt = H.build_rips(d, max_dim=1, max_radius=2.0)
    counts = filt.counts()
    assert counts == (4, 6, 4)
    edge_births = sorted(filt.births_by_dim[1])
    assert edge_births[:4] == pytest.approx([1.0] * 4)
    assert edge_births[4:] == pytest.approx([math.sqrt(2)] * 2)
    # the top dimension is not stored; oracle.simplices builds it
    triangles = [s.birth for s in oracle.simplices(filt) if s.dim == 2]
    assert sorted(triangles) == pytest.approx([math.sqrt(2)] * 4)


def test_rips_faces_precede_cofaces_and_births_monotone():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    filt = H.build_rips(H.pairwise_distances(pts), max_dim=2, max_radius=3.0)
    simplices = oracle.simplices(filt)
    seen = set()
    last_key = None
    for s in simplices:
        key = (s.birth, s.dim, s.vertices)
        if last_key is not None:
            assert key >= last_key
        last_key = key
        for face in itertools.combinations(s.vertices, len(s.vertices) - 1):
            if face:
                assert face in seen or face == ()
        seen.add(s.vertices)


def test_build_rips_precondition_errors():
    d = H.pairwise_distances([[0.0], [1.0]])
    with pytest.raises(ValueError):
        H.build_rips(d, max_dim=3, max_radius=1.0)
    with pytest.raises(ValueError):
        H.build_rips(d, max_dim=1, max_radius=0.0)


# ---------------------------------------------------------------------------
# boundary matrix
# ---------------------------------------------------------------------------


def test_boundary_matrix_shape_and_d_squared():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(7, 3))
    filt = H.build_rips(H.pairwise_distances(pts), max_dim=2, max_radius=2.5)
    matrix = oracle.boundary_matrix(filt)
    for faces, dim in zip(matrix.columns, matrix.dims):
        assert len(faces) == (dim + 1 if dim > 0 else 0)
    assert matrix.d_squared_is_zero()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_two_point_barcode():
    d = H.pairwise_distances([[0.0], [1.0]])
    bc = H.compute_persistence(H.build_rips(d, max_dim=1, max_radius=2.0))
    dim0 = bc.intervals[0]
    assert [iv.death for iv in dim0] == [1.0, None]
    assert all(iv.birth == 0.0 for iv in dim0)


def test_square_loop_interval():
    d = H.pairwise_distances(square_points())
    bc = H.compute_persistence(H.build_rips(d, max_dim=1, max_radius=2.0))
    assert len(bc.intervals[1]) == 1
    bar = bc.intervals[1][0]
    assert bar.birth == pytest.approx(1.0)
    assert bar.death == pytest.approx(math.sqrt(2))
    assert H.betti_at(bc, 1, 1.2) == 1
    assert H.betti_at(bc, 1, 1.5) == 0


def test_far_separated_points_all_infinite():
    pts = [[0.0], [10.0], [20.0], [30.0]]
    d = H.pairwise_distances(pts)
    bc = H.compute_persistence(H.build_rips(d, max_dim=0, max_radius=5.0))
    assert len(bc.intervals[0]) == 4
    assert all(iv.death is None for iv in bc.intervals[0])


def test_betti_dim0_at_zero_counts_distinct_points():
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 5.0]]
    d = H.pairwise_distances(pts)
    bc = H.compute_persistence(H.build_rips(d, max_dim=1, max_radius=10.0))
    assert H.betti_at(bc, 0, 0.0) == 3


def test_simplex_accounting_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.normal(size=(rng.integers(2, 9), 2))
        filt = H.build_rips(H.pairwise_distances(pts), max_dim=1, max_radius=3.0)
        bc = H.compute_persistence(filt)
        assert 2 * bc.paired_count + bc.essential_count == filt.simplex_count


def test_optimized_matches_reference_reduction():
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(2, 10))
        pts = rng.normal(size=(n, int(rng.choice([2, 3]))))
        if trial % 5 == 0 and n >= 2:
            pts[0] = pts[1]  # coincident points stress the tie-breaking
        d = H.pairwise_distances(pts)
        max_dim = int(rng.choice([0, 1, 2]))
        filt = H.build_rips(d, max_dim, float(rng.uniform(0.3, 3.0)))
        fast = H.compute_persistence(filt)
        slow = oracle.reference_persistence(filt)
        assert fast.intervals == slow.intervals
        assert fast.paired_count == slow.paired_count
        assert fast.essential_count == slow.essential_count


def _cofacets_by_lookup(dist, cliques, d):
    """Cofacet lists of the d-simplices and latest facets of the
    (d+1)-simplices, as vertex tuples, from clique lists sorted by
    (birth, lex) in Python."""

    def key(s):
        return max((dist[u, v] for u, v in itertools.combinations(s, 2)), default=0.0), s

    faces = sorted(cliques[d], key=key)
    position = {s: i for i, s in enumerate(faces)}
    cofacets = {s: [] for s in faces}
    latest = {}
    for t in sorted(cliques[d + 1], key=key):
        facets = [t[:j] + t[j + 1 :] for j in range(d + 2)]
        for f in facets:
            cofacets[f].append(t)
        latest[t] = max(facets, key=position.get)
    return cofacets, latest


def _ranks(filt, d):
    """Birth rank of each stored d-simplex, read from its key."""
    return (filt.keys_by_dim[d] // filt.n_vertices ** (d + 1)).astype(np.int32)


def _decode_keys(filt, keys, k):
    """(birth, vertices) of the k-vertex simplices with the given keys."""
    n, out = filt.n_vertices, []
    for key in keys.tolist():
        verts = []
        for _ in range(k):
            key, v = divmod(key, n)
            verts.append(v)
        out.append((float(filt.edge_lengths[key]), tuple(verts[::-1])))
    return out


@pytest.mark.parametrize("kind", ["generic", "duplicates", "rounded"])
@pytest.mark.parametrize("max_dim", [1, 2])
def test_persistence_matches_reference_on_larger_clouds(kind, max_dim):
    rng = np.random.default_rng([12, max_dim, len(kind)])
    non_apparent = 0
    for _ in range(4):
        pts = _random_cloud(kind, rng, sizes=(20, 41))
        d = H.pairwise_distances(pts)
        radius = float(np.quantile(d[np.triu_indices(len(d), 1)], rng.uniform(0.15, 0.3)))
        filt = H.build_rips(d, max_dim, radius)
        fast = H.compute_persistence(filt)
        slow = oracle.reference_persistence(filt)
        assert fast.intervals == slow.intervals
        assert fast.paired_count == slow.paired_count
        assert fast.essential_count == slow.essential_count

        # the implicit cofacets of every degree, the top one included
        cliques = oracle._clique_simplices((d <= radius) & ~np.eye(len(d), dtype=bool), max_dim + 1)
        for deg in range(filt.top_dim):
            cofacets, latest = _cofacets_by_lookup(d, cliques, deg)
            for verts, key in zip(filt.verts_by_dim[deg], filt.keys_by_dim[deg]):
                expected = [(max(d[u, v] for u, v in itertools.combinations(t, 2)), t)
                            for t in cofacets[tuple(verts.tolist())]]
                assert _decode_keys(filt, H._cofacets(filt, int(key), deg), deg + 2) == expected
            # the vertex columns in a shuffled order, as the routine takes any
            tops = list(latest)
            order = rng.permutation(deg + 2)
            cols = [np.array([t[i] for t in tops]) for i in order]
            drop = H._latest_facet(filt.edge_rank, cols, filt.n_vertices)
            found = [tuple(v for v in t if v != t[order[j]]) for t, j in zip(tops, drop)]
            assert found == [latest[t] for t in tops]
            if deg == 1:
                cofacets_1, latest_1 = cofacets, latest
        # the dim-1 block must reduce the columns that are neither cleared by
        # a dim-0 death nor apparent pairs
        negative_edges = np.isin(filt.keys_by_dim[1], H._dim0_block(filt)[1])
        non_apparent += sum(
            1
            for c, edge in enumerate(map(tuple, filt.verts_by_dim[1].tolist()))
            if cofacets_1[edge]
            and not negative_edges[c]
            and latest_1[cofacets_1[edge][0]] != edge
        )
    assert non_apparent > 0


def _noisy_torus(n_u, n_v, seed):
    rng = np.random.default_rng(seed)
    u = (np.repeat(np.arange(n_u), n_v) + rng.uniform(0, 1, n_u * n_v)) * 2 * np.pi / n_u
    v = (np.tile(np.arange(n_v), n_u) + rng.uniform(0, 1, n_u * n_v)) * 2 * np.pi / n_v
    ring = 2.0 + 0.8 * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), 0.8 * np.sin(v)], axis=1)
    return pts + rng.normal(scale=0.05, size=pts.shape)


@pytest.mark.parametrize("max_dim", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apparent_pairs_are_born_at_their_pivots_birth(max_dim, seed):
    # the coboundary reduction makes no bar of an apparent pair: the column
    # is its pivot's latest facet, so it is born when the pivot is.  Checked
    # on every column, as clearing only removes some, of a noisy torus and a
    # cloud of rounded coordinates, whose distances tie
    rng = np.random.default_rng([27, max_dim, seed])
    torus = _noisy_torus(*((15, 8) if max_dim == 1 else (10, 6)), seed)
    for pts in (torus, np.round(rng.normal(size=(40, 3)), 1)):
        filt = H.build_rips(H.pairwise_distances(pts), max_dim)
        for d in range(1, max_dim + 1):
            ranks = _ranks(filt, d)
            keys, cols = H._apparent_pairs(filt, d, np.ones(len(ranks), dtype=bool))
            assert len(cols) > 100
            assert np.array_equal(ranks[cols], keys // filt.n_vertices ** (d + 2))


def _dim0_edge_cases():
    rng = np.random.default_rng(20)
    generic = H.pairwise_distances(rng.normal(size=(7, 2)))
    yield "one point", H.pairwise_distances([[0.5, -1.0]]), None
    # max_radius below every distance: no edge, every vertex its own class
    yield "disconnected", generic, 0.5 * float(generic[generic > 0].min())
    # every edge has rank 0, so the vertex order alone decides the pairs
    yield "coincident", np.zeros((6, 6)), None
    grid = rng.integers(0, 3, size=(14, 2)).astype(float)  # ties and duplicates
    yield "rounded grid", H.pairwise_distances(grid), 2.0


@pytest.mark.parametrize("max_dim", [0, 1])
def test_dim0_spanning_tree_matches_reference_on_edge_cases(max_dim):
    for name, d, radius in _dim0_edge_cases():
        filt = H.build_rips(d, max_dim, radius)
        fast = H.compute_persistence(filt)
        slow = oracle.reference_persistence(filt)
        assert fast.intervals == slow.intervals, name
        assert fast.paired_count == slow.paired_count, name
        assert fast.essential_count == slow.essential_count, name
        killed = H._dim0_block(filt)[1]
        tree_edges = [verts for _, verts in _decode_keys(filt, killed, 2)]
        assert tree_edges == oracle.killing_simplices(filt, 0), name


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_build_rips_counts_the_top_dimension_without_storing_it(max_dim):
    rng = np.random.default_rng([16, max_dim])
    for kind in ("generic", "duplicates", "rounded", "single"):
        d = H.pairwise_distances(_random_cloud(kind, rng, sizes=(8, 21)))
        radius = float(np.quantile(d, rng.uniform(0.2, 0.6))) or 1.0
        filt = H.build_rips(d, max_dim, radius)
        cliques = oracle._clique_simplices((d <= radius) & ~np.eye(len(d), dtype=bool), max_dim + 1)
        assert filt.counts() == tuple(len(c) for c in cliques)
        assert len(filt.verts_by_dim) == len(filt.births_by_dim) == max_dim + 1
        built = [s.vertices for s in oracle.simplices(filt) if s.dim == max_dim + 1]
        assert sorted(built) == cliques[max_dim + 1]


def test_filtration_order_equals_lexsort_on_tied_input():
    rng = np.random.default_rng(13)
    pts = rng.integers(0, 3, size=(14, 2)).astype(float)  # ties and duplicates
    d = H.pairwise_distances(pts)
    filt = H.build_rips(d, 2, 2.0)
    cliques = oracle._clique_simplices((d <= 2.0) & ~np.eye(14, dtype=bool), 3)
    for verts, births, expected in zip(filt.verts_by_dim, filt.births_by_dim, cliques):
        assert sorted(map(tuple, verts.tolist())) == sorted(expected)
        shuffled = rng.permutation(len(births))
        v, b = verts[shuffled], births[shuffled]
        order = np.lexsort(tuple(v[:, c] for c in range(v.shape[1] - 1, -1, -1)) + (b,))
        assert np.array_equal(v[order], verts)
        assert np.array_equal(b[order], births)


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_filtration_keys_name_the_stored_rows_in_order(max_dim):
    # rounded coordinates, so that distances tie
    pts = np.round(np.random.default_rng([21, max_dim]).normal(size=(30, 2)), 1)
    d = H.pairwise_distances(pts)
    filt = H.build_rips(d, max_dim)
    assert len(filt.edge_lengths) < filt.counts()[1]
    n = filt.n_vertices
    dims = zip(filt.keys_by_dim, filt.verts_by_dim, filt.births_by_dim)
    for dim, (keys, verts, births) in enumerate(dims):
        assert keys.dtype == np.int64 and np.all(keys[1:] > keys[:-1])
        # the birth rank is the rank of the longest edge, 0 for a vertex
        ranks, diameters = np.zeros(len(verts), dtype=np.int64), np.zeros(len(verts))
        for u, v in itertools.combinations(verts.T, 2):
            np.maximum(ranks, filt.edge_rank[u, v], out=ranks)
            np.maximum(diameters, d[u, v], out=diameters)
        assert np.array_equal(keys, H._keys(ranks, list(verts.T), n))
        assert np.array_equal(births, filt.edge_lengths[ranks] if dim else np.zeros(n))
        assert np.array_equal(births, diameters)


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_filtration_stores_each_simplex_only_as_its_key(max_dim):
    # vertex rows and births are decoded from the keys when read; the other
    # stored arrays are one per vertex pair and one per edge length
    filt = H.build_rips(H.pairwise_distances(_noisy_torus(10, 6, 0)), max_dim)
    n = filt.n_vertices
    stored = {f.name: getattr(filt, f.name) for f in dataclasses.fields(filt)}
    arrays = {name for name, value in stored.items() if isinstance(value, (np.ndarray, tuple))}
    assert arrays == {"keys_by_dim", "edge_rank", "edge_lengths"}
    assert filt.edge_rank.shape == (n, n)
    assert np.array_equal(filt.edge_lengths, np.unique(filt.edge_lengths))
    assert [len(k) for k in filt.keys_by_dim] == list(filt.counts()[:-1])


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_size_guard_counts_before_building(monkeypatch, max_dim):
    rng = np.random.default_rng(14)
    d = H.pairwise_distances(rng.normal(size=(12, 3)))
    filt = H.build_rips(d, max_dim, 3.5)
    monkeypatch.setattr(H, "FILTRATION_SIZE_GUARD", filt.simplex_count - 1)
    with pytest.raises(H.FiltrationSizeError) as info:
        H.build_rips(d, max_dim, 3.5)
    assert isinstance(info.value, ValueError)
    assert info.value.count == filt.simplex_count
    monkeypatch.setattr(H, "FILTRATION_SIZE_GUARD", info.value.count)
    assert H.build_rips(d, max_dim, 3.5).counts() == filt.counts()
    # tetrahedra are not counted once the lower dimensions are over the limit
    if max_dim == 2:
        monkeypatch.setattr(H, "FILTRATION_SIZE_GUARD", sum(filt.counts()[:3]) - 1)
        with pytest.raises(H.FiltrationSizeError, match="simplices up to triangles") as info:
            H.build_rips(d, max_dim, 3.5)
        assert info.value.count == sum(filt.counts()[:3])


def test_key_range_guard(monkeypatch):
    d = H.pairwise_distances(np.random.default_rng(19).normal(size=(10, 2)))
    filt = H.build_rips(d, 1, 1.5)
    key_range = len(filt.edge_lengths) * 10**3
    monkeypatch.setattr(H, "_KEY_LIMIT", key_range - 1)
    with pytest.raises(H.FiltrationSizeError, match="sort keys") as info:
        H.build_rips(d, 1, 1.5)
    assert info.value.count == key_range
    monkeypatch.setattr(H, "_KEY_LIMIT", key_range)
    assert H.build_rips(d, 1, 1.5).counts() == filt.counts()


TORUS_PEAK_CODE = """
import tracemalloc
import numpy as np
from bettinet import homology as H
rng = np.random.default_rng(11)
u = (np.repeat(np.arange(25), 12) + rng.uniform(0, 1, 300)) * 2 * np.pi / 25
v = (np.tile(np.arange(12), 25) + rng.uniform(0, 1, 300)) * 2 * np.pi / 12
ring = 2.0 + 0.8 * np.cos(v)
pts = np.stack([ring * np.cos(u), ring * np.sin(u), 0.8 * np.sin(v)], axis=1)
filt = H.build_rips(H.pairwise_distances(pts + rng.normal(scale=0.05, size=pts.shape)), 1)
tracemalloc.start()
barcode = H.compute_persistence(filt)
print(tracemalloc.get_traced_memory()[1], len(barcode.intervals[1]))
"""


def test_persistence_peak_memory_on_a_noisy_torus():
    # Apparent pairs live in two sorted arrays, an apparent owner's
    # coboundary is recomputed when it is added, and a reduction keeps
    # sorted only the keys below its horizon, so on this 300-point torus the
    # dim-1 kernel peaks at 6.26 MiB above its input (7.60 MiB with every
    # key kept sorted).  With every key sorted, one dict entry per apparent
    # pair took it to 11.1 MB, a cache of owner coboundaries to 10.9 MB, and
    # both to 17.7 MB.  A fresh interpreter keeps other tests' allocations
    # out of the count.
    src = str(Path(H.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", TORUS_PEAK_CODE], capture_output=True,
                            text=True, check=True, env=env)
    peak, bars = map(int, result.stdout.split())
    assert bars > 0
    assert peak < 9.5 * 2**20


def _noisy_circle(n, seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 2 * np.pi, n)
    return np.c_[np.cos(t), np.sin(t)] + rng.normal(scale=0.15, size=(n, 2))


def _watched_persistence(monkeypatch, filt):
    """compute_persistence's barcode, the most apparent columns that one
    reduction added, and the number of stored reduced columns read."""
    longest, reads, built = [0], [0], [0]
    cofacets, reduce_column = H._cofacets, H._reduce_column

    class Watched:
        """The store of reduced columns, counting the reads that find one."""

        def __init__(self, reduced):
            self.reduced = reduced

        def get(self, key):
            column = self.reduced.get(key)
            reads[0] += column is not None
            return column

    def counting_cofacets(*args):
        built[0] += 1
        return cofacets(*args)

    def watched_reduce_column(filt, d, key, keys, cols, reduced):
        built[0] = 0
        column = reduce_column(filt, d, key, keys, cols, Watched(reduced))
        longest[0] = max(longest[0], built[0] - 1)  # one build is the column's own
        return column

    with monkeypatch.context() as patch:
        patch.setattr(H, "_cofacets", counting_cofacets)
        patch.setattr(H, "_reduce_column", watched_reduce_column)
        barcode = H.compute_persistence(filt)
    return barcode, longest[0], reads[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_long_reductions_match_the_reference(monkeypatch, seed):
    # 60 points on a noisy circle.  At seed 0 a column adds over 100 others,
    # at seed 1 a later pivot reads a stored reduced column, and at seed 2,
    # with the smallest horizon step, a refill moves a key parked twice.
    filt = H.build_rips(H.pairwise_distances(_noisy_circle(60, seed)), 1)
    slow = oracle.reference_persistence(filt)
    expected = (slow.intervals, slow.paired_count, slow.essential_count)
    fast, longest, reads = _watched_persistence(monkeypatch, filt)
    assert (fast.intervals, fast.paired_count, fast.essential_count) == expected
    if seed == 0:
        assert longest >= 100
    if seed == 1:
        assert reads >= 1
    # with the smallest step every pivot past the horizon moves it
    monkeypatch.setattr(H, "_HORIZON_STEP", 1)
    assert H.compute_persistence(filt) == fast


def test_odd_keys_keeps_the_keys_of_odd_multiplicity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        counts = rng.integers(0, 6, size=int(rng.integers(0, 40)))
        keys = rng.permutation(np.repeat(np.arange(len(counts), dtype=np.int64) * 7, counts))
        assert H._odd_keys(keys).tolist() == [7 * k for k, c in enumerate(counts) if c % 2]


def test_oracle_equivalence_random_clouds():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        pts = rng.normal(size=(n, int(rng.choice([2, 3]))))
        d = H.pairwise_distances(pts)
        diam = float(d.max())
        for dim in (0, 1):
            bc = H.compute_persistence(H.build_rips(d, dim, diam + 1.0))
            for _ in range(5):
                r = float(rng.uniform(0.0, diam * 1.05))
                assert H.betti_at(bc, dim, r) == oracle.brute_force_betti(d, dim, r)


def test_dim0_curve_non_increasing_and_ends_at_one():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(12, 2))
    d = H.pairwise_distances(pts)
    bc = H.rips_persistence(d, max_dim=1)
    radii = np.linspace(0, d.max() * 1.1, 40)
    curve = H.betti_curve(bc, 0, radii)
    assert all(curve[i] >= curve[i + 1] for i in range(len(curve) - 1))
    assert curve[-1] == 1


def _random_cloud(kind, rng, sizes=(4, 26)):
    if kind == "single":
        return rng.normal(size=(1, 2))
    n = int(rng.integers(*sizes))
    pts = rng.normal(size=(n, int(rng.choice([2, 3]))))
    if kind == "duplicates":
        pts[rng.integers(0, n, size=n // 3)] = pts[rng.integers(0, n)]
        pts[-1] = pts[0]
    elif kind == "collapsed":  # n samples on 1 to 3 distinct points
        pts = pts[rng.integers(0, int(rng.integers(1, 4)), size=n)]
    elif kind == "rounded":  # tied distances, and some duplicates
        pts = np.round(pts, 1)
    return pts


def _plain_mst_b0(d, radii):
    from scipy.sparse.csgraph import minimum_spanning_tree

    weights = minimum_spanning_tree(d).data
    return np.array([1 + np.sum(weights > r) if r >= 0 else 0 for r in radii])


CLOUD_KINDS = ("generic", "duplicates", "collapsed", "rounded", "single")


@pytest.mark.parametrize("kind", CLOUD_KINDS)
def test_b0_curve_matches_rips_barcode(kind):
    rng = np.random.default_rng(CLOUD_KINDS.index(kind))
    plain_wrong = 0
    for _ in range(40):
        d = H.pairwise_distances(_random_cloud(kind, rng))
        # every distance is a grid point, so ties between a radius and an
        # edge weight are checked, as are radii 0 and below 0
        radii = np.concatenate([[-1.0, -1e-12, 0.0], np.unique(d), rng.uniform(0, 2 * d.max(), 8)])
        expected = H.betti_curve(H.rips_persistence(d, max_dim=1), 0, radii)
        assert np.array_equal(H.b0_curve(d, radii), expected)
        plain_wrong += not np.array_equal(_plain_mst_b0(d, radii), expected)
    # csgraph drops zero-weight edges: the duplicate cases must catch that
    if kind in ("duplicates", "collapsed"):
        assert plain_wrong > 0


def test_barcode_invariance_under_permutation_and_rigid_motion():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(9, 2))
    d1 = H.pairwise_distances(pts)
    bc1 = H.compute_persistence(H.build_rips(d1, 1, 4.0))

    perm = rng.permutation(9)
    bc2 = H.compute_persistence(H.build_rips(H.pairwise_distances(pts[perm]), 1, 4.0))
    assert bc1.intervals == bc2.intervals

    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([3.0, -1.0])
    bc3 = H.compute_persistence(H.build_rips(H.pairwise_distances(moved), 1, 4.0))
    for dim in bc1.intervals:
        assert len(bc1.intervals[dim]) == len(bc3.intervals[dim])
        for a, b in zip(bc1.intervals[dim], bc3.intervals[dim]):
            assert a.birth == pytest.approx(b.birth, abs=1e-9)
            if a.death is None:
                assert b.death is None
            else:
                assert a.death == pytest.approx(b.death, abs=1e-9)


def test_enclosing_radius_cap_is_exact():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(10, 2))
    d = H.pairwise_distances(pts)
    capped = H.rips_persistence(d, max_dim=1)
    full = H.compute_persistence(H.build_rips(d, 1, float(d.max()) + 1.0))
    radii = np.linspace(0, d.max() * 1.2, 50)
    for dim in (0, 1):
        assert list(H.betti_curve(capped, dim, radii)) == list(H.betti_curve(full, dim, radii))


def test_rips_persistence_validates_the_distances_once(monkeypatch):
    calls = []
    validate = H.as_distance_matrix
    monkeypatch.setattr(H, "as_distance_matrix", lambda d: calls.append(1) or validate(d))
    d = H.pairwise_distances(np.random.default_rng(18).normal(size=(9, 2)))
    capped = H.rips_persistence(d, max_dim=1)
    assert len(calls) == 1
    assert H.rips_persistence(d, 1, H.enclosing_radius(d)).intervals == capped.intervals
    assert math.isinf(capped.max_radius)


def test_betti_at_warns_beyond_horizon():
    d = H.pairwise_distances([[0.0], [1.0]])
    bc = H.compute_persistence(H.build_rips(d, 0, 0.5))
    with pytest.warns(UserWarning):
        H.betti_at(bc, 0, 0.9)


def _alive_by_bar(barcode, dim, radii):
    """Betti numbers by testing birth <= r < death bar by bar."""
    bars = barcode.intervals.get(dim, ())
    return [sum(b.birth <= r and (b.death is None or r < b.death) for b in bars) for r in radii]


def _barcodes_for_betti_tests(rng):
    """Rips barcodes capped at the enclosing radius, and cut short, which
    leaves infinite bars above dim 0; then a hand-made one with tied bars."""
    for kind in ("generic", "duplicates", "rounded"):
        for max_dim in (1, 2):
            for _ in range(3):
                d = H.pairwise_distances(_random_cloud(kind, rng, sizes=(6, 16)))
                cut = float(np.quantile(d[np.triu_indices(len(d), 1)], 0.3))
                yield H.rips_persistence(d, max_dim)
                yield H.rips_persistence(d, max_dim, cut)
    iv = H.Interval
    tied = {0: (iv(0.0, 1.0), iv(0.0, 1.0), iv(0.0, None)), 1: (iv(0.5, None), iv(1.0, 2.0)), 2: ()}
    yield H.Barcode(tied, n_simplices=0, paired_count=0, essential_count=0, max_radius=math.inf)


def test_betti_curve_matches_per_bar_count():
    rng = np.random.default_rng(15)
    infinite_above_0 = 0
    for bc in _barcodes_for_betti_tests(rng):
        ends = [v for ivs in bc.intervals.values() for b in ivs for v in (b.birth, b.death)]
        ends = np.array([v for v in ends if v is not None])
        # every birth and death, the floats next to them, negative and
        # infinite radii
        radii = np.concatenate(
            [[-np.inf, -1.0, -1e-12, 0.0, np.inf], rng.uniform(0, 5, 5)]
            + [np.nextafter(ends, -np.inf), ends, np.nextafter(ends, np.inf)]
        )
        # the dimension above the top one has no bars
        for dim in range(max(bc.dims()) + 2):
            assert H.betti_curve(bc, dim, radii).tolist() == _alive_by_bar(bc, dim, radii)
            inside = radii[radii <= bc.max_radius]
            assert [H.betti_at(bc, dim, r) for r in inside] == _alive_by_bar(bc, dim, inside)
        infinite_above_0 += sum(b.is_infinite for d in bc.dims()[1:] for b in bc.intervals[d])
    assert infinite_above_0 > 0


# ---------------------------------------------------------------------------
# brute force / explicit complexes
# ---------------------------------------------------------------------------


def test_brute_force_examples():
    d = H.pairwise_distances([[0.0], [1.0]])
    assert oracle.brute_force_betti(d, 0, 0.5) == 2
    sq = H.pairwise_distances(square_points())
    assert oracle.brute_force_betti(sq, 1, 1.2) == 1


def test_brute_force_circle():
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    d = H.pairwise_distances(pts)
    chord = float(d[0, 1])
    assert oracle.brute_force_betti(d, 1, 1.5 * chord) == 1
    bc = H.rips_persistence(d, max_dim=1)
    assert H.betti_at(bc, 1, 1.5 * chord) == 1


def test_brute_force_point_guard():
    d = np.zeros((17, 17))
    with pytest.raises(oracle.PointCountError):
        oracle.brute_force_betti(d, 0, 1.0)


def test_complex_betti_examples():
    hollow = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert oracle.complex_betti(hollow) == [1, 1]
    filled = hollow + [(0, 1, 2)]
    assert oracle.complex_betti(filled)[:2] == [1, 0]
    two = hollow + [(3,), (4,), (5,), (3, 4), (3, 5), (4, 5)]
    assert oracle.complex_betti(two) == [2, 2]


def test_complex_betti_face_closure_error():
    with pytest.raises(oracle.FaceClosureError):
        oracle.complex_betti([(0, 1)])
    with pytest.raises(oracle.FaceClosureError):
        oracle.complex_betti([(1, 0)])


# ---------------------------------------------------------------------------
# Mayer-Vietoris style properties via complex_betti
# ---------------------------------------------------------------------------


def test_two_set_inequalities_on_random_covers():
    rng = np.random.default_rng(9)
    for _ in range(40):
        complex_ = random_complex(rng)
        s1, s2 = random_cover(rng, complex_, 2)
        union = betti_padded(s1 | s2, dims=4)
        b1 = betti_padded(s1, dims=4)
        b2 = betti_padded(s2, dims=4)
        inter = betti_padded(s1 & s2, dims=4)
        for i in range(3):
            assert b1[i] + b2[i] <= union[i] + inter[i]
            prev = inter[i - 1] if i >= 1 else 0
            assert union[i] <= b1[i] + b2[i] + prev
            # exactness at H_i of the intersection bounds it by the union's
            # NEXT dimension (the connecting map lands in H_i from H_{i+1})
            assert inter[i] <= b1[i] + b2[i] + union[i + 1]


def test_union_cover_inequality_on_random_covers():
    from bettinet.bounds import mayer_vietoris_bound

    rng = np.random.default_rng(10)
    for _ in range(40):
        complex_ = random_complex(rng)
        parts = random_cover(rng, complex_, int(rng.choice([2, 3])))
        table = {}
        for size in range(1, len(parts) + 1):
            for subset in itertools.combinations(range(len(parts)), size):
                inter = set.intersection(*(parts[p] for p in subset))
                table[frozenset(subset)] = betti_padded(inter)
        total = betti_padded(set().union(*parts))
        for k in (0, 1):
            assert total[k] <= mayer_vietoris_bound(table, k)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_barcode_text_format_and_roundtrip():
    d = H.pairwise_distances(square_points())
    bc = H.compute_persistence(H.build_rips(d, 1, 2.0))
    text = H.barcode_to_text(bc)
    assert "1,1,1.41421356\n" in text
    assert "0,0,inf\n" in text


def test_barcode_svg_colors():
    d = H.pairwise_distances(square_points())
    bc = H.compute_persistence(H.build_rips(d, 1, 2.0))
    svg = H.barcode_svg(bc)
    assert svg.startswith("<svg")
    assert 'fill="red"' in svg
    assert 'fill="blue"' in svg
    assert svg.count("<rect") == sum(len(v) for v in bc.intervals.values())
