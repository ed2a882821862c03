import itertools
import math

import numpy as np
import pytest

from bettinet import homology as H
from conftest import betti_padded, random_complex, random_cover


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
    simplices = filt.simplices()
    assert [s.vertices for s in simplices] == [(0,), (1,), (0, 1)]
    assert [s.birth for s in simplices] == [0.0, 0.0, 1.0]


def test_rips_coincident_points_tie_break():
    d = np.zeros((3, 3))
    filt = H.build_rips(d, max_dim=1, max_radius=1.0)
    simplices = filt.simplices()
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
    assert sorted(filt.births_by_dim[2]) == pytest.approx([math.sqrt(2)] * 4)


def test_rips_faces_precede_cofaces_and_births_monotone():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 2))
    filt = H.build_rips(H.pairwise_distances(pts), max_dim=2, max_radius=3.0)
    simplices = filt.simplices()
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
    matrix = H.boundary_matrix(filt)
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
        slow = H.reference_persistence(filt)
        assert fast.intervals == slow.intervals
        assert fast.paired_count == slow.paired_count
        assert fast.essential_count == slow.essential_count


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
                assert H.betti_at(bc, dim, r) == H.brute_force_betti(d, dim, r)


def test_dim0_curve_non_increasing_and_ends_at_one():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(12, 2))
    d = H.pairwise_distances(pts)
    bc = H.rips_persistence(d, max_dim=1)
    radii = np.linspace(0, d.max() * 1.1, 40)
    curve = H.betti_curve(bc, 0, radii)
    assert all(curve[i] >= curve[i + 1] for i in range(len(curve) - 1))
    assert curve[-1] == 1


def _random_cloud(kind, rng):
    if kind == "single":
        return rng.normal(size=(1, 2))
    n = int(rng.integers(4, 26))
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


def test_betti_at_warns_beyond_horizon():
    d = H.pairwise_distances([[0.0], [1.0]])
    bc = H.compute_persistence(H.build_rips(d, 0, 0.5))
    with pytest.warns(UserWarning):
        H.betti_at(bc, 0, 0.9)


# ---------------------------------------------------------------------------
# brute force / explicit complexes
# ---------------------------------------------------------------------------


def test_brute_force_examples():
    d = H.pairwise_distances([[0.0], [1.0]])
    assert H.brute_force_betti(d, 0, 0.5) == 2
    sq = H.pairwise_distances(square_points())
    assert H.brute_force_betti(sq, 1, 1.2) == 1


def test_brute_force_circle():
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    d = H.pairwise_distances(pts)
    chord = float(d[0, 1])
    assert H.brute_force_betti(d, 1, 1.5 * chord) == 1
    bc = H.rips_persistence(d, max_dim=1)
    assert H.betti_at(bc, 1, 1.5 * chord) == 1


def test_brute_force_point_guard():
    d = np.zeros((17, 17))
    with pytest.raises(H.PointCountError):
        H.brute_force_betti(d, 0, 1.0)


def test_complex_betti_examples():
    hollow = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    assert H.complex_betti(hollow) == [1, 1]
    filled = hollow + [(0, 1, 2)]
    assert H.complex_betti(filled)[:2] == [1, 0]
    two = hollow + [(3,), (4,), (5,), (3, 4), (3, 5), (4, 5)]
    assert H.complex_betti(two) == [2, 2]


def test_complex_betti_face_closure_error():
    with pytest.raises(H.FaceClosureError):
        H.complex_betti([(0, 1)])
    with pytest.raises(H.FaceClosureError):
        H.complex_betti([(1, 0)])


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
    parsed = H.barcode_from_text(text)
    assert len(parsed[1]) == 1
    assert parsed[1][0].death == pytest.approx(math.sqrt(2), abs=1e-8)


def test_barcode_svg_colors():
    d = H.pairwise_distances(square_points())
    bc = H.compute_persistence(H.build_rips(d, 1, 2.0))
    svg = H.barcode_svg(bc)
    assert svg.startswith("<svg")
    assert 'fill="red"' in svg
    assert 'fill="blue"' in svg
    assert svg.count("<rect") == sum(len(v) for v in bc.intervals.values())
