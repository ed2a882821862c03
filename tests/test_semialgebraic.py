import collections
import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from bettinet import mlp
from bettinet import semialgebraic as sa


def identity_square_net():
    net = mlp.build_network([2, 2, 2], mlp.poly_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = np.eye(2)
    net.hidden[0].dense.bias[:] = 0.0
    net.output.weight[:] = np.eye(2)
    net.output.bias[:] = 0.0
    return net


def symmetric_relu_net():
    net = mlp.build_network([2, 2, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = np.eye(2)
    net.hidden[0].dense.bias[:] = 0.0
    net.output.weight[:] = np.array([[2.0, 1.0], [1.0, 2.0]])
    net.output.bias[:] = 0.0
    return net


def random_relu_net(seed, widths=(4, 4, 4, 3), batch_norm=False, bias_scale=0.5):
    rng = np.random.default_rng(seed)
    net = mlp.build_network(list(widths), mlp.relu_activation(), seed=seed, batch_norm=batch_norm)
    for blk in net.hidden:
        blk.dense.bias[:] = rng.normal(scale=bias_scale, size=blk.dense.bias.shape)
    net.output.bias[:] = rng.normal(scale=bias_scale, size=net.output.bias.shape)
    return net


# ---------------------------------------------------------------------------
# MultiPoly
# ---------------------------------------------------------------------------


def test_multipoly_arithmetic_and_eval():
    x = sa.MultiPoly.variable(2, 0)
    y = sa.MultiPoly.variable(2, 1)
    p = x * x + y * 2.0 + 1.0
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert p.evaluate(pts) == pytest.approx([6.0, -0.75])
    assert p.degree == 2
    q = p - p
    assert len(q) == 0 and q.degree == 0


def test_multipoly_drops_zero_coefficients():
    x = sa.MultiPoly.variable(1, 0)
    p = x + (x * -1.0)
    assert p.terms == {}


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_identity_square_net_composes_to_coordinate_squares():
    qs = sa.compose_logit_polynomials(identity_square_net())
    assert qs[0].terms == {(2, 0): 1.0}
    assert qs[1].terms == {(0, 2): 1.0}


def test_composition_matches_forward_on_random_nets():
    rng = np.random.default_rng(3)
    for trial in range(20):
        widths = [int(w) for w in rng.integers(1, 4, size=rng.integers(2, 4))] + [
            int(rng.integers(2, 4))
        ]
        bn = bool(trial % 2)
        net = mlp.build_network(widths, mlp.poly_activation(), seed=trial, batch_norm=bn)
        if bn:
            for blk in net.hidden:
                blk.norm.running_mean[:] = rng.normal(scale=0.3, size=blk.norm.running_mean.shape)
                blk.norm.running_var[:] = rng.uniform(0.5, 2.0, size=blk.norm.running_var.shape)
        qs = sa.compose_logit_polynomials(net)
        pts = rng.normal(size=(100, widths[0]))
        _, logits, _ = mlp.forward(net, pts)
        sym = np.column_stack([q.evaluate(pts) for q in qs])
        scale = np.maximum(np.abs(logits).max(axis=1, keepdims=True), 1e-8)
        assert (np.abs(sym - logits) / scale).max() < 1e-8


def test_composition_caps_raise_structured_error():
    net = mlp.build_network([5, 5, 2], mlp.poly_activation(), seed=0)
    with pytest.raises(sa.CompositionCapError):
        sa.compose_logit_polynomials(net)
    deep = mlp.build_network([2, 2, 2, 2, 2, 2, 2], mlp.poly_activation(), seed=0)
    with pytest.raises(sa.CompositionCapError):
        sa.compose_logit_polynomials(deep)


def test_monomial_cap_error_counts_the_stored_monomials(monkeypatch):
    net = mlp.build_network([2, 2, 2], mlp.poly_activation(), seed=0, batch_norm=False)
    stored = sum(len(q) for q in sa.compose_logit_polynomials(net))
    # the hidden affine stores at most 2 * 3 monomials, under the cap
    monkeypatch.setattr(sa, "MONOMIAL_CAP", stored - 1)
    message = rf"grew to {stored} monomials \(cap {stored - 1}\)"
    with pytest.raises(sa.CompositionCapError, match=message) as info:
        sa.compose_logit_polynomials(net)
    assert info.value.monomial_count == stored


def test_degree_bounds_across_from_layers():
    net = mlp.build_network([2, 2, 2, 2], mlp.poly_activation(), seed=5, batch_norm=False)
    qs0 = sa.compose_logit_polynomials(net, 0)
    qs1 = sa.compose_logit_polynomials(net, 1)
    assert max(q.degree for q in qs0) == 4
    assert max(q.degree for q in qs1) == 2
    assert sa.degree_bound_check(qs0, r=2, depth=3, layer=0).ok
    assert sa.degree_bound_check(qs1, r=2, depth=3, layer=1).ok


def test_degree_bound_last_layer_is_flagged_not_failed():
    net = mlp.build_network([2, 2, 2], mlp.poly_activation(), seed=1, batch_norm=False)
    qs = sa.compose_logit_polynomials(net, from_layer=1)
    check = sa.degree_bound_check(qs, r=2, depth=2, layer=1)
    assert check.last_layer_flag
    assert check.max_degree == 1
    assert check.bound == 0
    assert not check.ok


def test_degree_bound_zero_weight_network():
    net = mlp.build_network([2, 2, 2, 2], mlp.poly_activation(), seed=2, batch_norm=False)
    for blk in net.hidden:
        blk.dense.weight[:] = 0.0
        blk.dense.bias[:] = 0.3
    qs = sa.compose_logit_polynomials(net)
    check = sa.degree_bound_check(qs, r=2, depth=3, layer=0)
    assert check.ok
    assert check.max_degree == 0


def test_three_activation_compositions_exceed_linear_degree_budget():
    # composition multiplies degrees: three squarings give degree 8, while
    # the linear-in-depth budget reads 6; the check must report the excess
    net = mlp.build_network([2, 2, 2, 2, 2], mlp.poly_activation(), seed=3, batch_norm=False)
    qs = sa.compose_logit_polynomials(net, from_layer=0)
    check = sa.degree_bound_check(qs, r=2, depth=4, layer=0)
    assert check.max_degree == 8
    assert check.bound == 6
    assert not check.ok
    assert not check.last_layer_flag


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def test_poly_cover_two_classes_single_descriptor():
    qs = sa.compose_logit_polynomials(identity_square_net())
    covers = sa.poly_cover(qs, 0)
    assert len(covers) == 1
    assert len(covers[0].equalities) == 1
    assert len(covers[0].inequalities) == 0


def test_poly_cover_three_classes_counts():
    net = mlp.build_network([2, 2, 3], mlp.poly_activation(), seed=1, batch_norm=False)
    qs = sa.compose_logit_polynomials(net)
    covers = sa.poly_cover(qs, 0)
    assert len(covers) == 2
    for c in covers:
        assert len(c.equalities) == 1
        assert len(c.inequalities) == 1
        assert len(c.equalities) + len(c.inequalities) == len(qs) - 1


def test_cover_descriptor_intersection_counts():
    net = mlp.build_network([2, 2, 4], mlp.poly_activation(), seed=1, batch_norm=False)
    qs = sa.compose_logit_polynomials(net)
    c = sa.cover_descriptor(qs, 0, (1, 2))
    assert len(c.equalities) == 2
    assert len(c.inequalities) == len(qs) - 3


# ---------------------------------------------------------------------------
# ReLU boundary solve
# ---------------------------------------------------------------------------


def test_symmetric_net_solution_is_diagonal():
    net = symmetric_relu_net()
    sol = sa.solve_relu_boundary(net, 0, [1], layer=1)
    res = sa.sample_boundary(sol, 25, box=1.0, seed=2)
    assert res.feasible
    for p in res.points:
        assert abs(p.coords[0] - p.coords[1]) < 1e-9
        assert np.all(p.coords >= -1e-9)


def test_symmetric_net_point_verifies_exactly():
    net = symmetric_relu_net()
    point = sa.BoundaryPoint(layer=1, coords=np.array([1.0, 1.0]), class_j=0, alphas=(1,))
    ok, margin = sa.verify_ambiguity(net, point)
    assert ok
    assert margin == 0.0


def test_duplicate_output_rows_raise_rank_error():
    net = symmetric_relu_net()
    net.output.weight[:] = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(sa.RankDeficiencyError) as err:
        sa.solve_relu_boundary(net, 0, [1], layer=1)
    assert err.value.layer == 1


def _assert_qr_pivots(mats):
    # scipy is the oracle only: the solver picks its pivots in numpy
    import scipy.linalg

    for mat in mats:
        pivots, free, _ = sa._pivot_columns(mat, layer=1)
        qr_pivots = np.sort(scipy.linalg.qr(mat, pivoting=True)[2][: len(mat)])
        np.testing.assert_array_equal(pivots, qr_pivots)
        assert sorted([*pivots, *free]) == list(range(mat.shape[1]))


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e200, 1e-200])
def test_pivot_columns_equal_pivoted_qr_on_gaussian_matrices(monkeypatch, scale):
    # the rank check reads the unscaled singular values; only the pivot
    # rule is under test here
    monkeypatch.setattr(sa, "RANK_TOLERANCE", 0.0)
    rng = np.random.default_rng(11)
    mats = []
    for _ in range(2000):
        rows = int(rng.integers(1, 7))
        mats.append(rng.normal(size=(rows, int(rng.integers(rows, 9)))) * scale)
    _assert_qr_pivots(mats)


def test_pivot_columns_take_the_first_of_tied_columns():
    rng = np.random.default_rng(12)
    mats = []
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(rows + 1, 9))
        mat = rng.normal(size=(rows, cols))
        first, second = sorted(int(c) for c in rng.choice(cols, size=2, replace=False))
        # the duplicated column has the largest norm, so the first step ties
        column = rng.normal(size=rows)
        column *= (np.linalg.norm(mat, axis=0).max() + 1.0) / np.linalg.norm(column)
        mat[:, first] = mat[:, second] = column
        pivots, _, _ = sa._pivot_columns(mat, layer=1)
        assert first in pivots and second not in pivots
        mats.append(mat)
    _assert_qr_pivots(mats)


@pytest.mark.parametrize("batch_norm", [False, True])
def test_pivot_columns_equal_pivoted_qr_on_relu_solves(monkeypatch, batch_norm):
    # 6-n1-n2-4 nets with random batch-norm statistics, the shape of the
    # cover benchmark's nets; every matrix the solver pivots is recorded
    mats = []
    pivot_columns = sa._pivot_columns

    def recording(mat, layer):
        mats.append(mat.copy())
        return pivot_columns(mat, layer)

    monkeypatch.setattr(sa, "_pivot_columns", recording)
    rng = np.random.default_rng(13)
    for _ in range(8):
        n1 = int(rng.integers(3, 7))
        n2 = int(rng.integers(3, n1 + 1))
        net = mlp.build_network([6, n1, n2, 4], mlp.relu_activation(),
                                seed=int(rng.integers(2**31)), batch_norm=batch_norm)
        for block in net.hidden:
            if block.norm is not None:
                block.norm.gamma[:] = rng.uniform(0.5, 1.5, block.norm.gamma.shape)
                block.norm.running_var[:] = rng.uniform(0.5, 1.5, block.norm.gamma.shape)
        mats += [d[:, None] * w for w, _, d, _ in sa._block_affines(net)]
        for j in range(4):
            others = [q for q in range(4) if q != j]
            for size in (1, 2, 3):
                for alphas in itertools.combinations(others, size):
                    for layer in (1, 2):
                        sa.solve_relu_boundary(net, j, alphas, layer)
    monkeypatch.undo()
    _assert_qr_pivots(mats)


@pytest.mark.parametrize(
    "mat",
    [np.zeros((2, 3)), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
     np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0, 2.0])],
    ids=["zero", "zero-row", "rank-1"],
)
def test_rank_deficient_pivot_blocks_raise_without_warnings(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sa.RankDeficiencyError) as err:
            sa._pivot_columns(mat, layer=4)
    assert err.value.layer == 4
    smallest = float(str(err.value).split("smallest singular value ")[1].split()[0])
    assert 0.0 <= smallest < sa.RANK_TOLERANCE


def svd_only_rank_error(block, layer):
    """The rank check of a square pivot block as the SVD alone decides it:
    the RankDeficiencyError text, or None when the block passes."""
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    if smallest < sa.RANK_TOLERANCE:
        return (f"pivot block at layer {layer} is rank deficient "
                f"(smallest singular value {smallest:.3e} < {sa.RANK_TOLERANCE})")
    return None


def block_with_singular_values(rng, values):
    n = len(values)
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return (u * values) @ v.T


@pytest.mark.parametrize("multiple", [0.5, 0.99, 1.01, 2.0, 4.0])
def test_inverse_certificate_decides_as_the_svd(multiple):
    # square blocks, so the pivot block is the matrix itself, with smallest
    # singular value multiple * RANK_TOLERANCE and largest 1, 1e6 or 1e7;
    # the ill-conditioned ones round enough that a certificate without its
    # factor 2 passes some blocks the SVD rejects
    rng = np.random.default_rng(round(multiple * 100))
    for largest in (1.0, 1e6, 1e7):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            values = np.geomspace(multiple * sa.RANK_TOLERANCE, largest, n)
            block = block_with_singular_values(rng, values)
            expected = svd_only_rank_error(block, layer=3)
            try:
                pivots, free, inv = sa._pivot_columns(block, layer=3)
            except sa.RankDeficiencyError as err:
                assert (str(err), err.layer) == (expected, 3)
            else:
                assert expected is None
                assert np.array_equal(pivots, np.arange(n)) and len(free) == 0
                assert np.array_equal(inv, np.linalg.inv(block))


def test_only_uncertified_pivot_blocks_take_an_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(14)
    for batch_norm in (False, True):
        for _ in range(4):
            net = benchmark_shaped_relu_net(rng, batch_norm)
            for j in range(4):
                others = [q for q in range(4) if q != j]
                for layer in (1, 2):
                    sa.solve_relu_boundary(net, j, others[:2], layer)
    assert calls == []
    for multiple, svds in ((0.99, 1), (1.01, 1), (4.0, 0)):
        calls.clear()
        block = block_with_singular_values(rng, [multiple * sa.RANK_TOLERANCE, 0.5, 1.0])
        try:
            sa._pivot_columns(block, layer=1)
        except sa.RankDeficiencyError:
            pass
        assert len(calls) == svds


def test_solution_dimensions_follow_rank_nullity():
    rng = np.random.default_rng(4)
    for seed in range(10):
        widths = (4, 4, 4, 3) if seed % 2 else (4, 6, 5, 4, 3)
        net = random_relu_net(seed, widths=widths)
        alphas = (int(rng.integers(1, 3)),)
        for layer in range(1, net.depth):
            sol = sa.solve_relu_boundary(net, 0, alphas, layer=layer)
            # layer l-1 has n_{l-1} - p frees, and each layer k below it
            # adds n_k - n_{k+1}
            assert sol.n_free == widths[layer] - len(alphas)
            assert sol.basis.shape == (widths[layer], sol.n_free)
            assert sol.particular.shape == (widths[layer],)
            # the layer-l-1 point, and so u, follows from the layer point
            assert np.linalg.matrix_rank(sol.basis) == sol.n_free


def identity_branch_maps(net):
    """Per hidden block, its map x -> d * (w x + b) + e on the identity
    branch of ReLU, with the inference batch-norm affine (d, e)."""
    maps = []
    for block in net.hidden:
        w, b, norm = block.dense.weight, block.dense.bias, block.norm
        d = 1.0 if norm is None else norm.gamma / np.sqrt(norm.running_var + norm.eps)
        e = 0.0 if norm is None else norm.beta - d * norm.running_mean
        maps.append((w, b, d, e))
    return maps


def test_solution_satisfies_tie_equations():
    for seed in range(10):
        net = random_relu_net(seed + 50, widths=(4, 4, 3, 3), batch_norm=bool(seed % 2))
        w, b = net.output.weight, net.output.bias
        rng = np.random.default_rng(seed)
        for layer in range(1, net.depth):
            sol = sa.solve_relu_boundary(net, 0, [1], layer=layer)
            for _ in range(5):
                x = sol.particular + sol.basis @ rng.uniform(0, 1, size=sol.n_free)
                for wk, bk, dk, ek in identity_branch_maps(net)[layer:]:
                    x = dk * (wk @ x + bk) + ek
                tie = (w[0] - w[1]) @ x + (b[0] - b[1])
                assert abs(tie) < 1e-9


def test_sample_boundary_unconstrained_accepts_everything():
    sol = sa.AffineSolution(
        class_j=0,
        alphas=(1,),
        layer=1,
        particular=np.zeros(2),
        basis=np.array([[1.0], [0.0]]),
        constraint_matrix=np.zeros((0, 1)),
        constraint_offset=np.zeros(0),
    )
    res = sa.sample_boundary(sol, 10, box=1.0, seed=0)
    assert len(res.points) == 10
    assert res.attempts <= 256


def test_sample_boundary_empty_region_reports_infeasible():
    # constraints u >= 0 (sampling box) and -u >= 1: empty
    sol = sa.AffineSolution(
        class_j=0,
        alphas=(1,),
        layer=1,
        particular=np.zeros(1),
        basis=np.eye(1),
        constraint_matrix=np.array([[-1.0]]),
        constraint_offset=np.array([-1.0]),
    )
    res = sa.sample_boundary(sol, 5, box=1.0, seed=0, max_attempts=500)
    assert not res.feasible
    assert res.attempts == 500


def test_perturbed_point_fails_verification():
    net = symmetric_relu_net()
    point = sa.BoundaryPoint(layer=1, coords=np.array([1.1, 1.0]), class_j=0, alphas=(1,))
    ok, margin = sa.verify_ambiguity(net, point, tol=1e-6)
    assert not ok
    assert margin > 1e-3


def test_random_nets_sampled_points_all_verify():
    verified = 0
    nets_with_region = 0
    seed = 0
    while nets_with_region < 15 and seed < 60:
        net = random_relu_net(seed, widths=(4, 4, 4, 3), batch_norm=bool(seed % 2))
        seed += 1
        found = False
        for j in range(3):
            for a in range(3):
                if a == j:
                    continue
                try:
                    sol = sa.solve_relu_boundary(net, j, [a], layer=1)
                except sa.RankDeficiencyError:
                    continue
                res = sa.sample_boundary(sol, 20, box=1.5, seed=seed)
                if res.feasible:
                    for p in res.points:
                        ok, margin = sa.verify_ambiguity(net, p, tol=1e-6)
                        assert ok, f"seed {seed} margin {margin}"
                        verified += 1
                    found = True
                    break
            if found:
                break
        nets_with_region += found
    assert nets_with_region == 15
    assert verified >= 15


def test_cover_report_lists_feasibility():
    net = symmetric_relu_net()
    text = sa.cover_report(net, layer=1, class_j=0, alpha_sets=[(1,)], count=5, seed=1)
    assert "equations=1" in text
    assert "pass=5/5" in text


# ---------------------------------------------------------------------------
# sampler equivalence
# ---------------------------------------------------------------------------


def batch_loop_sample(sol, count, box=1.0, seed=0, max_attempts=None):
    """Reference sampler: draw and test batches of 256 rows, one at a time,
    until ``count`` points are kept or the budget is spent.  Returns the
    point coordinates and the attempts."""
    if max_attempts is None:
        max_attempts = max(400 * count, 4000)
    rng = np.random.default_rng(seed)
    coords = []
    attempts = 0
    while attempts < max_attempts and len(coords) < count:
        m = min(256, max_attempts - attempts)
        attempts += m
        u = rng.uniform(0.0, box, size=(m, sol.n_free))
        vals = u @ sol.constraint_matrix.T + sol.constraint_offset
        for row in u[np.all(vals >= -sa.POSITIVITY_TOLERANCE, axis=1)]:
            coords.append(sol.particular + sol.basis @ row)
            if len(coords) == count:
                break
    return coords, attempts


def assert_sampler_matches_loop(sol, count, box, seed, max_attempts):
    res = sa.sample_boundary(sol, count, box=box, seed=seed, max_attempts=max_attempts)
    coords, attempts = batch_loop_sample(sol, count, box=box, seed=seed, max_attempts=max_attempts)
    assert res.attempts == attempts and type(res.attempts) is int
    assert len(res.points) == len(coords)
    for point, expected in zip(res.points, coords):
        assert np.array_equal(point.coords, expected)
        assert (point.layer, point.class_j, point.alphas) == (sol.layer, sol.class_j, sol.alphas)
    return res


def benchmark_shaped_relu_net(rng, batch_norm):
    """A [6, n1, n2, 4] ReLU net with 3 <= n2 <= n1 <= 6, random biases and
    batch-norm statistics."""
    n1 = int(rng.integers(3, 7))
    n2 = int(rng.integers(3, n1 + 1))
    net = mlp.build_network([6, n1, n2, 4], mlp.relu_activation(),
                            seed=int(rng.integers(2**31)), batch_norm=batch_norm)
    for block in net.hidden:
        block.dense.bias[:] = rng.normal(scale=0.5, size=block.dense.bias.shape)
        if block.norm is not None:
            n = block.norm.gamma.shape
            block.norm.gamma[:] = rng.uniform(0.5, 1.5, n)
            block.norm.beta[:] = rng.normal(scale=0.3, size=n)
            block.norm.running_mean[:] = rng.normal(scale=0.3, size=n)
            block.norm.running_var[:] = rng.uniform(0.5, 1.5, n)
    net.output.bias[:] = rng.normal(scale=0.5, size=net.output.bias.shape)
    return net


def test_sample_boundary_equals_the_batch_loop_on_random_nets():
    rng = np.random.default_rng(21)
    outcomes = set()
    for trial in range(8):
        net = benchmark_shaped_relu_net(rng, batch_norm=bool(trial % 2))
        j = int(rng.integers(4))
        others = [q for q in range(4) if q != j]
        for alphas in ([others[0]], others[1:]):
            for layer in (1, 2):
                sol = sa.solve_relu_boundary(net, j, alphas, layer)
                for count in (1, 5, 20):
                    for max_attempts in (257, 500, 4000, 8000, 8001):
                        for box in (0.5, 1.0, 1.5):
                            seed = int(rng.integers(2**31))
                            res = assert_sampler_matches_loop(sol, count, box, seed, max_attempts)
                            n = len(res.points)
                            outcomes.add(
                                "proven empty" if sa._box_infeasible(sol, box)
                                else "empty" if n == 0
                                else "short" if n < count
                                else "first batch" if res.attempts == 256
                                else "later batch"
                            )
    # every branch of the sampler was taken
    assert outcomes == {"proven empty", "empty", "short", "first batch", "later batch"}


def loop_margin(net, point):
    """``verify_ambiguity``'s worst margin as a loop over classes on a
    one-row forward of the point."""
    _, logits, _ = mlp.forward(net, point.coords.reshape(1, -1), from_layer=point.layer)
    logits = logits[0]
    scale = max(float(np.max(np.abs(logits))), 1e-12)
    worst = 0.0
    for a in point.alphas:
        worst = max(worst, abs(float(logits[point.class_j] - logits[a])) / scale)
    for q in range(net.n_classes):
        if q != point.class_j and q not in point.alphas:
            worst = max(worst, float(logits[q] - logits[point.class_j]) / scale)
    return worst


@pytest.mark.parametrize("batch_norm", [False, True])
def test_stacked_forward_and_margins_equal_one_point_at_a_time(batch_norm):
    # every point of a piece, sampled or drawn off the boundary, gets from
    # one stacked forward the logits and margin a forward of its own gives
    rng = np.random.default_rng(22 + batch_norm)
    pieces = 0
    for _ in range(6):
        net = benchmark_shaped_relu_net(rng, batch_norm)
        j = int(rng.integers(4))
        others = [q for q in range(4) if q != j]
        for alphas in ([others[0]], others[1:]):
            for layer in (1, 2):
                sol = sa.solve_relu_boundary(net, j, alphas, layer)
                points = list(sa.sample_boundary(sol, 20, box=1.5, seed=int(rng.integers(2**31))).points)
                pieces += bool(points)
                points += [dataclasses.replace(p, coords=rng.uniform(0.0, 2.0, p.coords.shape))
                           for p in points[:5]]
                if not points:
                    continue
                coords = np.stack([p.coords for p in points])
                stacked = mlp.forward(net, coords[:, None, :], from_layer=layer)
                for i, row in enumerate(coords):
                    single = mlp.forward(net, row[None, :], from_layer=layer)
                    for got, want in zip([*stacked[0], *stacked[1:]], [*single[0], *single[1:]]):
                        assert got.shape[1:] == want.shape
                        assert np.array_equal(got[i], want)
                margins = sa._worst_margins(net, layer, j, sol.alphas, coords)
                expected = [loop_margin(net, p) for p in points]
                assert np.array_equal(margins, expected)
                assert [sa.verify_ambiguity(net, p) for p in points] == [(m <= 1e-6, m) for m in expected]
    assert pieces >= 8


def test_sampled_points_equal_matrix_vector_products_on_wide_pieces():
    # pieces without constraints, of up to 64 coordinates and 16 free
    # variables: each point is particular + basis @ row, bit for bit
    rng = np.random.default_rng(23)
    for _ in range(100):
        width, n_free, count = (int(k) for k in rng.integers(1, [65, 17, 41]))
        sol = sa.AffineSolution(
            class_j=0, alphas=(1,), layer=1,
            particular=rng.normal(size=width), basis=rng.normal(size=(width, n_free)),
            constraint_matrix=np.zeros((0, n_free)), constraint_offset=np.zeros(0),
        )
        assert_sampler_matches_loop(sol, count, box=1.5, seed=int(rng.integers(2**31)),
                                    max_attempts=None)


def piece_values(net, sol, u):
    """The values the definition of a ReLU boundary piece keeps
    nonnegative at the layer point of u, in plain numpy: every traversed
    pre-activation (with batch norm) or layer output (without) on the
    identity branch, and class j's logit minus each untied class's."""
    x = sol.particular + sol.basis @ u
    has_norm = net.hidden[0].norm is not None
    values = [] if has_norm else [x]
    for w, b, d, e in identity_branch_maps(net)[sol.layer:]:
        pre = w @ x + b
        x = d * pre + e
        values.append(pre if has_norm else x)
    logits = net.output.weight @ x + net.output.bias
    # the tied classes sit at the threshold by construction
    untied = [q for q in range(net.n_classes) if q != sol.class_j and q not in sol.alphas]
    values.append(logits[sol.class_j] - logits[untied])
    return np.concatenate(values)


def test_accepted_draws_are_the_points_of_the_piece():
    rng = np.random.default_rng(33)
    verdicts = collections.Counter()
    for trial in range(12):
        net = benchmark_shaped_relu_net(rng, batch_norm=bool(trial % 2))
        j = int(rng.integers(4))
        others = [q for q in range(4) if q != j]
        for alphas in ([others[0]], others[1:]):
            for layer in (1, 2):
                sol = sa.solve_relu_boundary(net, j, alphas, layer)
                u = rng.uniform(0.0, 1.5, size=(600, sol.n_free))
                accepted = sa._accepted(sol, u)
                for row, ok in zip(u, accepted):
                    values = piece_values(net, sol, row)
                    if np.min(np.abs(values + sa.POSITIVITY_TOLERANCE)) < 1e-6:
                        verdicts["near a threshold"] += 1
                        continue
                    assert ok == np.all(values >= -sa.POSITIVITY_TOLERANCE)
                    verdicts["inside" if ok else "outside"] += 1
    # both verdicts are reached, and few draws are too close to call
    assert verdicts["inside"] > 100 and verdicts["outside"] > 100
    assert verdicts["near a threshold"] < 0.01 * sum(verdicts.values())


def constraint_solution(n_free, matrix, offset):
    """A boundary piece whose free variables are the coordinates, with the
    given constraint rows."""
    return sa.AffineSolution(
        class_j=0,
        alphas=(1,),
        layer=1,
        particular=np.zeros(max(n_free, 1)),
        basis=np.eye(max(n_free, 1), n_free),
        constraint_matrix=np.asarray(matrix, dtype=float).reshape(len(offset), n_free),
        constraint_offset=np.asarray(offset, dtype=float),
    )


def test_sample_boundary_equals_the_batch_loop_on_a_wide_block():
    # 48 rows over 8 free variables: one product over the rest of an
    # 8000-draw budget is large enough for BLAS to split across threads
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(48, 8))
    outcomes = set()
    for shift in (1.5, 0.9, 0.6, 0.3):
        sol = constraint_solution(8, matrix, shift - 0.5 * matrix.sum(axis=1))
        for count in (1, 5, 20):
            for max_attempts in (4000, 8000, 8001):
                res = assert_sampler_matches_loop(sol, count, 1.0, count + max_attempts,
                                                  max_attempts)
                n = len(res.points)
                outcomes.add("empty" if n == 0 else "short" if n < count
                             else "first batch" if res.attempts == 256 else "later batch")
    assert outcomes == {"empty", "short", "first batch", "later batch"}


@pytest.mark.parametrize("n_free", [0, 1, 3])
def test_interval_proof_agrees_with_the_loop_at_the_tolerance(n_free):
    # zero columns make every sampled value exactly the offset, a few ulps
    # on either side of -POSITIVITY_TOLERANCE
    edge = -sa.POSITIVITY_TOLERANCE
    for ulps in (-60, -40, -3, -2, -1, 0, 1, 2, 3):
        offset = edge
        for _ in range(abs(ulps)):
            offset = np.nextafter(offset, np.sign(ulps) * np.inf)
        sol = constraint_solution(n_free, np.zeros(n_free), [offset])
        res = assert_sampler_matches_loop(sol, 5, 1.0, ulps + 100, 1000)
        assert res.feasible == (offset >= edge)
        # the rounding margin is 9 to 21 ulps of the tolerance here: the
        # proof decides the offsets well below it and leaves the rest to
        # the draws
        assert sa._box_infeasible(sol, 1.0) == (ulps <= -40)


def test_interval_proof_bounds_each_row_over_the_box():
    # u0 + u1 - 2.5 stays at or below -0.5 on [0, 1]^2, and reaches 0.1 on
    # [0, 1.3]^2; the second row is nonnegative on part of either box
    sol = constraint_solution(2, [[1.0, 1.0], [0.5, -3.0]], [-2.5, 0.1])
    assert sa._box_infeasible(sol, 1.0)
    assert not sa._box_infeasible(sol, 1.3)
    for box in (1.0, 1.3):
        assert_sampler_matches_loop(sol, 5, box, 3, 4000)


def test_zero_box_falls_through_to_drawing():
    # every draw is 0, where the row reads its offset
    for offset in (-0.5, 0.0):
        sol = constraint_solution(1, [[-1.0]], [offset])
        assert not sa._box_infeasible(sol, 0.0)
        res = assert_sampler_matches_loop(sol, 5, 0.0, 4, 1000)
        assert res.feasible == (offset == 0.0)


@pytest.mark.parametrize("box, error", [(-1.0, ValueError), (np.inf, OverflowError),
                                        (np.nan, OverflowError)])
def test_invalid_box_raises_as_the_loop_does(box, error):
    # on [box, 0] the row -u - 0.5 reaches 0.5, although o + box * 0 reads
    # -0.5: the proof must not answer for a negative box
    sol = constraint_solution(1, [[-1.0]], [-0.5])
    assert not sa._box_infeasible(sol, box)
    with pytest.raises(error):
        batch_loop_sample(sol, 5, box=box, max_attempts=1000)
    with pytest.raises(error):
        sa.sample_boundary(sol, 5, box=box, max_attempts=1000)


def test_proven_empty_region_returns_without_drawing(monkeypatch):
    sol = constraint_solution(2, [[1.0, -1.0], [-1.0, -1.0]], [0.0, -2.5])
    # the same rows in the other order: the empty row last, then first
    swapped = dataclasses.replace(
        sol,
        constraint_matrix=sol.constraint_matrix[::-1],
        constraint_offset=sol.constraint_offset[::-1],
    )
    for region in (sol, swapped):
        expected = batch_loop_sample(region, 5, box=1.0, seed=7, max_attempts=8001)
        assert expected == ([], 8001)

    class NoDraws:
        def __init__(self, seed):
            pass

        def uniform(self, *args, **kwargs):
            raise AssertionError("a proven-empty region was sampled")

    monkeypatch.setattr(np.random, "default_rng", NoDraws)
    for region in (sol, swapped):
        res = sa.sample_boundary(region, 5, box=1.0, seed=7, max_attempts=8001)
        assert (res.points, res.attempts) == ((), 8001)
    # nothing is drawn when nothing is asked for either
    assert sa.sample_boundary(sol, 0, box=1.0, seed=7).attempts == 0
    assert sa.sample_boundary(sol, 5, box=1.0, seed=7, max_attempts=0).attempts == 0
