"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (visible with ``pytest -s`` or on failure).

The desk-scale image criteria (9 and 10) run on the deterministic
synthetic generator written to and re-read from IDX files; see the
project notes for why no external image corpus is bundled.
"""

import itertools
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from bettinet import advisor, data, homology as H, mlp
from bettinet import semialgebraic as sa
from bettinet.bounds import (
    Activation,
    ArchitectureSpec,
    basu_bound,
    mayer_vietoris_bound,
    milnor_bound,
    poly_layer_bound,
    relu_layer_bound,
)
from conftest import betti_padded, random_complex, random_cover
import persistence_oracle as oracle
import sgd_oracle


def report(number: int, description: str, ok: bool):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def desk_scale_idx(tmp_path_factory):
    """2000 train / 1000 test synthetic images, round-tripped through IDX."""
    td = tmp_path_factory.mktemp("desk")
    train, test = data.make_image_dataset(2000, 1000, seed=42)
    data.write_idx_images(td / "train-images-idx3-ubyte", train.features, 28, 28)
    data.write_idx_labels(td / "train-labels-idx1-ubyte", train.labels)
    data.write_idx_images(td / "t10k-images-idx3-ubyte", test.features, 28, 28)
    data.write_idx_labels(td / "t10k-labels-idx1-ubyte", test.labels)
    return data.load_idx_dataset(td, "train"), data.load_idx_dataset(td, "test")


def test_criterion_01_persistence_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        pts = rng.normal(size=(n, int(rng.choice([2, 3]))))
        dist = H.pairwise_distances(pts)
        diam = float(dist.max())
        for dim in (0, 1):
            barcode = H.compute_persistence(H.build_rips(dist, dim, diam + 1.0))
            for _ in range(10):
                r = float(rng.uniform(0.0, diam * 1.05))
                assert H.betti_at(barcode, dim, r) == oracle.brute_force_betti(dist, dim, r)
                checks += 1
    elapsed = time.perf_counter() - start
    report(1, f"oracle equivalence on {checks} queries in {elapsed:.1f}s (< 30s)", elapsed < 30)


def test_criterion_02_circle_recovery():
    start = time.perf_counter()
    ang = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    dist = H.pairwise_distances(pts)
    barcode = H.rips_persistence(dist, max_dim=1)
    loops = barcode.intervals[1]
    assert len(loops) == 1
    bar = loops[0]
    assert bar.death is not None
    ratio = bar.death / bar.birth
    midpoint = (bar.birth + bar.death) / 2
    assert H.betti_at(barcode, 1, midpoint) == 1
    elapsed = time.perf_counter() - start
    report(
        2,
        f"one loop [{bar.birth:.4f}, {bar.death:.4f}), ratio {ratio:.2f} (> 2), "
        f"b1=1 at midpoint, {elapsed:.2f}s (< 1s)",
        ratio > 2 and elapsed < 1,
    )


def test_criterion_03_bound_spot_values():
    poly = lambda ws, r=2: ArchitectureSpec(tuple(ws), Activation("poly", r))
    relu = lambda ws: ArchitectureSpec(tuple(ws), Activation("relu"))
    ok = (
        poly_layer_bound(poly([2, 2, 2, 2]), k=0, layer=1) == 6
        and relu_layer_bound(relu([2, 2, 2, 2]), k=0, layer=1) == 80
        and relu_layer_bound(relu([2, 2, 2, 2]), k=0, layer=2) == 8
        and poly_layer_bound(poly([3, 3, 3, 3]), k=0, layer=2) == 4
        and poly_layer_bound(poly([3, 3, 3, 3]), k=1, layer=2) == 5
        and poly_layer_bound(poly([3, 3, 3, 3]), k=5, layer=2) == 5
        and basu_bound(2, 2, 3) == 144
        and milnor_bound(2, 3) == 15
    )
    report(3, "exact spot values 6 / 80 / 8 / 4 / 5 / 144 / 15", ok)


def test_criterion_04_monotonicity_500_architectures():
    rng = np.random.default_rng(7)
    layer_violations = 0
    width_violations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(500):
            l = int(rng.integers(2, 6))
            w = int(rng.integers(1, 9))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, 5))
            widths = [w] * l + [n]
            use_relu = rng.random() < 0.5
            if use_relu:
                arch = ArchitectureSpec(tuple(widths), Activation("relu"))
                vals = [relu_layer_bound(arch, k, i) for i in range(1, l)]
                layers = list(range(1, l))
            else:
                arch = ArchitectureSpec(tuple(widths), Activation("poly", int(rng.integers(1, 4))))
                vals = [poly_layer_bound(arch, k, i) for i in range(0, l)]
                layers = list(range(0, l))
            if any(vals[t] < vals[t + 1] for t in range(len(vals) - 1)):
                layer_violations += 1
            probe = int(rng.integers(min(layers), max(layers) + 1))
            bumped = list(widths)
            bumped[probe] += int(rng.integers(1, 4))
            bumped_arch = ArchitectureSpec(tuple(bumped), arch.activation)
            if use_relu:
                lo, hi = relu_layer_bound(arch, k, probe or 1), relu_layer_bound(
                    bumped_arch, k, probe or 1
                )
            else:
                lo, hi = poly_layer_bound(arch, k, probe), poly_layer_bound(bumped_arch, k, probe)
            if hi < lo:
                width_violations += 1
    report(
        4,
        f"500 random equal-width architectures: {layer_violations} layer-order violations, "
        f"{width_violations} width-order violations (must be 0)",
        layer_violations == 0 and width_violations == 0,
    )


def test_criterion_05_mayer_vietoris_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    union_checks = 0
    for trial in range(100):
        complex_ = random_complex(rng)
        parts = random_cover(rng, complex_, 2 if trial % 2 == 0 else 3)

        table = {}
        for size in range(1, len(parts) + 1):
            for subset in itertools.combinations(range(len(parts)), size):
                inter = set.intersection(*(parts[p] for p in subset))
                table[frozenset(subset)] = betti_padded(inter)
        total = betti_padded(set().union(*parts))
        for k in (0, 1):
            assert total[k] <= mayer_vietoris_bound(table, k)
            union_checks += 1

        s1, s2 = random_cover(rng, complex_, 2)
        b_union = betti_padded(s1 | s2)
        b1 = betti_padded(s1)
        b2 = betti_padded(s2)
        b_inter = betti_padded(s1 & s2)
        for i in range(3):
            assert b1[i] + b2[i] <= b_union[i] + b_inter[i]
            prev = b_inter[i - 1] if i >= 1 else 0
            assert b_union[i] <= b1[i] + b2[i] + prev
    elapsed = time.perf_counter() - start
    report(
        5,
        f"100 random complexes, union bound and two-set inequalities, "
        f"{union_checks} union checks, {elapsed:.1f}s (< 30s)",
        elapsed < 30,
    )


def test_criterion_06_degree_bound_exhaustive_grid():
    rng = np.random.default_rng(13)
    nets = 0
    worst_rel = 0.0
    for depth in (2, 3):  # affine-map count; at most two activation compositions
        width_choices = [1, 2, 3]
        for hidden in itertools.product(width_choices, repeat=depth - 1):
            for n0 in width_choices:
                for classes in (2, 3):
                    widths = [n0, *hidden, classes]
                    net = mlp.build_network(
                        widths, mlp.poly_activation(), seed=nets, batch_norm=False
                    )
                    nets += 1
                    for layer in range(depth - 1):
                        qs = sa.compose_logit_polynomials(net, from_layer=layer)
                        check = sa.degree_bound_check(qs, r=2, depth=depth, layer=layer)
                        assert check.ok, (widths, layer, check)
                        pts = rng.normal(size=(100, widths[layer]))
                        _, logits, _ = mlp.forward(net, pts, from_layer=layer)
                        sym = np.column_stack([q.evaluate(pts) for q in qs])
                        # agreement relative to the logit scale over the batch:
                        # expanded monomials cancel catastrophically exactly at
                        # the zero crossings of the composed form, so a
                        # pointwise ratio there measures rounding, not the map
                        scale = max(float(np.abs(logits).max()), 1e-8)
                        rel = float(np.abs(sym - logits).max()) / scale
                        worst_rel = max(worst_rel, rel)
                        assert rel < 1e-8, (widths, layer, rel)
    report(
        6,
        f"{nets} polynomial nets: degrees within budget, worst symbolic/numeric "
        f"relative error {worst_rel:.2e} (< 1e-8)",
        worst_rel < 1e-8,
    )


def test_criterion_07_relu_boundary_verification():
    rng = np.random.default_rng(17)
    verified_nets = 0
    points_checked = 0
    draws = 0
    while verified_nets < 50 and draws < 250:
        draws += 1
        n1 = int(rng.choice([3, 4]))
        n2 = int(rng.choice([3, 4]))
        if n2 > n1:
            n1, n2 = n2, n1
        net = mlp.build_network([4, n1, n2, 3], mlp.relu_activation(), seed=1000 + draws, batch_norm=False)
        for blk in net.hidden:
            blk.dense.bias[:] = rng.normal(scale=0.5, size=blk.dense.bias.shape)
        net.output.bias[:] = rng.normal(scale=0.5, size=3)
        found = False
        for j in range(3):
            for a in range(3):
                if a == j:
                    continue
                try:
                    sol = sa.solve_relu_boundary(net, j, [a], layer=1)
                except sa.RankDeficiencyError:
                    continue
                for box in (1.0, 2.5):
                    result = sa.sample_boundary(sol, 20, box=box, seed=draws)
                    if result.feasible:
                        for p in result.points:
                            ok, margin = sa.verify_ambiguity(net, p, tol=1e-6)
                            assert ok, f"draw {draws} margin {margin:.2e}"
                            points_checked += 1
                        found = True
                        break
                if found:
                    break
            if found:
                break
        verified_nets += found

    degenerate = mlp.build_network([4, 4, 3, 3], mlp.relu_activation(), seed=0, batch_norm=False)
    degenerate.output.weight[:] = np.ones((3, 3))
    with pytest.raises(sa.RankDeficiencyError):
        sa.solve_relu_boundary(degenerate, 0, [1], layer=1)

    report(
        7,
        f"{verified_nets} nets with feasible pieces out of {draws} draws, "
        f"{points_checked} boundary points all pass at 1e-6; rank error raised",
        verified_nets == 50,
    )


def test_criterion_08_gradient_check_20_nets():
    rng = np.random.default_rng(19)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 60:
        trial = attempts
        attempts += 1
        act = mlp.relu_activation() if trial % 2 == 0 else mlp.poly_activation()
        bn = trial % 3 != 0
        widths = [int(w) for w in rng.integers(2, 7, size=rng.integers(3, 5))] + [3]
        net = mlp.build_network(widths, act, seed=trial, batch_norm=bn)
        scale = 0.4 if act.kind == "poly" and not bn else 1.0
        x = rng.normal(scale=scale, size=(6, widths[0]))
        y = rng.integers(0, 3, size=6)
        try:
            err = sgd_oracle.gradient_check(net, x, y, step=1e-5)
        except RuntimeError:
            # a fully dead hidden layer pins pre-activations at the ReLU
            # kink no matter how the batch moves; the check refuses such
            # nets (its contract requires kink-free probes), so redraw
            continue
        worst = max(worst, err)
        checked += 1
    report(
        8,
        f"{checked} random nets (both activations), worst gradient error {worst:.2e} (< 1e-4)",
        checked == 20 and worst < 1e-4,
    )


def test_criterion_09_desk_scale_trends(desk_scale_idx):
    start = time.perf_counter()
    train, test = desk_scale_idx
    assert len(train) == 2000 and len(test) == 1000

    input_prof = advisor.layer_profile(None, train, 0, per_class_cap=200, seed=0)
    sweep = advisor.width_sweep(
        widths=[4, 16, 64],
        seeds=[1, 2, 3],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.relu_activation(),
        epochs=5,
        lr=0.05,
        batch_size=32,
        per_class_cap=200,
    )
    assert len(sweep.rows) == 9

    widths = [r.width for r in sweep.rows]
    accuracies = [r.accuracy for r in sweep.rows]
    b0s = [r.max_b0_min_radius for r in sweep.rows]
    rho_acc = spearmanr(widths, accuracies).statistic
    rho_b0 = spearmanr(widths, b0s).statistic

    wide_rows = [r for r in sweep.rows if r.width == 64]
    wide_acc = float(np.median([r.accuracy for r in wide_rows]))

    ratio_ok = True
    medians = []
    for row in wide_rows:
        ratios = [
            row.profile.curves[c].b0_at_min_radius / input_prof.curves[c].b0_at_min_radius
            for c in input_prof.class_ids()
        ]
        med = float(np.median(ratios))
        medians.append(med)
        ratio_ok = ratio_ok and med >= 0.5

    elapsed = time.perf_counter() - start
    report(
        9,
        f"median width-64 accuracy {wide_acc:.3f} (>= 0.85); "
        f"spearman(width, acc) {rho_acc:.3f} > 0; spearman(width, b0) {rho_b0:.3f} > 0; "
        f"width-64 per-run median b0 ratios {['%.2f' % m for m in medians]} (each >= 0.5); "
        f"{elapsed:.0f}s (< 900s)",
        wide_acc >= 0.85 and rho_acc > 0 and rho_b0 > 0 and ratio_ok and elapsed < 900,
    )


def test_criterion_10_polynomial_layer_descent(desk_scale_idx):
    train, _ = desk_scale_idx
    net = mlp.build_network([train.dim, 4, 4, 4, train.n_classes], mlp.poly_activation(), seed=1)
    mlp.train_sgd(net, train, mlp.TrainConfig(epochs=3, lr=0.01, batch_size=32, seed=1))

    first = advisor.layer_profile(net, train, layer=1, per_class_cap=200, seed=0)
    shared_grid = first.grid
    profiles = [first] + [
        advisor.layer_profile(
            net, train, layer=layer, per_class_cap=200, radius_grid=shared_grid, seed=0
        )
        for layer in (2, 3)
    ]
    mid = len(shared_grid) // 2
    medians = [
        float(np.median([curves.b0[mid] for curves in prof.curves.values()]))
        for prof in profiles
    ]
    non_increasing = all(a >= b for a, b in zip(medians, medians[1:]))
    report(
        10,
        f"median per-class b0 at mid-grid radius across layers 1..3: {medians} (non-increasing)",
        non_increasing,
    )
