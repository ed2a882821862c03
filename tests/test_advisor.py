import numpy as np
import pytest

from bettinet import advisor, mlp
from bettinet.data import Dataset, make_image_dataset


def blobs_dataset(seed=0, per_class=50, separation=12.0):
    rng = np.random.default_rng(seed)
    feats = np.vstack(
        [
            rng.normal([0.0, 0.0], 0.5, size=(per_class, 2)),
            rng.normal([separation, separation], 0.5, size=(per_class, 2)),
        ]
    )
    labels = np.array([0] * per_class + [1] * per_class)
    return Dataset(features=feats, labels=labels, n_classes=2)


def circle_dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.column_stack([np.cos(ang), np.sin(ang)]) + rng.normal(scale=0.03, size=(n, 2))
    labels = np.zeros(n, dtype=int)
    other = rng.normal([4.0, 4.0], 0.2, size=(n, 2))
    feats = np.vstack([pts, other])
    labels = np.concatenate([labels, np.ones(n, dtype=int)])
    return Dataset(features=feats, labels=labels, n_classes=2)


def test_input_profile_blob_endpoints():
    ds = blobs_dataset()
    prof = advisor.input_profile(ds, per_class_cap=50, seed=0)
    for c in (0, 1):
        curves = prof.curves[c]
        assert curves.b0[0] == 50  # all points distinct at the minimum radius
        assert curves.b0[-1] == 1  # single component at the class diameter
        assert all(a >= b for a, b in zip(curves.b0, curves.b0[1:]))


def test_input_profile_circle_class_has_a_loop():
    ds = circle_dataset()
    prof = advisor.input_profile(ds, per_class_cap=40, seed=1)
    assert prof.curves[0].b1.max() >= 1


def test_input_profile_skips_tiny_class_with_warning():
    feats = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
    ds = Dataset(features=feats, labels=np.array([0] * 5 + [1]), n_classes=2)
    with pytest.warns(UserWarning, match="class 1"):
        prof = advisor.input_profile(ds, per_class_cap=10)
    assert prof.class_ids() == (0,)


def test_profiles_without_a_class_of_two_points_raise():
    ds = Dataset(features=np.eye(3), labels=np.arange(3), n_classes=3)
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="no class has two points"):
        advisor.input_profile(ds)


def test_layer_profile_untrained_net_smoke():
    ds = blobs_dataset(per_class=20)
    net = mlp.build_network([2, 4, 4, 2], mlp.relu_activation(), seed=0)
    prof = advisor.layer_profile(net, ds, layer=2, per_class_cap=20)
    assert prof.class_ids() == (0, 1)
    assert all(len(prof.curves[c].b0) == len(prof.grid) for c in (0, 1))


def test_layer_profile_isometric_net_preserves_profile():
    # an orthogonal weight matrix with no batch norm and inputs in the
    # ReLU-positive region is an isometry of the class clouds
    ds = blobs_dataset(per_class=30)
    shifted = Dataset(features=ds.features + 20.0, labels=ds.labels, n_classes=2)
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    net = mlp.build_network([2, 2, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = rot
    net.hidden[0].dense.bias[:] = 50.0  # keeps activations strictly positive
    inp = advisor.input_profile(shifted, per_class_cap=30, seed=3)
    lay = advisor.layer_profile(net, shifted, layer=1, per_class_cap=30, radius_grid=inp.grid, seed=3)
    for c in (0, 1):
        assert np.array_equal(inp.curves[c].b0, lay.curves[c].b0)
        assert np.array_equal(inp.curves[c].b1, lay.curves[c].b1)


def test_input_and_layer_profiles_sample_the_same_rows():
    # labels interleaved and the cap below the class size: the two profiles
    # must still subsample the same points, or their barcodes would differ
    ds = blobs_dataset(per_class=40)
    order = np.random.default_rng(7).permutation(len(ds))
    mixed = Dataset(features=ds.features[order] + 20.0, labels=ds.labels[order], n_classes=2)
    net = mlp.build_network([2, 2, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = np.eye(2)
    net.hidden[0].dense.bias[:] = 50.0  # a translation: distances are unchanged
    inp = advisor.input_profile(mixed, per_class_cap=15, seed=4)
    lay = advisor.layer_profile(net, mixed, layer=1, per_class_cap=15, seed=4)
    for c in (0, 1):
        deaths = [
            sorted(iv.death for iv in prof.curves[c].barcode.intervals[0] if iv.death is not None)
            for prof in (inp, lay)
        ]
        assert len(deaths[0]) == 14
        assert np.allclose(deaths[0], deaths[1], rtol=1e-9, atol=0.0)


def test_profile_computes_each_distance_matrix_once(monkeypatch):
    calls = []
    real = advisor.pairwise_distances

    def counted(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(advisor, "pairwise_distances", counted)
    advisor.input_profile(blobs_dataset(per_class=20), per_class_cap=20)
    assert calls == [20, 20]  # one per class, shared by the grid and the curves


def test_b0_only_layer_profile_matches_dim1_profile():
    ds = circle_dataset()
    net = mlp.build_network([2, 3, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    full = advisor.layer_profile(net, ds, layer=1, per_class_cap=40, seed=1)
    b0_only = advisor.layer_profile(net, ds, layer=1, per_class_cap=40, seed=1, max_dim=0)
    assert np.array_equal(full.grid, b0_only.grid)
    for c in (0, 1):
        assert np.array_equal(full.curves[c].b0, b0_only.curves[c].b0)
        assert b0_only.curves[c].b1 is None and b0_only.curves[c].barcode is None
    with pytest.raises(ValueError, match="max_dim"):
        advisor.layer_profile(net, ds, layer=1, max_dim=2)


def test_input_profile_invariant_under_rotation():
    ds = blobs_dataset(per_class=30)
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = Dataset(features=ds.features @ rot.T, labels=ds.labels, n_classes=2)
    a = advisor.input_profile(ds, per_class_cap=30, seed=5)
    b = advisor.input_profile(rotated, per_class_cap=30, radius_grid=a.grid, seed=5)
    for c in (0, 1):
        assert np.array_equal(a.curves[c].b0, b.curves[c].b0)
        assert np.array_equal(a.curves[c].b1, b.curves[c].b1)


def test_jobs_parallelism_matches_serial():
    ds = blobs_dataset(per_class=25)
    serial = advisor.input_profile(ds, per_class_cap=25, seed=0, jobs=1)
    parallel = advisor.input_profile(ds, per_class_cap=25, seed=0, jobs=2)
    for c in (0, 1):
        assert np.array_equal(serial.curves[c].b0, parallel.curves[c].b0)
        assert np.array_equal(serial.curves[c].b1, parallel.curves[c].b1)


def test_pool_is_capped_at_the_class_count(monkeypatch):
    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    workers = []
    ds, _ = make_image_dataset(60, 10, seed=4, side=4, classes=3)
    serial = advisor.input_profile(ds, per_class_cap=12, seed=0, jobs=1)
    monkeypatch.setattr(advisor, "ProcessPoolExecutor", SerialPool)
    capped = advisor.input_profile(ds, per_class_cap=12, seed=0, jobs=10**6)
    assert workers == [3]
    assert np.array_equal(serial.grid, capped.grid)
    assert capped.class_ids() == serial.class_ids() == (0, 1, 2)
    for c in serial.class_ids():
        assert np.array_equal(serial.curves[c].b0, capped.curves[c].b0)
        assert np.array_equal(serial.curves[c].b1, capped.curves[c].b1)
        assert serial.curves[c].barcode == capped.curves[c].barcode


def test_compare_identical_profiles_no_flags():
    ds = blobs_dataset(per_class=25)
    prof = advisor.input_profile(ds, per_class_cap=25)
    report = advisor.compare_profiles(prof, prof, threshold_fraction=0.5)
    assert report.efficient
    assert not any(c.flagged for c in report.classes)
    assert "efficient" in report.to_text()


def test_compare_flags_collapsed_classes():
    ds = blobs_dataset(per_class=25)
    inp = advisor.input_profile(ds, per_class_cap=25)
    collapsed = Dataset(
        features=np.vstack([np.zeros((25, 2)), ds.features[25:]]),
        labels=ds.labels,
        n_classes=2,
    )
    lay = advisor.input_profile(collapsed, per_class_cap=25)
    report = advisor.compare_profiles(inp, lay, threshold_fraction=0.5)
    flags = {c.class_id: c.flagged for c in report.classes}
    assert flags[0] is True  # 25 points collapsed to 1 < 0.5 * 25
    assert flags[1] is False
    assert not report.efficient


def test_compare_class_set_mismatch_errors():
    ds = blobs_dataset(per_class=25)
    prof = advisor.input_profile(ds, per_class_cap=25)
    feats = np.vstack([np.zeros((5, 2)), np.ones((1, 2))])
    tiny = Dataset(features=feats, labels=np.array([0] * 5 + [1]), n_classes=2)
    with pytest.warns(UserWarning):
        other = advisor.input_profile(tiny, per_class_cap=10)
    with pytest.raises(ValueError, match="class sets differ"):
        advisor.compare_profiles(prof, other)


def test_width_sweep_shapes_and_determinism():
    train, test = make_image_dataset(120, 60, seed=3, side=6, classes=3)
    kwargs = dict(
        widths=[2, 6],
        seeds=[1, 2],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.relu_activation(),
        epochs=2,
        lr=0.05,
        batch_size=16,
        per_class_cap=30,
    )
    a = advisor.width_sweep(**kwargs)
    b = advisor.width_sweep(**kwargs)
    assert len(a.rows) == 4
    assert a.records() == b.records()
    assert all(len(r.split(",")) == 4 for r in a.records())


def test_width_sweep_b0_matches_dim1_layer_profile():
    train, test = make_image_dataset(120, 60, seed=3, side=6, classes=3)
    config = dict(epochs=2, lr=0.05, batch_size=16)
    result = advisor.width_sweep(
        widths=[1, 2, 6],
        seeds=[1],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.relu_activation(),
        per_class_cap=30,
        **config,
    )
    for row in result.rows:
        # the same net width_sweep trained: build and training are seeded
        net = mlp.build_network(
            [train.dim] + [row.width] * 3 + [train.n_classes],
            mlp.relu_activation(),
            seed=row.seed,
            batch_norm=True,
        )
        mlp.train_sgd(net, train, mlp.TrainConfig(seed=row.seed, **config))
        full = advisor.layer_profile(
            net, train, layer=3, per_class_cap=30, seed=row.seed, max_dim=1
        )
        assert np.array_equal(row.profile.grid, full.grid)
        for c in full.class_ids():
            swept = row.profile.curves[c]
            assert swept.b0_at_min_radius == full.curves[c].b0_at_min_radius
            assert np.array_equal(swept.b0, full.curves[c].b0)
    # narrow layers collapse samples onto coincident activation vectors
    assert min(row.max_b0_min_radius for row in result.rows) < 30


def _blown_up(net, width, seed):
    """The width-4, seed-2 net with huge output weights: its loss turns NaN
    in its first epoch."""
    if (width, seed) == (4, 2):
        net.output.weight[...] *= 1e100
    return net


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_width_sweep_records_a_diverging_row_and_keeps_the_others(monkeypatch):
    train, test = make_image_dataset(120, 60, seed=3, side=6, classes=3)
    build = mlp.build_network
    monkeypatch.setattr(
        advisor,
        "build_network",
        lambda shape, act, seed, batch_norm: _blown_up(
            build(shape, act, seed=seed, batch_norm=batch_norm), shape[1], seed
        ),
    )
    config = dict(epochs=2, lr=0.05, batch_size=16)
    result = advisor.width_sweep(
        widths=[2, 4],
        seeds=[1, 2, 3],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.relu_activation(),
        per_class_cap=30,
        **config,
    )
    assert [(row.width, row.seed) for row in result.rows if row.error] == [(4, 2)]
    for row in result.rows:
        # each row as its net, trained alone, gives it
        net = mlp.build_network(
            [train.dim] + [row.width] * 3 + [train.n_classes],
            mlp.relu_activation(),
            seed=row.seed,
            batch_norm=True,
        )
        _blown_up(net, row.width, row.seed)
        solo = mlp.TrainConfig(seed=row.seed, **config)
        if row.error:
            with pytest.raises(mlp.TrainingDivergedError) as diverged:
                mlp.train_sgd(net, train, solo)
            assert row.error == str(diverged.value)
            assert np.isnan(row.accuracy) and row.profile is None
            continue
        mlp.train_sgd(net, train, solo)
        assert row.accuracy == mlp.evaluate_accuracy(net, test)
        prof = advisor.layer_profile(net, train, layer=3, per_class_cap=30, seed=row.seed, max_dim=0)
        assert row.max_b0_min_radius == prof.max_b0_at_min_radius()
        for c in prof.class_ids():
            assert np.array_equal(row.profile.curves[c].b0, prof.curves[c].b0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_width_sweep_records_a_row_whose_layer_overflows_and_keeps_the_others():
    # at lr 1000 most squared activations overflow without a NaN loss, so
    # layer_profile refuses the layer's points; one net diverges outright
    train, test = make_image_dataset(120, 60, seed=3, side=6, classes=3)
    config = dict(epochs=2, lr=1000.0, batch_size=16)
    result = advisor.width_sweep(
        widths=[2, 4],
        seeds=[1, 2, 3],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.poly_activation(),
        per_class_cap=30,
        **config,
    )
    assert [(row.width, row.seed) for row in result.rows] == [(w, s) for w in (2, 4) for s in (1, 2, 3)]
    errors = {(row.width, row.seed): row.error for row in result.rows}
    assert errors[4, 1].startswith("NaN loss")
    assert errors[4, 3] is None
    overflowed = [row for row in result.rows if row.error == "point coordinates must be finite"]
    assert len(overflowed) == 4
    for row in overflowed:
        net = mlp.build_network([train.dim] + [row.width] * 3 + [3], mlp.poly_activation(),
                                seed=row.seed, batch_norm=True)
        mlp.train_sgd(net, train, mlp.TrainConfig(seed=row.seed, **config))
        assert row.accuracy == mlp.evaluate_accuracy(net, test)
        assert row.max_b0_min_radius == 0 and row.profile is None
    assert "! point coordinates must be finite" in result.to_text()


def test_width_sweep_single_width_and_width_one(monkeypatch):
    train, test = make_image_dataset(60, 30, seed=4, side=5, classes=2)
    kwargs = dict(
        widths=[1],
        seeds=[0],
        train_dataset=train,
        test_dataset=test,
        activation=mlp.relu_activation(),
        epochs=1,
        lr=0.05,
        batch_size=16,
        per_class_cap=20,
    )
    result = advisor.width_sweep(**kwargs)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.width == 1
    assert 0.0 <= row.accuracy <= 1.0
    assert row.max_b0_min_radius >= 1
    # a layer the nets do not have is refused before anything trains
    trained = []
    monkeypatch.setattr(advisor, "train_sgd_stack", lambda *args: trained.append(args))
    with pytest.raises(ValueError, match=r"layer must be in 1\.\.3, got 4"):
        advisor.width_sweep(**kwargs, layer=4)
    assert trained == []


def test_b0_at_min_radius_uses_first_positive_grid_point():
    grid = np.array([0.0, 0.5, 1.0])
    curves = advisor.ClassCurves(
        grid=grid, b0=np.array([5, 3, 1]), b1=np.zeros(3, dtype=int), barcode=None
    )
    assert curves.b0_at_min_radius == 3
