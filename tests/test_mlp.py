import tracemalloc
from operator import setitem

import numpy as np
import pytest

import sgd_oracle
from bettinet import mlp
from bettinet.data import Dataset, make_image_dataset


def blob_dataset(seed=0, per_class=50):
    rng = np.random.default_rng(seed)
    feats = np.vstack(
        [
            rng.normal([-2.0, -2.0], 0.4, size=(per_class, 2)),
            rng.normal([2.0, 2.0], 0.4, size=(per_class, 2)),
        ]
    )
    labels = np.array([0] * per_class + [1] * per_class)
    return Dataset(features=feats, labels=labels, n_classes=2)


def test_forward_identity_relu_passes_nonnegative_input_through():
    net = mlp.build_network([3, 3, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = np.eye(3)
    net.hidden[0].dense.bias[:] = 0.0
    x = np.array([[0.5, 1.0, 2.0]])
    activations, _, _ = mlp.forward(net, x)
    assert np.array_equal(activations[0], x)


def test_forward_softmax_rows_sum_to_one():
    net = mlp.build_network([4, 5, 3], mlp.relu_activation(), seed=1)
    rng = np.random.default_rng(0)
    _, _, probs = mlp.forward(net, rng.normal(size=(20, 4)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_forward_hand_set_logits():
    net = mlp.build_network([2, 2, 2], mlp.relu_activation(), seed=0, batch_norm=False)
    net.hidden[0].dense.weight[:] = np.array([[1.0, 2.0], [3.0, 4.0]])
    net.hidden[0].dense.bias[:] = np.array([0.5, -0.5])
    net.output.weight[:] = np.array([[1.0, -1.0], [2.0, 0.0]])
    net.output.bias[:] = np.array([0.1, 0.2])
    x = np.array([[1.0, 0.0]])
    # hidden: relu([1*1+0.5, 3*1-0.5]) = [1.5, 2.5]
    # logits: [1.5-2.5+0.1, 3.0+0.2] = [-0.9, 3.2]
    _, logits, _ = mlp.forward(net, x)
    assert logits[0] == pytest.approx([-0.9, 3.2])


def test_forward_shape_mismatch():
    net = mlp.build_network([3, 5, 4, 2], mlp.relu_activation(), seed=0)
    with pytest.raises(ValueError, match="^expected width 3 at layer 0, got 4$"):
        mlp.forward(net, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="^expected width 4 at layer 2, got 5$"):
        mlp.forward(net, np.zeros((2, 5)), from_layer=2)
    with pytest.raises(ValueError, match="^expected width 3 at layer 0, got 5$"):
        mlp.forward(net, np.zeros((6, 1, 5)))
    for from_layer in (-1, 3):
        with pytest.raises(ValueError, match=r"from_layer must be in 0\.\.2"):
            mlp.forward(net, np.zeros((2, 4)), from_layer=from_layer)


def test_softmax_invariance_under_logit_shift():
    net = mlp.build_network([2, 4, 3], mlp.relu_activation(), seed=2)
    rng = np.random.default_rng(1)
    _, logits, probs = mlp.forward(net, rng.normal(size=(10, 2)))
    shifted = mlp._softmax(logits + 37.25)
    assert np.max(np.abs(probs - shifted)) < 1e-12


def test_train_separable_blobs_reaches_99():
    ds = blob_dataset()
    net = mlp.build_network([2, 4, 4, 2], mlp.relu_activation(), seed=3)
    log = mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=50, lr=0.1, batch_size=16, seed=5))
    assert log.final_accuracy >= 0.99


def test_train_zero_learning_rate_leaves_weights():
    ds = blob_dataset()
    net = mlp.build_network([2, 4, 2], mlp.relu_activation(), seed=3)
    before = [p.copy() for _, p in mlp._param_items(net)]
    mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=2, lr=0.0, batch_size=16, seed=5))
    after = [p for _, p in mlp._param_items(net)]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_train_determinism_bit_identical():
    ds = blob_dataset()
    nets = []
    for _ in range(2):
        net = mlp.build_network([2, 4, 4, 2], mlp.relu_activation(), seed=3)
        mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=10, lr=0.1, batch_size=16, seed=5))
        nets.append(net)
    for (_, a), (_, b) in zip(mlp._param_items(nets[0]), mlp._param_items(nets[1])):
        assert np.array_equal(a, b)


def test_train_nan_loss_aborts_with_diagnostic():
    ds = blob_dataset()
    net = mlp.build_network([2, 4, 2], mlp.poly_activation(), seed=3, batch_norm=False)
    with pytest.raises(mlp.TrainingDivergedError, match="epoch"):
        mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=50, lr=1e6, batch_size=16, seed=5))


def _train_state(train, net, ds, config):
    """Everything training leaves behind, as bytes: the log or the
    divergence message, every parameter and the running statistics."""
    try:
        outcome = repr(train(net, ds, config))
    except mlp.TrainingDivergedError as exc:
        outcome = f"diverged: {exc}"
    arrays = [p for _, p in mlp._param_items(net)]
    arrays += [a for b in net.hidden if b.norm for a in (b.norm.running_mean, b.norm.running_var)]
    return outcome, [a.tobytes() for a in arrays]


def _build(widths, act, seed, batch_norm):
    """``build_network``; ``batch_norm`` is a bool, or the (momentum, eps)
    of each hidden block's batch norm."""
    net = mlp.build_network(widths, act, seed=seed, batch_norm=bool(batch_norm))
    if not isinstance(batch_norm, bool):
        for block, (momentum, eps) in zip(net.hidden, batch_norm, strict=True):
            block.norm.momentum, block.norm.eps = momentum, eps
    return net


_ORACLE_CASES = [
    pytest.param([8, 8], mlp.relu_activation(), True, 0.05, id="relu-bn"),
    # each running statistic must move with its own block's momentum
    pytest.param([8, 8], mlp.relu_activation(), [(0.9, 1e-3), (0.0, 1e-5)], 0.05,
                 id="relu-bn-own-momentum-and-eps"),
    pytest.param([8, 5], mlp.relu_activation(), False, 0.05, id="relu"),
    pytest.param([6], mlp.poly_activation((0.1, 0.5, 0.3)), True, 0.05, id="poly-bn"),
    pytest.param([6, 4], mlp.poly_activation((0.1, 0.5, 0.3)), False, 0.02, id="poly"),
    pytest.param([], mlp.relu_activation(), True, 0.05, id="no-hidden-layer"),
    pytest.param([4], mlp.poly_activation(), False, 1e6, id="diverging"),
]


@pytest.mark.parametrize("hidden, act, batch_norm, lr", _ORACLE_CASES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_sgd_bit_identical_to_the_dict_based_oracle(hidden, act, batch_norm, lr):
    train_ds, _ = make_image_dataset(70, 10, seed=2, side=6, classes=3)  # 70 rows, batches of 32
    config = mlp.TrainConfig(epochs=3, lr=lr, batch_size=32, seed=4)
    states = []
    for train in (mlp.train_sgd, sgd_oracle.train_sgd):
        net = _build([train_ds.dim, *hidden, 3], act, 1, batch_norm)
        states.append(_train_state(train, net, train_ds, config))
    assert states[0] == states[1]
    # the diverging run fails in its second epoch, after 4 updates
    diverged = states[0][0].startswith("diverged: NaN loss at epoch 1, batch starting 64;")
    assert diverged == (lr == 1e6)


def _stack_states(nets, ds, configs):
    """``_train_state`` of every net of one ``train_sgd_stack`` call."""
    outcomes = mlp.train_sgd_stack(nets, ds, configs)
    return [
        (
            f"diverged: {outcome}"
            if isinstance(outcome, mlp.TrainingDivergedError)
            else repr(outcome),
            [a.tobytes() for a in mlp._net_arrays(net)],
        )
        for outcome, net in zip(outcomes, nets)
    ]


@pytest.mark.parametrize(
    "hidden, act, batch_norm, lr, batch_size",
    [pytest.param(*case.values, 32, id=case.id) for case in _ORACLE_CASES]
    + [
        pytest.param([1, 1], mlp.relu_activation(), True, 0.05, 32, id="width-1"),
        pytest.param([8, 8], mlp.relu_activation(), True, 0.05, 1, id="batches-of-1"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_sgd_stack_bit_identical_to_solo_runs(hidden, act, batch_norm, lr, batch_size):
    train_ds, _ = make_image_dataset(70, 10, seed=2, side=6, classes=3)

    def build(k):
        return _build([train_ds.dim, *hidden, 3], act, 1 + k, batch_norm)

    configs = [mlp.TrainConfig(epochs=3, lr=lr, batch_size=batch_size, seed=4 + k) for k in range(3)]
    solo = [_train_state(mlp.train_sgd, build(k), train_ds, configs[k]) for k in range(3)]
    for size in (1, 2, 3):
        nets = [build(k) for k in range(size)]
        assert _stack_states(nets, train_ds, configs[:size]) == solo[:size]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_net_leaves_the_stack_and_the_others_go_on():
    train_ds, _ = make_image_dataset(70, 10, seed=2, side=6, classes=3)

    def build(k):
        act = mlp.poly_activation((0.1, 0.5, 0.3))
        net = mlp.build_network([train_ds.dim, 6, 4, 3], act, seed=1 + k, batch_norm=False)
        if k == 1:  # large initial weights make this net's loss overflow
            for _, p in mlp._param_items(net):
                p *= 100.0
        return net

    configs = [mlp.TrainConfig(epochs=3, lr=0.02, batch_size=32, seed=4 + k) for k in range(3)]
    solo = [_train_state(mlp.train_sgd, build(k), train_ds, configs[k]) for k in range(3)]
    assert _stack_states([build(k) for k in range(3)], train_ds, configs) == solo
    # the middle net fails in the ragged last batch of the first epoch, after
    # the others have taken two steps; it stays in the stack, ignored, and
    # gets back its arrays from before that batch
    assert solo[1][0].startswith("diverged: NaN loss at epoch 0, batch starting 64;")
    assert all(outcome.startswith("TrainLog(") for outcome, _ in solo[::2])


def test_train_sgd_stack_refuses_mixed_stacks():
    ds = blob_dataset()
    nets = [mlp.build_network([2, 4, 2], mlp.relu_activation(), seed=k) for k in range(2)]
    configs = [mlp.TrainConfig(epochs=1, lr=0.1, batch_size=16, seed=k) for k in range(2)]
    other = mlp.build_network([2, 5, 2], mlp.relu_activation(), seed=2)
    with pytest.raises(ValueError, match="share widths"):
        mlp.train_sgd_stack([nets[0], other], ds, configs)
    with pytest.raises(ValueError, match="share epochs, lr and batch size"):
        mlp.train_sgd_stack(nets, ds, [configs[0], mlp.TrainConfig(2, 0.1, 16, 1)])
    with pytest.raises(ValueError, match="one config per net"):
        mlp.train_sgd_stack(nets, ds, configs[:1])


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("epochs", -1), ("batch_size", 0), ("batch_size", -5), ("lr", float("nan")),
     ("lr", float("inf")), ("lr", -0.1)],
)
def test_train_config_rejects_bad_values(field, value):
    kwargs = dict(epochs=1, lr=0.1, batch_size=8, seed=0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        mlp.TrainConfig(**kwargs)
    kwargs[field] = 0.0 if field == "lr" else 1
    mlp.TrainConfig(**kwargs)


def test_gradient_check_20_random_nets():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        act = mlp.relu_activation() if trial % 2 == 0 else mlp.poly_activation()
        bn = trial % 3 != 0
        widths = [int(w) for w in rng.integers(2, 7, size=rng.integers(3, 5))] + [3]
        net = mlp.build_network(widths, act, seed=trial, batch_norm=bn)
        # squared activations without normalization raise values to the
        # 2^depth power; keep inputs small enough that the softmax stays
        # far from saturation, where difference quotients mean nothing
        scale = 0.4 if act.kind == "poly" and not bn else 1.0
        x = rng.normal(scale=scale, size=(6, widths[0]))
        y = rng.integers(0, 3, size=6)
        worst = max(worst, sgd_oracle.gradient_check(net, x, y, step=1e-5))
    assert worst < 1e-4


def test_gradient_check_zero_weights_zero_input():
    net = mlp.build_network([2, 3, 2], mlp.poly_activation(), seed=0, batch_norm=False)
    for _, p in mlp._param_items(net):
        p[:] = 0.0
    x = np.zeros((4, 2))
    y = np.array([0, 1, 0, 1])
    err = sgd_oracle.gradient_check(net, x, y)
    assert np.isfinite(err)
    assert err < 1e-4


def test_gradient_check_poly_square_activation():
    rng = np.random.default_rng(9)
    net = mlp.build_network([3, 4, 3, 2], mlp.poly_activation(), seed=4, batch_norm=True)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)
    assert sgd_oracle.gradient_check(net, x, y) < 1e-4


def test_evaluate_accuracy_in_blocks_counts_as_one_whole_split_pass():
    train, test = make_image_dataset(200, 3 * mlp.EVAL_BLOCK_ROWS + 77, seed=6, side=6, classes=4)
    assert len(test) % mlp.EVAL_BLOCK_ROWS
    net = mlp.build_network([36, 8, 8, 4], mlp.relu_activation(), seed=2)
    mlp.train_sgd(net, train, mlp.TrainConfig(epochs=2, lr=0.1, batch_size=16, seed=1))
    _, _, probs = mlp.forward(net, test.rows())
    correct = np.count_nonzero(probs.argmax(axis=1) == test.labels)
    assert 0 < correct < len(test)
    assert mlp.evaluate_accuracy(net, test) == correct / len(test)


def test_evaluate_accuracy_memory_does_not_grow_with_the_split():
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(20_000, 784), dtype=np.uint8)
    split = Dataset(pixels=pixels, labels=rng.integers(0, 10, size=20_000), n_classes=10)
    net = mlp.build_network([784, 64, 64, 64, 10], mlp.relu_activation(), seed=0)
    tracemalloc.start()
    try:
        mlp.evaluate_accuracy(net, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole-split pass decodes 125 MB of float64 rows
    assert peak < 8 * 2**20


def test_extract_class_activations_cap_and_determinism():
    ds = blob_dataset(per_class=100)
    net = mlp.build_network([2, 4, 4, 2], mlp.relu_activation(), seed=3)
    d1 = mlp.extract_class_activations(net, ds, layer=1, class_id=0, cap=10, seed=9)
    d2 = mlp.extract_class_activations(net, ds, layer=1, class_id=0, cap=10, seed=9)
    assert d1.activations.shape == (10, 4)
    assert np.array_equal(d1.activations, d2.activations)
    assert not d1.activations.flags.writeable
    # layer 0 is the input: the same drawn rows, read-only, with no net needed
    rows = ds.rows(ds.sample_class_indices(0, 10, 9))
    for source in (net, None):
        d0 = mlp.extract_class_activations(source, ds, layer=0, class_id=0, cap=10, seed=9)
        assert d0.layer == 0 and d0.activations.shape == (10, 2)
        assert np.array_equal(d0.activations, rows)
        assert not d0.activations.flags.writeable
    assert np.array_equal(mlp.forward(net, rows)[0][0], d1.activations)


def test_extract_missing_class_errors():
    ds = blob_dataset()
    net = mlp.build_network([2, 4, 2], mlp.relu_activation(), seed=3)
    ds2 = Dataset(features=ds.features, labels=ds.labels, n_classes=3)
    with pytest.raises(mlp.EmptyClassError):
        mlp.extract_class_activations(net, ds2, layer=1, class_id=2, cap=5, seed=0)


def test_batch_norm_inference_is_affine_identical_dumps():
    ds = blob_dataset()
    net = mlp.build_network([2, 4, 4, 2], mlp.relu_activation(), seed=3)
    mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=3, lr=0.1, batch_size=16, seed=5))
    a = mlp.forward(net, ds.features)[0][1]
    b = mlp.forward(net, ds.features)[0][1]
    assert np.array_equal(a, b)


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    ds = blob_dataset()
    net = mlp.build_network([2, 5, 3, 2], mlp.relu_activation(), seed=8)
    mlp.train_sgd(net, ds, mlp.TrainConfig(epochs=2, lr=0.05, batch_size=8, seed=1))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    mlp.save_checkpoint(net, p1)
    mlp.save_checkpoint(mlp.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_version_guard(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "other", "version": 99}')
    with pytest.raises(ValueError):
        mlp.load_checkpoint(p)


@pytest.mark.parametrize(
    "layer, corrupt, message",
    [
        (1, lambda blk: blk["bias"].pop(), "layer 1: bias has shape (4,)"),
        (2, lambda blk: [row.pop() for row in blk["weight"]], "layer 2: weight takes 4 inputs"),
        (1, lambda blk: blk["norm"]["running_var"].pop(), "layer 1: batch-norm running_var"),
        (3, lambda blk: [row.append(0.0) for row in blk["weight"]], "layer 3 (output): weight"),
    ],
)
def test_checkpoint_shapes_checked_at_load(tmp_path, layer, corrupt, message):
    import json
    import re

    net = mlp.build_network([2, 5, 3, 2], mlp.relu_activation(), seed=8, batch_norm=True)
    path = tmp_path / "net.json"
    mlp.save_checkpoint(net, path)
    doc = json.loads(path.read_text())
    corrupt((doc["hidden"] + [doc["output"]])[layer - 1])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        mlp.load_checkpoint(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda net: setattr(net.output, "weight", net.output.weight[None]),
         "layer 3 (output): weight has shape (1, 2, 4), not (out, in)"),
        (lambda net: setattr(net.hidden[0].dense, "weight", np.zeros((5, 0))),
         "layer 1: weight has shape (5, 0), not (out, in)"),
        (lambda net: setattr(net.hidden[1].dense, "weight", net.hidden[1].dense.weight[:, 1:]),
         "layer 2: weight takes 4 inputs, the layer below gives 5"),
        (lambda net: setattr(net.output, "bias", np.zeros(3)),
         "layer 3 (output): bias has shape (3,), expected (2,)"),
        (lambda net: setattr(net.hidden[1].norm, "beta", np.zeros(5)),
         "layer 2: batch-norm beta has shape (5,), expected (4,)"),
        (lambda net: setitem(net.hidden[0].dense.weight, (2, 1), np.inf), "layer 1: weight is not finite"),
        (lambda net: setitem(net.output.bias, 0, np.nan), "layer 3 (output): bias is not finite"),
        (lambda net: setitem(net.hidden[1].norm.gamma, 0, np.nan),
         "layer 2: batch-norm gamma is not finite"),
        (lambda net: setitem(net.hidden[0].norm.running_mean, 4, -np.inf),
         "layer 1: batch-norm running_mean is not finite"),
        (lambda net: setattr(net.hidden[0].norm, "eps", 0.0),
         "layer 1: batch-norm eps must be finite and > 0, got 0.0"),
        (lambda net: setattr(net.hidden[1].norm, "eps", -1e-5),
         "layer 2: batch-norm eps must be finite and > 0, got -1e-05"),
        (lambda net: setattr(net.hidden[1].norm, "eps", np.nan),
         "layer 2: batch-norm eps must be finite and > 0, got nan"),
        (lambda net: setattr(net.hidden[0].norm, "eps", np.inf),
         "layer 1: batch-norm eps must be finite and > 0, got inf"),
        (lambda net: setitem(net.hidden[1].norm.running_var, 3, -1e-9),
         "layer 2: batch-norm running_var must be >= 0"),
    ],
    ids=["weight-3d", "weight-empty", "fan-in", "bias-width", "beta-width", "weight-inf", "bias-nan",
         "gamma-nan", "running-mean-inf", "eps-0", "eps-negative", "eps-nan", "eps-inf",
         "running-var-negative"],
)
def test_network_rules_name_the_layer(corrupt, message):
    import re

    net = mlp.build_network([3, 5, 4, 2], mlp.relu_activation(), seed=2, batch_norm=True)
    mlp.Network(hidden=net.hidden, output=net.output, activation=net.activation)
    corrupt(net)
    with pytest.raises(ValueError, match=re.escape(message)):
        mlp.Network(hidden=net.hidden, output=net.output, activation=net.activation)


def test_poly_activation_needs_finite_coefficients():
    with pytest.raises(ValueError, match="polynomial coefficients must be finite"):
        mlp.poly_activation([0.0, np.nan, 1.0])


def test_poly_forward_agrees_with_symbolic_composition():
    from bettinet.semialgebraic import compose_logit_polynomials

    rng = np.random.default_rng(11)
    net = mlp.build_network([3, 3, 2, 2], mlp.poly_activation(), seed=6, batch_norm=True)
    for blk in net.hidden:
        blk.norm.running_mean[:] = rng.normal(scale=0.2, size=blk.norm.running_mean.shape)
        blk.norm.running_var[:] = rng.uniform(0.5, 1.5, size=blk.norm.running_var.shape)
    polys = compose_logit_polynomials(net)
    pts = rng.normal(size=(100, 3))
    _, logits, _ = mlp.forward(net, pts)
    sym = np.column_stack([p.evaluate(pts) for p in polys])
    scale = np.maximum(np.abs(logits).max(axis=1, keepdims=True), 1e-8)
    assert (np.abs(sym - logits) / scale).max() < 1e-8
