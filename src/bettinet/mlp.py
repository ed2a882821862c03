"""Minimal dense-network trainer: affine layers, ReLU or polynomial
activation, batch normalization after the activation, softmax
cross-entropy, plain SGD.

Layer numbering follows the bound formulas: widths [n_0, ..., n_l] give l
affine maps; X^0 is the input and X^k (k = 1..l-1) is the post-activation,
post-batch-norm output of hidden block k.  Inference mode uses running
batch-norm statistics, so activation extraction is a deterministic affine
function of the patterns and repeated extractions agree bit for bit.

Training is deterministic given its seed and the BLAS thread count: BLAS
may split a product differently across threads and round it differently.
It does not depend on stacking: ``train_sgd_stack`` trains same-shape nets
in lockstep, paying numpy's per-call cost once per step for all of them,
and leaves each with the weights ``train_sgd`` (a stack of one) gives it.
Forward passes and extraction on a frozen network may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .data import Dataset

__all__ = [
    "ActivationFn",
    "DenseLayer",
    "BatchNorm",
    "HiddenBlock",
    "Network",
    "TrainConfig",
    "TrainLog",
    "ActivationDump",
    "TrainingDivergedError",
    "EmptyClassError",
    "relu_activation",
    "poly_activation",
    "build_network",
    "forward",
    "train_sgd",
    "train_sgd_stack",
    "extract_class_activations",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Loss became NaN during training."""


class EmptyClassError(ValueError):
    """Requested class has no samples in the dataset."""


@dataclass(frozen=True)
class ActivationFn:
    """ReLU or a polynomial with coefficients in ascending degree order."""

    kind: str
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("relu", "poly"):
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.kind == "poly" and len(self.coeffs) < 2:
            raise ValueError("polynomial activation needs degree >= 1")

    @property
    def degree(self) -> int:
        return 0 if self.kind == "relu" else len(self.coeffs) - 1

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    def grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            return (x > 0).astype(np.float64)
        dcoeffs = [i * c for i, c in enumerate(self.coeffs)][1:]
        return np.polynomial.polynomial.polyval(x, np.asarray(dcoeffs))


def relu_activation() -> ActivationFn:
    return ActivationFn("relu")


def poly_activation(coeffs=(0.0, 0.0, 1.0)) -> ActivationFn:
    """Default polynomial is x^2 (degree 2)."""
    return ActivationFn("poly", tuple(float(c) for c in coeffs))


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("weight must be (out, in) with matching bias")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("parameters must be finite")


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if np.any(self.running_var < 0):
            raise ValueError("running variance must be nonnegative")

    def infer(self, a: np.ndarray) -> np.ndarray:
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * (a - self.running_mean) * inv + self.beta


@dataclass
class HiddenBlock:
    dense: DenseLayer
    norm: Optional[BatchNorm]


@dataclass
class Network:
    hidden: list[HiddenBlock]
    output: DenseLayer
    activation: ActivationFn

    @property
    def widths(self) -> tuple[int, ...]:
        dense = [block.dense for block in self.hidden] + [self.output]
        return (dense[0].weight.shape[1],) + tuple(d.weight.shape[0] for d in dense)

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    @property
    def n_classes(self) -> int:
        return self.output.weight.shape[0]


def build_network(
    widths,
    activation: ActivationFn,
    seed: int,
    batch_norm: bool = True,
) -> Network:
    """Network for widths [n_0, ..., n_l]; uniform(-s, s) init with
    s = sqrt(6 / (fan_in + fan_out)), stable at tiny widths."""
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    if any(w < 1 for w in widths):
        raise ValueError("all widths must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = []
    for fan_in, fan_out in zip(widths[:-2], widths[1:-1]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        dense = DenseLayer(
            weight=rng.uniform(-s, s, size=(fan_out, fan_in)),
            bias=np.zeros(fan_out),
        )
        norm = (
            BatchNorm(
                gamma=np.ones(fan_out),
                beta=np.zeros(fan_out),
                running_mean=np.zeros(fan_out),
                running_var=np.ones(fan_out),
            )
            if batch_norm
            else None
        )
        blocks.append(HiddenBlock(dense=dense, norm=norm))
    s = np.sqrt(6.0 / (widths[-2] + widths[-1]))
    output = DenseLayer(
        weight=rng.uniform(-s, s, size=(widths[-1], widths[-2])),
        bias=np.zeros(widths[-1]),
    )
    return Network(hidden=blocks, output=output, activation=activation)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(net: Network, batch: np.ndarray, from_layer: int = 0):
    """Inference pass (running batch-norm statistics).

    Returns (activations, logits, probs) where activations[k-1] is X^k for
    k = from_layer+1 .. l-1.  ``from_layer`` feeds the batch in as X^k.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    widths = net.widths
    if x.shape[1] != widths[from_layer]:
        raise ValueError(f"expected width {widths[from_layer]} at layer {from_layer}, got {x.shape[1]}")
    activations = []
    for block in net.hidden[from_layer:]:
        z = x @ block.dense.weight.T + block.dense.bias
        a = net.activation(z)
        x = block.norm.infer(a) if block.norm is not None else a
        activations.append(x)
    logits = x @ net.output.weight.T + net.output.bias
    return activations, logits, _softmax(logits)


def _batch_sum(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # along the batch axis of an (S, B, n) stack, in the order numpy sums
    # axis 0 of one net's (B, n) array
    return np.add.reduce(a, 1, keepdims=True, out=out)


def _blocks(params, eps):
    """Split a stack's parameters (``_param_items`` order) into
    (weight, bias, gamma, beta, eps) per hidden block, gamma and beta None
    without batch norm, and the output layer's (weight, bias)."""
    rest = iter(params)
    blocks = []
    for block_eps in eps:
        weight, bias = next(rest), next(rest)
        gamma, beta = (next(rest), next(rest)) if block_eps is not None else (None, None)
        blocks.append((weight, bias, gamma, beta, block_eps))
    return blocks, tuple(rest)


def _forward_train(blocks, output, activation: ActivationFn, x: np.ndarray, batch_stats):
    """Training-mode pass of a stack of nets on ``x`` of shape (S, B, n_0),
    using batch statistics, which it writes into ``batch_stats``: mean and
    variance of each normalized block.  Caches (x_in, z, inv, x_hat) per
    hidden block for backprop, the last two None without batch norm."""
    n = x.shape[1]
    stats = iter(batch_stats)
    caches = []
    for weight, bias, gamma, beta, eps in blocks:
        z = x @ weight.transpose(0, 2, 1) + bias
        a = activation(z)
        if eps is None:
            caches.append((x, z, None, None))
            x = a
            continue
        # the operations numpy's mean and var run, without their wrappers
        mu = np.divide(_batch_sum(a), n, out=next(stats))
        d = a - mu
        var = np.divide(_batch_sum(d * d), n, out=next(stats))
        inv = 1.0 / np.sqrt(var + eps)
        x_hat = d * inv
        caches.append((x, z, inv, x_hat))
        x = gamma * x_hat + beta
    weight, bias = output
    logits = x @ weight.transpose(0, 2, 1) + bias
    return caches, x, logits


def _loss_and_grads(params, eps, activation: ActivationFn, x: np.ndarray, y: np.ndarray,
                    grads, batch_stats):
    """Mean cross-entropy and softmax output of each net of a stack
    (training-mode forward); writes the parameter gradients into ``grads``.

    ``params`` are the stacked parameters in ``_param_items`` order: weights
    (S, out, in), vectors (S, 1, n); ``grads`` are arrays stacked like them.
    ``eps[k]`` is hidden block k's batch-norm epsilon, None without batch
    norm.  ``x`` is (S, B, n_0) and ``y`` (S, B).  The batch mean and
    variance of each normalized block go into ``batch_stats``, in the order
    of ``_net_arrays``'s running statistics, so the caller can fold them
    into the running estimates.  Nothing else is modified.
    """
    n = x.shape[1]
    blocks, output = _blocks(params, eps)
    caches, last, logits = _forward_train(blocks, output, activation, x, batch_stats)
    probs = _softmax(logits)
    picked = (np.arange(len(x))[:, None], np.arange(n), y)
    losses = -(np.add.reduce(np.log(probs[picked] + 1e-300), 1) / n)

    dlogits = probs.copy()
    dlogits[picked] -= 1.0
    dlogits /= n

    out = reversed(grads)  # written back to front
    _batch_sum(dlogits, next(out))
    np.matmul(dlogits.transpose(0, 2, 1), last, out=next(out))
    g = dlogits @ output[0]
    for idx in range(len(blocks) - 1, -1, -1):
        weight, _, gamma, _, block_eps = blocks[idx]
        x_in, z, inv, x_hat = caches[idx]
        if block_eps is not None:
            _batch_sum(g, next(out))
            _batch_sum(g * x_hat, next(out))
            dxhat = g * gamma
            g = inv * (dxhat - _batch_sum(dxhat) / n - x_hat * (_batch_sum(dxhat * x_hat) / n))
        dz = g * activation.grad(z)
        _batch_sum(dz, next(out))
        np.matmul(dz.transpose(0, 2, 1), x_in, out=next(out))
        if idx:  # nothing reads the gradient of the input itself
            g = dz @ weight
    return losses, probs


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float
    batch_size: int
    seed: int

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("lr", 0)):
            value = getattr(self, name)
            if not low <= value < math.inf:
                raise ValueError(f"{name} must be a finite number >= {low}, got {value}")


@dataclass(frozen=True)
class TrainLog:
    epoch_losses: tuple[float, ...]
    epoch_accuracies: tuple[float, ...]

    @property
    def final_accuracy(self) -> float:
        return self.epoch_accuracies[-1]


def _param_items(net: Network):
    for idx, block in enumerate(net.hidden):
        yield f"hidden.{idx}.weight", block.dense.weight
        yield f"hidden.{idx}.bias", block.dense.bias
        if block.norm is not None:
            yield f"hidden.{idx}.gamma", block.norm.gamma
            yield f"hidden.{idx}.beta", block.norm.beta
    yield "output.weight", net.output.weight
    yield "output.bias", net.output.bias


def _net_arrays(net: Network) -> list[np.ndarray]:
    """A net's parameters in ``_param_items`` order, then the running mean
    and variance of each normalized block."""
    arrays = [p for _, p in _param_items(net)]
    for block in net.hidden:
        if block.norm is not None:
            arrays += [block.norm.running_mean, block.norm.running_var]
    return arrays


def _layout(net: Network):
    """What nets trained in one stack must share."""
    norms = tuple(
        None if block.norm is None else (block.norm.eps, block.norm.momentum)
        for block in net.hidden
    )
    return net.widths, net.activation, norms


def train_sgd_stack(
    nets: Sequence[Network], dataset: Dataset, configs: Sequence[TrainConfig]
) -> list[Union[TrainLog, TrainingDivergedError]]:
    """Plain SGD on same-shape nets in lockstep; mutates each net in place.

    The nets share widths, activation and batch-norm settings, and the
    configs share epochs, lr and batch size; each net keeps its own seed,
    and so its own per-epoch permutations.  Each step runs every numpy
    operation once for the whole stack: ``@`` on stacked arrays runs, per
    net, the BLAS call the net's own 2-D product runs, and sums run along
    the batch axis in the order they run for one net.  So every net ends
    bit for bit as ``train_sgd`` leaves it on its own.

    Returns, per net, its ``TrainLog`` or the ``TrainingDivergedError`` that
    stopped it.  A net whose loss turns NaN leaves the stack with its
    parameters and running statistics as they were before the failing step;
    the others go on.
    """
    if not nets or len(nets) != len(configs):
        raise ValueError("need one config per net, and at least one net")
    recipes = {(c.epochs, c.lr, c.batch_size) for c in configs}
    if len(recipes) > 1:
        raise ValueError("the configs of a stack must share epochs, lr and batch size")
    if len({_layout(net) for net in nets}) > 1:
        raise ValueError("the nets of a stack must share widths, activation and batch norm")
    ((epochs, lr, batch_size),) = recipes
    first = nets[0]
    if dataset.dim != first.widths[0]:
        raise ValueError("dataset width does not match the network input")
    norms = [block.norm for block in first.hidden]
    eps = [None if norm is None else norm.eps for norm in norms]
    # each net's arrays, parameters then running statistics (``_net_arrays``),
    # as (out, in) weights and (1, n) vectors
    shapes = [a.reshape(-1, a.shape[-1]).shape for a in _net_arrays(first)]
    n_params = len(list(_param_items(first)))
    split = sum(math.prod(shape) for shape in shapes[:n_params])
    # one row per net: ``state`` holds every array of the net, ``scratch`` a
    # step's gradients and batch statistics in the same places, so an update
    # is four numpy calls for the whole stack
    state = np.stack([np.concatenate([a.ravel() for a in _net_arrays(net)]) for net in nets])
    scratch = np.empty_like(state)
    # one momentum per running statistic: mean and variance of each normalized block
    momenta = [norm.momentum for norm in norms if norm is not None for _ in range(2)]
    momentum = np.repeat(momenta, [math.prod(shape) for shape in shapes[n_params:]])
    decay = 1.0 - momentum
    rate = np.concatenate([np.full(split, lr), momentum])  # scales gradients and batch statistics
    arrays, outputs = _views(state, shapes), _views(scratch, shapes)
    # every step's rows are decoded into this one buffer
    batch = np.empty(len(nets) * min(batch_size, len(dataset)) * dataset.dim)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    alive = list(range(len(nets)))  # the nets still in the stack, in stack order
    results = [None] * len(nets)
    losses, accs = [[] for _ in nets], [[] for _ in nets]
    size = len(dataset)
    for epoch in range(epochs):
        order = np.stack([rngs[i].permutation(size) for i in alive])
        epoch_loss = np.zeros(len(alive))
        correct = np.zeros(len(alive), dtype=np.intp)
        for start in range(0, size, batch_size):
            idx = order[:, start : start + batch_size]
            y = dataset.labels[idx]
            x = dataset.rows(idx, out=batch[: idx.size * dataset.dim].reshape(*idx.shape, -1))
            loss, probs = _loss_and_grads(
                arrays[:n_params], eps, first.activation, x, y,
                outputs[:n_params], outputs[n_params:],
            )
            diverged = np.isnan(loss)
            if diverged.any():
                for k in np.flatnonzero(diverged):
                    _unstack(arrays, k, nets[alive[k]])
                    results[alive[k]] = TrainingDivergedError(
                        f"NaN loss at epoch {epoch}, batch starting {start}; "
                        "try a smaller learning rate"
                    )
                keep = ~diverged
                alive = [i for i, kept in zip(alive, keep) if kept]
                if not alive:
                    return results
                state, scratch = state[keep], scratch[keep]
                arrays, outputs = _views(state, shapes), _views(scratch, shapes)
                order, y, loss, probs, epoch_loss, correct = (
                    a[keep] for a in (order, y, loss, probs, epoch_loss, correct)
                )
            epoch_loss += loss * idx.shape[1]
            correct += np.count_nonzero(probs.argmax(axis=2) == y, axis=1)
            scratch *= rate
            state[:, :split] -= scratch[:, :split]
            state[:, split:] *= decay
            state[:, split:] += scratch[:, split:]
        for k, i in enumerate(alive):
            losses[i].append(float(epoch_loss[k]) / size)
            accs[i].append(int(correct[k]) / size)
    for k, i in enumerate(alive):
        _unstack(arrays, k, nets[i])
        results[i] = TrainLog(epoch_losses=tuple(losses[i]), epoch_accuracies=tuple(accs[i]))
    return results


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """One (S, *shape) view per shape into consecutive columns of the
    (S, total) buffer ``flat``."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[:, start:stop].reshape(len(flat), *shape))
        start = stop
    return views


def _unstack(arrays, k: int, net: Network):
    """Copy member ``k`` of the stacked arrays back into ``net``'s own."""
    for own, stacked in zip(_net_arrays(net), arrays):
        own[...] = stacked[k].reshape(own.shape)


def train_sgd(net: Network, dataset: Dataset, config: TrainConfig) -> TrainLog:
    """Plain SGD on one net, as a stack of one for ``train_sgd_stack``;
    mutates ``net`` in place.

    Deterministic given the config seed and the BLAS thread count.  Aborts
    with a diagnostic if the loss turns NaN.
    """
    (result,) = train_sgd_stack([net], dataset, [config])
    if isinstance(result, TrainingDivergedError):
        raise result
    return result


def evaluate_accuracy(net: Network, dataset: Dataset) -> float:
    _, _, probs = forward(net, dataset.rows())
    return float(np.mean(probs.argmax(axis=1) == dataset.labels))


# ---------------------------------------------------------------------------
# activation extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivationDump:
    layer: int
    class_id: int
    activations: np.ndarray  # (rows <= cap, n_layer)


def extract_class_activations(
    net: Network,
    dataset: Dataset,
    layer: int,
    class_id: int,
    cap: int,
    seed: int,
) -> ActivationDump:
    """Post-batch-norm layer outputs of up to ``cap`` points of one class,
    the rows ``Dataset.sample_class_indices`` draws with the given seed
    (inference mode)."""
    if not 1 <= layer <= len(net.hidden):
        raise ValueError(f"layer must be in 1..{len(net.hidden)}, got {layer}")
    idx = dataset.sample_class_indices(class_id, cap, seed)
    if len(idx) == 0:
        raise EmptyClassError(f"class {class_id} has no samples")
    activations, _, _ = forward(net, dataset.rows(idx))
    out = activations[layer - 1].copy()
    out.flags.writeable = False
    return ActivationDump(layer=layer, class_id=class_id, activations=out)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(net: Network, path):
    """Versioned JSON tensor dump; floats round-trip exactly."""
    doc = {
        "format": "bettinet-checkpoint",
        "version": CHECKPOINT_VERSION,
        "activation": {"kind": net.activation.kind, "coeffs": list(net.activation.coeffs)},
        "hidden": [
            {
                "weight": block.dense.weight.tolist(),
                "bias": block.dense.bias.tolist(),
                "norm": None
                if block.norm is None
                else {
                    "gamma": block.norm.gamma.tolist(),
                    "beta": block.norm.beta.tolist(),
                    "running_mean": block.norm.running_mean.tolist(),
                    "running_var": block.norm.running_var.tolist(),
                    "eps": block.norm.eps,
                    "momentum": block.norm.momentum,
                },
            }
            for block in net.hidden
        ],
        "output": {"weight": net.output.weight.tolist(), "bias": net.output.bias.tolist()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _load_dense(doc, where: str, fan_in: Optional[int]) -> DenseLayer:
    weight, bias = np.asarray(doc["weight"]), np.asarray(doc["bias"])
    if weight.ndim != 2:
        raise ValueError(f"{where}: weight has shape {weight.shape}, not (out, in)")
    if fan_in is not None and weight.shape[1] != fan_in:
        raise ValueError(
            f"{where}: weight takes {weight.shape[1]} inputs, the layer below gives {fan_in}"
        )
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"{where}: bias has shape {bias.shape}, expected ({weight.shape[0]},)")
    return DenseLayer(weight=weight, bias=bias)


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises ValueError, naming the file, when it is not a JSON checkpoint,
    and naming the layer when a weight does not take the width of the layer
    below or a bias or batch-norm vector does not match its layer's width.
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    if not (
        isinstance(doc, dict)
        and doc.get("format") == "bettinet-checkpoint"
        and doc.get("version") == CHECKPOINT_VERSION
    ):
        raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} checkpoint")
    act = doc["activation"]
    activation = ActivationFn(act["kind"], tuple(act["coeffs"]))
    hidden = []
    fan_in = None
    for layer, blk in enumerate(doc["hidden"], start=1):
        dense = _load_dense(blk, f"{path}: layer {layer}", fan_in)
        fan_in = dense.weight.shape[0]
        norm = None
        if blk["norm"] is not None:
            nd = blk["norm"]
            vectors = {
                key: np.asarray(nd[key]) for key in ("gamma", "beta", "running_mean", "running_var")
            }
            for key, vec in vectors.items():
                if vec.shape != (fan_in,):
                    raise ValueError(
                        f"{path}: layer {layer}: batch-norm {key} has shape {vec.shape}, "
                        f"expected ({fan_in},)"
                    )
            norm = BatchNorm(**vectors, eps=nd["eps"], momentum=nd["momentum"])
        hidden.append(HiddenBlock(dense=dense, norm=norm))
    output = _load_dense(doc["output"], f"{path}: layer {len(hidden) + 1} (output)", fan_in)
    return Network(hidden=hidden, output=output, activation=activation)
