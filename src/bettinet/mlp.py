"""Minimal dense-network trainer: affine layers, ReLU or polynomial
activation, batch normalization after the activation, softmax
cross-entropy, plain SGD.

Layer numbering follows the bound formulas: widths [n_0, ..., n_l] give l
affine maps; X^0 is the input and X^k (k = 1..l-1) is the post-activation,
post-batch-norm output of hidden block k.  Inference mode uses running
batch-norm statistics, so activation extraction is a deterministic affine
function of the patterns and repeated extractions agree bit for bit.
``Network`` holds every rule of a valid network and checks it when made.

Training is deterministic given its seed and the BLAS thread count: BLAS
may split a product differently across threads and round it differently.
It does not depend on stacking: ``train_sgd_stack`` trains same-shape nets
in lockstep, paying numpy's per-call cost once per step for all of them,
and leaves each with the weights ``train_sgd`` (a stack of one) gives it.
The stack keeps one record per layer: the arrays that ``_layer_arrays``
names in each net, stacked over the nets under the same names.
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
# the per-unit arrays of a ``BatchNorm``, as checkpoints name them; training
# moves the running statistics toward each batch's, the others by gradient
RUNNING_STATS = ("running_mean", "running_var")
BATCH_NORM_VECTORS = ("gamma", "beta") + RUNNING_STATS
# Rows that ``evaluate_accuracy`` decodes and forwards at a time.
EVAL_BLOCK_ROWS = 256


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
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("polynomial coefficients must be finite")

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


@dataclass
class BatchNorm:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    def infer(self, a: np.ndarray) -> np.ndarray:
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return self.gamma * (a - self.running_mean) * inv + self.beta


@dataclass
class HiddenBlock:
    dense: DenseLayer
    norm: Optional[BatchNorm]


@dataclass
class Network:
    """Made only if valid: each weight is a finite (out, in) array, out and
    in >= 1, taking the width of the layer below; the bias and batch-norm
    vectors are finite and of the layer's width; eps is finite and > 0, and
    running variances are >= 0.  A ValueError names the layer."""

    hidden: list[HiddenBlock]
    output: DenseLayer
    activation: ActivationFn

    def __post_init__(self):
        norms = [block.norm for block in self.hidden] + [None]
        for layer, (arrays, norm) in enumerate(zip(_layer_arrays(self), norms), start=1):
            where = f"layer {layer}" + (" (output)" if layer == len(norms) else "")
            weight = arrays["weight"]
            if weight.ndim != 2 or weight.size == 0:
                raise ValueError(f"{where}: weight has shape {weight.shape}, not (out, in)")
            if layer > 1 and weight.shape[1] != width:
                raise ValueError(f"{where}: weight takes {weight.shape[1]} inputs, "
                                 f"the layer below gives {width}")
            width = weight.shape[0]
            for key, array in arrays.items():
                name = f"batch-norm {key}" if key in BATCH_NORM_VECTORS else key
                if key != "weight" and array.shape != (width,):
                    raise ValueError(f"{where}: {name} has shape {array.shape}, expected ({width},)")
                if not np.isfinite(array).all():
                    raise ValueError(f"{where}: {name} is not finite")
            if norm is None:
                continue
            if not 0 < norm.eps < math.inf:
                raise ValueError(f"{where}: batch-norm eps must be finite and > 0, got {norm.eps}")
            if (norm.running_var < 0).any():
                raise ValueError(f"{where}: batch-norm running_var must be >= 0")

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


def _layer_arrays(net: Network) -> list[dict[str, np.ndarray]]:
    """Each layer's arrays by name, the hidden blocks' and then the output
    layer's: ``weight`` and ``bias``, and a normalized block's
    ``BATCH_NORM_VECTORS``."""
    layers = [(block.dense, block.norm) for block in net.hidden] + [(net.output, None)]
    records = []
    for dense, norm in layers:
        arrays = {"weight": dense.weight, "bias": dense.bias}
        if norm is not None:
            arrays.update((key, getattr(norm, key)) for key in BATCH_NORM_VECTORS)
        records.append(arrays)
    return records


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

    The batch is one row, a (B, n) matrix, or a stack of shape (..., n);
    every result keeps the batch's leading axes.  A (P, 1, n) stack gives
    each of its P rows, bit for bit, what a (1, n) batch of that row gives:
    numpy runs the product of each slice of a stacked matmul as its own
    BLAS call, the call of the 2-D product.  A (P, n) batch is one product
    over all rows, which BLAS may round in other last bits.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if not 0 <= from_layer < net.depth:
        raise ValueError(f"from_layer must be in 0..{net.depth - 1}")
    width = net.widths[from_layer]
    if x.shape[-1] != width:
        raise ValueError(f"expected width {width} at layer {from_layer}, got {x.shape[-1]}")
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


def _loss_and_grads(layers, norms, activation: ActivationFn, x: np.ndarray, y: np.ndarray, grads):
    """Mean cross-entropy and softmax output of each net of a stack, in
    training mode: batch norm normalizes with each batch's statistics.

    ``layers`` are the nets' ``_layer_arrays`` records stacked by name:
    (S, out, in) weights and (S, 1, n) vectors.  ``norms[k]`` is hidden
    block k's ``BatchNorm``, whose eps is read, or None without batch norm.
    ``x`` is (S, B, n_0) and ``y`` (S, B).  ``grads`` are records stacked
    like ``layers``: each parameter's gradient goes under its name, and a
    normalized block's batch mean and variance under ``running_mean`` and
    ``running_var``, for the caller to fold into the running estimates.
    Nothing else is modified.
    """
    n = x.shape[1]
    caches = []  # (x_in, z, inv, x_hat) per hidden block, the last two None without batch norm
    for layer, norm, grad in zip(layers, norms, grads):
        z = x @ layer["weight"].transpose(0, 2, 1) + layer["bias"]
        a = activation(z)
        if norm is None:
            caches.append((x, z, None, None))
            x = a
            continue
        # the operations numpy's mean and var run, without their wrappers
        mu = np.divide(_batch_sum(a), n, out=grad["running_mean"])
        d = a - mu
        var = np.divide(_batch_sum(d * d), n, out=grad["running_var"])
        inv = 1.0 / np.sqrt(var + norm.eps)
        x_hat = d * inv
        caches.append((x, z, inv, x_hat))
        x = layer["gamma"] * x_hat + layer["beta"]
    output = layers[-1]  # x is now its input
    logits = x @ output["weight"].transpose(0, 2, 1) + output["bias"]
    probs = _softmax(logits)
    picked = (np.arange(len(x))[:, None], np.arange(n), y)
    losses = -(np.add.reduce(np.log(probs[picked] + 1e-300), 1) / n)

    dlogits = probs.copy()
    dlogits[picked] -= 1.0
    dlogits /= n

    _batch_sum(dlogits, grads[-1]["bias"])
    np.matmul(dlogits.transpose(0, 2, 1), x, out=grads[-1]["weight"])
    g = dlogits @ output["weight"]
    for idx in range(len(caches) - 1, -1, -1):
        layer, grad = layers[idx], grads[idx]
        x_in, z, inv, x_hat = caches[idx]
        if norms[idx] is not None:
            _batch_sum(g, grad["beta"])
            _batch_sum(g * x_hat, grad["gamma"])
            dxhat = g * layer["gamma"]
            g = inv * (dxhat - _batch_sum(dxhat) / n - x_hat * (_batch_sum(dxhat * x_hat) / n))
        dz = g * activation.grad(z)
        _batch_sum(dz, grad["bias"])
        np.matmul(dz.transpose(0, 2, 1), x_in, out=grad["weight"])
        if idx:  # nothing reads the gradient of the input itself
            g = dz @ layer["weight"]
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
    stopped it.  A net whose loss turns NaN gets back its parameters and
    running statistics from before the failing step, and stays in the
    stack: its later steps are computed and ignored, and the others go on.
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
    # each layer's arrays (``_layer_arrays``) stacked over the nets, by name:
    # (S, out, in) weights and (S, 1, n) vectors; ``grads`` takes a step's
    # gradients and batch statistics under the same names
    layers = [
        {key: np.stack([arrays[key].reshape(-1, arrays[key].shape[-1]) for arrays in same])
         for key in same[0]}
        for same in zip(*map(_layer_arrays, nets))
    ]
    grads = [{key: np.empty_like(a) for key, a in layer.items()} for layer in layers]
    # what each step updates, paired once: every parameter with its
    # gradient, and every running statistic with its batch statistic and
    # its block's momentum
    params = [(layer[key], grad[key]) for layer, grad in zip(layers, grads)
              for key in layer if key not in RUNNING_STATS]
    stats = [(layer[key], grad[key], norm.momentum)
             for layer, grad, norm in zip(layers, grads, norms) if norm is not None
             for key in RUNNING_STATS]
    # every step's rows are decoded into this one buffer
    batch = np.empty(len(nets) * min(batch_size, len(dataset)) * dataset.dim)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    results = [None] * len(nets)
    # per epoch and net: the summed batch losses and the rows classified right
    loss_sums = np.zeros((epochs, len(nets)))
    hits = np.zeros((epochs, len(nets)), dtype=np.intp)
    size = len(dataset)
    # a diverging step overflows before its loss turns NaN; the NaN check
    # below is the diagnostic, so numpy's floating-point warnings are muted
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            order = np.stack([rng.permutation(size) for rng in rngs])
            for start in range(0, size, batch_size):
                idx = order[:, start : start + batch_size]
                y = dataset.labels[idx]
                x = dataset.rows(idx, out=batch[: idx.size * dataset.dim].reshape(*idx.shape, -1))
                loss, probs = _loss_and_grads(layers, norms, first.activation, x, y, grads)
                for k in np.flatnonzero(np.isnan(loss)).tolist():
                    if results[k] is None:
                        _unstack(layers, k, nets[k])
                        results[k] = TrainingDivergedError(
                            f"NaN loss at epoch {epoch}, batch starting {start}; "
                            "try a smaller learning rate"
                        )
                if None not in results:
                    return results
                loss_sums[epoch] += loss * idx.shape[1]
                hits[epoch] += np.count_nonzero(probs.argmax(axis=2) == y, axis=1)
                for param, grad in params:
                    grad *= lr
                    param -= grad
                for stat, batch_stat, m in stats:
                    batch_stat *= m
                    stat *= 1.0 - m
                    stat += batch_stat
    losses, accs = (loss_sums / size).T.tolist(), (hits / size).T.tolist()
    for k, net in enumerate(nets):
        if results[k] is None:
            _unstack(layers, k, net)
            results[k] = TrainLog(tuple(losses[k]), tuple(accs[k]))
    return results


def _unstack(layers, k: int, net: Network):
    """Copy member ``k`` of the stacked layer records back into ``net``'s
    own arrays, by name."""
    for own, stacked in zip(_layer_arrays(net), layers):
        for key, array in own.items():
            array[...] = stacked[key][k].reshape(array.shape)


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
    """Share of the rows of ``dataset`` whose most probable class (inference
    mode) is their label.

    The rows are decoded and forwarded ``EVAL_BLOCK_ROWS`` at a time, so the
    memory held does not grow with the split.  BLAS may round a block's
    products in other last bits than one whole-split product's, which can
    move an argmax only at a near tie.
    """
    correct = 0
    for start in range(0, len(dataset), EVAL_BLOCK_ROWS):
        block = slice(start, start + EVAL_BLOCK_ROWS)
        _, _, probs = forward(net, dataset.rows(block))
        correct += int(np.count_nonzero(probs.argmax(axis=1) == dataset.labels[block]))
    return correct / len(dataset)


# ---------------------------------------------------------------------------
# activation extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivationDump:
    layer: int
    class_id: int
    activations: np.ndarray  # (rows <= cap, n_layer)


def extract_class_activations(
    net: Optional[Network],
    dataset: Dataset,
    layer: int,
    class_id: int,
    cap: int,
    seed: int,
) -> ActivationDump:
    """Post-batch-norm layer outputs of up to ``cap`` points of one class,
    the rows ``Dataset.sample_class_indices`` draws with the given seed
    (inference mode), read-only.  Layer 0 is the input: the rows
    themselves, without a forward pass, so ``net`` may be None."""
    if layer != 0 and not 1 <= layer <= len(net.hidden):
        raise ValueError(f"layer must be in 1..{len(net.hidden)}, got {layer}")
    idx = dataset.sample_class_indices(class_id, cap, seed)
    if len(idx) == 0:
        raise EmptyClassError(f"class {class_id} has no samples")
    out = dataset.rows(idx)
    if layer:
        out = forward(net, out)[0][layer - 1]
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
                    **{key: getattr(block.norm, key).tolist() for key in BATCH_NORM_VECTORS},
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


def _arrays(doc, keys) -> dict:
    return {key: np.asarray(doc[key], dtype=float) for key in keys}


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by ``save_checkpoint``: convert the JSON
    document into the dataclasses, which ``Network`` checks.  Any fault is
    a ValueError naming the file, and the layer where one is at fault."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # also an undecodable byte or an over-long integer
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    if not (
        isinstance(doc, dict)
        and doc.get("format") == "bettinet-checkpoint"
        and doc.get("version") == CHECKPOINT_VERSION
    ):
        raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} checkpoint")
    where = f"{path}: "  # and the layer being converted
    try:
        act = doc["activation"]
        activation = ActivationFn(act["kind"], tuple(float(c) for c in act["coeffs"]))
        hidden = []
        for layer, blk in enumerate(doc["hidden"], start=1):
            where = f"{path}: layer {layer}: "
            nd = blk["norm"]
            norm = None if nd is None else BatchNorm(
                **_arrays(nd, BATCH_NORM_VECTORS), eps=float(nd["eps"]), momentum=float(nd["momentum"]))
            hidden.append(HiddenBlock(dense=DenseLayer(**_arrays(blk, ("weight", "bias"))), norm=norm))
        where = f"{path}: layer {len(hidden) + 1} (output): "
        output = DenseLayer(**_arrays(doc["output"], ("weight", "bias")))
        where = f"{path}: "  # a broken rule names its own layer
        return Network(hidden=hidden, output=output, activation=activation)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{where}{reason}") from None
