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
Forward passes and extraction on a frozen network may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

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
    "gradient_check",
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
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


def _forward_train(net: Network, x: np.ndarray):
    """Training-mode pass using batch statistics; caches (x_in, z, mu, var,
    inv, x_hat) per hidden block for backprop, the last four None without
    batch norm."""
    n = len(x)
    caches = []
    for block in net.hidden:
        z = x @ block.dense.weight.T + block.dense.bias
        a = net.activation(z)
        norm = block.norm
        if norm is None:
            caches.append((x, z, None, None, None, None))
            x = a
            continue
        # the operations numpy's mean and var run, without their wrappers
        mu = np.add.reduce(a, 0) / n
        d = a - mu
        var = np.add.reduce(d * d, 0) / n
        inv = 1.0 / np.sqrt(var + norm.eps)
        x_hat = d * inv
        caches.append((x, z, mu, var, inv, x_hat))
        x = norm.gamma * x_hat + norm.beta
    logits = x @ net.output.weight.T + net.output.bias
    return caches, x, logits


def _loss_and_grads(net: Network, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and parameter gradients (training-mode forward).

    ``grads`` follow ``_param_items`` order.  Pure: the network is not
    modified; (BatchNorm, mu, var) per normalized block are returned so the
    caller can fold them into the running estimates.
    """
    n = len(x)
    caches, last, logits = _forward_train(net, x)
    probs = _softmax(logits)
    rows = np.arange(n)
    loss = -float(np.add.reduce(np.log(probs[rows, y] + 1e-300)) / n)

    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
    dlogits /= n

    # built back to front, reversed into _param_items order at the end
    grads = [np.add.reduce(dlogits, 0), dlogits.T @ last]
    g = dlogits @ net.output.weight
    batch_stats = []
    for idx in range(len(net.hidden) - 1, -1, -1):
        block = net.hidden[idx]
        x_in, z, mu, var, inv, x_hat = caches[idx]
        if block.norm is not None:
            grads += [np.add.reduce(g, 0), np.add.reduce(g * x_hat, 0)]
            dxhat = g * block.norm.gamma
            g = inv * (dxhat - np.add.reduce(dxhat, 0) / n - x_hat * (np.add.reduce(dxhat * x_hat, 0) / n))
            batch_stats.append((block.norm, mu, var))
        dz = g * net.activation.grad(z)
        grads += [np.add.reduce(dz, 0), dz.T @ x_in]
        if idx:  # nothing reads the gradient of the input itself
            g = dz @ block.dense.weight
    grads.reverse()
    return loss, grads, batch_stats, probs


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float
    batch_size: int
    seed: int
    momentum: float = 0.0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("lr", 0), ("momentum", 0)):
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


def train_sgd(net: Network, dataset: Dataset, config: TrainConfig) -> TrainLog:
    """SGD with optional momentum; mutates ``net`` in place.

    Deterministic given the config seed and the BLAS thread count.  Aborts
    with a diagnostic if the loss turns NaN.
    """
    if dataset.dim != net.widths[0]:
        raise ValueError("dataset width does not match the network input")
    rng = np.random.default_rng(config.seed)
    params = [p for _, p in _param_items(net)]
    velocity = [np.zeros_like(p) for p in params]
    losses, accs = [], []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(dataset), config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = dataset.features[idx], dataset.labels[idx]
            loss, grads, batch_stats, probs = _loss_and_grads(net, x, y)
            if math.isnan(loss):
                raise TrainingDivergedError(
                    f"NaN loss at epoch {epoch}, batch starting {start}; "
                    "try a smaller learning rate"
                )
            epoch_loss += loss * len(idx)
            correct += int(np.count_nonzero(probs.argmax(axis=1) == y))
            for p, v, grad in zip(params, velocity, grads):
                v *= config.momentum
                grad *= config.lr
                v -= grad
                p += v
            for norm, *stats in batch_stats:
                for running, batch in zip((norm.running_mean, norm.running_var), stats):
                    running *= 1.0 - norm.momentum
                    running += norm.momentum * batch
        losses.append(epoch_loss / len(dataset))
        accs.append(correct / len(dataset))
    return TrainLog(epoch_losses=tuple(losses), epoch_accuracies=tuple(accs))


def evaluate_accuracy(net: Network, dataset: Dataset) -> float:
    _, _, probs = forward(net, dataset.features)
    return float(np.mean(probs.argmax(axis=1) == dataset.labels))


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------


def _loss_only(net: Network, x: np.ndarray, y: np.ndarray, dtype=np.float64) -> float:
    """Training-mode loss in a configurable precision.

    The finite-difference probes evaluate this in extended precision:
    batch-norm makes some losses exactly invariant to a parameter, and in
    double precision the probe would return pure cancellation noise.
    """
    cur = x.astype(dtype)
    coeffs = np.asarray(net.activation.coeffs, dtype=dtype) if net.activation.kind == "poly" else None
    for block in net.hidden:
        z = cur @ block.dense.weight.T.astype(dtype) + block.dense.bias.astype(dtype)
        a = np.maximum(z, dtype(0)) if coeffs is None else np.polynomial.polynomial.polyval(z, coeffs)
        if block.norm is not None:
            mu = a.mean(axis=0)
            var = ((a - mu) ** 2).mean(axis=0)
            x_hat = (a - mu) / np.sqrt(var + dtype(block.norm.eps))
            a = block.norm.gamma.astype(dtype) * x_hat + block.norm.beta.astype(dtype)
        cur = a
    logits = cur @ net.output.weight.T.astype(dtype) + net.output.bias.astype(dtype)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    picked = np.maximum(probs[np.arange(len(x)), y], np.finfo(dtype).tiny)
    return float(-np.mean(np.log(picked)))


def _kink_margin(net: Network, x: np.ndarray) -> float:
    """Smallest |pre-activation| anywhere; ReLU derivative is only trusted
    away from zero crossings."""
    caches, _, _ = _forward_train(net, x)
    return min((float(np.min(np.abs(z))) for _, z, *_ in caches), default=np.inf)


def gradient_check(
    net: Network,
    x: np.ndarray,
    y: np.ndarray,
    step: float = 1e-5,
    kink_margin: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between backprop and central differences.

    For ReLU the batch is jittered (deterministically) until every
    pre-activation sits at least ``kink_margin`` from zero so that the
    finite-difference probes never cross an activation boundary.
    """
    x = np.array(x, dtype=np.float64)
    y = np.asarray(y)
    if net.activation.kind == "relu":
        rng = np.random.default_rng(seed)
        for attempt in range(50):
            if _kink_margin(net, x) >= kink_margin:
                break
            x = x + rng.normal(scale=kink_margin * 3 * (1 + attempt), size=x.shape)
        else:
            raise RuntimeError("could not move the batch away from ReLU kinks")

    _, grads, _, _ = _loss_and_grads(net, x, y)
    worst = 0.0
    for (_, param), grad in zip(_param_items(net), grads):
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = _loss_only(net, x, y, dtype=np.longdouble)
            flat[i] = orig - step
            lm = _loss_only(net, x, y, dtype=np.longdouble)
            flat[i] = orig
            fd = float((lp - lm) / (2 * step))
            denom = max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst


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
    activations, _, _ = forward(net, dataset.features[idx])
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

    Raises ValueError, naming the layer, when a weight does not take the
    width of the layer below or a bias or batch-norm vector does not match
    its layer's width.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "bettinet-checkpoint" or doc.get("version") != CHECKPOINT_VERSION:
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
