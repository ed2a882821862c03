"""The dict-based SGD step that ``mlp.train_sgd`` is checked against bit for
bit: numpy's ``mean``/``var``, per-layer cache dicts, gradients keyed by
parameter name, every layer's input gradient computed.  Kept as written
before the trainer was trimmed; slow by design.  Its forward pass also
gives the extended-precision loss that ``gradient_check`` compares the
trainer's backprop against."""

from __future__ import annotations

import numpy as np

from bettinet import mlp


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward_train(net: mlp.Network, x: np.ndarray):
    caches = []
    for block in net.hidden:
        z = x @ block.dense.weight.T + block.dense.bias
        a = net.activation(z)
        if block.norm is not None:
            mu = a.mean(axis=0)
            var = a.var(axis=0)
            inv = 1.0 / np.sqrt(var + block.norm.eps)
            x_hat = (a - mu) * inv
            out = block.norm.gamma * x_hat + block.norm.beta
            caches.append({"x_in": x, "z": z, "a": a, "mu": mu, "var": var, "inv": inv, "x_hat": x_hat})
        else:
            out = a
            caches.append({"x_in": x, "z": z, "a": a})
        x = out
    logits = x @ net.output.weight.T + net.output.bias
    return caches, x, logits


def loss_and_grads(net: mlp.Network, x: np.ndarray, y: np.ndarray):
    n = len(x)
    caches, last, logits = forward_train(net, x)
    probs = _softmax(logits)
    eps = 1e-300
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + eps)))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    grads = {"output.weight": dlogits.T @ last, "output.bias": dlogits.sum(axis=0)}
    g = dlogits @ net.output.weight
    batch_stats = []
    for idx in range(len(net.hidden) - 1, -1, -1):
        block = net.hidden[idx]
        cache = caches[idx]
        if block.norm is not None:
            x_hat, inv = cache["x_hat"], cache["inv"]
            grads[f"hidden.{idx}.gamma"] = (g * x_hat).sum(axis=0)
            grads[f"hidden.{idx}.beta"] = g.sum(axis=0)
            dxhat = g * block.norm.gamma
            da = inv * (dxhat - dxhat.mean(axis=0) - x_hat * (dxhat * x_hat).mean(axis=0))
            batch_stats.append((idx, cache["mu"], cache["var"]))
        else:
            da = g
        dz = da * net.activation.grad(cache["z"])
        grads[f"hidden.{idx}.weight"] = dz.T @ cache["x_in"]
        grads[f"hidden.{idx}.bias"] = dz.sum(axis=0)
        g = dz @ block.dense.weight
    return loss, grads, batch_stats, probs


def train_sgd(net: mlp.Network, dataset, config: mlp.TrainConfig) -> mlp.TrainLog:
    rng = np.random.default_rng(config.seed)
    losses, accs = [], []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(dataset), config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = dataset.features[idx], dataset.labels[idx]
            loss, grads, batch_stats, probs = loss_and_grads(net, x, y)
            if np.isnan(loss):
                raise mlp.TrainingDivergedError(
                    f"NaN loss at epoch {epoch}, batch starting {start}; "
                    "try a smaller learning rate"
                )
            epoch_loss += loss * len(idx)
            correct += int(np.sum(probs.argmax(axis=1) == y))
            params = dict(mlp._param_items(net))
            for name, grad in grads.items():
                params[name] -= config.lr * grad
            for layer_idx, mu, var in batch_stats:
                norm = net.hidden[layer_idx].norm
                m = norm.momentum
                norm.running_mean *= 1.0 - m
                norm.running_mean += m * mu
                norm.running_var *= 1.0 - m
                norm.running_var += m * var
        losses.append(epoch_loss / len(dataset))
        accs.append(correct / len(dataset))
    return mlp.TrainLog(epoch_losses=tuple(losses), epoch_accuracies=tuple(accs))


def _kink_margin(net: mlp.Network, x: np.ndarray) -> float:
    """Smallest |pre-activation| anywhere; ReLU derivative is only trusted
    away from zero crossings."""
    caches, _, _ = forward_train(net, x)
    return min((float(np.min(np.abs(c["z"]))) for c in caches), default=np.inf)


def _loss(net: mlp.Network, x: np.ndarray, y: np.ndarray):
    """Training-mode loss in the precision of ``x``; float64 parameters are
    promoted to it."""
    _, _, logits = forward_train(net, x)
    probs = _softmax(logits)
    picked = np.maximum(probs[np.arange(len(x)), y], np.finfo(x.dtype).tiny)
    return -np.mean(np.log(picked))


def gradient_check(
    net: mlp.Network,
    x: np.ndarray,
    y: np.ndarray,
    step: float = 1e-5,
    kink_margin: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between ``mlp``'s backprop and central differences.

    For ReLU the batch is jittered (deterministically) until every
    pre-activation sits at least ``kink_margin`` from zero so that the
    finite-difference probes never cross an activation boundary.  The
    probes run in extended precision: batch norm makes some losses exactly
    invariant to a parameter, and in double precision the probe would
    return pure cancellation noise.
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

    params = [p.reshape(1, -1, p.shape[-1]) for _, p in mlp._param_items(net)]  # a stack of one
    eps = [None if block.norm is None else block.norm.eps for block in net.hidden]
    grads = [np.empty_like(p) for p in params]
    stats = [np.empty((1, 1, b.norm.gamma.size)) for b in net.hidden if b.norm for _ in "mv"]
    mlp._loss_and_grads(params, eps, net.activation, x[None], y[None], grads, stats)
    x_long = x.astype(np.longdouble)
    worst = 0.0
    for (_, param), grad in zip(mlp._param_items(net), grads):
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = _loss(net, x_long, y)
            flat[i] = orig - step
            lm = _loss(net, x_long, y)
            flat[i] = orig
            fd = float((lp - lm) / (2 * step))
            denom = max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst
