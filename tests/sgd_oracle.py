"""The dict-based SGD step that ``mlp.train_sgd`` is checked against bit for
bit: numpy's ``mean``/``var``, per-layer cache dicts, gradients keyed by
parameter name, every layer's input gradient computed.  Kept as written
before the trainer was trimmed; slow by design."""

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


def param_items(net: mlp.Network):
    for idx, block in enumerate(net.hidden):
        yield f"hidden.{idx}.weight", block.dense.weight
        yield f"hidden.{idx}.bias", block.dense.bias
        if block.norm is not None:
            yield f"hidden.{idx}.gamma", block.norm.gamma
            yield f"hidden.{idx}.beta", block.norm.beta
    yield "output.weight", net.output.weight
    yield "output.bias", net.output.bias


def train_sgd(net: mlp.Network, dataset, config: mlp.TrainConfig) -> mlp.TrainLog:
    rng = np.random.default_rng(config.seed)
    velocity = {name: np.zeros_like(p) for name, p in param_items(net)}
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
            params = dict(param_items(net))
            for name, grad in grads.items():
                v = velocity[name]
                v *= config.momentum
                v -= config.lr * grad
                params[name] += v
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
