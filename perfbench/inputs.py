"""Seeded input generators.  The program only ever sees the files written
here; the seed stays with the benchmark."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from bettinet import data, mlp

# sweep: distinct synthetic data sets, one per pool item, so that the median
# over a run's iterations averages the seed-to-seed spread of the cost
SWEEP_DATASETS = 2

# homology: each pair is one 300-point cloud at --max-dim 1 and one 80-point
# cloud at --max-dim 2; one iteration runs one pair
HOMOLOGY_PAIRS = 3
HOMOLOGY_CLOUDS = (("big", 25, 12, 1), ("small", 10, 8, 2))  # tag, u-steps, v-steps, max-dim

# cover pool: rounds of in-process library traffic
COVER_ROUNDS = 8
RELU_NETS = 40
POLY_NETS = 8
BOUND_QUERIES = 40
WIDE_QUERIES = 4  # of the bound queries, wide enough to pass 4300 decimal digits
WIDTH_QUERIES = 20
COVER_COUNT = 20  # boundary points requested per piece, the CLI default


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


# Each ``*_inputs`` writes its files under ``out`` and returns the pool: one
# JSON-ready description per distinct iteration.


def sweep_inputs(seed, out: Path):
    """Data sets of 2000 train / 1000 test synthetic images, each an IDX
    directory."""
    pool = []
    for k in range(SWEEP_DATASETS):
        data_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        train, test = data.make_image_dataset(2000, 1000, data_seed)
        path = out / str(k)
        path.mkdir(parents=True, exist_ok=True)
        data.write_idx_images(path / "train-images-idx3-ubyte", train.features, 28, 28)
        data.write_idx_labels(path / "train-labels-idx1-ubyte", train.labels)
        data.write_idx_images(path / "t10k-images-idx3-ubyte", test.features, 28, 28)
        data.write_idx_labels(path / "t10k-labels-idx1-ubyte", test.labels)
        pool.append({"data": str(path)})
    return pool


def noisy_torus(rng, n_u, n_v, major=2.0, minor=0.8, noise=0.05):
    """Torus in R^3 sampled on a jittered (u, v) grid plus Gaussian noise.

    The grid keeps the enclosing radius, and so the filtration size, nearly
    the same from seed to seed."""
    gu, gv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    u = (gu.ravel() + rng.uniform(0, 1, gu.size)) * 2 * np.pi / n_u
    v = (gv.ravel() + rng.uniform(0, 1, gv.size)) * 2 * np.pi / n_v
    ring = major + minor * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)
    return pts + rng.normal(scale=noise, size=pts.shape)


def homology_inputs(seed, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    pool = []
    for pair in range(HOMOLOGY_PAIRS):
        clouds = []
        for k, (tag, n_u, n_v, max_dim) in enumerate(HOMOLOGY_CLOUDS):
            path = out / f"{pair}-{tag}.csv"
            np.savetxt(path, noisy_torus(_rng(seed, pair, k), n_u, n_v), delimiter=",",
                       fmt="%.17g")
            clouds.append({"csv": str(path), "max_dim": max_dim})
        pool.append({"clouds": clouds})
    return pool


def _relu_net(rng, batch_norm):
    n1 = int(rng.integers(3, 7))
    n2 = int(rng.integers(3, n1 + 1))
    net = mlp.build_network([6, n1, n2, 4], mlp.relu_activation(), seed=int(rng.integers(2**31)),
                            batch_norm=batch_norm)
    _randomize(rng, net)
    return net


def _poly_net(rng, batch_norm):
    depth = int(rng.integers(2, 5))  # affine maps, within the composition cap of 4
    widths = [int(rng.integers(2, 4)) for _ in range(depth)] + [int(rng.integers(2, 4))]
    coeffs = (float(rng.normal(scale=0.3)), float(rng.normal(scale=0.5)), 1.0)
    net = mlp.build_network(widths, mlp.poly_activation(coeffs), seed=int(rng.integers(2**31)),
                            batch_norm=batch_norm)
    _randomize(rng, net)
    return net


def _randomize(rng, net):
    """Random biases and batch-norm statistics (the builder zeroes them)."""
    for block in net.hidden:
        block.dense.bias[:] = rng.normal(scale=0.5, size=block.dense.bias.shape)
        if block.norm is not None:
            n = block.norm.gamma.shape
            block.norm.gamma[:] = rng.uniform(0.5, 1.5, n)
            block.norm.beta[:] = rng.normal(scale=0.3, size=n)
            block.norm.running_mean[:] = rng.normal(scale=0.3, size=n)
            block.norm.running_var[:] = rng.uniform(0.5, 1.5, n)
    net.output.bias[:] = rng.normal(scale=0.5, size=net.output.bias.shape)


def _bound_arch(rng):
    act = "relu" if rng.random() < 0.6 else "poly"
    depth = int(rng.integers(2, 5))
    hidden = sorted((int(w) for w in rng.integers(2, 257, size=depth)), reverse=True)
    widths = [int(rng.choice([8, 64, 256, 784]))] + hidden + [int(rng.integers(2, 11))]
    return {"widths": widths, "act": act, "degree": 2, "k": int(rng.integers(0, 2))}


def _wide_arch(rng, first):
    hidden = [4096] * 3 if first else [int(w) for w in rng.integers(4096, 6145, size=3)]
    return {"widths": [784] + hidden + [10], "act": "relu", "degree": 2, "k": 0}


def cover_round(seed, rnd, out: Path):
    """One round: checkpoints of ReLU and polynomial nets plus a spec of
    every cover, bound and width query."""
    rng = _rng(seed, 1000 + rnd)
    out.mkdir(parents=True, exist_ok=True)
    spec = {"cover": [], "poly": [], "bounds": [], "widths": []}
    for i in range(RELU_NETS):
        path = out / f"relu-{i}.json"
        mlp.save_checkpoint(_relu_net(rng, batch_norm=i % 2 == 1), path)
        for j in range(4):
            others = [q for q in range(4) if q != j]
            single = [int(rng.choice(others))]
            pair = sorted(int(a) for a in rng.choice(others, size=2, replace=False))
            for layer in (1, 2):
                spec["cover"].append({"net": path.name, "class_j": j, "layer": layer,
                                      "alphas": [single, pair], "seed": int(rng.integers(2**31))})
    for i in range(POLY_NETS):
        path = out / f"poly-{i}.json"
        mlp.save_checkpoint(_poly_net(rng, batch_norm=i % 2 == 1), path)
        spec["poly"].append({"net": path.name})
    wide_at = set(int(i) for i in rng.choice(BOUND_QUERIES, size=WIDE_QUERIES, replace=False))
    for i in range(BOUND_QUERIES):
        wide = i in wide_at
        spec["bounds"].append(dict(_wide_arch(rng, i == min(wide_at)) if wide else _bound_arch(rng),
                                   wide=wide))
    for _ in range(WIDTH_QUERIES):
        arch = _bound_arch(rng)
        depth = len(arch["widths"]) - 1
        # a polynomial bound on the last hidden layer does not grow with its width
        arch["layer"] = int(rng.integers(1, depth if arch["act"] == "relu" else depth - 1))
        arch["target"] = int(10 ** rng.uniform(1, 12))
        spec["widths"].append(arch)
    (out / "spec.json").write_text(json.dumps(spec, indent=0))


def cover_inputs(seed, out: Path):
    rounds = [out / f"round-{rnd}" for rnd in range(COVER_ROUNDS)]
    for rnd, path in enumerate(rounds):
        cover_round(seed, rnd, path)
    return [{"round": str(path)} for path in rounds]
