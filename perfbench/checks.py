"""Output checks.  Each returns one verdict per operation: ``None`` when the
output is right, otherwise the reason.  The oracles are independent of the
code under test where one exists: scipy's minimum spanning tree and
connected components for dim 0, clique counting for the simplex total, and
a plain numpy forward pass read straight from the checkpoint files."""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from bettinet import bounds, data, mlp, semialgebraic

import cover
import inputs

MIN_RADIUS = 1e-3  # smallest radius of the default advisor grid
TIE_TOL = 1e-6


def digest(payload) -> str:
    if not isinstance(payload, (bytes, str)):
        payload = json.dumps(payload, sort_keys=True)
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _b0(points, radius):
    """Components of the graph joining points at distance <= radius."""
    if len(points) < 2:
        return len(points)
    adj = csr_matrix(squareform(pdist(points)) <= radius)
    return connected_components(adj, directed=False)[0]


def check_sweep(data_dir: Path, csv_text: str, widths, seeds, epochs, lr, batch_size, cap,
                hidden_layers=3):
    """Retrain every (width, seed) net with the documented sweep recipe and
    recompute its accuracy and its max-over-classes b0 at the smallest grid
    radius by connected components."""
    train = data.load_idx_dataset(data_dir, "train")
    test = data.load_idx_dataset(data_dir, "test")
    rows = [line.split(",") for line in csv_text.splitlines() if line]
    expected = [(w, s) for w in widths for s in seeds]
    verdicts = []
    for k, (width, seed) in enumerate(expected):
        if k >= len(rows) or len(rows[k]) != 4 or rows[k][:2] != [str(width), str(seed)]:
            verdicts.append(f"row {k} missing or out of order")
            continue
        shape = [train.dim] + [width] * hidden_layers + [train.n_classes]
        net = mlp.build_network(shape, mlp.relu_activation(), seed=seed, batch_norm=True)
        mlp.train_sgd(net, train, mlp.TrainConfig(epochs=epochs, lr=lr, batch_size=batch_size,
                                                  seed=seed))
        acc = f"{mlp.evaluate_accuracy(net, test):.6g}"
        b0 = max(
            _b0(mlp.extract_class_activations(net, train, hidden_layers, c, cap, seed).activations,
                MIN_RADIUS)
            for c in range(train.n_classes)
            if len(train.class_indices(c)) >= 2
        )
        if rows[k][2] != acc:
            verdicts.append(f"row {k}: accuracy {rows[k][2]} != {acc}")
        elif rows[k][3] != str(b0):
            verdicts.append(f"row {k}: b0 {rows[k][3]} != {b0}")
        else:
            verdicts.append(None)
    return verdicts


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def _clique_count(adj, size):
    """Number of cliques with ``size`` vertices (1..4) in a boolean adjacency."""
    n = len(adj)
    if size == 1:
        return n
    if size == 2:
        return int(adj.sum()) // 2
    a = adj.astype(np.float64)
    if size == 3:
        return int(round(np.trace(a @ a @ a))) // 6
    total = 0
    for i, j in zip(*np.nonzero(np.triu(adj, 1))):
        common = adj[i] & adj[j]
        common[: j + 1] = False
        idx = np.nonzero(common)[0]
        total += int(adj[np.ix_(idx, idx)].sum()) // 2
    return total


def check_barcode(csv_path: Path, max_dim: int, text: str, captured) -> str | None:
    """Dim-0 bars against the minimum spanning tree, and
    2 * paired + essential against an independent simplex count."""
    pts = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    dist = squareform(pdist(pts))
    radius = float(np.min(np.max(dist, axis=1)))
    lines = [line.split(",") for line in text.splitlines() if line]
    dim0 = [(b, d) for dim, b, d in lines if dim == "0"]
    if sum(d == "inf" for _, d in dim0) != 1 or any(b != "0" for b, _ in dim0):
        return "dim-0 bars are not one infinite bar plus finite bars born at 0"
    unique = np.unique(pts, axis=0)
    mst = minimum_spanning_tree(squareform(pdist(unique))).data
    expected = sorted(format(w, ".9g") for w in mst if w > 0)
    if sorted(d for _, d in dim0 if d != "inf") != expected:
        return "finite dim-0 deaths differ from the minimum-spanning-tree edges"
    adj = dist <= radius
    np.fill_diagonal(adj, False)
    n_simplices = sum(_clique_count(adj, k) for k in range(1, max_dim + 3))
    if captured is None:
        return "the barcode's pair counts were not captured"
    if captured["n_simplices"] != n_simplices:
        return f"filtration has {captured['n_simplices']} simplices, clique count {n_simplices}"
    if 2 * captured["paired"] + captured["essential"] != n_simplices:
        return "2 * paired + essential != simplex count"
    return None


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def _forward(doc, x, from_layer):
    """Logits of a checkpoint from layer ``from_layer`` on, in plain numpy."""
    coeffs = np.asarray(doc["activation"]["coeffs"], dtype=np.float64)
    relu = doc["activation"]["kind"] == "relu"
    for blk in doc["hidden"][from_layer:]:
        z = x @ np.asarray(blk["weight"]).T + np.asarray(blk["bias"])
        x = np.maximum(z, 0.0) if relu else sum(c * z**p for p, c in enumerate(coeffs))
        norm = blk["norm"]
        if norm is not None:
            scale = np.asarray(norm["gamma"]) / np.sqrt(np.asarray(norm["running_var"]) + norm["eps"])
            x = (x - np.asarray(norm["running_mean"])) * scale + np.asarray(norm["beta"])
    return x @ np.asarray(doc["output"]["weight"]).T + np.asarray(doc["output"]["bias"])


def _ties_hold(logits, class_j, alphas):
    scale = max(float(np.max(np.abs(logits))), 1e-12)
    others = [q for q in range(len(logits)) if q != class_j and q not in alphas]
    return all(abs(logits[class_j] - logits[a]) <= TIE_TOL * scale for a in alphas) and all(
        logits[q] - logits[class_j] <= TIE_TOL * scale for q in others
    )


_PIECE = re.compile(r"alphas=([\d,]+): (?:rank error|equations=\d+ free_dim=\d+ "
                    r"(?:region empty after \d+ attempts|points=(\d+) pass=(\d+)/(\d+) "
                    r"worst_margin=\S+))")


def _check_pieces(net, doc, query, text):
    """One verdict per piece: the report's pass count is complete, and every
    sampled point, re-drawn with the same seed, ties in a plain forward pass."""
    lines = text.splitlines()
    if lines[0] != f"boundary cover report: class {query['class_j']}, layer {query['layer']}":
        return ["report header is wrong"] * len(query["alphas"])
    verdicts = []
    for alphas, line in zip(query["alphas"], lines[1:]):
        m = _PIECE.match(line)
        if not m or m.group(1) != ",".join(map(str, alphas)):
            verdicts.append(f"malformed piece line {line!r}")
            continue
        if m.group(2) is None:
            verdicts.append(None)
            continue
        points, passed = int(m.group(2)), int(m.group(3))
        if passed != points:
            verdicts.append(f"{points - passed} sampled point(s) failed verify_ambiguity")
            continue
        sol = semialgebraic.solve_relu_boundary(net, query["class_j"], alphas, query["layer"])
        drawn = semialgebraic.sample_boundary(sol, count=inputs.COVER_COUNT, seed=query["seed"])
        if len(drawn.points) != points:
            verdicts.append("re-drawn sample differs from the report")
        elif not all(_ties_hold(_forward(doc, p.coords[None, :], query["layer"])[0],
                                query["class_j"], alphas) for p in drawn.points):
            verdicts.append("a sampled point does not tie in a plain forward pass")
        else:
            verdicts.append(None)
    if len(verdicts) != len(query["alphas"]):
        verdicts += ["piece line missing"] * (len(query["alphas"]) - len(verdicts))
    return verdicts


def _check_poly(doc, n_vars, result, rng):
    pts = rng.uniform(-1.0, 1.0, size=(5, n_vars))
    want = _forward(doc, pts, 0)
    got = np.array([[sum(c * np.prod(p ** np.asarray(e)) for e, c in terms) for terms in result]
                    for p in pts])
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-8, atol=1e-8):
        return "symbolic logits disagree with a plain forward pass"
    return None


def _bound(query, width):
    arch = cover.arch(query, free_width=width)
    return bounds.layer_bound_profile(arch, query["k"]).entries[query["layer"]]


def check_cover_round(round_dir: Path, result) -> list:
    spec, nets = cover.load_round(round_dir)
    docs = {name: json.loads((round_dir / name).read_text()) for name in nets}
    verdicts = []
    for q, r in zip(spec["cover"], result["cover"]):
        if "error" in r:
            verdicts += ["raised: " + r["error"]] * len(q["alphas"])
        else:
            verdicts += _check_pieces(nets[q["net"]], docs[q["net"]], q, r["text"])
    rng = np.random.default_rng(0)
    for q, r in zip(spec["poly"], result["poly"]):
        doc = docs[q["net"]]
        n_vars = len(doc["hidden"][0]["weight"][0])
        verdicts.append("raised: " + r["error"] if "error" in r
                        else _check_poly(doc, n_vars, r["terms"], rng))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for q, r in zip(spec["bounds"], result["bounds"]):
            layers = len(q["widths"]) - 1 if q["act"] == "poly" else len(q["widths"]) - 2
            if "error" in r:
                verdicts.append("raised: " + r["error"])
            elif len(r["records"]) != layers or len(r["text"].splitlines()) != layers + 2:
                verdicts.append("bound table does not have one row per layer")
            else:
                verdicts.append(None)
        for q, r in zip(spec["widths"], result["widths"]):
            if "error" in r:
                verdicts.append("raised: " + r["error"])
                continue
            w = r["width"]
            if _bound(q, w) < q["target"] or (w > 1 and _bound(q, w - 1) >= q["target"]):
                verdicts.append(f"width {w} is not the smallest reaching {q['target']}")
            else:
                verdicts.append(None)
    return verdicts
