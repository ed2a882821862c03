"""One round of the ``cover`` workload: in-process library traffic with no
homology.  Loading the round's checkpoints is set-up; every call after it
is measured work."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from bettinet import bounds, mlp, semialgebraic

import inputs
import spans


def load_round(round_dir: Path):
    spec = json.loads((round_dir / "spec.json").read_text())
    names = {c["net"] for c in spec["cover"]} | {p["net"] for p in spec["poly"]}
    nets = {name: mlp.load_checkpoint(round_dir / name) for name in sorted(names)}
    return spec, nets


def arch(query, free_width=None):
    widths = list(query["widths"])
    if free_width is not None:
        widths[query["layer"]] = free_width
    activation = bounds.Activation(query["act"], query["degree"])
    return bounds.ArchitectureSpec(widths=tuple(widths), activation=activation)


def _attempt(fn):
    """Run one operation; a raised error is recorded as the operation's result."""
    spans.new_op()
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_round(spec, nets):
    """Every operation of the round, in spec order.  Returns JSON-ready
    results; the checks run later in another process."""
    out = {"cover": [], "poly": [], "bounds": [], "widths": []}
    for q in spec["cover"]:
        out["cover"].append(_attempt(lambda: {"text": semialgebraic.cover_report(
            nets[q["net"]], layer=q["layer"], class_j=q["class_j"], alpha_sets=q["alphas"],
            count=inputs.COVER_COUNT, seed=q["seed"])}))
    for q in spec["poly"]:
        out["poly"].append(_attempt(lambda: {"terms": [
            [[list(e), c] for e, c in sorted(p.terms.items())]
            for p in semialgebraic.compose_logit_polynomials(nets[q["net"]])]}))
    with warnings.catch_warnings():
        # random architectures need not be non-increasing; the bounds warn
        warnings.simplefilter("ignore")
        for q in spec["bounds"]:
            # what ``bettinet bounds`` computes and prints
            def query(q=q):
                report = bounds.layer_bound_profile(arch(q), q["k"])
                return {"text": report.to_text(), "records": report.records()}

            out["bounds"].append(_attempt(query))
        for q in spec["widths"]:
            out["widths"].append(_attempt(lambda: {"width": bounds.min_width_for(
                arch(q), layer=q["layer"], k=q["k"], target=q["target"])}))
    return out

