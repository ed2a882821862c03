"""Topology-based expressiveness analysis: compare the Betti profiles of
input classes against layer outputs, flag representations that lose
components, and sweep layer widths.

``layer_profile`` is the one profile function; its layer 0 is the input
features (as in Naitzat, Zhitnikova & Lim 2020), and every layer is
measured on the same sampled rows of each class.

"b0 at minimum radius" means the b0 value at the smallest strictly
positive radius of the configured grid (default: 64 log-spaced radii from
1e-3 to the largest class diameter).  Narrow layers collapse distinct
samples onto coincident activation vectors, which is exactly what this
number detects.

``layer_profile``'s ``max_dim`` sets what a profile holds.  At 0 each
class gets only its b0 curve, exact from a minimum spanning tree;
``width_sweep`` reads nothing else.  At 1 (the default, and what
``analyze`` computes) each class gets its dim-1 Rips barcode and b0/b1
curves.  Either way the classes are profiled one after another in the
calling process.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import DEFAULT_CLASS_CAP, DEFAULT_THRESHOLD, SWEEP_HIDDEN_LAYERS
from .data import Dataset
from .homology import (
    Barcode,
    GeometryError,
    b0_curve,
    betti_curve,
    pairwise_distances,
    rips_persistence,
)
from .mlp import (
    ActivationFn,
    Network,
    TrainConfig,
    TrainingDivergedError,
    build_network,
    evaluate_accuracy,
    extract_class_activations,
    train_sgd_stack,
)

__all__ = [
    "ClassCurves",
    "ClassProfile",
    "ClassComparison",
    "ExpressivenessReport",
    "SweepRow",
    "SweepResult",
    "default_radius_grid",
    "layer_profile",
    "compare_profiles",
    "width_sweep",
]

DEFAULT_GRID_SIZE = 64
DEFAULT_MIN_RADIUS = 1e-3


@dataclass(frozen=True)
class ClassCurves:
    grid: np.ndarray
    b0: np.ndarray
    b1: Optional[np.ndarray]  # None in a max_dim=0 profile
    barcode: Optional[Barcode]  # None in a max_dim=0 profile

    @property
    def b0_at_min_radius(self) -> int:
        positive = np.nonzero(self.grid > 0)[0]
        if len(positive) == 0:
            raise ValueError("radius grid has no positive entries")
        return int(self.b0[positive[0]])


@dataclass(frozen=True)
class ClassProfile:
    curves: dict[int, ClassCurves]
    grid: np.ndarray

    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.curves))

    def max_b0_at_min_radius(self) -> int:
        return max(c.b0_at_min_radius for c in self.curves.values())


def default_radius_grid(max_distance: float) -> np.ndarray:
    top = max(float(max_distance), DEFAULT_MIN_RADIUS * 2)
    return np.geomspace(DEFAULT_MIN_RADIUS, top, DEFAULT_GRID_SIZE)


def _curves_for_cloud(dist: np.ndarray, grid: np.ndarray, max_dim: int) -> ClassCurves:
    if max_dim == 0:
        return ClassCurves(grid=grid, b0=b0_curve(dist, grid), b1=None, barcode=None)
    barcode = rips_persistence(dist, max_dim=1)
    return ClassCurves(
        grid=grid,
        b0=betti_curve(barcode, 0, grid),
        b1=betti_curve(barcode, 1, grid),
        barcode=barcode,
    )


def _profiled_classes(dataset: Dataset, per_class_cap: int) -> list[int]:
    """Return the classes with at least two points; the others are skipped
    with a warning, and a dataset with no such class raises ValueError."""
    if per_class_cap < 2:
        raise ValueError("per_class_cap must be >= 2")
    classes = []
    for c in range(dataset.n_classes):
        size = len(dataset.class_indices(c))
        if size < 2:
            warnings.warn(f"class {c} has {size} point(s); skipped", stacklevel=3)
            continue
        classes.append(c)
    if not classes:
        raise ValueError("no class has two points to profile")
    return classes


def layer_profile(
    net: Optional[Network],
    dataset: Dataset,
    layer: int,
    per_class_cap: int = DEFAULT_CLASS_CAP,
    radius_grid: Optional[np.ndarray] = None,
    seed: int = 0,
    max_dim: int = 1,
) -> ClassProfile:
    """Per-class b0 (and at ``max_dim=1`` b1) curves of the layer outputs
    (inference mode).  Layer 0 is the input features, and needs no
    ``net``; every layer draws the same rows for the same cap and seed.

    Classes with fewer than two points are skipped with a warning.
    """
    if max_dim not in (0, 1):
        raise ValueError(f"max_dim must be 0 or 1, got {max_dim}")
    dists = {
        c: pairwise_distances(
            extract_class_activations(net, dataset, layer, c, per_class_cap, seed).activations
        )
        for c in _profiled_classes(dataset, per_class_cap)
    }
    if radius_grid is None:
        max_dist = max((float(d.max()) for d in dists.values()), default=0.0)
        radius_grid = default_radius_grid(max_dist)
    grid = np.asarray(radius_grid, dtype=np.float64)
    curves = {c: _curves_for_cloud(dist, grid, max_dim) for c, dist in dists.items()}
    return ClassProfile(curves=curves, grid=grid)


@dataclass(frozen=True)
class ClassComparison:
    class_id: int
    input_b0: int
    layer_b0: int
    ratio: float
    flagged: bool


@dataclass(frozen=True)
class ExpressivenessReport:
    classes: tuple[ClassComparison, ...]
    threshold_fraction: float
    efficient: bool
    max_layer_b0_min_radius: int
    accuracy: Optional[float] = None

    def to_text(self) -> str:
        lines = [
            "class  input_b0  layer_b0  ratio   flag",
        ]
        for c in self.classes:
            lines.append(
                f"{c.class_id:5d}  {c.input_b0:8d}  {c.layer_b0:8d}  "
                f"{c.ratio:5.2f}   {'INEFFICIENT' if c.flagged else 'ok'}"
            )
        verdict = "efficient" if self.efficient else "inefficient"
        lines.append(
            f"aggregate: {verdict} (threshold {self.threshold_fraction}, "
            f"max layer b0 at min radius {self.max_layer_b0_min_radius}"
            + (f", accuracy {self.accuracy:.4f})" if self.accuracy is not None else ")")
        )
        return "\n".join(lines) + "\n"


def compare_profiles(
    input_prof: ClassProfile,
    layer_prof: ClassProfile,
    threshold_fraction: float = DEFAULT_THRESHOLD,
    accuracy: Optional[float] = None,
) -> ExpressivenessReport:
    """Flag classes whose layer b0 at minimum radius falls below
    threshold_fraction times the input value."""
    if input_prof.class_ids() != layer_prof.class_ids():
        raise ValueError(
            f"class sets differ: {input_prof.class_ids()} vs {layer_prof.class_ids()}"
        )
    rows = []
    for c in input_prof.class_ids():
        inp = input_prof.curves[c].b0_at_min_radius
        lay = layer_prof.curves[c].b0_at_min_radius
        ratio = lay / inp if inp else float("inf")
        rows.append(
            ClassComparison(
                class_id=c,
                input_b0=inp,
                layer_b0=lay,
                ratio=ratio,
                flagged=lay < threshold_fraction * inp,
            )
        )
    return ExpressivenessReport(
        classes=tuple(rows),
        threshold_fraction=threshold_fraction,
        efficient=not any(r.flagged for r in rows),
        max_layer_b0_min_radius=layer_prof.max_b0_at_min_radius(),
        accuracy=accuracy,
    )


@dataclass(frozen=True)
class SweepRow:
    width: int
    seed: int
    accuracy: float
    max_b0_min_radius: int
    profile: Optional[ClassProfile]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def records(self) -> list[str]:
        """Line-oriented ``width,seed,accuracy,max_b0_min_radius``."""
        return [
            f"{r.width},{r.seed},{r.accuracy:.6g},{r.max_b0_min_radius}" for r in self.rows
        ]

    def to_text(self) -> str:
        lines = ["width  seed  accuracy  max_b0_min_radius"]
        for r in self.rows:
            note = f"  ! {r.error}" if r.error else ""
            lines.append(
                f"{r.width:5d}  {r.seed:4d}  {r.accuracy:8.4f}  {r.max_b0_min_radius:17d}{note}"
            )
        return "\n".join(lines) + "\n"


def width_sweep(
    widths: Sequence[int],
    seeds: Sequence[int],
    train_dataset: Dataset,
    test_dataset: Dataset,
    activation: ActivationFn,
    epochs: int = 5,
    lr: float = 0.1,
    batch_size: int = 32,
    layer: Optional[int] = None,
    per_class_cap: int = DEFAULT_CLASS_CAP,
) -> SweepResult:
    """Train an equal-width net of ``SWEEP_HIDDEN_LAYERS`` hidden layers per
    (width, seed), evaluate accuracy and the max-over-classes b0 at minimum
    radius of the chosen layer (default: the last hidden layer).

    The nets of one width train together, one per seed, in one
    ``train_sgd_stack`` call; each ends with the weights ``train_sgd`` gives
    it alone, so no row depends on the other seeds of the sweep.  Rows are
    then evaluated and profiled in (width, seed) order.  Row profiles hold
    b0 only (``max_dim=0``).

    A row whose training diverges, or whose layer outputs are no valid
    point cloud (activations that overflow to infinity), is recorded with
    its error and b0 0, the former with accuracy NaN; the sweep continues.
    Deterministic given the seed list.
    """
    if not widths:
        raise ValueError("need at least one width")
    if not seeds:
        raise ValueError("need at least one seed")
    if layer is None:
        layer = SWEEP_HIDDEN_LAYERS
    if not 1 <= layer <= SWEEP_HIDDEN_LAYERS:
        raise ValueError(f"layer must be in 1..{SWEEP_HIDDEN_LAYERS}, got {layer}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # each row's layer_profile warns of skipped classes
        _profiled_classes(train_dataset, per_class_cap)  # fail before any training
    rows = []
    for width in widths:
        shape = [train_dataset.dim] + [int(width)] * SWEEP_HIDDEN_LAYERS + [train_dataset.n_classes]
        nets = [build_network(shape, activation, seed=seed, batch_norm=True) for seed in seeds]
        configs = [
            TrainConfig(epochs=epochs, lr=lr, batch_size=batch_size, seed=seed) for seed in seeds
        ]
        outcomes = train_sgd_stack(nets, train_dataset, configs)
        for seed, net, outcome in zip(seeds, nets, outcomes):
            acc, prof, error = float("nan"), None, None
            if isinstance(outcome, TrainingDivergedError):
                error = str(outcome)
            else:
                acc = evaluate_accuracy(net, test_dataset)
                try:
                    prof = layer_profile(
                        net,
                        train_dataset,
                        layer=layer,
                        per_class_cap=per_class_cap,
                        seed=seed,
                        max_dim=0,
                    )
                except GeometryError as exc:  # the layer's activations overflowed
                    error = str(exc)
            rows.append(
                SweepRow(
                    width=int(width),
                    seed=int(seed),
                    accuracy=acc,
                    max_b0_min_radius=0 if prof is None else prof.max_b0_at_min_radius(),
                    profile=prof,
                    error=error,
                )
            )
    return SweepResult(rows=tuple(rows))
